"""Graph data model and random bipartite generation.

Vertices are integers. For a bipartite graph with parts of sizes n1 and
n2, the X-part is 0..n1-1 and the Y-part is n1..n1+n2-1; this labelling
is fixed globally and used by every other module.

Randomness comes from counter-based Philox streams keyed by (seed,
stream-id), so edge presence and edge orientation are independent and
reproducible bit for bit.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, TextIO

import numpy as np

from .errors import GuardError, ValidationError

# Stream ids keeping the different uses of one seed independent.
STREAM_EDGES = 0
STREAM_ORIENT = 1
STREAM_MATCH = 2
STREAM_MIRROR = 3

# Subset-indexed operations refuse beyond this part size (2^n2 blowup).
MAX_SMALL_PART = 20

# Uniforms drawn per numpy call by gen_random_bipartite (512 KiB of
# doubles); bounds its temporaries without changing its output.
_GEN_CHUNK = 1 << 16


def rng_stream(seed: int, stream: int) -> np.random.Generator:
    """Philox generator for one (seed, stream) pair."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))


def derive_int_seed(seed: int, stream: int) -> int:
    """A 64-bit integer derived from (seed, stream), for random.Random."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class GenParams:
    """Parameters of the random bipartite model G(n1, n2, p)."""

    n1: int
    n2: int
    p: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.n1 >= self.n2 >= 1):
            raise ValidationError(f"need n1 >= n2 >= 1, got n1={self.n1} n2={self.n2}")
        if not (0.0 <= self.p <= 1.0):
            raise ValidationError(f"p must lie in [0,1], got {self.p}")


class Graph:
    """Simple undirected graph on vertices 0..n-1 (not necessarily bipartite).

    Adjacency is a list indexed by vertex; every isolated vertex holds
    the one shared empty tuple, so a graph costs O(edges) Python objects
    however many isolated vertices it has.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValidationError("vertex count must be nonnegative")
        self.n = n
        norm = sorted((a, b) if a < b else (b, a) for (a, b) in edges)
        for k in range(1, len(norm)):
            if norm[k] == norm[k - 1]:
                raise ValidationError(f"duplicate edge ({norm[k][0]},{norm[k][1]})")
        self._check_edges(norm)
        self.edge_list: tuple[tuple[int, int], ...] = tuple(norm)
        nbrs: dict[int, list[int]] = {}
        for (u, v) in norm:
            nbrs.setdefault(u, []).append(v)
            nbrs.setdefault(v, []).append(u)
        self._adj: list[tuple[int, ...]] = [()] * n
        for v, ns in nbrs.items():
            self._adj[v] = tuple(sorted(ns))

    @functools.cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edge_list)

    def edge_array(self) -> np.ndarray:
        """The edge list as an (edges, 2) int32 array, rows (u, v), u < v."""
        m = len(self.edge_list)
        return np.fromiter(itertools.chain.from_iterable(self.edge_list), dtype=np.int32,
                           count=2 * m).reshape(m, 2)

    def _check_edges(self, edges: list[tuple[int, int]]) -> None:
        """Reject loops and labels outside 0..n-1; edges come as (u, v), u <= v."""
        for (u, v) in edges:
            if u == v:
                raise ValidationError(f"loop at vertex {u}")
            if not (0 <= u and v < self.n):
                raise ValidationError(f"edge ({u},{v}) out of range")

    @property
    def n_vertices(self) -> int:
        return self.n

    @property
    def n_edges(self) -> int:
        return len(self.edge_list)

    def neighbors(self, v: int) -> tuple[int, ...]:
        if v < 0:
            raise IndexError(f"vertex {v} out of range")
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def _key(self) -> tuple:
        return self.n, self.edge_list

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.n_edges})"


class BipartiteGraph(Graph):
    """Simple bipartite graph on X = 0..n1-1 and Y = n1..n1+n2-1."""

    def __init__(self, n1: int, n2: int, edges: Iterable[tuple[int, int]]):
        if n1 < 0 or n2 < 0:
            raise ValidationError("part sizes must be nonnegative")
        self.n1 = n1
        self.n2 = n2
        super().__init__(n1 + n2, edges)

    def _check_edges(self, edges: list[tuple[int, int]]) -> None:
        n1, n = self.n1, self.n
        for (x, y) in edges:
            if not (0 <= x < n1 <= y < n):
                raise ValidationError(f"edge ({x},{y}) does not join X to Y")

    def x_vertices(self) -> range:
        return range(self.n1)

    def y_vertices(self) -> range:
        return range(self.n1, self.n)

    def _key(self) -> tuple:
        return self.n1, self.n2, self.edge_list

    def __repr__(self) -> str:
        return f"BipartiteGraph(n1={self.n1}, n2={self.n2}, edges={self.n_edges})"


class Digraph:
    """Directed graph; when built by orient_randomly it is an orientation,
    meaning at most one of (u,v), (v,u) is present.

    The arcs are held as two int32 arrays, tail and head, in
    lexicographic (tail, head) order: arc k is (tail[k], head[k]). The
    tuple views arc_list and arc_set are built only when read."""

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]]):
        norm = [(t, h) for (t, h) in arcs]
        for (t, h) in norm:
            if t == h:
                raise ValidationError(f"loop arc at {t}")
            if not (0 <= t < n and 0 <= h < n):
                raise ValidationError(f"arc ({t},{h}) out of range")
        norm.sort()
        for k in range(1, len(norm)):
            if norm[k] == norm[k - 1]:
                raise ValidationError(f"duplicate arc ({norm[k][0]},{norm[k][1]})")
        ends = np.array(norm, dtype=np.int32).reshape(-1, 2)
        self.n, self.tail, self.head = n, ends[:, 0].copy(), ends[:, 1].copy()

    @classmethod
    def _from_sorted(cls, n: int, tail: np.ndarray, head: np.ndarray) -> "Digraph":
        """The digraph on arcs (tail[k], head[k]), which the caller
        guarantees are distinct, loop-free, in range and sorted."""
        d = cls.__new__(cls)
        d.n, d.tail, d.head = n, tail, head
        return d

    @functools.cached_property
    def arc_list(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.tail.tolist(), self.head.tolist()))

    @functools.cached_property
    def arc_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.arc_list)

    @property
    def n_vertices(self) -> int:
        return self.n

    @property
    def n_arcs(self) -> int:
        return len(self.tail)

    def is_orientation(self) -> bool:
        key = self.tail.astype(np.int64) * self.n + self.head
        back = self.head.astype(np.int64) * self.n + self.tail
        pos = np.minimum(np.searchsorted(key, back), len(key) - 1)
        return not len(key) or not (key[pos] == back).any()

    def reverse(self) -> "Digraph":
        order = np.lexsort((self.tail, self.head))
        return Digraph._from_sorted(self.n, self.head[order], self.tail[order])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and np.array_equal(self.tail, other.tail)
            and np.array_equal(self.head, other.head)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.tail.tobytes(), self.head.tobytes()))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={self.n_arcs})"


def iter_bits(mask: int):
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def gen_random_bipartite(params: GenParams) -> BipartiteGraph:
    """Each of the n1*n2 possible edges appears independently with
    probability p, driven by the (seed, edge-stream) Philox generator.

    Cell x*n2 + y' (edge x -- n1+y') takes the uniform at that position
    of the stream. Philox hands out one double per uniform whatever the
    draw size, so drawing in chunks of _GEN_CHUNK bounds memory without
    changing the output: it depends only on params.
    """
    n1, n2, p = params.n1, params.n2, params.p
    gen = rng_stream(params.seed, STREAM_EDGES)
    total = n1 * n2
    cells = []
    for offset in range(0, total, _GEN_CHUNK):
        u = gen.random(min(_GEN_CHUNK, total - offset))
        cells.append(np.flatnonzero(u < p) + offset)
    x, y = np.divmod(np.concatenate(cells), n2)
    return BipartiteGraph(n1, n2, zip(x.tolist(), (y + n1).tolist()))


def standard_class_sizes(n1: int, n2: int, p: float) -> list[int]:
    """Class size floor(p^m (1-p)^(n2-m) n1) for each subset cardinality m.

    Computed in exact rational arithmetic so the floor never suffers
    from float rounding at class-size boundaries.
    """
    pf = Fraction(p)
    qf = 1 - pf
    sizes = []
    for m in range(n2 + 1):
        val = pf ** m * qf ** (n2 - m) * n1
        sizes.append(int(val.numerator // val.denominator))
    return sizes


def standard_graph(n1: int, n2: int, p: float) -> BipartiteGraph:
    """The deterministic graph realizing the expected neighborhood-class
    sizes: for every subset Y' of Y, exactly floor(p^|Y'| (1-p)^(n2-|Y'|) n1)
    X-vertices have neighborhood exactly Y'.

    Subsets are processed in increasing bitmask order and take consecutive
    X labels; X-vertices left over after all classes are filled stay
    isolated, so the graph always has n1 X-slots.
    """
    if n2 > MAX_SMALL_PART:
        raise GuardError(f"standard_graph needs n2 <= {MAX_SMALL_PART}, got {n2}")
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"p must lie in [0,1], got {p}")
    if n1 < 1 or n2 < 1:
        raise ValidationError("need n1 >= 1 and n2 >= 1")
    size_by_m = standard_class_sizes(n1, n2, p)
    edges = []
    x = 0
    for mask in range(1 << n2):
        size = size_by_m[mask.bit_count()]
        for _ in range(size):
            if x >= n1:
                break
            for j in iter_bits(mask):
                edges.append((x, n1 + j))
            x += 1
    return BipartiteGraph(n1, n2, edges)


def orient_randomly(g, seed: int) -> Digraph:
    """One arc per edge, direction by a fair seeded coin per edge.

    Works for BipartiteGraph and Graph inputs alike; the coin stream is
    indexed by the position of the edge in sorted order, and edge (u, v)
    with u < v becomes the arc u -> v when its coin is below 1/2.
    """
    gen = rng_stream(seed, STREAM_ORIENT)
    ends = g.edge_array()
    flip = gen.random(len(ends)) >= 0.5
    tail = np.where(flip, ends[:, 1], ends[:, 0])
    head = np.where(flip, ends[:, 0], ends[:, 1])
    order = np.lexsort((head, tail))
    return Digraph._from_sorted(g.n_vertices, tail[order], head[order])


def degree_class_partition(g: BipartiteGraph) -> dict[frozenset[int], list[int]]:
    """Map each realized neighborhood Y' to the X-vertices whose
    neighborhood is exactly Y'. Subsets with no member are absent from
    the result; every X-vertex appears in exactly one class.
    """
    if g.n2 > MAX_SMALL_PART:
        raise GuardError(f"degree_class_partition needs n2 <= {MAX_SMALL_PART}, got {g.n2}")
    classes: dict[frozenset[int], list[int]] = {}
    for x in g.x_vertices():
        key = frozenset(g.neighbors(x))
        classes.setdefault(key, []).append(x)
    return classes


# ---------------------------------------------------------------------------
# Plain-text formats. Bipartite graphs: header "bipartite n1 n2" then one
# "x y" line per edge. Digraphs: header "digraph n" then "tail head" lines.


def write_bipartite(g: BipartiteGraph, fh: TextIO) -> None:
    fh.write(f"bipartite {g.n1} {g.n2}\n")
    for (x, y) in g.edge_list:
        fh.write(f"{x} {y}\n")


def _read_pairs(fh: TextIO, header: str) -> tuple[list[int], list[tuple[int, int]]]:
    """The integers of the header line and the pairs of the lines below
    it. `header` names the expected first line, e.g. 'bipartite n1 n2';
    a line that does not parse is refused with its number."""
    word, *names = header.split()

    def ints(tokens: list[str], count: int, lineno: int, line: str, want: str) -> list[int]:
        try:
            if len(tokens) == count:
                return [int(tok) for tok in tokens]
        except ValueError:
            pass
        raise ValidationError(f"line {lineno}: expected {want}, got {line.strip()!r}")

    first = fh.readline()
    tokens = first.split()
    if tokens[:1] != [word]:
        raise ValidationError(f"line 1: expected header {header!r}, got {first.strip()!r}")
    params = ints(tokens[1:], len(names), 1, first, f"header {header!r}")
    pairs = []
    for lineno, line in enumerate(fh, 2):
        tokens = line.split()
        if tokens and not tokens[0].startswith("#"):
            pairs.append(tuple(ints(tokens, 2, lineno, line, "two integers")))
    return params, pairs


def read_bipartite(fh: TextIO) -> BipartiteGraph:
    (n1, n2), edges = _read_pairs(fh, "bipartite n1 n2")
    return BipartiteGraph(n1, n2, edges)


def write_digraph(d: Digraph, fh: TextIO) -> None:
    fh.write(f"digraph {d.n}\n")
    for t, h in zip(d.tail.tolist(), d.head.tolist()):
        fh.write(f"{t} {h}\n")


def read_digraph(fh: TextIO) -> Digraph:
    (n,), arcs = _read_pairs(fh, "digraph n")
    return Digraph(n, arcs)


# ---------------------------------------------------------------------------
# Small deterministic families used by tests and the oracle CLI.


def complete_bipartite_graph(m: int, n: int) -> BipartiteGraph:
    return BipartiteGraph(m, n, [(x, m + y) for x in range(m) for y in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValidationError("cycle needs at least 3 vertices")
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def is_bipartite(g) -> bool:
    return two_coloring(g) is not None


def two_coloring(g) -> tuple[Sequence[int], Sequence[int]] | None:
    """A proper 2-coloring (side0, side1) of the vertex set, or None.
    A BipartiteGraph answers with its X and Y ranges."""
    if isinstance(g, BipartiteGraph):
        return g.x_vertices(), g.y_vertices()
    color: dict[int, int] = {}
    for s in range(g.n_vertices):
        if s in color:
            continue
        color[s] = 0
        queue = [s]
        while queue:
            v = queue.pop()
            for w in g.neighbors(v):
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    side0 = tuple(v for v in range(g.n_vertices) if color[v] == 0)
    side1 = tuple(v for v in range(g.n_vertices) if color[v] == 1)
    return side0, side1

