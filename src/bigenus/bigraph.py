"""Graph data model and random bipartite generation.

Vertices are integers. For a bipartite graph with parts of sizes n1 and
n2, the X-part is 0..n1-1 and the Y-part is n1..n1+n2-1; this labelling
is fixed globally and used by every other module.

Randomness comes from counter-based Philox streams keyed by (seed,
stream-id), so edge presence and edge orientation are independent and
reproducible bit for bit. A stream is Philox4x64-10 (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011):
- key: the two 64-bit words that numpy's SeedSequence([seed, stream])
  generates, that is its 32-bit hash mix over the entropy (each integer
  cut into 32-bit words, low word first) into a pool of 4 words;
- counter: block k of the stream (0-based) is the 10-round bijection of
  the counter (k + 1, 0, 0, 0), four 64-bit words in order;
- draw: a stream is drawn once, by draw_below, as the indices k < n whose
  word w (the k-th of the stream) gives a uniform (w >> 11) * 2^-53
  below p; that holds exactly when w < ceil(p * 2^53) * 2^11, so the
  words are compared as integers and never become floats.
The indices equal numpy's np.flatnonzero(Generator(Philox(SeedSequence(
[seed, stream]))).random(n) < p) bit for bit. They are computed here over
numpy uint64 arrays because importing numpy.random also imports secrets,
hashlib and OpenSSL, about 5.4 MB of resident memory in every process,
for entropy a seeded stream never asks for.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
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

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
# SeedSequence's hash mix: pool constants (A), output constants (B).
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
# Philox4x64-10: round multipliers and key increments (Weyl constants).
_PHILOX_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
# Philox blocks computed per pass: 8 rows of this many uint64 words
# (512 KiB) and a mask of 4 bools per block are a draw's temporaries.
_KERNEL_BLOCKS = 8192


def _u64(value: int) -> np.ndarray:
    """A 0-d uint64 operand. Every kernel operand is uint64, so numpy
    1.x value-based casting and NEP 50 alike keep uint64 wrap-around;
    a 0-d array is also cheaper per ufunc call than a numpy scalar."""
    return np.array(value & _MASK64, dtype=np.uint64)


_LOW32, _SHIFT32 = _u64(_MASK32), _u64(32)
_MUL = tuple((_u64(m), _u64(m & _MASK32), _u64(m >> 32)) for m in _PHILOX_MUL)


def check_seed(seed: int, name: str = "seed") -> None:
    """Refuse anything but a nonnegative integer as a seed."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"{name} must be a nonnegative integer, got {seed!r}")


def _seed_state(seed: int, stream: int, n: int) -> list[int]:
    """The first n uint64 words of SeedSequence([seed, stream]).generate_state."""
    check_seed(seed)
    check_seed(stream, "stream")
    entropy = []
    for value in (int(seed), int(stream)):
        entropy.append(value & _MASK32)
        while value > _MASK32:
            value >>= 32
            entropy.append(value & _MASK32)
    mult = _HASH_INIT_A

    def hashmix(value: int) -> int:
        nonlocal mult
        value ^= mult
        mult = mult * _HASH_MULT_A & _MASK32
        value = value * mult & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[k] if k < len(entropy) else 0) for k in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = mix(pool[dst], hashmix(word))
    mult, words = _HASH_INIT_B, []
    for k in range(2 * n):
        value = pool[k % _POOL_WORDS] ^ mult
        mult = mult * _HASH_MULT_B & _MASK32
        value = value * mult & _MASK32
        words.append(value ^ value >> 16)
    return [words[2 * k] | words[2 * k + 1] << 32 for k in range(n)]


def draw_below(seed: int, stream: int, n: int, p: float) -> np.ndarray:
    """The indices k < n, ascending, whose uniform in the (seed, stream)
    stream is below p, bit for bit as numpy draws them (module docstring).

    The kernel runs in passes of _KERNEL_BLOCKS blocks. A round maps
    (c0, c1, c2, c3) to (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3
    ^ k1, lo(M0 c0)). Each word is a uint64 row over the blocks of one
    pass, each 128-bit product is assembled from four 32 x 32-bit ones,
    and lo overwrites the factor's own row. The counter (k + 1, 0, 0, 0)
    makes three words constant in round 0 and two in round 1, which
    those rounds take as integers. Each pass compares its four rows with
    the threshold ceil(p 2^53) 2^11 into a (blocks, 4) mask; its flat
    indices, plus 4 per earlier block, are the stream's."""
    k0, k1 = _seed_state(seed, stream, 2)
    if n <= 0 or p <= 0:
        return np.empty(0, dtype=np.int64)
    if p >= 1:
        return np.arange(n, dtype=np.int64)
    below = _u64(math.ceil(p * 2 ** 53) << 11)
    keys = [(_u64(k0 + r * _PHILOX_BUMP[0]), _u64(k1 + r * _PHILOX_BUMP[1]))
            for r in range(_PHILOX_ROUNDS)]
    mul, and_, shr, add, xor = (np.multiply, np.bitwise_and, np.right_shift,
                                np.add, np.bitwise_xor)
    blocks = -(-n // 4)
    width = min(blocks, _KERNEL_BLOCKS)
    rows = np.empty((8, width), dtype=np.uint64)
    mask = np.empty((width, 4), dtype=bool)
    # Round 1 multiplies M0 by round 0's constant c0 = k0.
    hi_k0, lo_k0 = divmod(_PHILOX_MUL[0] * int(keys[0][0]), 1 << 64)
    k1_hi_k0 = _u64(hi_k0 ^ int(keys[1][1]))

    def mulhilo(x, j):
        """Overwrite x with lo(M_j x); return hi(M_j x) in a scratch row."""
        m, m_lo, m_hi = _MUL[j]
        and_(x, _LOW32, xl)
        shr(x, _SHIFT32, xh)
        mul(x, m, x)
        mul(xl, m_lo, w)
        shr(w, _SHIFT32, w)
        mul(xh, m_lo, t)
        add(t, w, t)           # t = x_hi m_lo + (x_lo m_lo >> 32)
        and_(t, _LOW32, w)
        mul(xl, m_hi, xl)
        add(w, xl, w)          # w = (t & mask32) + x_lo m_hi
        shr(w, _SHIFT32, w)
        shr(t, _SHIFT32, t)
        mul(xh, m_hi, xh)
        add(xh, t, xh)
        return add(xh, w, xh)  # x_hi m_hi + (t >> 32) + (w >> 32)

    found = []
    for start in range(0, blocks, width):
        b = min(width, blocks - start)
        r0, r1, r2, r3, xl, xh, w, t = (row[:b] for row in rows)
        r0[:] = np.arange(start + 1, start + 1 + b, dtype=np.uint64)
        # Round 0 on (r0, 0, 0, 0) gives (k0, 0, r2, r0).
        xor(mulhilo(r0, 0), keys[0][1], r2)
        # Round 1 on (k0, 0, r2, r0) gives (r1, r2, r0, r3).
        xor(mulhilo(r2, 1), keys[1][0], r1)
        xor(r0, k1_hi_k0, r0)
        r3[:] = lo_k0
        c0, c1, c2, c3 = r1, r2, r0, r3
        for key0, key1 in keys[2:]:
            xor(c3, mulhilo(c0, 0), c3)
            xor(c3, key1, c3)
            xor(c1, mulhilo(c2, 1), c1)
            xor(c1, key0, c1)
            c0, c1, c2, c3 = c1, c2, c3, c0
        for j, row in enumerate((c0, c1, c2, c3)):
            np.less(row, below, out=mask[:b, j])
        found.append(np.flatnonzero(mask[:b]) + 4 * start)
    hits = np.concatenate(found)
    return hits[:np.searchsorted(hits, n)]


def derive_int_seed(seed: int, stream: int) -> int:
    """A 64-bit integer derived from (seed, stream), for random.Random:
    the first key word of its Philox stream."""
    return _seed_state(seed, stream, 1)[0]


@dataclass(frozen=True)
class GenParams:
    """Parameters of the random bipartite model G(n1, n2, p)."""

    n1: int
    n2: int
    p: float
    seed: int = 0

    def __post_init__(self) -> None:
        check_seed(self.seed)
        if not (self.n1 >= self.n2 >= 1):
            raise ValidationError(f"need n1 >= n2 >= 1, got n1={self.n1} n2={self.n2}")
        if not (0.0 <= self.p <= 1.0):
            raise ValidationError(f"p must lie in [0,1], got {self.p}")


def _least(u: np.ndarray, v: np.ndarray, bad: np.ndarray) -> tuple[int | None, int | None]:
    """The lexicographically least pair (u[k], v[k]) with bad[k], or (None, None)."""
    pairs = sorted(zip(u[bad].tolist(), v[bad].tolist()))
    return pairs[0] if pairs else (None, None)


def csr_runs(first: np.ndarray, nbrs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The neighbour runs nbrs[first[r]:first[r + 1]] of the rows r, one
    after another: O(their total length), whatever the size of nbrs."""
    start = first[rows]
    count = first[rows + 1] - start
    return nbrs[np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)]


def run_ends(x: np.ndarray) -> np.ndarray:
    """The index of the last entry of every run of equal values in x,
    ascending."""
    return np.flatnonzero(np.append(x[1:] != x[:-1], len(x) > 0))


def distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of x, ascending. np.unique does the same but
    imports numpy.ma, about 1.3 MB of resident memory, on first use."""
    x = np.sort(x)
    return x[run_ends(x)]


def key_dtype(n: int) -> type:
    """The dtype of the keys t n + h of pairs of labels below n: int32
    while n^2 <= 2^31, so that every key fits, and int64 past that."""
    return np.int32 if n * n <= 2 ** 31 else np.int64


def pair_keys(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The keys a[k] n + b[k], in key_dtype(n), of pairs of labels below
    n; they sort as the pairs do."""
    key = a.astype(key_dtype(n))
    key *= n
    key += b
    return key


def component_labels(k: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """label[j], the least of the vertices 0..k-1 joined to j by the
    edges (a[i], b[i]).

    Hooking and pointer jumping: each round hooks every root that an
    edge joins to a smaller root onto the least such root, then jumps
    pointers until every vertex points at a root. Labels only decrease,
    so a root is the least vertex of its tree; an edge inside one tree
    stays there and is dropped, and the rounds end when none is left."""
    label = np.arange(k, dtype=np.int32)
    while len(a):
        la, lb = label[a], label[b]
        cross = la != lb
        a, b = a[cross], b[cross]
        np.minimum.at(label, np.maximum(la, lb)[cross], np.minimum(la, lb)[cross])
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up
    return label


class Graph:
    """Simple undirected graph on vertices 0..n-1 (not necessarily bipartite).

    The edges are two int32 arrays u < v in lexicographic order: edge k
    is (u[k], v[k]). Adjacency is CSR, two int32 arrays: the neighbours
    of vertex w are nbrs[first[w]:first[w + 1]], ascending. A graph holds
    4(n + 1) bytes plus 16 per edge and no Python object per edge or
    vertex; neighbors(w) builds its tuples when first read.

    The edges may come in any order and either orientation, as pairs or
    as an (m, 2) integer array. They are checked in their own dtype,
    narrowed to int32 and sorted once as dart keys t n + h (int32 while
    n^2 <= 2^31, else int64; see pair_keys), which give nbrs, first and
    the edges at once. With int32 keys the build's temporaries peak at
    about 14 bytes per edge, and no array but first has an entry per
    vertex.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray):
        if n < 0:
            raise ValidationError("vertex count must be nonnegative")
        self.n = n
        ends = edges
        if not isinstance(ends, np.ndarray) or ends.dtype.kind not in "iu":
            try:
                ends = np.asarray(ends if isinstance(ends, np.ndarray) else list(ends),
                                  dtype=np.int64)
            except OverflowError:
                raise ValidationError("edge label out of range") from None
        if ends.size == 0:
            ends = ends.reshape(0, 2)
        if ends.ndim != 2 or ends.shape[1] != 2:
            raise ValidationError("edges must be pairs of vertices")
        # Each temporary is dropped as soon as it is used: together they
        # would set the peak of generating a graph. The labels are
        # checked in the input's dtype, so narrowing them to int32 is
        # exact.
        u, v = np.minimum(ends[:, 0], ends[:, 1]), np.maximum(ends[:, 0], ends[:, 1])
        del ends
        self._check_edges(u, v)
        u, v = u.astype(np.int32, copy=False), v.astype(np.int32, copy=False)
        # Dart t -> h is the key t n + h, as pair_keys makes it, built
        # in place; sorted keys list every vertex's neighbours as one
        # ascending run, and each edge (u, v), u < v, is the dart u -> v,
        # in lexicographic order.
        m = len(u)
        key = np.empty(2 * m, dtype=key_dtype(n))
        key[:m], key[m:] = u, v
        key *= n
        key[:m] += v
        key[m:] += u
        del u, v
        key.sort()
        dup = np.flatnonzero(key[1:] == key[:-1])
        if len(dup):
            # the least duplicate dart is the up dart of the least such edge
            raise ValidationError("duplicate edge ({},{})".format(*divmod(int(key[dup[0]]), n)))
        # One int32 block holds u, v, nbrs and first. Four blocks made
        # between the temporaries split the heap's free memory, and a
        # later trail family then took fresh pages: dense-i1's peak RSS
        # read 41.5-42.8 MB instead of 39.0-39.5 on most seeds.
        self.u, self.v, self.nbrs, self.first = np.split(
            np.empty(4 * m + n + 1, dtype=np.int32), [m, 2 * m, 4 * m])
        np.remainder(key, n, out=self.nbrs)
        key //= n
        up = key < self.nbrs
        self.u[:] = key[up]
        self.v[:] = self.nbrs[up]
        del up
        # first[t + 1] is one past the last dart of tail t, and the
        # running maximum carries it over vertices with no dart
        last = run_ends(key)
        self.first[:] = 0
        self.first[key[last] + 1] = last + 1
        np.maximum.accumulate(self.first, out=self.first)

    @functools.cached_property
    def _adj(self) -> list[tuple[int, ...]]:
        """neighbors(w) for every w; isolated vertices share one empty tuple."""
        adj: list[tuple[int, ...]] = [()] * self.n
        nbrs, first = self.nbrs.tolist(), self.first.tolist()
        for w in self._linked().tolist():
            adj[w] = tuple(nbrs[first[w]:first[w + 1]])
        return adj

    def local_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(verts, a, b): the vertices that have an edge, ascending, and
        every edge as (a[k], b[k]) with vertex verts[j] relabelled j.
        Isolated vertices are left out, so this costs O(edges) however
        many vertices the graph has; with none, the arrays returned are
        the graph's own, to be read only."""
        verts = self._linked()
        if len(verts) == self.n:
            return verts, self.u, self.v
        return verts, np.searchsorted(verts, self.u), np.searchsorted(verts, self.v)

    def local_adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(verts, first, nbrs): the vertices of local_edges() and their
        CSR adjacency with vertex verts[j] relabelled j."""
        verts = self._linked()
        if len(verts) == self.n:
            return verts, self.first, self.nbrs
        # the runs of the vertices with edges tile nbrs
        first = np.append(self.first[verts], len(self.nbrs))
        return verts, first, np.searchsorted(verts, self.nbrs)

    def _linked(self) -> np.ndarray:
        """The vertices that have an edge, ascending."""
        return np.flatnonzero(self.first[1:] != self.first[:-1])

    def _check_edges(self, u: np.ndarray, v: np.ndarray) -> None:
        """Reject loops and labels outside 0..n-1 among the edges
        (u[k], v[k]), u <= v, naming the least bad one."""
        x, y = _least(u, v, (u == v) | (u < 0) | (v >= self.n))
        if x is not None:
            raise ValidationError(f"loop at vertex {x}" if x == y
                                  else f"edge ({x},{y}) out of range")

    @property
    def n_vertices(self) -> int:
        return self.n

    @property
    def n_edges(self) -> int:
        return len(self.u)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range")

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return int(self.first[v + 1] - self.first[v])

    def _key(self) -> tuple:
        return (self.n,)

    def __eq__(self, other: object) -> bool:
        return (type(other) is type(self) and self._key() == other._key()
                and np.array_equal(self.u, other.u) and np.array_equal(self.v, other.v))

    def __hash__(self) -> int:
        return hash((self._key(), self.u.tobytes(), self.v.tobytes()))

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

    def _check_edges(self, u: np.ndarray, v: np.ndarray) -> None:
        x, y = _least(u, v, (u < 0) | (u >= self.n1) | (v < self.n1) | (v >= self.n))
        if x is not None:
            raise ValidationError(f"edge ({x},{y}) does not join X to Y")

    def _key(self) -> tuple:
        return self.n1, self.n2

    def __repr__(self) -> str:
        return f"BipartiteGraph(n1={self.n1}, n2={self.n2}, edges={self.n_edges})"


def induced_subgraph(g: Graph, verts) -> Graph:
    """The subgraph of g induced by the ascending vertices verts, with
    vertex verts[k] relabelled k, so every neighbour list keeps its
    order. A BipartiteGraph stays bipartite, its X-vertices first."""
    verts = np.asarray(verts, dtype=np.int64)
    inside = np.zeros(g.n_vertices, dtype=bool)
    inside[verts] = True
    keep = inside[g.u] & inside[g.v]
    edges = np.column_stack((np.searchsorted(verts, g.u[keep]),
                             np.searchsorted(verts, g.v[keep])))
    if isinstance(g, BipartiteGraph):
        n1 = int(np.searchsorted(verts, g.n1))
        return BipartiteGraph(n1, len(verts) - n1, edges)
    return Graph(len(verts), edges)


class Digraph:
    """Directed graph; when built by orient_randomly it is an orientation,
    meaning at most one of (u,v), (v,u) is present.

    The arcs are held as two int32 arrays, tail and head, in
    lexicographic (tail, head) order: arc k is (tail[k], head[k]), and
    no Python object is held per arc."""

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValidationError("vertex count must be nonnegative")
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

    @property
    def n_vertices(self) -> int:
        return self.n

    @property
    def n_arcs(self) -> int:
        return len(self.tail)

    def is_orientation(self) -> bool:
        key = pair_keys(self.tail, self.head, self.n)
        back = pair_keys(self.head, self.tail, self.n)
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


def gen_random_bipartite(params: GenParams) -> BipartiteGraph:
    """Each of the n1*n2 possible edges appears independently with
    probability p, driven by the (seed, edge-stream) Philox generator:
    cell x*n2 + y' (edge x -- n1+y') is present when the uniform at that
    position of the stream is below p. The cells are drawn ascending,
    so the edges reach the graph as int32 pairs in lexicographic order."""
    n1, n2 = params.n1, params.n2
    cells = draw_below(params.seed, STREAM_EDGES, n1 * n2, params.p)
    edges = np.empty((len(cells), 2), dtype=np.int32)
    edges[:, 0] = cells // n2
    np.remainder(cells, n2, out=cells)
    cells += n1
    edges[:, 1] = cells
    del cells
    return BipartiteGraph(n1, n2, edges)


def standard_class_sizes(n1: int, n2: int, p: float) -> list[int]:
    """Class size floor(p^m (1-p)^(n2-m) n1) for each subset cardinality m.

    With p = a/d exactly (p.as_integer_ratio()), that is
    a^m (d-a)^(n2-m) n1 // d^n2, in integers, so the floor never suffers
    from float rounding at class-size boundaries.
    """
    a, d = p.as_integer_ratio()
    return [a ** m * (d - a) ** (n2 - m) * n1 // d ** n2 for m in range(n2 + 1)]


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
            edges.extend((x, n1 + j) for j in range(n2) if mask >> j & 1)
            x += 1
    return BipartiteGraph(n1, n2, edges)


def orient_randomly(g, seed: int) -> Digraph:
    """One arc per edge, direction by a fair seeded coin per edge.

    Works for BipartiteGraph and Graph inputs alike; the coin stream is
    indexed by the position of the edge in sorted order, and edge (u, v)
    with u < v becomes the arc u -> v when its coin is below 1/2.
    """
    keep = np.zeros(g.n_edges, dtype=bool)
    keep[draw_below(seed, STREAM_ORIENT, g.n_edges, 0.5)] = True
    tail = np.where(keep, g.u, g.v)
    head = np.where(keep, g.v, g.u)
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
    first, nbrs = g.first[:g.n1 + 1].tolist(), g.nbrs[:g.first[g.n1]].tolist()
    for x in range(g.n1):
        classes.setdefault(frozenset(nbrs[first[x]:first[x + 1]]), []).append(x)
    return classes


# ---------------------------------------------------------------------------
# Plain-text formats. Bipartite graphs: header "bipartite n1 n2" then one
# "x y" line per edge. Digraphs: header "digraph n" then "tail head" lines.


def write_bipartite(g: BipartiteGraph, fh: TextIO) -> None:
    fh.write(f"bipartite {g.n1} {g.n2}\n")
    for x, y in zip(g.u.tolist(), g.v.tolist()):
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
    return isinstance(g, BipartiteGraph) or _sides(g) is not None


def _sides(g: Graph) -> tuple[np.ndarray, np.ndarray] | None:
    """(verts, side): the vertices that have an edge, ascending, and the
    side of each, False or True; None when g has an odd cycle. One
    labelling of the bipartite double cover, where edge (a, b) joins a
    to b + k and a + k to b, decides both: a vertex v and its copy v + k
    are joined exactly when an odd cycle reaches v. Otherwise the least
    vertex of a component and the vertices at even distance from it
    carry the lesser of the two labels, so side(v) is
    label[v] > label[v + k]."""
    verts, a, b = g.local_edges()
    k = len(verts)
    label = component_labels(2 * k, np.concatenate((a, a + k)), np.concatenate((b + k, b)))
    own, copy = label[:k], label[k:]
    return None if (own == copy).any() else (verts, own > copy)


def two_coloring(g) -> tuple[Sequence[int], Sequence[int]] | None:
    """A proper 2-coloring (side0, side1) of the vertex set, or None.
    A BipartiteGraph answers with its X and Y ranges; otherwise the
    least vertex of every component, isolated ones included, is on
    side 0."""
    if isinstance(g, BipartiteGraph):
        return range(g.n1), range(g.n1, g.n)
    sides = _sides(g)
    if sides is None:
        return None
    color = np.zeros(g.n_vertices, dtype=np.int8)
    color[sides[0]] = sides[1]
    return tuple(np.flatnonzero(color == 0).tolist()), tuple(np.flatnonzero(color).tolist())
