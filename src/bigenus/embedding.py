"""Rotation systems and face tracing.

A rotation system assigns every vertex a cyclic order of its incident
edges; by the rotation principle this determines a 2-cell embedding in
an orientable surface. Faces are recovered by the orbit rule: the
successor of the arc (u -> v) is (v -> w) where vw is the edge after vu
in the cyclic order at v. Genus then falls out of Euler's formula,
computed per connected component.
"""

from __future__ import annotations

import functools
import itertools
from array import array
from bisect import bisect_left
from typing import Iterable, Mapping, NamedTuple, Sequence, TextIO

import numpy as np

from .bigraph import component_labels, csr_runs
from .errors import InternalConsistencyError, ValidationError

Arc = tuple[int, int]


class ArcIndex(NamedTuple):
    """Dart numbering of a graph, as int32 arrays: dart k is the arc
    (tail[k], head[k]), darts are in lexicographic (tail, head) order,
    rev[k] is the dart of the reverse arc, and v's out-darts are
    first[v], ..., first[v + 1] - 1, in neighbor order (first has one
    entry per vertex of the graph plus one)."""

    tail: np.ndarray
    head: np.ndarray
    rev: np.ndarray
    first: np.ndarray


# A rotation as dart successors (index, nxt, seq) over an ArcIndex:
# nxt[a] is the dart after a in the rotation at its tail, and seq holds
# each vertex's darts in rotation order from the one its cyclic tuple
# starts at, vertex after vertex (seq[first[v]:first[v + 1]] for v).
Darts = tuple[ArcIndex, np.ndarray, np.ndarray]


class RotationSystem:
    """Cyclic edge order per vertex, stored as the tuple of neighbor
    endpoints in cyclic succession. Two systems are equal when every
    vertex has the same cyclic tuple (the stored tuple is positional,
    not normalized, so construction should be deterministic).

    A dict whose values are all tuples is kept as it is, not copied;
    the caller must not change it afterwards.

    A system made by from_darts is held as dart successors over the
    arc_index numbering of the graph it was built for; its per-vertex
    dict is built only when something reads `order`."""

    def __init__(self, order: Mapping[int, Iterable[int]]):
        if type(order) is dict and all(type(ns) is tuple for ns in order.values()):
            self._order: dict[int, tuple[int, ...]] | None = order
        else:
            self._order = {v: tuple(ns) for v, ns in order.items()}
        self._graph = None
        self._darts: Darts | None = None

    @classmethod
    def from_darts(cls, g, darts: Darts) -> "RotationSystem":
        """The rotation of g given by darts = (index, nxt, seq) over
        index = arc_index(g). The caller guarantees that nxt permutes
        the out-darts of every vertex cyclically and that seq lists them
        in that cyclic order."""
        rot = cls.__new__(cls)
        rot._order = None
        rot._graph = g
        rot._darts = darts
        return rot

    @property
    def order(self) -> dict[int, tuple[int, ...]]:
        if self._order is None:
            index, _nxt, seq = self._darts
            heads = index.head[seq].tolist()
            first = index.first.tolist()
            self._order = {v: tuple(heads[first[v]:first[v + 1]])
                           for v in range(self._graph.n_vertices)}
        return self._order

    def darts_for(self, g) -> Darts:
        """(index, nxt, seq) of this rotation over index = arc_index(g).
        A system built for g answers from its own arrays; any other is
        first checked by validate_for."""
        if self._graph is g:
            return self._darts
        self.validate_for(g)
        index = arc_index(g)
        first = index.first.tolist()
        seq = np.array([first[v] + bisect_left(g.neighbors(v), u)
                        for v in range(g.n_vertices) for u in self.at(v)], dtype=np.int32)
        return index, cyclic_successors(index, seq), seq

    def vertices(self) -> Iterable[int]:
        return self.order.keys()

    def at(self, v: int) -> tuple[int, ...]:
        return self.order[v]

    def validate_for(self, g) -> None:
        """Check the system covers exactly the vertices of g and each
        pi_v is a permutation of the neighbors of v. A cycle equal to
        g.neighbors(v), as at every isolated vertex, passes at once."""
        order = self.order
        vertices = range(g.n_vertices)
        for v in vertices:
            cyc = order.get(v)
            if cyc is None:
                raise ValidationError(f"no rotation given for vertex {v}")
            nbrs = g.neighbors(v)
            if cyc == nbrs:
                continue
            if len(cyc) != len(set(cyc)):
                raise ValidationError(f"rotation at {v} repeats an edge")
            if set(cyc) != set(nbrs):
                raise ValidationError(f"rotation at {v} does not match its neighbors")
        if len(order) != len(vertices):
            extra = sorted(v for v in order if v not in vertices)
            raise ValidationError(f"rotation given for unknown vertices {extra}")

    def successor(self, v: int, u: int) -> int:
        """The neighbor after u in the cyclic order at v."""
        cyc = self.order[v]
        k = cyc.index(u)
        return cyc[(k + 1) % len(cyc)]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RotationSystem) and self.order == other.order

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.order.items())))

    def __repr__(self) -> str:
        n = len(self._order) if self._order is not None else self._graph.n_vertices
        return f"RotationSystem(vertices={n})"


class FaceSet:
    """Traced faces of one embedding. Every face is a tuple of arcs in
    orbit order, stored starting at its lexicographically least arc so
    equal embeddings compare equal.

    trace_faces keeps the faces as one int32 array of dart ids in orbit
    order, face after face, and builds the arc tuples of `faces` only
    when they are read."""

    def __init__(self, faces: Iterable[tuple[Arc, ...]], n_edges: int):
        self.faces = tuple(faces)
        self.n_edges = n_edges
        self.lengths = tuple(len(f) for f in self.faces)
        self._tails = np.array([f[0][0] for f in self.faces], dtype=np.int64)

    @classmethod
    def _from_orbits(cls, index: ArcIndex, orbit: np.ndarray, lengths: list[int],
                     n_edges: int) -> "FaceSet":
        """The faces whose darts over index are orbit, split into runs
        of the given lengths."""
        fs = cls.__new__(cls)
        fs.n_edges = n_edges
        fs.lengths = tuple(lengths)
        starts = np.cumsum([0] + lengths[:-1], dtype=np.int64)
        fs._tails = index.tail[orbit[starts]] if lengths else np.empty(0, dtype=np.int32)
        fs._orbits = (index, orbit)
        return fs

    @functools.cached_property
    def faces(self) -> tuple[tuple[Arc, ...], ...]:
        index, orbit = self._orbits
        arcs = list(zip(index.tail[orbit].tolist(), index.head[orbit].tolist()))
        ends = itertools.accumulate(self.lengths)
        return tuple(tuple(arcs[e - n:e]) for e, n in zip(ends, self.lengths))

    @property
    def n_faces(self) -> int:
        return len(self.lengths)

    def face_tails(self) -> list[int]:
        """The tail of the first arc of every face, in face order."""
        return self._tails.tolist()

    def face_arcs(self) -> frozenset[tuple[Arc, ...]]:
        return frozenset(self.faces)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FaceSet) and self.n_edges == other.n_edges
                and self.faces == other.faces)

    def __hash__(self) -> int:
        return hash((self.faces, self.n_edges))

    def __repr__(self) -> str:
        return f"FaceSet(faces={self.n_faces}, n_edges={self.n_edges})"


def sorted_rotation(g) -> RotationSystem:
    """The rotation that lists neighbors in ascending label order."""
    return RotationSystem({v: g.neighbors(v) for v in range(g.n_vertices)})


def arc_index(g, verts: Iterable[int] | None = None) -> ArcIndex:
    """The ArcIndex of the arcs leaving `verts`, a union of components
    of g (default: every vertex with an edge). Both directions of every
    edge with an end in `verts` are darts.

    g's CSR adjacency already lists its darts in (tail, head) order, so
    the index reads them off it; rev finds each reverse by one binary
    search over the packed tail * n + head keys."""
    n, first, head = g.n_vertices, g.first, g.nbrs
    if verts is not None:
        inside = np.zeros(n, dtype=bool)
        inside[np.fromiter(verts, dtype=np.int64)] = True
        first = np.zeros(n + 1, dtype=np.int32)
        first[1:] = np.cumsum(np.where(inside, np.diff(g.first), 0))
        head = csr_runs(g.first, g.nbrs, np.flatnonzero(inside))
    tail = np.repeat(np.arange(n, dtype=np.int32), np.diff(first))
    key = tail.astype(np.int64) * n + head
    rev = np.searchsorted(key, head.astype(np.int64) * n + tail).astype(np.int32)
    return ArcIndex(tail, head, rev, first)


def cyclic_successors(index: ArcIndex, seq: np.ndarray) -> np.ndarray:
    """nxt with nxt[seq[k]] = seq[k + 1] inside each vertex's block
    first[v]:first[v + 1] of seq, and the last dart of a block followed
    by its first: the rotation that seq lists vertex by vertex."""
    nxt = np.empty(len(seq), dtype=np.int32)
    nxt[seq[:-1]] = seq[1:]
    tail = index.tail
    last = np.flatnonzero(np.append(tail[1:] != tail[:-1], len(tail) > 0))
    nxt[seq[last]] = seq[np.append(0, last + 1)[:-1]]
    return nxt


def face_starts(nxt: Sequence[int], rev: Sequence[int]) -> list[int]:
    """The least arc id of every orbit of the face successor
    a -> nxt[rev[a]], in increasing order. nxt[a] is the arc after a in
    the rotation at its tail."""
    seen = bytearray(len(rev))
    starts = []
    for a0, done in enumerate(seen):  # reads each flag after earlier walks set it
        if done:
            continue
        starts.append(a0)
        a = a0
        while not seen[a]:
            seen[a] = 1
            a = nxt[rev[a]]
        if a != a0:
            raise InternalConsistencyError("face orbit did not close on its start arc")
    return starts


def euler_genus(n_c: int, e_c: int, f_c: int) -> int:
    """(2 - n + e - f) / 2 for one connected component; anything but an
    even nonnegative 2 - n + e - f means the trace is broken."""
    val = 2 - n_c + e_c - f_c
    if val < 0 or val % 2 != 0:
        raise InternalConsistencyError(
            f"2 - n + e - f = {val} is not an even nonnegative integer")
    return val // 2


def trace_faces(g, rot: RotationSystem) -> FaceSet:
    """Orbit decomposition of the arc set under the face-successor map."""
    index, nxt, _seq = rot.darts_for(g)
    rev, nxt = memoryview(index.rev), memoryview(nxt)
    orbit = array("i")
    lengths = []
    for a0 in face_starts(nxt, rev):
        start = len(orbit)
        a = a0
        while True:
            orbit.append(a)
            a = nxt[rev[a]]
            if a == a0:
                break
        lengths.append(len(orbit) - start)
    if len(orbit) != len(rev):
        raise InternalConsistencyError("face lengths do not cover every arc once")
    return FaceSet._from_orbits(index, np.frombuffer(orbit, dtype=np.int32), lengths,
                                len(rev) // 2)


def connected_components(g, starts: Iterable[int] | None = None
                         ) -> list[tuple[int, ...]]:
    """The components of g that contain a vertex of `starts` (default:
    every vertex), each sorted, in the order their first start comes.
    Only the vertices with an edge are labelled (component_labels); an
    isolated vertex is a component of its own."""
    n = g.n_vertices
    verts, a, b = g.local_edges()
    label = component_labels(len(verts), a, b)
    least = np.arange(n)
    least[verts] = verts[label]
    if starts is not None:
        starts = np.fromiter(starts, dtype=np.int64)
        if len(starts) and not (0 <= starts.min() and starts.max() < n):
            raise IndexError(f"start vertex out of range 0..{n - 1}")
        least = least[starts]
    # the first start of each component, by a stable sort on least
    order = np.argsort(least, kind="stable")
    roots = least[np.sort(order[np.diff(least[order], prepend=-1) != 0])]
    order = np.argsort(label, kind="stable")
    runs = np.split(verts[order], np.flatnonzero(np.diff(label[order])) + 1)
    members = {run[0]: run for run in (tuple(r.tolist()) for r in runs) if run}
    return [members.get(v, (v,)) for v in roots.tolist()]


def genus_of_embedding(g, rot: RotationSystem) -> int:
    """Sum over components of (2 - n_c + e_c - f_c) / 2, each checked by
    euler_genus; isolated vertices contribute 0."""
    return genus_from_faces(g, trace_faces(g, rot))


def genus_from_faces(g, fs: FaceSet) -> int:
    """Euler's formula per component, with n_c, e_c and f_c counted
    over the component labels of the vertices with an edge: an isolated
    vertex contributes 0 and is never labelled."""
    verts, a, b = g.local_edges()
    k = len(verts)
    label = component_labels(k, a, b)
    n_c = np.bincount(label, minlength=k)
    e_c = np.bincount(label[a], minlength=k)
    f_c = np.bincount(label[np.searchsorted(verts, fs._tails)], minlength=k)
    roots = np.flatnonzero(n_c)
    return sum(euler_genus(*c) for c in zip(n_c[roots].tolist(), e_c[roots].tolist(),
                                            f_c[roots].tolist()))


def face_length_histogram(fs: FaceSet) -> dict[int, int]:
    hist: dict[int, int] = {}
    for L in fs.lengths:
        hist[L] = hist.get(L, 0) + 1
    return dict(sorted(hist.items()))


# ---------------------------------------------------------------------------
# Text format of rotations: one line per vertex, "v: a-b a-c ..." with
# each incident edge written as its sorted endpoint pair.


def _edge_token(v: int, u: int) -> str:
    a, b = (u, v) if u < v else (v, u)
    return f"{a}-{b}"


def rotation_to_text(rot: RotationSystem, fh: TextIO) -> None:
    for v in sorted(rot.vertices()):
        tokens = " ".join(_edge_token(v, u) for u in rot.at(v))
        fh.write(f"{v}: {tokens}\n".rstrip() + "\n")

