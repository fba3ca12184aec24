"""Rotation systems and face tracing.

A rotation system assigns every vertex a cyclic order of its incident
edges; by the rotation principle this determines a 2-cell embedding in
an orientable surface. Faces are recovered by the orbit rule: the
successor of the arc (u -> v) is (v -> w) where vw is the edge after vu
in the cyclic order at v. Genus then falls out of Euler's formula,
computed per connected component.

A RotationSystem and a FaceSet each hold the graph they were built
for, so trace_faces, genus_from_faces and genus_of_embedding take the
object alone. A rotation has one form, a dart order seq over the
arc_index of its graph, and a face set is its dart orbit and face
lengths. Every rotation the package builds is a dart order given to
RotationSystem.from_seq; RotationSystem(g, order) checks and converts
per-vertex neighbor orders handed in from outside into seq once.
"""

from __future__ import annotations

import functools
import itertools
from array import array
from bisect import bisect_left
from collections import Counter
from typing import Iterable, Mapping, NamedTuple, Sequence, TextIO

import numpy as np

from .bigraph import component_labels, pair_keys, run_ends
from .errors import InternalConsistencyError, ValidationError

Arc = tuple[int, int]


class ArcIndex(NamedTuple):
    """Dart numbering of a graph, as int32 arrays: dart k is the arc
    (tail[k], head[k]), darts are in lexicographic (tail, head) order,
    rev[k] is the dart of the reverse arc, and v's out-darts are
    first[v], ..., first[v + 1] - 1, in neighbor order (first has one
    entry per vertex of the graph plus one, and is the graph's own).
    Every array over darts built from an index, in blossom and here,
    is int32 too; only keys t n + h past n^2 > 2^31 are int64."""

    tail: np.ndarray
    head: np.ndarray
    rev: np.ndarray
    first: np.ndarray


class RotationSystem:
    """Cyclic edge order at every vertex of `graph`, held as one dart
    order `seq` over index = arc_index(graph): seq[first[v]:first[v + 1]]
    lists the out-darts of v in rotation order, from the one its cyclic
    tuple starts at.

    RotationSystem(g, order) takes the neighbors of every vertex in
    cyclic order. It checks that order covers exactly the vertices of g
    and that each cycle is a permutation of the vertex's neighbors (a
    cycle equal to g.neighbors(v), as at every isolated vertex, passes
    at once), then converts the cycles to darts. from_seq is the
    trusted path that takes a dart order as it is.

    Two systems are equal when every vertex has the same cyclic tuple
    in `order` (positional, not normalized, so construction should be
    deterministic)."""

    def __init__(self, g, order: Mapping[int, Iterable[int]]):
        index = arc_index(g)
        first, heads = index.first.tolist(), index.head.tolist()
        vertices = range(g.n_vertices)
        seq: list[int] = []
        for v in vertices:
            cyc = order.get(v)
            if cyc is None:
                raise ValidationError(f"no rotation given for vertex {v}")
            cyc, nbrs = tuple(cyc), tuple(heads[first[v]:first[v + 1]])
            if cyc == nbrs:
                seq.extend(range(first[v], first[v + 1]))
                continue
            if len(cyc) != len(set(cyc)):
                raise ValidationError(f"rotation at {v} repeats an edge")
            if set(cyc) != set(nbrs):
                raise ValidationError(f"rotation at {v} does not match its neighbors")
            seq.extend(first[v] + bisect_left(nbrs, u) for u in cyc)
        if len(order) != len(vertices):
            extra = sorted(v for v in order if v not in vertices)
            raise ValidationError(f"rotation given for unknown vertices {extra}")
        self.graph, self.index, self.seq = g, index, np.array(seq, dtype=np.int32)

    @classmethod
    def from_seq(cls, g, index: ArcIndex, seq: np.ndarray) -> "RotationSystem":
        """The rotation of g whose dart order is the int32 array seq over
        index = arc_index(g). The caller guarantees that
        seq[first[v]:first[v + 1]] lists the out-darts of every v."""
        rot = cls.__new__(cls)
        rot.graph, rot.index, rot.seq = g, index, seq
        return rot

    @functools.cached_property
    def order(self) -> dict[int, tuple[int, ...]]:
        """The neighbors of every vertex in cyclic order, read off seq."""
        heads = self.index.head[self.seq].tolist()
        first = self.index.first.tolist()
        return {v: tuple(heads[first[v]:first[v + 1]]) for v in range(self.graph.n_vertices)}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RotationSystem) and self.order == other.order

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.order.items())))

    def __repr__(self) -> str:
        return f"RotationSystem(vertices={self.graph.n_vertices})"


class FaceSet:
    """Traced faces of one embedding of `graph`: the int32 dart ids
    `orbit` over index in orbit order, face after face, in runs of
    `lengths`. Every face starts at its least dart, which is its
    lexicographically least arc, so equal embeddings compare equal. The
    arc tuples of `faces` are built only when they are read."""

    def __init__(self, g, index: ArcIndex, orbit: np.ndarray, lengths: list[int]):
        self.graph, self.index, self.orbit = g, index, orbit
        self.lengths = tuple(lengths)

    @functools.cached_property
    def faces(self) -> tuple[tuple[Arc, ...], ...]:
        tail, head = self.index.tail[self.orbit], self.index.head[self.orbit]
        arcs = list(zip(tail.tolist(), head.tolist()))
        ends = itertools.accumulate(self.lengths)
        return tuple(tuple(arcs[e - n:e]) for e, n in zip(ends, self.lengths))

    @property
    def n_edges(self) -> int:
        return self.graph.n_edges

    @property
    def n_faces(self) -> int:
        return len(self.lengths)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FaceSet) and self.n_edges == other.n_edges
                and self.faces == other.faces)

    def __hash__(self) -> int:
        return hash((self.faces, self.n_edges))

    def __repr__(self) -> str:
        return f"FaceSet(faces={self.n_faces}, n_edges={self.n_edges})"


def sorted_rotation(g) -> RotationSystem:
    """The rotation that lists neighbors in ascending label order: seq
    is the identity over the CSR darts of g."""
    index = arc_index(g)
    return RotationSystem.from_seq(g, index, np.arange(len(index.tail), dtype=np.int32))


def arc_index(g) -> ArcIndex:
    """The ArcIndex of g. Its CSR adjacency already lists the darts in
    (tail, head) order, so the index reads them off it; rev finds each
    reverse by one binary search over the packed tail * n + head keys
    (bigraph.pair_keys: int32 while n^2 <= 2^31)."""
    n, first, head = g.n_vertices, g.first, g.nbrs
    # repeated over the vertices with an edge only, so no temporary has
    # one entry per vertex
    verts = np.flatnonzero(first[1:] != first[:-1])
    tail = np.repeat(verts.astype(np.int32), first[verts + 1] - first[verts])
    rev = np.searchsorted(pair_keys(tail, head, n), pair_keys(head, tail, n))
    return ArcIndex(tail, head, rev.astype(np.int32), first)


def cyclic_successors(index: ArcIndex, seq: np.ndarray) -> np.ndarray:
    """nxt with nxt[seq[k]] = seq[k + 1] inside each vertex's block
    first[v]:first[v + 1] of seq, and the last dart of a block followed
    by its first: the rotation that seq lists vertex by vertex."""
    nxt = np.empty(len(seq), dtype=np.int32)
    nxt[seq[:-1]] = seq[1:]
    last = run_ends(index.tail)
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


def trace_faces(rot: RotationSystem) -> FaceSet:
    """Orbit decomposition of the arc set under the face-successor map,
    each orbit from its least arc id, in the order of face_starts; one
    walk over the successors of rot.seq marks and records every arc."""
    index = rot.index
    rev, nxt = memoryview(index.rev), memoryview(cyclic_successors(index, rot.seq))
    seen = bytearray(len(rev))
    orbit = array("i")
    lengths = []
    for a0, done in enumerate(seen):  # reads each flag after earlier walks set it
        if done:
            continue
        start = len(orbit)
        a = a0
        while not seen[a]:
            seen[a] = 1
            orbit.append(a)
            a = nxt[rev[a]]
        if a != a0:
            raise InternalConsistencyError("face orbit did not close on its start arc")
        lengths.append(len(orbit) - start)
    return FaceSet(rot.graph, index, np.frombuffer(orbit, dtype=np.int32), lengths)


def genus_of_embedding(rot: RotationSystem) -> int:
    """Sum over components of (2 - n_c + e_c - f_c) / 2, each checked by
    euler_genus; isolated vertices contribute 0."""
    return genus_from_faces(trace_faces(rot))


def genus_from_faces(fs: FaceSet) -> int:
    """Euler's formula per component of fs.graph, with n_c, e_c and f_c
    counted over the component labels of the vertices with an edge: an
    isolated vertex contributes 0 and is never labelled. A face is
    counted at the tail of its start dart."""
    verts, a, b = fs.graph.local_edges()
    k = len(verts)
    label = component_labels(k, a, b)
    n_c = np.bincount(label, minlength=k)
    e_c = np.bincount(label[a], minlength=k)
    lengths = np.array(fs.lengths, dtype=np.int64)  # int64 even with no face
    tails = fs.index.tail[fs.orbit[np.cumsum(lengths) - lengths]]
    f_c = np.bincount(label[np.searchsorted(verts, tails)], minlength=k)
    roots = np.flatnonzero(n_c)
    return sum(euler_genus(*c) for c in zip(n_c[roots].tolist(), e_c[roots].tolist(),
                                            f_c[roots].tolist()))


def face_length_histogram(fs: FaceSet) -> dict[int, int]:
    return dict(sorted(Counter(fs.lengths).items()))


# ---------------------------------------------------------------------------
# Text format of rotations: one line per vertex, "v: a-b a-c ..." with
# each incident edge written as its sorted endpoint pair.


def _edge_token(v: int, u: int) -> str:
    a, b = (u, v) if u < v else (v, u)
    return f"{a}-{b}"


def rotation_to_text(rot: RotationSystem, fh: TextIO) -> None:
    for v, cyc in rot.order.items():
        tokens = " ".join(_edge_token(v, u) for u in cyc)
        fh.write(f"{v}: {tokens}\n".rstrip() + "\n")

