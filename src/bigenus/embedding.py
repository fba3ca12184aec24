"""Rotation systems and face tracing.

A rotation system assigns every vertex a cyclic order of its incident
edges; by the rotation principle this determines a 2-cell embedding in
an orientable surface. Faces are recovered by the orbit rule: the
successor of the arc (u -> v) is (v -> w) where vw is the edge after vu
in the cyclic order at v. Genus then falls out of Euler's formula,
computed per connected component.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping, TextIO

from .errors import InternalConsistencyError, ValidationError

Arc = tuple[int, int]
# A rotation as dart successors (arcs, rev, first, nxt): arcs, rev and
# first as arc_index gives them, and nxt[a] the dart after a in the
# rotation at its tail.
Darts = tuple[list[Arc], list[int], dict[int, int], list[int]]


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
        self._head: dict[int, int] = {}

    @classmethod
    def from_darts(cls, g, darts: Darts, head: dict[int, int]) -> "RotationSystem":
        """The rotation of g whose dart successors are nxt, with
        darts = (arcs, rev, first, nxt) over arc_index(g). The tuple at
        v starts at the dart head[v], or at v's first dart where head has
        no entry. The caller guarantees that nxt permutes the out-darts
        of every vertex cyclically."""
        rot = cls.__new__(cls)
        rot._order = None
        rot._graph = g
        rot._darts = darts
        rot._head = head
        return rot

    @property
    def order(self) -> dict[int, tuple[int, ...]]:
        if self._order is None:
            arcs, _rev, first, nxt = self._darts
            g = self._graph
            order: dict[int, tuple[int, ...]] = {}
            for v in range(g.n_vertices):
                a = self._head.get(v, first.get(v))
                cyc = []
                for _ in range(g.degree(v)):
                    cyc.append(arcs[a][1])
                    a = nxt[a]
                order[v] = tuple(cyc)
            self._order = order
        return self._order

    def darts_for(self, g) -> Darts:
        """(arcs, rev, first, nxt) of this rotation over arc_index(g).
        A system built for g answers from its own array; any other is
        first checked by validate_for."""
        if self._graph is g:
            return self._darts
        self.validate_for(g)
        arcs, rev, first = arc_index(g)
        nxt = [0] * len(arcs)
        for v, k0 in first.items():
            nbrs = g.neighbors(v)
            ids = [k0 + bisect_left(nbrs, u) for u in self.at(v)]
            for a, b in zip(ids, ids[1:] + ids[:1]):
                nxt[a] = b
        return arcs, rev, first, nxt

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


@dataclass(frozen=True)
class FaceSet:
    """Traced faces of one embedding. Every face is a tuple of arcs in
    orbit order, stored starting at its lexicographically least arc so
    equal embeddings compare equal."""

    faces: tuple[tuple[Arc, ...], ...]
    n_edges: int

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(len(f) for f in self.faces)

    def face_arcs(self) -> frozenset[tuple[Arc, ...]]:
        return frozenset(self.faces)


def sorted_rotation(g) -> RotationSystem:
    """The rotation that lists neighbors in ascending label order."""
    return RotationSystem({v: g.neighbors(v) for v in range(g.n_vertices)})


def arc_index(g, verts: Iterable[int] | None = None
              ) -> tuple[list[Arc], list[int], dict[int, int]]:
    """(arcs, rev, first) for the arcs leaving `verts`, an increasing
    union of components of g (default: every vertex with an edge): arc
    k is arcs[k] in lexicographic (tail, head) order, rev[k] is the id
    of its reverse, and v's out-arcs are first[v], first[v] + 1, ... in
    neighbor order."""
    if verts is None:
        verts = sorted({v for edge in g.edge_list for v in edge})
    arcs: list[Arc] = []
    first: dict[int, int] = {}
    for v in verts:
        nbrs = g.neighbors(v)
        if nbrs:
            first[v] = len(arcs)
            arcs.extend([(v, w) for w in nbrs])
    # Tails come in increasing order, so the arcs entering w do too, and
    # their reverses are w's out-arcs in neighbor order.
    out_ids = {v: itertools.count(k0) for v, k0 in first.items()}
    rev = [next(out_ids[w]) for (_v, w) in arcs]
    return arcs, rev, first


def face_starts(nxt: list[int], rev: list[int]) -> list[int]:
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
    arcs, rev, _first, nxt = rot.darts_for(g)
    faces: list[tuple[Arc, ...]] = []
    for a0 in face_starts(nxt, rev):
        face = [arcs[a0]]
        a = nxt[rev[a0]]
        while a != a0:
            face.append(arcs[a])
            a = nxt[rev[a]]
        faces.append(tuple(face))
    fs = FaceSet(tuple(faces), n_edges=len(arcs) // 2)
    if sum(fs.lengths) != len(arcs):
        raise InternalConsistencyError("face lengths do not cover every arc once")
    return fs


def connected_components(g, starts: Iterable[int] | None = None
                         ) -> list[tuple[int, ...]]:
    """The components of g that contain a vertex of `starts` (default:
    every vertex), each sorted, in the order their first start comes."""
    seen: set[int] = set()
    comps = []
    for s in range(g.n_vertices) if starts is None else starts:
        if s in seen:
            continue
        stack = [s]
        seen.add(s)
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in g.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def genus_of_embedding(g, rot: RotationSystem) -> int:
    """Sum over components of (2 - n_c + e_c - f_c) / 2, each checked by
    euler_genus; isolated vertices contribute 0."""
    return genus_from_faces(g, trace_faces(g, rot))


def genus_from_faces(g, fs: FaceSet) -> int:
    """Euler's formula per component. Components are walked from the
    edge endpoints only: an isolated vertex contributes 0 and is never
    visited."""
    comps = connected_components(g, (u for (u, _v) in g.edge_list))
    comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
    e_c = [0] * len(comps)
    for (u, v) in g.edge_list:
        e_c[comp_of[u]] += 1
    f_c = [0] * len(comps)
    for face in fs.faces:
        f_c[comp_of[face[0][0]]] += 1
    return sum(euler_genus(len(comp), e_c[ci], f_c[ci]) for ci, comp in enumerate(comps))


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

