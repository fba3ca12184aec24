"""Blossom detection, elimination, and rotation assembly.

A family of arc-disjoint closed trails (arcs may use either direction
of an edge, each directed arc at most once overall) is realizable as
faces of a rotation system iff it is blossom-free. A passage u -> v -> w
of a trail through v pins the rotation at v: the edge to w must follow
the edge to u. Collect one auxiliary arc u -> w per passage and the
arc-disjointness makes this a partial injection on the neighbors of v;
a directed cycle in it is a blossom centered at v, and exactly those
cycles obstruct extension to a full cyclic order.

Detection and assembly read the same per-center passage map and the
same chain walk: the chains give the cyclic order, and the passages no
chain covers are the blossoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .embedding import RotationSystem
from .errors import InternalConsistencyError, ValidationError
from .trails import ClosedTrail


@dataclass(frozen=True)
class TipArc:
    """One passage of a trail through a center: enters from in_tip,
    leaves toward out_tip. passage_idx is the position of the incoming
    arc inside the trail."""

    in_tip: int
    out_tip: int
    trail_index: int
    passage_idx: int


@dataclass(frozen=True)
class TipDigraph:
    """Auxiliary digraph at one center; nodes are neighbor labels."""

    center: int
    arcs: tuple[TipArc, ...]


@dataclass(frozen=True)
class Blossom:
    """A tip-digraph cycle: l passages around one center whose tips
    chain cyclically. Simple when l >= 3, or l = 2 and the two trails
    are not mutual reverses."""

    center: int
    passages: tuple[tuple[int, int], ...]  # (trail_index, passage_idx)
    tips: tuple[int, ...]
    simple: bool

    @property
    def length(self) -> int:
        return len(self.passages)


@dataclass(frozen=True)
class BlossomReport:
    family: tuple[ClosedTrail, ...]
    blossoms: tuple[Blossom, ...]

    @property
    def is_blossom_free(self) -> bool:
        return not self.blossoms


def _passages(g, family: Sequence[ClosedTrail]) -> dict[int, dict[int, TipArc]]:
    """The passages of the family at each center, keyed by in_tip.

    Every arc must be an edge of g and appear at most once in the
    family. The passage entering v from u is the only user of the arc
    u -> v, so the keys are unique; the arc v -> w likewise makes the
    out_tips unique, and each map is a partial injection.
    """
    edges = g.edge_set
    by_center: dict[int, dict[int, TipArc]] = {}
    for ti, t in enumerate(family):
        arcs = t.arcs
        for j, (u, v) in enumerate(arcs):
            if ((u, v) if u < v else (v, u)) not in edges:
                raise ValidationError(f"trail arc {u}->{v} is not an edge of the graph")
            at = by_center.setdefault(v, {})
            if u in at:
                raise ValidationError(f"arc {u}->{v} used by two trails")
            at[u] = TipArc(u, arcs[(j + 1) % len(arcs)][1], ti, j)
    return by_center


def _walk(at: dict[int, TipArc], tips: Iterable[int]
          ) -> tuple[list[list[int]], list[tuple[TipArc, ...]]]:
    """Chains and cycles of the passages `at` of one center.

    A chain starts at every tip of `tips` no passage leads to, in
    ascending order, and follows the passages to their end. The maps
    are injective, so the in_tips no chain covers are exactly those on
    auxiliary cycles; each cycle is listed once, starting at its least
    in_tip, and the cycles come in ascending order of that tip.
    """
    targets = {a.out_tip for a in at.values()}
    chains: list[list[int]] = []
    covered: set[int] = set()
    for u in sorted(tips):
        if u in targets:
            continue
        chain = [u]
        while chain[-1] in at:
            chain.append(at[chain[-1]].out_tip)
        chains.append(chain)
        covered.update(chain)
    cycles: list[tuple[TipArc, ...]] = []
    for start in sorted(at):
        if start in covered:
            continue
        cyc = [at[start]]
        while cyc[-1].out_tip != start:
            cyc.append(at[cyc[-1].out_tip])
        covered.update(a.in_tip for a in cyc)
        cycles.append(tuple(cyc))
    return chains, cycles


def tip_digraphs(g, family: Sequence[ClosedTrail]) -> dict[int, TipDigraph]:
    """All nonempty per-center auxiliary digraphs, keyed by center."""
    return {v: TipDigraph(v, tuple(at.values()))
            for v, at in _passages(g, family).items()}


def find_blossoms(g, family: Sequence[ClosedTrail]) -> BlossomReport:
    """Every auxiliary cycle of every center, exhaustively.

    The result is empty iff the family is blossom-free. The family must
    be arc-disjoint over directed arcs (the two directions of one edge
    are distinct arcs).
    """
    family = tuple(family)
    by_center = _passages(g, family)
    blossoms: list[Blossom] = []
    for v in sorted(by_center):
        at = by_center[v]
        for cyc in _walk(at, at)[1]:
            passages = tuple((a.trail_index, a.passage_idx) for a in cyc)
            tips = tuple(a.in_tip for a in cyc)
            if len(cyc) >= 3:
                simple = True
            elif len(cyc) == 2:
                t1 = family[cyc[0].trail_index]
                t2 = family[cyc[1].trail_index]
                simple = t1 != t2.reverse()
            else:
                simple = False
            blossoms.append(Blossom(v, passages, tips, simple))
    return BlossomReport(family, tuple(blossoms))


def make_blossom_free(g, family: Sequence[ClosedTrail]
                      ) -> tuple[tuple[ClosedTrail, ...], tuple[ClosedTrail, ...]]:
    """Remove trails until no auxiliary cycle survives.

    One detection, then a greedy hitting set: repeatedly drop the trail
    sitting on the most still-unbroken cycles (ties to the later trail).
    Removing a trail only deletes auxiliary arcs, so it never creates a
    cycle and the survivors need no second detection. Returns the
    survivors in family order and the dropped trails in family order.
    """
    family = tuple(family)
    cycles = [frozenset(ti for (ti, _pj) in b.passages)
              for b in find_blossoms(g, family).blossoms]
    removed: set[int] = set()
    unbroken = set(range(len(cycles)))
    while unbroken:
        count: dict[int, int] = {}
        for ci in unbroken:
            for idx in cycles[ci]:
                count[idx] = count.get(idx, 0) + 1
        victim = max(count, key=lambda idx: (count[idx], idx))
        removed.add(victim)
        unbroken = {ci for ci in unbroken if victim not in cycles[ci]}
    surviving = tuple(t for idx, t in enumerate(family) if idx not in removed)
    dropped = tuple(family[idx] for idx in sorted(removed))
    return surviving, dropped


def assemble_rotation(g, family: Sequence[ClosedTrail]) -> RotationSystem:
    """Rotation system of g realizing every trail of the family as a
    traced face.

    The family must be arc-disjoint and blossom-free; a family that is
    not raises ValidationError. At each vertex the passages form
    disjoint successor chains; chains are concatenated in ascending
    order of their least neighbor label and unconstrained neighbors
    ride along as singleton chains. A vertex no trail passes through is
    all singletons, so it keeps g.neighbors(v) itself. By the orbit
    rule a trail traces as a face exactly when, for each of its
    passages u -> v -> w, w follows u in the order at v; that is
    checked for every passage before returning.
    """
    by_center = _passages(g, family)
    order: dict[int, tuple[int, ...]] = {}
    for v in range(g.n_vertices):
        nbrs = g.neighbors(v)
        at = by_center.get(v)
        if at is None:
            order[v] = nbrs
            continue
        chains, cycles = _walk(at, nbrs)
        if cycles:
            raise ValidationError(
                f"family has a blossom at vertex {v} (length {len(cycles[0])})"
            )
        flat = tuple(u for chain in sorted(chains, key=min) for u in chain)
        if len(flat) != len(nbrs):
            raise InternalConsistencyError("chain cover missed a neighbor")
        after = dict(zip(flat, flat[1:] + flat[:1]))
        if any(after.get(a.in_tip) != a.out_tip for a in at.values()):
            raise InternalConsistencyError(
                f"assembled order at vertex {v} does not realize a passage"
            )
        order[v] = flat
    return RotationSystem(order)
