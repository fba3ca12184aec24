"""Blossom detection, elimination, and rotation assembly.

A family of arc-disjoint closed trails (arcs may use either direction
of an edge, each directed arc at most once overall) is realizable as
faces of a rotation system iff it is blossom-free. A passage u -> v -> w
of a trail through v pins the rotation at v: the edge to w must follow
the edge to u. Collect one auxiliary arc u -> w per passage and the
arc-disjointness makes this a partial injection on the neighbors of v;
a directed cycle in it is a blossom centered at v, and exactly those
cycles obstruct extension to a full cyclic order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .embedding import RotationSystem, trace_faces
from .errors import InternalConsistencyError, ValidationError
from .trails import Arc, ClosedTrail


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

    def successor_map(self) -> dict[int, TipArc]:
        m: dict[int, TipArc] = {}
        for a in self.arcs:
            if a.in_tip in m:
                raise ValidationError(
                    f"two passages enter vertex {self.center} from {a.in_tip}"
                )
            m[a.in_tip] = a
        outs = [a.out_tip for a in self.arcs]
        if len(set(outs)) != len(outs):
            raise ValidationError(
                f"two passages leave vertex {self.center} toward the same tip"
            )
        return m

    def cycles(self) -> list[tuple[TipArc, ...]]:
        """Directed cycles, each listed once starting at its least in_tip.

        In-degree and out-degree are at most 1, so the cycles are
        disjoint and this is exhaustive, not just a cycle basis.
        """
        succ = self.successor_map()
        # Repeatedly peel keys nobody maps to; what remains lies on cycles.
        on_cycle = set(succ)
        changed = True
        while changed:
            changed = False
            values_alive = {succ[u].out_tip for u in on_cycle}
            for u in list(on_cycle):
                if u not in values_alive:
                    on_cycle.discard(u)
                    changed = True
        out: list[tuple[TipArc, ...]] = []
        seen: set[int] = set()
        for start in sorted(on_cycle):
            if start in seen:
                continue
            cyc = []
            u = start
            while True:
                seen.add(u)
                cyc.append(succ[u])
                u = succ[u].out_tip
                if u == start:
                    break
            out.append(tuple(cyc))
        return out


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


def _validate_family(g, family: Sequence[ClosedTrail]) -> None:
    seen: set[Arc] = set()
    for t in family:
        for (u, v) in t.arcs:
            e = (u, v) if u < v else (v, u)
            if e not in g.edge_set:
                raise ValidationError(f"trail arc {u}->{v} is not an edge of the graph")
            if (u, v) in seen:
                raise ValidationError(f"arc {u}->{v} used by two trails")
            seen.add((u, v))


def _passages(family: Sequence[ClosedTrail]) -> dict[int, list[TipArc]]:
    by_center: dict[int, list[TipArc]] = {}
    for ti, t in enumerate(family):
        arcs = t.arcs
        for j, (_a, v) in enumerate(arcs):
            b = arcs[(j + 1) % len(arcs)][1]
            by_center.setdefault(v, []).append(TipArc(arcs[j][0], b, ti, j))
    return by_center


def tip_digraphs(g, family: Sequence[ClosedTrail]) -> dict[int, TipDigraph]:
    """All nonempty per-center auxiliary digraphs, keyed by center."""
    _validate_family(g, family)
    return {v: TipDigraph(v, tuple(arcs)) for v, arcs in _passages(family).items()}


def find_blossoms(g, family: Sequence[ClosedTrail]) -> BlossomReport:
    """Every auxiliary cycle of every center, exhaustively.

    The result is empty iff the family is blossom-free. The family must
    be arc-disjoint over directed arcs (the two directions of one edge
    are distinct arcs).
    """
    family = tuple(family)
    digraphs = tip_digraphs(g, family)
    blossoms: list[Blossom] = []
    for v in sorted(digraphs):
        for cyc in digraphs[v].cycles():
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

    Greedy hitting set: repeatedly drop the trail sitting on the most
    still-unbroken cycles (ties to the later trail), then re-detect.
    Removing a trail only deletes auxiliary arcs, so removal never
    creates new cycles and the loop terminates quickly.
    """
    family = tuple(family)
    alive = list(range(len(family)))
    removed: set[int] = set()
    while True:
        current = [family[idx] for idx in alive]
        report = find_blossoms(g, current)
        if report.is_blossom_free:
            break
        cycles = [frozenset(alive[ti] for (ti, _pj) in b.passages)
                  for b in report.blossoms]
        unbroken = set(range(len(cycles)))
        while unbroken:
            count: dict[int, int] = {}
            for ci in unbroken:
                for idx in cycles[ci]:
                    count[idx] = count.get(idx, 0) + 1
            victim = max(count, key=lambda idx: (count[idx], idx))
            removed.add(victim)
            unbroken = {ci for ci in unbroken if victim not in cycles[ci]}
        alive = [idx for idx in alive if idx not in removed]
    surviving = tuple(family[idx] for idx in alive)
    dropped = tuple(family[idx] for idx in sorted(removed))
    return surviving, dropped


def assemble_rotation(g, family: Sequence[ClosedTrail]) -> RotationSystem:
    """Rotation system of g realizing every trail of the family as a
    traced face.

    Requires the family arc-disjoint and blossom-free (validated here).
    At each vertex the passage constraints form disjoint successor
    chains; chains are concatenated in ascending order of their least
    neighbor label and unconstrained neighbors ride along as singleton
    chains. A vertex no trail passes through is all singletons, so it
    keeps g.neighbors(v) itself. The face trace of the result is checked
    against the family before returning.
    """
    family = tuple(family)
    report = find_blossoms(g, family)  # also validates arc-disjointness
    if not report.is_blossom_free:
        b = report.blossoms[0]
        raise ValidationError(
            f"family has a blossom at vertex {b.center} (length {b.length})"
        )
    by_center = _passages(family)
    order: dict[int, tuple[int, ...]] = {}
    for v in range(g.n_vertices):
        nbrs = g.neighbors(v)
        if v not in by_center:
            order[v] = nbrs
            continue
        succ: dict[int, int] = {}
        for a in by_center[v]:
            if a.in_tip in succ or a.out_tip in set(succ.values()):
                raise InternalConsistencyError("conflict survived validation")
            succ[a.in_tip] = a.out_tip
        targets = set(succ.values())
        chains: list[list[int]] = []
        for u in sorted(nbrs):
            if u in targets:
                continue
            chain = [u]
            while chain[-1] in succ:
                chain.append(succ[chain[-1]])
                if chain[-1] == u:
                    raise InternalConsistencyError("cycle survived validation")
            chains.append(chain)
        flat = [u for chain in sorted(chains, key=lambda c: min(c)) for u in chain]
        if len(flat) != len(nbrs):
            raise InternalConsistencyError("chain cover missed a neighbor")
        order[v] = tuple(flat)
    rot = RotationSystem(order)
    realized = trace_faces(g, rot).face_arcs()
    for t in family:
        if t.arcs not in realized:
            raise InternalConsistencyError(
                "assembled rotation does not trace an input trail as a face"
            )
    return rot

