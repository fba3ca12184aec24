"""Blossom detection, elimination, and rotation assembly.

A family of arc-disjoint closed trails (arcs may use either direction
of an edge, each directed arc at most once overall) is realizable as
faces of a rotation system iff it is blossom-free. A passage u -> v -> w
of a trail through v pins the rotation at v: the edge to w must follow
the edge to u. Collect one auxiliary arc u -> w per passage and the
arc-disjointness makes this a partial injection on the neighbors of v;
a directed cycle in it is a blossom centered at v, and exactly those
cycles obstruct extension to a full cyclic order.

A family is held as a DartFamily: the dart ids of its trails over
embedding.arc_index(g), one int32 array. In dart terms the passage
u -> v -> w says that the dart v -> w follows the dart v -> u, so the
passages of the whole family are one successor array over the darts
(_passages). Its cycles are the blossoms, and its chains, concatenated
at every vertex, write the rotation. Every function here takes a
DartFamily alone: DartFamily.of_matchings builds it for g from the
matched trails, rebuilt from their rows of arc ids, and it carries g
to the RotationSystem that assemble_rotation returns. The functions
read only its dart ids: a length-2 blossom is simple unless its two
trails are mutual reverses, which compares their darts.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass

import numpy as np

from .bigraph import pair_keys, run_ends
from .embedding import ArcIndex, RotationSystem, arc_index, cyclic_successors
from .errors import InternalConsistencyError, ValidationError
from .trails import MatchingReport


@dataclass(frozen=True)
class Blossom:
    """A tip-digraph cycle: l passages around one center whose tips
    chain cyclically. Simple when l >= 3, or l = 2 and the two trails
    are not mutual reverses."""

    center: int
    passages: tuple[tuple[int, int], ...]  # (trail_index, passage_idx)
    tips: tuple[int, ...]
    simple: bool


class DartFamily:
    """Arc-disjoint closed trails of g as dart ids over index =
    arc_index(g): trail k is darts[offsets[k]:offsets[k + 1]], in trail
    order. darts is int32 and offsets int64; where and after, over
    darts and family positions, are int32. of_matchings checks that
    every arc is an edge of g and that no arc is used twice."""

    def __init__(self, g, index: ArcIndex, darts: np.ndarray, offsets: np.ndarray):
        self.graph = g
        self.index = index
        self.darts = darts
        self.offsets = offsets

    @classmethod
    def of_matchings(cls, g, *reports: MatchingReport) -> "DartFamily":
        """The trails of the reports, in order, as one family of g."""
        chosen = [(r.chosen, r.chosen.trails()) for r in reports]
        return cls._of_arcs(
            g, np.concatenate([c.tail[t].ravel() for c, t in chosen]),
            np.concatenate([c.head[t].ravel() for c, t in chosen]),
            np.concatenate([np.full(len(t), c.d) for c, t in chosen]))

    @classmethod
    def _of_arcs(cls, g, tails: np.ndarray, heads: np.ndarray,
                 lengths: np.ndarray) -> "DartFamily":
        """The family whose trails have the given lengths and, one after
        another, the arcs (tails[j], heads[j]). The first arc that is
        not an edge of g, or that an earlier trail position already
        used, is refused."""
        index = arc_index(g)
        n, total = g.n_vertices, len(tails)
        key = pair_keys(index.tail, index.head, n)
        # an arc out of range may wrap its key; the range test refuses it
        want = pair_keys(tails, heads, n)
        darts = np.minimum(np.searchsorted(key, want), max(len(key) - 1, 0)).astype(np.int32)
        is_edge = ((0 <= tails) & (tails < n) & (0 <= heads) & (heads < n)
                   & (key[darts] == want if len(key) else False))
        # one mark per dart; the positions are walked only when an arc is
        # no edge or repeats a dart
        mark = np.zeros(len(key), dtype=bool)
        if is_edge.all():
            mark[darts] = True
        if np.count_nonzero(mark) < total:
            mark[:] = False
            for j, a in enumerate(darts.tolist()):
                u, v = int(tails[j]), int(heads[j])
                if not is_edge[j]:
                    raise ValidationError(f"trail arc {u}->{v} is not an edge of the graph")
                if mark[a]:
                    raise ValidationError(f"arc {u}->{v} used by two trails")
                mark[a] = True
        offsets = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
        return cls(g, index, darts, offsets)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def lengths(self) -> np.ndarray:
        return self.offsets[1:] - self.offsets[:-1]

    def subset(self, keep: np.ndarray) -> "DartFamily":
        """The trails k with keep[k], in family order."""
        lengths = self.lengths()
        return DartFamily(self.graph, self.index, self.darts[np.repeat(keep, lengths)],
                          np.concatenate(([0], np.cumsum(lengths[keep]))))

    @functools.cached_property
    def where(self) -> np.ndarray:
        """where[a] is the family position of dart a, or -1 where no
        trail uses it."""
        where = np.full(len(self.index.tail), -1, dtype=np.int32)
        where[self.darts] = np.arange(len(self.darts), dtype=np.int32)
        return where

    def after(self) -> np.ndarray:
        """after[j] is the position after j in its trail, wrapping to
        the trail's start."""
        after = np.arange(1, len(self.darts) + 1, dtype=np.int32)
        after[self.offsets[1:] - 1] = self.offsets[:-1]
        return after

    def entering(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(trail_index, passage_idx) of the passages keyed at the darts
        x: the trail that enters along the reverse of each, and the
        position of that arc inside the trail."""
        j = self.where[self.index.rev[x]]
        k = np.searchsorted(self.offsets, j, "right") - 1
        return k, j - self.offsets[k]


def _passages(fam: DartFamily) -> np.ndarray:
    """The passage successor of the family: for the dart x = (v, u), the
    dart (v, w) of the passage u -> v -> w that enters v along the
    reverse of x, or -1 where no trail enters v from u."""
    succ = np.full(len(fam.index.tail), -1, dtype=np.int32)
    succ[fam.index.rev[fam.darts]] = fam.darts[fam.after()]
    return succ


def _walk(succ: np.ndarray, index: ArcIndex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chains and cycles of the passage successor, by pointer jumping.

    Returns (lead, rank, cyclic): int32, int32 and bool arrays over the
    darts. A dart no passage leads to starts a chain; for a dart on a
    chain, lead is that start and rank its distance from it. The
    successor is a partial injection within each vertex's darts, so the
    darts on no chain are exactly those on its cycles, marked by cyclic.
    Chains and cycles stay inside one vertex, so log2 of the largest
    degree rounds of doubling reach every start.
    """
    # up[a] is a's predecessor, or a itself where it has none
    up = np.arange(len(succ), dtype=np.int32)
    rank = np.zeros(len(succ), dtype=np.int32)
    has = succ >= 0
    up[succ[has]] = up[has]
    rank[succ[has]] = 1
    starts = rank == 0
    del has
    # the largest degree is the longest run of equal tails
    longest = np.diff(run_ends(index.tail), prepend=-1).max(initial=0)
    for _ in range(int(longest).bit_length()):
        rank += rank[up]
        up = up[up]
    return up, rank, ~starts[up]


def _cycles(fam: DartFamily) -> list[np.ndarray]:
    """Every cycle of the family's passage successor as its darts in
    successor order, from its least dart, in increasing order of that
    dart: the blossoms, by center and then by least in_tip."""
    succ = _passages(fam)
    cyclic = _walk(succ, fam.index)[2]
    seen: set[int] = set()
    cycles = []
    for a in np.flatnonzero(cyclic).tolist():
        if a in seen:
            continue
        cyc = [a]
        while (b := int(succ[cyc[-1]])) != a:
            cyc.append(b)
        seen.update(cyc)
        cycles.append(np.array(cyc, dtype=np.int64))
    return cycles


def _is_reverse(fam: DartFamily, j: int, k: int) -> bool:
    """Whether trail k is the reverse of trail j: the reverses of j's
    darts, in reverse order, are a rotation of k's darts."""
    rev = fam.index.rev[fam.darts[fam.offsets[j]:fam.offsets[j + 1]][::-1]]
    darts = fam.darts[fam.offsets[k]:fam.offsets[k + 1]]
    start = np.flatnonzero(darts == rev[0])
    return (len(rev) == len(darts) and len(start) == 1
            and np.array_equal(np.roll(darts, -int(start[0])), rev))


def find_blossoms(fam: DartFamily) -> tuple[Blossom, ...]:
    """Every auxiliary cycle of every center, exhaustively. The result
    is empty iff the family is blossom-free."""
    index = fam.index
    blossoms: list[Blossom] = []
    for cyc in _cycles(fam):
        passages = tuple(zip(*(a.tolist() for a in fam.entering(cyc))))
        if len(cyc) >= 3:
            simple = True
        elif len(cyc) == 2:
            simple = not _is_reverse(fam, passages[0][0], passages[1][0])
        else:
            simple = False
        blossoms.append(Blossom(int(index.tail[cyc[0]]), passages,
                                tuple(index.head[cyc].tolist()), simple))
    return tuple(blossoms)


def make_blossom_free(fam: DartFamily) -> tuple[DartFamily, DartFamily]:
    """Remove trails until no auxiliary cycle survives.

    One detection, then a greedy hitting set: repeatedly drop the trail
    sitting on the most still-unbroken cycles (ties to the later trail).
    Removing a trail only deletes auxiliary arcs, so it never creates a
    cycle and the survivors need no second detection. Returns the
    survivors and the dropped trails, each a DartFamily in family order.

    Each trail keeps its cycles and a count of the unbroken ones; a
    broken cycle decrements its trails' counts once, and a heap with
    stale entries skipped yields the next victim, so the loop costs
    O(c log c) in the total size c of the cycles.
    """
    cycles = [frozenset(fam.entering(cyc)[0].tolist()) for cyc in _cycles(fam)]
    cycles_of: dict[int, list[int]] = {}
    for ci, cyc in enumerate(cycles):
        for idx in cyc:
            cycles_of.setdefault(idx, []).append(ci)
    count = {idx: len(cis) for idx, cis in cycles_of.items()}
    heap = [(-c, -idx) for idx, c in count.items()]
    heapq.heapify(heap)
    broken = bytearray(len(cycles))
    keep = np.ones(len(fam), dtype=bool)
    while heap:
        neg_count, neg_idx = heapq.heappop(heap)
        victim = -neg_idx
        if count[victim] != -neg_count:
            continue  # stale: the count fell after this entry was pushed
        keep[victim] = False
        for ci in cycles_of[victim]:
            if broken[ci]:
                continue
            broken[ci] = 1
            for t in cycles[ci]:
                count[t] -= 1
                if count[t]:
                    heapq.heappush(heap, (-count[t], -t))
    return fam.subset(keep), fam.subset(~keep)


def assemble_rotation(fam: DartFamily) -> RotationSystem:
    """Rotation system of fam.graph realizing every trail of the family
    as a traced face.

    The family must be blossom-free; one that is not raises
    ValidationError. At each vertex the passages form disjoint successor
    chains; chains are concatenated in ascending order of their least
    neighbor label and unconstrained neighbors ride along as singleton
    chains. A vertex no trail passes through is all singletons, so it
    keeps g.neighbors(v) itself. By the orbit rule a trail traces as a
    face exactly when, for each of its passages u -> v -> w, w follows
    u in the order at v; that is checked for every passage before
    returning.

    The order is written as dart successors over the family's
    arc_index(g), the one form of a RotationSystem. The chains are laid
    out in int32: each chain's length goes to its least dart, a cumsum
    turns the lengths into offsets, and the darts are sorted stably by
    offset plus rank in the chain. The chain cover is checked to list
    every vertex's out-darts exactly once, so the rotation takes the
    arrays through from_darts, unchecked. The rotation keeps the arc
    index, the successors and that order (seq), nothing of the family.
    """
    index = fam.index
    succ = _passages(fam)
    lead, rank, cyclic = _walk(succ, index)
    if cyclic.any():
        a = int(cyclic.argmax())
        length, b = 1, int(succ[a])
        while b != a:
            length, b = length + 1, int(succ[b])
        raise ValidationError(
            f"family has a blossom at vertex {int(index.tail[a])} (length {length})")
    # Each temporary is dropped once used: assembly sets the traced peak
    # of a sparse estimate. Each chain is keyed by its least dart, which
    # lies in its vertex's block.
    del cyclic
    n = len(succ)
    least = np.full(n, n, dtype=np.int32)
    np.minimum.at(least, lead, np.arange(n, dtype=np.int32))
    lead = least[lead]
    del least
    # a chain's length, its end's rank plus one, goes one past its least dart
    offset = np.zeros(n + 1, dtype=np.int32)
    end = succ < 0
    offset[1:][lead[end]] = rank[end] + 1
    del end
    np.cumsum(offset, dtype=np.int32, out=offset)
    rank += offset[lead]
    del lead, offset
    seq = np.argsort(rank, kind="stable").astype(np.int32)
    del rank
    if not np.array_equal(index.tail[seq], index.tail):
        v = int(index.tail[np.flatnonzero(index.tail[seq] != index.tail)[0]])
        raise InternalConsistencyError(
            f"chain cover at vertex {v} is not a permutation of its darts")
    nxt = cyclic_successors(index, seq)
    has = succ >= 0
    if (nxt[has] != succ[has]).any():
        v = int(index.tail[np.flatnonzero(has & (nxt != succ))[0]])
        raise InternalConsistencyError(
            f"assembled order at vertex {v} does not realize a passage"
        )
    return RotationSystem.from_darts(fam.graph, (index, nxt, seq))
