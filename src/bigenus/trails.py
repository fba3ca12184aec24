"""Closed trails as rows of arc ids, the trail hypergraph, and
hypergraph matching.

For an orientation D of a bipartite graph, the closed trails of length
2i+2 are the hyperedges of a (2i+2)-uniform hypergraph H whose vertex
set is the arc set of D. A large matching in H is a family of
arc-disjoint trails that the blossom module turns into prescribed faces
of an embedding.

The pipeline uses H only through its incidence structure, so a family
of trails is held as rows of arc ids, where arc id k stands for the arc
(d.tail[k], d.head[k]) of D's sorted int32 arc arrays. D has no
parallel arcs, so a closed trail a0 a1 ... a(2i+1) is fixed by its arcs
at even positions: each odd arc a(2j+1) is the one arc from the head of
a(2j) to the tail of a(2j+2). A family is one numpy array with a row
per trail and those i+1 columns, and TrailHypergraph.trails rebuilds
whole trails from it, a chunk of rows at a time. The ids are uint16
when D has at most 65,536 arcs and int32 otherwise (see _row_dtype), so
a row takes 2(i+1) or 4(i+1) bytes. Each trail is in canonical rotation
(it starts at its least arc id) and the rows are sorted
lexicographically, except in what a matching leaves. Arc ids follow
the sorted arcs, so that is the order of the arc tuples themselves, and
the order of the whole trails too: the first vertex where two trails
part decides both comparisons, since an odd arc runs to the tail of the
even arc after it. The rows of a
family of at least _MAP_BYTES live in their own anonymous memory
mapping (_mapped_rows), not in the malloc heap, so their pages go back
to the OS when the family is dropped.

One enumerator serves every length and every digraph (orientations,
anti-parallel arcs, the symmetric digraphs of the short-trail counts):
each trail is cut at its least arc into two halves of i+1 arcs, and the
halves are joined on their end vertices (_trail_blocks). Its trails come
out canonical and in order. A family is always complete: the
construction embeds from a matching of all the closed trails, so an
enumeration past MAX_TRAILS is refused, never cut short.

One type holds every set of trails over an arc table: a
TrailHypergraph is a whole family, what a matching leaves of it, or the
matched trails of a MatchingReport. find_matching works on the family's
own rows, with no array sized by the family: it shuffles them in place
as whole rows, sweeps them in that order, copies the matched rows out
and moves the others up over them, so the family keeps the trails the
matching did not take. Reversal is a bijection, so the mirror of those
is the reversed digraph's family less the reverses of the matching,
which is what the mirror matching matches. The blossom module turns the
matched trails into dart ids.

Rows are the only trail representation: trails leave the package as
text that trails_to_text writes from rebuilt chunks of rows and the arc
arrays, checking each chunk. A trail and its reverse are distinct; the
reverses are the family of the reversed digraph, which
TrailHypergraph.mirror writes over the rows in place.
"""

from __future__ import annotations

import itertools
import random
import sys
import weakref
from dataclasses import dataclass, replace
from typing import TextIO

import numpy as np

from .bigraph import BipartiteGraph, Digraph, distinct, run_ends
from .embedding import arc_index
from .errors import GuardError, InternalConsistencyError, ValidationError

_COUNT_WORK_LIMIT = 20_000_000
# Trail enumeration refuses to hold more trails than this. An estimate
# peaks near 4.1 bytes per trail above the interpreter and its graph
# with 16-bit arc ids, of which the rows are 4, and 8.1 with 32-bit
# ones (VmHWM over 6.5M trails on G(240, 240, 0.5) seed 0: 26.9 and
# 52.9 MB), so the limit stands for about 0.13 GB, or 0.26 GB past
# 65,536 arcs.
MAX_TRAILS = 32_000_000

# Half trails per chunk of start vertices, and candidate rows per join,
# in the trail enumeration. On G(120, 120, 0.5) a chunk's temporaries
# peak near 0.65 MiB traced.
_TRAIL_CHUNK = 1 << 12
# Rounds of dead-arc pruning before the join. Random orientations reach
# the fixed point in 1-3 rounds; the bound keeps a long dead chain, which
# loses two arcs a round, from costing quadratic time.
_PRUNE_ROUNDS = 8
# Rows rebuilt, then mirrored or written, per numpy call. Rebuilding a
# chunk takes int64 temporaries of 8 bytes per odd arc, 64 KiB each at
# i = 1.
_ROTATE_CHUNK = 1 << 12
# Candidates rebuilt and screened per numpy call in the matching sweep.
_SWEEP_CHUNK = 1024
# Families of at least this many bytes get their own memory mapping.
# It is glibc malloc's initial mmap threshold; malloc raises its own
# threshold once it frees a mapped block, after which 3 MiB families
# came from the heap, whose freed pages it keeps resident. Smaller
# families mostly fit in free heap memory the process already holds:
# mapping the sub-80 KB families of i = 2 sweeps on
# G(200, 150..200, 0.05) raised their peak RSS by about 0.2 MB.
_MAP_BYTES = 128 << 10


def _row_dtype(n_arcs: int) -> np.dtype:
    """The dtype of the rows of a family over n_arcs arcs: uint16 while
    every arc id fits 16 bits, int32 beyond."""
    return np.dtype(np.uint16 if n_arcs <= 1 << 16 else np.int32)


def _least_first(full: np.ndarray) -> np.ndarray:
    """The stored row of each whole trail of `full`: its arcs at even
    positions once it is rotated to start at its least arc id."""
    d = full.shape[1]
    k = full.argmin(axis=1)[:, None] + np.arange(0, d, 2)
    k %= d
    return np.take_along_axis(full, k, axis=1)


def _canonical_sort(rows: np.ndarray) -> None:
    """Sort the C-contiguous rows lexicographically, in place.

    The ids are byte-swapped to big-endian, whose bytes compare in
    numeric order, so a row sorts as a fixed-width byte string. A 4- or
    8-byte row is sorted as one uint32 or uint64 key instead, which its
    bytes, swapped once more, give in native order. The uint32 keys sort
    as int32 with the sign bit flipped (adding 2^31 wraps to that), in
    the same order: numpy's uint32 sort is code nothing else in an
    estimate runs, and loading it raised the peak RSS of sparse
    G(800, 800, 0.03) estimates by about 0.2 MB. Everything is undone
    afterwards, so the family is never copied.
    """
    if len(rows) < 2:
        return
    size = rows.shape[1] * rows.itemsize
    word = {4: np.int32, 8: np.uint64}.get(size)
    key = rows.view(word or np.dtype((np.void, size))).ravel()
    swaps = [] if sys.byteorder == "big" else [rows, key] if word else [rows]
    for a in swaps:
        a.byteswap(inplace=True)
    if size == 4:
        key += -1 << 31
    key.sort()
    if size == 4:
        key += -1 << 31
    for a in swaps[::-1]:
        a.byteswap(inplace=True)


def _runs(sizes: np.ndarray, budget: int):
    """Consecutive (start, stop) runs of indices whose sizes add up to at
    most budget, or one index when it alone is larger."""
    cum = np.concatenate(([0], np.cumsum(sizes)))
    s = 0
    while s < len(sizes):
        e = max(s + 1, int(np.searchsorted(cum, cum[s] + budget, "right")) - 1)
        yield s, e
        s = e


def _extend(walks: np.ndarray, v: np.ndarray, off: np.ndarray, order=None):
    """Each walk once per arc order[off[v] : off[v + 1]] at its vertex v,
    in walk order, then arc order: (the repeated walks, the arcs)."""
    cnt = off[v + 1] - off[v]
    rep = np.repeat(np.arange(len(walks)), cnt)
    arcs = off[v][rep] + np.arange(len(rep)) - (np.cumsum(cnt) - cnt)[rep]
    return walks[rep], arcs if order is None else order[arcs]


def _trail_blocks(d: Digraph, length: int):
    """Blocks of rows of arc ids of the closed trails of `length` arcs in
    D; the blocks, in order, are the canonical rows in lexicographic order.

    A trail is cut at its least arc a0 into a first half of length/2 arcs
    that starts with a0 and a second half whose arcs all exceed a0, and
    the halves are joined on their end vertices. Arcs whose tail has no
    in-arc or whose head has no out-arc lie on no closed trail and are
    dropped first, in up to _PRUNE_ROUNDS rounds. Start vertices (the
    tails of a0) are taken in increasing order, in chunks of about
    _TRAIL_CHUNK half trails: all the halves of a chunk's trails stay
    within the arcs out of vertices from the chunk's first one on, since
    a0 is the least arc. The join of a chunk runs about _TRAIL_CHUNK
    candidates at a time. No array is sized by the vertex count, only by
    the arc count. Once the trails produced pass MAX_TRAILS, GuardError
    is raised instead of the block that passes it.
    """
    half = length // 2
    produced = 0
    m = d.n_arcs
    verts = distinct(np.concatenate((d.tail, d.head)))
    nv = len(verts)
    ids = np.arange(m, dtype=_row_dtype(m))
    tail, head = np.searchsorted(verts, d.tail), np.searchsorted(verts, d.head)
    for _ in range(_PRUNE_ROUNDS):
        has_in, has_out = np.zeros(nv, dtype=bool), np.zeros(nv, dtype=bool)
        has_in[head], has_out[tail] = True, True
        live = has_in[tail] & has_out[head]
        if live.all():
            break
        ids, tail, head = ids[live], tail[live], head[live]
    out_off = np.searchsorted(tail, np.arange(nv + 1))
    in_order = np.argsort(head, kind="stable")
    in_off = np.searchsorted(head[in_order], np.arange(nv + 1))
    # walks of `half` arcs out of (fwd) and into (bwd) each vertex
    fwd = bwd = np.ones(nv)
    for _ in range(half):
        fwd, bwd = np.bincount(tail, fwd[head], nv), np.bincount(head, bwd[tail], nv)
    for v0, v1 in _runs(fwd + bwd, _TRAIL_CHUNK):
        a0 = out_off[v0]
        first = np.arange(a0, out_off[v1])[:, None]
        second = in_order[in_off[v0]:in_off[v1]]
        second = second[second >= a0][:, None]
        for _ in range(half - 1):
            w, a = _extend(first, head[first[:, -1]], out_off)
            first = np.column_stack((w, a))[(a > w[:, 0]) & (w != a[:, None]).all(axis=1)]
            w, a = _extend(second, tail[second[:, 0]], in_off, in_order)
            second = np.column_stack((a, w))[(a >= a0) & (w != a[:, None]).all(axis=1)]
        # second halves grouped by (end, start), lexicographic within a group
        second = second[np.lexsort((*second.T[::-1], head[second[:, -1]]))]
        group = head[second[:, -1]] * nv + tail[second[:, 0]]
        key = tail[first[:, 0]] * nv + head[first[:, -1]]
        lo = np.searchsorted(group, key)
        cnt = np.searchsorted(group, key, "right") - lo
        first, second = ids[first], ids[second]
        for s, e in _runs(cnt, _TRAIL_CHUNK):
            c = cnt[s:e]
            rep = np.repeat(np.arange(s, e), c)
            f = first[rep]
            g = second[lo[rep] + np.arange(len(rep)) - (np.cumsum(c) - c)[rep - s]]
            ok = (g > f[:, :1]).all(axis=1)
            for j in range(1, half):
                ok &= (g != f[:, j:j + 1]).all(axis=1)
            produced += int(np.count_nonzero(ok))
            if produced > MAX_TRAILS:
                raise GuardError(f"closed {length}-trails exceed the limit of {MAX_TRAILS}")
            yield np.hstack((f, g))[ok]


def theoretical_delta(n1: int, n2: int, p: float, i: int) -> float:
    """The degree scale n1^i n2^i (p/2)^(2i+1) of the trail hypergraph."""
    return (n1 ** i) * (n2 ** i) * (p / 2.0) ** (2 * i + 1)


class TrailHypergraph:
    """(2i+2)-uniform hypergraph on the arcs of D whose hyperedges are
    closed trails of length d = 2i+2: arc k is (tail[k], head[k]), in
    sorted order, and hyperedge k is row k of the canonical sorted rows,
    which hold each trail's i+1 arcs at even positions (see the module
    docstring); trails() rebuilds whole trails.

    build_trail_hypergraph gives every such trail, never a prefix;
    find_matching takes the trails it matches out and leaves the others
    canonical but unsorted, until mirror() sorts them. The same type holds
    the matched trails of a MatchingReport, over the arc arrays of their
    family.
    """

    def __init__(self, tail: np.ndarray, head: np.ndarray, rows: np.ndarray):
        self.tail = tail
        self.head = head
        self.rows = rows
        self.d = 2 * rows.shape[1]

    @property
    def n_arcs(self) -> int:
        return len(self.tail)

    @property
    def n_hyperedges(self) -> int:
        return len(self.rows)

    def trails(self, start: int = 0, stop: int | None = None,
               pick: np.ndarray | None = None) -> np.ndarray:
        """Hyperedges start:stop, or those at the offsets `pick` into
        that range, as whole trails, d arc ids per row in the dtype of
        the rows: the stored arcs at even positions, and after each the
        arc from its head to the tail of the next one (cyclically), found
        by a binary search of the packed (tail, head) keys of the arc
        table, _ROTATE_CHUNK rows at a time. A missing arc raises
        InternalConsistencyError naming the row."""
        even = self.rows[start:stop]
        if pick is not None:
            even = even[pick]
        key = self.tail.astype(np.int64)
        key <<= 32
        key += self.head
        full = np.empty((len(even), self.d), dtype=even.dtype)
        full[:, 0::2] = even
        for s in range(0, len(even), _ROTATE_CHUNK):
            part = even[s:s + _ROTATE_CHUNK]
            want = self.head[part].astype(np.int64)
            want <<= 32
            want += self.tail[np.roll(part, -1, axis=1)]
            odd = np.searchsorted(key, want)
            bad = (key.take(odd, mode="clip") != want).any(axis=1)
            if bad.any():
                k = s + int(bad.argmax())
                raise InternalConsistencyError(
                    f"trail {start + (k if pick is None else pick[k])} has no arc "
                    "between two of its stored arcs")
            full[s:s + _ROTATE_CHUNK, 1::2] = odd
        return full

    def mirror(self) -> None:
        """Turn this family into the family of the reversed digraph, in
        place and without enumerating it: each trail rebuilt and
        reversed, its arc ids mapped to the ranks of the reversed arcs,
        then re-canonicalised and re-sorted. Reversal is a bijection
        between the closed trails of D and of its reverse, so the family
        mirrors to exactly what enumerating the reversed digraph gives.

        Returns None, like list.sort. The rows array is rewritten in
        place, so a caller holding it sees the mirrored rows. The arc
        arrays are replaced, not rewritten, so a caller holding the old
        ones keeps the forward arcs."""
        order = np.lexsort((self.tail, self.head))
        rows = self.rows
        rank = np.empty(len(order), dtype=rows.dtype)
        rank[order] = np.arange(len(order), dtype=rows.dtype)
        for s in range(0, len(rows), _ROTATE_CHUNK):
            full = self.trails(s, s + _ROTATE_CHUNK)
            rows[s:s + _ROTATE_CHUNK] = _least_first(rank[full[:, ::-1]])
        self.tail, self.head = self.head[order], self.tail[order]
        _canonical_sort(rows)

    def degree_array(self) -> np.ndarray:
        """Hyperedge count per arc id."""
        return np.bincount(self.trails().ravel(), minlength=self.n_arcs)


def _mapped_rows(count: int, length: int, dtype: np.dtype) -> np.ndarray:
    """An uninitialised (count, length) array for a family's rows. From
    _MAP_BYTES on it is its own anonymous memory mapping, outside the
    malloc heap, so its pages go back to the OS as soon as the array is
    dropped; a smaller family comes from the heap."""
    nbytes = count * length * dtype.itemsize
    if nbytes < _MAP_BYTES:
        return np.empty((count, length), dtype=dtype)
    # Imported only when a family is mapped: imported with the package,
    # it shifted later heap allocations enough to raise the peak RSS of
    # runs on graphs of about 10 vertices by about 0.3 MB.
    import mmap
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype).reshape(count, length)


def build_trail_hypergraph(d: Digraph, i: int) -> TrailHypergraph:
    """The canonical closed trails of length 2i+2 in D, all of them.

    One pass over the half-trail join (see _trail_blocks) counts the
    trails, so a family past MAX_TRAILS is refused there, before the
    rows are allocated (by _mapped_rows); a second pass fills them with
    the even columns of its trails.
    """
    if i < 1:
        raise ValidationError(f"i must be >= 1, got {i}")
    length = 2 * i + 2
    count = sum(len(block) for block in _trail_blocks(d, length))
    rows = _mapped_rows(count, i + 1, _row_dtype(d.n_arcs))
    pos = 0
    for block in _trail_blocks(d, length):
        rows[pos:pos + len(block)] = block[:, ::2]
        pos += len(block)
    return TrailHypergraph(d.tail, d.head, rows)


@dataclass(frozen=True)
class ConditionReport:
    """Empirical check of the three matching hypotheses against the
    degree scale Delta: (1) degrees within (1 +- delta) Delta, (2) max
    codegree below delta*Delta, (3) few hyperedges touch an over-degree
    arc. The codegree is exact: the largest number of hyperedges that
    share one pair of arcs."""

    delta: float
    Delta: float
    n_arcs: int
    n_hyperedges: int
    degree_fraction_in_band: float
    cond1_all: bool
    max_codegree: int
    codegree_threshold: float
    cond2_ok: bool
    overfull_hyperedges: int
    overfull_threshold: float
    cond3_ok: bool


def check_matching_conditions(h: TrailHypergraph, delta: float,
                              Delta: float) -> ConditionReport:
    if Delta <= 0:
        raise ValidationError(f"Delta must be positive, got {Delta}")
    if not (0.0 < delta < 1.0):
        raise ValidationError(f"delta must lie in (0,1), got {delta}")
    lo, hi = (1.0 - delta) * Delta, (1.0 + delta) * Delta
    n = h.n_arcs
    rows = h.trails()
    degrees = np.bincount(rows.ravel(), minlength=n)
    in_band = int(np.count_nonzero((lo <= degrees) & (degrees <= hi)))
    frac = in_band / n if n else 1.0

    # One key per (trail, arc pair) from the rows sorted within; a trail
    # holds an arc at most once, so a key's multiplicity is the pair's
    # codegree. The keys fill one array, column pair by column pair, and
    # once it is sorted the codegree is its longest run of equal keys.
    overfull = int(np.count_nonzero((degrees > hi)[rows].any(axis=1)))
    rows.sort(axis=1)
    m = len(rows)
    keys = np.empty(m * h.d * (h.d - 1) // 2, dtype=np.int64)
    for s, (j, k) in enumerate(itertools.combinations(range(h.d), 2)):
        seg = keys[s * m:(s + 1) * m]
        np.multiply(rows[:, j], n, out=seg, dtype=np.int64)
        seg += rows[:, k]
    del rows
    keys.sort()
    max_codeg = int(np.diff(run_ends(keys), prepend=-1).max(initial=0))
    return ConditionReport(
        delta=delta,
        Delta=Delta,
        n_arcs=n,
        n_hyperedges=h.n_hyperedges,
        degree_fraction_in_band=frac,
        cond1_all=(in_band == n),
        max_codegree=max_codeg,
        codegree_threshold=delta * Delta,
        cond2_ok=max_codeg < delta * Delta,
        overfull_hyperedges=overfull,
        overfull_threshold=delta * n * Delta,
        cond3_ok=overfull <= delta * n * Delta,
    )


@dataclass(frozen=True, eq=False)
class MatchingReport:
    """A pairwise arc-disjoint set of hyperedges plus bookkeeping.
    Coverage is d*|M|/N, the fraction of arcs used by the matching.

    `chosen` holds the matched trails, canonical and sorted, over the
    arc arrays of the family they were matched in, and `family` is a
    weak reference to that family object, which the report does not
    keep alive. `excluded` counts the trails of the first matching whose
    reverses a mirror matching left out."""

    chosen: TrailHypergraph
    seed: int
    family: weakref.ref
    excluded: int = 0

    @property
    def size(self) -> int:
        return self.chosen.n_hyperedges

    @property
    def n_arcs(self) -> int:
        return self.chosen.n_arcs

    @property
    def d(self) -> int:
        return self.chosen.d

    @property
    def coverage(self) -> float:
        return self.d * self.size / self.n_arcs if self.n_arcs else 0.0


def find_matching(h: TrailHypergraph, seed: int = 0) -> MatchingReport:
    """Arc-disjoint hyperedge set by the random greedy process:
    repeatedly take a uniformly random surviving hyperedge and discard
    everything it conflicts with, implemented as a random priority order
    scanned once. The result is maximal and deterministic given the
    seed; it reports achieved coverage and claims no a priori size
    guarantee.

    This is the Rödl-nibble / Pippenger–Spencer random greedy process
    the theory rests on, run on the family's own rows with no array of
    row indices. random.Random(seed) shuffles the rows in place as
    whole rows, with the draws it would make for as many indices, and
    the sweep takes them in that order, a chunk of _SWEEP_CHUNK rows at
    a time, marking used arcs in a bytearray. Rows that are blocked when
    their chunk starts stay blocked, so numpy tests drop them without
    changing the result: first the rows with a used stored arc, then,
    once the others are rebuilt, those with a used odd arc. The accepted
    rows are copied out and sorted, which is their order in the family.
    The others move up over them in the same buffer, and h.rows becomes
    that prefix: h keeps the trails the matching did not take, in no
    particular order.
    """
    rows = h.rows
    n = len(rows)
    if n > 1:  # memoryview refuses an empty cast; one row takes no draws
        # whole rows as items: one uint32 or uint64 when a row is 4 or 8
        # bytes, which Python reads faster than numpy's void scalars
        size = rows.shape[1] * rows.itemsize
        view = (memoryview(rows).cast("B").cast("I" if size == 4 else "Q")
                if size in (4, 8) else rows.view(np.dtype((np.void, size))).ravel())
        random.Random(seed).shuffle(view)
    used = bytearray(h.n_arcs)
    used_np = np.frombuffer(used, dtype=np.uint8)
    is_used = used.__getitem__
    chosen: list[int] = []
    for s in range(0, n, _SWEEP_CHUNK):
        e = min(s + _SWEEP_CHUNK, n)
        free = np.flatnonzero(~used_np[rows[s:e]].any(axis=1))
        full = h.trails(s, e, free)
        free_full = ~used_np[full].any(axis=1)
        for k, row in zip((free[free_full] + s).tolist(), full[free_full].tolist()):
            if any(map(is_used, row)):
                continue
            for a in row:
                used[a] = 1
            chosen.append(k)
    matched = rows[np.array(chosen, dtype=np.int64)]
    _canonical_sort(matched)
    # Each run of rows between two taken ones moves up through a 1-D
    # view: numpy copies an overlapping 2-D source first.
    flat, w = rows.reshape(-1), rows.shape[1]
    kept = start = 0
    for k in chosen + [n]:
        flat[kept * w:(kept + k - start) * w] = flat[start * w:k * w]
        kept += k - start
        start = k + 1
    h.rows = rows[:kept]
    return MatchingReport(TrailHypergraph(h.tail, h.head, matched), seed, weakref.ref(h))


def find_disjoint_mirror_matching(h: TrailHypergraph, m: MatchingReport,
                                  seed: int = 0) -> MatchingReport:
    """Matching in the reversed-digraph hypergraph avoiding the reverses
    of the given matching, so no prescribed face appears twice with
    opposite senses. h is the family m was matched in, which
    find_matching left holding the trails m did not take. Reversal is a
    bijection, so their mirror is the reversed digraph's family less the
    reverses of m: h is mirrored in place and matched. Any other h, such
    as another enumeration of the same digraph or h once mirrored
    already, raises ValidationError."""
    if m.family() is not h or m.chosen.tail is not h.tail:
        raise ValidationError("h must be the family the matching was drawn from")
    h.mirror()
    return replace(find_matching(h, seed), excluded=m.size)


def matching_report_to_text(report: MatchingReport, fh: TextIO) -> None:
    fh.write(f"seed={report.seed}\n")
    fh.write(f"size={report.size}\n")
    fh.write(f"n_arcs={report.n_arcs}\n")
    fh.write(f"d={report.d}\n")
    fh.write(f"coverage={report.coverage:.6f}\n")
    fh.write(f"excluded={report.excluded}\n")


def trails_to_text(trails: TrailHypergraph, fh: TextIO) -> None:
    """One line per trail, its arcs as `t>h` tokens in trail order,
    rebuilt and written one _ROTATE_CHUNK of rows at a time. Each chunk
    is checked first: a trail has at least 2 arcs, no arc repeats, and
    the trail starts at its least arc; a trail that fails, or that
    trails() cannot rebuild, raises InternalConsistencyError."""
    w = trails.d
    if trails.n_hyperedges and w < 2:
        raise InternalConsistencyError("a closed trail needs at least 2 arcs")
    line = " ".join(["%d>%d"] * w) + "\n"
    for s in range(0, trails.n_hyperedges, _ROTATE_CHUNK):
        block = trails.trails(s, s + _ROTATE_CHUNK)
        bad = (block[:, 1:] < block[:, :1]).any(axis=1)
        for j, k in itertools.combinations(range(w), 2):
            bad |= block[:, j] == block[:, k]
        if bad.any():
            raise InternalConsistencyError(
                f"trail {s + int(bad.argmax())} repeats an arc or does not start "
                "at its least arc")
        arcs = np.stack((trails.tail[block], trails.head[block]), axis=2).ravel().tolist()
        fh.write((line * len(block)) % tuple(arcs))


# ---------------------------------------------------------------------------
# Undirected short-trail counting, used by the refined genus lower bound.


def count_short_closed_trails(g: BipartiteGraph, i: int) -> int:
    """Exact number of closed trails of length at most 2i in the
    undirected simple bipartite graph g (each counted once up to
    rotation and direction).

    In a simple bipartite graph every closed trail of length 4 or 6 is a
    cycle, so those lengths reduce to closed-form cycle counts over
    common neighborhoods (one set of Y-bitmasks serves both). Longer
    lengths (j >= 4) are counted by streaming the half-trail join
    (_trail_blocks), guarded by a work estimate and MAX_TRAILS.
    """
    if not isinstance(g, BipartiteGraph):
        raise ValidationError("count_short_closed_trails expects a bipartite graph")
    if i < 1:
        raise ValidationError(f"i must be >= 1, got {i}")
    masks = _y_masks(g) if i >= 2 else []
    total = _count_quad_cycles(masks) + (_count_hex_cycles(masks) if i >= 3 else 0)
    return total + sum(_count_trails_exhaustive(g, 2 * j) for j in range(4, i + 1))


def _y_masks(g: BipartiteGraph) -> list[int]:
    """The X-neighbourhood of every Y-vertex as a bitmask."""
    masks = [0] * g.n2
    for x, y in zip(g.u.tolist(), g.v.tolist()):
        masks[y - g.n1] |= 1 << x
    return masks


def _count_quad_cycles(masks: list[int]) -> int:
    total = 0
    for a in range(len(masks)):
        for b in range(a + 1, len(masks)):
            c = (masks[a] & masks[b]).bit_count()
            total += c * (c - 1) // 2
    return total


def _count_hex_cycles(masks: list[int]) -> int:
    n = len(masks)
    total = 0
    for a in range(n):
        for b in range(a + 1, n):
            mab = masks[a] & masks[b]
            if not mab:
                continue
            cab = mab.bit_count()
            for c in range(b + 1, n):
                cac = (masks[a] & masks[c]).bit_count()
                if not cac:
                    continue
                cbc = (masks[b] & masks[c]).bit_count()
                if not cbc:
                    continue
                t = (mab & masks[c]).bit_count()
                total += cab * cbc * cac - t * (cab + cbc + cac) + 2 * t
    return total


def _count_trails_exhaustive(g: BipartiteGraph, length: int) -> int:
    """Closed trails of `length` edges, from the directed closed trails
    of the symmetric digraph of g (both arcs of every edge): a trail
    that uses no edge twice is one direction of an undirected closed
    trail, and each such trail has exactly two. The trails are tested
    and added up block by block as the join yields them, so no family
    is built."""
    avg = 2 * g.n_edges / max(1, g.n_vertices)
    work = g.n_vertices * max(1.0, avg) ** (length - 1)
    if work > _COUNT_WORK_LIMIT:
        raise GuardError(
            f"closed-trail count of length {length} too expensive here "
            f"(estimated {work:.2e} steps)"
        )
    # the darts of g are both arcs of every edge in (tail, head) order,
    # and an edge is named by the lesser of its two darts
    index = arc_index(g)
    d = Digraph._from_sorted(g.n_vertices, index.tail, index.head)
    edge = np.minimum(np.arange(len(index.rev), dtype=np.int32), index.rev)
    total = 0
    for block in _trail_blocks(d, length):
        edges = np.sort(edge[block], axis=1)
        total += int(np.count_nonzero((edges[:, 1:] != edges[:, :-1]).all(axis=1)))
    return total // 2
