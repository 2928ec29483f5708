"""Weak proper discontinuity counts, the coarse-equivalence search between
orbit rays, the conjugate-power oracle, and construction of families of
pairwise inequivalent elements.

``wpd_count`` and ``equiv_search`` walk a group ball.  When the free group
acts on its own tree by left multiplication and the basepoint is a vertex v
(``actions.is_exact_tree``), every orbit point is a vertex w·v, so they run
as packed word passes over slices of ``words.packed_ball`` in chunks
(``_PACKED_CELLS``): ``words.packed_products`` forms the moved vertices and
``words.packed_distances`` reads their distances; only the rows returned
(the matching words, the witness γ) are unpacked.  Between vertices every
distance is an integer word length, and the distance from a vertex to a
segment is the Gromov gap of three of them (``words.gromov_gap``), exactly
what ``project`` returns there.  So the packed answers are bit-equal to
the per-point route.  The packed ``equiv_search`` drops each γ whose
moved start γ·v is farther than K from every [v, g^m v], m >= 1, a filter
that is exact: every Hausdorff distance it reads is a max that includes
that distance.  Everywhere else ``wpd_count`` maps each of its two points
p under the whole ball at once (``GroupModel.ball_images``) and reads the
displacements d(p, w·p) from one ``projections`` pass onto the one-point
segment [p, p]; ``equiv_search`` keeps its per-point route.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .actions import GroupModel, act, is_exact_tree
from .errors import BudgetError
from .words import (
    Word,
    conjugacy_key,
    inverse as word_inverse,
    multiply as word_multiply,
    power as word_power,
)
from . import words as W


class WpdReport(NamedTuple):
    g: Word
    c: float
    M: int
    radius: int
    matching: tuple             # words satisfying both displacement bounds
    count: int

    def to_json(self) -> dict:
        return {"kind": "wpd-matches", "g": W.to_string(self.g), "c": self.c,
                "M": self.M, "radius": self.radius,
                "matching": [W.to_string(w) for w in self.matching],
                "count": self.count}


# Entries (moved vertex, target) of one packed pass's distance grid: enough
# for numpy to amortize its per-call cost, few enough that a pass's arrays
# stay small next to the word ball, so peak memory grows with neither the
# ball nor power_max.
_PACKED_CELLS = 1 << 11


def _packed_route(space, group: GroupModel, x0) -> bool:
    """The packed tree route applies: ``is_exact_tree``, with every group
    letter a letter of the tree (else the per-point route's point checks
    reject the words that leave it)."""
    return is_exact_tree(group, x0) and group.rank <= space.rank


def _moved_distances(rows, movers, targets) -> np.ndarray:
    """Entry (i, j, k): the tree distance from the vertex w_i u_j to the
    vertex t_k, for the rows w_i of ``rows``, u_j of ``movers`` and t_k of
    ``targets`` (three packed word arrays), in one packed pass."""
    moved = W.grid_products(rows, movers)
    return W.packed_distances(moved, targets).reshape(len(rows[1]), len(movers[1]),
                                                      len(targets[1]))


def wpd_count(space, group: GroupModel, g, c: float, M: int, radius: int,
              x0=None) -> WpdReport:
    """Count group elements that move both the basepoint and its M-th orbit
    image under g by at most c.

    Finiteness at scale is evidenced by the count being stable under radius
    growth; the report records the enumeration radius so absence claims stay
    interpretable.

    On the tree with a vertex basepoint v both displacements are word
    lengths, d(v, w·v) and d(far, w·far), read for slices of the packed
    ball in chunks; the second only for the rows the first keeps.
    Elsewhere each displacement is one ``projections`` pass over the
    ball's images of its point.  The matching words keep ball order.
    """
    gi = group.from_word(g)
    x0 = space.validate_point(x0 if x0 is not None else space.basepoint())
    tol = space.tol
    far = act(space, group.power(gi, M), x0)
    if _packed_route(space, group, x0):
        def within(rows, p):   # the rows w with d(p, w·p) not above c + tol
            keep = ~(_moved_distances(rows, p, p).ravel() > c + tol)
            return rows[0][keep], rows[1][keep]

        matching = []
        letters, lens = W.packed_ball(group.rank, radius)
        v, v_far = W.pack([x0.anchor]), W.pack([far.anchor])
        for lo in range(0, len(lens), _PACKED_CELLS):
            part = letters[lo:lo + _PACKED_CELLS], lens[lo:lo + _PACKED_CELLS]
            matching += W.unpack(within(within(part, v), v_far))
        return WpdReport(gi.word, c, M, radius, tuple(matching), len(matching))
    words, images = group.ball_images(space, radius, [x0, far])
    far_off = np.zeros(len(words[1]), dtype=bool)
    for p, moved in zip((x0, far), images):
        far_off |= space.projections(moved, space.geodesic(p, p))[1] > c + tol
    matching = tuple(W.unpack((words[0][~far_off], words[1][~far_off])))
    return WpdReport(gi.word, c, M, radius, matching, len(matching))


class EquivWitness(NamedTuple):
    gamma: Word
    m: int
    n: int
    hausdorff: float

    def to_json(self) -> dict:
        return {"kind": "equiv-witness", "gamma": W.to_string(self.gamma),
                "m": self.m, "n": self.n, "hausdorff": self.hausdorff}


def sampled_hausdorff(space, seg1, seg2, seg2_ends=None) -> float:
    """Symmetric Hausdorff distance between two segments: the largest
    distance from an end of either to the other, since the distance to a
    segment peaks at an end (see ``spaces.check_ft``).  ``seg2_ends`` holds
    the distances from seg2's start and end to seg1 when the caller has
    measured them already.  The name stays for the benchmark's per-layer
    call count, which reads it."""
    if seg2_ends is None:
        seg2_ends = [space.project(pt, seg1).distance for pt in (seg2.start, seg2.end)]
    return max(space.project(seg1.start, seg2).distance,
               space.project(seg1.end, seg2).distance, *seg2_ends)


def _first_persistent(match, power_max: int) -> tuple[int, int] | None:
    """The first (n, m), n-major over 1..power_max, for which ``match(k n,
    k m)`` holds at every k >= 1 with k max(n, m) <= power_max.

    The equivalence being probed demands matches at arbitrarily large
    powers, so a single small-power coincidence (any two short segments
    near each other are K-close) is not accepted: the same gamma must keep
    matching along the power ray as far as the budget reaches.  Both routes
    of ``equiv_search`` decide here, each with its own ``match``.
    """
    for n in range(1, power_max + 1):
        for m in range(1, power_max + 1):
            if all(match(k * n, k * m) for k in range(1, power_max // max(n, m) + 1)):
                return n, m
    return None


def equiv_search(space, group: GroupModel, g, h, K: float, power_max: int,
                 radius: int, x0=None) -> EquivWitness | None:
    """First (gamma, m, n) making [x0, g^m x0] and gamma [x0, h^n x0]
    K-Hausdorff equivalent, with the match persisting along (k m, k n)
    (``_first_persistent``), or None at budget.

    Scan order is deterministic: gamma through the ball, then the power
    grid.  Per point, the moved segment's own ends are pruned first, so most
    candidates stop after one or two projections, and each (n, m) is
    measured once per gamma.  On the tree with a vertex basepoint v, each
    chunk of the ball takes one packed pass for d(gamma v, g^m v), which
    drops the gamma that cannot match (see the module docstring), and one
    for the d(gamma h^n v, g^m v), n, m in 0..power_max, of the rest.  The
    four end-to-segment distances of every (gamma, n, m) are their Gromov
    gaps, and the search stops at the first chunk with a persistent match.
    """
    gi, hi = group.from_word(g), group.from_word(h)
    x0 = space.validate_point(x0 if x0 is not None else space.basepoint())
    tol = space.tol
    g_ends = [act(space, group.power(gi, m), x0) for m in range(power_max + 1)]
    h_ends = [act(space, group.power(hi, n), x0) for n in range(power_max + 1)]
    if _packed_route(space, group, x0):
        return _packed_equiv(group.rank, [p.anchor for p in g_ends],
                             [p.anchor for p in h_ends], K + tol, power_max, radius)
    g_segs = {m: space.geodesic(x0, g_ends[m]) for m in range(1, power_max + 1)}

    def matches(seg, moved) -> float | None:
        near = []
        for pt in (moved.start, moved.end):
            near.append(space.project(pt, seg).distance)
            if near[-1] > K + tol:
                return None
        d = sampled_hausdorff(space, seg, moved, near)
        return d if d <= K + tol else None

    for iso in group.ball(radius):
        gx0 = act(space, iso, x0)
        moved_segs = {n: space.geodesic(gx0, act(space, iso, h_ends[n]))
                      for n in range(1, power_max + 1)}
        found: dict = {}

        def match(n, m) -> bool:
            if (n, m) not in found:
                found[n, m] = matches(g_segs[m], moved_segs[n])
            return found[n, m] is not None

        hit = _first_persistent(match, power_max)
        if hit is not None:
            n, m = hit
            return EquivWitness(iso.word, m, n, found[n, m])
    return None


def _packed_equiv(rank: int, g_ends: list[Word], h_ends: list[Word],
                  bound: float, power_max: int, radius: int) -> EquivWitness | None:
    """``equiv_search`` on the tree, from the vertices g^m v and h^n v,
    m, n in 0..power_max, with ``bound`` = K + tol.  The start filter is
    exact: ``hausdorff[i, n, m]`` takes the max with gap(γ_i v, [v, g^m v]),
    and ``_first_persistent`` reads only n, m >= 1."""
    # first, so that its radius checks raise as per point
    letters, lens = W.packed_ball(rank, radius)
    if power_max < 1:
        return None
    gap = W.gromov_gap
    g_ends, h_ends = W.pack(g_ends), W.pack(h_ends)
    v = g_ends[0][:1], g_ends[1][:1]
    lg = W.packed_distances(v, g_ends)[0]             # |[v, g^m v]|
    lh = W.packed_distances(v, h_ends)[0][:, None]    # |[γv, γh^n v]|
    wide, step = (max(1, _PACKED_CELLS // len(lg) ** k) for k in (1, 2))
    for lo in range(0, len(lens), wide):
        part = letters[lo:lo + wide], lens[lo:lo + wide]
        # the start filter: γ_i v within the bound of some [v, g^m v], m >= 1
        start = _moved_distances(part, v, g_ends)
        keep = (gap(start[:, :, :1], start, lg)[:, 0, 1:] <= bound).any(axis=1)
        near = part[0][keep], part[1][keep]
        for at in range(0, len(near[1]), step):
            part = near[0][at:at + step], near[1][at:at + step]
            # d[i, n, m] = d(γ_i h^n v, g^m v); n = 0 is the moved start γ_i v
            d = _moved_distances(part, h_ends, g_ends)
            start, end = d[:, :1], d
            # the moved ends to [v, g^m v], then v and g^m v to the moved segment
            hausdorff = np.maximum(
                np.maximum(gap(start[:, :, :1], start, lg), gap(end[:, :, :1], end, lg)),
                np.maximum(gap(start[:, :, :1], end[:, :, :1], lh), gap(start, end, lh)))
            match = hausdorff <= bound
            for i in np.flatnonzero(match[:, 1:, 1:].any(axis=(1, 2))):
                hit = _first_persistent(lambda n, m: match[i, n, m], power_max)
                if hit is not None:
                    n, m = hit
                    gamma = W.unpack((part[0][i:i + 1], part[1][i:i + 1]))[0]
                    return EquivWitness(gamma, m, n, float(hausdorff[i, n, m]))
    return None


def conjugate_power_test(g, h, power_max: int) -> tuple[int, int] | None:
    """Scan 1 <= m, n <= power_max for conjugate positive powers.

    Free-group words only.  Each power's conjugacy key is computed once,
    and the grid is scanned m-major, so the first (m, n) is returned.
    """
    g, h = W.as_word(g), W.as_word(h)
    h_keys = [conjugacy_key(word_power(h, n)) for n in range(1, power_max + 1)]
    for m in range(1, power_max + 1):
        key = conjugacy_key(word_power(g, m))
        if key in h_keys:
            return (m, h_keys.index(key) + 1)
    return None


class FamilyReport(NamedTuple):
    members: tuple               # words
    exponent: int                # Schottky power N used in the patterns
    checked_power_max: int

    def to_json(self) -> dict:
        # every member is a commutator pattern; the field stays in reports
        return {"members": [W.to_string(w) for w in self.members],
                "exponent": self.exponent,
                "checked_power_max": self.checked_power_max,
                "commutator": True}


def build_family(g1, g2, count: int, N: int = 2, power_max: int = 6,
                 max_tries: int = 64) -> FamilyReport:
    """Cyclically reduced words over g1^N, g2^N that are pairwise
    non-conjugate in all positive powers, including against inverses.

    The patterns are the commutators a b^i a^-1 b^-i of a = g1^N, b = g2^N,
    so each member has zero exponent sums, and the conjugacy oracle is the
    gate.  Budget error if the patterns run out before ``count`` members
    pass.
    """
    g1, g2 = W.as_word(g1), W.as_word(g2)
    a, b = word_power(g1, N), word_power(g2, N)
    members: list[Word] = []
    for i in range(1, max_tries + 1):
        cand = W.cyclic_reduce(word_multiply(
            word_multiply(a, word_power(b, i)),
            word_multiply(word_inverse(a), word_power(word_inverse(b), i))))[0]
        if not cand:
            continue
        ok = conjugate_power_test(cand, word_inverse(cand), power_max) is None
        for m in members:
            if not ok:
                break
            ok = (conjugate_power_test(cand, m, power_max) is None
                  and conjugate_power_test(cand, word_inverse(m), power_max) is None)
        if ok:
            members.append(cand)
            if len(members) == count:
                return FamilyReport(tuple(members), N, power_max)
    raise BudgetError(f"only {len(members)} of {count} members found",
                      partial=tuple(members))
