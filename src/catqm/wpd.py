"""Weak proper discontinuity counts, the coarse-equivalence search between
orbit rays, the conjugate-power oracle, and construction of families of
pairwise inequivalent elements.
"""

from __future__ import annotations

from dataclasses import dataclass

from .actions import GroupModel, Isometry, WordShift, act
from .errors import BudgetError, UnsupportedError
from .spaces import SAMPLE_STEP, _arclength_samples
from .words import (
    Word,
    conjugacy_test,
    inverse as word_inverse,
    multiply as word_multiply,
    power as word_power,
)
from . import words as W


@dataclass(frozen=True)
class WpdReport:
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


def wpd_count(space, group: GroupModel, g, c: float, M: int, radius: int,
              x0=None) -> WpdReport:
    """Count group elements that move both the basepoint and its M-th orbit
    image under g by at most c.

    Finiteness at scale is evidenced by the count being stable under radius
    growth; the report records the enumeration radius so absence claims stay
    interpretable.
    """
    gi = group.from_word(g)
    x0 = space.validate_point(x0 if x0 is not None else space.basepoint())
    tol = space.tol
    far = act(space, group.power(gi, M), x0)
    matching = []
    for iso in group.ball(radius):
        if space.distance(x0, act(space, iso, x0)) > c + tol:
            continue
        if space.distance(far, act(space, iso, far)) > c + tol:
            continue
        matching.append(iso.word)
    return WpdReport(gi.word, c, M, radius, tuple(matching), len(matching))


@dataclass(frozen=True)
class EquivWitness:
    gamma: Word
    m: int
    n: int
    hausdorff: float

    def to_json(self) -> dict:
        return {"kind": "equiv-witness", "gamma": W.to_string(self.gamma),
                "m": self.m, "n": self.n, "hausdorff": self.hausdorff}


def sampled_hausdorff(space, seg1, seg2) -> float:
    """Symmetric sampled Hausdorff distance between two segments."""
    worst = 0.0
    for seg, other in ((seg1, seg2), (seg2, seg1)):
        for s in _arclength_samples(seg.length, SAMPLE_STEP):
            worst = max(worst, space.project(seg.point_at(s), other).distance)
    return worst


def equiv_search(space, group: GroupModel, g, h, K: float, power_max: int,
                 radius: int, x0=None) -> EquivWitness | None:
    """First (gamma, m, n) making [x0, g^m x0] and gamma [x0, h^n x0]
    K-Hausdorff equivalent at sampling scale, or None at budget.

    The equivalence being probed demands matches at arbitrarily large
    powers, so a single small-power coincidence (any two short segments
    near each other are K-close) is not accepted: the same gamma must keep
    matching along the power ray (k m, k n) as far as the budget reaches.
    Scan order is deterministic: gamma through the ball, then the power
    grid.  Cheap endpoint pruning runs before the full sampled check.
    """
    gi, hi = group.from_word(g), group.from_word(h)
    x0 = space.validate_point(x0 if x0 is not None else space.basepoint())
    tol = space.tol
    g_ends = [act(space, group.power(gi, m), x0) for m in range(power_max + 1)]
    h_ends = [act(space, group.power(hi, n), x0) for n in range(power_max + 1)]
    g_segs = {m: space.geodesic(x0, g_ends[m]) for m in range(1, power_max + 1)}

    def matches(iso, seg, moved) -> float | None:
        if space.project(moved.start, seg).distance > K + tol:
            return None
        if space.project(moved.end, seg).distance > K + tol:
            return None
        d = sampled_hausdorff(space, seg, moved)
        return d if d <= K + tol else None

    for iso in group.ball(radius):
        gx0 = act(space, iso, x0)
        moved_segs = {n: space.geodesic(gx0, act(space, iso, h_ends[n]))
                      for n in range(1, power_max + 1)}
        for n in range(1, power_max + 1):
            for m in range(1, power_max + 1):
                d = matches(iso, g_segs[m], moved_segs[n])
                if d is None:
                    continue
                persistent = True
                k = 2
                while k * max(m, n) <= power_max:
                    if matches(iso, g_segs[k * m], moved_segs[k * n]) is None:
                        persistent = False
                        break
                    k += 1
                if persistent:
                    return EquivWitness(iso.word, m, n, d)
    return None


def conjugate_power_test(g, h, power_max: int) -> tuple[int, int] | None:
    """Scan 1 <= m, n <= power_max for conjugate positive powers.

    Free-group words only.  For free groups scanning the diagonal up to
    cyclic-core alignment would suffice, but the full grid is cheap and
    robust against mistaken length bookkeeping.
    """
    g = _as_word(g)
    h = _as_word(h)
    for m in range(1, power_max + 1):
        gm = word_power(g, m)
        for n in range(1, power_max + 1):
            if conjugacy_test(gm, word_power(h, n)):
                return (m, n)
    return None


def _as_word(g) -> Word:
    if isinstance(g, Isometry):
        if not isinstance(g.action, WordShift):
            raise UnsupportedError("conjugacy oracle needs a free-group model")
        return g.word
    return W.as_word(g)


@dataclass(frozen=True)
class FamilyReport:
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
    g1 = _as_word(g1)
    g2 = _as_word(g2)
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
