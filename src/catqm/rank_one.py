"""Rank-1 behavior of isometries: orbit/geodesic comparison, independence
profiles, ping-pong exponents, and the flat negative control.

An isometry behaves rank-1 at scale B (up to budget) when, for every tested
power n, some geodesic from the basepoint to the n-th orbit point is
B-Hausdorff equivalent to the orbit prefix and contracting at scale B.
Flat directions refute this: a Euclidean translation axis admits balls whose
projections are as wide as desired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .actions import GroupModel, act, orbit_points
from .contraction import CertBudget, ContractionCertificate, certify_contracting
from .errors import BudgetError, InputError, checked_number
from .spaces import _arclength_samples
from . import words as W


@dataclass(frozen=True)
class PowerEvidence:
    n: int
    orbit_to_geodesic: float     # max over orbit points of d(x_k, [x0, x_n])
    geodesic_to_orbit: float     # max over samples of d(point, orbit set)
    certificate: ContractionCertificate


@dataclass(frozen=True)
class RankOneCertificate:
    word: W.Word
    B: float
    n_max: int
    growth_floor: float          # eps with |x0 - x_n| >= n * eps for tested n
    evidence: tuple

    @property
    def certified(self) -> bool:
        return True


@dataclass(frozen=True)
class RankOneRefutation:
    word: W.Word
    B: float
    n: int
    reason: str                  # "hausdorff" or "contraction"
    witness: dict

    @property
    def certified(self) -> bool:
        return False


def rank_one_test(space, group: GroupModel, g, x0, B: float, n_max: int,
                  budget: CertBudget | None = None):
    """Budgeted rank-1 check for every power up to n_max.

    Geodesics are sampled at step B/2: since distance functions are
    1-Lipschitz, a true Hausdorff violation beyond B cannot hide between
    samples that close.
    """
    iso = group.from_word(g)
    if not iso.word:
        raise InputError("isometry must be nontrivial")
    x0 = space.validate_point(x0)
    tol = space.tol
    orbit = orbit_points(space, iso, x0, n_max)
    evidence = []
    floor = math.inf
    for n in range(1, n_max + 1):
        seg = space.geodesic(x0, orbit[n])
        worst_orbit = 0.0
        for k in range(n + 1):
            d = space.project(orbit[k], seg).distance
            worst_orbit = max(worst_orbit, d)
            if d > B + tol:
                return RankOneRefutation(iso.word, B, n, "hausdorff", {
                    "orbit_index": k,
                    "deviation": d,
                    "point": space.point_to_json(orbit[k])})
        worst_geo = 0.0
        for s in _arclength_samples(seg.length, B / 2.0):
            pt = seg.point_at(s)
            d = min(space.distance(pt, q) for q in orbit[:n + 1])
            worst_geo = max(worst_geo, d)
            if d > B + tol:
                return RankOneRefutation(iso.word, B, n, "hausdorff", {
                    "parameter": s,
                    "deviation": d,
                    "point": space.point_to_json(pt)})
        cert = certify_contracting(space, seg, B, budget)
        if cert.refuted:
            return RankOneRefutation(iso.word, B, n, "contraction", cert.to_json(space))
        evidence.append(PowerEvidence(n, worst_orbit, worst_geo, cert))
        floor = min(floor, space.distance(x0, orbit[n]) / n)
    if floor <= tol:
        return RankOneRefutation(iso.word, B, n_max, "growth", {"floor": floor})
    return RankOneCertificate(iso.word, B, n_max, floor, tuple(evidence))


@dataclass(frozen=True)
class IndependenceProfile:
    values: tuple                 # values[R] = min distance at grid radius R
    grid_max: int
    threshold: float
    tail_increasing: bool
    passed: bool


def independence_test(space, group: GroupModel, g, h, x0, grid_max: int,
                      threshold: float) -> IndependenceProfile:
    """Properness profile of (m, n) -> |g^m x0 - h^n x0|.

    values[R] minimizes over max(|m|, |n|) = R.  Evidence of independence is
    a strictly increasing tail that clears the threshold by grid_max; the
    profile never claims properness beyond the grid.
    """
    def orbit(word) -> dict:
        """{m: word^m x0} for |m| <= grid_max."""
        iso = group.from_word(word)
        back = orbit_points(space, group.inverse(iso), x0, grid_max)
        return {**{-m: p for m, p in enumerate(back)},
                **dict(enumerate(orbit_points(space, iso, x0, grid_max)))}

    xs, ys = orbit(g), orbit(h)
    values = [0.0]
    for R in range(1, grid_max + 1):
        best = math.inf
        for m in range(-R, R + 1):
            for n in range(-R, R + 1):
                if max(abs(m), abs(n)) == R:
                    best = min(best, space.distance(xs[m], ys[n]))
        values.append(best)
    tail = all(values[i] < values[i + 1] for i in range(max(1, grid_max // 2), grid_max))
    passed = tail and values[-1] > threshold
    return IndependenceProfile(tuple(values), grid_max, threshold, tail, passed)


@dataclass(frozen=True)
class SchottkyResult:
    N: int
    E: float
    word_len_max: int
    displacements: dict          # word string -> (length, displacement)


def schottky_exponent(space, group: GroupModel, g, h, E: float,
                      word_len_max: int, x0, n_cap: int = 16) -> SchottkyResult:
    """Smallest even N <= n_cap so that every nontrivial reduced word in
    g^N, h^N of length <= word_len_max displaces the basepoint by at least
    its length times E.  Exhausting the cap raises a budget error carrying
    the displacement tables per tried N."""
    checked_number(E, "E")
    gi, hi = group.from_word(g), group.from_word(h)
    tol = space.tol
    patterns = [w for w in W.ball(2, word_len_max) if w]
    tried = {}
    for N in range(2, n_cap + 1, 2):
        table = {}
        ok = True
        gN, hN = group.power(gi, N), group.power(hi, N)
        basis = {1: gN, -1: group.inverse(gN), 2: hN, -2: group.inverse(hN)}
        for pattern in patterns:
            iso = group.identity()
            for letter in pattern:
                iso = group.multiply(iso, basis[letter])
            disp = space.distance(x0, act(space, iso, x0))
            table[W.to_string(pattern)] = (len(pattern), disp)
            if disp < len(pattern) * E - tol:
                ok = False
        tried[N] = table
        if ok:
            return SchottkyResult(N, E, word_len_max, table)
    raise BudgetError(f"no even N <= {n_cap} satisfies the displacement bound",
                      partial=tried)


def half_flat_control(space, seg, B_sweep, budget: CertBudget | None = None
                      ) -> list[ContractionCertificate]:
    """Negative control: along a flat axis each scale in the sweep must be
    refuted with a replayable witness ball.  One certificate per scale."""
    certs = []
    for B in B_sweep:
        probe = replace(budget or CertBudget(),
                        probe_heights=(B / 2.0 + 2.0, B + 2.0))
        certs.append(certify_contracting(space, seg, B, probe))
    return certs
