"""Contraction certificates for geodesic segments and the derived-constant
ledger.

A segment is contracting at scale B when every metric ball disjoint from it
projects onto it with diameter below B.  On the tree that holds by theorem:
a ball that misses a convex subtree projects onto the foot of its center, so
every shadow is one point and ``certify_contracting`` returns an exact
certificate at any B above the tolerance.  Elsewhere the statement ranges
over all balls, so what we produce is budgeted evidence: a certificate
records the maximal projection diameter observed over a deterministic
family of balls (``_candidate_centers`` and ``_ball_family``), and a
refutation stores a replayable witness ball.  The tree takes the same
search at B <= tol, where its first ball refutes with diameter 0.0.  The
sampled ball shadow has one owner, ``_shadows``: the spread of the
``space.projections`` parameters of ``space.ball_points``, one ball per
step, so a certificate leaves the balls after its first refuting one
unevaluated; ``projection_diameter_under_ball`` reads its one-ball step.

The ledger carries every constant the lemma suite needs, each instantiated
by an explicit formula that discharges the corresponding proof step.  Where
a proof only shows some bound exists, the formula here follows the proof's
inequality chain with conservative slack; all uses are upper bounds, so
over-estimates are safe.  Every entry is monotone nondecreasing in each
argument.  Each constant has one owner, its ``phi_*`` formula: the lemma
checkers evaluate the formulas at the ledger's (B, C), and
``ConstantLedger`` holds only the base pair and the downstream constants
fixed once per experiment, with ``table()`` for reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import InputError, checked_number
from .spaces import _arclength_samples

CERTIFIED = "certified-at-budget"
EXACT = "exact-on-tree"
REFUTED = "refuted"
# arclength spacing of the variation hypothesis: it asks for a minimum along
# the segment, which the ends do not decide
SAMPLE_STEP = 0.5
# certification balls keep at least this gap to the segment
MIN_GAP = 1.0


# ---------------------------------------------------------------------------
# Constant ledger
# ---------------------------------------------------------------------------

def phi_subsegment(B: float, C: float) -> float:
    """Subsegments of a B-contracting segment contract at this scale."""
    return B + 4.0 * C + 3.0


def phi_thin_triangle(B: float, C: float) -> float:
    """If the projection of c onto a contracting [a, b] reaches b, then b is
    this close to [a, c]."""
    return 3.0 * B + C + 1.0


def phi_near_collinearity(B: float, C: float) -> float:
    """Two-sided defect of the triangle inequality through a projection
    endpoint: |a-c| >= |a-b| + |b-c| minus this."""
    return B + C + 1.0


def phi_projection_transfer(B: float, C: float, D: float) -> float:
    """Projecting onto [a, b] directly, or via a segment [a, c] with
    |b - c| <= D, lands within this distance.

    From the inequality chain |x-x1| + C + D > |x-x1| + |x1-x3| -
    phi_near_collinearity - C - D.
    """
    return phi_near_collinearity(B, C) + 2.0 * C + 2.0 * D
    # = B + 3C + 2D + 1


def phi_stability(B: float, C: float, D: float) -> float:
    """Moving both endpoints by at most D keeps segments contracting at this
    scale: K < 2(C + D + phi_projection_transfer + B) + 3C + D."""
    return 2.0 * (C + D + phi_projection_transfer(B, C, D) + B) + 3.0 * C + D


def phi_variation(B: float, C: float) -> float:
    """Additive loss in the distance-variation bound along a contracting
    segment, assuming the minimal distance d is >= 1: the proof's
    B + BC/d + phi_near_collinearity with d >= 1."""
    return B * (C + 2.0) + C + 1.0


def phi_detour(B_prime: float, C: float) -> float:
    """A two-corner detour between the ends of a geodesic either saves more
    than 3 in length or stays this close to the geodesic: 5 T + C + 3/2 with
    T the thin-triangle constant at the subsegment scale."""
    return 5.0 * phi_thin_triangle(B_prime, C) + C + 1.5


def phi_dichotomy(B: float, C: float) -> float:
    """Either a contracting segment is shorter than this, or any segment
    whose endpoints project to its ends passes closer than this.

    The proof forces a contradiction on a subinterval of length
    5 phi_subsegment + 2C; the +1 turns its non-strict bound strict.
    """
    return 5.0 * phi_subsegment(B, C) + 2.0 * C + 1.0


def phi_adjacent_projections(B: float, C: float) -> float:
    """For projections a, b of one point onto two contracting segments
    sharing an endpoint: one projection is this close to the other segment
    and its distance is within this of optimal (2 T1 + C with T1 the
    thin-triangle constant at the subsegment scale)."""
    t1 = phi_thin_triangle(phi_subsegment(B, C), C)
    return 2.0 * t1 + C


def phi_confinement(B: float, C: float) -> float:
    """Shortcut systems with piece length above this confine near-minimal
    admissible paths to the same-size neighborhood of the geodesic.

    Case analysis bound: 4 (phi_variation + C + phi_detour), evaluated at
    the subsegment scale B'; this dominates the case-2 neighborhood constant
    2 (phi_variation + phi_detour) + max(1, 2 B').
    """
    bp = phi_subsegment(B, C)
    case1 = 4.0 * (phi_variation(bp, C) + C + phi_detour(bp, C))
    case2 = 2.0 * (phi_variation(bp, C) + phi_detour(bp, C)) + max(1.0, 2.0 * bp)
    return max(case1, case2)


def phi_chain(B: float, C: float) -> float:
    """Chains of contracting segments with gaps above this produce a
    contracting, chain-shadowing geodesic at this scale.

    Follows the chain proof's structure: a neighborhood scale large enough
    for the dichotomy constant plus adjacent-projection slack, then the
    2 B' + C contraction bound with B' the stability constant at that
    scale.  Conservative but monotone.
    """
    n0 = phi_dichotomy(B, C) + phi_adjacent_projections(B, C) + C
    s = phi_stability(B, C, n0)
    return 2.0 * s + C + n0


@dataclass(frozen=True)
class ConstantLedger:
    """A base pair (C, B) with the downstream values B' (subsegments of B),
    D (confinement), S (stability at D), S' (subsegments of S), and T
    (dichotomy at S' plus D) fixed once per experiment.  ``table()`` lists
    every derived constant, each from its ``phi_*`` formula."""
    C: float
    B: float
    B_prime: float = field(init=False)
    D: float = field(init=False)
    S: float = field(init=False)
    S_prime: float = field(init=False)
    T: float = field(init=False)

    def __post_init__(self):
        checked_number(self.C, "ledger C")
        checked_number(self.B, "ledger B")
        object.__setattr__(self, "B_prime", phi_subsegment(self.B, self.C))
        object.__setattr__(self, "D", phi_confinement(self.B, self.C))
        object.__setattr__(self, "S", phi_stability(self.B, self.C, self.D))
        object.__setattr__(self, "S_prime", phi_subsegment(self.S, self.C))
        object.__setattr__(self, "T", phi_dichotomy(self.S_prime, self.C) + self.D)

    def table(self) -> dict:
        B, C = self.B, self.C
        return {
            "C": C, "B": B,
            "subsegment": self.B_prime,
            "thin_triangle": phi_thin_triangle(B, C),
            "near_collinearity": phi_near_collinearity(B, C),
            "projection_transfer_at_D": phi_projection_transfer(B, C, self.D),
            "stability_at_D": self.S,
            "variation": phi_variation(B, C),
            "detour": phi_detour(self.B_prime, C),
            "dichotomy": phi_dichotomy(B, C),
            "adjacent_projections": phi_adjacent_projections(B, C),
            "confinement": self.D,
            "chain": phi_chain(B, C),
            "B_prime": self.B_prime,
            "D": self.D, "S": self.S, "S_prime": self.S_prime, "T": self.T,
        }


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BallWitness:
    center: Any
    radius: float
    diameter: float
    samples: int


@dataclass(frozen=True)
class ContractionCertificate:
    segment: tuple          # (start, end) points
    B: float
    status: str             # CERTIFIED, EXACT or REFUTED
    max_diameter: float
    balls_checked: int
    witness: BallWitness | None = None

    @property
    def refuted(self) -> bool:
        return self.status == REFUTED

    def to_json(self, space) -> dict:
        out = {
            "segment": [space.point_to_json(self.segment[0]),
                        space.point_to_json(self.segment[1])],
            "B": self.B, "status": self.status,
            "max_diameter": self.max_diameter,
            "balls_checked": self.balls_checked,
        }
        if self.witness is not None:
            out["witness"] = {
                "kind": "contraction-refutation",
                "center": space.point_to_json(self.witness.center),
                "radius": self.witness.radius,
                "diameter": self.witness.diameter,
                "samples": self.witness.samples,
            }
        return out


@dataclass(frozen=True)
class CertBudget:
    """Deterministic ball family for certification runs.

    ``center_radius`` bounds how far ball centers stray from the segment;
    ``probe_heights`` adds centers pushed to specific distances from the
    segment midpoint (the Euclidean refutation needs its 2(h-1) witness);
    ``ball_samples`` is the per-ball sample target.  On the tree the budget
    binds only at B <= tol: above it the certificate is exact and checks no
    ball.
    """
    center_radius: float = 5.0
    center_count: int = 24
    ball_samples: int = 64
    probe_heights: tuple = ()


def projection_diameter_under_ball(space, seg, center, radius: float,
                                   samples: int = 64) -> float:
    """Observed diameter of the projection of a ball onto a segment.

    The ball must be disjoint from the segment.  The points are those of
    ``space.ball_points``: deterministic low-discrepancy samples plus the
    center, or on the tree every vertex (plus an edge-point center).  The
    value is a reproducible lower bound for the true diameter, measured as
    the arclength spread of the projection parameters: the one-ball step
    of ``_shadows``.
    """
    d_center = space.project(center, seg).distance
    if d_center <= radius:
        raise InputError(
            f"ball (radius {radius}) is not disjoint from the segment "
            f"(center distance {d_center})")
    if radius < 0:
        raise InputError("radius must be >= 0")
    if radius == 0:
        return 0.0
    return next(_shadows(space, seg, [(center, radius)], samples))


def _shadows(space, seg, balls, samples: int):
    """max − min of the ``space.projections`` parameters of
    ``space.ball_points`` on ``seg``, for each (center, radius) in
    ``balls``, in order, one ball per step."""
    for center, radius in balls:
        params = space.projections(space.ball_points(center, radius, samples), seg)[0]
        yield float(params.max() - params.min())


def _candidate_centers(space, seg, budget: CertBudget, B: float) -> tuple:
    """Deterministic center family, as (centers, distances to the segment):
    for each height (the ``probe_heights``, or ``center_radius``, plus a
    B-dependent height so that flat counterexamples surface), the points of
    ``space.ball_points`` about the segment midpoint that lie farthest from
    the segment."""
    heights = list(budget.probe_heights) or [budget.center_radius]
    if math.isfinite(B):
        heights.append(B / 2.0 + 2.0)
    mid = seg.point_at(seg.length / 2.0)
    per = max(4, budget.center_count // max(1, len(heights)))
    centers = []
    for h in heights:
        scored = [(p, space.project(p, seg).distance)
                  for p in space.ball_points(mid, h, per * 4)]
        centers.extend(sorted(scored, key=lambda pd: -pd[1])[:per])
    return [p for p, _ in centers], np.array([d for _, d in centers])


def _ball_family(dists: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(center index, radius) of every certification ball, as two arrays:
    center by center, radius d − ``MIN_GAP`` for a center at distance
    d > ``MIN_GAP`` and then d / 2 when d > 2 ``MIN_GAP``.  The widest
    disjoint ball comes first: it has the widest shadow, and the stored
    witness then matches the gap-1 closed form."""
    near = np.flatnonzero(dists > MIN_GAP)
    owner = np.repeat(near, 1 + (dists[near] > 2.0 * MIN_GAP))
    halved = np.zeros(len(owner), dtype=bool)
    halved[1:] = owner[1:] == owner[:-1]
    d = dists[owner]
    return owner, np.where(halved, d / 2.0, d - MIN_GAP)


def certify_contracting(space, seg, B: float, budget: CertBudget | None = None
                        ) -> ContractionCertificate:
    """Certificate of contraction at scale B.

    On the tree at B > tol the certificate is exact (status ``EXACT``,
    ``max_diameter`` 0.0, no ball checked).  Otherwise this is a budgeted
    search: it refutes with a replayable witness if some ball of the family
    projects with diameter >= B - tol, and otherwise certifies at budget,
    recording the maximal observed diameter.  A budgeted certificate is
    evidence, not proof: the statement quantifies over all balls and the
    budget checks finitely many.
    """
    if B <= 0:
        raise InputError("B must be > 0")
    # disjoint balls project to one point on a tree (Bridson-Haefliger II.2.4)
    if space.kind == "tree" and B > space.tol:
        return ContractionCertificate((seg.start, seg.end), B, EXACT, 0.0, 0)
    budget = budget or CertBudget()
    centers, dists = _candidate_centers(space, seg, budget, B)
    owner, radii = _ball_family(dists)
    balls = [(centers[i], r) for i, r in zip(owner.tolist(), radii.tolist())]
    max_diam = 0.0
    shadows = _shadows(space, seg, balls, budget.ball_samples)
    for checked, ((center, radius), diam) in enumerate(zip(balls, shadows), 1):
        max_diam = max(max_diam, diam)
        if diam >= B - space.tol:
            witness = BallWitness(center, radius, diam, budget.ball_samples)
            return ContractionCertificate(
                (seg.start, seg.end), B, REFUTED, max_diam, checked, witness)
    return ContractionCertificate((seg.start, seg.end), B, CERTIFIED,
                                  max_diam, len(balls), None)


# ---------------------------------------------------------------------------
# Lemma checkers
# ---------------------------------------------------------------------------

HOLDS = "holds"
VIOLATED = "violated"
SKIPPED = "skipped"


@dataclass(frozen=True)
class LemmaOutcome:
    lemma: str
    status: str             # HOLDS / VIOLATED / SKIPPED
    value: float | None = None
    bound: float | None = None
    reason: str | None = None
    witness: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status != VIOLATED


def _projection_hits(space, b, seg, c, C: float) -> bool:
    """Hypothesis 'b is a projection of c onto the segment', relaxed by the
    representative slack C: our single-valued projection must land within C
    of b."""
    p = space.project(c, seg)
    return space.distance(p.point, b) <= C + space.tol


def check_thin_triangle(space, a, b, c, ledger: ConstantLedger,
                        tolerance: float | None = None) -> LemmaOutcome:
    """d(b, [a, c]) stays below the thin-triangle constant whenever [a, b]
    is contracting at the ledger scale and b is (up to the C slack) the
    projection of c onto [a, b]."""
    eps = space.tol if tolerance is None else tolerance
    seg_ab = space.geodesic(a, b)
    if not _projection_hits(space, b, seg_ab, c, ledger.C):
        return LemmaOutcome("thin_triangle", SKIPPED, reason="projection hypothesis")
    # C slack for the representative
    bound = phi_thin_triangle(ledger.B, ledger.C) + ledger.C
    value = space.project(b, space.geodesic(a, c)).distance
    status = HOLDS if value < bound + eps else VIOLATED
    return LemmaOutcome("thin_triangle", status, value, bound,
                        witness=_triple_witness(space, a, b, c) if status == VIOLATED else None)


def check_reverse_triangle(space, a, b, c, ledger: ConstantLedger,
                           tolerance: float | None = None) -> LemmaOutcome:
    """Both inequalities |a-b| + |b-c| >= |a-c| >= |a-b| + |b-c| - defect
    under the thin-triangle hypotheses."""
    eps = space.tol if tolerance is None else tolerance
    seg_ab = space.geodesic(a, b)
    if not _projection_hits(space, b, seg_ab, c, ledger.C):
        return LemmaOutcome("near_collinearity", SKIPPED, reason="projection hypothesis")
    ab = space.distance(a, b)
    bc = space.distance(b, c)
    ac = space.distance(a, c)
    defect = phi_near_collinearity(ledger.B, ledger.C) + ledger.C
    upper_ok = ac <= ab + bc + eps
    lower_ok = ac >= ab + bc - defect - eps
    status = HOLDS if (upper_ok and lower_ok) else VIOLATED
    return LemmaOutcome("near_collinearity", status, ab + bc - ac, defect,
                        witness=_triple_witness(space, a, b, c) if status == VIOLATED else None)


def check_dichotomy(space, seg_uv, x, y, ledger: ConstantLedger,
                    tolerance: float | None = None) -> LemmaOutcome:
    """Either the contracting segment [u, v] is short, or [x, y] passes
    close to it, provided x and y project (up to slack) to the respective
    ends u and v."""
    eps = space.tol if tolerance is None else tolerance
    u, v = seg_uv.start, seg_uv.end
    if not _projection_hits(space, u, seg_uv, x, ledger.C):
        return LemmaOutcome("dichotomy", SKIPPED, reason="x projection hypothesis")
    if not _projection_hits(space, v, seg_uv, y, ledger.C):
        return LemmaOutcome("dichotomy", SKIPPED, reason="y projection hypothesis")
    bound = phi_dichotomy(ledger.B, ledger.C) + 2.0 * ledger.C
    uv = space.distance(u, v)
    if uv < bound + eps:
        return LemmaOutcome("dichotomy", HOLDS, uv, bound)
    gap = space.segment_distance(space.geodesic(x, y), seg_uv)
    status = HOLDS if gap < bound + eps else VIOLATED
    return LemmaOutcome("dichotomy", status, gap, bound,
                        witness={"u": space.point_to_json(u), "v": space.point_to_json(v),
                                 "x": space.point_to_json(x), "y": space.point_to_json(y)}
                        if status == VIOLATED else None)


def check_variation(space, seg_ab, seg_pq, ledger: ConstantLedger,
                    tolerance: float | None = None) -> LemmaOutcome:
    """Distance to [p, q] grows along a contracting [a, b] at rate
    1 - B/d up to the variation constant, when the distance is minimized at
    the start with value d >= 1 (hypothesis verified by sampling)."""
    eps = space.tol if tolerance is None else tolerance
    d_at = lambda pt: space.project(pt, seg_pq).distance
    d0 = d_at(seg_ab.start)
    if d0 < 1.0:
        return LemmaOutcome("variation", SKIPPED, reason="minimal distance below 1")
    for s in _arclength_samples(seg_ab.length, SAMPLE_STEP):
        if d_at(seg_ab.point_at(s)) < d0 - eps:
            return LemmaOutcome("variation", SKIPPED,
                                reason="distance not minimized at the start")
    value = d_at(seg_ab.end) - d0
    bound = (1.0 - ledger.B / d0) * seg_ab.length - phi_variation(ledger.B, ledger.C)
    status = HOLDS if value >= bound - eps else VIOLATED
    return LemmaOutcome("variation", status, value, bound,
                        witness={"a": space.point_to_json(seg_ab.start),
                                 "b": space.point_to_json(seg_ab.end),
                                 "p": space.point_to_json(seg_pq.start),
                                 "q": space.point_to_json(seg_pq.end)}
                        if status == VIOLATED else None)


def check_stability(space, seg_ab, a2, b2, D: float, ledger: ConstantLedger,
                    budget: CertBudget | None = None) -> ContractionCertificate:
    """Perturbing the endpoints of a contracting segment by at most D must
    not let the budget refute contraction at the stability scale."""
    da = space.distance(seg_ab.start, a2)
    db = space.distance(seg_ab.end, b2)
    if max(da, db) > D + space.tol:
        raise InputError(f"endpoint displacement {max(da, db)} exceeds D={D}")
    target = phi_stability(ledger.B, ledger.C, D)
    return certify_contracting(space, space.geodesic(a2, b2), target, budget)


def _triple_witness(space, a, b, c) -> dict:
    return {"a": space.point_to_json(a), "b": space.point_to_json(b),
            "c": space.point_to_json(c)}
