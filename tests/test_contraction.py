import math
import random

import pytest

from catqm import words as W
from catqm.contraction import (
    CERTIFIED,
    EXACT,
    REFUTED,
    CertBudget,
    _candidate_centers,
    ConstantLedger,
    ContractionCertificate,
    certify_contracting,
    check_dichotomy,
    check_reverse_triangle,
    check_stability,
    check_thin_triangle,
    check_variation,
    phi_adjacent_projections,
    phi_chain,
    phi_confinement,
    phi_detour,
    phi_dichotomy,
    phi_near_collinearity,
    phi_projection_transfer,
    phi_stability,
    phi_subsegment,
    phi_thin_triangle,
    phi_variation,
    projection_diameter_under_ball,
)
from catqm.errors import BudgetError, InputError
from catqm.samplers import (
    halfplane_thin_configs,
    halfplane_variation_configs,
)
from catqm.spaces import EuclideanSpace, HalfPlaneSpace, TreeSpace, tree_point, vertex

from oracles import (
    certify_contracting_per_ball,
    contraction_scale,
    tree_dichotomy_configs,
    tree_triples_exhaustive,
    tree_variation_configs,
)

TREE = TreeSpace(2)
TREE3 = TreeSpace(3)
HP = HalfPlaneSpace()
EU = EuclideanSpace(2)

LEDGER = ConstantLedger(1.0, 1.0)


# ---------------------------------------------------------------------------
# ledger
# ---------------------------------------------------------------------------

def test_ledger_pinned_values():
    assert phi_subsegment(1.0, 1.0) == 8.0
    assert phi_thin_triangle(1.0, 1.0) == 5.0
    assert phi_projection_transfer(1.0, 1.0, 2.0) == 9.0


def test_ledger_structure():
    led = ConstantLedger(1.0, 1.0)
    assert led.B_prime == led.B + 4 * led.C + 3
    assert led.T == pytest.approx(
        5 * phi_subsegment(led.S_prime, led.C) + 2 * led.C + 1 + led.D)
    table = led.table()
    assert table["thin_triangle"] == 5.0
    assert table["D"] == led.D and table["S"] == led.S


def test_ledger_table_entries_come_from_their_formulas():
    for C, B in [(1.0, 1.0), (0.5, 2.0), (2.0, 4.0)]:
        led = ConstantLedger(C, B)
        assert led.table() == {
            "C": C, "B": B,
            "subsegment": phi_subsegment(B, C),
            "thin_triangle": phi_thin_triangle(B, C),
            "near_collinearity": phi_near_collinearity(B, C),
            "projection_transfer_at_D": phi_projection_transfer(B, C, led.D),
            "stability_at_D": phi_stability(B, C, led.D),
            "variation": phi_variation(B, C),
            "detour": phi_detour(phi_subsegment(B, C), C),
            "dichotomy": phi_dichotomy(B, C),
            "adjacent_projections": phi_adjacent_projections(B, C),
            "confinement": phi_confinement(B, C),
            "chain": phi_chain(B, C),
            "B_prime": phi_subsegment(B, C),
            "D": phi_confinement(B, C),
            "S": phi_stability(B, C, led.D),
            "S_prime": phi_subsegment(led.S, C),
            "T": phi_dichotomy(led.S_prime, C) + led.D,
        }


def test_ledger_monotone_in_each_argument():
    grid = [0.5, 1.0, 2.0, 4.0]
    names = ["subsegment", "thin_triangle", "near_collinearity", "variation",
             "dichotomy", "adjacent_projections", "confinement", "chain"]
    for name in names:
        for c1 in grid:
            for b1 in grid:
                v0 = ConstantLedger(c1, b1).table()[name]
                for c2 in grid:
                    for b2 in grid:
                        if c2 >= c1 and b2 >= b1:
                            assert ConstantLedger(c2, b2).table()[name] >= v0 - 1e-12
    # the D-argument entries are monotone in D as well
    for D1, D2 in [(1.0, 2.0), (2.0, 5.0)]:
        assert phi_projection_transfer(1.0, 1.0, D2) >= phi_projection_transfer(1.0, 1.0, D1)
        assert phi_stability(1.0, 1.0, D2) >= phi_stability(1.0, 1.0, D1)


def test_ledger_rejects_nonpositive():
    with pytest.raises(InputError):
        ConstantLedger(0.0, 1.0)
    with pytest.raises(InputError):
        ConstantLedger(1.0, -2.0)


@pytest.mark.parametrize("C,B", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                 (1.0, math.inf)], ids=["C-nan", "B-nan", "C-inf", "B-inf"])
def test_ledger_rejects_nan_and_infinite(C, B):
    # C <= 0 and B <= 0 are both False at NaN, so the ledger once took it
    with pytest.raises(InputError):
        ConstantLedger(C, B)


@pytest.mark.parametrize("bad", [0, 0.0, math.nan, True], ids=["int-0", "0", "nan", "bool"])
@pytest.mark.parametrize("which", ["C", "B"])
def test_ledger_checks_both_constants_before_deriving(which, bad):
    # the ledger derives B', D, S, S' and T from C and B as it is built
    with pytest.raises(InputError, match=f"ledger {which} must be"):
        ConstantLedger(**{"C": 1.0, "B": 1.0, which: bad})
    assert ConstantLedger(C=1.0, B=2.0).D == ConstantLedger(1.0, 2.0).table()["confinement"]


# ---------------------------------------------------------------------------
# projection diameters and certificates
# ---------------------------------------------------------------------------

def test_euclidean_ball_shadow_closed_form():
    seg = EU.geodesic((-200.0, 0.0), (200.0, 0.0))
    for h in (3.0, 7.0, 20.0):
        diam = projection_diameter_under_ball(EU, seg, (0.0, h), h - 1.0, 64)
        assert diam == pytest.approx(2 * (h - 1.0), rel=1e-6)


def test_tree_balls_project_to_points():
    seg = TREE.geodesic(vertex(""), vertex("aab"))
    for center_word in ("bb", "bab", "Ab", "bbbb"):
        center = vertex(center_word)
        d = TREE.project(center, seg).distance
        for radius in range(1, int(d)):
            diam = projection_diameter_under_ball(TREE, seg, center, radius)
            assert diam == 0.0


def _random_tree_point(rng, max_len, edge, rank=2):
    letters = tuple(x for k in range(1, rank + 1) for x in (k, -k))
    n, w = rng.randint(0, max_len), []
    while len(w) < n:
        x = rng.choice(letters)
        if not w or x != -w[-1]:
            w.append(x)
    if not edge:
        return tree_point(tuple(w))
    x = rng.choice([y for y in letters if not w or y != -w[-1]])
    return tree_point(tuple(w), x, rng.choice([0.5, 0.25, 1.0 / 3.0, rng.random()]))


def test_tree_balls_missing_a_segment_project_to_the_foot_of_the_center():
    # the certificate's theorem: if a ball misses a convex subtree, two of
    # its points with different projections would be at least the center's
    # distance apart, so the whole ball projects onto the foot of the center
    rng = random.Random(20260)
    for space, center_len in ((TREE, 5), (TREE3, 3)):
        cases = 0
        while cases < 400:
            edges = [rng.random() < 0.5 for _ in range(3)]
            seg = space.geodesic(_random_tree_point(rng, 4, edges[0], space.rank),
                                 _random_tree_point(rng, 4, edges[1], space.rank))
            center = _random_tree_point(rng, center_len, edges[2], space.rank)
            foot = space.project(center, seg)
            for radius in (foot.distance - 1.0, foot.distance / 2.0,
                           0.999 * foot.distance):
                ball = [p for p in space.ball_points(center, radius) if p.is_vertex]
                if radius <= 0.0 or not ball:
                    continue
                params = [space.project(p, seg).parameter for p in ball]
                if any(edges):
                    # edge-point offsets round (by up to 8.9e-16 here)
                    assert max(abs(t - foot.parameter) for t in params) <= 1e-12
                else:
                    assert params == [foot.parameter] * len(ball)
                cases += 1


def test_tree_shadow_keeps_the_ball_radius_cap():
    seg = TREE.geodesic(vertex(""), vertex("a"))
    center = vertex("b" * (W.BALL_RADIUS_CAP + 3))
    with pytest.raises(BudgetError):
        projection_diameter_under_ball(TREE, seg, center, W.BALL_RADIUS_CAP + 1)


def test_zero_radius_ball():
    seg = EU.geodesic((0.0, 0.0), (4.0, 0.0))
    assert projection_diameter_under_ball(EU, seg, (2.0, 3.0), 0.0) == 0.0


def test_disjointness_required():
    seg = EU.geodesic((0.0, 0.0), (4.0, 0.0))
    with pytest.raises(InputError):
        projection_diameter_under_ball(EU, seg, (2.0, 1.0), 2.0)


def test_tree_segment_certified():
    cert = certify_contracting(TREE, TREE.geodesic(vertex(""), vertex("aab")),
                               1.0, CertBudget(center_radius=5))
    assert cert.status == EXACT
    assert cert.max_diameter == 0.0
    assert cert.balls_checked == 0


def test_euclidean_segment_refuted_with_replayable_witness():
    seg = EU.geodesic((-200.0, 0.0), (200.0, 0.0))
    cert = certify_contracting(EU, seg, 10.0, CertBudget(center_radius=4))
    assert cert.status == REFUTED
    w = cert.witness
    assert w.diameter >= 10.0
    again = projection_diameter_under_ball(EU, seg, w.center, w.radius, w.samples)
    assert again == pytest.approx(w.diameter, rel=1e-9)
    d_center = EU.project(w.center, seg).distance
    assert w.diameter == pytest.approx(2 * (d_center - 1.0), rel=0.05)


def _ball_count(space, seg, budget, B):
    """Balls in a certificate's family: radius d - 1 for each center at
    distance d > 1, and radius d / 2 as well when d > 2."""
    centers, _ = _candidate_centers(space, seg, budget, B)
    ds = [space.project(c, seg).distance for c in centers]
    return sum((d > 1.0) + (d > 2.0) for d in ds)


# (space, segment, center_radius): a rank-3 tree, a fractional center
# radius, words past code_capacity(2) = 27 letters, and edge-point ends
TREE_CERT_CASES = {
    "rank-3": (TREE3, TREE3.geodesic(vertex("C"), vertex("acBa")), 3.0),
    "radius-2.5": (TREE, TREE.geodesic(vertex("b"), vertex("aab")), 2.5),
    "long-words": (TREE, TREE.geodesic(vertex("A"), vertex("ab" * 15)), 4.0),
    "edge-ends": (TREE, TREE.geodesic(tree_point(W.from_string("ab"), 1, 0.25),
                                      tree_point(W.from_string("B"), -1, 0.6)), 2.5),
}


@pytest.mark.parametrize("case", sorted(TREE_CERT_CASES))
def test_tree_certificates_at_the_tolerance_edge(case):
    space, seg, radius = TREE_CERT_CASES[case]
    budget = CertBudget(center_radius=radius)
    # B = tol + 1e-16 on "edge-ends" was refuted by a 2.2e-16 rounding
    # shadow of a diameter that is exactly 0; it is exact now
    for B in (1e-9, space.tol + 1e-16, 0.5, 1.0, 3.0):
        cert = certify_contracting(space, seg, B, budget)
        if B > space.tol:
            assert cert == ContractionCertificate((seg.start, seg.end), B, EXACT, 0.0, 0)
            continue
        # at B <= tol the first ball of the family refutes, and replays
        assert cert.refuted and cert.balls_checked == 1 and cert.max_diameter == 0.0
        w = cert.witness
        assert projection_diameter_under_ball(
            space, seg, w.center, w.radius, w.samples) == w.diameter == 0.0


def test_off_tree_certificates_stop_at_the_refuting_ball(monkeypatch):
    seg = EU.geodesic((-200.0, 0.0), (200.0, 0.0))
    budget = CertBudget(center_radius=4)
    cert = certify_contracting(EU, seg, 10.0, budget)
    assert cert == certify_contracting_per_ball(EU, seg, 10.0, budget)
    # one projections pass per checked ball: the candidate centers are
    # projected one at a time, through ``project``
    seen = []
    projections = EU.projections
    monkeypatch.setattr(EU, "projections",
                        lambda *args: seen.append(args) or projections(*args))
    assert certify_contracting(EU, seg, 10.0, budget) == cert
    assert len(seen) == cert.balls_checked < _ball_count(EU, seg, budget, 10.0)
    hp_seg = HP.geodesic(1j, 1j * math.exp(4.0))
    assert (certify_contracting(HP, hp_seg, 5.0, budget)
            == certify_contracting_per_ball(HP, hp_seg, 5.0, budget))


def test_halfplane_axis_contracting_at_small_scale():
    seg = HP.geodesic(1j, 1j * math.exp(4.0))   # length-4 piece of the axis
    scale = contraction_scale(HP, seg, CertBudget(center_radius=6, center_count=32))
    assert scale <= 5.0
    cert = certify_contracting(HP, seg, 5.0, CertBudget(center_radius=6))
    assert cert.status == CERTIFIED


# ---------------------------------------------------------------------------
# lemma checkers, tree exhaustive
# ---------------------------------------------------------------------------

def test_thin_triangle_tree_exhaustive_radius4():
    violated = skipped = held = 0
    for a, b, c in tree_triples_exhaustive(TREE, 4):
        out = check_thin_triangle(TREE, a, b, c, LEDGER)
        if out.status == "violated":
            violated += 1
        elif out.status == "skipped":
            skipped += 1
        else:
            held += 1
    assert violated == 0
    assert held > 1000


def test_thin_triangle_example():
    out = check_thin_triangle(TREE, vertex(""), vertex("aa"), vertex("aab"), LEDGER)
    assert out.status == "holds"
    assert out.value == 0.0


def test_thin_triangle_degenerate():
    p = vertex("ab")
    out = check_thin_triangle(TREE, p, p, p, LEDGER)
    assert out.status == "holds" and out.value == 0.0


def test_reverse_triangle_collinear_equality():
    out = check_reverse_triangle(TREE, vertex(""), vertex("aa"), vertex("aaaa"), LEDGER)
    assert out.status == "holds"


def test_reverse_triangle_tree_exhaustive():
    assert all(check_reverse_triangle(TREE, a, b, c, LEDGER).ok
               for a, b, c in tree_triples_exhaustive(TREE, 4))


def test_dichotomy_tree():
    results = [check_dichotomy(TREE, seg, x, y, LEDGER)
               for seg, x, y in tree_dichotomy_configs(TREE, 3)]
    assert all(r.ok for r in results)
    assert any(r.status == "holds" for r in results)


def test_variation_tree():
    held = 0
    for seg_ab, seg_pq in tree_variation_configs(TREE, 3):
        out = check_variation(TREE, seg_ab, seg_pq, LEDGER)
        assert out.ok
        held += out.status == "holds"
    assert held > 50


def test_variation_example_a5():
    seg_ab = TREE.geodesic(vertex(""), vertex("aaaaa"))
    seg_pq = TREE.geodesic(vertex("b"), vertex("bb"))
    out = check_variation(TREE, seg_ab, seg_pq, LEDGER)
    assert out.status == "holds"
    assert out.value == pytest.approx(5.0)   # distance grows by the full length


def test_variation_degenerate_segment():
    seg_ab = TREE.geodesic(vertex("a"), vertex("a"))
    seg_pq = TREE.geodesic(vertex("bb"), vertex("bbb"))
    out = check_variation(TREE, seg_ab, seg_pq, LEDGER)
    assert out.ok   # 0 >= -variation constant


def test_stability_tree_perturbations():
    base = TREE.geodesic(vertex(""), vertex("aaaaa"))
    budget = CertBudget(center_radius=4)
    for a2, b2 in ((vertex("b"), vertex("aaaa")), (vertex(""), vertex("aaaaa")),
                   (vertex("B"), vertex("aaaaaa"))):
        cert = check_stability(TREE, base, a2, b2, D=1.0, ledger=LEDGER, budget=budget)
        assert not cert.refuted


def test_stability_rejects_large_displacement():
    base = TREE.geodesic(vertex(""), vertex("aaaaa"))
    with pytest.raises(InputError):
        check_stability(TREE, base, vertex("bbb"), vertex("aaaaa"), D=1.0,
                        ledger=LEDGER)


# ---------------------------------------------------------------------------
# lemma checkers, half-plane seeded
# ---------------------------------------------------------------------------

def test_halfplane_thin_and_reverse_seeded():
    budget = CertBudget(center_radius=4, center_count=12, ball_samples=32)
    checked = 0
    for a, b, c in halfplane_thin_configs(HP, 5, 120):
        seg = HP.geodesic(a, b)
        scale = contraction_scale(HP, seg, budget)
        led = ConstantLedger(1.0, max(1.0, scale))
        out1 = check_thin_triangle(HP, a, b, c, led, tolerance=1e-6)
        out2 = check_reverse_triangle(HP, a, b, c, led, tolerance=1e-6)
        assert out1.ok and out2.ok
        checked += out1.status == "holds"
    assert checked > 60


def test_halfplane_variation_seeded():
    budget = CertBudget(center_radius=4, center_count=12, ball_samples=32)
    held = 0
    for seg_ab, seg_pq in halfplane_variation_configs(HP, 5, 60):
        scale = contraction_scale(HP, seg_ab, budget)
        led = ConstantLedger(1.0, max(1.0, scale))
        out = check_variation(HP, seg_ab, seg_pq, led, tolerance=1e-6)
        assert out.ok
        held += out.status == "holds"
    assert held > 30


def test_diameter_monotone_in_samples():
    seg = EU.geodesic((-50.0, 0.0), (50.0, 0.0))
    prev = 0.0
    for n in (8, 16, 32, 64, 128):
        diam = projection_diameter_under_ball(EU, seg, (0.0, 5.0), 4.0, n)
        assert diam >= prev - 1e-12
        prev = diam
