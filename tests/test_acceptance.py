"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Expected values marked as regression constants were produced by the
independent oracles in oracles.py (exhaustive regional shortest paths,
brute-force scans) and frozen here; the tests recompute them through the
package and, where stated, re-validate against the oracle directly.
"""

import math
import time

import numpy as np
import pytest

from catqm import words as W
from catqm.actions import GroupModel, act
from catqm.algebra import (
    check_sigma_invariance,
    extension_defect,
    homogeneous_brooks_qm,
    orbit_average,
    swap_extension,
    transfer_extend,
)
from catqm.contraction import (
    CertBudget,
    ConstantLedger,
    check_dichotomy,
    check_reverse_triangle,
    check_stability,
    check_thin_triangle,
    check_variation,
    projection_diameter_under_ball,
)
from catqm.expressway import (
    ExpresswaySystem,
    check_witness_confinement,
    defect_estimate,
    independence_matrix,
    modified_length,
    tree_phi_exact,
)
from catqm.rank_one import half_flat_control, schottky_exponent
from catqm.runner import canonical_body, load_config, run
from catqm.samplers import (
    halfplane_thin_configs,
    halfplane_variation_configs,
    random_words,
)
from catqm.spaces import (
    EuclideanSpace,
    HalfPlaneSpace,
    ProductSpace,
    TreeSpace,
    vertex,
)
from catqm.wpd import wpd_count

from oracles import (
    tree_dichotomy_configs,
    tree_phi_oracle,
    tree_triples_exhaustive,
    tree_variation_configs,
)

TREE = TreeSpace(2)
FREE = GroupModel.free(2)
LEDGER = ConstantLedger(1.0, 1.0)
SIGMA = W.from_string("aab")

# frozen after the exhaustive oracle run over all pairs |g|, |g'| <= 5:
# the maximal defect of the shortcut potential for sigma = [e, aab]
REGRESSION_DEFECT_RADIUS5 = 1.0

# frozen exhaustive defect of the transferred averaged counting
# quasimorphism over extension pairs at radii 4 and 6
REGRESSION_TRANSFER_DEFECT = 2.0


def announce(number: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def tree_system(**kw) -> ExpresswaySystem:
    kw.setdefault("ledger", LEDGER)
    return ExpresswaySystem(TREE, FREE, "aab", **kw)


# -- criterion 1: exact potential values against the oracle -----------------

def test_criterion_1_tree_phi_exactness():
    started = time.monotonic()
    sys_t = tree_system()
    x0 = sys_t.basepoint
    witnesses = []
    for n in range(1, 7):
        g = W.power(SIGMA, n)
        gx0 = act(TREE, FREE.from_word(g), x0)
        fwd = modified_length(sys_t, x0, gx0)
        bwd = modified_length(sys_t, gx0, x0)
        phi = bwd.value - fwd.value
        oracle = tree_phi_oracle(SIGMA, g)
        assert phi == float(n), (n, phi)          # tolerance 0
        assert oracle == float(n), (n, oracle)
        witnesses.append((n, fwd, bwd, x0, gx0))
    elapsed = time.monotonic() - started
    test_criterion_1_tree_phi_exactness.witnesses = witnesses
    announce(1, elapsed < 10.0,
             f"phi((aab)^n) = n for n = 1..6, graph = oracle, {elapsed:.2f}s")


# -- criterion 2: defect boundedness and the frozen regression value --------

def test_criterion_2_defect_regression():
    started = time.monotonic()
    sys_t = tree_system()

    # the exact evaluator is first re-validated against both independent
    # routes on the full radius-3 ball
    for g in W.ball(2, 3):
        exact = tree_phi_exact(sys_t, g)
        assert exact == tree_phi_oracle(SIGMA, g)

    ws5 = W.ball(2, 5)
    report = defect_estimate(sys_t, W.pack(ws5), W.pack(ws5))
    assert report.pairs_checked == len(ws5) ** 2
    assert report.value == REGRESSION_DEFECT_RADIUS5

    # radius-7 sweep through the same counting formula over the 19 million
    # pairs, in packed chunks of their products: phi counts the windows aab
    # less the windows BAA, and neither pattern overlaps itself, so a window
    # count is str.count's
    pattern, anti = W.from_string("aab"), W.from_string("BAA")

    def phi_rows(letters):
        width = letters.shape[1]
        padded = np.pad(letters, ((0, 0), (0, 2)))
        return [np.logical_and.reduce([padded[:, o:o + width] == x
                                       for o, x in enumerate(p)]).sum(axis=1)
                for p in (pattern, anti)]

    letters, lens = W.packed_ball(2, 7)
    n = len(lens)
    vals = np.subtract(*phi_rows(letters))
    worst = 0
    for lo in range(0, n, 16):
        left = letters[lo:lo + 16], lens[lo:lo + 16]
        k = len(left[1])
        products, _ = W.packed_products(
            (np.repeat(left[0], n, axis=0), np.repeat(left[1], n)),
            (np.tile(letters, (k, 1)), np.tile(lens, k)))
        d = np.abs(np.subtract(*phi_rows(products)).reshape(k, n)
                   - vals[lo:lo + k, None] - vals[None, :])
        worst = max(worst, int(d.max()))
    elapsed = time.monotonic() - started
    ok = (worst <= REGRESSION_DEFECT_RADIUS5 + 1.0) and elapsed < 300.0
    announce(2, ok, f"defect(5) = {report.value} frozen, defect(7) = {worst}, "
                    f"{elapsed:.1f}s")


# -- criterion 3: lemma suites, tree exhaustive and seeded half-plane -------

def test_criterion_3_lemma_suites():
    bad = []

    def feed(name, outcome):
        if outcome.status == "violated":
            bad.append((name, outcome.value, outcome.bound))

    held = 0
    for a, b, c in tree_triples_exhaustive(TREE, 5):
        out = check_thin_triangle(TREE, a, b, c, LEDGER, tolerance=0.0)
        feed("tree-thin", out)
        out2 = check_reverse_triangle(TREE, a, b, c, LEDGER, tolerance=0.0)
        feed("tree-collinearity", out2)
        held += out.status == "holds"
    assert held > 5000   # most triples skip the projection hypothesis
    for seg, x, y in tree_dichotomy_configs(TREE, 4):
        feed("tree-dichotomy", check_dichotomy(TREE, seg, x, y, LEDGER, tolerance=0.0))
    for seg_ab, seg_pq in tree_variation_configs(TREE, 3):
        feed("tree-variation", check_variation(TREE, seg_ab, seg_pq, LEDGER,
                                               tolerance=0.0))
    base = TREE.geodesic(vertex(""), vertex("aaaaa"))
    for a2w in ("b", "", "B"):
        for b2w in ("aaaa", "aaaaa", "aaaaaa"):
            cert = check_stability(TREE, base, vertex(a2w), vertex(b2w),
                                   D=1.0, ledger=LEDGER,
                                   budget=CertBudget(center_radius=3))
            if cert.refuted:
                bad.append(("tree-stability", None, None))

    # seeded half-plane families at the uniform hyperbolic contraction
    # scale (any disjoint ball shadows under 2)
    HP = HalfPlaneSpace()
    led_hp = ConstantLedger(1.0, 2.0)
    count = 0
    for a, b, c in halfplane_thin_configs(HP, 2024, 500):
        feed("hp-thin", check_thin_triangle(HP, a, b, c, led_hp, tolerance=1e-6))
        feed("hp-collinearity",
             check_reverse_triangle(HP, a, b, c, led_hp, tolerance=1e-6))
        count += 2
    for seg_ab, seg_pq in halfplane_variation_configs(HP, 2024, 250):
        feed("hp-variation", check_variation(HP, seg_ab, seg_pq, led_hp,
                                             tolerance=1e-6))
        count += 1
    hp_budget = CertBudget(center_radius=3, center_count=8, ball_samples=32)
    for a, b, c in halfplane_thin_configs(HP, 4077, 250):
        cert = check_stability(HP, HP.geodesic(a, b), a, c, D=HP.distance(b, c),
                               ledger=led_hp, budget=hp_budget) \
            if HP.distance(b, c) <= 2.0 else None
        if cert is not None and cert.refuted:
            bad.append(("hp-stability", None, None))
        count += 1
    assert count >= 1000
    announce(3, not bad, f"0 violations across tree-exhaustive and {count} "
                         f"seeded half-plane configurations"
             if not bad else f"violations: {bad[:3]}")


# -- criterion 4: witness confinement ----------------------------------------

def test_criterion_4_witness_confinement():
    witnesses = getattr(test_criterion_1_tree_phi_exactness, "witnesses", None)
    if witnesses is None:
        test_criterion_1_tree_phi_exactness()
        witnesses = test_criterion_1_tree_phi_exactness.witnesses
    sys_t = tree_system()
    worst = 0.0
    for n, fwd, bwd, x0, gx0 in witnesses:
        for res, a, b in ((fwd, x0, gx0), (bwd, gx0, x0)):
            ok, dev = check_witness_confinement(sys_t, res, a, b)
            worst = max(worst, dev)
            assert ok
    announce(4, worst <= LEDGER.D,
             f"all witness paths within {worst:.2f} <= {LEDGER.D} of the geodesic")


# -- criterion 5: homogenization error bound ---------------------------------

def test_criterion_5_homogenization():
    sys_t = tree_system()
    defect = REGRESSION_DEFECT_RADIUS5
    worst_margin = -math.inf
    for g in random_words(2, 99, 20, 5):
        big = tree_phi_exact(sys_t, W.power(g, 192)) / 192
        bigger = tree_phi_exact(sys_t, W.power(g, 384)) / 384
        assert abs(big - bigger) < 1e-12   # stabilized homogeneous value
        for n in range(1, 33):
            gap = abs(tree_phi_exact(sys_t, W.power(g, n)) / n - big)
            worst_margin = max(worst_margin, gap - defect / n)
            assert gap <= defect / n + 1e-12, (W.to_string(g), n)
    announce(5, True, f"|phi(g^n)/n - hom(g)| <= {defect}/n on 20 seeded g, "
                      f"worst slack {worst_margin:.3f}")


# -- criterion 6: linear independence ----------------------------------------

def test_criterion_6_independence_rank():
    base_words = ["aab", "abb", "aabb"]
    systems = [ExpresswaySystem(TREE, FREE, w, ledger=LEDGER)
               for w in base_words]
    testers = [W.power(W.from_string(w), 2) for w in base_words]
    matrix, rank = independence_matrix(systems, testers, n_max=8,
                                       pivot_tol=1e-6)
    announce(6, rank == 3, f"homogenized matrix rank {rank} over {base_words}")


# -- criterion 7: ping-pong exponents -----------------------------------------

def test_criterion_7_schottky():
    tree_res = schottky_exponent(TREE, FREE, "aab", "bba", E=1.0,
                                 word_len_max=4, x0=vertex(""), n_cap=8)
    assert tree_res.N % 2 == 0 and tree_res.N <= 8
    for wstr, (length, disp) in tree_res.displacements.items():
        assert disp >= length * 1.0   # exact integer distances

    HP = HalfPlaneSpace()
    group = GroupModel.matrix([[[2.0, 0.0], [0.0, 0.5]],
                               [[1.25, -0.75], [-0.75, 1.25]]])
    hp_res = schottky_exponent(HP, group, "a", "b", E=1.0, word_len_max=4,
                               x0=1j, n_cap=16)
    for wstr, (length, disp) in hp_res.displacements.items():
        assert disp >= length * 1.0 - 1e-6
    announce(7, True, f"tree N = {tree_res.N}, half-plane N = {hp_res.N}")


# -- criterion 8: negative controls -------------------------------------------

def test_criterion_8_flat_refutations():
    EU = EuclideanSpace(2)
    seg = EU.geodesic((-250.0, 0.0), (250.0, 0.0))
    sweep = [0.1, 1.0, 5.0, 10.0, 25.0, 50.0, 75.0, 100.0]
    table = half_flat_control(EU, seg, sweep,
                              CertBudget(center_radius=4, ball_samples=64))
    for entry in table:
        assert entry.refuted, f"B={entry.B} not refuted"
        w = entry.witness
        # replay and match the closed form 2 (h - 1)
        diam = projection_diameter_under_ball(EU, seg, w.center, w.radius,
                                              w.samples)
        assert diam == pytest.approx(w.diameter, rel=1e-9)
        h = EU.project(w.center, seg).distance
        assert w.diameter >= 2.0 * (h - 1.0) * 0.95
        assert w.diameter <= 2.0 * (h - 1.0) * 1.05

    line = EuclideanSpace(1)
    HP = HalfPlaneSpace()
    P = ProductSpace(HP, line)
    PG = GroupModel.product(
        GroupModel.matrix([[[2.0, 0.0], [0.0, 0.5]]]),
        GroupModel.translation([[1.0]]))
    x0 = (1j, (0.0,))
    far = act(P, PG.power(PG.from_word("a"), 130), x0)
    diag = P.geodesic(x0, far)
    ptable = half_flat_control(P, diag, sweep,
                               CertBudget(center_radius=4, ball_samples=64))
    assert all(r.refuted for r in ptable)
    announce(8, True, f"euclidean and product flats refuted for all B in "
                      f"{sweep}, witnesses within 5% of 2(h-1)")


# -- criterion 9: finite-extension algebra ------------------------------------

def test_criterion_9_extension_algebra():
    ext = swap_extension()
    averaged = orbit_average(ext, homogeneous_brooks_qm("aab"))
    assert check_sigma_invariance(ext, averaged, radius=6, tolerance=0.0) == []
    transferred = transfer_extend(ext, averaged)
    worst_gap = max(abs(transferred(ext.embed(h)) - averaged(h))
                    for h in W.ball(2, 6))
    assert worst_gap == 0.0
    d4 = extension_defect(ext, transferred, 4)
    d6 = extension_defect(ext, transferred, 6)
    assert d4 == REGRESSION_TRANSFER_DEFECT
    growth = d6 - d4
    announce(9, math.isfinite(d6) and growth <= 1.0,
             f"invariance and restriction exact on |h| <= 6; defect "
             f"{d4} -> {d6}, growth {growth}")


# -- criterion 10: weak proper discontinuity ----------------------------------

def test_criterion_10_wpd_counts():
    zero = wpd_count(TREE, FREE, "aab", c=0.0, M=4, radius=6)
    assert zero.matching == (W.IDENTITY,)
    x0 = vertex("")
    g4 = FREE.from_word(W.to_string(W.power(SIGMA, 4)))
    assert TREE.distance(x0, act(TREE, g4, x0)) >= 12.0
    small = wpd_count(TREE, FREE, "aab", c=2.0, M=4, radius=6)
    grown = wpd_count(TREE, FREE, "aab", c=2.0, M=4, radius=8)
    announce(10, small.count == grown.count,
             f"c=0 isolates the identity; c=2 count {small.count} stable "
             f"from radius 6 to 8")


# -- criterion 11: determinism ------------------------------------------------

def test_criterion_11_deterministic_reports():
    cfg_path = str((__import__("pathlib").Path(__file__).resolve().parents[1]
                    / "configs" / "tree_aab.json"))
    cfg1 = load_config(cfg_path)
    cfg2 = load_config(cfg_path)
    r1, code1 = run("all", cfg1)
    r2, code2 = run("all", cfg2)
    b1, b2 = canonical_body(r1), canonical_body(r2)
    announce(11, b1 == b2 and code1 == code2 == 0,
             f"two 'all' runs agree on {len(b1)} body bytes, exit {code1}")
