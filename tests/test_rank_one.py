import math

import pytest

from catqm import words as W
from catqm.actions import GroupModel, act
from catqm.contraction import CertBudget, ConstantLedger
from catqm.errors import BudgetError
from catqm.rank_one import (
    half_flat_control,
    independence_test,
    rank_one_test,
    schottky_exponent,
)
from catqm.spaces import EuclideanSpace, HalfPlaneSpace, ProductSpace, TreeSpace, vertex

from oracles import chain_check

TREE = TreeSpace(2)
HP = HalfPlaneSpace()
EU = EuclideanSpace(2)
FREE = GroupModel.free(2)
DIAG_ROT = GroupModel.matrix([[[2.0, 0.0], [0.0, 0.5]],
                              [[1.25, -0.75], [-0.75, 1.25]]])
LEDGER = ConstantLedger(1.0, 1.0)
BUDGET = CertBudget(center_radius=3, center_count=12, ball_samples=32)


def test_tree_rank_one_certified_at_true_scale():
    # orbit points sit on a line spaced 3 apart: the geodesic midpoint
    # between consecutive orbit points is 1.5 away, so 1.5 is the exact
    # Hausdorff scale and B = 2 certifies
    result = rank_one_test(TREE, FREE, "aab", vertex(""), B=2.0, n_max=5,
                           budget=BUDGET)
    assert result.certified
    assert result.growth_floor == pytest.approx(3.0)
    # sampling step is B/2 = 1, landing on vertices where the deviation is 1;
    # the 1-Lipschitz guarantee covers the 1.5 midpoints, still below B = 2
    assert max(e.geodesic_to_orbit for e in result.evidence) == pytest.approx(1.0)
    assert all(e.orbit_to_geodesic == 0.0 for e in result.evidence)


def test_tree_rank_one_below_hausdorff_scale_refutes():
    result = rank_one_test(TREE, FREE, "aab", vertex(""), B=1.0, n_max=3,
                           budget=BUDGET)
    assert not result.certified
    assert result.reason == "hausdorff"
    assert result.witness["deviation"] == pytest.approx(1.5)


def test_halfplane_rank_one_certified():
    result = rank_one_test(HP, DIAG_ROT, "a", 1j, B=5.0, n_max=4, budget=BUDGET)
    assert result.certified
    assert result.growth_floor == pytest.approx(2 * math.log(2), abs=1e-9)


def test_euclidean_translation_refuted():
    group = GroupModel.translation([[3.0, 0.0]])
    probe = CertBudget(center_radius=3, probe_heights=(7.0,))
    result = rank_one_test(EU, group, "a", (0.0, 0.0), B=10.0, n_max=6,
                           budget=probe)
    assert not result.certified
    assert result.reason == "contraction"
    assert result.witness["witness"]["diameter"] >= 10.0


def test_orbit_growth_floor_linear():
    result = rank_one_test(TREE, FREE, "ab", vertex(""), B=2.0, n_max=6,
                           budget=BUDGET)
    assert result.certified
    x0 = vertex("")
    g = FREE.from_word("ab")
    cur = x0
    for n in range(1, 7):
        cur = act(TREE, g, cur)
        assert TREE.distance(x0, cur) >= n * result.growth_floor - 1e-9


def test_basepoint_robustness():
    # moving the basepoint keeps rank-1 at a larger scale
    base = rank_one_test(TREE, FREE, "aab", vertex(""), B=2.0, n_max=4,
                         budget=BUDGET)
    moved = rank_one_test(TREE, FREE, "aab", vertex("b"), B=4.0, n_max=4,
                          budget=BUDGET)
    assert base.certified and moved.certified


def test_independence_profiles():
    profile = independence_test(TREE, FREE, "aab", "bba", vertex(""),
                                grid_max=8, threshold=20.0)
    assert profile.values[0] == 0.0
    assert all(profile.values[i] < profile.values[i + 1] for i in range(1, 8))
    assert profile.values[1] == 3.0
    assert profile.passed

    same = independence_test(TREE, FREE, "aab", "aab", vertex(""),
                             grid_max=5, threshold=10.0)
    assert not same.passed
    assert same.values[-1] == 0.0   # the diagonal stalls at zero


def test_independence_halfplane():
    profile = independence_test(HP, DIAG_ROT, "a", "b", 1j, grid_max=12,
                                threshold=10.0)
    assert profile.tail_increasing
    assert profile.values[-1] > 10.0


def test_chain_check_tree():
    # long alternating chain with big gaps between next-nearest pieces
    pts = [vertex("")]
    g1 = FREE.from_word(W.to_string(W.power(W.from_string("aab"), 6)))
    g2 = FREE.from_word(W.to_string(W.power(W.from_string("bba"), 6)))
    cur = pts[0]
    for iso in (g1, g2, g1):
        cur = act(TREE, iso, cur)
        pts.append(cur)
    small_ledger = ConstantLedger(1.0, 1.0)
    out = chain_check(TREE, pts, B=2.0, ledger=small_ledger, budget=BUDGET)
    # the honest chain constant is enormous, so the gap hypothesis fails at
    # desk scale and the configuration is skipped, not violated
    assert out.skipped and out.reason == "gap hypothesis unmet"


def test_chain_check_single_segment():
    pts = [vertex(""), vertex("aabaab")]
    out = chain_check(TREE, pts, B=2.0, ledger=LEDGER, budget=BUDGET)
    assert not out.skipped
    assert out.neighborhood_bound == 0.0
    assert not out.certificate.refuted


def test_schottky_tree():
    result = schottky_exponent(TREE, FREE, "aab", "bba", E=1.0,
                               word_len_max=4, x0=vertex(""), n_cap=8)
    assert result.N == 2
    # single letters displace by 6 = |(aab)^2|
    assert result.displacements["a"] == (1, 6.0)
    for wstr, (length, disp) in result.displacements.items():
        assert disp >= length * 1.0


def test_schottky_budget_exhaustion():
    with pytest.raises(BudgetError) as err:
        schottky_exponent(TREE, FREE, "aab", "bba", E=100.0, word_len_max=2,
                          x0=vertex(""), n_cap=4)
    assert set(err.value.partial) == {2, 4}


def test_schottky_halfplane():
    result = schottky_exponent(HP, DIAG_ROT, "a", "b", E=1.0,
                               word_len_max=3, x0=1j, n_cap=8)
    assert result.N <= 8 and result.N % 2 == 0
    for wstr, (length, disp) in result.displacements.items():
        assert disp >= length * 1.0 - 1e-6


def test_schottky_words_rank_one():
    # nontrivial short words over the Schottky generators behave rank-1
    res = schottky_exponent(TREE, FREE, "aab", "bba", E=1.0, word_len_max=2,
                            x0=vertex(""), n_cap=4)
    gN = W.power(W.from_string("aab"), res.N)
    hN = W.power(W.from_string("bba"), res.N)
    for pattern in [(1,), (2,), (1, 2), (1, -2)]:
        word = W.IDENTITY
        basis = {1: gN, -1: W.inverse(gN), 2: hN, -2: W.inverse(hN)}
        for letter in pattern:
            word = W.multiply(word, basis[letter])
        scale = len(word) / 2.0 + 0.5
        out = rank_one_test(TREE, FREE, W.to_string(word), vertex(""),
                            B=scale, n_max=3, budget=BUDGET)
        assert out.certified, (pattern, W.to_string(word))


def test_half_flat_controls():
    seg = EU.geodesic((-150.0, 0.0), (150.0, 0.0))
    table = half_flat_control(EU, seg, [0.1, 10.0, 100.0], BUDGET)
    assert all(r.refuted for r in table)
    assert table[0].witness is not None

    line = EuclideanSpace(1)
    P = ProductSpace(HP, line)
    group = GroupModel.product(DIAG_ROT, GroupModel.translation([[1.0], [0.0]]))
    x0 = (1j, (0.0,))
    far = act(P, group.power(group.from_word("a"), 40), x0)
    diag_seg = P.geodesic(x0, far)
    table = half_flat_control(P, diag_seg, [1.0, 10.0],
                              CertBudget(center_radius=4, ball_samples=48))
    assert all(r.refuted for r in table)
