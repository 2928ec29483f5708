import pytest

from catqm import words as W
from catqm.actions import GroupModel, act
from catqm.errors import BudgetError, UnsupportedError
from catqm.spaces import TreeSpace, vertex
from catqm.wpd import (
    build_family,
    conjugate_power_test,
    equiv_search,
    sampled_hausdorff,
    wpd_count,
)

from oracles import is_cyclically_reduced

TREE = TreeSpace(2)
FREE = GroupModel.free(2)


# ---------------------------------------------------------------------------
# WPD counts
# ---------------------------------------------------------------------------

def test_wpd_zero_tolerance_isolates_identity():
    report = wpd_count(TREE, FREE, "aab", c=0.0, M=4, radius=5)
    assert report.count == 1
    assert report.matching == (W.IDENTITY,)


def test_wpd_negative_tolerance_empty():
    report = wpd_count(TREE, FREE, "aab", c=-1.0, M=4, radius=4)
    assert report.count == 0


def test_wpd_small_tolerance_radius_stable():
    # M = 4 separates the probe points by 12
    x0 = vertex("")
    g4 = FREE.from_word(W.to_string(W.power(W.from_string("aab"), 4)))
    assert TREE.distance(x0, act(TREE, g4, x0)) == 12.0
    small = wpd_count(TREE, FREE, "aab", c=2.0, M=4, radius=6)
    grown = wpd_count(TREE, FREE, "aab", c=2.0, M=4, radius=8)
    assert small.count == grown.count
    assert set(small.matching) == set(grown.matching)


def test_wpd_monotone_in_c_and_antitone_in_M():
    loose = wpd_count(TREE, FREE, "aab", c=4.0, M=1, radius=5)
    tight_c = wpd_count(TREE, FREE, "aab", c=2.0, M=1, radius=5)
    assert tight_c.count <= loose.count
    far_M = wpd_count(TREE, FREE, "aab", c=4.0, M=4, radius=5)
    assert far_M.count <= loose.count


# ---------------------------------------------------------------------------
# coarse equivalence search
# ---------------------------------------------------------------------------

def test_equiv_conjugate_found():
    conj = W.multiply(W.multiply((1,), W.from_string("aab")), (-1,))
    witness = equiv_search(TREE, FREE, "aab", W.to_string(conj), K=2.0,
                           power_max=5, radius=4)
    assert witness is not None
    assert witness.gamma == W.from_string("A")
    assert witness.m == witness.n
    assert witness.hausdorff <= 2.0


def test_equiv_inverse_none_at_budget():
    witness = equiv_search(TREE, FREE, "aab", "BAA", K=2.0, power_max=5,
                           radius=6)
    assert witness is None


def test_equiv_identity_pair():
    witness = equiv_search(TREE, FREE, "aab", "aab", K=2.0, power_max=4,
                           radius=2)
    assert witness is not None
    assert witness.gamma == W.IDENTITY and witness.m == 1 and witness.n == 1


def test_equiv_witness_symmetry():
    conj = W.to_string(W.multiply(W.multiply((1,), W.from_string("aab")), (-1,)))
    fwd = equiv_search(TREE, FREE, "aab", conj, K=2.0, power_max=4, radius=4)
    assert fwd is not None
    # swap roles: gamma^-1 with powers exchanged re-verifies
    x0 = vertex("")
    g = FREE.from_word(conj)
    h = FREE.from_word("aab")
    gamma_inv = FREE.from_word(W.to_string(W.inverse(fwd.gamma)))
    seg1 = TREE.geodesic(x0, act(TREE, FREE.power(g, fwd.n), x0))
    hx = act(TREE, FREE.power(h, fwd.m), x0)
    seg2 = TREE.geodesic(act(TREE, gamma_inv, x0), act(TREE, gamma_inv, hx))
    assert sampled_hausdorff(TREE, seg1, seg2) <= 2.0 + 1e-9


# ---------------------------------------------------------------------------
# conjugate powers
# ---------------------------------------------------------------------------

def test_conjugate_power_examples():
    assert conjugate_power_test("aab", "aba", 4) == (1, 1)
    assert conjugate_power_test("aab", "BAA", 6) is None
    assert conjugate_power_test("aabaab", "aab", 4) == (1, 2)


def test_conjugate_power_respects_conjugation():
    g = W.from_string("abb")
    conj = W.multiply(W.multiply(W.from_string("ba"), g), W.from_string("AB"))
    assert conjugate_power_test(g, conj, 3) == (1, 1)


def test_conjugate_power_needs_free_model():
    mat = GroupModel.matrix([[[2.0, 0.0], [0.0, 0.5]]])
    with pytest.raises(UnsupportedError):
        conjugate_power_test(mat.from_word("a"), mat.from_word("a"), 2)


# ---------------------------------------------------------------------------
# family construction
# ---------------------------------------------------------------------------

def test_build_family_of_two():
    fam = build_family("aab", "bba", count=2, N=2, power_max=5)
    assert len(fam.members) == 2
    for f in fam.members:
        assert is_cyclically_reduced(f)
        assert conjugate_power_test(f, W.inverse(f), 5) is None
    f1, f2 = fam.members
    assert conjugate_power_test(f1, f2, 5) is None
    assert conjugate_power_test(f1, W.inverse(f2), 5) is None


def test_build_family_commutator_flag():
    fam = build_family("aab", "bba", count=2, N=2, power_max=4)
    for f in fam.members:
        sums = [sum(1 for x in f if x == k) - sum(1 for x in f if x == -k)
                for k in (1, 2)]
        assert sums == [0, 0]


def test_build_family_single():
    fam = build_family("aab", "bba", count=1, N=2, power_max=4)
    assert len(fam.members) == 1


def test_build_family_budget():
    with pytest.raises(BudgetError):
        build_family("aab", "bba", count=50, N=2, power_max=2, max_tries=3)


def test_family_systems_have_full_rank():
    from catqm.contraction import ConstantLedger
    from catqm.expressway import ExpresswaySystem, independence_matrix

    fam = build_family("aab", "bba", count=2, N=2, power_max=4)
    ledger = ConstantLedger(1.0, 1.0)
    systems = []
    testers = []
    for i, f in enumerate(fam.members, start=1):
        power = W.power(f, i)   # growing powers pattern
        systems.append(ExpresswaySystem(TREE, FREE, power, ledger=ledger,
                                        candidate_cap=200000))
        testers.append(power)
    M, rank = independence_matrix(systems, testers, n_max=4)
    assert rank == len(systems)
