import random
from pathlib import Path

import pytest

from catqm import words as W
from catqm.actions import GroupModel, act
from catqm.errors import BudgetError, InputError
from catqm import wpd
from catqm.runner import load_config, run
from catqm.spaces import EuclideanSpace, HalfPlaneSpace, ProductSpace, TreeSpace, tree_point, vertex
from catqm.wpd import (
    build_family,
    conjugate_power_test,
    equiv_search,
    sampled_hausdorff,
    wpd_count,
)

from oracles import conjugacy_rotation_oracle, is_cyclically_reduced, wpd_count_per_element

TREE = TreeSpace(2)
EXACT_TREE = TreeSpace(2, tol=0.0)
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
# packed tree routes
# ---------------------------------------------------------------------------

def _per_point(monkeypatch, fn, *args):
    """``fn(*args)`` through the per-point route, the packed route's reference."""
    with monkeypatch.context() as mp:
        mp.setattr(wpd, "_packed_route", lambda *a: False)
        return fn(*args)


def _random_word(rng, n):
    w = ()
    while len(w) < n:
        x = rng.choice((1, -1, 2, -2))
        if not w or w[-1] != -x:
            w += (x,)
    return w


def test_packed_tree_routes_equal_the_per_point_routes(monkeypatch):
    rng = random.Random(18)
    hits = 0
    cells = wpd._PACKED_CELLS
    for case in range(60):
        # small passes too, so that ball order is kept across chunks
        monkeypatch.setattr(wpd, "_PACKED_CELLS", (cells, 5)[case % 3 == 0])
        g = _random_word(rng, rng.randint(1, 3))
        u = _random_word(rng, rng.randint(1, 2))
        h = rng.choice([g, W.inverse(g), _random_word(rng, rng.randint(1, 3)),
                        W.multiply(W.multiply(u, g), W.inverse(u))])
        x0 = vertex(_random_word(rng, rng.randint(0, 2)))
        # c = 0 and a negative c, K a half integer among the bounds
        c, K = (0.0, -1.0, 1.0, 2.5)[case % 4], (0.0, 1.0, 2.0, 2.5)[case // 2 % 4]
        M, power_max, radius = rng.randint(1, 3), rng.randint(2, 5), rng.randint(2, 4)
        # with no tolerance a distance equal to the bound still counts
        space = (TREE, EXACT_TREE)[case // 4 % 2]
        assert wpd._packed_route(space, FREE, x0)
        for fn, args in ((wpd_count, (space, FREE, g, c, M, radius, x0)),
                         (equiv_search, (space, FREE, g, h, K, power_max, radius, x0))):
            packed = fn(*args)
            assert packed == _per_point(monkeypatch, fn, *args), (fn.__name__, args)
        hits += packed is not None
    assert hits >= 20

    # the start filter at chunk edges: with 8 cells a filter pass takes
    # 8 // (power_max + 1) rows, so it empties whole chunks, and the witness
    # comes after the first chunk, at K = 0 as well
    moved, passes = wpd._moved_distances, []

    def counted(rows, movers, targets):
        passes.append(len(movers[1]))
        return moved(rows, movers, targets)

    monkeypatch.setattr(wpd, "_moved_distances", counted)
    monkeypatch.setattr(wpd, "_PACKED_CELLS", 8)
    ball = W.ball(2, 3)
    for g, h, K, power_max, index, emptied in (("aab", "BAA", 0.0, 1, 18, True),
                                               ("aab", "bbaaBB", 2.0, 2, 19, False),
                                               ("ab", "Bab", 1.0, 2, None, True)):
        passes.clear()
        args = (TREE, FREE, g, h, K, power_max, 3, vertex(""))
        packed = equiv_search(*args)
        assert packed == _per_point(monkeypatch, equiv_search, *args), args
        assert (None if packed is None else ball.index(packed.gamma)) == index
        assert index is None or index >= 8 // (power_max + 1)
        # a filter pass (one mover) with no scan pass (power_max + 1) after it
        assert ((1, 1) in zip(passes, passes[1:] + [1])) == emptied, passes


def test_edge_point_basepoint_keeps_the_per_point_route(monkeypatch):
    def refuse(*args):
        raise AssertionError("packed route on an edge-point basepoint")

    monkeypatch.setattr(wpd, "_moved_distances", refuse)
    x0 = tree_point((1,), 2, 0.5)
    zero = wpd_count(TREE, FREE, "aab", c=0.0, M=4, radius=4, x0=x0)
    assert zero.matching == (W.IDENTITY,)
    found = equiv_search(TREE, FREE, "aab", "aab", K=2.0, power_max=4,
                         radius=2, x0=x0)
    assert (found.gamma, found.m, found.n, found.hausdorff) == (W.IDENTITY, 1, 1, 0.0)


def test_tree_with_a_non_free_group_raises():
    mats = GroupModel.matrix([[[2.0, 0.0], [0.0, 0.5]], [[1.0, 1.0], [0.0, 1.0]]])
    with pytest.raises(InputError):
        wpd_count(TREE, mats, "a", c=1.0, M=1, radius=2)
    with pytest.raises(InputError):
        equiv_search(TREE, mats, "a", "b", K=1.0, power_max=2, radius=2)


def test_free_group_wider_than_the_tree_keeps_the_per_point_route():
    # the rank-3 ball leaves the rank-2 tree at "c": its segments are refused
    wide = GroupModel.free(3)
    assert not wpd._packed_route(TREE, wide, vertex(""))
    with pytest.raises(InputError):
        equiv_search(TREE, wide, "aab", "BAA", K=2.0, power_max=2, radius=2)


def test_packed_routes_keep_the_ball_radius_cap():
    assert wpd._packed_route(TREE, FREE, vertex(""))
    with pytest.raises(BudgetError):
        wpd_count(TREE, FREE, "aab", c=2.0, M=4, radius=W.BALL_RADIUS_CAP + 1)
    with pytest.raises(BudgetError):
        equiv_search(TREE, FREE, "aab", "BAA", K=2.0, power_max=4,
                     radius=W.BALL_RADIUS_CAP + 1)


def _off_tree_cases():
    """(space, group, g, x0): the shipped half-plane and Euclidean groups,
    their product, and the free group from an edge point of its tree."""
    hp = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "half_plane.json"))
    eu = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "euclidean_control.json"))
    product = ProductSpace(HalfPlaneSpace(), EuclideanSpace(2))
    return [(hp.space, hp.group, "a", 0.5 + 1.5j),
            (eu.space, eu.group, "ab", (1.0, -0.5)),
            (product, GroupModel.product(hp.group, eu.group), "a", None),
            (TREE, FREE, "aab", tree_point((1,), 2, 0.25))]


@pytest.mark.parametrize("case", range(4))
def test_wpd_count_matches_the_per_element_loop(case):
    space, group, g, x0 = _off_tree_cases()[case]
    assert not wpd._packed_route(space, group, x0 if x0 is not None else space.basepoint())
    sizes = set()
    for c in (0.0, 0.5, 1.0, 3.0):
        for radius in range(7):
            got = wpd_count(space, group, g, c, 1, radius, x0)
            assert got == wpd_count_per_element(space, group, g, c, 1, radius, x0)
            sizes.add(got.count)
    assert min(sizes) <= 1 < max(sizes)


@pytest.mark.parametrize("subcommand", ["wpd", "equiv"])
def test_tree_cells_project_no_point(monkeypatch, subcommand):
    calls = []
    project = TreeSpace.project

    def counted(self, x, seg):
        calls.append(x)
        return project(self, x, seg)

    monkeypatch.setattr(TreeSpace, "project", counted)
    cfg = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "tree_aab.json"))
    _, code = run(subcommand, cfg)
    assert code == 0
    assert calls == []


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


def test_conjugate_power_matches_the_rotation_grid():
    # the first (m, n), m-major, whose powers the rotation oracle calls conjugate
    def grid(g, h, power_max):
        return next(((m, n) for m in range(1, power_max + 1)
                     for n in range(1, power_max + 1)
                     if conjugacy_rotation_oracle(W.power(g, m), W.power(h, n))), None)

    sample = [u for u in W.ball(2, 3) if u] + [W.from_string("aabaab")]
    for g in sample[::3]:
        for h in sample[::4]:
            assert conjugate_power_test(g, h, 3) == grid(g, h, 3)


def test_conjugate_power_keys_each_power_once(monkeypatch):
    calls = []

    def key(w):
        calls.append(w)
        return W.conjugacy_key(w)

    monkeypatch.setattr(wpd, "conjugacy_key", key)
    assert conjugate_power_test("aab", "BAA", 6) is None
    assert len(calls) == 2 * 6


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
