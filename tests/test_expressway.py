import math
import random
from pathlib import Path

import numpy as np
import pytest

from catqm import expressway as E
from catqm import words as W
from catqm.actions import GroupModel, act
from catqm.contraction import ConstantLedger
from catqm.errors import BudgetError, ConfigError
from catqm.expressway import (
    ExpresswaySystem,
    _dense_dijkstra,
    _tree_candidates,
    LambdaSamples,
    check_lambda_properties,
    check_witness_confinement,
    defect_estimate,
    enumerate_relevant_expressways,
    homogenize,
    independence_matrix,
    modified_length,
    phi_evaluator,
    phi_sigma,
    tree_phi_exact,
)
from catqm.runner import load_config, run
from catqm.samplers import random_words
from catqm.spaces import (
    EuclideanSpace,
    HalfPlaneSpace,
    ProductSpace,
    TreeSpace,
    tree_point,
    vertex,
)

from oracles import (
    ball_candidates_per_translate,
    floyd_warshall,
    tree_candidates_per_translate,
    tree_lambda_exact,
    tree_lambda_oracle,
    tree_phi_oracle,
)

REPO = Path(__file__).resolve().parents[1]
TREE = TreeSpace(2)
FREE = GroupModel.free(2)
LEDGER = ConstantLedger(1.0, 1.0)
SIGMA = W.from_string("aab")


def tree_system(margin=2.0, **kw) -> ExpresswaySystem:
    return ExpresswaySystem(TREE, FREE, "aab", ledger=LEDGER, margin=margin, **kw)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumeration_contains_on_axis_translates():
    sys_t = tree_system()
    found = enumerate_relevant_expressways(sys_t, vertex(""), vertex("aabaab"))
    gs = {t.g for t in found}
    assert W.IDENTITY in gs and SIGMA in gs
    # deterministic
    again = enumerate_relevant_expressways(sys_t, vertex(""), vertex("aabaab"))
    assert [t.g for t in found] == [t.g for t in again]


def test_enumeration_far_segment_unusable():
    sys_t = tree_system()
    found = enumerate_relevant_expressways(sys_t, vertex("b"), vertex("bb"))
    # nothing aligned: the best path will just walk the geodesic
    assert modified_length(sys_t, vertex("b"), vertex("bb")).value == 1.0


def test_enumeration_cap():
    sys_t = tree_system(candidate_cap=2)
    with pytest.raises(BudgetError) as err:
        enumerate_relevant_expressways(sys_t, vertex(""), vertex("aabaab"))
    assert len(err.value.partial) == 2


def _random_tree_point(rng, edge, rank=2):
    letters = [x for k in range(1, rank + 1) for x in (k, -k)]
    w = ()
    for _ in range(rng.randrange(5)):
        w += (rng.choice([x for x in letters if not w or x != -w[-1]]),)
    if not edge:
        return tree_point(w)
    letter = rng.choice([x for x in letters if not w or x != -w[-1]])
    return tree_point(w, letter, rng.choice([0.5, 0.3, rng.random()]))


def test_tree_candidates_match_the_per_translate_loop():
    tree3 = TreeSpace(3)
    families = [
        (TREE, 2614, 60, [tree_system(),
                          ExpresswaySystem(TREE, FREE, "aab", vertex("b"), ledger=LEDGER)]),
        (tree3, 3615, 20, [ExpresswaySystem(tree3, GroupModel.free(3), "abC",
                                            vertex("c"), ledger=LEDGER)]),
    ]
    for space, seed, segments, systems in families:
        rng = random.Random(seed)
        sizes = set()
        for i in range(segments):
            a = _random_tree_point(rng, rng.random() < 0.5, space.rank)
            b = (tree_point(a.anchor, a.letter, rng.random()) if i % 10 == 0 and a.letter
                 else _random_tree_point(rng, rng.random() < 0.5, space.rank))
            seg = space.geodesic(a, b)
            for sys_t in systems:
                for margin in (0.5, 1.0, 2.0, 2.5, 3.0):
                    got = _tree_candidates(sys_t, seg, margin)
                    assert got == tree_candidates_per_translate(sys_t, seg, margin)
                    sizes.add(len(got) > 0)
        assert sizes == {True, False}


@pytest.mark.parametrize("config", ["half_plane", "euclidean_control"])
def test_ball_candidates_match_the_per_translate_filter(monkeypatch, config):
    # every query of the shipped qm cell, checked as the cell runs
    filtered, sizes = E._ball_candidates, []

    def checked(sys_b, seg, margin):
        got = filtered(sys_b, seg, margin)
        assert got == ball_candidates_per_translate(sys_b, seg, margin)
        sizes.append(len(got))
        return got

    monkeypatch.setattr(E, "_ball_candidates", checked)
    run("qm", load_config(str(REPO / "configs" / f"{config}.json")))
    assert len(sizes) > 100 and min(sizes) < max(sizes)


def test_ball_candidates_on_a_product_match_the_per_translate_filter():
    P = ProductSpace(HalfPlaneSpace(), EuclideanSpace(1))
    group = GroupModel.product(
        GroupModel.matrix([[[2.0, 0.0], [0.0, 0.5]],
                           [[1.25, -0.75], [-0.75, 1.25]]]),
        GroupModel.translation([[1.0], [0.5]]))
    sys_p = ExpresswaySystem(P, group, "a", (1j, (0.0,)), ledger=ConstantLedger(1.0, 5.0),
                             margin=3.0, enum_radius=2)
    sizes = set()
    for word in ("a", "aa", "ab", "B", "aab"):
        seg = P.geodesic(sys_p.basepoint, act(P, group.from_word(word), sys_p.basepoint))
        for margin in (0.5, 1.5, 3.0):
            got = E._ball_candidates(sys_p, seg, margin)
            assert got == ball_candidates_per_translate(sys_p, seg, margin)
            sizes.add(len(got))
    assert 0 in sizes and max(sizes) > 1


def test_short_base_segment_rejected():
    weak = GroupModel.matrix([[[1.1, 0.0], [0.0, 1 / 1.1]]])
    with pytest.raises(ConfigError):
        ExpresswaySystem(HalfPlaneSpace(), weak, "a", ledger=LEDGER)


def test_length_hypothesis_reported_not_enforced():
    sys_t = tree_system()
    assert sys_t.L == 3.0
    assert sys_t.meets_length_hypothesis is False   # desk scale: L << ledger D
    assert "meets_length_hypothesis" in sys_t.describe()


# ---------------------------------------------------------------------------
# modified length and phi
# ---------------------------------------------------------------------------

def test_modified_length_examples():
    sys_t = tree_system()
    fwd = modified_length(sys_t, vertex(""), vertex("aabaab"))
    assert fwd.value == 4.0 and fwd.expressways == 2
    back = modified_length(sys_t, vertex("aabaab"), vertex(""))
    assert back.value == 6.0 and back.expressways == 0
    same = modified_length(sys_t, vertex("ab"), vertex("ab"))
    assert same.value == 0.0 and len(same.path) == 1


def test_phi_examples():
    sys_t = tree_system()
    assert phi_sigma(sys_t, "aabaab") == 2.0
    assert phi_sigma(sys_t, W.IDENTITY) == 0.0
    assert phi_sigma(sys_t, "b") == 0.0


def test_value_bounded_by_distance():
    sys_t = tree_system()
    for g, h in zip(random_words(2, 31, 10, 6), random_words(2, 32, 10, 6)):
        a, b = vertex(W.to_string(g)), vertex(W.to_string(h))
        res = modified_length(sys_t, a, b)
        assert res.value <= TREE.distance(a, b) + 1e-12


def test_witness_paths_alternate_and_replay():
    sys_t = tree_system()
    res = modified_length(sys_t, vertex(""), vertex("aabaabaab"))
    # no two consecutive free edges in a minimal witness
    kinds = [s.edge for s in res.path[1:]]
    for k1, k2 in zip(kinds, kinds[1:]):
        assert not (k1 == "free" and k2 == "free")
    # recompute the modified length from the path
    total = 0.0
    prev = None
    for step in res.path:
        if prev is not None:
            if step.edge == "expressway":
                total += sys_t.L - 1.0
            else:
                total += TREE.distance(prev, step.point)
        prev = step.point
    assert total == pytest.approx(res.value)


# ---------------------------------------------------------------------------
# exact tree route against the graph and the exhaustive oracle
# ---------------------------------------------------------------------------

def test_three_routes_agree_exhaustively():
    # sigma = "a" has L = 1: every shortcut costs 0
    for sigma in ("aab", "a"):
        sys_t = ExpresswaySystem(TREE, FREE, sigma, ledger=LEDGER)
        for g in W.ball(2, 4):
            exact = tree_phi_exact(sys_t, g)
            graph = phi_sigma(sys_t, g)
            oracle = tree_phi_oracle(W.from_string(sigma), g)
            assert exact == graph == oracle, (sigma, W.to_string(g))


def test_lambda_routes_agree_on_random_pairs():
    sys_t = tree_system()
    ws = random_words(2, 77, 16, 7)
    for u, v in zip(ws[::2], ws[1::2]):
        oracle, _ = tree_lambda_oracle(SIGMA, u, v)
        exact = tree_lambda_exact(sys_t, u, v)
        graph = modified_length(sys_t, vertex(W.to_string(u)),
                                vertex(W.to_string(v))).value
        assert oracle == exact == graph


def test_exact_route_with_moved_basepoint():
    x0 = vertex("ba")
    sys_t = ExpresswaySystem(TREE, FREE, "aab", basepoint=x0, ledger=LEDGER)
    for g in W.ball(2, 3):
        assert tree_phi_exact(sys_t, g) == phi_sigma(sys_t, g)


# ---------------------------------------------------------------------------
# the dense shortest path against Floyd-Warshall
# ---------------------------------------------------------------------------

def random_candidate_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """A complete directed graph shaped like a candidate graph: free edges
    on a grid of quarters (many ties) or continuous, and about n directed
    zero-weight shortcuts."""
    if n % 2:
        weights = rng.random((n, n)) * 3.0
    else:
        weights = rng.integers(1, 9, size=(n, n)) / 4.0
    weights[rng.random((n, n)) < 1.0 / n] = 0.0
    np.fill_diagonal(weights, 0.0)
    return weights


def check_shortest_path(weights: np.ndarray) -> None:
    dist, pred = _dense_dijkstra(weights)
    assert abs(dist[1] - floyd_warshall(weights)[0][1]) <= 1e-12
    chain = [1]
    while chain[-1] != 0:
        assert len(chain) <= len(weights)
        chain.append(int(pred[chain[-1]]))
        assert chain[-1] >= 0
    chain.reverse()
    total = sum(weights[u, v] for u, v in zip(chain, chain[1:]))
    assert abs(total - dist[1]) <= 1e-12


def test_dense_dijkstra_matches_floyd_warshall():
    rng = np.random.default_rng(16)
    for n in range(2, 61):
        check_shortest_path(random_candidate_weights(rng, n))


# ---------------------------------------------------------------------------
# interface properties of the modified length
# ---------------------------------------------------------------------------

def test_lambda_properties_tree():
    sys_t = tree_system()
    pts = [vertex(s) for s in ("", "aab", "ba", "aabaab", "bbA", "abab")]
    pairs = tuple((pts[i], pts[j]) for i in range(len(pts)) for j in range(i))
    moves = tuple((a, b, act(TREE, FREE.from_word("a"), a),
                   act(TREE, FREE.from_word("B"), b)) for a, b in pairs[:6])
    gs = tuple(random_words(2, 13, 6, 4))
    triples = ((vertex(""), vertex("aabaab"), vertex("aabaabaabaab")),
               (vertex(""), vertex("aab"), vertex("aabaab")))
    violations = check_lambda_properties(
        sys_t, LambdaSamples(pairs, moves, gs, triples))
    assert violations == []


def test_gamma_invariance_exact_on_tree():
    sys_t = tree_system()
    for g in random_words(2, 21, 8, 4):
        iso = FREE.from_word(g)
        for u, v in ((W.IDENTITY, W.power(SIGMA, 2)), (W.from_string("b"), SIGMA)):
            a, b = vertex(W.to_string(u)), vertex(W.to_string(v))
            lhs = modified_length(sys_t, a, b).value
            rhs = modified_length(sys_t, act(TREE, iso, a), act(TREE, iso, b)).value
            assert lhs == rhs


def test_additivity_example():
    sys_t = tree_system()
    a, b, c = vertex(""), vertex("aabaab"), vertex("aabaab" * 2)
    lam = lambda x, y: modified_length(sys_t, x, y).value
    assert lam(a, c) == 8.0
    assert lam(a, b) + lam(b, c) == 8.0


# ---------------------------------------------------------------------------
# defect, homogenization, independence
# ---------------------------------------------------------------------------

def test_defect_basics():
    sys_t = tree_system()
    # phi(e) = 0 pairs contribute nothing
    report = defect_estimate(sys_t, [(W.IDENTITY, g) for g in W.ball(2, 3)])
    assert report.value == 0.0
    # inverse pairs contribute |phi(g) + phi(g^-1)|
    report = defect_estimate(sys_t, [(g, W.inverse(g)) for g in W.ball(2, 3)])
    assert report.value == 0.0   # the counting difference is antisymmetric


def test_defect_frozen_at_radius3():
    sys_t = tree_system()
    pairs = [(g, h) for g in W.ball(2, 3) for h in W.ball(2, 3)]
    report = defect_estimate(sys_t, pairs)
    assert report.value == 1.0


def test_defect_monotone_in_sample():
    sys_t = tree_system()
    small = defect_estimate(sys_t, [(g, h) for g in W.ball(2, 2)
                                    for h in W.ball(2, 2)]).value
    large = defect_estimate(sys_t, [(g, h) for g in W.ball(2, 3)
                                    for h in W.ball(2, 3)]).value
    assert large >= small


def test_homogenize_examples():
    sys_t = tree_system()
    value, err = homogenize(sys_t, "aab", 5, defect_bound=1.0)
    assert value == 1.0 and err == pytest.approx(0.2)
    assert homogenize(sys_t, W.IDENTITY, 8, defect_bound=1.0)[0] == 0.0
    assert homogenize(sys_t, "b", 8, defect_bound=1.0)[0] == 0.0


def test_independence_matrix_rank():
    systems = [ExpresswaySystem(TREE, FREE, w, ledger=LEDGER)
               for w in ("aab", "abb", "aabb")]
    testers = ["aab", "abb", "aabb"]
    M, rank = independence_matrix(systems, testers, n_max=8)
    assert rank == 3
    single, rank1 = independence_matrix(systems[:1], testers[:1], n_max=8)
    assert rank1 == 1
    dup, rank_dup = independence_matrix([systems[0], systems[0]], testers[:2], n_max=8)
    assert rank_dup == 1


def test_independence_needs_enough_testers():
    systems = [tree_system(), tree_system()]
    with pytest.raises(Exception):
        independence_matrix(systems, ["aab"], n_max=4)


def test_witness_confinement():
    sys_t = tree_system()
    a, b = vertex(""), vertex("aabaabaab")
    res = modified_length(sys_t, a, b)
    ok, dev = check_witness_confinement(sys_t, res, a, b)
    assert ok
    assert dev <= LEDGER.D


# ---------------------------------------------------------------------------
# non-tree systems run end to end
# ---------------------------------------------------------------------------

def test_halfplane_system_smoke():
    hp = HalfPlaneSpace()
    group = GroupModel.matrix([[[2.0, 0.0], [0.0, 0.5]],
                               [[1.25, -0.75], [-0.75, 1.25]]])
    led = ConstantLedger(1.0, 5.0)
    sys_h = ExpresswaySystem(hp, group, "a", basepoint=1j, ledger=led,
                             margin=3.0, enum_radius=3)
    assert sys_h.L == pytest.approx(2 * math.log(2))
    a, b = 1j, act(hp, group.from_word("aaa"), 1j)
    res = modified_length(sys_h, a, b)
    assert res.value <= hp.distance(a, b) + 1e-9
    assert res.expressways >= 1     # axis translates align with the geodesic
    value = phi_sigma(sys_h, "aa")
    assert value == pytest.approx(2.0 * (hp.distance(a, b) / 3.0) - res.value, abs=10)
    assert phi_evaluator(sys_h)(W.from_string("a")) == phi_sigma(sys_h, "a")
