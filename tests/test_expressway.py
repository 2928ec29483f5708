import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catqm import expressway as E
from catqm import words as W
from catqm.actions import GroupModel, act
from catqm.contraction import ConstantLedger
from catqm.errors import BudgetError, ConfigError
from catqm.expressway import (
    ExpresswaySystem,
    _dense_dijkstra,
    LambdaSamples,
    check_lambda_properties,
    check_witness_confinement,
    defect_estimate,
    enumerate_relevant_expressways,
    homogenize,
    independence_matrix,
    modified_length,
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
    defect_estimate_per_pair,
    floyd_warshall,
    modified_length_per_point_key,
    tree_lambda_candidate_graph,
    tree_lambda_exact,
    tree_lambda_oracle,
    tree_phi_oracle,
    tree_phi_str_count,
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


def _checked_lambda(sys_t, a, b) -> float:
    """``modified_length`` with its witness path checked: the path runs from
    a to b, its steps cost the value, and each expressway's translate
    carries x0 to the step's start and sigma x0 to its end."""
    space, x0, res = sys_t.space, sys_t.basepoint, modified_length(sys_t, a, b)
    assert (res.path[0].point, res.path[-1].point) == (a, b)
    total = 0.0
    for prev, step in zip(res.path, res.path[1:]):
        if step.edge == "free":
            total += space.distance(prev.point, step.point)
            continue
        total += sys_t.L - 1.0
        g = sys_t.group.from_word(step.translate)
        assert act(space, g, x0) == prev.point
        assert act(space, sys_t.group.multiply(g, sys_t._sigma_iso), x0) == step.point
    assert total == res.value
    return res.value


def test_tree_lambda_matches_the_candidate_graph_on_the_radius_5_grid():
    sys_t = tree_system()
    x0 = sys_t.basepoint
    for v in W.ball(2, 5):
        vx0 = act(TREE, FREE.from_word(v), x0)
        assert ((_checked_lambda(sys_t, x0, vx0), _checked_lambda(sys_t, vx0, x0))
                == tree_lambda_candidate_graph(sys_t, x0, vx0)), W.to_string(v)


@pytest.mark.parametrize("sigma,x0", [("aab", ""), ("a", ""), ("aa", ""), ("aba", ""),
                                      ("ab", ""), ("aab", "b"), ("aab", "ba"),
                                      ("abC", "c")])
def test_tree_lambda_matches_the_candidate_graph_on_edge_points(sigma, x0):
    rank = 3 if "C" in sigma else 2
    space = TreeSpace(rank)
    sys_t = ExpresswaySystem(space, GroupModel.free(rank), sigma, vertex(x0), ledger=LEDGER)
    rng = random.Random(f"{sigma}@{x0}")
    overhangs = 0
    for i in range(60):
        a = _random_tree_point(rng, True, rank)
        if i % 4 == 0:     # the same edge
            b = tree_point(a.anchor, a.letter, rng.random())
        elif i % 4 in (1, 2):
            # a on the first edge of an occurrence of sigma (of its inverse,
            # read by the query back), and b beyond the occurrence
            word = sys_t.sigma_edge_word
            word = word if i % 4 == 1 else W.inverse(word)
            q = _random_tree_point(rng, False, rank).anchor
            a = tree_point(q, word[0], rng.random())
            b = _random_tree_point(rng, rng.random() < 0.5, rank)
            b = tree_point(W.multiply(W.multiply(q, word), b.anchor), b.letter, b.t)
        else:
            b = _random_tree_point(rng, rng.random() < 0.5, rank)
        if space.point_key(a) == space.point_key(b):
            continue
        fwd, back = tree_lambda_candidate_graph(sys_t, a, b)
        assert _checked_lambda(sys_t, a, b) == pytest.approx(fwd, abs=1e-9)
        assert _checked_lambda(sys_t, b, a) == pytest.approx(back, abs=1e-9)
        saving = space.distance(a, b) - fwd
        overhangs += abs(saving - round(saving)) > 1e-9
    assert overhangs > 0


def test_tree_lambda_overhang_examples():
    # a = 0.1 of the way from e to a: the translate [e, aab] overhangs a by
    # 0.1 and saves 1 - 0.2, where the vertex chain "ab" holds no occurrence
    sys_t = tree_system()
    a, b = tree_point((), 1, 0.1), vertex("aab")
    res = modified_length(sys_t, a, b)
    assert TREE.distance(a, b) == pytest.approx(2.9)
    assert res.value == pytest.approx(2.1) and res.expressways == 1
    assert res.value == pytest.approx(tree_lambda_candidate_graph(sys_t, a, b)[0])
    # L = 1: a same-edge pair at distance d > 1/2 rides the edge for 1 - d
    sys_a = ExpresswaySystem(TREE, FREE, "a", ledger=LEDGER)
    for s, t, lam in ((0.2, 0.9, 0.3), (0.9, 0.2, 0.7), (0.2, 0.5, 0.3)):
        a, b = tree_point((), 1, s), tree_point((), 1, t)
        assert modified_length(sys_a, a, b).value == pytest.approx(lam)
        assert tree_lambda_candidate_graph(sys_a, a, b)[0] == pytest.approx(lam)


def test_a_group_narrower_than_its_tree_keeps_the_candidate_graph():
    # the closed form once rode the translate C of [c, abc] (sigma = ab from
    # the basepoint c) for lambda(e, Cabc) = 3, though C is not in the
    # rank-2 group; the group's own translates give the plain distance 4
    narrow = ExpresswaySystem(TreeSpace(3), FREE, "ab", vertex("c"), ledger=LEDGER)
    assert not narrow.is_exact_tree()
    res = modified_length(narrow, vertex(""), vertex("Cabc"))
    assert (res.value, res.expressways) == (4.0, 0)
    assert ExpresswaySystem(TreeSpace(3), GroupModel.free(3), "ab", vertex("c"),
                            ledger=LEDGER).is_exact_tree()


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


def _off_tree_systems() -> list[ExpresswaySystem]:
    """The shipped half-plane and Euclidean systems and a product one."""
    P = ProductSpace(HalfPlaneSpace(), EuclideanSpace(1))
    group = GroupModel.product(
        GroupModel.matrix([[[2.0, 0.0], [0.0, 0.5]],
                           [[1.25, -0.75], [-0.75, 1.25]]]),
        GroupModel.translation([[1.0], [0.5]]))
    product = ExpresswaySystem(P, group, "a", (1j, (0.0,)), ledger=ConstantLedger(1.0, 5.0),
                               margin=3.0, enum_radius=2)
    return [load_config(str(REPO / "configs" / f"{name}.json")).system()
            for name in ("half_plane", "euclidean_control")] + [product]


OFF_TREE = _off_tree_systems()
coordinate = st.floats(-4.0, 4.0)
height = st.floats(0.05, 6.0)
# an orbit point g x0 (often an end of a candidate), or any point
query_point = st.one_of(st.tuples(st.just("orbit"), st.sampled_from(W.ball(2, 3))),
                        st.tuples(st.just("point"), st.tuples(coordinate, coordinate, height)))


def _query(sys_q, drawn):
    kind, value = drawn
    if kind == "orbit":
        return act(sys_q.space, sys_q.group.from_word(value), sys_q.basepoint)
    x, y, h = value
    return {"half-plane": complex(x, h), "euclidean": (x, y),
            "product": (complex(x, h), (y,))}[sys_q.space.kind]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(range(len(OFF_TREE))), query_point, query_point)
def test_modified_length_matches_the_per_point_key_graph(which, a, b):
    sys_q = OFF_TREE[which]
    a, b = _query(sys_q, a), _query(sys_q, b)
    assert modified_length(sys_q, a, b) == modified_length_per_point_key(sys_q, a, b)


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
    ball = W.packed_ball(2, 3)
    # phi(e) = 0 pairs contribute nothing, and a grid of zeros names no pair
    assert defect_estimate(sys_t, W.pack([W.IDENTITY]), ball) == (0.0, None, 53)
    # the counting difference is antisymmetric: phi(g^-1) = -phi(g)
    for g in W.unpack(ball):
        assert tree_phi_exact(sys_t, W.inverse(g)) == -tree_phi_exact(sys_t, g)


def test_defect_frozen_at_radius3():
    sys_t = tree_system()
    ball = W.packed_ball(2, 3)
    report = defect_estimate(sys_t, ball, ball)
    assert report.value == 1.0


def test_defect_monotone_in_sample():
    sys_t = tree_system()
    small, large = W.packed_ball(2, 2), W.packed_ball(2, 3)
    assert (defect_estimate(sys_t, large, large).value
            >= defect_estimate(sys_t, small, small).value)


# base words that overlap themselves (aba, abab, aa, aaa) and ones that
# do not, at vertex basepoints that conjugate the counted letter sequence
PHI_CASES = [(sigma, x0) for sigma in ("aab", "aba", "abab", "aa", "abA", "aBab", "aaa")
             for x0 in ("", "b", "aB")]


@pytest.mark.parametrize("sigma,x0", PHI_CASES)
def test_packed_tree_phi_and_defect_grid_match_the_per_pair_route(sigma, x0):
    sys_t = ExpresswaySystem(TREE, FREE, sigma, basepoint=vertex(x0), ledger=LEDGER)
    phi = lambda w: tree_phi_str_count(sys_t, w)
    ball = W.packed_ball(2, 3)
    ws = W.unpack(ball)
    products = [W.multiply(g, h) for g in ws for h in ws]
    v = vertex(x0).anchor
    conjugates = W.pack([W.multiply(W.inverse(v), W.multiply(w, v)) for w in products])
    assert E._tree_phi_rows(sys_t, conjugates).tolist() == list(map(phi, products))
    assert [tree_phi_exact(sys_t, g) for g in ws] == list(map(phi, ws))
    assert (defect_estimate(sys_t, ball, ball)
            == defect_estimate_per_pair(phi, itertools.product(ws, ws)))


def test_defect_grid_of_zeros_names_no_pair():
    # phi((aab)^(m + n)) = m + n on the powers of sigma, so every defect is 0;
    # at the basepoint e each word is its own conjugate
    sys_t = tree_system()
    powers = W.pack([W.power(SIGMA, n) for n in range(6)])
    assert E._tree_phi_rows(sys_t, powers).tolist() == list(range(6))
    assert defect_estimate(sys_t, powers, powers) == (0.0, None, 36)


def test_defect_grid_keeps_the_first_best_pair_across_blocks(monkeypatch):
    # the radius-3 grid reaches its maximum 1 at many pairs: the first one
    # in g-major order is kept, also when each row of left is its own block
    sys_t = tree_system()
    ball = W.packed_ball(2, 3)
    pairs = list(itertools.product(W.unpack(ball), repeat=2))
    phi = lambda w: tree_phi_str_count(sys_t, w)
    ties = [(g, h) for g, h in pairs if abs(phi(W.multiply(g, h)) - phi(g) - phi(h)) == 1.0]
    assert len(ties) > 1
    for cells in (E._GRID_CELLS, 60, 1):
        monkeypatch.setattr(E, "_GRID_CELLS", cells)
        assert defect_estimate(sys_t, ball, ball) == (1.0, ties[0], len(pairs))


def test_defect_off_the_tree_matches_the_per_pair_route():
    cfg = load_config(str(REPO / "configs" / "half_plane.json"))
    sys_h = cfg.system()
    ws = random_words(2, 5, 6, 2)
    report = defect_estimate(sys_h, W.pack(ws[:3]), W.pack(ws[3:]))
    oracle = defect_estimate_per_pair(lambda w: phi_sigma(sys_h, w),
                                      itertools.product(ws[:3], ws[3:]))
    assert report == oracle and report.value > 0.0


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
    assert homogenize(sys_h, "a", 1)[0] == phi_sigma(sys_h, "a")
