import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catqm import words as W
from catqm.contraction import _shadows
from catqm.errors import InputError, NumericError
from catqm.samplers import (
    dd_triples_random,
    ft_quads_random,
    random_point,
    rng_for,
)
from catqm.spaces import (
    EuclideanSpace,
    HalfPlaneSpace,
    ProductSpace,
    TreeSpace,
    _convex_project,
    _convex_segment_distance,
    check_dd,
    check_ft,
    tree_point,
    vertex,
)

from oracles import (
    bfs_projection_oracle,
    dd_triples_tree_exhaustive,
    ft_quads_tree_exhaustive,
)

TREE = TreeSpace(2)
HP = HalfPlaneSpace()
EU = EuclideanSpace(2)
LINE = EuclideanSpace(1)


# ---------------------------------------------------------------------------
# distances and geodesics
# ---------------------------------------------------------------------------

def test_tree_distance_examples():
    assert TREE.distance(vertex("ab"), vertex("a")) == 1
    assert TREE.distance(vertex(""), vertex("aab")) == 3
    assert TREE.distance(vertex("ba"), vertex("bb")) == 2


def test_halfplane_distance_closed_form():
    assert HP.distance(1j, 4j) == pytest.approx(math.log(4), abs=1e-12)
    # arccosh(1 + |z-w|^2 / (2 Im z Im w)) evaluated symbolically
    z, w = 1 + 1j, 1j * math.sqrt(2)
    expected = math.acosh(1 + abs(z - w) ** 2 / (2 * z.imag * w.imag))
    assert HP.distance(z, w) == pytest.approx(expected, abs=1e-12)


def test_product_distance():
    P = ProductSpace(TREE, LINE)
    d = P.distance((vertex(""), (0.0,)), (vertex("a"), (1.0,)))
    assert d == pytest.approx(math.sqrt(2), abs=1e-12)


def test_geodesic_endpoints_and_length():
    g = TREE.geodesic(vertex(""), vertex("ab"))
    assert g.point_at(0).anchor == ()
    assert g.point_at(1).anchor == W.from_string("a")
    assert g.point_at(g.length).anchor == W.from_string("ab")

    gh = HP.geodesic(1j, 4j)
    assert abs(gh.point_at(math.log(2)) - 2j) < 1e-9

    ge = EU.geodesic((0.0, 0.0), (3.0, 4.0))
    assert ge.length == pytest.approx(5.0)


def test_halfplane_arc_geodesic():
    # both endpoints on the unit circle: the geodesic is that semicircle
    a = complex(-0.6, 0.8)
    b = complex(0.6, 0.8)
    seg = HP.geodesic(a, b)
    for s in (0.0, seg.length / 3, seg.length / 2, seg.length):
        z = seg.point_at(s)
        assert abs(abs(z) - 1.0) < 1e-9


@pytest.mark.parametrize("dre", [1e-4, 1e-7, 1e-9, 1e-11])
def test_halfplane_nearly_vertical_geodesic_keeps_its_digits(dre):
    # an arc through two points whose real parts nearly agree has a huge
    # centre and radius; its endpoints and length must not cancel away
    a, b = 0.3 + 1j, 0.3 + dre + 5j
    seg = HP.geodesic(a, b)
    assert abs(seg.point_at(0) - a) <= 1e-12
    assert abs(seg.point_at(seg.length) - b) <= 1e-12
    assert abs(seg.length - HP.distance(a, b)) <= 1e-12


def test_segment_is_isometric_embedding():
    cases = [
        (TREE, vertex("bA"), vertex("aab")),
        (HP, 0.5 + 0.7j, -2 + 3j),
        (EU, (-1.0, 2.0), (4.0, -1.0)),
        (ProductSpace(HP, LINE), (1j, (0.0,)), (4j, (2.0,))),
    ]
    for space, a, b in cases:
        seg = space.geodesic(a, b)
        params = [seg.length * k / 7 for k in range(8)]
        for s in params:
            for t in params:
                d = space.distance(seg.point_at(s), seg.point_at(t))
                assert d == pytest.approx(abs(s - t), abs=1e-8)


def test_tree_interior_endpoint_geodesics():
    a = tree_point(W.from_string("a"), 2, 0.5)       # midpoint of edge a--ab
    b = tree_point(W.from_string("b"), 2, 0.25)      # quarter point of b--bb
    seg = TREE.geodesic(a, b)
    assert seg.length == pytest.approx(TREE.distance(a, b))
    assert TREE.distance(seg.point_at(0), a) == 0
    assert TREE.distance(seg.point_at(seg.length), b) == 0
    mid = seg.point_at(seg.length / 2)
    assert TREE.distance(a, mid) == pytest.approx(seg.length / 2)


def test_tree_same_edge_segment():
    a = tree_point((), 1, 0.25)
    b = tree_point((), 1, 0.75)
    seg = TREE.geodesic(a, b)
    assert seg.length == pytest.approx(0.5)
    assert TREE.distance(seg.point_at(0.25), tree_point((), 1, 0.5)) == pytest.approx(0.0)


def _seeded_tree_point(rng, t):
    """A point on a random edge at offset t (from the edge's shorter end)
    of a random anchor of length at most 3."""
    anchor = ()
    for _ in range(rng.randrange(4)):
        anchor += (rng.choice([x for x in (1, -1, 2, -2)
                               if not anchor or x != -anchor[-1]]),)
    letter = rng.choice([x for x in (1, -1, 2, -2) if not anchor or x != -anchor[-1]])
    return tree_point(anchor, letter, t)


def _walk_case(seg, s):
    if seg._same_edge:
        return "same edge"
    if s < seg.lead:
        return "first edge"
    return "chain" if s <= seg.lead + len(seg.chain) - 1 else "last edge"


def test_tree_point_at_walks_each_case_isometrically():
    rng = random.Random(2611)
    seen = set()
    for _ in range(400):
        a, b = (_seeded_tree_point(rng, rng.choice([0.3, 0.7, rng.random()]))
                for _ in range(2))
        if rng.random() < 0.1:   # a second point on a's edge
            b = tree_point(a.anchor, a.letter, rng.random())
        seg = TREE.geodesic(a, b)
        assert TREE.point_key(seg.point_at(0)) == TREE.point_key(a)
        assert TREE.point_key(seg.point_at(seg.length)) == TREE.point_key(b)
        for s in [seg.length * k / 13 for k in range(14)]:
            seen.add(_walk_case(seg, s))
            p = seg.point_at(s)
            assert abs(TREE.distance(a, p) - s) <= 1e-12
            assert abs(TREE.distance(p, b) - (seg.length - s)) <= 1e-12
    assert seen == {"first edge", "chain", "last edge", "same edge"}


def test_tree_point_at_just_past_the_last_chain_vertex():
    # u - k = 1e-12 passed the chain test u <= k + eps but not the vertex
    # snap, so the chain walk read chain[k + 1] and raised IndexError
    seg = TREE.geodesic(tree_point((), 1, 0.3), tree_point((2, 2), 2, 0.7))
    s = seg.lead + len(seg.chain) - 1 + 1e-12
    p = seg.point_at(s)
    assert abs(TREE.distance(seg.start, p) - s) <= 1e-12
    assert abs(TREE.distance(p, seg.end) - (seg.length - s)) <= 1e-12


def test_tree_ball_on_its_floor_boundary():
    # radius = k + cost puts the vertices at distance exactly the radius on
    # the floor ⌊radius − cost⌋ = k; the ball and its shadow must keep them
    rng = random.Random(2612)
    for _ in range(40):
        center = _seeded_tree_point(rng, rng.choice([0.3, 0.7, rng.random()]))
        seg = TREE.geodesic(*(_seeded_tree_point(rng, 0.3) for _ in range(2)))
        for k in (0, 1, 2):
            for cost in (center.t, 1.0 - center.t):
                radius = k + cost
                pts = TREE.ball_points(center, radius)
                assert max(TREE.distance(center, p) for p in pts) == pytest.approx(radius)
                per_point = [TREE.project(p, seg).parameter for p in pts]
                assert TREE.projections(pts, seg)[0].tolist() == per_point
                assert list(_shadows(TREE, seg, [(center, radius)], 64)) == [
                    max(per_point) - min(per_point)]


@pytest.mark.parametrize("rank, center, top", [
    (2, vertex(""), 3),
    (2, vertex("aB"), 3),
    (2, tree_point(W.from_string("a"), 2, 0.25), 3),
    (2, tree_point(W.IDENTITY, -2, 0.5), 3),
    (2, tree_point(W.from_string("Ba"), 1, 1.0 / 3.0), 2),
    (3, vertex("c"), 2),
    (3, tree_point(W.IDENTITY, 3, 0.3), 2),
    (3, tree_point(W.from_string("C"), -2, 0.7), 2),
], ids=["e", "aB", "a-b", "e-B", "Ba-a", "rank3-c", "rank3-e-c", "rank3-C-B"])
def test_tree_ball_points_equal_a_brute_force_filter(rank, center, top):
    # every vertex near the center, kept by its distance: the set, and the
    # order (length, word) after an edge-point center
    space = TreeSpace(rank)
    costs = [0.0] if center.is_vertex else [center.t, 1.0 - center.t]
    search = W.ball(rank, len(center.anchor) + top + 2)
    dist = [space.distance(center, vertex(w)) for w in search]
    for k in range(top + 1):
        for radius in {r for cost in costs
                       for r in (k + cost, k + cost - 1e-12, k + cost - 1e-6)}:
            inside = [w for w, d in zip(search, dist) if d <= radius + 1e-9]
            want = [vertex(w) for w in sorted(inside, key=lambda w: (len(w), w))]
            if not center.is_vertex:
                want.insert(0, center)
            assert space.ball_points(center, radius) == want


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def test_tree_projection_example():
    seg = TREE.geodesic(vertex(""), vertex("aa"))
    pr = TREE.project(vertex("ba"), seg)
    assert pr.point.anchor == ()
    assert pr.distance == 2.0
    # exhaustive scan agrees
    d, p, s = bfs_projection_oracle(TREE, vertex("ba"), seg)
    assert d == pr.distance


def test_tree_gromov_products_of_packed_vertices_match_project_bit_for_bit():
    # the packed tree routes (the runner's axiom passes, the wpd and equiv
    # searches) read projections onto vertex-ended segments as Gromov
    # products of packed word distances; those are integers, so the foot and
    # the gap are exactly what project returns
    rng = random.Random(2613)
    xs = W.packed_ball(2, 4)
    words = W.unpack(xs)
    clamped = set()
    for _ in range(60):
        a, b = (rng.choice(words) for _ in range(2))
        seg = TREE.geodesic(vertex(a), vertex(b))
        da, db = W.packed_distances(xs, W.pack([a, b])).T
        t = W.gromov_foot(da, db, len(W.multiply(W.inverse(a), b)))
        d = W.gromov_gap(da, db, seg.length)
        for w, ti, di in zip(words, t.tolist(), d.tolist()):
            pr = TREE.project(vertex(w), seg)
            assert (float(ti).hex(), di.hex()) == (pr.parameter.hex(), pr.distance.hex())
            if 0.0 < seg.length and ti in (0.0, seg.length):
                clamped.add(ti == 0.0)
    assert clamped == {True, False}


def test_halfplane_projection_onto_axis():
    # nearest point of the vertical axis to z is i |z|
    seg = HP.geodesic(0.5j, 4j)
    pr = HP.project(1 + 1j, seg)
    assert abs(pr.point - 1j * math.sqrt(2)) < 1e-6
    d, p, s = bfs_projection_oracle(HP, 1 + 1j, seg, step=1e-3)
    assert pr.distance == pytest.approx(d, abs=1e-5)


def test_euclidean_projection():
    pr = EU.project((1.0, 1.0), EU.geodesic((0.0, 0.0), (2.0, 0.0)))
    assert pr.distance == pytest.approx(1.0, abs=1e-8)
    assert pr.point[0] == pytest.approx(1.0, abs=1e-6)


def test_projection_idempotent_and_reversal_stable():
    rng = rng_for(42, "proj")
    for space in (TREE, HP, EU, ProductSpace(HP, LINE)):
        for _ in range(20):
            a, b, x = (random_point(space, rng) for _ in range(3))
            if space.distance(a, b) < 0.5:
                continue
            seg = space.geodesic(a, b)
            p1 = space.project(x, seg)
            p2 = space.project(p1.point, seg)
            assert space.distance(p1.point, p2.point) < 1e-6
            # projections found from the two orientations agree within the
            # projection-set diameter bound
            pr = space.project(x, space.geodesic(seg.end, seg.start))
            assert space.distance(p1.point, pr.point) < max(space.dd_constant, 1e-6)


def _closed_form_cases(space, seed, count):
    """Seeded (segment, point) cases: each segment is a piece [s0, s1] of a
    longer geodesic, so points on the segment and past either end lie on its
    geodesic; every tenth segment has length 0 and on the half-plane every
    fourth is vertical."""
    rng = rng_for(seed, "closed-form")
    out = []
    for i in range(count):
        a, b = random_point(space, rng), random_point(space, rng)
        if space is HP and i % 4 == 0:
            b = complex(a.real, b.imag)
        line = space.geodesic(a, b)
        s0, s1 = sorted(rng.uniform(0.0, line.length) for _ in range(2))
        if i % 10 == 0:
            s1 = s0
        seg = space.geodesic(line.point_at(s0), line.point_at(s1))
        where = (rng.uniform(s0, s1), rng.uniform(0.0, s0),
                 rng.uniform(s1, line.length), None, None)[i % 5]
        x = random_point(space, rng) if where is None else line.point_at(where)
        out.append((seg, x))
    return out


@pytest.mark.parametrize("space", [HP, EU], ids=lambda s: s.kind)
def test_closed_form_projections_match_golden_section(space):
    cases = _closed_form_cases(space, 61, 2000)
    assert any(seg.length == 0.0 for seg, _ in cases)
    if space is HP:
        assert {seg._k == 0.0 for seg, _ in cases} == {True, False}
    for seg, x in cases:
        pr = space.project(x, seg)
        gs = _convex_project(space, x, seg)
        # golden section only resolves the minimum of d(x, .) where it is
        # flatter than rounding, which widens with the distance in the plane
        assert abs(pr.parameter - gs.parameter) <= 1e-7 * max(1.0, seg.length, pr.distance)
        assert abs(pr.distance - gs.distance) <= 1e-9
        # nearest point, with no oracle: nothing on a grid of the segment is closer
        grid = min(space.distance(x, seg.point_at(seg.length * k / 200))
                   for k in range(201))
        assert grid >= pr.distance - 1e-12


@pytest.mark.parametrize("space", [HP, EU], ids=lambda s: s.kind)
def test_ball_parameters_match_per_point_projections(space):
    # the projection parameters of the ``ball_points`` whose shadow a
    # contraction certificate measures, and that shadow itself
    for seg, center in _closed_form_cases(space, 62, 200):
        d = space.project(center, seg).distance
        radius = 0.75 * d if d > 0.0 else 0.5
        params = space.projections(space.ball_points(center, radius, 64), seg)[0]
        per_point = [space.project(p, seg).parameter
                     for p in space.ball_points(center, radius, 64)]
        assert params.shape == (len(per_point),)
        assert max(abs(params - per_point)) <= 1e-12
        (shadow,) = _shadows(space, seg, [(center, radius)], 64)
        assert abs(shadow - (max(per_point) - min(per_point))) <= 2e-12


@pytest.mark.parametrize("space", [TREE, HP, EU, ProductSpace(HP, LINE)],
                         ids=lambda s: type(s).__name__)
def test_projections_match_per_point_project(space):
    # every case's point on every case's segment: zero-length segments,
    # vertical half-plane geodesics and points past both ends
    cases = _closed_form_cases(space, 64, 12 if space.kind == "product" else 60)
    points = [x for _, x in cases]
    assert any(seg.length == 0.0 for seg, _ in cases)
    if space is HP:
        assert {seg._k == 0.0 for seg, _ in cases} == {True, False}
    past = set()
    for seg, _ in cases:
        params, dists = space.projections(points, seg)
        assert params.dtype == dists.dtype == np.float64
        per_point = [space.project(p, seg) for p in points]
        assert max(abs(params - [r.parameter for r in per_point])) <= 1e-12
        assert max(abs(dists - [r.distance for r in per_point])) <= 1e-12
        if seg.length > 0.0:
            past.update("start" if t < seg.length / 2 else "end" for t in params
                        if min(t, seg.length - t) <= 1e-6)
        empty = space.projections([], seg)
        assert [a.shape for a in empty] == [(0,), (0,)]
    assert past == {"start", "end"}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_projections_raise_where_project_raises():
    P = ProductSpace(HP, LINE)
    hp_seg = HP.geodesic(1j, 2 + 1j)
    eu_seg = EU.geodesic((0.0, 0.0), (1.0, 1.0))
    p_seg = P.geodesic((1j, (0.0,)), (2j, (1.0,)))
    nan, inf = float("nan"), float("inf")
    off_space = [(HP, hp_seg, 1 - 2j), (HP, hp_seg, complex(0.0, nan)),
                 (HP, hp_seg, complex(inf, 1.0)), (EU, eu_seg, (nan, 0.0)),
                 (EU, eu_seg, (1.0,)), (EU, eu_seg, (1.0, 2.0, 3.0)),
                 (P, p_seg, (1 - 2j, (0.0,))), (P, p_seg, (1j, (inf,)))]
    for space, seg, bad in off_space:
        with pytest.raises(InputError):
            space.project(bad, seg)
        with pytest.raises(InputError):
            space.projections([seg.start, bad], seg)
    # segments whose normal form overflows: a NaN distance is an error
    overflowing = [(HP, HP.geodesic(1e150 + 1j, -1e150 + 1j), 1j),
                   (EU, EU.geodesic((-1e308, 0.0), (1e308, 0.0)), (1e308, 0.0))]
    for space, seg, x in overflowing:
        with pytest.raises(NumericError):
            space.project(x, seg)
        with pytest.raises(NumericError):
            space.projections([x], seg)


def test_euclidean_segment_distance_matches_golden_section():
    cases = _closed_form_cases(EU, 63, 2000)
    for (s1, _), (s2, _) in zip(cases, cases[1:] + cases[:1]):
        exact = EU.segment_distance(s1, s2)
        assert abs(exact - _convex_segment_distance(EU, s1, s2)) <= 1e-7
        assert exact == pytest.approx(EU.segment_distance(s2, s1), abs=1e-12)
    # crossing segments meet; parallel ones are apart by their offset
    assert EU.segment_distance(EU.geodesic((-1.0, 0.0), (1.0, 0.0)),
                               EU.geodesic((0.0, -1.0), (0.0, 1.0))) == 0.0
    assert EU.segment_distance(EU.geodesic((0.0, 0.0), (4.0, 0.0)),
                               EU.geodesic((1.0, 2.0), (3.0, 2.0))) == 2.0


def test_product_projection_is_not_factorwise():
    P = ProductSpace(EU, LINE)
    seg = P.geodesic(((0.0, 0.0), (0.0,)), ((10.0, 0.0), (10.0,)))
    x = ((5.0, 3.0), (0.0,))
    pr = P.project(x, seg)
    # combined minimization balances the two factors: parameter sits between
    # the pure-left optimum and the pure-right optimum
    left_opt = 5.0 * math.sqrt(2)
    right_opt = 0.0
    assert right_opt < pr.parameter < left_opt
    d, p, s = bfs_projection_oracle(P, x, seg, step=1e-3)
    assert pr.distance == pytest.approx(d, abs=1e-5)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_point_validation():
    with pytest.raises(InputError):
        HP.validate_point(1 - 2j)
    with pytest.raises(InputError):
        TREE.validate_point(tree_point((1, -1)))
    with pytest.raises(InputError):
        EU.validate_point((1.0,))
    with pytest.raises(InputError):
        TREE.validate_point(tree_point((3,)))   # rank 2


def test_point_json_round_trip():
    P = ProductSpace(TREE, HP)
    pts = [
        (TREE, tree_point(W.from_string("aB"), 1, 0.5)),
        (HP, 1.5 + 0.25j),
        (EU, (3.0, -2.0)),
        (P, (vertex("ab"), 2 + 1j)),
    ]
    for space, p in pts:
        back = space.point_from_json(space.point_to_json(p))
        assert space.distance(p, back) < 1e-12


@pytest.mark.parametrize("space,data", [
    (HP, "12"), (HP, [0.5, 2.0, 9.0]), (HP, [1.0]), (HP, [True, 1.0]),
    (HP, ["0", "1"]), (HP, {"x": 0.0, "y": 1.0}), (HP, [0.0, 10 ** 400]),
    (EU, "12"), (EU, [1.0, 2.0, 3.0]), (EU, [1.0]), (EU, [None, 1.0]),
    (LINE, 1.0), (LINE, "1"), (LINE, [False]),
], ids=["hp-string", "hp-three", "hp-one", "hp-bool", "hp-strings", "hp-dict",
        "hp-huge-int", "eu-string", "eu-three", "eu-one", "eu-null",
        "line-scalar", "line-string", "line-bool"])
def test_point_from_json_refuses_malformed_points(space, data):
    # a string once read as its characters ("12" as (1.0, 2.0)), and extra
    # half-plane coordinates were dropped
    with pytest.raises(InputError):
        space.point_from_json(data)


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------

def test_dd_tree_exhaustive():
    violations = check_dd(TREE, dd_triples_tree_exhaustive(TREE, 3, 2), C=1.0)
    assert violations == []


def test_dd_euclidean_random():
    violations = check_dd(EU, dd_triples_random(EU, 11, 500), C=0.0,
                          tolerance=1e-9)
    assert violations == []


def test_dd_negative_constant_is_violated():
    seg = EU.geodesic((0.0, 0.0), (2.0, 0.0))
    x = (1.0, 1.0)
    violations = check_dd(EU, [(seg, x, x)], C=-1.0)
    assert violations, "degenerate equal points must violate a negative slack"


def test_ft_tree_exhaustive():
    violations = check_ft(TREE, ft_quads_tree_exhaustive(TREE, 4), C=0.0,
                          tolerance=1e-9)
    assert violations == []


def test_ft_euclidean_and_halfplane():
    assert check_ft(EU, ft_quads_random(EU, 5, 100), C=0.0, tolerance=1e-9) == []
    assert check_ft(HP, ft_quads_random(HP, 6, 100), C=0.0, tolerance=1e-6) == []


def test_dd_halfplane_random():
    assert check_dd(HP, dd_triples_random(HP, 8, 200), C=1.0, tolerance=1e-6) == []


# ---------------------------------------------------------------------------
# metric sanity, property based
# ---------------------------------------------------------------------------

coords = st.floats(min_value=-5, max_value=5, allow_nan=False)
heights = st.floats(min_value=0.1, max_value=5, allow_nan=False)
hp_points = st.builds(complex, coords, heights)


@settings(max_examples=60, deadline=None)
@given(hp_points, hp_points, hp_points)
def test_halfplane_triangle_inequality(x, y, z):
    assert HP.distance(x, z) <= HP.distance(x, y) + HP.distance(y, z) + 1e-9


@settings(max_examples=60, deadline=None)
@given(hp_points, hp_points)
def test_halfplane_symmetry_and_separation(x, y):
    assert HP.distance(x, y) == pytest.approx(HP.distance(y, x), abs=1e-12)
    if x != y:
        assert HP.distance(x, y) > 0


def test_pairwise_distance_matrices_agree():
    rng = rng_for(3, "pairwise")
    for space in (TREE, HP, EU, ProductSpace(TREE, LINE)):
        pts = [random_point(space, rng) for _ in range(12)]
        mat = space.pairwise_distances(pts)
        for i in range(len(pts)):
            for j in range(len(pts)):
                assert mat[i, j] == pytest.approx(
                    space.distance(pts[i], pts[j]), abs=1e-9)


def test_tree_segment_distance_matches_scan():
    rng = rng_for(9, "segdist")
    for _ in range(30):
        a, b, c, d = (random_point(TREE, rng) for _ in range(4))
        s1 = TREE.geodesic(a, b)
        s2 = TREE.geodesic(c, d)
        exact = TREE.segment_distance(s1, s2)
        # dense scan of d(., s2) along s1
        n = max(1, int(s1.length * 4))
        scan = min(TREE.project(s1.point_at(s1.length * i / n), s2).distance
                   for i in range(n + 1))
        assert exact == pytest.approx(scan, abs=1e-9)


# The surface every model space offers.  Each class defines it in its own
# class dict: there is no base class to inherit from, and the benchmark's
# tracer wraps only the methods a space class defines itself.
SPACE_METHODS = ("distance", "geodesic", "project", "projections", "segment_distance",
                 "ball_points", "pairwise_distances",
                 "point_key", "point_to_json", "point_from_json",
                 "validate_point", "basepoint")


@pytest.mark.parametrize("space", [TREE, HP, EU, ProductSpace(HP, LINE)],
                         ids=lambda s: type(s).__name__)
def test_every_space_defines_the_shared_surface(space):
    own = vars(type(space))
    assert isinstance(own.get("kind"), str)
    assert [m for m in SPACE_METHODS if not callable(own.get(m))] == []
    # set in __init__, so they live on the instance
    assert {"tol", "dd_constant"} <= vars(space).keys()
