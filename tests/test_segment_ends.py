"""The segment-ends routes against their per-sample references.

``spaces.check_ft``, ``wpd.sampled_hausdorff`` and
``expressway.check_witness_confinement`` read the distance from a segment to
a convex set at the segment's two ends, where it peaks in a CAT(0) space.
The references in ``oracles`` walk the same segments every half unit of
arclength.
"""

from types import SimpleNamespace

import pytest

from catqm.contraction import ConstantLedger
from catqm.expressway import PathStep, check_witness_confinement
from catqm.samplers import ft_quads_random, random_point, rng_for
from catqm.spaces import (
    EuclideanSpace,
    HalfPlaneSpace,
    ProductSpace,
    TreeSpace,
    check_ft,
    tree_point,
)
from catqm.wpd import sampled_hausdorff

from oracles import (
    check_ft_per_sample,
    ft_quads_tree_exhaustive,
    sampled_hausdorff_per_sample,
    witness_confinement_per_sample,
)

TREE = TreeSpace(2)
HP = HalfPlaneSpace()
EU = EuclideanSpace(2)
PROD = ProductSpace(HP, EuclideanSpace(1))

# exact on the tree; closed-form projections elsewhere, golden section on
# the product
TOLERANCES = {"tree": 0.0, "half-plane": 1e-12, "euclidean": 1e-12, "product": 1e-7}


def _point(space, rng):
    if space.kind == "tree" and rng.random() < 0.5:
        # an edge point k/8 of the way along an edge: every tree distance is
        # then exact, so the routes agree bit for bit (at an arbitrary offset
        # the reference's recomputed end, point_at(length), can differ from
        # the end itself in the last bit)
        v = random_point(space, rng).anchor
        return tree_point(v, rng.choice((1, -1, 2, -2)), rng.randrange(1, 8) / 8)
    return random_point(space, rng)


def _segment_pairs(space, count=60):
    rng = rng_for(14, f"segment-ends-{space.kind}")
    pairs = []
    for i in range(count):
        a, b, c, d = (_point(space, rng) for _ in range(4))
        if i % 10 == 0:
            b = a                                   # zero-length
        if i % 10 == 5:
            d = c
        pairs.append((space.geodesic(a, b), space.geodesic(c, d)))
    if space is EU:
        # parallel, overlapping and disjoint in the direction of travel
        for (a, b), (c, d) in [(((0.0, 0.0), (4.0, 0.0)), ((1.0, 2.0), (6.0, 2.0))),
                               (((0.0, 0.0), (4.0, 0.0)), ((7.0, 1.0), (9.0, 1.0))),
                               (((0.0, 0.0), (4.0, 0.0)), ((4.0, 0.0), (0.0, 0.0)))]:
            pairs.append((EU.geodesic(a, b), EU.geodesic(c, d)))
    return pairs


def _confinement(check, space, seg, path):
    sys = SimpleNamespace(space=space, ledger=ConstantLedger(C=1.0, B=1.0))
    result = SimpleNamespace(path=tuple(PathStep(p, None) for p in path))
    return check(sys, result, seg.start, seg.end)


@pytest.mark.parametrize("space", [TREE, HP, EU, PROD], ids=lambda s: s.kind)
def test_segment_ends_match_the_per_sample_references(space):
    tol = TOLERANCES[space.kind]
    pairs = _segment_pairs(space)
    assert any(s.length == 0.0 for s, _ in pairs)
    if space is TREE:
        assert any(not p.is_vertex for s, _ in pairs for p in (s.start, s.end))
    for seg1, seg2 in pairs:
        assert abs(sampled_hausdorff(space, seg1, seg2)
                   - sampled_hausdorff_per_sample(space, seg1, seg2)) <= tol
        # a witness path from seg1's start through seg2's ends to seg1's end
        path = [seg1.start, seg2.start, seg2.end, seg1.end]
        ok, dev = _confinement(check_witness_confinement, space, seg1, path)
        ok_ref, dev_ref = _confinement(witness_confinement_per_sample, space, seg1, path)
        assert abs(dev - dev_ref) <= tol and ok is ok_ref


def _flagged(entries):
    return [(e["a"], e["b"], e["a2"], e["b2"]) for e in entries]


@pytest.mark.parametrize("C", [0.0, -0.5, -1.0])
def test_check_ft_flags_the_per_sample_quads_on_the_tree(C):
    ends = check_ft(TREE, ft_quads_tree_exhaustive(TREE, 4), C, 1e-9)
    ref = check_ft_per_sample(TREE, ft_quads_tree_exhaustive(TREE, 4), C, 1e-9)
    assert _flagged(ends) == _flagged(ref)
    assert (ends == []) is (C == 0.0)


@pytest.mark.parametrize("space,seed", [(HP, 6), (EU, 5)], ids=lambda s: getattr(s, "kind", s))
def test_check_ft_flags_the_per_sample_quads_off_the_tree(space, seed):
    C = -0.4
    ends = check_ft(space, ft_quads_random(space, seed, 200), C, 1e-9)
    ref = check_ft_per_sample(space, ft_quads_random(space, seed, 200), C, 1e-9)
    assert 0 < len(ends) < 200
    assert _flagged(ends) == _flagged(ref)
