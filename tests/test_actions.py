import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from catqm import words as W
from catqm.actions import GroupModel, Mat2, act, orbit_points
from catqm.errors import InputError, NumericError
from catqm.runner import load_config
from catqm.samplers import random_point, rng_for
from catqm.spaces import EuclideanSpace, HalfPlaneSpace, ProductSpace, TreeSpace, vertex

from oracles import ball_size

TREE = TreeSpace(2)
HP = HalfPlaneSpace()
LINE = EuclideanSpace(1)

FREE = GroupModel.free(2)
DIAG = GroupModel.matrix([[[2.0, 0.0], [0.0, 0.5]]])


def test_tree_action_examples():
    aab = FREE.from_word("aab")
    assert act(TREE, aab, vertex("")).anchor == W.from_string("aab")
    e = FREE.identity()
    assert act(TREE, e, vertex("ba")).anchor == W.from_string("ba")


def test_from_word_accepts_strings_tuples_and_isometries():
    g = DIAG.from_word("aa")
    assert DIAG.from_word((1, 1)) == g
    assert DIAG.from_word(g) is g


def test_tree_action_on_interior_points():
    from catqm.spaces import tree_point
    p = tree_point(W.from_string("a"), 2, 0.25)
    g = FREE.from_word("A")
    q = act(TREE, g, p)
    # edge a--ab maps to edge e--b; distance from the parent image stays 0.25
    assert TREE.distance(q, act(TREE, g, tree_point(W.from_string("a")))) == pytest.approx(0.25)
    assert TREE.distance(q, act(TREE, g, tree_point(W.from_string("ab")))) == pytest.approx(0.75)


def test_mobius_action():
    g = DIAG.from_word("a")
    assert abs(act(HP, g, 1j) - 4j) < 1e-12
    assert abs(act(HP, DIAG.inverse(g), 4j) - 1j) < 1e-12


def test_orbit_points():
    g = DIAG.from_word("a")
    orbit = orbit_points(HP, g, 1j, 2)
    assert [abs(z) for z in orbit] == pytest.approx([1.0, 4.0, 16.0])
    assert orbit_points(HP, g, 1j, 0) == [1j]
    tree_orbit = orbit_points(TREE, FREE.from_word("aab"), vertex(""), 2)
    assert tree_orbit[2].anchor == W.from_string("aabaab")


def test_actions_are_isometric():
    rng = rng_for(17, "iso")
    rot = GroupModel.matrix([[[math.cos(0.3), math.sin(0.3)],
                              [-math.sin(0.3), math.cos(0.3)]]])
    cases = [
        (TREE, FREE, "abA"),
        (HP, DIAG, "aa"),
        (HP, rot, "a"),
    ]
    for space, group, word in cases:
        g = group.from_word(word)
        for _ in range(25):
            x, y = random_point(space, rng), random_point(space, rng)
            assert space.distance(act(space, g, x), act(space, g, y)) == \
                pytest.approx(space.distance(x, y), abs=1e-9)


def test_action_is_homomorphism():
    rng = rng_for(23, "hom")
    shifts = GroupModel.translation([[1.0, 0.5], [-0.25, 2.0]])
    pairs = GroupModel.product(DIAG, GroupModel.translation([[1.5]]))
    for space, group in ((TREE, FREE), (HP, DIAG), (EuclideanSpace(2), shifts),
                         (ProductSpace(HP, LINE), pairs)):
        for _ in range(20):
            g = group.ball(2)[rng.randrange(len(group.ball(2)))]
            h = group.ball(2)[rng.randrange(len(group.ball(2)))]
            x = random_point(space, rng)
            lhs = act(space, group.multiply(g, h), x)
            rhs = act(space, g, act(space, h, x))
            assert space.distance(lhs, rhs) < 1e-9


def test_ball_counts_and_determinism():
    for r in range(5):
        assert len(FREE.ball(r)) == ball_size(2, r)
    b1 = [g.word for g in DIAG.ball(3)]
    b2 = [g.word for g in DIAG.ball(3)]
    assert b1 == b2


def test_determinant_renormalization():
    g = DIAG.from_word("a")
    prod = DIAG.identity()
    for _ in range(200):
        prod = DIAG.multiply(prod, g)
        assert abs(prod.action.det() - 1.0) < 1e-9


def _exact_image_of_i(generators, word):
    """Image of i under the exact Fraction product of the word's matrices."""
    gens = [[[Fraction(x) for x in row] for row in m] for m in generators]
    a, b, c, d = Fraction(1), Fraction(0), Fraction(0), Fraction(1)
    for x in W.from_string(word):
        (p, q), (r, s) = gens[abs(x) - 1]
        if x < 0:
            p, q, r, s = s, -q, -r, p
        a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
    # (a i + b) / (c i + d) with real and imaginary parts kept exact
    den = c * c + d * d
    return complex(float((b * d + a * c) / den), float((a * d - b * c) / den))


def test_long_mixed_words_keep_their_mobius_map():
    # BAA^16 and 40 seeded mixed words of 48-64 letters: their entries reach
    # ~1e11 and more, so ad - bc carries rounding far larger than 1, of
    # either sign; the Mobius map does not depend on the matrix scale
    cfg = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "half_plane.json"))
    rng = random.Random(48)
    words = ["BAA" * 16]
    while len(words) < 41:
        w = []
        for _ in range(rng.randint(48, 64)):
            w.append(rng.choice([x for x in (1, -1, 2, -2) if not w or x != -w[-1]]))
        words.append(W.to_string(tuple(w)))
    for word in words:
        z = act(HP, cfg.group.from_word(word), 1j)
        exact = _exact_image_of_i(cfg.raw["group"]["generators"], word)
        assert abs(z - exact) <= 1e-9 * abs(exact), word


def test_resolved_nonpositive_determinant_still_raises():
    with pytest.raises(NumericError):
        Mat2(1.0, 2.0, 3.0, 4.0).renormalized()


def test_translation_and_product_actions():
    trans = GroupModel.translation([[1.0]])
    assert act(LINE, trans.from_word("aaa"), (0.0,)) == (3.0,)
    P = ProductSpace(HP, LINE)
    PG = GroupModel.product(DIAG, trans)
    g = PG.from_word("a")
    out = act(P, g, (1j, (0.0,)))
    assert abs(out[0] - 4j) < 1e-12 and out[1] == (1.0,)


def test_kind_mismatch_rejected():
    g = DIAG.from_word("a")
    with pytest.raises(InputError):
        act(TREE, g, vertex(""))


def test_free_isometries_are_rejected_on_euclidean_points():
    # the identity's empty word must not pass for a translation
    for word in ("", "ab"):
        with pytest.raises(InputError):
            act(EuclideanSpace(2), FREE.from_word(word), (1.0, 2.0))


def test_free_isometries_are_rejected_on_product_points():
    for word in ("", "ab"):
        with pytest.raises(InputError):
            act(ProductSpace(HP, LINE), FREE.from_word(word), (1j, (0.0,)))
    # factor actions must match the factors, in order
    g = GroupModel.product(DIAG, GroupModel.translation([[1.0]])).from_word("a")
    with pytest.raises(InputError):
        act(ProductSpace(LINE, HP), g, ((0.0,), 1j))


def test_matrix_generator_must_be_unimodular():
    with pytest.raises(InputError):
        GroupModel.matrix([[[2.0, 0.0], [0.0, 2.0]]])


def test_translation_rejects_points_of_another_dimension():
    g = GroupModel.translation([[1.0]]).from_word("a")
    with pytest.raises(InputError):
        act(EuclideanSpace(2), g, (0.0, 0.0))


def test_translation_generators_share_one_dimension():
    with pytest.raises(InputError):
        GroupModel.translation([[1.0], [1.0, 2.0]])
