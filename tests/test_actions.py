import math
import random
import struct
from fractions import Fraction
from pathlib import Path

import pytest

from catqm import words as W
from catqm.actions import (
    RENORM_EVERY,
    DET_TOL,
    FactorPair,
    GroupModel,
    Mat2,
    Translation,
    act,
    image_points,
    orbit_points,
)
from catqm.errors import InputError, NumericError
from catqm.runner import load_config
from catqm.samplers import random_point, rng_for
from catqm.spaces import EuclideanSpace, HalfPlaneSpace, ProductSpace, TreeSpace, vertex

from oracles import ball_per_letter, ball_size

TREE = TreeSpace(2)
HP = HalfPlaneSpace()
LINE = EuclideanSpace(1)

FREE = GroupModel.free(2)
DIAG = GroupModel.matrix([[[2.0, 0.0], [0.0, 0.5]]])
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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


# -- the packed ball builder against per-letter composition -------------------

def bits(x) -> tuple:
    """The bit pattern of every float of a number or a point, so that -0.0
    and 0.0 differ; anything else (a tree point) as it is."""
    if isinstance(x, float):
        return (struct.pack("<d", x),)
    if isinstance(x, complex):
        return bits(x.real) + bits(x.imag)
    if isinstance(x, tuple):
        return sum(map(bits, x), ())
    return (x,)


def action_bits(a) -> tuple:
    """Every float of an action, bit for bit, and its product counters."""
    if isinstance(a, Mat2):
        assert type(a.products) is int
        return bits((a.a, a.b, a.c, a.d)) + (a.products,)
    if isinstance(a, Translation):
        return bits(a.vector)
    if isinstance(a, FactorPair):
        return action_bits(a.left) + action_bits(a.right)
    return (a.word,)


def shipped_groups() -> list[GroupModel]:
    hp, eu = (load_config(str(CONFIGS / f"{name}.json")).group
              for name in ("half_plane", "euclidean_control"))
    return [hp, eu, GroupModel.product(hp, eu), FREE]


def rotated_pair(L: float, theta: float) -> list[Mat2]:
    """diag(L, 1/L) and its conjugate by the rotation through theta: words
    of both reach entries near L^radius, where ad - bc drifts."""
    c, s = math.cos(theta), math.sin(theta)
    off = c * s * (L - 1.0 / L)
    return [Mat2(L, 0.0, 0.0, 1.0 / L),
            Mat2(c * c * L + s * s / L, off, off, s * s * L + c * c / L)]


def renormalizations(group: GroupModel, radius: int) -> set[str]:
    """Which branches of ``Mat2.compose`` the per-letter ball takes: the
    product count, a drifted determinant above 0, or one at most 0 that is
    kept."""
    seen = set()
    acts = {g.word: g.action for g in ball_per_letter(group, radius)}
    for w in acts:
        if not w:
            continue
        p, o = acts[w[:-1]], group._letter(w[-1])
        m = Mat2(p.a * o.a + p.b * o.c, p.a * o.b + p.b * o.d,
                 p.c * o.a + p.d * o.c, p.c * o.b + p.d * o.d, p.products + o.products + 1)
        if m.products >= RENORM_EVERY:
            seen.add("count")
        elif abs(m.det() - 1.0) > DET_TOL:
            seen.add("drift" if m.det() > 0.0 else "kept")
    return seen


@pytest.mark.parametrize("radius", range(7))
def test_packed_ball_is_the_per_letter_ball_bit_for_bit(radius):
    for group in shipped_groups():
        got, want = group.ball(radius), ball_per_letter(group, radius)
        assert [g.word for g in got] == [g.word for g in want]
        assert list(map(action_bits, (g.action for g in got))) == \
            list(map(action_bits, (g.action for g in want)))


def test_packed_ball_renormalizes_as_compose_does():
    # entries near 100^5 make ad - bc drift both ways; letters that carry a
    # product count reach RENORM_EVERY at the second letter
    drifting = GroupModel(Mat2(1.0, 0.0, 0.0, 1.0), rotated_pair(100.0, 0.7))
    counted = GroupModel(Mat2(1.0, 0.0, 0.0, 1.0),
                         [Mat2(m.a, m.b, m.c, m.d, 10) for m in rotated_pair(1.5, 0.3)])
    assert renormalizations(drifting, 5) == {"drift", "kept"}
    assert "count" in renormalizations(counted, 3)
    for group, radius in ((drifting, 6), (counted, 6)):
        got, want = group.ball(radius), ball_per_letter(group, radius)
        assert list(map(action_bits, (g.action for g in got))) == \
            list(map(action_bits, (g.action for g in want)))


def test_packed_ball_raises_where_compose_raises():
    # a determinant -1 letter: its first product is no renormalizable matrix
    flip = GroupModel(Mat2(1.0, 0.0, 0.0, 1.0), rotated_pair(2.0, 0.3)[:1]
                      + [Mat2(0.0, 1.0, 1.0, 0.0)])
    with pytest.raises(NumericError) as want:
        ball_per_letter(flip, 2)
    with pytest.raises(NumericError) as got:
        flip.ball(2)
    assert str(got.value) == str(want.value)


def test_ball_images_are_act_bit_for_bit():
    rng = random.Random(30)
    spaces = [HP, EuclideanSpace(2), ProductSpace(HP, EuclideanSpace(2)), TREE]
    for group, space in zip(shipped_groups(), spaces):
        ball = ball_per_letter(group, 5)
        sigma = group.from_word("aB")
        points = [space.basepoint()] + [random_point(space, rng) for _ in range(6)]
        if space is HP:
            # points on the imaginary axis and far out, where signs of zero show
            points += [0.5j, complex(-0.0, 3.0), complex(1e6, 1e-6)]
        words, images = group.ball_images(space, 5, points)
        assert W.unpack(words) == [g.word for g in ball]
        _, after = group.ball_images(space, 5, points, sigma)
        for x, moved, moved_after in zip(points, images, after):
            assert list(map(bits, image_points(moved))) == \
                [bits(act(space, g, x)) for g in ball]
            assert list(map(bits, image_points(moved_after))) == \
                [bits(act(space, group.multiply(g, sigma), x)) for g in ball]


def test_ball_images_check_the_space_and_the_pole():
    with pytest.raises(InputError):
        DIAG.ball_images(TREE, 2, [vertex("")])
    with pytest.raises(InputError):
        GroupModel.translation([[1.0]]).ball_images(EuclideanSpace(2), 1, [(0.0, 0.0)])
    # the pole of z -> 1 / (-z + 1), like apply
    pole = GroupModel(Mat2(1.0, 0.0, 0.0, 1.0), [Mat2(0.0, 1.0, -1.0, 1.0)])
    with pytest.raises(NumericError):
        pole.from_word("a").action.apply(1.0)
    with pytest.raises(NumericError):
        pole.ball_images(HP, 1, [1.0])
