import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from catqm import words as W
from catqm.algebra import (
    FiniteExtension,
    GElement,
    Quasimorphism,
    _ball_codes,
    _distinct_products,
    _orbit_representatives,
    _packed_powers,
    _power_class_codes,
    _twisted_products,
    brooks_qm,
    check_sigma_invariance,
    extension_defect,
    homogeneity_suite,
    homogeneous_brooks_qm,
    orbit_average,
    restriction_check,
    sigma_act,
    swap_extension,
    transfer_extend,
    word_length_qm,
)
from catqm.errors import BudgetError, InputError
from catqm.samplers import random_words

from oracles import (
    brooks_oracle,
    count_occurrences_overlapping,
    extension_defect_oracle,
    extension_multiply_oracle,
    homogeneous_brooks_oracle,
    perm_apply_oracle,
    perm_inverse_oracle,
    sigma_invariance_oracle,
    transfer_average_oracle,
)

AAB = W.from_string("aab")


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def test_brooks_examples():
    assert brooks_qm("aab")("aabaab") == 2
    assert brooks_qm("aab")("BAA") == -1
    assert brooks_qm("aab")("") == 0
    with pytest.raises(InputError):
        brooks_qm("")("ab")


def test_brooks_overlapping_counts():
    # aa occurs twice in aaa (overlapping)
    assert brooks_qm("aa")("aaa") == 2
    s = "aabaabaab"
    assert brooks_qm("aabaab")(s) == count_occurrences_overlapping("aabaab", s)


def test_brooks_antisymmetry():
    for g in random_words(2, 4, 30, 6):
        assert brooks_qm("aab")(W.inverse(g)) == -brooks_qm("aab")(g)


def test_brooks_defect_frozen():
    # regression: defect of the counting quasimorphism for a length-3 word
    # over exhaustive pairs of length <= 4 equals 1
    worst = 0
    ws = W.ball(2, 4)
    phi = brooks_qm("aab")
    vals = {g: phi(g) for g in ws}
    for g in ws:
        for h in ws:
            d = abs(phi(W.multiply(g, h)) - vals[g] - vals[h])
            worst = max(worst, d)
    assert worst == 1


def test_homogeneous_brooks_exact():
    phi = homogeneous_brooks_qm("aab")
    # exactly homogeneous and conjugation invariant
    for g in random_words(2, 9, 12, 4):
        base = phi(g)
        for n in (2, 3, 5):
            assert phi(W.power(g, n)) == n * base
        for h in random_words(2, 10, 4, 3):
            conj = W.multiply(W.multiply(h, g), W.inverse(h))
            assert phi(conj) == base
    assert phi(W.IDENTITY) == 0.0


def test_homogeneous_matches_power_limit():
    phi = brooks_qm("aab")
    hom = homogeneous_brooks_qm("aab")
    for g in random_words(2, 11, 10, 4):
        limit = phi(W.power(g, 96)) / 96
        exact = hom(g)
        assert abs(limit - exact) <= 1.0 / 96 + 1e-9


# ---------------------------------------------------------------------------
# the swap extension
# ---------------------------------------------------------------------------

def test_extension_group_law():
    ext = swap_extension()
    s = ext.section(1)
    assert ext.multiply(s, s) == ext.identity()
    h = ext.embed("aab")
    conj = ext.multiply(ext.multiply(ext.inverse(s), h), s)
    assert conj == ext.embed("bba")
    assert ext.conjugate_by_section(1, W.from_string("aab")) == W.from_string("bba")


@pytest.mark.parametrize("rank, perms", [
    (3, [(1, 2, 3), (2, 3, 1)]),     # not closed: (2,3,1)^2 = (3,1,2) missing
    (2, [(1, 2), (3, 1)]),           # 3 is not a generator of rank 2
    (2, [(1, 2), (2, 2)]),           # not a permutation
])
def test_extension_rejects_invalid_permutation_sets(rank, perms):
    with pytest.raises(InputError):
        FiniteExtension(rank, perms)


def test_extension_accepts_a_closed_cyclic_group():
    ext = FiniteExtension(3, [(1, 2, 3), (2, 3, 1), (3, 1, 2)])
    assert ext._mul == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    assert ext._inv == [0, 2, 1]
    assert ext.apply_auto(1, (1, -2, 3)) == (2, -3, 1)
    with pytest.raises(InputError):
        ext.apply_auto(1, (4,))


def test_extension_ball_growth():
    ext = swap_extension()
    b2 = ext.ball(2)
    assert len(set(b2)) == len(b2)
    assert ext.identity() in b2
    assert GElement(W.IDENTITY, 1) in b2
    assert len(ext.ball(3)) > len(b2)


def test_sigma_act_examples():
    ext = swap_extension()
    phi = brooks_qm("aab")
    acted = sigma_act(ext, 1, phi)
    assert acted(W.from_string("aab")) == brooks_qm("aab")("bba")  # = 0
    ident = sigma_act(ext, 0, phi)
    for g in random_words(2, 13, 6, 4):
        assert ident(g) == phi(g)
        assert sigma_act(ext, 1, acted)(g) == phi(g)   # involution


def test_orbit_average_invariant():
    ext = swap_extension()
    avg = orbit_average(ext, brooks_qm("aab"))
    assert avg(W.from_string("aab")) == 1.0   # 1 + 0
    assert check_sigma_invariance(ext, avg, radius=3) == []
    raw = brooks_qm("aab")
    assert check_sigma_invariance(ext, raw, radius=3) != []


def test_transfer_requires_invariance():
    ext = swap_extension()
    with pytest.raises(InputError):
        transfer_extend(ext, brooks_qm("aab"))


def test_transfer_extends_on_base():
    ext = swap_extension()
    avg = orbit_average(ext, homogeneous_brooks_qm("aab"))
    transferred = transfer_extend(ext, avg)
    for g in random_words(2, 14, 10, 5):
        assert transferred(ext.embed(g)) == avg(g)
    # section elements have torsion powers: value 0
    assert transferred(ext.section(1)) == 0.0


def test_restriction_report():
    ext = swap_extension()
    avg = orbit_average(ext, homogeneous_brooks_qm("aab"))
    transferred = transfer_extend(ext, avg)
    report = restriction_check(ext, transferred, avg, word_radius=4,
                               pair_radii=(2, 3))
    assert report.max_restriction_gap == 0.0
    assert report.growth <= 1.0
    assert all(v < 10 for v in report.defects.values())


def test_extension_defect_value():
    ext = swap_extension()
    transferred = transfer_extend(
        ext, orbit_average(ext, homogeneous_brooks_qm("aab")))
    assert extension_defect(ext, transferred, 3) == 2.0
    assert extension_defect(ext, transferred, 4) == 2.0


@pytest.mark.parametrize("radius", [3, 4, 5])
def test_extension_defect_matches_full_grid_oracle(radius):
    ext = swap_extension()
    transferred = transfer_extend(
        ext, orbit_average(ext, homogeneous_brooks_qm("aab")))
    assert transferred.homogeneous
    assert extension_defect(ext, transferred, radius) == \
        extension_defect_oracle(ext, transferred, radius) == 2.0


def test_orbit_step_needs_homogeneity():
    # a bounded, non-homogeneous phi: D(A, A) = 2 while D(a, a) = 0, so one
    # pair per symmetry orbit would miss the defect
    ext = swap_extension()
    marked = GElement((-1,), 0)
    phi = Quasimorphism("indicator", lambda g: 1.0 if g == marked else 0.0)
    assert extension_defect(ext, phi, 2) == extension_defect_oracle(ext, phi, 2) == 2.0


def test_class_cache_needs_homogeneity():
    # the transfer of a non-homogeneous average is no class function, so a
    # value cached by conjugacy class would stand in for other elements
    ext = swap_extension()
    phi = transfer_extend(ext, orbit_average(ext, brooks_qm("aab")))
    assert not phi.homogeneous
    assert extension_defect(ext, phi, 4) == extension_defect_oracle(ext, phi, 4) == 1.5


# homogeneous Brooks counting words and their transferred defects at radius 4
HOMOGENEOUS_DEFECTS = {"aab": 2.0, "ab": 2.0, "aB": 0.0, "abAB": 0.0,
                       "abb": 2.0, "aaB": 2.0, "abABB": 1.0, "aabAB": 1.0}


@pytest.mark.parametrize("word", HOMOGENEOUS_DEFECTS)
def test_extension_defect_matches_the_oracle_for_homogeneous_brooks(word):
    ext = swap_extension()
    phi = transfer_extend(ext, orbit_average(ext, homogeneous_brooks_qm(word)))
    assert extension_defect(ext, phi, 4) == extension_defect_oracle(ext, phi, 4) \
        == HOMOGENEOUS_DEFECTS[word]



ROTATION = [(1, 2, 3), (2, 3, 1), (3, 1, 2)]
# every permutation of three letters, a non-abelian group of order 6
SYMMETRIC = sorted(permutations((1, 2, 3)))
# a <-> b on the rank-3 free group, c fixed
TRANSPOSITION = [(1, 2, 3), (2, 1, 3)]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _unpacked(phi: Quasimorphism) -> Quasimorphism:
    """phi with its numpy kernels replaced by the row loop over its scalar
    evaluator, the reference the kernels must match."""
    return Quasimorphism(phi.name, phi.evaluator, phi.homogeneous)


@pytest.mark.parametrize("word", HOMOGENEOUS_DEFECTS)
def test_packed_chain_is_bit_equal_to_the_scalar_chain(word):
    ext = swap_extension()
    base = homogeneous_brooks_qm(word)
    averaged = orbit_average(ext, base)
    transferred = transfer_extend(ext, averaged)
    ws = W.ball(2, 5)
    words = W.pack(ws)
    counted = [homogeneous_brooks_oracle(W.from_string(word), g) for g in ws]
    assert _bits(base.packed(words)) == _bits([base(g) for g in ws]) == _bits(counted)
    assert _bits(averaged.packed(words)) == _bits([averaged(g) for g in ws])
    assert _bits(transferred.packed(words)) == _bits([transferred(g) for g in ws])
    # extension elements, sigma != 0 rows among them
    ball = ext.ball(4)
    sigmas = np.array([g.sigma for g in ball])
    assert sigmas.any()
    values = transferred.packed(W.pack([g.word for g in ball]), sigmas)
    assert _bits(values) == _bits([transferred(g) for g in ball])


def test_packed_transfer_is_bit_equal_on_an_index_three_extension():
    ext = FiniteExtension(3, ROTATION)
    transferred = transfer_extend(
        ext, orbit_average(ext, homogeneous_brooks_qm("abC")))
    ball = ext.ball(3)
    sigmas = np.array([g.sigma for g in ball])
    assert set(sigmas.tolist()) == {0, 1, 2}
    values = transferred.packed(W.pack([g.word for g in ball]), sigmas)
    assert _bits(values) == _bits([transferred(g) for g in ball])
    assert values.any()


@pytest.mark.parametrize("rank, perms, word", [
    (2, [(1, 2), (2, 1)], "aab"),
    (3, ROTATION, "abC"),
])
def test_packed_invariance_check_lists_the_scalar_witnesses(rank, perms, word):
    ext = FiniteExtension(rank, perms)
    for phi in (homogeneous_brooks_qm(word), sigma_act(ext, 1, homogeneous_brooks_qm(word)),
                orbit_average(ext, homogeneous_brooks_qm(word)), brooks_qm(word)):
        for tolerance in (0.0, 1.0):
            packed = check_sigma_invariance(ext, phi, 3, tolerance)
            assert packed == sigma_invariance_oracle(ext, phi, 3, tolerance)
            assert all(type(v["value"]) is float and type(v["moved"]) is float
                       for v in packed)


def test_packed_restriction_gap_matches_the_scalar_gap():
    ext = swap_extension()
    transferred = transfer_extend(
        ext, orbit_average(ext, homogeneous_brooks_qm("aab")))
    other = orbit_average(ext, homogeneous_brooks_qm("ab"))
    packed = restriction_check(ext, transferred, other, word_radius=4,
                               pair_radii=(2,))
    scalar = restriction_check(ext, _unpacked(transferred), _unpacked(other),
                               word_radius=4, pair_radii=(2,))
    assert packed == scalar and packed.max_restriction_gap > 0

def test_shipped_chain_makes_no_scalar_calls_in_the_certificates(monkeypatch):
    ext = swap_extension()
    averaged = orbit_average(ext, homogeneous_brooks_qm("aab"))
    transferred = transfer_extend(ext, averaged)
    calls = []
    scalar = Quasimorphism.__call__
    monkeypatch.setattr(Quasimorphism, "__call__",
                        lambda self, g: calls.append(self.name) or scalar(self, g))
    assert extension_defect(ext, transferred, 4) == 2.0
    report = restriction_check(ext, transferred, averaged, word_radius=4,
                               pair_radii=(2, 3))
    assert report.max_restriction_gap == 0.0 and report.words_checked == 161
    assert check_sigma_invariance(ext, averaged, radius=3) == []
    assert calls == []
    # the wrapper does see a scalar call
    assert transferred(ext.section(1)) == 0.0 and calls


def _sigma_weighted(g) -> float:
    """A caller-written evaluator on the extension: word length plus half
    the sigma of a ``GElement``; a bare word has sigma 0."""
    if isinstance(g, GElement):
        return len(g.word) + 0.5 * g.sigma
    return float(len(W.as_word(g)))


def test_every_quasimorphism_evaluates_packed_rows_like_its_evaluator():
    ext = swap_extension()
    ws = W.ball(2, 4)
    words = W.pack(ws)
    ball = ext.ball(3)
    sigmas = np.array([g.sigma for g in ball])
    assert sigmas.any()
    ball_words = W.pack([g.word for g in ball])
    caller = Quasimorphism("sigma-weighted", _sigma_weighted)
    assert _bits(caller.packed(ball_words, sigmas)) == _bits([caller(g) for g in ball])
    for phi in (brooks_qm("aab"), word_length_qm(), caller):
        averaged = orbit_average(ext, phi)
        transferred = transfer_extend(ext, averaged)
        for psi in (phi, sigma_act(ext, 1, phi), averaged, transferred):
            assert _bits(psi.packed(words)) == _bits([psi(g) for g in ws])
        assert _bits(transferred.packed(ball_words, sigmas)) == \
            _bits([transferred(g) for g in ball])


def test_packed_transfer_refuses_a_power_outside_the_base():
    # a tampered index: with N = 2 on the order-3 rotation, g^N of a section
    # element keeps a nonzero sigma
    ext = FiniteExtension(3, ROTATION)
    averaged = orbit_average(ext, homogeneous_brooks_qm("abC"))
    ext.N = 2
    transferred = transfer_extend(ext, averaged)
    with pytest.raises(InputError):
        transferred(ext.section(1))
    with pytest.raises(InputError):
        transferred.packed(W.pack([W.IDENTITY, W.IDENTITY]), np.array([0, 1]))
    assert transferred.packed(W.pack([W.IDENTITY]), np.array([0])).tolist() == [0.0]


def test_packed_base_quasimorphisms_refuse_extension_rows():
    ext = swap_extension()
    words = W.pack([(1,), (2,)])
    for phi in (homogeneous_brooks_qm("aab"), sigma_act(ext, 1, homogeneous_brooks_qm("aab")),
                orbit_average(ext, homogeneous_brooks_qm("aab"))):
        assert phi.packed(words, np.array([0, 0])).tolist() == phi.packed(words).tolist()
        with pytest.raises(InputError):
            phi.packed(words, np.array([0, 1]))

def test_extension_defect_matches_the_oracle_for_word_length():
    ext = swap_extension()
    phi = transfer_extend(ext, word_length_qm())
    assert not phi.homogeneous
    assert extension_defect(ext, phi, 3) == extension_defect_oracle(ext, phi, 3) == 6.0


def test_extension_defect_on_an_index_three_extension():
    # rank 3, the cyclic letter rotation: g^3, not g^2, lands in the base
    ext = FiniteExtension(3, [(1, 2, 3), (2, 3, 1), (3, 1, 2)])
    hom = transfer_extend(ext, orbit_average(ext, homogeneous_brooks_qm("abC")))
    assert extension_defect(ext, hom, 3) == extension_defect_oracle(ext, hom, 3) == 2.0
    raw = transfer_extend(ext, orbit_average(ext, brooks_qm("ab")))
    assert extension_defect(ext, raw, 2) == extension_defect_oracle(ext, raw, 2)


def test_extension_defect_on_a_non_abelian_extension():
    # every permutation of three letters: conjugating a pair by a section
    # moves its sigmas too; 2 radius N = 12 of the 22 digits of rank 3
    ext = FiniteExtension(3, SYMMETRIC)
    hom = transfer_extend(ext, orbit_average(ext, homogeneous_brooks_qm("ab")))
    assert extension_defect(ext, hom, 1) == extension_defect_oracle(ext, hom, 1) == 2.0


def test_homogeneous_route_evaluates_phi_once_per_class():
    ext = swap_extension()
    phi = transfer_extend(ext, orbit_average(ext, homogeneous_brooks_qm("aab")))
    calls = []
    counted = Quasimorphism("counted", lambda g: calls.append(g) or phi(g),
                            homogeneous=True)
    assert extension_defect(ext, counted, 4) == 2.0
    # the classes of g^N up to inversion, over the ball and the products of
    # the orbit representatives
    ball = ext.ball(4)
    first, second = _orbit_representatives(ext, _ball_codes(ext, ball))
    elements = set(ball) | {ext.multiply(ball[i], ball[j])
                            for i, j in zip(first.tolist(), second.tolist())}
    classes = set()
    for g in elements:
        power = ext.power(g, ext.N).word
        classes.add(frozenset({W.conjugacy_key(power),
                               W.conjugacy_key(W.inverse(power))}))
    assert len(calls) == len(classes) == 757


def test_extension_defect_refuses_radii_beyond_int64_codes():
    ext = swap_extension()

    def never(g):
        raise AssertionError("phi evaluated past the guard")

    # 2 radius N = 28 letters exceed the 27 of an int64 code at rank 2
    for homogeneous in (True, False):
        with pytest.raises(BudgetError):
            extension_defect(ext, Quasimorphism("never", never, homogeneous), 7)


def test_extension_defect_traced_peak_stays_below_the_letter_route():
    # the radius-5 certificate peaked at 6.83-6.88 MB of traced memory when
    # it formed its products as letter rows; its passes of _PAIR_CHUNK rows
    # keep it below that
    ext = swap_extension()
    phi = transfer_extend(ext, orbit_average(ext, homogeneous_brooks_qm("aab")))
    tracemalloc.start()
    try:
        assert extension_defect(ext, phi, 5) == 2.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_800_000


def test_twisted_products_match_extension_multiply():
    ext = swap_extension()
    ball = ext.ball(3)
    pairs = [(g, h) for g in ball for h in ball]
    letters, lens = _twisted_products(
        ext, W.pack([g.word for g, _ in pairs]), W.pack([h.word for _, h in pairs]),
        np.array([g.sigma for g, _ in pairs]))
    got = [tuple(row[:n]) for row, n in zip(letters.tolist(), lens.tolist())]
    assert got == [ext.multiply(g, h).word for g, h in pairs]


def _keys(ext, elements):
    """The ``_power_class_codes`` arguments of extension elements: their
    keys code N + sigma and their anti codes."""
    own, anti, _ = W.code_triples(W.pack([g.word for g in elements]), ext.rank)
    return own * ext.N + np.array([g.sigma for g in elements]), anti


def test_power_class_codes_key_the_nth_power_up_to_inversion():
    ext = swap_extension()
    ball = ext.ball(4)
    keys, signs = _power_class_codes(ext, *_keys(ext, ball))
    powers = [ext.power(g, ext.N) for g in ball]
    assert all(p.is_base() for p in powers)
    own = [W.conjugacy_key(p.word) for p in powers]
    anti = [W.conjugacy_key(W.inverse(p.word)) for p in powers]
    for a in range(len(ball)):
        for b in range(len(ball)):
            same_key = keys[a] == keys[b]
            assert same_key == (own[a] == own[b] or own[a] == anti[b])
            if own[a] == own[b]:
                assert signs[a] == signs[b]
            elif same_key:
                assert signs[a] == -signs[b]


def _conjugates(ext, k, ball):
    """k g k^-1 for each g of the ball, by the extension's group law."""
    s = ext.section(k)
    return [ext.multiply(ext.multiply(s, g), ext.inverse(s)) for g in ball]


def _check_orbit_representatives(ext, radius):
    ball = ext.ball(radius)
    index = {g: i for i, g in enumerate(ball)}
    inv = [index[ext.inverse(g)] for g in ball]
    conj = [[index[c] for c in _conjugates(ext, k, ball)] for k in range(ext.N)]

    def orbit(i, j):
        # (g, h) -> (h, g), (h^-1, g^-1), (g^-1, h^-1), each after
        # conjugating both by a section
        return {pair for c in conj for pair in
                ((c[i], c[j]), (c[j], c[i]), (c[inv[j]], c[inv[i]]),
                 (c[inv[i]], c[inv[j]]))}

    first, second = _orbit_representatives(ext, _ball_codes(ext, ball))
    reps = list(zip(first.tolist(), second.tolist()))
    assert reps == sorted(reps)
    assert all(pair == min(orbit(*pair)) for pair in reps)
    # the orbits of the representatives are disjoint and cover the grid
    covered = [pair for rep in reps for pair in orbit(*rep)]
    assert len(covered) == len(set(covered)) == len(ball) ** 2


def test_orbit_representatives_cover_each_orbit_once():
    for rank, perms, radius in ((2, [(1, 2), (2, 1)], 3), (3, ROTATION, 3),
                                (3, SYMMETRIC, 2)):
        _check_orbit_representatives(FiniteExtension(rank, perms), radius)


@pytest.mark.parametrize("rank, perms", [
    (2, [(1, 2), (2, 1)]),
    (3, ROTATION),
    (3, SYMMETRIC),
])
def test_balls_are_closed_under_conjugation_by_sections(rank, perms):
    # conjugation by a section maps the generating set onto itself, so it
    # keeps word length; on the non-abelian group it also moves sigma
    ext = FiniteExtension(rank, perms)
    for radius in range(4):
        ball = set(ext.ball(radius))
        for k in range(ext.N):
            assert set(_conjugates(ext, k, ball)) == ball


def test_power_class_codes_of_base_rows_match_the_nth_power_route():
    # on the index-3 rotation, a base row's key is its own key read three
    # times over; the g^N route forms g^3 and keys that
    ext = FiniteExtension(3, ROTATION)
    ball = ext.ball(3)
    packed = W.pack([g.word for g in ball])
    sigmas = np.array([g.sigma for g in ball])
    keys, signs = _power_class_codes(ext, *_keys(ext, ball))
    power, power_sigmas = _packed_powers(ext, packed, sigmas)
    assert not power_sigmas.any()
    want_keys, want_signs = W.class_codes(W.code_triples(power, ext.rank), ext.rank)
    base = sigmas == 0
    assert base.any() and (~base).any() and (signs[base] < 0).any()
    assert keys.tolist() == want_keys.tolist()
    assert signs.tolist() == want_signs.tolist()


# the swap, the rank-3 rotation, a rank-3 transposition (c fixed) and the
# full symmetric group on three letters, with a radius for each
CODE_CASES = [
    ([(1, 2), (2, 1)], 3),
    (ROTATION, 3),
    (TRANSPOSITION, 3),
    (SYMMETRIC, 2),
]


def _letter_products(ext, ball, first, second):
    """The packed words of the products of the pairs (first[k], second[k])
    of the ball, by the letter route, and their sigmas."""
    letters, lens = W.pack([g.word for g in ball])
    sigmas = np.array([g.sigma for g in ball])
    products = _twisted_products(ext, (letters[first], lens[first]),
                                 (letters[second], lens[second]), sigmas[first])
    return products, ext.mul_table[sigmas[first], sigmas[second]]


def _check_code_products(ext, ball, first, second):
    own, anti, lens, sigmas = _ball_codes(ext, ball)
    s = sigmas[first]
    got = W.code_products((own[0, first], anti[0, first], lens[first]),
                          (own[s, second], anti[s, second], lens[second]), ext.rank)
    products, _ = _letter_products(ext, ball, first, second)
    want = W.code_triples(products, ext.rank)
    assert all(x.dtype == np.int64 for x in got)
    assert [x.tolist() for x in got] == [x.tolist() for x in want]


@pytest.mark.parametrize("perms, radius", CODE_CASES)
def test_code_products_match_the_letter_products_on_the_full_grid(perms, radius):
    ext = FiniteExtension(len(perms[0]), perms)
    ball = ext.ball(radius)
    first, second = np.indices((len(ball), len(ball))).reshape(2, -1)
    _check_code_products(ext, ball, first, second)


def test_code_products_match_the_letter_products_on_the_radius_5_orbit_pairs():
    ext = swap_extension()
    ball = ext.ball(5)
    first, second = _orbit_representatives(ext, _ball_codes(ext, ball))
    assert len(first) == 52569
    _check_code_products(ext, ball, first, second)


@pytest.mark.parametrize("perms, radius", CODE_CASES[:3] + [(SYMMETRIC, 1)])
def test_power_class_codes_of_products_match_the_nth_power_route(perms, radius):
    # the ball and every product, sigma != 0 rows among them: the code route
    # keys g^N as class_codes keys the letter route's g^N (on the
    # symmetric group, g^6 has a code only up to radius 1)
    ext = FiniteExtension(len(perms[0]), perms)
    ball = ext.ball(radius)
    first, second = np.indices((len(ball), len(ball))).reshape(2, -1)
    keys, antis, which = _distinct_products(ext, _ball_codes(ext, ball), first, second)
    products, product_sigmas = _letter_products(ext, ball, first, second)
    sigmas = np.concatenate([[g.sigma for g in ball], product_sigmas])
    assert (keys[which] % ext.N).tolist() == sigmas.tolist()
    letters, lens = W.unpack_codes(keys // ext.N, ext.rank)
    power, power_sigmas = _packed_powers(ext, (letters, lens), keys % ext.N)
    assert not power_sigmas.any() and (keys % ext.N).any()
    want_keys, want_signs = W.class_codes(W.code_triples(power, ext.rank), ext.rank)
    got_keys, got_signs = _power_class_codes(ext, keys, antis)
    assert got_keys.tolist() == want_keys.tolist()
    assert got_signs.tolist() == want_signs.tolist()


def test_extension_rejects_letters_beyond_rank():
    ext = swap_extension()
    for bad in [(3,), (1, -3), (2, 5)]:
        for call in (ext.embed, lambda w: ext.apply_auto(0, w),
                     lambda w: ext.apply_auto(1, w),
                     lambda w: ext.conjugate_by_section(0, w),
                     lambda w: ext.conjugate_by_section(1, w),
                     sigma_act(ext, 0, brooks_qm("aab"))):
            with pytest.raises(InputError):
                call(bad)
    with pytest.raises(InputError):
        ext.embed("c")
    assert ext.apply_auto(0, (1, -2)) == (1, -2)


def test_power_matches_repeated_products():
    ext = swap_extension()
    for g in ext.ball(3):
        assert ext.power(g, 0) == ext.identity()
        out = ext.identity()
        for n in range(1, 5):
            out = ext.multiply(out, g)
            assert ext.power(g, n) == out
            assert ext.power(g, -n) == ext.inverse(out)


# ---------------------------------------------------------------------------
# the evaluator chain against the straightforward formulas
# ---------------------------------------------------------------------------

def test_transfer_chain_matches_oracle_on_extension_ball_products():
    ext = swap_extension()
    transferred = transfer_extend(
        ext, orbit_average(ext, homogeneous_brooks_qm("aab")))
    ball = ext.ball(4)
    elements = set(ball)
    for g in ball:
        for h in ball:
            product = ext.multiply(g, h)
            assert (product.word, product.sigma) == extension_multiply_oracle(
                ext.perms, (g.word, g.sigma), (h.word, h.sigma))
            elements.add(product)
    assert len(elements) > len(ball)
    hom = lambda g: homogeneous_brooks_oracle(AAB, g)
    for g in elements:
        expected = transfer_average_oracle(ext.perms, hom, (g.word, g.sigma))
        assert transferred(g) == expected


def test_word_evaluators_match_oracles_on_word_ball():
    ext = swap_extension()
    raw, hom = brooks_qm("aab"), homogeneous_brooks_qm("aab")
    acted = [sigma_act(ext, s, raw) for s in range(ext.N)]
    avg_raw, avg_hom = orbit_average(ext, raw), orbit_average(ext, hom)
    for g in W.ball(2, 6):
        moved = [perm_apply_oracle(perm_inverse_oracle(p), g) for p in ext.perms]
        assert raw(g) == float(brooks_oracle(AAB, g))
        assert brooks_qm("aab")(list(g)) == brooks_oracle(AAB, g)
        assert hom(g) == homogeneous_brooks_oracle(AAB, g)
        assert [f(g) for f in acted] == [float(brooks_oracle(AAB, m)) for m in moved]
        assert avg_raw(g) == sum(float(brooks_oracle(AAB, m)) for m in moved)
        assert avg_hom(g) == sum(homogeneous_brooks_oracle(AAB, m) for m in moved)


def test_homogeneous_brooks_matches_oracle_for_patterns_longer_than_cores():
    # cores shorter than the pattern need more than two periods in the window
    for pattern in ("aaa", "abAB", "aabab"):
        hom = homogeneous_brooks_qm(pattern)
        for g in W.ball(2, 5):
            assert hom(g) == homogeneous_brooks_oracle(W.from_string(pattern), g)
    assert homogeneous_brooks_qm("aaa")("a") == 1.0


@pytest.mark.parametrize("bad", ["aA", (1, -1), (0,), (1, 0, 2), (2, 1, -1), "a1"])
def test_every_public_evaluator_rejects_malformed_words(bad):
    ext = swap_extension()
    avg = orbit_average(ext, homogeneous_brooks_qm("aab"))
    evaluators = [brooks_qm("aab"), homogeneous_brooks_qm("aab"),
                  sigma_act(ext, 0, brooks_qm("aab")),
                  sigma_act(ext, 1, brooks_qm("aab")), avg,
                  transfer_extend(ext, avg), word_length_qm(),
                  lambda g: brooks_qm("aab")(g), lambda g: brooks_qm(g)("ab")]
    for evaluate in evaluators:
        with pytest.raises(InputError):
            evaluate(bad)


def test_counting_words_are_checked_at_construction():
    for make in (brooks_qm, homogeneous_brooks_qm):
        for bad in ("", "aA", (0,)):
            with pytest.raises(InputError):
                make(bad)


# ---------------------------------------------------------------------------
# homogeneity suite
# ---------------------------------------------------------------------------

def test_homogeneity_suite_accepts_homogenized():
    phi = homogeneous_brooks_qm("aab")
    out = homogeneity_suite(phi, random_words(2, 15, 10, 4), n_max=6,
                            conjugators=[(1,), (2, -1)])
    assert out == []


def test_homogeneity_suite_flags_raw_brooks():
    phi = brooks_qm("aab")
    # conjugating the counted word changes the overlap pattern at the seams
    out = homogeneity_suite(phi, [W.from_string("aab")], n_max=2,
                            conjugators=[W.from_string("b")])
    assert any(v["kind"] == "conjugacy" for v in out)


def test_homogeneity_suite_flags_word_length():
    phi = word_length_qm()
    out = homogeneity_suite(phi, [W.from_string("abA")], n_max=2)
    assert out and out[0]["kind"] == "power"
    # |(abA)^2| = |abbA| = 4 != 2 * 3


def test_cross_validation_with_shortcut_potential():
    # the geometric potential and the counting quasimorphism agree in sign
    # on powers of the base word
    from catqm.actions import GroupModel
    from catqm.contraction import ConstantLedger
    from catqm.expressway import ExpresswaySystem, tree_phi_exact
    from catqm.spaces import TreeSpace

    sys_t = ExpresswaySystem(TreeSpace(2), GroupModel.free(2), "aab",
                             ledger=ConstantLedger(1.0, 1.0))
    hom = homogeneous_brooks_qm("aab")
    for n in range(1, 6):
        for word in (W.power(W.from_string("aab"), n),
                     W.power(W.from_string("BAA"), n)):
            geom = tree_phi_exact(sys_t, word)
            count = hom(word)
            assert geom * count > 0 or geom == count == 0
