import numpy as np
import pytest
from hypothesis import given, strategies as st

from catqm import words as W
from catqm.errors import BudgetError, InputError

from oracles import (
    ball_bfs,
    ball_size,
    check_reduced_oracle,
    conjugacy_rotation_oracle,
    is_reduced_oracle,
    reduce_word,
    to_string_oracle,
)


def w(s):
    return W.from_string(s)


def test_multiply_examples():
    assert W.multiply(w("a"), w("A")) == ()
    assert W.multiply(w("ab"), w("Ba")) == w("aa")
    assert W.multiply((), w("bab")) == w("bab")


def test_as_word_coerces_strings_and_tuples():
    assert W.as_word("aB") == (1, -2)
    assert W.as_word([1, -2]) == (1, -2)
    with pytest.raises(InputError):
        W.as_word((1, -1))
    with pytest.raises(InputError):
        W.as_word("aA")


def test_only_the_empty_string_spells_the_identity():
    # "e" is the fifth generator: in rank >= 5 it must survive a round trip
    for word in ((5,), (-5,), (1, 5, 2)):
        assert W.from_string(W.to_string(word)) == word
    assert W.as_word("e") == (5,)
    assert W.as_word("") == W.IDENTITY


def test_cyclic_reduce():
    assert W.cyclic_reduce(w("abA")) == (w("b"), w("a"))
    assert W.cyclic_reduce(w("aab")) == (w("aab"), ())
    assert W.cyclic_reduce(w("abbA")) == (w("bb"), w("a"))


def test_conjugacy_examples():
    key = W.conjugacy_key
    assert key(w("aab")) == key(w("aba"))
    # exponent sums (2, 1) vs (-2, -1): no rotation can match
    assert key(w("aab")) != key(w("BAA"))
    assert key(w("babA")) == key(W.multiply(W.multiply(w("ba"), w("babA")), w("AB")))


def test_conjugacy_key_separates_exactly_the_conjugacy_classes():
    sample = W.ball(2, 3)
    conjugators = (w("a"), w("B"), w("ab"), w("Bab"))
    words_ = sample + [W.multiply(W.multiply(g, u), W.inverse(g))
                       for u in sample for g in conjugators]
    keys = {u: W.conjugacy_key(u) for u in words_}
    for u in words_:
        for v in words_:
            assert (keys[u] == keys[v]) is conjugacy_rotation_oracle(u, v)
    assert W.conjugacy_key(()) == ()
    assert W.conjugacy_key(w("abA")) == w("b")
    assert W.conjugacy_key(w("bab")) == w("abb")
    assert W.conjugacy_key(w("bAbA")) == w("AbAb")


def _rows(packed):
    letters, lens = packed
    return [tuple(row[:n]) for row, n in zip(letters.tolist(), lens.tolist())]


def test_packed_products_match_multiply_on_all_pairs_of_a_ball():
    ball = W.ball(2, 3)
    left = [u for u in ball for _ in ball]
    right = [v for _ in ball for v in ball]
    letters, lens = product = W.packed_products(W.pack(left), W.pack(right))
    assert _rows(product) == [W.multiply(u, v) for u, v in zip(left, right)]
    # padding stays zero past each product's length
    assert not letters[np.arange(letters.shape[1]) >= lens[:, None]].any()
    # the same grid, u-major, from the ball itself
    assert _rows(W.grid_products(W.pack(ball), W.pack(ball))) == _rows(product)


def _triples(ws, rank):
    return [x.tolist() for x in W.code_triples(W.pack(ws), rank)]


def test_code_products_match_multiply_on_all_pairs_of_a_ball():
    ball = W.ball(2, 3)
    left = [u for u in ball for _ in ball]
    right = [v for _ in ball for v in ball]
    got = W.code_products(W.code_triples(W.pack(left), 2),
                          W.code_triples(W.pack(right), 2), 2)
    assert [x.tolist() for x in got] == _triples(list(map(W.multiply, left, right)), 2)


def test_code_products_reach_the_int64_capacity():
    # products of 27 letters at rank 2, the largest code 5^27 - 1 among them,
    # with and without cancellation at the junction
    left = [(-2,) * 14, (-2,) * 14 + (1,), (-2,) * 27, (1,)]
    right = [(-2,) * 13, (-1,) + (-2,) * 13, (), (-1,)]
    got = W.code_products(W.code_triples(W.pack(left), 2),
                          W.code_triples(W.pack(right), 2), 2)
    assert got[0].tolist()[:3] == [5 ** 27 - 1] * 3
    assert [x.tolist() for x in got] == _triples(list(map(W.multiply, left, right)), 2)


def test_mapped_codes_match_the_letter_maps():
    # signed letter permutations of rank 3, one per row, as rows indexed by
    # letter + rank: the identity, a <-> b, a -> b -> c -> a and a -> A
    images = [(1, 2, 3), (2, 1, 3), (2, 3, 1), (-1, 2, 3)]
    maps = np.array([[-x for x in p[::-1]] + [0] + list(p) for p in images])
    ball = W.ball(3, 3)
    which = np.arange(len(ball)) % len(images)
    got = W.mapped_codes(W.code_triples(W.pack(ball), 3), maps[which], 3)
    want = [tuple(maps[k][x + 3] for x in u) for u, k in zip(ball, which.tolist())]
    assert [x.tolist() for x in got] == _triples(want, 3)


@pytest.mark.parametrize("rank, radius", [(1, 6), (2, 5), (3, 3)])
def test_packed_codes_are_injective_and_unpack(rank, radius):
    ball = W.ball(rank, radius)
    codes = W.code_triples(W.pack(ball), rank)[0]
    assert len(set(codes.tolist())) == len(ball)
    assert codes[0] == 0                     # the identity
    assert _rows(W.unpack_codes(codes, rank)) == ball
    assert W.unpack(W.unpack_codes(codes, rank)) == ball
    assert W.code_lengths(codes, rank).tolist() == list(map(len, ball))


def test_packed_codes_refuse_words_beyond_int64():
    cap = W.code_capacity(2)
    assert cap == 27
    # the largest code of cap letters is 5^cap - 1, still an int64
    longest = (-2,) * cap
    assert W.code_triples(W.pack([longest]), 2)[0].tolist() == [5 ** cap - 1]
    assert _rows(W.unpack_codes(np.array([5 ** cap - 1]), 2)) == [longest]
    with pytest.raises(BudgetError):
        W.code_triples(W.pack([(1,) * (cap + 1)]), 2)


def test_class_codes_key_conjugacy_classes_up_to_inversion():
    sample = W.ball(2, 3)
    conjugators = (w("a"), w("B"), w("ab"), w("Bab"))
    words_ = sample + [W.multiply(W.multiply(g, u), W.inverse(g))
                       for u in sample for g in conjugators]
    keys, signs = W.class_codes(W.code_triples(W.pack(words_), 2), 2)
    own = [W.conjugacy_key(u) for u in words_]
    anti = [W.conjugacy_key(W.inverse(u)) for u in words_]
    for a in range(len(words_)):
        for b in range(len(words_)):
            same_key = keys[a] == keys[b]
            assert same_key == (own[a] == own[b] or own[a] == anti[b])
            if own[a] == own[b]:
                assert signs[a] == signs[b]
            elif same_key:
                assert signs[a] == -signs[b]


def test_ball_sizes():
    assert sorted(W.ball(2, 1)) == sorted([(), (1,), (-1,), (2,), (-2,)])
    assert len(W.ball(2, 2)) == 17
    assert len(W.ball(1, 3)) == 7
    for r in range(6):
        assert len(W.ball(2, r)) == ball_size(2, r)


def test_ball_deterministic_and_reduced():
    b1 = W.ball(2, 4)
    b2 = W.ball(2, 4)
    assert b1 == b2
    assert len(set(b1)) == len(b1)
    assert all(W.is_reduced(x) for x in b1)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_packed_ball_is_the_word_by_word_bfs_packed(rank):
    for radius in range(9):
        bfs = ball_bfs(rank, radius)
        for got, want in zip(W.packed_ball(rank, radius), W.pack(bfs)):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert np.array_equal(got, want)
        assert W.ball(rank, radius) == bfs
    for radius, cap, error in ((-1, 12, InputError), (13, 12, BudgetError),
                               (5, 4, BudgetError)):
        with pytest.raises(error) as want:
            ball_bfs(rank, radius, cap)
        for build in (W.packed_ball, W.ball):
            with pytest.raises(error) as got:
                build(rank, radius, cap)
            assert str(got.value) == str(want.value)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_unpack_slices_runs_of_one_length_as_the_rows_would(seed):
    # a shuffled pack has runs of every length, one row long ones included
    rng = np.random.default_rng(seed)
    letters, lens = W.packed_ball(3, 4)
    order = rng.permutation(len(lens))
    order[:40].sort()
    packed = letters[order], lens[order]
    want = [tuple(row[:n]) for row, n in zip(packed[0].tolist(), packed[1].tolist())]
    got = W.unpack(packed)
    assert got == want
    assert all(type(x) is int for word in got for x in word)
    assert W.unpack((letters[:0], lens[:0])) == []


def test_ball_cap():
    with pytest.raises(BudgetError):
        W.ball(2, 13)


def test_serialization_round_trip():
    for s in ("", "e", "aab", "BAA", "abAB"):
        word = W.from_string(s)
        assert W.from_string(W.to_string(word)) == word
    with pytest.raises(InputError):
        W.from_string("a1b")
    with pytest.raises(InputError):
        W.from_string("aA")


@pytest.mark.parametrize("s", ["é", "aΩ", "ß", "1", " ", "a-b"])
def test_from_string_reads_only_the_letters_to_string_writes(s):
    # str.isalpha once let "é" through as letter 137 and "Ω" as -873
    with pytest.raises(InputError):
        W.from_string(s)
    alphabet = "".join(W.to_string((x,)) for x in range(-26, 27) if x)
    assert W.to_string(W.from_string(alphabet[::2])) == alphabet[::2]


@pytest.mark.parametrize("value", [["a", "b"], ("a",), {"a": 1}, b"ab", None, 1])
def test_from_string_takes_only_a_string(value):
    # any iterable of characters once parsed: ["a", "b"] as "ab", {"a": 1}
    # as "a"
    with pytest.raises(InputError):
        W.from_string(value)


def test_gromov_products_of_a_tree_segment():
    # x = "ba" against [e, "aa"]: the foot is e, at distance 2
    dax, dbx, dab = np.array([2.0, 1.0]), np.array([4.0, 1.0]), np.array([2.0, 2.0])
    assert W.gromov_foot(dax, dbx, dab).tolist() == [0.0, 1.0]
    assert W.gromov_gap(dax, dbx, dab).tolist() == [2.0, 0.0]
    assert W.gromov_gap(3.0, 2.0, 1.0) == 2.0


def _outcome(f, w):
    try:
        return f(w)
    except Exception as exc:   # the exception type is the outcome compared
        return type(exc)


BAD_WORDS = [(0,), (1, 0), (0, 2, 1), (1, -1, 2), (2, 1, -1), (1, 2, -2, 1), ()]


def test_word_primitives_match_oracles():
    cases = W.ball(2, 6) + BAD_WORDS
    for w in cases + [list(w) for w in cases]:
        assert W.is_reduced(w) is is_reduced_oracle(w)
        assert _outcome(W.check_reduced, w) == _outcome(check_reduced_oracle, w)
        if 0 in w:
            # the old formula printed the letter 0 as '`'; it is no generator
            assert _outcome(W.to_string, w) is InputError
        else:
            assert W.to_string(w) == to_string_oracle(w)
    assert _outcome(W.check_reduced, (1, -1)) is InputError
    assert W.check_reduced([1, 2]) == (1, 2)


def test_to_string_every_letter():
    every = tuple(x for k in range(1, 27) for x in (k, -k))
    for x in every:
        assert W.to_string((x,)) == to_string_oracle((x,))
    assert W.to_string(every) == to_string_oracle(every)
    for x in (0, 27, -27, 100):
        with pytest.raises(InputError):
            W.to_string((1, x))


letters = st.sampled_from([1, -1, 2, -2])
raw_words = st.lists(letters, max_size=12).map(reduce_word)


@given(raw_words, raw_words, raw_words)
def test_multiply_associative(u, v, x):
    assert W.multiply(W.multiply(u, v), x) == W.multiply(u, W.multiply(v, x))


@given(raw_words)
def test_inverse_cancels(u):
    assert W.multiply(u, W.inverse(u)) == ()
    assert W.multiply(W.inverse(u), u) == ()


@given(raw_words, raw_words)
def test_conjugacy_invariant_under_conjugation(u, g):
    conj = W.multiply(W.multiply(g, u), W.inverse(g))
    assert W.conjugacy_key(u) == W.conjugacy_key(conj)


@given(raw_words, raw_words)
def test_word_distance_symmetric(u, v):
    assert W.word_distance(u, v) == W.word_distance(v, u)
    assert W.word_distance(u, v) == len(W.multiply(W.inverse(u), v))


def test_conjugacy_is_equivalence_on_sample():
    sample = W.ball(2, 3)
    for u in sample[:20]:
        assert conjugacy_rotation_oracle(u, u)
    for u in sample[:12]:
        for v in sample[:12]:
            same = W.conjugacy_key(u) == W.conjugacy_key(v)
            assert same is conjugacy_rotation_oracle(u, v) is conjugacy_rotation_oracle(v, u)
