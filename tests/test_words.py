import numpy as np
import pytest
from hypothesis import given, strategies as st

from catqm import words as W
from catqm.errors import BudgetError, InputError

from oracles import (
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
    assert W.conjugacy_test(w("aab"), w("aba"))
    # exponent sums (2, 1) vs (-2, -1): no rotation can match
    assert not W.conjugacy_test(w("aab"), w("BAA"))
    assert W.conjugacy_test(w("babA"), W.multiply(W.multiply(w("ba"), w("babA")), w("AB")))


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
    assert W.conjugacy_test(u, conj)


@given(raw_words, raw_words)
def test_word_distance_symmetric(u, v):
    assert W.word_distance(u, v) == W.word_distance(v, u)
    assert W.word_distance(u, v) == len(W.multiply(W.inverse(u), v))


def test_conjugacy_is_equivalence_on_sample():
    sample = W.ball(2, 3)
    for u in sample[:20]:
        assert W.conjugacy_test(u, u)
    for u in sample[:12]:
        for v in sample[:12]:
            assert W.conjugacy_test(u, v) == W.conjugacy_test(v, u)
