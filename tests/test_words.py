import pytest
from hypothesis import given, strategies as st

from catqm import words as W
from catqm.errors import BudgetError, InputError


def w(s):
    return W.from_string(s)


def test_multiply_examples():
    assert W.multiply(w("a"), w("A")) == ()
    assert W.multiply(w("ab"), w("Ba")) == w("aa")
    assert W.multiply((), w("bab")) == w("bab")


def test_as_word_coerces_strings_and_tuples():
    assert W.as_word("aB") == (1, -2)
    assert W.as_word([1, -2]) == (1, -2)
    assert W.as_word("e") == W.IDENTITY
    with pytest.raises(InputError):
        W.as_word((1, -1))
    with pytest.raises(InputError):
        W.as_word("aA")


def test_cyclic_reduce():
    assert W.cyclic_reduce(w("abA")) == (w("b"), w("a"))
    assert W.cyclic_reduce(w("aab")) == (w("aab"), ())
    assert W.cyclic_reduce(w("abbA")) == (w("bb"), w("a"))


def test_conjugacy_examples():
    assert W.conjugacy_test(w("aab"), w("aba"))
    # exponent sums (2, 1) vs (-2, -1): no rotation can match
    assert not W.conjugacy_test(w("aab"), w("BAA"))
    assert W.conjugacy_test(w("babA"), W.multiply(W.multiply(w("ba"), w("babA")), w("AB")))


def test_ball_sizes():
    assert sorted(W.ball(2, 1)) == sorted([(), (1,), (-1,), (2,), (-2,)])
    assert len(W.ball(2, 2)) == 17
    assert len(W.ball(1, 3)) == 7
    for r in range(6):
        assert len(W.ball(2, r)) == W.ball_size(2, r)


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


letters = st.sampled_from([1, -1, 2, -2])
raw_words = st.lists(letters, max_size=12).map(W.reduce_word)


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
