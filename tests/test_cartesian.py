import pytest
from hypothesis import given
from hypothesis import strategies as st

from lyndonkit import (
    Leaf,
    Node,
    Ordering,
    Word,
    enumerate_lyndon_words,
    errors,
    foliage,
    is_lyndon,
    iter_all_words,
    left_cartesian_tree,
    left_cartesian_tree_via_prefixes,
    left_lyndon_tree,
    make_word,
    prec_cmp,
    prefix_standard_permutation,
)
from lyndonkit.trees import _complete

from .strategies import BINARY, TERNARY, words
from .test_trees import EXAMPLE_WORD, example_tree


def w(text: str) -> Word:
    return make_word(text, BINARY)


class TestPrecOrder:
    def test_chain(self):
        chain = [w("aa"), w("a"), w("ab"), w("ba"), w("b")]
        for i in range(len(chain)):
            for j in range(len(chain)):
                expect = Ordering(((i > j) - (i < j)))
                assert prec_cmp(chain[i], chain[j]) == expect

    def test_longer_wins_ties(self):
        assert prec_cmp(w("abab"), w("ab")) is Ordering.LESS
        assert prec_cmp(w("ab"), w("abab")) is Ordering.GREATER

    def test_equal_only_on_identity(self):
        assert prec_cmp(w("ab"), w("ab")) is Ordering.EQUAL

    @given(words(max_size=6), words(max_size=6))
    def test_antisymmetry(self, u, v):
        uv = prec_cmp(u, v)
        vu = prec_cmp(v, u)
        assert uv == Ordering(-vu)
        assert (uv is Ordering.EQUAL) == (u == v)

    @given(words(max_size=5), words(max_size=5), words(max_size=5))
    def test_transitivity(self, a, b, c):
        if prec_cmp(a, b) is Ordering.LESS and prec_cmp(b, c) is Ordering.LESS:
            assert prec_cmp(a, c) is Ordering.LESS


class TestPrefixStandard:
    def test_worked_example(self):
        got = prefix_standard_permutation(make_word(EXAMPLE_WORD, TERNARY))
        assert got.sigma == (2, 1, 5, 4, 3, 7, 6, 8)
        assert got.inverse == (2, 1, 5, 4, 3, 7, 6, 8)

    def test_tiny_examples(self):
        assert prefix_standard_permutation(w("a")).sigma == (1,)
        assert prefix_standard_permutation(w("ab")).sigma == (1, 2)
        assert prefix_standard_permutation(w("ba")).sigma == (2, 1)

    def test_empty_rejected(self):
        with pytest.raises(errors.EmptyWord):
            prefix_standard_permutation(Word(BINARY))

    @given(words(max_size=10))
    def test_mutually_inverse(self, word):
        got = prefix_standard_permutation(word)
        n = len(got.sigma)
        assert sorted(got.sigma) == list(range(1, n + 1))
        for length in range(1, n + 1):
            assert got.inverse[got.sigma[length - 1] - 1] == length

    @given(words(max_size=9))
    def test_ranks_sort_prefixes(self, word):
        got = prefix_standard_permutation(word)
        by_rank = [word[: got.inverse[r - 1]] for r in range(1, len(word) + 1)]
        for p, q in zip(by_rank, by_rank[1:]):
            assert prec_cmp(p, q) is Ordering.LESS

    def test_lyndon_words_rank_themselves_last(self):
        for word in enumerate_lyndon_words(BINARY, 10):
            assert prefix_standard_permutation(word).sigma[-1] == len(word)


class TestCompletion:
    """The decreasing tree of the labels, completed with the letters as leaves."""

    def test_single_node(self):
        got = _complete((1,), w("ab"))
        assert got == Node(Leaf(w("a")), Leaf(w("b")))

    def test_leaf_interleaving(self):
        got = _complete((1, 2), w("aab"))
        assert got == Node(Node(Leaf(w("a")), Leaf(w("a"))), Leaf(w("b")))

    def test_worked_example(self):
        got = _complete((2, 1, 5, 4, 3, 7, 6), make_word(EXAMPLE_WORD, TERNARY))
        assert got == example_tree()

    @given(st.permutations(list(range(1, 8))), words(min_size=8, max_size=8))
    def test_foliage_is_always_the_given_word(self, alpha, word):
        assert foliage(_complete(alpha, word)) == word


class TestLeftCartesianTree:
    def test_worked_example(self):
        assert left_cartesian_tree(make_word(EXAMPLE_WORD, TERNARY)) == example_tree()

    def test_tiny_examples(self):
        assert left_cartesian_tree(w("a")) == Leaf(w("a"))
        assert left_cartesian_tree(w("ab")) == Node(Leaf(w("a")), Leaf(w("b")))

    def test_single_letter_is_a_leaf(self):
        for letter in "abc":
            word = make_word(letter, TERNARY)
            assert left_cartesian_tree(word) == Leaf(word)

    def test_not_lyndon_exactly_when_the_word_is_not_lyndon(self):
        # The whole word ranks above its proper prefixes exactly when it is
        # Lyndon; a power u^k ranks below u.
        for alphabet, max_len in ((BINARY, 10), (TERNARY, 6)):
            for word in iter_all_words(alphabet, max_len):
                try:
                    left_cartesian_tree(word)
                except errors.NotLyndon:
                    assert not is_lyndon(word), word
                else:
                    assert is_lyndon(word), word

    def test_not_lyndon_rejected(self):
        with pytest.raises(errors.NotLyndon):
            left_cartesian_tree(w("ba"))
        with pytest.raises(errors.NotLyndon):
            left_cartesian_tree_via_prefixes(w("bab"))

    def test_both_constructions_and_foliage(self):
        for alphabet, max_len in ((BINARY, 10), (TERNARY, 6)):
            for word in enumerate_lyndon_words(alphabet, max_len):
                tree = left_cartesian_tree(word)
                assert tree == left_cartesian_tree_via_prefixes(word), word
                assert foliage(tree) == word

    def test_matches_left_lyndon_tree(self):
        for word in enumerate_lyndon_words(BINARY, 11):
            assert left_cartesian_tree(word) == left_lyndon_tree(word), word
