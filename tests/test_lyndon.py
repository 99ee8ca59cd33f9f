import pickle
from itertools import combinations, islice

import pytest
from hypothesis import given

from lyndonkit import (
    LyndonFactorization,
    OrderedAlphabet,
    Ordering,
    Word,
    enumerate_lyndon_words,
    errors,
    first_lyndon_factor,
    is_lyndon,
    is_lyndon_prefix_omega,
    is_lyndon_suffix_omega,
    is_lyndon_via_rotations,
    is_lyndon_via_suffixes,
    iter_all_words,
    last_lyndon_factor,
    lex_cmp,
    lyndon_factorization,
    make_word,
    omega_cmp,
)

from .strategies import BINARY, TERNARY, words


def w(text: str) -> Word:
    return make_word(text, BINARY)


class TestIsLyndon:
    def test_examples(self):
        assert is_lyndon(w("aabab"))
        assert is_lyndon(make_word("aabaacab", TERNARY))
        assert is_lyndon(w("a"))
        assert not is_lyndon(w("aa"))
        assert not is_lyndon(w("ba"))
        assert not is_lyndon(w("aba"))

    def test_suffix_extension_examples(self):
        assert not is_lyndon_suffix_omega(w("ababaab"))
        assert is_lyndon_suffix_omega(w("aab"))
        assert is_lyndon_suffix_omega(w("b"))

    def test_prefix_extension_examples(self):
        assert is_lyndon_prefix_omega(w("aabab"))
        assert not is_lyndon_prefix_omega(w("ba"))
        assert is_lyndon_prefix_omega(w("a"))

    def test_empty_rejected(self):
        for predicate in (
            is_lyndon,
            is_lyndon_via_suffixes,
            is_lyndon_via_rotations,
            is_lyndon_suffix_omega,
            is_lyndon_prefix_omega,
        ):
            with pytest.raises(errors.EmptyWord):
                predicate(Word(BINARY))

    def test_characterizations_agree_exhaustively(self):
        # Every split form plus both extension forms, on both alphabets.
        regimes = ((BINARY, 14), (TERNARY, 9))
        for alphabet, max_len in regimes:
            for word in iter_all_words(alphabet, max_len):
                base = is_lyndon(word)
                assert is_lyndon_via_suffixes(word) == base, word
                assert is_lyndon_via_rotations(word) == base, word
                assert is_lyndon_suffix_omega(word) == base, word
                assert is_lyndon_prefix_omega(word) == base, word


def test_lyndon_order_transfers_to_extensions():
    # For Lyndon words the finite order and the extension order coincide.
    corpus = list(enumerate_lyndon_words(BINARY, 8))
    for u, v in combinations(corpus, 2):
        assert (lex_cmp(u, v) is Ordering.LESS) == (
            omega_cmp(u, v).outcome is Ordering.LESS
        ), (u, v)


class TestFactorization:
    def test_examples(self):
        assert [f.text() for f in lyndon_factorization(w("ababaab"))] == [
            "ab",
            "ab",
            "aab",
        ]
        assert [f.text() for f in lyndon_factorization(make_word("aabaacab", TERNARY))] == [
            "aabaacab"
        ]
        assert [f.text() for f in lyndon_factorization(w("bbb"))] == ["b", "b", "b"]

    def test_factorization_type_guards(self):
        fact = lyndon_factorization(w("ab"))
        assert fact.word == w("ab")
        assert len(fact) == 1

    def test_word_of_many_factors(self):
        # 40,000 factors: joining them one `+` at a time copies Θ(k·n) letters.
        word = w("b" + "a" * 39999)
        fact = lyndon_factorization(word)
        assert len(fact) == 40000
        assert fact.word == word

    def test_record_is_an_immutable_value(self):
        fact = lyndon_factorization(w("abaabbabba"))
        same = LyndonFactorization(factors=fact.factors)
        assert repr(fact) == "LyndonFactorization(factors=(Word('ab'), Word('aabbabb'), Word('a')))"
        assert fact == same and hash(fact) == hash(same)
        assert fact != fact.factors
        assert list(fact) == list(fact.factors)
        assert pickle.loads(pickle.dumps(fact)) == fact
        for name in ("factors", "other"):
            with pytest.raises(AttributeError):
                setattr(fact, name, ())
        with pytest.raises(AttributeError):
            del fact.factors
        assert fact.factors == same.factors

    def test_word_rejects_mixed_alphabets(self):
        fact = LyndonFactorization((w("b"), make_word("a", OrderedAlphabet("ba"))))
        with pytest.raises(errors.AlphabetMismatch):
            fact.word

    @given(words(max_size=12))
    def test_invariants(self, word):
        fact = lyndon_factorization(word)
        assert fact.word == word
        for f in fact.factors:
            assert is_lyndon(f)
        for a, b in zip(fact.factors, fact.factors[1:]):
            assert lex_cmp(a, b) is not Ordering.LESS
            assert omega_cmp(a, b).outcome is not Ordering.LESS

    @given(words(max_size=12))
    def test_head_dominates_tail_product(self, word):
        factors = lyndon_factorization(word).factors
        if len(factors) >= 2:
            rest = factors[1]
            for f in factors[2:]:
                rest = rest + f
            assert omega_cmp(factors[0], rest).outcome is not Ordering.LESS


class TestFirstLastFactor:
    def test_examples(self):
        assert first_lyndon_factor(w("ababaab")) == w("ab")
        assert first_lyndon_factor(w("aabab")) == w("aabab")
        assert first_lyndon_factor(w("ba")) == w("b")
        assert last_lyndon_factor(w("ababaab")) == w("aab")
        assert last_lyndon_factor(w("aabab")) == w("aabab")
        assert last_lyndon_factor(w("ba")) == w("a")

    @given(words(max_size=12))
    def test_ends_match_factorization(self, word):
        factors = lyndon_factorization(word).factors
        assert first_lyndon_factor(word) == factors[0]
        assert last_lyndon_factor(word) == factors[-1]

    def test_ends_match_factorization_exhaustively(self):
        for word in iter_all_words(BINARY, 10):
            factors = lyndon_factorization(word).factors
            assert first_lyndon_factor(word) == factors[0], word
            assert last_lyndon_factor(word) == factors[-1], word


class TestEnumeration:
    def test_small_golden(self):
        got = [x.text() for x in enumerate_lyndon_words(BINARY, 3)]
        assert got == ["a", "b", "ab", "aab", "abb"]

    def test_length_five_count(self):
        got = [x for x in enumerate_lyndon_words(BINARY, 5) if len(x) == 5]
        assert len(got) == 6

    def test_streams_by_length(self):
        # The first 200 words, all of length at most 10, come without the
        # words up to length 64 being generated first.
        got = list(islice(enumerate_lyndon_words(BINARY, 64), 200))
        assert got == list(enumerate_lyndon_words(BINARY, 10))[:200]

    def test_unary_alphabet(self):
        got = list(enumerate_lyndon_words(OrderedAlphabet("a"), 4))
        assert [x.text() for x in got] == ["a"]

    def test_matches_filter_and_is_shortlex(self):
        enumerated = list(enumerate_lyndon_words(TERNARY, 6))
        filtered = [x for x in iter_all_words(TERNARY, 6) if is_lyndon(x)]
        assert enumerated == filtered
        keys = [(len(x), x.letters) for x in enumerated]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_all_enumerated_are_unbordered(self):
        for word in enumerate_lyndon_words(BINARY, 10):
            if len(word) >= 2:
                ls = word.letters
                assert all(ls[:k] != ls[-k:] for k in range(1, len(ls))), word
