from itertools import product

import pytest
from hypothesis import given

from lyndonkit import (
    CHECK_NAMES,
    CheckResult,
    Ordering,
    VerificationReport,
    Word,
    enumerate_lyndon_words,
    errors,
    first_lyndon_factor_naive,
    is_lyndon,
    iter_all_words,
    last_lyndon_factor_naive,
    left_lyndon_tree,
    left_lyndon_tree_naive,
    lyndon_factorization,
    lyndon_factorization_naive,
    make_word,
    omega_cmp,
    omega_cmp_naive,
    verify_word,
)

from .strategies import BINARY, TERNARY, words
from .test_trees import EXAMPLE_WORD, example_tree


def w(text: str) -> Word:
    return make_word(text, BINARY)


class TestNaiveOmega:
    def test_examples(self):
        assert omega_cmp_naive(w("b"), w("ba")).outcome is Ordering.GREATER
        equal = omega_cmp_naive(w("ab"), w("abab"))
        assert equal.outcome is Ordering.EQUAL
        assert equal.common_root == w("ab")

    def test_tight_mismatch(self):
        got = omega_cmp_naive(w("abaab"), w("abaababa"))
        assert got.outcome is Ordering.GREATER
        assert got.mismatch_position == 12

    def test_agrees_with_fast_path_exhaustively(self):
        universe = list(iter_all_words(BINARY, 5))
        for u, v in product(universe, repeat=2):
            assert omega_cmp_naive(u, v) == omega_cmp(u, v), (u, v)

    @given(words(TERNARY, max_size=7), words(TERNARY, max_size=7))
    def test_agrees_with_fast_path(self, u, v):
        assert omega_cmp_naive(u, v) == omega_cmp(u, v)


class TestNaiveFactorization:
    def test_examples(self):
        assert [f.text() for f in lyndon_factorization_naive(w("ababaab"))] == [
            "ab",
            "ab",
            "aab",
        ]
        assert [f.text() for f in lyndon_factorization_naive(w("b"))] == ["b"]
        assert [f.text() for f in lyndon_factorization_naive(w("aabb"))] == ["aabb"]

    def test_agrees_with_fast_path_exhaustively(self):
        for word in iter_all_words(BINARY, 9):
            assert lyndon_factorization_naive(word) == lyndon_factorization(word), word

    @given(words(TERNARY, max_size=8))
    def test_agrees_with_fast_path(self, word):
        assert lyndon_factorization_naive(word) == lyndon_factorization(word)


class TestNaiveTree:
    def test_examples(self):
        assert left_lyndon_tree_naive(make_word(EXAMPLE_WORD, TERNARY)) == example_tree()
        assert left_lyndon_tree_naive(w("ab")) == left_lyndon_tree(w("ab"))
        assert left_lyndon_tree_naive(w("aabab")) == left_lyndon_tree(w("aabab"))

    def test_rejects_non_lyndon(self):
        with pytest.raises(errors.NotLyndon):
            left_lyndon_tree_naive(w("ba"))

    def test_agrees_with_fast_path_exhaustively(self):
        for word in enumerate_lyndon_words(BINARY, 9):
            assert left_lyndon_tree_naive(word) == left_lyndon_tree(word), word


class TestVerifyWord:
    def test_worked_example_passes(self):
        report = verify_word(make_word(EXAMPLE_WORD, TERNARY))
        assert report.passed
        assert report.failures() == ()
        assert set(c.name for c in report.checks) == set(CHECK_NAMES)

    def test_non_lyndon_word_skips_tree_checks(self):
        report = verify_word(w("ababaab"))
        assert report.passed
        ran = {c.name for c in report.checks}
        assert "omega-agreement" in ran
        assert "trees-coincide" not in ran

    def test_single_letter_skips_factorization_split(self):
        report = verify_word(w("a"))
        assert report.passed
        ran = {c.name for c in report.checks}
        assert "trees-coincide" in ran
        assert "left-factorization" not in ran

    def test_check_names_are_stable(self):
        # The sweep output format keys on these names.
        assert len(CHECK_NAMES) == len(set(CHECK_NAMES))
        report = verify_word(w("aabab"))
        assert [c.name for c in report.checks] == list(CHECK_NAMES)

    def test_report_rejects_duplicate_names(self):
        dup = CheckResult("x", True)
        with pytest.raises(ValueError):
            VerificationReport(w("a"), (dup, dup))

    def test_failures_surface(self):
        report = VerificationReport(
            w("a"), (CheckResult("x", True), CheckResult("y", False, "boom"))
        )
        assert not report.passed
        assert [c.name for c in report.failures()] == ["y"]

    def test_end_factor_disagreement_is_a_check_failure(self, monkeypatch):
        word = w("ababaab")
        monkeypatch.setattr(
            "lyndonkit.oracle.first_lyndon_factor_naive", lambda x: (x[:2], x[:1])
        )
        monkeypatch.setattr("lyndonkit.oracle.last_lyndon_factor_naive", lambda x: x)
        report = verify_word(word)
        assert [c.name for c in report.failures()] == ["first-factor", "last-factor"]

    def test_end_factor_scans_examples(self):
        assert first_lyndon_factor_naive(w("ababaab")) == (w("ab"), w("ab"))
        assert first_lyndon_factor_naive(w("aabab")) == (w("aabab"), w("aabab"))
        assert last_lyndon_factor_naive(w("ababaab")) == w("aab")
        assert last_lyndon_factor_naive(w("bbb")) == w("b")

    @given(words(TERNARY, max_size=7))
    def test_every_small_word_passes(self, word):
        assert verify_word(word).passed
