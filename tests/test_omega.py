import json
import math
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lyndonkit import (
    OmegaComparison,
    OrderedAlphabet,
    Ordering,
    SixConditions,
    Word,
    bergman_chain,
    errors,
    is_lyndon,
    is_lyndon_suffix_omega,
    iter_all_words,
    lex_cmp,
    make_word,
    omega_cmp,
    omega_cmp_naive,
    omega_mismatch_position,
    six_conditions,
)

from .strategies import BINARY, TERNARY, pairs, words


def w(text: str) -> Word:
    return make_word(text, BINARY)


def ext(word: Word, n: int) -> Word:
    """Length-n prefix of the periodic extension of word."""
    ls = word.letters
    return Word(word.alphabet, (ls[i % len(ls)] for i in range(n)))


class TestOmegaCmp:
    def test_less_example(self):
        got = omega_cmp(w("aba"), w("ab"))
        assert got.outcome is Ordering.LESS
        assert got.mismatch_position == 4
        assert got.common_root is None

    def test_greater_example(self):
        got = omega_cmp(w("b"), w("ba"))
        assert got.outcome is Ordering.GREATER
        assert got.mismatch_position == 2

    def test_equal_example(self):
        got = omega_cmp(w("ab"), w("abab"))
        assert got.outcome is Ordering.EQUAL
        assert got.mismatch_position is None
        assert got.common_root == w("ab")

    def test_empty_and_mixed_alphabets_rejected(self):
        with pytest.raises(errors.EmptyWord):
            omega_cmp(Word(BINARY), w("a"))
        with pytest.raises(errors.AlphabetMismatch):
            omega_cmp(w("a"), make_word("a", OrderedAlphabet("ba")))

    @given(words(max_size=8), words(max_size=8))
    def test_matches_concatenation_order(self, u, v):
        got = omega_cmp(u, v)
        assert got.outcome == lex_cmp(u + v, v + u)

    @given(words(max_size=8), words(max_size=8))
    def test_truncation_oracle(self, u, v):
        # The first |u| + |v| letters of each extension already decide.
        n = len(u) + len(v)
        got = omega_cmp(u, v)
        assert got.outcome == lex_cmp(ext(u, n), ext(v, n))

    @given(words(max_size=6), st.integers(min_value=1, max_value=4))
    def test_powers_are_equal(self, u, e):
        got = omega_cmp(u, Word(u.alphabet, u.letters * e))
        assert got.outcome is Ordering.EQUAL
        root = got.common_root.letters
        assert root * (len(u) // len(root)) == u.letters

    def test_long_common_runs_match_the_naive_scan(self):
        # Powers of a root with one letter appended, of about equal length
        # or one of them short: a^k b against a^k c, (ab)^k a against
        # (ab)^k b, a^k b against a, equal powers of a root and so on.  Each
        # pair also goes as u against uv and uv against u.  The common run
        # of uv and vu then grows past the letter-by-letter head of the scan
        # in each of its three parts: u against v, v against its own tail,
        # and the tail of v against u.
        runs = {1: 0, 2: 0, 3: 0}
        for root in ("a", "ab", "aab"):
            for i, j in product(range(41), repeat=2):
                if abs(i - j) > 1 and min(i, j) > 1:
                    continue
                for x, y in product(("", "a", "b", "c"), repeat=2):
                    u = make_word(root * i + x, TERNARY)
                    v = make_word(root * j + y, TERNARY)
                    if not (u and v):
                        continue
                    for a, b in ((u, v), (u, u + v), (u + v, u)):
                        got = omega_cmp(a, b)
                        assert got == omega_cmp_naive(a, b), (a, b)
                        if got.mismatch_position is not None:
                            at = got.mismatch_position - 1
                            p, q = sorted((len(a), len(b)))
                            part, start = (1, 0) if at < p else (2, p) if at < q else (3, q)
                            runs[part] = max(runs[part], at - start)
        assert min(runs.values()) > 16, runs


class TestMismatchPosition:
    def test_tight_example(self):
        u, v = w("abaab"), w("abaababa")
        assert omega_mismatch_position(u, v) == 12
        assert 12 == len(u) + len(v) - math.gcd(len(u), len(v))
        assert omega_cmp(u, v).outcome is Ordering.GREATER

    def test_trivial_examples(self):
        assert omega_mismatch_position(w("a"), w("a")) is None
        assert omega_mismatch_position(w("a"), w("b")) == 1

    @given(words(max_size=8), words(max_size=8))
    def test_bound_never_exceeded(self, u, v):
        k = omega_mismatch_position(u, v)
        if k is not None:
            assert 1 <= k <= len(u) + len(v) - math.gcd(len(u), len(v))

    @given(words(max_size=8), words(max_size=8))
    def test_position_is_first_difference(self, u, v):
        k = omega_mismatch_position(u, v)
        if k is not None:
            assert ext(u, k - 1) == ext(v, k - 1)
            assert ext(u, k) != ext(v, k)

    @given(words(max_size=7), words(max_size=7), words(max_size=5), words(max_size=5))
    def test_tails_beyond_position_are_irrelevant(self, u, v, x, y):
        got = omega_cmp(u, v)
        if got.outcome is not Ordering.EQUAL:
            k = got.mismatch_position
            assert lex_cmp(ext(u, k) + x, ext(v, k) + y) == got.outcome


def test_suffix_forms_agree_exhaustively():
    # Over the splits w = uv, "w^ω < v^ω for all" and "u^ω < v^ω for all"
    # are the same condition, and both say w is Lyndon.
    for alphabet, max_len in ((BINARY, 10), (TERNARY, 6)):
        for word in iter_all_words(alphabet, max_len):
            parts = all(
                omega_cmp(word[:i], word[i:]).outcome is Ordering.LESS
                for i in range(1, len(word))
            )
            assert is_lyndon_suffix_omega(word) == parts == is_lyndon(word), word


def naive_six(u: Word, v: Word) -> SixConditions:
    """The six inequalities of six_conditions, each from omega_cmp_naive."""
    uv, vu = u + v, v + u

    def less(x: Word, y: Word) -> bool:
        return omega_cmp_naive(x, y).outcome is Ordering.LESS

    return SixConditions(
        less(u, v), less(uv, v), less(u, vu), less(uv, vu), less(u, uv), less(vu, v)
    )


class TestSixConditions:
    def test_examples(self):
        assert all(six_conditions(w("a"), w("b")))
        assert not any(six_conditions(w("b"), w("a")))
        assert all(six_conditions(w("aab"), w("ab")))

    def test_equal_extensions_all_false(self):
        assert not any(six_conditions(w("ab"), w("abab")))

    @given(pairs())
    def test_all_equal_or_all_false(self, pair):
        u, v = pair
        six = six_conditions(u, v)
        if omega_cmp(u, v).outcome is Ordering.EQUAL:
            assert not any(six)
        else:
            assert six.all_equal()
            assert six.u_lt_v == (omega_cmp(u, v).outcome is Ordering.LESS)
        assert six == naive_six(u, v)

    def test_alphabet_past_a_byte(self):
        # 300 symbols: ranks up to 299 do not fit a byte, so a long pair
        # over this alphabet must be compared as rank tuples.
        big = OrderedAlphabet(chr(0x100 + i) for i in range(300))
        root = (299, 0, 298, 1)
        u, v = Word(big, root * 25 + (0,)), Word(big, root * 20 + (299,))
        assert six_conditions(u, v) == naive_six(u, v) == SixConditions(*[True] * 6)
        assert not any(six_conditions(v, u))
        assert bergman_chain(u, v)


class TestBergmanChain:
    def test_examples(self):
        assert bergman_chain(w("a"), w("b")) is True
        assert bergman_chain(w("ab"), w("b")) is True

    def test_precondition(self):
        with pytest.raises(errors.PreconditionFailed):
            bergman_chain(w("b"), w("a"))
        with pytest.raises(errors.PreconditionFailed):
            bergman_chain(w("ab"), w("abab"))

    @given(pairs())
    def test_holds_whenever_less(self, pair):
        u, v = pair
        if omega_cmp(u, v).outcome is Ordering.LESS:
            assert bergman_chain(u, v)


def _prefix_of(shorter: Word, longer: Word) -> bool:
    return longer.letters[: len(shorter)] == shorter.letters


def test_extension_comparison_survives_finite_suffixes():
    # us vs vt with s, t built from up to three factors in {u, v}: the
    # truncated extensions must order exactly like u^omega vs v^omega.
    universe = list(iter_all_words(BINARY, 4))
    for u, v in product(universe, repeat=2):
        base = omega_cmp(u, v).outcome
        if base is Ordering.EQUAL:
            continue
        pieces = [Word(BINARY)]
        for r in (1, 2, 3):
            pieces.extend(sum(combo[1:], combo[0]) for combo in product((u, v), repeat=r))
        for s in pieces:
            for t in pieces:
                n = len(u) + len(v) + len(s) + len(t)
                assert lex_cmp(ext(u + s, n), ext(v + t, n)) == base, (u, v, s, t)


def test_appending_preserves_order_without_prefix_relation():
    small = list(iter_all_words(BINARY, 3))
    tails = [Word(BINARY)] + list(iter_all_words(BINARY, 4))
    for u, v in product(small, repeat=2):
        if _prefix_of(u, v) or _prefix_of(v, u):
            continue
        if omega_cmp(u, v).outcome is not Ordering.LESS:
            continue
        for x in tails:
            for y in tails:
                assert omega_cmp(u + x, v + y).outcome is Ordering.LESS, (u, v, x, y)


def test_appending_preserves_order_past_largest_power_prefix():
    small = list(iter_all_words(BINARY, 3))
    tails = [Word(BINARY)] + list(iter_all_words(BINARY, 4))
    for u, v in product(small, repeat=2):
        if (u.letters * len(v))[:len(v)] == v.letters:  # v is a prefix of u^ω
            continue
        if omega_cmp(u, v).outcome is not Ordering.LESS:
            continue
        k = 0
        while _prefix_of(Word(BINARY, u.letters * (k + 1)), v):
            k += 1
        head = Word(BINARY, u.letters * (k + 1))
        for x in tails:
            for y in tails:
                assert omega_cmp(head + x, v + y).outcome is Ordering.LESS, (u, v, x, y)


@given(words(max_size=8), words(max_size=8))
def test_reversed_alphabet_flips_outcome(u, v):
    flipped = OrderedAlphabet("ba")
    ru = Word(flipped, (1 - x for x in u.letters))
    rv = Word(flipped, (1 - x for x in v.letters))
    got = omega_cmp(u, v)
    dual = omega_cmp(ru, rv)
    assert dual.outcome == Ordering(-got.outcome)
    assert dual.mismatch_position == got.mismatch_position
    if got.outcome is Ordering.EQUAL:
        assert dual.common_root.text() == got.common_root.text()


SIX_FIELDS = ("u_lt_v", "uv_lt_v", "u_lt_vu", "uv_lt_vu", "u_lt_uv", "vu_lt_v")

# Pairs that take each path of omega_cmp: different first letters, a
# difference inside the first, second or third part of the concatenations,
# and equal extensions.
CONTRACT_PAIRS = [
    ("a", "b"),
    ("b", "ab"),
    ("aab", "ab"),
    ("ab", "aab"),
    ("abaab", "abaababa"),
    ("ab" * 6 + "b", "ab" * 5),
    ("ab", "abab"),
    ("abaab" * 3, "abaab" * 2),
]


class TestResultContract:
    """The results are the same values a caller would build by hand."""

    @pytest.mark.parametrize("compare", [omega_cmp, omega_cmp_naive])
    @pytest.mark.parametrize("pair", CONTRACT_PAIRS)
    def test_results_equal_and_hash_like_built_ones(self, compare, pair):
        got = compare(w(pair[0]), w(pair[1]))
        built = OmegaComparison(got.outcome, got.mismatch_position, got.common_root)
        assert type(got) is OmegaComparison
        assert got == built and hash(got) == hash(built)
        assert got._fields == ("outcome", "mismatch_position", "common_root")
        assert got._asdict() == built._asdict()
        assert repr(got) == repr(built)

    @pytest.mark.parametrize("pair", CONTRACT_PAIRS)
    def test_six_conditions_is_a_plain_six_conditions(self, pair):
        got = six_conditions(w(pair[0]), w(pair[1]))
        built = SixConditions(*got)
        assert type(got) is SixConditions
        assert got == built and hash(got) == hash(built)
        assert repr(got) == repr(built)

    def test_six_fields_and_structured_keys(self, capsys):
        from lyndonkit.cli import main

        assert SixConditions._fields == SIX_FIELDS
        assert main(["compare", "aab", "ab", "--six", "--format", "structured"]) == 0
        assert tuple(json.loads(capsys.readouterr().out)["six"]) == SIX_FIELDS

    def test_six_conditions_errors(self):
        other = make_word("a", OrderedAlphabet("ba"))
        empty = Word(BINARY)
        # An empty word is reported before a mismatched alphabet.
        for u, v in ((empty, w("a")), (w("a"), empty), (empty, other), (other, empty)):
            with pytest.raises(errors.EmptyWord):
                six_conditions(u, v)
        for u, v in ((w("a"), other), (other, w("a"))):
            with pytest.raises(errors.AlphabetMismatch):
                six_conditions(u, v)
        # Equal alphabets need not be one object.
        twin = make_word("ab", OrderedAlphabet("ab"))
        assert six_conditions(w("a"), twin) == six_conditions(w("a"), w("ab"))

    def test_bergman_chain_errors(self):
        other = make_word("b", OrderedAlphabet("ba"))
        empty = Word(BINARY)
        # A mismatched alphabet is reported before an empty word.
        for u, v in ((w("a"), other), (other, w("a")), (empty, other), (other, empty)):
            with pytest.raises(errors.AlphabetMismatch):
                bergman_chain(u, v)
        for u, v in ((empty, w("a")), (w("a"), empty)):
            with pytest.raises(errors.EmptyWord):
                bergman_chain(u, v)
        for u, v in ((w("b"), w("a")), (w("ab"), w("abab"))):
            with pytest.raises(errors.PreconditionFailed):
                bergman_chain(u, v)
        twin = make_word("b", OrderedAlphabet("ab"))
        assert bergman_chain(w("a"), twin) is True


@st.composite
def _long_pairs(draw):
    if draw(st.booleans()):
        return draw(words(max_size=300)), draw(words(max_size=300))
    # Powers of one short root with short tails, so the pair often agrees
    # for hundreds of letters before it differs, or never differs.
    root = draw(words(max_size=6)).letters
    return tuple(
        Word(BINARY, root * draw(st.integers(1, 60)) + draw(words(min_size=0, max_size=6)).letters)
        for _ in range(2)
    )


@given(_long_pairs())
def test_six_conditions_match_omega_cmp_on_concatenations(pair):
    u, v = pair
    uv, vu = u + v, v + u
    expected = tuple(
        omega_cmp(x, y).outcome is Ordering.LESS
        for x, y in ((u, v), (uv, v), (u, vu), (uv, vu), (u, uv), (vu, v))
    )
    assert six_conditions(u, v) == expected
    if expected[0]:
        assert bergman_chain(u, v) == (expected[4] and expected[3] and expected[5])
