import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lyndonkit import (
    OrderedAlphabet,
    Ordering,
    Word,
    errors,
    iter_all_words,
    lex_cmp,
    make_word,
    nontrivial_splits,
    omega_cmp,
)

from .strategies import BINARY, TERNARY, words


def w(text: str, alphabet: OrderedAlphabet = BINARY) -> Word:
    return make_word(text, alphabet)


class TestAlphabet:
    def test_order_is_declaration_order(self):
        cba = OrderedAlphabet("cba")
        assert cba.rank == {"c": 0, "b": 1, "a": 2}
        assert OrderedAlphabet("abc").rank == {"a": 0, "b": 1, "c": 2}

    def test_rejects_duplicates_and_long_symbols(self):
        with pytest.raises(ValueError):
            OrderedAlphabet("aba")
        with pytest.raises(ValueError):
            OrderedAlphabet(["ab"])

    def test_contains_and_len(self):
        assert "b" in TERNARY
        assert "z" not in TERNARY
        assert len(TERNARY) == 3


class TestWord:
    def test_make_word_reports_position(self):
        with pytest.raises(errors.UnknownSymbol) as info:
            make_word("axb", BINARY)
        assert info.value.position == 2
        assert info.value.character == "x"

    def test_round_trip(self):
        assert w("abba").text() == "abba"
        assert list(w("abba")) == [0, 1, 1, 0]

    def test_indexing(self):
        word = w("aab")
        assert word[2] == 1
        assert word[:2] == w("aa")
        assert word[1:] == w("ab")

    def test_concatenation(self):
        assert w("ab") + w("ba") == w("abba")
        with pytest.raises(errors.AlphabetMismatch):
            w("ab") + make_word("ab", TERNARY)

    def test_equality_tracks_alphabet(self):
        assert w("ab") != make_word("ab", TERNARY)
        assert hash(w("ab")) == hash(w("ab"))

    def test_rank_range_checked(self):
        with pytest.raises(ValueError):
            Word(BINARY, [0, 2])

    def test_ranks_must_be_ints(self):
        for bad in ([0.5], [0, 1.0], ["a"], [0, None]):
            with pytest.raises(ValueError, match="is not an int"):
                Word(BINARY, bad)


class TestLexCmp:
    def test_examples(self):
        assert lex_cmp(w("ab"), w("b")) is Ordering.LESS
        assert lex_cmp(w("ab"), w("ab")) is Ordering.EQUAL
        assert lex_cmp(w("ab"), w("aab")) is Ordering.GREATER

    def test_prefix_is_smaller(self):
        assert lex_cmp(w("ab"), w("abb")) is Ordering.LESS

    @given(words(max_size=8), words(max_size=8))
    def test_matches_text_comparison(self, u, v):
        # Rank tuples must order exactly like the raw strings for "ab".
        expect = (u.text() > v.text()) - (u.text() < v.text())
        assert lex_cmp(u, v) == Ordering(expect)


class TestPrimitiveRoot:
    """A word's primitive root, as omega_cmp reports it for the word against itself."""

    def test_examples(self):
        assert omega_cmp(w("abab"), w("abab")).common_root == w("ab")
        assert omega_cmp(w("aab"), w("aab")).common_root == w("aab")
        assert omega_cmp(w("aaaa"), w("aaaa")).common_root == w("a")

    @given(words(max_size=12))
    def test_root_is_primitive_and_rebuilds(self, word):
        root = omega_cmp(word, word).common_root
        e = len(word) // len(root)
        assert Word(BINARY, root.letters * e) == word
        assert omega_cmp(root, root).common_root == root
        assert all(root.letters[:d] * (len(root) // d) != root.letters for d in range(1, len(root)))


def _shuffled(symbols: list[str]) -> OrderedAlphabet:
    # A fixed shuffle, so that no rank equals its symbol's code point.
    random.Random(0).shuffle(symbols)
    return OrderedAlphabet(symbols)


_LATIN_1 = [chr(c) for c in range(256) if chr(c).isprintable()]
_CJK = [chr(c) for c in range(0x4E00, 0x4E00 + 300)]

# Each alphabet takes its own route through make_word and Word.text: `ba`
# and the printable Latin-1 symbols use both tables, the latter with most
# control characters below chr(n); `aωb` has a symbol outside Latin-1; the
# last two sit at and past the 256-symbol limit of the tables.
CODEC_ALPHABETS = {
    "ba": OrderedAlphabet("ba"),
    "latin-1": _shuffled(list(_LATIN_1)),
    "greek": OrderedAlphabet("aωb"),
    "256": _shuffled(_LATIN_1 + _CJK[: 256 - len(_LATIN_1)]),
    "300": _shuffled(_LATIN_1 + _CJK[: 300 - len(_LATIN_1)]),
}
# Characters outside most of those alphabets: control characters that a
# bare str.translate would leave as ranks 0 and 1, and non-Latin-1 ones.
STRAYS = ["\x00", "\x01", "\x7f", "\xad", "z", "ω", "\u0100", "\u4e00", "\U0001f600"]


def make_word_reference(chars, alphabet: OrderedAlphabet):
    """The ranks of chars, one symbol at a time, or the first unknown symbol."""
    ranks = []
    for position, ch in enumerate(chars, start=1):
        if ch not in alphabet.symbols:
            return ("unknown", position, ch)
        ranks.append(alphabet.symbols.index(ch))
    return ("word", tuple(ranks))


def make_word_outcome(chars, alphabet: OrderedAlphabet):
    try:
        word = make_word(chars, alphabet)
    except errors.UnknownSymbol as err:
        return ("unknown", err.position, err.character)
    assert word.alphabet is alphabet
    return ("word", tuple(word.letters))


@st.composite
def codec_texts(draw, strays: int):
    """An alphabet, and a string of its symbols with `strays` characters from STRAYS."""
    alphabet = CODEC_ALPHABETS[draw(st.sampled_from(sorted(CODEC_ALPHABETS)))]
    chars = draw(st.lists(st.sampled_from(alphabet.symbols), max_size=80))
    for _ in range(strays):
        chars.insert(draw(st.integers(0, len(chars))), draw(st.sampled_from(STRAYS)))
    return alphabet, "".join(chars)


class TestTableCodecs:
    """make_word and Word.text against per-letter references."""

    @pytest.mark.parametrize("strays", [0, 1, 3])
    @given(data=st.data())
    def test_make_word(self, strays, data):
        alphabet, text = data.draw(codec_texts(strays))
        assert make_word_outcome(text, alphabet) == make_word_reference(text, alphabet)

    @pytest.mark.parametrize("name", sorted(CODEC_ALPHABETS))
    @pytest.mark.parametrize("stray", STRAYS)
    def test_every_stray(self, name, stray):
        alphabet = CODEC_ALPHABETS[name]
        text = alphabet.symbols[0] * 3 + stray + alphabet.symbols[-1]
        assert make_word_outcome(text, alphabet) == make_word_reference(text, alphabet)

    @given(codec_texts(strays=1), st.sampled_from([list, tuple, iter]))
    def test_make_word_on_other_iterables(self, case, wrap):
        alphabet, text = case
        assert make_word_outcome(wrap(text), alphabet) == make_word_reference(text, alphabet)

    @given(st.data())
    def test_text(self, data):
        alphabet = CODEC_ALPHABETS[data.draw(st.sampled_from(sorted(CODEC_ALPHABETS)))]
        ranks = data.draw(st.lists(st.integers(0, len(alphabet) - 1), max_size=80))
        expect = "".join(alphabet.symbols[r] for r in ranks)
        word = Word(alphabet, ranks)
        assert word.text() == expect
        assert make_word(expect, alphabet) == word


def test_nontrivial_splits_cover_word():
    parts = list(nontrivial_splits(w("aabb")))
    assert [(u.text(), v.text()) for u, v in parts] == [
        ("a", "abb"),
        ("aa", "bb"),
        ("aab", "b"),
    ]
    assert all(u + v == w("aabb") for u, v in parts)


def test_iter_all_words_shortlex():
    got = [x.text() for x in iter_all_words(BINARY, 2)]
    assert got == ["a", "b", "aa", "ab", "ba", "bb"]
    assert sum(1 for _ in iter_all_words(TERNARY, 3)) == 3 + 9 + 27
