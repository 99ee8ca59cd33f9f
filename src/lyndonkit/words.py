"""Ordered alphabets, finite words over them, their encoding, order and splits.

A word stores alphabet ranks instead of raw characters, so the declared
symbol order is baked in at construction time and every later comparison is
a plain integer comparison.  Rank tuples compare lexicographically exactly
like the words they encode, with a proper prefix sorting first, so Python's
tuple order is the word order.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterable, Iterator, Sequence

from .errors import AlphabetMismatch, EmptyWord, UnknownSymbol

__all__ = [
    "Ordering",
    "OrderedAlphabet",
    "Word",
    "make_word",
    "lex_cmp",
    "nontrivial_splits",
    "iter_all_words",
]


class Ordering(enum.IntEnum):
    """Three-way comparison outcome."""

    LESS = -1
    EQUAL = 0
    GREATER = 1


class OrderedAlphabet:
    """A finite symbol set with an explicit total order.

    The declared order is the only order the package ever uses.  Reversing
    the symbol list yields the opposite order; no other machinery is needed.

    A Latin-1 alphabet, which has at most 256 symbols, also keeps the
    `str.translate` table that lets `make_word` encode a whole word at C
    speed, one rank per Latin-1 byte.
    """

    __slots__ = ("symbols", "rank", "_encoding", "_ranks")

    def __init__(self, symbols: Iterable[str]) -> None:
        syms = tuple(symbols)
        if any(len(s) != 1 or not s.isprintable() for s in syms):
            raise ValueError("alphabet symbols must be single printable characters")
        if len(set(syms)) != len(syms):
            raise ValueError(f"alphabet symbols must be distinct: {''.join(syms)!r}")
        self.symbols = syms
        self.rank = {s: i for i, s in enumerate(syms)}
        n = len(syms)
        self._encoding = self._ranks = None
        if max(syms, default="") <= "\xff":
            # Symbol to rank, and every other character below chr(n) to
            # chr(256), which Latin-1 cannot encode, so no stray character
            # passes for a rank.
            self._encoding = dict.fromkeys(range(n), 256)
            self._encoding.update(zip(map(ord, syms), range(n)))
            self._ranks = bytes(range(n))

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.rank

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OrderedAlphabet) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"OrderedAlphabet({''.join(self.symbols)!r})"


_new_word = object.__new__


class Word:
    """An immutable finite word, stored as a tuple of alphabet ranks.

    Indexing with an int returns a rank, slicing returns a Word, and `+`
    concatenates words over the same alphabet.
    """

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet: OrderedAlphabet, letters: Iterable[int] = ()) -> None:
        ls = tuple(letters)
        if not all(map(isinstance, ls, itertools.repeat(int))):
            bad = next(x for x in ls if not isinstance(x, int))
            raise ValueError(f"rank {bad!r} is not an int")
        if ls and not (0 <= min(ls) and max(ls) < len(alphabet.symbols)):
            bad = next(x for x in ls if not 0 <= x < len(alphabet.symbols))
            raise ValueError(f"rank {bad} out of range for {alphabet!r}")
        self.alphabet = alphabet
        self.letters = ls

    @classmethod
    def _make(cls, alphabet: OrderedAlphabet, letters: tuple) -> "Word":
        # Trusted path: letters already known to be valid ranks.
        word = object.__new__(cls)
        word.alphabet = alphabet
        word.letters = letters
        return word

    def text(self) -> str:
        symbols = self.alphabet.symbols
        return "".join([symbols[i] for i in self.letters])

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __getitem__(self, index):
        if index.__class__ is slice:
            # _make inlined: the sweep slices prefixes and suffixes of every word.
            word = _new_word(Word)
            word.alphabet = self.alphabet
            word.letters = self.letters[index]
            return word
        return self.letters[index]

    def __add__(self, other: "Word") -> "Word":
        if self.alphabet is not other.alphabet and self.alphabet != other.alphabet:
            raise AlphabetMismatch("cannot concatenate words over different alphabets")
        return Word._make(self.alphabet, self.letters + other.letters)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Word)
            and self.alphabet == other.alphabet
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return hash((self.alphabet.symbols, self.letters))

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Word({self.text()!r})"


def ensure_nonempty(word: Word) -> None:
    if len(word.letters) == 0:
        raise EmptyWord("operation requires a nonempty word")


def ensure_same_alphabet(u: Word, v: Word) -> None:
    if u.alphabet != v.alphabet:
        raise AlphabetMismatch("words belong to different alphabets")


def _join(words: Sequence[Word]) -> Word:
    """Concatenate a nonempty sequence of words in one O(n) copy.

    Joining with `+` one word at a time copies Θ(k·n) letters for k parts.
    """
    alphabet = words[0].alphabet
    if any(w.alphabet is not alphabet and w.alphabet != alphabet for w in words):
        raise AlphabetMismatch("cannot concatenate words over different alphabets")
    return Word._make(alphabet, tuple(itertools.chain.from_iterable(w.letters for w in words)))


def make_word(text: Iterable[str], alphabet: OrderedAlphabet) -> Word:
    """Encode a character sequence as a word; error positions are 1-based.

    A str over an alphabet of Latin-1 symbols is encoded with one table
    lookup per letter in C: each symbol becomes the byte of its
    rank, and any other character either fails the Latin-1 encoding or
    leaves a byte that is no rank.  Everything else, and every input with
    an unknown character, goes one letter at a time.
    """
    if alphabet._encoding is not None and isinstance(text, str):
        try:
            data = text.translate(alphabet._encoding).encode("latin-1")
        except UnicodeEncodeError:
            pass
        else:
            if not data.translate(None, alphabet._ranks):
                return Word._make(alphabet, tuple(data))
    rank = alphabet.rank
    chars = text if isinstance(text, str) else tuple(text)
    try:
        letters = tuple(map(rank.__getitem__, chars))
    except KeyError:
        pos, ch = next((p, ch) for p, ch in enumerate(chars, start=1) if ch not in rank)
        raise UnknownSymbol(pos, ch) from None
    return Word._make(alphabet, letters)


def lex_cmp(u: Word, v: Word) -> Ordering:
    """Lexicographic comparison; a proper prefix is smaller than its extension."""
    ensure_same_alphabet(u, v)
    if u.letters == v.letters:
        return Ordering.EQUAL
    return Ordering.LESS if u.letters < v.letters else Ordering.GREATER


def _root_length(ls: tuple[int, ...]) -> int:
    """Length of the primitive root of a nonempty letter tuple."""
    n = len(ls)
    for d in range(1, n):
        # A period d must first survive its next d letters, an O(d) check
        # that rejects most candidates before the O(n) one.
        if n % d == 0 and ls[d:2 * d] == ls[:min(d, n - d)] and ls[:d] * (n // d) == ls:
            return d
    return n


def nontrivial_splits(w: Word) -> Iterator[tuple[Word, Word]]:
    """All factorizations w = uv with both parts nonempty."""
    for i in range(1, len(w.letters)):
        yield w[:i], w[i:]


def iter_all_words(alphabet: OrderedAlphabet, max_len: int) -> Iterator[Word]:
    """Every nonempty word of length at most max_len, in shortlex order."""
    for n in range(1, max_len + 1):
        for tup in itertools.product(range(len(alphabet.symbols)), repeat=n):
            yield Word(alphabet, tup)
