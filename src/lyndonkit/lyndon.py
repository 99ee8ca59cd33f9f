"""The Lyndon predicate, the nonincreasing factorization, and its end factors.

A nonempty word is Lyndon when it is strictly smaller than the right part
of every nontrivial split.  Duval's scan (Duval 1983) gives the predicate,
the factorization, both end factors and every Lyndon prefix in linear time;
the other characterizations live in the oracle.
"""

from __future__ import annotations

from typing import Iterator

from .words import OrderedAlphabet, Word, _join, ensure_nonempty

__all__ = [
    "LyndonFactorization",
    "is_lyndon",
    "lyndon_factorization",
    "first_lyndon_factor",
    "last_lyndon_factor",
    "enumerate_lyndon_words",
]


class LyndonFactorization:
    """Factors of the unique nonincreasing factorization into Lyndon words.

    An immutable record with equality, hash and repr on its one field,
    written out so that `compare` and `factorize` start without loading
    dataclasses.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[Word, ...]) -> None:
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy would restore the slot through __setattr__.
        return type(self), (self.factors,)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return hash((self.factors,))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(factors={self.factors!r})"

    @property
    def word(self) -> Word:
        return _join(self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.factors)


def _lyndon_prefix_ends(ls: tuple[int, ...], lo: int, hi: int) -> tuple[list[int], int]:
    """Ends of the Lyndon prefixes of ls[lo:hi], lo < hi, ascending, and where the scan stopped.

    Duval's inner scan: ls[lo:j] stays a prefix of a power of the Lyndon
    word ls[lo:j + lo - k].  A larger letter makes ls[lo:j + 1] Lyndon, an
    equal one extends the power, and a smaller one ends every longer
    Lyndon prefix.
    """
    ends = [lo + 1]
    k = lo
    for j in range(lo + 1, hi):
        a, b = ls[k], ls[j]
        if a < b:
            k = lo
            ends.append(j + 1)
        elif a == b:
            k += 1
        else:
            return ends, j
    return ends, hi


def _duval_cuts(ls: tuple[int, ...], lo: int, hi: int) -> list[int]:
    """Start offsets of the Duval factors of ls[lo:hi], followed by hi."""
    cuts = []
    i = lo
    while i < hi:
        # ls[i:stop] is a prefix of a power of ls[i:i + step]; each whole copy is a factor.
        ends, stop = _lyndon_prefix_ends(ls, i, hi)
        step = ends[-1] - i
        while i + step <= stop:
            cuts.append(i)
            i += step
    cuts.append(hi)
    return cuts


def is_lyndon(w: Word) -> bool:
    """Every nontrivial split w = uv has u < v; single letters pass vacuously.

    Equivalently, w is its own longest Lyndon prefix.
    """
    ensure_nonempty(w)
    return _lyndon_prefix_ends(w.letters, 0, len(w.letters))[0][-1] == len(w.letters)


def lyndon_factorization(w: Word) -> LyndonFactorization:
    """The unique nonincreasing factorization into Lyndon words (Duval's scan)."""
    ensure_nonempty(w)
    ls = w.letters
    cuts = _duval_cuts(ls, 0, len(ls))
    return LyndonFactorization(
        tuple([Word._make(w.alphabet, ls[a:b]) for a, b in zip(cuts, cuts[1:])])
    )


def first_lyndon_factor(w: Word) -> Word:
    """Leading factor of the factorization: the longest Lyndon prefix, in O(n)."""
    ensure_nonempty(w)
    return w[:_lyndon_prefix_ends(w.letters, 0, len(w.letters))[0][-1]]


def last_lyndon_factor(w: Word) -> Word:
    """Final factor of the factorization, which is the smallest suffix.

    Read off one Duval scan, in O(n).
    """
    ensure_nonempty(w)
    return w[_duval_cuts(w.letters, 0, len(w.letters))[-2]:]


def enumerate_lyndon_words(alphabet: OrderedAlphabet, max_len: int) -> Iterator[Word]:
    """All Lyndon words of length at most max_len, in shortlex order.

    Successor generation bounded by n (extend the current word periodically
    to length n, strip trailing top symbols, then bump the last letter)
    runs through the Lyndon words of length at most n in lexicographic
    order.  One run per length n in turn, keeping the words of length
    exactly n, streams them without collecting or sorting.
    """
    top = len(alphabet.symbols) - 1
    if top < 0:
        return
    for n in range(1, max_len + 1):
        cur = [0]
        while cur:
            if len(cur) == n:
                yield Word(alphabet, tuple(cur))
            cur = [cur[i % len(cur)] for i in range(n)]
            while cur and cur[-1] == top:
                cur.pop()
            if cur:
                cur[-1] += 1
