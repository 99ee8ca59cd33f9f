"""Comparison of finite words through their periodic infinite extensions.

Nonempty words u and v are compared by the lexicographic order of the
infinite repetitions uuu... and vvv....  No infinite object is ever built:
the two extensions first differ exactly where the concatenations uv and vu
first differ, a position bounded by |u| + |v| - gcd(|u|, |v|), the Fine
and Wilf bound.  When uv = vu the extensions coincide.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Sequence

from .errors import PreconditionFailed
from .words import (
    OrderedAlphabet,
    Ordering,
    Word,
    _root_length,
    ensure_nonempty,
    ensure_same_alphabet,
)

__all__ = [
    "OmegaComparison",
    "SixConditions",
    "omega_cmp",
    "omega_mismatch_position",
    "six_conditions",
    "bergman_chain",
]


class OmegaComparison(NamedTuple):
    """Outcome of comparing two periodic extensions.

    mismatch_position is the 1-based index of the first differing letter,
    present exactly when the extensions differ.  common_root is present
    exactly when they coincide, in which case both words are powers of it.
    """

    outcome: Ordering
    mismatch_position: int | None
    common_root: Word | None


class SixConditions(NamedTuple):
    """The six pairwise extension inequalities built from u, v, uv and vu.

    Whenever the extensions of u and v differ, all six fields carry the
    same boolean; when the extensions coincide, all six are false.
    """

    u_lt_v: bool
    uv_lt_v: bool
    u_lt_vu: bool
    uv_lt_vu: bool
    u_lt_uv: bool
    vu_lt_v: bool

    def all_equal(self) -> bool:
        return all(self) or not any(self)


# Bound once: the sweep's many calls load a global far faster than an enum member.
_LESS, _EQUAL, _GREATER = Ordering.LESS, Ordering.EQUAL, Ordering.GREATER

# Builds a result from a tuple of its fields without the generated
# NamedTuple constructor, a Python function that costs about as much as
# a whole comparison of two short words.  Type and fields are the same.
_new = tuple.__new__

# Results are immutable, so every comparison decided by the first letters
# can return one of these two.
_LESS_AT_FIRST = _new(OmegaComparison, (_LESS, 1, None))
_GREATER_AT_FIRST = _new(OmegaComparison, (_GREATER, 1, None))


# Offsets compared letter by letter before _first_difference gallops.
_HEAD = 8


def _first_difference(
    a: tuple[int, ...], i: int, b: tuple[int, ...], j: int, n: int, lo: int = 0
) -> int | None:
    """First offset k < n with a[i + k] != b[j + k], None if there is none.

    The letters before offset lo are known to agree.  Offsets below 8
    (_HEAD) are compared one letter at a time by index, since most words
    that differ at all differ early, and a slice costs more than a few
    index lookups.  From there the scan gallops over windows of doubling
    length, clamped at n, then bisects the window that holds the
    difference: each step compares two slices, of tuples or bytes, no
    longer than the window, so a late difference costs O(log n)
    interpreter steps.
    """
    head = n if n < _HEAD else _HEAD
    while lo < head:
        if a[i + lo] != b[j + lo]:
            return lo
        lo += 1
    width = _HEAD
    while lo < n:
        hi = lo + width
        if hi > n:
            hi = n
        if a[i + lo:i + hi] != b[j + lo:j + hi]:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if a[i + lo:i + mid] == b[j + lo:j + mid]:
                    lo = mid
                else:
                    hi = mid
            return lo
        lo = hi
        width *= 2
    return None


def _concatenation_difference(a: tuple[int, ...], b: tuple[int, ...]) -> int | None:
    """First index where a + b and b + a differ, None when a + b == b + a.

    a[0] == b[0] is known.  Neither concatenation is built, and the index
    is the same with a and b swapped.  With p = |a| <= q = |b|, the two
    read a against b[:p], then b[:q - p] against b[p:], then b[q - p:]
    against a; each part compares windows at offsets into a and b.  The
    first 8 (_HEAD) offsets of the first part are read right here, so a
    pair of short words that differ early costs no further call.
    """
    p, q = len(a), len(b)
    if p > q:
        a, b, p, q = b, a, q, p
    head = p if p < _HEAD else _HEAD
    i = 1
    while i < head:
        if a[i] != b[i]:
            return i
        i += 1
    if i < p:
        i = _first_difference(a, 0, b, 0, p, i)
        if i is not None:
            return i
    if p == q:
        return None
    i = _first_difference(b, 0, b, p, q - p)
    if i is not None:
        return p + i
    i = _first_difference(b, q - p, a, 0, p)
    return None if i is None else q + i


def _order_at(a: tuple[int, ...], b: tuple[int, ...], i: int) -> Ordering:
    """Order of a + b against b + a, which first differ at index i."""
    # The letters of ab and ba at i, read from a and b.
    p, q = len(a), len(b)
    x = a[i] if i < p else b[i - p]
    y = b[i] if i < q else a[i - q]
    return _LESS if x < y else _GREATER


def omega_cmp(u: Word, v: Word) -> OmegaComparison:
    """Compare the periodic extensions of u and v.

    Equality holds exactly when uv = vu; the common primitive root is
    reported in that case.
    """
    # The sweep makes hundreds of thousands of calls on a few letters each,
    # so the common cases skip every helper call: one alphabet object, both
    # words nonempty, and different first letters (mismatch at position 1).
    if u.alphabet is not v.alphabet:
        ensure_same_alphabet(u, v)
    a, b = u.letters, v.letters
    if not (a and b):
        ensure_nonempty(u)
        ensure_nonempty(v)
    if a[0] != b[0]:
        return _LESS_AT_FIRST if a[0] < b[0] else _GREATER_AT_FIRST
    i = _concatenation_difference(a, b)
    if i is not None:
        return _new(OmegaComparison, (_order_at(a, b, i), i + 1, None))
    # uv = vu: both are powers of their common prefix of gcd length.
    common = a[:gcd(len(a), len(b))]
    root = Word._make(u.alphabet, common[:_root_length(common)])
    return _new(OmegaComparison, (_EQUAL, None, root))


def _omega_order(a: tuple[int, ...], b: tuple[int, ...]) -> Ordering:
    """omega_cmp's outcome on two nonempty letter sequences, with no result object."""
    if a[0] != b[0]:
        return _LESS if a[0] < b[0] else _GREATER
    i = _concatenation_difference(a, b)
    return _EQUAL if i is None else _order_at(a, b, i)


# Letters in a pair from which packing it into bytes pays for itself: the
# crossover measured between 48 and 96 letters.
_PACK_FROM = 64


def _packed(
    a: tuple[int, ...], b: tuple[int, ...], alphabet: OrderedAlphabet
) -> tuple[Sequence[int], Sequence[int]]:
    """a and b as bytes when the pair is long and every rank fits a byte, else as given.

    Bytes index, slice, concatenate and compare like rank tuples, but a
    bytes slice is copied and compared with no object per letter.
    """
    if len(a) + len(b) >= _PACK_FROM and len(alphabet.symbols) <= 256:
        return bytes(a), bytes(b)
    return a, b


def omega_mismatch_position(u: Word, v: Word) -> int | None:
    """1-based first position where the two extensions differ, None if never."""
    return omega_cmp(u, v).mismatch_position


def six_conditions(u: Word, v: Word) -> SixConditions:
    """Evaluate each of the six extension inequalities independently.

    Each is its own scan over the letters of u, v, uv and vu, and no Word
    or OmegaComparison is made.  A pair of at least 64 (_PACK_FROM)
    letters over at most 256 symbols is packed into bytes once, so the
    six scans compare bytes slices; shorter pairs, where packing costs
    more than it saves, and larger alphabets stay rank tuples.
    omega_cmp never packs: its one scan costs about as much as packing.
    """
    a, b = u.letters, v.letters
    # An empty word is reported before a mismatched alphabet; equal
    # alphabets that are distinct objects are accepted.
    if not (a and b):
        ensure_nonempty(u)
        ensure_nonempty(v)
    if u.alphabet is not v.alphabet:
        ensure_same_alphabet(u, v)
    a, b = _packed(a, b, u.alphabet)
    ab, ba = a + b, b + a
    order = _omega_order
    return _new(
        SixConditions,
        (
            order(a, b) is _LESS,
            order(ab, b) is _LESS,
            order(a, ba) is _LESS,
            order(ab, ba) is _LESS,
            order(a, ab) is _LESS,
            order(ba, b) is _LESS,
        ),
    )


def bergman_chain(u: Word, v: Word) -> bool:
    """Check u^ω < (uv)^ω < (vu)^ω < v^ω, given that u^ω < v^ω.

    Raises PreconditionFailed unless the extensions of u and v compare Less.
    """
    if omega_cmp(u, v).outcome is not _LESS:
        raise PreconditionFailed("the chain is stated for u strictly below v")
    a, b = _packed(u.letters, v.letters, u.alphabet)
    ab, ba = a + b, b + a
    order = _omega_order
    return order(a, ab) is _LESS and order(ab, ba) is _LESS and order(ba, b) is _LESS
