"""Prefix ranking of a word and the left Cartesian tree built from it.

Words are ordered by their periodic extensions, with the longer word
winning ties, so a square sits strictly below its root.  Ranking all
nonempty prefixes of a word by this order gives a permutation; for a
Lyndon word, the decreasing tree of that permutation (minus its final,
maximal entry), completed with the letters as leaves, reproduces the left
Lyndon tree (Ufnarovskij's characterization makes the same ranks the
Lyndon test).  No decreasing tree is made: the completed tree is built
from the bracket form of the ranks (see trees._complete).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key

from .errors import NotLyndon
from .omega import omega_cmp
from .trees import MagmaTree, _complete
from .words import Ordering, Word, ensure_nonempty

__all__ = [
    "PrefixStandard",
    "prec_cmp",
    "prefix_standard_permutation",
    "left_cartesian_tree",
]


def prec_cmp(u: Word, v: Word) -> Ordering:
    """Extension order refined by length: on ties the longer word is smaller.

    Distinct words never compare equal, so this is a strict total order.
    """
    c = omega_cmp(u, v)
    if c.outcome is not Ordering.EQUAL:
        return c.outcome
    if len(u.letters) != len(v.letters):
        return Ordering.LESS if len(u.letters) > len(v.letters) else Ordering.GREATER
    return Ordering.EQUAL


@dataclass(frozen=True)
class PrefixStandard:
    """Ranks of the nonempty prefixes of a word, read off by prefix length.

    sigma[i-1] is the rank (1-based) of the length-i prefix; inverse[r-1]
    is the length of the rank-r prefix, also known as the prefix array.
    """

    sigma: tuple[int, ...]
    inverse: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.sigma)


def _z_array(ls: tuple[int, ...]) -> list[int]:
    """z[i] is the length of the longest common prefix of ls and ls[i:]."""
    n = len(ls)
    z = [0] * n
    z[0] = n
    lo = hi = 0  # ls[lo:hi] is a copy of ls[:hi - lo], hi as large as found so far
    for i in range(1, n):
        k = 0
        if i < hi:
            k = z[i - lo]
            if k > hi - i:
                k = hi - i
        while i + k < n and ls[k] == ls[i + k]:
            k += 1
        z[i] = k
        if i + k > hi:
            lo, hi = i, i + k
    return z


def _prefix_ranks(w: Word) -> tuple[list[int], list[int]]:
    """sigma and inverse of prefix_standard_permutation(w), as lists.

    Prefixes p_i, p_j with i < j compare in the extension order as p_i p_j
    against p_j p_i.  Both words start with p_i, so the comparison reads
    w[0:j-i] against w[i:j], then w[j-i:j] against w[0:i]: two
    longest-common-prefix lookups in the Z-array of w.  Equal products mean
    equal extensions, and then the longer prefix ranks lower.
    """
    ensure_nonempty(w)
    ls = w.letters
    n = len(ls)
    z = _z_array(ls)

    def cmp(i: int, j: int) -> int:
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        d = j - i
        k = z[i]
        if k < d:
            return -sign if ls[k] < ls[i + k] else sign
        k = z[d]
        if k < i:
            return -sign if ls[d + k] < ls[k] else sign
        return sign

    by_rank = sorted(range(1, n + 1), key=cmp_to_key(cmp))
    sigma = [0] * n
    for rank, length in enumerate(by_rank, start=1):
        sigma[length - 1] = rank
    return sigma, by_rank


def prefix_standard_permutation(w: Word) -> PrefixStandard:
    """Rank every nonempty prefix of w under prec_cmp, by one comparison
    sort whose comparisons are Z-array lookups (see _prefix_ranks)."""
    sigma, by_rank = _prefix_ranks(w)
    return PrefixStandard(tuple(sigma), tuple(by_rank))


def _cartesian_ranks(w: Word) -> tuple[int, ...]:
    """The ranks of the proper prefixes of the Lyndon word w: see left_cartesian_tree."""
    sigma = _prefix_ranks(w)[0]
    if sigma.pop() != len(w.letters):
        raise NotLyndon(f"{w.text()!r} is not a Lyndon word")
    return tuple(sigma)


def left_cartesian_tree(w: Word) -> MagmaTree:
    """Complete the decreasing tree of the proper-prefix ranks of w.

    A word is Lyndon exactly when it ranks above all its proper prefixes
    (Ufnarovskij 1995).  Ties rank the longer word lower, so a power u^k
    ranks below u and fails, and a single letter passes.  The whole word's
    entry is then dropped, and the other ranks, with the letters in the
    empty slots, go through trees._complete like the labels of both Lyndon
    trees.
    """
    return _complete(_cartesian_ranks(w), w)
