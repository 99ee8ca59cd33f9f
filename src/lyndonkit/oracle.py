"""Brute-force reference implementations and a per-word theorem verifier.

Everything here is written against the raw definitions, or against one of
the paper's alternative characterizations, and shares only the data types
and the extension order with the fast paths, so each claim gets checked by
two independently written routines.  Exponential behavior is acceptable;
inputs stay desk sized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .cartesian import left_cartesian_tree, prec_cmp
from .errors import NotLyndon, UniquenessViolation
from .lyndon import (
    LyndonFactorization,
    first_lyndon_factor,
    is_lyndon,
    last_lyndon_factor,
    lyndon_factorization,
)
from .omega import OmegaComparison, bergman_chain, omega_cmp, six_conditions
from .trees import (
    Leaf,
    MagmaTree,
    Node,
    foliage,
    internal_addresses,
    left_foliage,
    left_lyndon_tree,
    left_standard_factorization,
    left_subtrees_sequence,
    right_lyndon_tree,
    right_standard_factorization,
)
from .words import (
    Ordering,
    Word,
    _join,
    ensure_nonempty,
    ensure_same_alphabet,
    lex_cmp,
    nontrivial_splits,
)

__all__ = [
    "CheckResult",
    "VerificationReport",
    "CHECK_NAMES",
    "omega_cmp_naive",
    "is_lyndon_via_suffixes",
    "is_lyndon_via_rotations",
    "is_lyndon_suffix_omega",
    "is_lyndon_prefix_omega",
    "lyndon_factorization_naive",
    "first_lyndon_factor_naive",
    "last_lyndon_factor_naive",
    "left_lyndon_tree_naive",
    "left_cartesian_tree_via_prefixes",
    "verify_word",
]


# Bound once: the sweep's many calls load a global far faster than an enum member.
_LESS, _EQUAL, _GREATER = Ordering.LESS, Ordering.EQUAL, Ordering.GREATER

# Builds a NamedTuple result from a tuple of its fields, skipping the
# generated constructor's Python frame.
_new = tuple.__new__


def omega_cmp_naive(u: Word, v: Word) -> OmegaComparison:
    """Materialize both extensions out to |u| + |v| letters and scan.

    _first_mismatch scans the two extensions letter by letter for the first
    offset where they differ.  Finding none means equal extensions (Fine
    and Wilf); the common root is then found by trying prefixes of u from
    the shortest up.  Finding none raises, and that happens exactly when
    uv != vu (Lyndon and Schützenberger).
    """
    if u.alphabet is not v.alphabet:
        ensure_same_alphabet(u, v)
    a, b = u.letters, v.letters
    if not (a and b):
        ensure_nonempty(u)
        ensure_nonempty(v)
    total = len(a) + len(b)
    ea, eb = _extension(a, total), _extension(b, total)
    k = _first_mismatch(ea, eb, total)
    if k is not None:
        return _new(OmegaComparison, (_LESS if ea[k] < eb[k] else _GREATER, k + 1, None))
    return _new(OmegaComparison, (_EQUAL, None, _common_root(u, v)))


def _extension(letters: tuple[int, ...], length: int) -> tuple[int, ...]:
    """The first length letters of letters repeated forever."""
    return (letters * (length // len(letters) + 1))[:length]


def _first_mismatch(ea: tuple[int, ...], eb: tuple[int, ...], total: int) -> int | None:
    """First offset k < total with ea[k] != eb[k], None if there is none.

    The one scan behind omega_cmp_naive and the omega-agreement check.  It
    shares no code with the locators in omega, so the oracle stays
    independent of what it checks.
    """
    k = 0
    while k < total:
        if ea[k] != eb[k]:
            return k
        k += 1
    return None


def _common_root(u: Word, v: Word) -> Word:
    a = u.letters
    for d in range(1, len(a) + 1):
        root = a[:d]
        if _repeats_to(root, a) and _repeats_to(root, v.letters):
            return Word._make(u.alphabet, root)
    raise AssertionError(f"{u} and {v}: equal extensions but no common root, so uv != vu")


def _repeats_to(root: tuple[int, ...], letters: tuple[int, ...]) -> bool:
    q, r = divmod(len(letters), len(root))
    return r == 0 and root * q == letters


def _below_rotations(letters: tuple[int, ...]) -> bool:
    # Strictly smaller than each of its nontrivial rotations.
    for i in range(1, len(letters)):
        if not letters < letters[i:] + letters[:i]:
            return False
    return True


def is_lyndon_via_suffixes(w: Word) -> bool:
    """Variant split condition: w is smaller than each nontrivial proper suffix."""
    ensure_nonempty(w)
    ls = w.letters
    return all(ls < ls[i:] for i in range(1, len(ls)))


def is_lyndon_via_rotations(w: Word) -> bool:
    """Variant split condition: w is strictly smaller than each nontrivial rotation."""
    ensure_nonempty(w)
    return _below_rotations(w.letters)


def is_lyndon_suffix_omega(w: Word) -> bool:
    """Extension-order test over splits w = uv: w^ω below v^ω for every split."""
    ensure_nonempty(w)
    return all(omega_cmp(w, v).outcome is _LESS for _, v in nontrivial_splits(w))


def is_lyndon_prefix_omega(w: Word) -> bool:
    """Extension-order test over prefixes: every nontrivial proper prefix is below w."""
    ensure_nonempty(w)
    return all(omega_cmp(w[:i], w).outcome is _LESS for i in range(1, len(w.letters)))


def lyndon_factorization_naive(w: Word) -> LyndonFactorization:
    """Search every nonincreasing sequence of Lyndon pieces that spells w.

    A depth-first search extends each partial sequence by every piece that
    is Lyndon (by the rotation test) and at most the previous piece.
    Raises UniquenessViolation unless exactly one sequence completes.
    """
    ensure_nonempty(w)
    letters = w.letters
    n = len(letters)
    complete = []
    stack: list[tuple[int, tuple[tuple[int, ...], ...]]] = [(0, ())]
    while stack:
        start, pieces = stack.pop()
        if start == n:
            complete.append(pieces)
            continue
        for stop in range(start + 1, n + 1):
            piece = letters[start:stop]
            if pieces and piece > pieces[-1]:
                # Every longer piece from this start is larger still.
                break
            if _below_rotations(piece):
                stack.append((stop, pieces + (piece,)))
    if len(complete) != 1:
        raise UniquenessViolation(f"{w.text()!r}: {len(complete)} nonincreasing factorizations")
    return LyndonFactorization(tuple(Word._make(w.alphabet, part) for part in complete[0]))


def first_lyndon_factor_naive(w: Word) -> tuple[Word, Word]:
    """The leading factor found by two independent prefix scans.

    The first item is the shortest prefix whose extension is not below that
    of the whole word; the second is the shortest prefix w[:i] that is all
    of w or whose extension is not below that of the rest w[i:].  Both
    equal the leading Lyndon factor.
    """
    ensure_nonempty(w)
    n = len(w.letters)
    against_whole = next(
        w[:i] for i in range(1, n + 1) if omega_cmp(w[:i], w).outcome is not _LESS
    )
    against_rest = next(
        w[:i]
        for i in range(1, n + 1)
        if i == n or omega_cmp(w[:i], w[i:]).outcome is not _LESS
    )
    return against_whole, against_rest


def last_lyndon_factor_naive(w: Word) -> Word:
    """The shortest nonempty suffix with the smallest extension, by a scan of all suffixes."""
    ensure_nonempty(w)
    best = w
    for start in range(1, len(w.letters)):
        s = w[start:]
        c = omega_cmp(s, best)
        if c.outcome is _LESS or (c.outcome is _EQUAL and len(s.letters) < len(best.letters)):
            best = s
    return best


def _grow(w: Word, split) -> MagmaTree:
    """Grow a tree over w top-down from the block w[0:n], with an explicit stack.

    split(lo, hi) names the cut of the block w[lo:hi], which has at least
    two letters: its children are the blocks w[lo:cut] and w[cut:hi].  A
    one-letter block is a leaf.  No recursion, so no depth reaches the
    interpreter's recursion limit.
    """
    done: list[MagmaTree] = []
    todo = [(0, len(w.letters), False)]
    while todo:
        lo, hi, children_done = todo.pop()
        if children_done:
            right = done.pop()
            done.append(Node(done.pop(), right))
        elif hi - lo == 1:
            done.append(Leaf(w[lo:hi]))
        else:
            cut = split(lo, hi)
            # The left block finishes first, then the right one, then the node.
            todo += ((lo, hi, True), (cut, hi, False), (lo, cut, False))
    return done[0]


def left_lyndon_tree_naive(w: Word) -> MagmaTree:
    """Definition: split each block at its longest proper Lyndon prefix.

    Uses its own rotation-based Lyndon test and scans every prefix instead
    of stopping early, so it shares no algorithm with the fast builder.
    """
    ls = w.letters
    if not _below_rotations(ls):
        raise NotLyndon(f"{w.text()!r} is not a Lyndon word")

    def split(lo: int, hi: int) -> int:
        cut = lo
        for i in range(lo + 1, hi):
            if _below_rotations(ls[lo:i]):
                cut = i
        return cut

    return _grow(w, split)


def left_cartesian_tree_via_prefixes(w: Word) -> MagmaTree:
    """The left Cartesian tree, built from the prefixes instead of integer ranks.

    Each block w[lo:hi] is cut after the prec-greatest of the prefixes
    that end inside it, w[:lo + 1] to w[:hi - 1]; a one-letter block is a
    letter leaf.
    """
    if not is_lyndon(w):
        raise NotLyndon(f"{w.text()!r} is not a Lyndon word")

    def split(lo: int, hi: int) -> int:
        top = lo + 1
        for length in range(lo + 2, hi):
            if prec_cmp(w[:length], w[:top]) is _GREATER:
                top = length
        return top

    return _grow(w, split)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of every check that applied to one word."""

    word: Word
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


class _Facts:
    """Fast-path results about one word, each computed on first use.

    verify_word makes one per word and passes it to every predicate and
    check, so the left tree, its left foliages, Duval's factorization and
    the split comparisons are each computed once per word.  Only fast-path
    results live here: every oracle answer is computed by the check that
    compares against it.
    """

    def __init__(self, w: Word) -> None:
        self.word = w

    @cached_property
    def lyndon(self) -> bool:
        return is_lyndon(self.word)

    @cached_property
    def factorization(self) -> LyndonFactorization:
        return lyndon_factorization(self.word)

    @cached_property
    def splits(self) -> tuple[tuple[Word, Word, Ordering], ...]:
        """Each split w = uv with the extension order of u against v."""
        return tuple((u, v, omega_cmp(u, v).outcome) for u, v in nontrivial_splits(self.word))

    @cached_property
    def tree(self) -> MagmaTree:
        return left_lyndon_tree(self.word)

    @cached_property
    def hanging(self) -> tuple[tuple[str, list[Word]], ...]:
        """Each internal node's address, with the foliages of its left subtrees sequence."""
        t = self.tree
        return tuple(
            (addr, [foliage(s) for s in left_subtrees_sequence(t, addr)])
            for addr in internal_addresses(t)
        )

    @cached_property
    def labels(self) -> dict[str, Word]:
        """Each internal node's address, with its left foliage."""
        t = self.tree
        return {addr: left_foliage(t, addr) for addr in internal_addresses(t)}


# Each check gets the word and its _Facts record, and returns None when its
# claim holds on w, and otherwise a detail naming the values that disagreed.


def _check_omega_agreement(w: Word, facts: _Facts):
    # Each pair is decided within its first |p| + |s| <= 2n letters (Fine
    # and Wilf), so one 2n-letter extension of each prefix and suffix serves
    # all n pairs it takes part in.  The fast result is compared field by
    # field; the naive one is built only for a failure's detail.
    letters = w.letters
    n = len(letters)
    width = 2 * n
    suffixes = [(w[j:], _extension(letters[j:], width), n - j) for j in range(n)]
    for i in range(1, n + 1):
        p = w[:i]
        ep = _extension(letters[:i], width)
        for s, es, length in suffixes:
            fast = omega_cmp(p, s)
            k = _first_mismatch(ep, es, i + length)
            if k is None:
                agree = fast[0] is _EQUAL and fast[1] is None and fast[2] == _common_root(p, s)
            else:
                agree = (
                    fast[0] is (_LESS if ep[k] < es[k] else _GREATER)
                    and fast[1] == k + 1
                    and fast[2] is None
                )
            if not agree:
                return f"prefix {p} vs suffix {s}: {fast} != {omega_cmp_naive(p, s)}"


def _check_lyndon_definitions(w: Word, facts: _Facts):
    flags = (facts.lyndon, is_lyndon_via_suffixes(w), is_lyndon_via_rotations(w))
    if len(set(flags)) != 1:
        return f"split conditions disagree: {flags}"


def _check_suffix_conditions(w: Word, facts: _Facts):
    # Two forms over the splits w = uv: w^ω < v^ω (the library's) and u^ω < v^ω.
    whole = is_lyndon_suffix_omega(w)
    parts = all(outcome is _LESS for _, _, outcome in facts.splits)
    if whole != parts:
        return f"suffix extension forms disagree: w^ω < v^ω {whole}, u^ω < v^ω {parts}"
    if whole != facts.lyndon:
        return "suffix extension test disagrees with the split test"


def _check_prefix_condition(w: Word, facts: _Facts):
    if is_lyndon_prefix_omega(w) != facts.lyndon:
        return "prefix extension test disagrees with the split test"


def _check_six_equivalence(w: Word, facts: _Facts):
    for u, v, outcome in facts.splits:
        six = six_conditions(u, v)
        if outcome is _EQUAL:
            if any(six):
                return f"split {u}|{v}: equal extensions but {six}"
        elif not six.all_equal():
            return f"split {u}|{v}: {six}"


def _check_bergman(w: Word, facts: _Facts):
    for u, v, outcome in facts.splits:
        if outcome is _LESS and not bergman_chain(u, v):
            return f"split {u}|{v}: chain violated"


def _check_factorization(w: Word, facts: _Facts):
    fact = facts.factorization
    if fact.word != w:
        return "factors do not concatenate back to the word"
    if not all(is_lyndon(f) for f in fact.factors):
        return "non-Lyndon factor"
    for a, b in zip(fact.factors, fact.factors[1:]):
        if lex_cmp(a, b) is _LESS:
            return f"factors increase: {a} then {b}"
        if omega_cmp(a, b).outcome is _LESS:
            return f"extensions increase: {a} then {b}"
    naive = lyndon_factorization_naive(w)
    if fact.factors != naive.factors:
        return f"{fact.factors} != naive {naive.factors}"


def _check_first_factor(w: Word, facts: _Facts):
    fast = first_lyndon_factor(w)
    against_whole, against_rest = first_lyndon_factor_naive(w)
    head = facts.factorization.factors[0]
    if not fast == against_whole == against_rest == head:
        return (
            f"first factor {fast}, prefix scans {against_whole} and {against_rest}, "
            f"factorization head {head}"
        )


def _check_last_factor(w: Word, facts: _Facts):
    fast = last_lyndon_factor(w)
    scanned = last_lyndon_factor_naive(w)
    tail = facts.factorization.factors[-1]
    if not fast == scanned == tail:
        return f"last factor {fast}, suffix scan {scanned}, final factor {tail}"


def _check_first_dominates_rest(w: Word, facts: _Facts):
    factors = facts.factorization.factors
    if len(factors) >= 2:
        rest = _join(factors[1:])
        if omega_cmp(factors[0], rest).outcome is _LESS:
            return f"head {factors[0]} sits below the rest {rest}"


def _check_left_factorization(w: Word, facts: _Facts):
    u, v = left_standard_factorization(w)
    if not (is_lyndon(u) and is_lyndon(v)):
        return f"parts {u}|{v} are not both Lyndon"
    if lex_cmp(u, v) is not _LESS:
        return f"{u} is not below {v}"
    if len(v.letters) >= 2:
        v1, _ = left_standard_factorization(v)
        if lex_cmp(v1, u) is _GREATER:
            return f"head {v1} of the right part exceeds {u}"
        if v1.letters != u.letters[:len(v1.letters)]:
            return f"head {v1} of the right part is not a prefix of {u}"


def _check_right_factorization(w: Word, facts: _Facts):
    u, v = right_standard_factorization(w)
    if not (is_lyndon(u) and is_lyndon(v)):
        return f"parts {u}|{v} are not both Lyndon"


def _check_left_subtrees_chain(w: Word, facts: _Facts):
    for addr, ells in facts.hanging:
        if not all(is_lyndon(e) for e in ells):
            return f"node {addr or 'root'}: non-Lyndon hanging subtree"
        for a, b in zip(ells, ells[1:]):
            if b.letters != a.letters[:len(b.letters)]:
                return f"node {addr or 'root'}: {b} is not a prefix of {a}"


def _check_left_foliage_concatenation(w: Word, facts: _Facts):
    for addr, ells in facts.hanging:
        # The leaves left of the node's right subtree: a prefix of w.
        whole = facts.labels[addr]
        if whole != _join(ells) or whole.letters != w.letters[:len(whole.letters)]:
            return f"node {addr or 'root'}: foliages do not concatenate to a prefix of the word"


def _check_left_subtrees_order(w: Word, facts: _Facts):
    for addr, ells in facts.hanging:
        whole = _join(ells)
        last = ells[-1]
        if len(last.letters) >= 2:
            head, _ = left_standard_factorization(last)
            clipped = _join(ells[:-1] + [head])
            if omega_cmp(clipped, whole).outcome is not _LESS:
                return f"node {addr or 'root'}: clipping the tail did not shrink it"
        if len(ells) >= 2:
            shorter = _join(ells[:-1])
            if omega_cmp(whole, shorter).outcome is _GREATER:
                return f"node {addr or 'root'}: dropping the tail shrank it"


def _check_left_foliage_decreasing(w: Word, facts: _Facts):
    labels = facts.labels
    for addr, here in labels.items():
        for step in "LR":
            down = labels.get(addr + step)
            if down is not None and prec_cmp(down, here) is not _LESS:
                return f"label at {addr + step} is not below {addr or 'root'}"


def _check_trees_coincide(w: Word, facts: _Facts):
    if not (
        facts.tree
        == left_cartesian_tree(w)
        == left_cartesian_tree_via_prefixes(w)
        == left_lyndon_tree_naive(w)
    ):
        return "tree constructions disagree"


def _check_tree_foliage(w: Word, facts: _Facts):
    if foliage(facts.tree) != w:
        return "left tree foliage broke"
    if foliage(right_lyndon_tree(w)) != w:
        return "right tree foliage broke"


def _always(w: Word, facts: _Facts) -> bool:
    return True


def _when_lyndon(w: Word, facts: _Facts) -> bool:
    return facts.lyndon


def _when_lyndon_composite(w: Word, facts: _Facts) -> bool:
    return len(w.letters) >= 2 and facts.lyndon


_CHECKS = (
    ("omega-agreement", _check_omega_agreement, _always),
    ("lyndon-definitions", _check_lyndon_definitions, _always),
    ("lyndon-suffix-conditions", _check_suffix_conditions, _always),
    ("lyndon-prefix-condition", _check_prefix_condition, _always),
    ("six-equivalence", _check_six_equivalence, _always),
    ("bergman-chain", _check_bergman, _always),
    ("factorization", _check_factorization, _always),
    ("first-factor", _check_first_factor, _always),
    ("last-factor", _check_last_factor, _always),
    ("first-dominates-rest", _check_first_dominates_rest, _always),
    ("left-factorization", _check_left_factorization, _when_lyndon_composite),
    ("right-factorization", _check_right_factorization, _when_lyndon_composite),
    ("left-subtrees-chain", _check_left_subtrees_chain, _when_lyndon),
    ("left-foliage-concatenation", _check_left_foliage_concatenation, _when_lyndon),
    ("left-subtrees-order", _check_left_subtrees_order, _when_lyndon),
    ("left-foliage-decreasing", _check_left_foliage_decreasing, _when_lyndon),
    ("trees-coincide", _check_trees_coincide, _when_lyndon),
    ("tree-foliage", _check_tree_foliage, _when_lyndon),
)

CHECK_NAMES = tuple(name for name, _, _ in _CHECKS)

# A passed check's result carries only its name and results are immutable,
# so every report shares one per check instead of building a dataclass.
_PASSED = {name: CheckResult(name, True) for name in CHECK_NAMES}


def verify_word(w: Word) -> VerificationReport:
    """Run every applicable cross-check on one word; a check that raises fails.

    Every predicate and check gets the word and one record of its fast-path
    results, dropped when the report is made, so nothing is kept from one
    word to the next.
    """
    ensure_nonempty(w)
    facts = _Facts(w)
    results = []
    for name, check, applies in _CHECKS:
        if applies(w, facts):
            try:
                detail = check(w, facts)
            except Exception as err:
                detail = f"raised {type(err).__name__}: {err}"
            if detail is None:
                results.append(_PASSED.get(name) or CheckResult(name, True))
            else:
                results.append(CheckResult(name, False, detail))
    return VerificationReport(w, tuple(results))
