"""Every verify check can fail, and every wrong result makes one fail.

Each mutant replaces one library function with a wrong one, everywhere the
package binds it, as if its source had changed, and verify_word runs on
every word of up to 8 letters over ``ab`` and up to 5 over ``abc``.  The
known gaps are strict xfails naming the ROADMAP item that closes them, so
they turn red when it lands.
"""

import functools

import pytest

from lyndonkit import (
    CHECK_NAMES,
    LyndonFactorization,
    Ordering,
    cartesian,
    cli,
    iter_all_words,
    lyndon,
    omega,
    oracle,
    trees,
    verify_word,
    words,
)

from .strategies import BINARY, TERNARY
from .test_cli import LYNDON_CHECKS

WORDS = [*iter_all_words(BINARY, 8), *iter_all_words(TERNARY, 5)]


def mutate(monkeypatch, real, fake):
    """Bind fake(real) wherever a lyndonkit module binds real."""
    wrong = fake(real)
    for module in (words, lyndon, omega, trees, cartesian, oracle, cli):
        for name, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, name, wrong)


def late_mismatch(omega_cmp):
    def late(u, v):
        # Wrong only where the first letters agree, so only a scan past them can tell.
        got = omega_cmp(u, v)
        if u.letters[0] == v.letters[0] and got.mismatch_position is not None:
            return got._replace(mismatch_position=got.mismatch_position + 1)
        return got

    return late


def cut_one_late(duval_cuts):
    def cuts(ls, lo, hi):
        found = duval_cuts(ls, lo, hi)
        if len(found) > 2 and found[1] + 1 < found[2]:
            found[1] += 1
        return found

    return cuts


def merge_first_two(factorization):
    def merged(w):
        factors = factorization(w).factors
        if len(factors) > 1:
            factors = (factors[0] + factors[1], *factors[2:])
        return LyndonFactorization(factors)

    return merged


def flip_u_lt_vu(six_conditions):
    def flipped(u, v):
        six = six_conditions(u, v)
        return six._replace(u_lt_vu=not six.u_lt_vu)

    return flipped


# The left tree's shape goes wrong, and its leaves stay those of w.
SHAPE_MUTANTS = {
    "left-ranks-are-right-ranks": (trees._left_ranks, lambda real: trees._right_ranks),
    "left-ranks-reversed": (trees._left_ranks, lambda real: lambda w: real(w)[::-1]),
}
MUTANTS = {
    **SHAPE_MUTANTS,
    "right-ranks-reversed": (trees._right_ranks, lambda real: lambda w: real(w)[::-1]),
    "complete-lays-letters-reversed": (
        trees._complete,
        lambda real: lambda labels, w: real(labels, w[::-1]),
    ),
    "duval-cut-one-late": (lyndon._duval_cuts, cut_one_late),
    "factorization-merges-two-factors": (lyndon.lyndon_factorization, merge_first_two),
    "six-conditions-flips-u-lt-vu": (omega.six_conditions, flip_u_lt_vu),
    "omega-cmp-reports-a-late-mismatch": (omega.omega_cmp, late_mismatch),
    "order-at-flipped": (omega._order_at, lambda real: lambda a, b, i: Ordering(-real(a, b, i))),
    "is-lyndon-ignores-the-last-letter": (
        lyndon.is_lyndon,
        lambda real: lambda w: len(w) == 1 or real(w[:-1]),
    ),
}


@functools.cache
def failing_checks(mutant: str) -> frozenset:
    with pytest.MonkeyPatch.context() as monkeypatch:
        mutate(monkeypatch, *MUTANTS[mutant])
        return frozenset(c.name for w in WORDS for c in verify_word(w).failures())


def test_every_word_passes_unmutated():
    assert all(verify_word(w).passed for w in WORDS)


def with_gaps(names, gaps):
    """The names as parameters, those in gaps as strict xfails with their reasons."""
    return [
        pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=gaps[name]))
        if name in gaps
        else name
        for name in names
    ]


@pytest.mark.parametrize(
    "mutant",
    with_gaps(MUTANTS, {"right-ranks-reversed": "ROADMAP item 5: nothing checks the right tree"}),
)
def test_every_mutant_fails_a_check(mutant):
    assert failing_checks(mutant)


@pytest.mark.parametrize("check", CHECK_NAMES)
def test_every_check_fails_under_a_mutant(check):
    assert any(check in failing_checks(mutant) for mutant in MUTANTS)


# Both sides of these two checks read the one left tree, so a wrong shape
# with the right leaves passes them.
SHAPE_GAP = "ROADMAP item 4: both sides read the one left tree"


@pytest.mark.parametrize(
    "check",
    with_gaps(LYNDON_CHECKS, {"left-foliage-concatenation": SHAPE_GAP, "tree-foliage": SHAPE_GAP}),
)
def test_every_tree_check_sees_a_wrong_shape(check):
    assert any(check in failing_checks(mutant) for mutant in SHAPE_MUTANTS)
