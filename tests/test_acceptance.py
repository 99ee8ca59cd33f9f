"""Acceptance gate: the ten golden-value and sweep criteria.

Each test prints exactly one pass/fail line so a terminal run shows the
whole scorecard at a glance.  Sweep tests report their elapsed time in
the same line.
"""

import math
import time
from collections import Counter
from itertools import combinations

from lyndonkit import (
    Ordering,
    enumerate_lyndon_words,
    first_lyndon_factor,
    format_tree,
    internal_addresses,
    is_lyndon,
    is_lyndon_prefix_omega,
    is_lyndon_suffix_omega,
    is_lyndon_via_rotations,
    is_lyndon_via_suffixes,
    iter_all_words,
    last_lyndon_factor,
    left_cartesian_tree,
    left_cartesian_tree_via_prefixes,
    left_foliage,
    left_lyndon_tree,
    left_lyndon_tree_naive,
    lyndon_factorization,
    lyndon_factorization_naive,
    make_word,
    omega_cmp,
    omega_cmp_naive,
    omega_mismatch_position,
    prefix_standard_permutation,
    six_conditions,
    bergman_chain,
)

from .strategies import BINARY, TERNARY
from .test_cli import run_cli

GOLDEN_WORD = "aabaacab"
GOLDEN_TREE_TEXT = "(((a,(a,b)),(a,(a,c))),(a,b))"
GOLDEN_SIGMA = (2, 1, 5, 4, 3, 7, 6, 8)
GOLDEN_LABELS = {
    "": "aabaac",
    "L": "aab",
    "LL": "a",
    "LLR": "aa",
    "LR": "aaba",
    "LRR": "aabaa",
    "R": "aabaaca",
}
BINARY_LYNDON_COUNTS = (2, 1, 2, 3, 6, 9, 18, 30, 56, 99)


def _report(num: int, name: str, ok: bool, note: str = "") -> None:
    suffix = f" ({note})" if note else ""
    print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_01_prefix_standard_golden():
    got = prefix_standard_permutation(make_word(GOLDEN_WORD, TERNARY))
    ok = got.sigma == GOLDEN_SIGMA and got.inverse == GOLDEN_SIGMA
    code, out, _ = run_cli(["pstd", GOLDEN_WORD])
    ok = ok and code == 0 and out.splitlines()[0] == "21543768"
    _report(1, "prefix-standard-permutation", ok)


def test_02_left_tree_golden():
    word = make_word(GOLDEN_WORD, TERNARY)
    tree = left_lyndon_tree(word)
    ok = format_tree(tree) == GOLDEN_TREE_TEXT
    ok = ok and left_cartesian_tree(word) == tree
    _report(2, "left-tree-shape", ok)


def test_03_left_foliage_labels():
    tree = left_lyndon_tree(make_word(GOLDEN_WORD, TERNARY))
    got = {x: left_foliage(tree, x).text() for x in internal_addresses(tree)}
    _report(3, "left-foliage-labels", got == GOLDEN_LABELS)


def test_04_periodicity_bound_tightness():
    u = make_word("abaab", BINARY)
    v = make_word("abaababa", BINARY)
    position = omega_mismatch_position(u, v)
    bound = len(u) + len(v) - math.gcd(len(u), len(v))
    ok = position == 12 and bound == 12
    ok = ok and omega_cmp(u, v).outcome is Ordering.GREATER
    _report(4, "periodicity-bound-tightness", ok)


def test_05_factorization_golden():
    word = make_word("ababaab", BINARY)
    fact = lyndon_factorization(word)
    ok = [f.text() for f in fact] == ["ab", "ab", "aab"]
    ok = ok and first_lyndon_factor(word).text() == "ab"
    ok = ok and last_lyndon_factor(word).text() == "aab"
    chain = [
        make_word(text, BINARY)
        for text in ("aab", "abaab", "ababaab", "ab", "baab", "babaab", "b")
    ]
    for lo, hi in combinations(chain, 2):
        ok = ok and omega_cmp(lo, hi).outcome is Ordering.LESS
    _report(5, "factorization-golden", ok)


def test_06_main_theorem_sweep():
    start = time.perf_counter()
    failures = []
    total = 0
    for alphabet, max_len in ((BINARY, 14), (TERNARY, 8)):
        for word in enumerate_lyndon_words(alphabet, max_len):
            total += 1
            tree = left_lyndon_tree(word)
            same = (
                tree
                == left_cartesian_tree(word)
                == left_cartesian_tree_via_prefixes(word)
                == left_lyndon_tree_naive(word)
            )
            if not same:
                failures.append(word.text())
    note = f"{total} words, {time.perf_counter() - start:.1f}s"
    _report(6, "main-theorem-sweep", not failures, note)


def test_07_characterization_sweep():
    start = time.perf_counter()
    failures = []
    total = 0
    for word in iter_all_words(BINARY, 12):
        total += 1
        flags = {
            is_lyndon(word),
            is_lyndon_via_suffixes(word),
            is_lyndon_via_rotations(word),
            is_lyndon_suffix_omega(word),
            is_lyndon_prefix_omega(word),
        }
        if len(flags) != 1:
            failures.append(word.text())
            continue
        fact = lyndon_factorization(word)
        if fact != lyndon_factorization_naive(word):
            failures.append(word.text())
            continue
        if first_lyndon_factor(word) != fact.factors[0]:
            failures.append(word.text())
            continue
        if last_lyndon_factor(word) != fact.factors[-1]:
            failures.append(word.text())
    note = f"{total} words, {time.perf_counter() - start:.1f}s"
    _report(7, "characterization-sweep", not failures, note)


def test_08_extension_order_sweep():
    start = time.perf_counter()
    failures = []
    universe = list(iter_all_words(BINARY, 8))
    for u in universe:
        for v in universe:
            fast = omega_cmp(u, v)
            if fast != omega_cmp_naive(u, v):
                failures.append((u.text(), v.text(), "oracle"))
                continue
            six = six_conditions(u, v)
            if fast.outcome is Ordering.EQUAL:
                if any(six):
                    failures.append((u.text(), v.text(), "six"))
            else:
                if not six.all_equal() or six.u_lt_v != (
                    fast.outcome is Ordering.LESS
                ):
                    failures.append((u.text(), v.text(), "six"))
                bound = len(u) + len(v) - math.gcd(len(u), len(v))
                if not 1 <= fast.mismatch_position <= bound:
                    failures.append((u.text(), v.text(), "bound"))
                if fast.outcome is Ordering.LESS and not bergman_chain(u, v):
                    failures.append((u.text(), v.text(), "chain"))
    note = f"{len(universe) ** 2} pairs, {time.perf_counter() - start:.1f}s"
    _report(8, "extension-order-sweep", not failures, note)


def test_09_enumeration_counts():
    enumerated = Counter(len(x) for x in enumerate_lyndon_words(BINARY, 10))
    filtered = Counter(len(x) for x in iter_all_words(BINARY, 10) if is_lyndon(x))
    got = tuple(enumerated.get(n, 0) for n in range(1, 11))
    brute = tuple(filtered.get(n, 0) for n in range(1, 11))
    _report(9, "enumeration-counts", got == BINARY_LYNDON_COUNTS == brute)


def test_10_cli_contract(monkeypatch):
    fixtures = []

    code, out, _ = run_cli(["pstd", GOLDEN_WORD])
    fixtures.append(code == 0 and out == "21543768\ninverse: 21543768\n")

    code, out, _ = run_cli(["tree", GOLDEN_WORD, "--kind", "left"])
    fixtures.append(
        code == 0 and out == GOLDEN_TREE_TEXT + "\nleft == cartesian: equal\n"
    )

    code, out, _ = run_cli(["tree", GOLDEN_WORD, "--format", "dot"])
    fixtures.append(code == 0 and '  n0 [label="aabaac"];' in out.splitlines())

    code, out, _ = run_cli(["compare", "abaab", "abaababa"])
    fixtures.append(code == 0 and out == "abaab >ω abaababa, mismatch at 12\n")

    code, out, _ = run_cli(["factorize", "ababaab"])
    fixtures.append(code == 0 and out == "(ab)(ab)(aab)\nfirst: ab\nlast: aab\n")

    code, out, _ = run_cli(["verify", "--max-len", "6"])
    fixtures.append(code == 0 and out.splitlines()[-1] == "all checks pass")

    code, _, err = run_cli(["tree", "ba"])
    fixtures.append(code == 2 and "not Lyndon" in err)

    code, _, _ = run_cli(["pstd"])
    fixtures.append(code == 2)

    with monkeypatch.context() as m:
        m.setattr("lyndonkit.trees._left_ranks", lambda word: list(range(1, len(word))))
        code, out, _ = run_cli(["tree", "aabab", "--kind", "cartesian"])
        fixtures.append(code == 1 and out.endswith("left == cartesian: different\n"))

    note = f"{sum(fixtures)}/{len(fixtures)} fixtures"
    _report(10, "cli-contract", all(fixtures), note)
