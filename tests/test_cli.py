import io
import itertools
import json
import os
import random
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from lyndonkit import (
    CHECK_NAMES,
    CheckResult,
    Leaf,
    Node,
    OrderedAlphabet,
    Ordering,
    VerificationReport,
    Word,
    enumerate_lyndon_words,
    format_tree,
    is_lyndon,
    left_cartesian_tree,
    left_lyndon_tree,
    lex_cmp,
    make_word,
    nontrivial_splits,
    right_lyndon_tree,
)
from lyndonkit.cli import _lyndon_violation, main
from lyndonkit.cli import _verify_one as real_verify_one
from lyndonkit.errors import NotLyndon
from lyndonkit.oracle import verify_word as real_verify_word

from .strategies import BINARY, TERNARY


def nested_tree(tree):
    """Reference for `tree --format structured`: the tree as nested dicts."""
    if isinstance(tree, Leaf):
        return {"leaf": tree.letter.text()}
    return {"l": nested_tree(tree.left), "r": nested_tree(tree.right)}


# verify's checks in output order: those run on every word, those run on
# Lyndon words of two or more letters, and those run on every Lyndon word.
ALWAYS_CHECKS = (
    "omega-agreement",
    "lyndon-definitions",
    "lyndon-suffix-conditions",
    "lyndon-prefix-condition",
    "six-equivalence",
    "bergman-chain",
    "factorization",
    "first-factor",
    "last-factor",
    "first-dominates-rest",
)
COMPOSITE_LYNDON_CHECKS = ("left-factorization", "right-factorization")
LYNDON_CHECKS = (
    "left-subtrees-chain",
    "left-foliage-concatenation",
    "left-subtrees-order",
    "left-foliage-decreasing",
    "trees-coincide",
    "tree-foliage",
)


def mobius(n):
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def expected_verify_text(symbols, max_len):
    """verify's output when every check passes, from Witt's necklace formula:
    (1/n) times the sum of mobius(d) k^(n/d) over the divisors d of n
    counts the Lyndon words of length n over k letters."""
    k = len(symbols)
    lyndon = [
        sum(mobius(d) * k ** (n // d) for d in range(1, n + 1) if n % d == 0) // n
        for n in range(1, max_len + 1)
    ]
    words = sum(k**n for n in range(1, max_len + 1))
    lines = [
        f"alphabet: {symbols}",
        f"words checked: {words}",
        "lyndon words per length: " + ",".join(map(str, lyndon)),
        *(f"{name}: {words} pass" for name in ALWAYS_CHECKS),
        *(f"{name}: {sum(lyndon) - k} pass" for name in COMPOSITE_LYNDON_CHECKS),
        *(f"{name}: {sum(lyndon)} pass" for name in LYNDON_CHECKS),
        "all checks pass",
    ]
    return "\n".join(lines) + "\n"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestCompare:
    def test_less_golden(self):
        code, out, _ = run_cli(["compare", "aba", "ab"])
        assert code == 0
        assert out == "aba <ω ab, mismatch at 4\n"

    def test_greater_golden(self):
        code, out, _ = run_cli(["compare", "b", "ba"])
        assert code == 0
        assert out == "b >ω ba, mismatch at 2\n"

    def test_equal_golden(self):
        code, out, _ = run_cli(["compare", "ab", "abab"])
        assert code == 0
        assert out == "equal: powers of ab\n"

    def test_six_table(self):
        code, out, _ = run_cli(["compare", "aab", "ab", "--six"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "aab <ω ab, mismatch at 2"
        assert len(lines) == 7
        assert all(line.endswith(": true") for line in lines[1:])

    def test_structured_keys(self):
        code, out, _ = run_cli(["compare", "aba", "ab", "--format", "structured"])
        assert code == 0
        doc = json.loads(out)
        assert doc == {"outcome": "less", "mismatch_position": 4, "common_root": None}

    def test_structured_six(self):
        code, out, _ = run_cli(
            ["compare", "b", "a", "--format", "structured", "--six"]
        )
        doc = json.loads(out)
        assert doc["outcome"] == "greater"
        assert set(doc["six"]) == {
            "u_lt_v",
            "uv_lt_v",
            "u_lt_vu",
            "uv_lt_vu",
            "u_lt_uv",
            "vu_lt_v",
        }
        assert not any(doc["six"].values())

    def test_structured_six_computes_the_table_once(self, monkeypatch):
        import lyndonkit.cli

        calls = []
        real = lyndonkit.cli.six_conditions

        def counted(u, v):
            calls.append((u, v))
            return real(u, v)

        monkeypatch.setattr("lyndonkit.cli.six_conditions", counted)
        code, out, _ = run_cli(["compare", "aab", "ab", "--format", "structured", "--six"])
        assert code == 0
        assert len(calls) == 1
        assert out == (
            '{"outcome": "less", "mismatch_position": 2, "common_root": null, '
            '"six": {"u_lt_v": true, "uv_lt_v": true, "u_lt_vu": true, '
            '"uv_lt_vu": true, "u_lt_uv": true, "vu_lt_v": true}}\n'
        )

    def test_reversed_alphabet_flips(self):
        code, out, _ = run_cli(["compare", "b", "ba", "--alphabet", "ba"])
        assert code == 0
        assert out == "b <ω ba, mismatch at 2\n"

    def test_unknown_symbol_is_usage_error(self):
        code, _, err = run_cli(["compare", "axb", "ab", "--alphabet", "ab"])
        assert code == 2
        assert "position 2" in err

    def test_empty_word_is_usage_error(self):
        code, _, err = run_cli(["compare", "", "ab"])
        assert code == 2
        assert err.startswith("error:")

    def test_dot_rejected(self):
        code, _, err = run_cli(["compare", "a", "b", "--format", "dot"])
        assert code == 2
        assert "tree" in err


class TestFactorize:
    def test_golden(self):
        code, out, _ = run_cli(["factorize", "ababaab"])
        assert code == 0
        assert out == "(ab)(ab)(aab)\nfirst: ab\nlast: aab\n"

    def test_lyndon_word_single_factor(self):
        code, out, _ = run_cli(["factorize", "aabaacab"])
        assert code == 0
        assert out.splitlines()[0] == "(aabaacab)"

    def test_unary_run(self):
        code, out, _ = run_cli(["factorize", "bbb"])
        assert code == 0
        assert out.splitlines()[0] == "(b)(b)(b)"

    def test_structured(self):
        code, out, _ = run_cli(["factorize", "ababaab", "--format", "structured"])
        doc = json.loads(out)
        assert doc == {"factors": ["ab", "ab", "aab"], "first": "ab", "last": "aab"}

    def test_one_duval_scan(self, monkeypatch):
        # The printed factors are the whole computation: no second scan re-derives the ends.
        import lyndonkit.lyndon

        calls = []
        real = lyndonkit.lyndon._lyndon_prefix_ends

        def counted(ls, lo, hi):
            calls.append((lo, hi))
            return real(ls, lo, hi)

        monkeypatch.setattr(lyndonkit.lyndon, "_lyndon_prefix_ends", counted)
        lyndonkit.lyndon._duval_cuts(make_word("ababaab", BINARY).letters, 0, 7)
        scan = list(calls)
        calls.clear()
        assert run_cli(["factorize", "ababaab"])[0] == 0
        assert calls == scan


class TestPstd:
    def test_golden(self):
        code, out, _ = run_cli(["pstd", "aabaacab"])
        assert code == 0
        assert out == "21543768\ninverse: 21543768\n"

    def test_single_letter(self):
        code, out, _ = run_cli(["pstd", "a"])
        assert code == 0
        assert out.splitlines()[0] == "1"

    def test_two_letters(self):
        code, out, _ = run_cli(["pstd", "ab"])
        assert code == 0
        assert out.splitlines()[0] == "12"

    def test_csv_past_nine(self):
        code, out, _ = run_cli(["pstd", "aabaacabab"])
        assert code == 0
        first = out.splitlines()[0]
        assert "," in first
        ranks = [int(x) for x in first.split(",")]
        assert sorted(ranks) == list(range(1, 11))

    def test_structured(self):
        code, out, _ = run_cli(["pstd", "aabaacab", "--format", "structured"])
        doc = json.loads(out)
        assert doc["sigma"] == [2, 1, 5, 4, 3, 7, 6, 8]
        assert doc["inverse"] == [2, 1, 5, 4, 3, 7, 6, 8]


class TestTree:
    def test_left_golden(self):
        code, out, _ = run_cli(["tree", "aabaacab", "--kind", "left"])
        assert code == 0
        assert out.splitlines() == [
            "(((a,(a,b)),(a,(a,c))),(a,b))",
            "left == cartesian: equal",
        ]

    def test_cartesian_golden(self):
        code, out, _ = run_cli(["tree", "ab", "--kind", "cartesian"])
        assert code == 0
        assert out.splitlines() == ["(a,b)", "left == cartesian: equal"]

    def test_right_kind_prints_no_equality_note(self):
        code, out, _ = run_cli(["tree", "aabab", "--kind", "right"])
        assert code == 0
        assert out == "((a,(a,b)),(a,b))\n"

    def test_not_lyndon_exits_2(self):
        for kind in ("left", "right", "cartesian"):
            code, out, err = run_cli(["tree", "ba", "--kind", kind])
            assert code == 2, kind
            assert out == "", kind
            assert err == "not Lyndon: split b|a has u ≥ v\n", kind

    @pytest.mark.parametrize("fmt", ["text", "structured", "dot"])
    @pytest.mark.parametrize("kind", ["left", "right", "cartesian"])
    def test_empty_word_exits_2(self, kind, fmt):
        argv = ["tree", "--alphabet", "ab", "--kind", kind, "--format", fmt, ""]
        assert run_cli(argv) == (2, "", "error: operation requires a nonempty word\n")

    def test_violation_names_first_bad_split(self):
        code, _, err = run_cli(["tree", "aba"])
        assert code == 2
        assert "split ab|a" in err

    def test_structured(self):
        code, out, _ = run_cli(["tree", "aab", "--format", "structured"])
        doc = json.loads(out)
        assert doc == {"l": {"leaf": "a"}, "r": {"l": {"leaf": "a"}, "r": {"leaf": "b"}}}

    def test_dot_golden(self):
        code, out, _ = run_cli(["tree", "ab", "--format", "dot"])
        assert code == 0
        assert out == (
            "digraph {\n"
            '  n0 [label="a"];\n'
            '  n1 [label="a"];\n'
            '  n2 [label="b"];\n'
            "  n0 -> n1;\n"
            "  n0 -> n2;\n"
            "}\n"
        )

    def test_dot_labels_internal_nodes_with_left_foliage(self):
        code, out, _ = run_cli(["tree", "aabaacab", "--format", "dot"])
        assert code == 0
        assert '  n0 [label="aabaac"];' in out.splitlines()

    def test_lyndon_word_skips_the_split_search(self, monkeypatch):
        def fail(word):
            raise AssertionError("split search ran on a Lyndon word")

        monkeypatch.setattr("lyndonkit.cli._lyndon_violation", fail)
        code, out, _ = run_cli(["tree", "aabab"])
        assert code == 0
        assert out == "((a,(a,b)),(a,b))\nleft == cartesian: equal\n"

    @pytest.mark.parametrize("kind", ["left", "cartesian"])
    def test_deep_comb(self, kind):
        # 1,500 levels: far past the interpreter's recursion limit.
        code, out, err = run_cli(["tree", "a" * 1499 + "b", "--kind", kind])
        assert (code, err) == (0, "")
        assert out.splitlines() == ["(a," * 1499 + "b" + ")" * 1499, "left == cartesian: equal"]

    @pytest.mark.parametrize(
        "kind, build",
        [("left", left_lyndon_tree), ("right", right_lyndon_tree), ("cartesian", left_cartesian_tree)],
    )
    @pytest.mark.parametrize("symbols, max_len", [("ab", 8), ('"\\é', 5)])
    def test_structured_matches_json_dumps(self, kind, build, symbols, max_len):
        for word in enumerate_lyndon_words(OrderedAlphabet(symbols), max_len):
            argv = ["tree", word.text(), "--kind", kind, "--format", "structured"]
            code, out, err = run_cli(argv + ["--alphabet", symbols])
            assert (code, err) == (0, ""), word
            assert out == json.dumps(nested_tree(build(word))) + "\n", word

    @pytest.mark.parametrize("kind", ["left", "right", "cartesian"])
    def test_deep_comb_structured(self, kind):
        code, out, err = run_cli(["tree", "a" * 1499 + "b", "--kind", kind, "--format", "structured"])
        assert (code, err) == (0, "")
        depth = deepest = 0
        for ch in out:
            depth += {"{": 1, "}": -1}.get(ch, 0)
            deepest = max(deepest, depth)
        assert depth == 0
        # 1,499 nested nodes, then the leaf object of the final b.
        assert deepest == 1500
        assert out == '{"l": {"leaf": "a"}, "r": ' * 1499 + '{"leaf": "b"}' + "}" * 1499 + "\n"

    @pytest.mark.parametrize("symbols, max_len", [("ab", 10), ("abc", 6)])
    def test_violation_matches_slice_search(self, symbols, max_len):
        def slice_search(word):
            return next(
                (u, v) for u, v in nontrivial_splits(word) if lex_cmp(u, v) is not Ordering.LESS
            )

        alphabet = OrderedAlphabet(symbols)
        for n in range(1, max_len + 1):
            for letters in itertools.product(range(len(symbols)), repeat=n):
                word = Word(alphabet, letters)
                if not is_lyndon(word):
                    assert _lyndon_violation(word) == slice_search(word), word

    def test_long_unary_word_exits_2(self):
        code, out, err = run_cli(["tree", "a" * 100_000])
        assert (code, out) == (2, "")
        assert err == "not Lyndon: split " + "a" * 50_000 + "|" + "a" * 50_000 + " has u ≥ v\n"

    def test_divergence_exits_1(self, monkeypatch):
        # Increasing labels make the left comb ((((a,a),b),a),b), not the left tree.
        monkeypatch.setattr(
            "lyndonkit.cartesian._cartesian_ranks",
            lambda word: list(range(1, len(word))),
        )
        code, out, _ = run_cli(["tree", "aabab", "--kind", "left"])
        assert code == 1
        assert out.splitlines()[1] == "left == cartesian: different"
        code, out, err = run_cli(["tree", "aabab", "--kind", "left", "--format", "structured"])
        assert code == 1
        assert json.loads(out) == nested_tree(left_lyndon_tree(make_word("aabab", BINARY)))
        assert err == "left and cartesian trees differ\n"


class TestTreeText:
    def test_round_trip_golden(self):
        word = make_word("aabaacab", TERNARY)
        tree = left_lyndon_tree(word)
        text = format_tree(tree)
        assert text == "(((a,(a,b)),(a,(a,c))),(a,b))"
        assert run_cli(["tree", "aabaacab"])[1].splitlines()[0] == text

    def test_render_dot_escapes_quotes(self):
        # No quotable symbols exist in our alphabets; declare one.
        assert run_cli(["tree", "--alphabet", '"', "--format", "dot", '"']) == (
            0,
            'digraph {\n  n0 [label="\\""];\n}\n',
            "",
        )
        code, out, _ = run_cli(["tree", "--alphabet", '"\\', "--format", "dot", '"\\'])
        assert code == 0
        assert out.splitlines()[1:4] == [
            '  n0 [label="\\""];',
            '  n1 [label="\\""];',
            '  n2 [label="\\\\"];',
        ]


class TestVerify:
    @pytest.fixture
    def pool_results(self, monkeypatch):
        """Two CPUs and, for the pool, one that runs every task at once in
        this process and records each result it hands back."""
        results = []

        class InProcessPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                results.extend(map(fn, *iterables))
                return iter(results)

            def shutdown(self, wait=True, *, cancel_futures=False):
                pass

        monkeypatch.setattr("lyndonkit.cli.ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr("lyndonkit.cli.os.cpu_count", lambda: 2)
        return results

    def test_small_sweep_passes(self):
        code, out, _ = run_cli(["verify", "--max-len", "5"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "alphabet: ab"
        assert lines[1] == "words checked: 62"
        assert lines[2] == "lyndon words per length: 2,1,2,3,6"
        assert lines[-1] == "all checks pass"
        assert any(line == "omega-agreement: 62 pass" for line in lines)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("symbols, max_len", [("ab", 9), ("abc", 5)])
    def test_whole_output_from_the_necklace_formula(self, pool_results, jobs, symbols, max_len):
        argv = ["verify", "--max-len", str(max_len), "--alphabet", symbols, "--jobs", jobs]
        assert run_cli(argv) == (0, expected_verify_text(symbols, max_len), "")
        assert (pool_results != []) == (jobs == "2")

    def test_unary_alphabet(self):
        code, out, _ = run_cli(["verify", "--alphabet", "a", "--max-len", "5"])
        assert code == 0
        assert "lyndon words per length: 1,0,0,0,0" in out.splitlines()

    def test_ternary_smoke(self):
        code, out, _ = run_cli(["verify", "--alphabet", "abc", "--max-len", "4"])
        assert code == 0
        assert out.splitlines()[-1] == "all checks pass"

    def test_lyndon_count_is_independent_of_the_checks(self, monkeypatch):
        import lyndonkit.oracle

        kept = tuple(c for c in lyndonkit.oracle._CHECKS if c[0] != "trees-coincide")
        monkeypatch.setattr(lyndonkit.oracle, "_CHECKS", kept)
        code, out, _ = run_cli(["verify", "--max-len", "4"])
        assert code == 0
        assert "lyndon words per length: 2,1,2,3" in out.splitlines()

    def test_empty_alphabet_rejected(self):
        code, out, err = run_cli(["verify", "--max-len", "3", "--alphabet", ""])
        assert (code, out) == (2, "")
        assert err == "--alphabet must have at least one symbol\n"

    def test_jobs_two_matches_serial(self):
        code1, out1, _ = run_cli(["verify", "--max-len", "4"])
        code2, out2, _ = run_cli(["verify", "--max-len", "4", "--jobs", "2"])
        assert (code1, out1) == (code2, out2) == (0, out1)

    def test_jobs_below_one_rejected(self):
        for jobs in ("0", "-3"):
            code, out, err = run_cli(["verify", "--max-len", "3", "--jobs", jobs])
            assert code == 2
            assert out == ""
            assert err == "--jobs must be at least 1\n"

    def test_jobs_clamped_to_cpu_count(self, monkeypatch):
        made = []

        class RecordingExecutor:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

            def shutdown(self, wait=True, *, cancel_futures=False):
                pass

        monkeypatch.setattr("lyndonkit.cli.ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr("lyndonkit.cli.os.cpu_count", lambda: 3)
        serial = run_cli(["verify", "--max-len", "4"])
        assert made == []
        assert run_cli(["verify", "--max-len", "4", "--jobs", "64"]) == serial
        assert made == [3]
        monkeypatch.setattr("lyndonkit.cli.os.cpu_count", lambda: None)
        assert run_cli(["verify", "--max-len", "4", "--jobs", "64"]) == serial
        assert made == [3]

    def test_failure_exits_1(self, monkeypatch):
        def broken(word):
            return VerificationReport(
                word, (CheckResult("omega-agreement", False, "forced"),)
            )

        monkeypatch.setattr("lyndonkit.oracle.verify_word", broken)
        code, _, err = run_cli(["verify", "--max-len", "2"])
        assert code == 1
        assert err.startswith("FAIL omega-agreement on a: forced")

    def test_jobs_cancel_the_shards_after_a_failure(self, monkeypatch):
        # A thread pool has the process pool's semantics: map submits every
        # shard at once, and leaving the pool waits for each one not
        # cancelled.  Every shard but the first, which fails on the word a,
        # waits for the shutdown, so only the one each worker has started
        # by then may run.
        shut = threading.Event()
        calls = []

        class Pool(ThreadPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                shut.set()
                super().shutdown(wait, cancel_futures=cancel_futures)

        def counted(symbols, n, head):
            calls.append((n, head))
            if (n, head) != (1, (0,)):
                assert shut.wait(timeout=60)
            return real_verify_one(symbols, n, head)

        def broken(word):
            if word.text() != "a":
                return real_verify_word(word)
            return VerificationReport(word, (CheckResult("omega-agreement", False, "forced"),))

        monkeypatch.setattr("lyndonkit.cli.ProcessPoolExecutor", Pool)
        monkeypatch.setattr("lyndonkit.cli.os.cpu_count", lambda: 2)
        monkeypatch.setattr("lyndonkit.cli._verify_one", counted)
        monkeypatch.setattr("lyndonkit.oracle.verify_word", broken)
        code, out, err = run_cli(["verify", "--max-len", "11", "--jobs", "2"])
        assert (code, out, err) == (1, "", "FAIL omega-agreement on a: forced\n")
        # Of 78 shards (2 + 4 + 8 for lengths 1 to 3, 8 for each longer
        # length), the first ran, and at most one more per worker.
        assert (1, (0,)) in calls and len(calls) <= 3

    def test_jobs_hand_over_shards_of_counts(self, pool_results):
        serial = run_cli(["verify", "--max-len", "10"])
        assert pool_results == []
        assert run_cli(["verify", "--max-len", "10", "--jobs", "2"]) == serial
        assert serial[0] == 0 and "words checked: 2046\n" in serial[1]
        # About four shards per worker for each length: 2 + 4 + 8 * 8.
        assert len(pool_results) == 70
        for lyndon, passes, failure in pool_results:
            assert type(lyndon) is int and failure is None
            assert list(passes) == list(CHECK_NAMES)
            assert all(type(count) is int for count in passes.values())

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_first_failure_in_shortlex_order(self, monkeypatch, pool_results, jobs):
        # bbab is the second word of its shard, serial or pooled; abbab is
        # smaller in lexicographic order but comes later in shortlex order.
        def broken(word):
            if word.text() not in ("bbab", "abbab"):
                return real_verify_word(word)
            return VerificationReport(
                word,
                (
                    CheckResult("omega-agreement", True),
                    CheckResult("lyndon-definitions", False, "forced"),
                ),
            )

        monkeypatch.setattr("lyndonkit.oracle.verify_word", broken)
        code, out, err = run_cli(["verify", "--max-len", "5", "--jobs", jobs])
        assert (code, out, err) == (1, "", "FAIL lyndon-definitions on bbab: forced\n")
        if jobs == "2":
            failures = [f for _, _, f in pool_results if f is not None]
            assert failures == [
                "FAIL lyndon-definitions on bbab: forced",
                "FAIL lyndon-definitions on abbab: forced",
            ]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "error",
        [IndexError("tuple index out of range"), NotLyndon("'ba' is not a Lyndon word")],
        ids=["IndexError", "NotLyndon"],
    )
    def test_check_that_raises_fails(self, monkeypatch, pool_results, jobs, error):
        import lyndonkit.oracle

        def raising(word, facts):
            raise error

        checks = tuple(
            (name, raising if name == "lyndon-definitions" else check, applies)
            for name, check, applies in lyndonkit.oracle._CHECKS
        )
        monkeypatch.setattr(lyndonkit.oracle, "_CHECKS", checks)
        code, out, err = run_cli(["verify", "--max-len", "3", "--jobs", jobs])
        detail = f"raised {type(error).__name__}: {error}"
        assert (code, out, err) == (1, "", f"FAIL lyndon-definitions on a: {detail}\n")

    def test_structured_rejected(self):
        code, _, err = run_cli(["verify", "--max-len", "3", "--format", "structured"])
        assert code == 2
        assert "text" in err

    def test_max_len_required(self):
        code, _, _ = run_cli(["verify"])
        assert code == 2


class TestExitCodes:
    """0 success, 1 a failed cross-check, 2 bad input, 3 a fault inside lyndonkit."""

    def test_success_is_0(self):
        code, _, err = run_cli(["tree", "aab", "--format", "structured"])
        assert (code, err) == (0, "")

    def test_failed_cross_check_is_1(self, monkeypatch):
        monkeypatch.setattr("lyndonkit.trees._left_ranks", lambda word: list(range(1, len(word))))
        code, _, err = run_cli(["tree", "aabab", "--kind", "cartesian", "--format", "dot"])
        assert (code, err) == (1, "left and cartesian trees differ\n")

    def test_bad_input_is_2(self):
        assert run_cli(["pstd", "abx", "--alphabet", "ab"])[0] == 2

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize("command", ["factorize", "pstd"])
    def test_empty_word_is_2(self, command, fmt):
        argv = [command, "--alphabet", "ab", "--format", fmt, ""]
        assert run_cli(argv) == (2, "", "error: operation requires a nonempty word\n")

    def test_internal_error_is_3(self, monkeypatch):
        def broken(args):
            raise RuntimeError("broken handler")

        # main keeps its parser, so drop it for one built with the broken handler.
        monkeypatch.setattr("lyndonkit.cli._parser", None)
        monkeypatch.setattr("lyndonkit.cli.cmd_pstd", broken)
        assert run_cli(["pstd", "ab"]) == (3, "", "internal error: RuntimeError: broken handler\n")

    def test_violation_search_fault_is_3(self, monkeypatch):
        # Only a disagreement inside lyndonkit leaves tree's search for u >= v empty-handed.
        def reject(word):
            raise NotLyndon(f"{word.text()!r} is not a Lyndon word")

        monkeypatch.setattr("lyndonkit.trees._left_ranks", reject)
        assert run_cli(["tree", "ab"]) == (
            3,
            "",
            "internal error: AssertionError: 'ab' is a Lyndon word\n",
        )


class TestUsage:
    def test_no_command(self):
        code, _, _ = run_cli([])
        assert code == 2

    def test_unknown_command(self):
        code, _, _ = run_cli(["frobnicate"])
        assert code == 2

    def test_bad_kind(self):
        code, _, _ = run_cli(["tree", "ab", "--kind", "middle"])
        assert code == 2


LONG = 16_000
GREEK = str.maketrans("ab", "αβ")

# The --six labels, in the order the CLI prints them, each with its pair.
SIX = (
    ("u^ω < v^ω", lambda u, v: (u, v)),
    ("(uv)^ω < v^ω", lambda u, v: (u + v, v)),
    ("u^ω < (vu)^ω", lambda u, v: (u, v + u)),
    ("(uv)^ω < (vu)^ω", lambda u, v: (u + v, v + u)),
    ("u^ω < (uv)^ω", lambda u, v: (u, u + v)),
    ("(vu)^ω < v^ω", lambda u, v: (v + u, v)),
)


def extensions(x: str, y: str) -> tuple[str, str]:
    """The first |x| + |y| letters of x^ω and y^ω, where they differ if ever."""
    n = len(x) + len(y)
    return (x * (n // len(x) + 1))[:n], (y * (n // len(y) + 1))[:n]


def expected_compare(u: str, v: str, six: bool) -> str:
    """compare's text output, from the extensions written out letter by letter."""
    eu, ev = extensions(u, v)
    i = next((k for k in range(len(eu)) if eu[k] != ev[k]), None)
    if i is None:
        d = next(d for d in range(1, len(u) + 1) if u[:d] * (len(u) // d) == u)
        lines = [f"equal: powers of {u[:d]}"]
    else:
        lines = [f"{u} {'<ω' if eu[i] < ev[i] else '>ω'} {v}, mismatch at {i + 1}"]
    if six:
        for label, pair in SIX:
            x, y = extensions(*pair(u, v))
            lines.append(f"{label}: {'true' if x < y else 'false'}")
    return "".join(line + "\n" for line in lines)


def is_lyndon_text(x: str) -> bool:
    return all(x < x[i:] + x[:i] for i in range(1, len(x)))


def lyndon_concatenation(rng: random.Random, n: int) -> list[str]:
    """Lyndon words of n letters in all, in nonincreasing order.

    By the Chen-Fox-Lyndon theorem they are the factorization of their
    concatenation.
    """
    pool = ["b", "abb", "ab", "aabab", "aab", "aaabab", "aaab", "a"]
    assert all(map(is_lyndon_text, pool))
    factors = []
    total = 0
    # Stop short enough that no drawn word overshoots n; fill up with a's.
    while total < n - max(map(len, pool)):
        factors.append(rng.choice(pool))
        total += len(factors[-1])
    factors += ["a"] * (n - total)
    return sorted(factors, reverse=True)


def long_compare_pairs() -> dict[str, tuple[str, str]]:
    rng = random.Random(10)
    text = "".join(rng.choices("ab", k=LONG))
    root = "abaabbababbbaabaabab"
    assert (root + root).find(root, 1) == len(root)
    k = (LONG - 1) // 3
    return {
        "random": (text, "".join(rng.choices("ab", k=LONG))),
        "late": ("aab" * k + "a", "aab" * k + "b"),
        "prefix": (text[:LONG // 2], text),
        "powers": (root * 800, root * 600),
    }


class TestLongInputs:
    """16,000-letter inputs against outputs built from the definitions."""

    @pytest.mark.parametrize("six", [False, True], ids=["plain", "six"])
    @pytest.mark.parametrize("name", sorted(long_compare_pairs()))
    def test_compare(self, name, six):
        u, v = long_compare_pairs()[name]
        code, out, _ = run_cli(["compare", u, v] + ["--six"] * six)
        assert code == 0
        assert out == expected_compare(u, v, six)

    def test_factorize(self):
        factors = lyndon_concatenation(random.Random(11), LONG)
        code, out, _ = run_cli(["factorize", "".join(factors)])
        assert code == 0
        assert out == f"({')('.join(factors)})\nfirst: {factors[0]}\nlast: {factors[-1]}\n"

    @pytest.mark.parametrize(
        "factors",
        [["b"] + ["a"] * (LONG - 1), ["ab"] * (LONG // 2)],
        ids=["b-a^15999", "(ab)^8000"],
    )
    def test_factorize_families(self, factors):
        code, out, _ = run_cli(["factorize", "".join(factors)])
        assert code == 0
        assert out == f"({')('.join(factors)})\nfirst: {factors[0]}\nlast: {factors[-1]}\n"

    def test_non_latin_1_alphabet(self):
        factors = [f.translate(GREEK) for f in lyndon_concatenation(random.Random(12), LONG)]
        code, out, _ = run_cli(["factorize", "".join(factors), "--alphabet", "αβ"])
        assert code == 0
        assert out == f"({')('.join(factors)})\nfirst: {factors[0]}\nlast: {factors[-1]}\n"
        u, v = (x.translate(GREEK) for x in long_compare_pairs()["random"])
        code, out, _ = run_cli(["compare", u, v, "--six", "--alphabet", "αβ"])
        assert code == 0
        assert out == expected_compare(u, v, True)


# Calls that exercise every option, both with and without each optional
# flag, in an order where each flag's call is followed by one without it.
PARSER_SEQUENCE = [
    ["compare", "aba", "ab", "--six"],
    ["compare", "aba", "ab"],
    ["compare", "ab", "abab", "--format", "structured", "--six"],
    ["compare", "ab", "abab", "--format", "structured"],
    ["compare", "b", "ba", "--alphabet", "ba"],
    ["compare", "b", "ba"],
    ["factorize", "ababaab", "--alphabet", "abc", "--format", "structured"],
    ["factorize", "ababaab"],
    ["pstd", "aabab", "--format", "structured", "--alphabet", "ab"],
    ["pstd", "aabab"],
    *(
        ["tree", "aabab", "--kind", kind, "--format", fmt]
        for kind in ("left", "right", "cartesian")
        for fmt in ("text", "structured", "dot")
    ),
    ["tree", "aabab"],
    ["tree", "ab", "--kind", "middle"],
    ["tree", "ba"],
    ["compare", "ab", "ab", "--format", "dot"],
    ["compare", "ab", "xy", "--alphabet", "ab"],
    ["verify", "--max-len", "3", "--alphabet", "abc"],
    ["verify", "--max-len", "3"],
    ["verify"],
    ["--help"],
    ["tree", "--help"],
    [],
    ["frobnicate"],
]


class TestReusedParser:
    def test_same_as_a_fresh_parser(self, monkeypatch):
        import lyndonkit.cli

        fresh = {}
        for argv in PARSER_SEQUENCE:
            monkeypatch.setattr(lyndonkit.cli, "_parser", None)
            fresh[tuple(argv)] = run_cli(argv)
        assert {code for code, _, _ in fresh.values()} == {0, 2}

        monkeypatch.setattr(lyndonkit.cli, "_parser", None)
        run_cli(["pstd", "ab"])
        shared = lyndonkit.cli._parser
        assert shared is not None
        for argv in PARSER_SEQUENCE + PARSER_SEQUENCE[::-1]:
            assert run_cli(argv) == fresh[tuple(argv)], argv
        assert lyndonkit.cli._parser is shared


def run_python(*args):
    import lyndonkit

    src = str(Path(lyndonkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


class TestFreshInterpreter:
    def test_import_leaves_the_process_pool_unloaded(self):
        done = run_python(
            "-c",
            "import sys, lyndonkit; from lyndonkit.cli import main; "
            "print('concurrent.futures.process' in sys.modules); "
            "main(['verify', '--max-len', '2']); "
            "print('concurrent.futures.process' in sys.modules)",
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0] == lines[-1] == "False"

    def test_jobs_two_matches_serial(self):
        serial = run_python("-m", "lyndonkit", "verify", "--max-len", "4")
        pooled = run_python("-m", "lyndonkit", "verify", "--max-len", "4", "--jobs", "2")
        assert serial.returncode == pooled.returncode == 0, pooled.stderr
        assert pooled.stdout == serial.stdout
        assert serial.stdout.endswith("all checks pass\n")
