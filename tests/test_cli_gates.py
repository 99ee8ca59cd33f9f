"""The command gates: every command on words of up to 100,000 letters, the
exhaustive verify sweeps, the worked example, and verify's failure paths.

Each row but the late-mismatch one runs ``python -m lyndonkit``, the
worked example or a script in a fresh interpreter, with a timeout of 60 s,
or 300 s for a sweep.  A row that times out kills the interpreter's whole
process group, so no pool worker outlives it.
"""

import functools
import random
from pathlib import Path

import pytest

from .test_check_sensitivity import MUTANTS, mutate
from .test_cli import expected_verify_text, run_cli, run_python
from .test_fast_paths import blocks, christoffel, comb, reversed_comb

ROOT = "abaabbababbbaabaabab"
K = 10_000


def seeded(seed, symbols, k):
    return "".join(random.Random(seed).choices(symbols, k=k))


# The words by name, each built on first use.
WORDS = {
    "b a^99999": lambda: "b" + "a" * 99_999,
    "(ab)^50000": lambda: "ab" * 50_000,
    "random u": lambda: seeded(1, "ab", 100_000),
    "random v": lambda: seeded(2, "ab", 100_000),
    "root^5000": lambda: ROOT * 5_000,
    "root^3000": lambda: ROOT * 3_000,
    "(aab)^33333 a": lambda: "aab" * 33_333 + "a",
    "(aab)^33333 b": lambda: "aab" * 33_333 + "b",
    # 60,000 two-byte letters: Linux caps one argument at 128 KiB.
    "random αβ": lambda: seeded(3, "αβ", 60_000),
    "a^99999 b": lambda: comb(100_000).text(),
    "a b^99999": lambda: reversed_comb(100_000).text(),
    "christoffel 60001 39999": lambda: christoffel(60_001, 39_999).text(),
    "christoffel 61803 38197": lambda: christoffel(61_803, 38_197).text(),
    "(a^316 b)^316 b": lambda: blocks(316, 316).text(),
    # Every proper suffix starts with b or c, above the leading a, so the word is Lyndon.
    "a random-bc": lambda: "a" + seeded(4, "bc", 99_999),
    # A stop re-reads a long common prefix at every letter: the left stack
    # pass on the first word, the right one on the second.
    "a b^k c a b^k c c": lambda: ("a" + "b" * K + "c") * 2 + "c",
    "a^k c a^(k-1) b": lambda: "a" * K + "c" + "a" * (K - 1) + "b",
    "a^4999 b": lambda: comb(5_000).text(),
    "christoffel 12001 7999": lambda: christoffel(12_001, 7_999).text(),
    "a^1999 b": lambda: comb(2_000).text(),
    "christoffel 1597 987": lambda: christoffel(1_597, 987).text(),
}


@functools.cache
def word(name):
    return WORDS[name]()


def lyndonkit(*argv, timeout=60):
    """Run the CLI, each word name in argv standing for its word."""
    return run_python(
        "-m", "lyndonkit", *(word(a) if a in WORDS else a for a in argv), timeout=timeout
    )


def six_agree(lines):
    # The six lines all read true when line 1 has u <ω v, and all false otherwise.
    want = ": true" if " <ω " in lines[0] else ": false"
    return len(lines) == 7 and all(line.endswith(want) for line in lines[1:])


LATE = "(aab)^33333 a", "(aab)^33333 b"
LINEAR_TIME = [
    (("factorize", "b a^99999"), lambda out: out[-2:] == ["first: b", "last: a"]),
    (("factorize", "(ab)^50000"), lambda out: out == ["(ab)" * 50_000, "first: ab", "last: ab"]),
    (("compare", "random u", "random v"), lambda out: True),
    (("compare", "--six", "random u", "random v"), six_agree),
    (("compare", "root^5000", "root^3000"), lambda out: out == [f"equal: powers of {ROOT}"]),
    (
        ("compare", "--six", "root^5000", "root^3000"),
        lambda out: out[0] == f"equal: powers of {ROOT}" and six_agree(out),
    ),
    (("compare", *LATE), lambda out: out[-1].endswith(", mismatch at 100000")),
    (
        ("compare", "--six", *LATE),
        lambda out: out[0] == f"{word(LATE[0])} <ω {word(LATE[1])}, mismatch at 100000"
        and six_agree(out),
    ),
    (("factorize", "--alphabet", "αβ", "random αβ"), lambda out: True),
]


@pytest.mark.parametrize("argv, holds", LINEAR_TIME, ids=[" ".join(a) for a, _ in LINEAR_TIME])
def test_linear_time_commands(argv, holds):
    done = lyndonkit(*argv)
    assert done.returncode == 0, done.stderr
    assert holds(done.stdout.splitlines())


@pytest.mark.parametrize(
    "symbols, max_len, jobs",
    [("ab", 11, 1), ("ab", 11, 2), ("abc", 6, 1), ("abc", 6, 2), ("abcd", 6, 1)],
)
def test_exhaustive_sweep(symbols, max_len, jobs):
    argv = "verify", "--alphabet", symbols, "--max-len", str(max_len), "--jobs", str(jobs)
    done = lyndonkit(*argv, timeout=300)
    assert (done.returncode, done.stdout, done.stderr) == (
        0,
        expected_verify_text(symbols, max_len),
        "",
    )


# The real process pool in a child interpreter, since the start method is
# process-wide; forked workers inherit the patched module.
POOL_STOP = """
import multiprocessing, time
import lyndonkit.cli as cli
import lyndonkit.oracle as oracle
from lyndonkit import CheckResult, VerificationReport

real = oracle.verify_word

def fail_on_a(word):
    if word.text() != "a":
        return real(word)
    return VerificationReport(word, (CheckResult("omega-agreement", False, "forced"),))

multiprocessing.set_start_method("fork")
oracle.verify_word = fail_on_a
start = time.perf_counter()
code = cli.main(["verify", "--max-len", "11", "--jobs", "2"])
print(code, time.perf_counter() - start)
"""


def test_pool_stops_at_the_first_failure():
    done = run_python("-c", POOL_STOP, timeout=60)
    assert done.returncode == 0, done.stderr
    code, took = done.stdout.split()
    assert code == "1"
    assert float(took) < 1


def test_verify_catches_a_late_mismatch(monkeypatch):
    mutate(monkeypatch, *MUTANTS["omega-cmp-reports-a-late-mismatch"])
    code, _, err = run_cli(["verify", "--max-len", "6"])
    assert code == 1
    assert any(line.startswith("FAIL omega-agreement on") for line in err.splitlines())


def test_worked_example():
    script = Path(__file__).resolve().parent.parent / "scripts" / "worked_example.py"
    done = run_python(str(script), timeout=60)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("name", ["a b^99999", "christoffel 60001 39999"])
def test_right_trees_of_long_words(name, fmt):
    done = lyndonkit("tree", name, "--kind", "right", "--format", fmt)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("kind", ["left", "right", "cartesian"])
@pytest.mark.parametrize(
    "name",
    [
        "a^99999 b",
        "christoffel 61803 38197",
        "(a^316 b)^316 b",
        "a random-bc",
        "a b^k c a b^k c c",
        "a^k c a^(k-1) b",
    ],
)
def test_every_kind_on_long_lyndon_words(name, kind):
    done = lyndonkit("tree", name, "--kind", kind)
    assert done.returncode == 0, done.stderr
    if kind != "right":
        assert done.stdout.splitlines()[-1] == "left == cartesian: equal"


@pytest.mark.parametrize("fmt", ["text", "structured", "dot"])
@pytest.mark.parametrize("kind", ["left", "right", "cartesian"])
def test_every_kind_and_format_on_the_5000_letter_comb(kind, fmt):
    done = lyndonkit("tree", "a^4999 b", "--kind", kind, "--format", fmt)
    assert done.returncode == 0, done.stderr
    if (kind, fmt) == ("right", "text"):
        assert done.stdout == "(a," * 4999 + "b" + ")" * 4999 + "\n"


# DOT is Θ(n²) bytes, so its words are shorter.
@pytest.mark.parametrize(
    "fmt, name",
    [
        ("structured", "a^4999 b"),
        ("structured", "christoffel 12001 7999"),
        ("dot", "a^1999 b"),
        ("dot", "christoffel 1597 987"),
    ],
)
def test_left_and_cartesian_print_the_same(fmt, name):
    left, cartesian = (lyndonkit("tree", name, "--kind", k, "--format", fmt) for k in ("left", "cartesian"))
    assert left.returncode == cartesian.returncode == 0
    assert left.stdout == cartesian.stdout
