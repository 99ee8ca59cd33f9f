"""Each public function runs on a command's path or in a verify check.

The rule for the public surface: every function a module lists in its
__all__ runs when some command runs, or verify checks it against an oracle,
or it goes.  The profile below runs every command, in every format and
kind, on a few words, and verify over ab and abc, with a sys.setprofile
hook that records each Python code object entered.  Every function, and
every public method or property of a class, that a module lists and defines
itself must be among them.
"""

import importlib
import inspect
import io
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from lyndonkit.cli import main

MODULES = ("words", "omega", "lyndon", "trees", "cartesian", "oracle", "cli")

# Kept although no command enters them, each for the reason given.
EXEMPT = {
    "cartesian.prefix_standard_permutation": "acceptance test 01 pins the prefix ranks through it",
    "trees.format_tree": "acceptance test 02 pins the left tree's text through it",
    "omega.omega_mismatch_position": "acceptance test 04 pins the Fine and Wilf bound through it",
    "lyndon.enumerate_lyndon_words": "acceptance tests 06 and 09 sweep the Lyndon words it lists",
    "words.iter_all_words": "acceptance tests 07 to 09 sweep the words it lists",
    "oracle.omega_cmp_naive": "verify calls it only to write a failed omega-agreement's detail",
    "oracle.VerificationReport.passed": "scripts/worked_example.py reads it",
    "oracle.VerificationReport.failures": "scripts/worked_example.py reads it",
}

# From the empty word to a 34-letter Christoffel word: Lyndon and not,
# binary and ternary, powers, and a non-Lyndon word for each tree kind.
WORDS = (
    "",
    "a",
    "ab",
    "ba",
    "abab",
    "aabab",
    "abaab",
    "ababb",
    "aabaacab",
    "abcacb",
    "aaaaabaaabaaaaabaaabaaaaabaaabaaab",
)


def argvs():
    for u, v in zip(WORDS, WORDS[1:] + WORDS[:1]):
        for fmt in ("text", "structured", "dot"):
            yield ["compare", u, v, "--format", fmt]
            yield ["compare", "--six", u, v, "--format", fmt]
    for w in WORDS:
        for command in ("factorize", "pstd"):
            for fmt in ("text", "structured"):
                yield [command, w, "--format", fmt]
        for kind in ("left", "right", "cartesian"):
            for fmt in ("text", "structured", "dot"):
                yield ["tree", w, "--kind", kind, "--format", fmt]
    yield ["verify", "--max-len", "5"]
    yield ["verify", "--alphabet", "abc", "--max-len", "3"]


@pytest.fixture(scope="module")
def entered() -> set:
    """The code objects entered while every argument list runs."""
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            codes = [main(argv) for argv in argvs()]
    finally:
        sys.setprofile(previous)
    assert set(codes) == {0, 2}, "every argument list either runs or is refused as input"
    return entered


def public_code():
    """(qualified name, code) of each function, method and property a module lists and defines."""
    for name in MODULES:
        module = importlib.import_module(f"lyndonkit.{name}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{name}.{attr}", obj.__code__
            elif inspect.isclass(obj):
                for member, value in vars(obj).items():
                    if member.startswith("_"):
                        continue
                    value = value.fget if isinstance(value, property) else value
                    if inspect.isfunction(value):
                        yield f"{name}.{attr}.{member}", value.__code__


def test_every_public_function_is_entered(entered):
    never = [name for name, code in public_code() if code not in entered and name not in EXEMPT]
    assert not never, f"never entered: {', '.join(never)}"


def test_exemptions_are_public_and_not_entered(entered):
    # An exemption that the profile enters, or that names nothing, is stale.
    public = dict(public_code())
    assert set(EXEMPT) <= set(public)
    assert [name for name in EXEMPT if public[name] in entered] == []
