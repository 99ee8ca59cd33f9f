"""Command-line front end.

Subcommands: compare, factorize, pstd, tree, verify.  Rendering is text
(default), structured (JSON), or dot (trees only).  Exit codes: 0 success,
1 a cross-check or sweep failed, 2 usage or input error, 3 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys

from .errors import LyndonKitError, NotLyndon
from .lyndon import _duval_cuts, is_lyndon
from .omega import omega_cmp, six_conditions
from .words import Ordering, OrderedAlphabet, Word, ensure_nonempty, make_word

# compare and factorize run on the modules above.  The tree, Cartesian and
# oracle modules, and json, are imported by the commands that use them.

__all__ = ["main"]

_SIX_LABELS = (
    "u^ω < v^ω",
    "(uv)^ω < v^ω",
    "u^ω < (vu)^ω",
    "(uv)^ω < (vu)^ω",
    "u^ω < (uv)^ω",
    "(vu)^ω < v^ω",
)


def _alphabet_for(symbols: str | None, *texts: str) -> OrderedAlphabet:
    # Absent the flag, take the distinct input characters in natural order.
    if symbols is not None:
        return OrderedAlphabet(symbols)
    seen = sorted(set("".join(texts)))
    if not seen:
        raise LyndonKitError("cannot infer an alphabet from empty input")
    return OrderedAlphabet(seen)


def cmd_compare(args) -> int:
    alphabet = _alphabet_for(args.alphabet, args.u, args.v)
    u = make_word(args.u, alphabet)
    v = make_word(args.v, alphabet)
    result = omega_cmp(u, v)
    six = six_conditions(u, v) if args.six else None
    if args.format == "structured":
        import json

        doc = {
            "outcome": result.outcome.name.lower(),
            "mismatch_position": result.mismatch_position,
            "common_root": None if result.common_root is None else result.common_root.text(),
        }
        if six is not None:
            doc["six"] = dict(zip(six._fields, six))
        print(json.dumps(doc))
        return 0
    if result.outcome is Ordering.EQUAL:
        print(f"equal: powers of {result.common_root.text()}")
    else:
        sign = "<ω" if result.outcome is Ordering.LESS else ">ω"
        # make_word accepted every character, so the input is the word's text.
        print(f"{args.u} {sign} {args.v}, mismatch at {result.mismatch_position}")
    if six is not None:
        for label, value in zip(_SIX_LABELS, six):
            print(f"{label}: {'true' if value else 'false'}")
    return 0


def cmd_factorize(args) -> int:
    text = args.w
    alphabet = _alphabet_for(args.alphabet, text)
    w = make_word(text, alphabet)
    ensure_nonempty(w)
    cuts = _duval_cuts(w.letters, 0, len(w.letters))
    # The factors tile w, so each one's text is a slice of the input.
    factors = [text[a:b] for a, b in zip(cuts, cuts[1:])]
    if args.format == "structured":
        import json

        print(json.dumps({"factors": factors, "first": factors[0], "last": factors[-1]}))
        return 0
    print(f"({')('.join(factors)})")
    print(f"first: {factors[0]}")
    print(f"last: {factors[-1]}")
    return 0


def _format_perm(values: list[int]) -> str:
    # Digit string while unambiguous, comma-separated past rank 9.
    if len(values) <= 9:
        return "".join(str(v) for v in values)
    return ",".join(str(v) for v in values)


def cmd_pstd(args) -> int:
    from .cartesian import _prefix_ranks

    alphabet = _alphabet_for(args.alphabet, args.w)
    sigma, inverse = _prefix_ranks(make_word(args.w, alphabet))
    if args.format == "structured":
        import json

        print(json.dumps({"sigma": sigma, "inverse": inverse}))
        return 0
    print(_format_perm(sigma))
    print(f"inverse: {_format_perm(inverse)}")
    return 0


def _lyndon_violation(w: Word) -> tuple[Word, Word]:
    """The first split w = uv with u >= v; w must not be Lyndon.

    u = w[:i] and v = w[i:] agree on their first min(z[i], i, n - i)
    letters, where z is the Z-array of w, so each split is decided by one
    letter comparison and the search is O(n).
    """
    from .cartesian import _z_array

    ls = w.letters
    n = len(ls)
    z = _z_array(ls)
    for i in range(1, n):
        k = z[i]
        if k > i:
            k = i
        if k > n - i:
            k = n - i
        # v is a prefix of u (u >= v), u a proper prefix of v (u < v), or
        # the two first differ at offset k.
        if k == n - i or (k < i and ls[k] > ls[i + k]):
            return w[:i], w[i:]
    raise AssertionError(f"{w.text()!r} is a Lyndon word")


def cmd_tree(args) -> int:
    from .cartesian import _cartesian_ranks
    from .trees import _bracket_counts, _left_ranks, _right_ranks, _write, _write_dot, _write_json

    alphabet = _alphabet_for(args.alphabet, args.w)
    w = make_word(args.w, alphabet)
    # Trees are written and compared in bracket form, so no node is made.
    ranks = {"left": _left_ranks, "right": _right_ranks, "cartesian": _cartesian_ranks}
    writers = {"text": _write, "structured": _write_json, "dot": _write_dot}
    try:
        counts = _bracket_counts(ranks[args.kind](w))
    except NotLyndon:
        u, v = _lyndon_violation(w)
        print(f"not Lyndon: split {u.text()}|{v.text()} has u ≥ v", file=sys.stderr)
        return 2
    # make_word accepted every character, so the input is the word's text.
    print(writers[args.format](args.w, *counts))
    if args.kind in ("left", "cartesian"):
        equal = counts == _bracket_counts(ranks["cartesian" if args.kind == "left" else "left"](w))
        if args.format == "text":
            print(f"left == cartesian: {'equal' if equal else 'different'}")
        if not equal:
            if args.format != "text":
                print("left and cartesian trees differ", file=sys.stderr)
            return 1
    return 0


def ProcessPoolExecutor(max_workers: int):
    """The standard process pool, imported here because only verify --jobs N > 1 uses it."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


def _verify_one(symbols: str, n: int, head: tuple[int, ...]):
    """Worker: check every word of length n that starts with the ranks in head.

    Returns the Lyndon count, the passes per check, and the first failure's
    FAIL line or None, so only counts and one failure cross processes.
    """
    from .oracle import CHECK_NAMES, verify_word

    alphabet = OrderedAlphabet(symbols)
    lyndon = 0
    passes = dict.fromkeys(CHECK_NAMES, 0)
    for tail in itertools.product(range(len(symbols)), repeat=n - len(head)):
        word = Word._make(alphabet, head + tail)
        lyndon += is_lyndon(word)
        for check in verify_word(word).checks:
            if not check.passed:
                return lyndon, passes, f"FAIL {check.name} on {word.text()}: {check.detail}"
            passes[check.name] += 1
    return lyndon, passes, None


def cmd_verify(args) -> int:
    from .oracle import CHECK_NAMES

    if args.format != "text":
        print("verify only renders text", file=sys.stderr)
        return 2
    if args.max_len < 1:
        print("--max-len must be at least 1", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("--jobs must be at least 1", file=sys.stderr)
        return 2
    symbols = args.alphabet if args.alphabet is not None else "ab"
    if not symbols:
        print("--alphabet must have at least one symbol", file=sys.stderr)
        return 2
    jobs = min(args.jobs, os.cpu_count() or 1)
    k = len(OrderedAlphabet(symbols).symbols)
    # The words of each length split into shards by their first `width`
    # letters, about four shards per worker.  In this order the shards run
    # through the words in shortlex order, so the first failure reported is
    # that of the first failing word.
    lengths, heads = [], []
    for n in range(1, args.max_len + 1):
        width = next((h for h in range(n) if k**h >= 4 * jobs), n)
        for head in itertools.product(range(k), repeat=width):
            lengths.append(n)
            heads.append(head)
    lyndon_per_length = [0] * args.max_len
    passes = dict.fromkeys(CHECK_NAMES, 0)
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else contextlib.nullcontext() as pool:
        shards = (pool.map if pool else map)(_verify_one, itertools.repeat(symbols), lengths, heads)
        for n, (lyndon, counts, failure) in zip(lengths, shards):
            if failure is not None:
                print(failure, file=sys.stderr)
                if pool:
                    # Leaving the pool waits for every shard not cancelled.
                    pool.shutdown(cancel_futures=True)
                return 1
            lyndon_per_length[n - 1] += lyndon
            for name, count in counts.items():
                passes[name] += count

    print(f"alphabet: {symbols}")
    print(f"words checked: {sum(k**n for n in range(1, args.max_len + 1))}")
    print("lyndon words per length: " + ",".join(str(c) for c in lyndon_per_length))
    for name in CHECK_NAMES:
        print(f"{name}: {passes[name]} pass")
    print("all checks pass")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--alphabet",
        help="symbols in increasing order (default: distinct input letters)",
    )
    common.add_argument(
        "--format",
        choices=("text", "structured", "dot"),
        default="text",
        help="output rendering (dot is tree-only)",
    )

    parser = argparse.ArgumentParser(
        prog="lyndonkit",
        description="Compare periodic extensions of words and build Lyndon trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", parents=[common], help="compare u^ω with v^ω")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--six", action="store_true", help="print the six-condition table")
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("factorize", parents=[common], help="nonincreasing Lyndon factorization")
    p.add_argument("w")
    p.set_defaults(handler=cmd_factorize)

    p = sub.add_parser("pstd", parents=[common], help="prefix rank permutation and its inverse")
    p.add_argument("w")
    p.set_defaults(handler=cmd_pstd)

    p = sub.add_parser("tree", parents=[common], help="build a tree over a Lyndon word")
    p.add_argument("w")
    p.add_argument("--kind", choices=("left", "right", "cartesian"), default="left")
    p.set_defaults(handler=cmd_tree)

    p = sub.add_parser("verify", parents=[common], help="exhaustive cross-check sweep")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(handler=cmd_verify)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    # The parser holds no per-call state, so one serves every call in the
    # process; building it costs far more than parsing with it.
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as stop:
        return int(stop.code or 0)
    if args.format == "dot" and args.command != "tree":
        print("dot output is only available for tree", file=sys.stderr)
        return 2
    try:
        return args.handler(args)
    except (LyndonKitError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # a fault in lyndonkit, not in the input
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
