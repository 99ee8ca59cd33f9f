"""Output checks written against the definitions, sharing no code with lyndonkit.

Each check takes the operation's argument vector, exit code and standard
output, and returns None when the output is right or a one-line reason
when it is not.  Trees are parsed into nested pairs: a leaf is its letter,
an internal node is a (left, right) tuple.
"""

from __future__ import annotations

import json
import re

from .inputs import SWEEP_MAX_LEN, Op


def materialize(u: str, length: int) -> str:
    """The first `length` letters of u u u ..."""
    return (u * (length // len(u) + 1))[:length]


def omega_less(u: str, v: str) -> bool:
    """u^ω < v^ω, decided on |u| + |v| letters (Fine and Wilf)."""
    n = len(u) + len(v)
    return materialize(u, n) < materialize(v, n)


def prec_less(p: str, q: str) -> bool:
    """Extension order with the longer word winning ties."""
    n = len(p) + len(q)
    a, b = materialize(p, n), materialize(q, n)
    return a < b if a != b else len(p) > len(q)


def is_lyndon(s: str) -> bool:
    """Strictly smaller than each of its nontrivial rotations."""
    return bool(s) and all(s < s[i:] + s[:i] for i in range(1, len(s)))


def lyndon_prefix_lengths(s: str) -> list[int]:
    """Lengths of the prefixes of s that are Lyndon, in one left-to-right scan.

    s[:j+1] is a prefix of a power of a Lyndon word of period j + 1 - k while
    s[k] <= s[j] keeps holding; it is itself Lyndon exactly when the last
    step was a strict increase, which resets the period to the full length.
    """
    lengths = [1] if s else []
    k = 0
    for j in range(1, len(s)):
        if s[k] < s[j]:
            k = 0
            lengths.append(j + 1)
        elif s[k] == s[j]:
            k += 1
        else:
            break
    return lengths


def leaves(tree) -> str:
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        else:
            stack.append(node[1])
            stack.append(node[0])
    return "".join(out)


def tree_shape_error(tree, word: str, kind: str) -> str | None:
    """Check the leaves spell `word` and every split follows the definition.

    left: the left part of each node is its longest proper Lyndon prefix.
    right: the right part of each node is its smallest proper suffix, which
    for a Lyndon word is its longest proper Lyndon suffix.
    """
    if leaves(tree) != word:
        return "leaves do not spell the input"
    stack = [(tree, 0, len(word))]
    while stack:
        node, lo, hi = stack.pop()
        if isinstance(node, str):
            if len(node) != 1:
                return f"leaf {node!r} is not one letter"
            continue
        f = word[lo:hi]
        if not is_lyndon(f):
            return f"node over {lo}:{hi} is not Lyndon"
        split = lo + len(leaves(node[0]))
        if kind == "right":
            want = hi - len(min(f[i:] for i in range(1, len(f))))
        else:
            want = lo + [n for n in lyndon_prefix_lengths(f) if n < len(f)][-1]
        if split != want:
            return f"node over {lo}:{hi} splits at {split}, not {want}"
        stack.append((node[0], lo, split))
        stack.append((node[1], split, hi))
    return None


def parse_text_tree(text: str):
    """Inverse of the '(l,r)' text form; raises ValueError when malformed."""
    stack: list = []
    tree = None
    for i, ch in enumerate(text):
        if ch == "(":
            stack.append([])
            continue
        if ch == ",":
            continue
        if ch == ")":
            if not stack or len(stack[-1]) != 2:
                raise ValueError(f"unbalanced ')' at {i}")
            node = tuple(stack.pop())
        else:
            node = ch
        if stack:
            if len(stack[-1]) == 2:
                raise ValueError(f"third child at {i}")
            stack[-1].append(node)
        elif tree is None:
            tree = node
        else:
            raise ValueError(f"trailing input at {i}")
    if stack or tree is None:
        raise ValueError("unterminated tree")
    return tree


def to_text(tree) -> str:
    if isinstance(tree, str):
        return tree
    return f"({to_text(tree[0])},{to_text(tree[1])})"


def from_structured(doc):
    if set(doc) == {"leaf"}:
        return doc["leaf"]
    if set(doc) == {"l", "r"}:
        return (from_structured(doc["l"]), from_structured(doc["r"]))
    raise ValueError(f"bad node keys {sorted(doc)}")


_DOT_NODE = re.compile(r'^  (n\d+) \[label="([^"\\]*)"\];$')
_DOT_EDGE = re.compile(r"^  (n\d+) -> (n\d+);$")


def parse_dot_tree(text: str, word: str):
    """Parse the DOT form and check its labels.

    Leaves are labelled with their letter, internal nodes with the letters
    left of their split point; the first edge of a node goes to its left
    child.
    """
    lines = text.split("\n")
    if lines[0] != "digraph {" or lines[-1] != "}":
        raise ValueError("not a digraph block")
    labels: dict[str, str] = {}
    children: dict[str, list[str]] = {}
    targets = set()
    for line in lines[1:-1]:
        if m := _DOT_NODE.match(line):
            labels[m[1]] = m[2]
        elif m := _DOT_EDGE.match(line):
            children.setdefault(m[1], []).append(m[2])
            if m[2] in targets:
                raise ValueError(f"{m[2]} has two parents")
            targets.add(m[2])
        else:
            raise ValueError(f"unexpected line {line[:40]!r}")
    roots = [n for n in labels if n not in targets]
    if len(roots) != 1 or targets - labels.keys() or children.keys() - labels.keys():
        raise ValueError("edges do not form one rooted tree")
    if any(len(c) != 2 for c in children.values()):
        raise ValueError("an internal node does not have two children")

    # Rebuild bottom-up from a pre-order walk, tracking each node's leaf span.
    order, stack = [], [roots[0]]
    while stack:
        name = stack.pop()
        order.append(name)
        stack.extend(reversed(children.get(name, [])))
    if len(order) != len(labels):
        raise ValueError("unreachable nodes")
    start = {}
    pos = 0
    for name in order:
        start[name] = pos
        if name not in children:
            pos += 1
    built = {}
    for name in reversed(order):
        if name in children:
            left, right = children[name]
            if labels[name] != word[: start[right]]:
                raise ValueError(f"{name} is not labelled with its left foliage")
            built[name] = (built.pop(left), built.pop(right))
        else:
            built[name] = labels[name]
    return built[roots[0]]


def check_tree(argv: tuple[str, ...], out: str) -> str | None:
    word = argv[-1]
    kind = argv[argv.index("--kind") + 1] if "--kind" in argv else "left"
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    lines = out.rstrip("\n").split("\n")
    if fmt == "dot":
        tree = parse_dot_tree("\n".join(lines), word)
    elif fmt == "structured":
        if len(lines) != 1:
            return "structured output is not one line"
        tree = from_structured(json.loads(lines[0]))
    else:
        tree = parse_text_tree(lines[0])
        if to_text(tree) != lines[0]:
            return "tree text is not in the (l,r) form"
        if kind != "right":
            if lines[1:] != ["left == cartesian: equal"]:
                return "missing 'left == cartesian: equal'"
        elif len(lines) != 1:
            return "extra output"
    return tree_shape_error(tree, word, "right" if kind == "right" else "left")


def _parse_perm(text: str, n: int) -> list[int]:
    return [int(x) for x in (text.split(",") if n > 9 else text)]


def check_pstd(argv: tuple[str, ...], out: str) -> str | None:
    word = argv[-1]
    n = len(word)
    lines = out.rstrip("\n").split("\n")
    if len(lines) != 2 or not lines[1].startswith("inverse: "):
        return "expected a sigma line and an inverse line"
    sigma = _parse_perm(lines[0], n)
    inverse = _parse_perm(lines[1][len("inverse: "):], n)
    if sorted(sigma) != list(range(1, n + 1)):
        return "sigma is not a permutation of 1..n"
    if sigma[-1] != n:
        return "the whole word does not rank last"
    if any(inverse[r - 1] != length for length, r in enumerate(sigma, start=1)):
        return "inverse does not invert sigma"
    for a, b in zip(inverse, inverse[1:]):
        if not prec_less(word[:a], word[:b]):
            return f"prefixes {a} and {b} are out of order"
    return None


def first_difference(a: str, b: str) -> int | None:
    """1-based first position where two equal-length strings differ."""
    return next((i + 1 for i, (x, y) in enumerate(zip(a, b)) if x != y), None)


SIX_LABELS = (
    "u^ω < v^ω",
    "(uv)^ω < v^ω",
    "u^ω < (vu)^ω",
    "(uv)^ω < (vu)^ω",
    "u^ω < (uv)^ω",
    "(vu)^ω < v^ω",
)


def check_compare(argv: tuple[str, ...], out: str) -> str | None:
    u, v = argv[-2], argv[-1]
    lines = out.rstrip("\n").split("\n")
    n = len(u) + len(v)
    a, b = materialize(u, n), materialize(v, n)
    position = first_difference(a, b)
    if position is None:
        m = re.fullmatch(r"equal: powers of (\w+)", lines[0])
        if m is None:
            return "equal extensions not reported as equal"
        root = m[1]
        if not (u == root * (len(u) // len(root)) and v == root * (len(v) // len(root))):
            return f"{root[:20]!r} is not a common root"
        if (root + root).find(root, 1) != len(root):
            return "the reported root is not primitive"
    else:
        sign = "<ω" if a < b else ">ω"
        if lines[0] != f"{u} {sign} {v}, mismatch at {position}":
            return f"expected {sign} with mismatch at {position}"
    if "--six" in argv:
        uv, vu = u + v, v + u
        pairs = ((u, v), (uv, v), (u, vu), (uv, vu), (u, uv), (vu, v))
        want = [
            f"{label}: {'true' if omega_less(x, y) else 'false'}"
            for label, (x, y) in zip(SIX_LABELS, pairs)
        ]
        if lines[1:] != want:
            return "six-condition table differs"
    elif len(lines) != 1:
        return "extra output"
    return None


def check_factorize(argv: tuple[str, ...], out: str) -> str | None:
    word = argv[-1]
    lines = out.rstrip("\n").split("\n")
    if len(lines) != 3 or not (lines[0].startswith("(") and lines[0].endswith(")")):
        return "expected factors, first and last lines"
    factors = lines[0][1:-1].split(")(")
    if "".join(factors) != word:
        return "factors do not concatenate to the input"
    bad = next((f for f in factors if not is_lyndon(f)), None)
    if bad is not None:
        return f"factor {bad[:20]!r} is not smaller than its rotations"
    if any(a < b for a, b in zip(factors, factors[1:])):
        return "factors increase"
    if lines[1:] != [f"first: {factors[0]}", f"last: {factors[-1]}"]:
        return "first or last factor differs"
    return None


def mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def necklace_count(n: int, k: int) -> int:
    """Number of Lyndon words of length n over k letters (Witt's formula)."""
    return sum(mobius(d) * k ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def check_verify(argv: tuple[str, ...], out: str) -> str | None:
    lines = out.rstrip("\n").split("\n")
    if lines[-1] != "all checks pass":
        return "'all checks pass' missing"
    if f"words checked: {2 ** (SWEEP_MAX_LEN + 1) - 2}" not in lines:
        return "wrong word count"
    want = ",".join(str(necklace_count(n, 2)) for n in range(1, SWEEP_MAX_LEN + 1))
    if f"lyndon words per length: {want}" not in lines:
        return "Lyndon counts per length differ from the necklace formula"
    return None


CHECKS = {
    "verify": check_verify,
    "pstd": check_pstd,
    "tree": check_tree,
    "compare": check_compare,
    "factorize": check_factorize,
}


def check(op: Op, code: int, out: str) -> str | None:
    """None when the operation exited 0 with a correct output."""
    if code != 0:
        return f"exit code {code}"
    try:
        return CHECKS[op.kind](op.argv, out)
    except (ValueError, KeyError, IndexError, TypeError, RecursionError) as err:
        return f"unparsable output: {err!r}"
