"""Complete binary trees over letters, and the two standard factorizations.

A tree is either a single letter or an ordered pair of subtrees; its
foliage is the word read off the leaves from left to right.  Iterating the
left (or right) standard factorization of a Lyndon word grows such a tree.

Internal nodes are addressed by strings over 'L' and 'R' describing the
path from the root.  Every tree goes through one bracket form (see
_brackets), read off the ranks by _bracket_counts with no node made.
_complete builds a tree from it, and the text form, (l,r) with letters as
leaves, the JSON form of nested {"l": ..., "r": ...} and {"leaf": ...}
objects and the DOT form are all written from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from .errors import BadAddress, NotLyndon, TooShort
from .lyndon import _duval_cuts, _lyndon_prefix_ends
from .words import Word, _join, ensure_nonempty

__all__ = [
    "Leaf",
    "Node",
    "MagmaTree",
    "foliage",
    "left_standard_factorization",
    "right_standard_factorization",
    "left_lyndon_tree",
    "right_lyndon_tree",
    "left_subtrees_sequence",
    "left_foliage",
    "internal_addresses",
    "format_tree",
]


@dataclass(frozen=True)
class Leaf:
    """A single-letter tree."""

    letter: Word

    def __post_init__(self) -> None:
        if len(self.letter.letters) != 1:
            raise ValueError("a leaf carries exactly one letter")


@dataclass(frozen=True, eq=False)
class Node:
    """An internal node with exactly two children.

    Equality, hashing and repr walk the tree with an explicit stack, so no
    tree depth can exhaust the interpreter's recursion limit.
    """

    left: "MagmaTree"
    right: "MagmaTree"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return _brackets(self) == _brackets(other)

    def __hash__(self) -> int:
        return hash(tuple(map(tuple, _brackets(self))))

    def __repr__(self) -> str:
        letters, opens, closes = _brackets(self)
        leaves = [f"Leaf(letter={letter!r})" for letter in letters]
        return _write(leaves, opens, closes, "Node(left=", ", right=", ")")


MagmaTree = Union[Leaf, Node]


def _brackets(tree: MagmaTree) -> tuple[list[Word], list[int], list[int]]:
    """The tree in bracket form: for each leaf, left to right, its letter, and
    how many internal nodes it is the leftmost leaf of (opens) and the
    rightmost leaf of (closes).  This is the (l,r) text, run-length coded, so
    two trees are equal exactly when their bracket forms are.
    """
    letters, opens, closes = [], [], []
    entered = 0  # nodes entered since the last leaf: the next leaf opens them all
    # Pre-order, each subtree stacked with the count of nodes it closes for.
    stack: list = [tree, 0]
    while stack:
        ending, tree = stack.pop(), stack.pop()
        if isinstance(tree, Node):
            entered += 1
            stack += (tree.right, ending + 1, tree.left, 0)
        else:
            letters.append(tree.letter)
            opens.append(entered)
            closes.append(ending)
            entered = 0
    return letters, opens, closes


def foliage(tree: MagmaTree) -> Word:
    """The leaf word, left to right: the letters of the bracket form, joined in O(n)."""
    return _join(_brackets(tree)[0])


def left_standard_factorization(w: Word) -> tuple[Word, Word]:
    """Split w = uv where u is the longest nonempty proper Lyndon prefix.

    Both parts of the result are Lyndon again.
    """
    ensure_nonempty(w)
    n = len(w.letters)
    ends = _lyndon_prefix_ends(w.letters, 0, n)[0]
    if ends[-1] != n:
        raise NotLyndon(f"{w.text()!r} is not a Lyndon word")
    if n < 2:
        raise TooShort("single letters have no standard factorization")
    return w[:ends[-2]], w[ends[-2]:]


def right_standard_factorization(w: Word) -> tuple[Word, Word]:
    """Split w = uv where v is the longest proper nonempty Lyndon suffix.

    For a Lyndon word that suffix is also the smallest proper suffix, the
    last Duval factor of w[1:], and w is Lyndon exactly when it is below it.
    """
    ensure_nonempty(w)
    ls = w.letters
    n = len(ls)
    if n < 2:
        raise TooShort("single letters have no standard factorization")
    cut = _duval_cuts(ls, 1, n)[-2]
    if not ls < ls[cut:]:
        raise NotLyndon(f"{w.text()!r} is not a Lyndon word")
    return w[:cut], w[cut:]


def _complete(labels: Sequence[int], w: Word) -> MagmaTree:
    """The decreasing tree of distinct labels, with the letters of w in its
    empty slots, built from its bracket form (see _bracket_counts).

    Leaf k finishes closes[k] nodes, each over the subtree finished before
    it and the one just finished, so one stack of finished subtrees, left
    to right, builds the tree.
    """
    # Equal letters share one Leaf object.
    shared = {x: Leaf(Word(w.alphabet, (x,))) for x in set(w.letters)}
    done: list[MagmaTree] = []
    for x, c in zip(w.letters, _bracket_counts(labels)[1]):
        sub = shared[x]
        for _ in range(c):
            sub = Node(done.pop(), sub)
        done.append(sub)
    return done[0]


def _bracket_counts(labels: Sequence[int]) -> tuple[list[int], list[int]]:
    """opens and closes of the decreasing tree of distinct labels, completed
    with a leaf in each empty slot, with no node made.

    The node of a label spans the leaves between the nearest larger labels
    on either side, so one all-nearest-larger stack pass finds both: the
    node opens at the leaf just right of the larger label on its left and
    closes at the leaf just left of the one that pops it.  Nodes never
    popped close at the last leaf.
    """
    n = len(labels) + 1
    opens, closes = [0] * n, [0] * n
    fenced = [float("inf"), *labels]  # fenced[k] lies between leaves k - 1 and k
    stack = [0]  # indices into fenced, their labels decreasing
    for k in range(1, n):
        label = fenced[k]
        while fenced[stack[-1]] < label:
            stack.pop()
            closes[k - 1] += 1
        opens[stack[-1]] += 1
        stack.append(k)
    closes[-1] += len(stack) - 1
    return opens, closes


def _below(ls: Sequence[int], a: int, b: int, c: int) -> bool:
    """Whether ls[a:b] < ls[b:c], reading only as many letters as the shorter has."""
    if ls[a] != ls[b]:
        return ls[a] < ls[b]
    if b - a < c - b:
        return ls[a:b] <= ls[b:b + b - a]  # a proper prefix is below
    return ls[a:a + c - b] < ls[b:c]


def _join_ranks(w: Word, ends: bool) -> list[int]:
    """Labels of a Lyndon tree of w, as the ranks of its cuts, in one stack pass.

    The stack holds the Lyndon factorization of the letters read so far,
    one boundary per factor.  Each letter read is a new factor, and two
    adjacent factors u, v join into the Lyndon word uv while u < v: read
    left to right (the stack holds starts), the joins grow the left Lyndon
    tree, and read right to left (ends), the right one.  Each join ranks its
    cut above every cut inside its parts, so the tree is the decreasing tree
    of the ranks.  One factor is left exactly when w is Lyndon.
    """
    ensure_nonempty(w)
    ls = w.letters
    n = len(ls)
    ranks = [0] * (n + 1)  # ranks[k] ranks the cut before letter k
    rank = 0
    stack: list[int] = []
    for i in reversed(range(n)) if ends else range(n):
        cut = i + 1 if ends else i
        while stack and (
            _below(ls, i, cut, stack[-1]) if ends else _below(ls, stack[-1], cut, i + 1)
        ):
            rank += 1
            ranks[cut] = rank
            cut = stack.pop()
        stack.append(cut)
    if len(stack) > 1:
        raise NotLyndon(f"{w.text()!r} is not a Lyndon word")
    return ranks[1:n]


def _left_ranks(w: Word) -> list[int]:
    """Labels of the left Lyndon tree of w; NotLyndon unless w is Lyndon."""
    return _join_ranks(w, False)


def _right_ranks(w: Word) -> list[int]:
    """Labels of the right Lyndon tree of w; NotLyndon unless w is Lyndon."""
    return _join_ranks(w, True)


def left_lyndon_tree(w: Word) -> MagmaTree:
    """Iterated left standard factorization, as the decreasing tree of _left_ranks."""
    return _complete(_left_ranks(w), w)


def right_lyndon_tree(w: Word) -> MagmaTree:
    """Iterated right standard factorization, as the decreasing tree of _right_ranks."""
    return _complete(_right_ranks(w), w)


def left_subtrees_sequence(tree: MagmaTree, address: str) -> tuple[MagmaTree, ...]:
    """Subtrees hanging off to the left of the path to the addressed node.

    The sequence ends with the addressed node's own left subtree, so the
    address must land on an internal node.
    """
    if any(step not in "LR" for step in address):
        raise BadAddress(f"address {address!r} must use only 'L' and 'R'")
    hanging = []
    for depth, step in enumerate(address):
        if isinstance(tree, Leaf):
            raise BadAddress(f"address {address!r} walks into a leaf at depth {depth}")
        if step == "L":
            tree = tree.left
        else:
            hanging.append(tree.left)
            tree = tree.right
    if isinstance(tree, Leaf):
        raise BadAddress(f"address {address!r} does not reach an internal node")
    return (*hanging, tree.left)


def left_foliage(tree: MagmaTree, address: str) -> Word:
    """Concatenated foliage of the left subtrees sequence of the addressed node.

    Its length equals the number of leaves strictly to the left of the node.
    """
    return _join([foliage(sub) for sub in left_subtrees_sequence(tree, address)])


def internal_addresses(tree: MagmaTree) -> Iterator[str]:
    """Addresses of the internal nodes, in pre-order."""
    stack = [(tree, "")]
    while stack:
        tree, address = stack.pop()
        if isinstance(tree, Node):
            yield address
            stack.append((tree.right, address + "R"))
            stack.append((tree.left, address + "L"))


def _write(leaves: Sequence[str], opens, closes, opening="(", separator=",", closing=")") -> str:
    """Write a tree in bracket form, a node as opening, left, separator, right, closing.

    Consecutive leaves part at one node, their lowest common ancestor, so
    one separator lies between them.  The defaults give format_tree's form.
    """
    return separator.join(
        [opening * o + leaf + closing * c for leaf, o, c in zip(leaves, opens, closes)]
    )


def _write_json(symbols: Sequence[str], opens: Sequence[int], closes: Sequence[int]) -> str:
    """The JSON text json.dumps gives for nested {"l": ..., "r": ...} and {"leaf": ...}."""
    import json

    leaf = {s: '{"leaf": ' + json.dumps(s) + "}" for s in set(symbols)}
    return _write([leaf[s] for s in symbols], opens, closes, '{"l": ', ', "r": ', "}")


def _write_dot(symbols: Sequence[str], opens: Sequence[int], closes: Sequence[int]) -> str:
    """The DOT digraph of a bracket form, with pre-order node ids.

    Internal nodes are labeled with their left foliage, leaves with their
    letter, so the text is byte-stable for a given tree.  Leaf i follows
    its opens[i] nodes in pre-order.  After its closes[i] nodes complete,
    the open node on top has a complete left subtree: its label, the left
    foliage, is the first i + 1 letters, and its right child is the next
    node entered.  These edges turn up in in-order and are written in
    pre-order.
    """
    escaped = [s.replace("\\", "\\\\").replace('"', '\\"') for s in symbols]
    text = "".join(escaped)
    labels: list[str] = []  # by pre-order id
    edges: list[tuple[int, int]] = []  # (node, its right child)
    stack: list[int] = []  # ids of the nodes entered and not yet complete
    end = 0
    for symbol, o, c in zip(escaped, opens, closes):
        if o:
            stack += range(len(labels), len(labels) + o)
            labels += [""] * o
        labels.append(symbol)
        end += len(symbol)
        if c:
            del stack[-c:]
        if stack:
            labels[stack[-1]] = text[:end]
            edges.append((stack[-1], len(labels)))
    edges.sort()
    lines = [f'  n{me} [label="{label}"];' for me, label in enumerate(labels)]
    lines += [f"  n{me} -> n{me + 1};\n  n{me} -> n{c};" for me, c in edges]
    return "\n".join(["digraph {", *lines, "}"])


def format_tree(tree: MagmaTree) -> str:
    """Canonical text form: a leaf prints its letter, a node prints (l,r)."""
    letters, opens, closes = _brackets(tree)
    return _write([letter.text() for letter in letters], opens, closes)
