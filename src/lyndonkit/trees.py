"""Complete binary trees over letters, and the two standard factorizations.

A tree is either a single letter or an ordered pair of subtrees; its
foliage is the word read off the leaves from left to right.  Iterating the
left (or right) standard factorization of a Lyndon word grows such a tree.

Internal nodes are addressed by strings over 'L' and 'R' describing the
path from the root.  A tree also has a text form, (l,r) with letters as
leaves, a JSON form of nested {"l": ..., "r": ...} and {"leaf": ...}
objects, and a DOT form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, Union

from .errors import BadAddress, NotLyndon, TooShort
from .lyndon import _duval_cuts, _lyndon_prefix_ends, is_lyndon
from .words import OrderedAlphabet, Word, _join, ensure_nonempty, make_word

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
    "subtree_at",
    "format_tree",
    "parse_tree",
    "render_dot",
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
        return _shape(self) == _shape(other)

    def __hash__(self) -> int:
        return hash(_shape(self))

    def __repr__(self) -> str:
        return _write_tree(
            self, "Node(left=", ", right=", ")", lambda s: f"Leaf(letter=Word({s!r}))"
        )


MagmaTree = Union[Leaf, Node]


def _shape(tree: MagmaTree) -> tuple:
    """The tree as one tuple: its pre-order walk, None for each node and
    the alphabet and rank of each leaf.

    Pre-order walks of complete binary trees form a prefix-free code, so
    two trees are equal exactly when these tuples are.  Leaves over one
    alphabet object then compare by identity and an int, not through
    `Leaf.__eq__` and `Word.__eq__`.
    """
    shape: list = []
    stack = [tree]
    while stack:
        tree = stack.pop()
        if isinstance(tree, Node):
            shape.append(None)
            stack += (tree.right, tree.left)
        else:
            letter = tree.letter
            shape += (letter.alphabet, letter.letters[0])
    return tuple(shape)


def _leaf_letters(tree: MagmaTree) -> list[Word]:
    """The leaf letters, left to right, listed with an explicit stack."""
    letters = []
    stack = [tree]
    while stack:
        tree = stack.pop()
        if isinstance(tree, Node):
            stack += (tree.right, tree.left)
        else:
            letters.append(tree.letter)
    return letters


def foliage(tree: MagmaTree) -> Word:
    """The leaf word of the tree, left to right, joined in one O(n) copy."""
    return _join(_leaf_letters(tree))


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

    For a Lyndon word that suffix is also the smallest proper suffix.
    """
    if not is_lyndon(w):
        raise NotLyndon(f"{w.text()!r} is not a Lyndon word")
    n = len(w.letters)
    if n < 2:
        raise TooShort("single letters have no standard factorization")
    cut = _duval_cuts(w.letters, 1, n)[-2]  # the last Duval factor of w[1:]
    return w[:cut], w[cut:]


def _stack_build(labels: Sequence[int], gaps: Sequence, join: Callable):
    """Decreasing tree of distinct labels, built in one stack pass.

    The stack holds a decreasing run of labels, each with its finished left
    subtree.  A larger label pops the smaller ones, and each popped label
    becomes the right subtree of the one under it.  gaps[k] fills the empty
    slot just left of labels[k], and gaps[-1] the last slot;
    join(label, left, right) makes a node.
    """
    stack: list[tuple[int, object]] = []
    for label, sub in zip(labels, gaps):
        while stack and stack[-1][0] < label:
            top, left = stack.pop()
            sub = join(top, left, sub)
        stack.append((label, sub))
    sub = gaps[len(labels)]
    while stack:
        top, left = stack.pop()
        sub = join(top, left, sub)
    return sub


def _complete(labels: Sequence[int], w: Word) -> MagmaTree:
    """The decreasing tree of labels, with the letters of w in its empty slots."""
    # The labels fix the shape; equal letters share one Leaf object.
    shared = {x: Leaf(Word(w.alphabet, (x,))) for x in set(w.letters)}
    leaves = [shared[x] for x in w.letters]
    return _stack_build(labels, leaves, lambda label, left, right: Node(left, right))


def _build_blocks(w: Word, spine: Callable[[int, int], list[int]]) -> MagmaTree:
    """Tree over w grown from blocks w[lo:hi], as the decreasing tree of cut ranks.

    spine(lo, hi) returns cuts lo < c_1 < ... < c_m = hi of a block of two
    or more letters; the block's tree is the left fold of the trees of its
    parts w[lo:c_1], w[c_1:c_2], ..., w[c_(m-1):hi].  So c_(m-1) splits the
    block at its root, c_(m-2) its left child, and so on: ranking a block's
    cuts from the last down, and every cut inside its parts lower still,
    makes the tree the decreasing tree of the ranks.
    """
    n = len(w.letters)
    ranks = [0] * n  # ranks[k] ranks the cut before letter k
    rank = n
    blocks = [(0, n)]
    # Breadth first, so a block's cuts are ranked before its parts' cuts.
    for lo, hi in blocks:
        if hi - lo > 1:
            cuts = spine(lo, hi)
            for cut in reversed(cuts[:-1]):
                rank -= 1
                ranks[cut] = rank
            blocks.extend(zip([lo] + cuts, cuts))
    return _complete(ranks[1:], w)


def left_lyndon_tree(w: Word) -> MagmaTree:
    """Iterate the left standard factorization down to single letters.

    The Lyndon prefixes of a prefix u of a block are the block's Lyndon
    prefixes shorter than u, so one prefix scan gives the whole left spine
    of the block's tree; the Lyndon words between consecutive spine cuts
    are the right children, scanned in turn.
    """
    if not is_lyndon(w):
        raise NotLyndon(f"{w.text()!r} is not a Lyndon word")
    ls = w.letters
    return _build_blocks(w, lambda lo, hi: _lyndon_prefix_ends(ls, lo, hi)[0])


def right_lyndon_tree(w: Word) -> MagmaTree:
    """Iterate the right standard factorization down to single letters.

    A block a f_1 ... f_m, where f_1 >= ... >= f_m are the Duval factors of
    the block without its first letter, splits before f_m, its smallest
    proper suffix; its left part then splits before f_(m-1), and so on.  So
    one Duval scan per block gives its whole left spine.
    """
    if not is_lyndon(w):
        raise NotLyndon(f"{w.text()!r} is not a Lyndon word")
    ls = w.letters
    return _build_blocks(w, lambda lo, hi: _duval_cuts(ls, lo + 1, hi))


def _walk(tree: MagmaTree, address: str) -> tuple[MagmaTree, list[MagmaTree]]:
    """The addressed subtree, and the left subtrees hanging off the path to it."""
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
    return tree, hanging


def subtree_at(tree: MagmaTree, address: str) -> MagmaTree:
    """The subtree rooted at the addressed node."""
    return _walk(tree, address)[0]


def left_subtrees_sequence(tree: MagmaTree, address: str) -> tuple[MagmaTree, ...]:
    """Subtrees hanging off to the left of the path to the addressed node.

    The sequence ends with the addressed node's own left subtree, so the
    address must land on an internal node.
    """
    node, hanging = _walk(tree, address)
    if isinstance(node, Leaf):
        raise BadAddress(f"address {address!r} does not reach an internal node")
    return (*hanging, node.left)


def left_foliage(tree: MagmaTree, address: str) -> Word:
    """Concatenated foliage of the left subtrees sequence of the addressed node.

    Its length equals the number of leaves strictly to the left of the node.
    """
    sequence = left_subtrees_sequence(tree, address)
    return _join([letter for sub in sequence for letter in _leaf_letters(sub)])


def internal_addresses(tree: MagmaTree) -> Iterator[str]:
    """Addresses of the internal nodes, in pre-order."""
    stack = [(tree, "")]
    while stack:
        tree, address = stack.pop()
        if isinstance(tree, Node):
            yield address
            stack.append((tree.right, address + "R"))
            stack.append((tree.left, address + "L"))


def _symbol(leaf: Leaf) -> str:
    """The symbol of a leaf's one letter."""
    letter = leaf.letter
    return letter.alphabet.symbols[letter.letters[0]]


def _write_tree(
    tree: MagmaTree, opening: str, separator: str, closing: str, leaf: Callable[[str], str]
) -> str:
    """Write a node as opening, left, separator, right, closing, and a leaf as leaf(symbol)."""
    # One walk with an explicit stack of pending subtrees and punctuation,
    # so no tree depth can exhaust the interpreter's recursion limit.
    out: list[str] = []
    stack: list[MagmaTree | str] = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Node):
            out.append(opening)
            stack += (closing, item.right, separator, item.left)
        else:
            out.append(leaf(_symbol(item)))
    return "".join(out)


def format_tree(tree: MagmaTree) -> str:
    """Canonical text form: a leaf prints its letter, a node prints (l,r)."""
    return _write_tree(tree, "(", ",", ")", str)


def _tree_structured(tree: MagmaTree, alphabet: OrderedAlphabet) -> str:
    """The JSON text json.dumps gives for nested {"l": ..., "r": ...} and {"leaf": ...}."""
    leaves = {s: '{"leaf": ' + json.dumps(s) + "}" for s in alphabet.symbols}
    return _write_tree(tree, '{"l": ', ', "r": ', "}", leaves.__getitem__)


def parse_tree(text: str, alphabet: OrderedAlphabet) -> MagmaTree:
    """Inverse of format_tree.  Raises ValueError on malformed input."""
    # One left-to-right scan.  Each open node on the stack holds None while
    # its left subtree is read, then that subtree while its right one is.
    pending: list[MagmaTree | None] = []
    at = 0
    while True:
        if at >= len(text):
            raise ValueError("unexpected end of tree text")
        if text[at] == "(":
            pending.append(None)
            at += 1
            continue
        if text[at] in "),":
            raise ValueError(f"unexpected {text[at]!r} at offset {at}")
        tree: MagmaTree = Leaf(make_word(text[at], alphabet))
        at += 1
        while pending and pending[-1] is not None:
            if at >= len(text) or text[at] != ")":
                raise ValueError(f"expected ')' at offset {at}")
            tree = Node(pending.pop(), tree)
            at += 1
        if not pending:
            break
        if at >= len(text) or text[at] != ",":
            raise ValueError(f"expected ',' at offset {at}")
        pending[-1] = tree
        at += 1
    if at != len(text):
        raise ValueError(f"trailing input at offset {at}")
    return tree


def render_dot(tree: MagmaTree) -> str:
    """DOT digraph with pre-order node ids.

    Internal nodes are labeled with their left foliage, leaves with
    their letter, so the output is byte-stable for a given tree.
    """
    # One pre-order walk.  Leaves arrive left to right, so when a node's
    # right child comes up, the leaves seen so far are its left foliage.
    spans: list[tuple[int, int]] = []  # each label as a slice of the foliage
    right: list[int] = []  # pre-order id of the right child; -1 for a leaf
    letters: list[str] = []
    stack: list[tuple[MagmaTree, int]] = [(tree, -1)]
    while stack:
        node, parent = stack.pop()
        me = len(spans)
        if parent >= 0:
            spans[parent] = (0, len(letters))
            right[parent] = me
        spans.append((len(letters), len(letters) + 1))
        right.append(-1)
        if isinstance(node, Leaf):
            letters.append(_symbol(node))
        else:
            stack.append((node.right, me))
            stack.append((node.left, -1))
    text = "".join(letters)
    lines = ["digraph {"]
    for me, (start, stop) in enumerate(spans):
        label = text[start:stop].replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{me} [label="{label}"];')
    for me, child in enumerate(right):
        if child >= 0:
            lines.append(f"  n{me} -> n{me + 1};")
            lines.append(f"  n{me} -> n{child};")
    lines.append("}")
    return "\n".join(lines)
