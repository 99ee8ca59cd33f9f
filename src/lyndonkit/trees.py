"""Complete binary trees over letters, and the two standard factorizations.

A tree is either a single letter or an ordered pair of subtrees; its
foliage is the word read off the leaves from left to right.  Iterating the
left (or right) standard factorization of a Lyndon word grows such a tree.

Internal nodes are addressed by strings over 'L' and 'R' describing the
path from the root.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Iterator, Union

from .errors import BadAddress, NotLyndon, TooShort
from .lyndon import _duval_cuts, _lyndon_prefix_lengths, is_lyndon
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
    "subtree_at",
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
        # Pre-order walks of complete binary trees form a prefix-free code,
        # so two trees differ exactly when their walks differ at some step.
        for a, b in zip(_preorder(self), _preorder(other)):
            if a is b or isinstance(a, Node) and isinstance(b, Node):
                continue
            if not (isinstance(a, Leaf) and isinstance(b, Leaf) and a == b):
                return False
        return True

    def __hash__(self) -> int:
        return hash(tuple(t if isinstance(t, Leaf) else None for t in _preorder(self)))

    def __repr__(self) -> str:
        return _dataclass_repr(self)


MagmaTree = Union[Leaf, Node]


def _dataclass_repr(tree) -> str:
    """The text the dataclass repr gives, written with an explicit stack.

    Field values of the tree's own class are written in place; any other
    value is written with its own repr.
    """
    kind = type(tree)
    out: list[str] = []
    stack: list = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        parts: list = [type(item).__qualname__ + "("]
        for at, field in enumerate(fields(item)):
            value = getattr(item, field.name)
            parts.append((", " if at else "") + field.name + "=")
            parts.append(value if isinstance(value, kind) else repr(value))
        parts.append(")")
        stack.extend(reversed(parts))
    return "".join(out)


def _preorder(tree: MagmaTree) -> list[MagmaTree]:
    """Every subtree, in pre-order, listed with an explicit stack."""
    order = []
    stack = [tree]
    while stack:
        tree = stack.pop()
        order.append(tree)
        if isinstance(tree, Node):
            stack.append(tree.right)
            stack.append(tree.left)
    return order


def _leaf_letters(tree: MagmaTree) -> list[Word]:
    return [t.letter for t in _preorder(tree) if isinstance(t, Leaf)]


def foliage(tree: MagmaTree) -> Word:
    """The leaf word of the tree, left to right, joined in one O(n) copy."""
    if isinstance(tree, Leaf):
        return tree.letter
    return _join(_leaf_letters(tree))


def _leaves(w: Word) -> list[Leaf]:
    """One leaf per letter of w; equal letters share one Leaf object."""
    shared = {x: Leaf(Word(w.alphabet, (x,))) for x in set(w.letters)}
    return [shared[x] for x in w.letters]


def left_standard_factorization(w: Word) -> tuple[Word, Word]:
    """Split w = uv where u is the longest nonempty proper Lyndon prefix.

    Both parts of the result are Lyndon again.
    """
    ensure_nonempty(w)
    lengths = _lyndon_prefix_lengths(w.letters)
    if lengths[-1] != len(w.letters):
        raise NotLyndon(f"{w.text()!r} is not a Lyndon word")
    if len(w.letters) < 2:
        raise TooShort("single letters have no standard factorization")
    return w[:lengths[-2]], w[lengths[-2]:]


def _smallest_proper_suffix(ls: tuple[int, ...], lo: int, hi: int) -> int:
    # The last Duval factor of a word is its smallest suffix.
    return _duval_cuts(ls, lo + 1, hi)[-2]


def right_standard_factorization(w: Word) -> tuple[Word, Word]:
    """Split w = uv where v is the longest proper nonempty Lyndon suffix.

    For a Lyndon word that suffix is also the smallest proper suffix.
    """
    if not is_lyndon(w):
        raise NotLyndon(f"{w.text()!r} is not a Lyndon word")
    n = len(w.letters)
    if n < 2:
        raise TooShort("single letters have no standard factorization")
    cut = _smallest_proper_suffix(w.letters, 0, n)
    return w[:cut], w[cut:]


def _build_blocks(w: Word, spine: Callable[[int, int], list[int]]) -> MagmaTree:
    """Tree over w grown from blocks w[lo:hi], without recursion.

    spine(lo, hi) returns cuts lo < c_1 < ... < c_m = hi of a block of two
    or more letters; the block's tree is the left fold of the trees of its
    parts w[lo:c_1], w[c_1:c_2], ..., w[c_(m-1):hi].
    """
    leaves = _leaves(w)
    blocks = [(0, len(w.letters))]
    first_part = []
    # Breadth first: the parts of a block are appended next to each other.
    for lo, hi in blocks:
        first_part.append(len(blocks))
        if hi - lo > 1:
            cuts = spine(lo, hi)
            blocks.extend(zip([lo] + cuts, cuts))
    first_part.append(len(blocks))
    # Parts come after their block, so building back to front finds them done.
    built: list[MagmaTree] = [None] * len(blocks)  # type: ignore[list-item]
    for index in range(len(blocks) - 1, -1, -1):
        parts = range(first_part[index], first_part[index + 1])
        if not parts:
            built[index] = leaves[blocks[index][0]]
            continue
        tree = built[parts[0]]
        for part in parts[1:]:
            tree = Node(tree, built[part])
        built[index] = tree
    return built[0]


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
    return _build_blocks(
        w, lambda lo, hi: [lo + k for k in _lyndon_prefix_lengths(ls[lo:hi])]
    )


def right_lyndon_tree(w: Word) -> MagmaTree:
    """Iterate the right standard factorization down to single letters.

    Each block splits before its smallest proper suffix, found with one
    Duval scan.
    """
    if not is_lyndon(w):
        raise NotLyndon(f"{w.text()!r} is not a Lyndon word")
    ls = w.letters
    return _build_blocks(w, lambda lo, hi: [_smallest_proper_suffix(ls, lo, hi), hi])


def _check_address(address: str) -> None:
    if any(step not in "LR" for step in address):
        raise BadAddress(f"address {address!r} must use only 'L' and 'R'")


def subtree_at(tree: MagmaTree, address: str) -> MagmaTree:
    """The subtree rooted at the addressed node."""
    _check_address(address)
    for depth, step in enumerate(address):
        if isinstance(tree, Leaf):
            raise BadAddress(f"address {address!r} walks into a leaf at depth {depth}")
        tree = tree.left if step == "L" else tree.right
    return tree


def left_subtrees_sequence(tree: MagmaTree, address: str) -> tuple[MagmaTree, ...]:
    """Subtrees hanging off to the left of the path to the addressed node.

    The sequence ends with the addressed node's own left subtree, so the
    address must land on an internal node.
    """
    _check_address(address)
    hanging = []
    for step in address:
        if isinstance(tree, Leaf):
            break
        if step == "L":
            tree = tree.left
        else:
            hanging.append(tree.left)
            tree = tree.right
    if isinstance(tree, Leaf):
        raise BadAddress(f"address {address!r} does not reach an internal node")
    hanging.append(tree.left)
    return tuple(hanging)


def left_foliage(tree: MagmaTree, address: str) -> Word:
    """Concatenated foliage of the left subtrees sequence of the addressed node.

    Its length equals the number of leaves strictly to the left of the node.
    """
    _check_address(address)
    letters: list[Word] = []
    for step in address:
        if isinstance(tree, Leaf):
            break
        if step == "L":
            tree = tree.left
        else:
            letters += _leaf_letters(tree.left)
            tree = tree.right
    if isinstance(tree, Leaf):
        raise BadAddress(f"address {address!r} does not reach an internal node")
    return _join(letters + _leaf_letters(tree.left))


def internal_addresses(tree: MagmaTree) -> Iterator[str]:
    """Addresses of the internal nodes, in pre-order."""
    stack = [(tree, "")]
    while stack:
        tree, address = stack.pop()
        if isinstance(tree, Node):
            yield address
            stack.append((tree.right, address + "R"))
            stack.append((tree.left, address + "L"))
