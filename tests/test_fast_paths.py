"""The tree pipeline's fast paths against independent references.

Each fast routine is compared with a slow one written from the definition:
exhaustively on every word of up to 10 letters over ``ab`` and ``abc``, on
the benchmark's word families (random, comb, Christoffel) at small sizes,
and on hypothesis-drawn Lyndon words.  The deep-tree class builds trees of
2,000-letter words, far deeper than the interpreter's recursion limit, and
the right tree is checked on words of up to 500 letters whose right trees
have long left spines.  The builders' stack pass is held to fewer than 2n
comparisons on 20,000-letter words.
The end factors are checked against the oracle's prefix and suffix scans,
and the extension comparison and word encoding on 16,000-letter inputs.
Every kind and format of the ``tree`` command, which writes from bracket
counts and makes no ``Node``, is checked against explicit-stack writers of
the builders' trees, and ``factorize``, which prints from Duval's cuts,
against the library's factorization.  The bracket counts are checked
against the max-split decreasing tree's on every permutation of up to 7
labels, and the Z-array against its definition.  The extension comparison
is checked on pairs whose lengths and changed letters sit at its phase and
window boundaries.
"""

import io
import itertools
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cmp_to_key
from math import gcd
from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lyndonkit import (
    Leaf,
    Node,
    OrderedAlphabet,
    Word,
    errors,
    first_lyndon_factor,
    first_lyndon_factor_naive,
    internal_addresses,
    is_lyndon,
    is_lyndon_via_rotations,
    last_lyndon_factor,
    last_lyndon_factor_naive,
    left_cartesian_tree,
    left_foliage,
    left_lyndon_tree,
    left_lyndon_tree_naive,
    left_standard_factorization,
    lyndon_factorization,
    make_word,
    omega_cmp,
    omega_cmp_naive,
    omega_mismatch_position,
    prec_cmp,
    prefix_standard_permutation,
    right_lyndon_tree,
    right_standard_factorization,
)
from lyndonkit import trees
from lyndonkit.cartesian import _cartesian_ranks, _z_array
from lyndonkit.cli import main
from lyndonkit.trees import _bracket_counts, _brackets, _complete, _left_ranks, _right_ranks

from .strategies import BINARY, TERNARY, words

EXHAUSTIVE_LEN = 10


def all_words(alphabet: OrderedAlphabet, max_len: int = EXHAUSTIVE_LEN):
    for n in range(1, max_len + 1):
        for letters in itertools.product(range(len(alphabet)), repeat=n):
            yield Word(alphabet, letters)


def _rotation_lyndon(letters) -> bool:
    return all(letters < letters[i:] + letters[:i] for i in range(1, len(letters)))


def all_lyndon_words(alphabet: OrderedAlphabet, max_len: int = EXHAUSTIVE_LEN):
    return [w for w in all_words(alphabet, max_len) if _rotation_lyndon(w.letters)]


def lyndon_conjugate(word: Word) -> Word | None:
    """The least rotation of a primitive word, which is Lyndon; else None."""
    ls = word.letters
    rotations = [ls[i:] + ls[:i] for i in range(len(ls))]
    if len(set(rotations)) != len(ls):
        return None
    return Word(word.alphabet, min(rotations))


def comb(n: int) -> Word:
    return Word(BINARY, (0,) * (n - 1) + (1,))


def reversed_comb(n: int) -> Word:
    return Word(BINARY, (0,) + (1,) * (n - 1))


def christoffel(a_count: int, b_count: int) -> Word:
    """Lower Christoffel word with a_count a's and b_count b's (coprime)."""
    n = a_count + b_count
    return Word(BINARY, tuple(int((i + 1) * b_count // n > i * b_count // n) for i in range(n)))


def random_lyndon(rng: random.Random, n: int, alphabet: OrderedAlphabet) -> Word:
    while True:
        word = Word(alphabet, [rng.randrange(len(alphabet)) for _ in range(n)])
        conjugate = lyndon_conjugate(word)
        if conjugate is not None:
            return conjugate


def family_words():
    """The benchmark's four Lyndon word families, at small sizes."""
    rng = random.Random(2019)
    out = []
    for n in (2, 3, 5, 8, 13, 21, 34, 55):
        out.append(random_lyndon(rng, n, BINARY))
        out.append(random_lyndon(rng, n, TERNARY))
        out.append(comb(n))
    for a_count, b_count in ((1, 1), (2, 1), (3, 2), (5, 3), (8, 5), (13, 8), (21, 13), (34, 21), (7, 4)):
        out.append(christoffel(a_count, b_count))
    return out


lyndon_words = words(TERNARY, max_size=40).map(lyndon_conjugate).filter(lambda w: w is not None)


# ---- references, written from the definitions -------------------------------


def ranks_by_prec(w: Word) -> tuple[int, ...]:
    """Prefix lengths sorted by prec_cmp on the prefixes themselves."""
    return tuple(
        sorted(range(1, len(w) + 1), key=cmp_to_key(lambda i, j: prec_cmp(w[:i], w[:j])))
    )


class Skeleton(NamedTuple):
    """A node of a decreasing tree: its label above two subtrees, each None when empty."""

    label: int
    left: "Skeleton | None"
    right: "Skeleton | None"


def decreasing_by_max_split(entries):
    if not entries:
        return None
    i = entries.index(max(entries))
    return Skeleton(
        entries[i],
        decreasing_by_max_split(entries[:i]),
        decreasing_by_max_split(entries[i + 1:]),
    )


def completion_by_sizes(tree, w: Word, offset: int = 0):
    def size(t):
        return 0 if t is None else size(t.left) + 1 + size(t.right)

    if tree is None:
        return Leaf(w[offset:offset + 1])
    split = offset + size(tree.left) + 1
    return Node(completion_by_sizes(tree.left, w, offset), completion_by_sizes(tree.right, w, split))


def right_tree_by_smallest_suffix(w: Word):
    if len(w) == 1:
        return Leaf(w)
    cut = min(range(1, len(w)), key=lambda i: w.letters[i:])
    return Node(right_tree_by_smallest_suffix(w[:cut]), right_tree_by_smallest_suffix(w[cut:]))


def node_at(tree, address: str):
    for step in address:
        tree = tree.left if step == "L" else tree.right
    return tree


def dot_by_addresses(tree) -> str:
    """DOT rendering that resolves every node by address from the root."""
    order = []
    stack = [(tree, "")]
    while stack:
        node, address = stack.pop()
        order.append(address)
        if isinstance(node, Node):
            stack.append((node.right, address + "R"))
            stack.append((node.left, address + "L"))
    ids = {address: f"n{k}" for k, address in enumerate(order)}
    lines = ["digraph {"]
    for address in order:
        node = node_at(tree, address)
        if isinstance(node, Leaf):
            label = node.letter.text()
        else:
            label = left_foliage(tree, address).text()
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {ids[address]} [label="{label}"];')
    for address in internal_addresses(tree):
        lines.append(f"  {ids[address]} -> {ids[address + 'L']};")
        lines.append(f"  {ids[address]} -> {ids[address + 'R']};")
    lines.append("}")
    return "\n".join(lines)


# ---- per-word agreement checks -----------------------------------------------


def check_word(w: Word) -> None:
    assert is_lyndon(w) == is_lyndon_via_rotations(w), w
    ranks = prefix_standard_permutation(w)
    assert ranks.inverse == ranks_by_prec(w), w


def check_lyndon_word(w: Word) -> None:
    sigma = prefix_standard_permutation(w).sigma
    if len(w) > 1:
        skeleton = decreasing_by_max_split(sigma[:-1])
        assert left_cartesian_tree(w) == completion_by_sizes(skeleton, w), w
        u, v = left_standard_factorization(w)
        cut = max(i for i in range(1, len(w)) if _rotation_lyndon(w.letters[:i]))
        assert (u, v) == (w[:cut], w[cut:]), w
        u, v = right_standard_factorization(w)
        cut = min(range(1, len(w)), key=lambda i: w.letters[i:])
        assert (u, v) == (w[:cut], w[cut:]), w
    left = left_lyndon_tree(w)
    assert left == left_lyndon_tree_naive(w), w
    assert left_cartesian_tree(w) == left, w
    right = right_lyndon_tree(w)
    assert right == right_tree_by_smallest_suffix(w), w
    for kind, tree in (("left", left), ("right", right)):
        assert run_tree(w, kind, "dot") == (0, dot_by_addresses(tree) + "\n", ""), w


class TestExhaustive:
    @pytest.mark.parametrize("alphabet", [BINARY, TERNARY], ids=["ab", "abc"])
    def test_every_word(self, alphabet):
        for w in all_words(alphabet):
            check_word(w)

    @pytest.mark.parametrize("alphabet", [BINARY, TERNARY], ids=["ab", "abc"])
    def test_every_lyndon_word(self, alphabet):
        for w in all_lyndon_words(alphabet):
            check_lyndon_word(w)


class TestWordFamilies:
    def test_families_are_lyndon(self):
        assert all(_rotation_lyndon(w.letters) for w in family_words())

    def test_family_words(self):
        for w in family_words():
            check_word(w)
            check_lyndon_word(w)


class TestHypothesis:
    @given(words(TERNARY, max_size=40))
    def test_any_word(self, w):
        check_word(w)

    @given(lyndon_words)
    def test_lyndon_word(self, w):
        check_lyndon_word(w)

    @given(st.lists(st.integers(min_value=-99, max_value=99), unique=True, min_size=1, max_size=40))
    def test_decreasing_tree(self, alpha):
        w = comb(len(alpha) + 1)
        assert _complete(alpha, w) == completion_by_sizes(decreasing_by_max_split(alpha), w)


def walk(tree):
    """Leaf ranks and a pre-order shape code (1 leaf, 0 node), without recursion."""
    letters, shape = [], []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            letters.append(node.letter.letters[0])
            shape.append(1)
        else:
            shape.append(0)
            stack.append(node.right)
            stack.append(node.left)
    return tuple(letters), shape


class TestDeepTrees:
    @pytest.mark.parametrize(
        "w",
        [comb(2000), christoffel(1597, 987), reversed_comb(2000)],
        ids=["comb-2000", "christoffel-2584", "reversed-comb-2000"],
    )
    def test_builders_do_not_recurse(self, w):
        left = left_lyndon_tree(w)
        cartesian = left_cartesian_tree(w)
        right = right_lyndon_tree(w)
        for tree in (left, cartesian, right):
            assert walk(tree)[0] == w.letters
        assert walk(left)[1] == walk(cartesian)[1]
        lines = run_tree(w, "left", "dot")[1].splitlines()
        assert len(lines) == 2 + (2 * len(w) - 1) + 2 * (len(w) - 1)

    def test_comb_is_a_right_comb(self):
        _, shape = walk(left_lyndon_tree(comb(2000)))
        assert shape == [0, 1] * 1999 + [1]

    def test_reversed_comb_right_tree_is_a_left_comb(self):
        # ((...((a,b),b)...),b): each block a b^k splits before its last b.
        _, shape = walk(right_lyndon_tree(reversed_comb(2000)))
        assert shape == [0] * 1999 + [1] * 2000


def right_spine_words():
    """Lyndon words whose right trees have long left spines, up to about 500 letters.

    Each splits before its smallest proper suffix, its left part again
    before that part's smallest proper suffix, and so on many times.
    """
    out = {f"ab^{n - 1}": reversed_comb(n) for n in (2, 3, 50, 500)}
    for a, b in ((144, 89), (233, 144), (250, 1), (1, 250), (301, 199)):
        out[f"christoffel-{a}-{b}"] = christoffel(a, b)
    for k, m in ((1, 100), (3, 60), (7, 40), (30, 15)):
        out[f"(a^{k}b)^{m}b"] = Word(BINARY, ((0,) * k + (1,)) * m + (1,))
    return out


class TestRightSpine:
    """The right-to-left stack pass against splits at the smallest proper suffix."""

    @pytest.mark.parametrize("w", [pytest.param(w, id=k) for k, w in right_spine_words().items()])
    def test_matches_smallest_suffix_splits(self, w):
        assert is_lyndon(w)
        assert right_lyndon_tree(w) == right_tree_by_smallest_suffix(w)


def one_pass_words():
    """About 20,000 letters each, and a random Lyndon word."""
    return {
        "comb-20000": comb(20000),
        "reversed-comb-20000": reversed_comb(20000),
        "christoffel-12361-7639": christoffel(12361, 7639),
        "(a^141b)^141b": Word(BINARY, ((0,) * 141 + (1,)) * 141 + (1,)),
        "random-abc-1000": random_lyndon(random.Random(23), 1000, TERNARY),
    }


class TestOneStackPass:
    """Each join, and each stop before the next letter, makes one comparison
    of adjacent factors, so fewer than 2n comparisons mean no block is
    scanned again."""

    @pytest.mark.parametrize("ranks", [_left_ranks, _right_ranks], ids=["left", "right"])
    @pytest.mark.parametrize("w", [pytest.param(w, id=k) for k, w in one_pass_words().items()])
    def test_fewer_than_2n_comparisons(self, monkeypatch, w, ranks):
        real = trees._below
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(trees, "_below", counted)
        assert len(ranks(w)) == len(w) - 1
        assert calls < 2 * len(w)

    def test_comparison_agrees_with_whole_slices(self):
        for n in range(2, 8):
            for ls in itertools.product(range(3), repeat=n):
                for a, b, c in itertools.combinations(range(n + 1), 3):
                    assert trees._below(ls, a, b, c) == (ls[a:b] < ls[b:c]), (ls, a, b, c)


def write_by_stack(tree, opening: str, separator: str, closing: str, leaf) -> str:
    """A node as opening, left, separator, right, closing, and a leaf as leaf(letter text)."""
    out = []
    stack = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Node):
            out.append(opening)
            stack += (closing, item.right, separator, item.left)
        else:
            out.append(leaf(item.letter.text()))
    return "".join(out)


def text_by_stack(tree) -> str:
    return write_by_stack(tree, "(", ",", ")", str)


def json_by_stack(tree) -> str:
    return write_by_stack(tree, '{"l": ', ', "r": ', "}", lambda s: json.dumps({"leaf": s}))


BUILDERS = {"left": left_lyndon_tree, "right": right_lyndon_tree, "cartesian": left_cartesian_tree}


def expected_tree_output(w: Word, kind: str, fmt: str, dots: dict) -> str:
    """What `tree` prints; dots keeps each distinct tree's DOT text."""
    tree = BUILDERS[kind](w)
    if fmt == "dot":
        if tree not in dots:
            dots[tree] = dot_by_addresses(tree) + "\n"
        return dots[tree]
    if fmt == "structured":
        return json_by_stack(tree) + "\n"
    note = "" if kind == "right" else "left == cartesian: equal\n"
    return text_by_stack(tree) + "\n" + note


def run_tree(w: Word, kind: str, fmt: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["tree", w.text(), "--kind", kind, "--format", fmt])
    return code, out.getvalue(), err.getvalue()


def long_tree_words():
    """Lyndon words of up to 2,000 letters from the benchmark's families and (a^k b)^m b.

    The DOT reference resolves each node from the root, Θ(n²) steps, so only
    the comb, the deepest tree, takes the full 2,000 letters.
    """
    rng = random.Random(14)
    return {
        "comb-2000": comb(2000),
        "reversed-comb-1000": reversed_comb(1000),
        "christoffel-377-233": christoffel(377, 233),
        "(a^30b)^30b": Word(BINARY, ((0,) * 30 + (1,)) * 30 + (1,)),
        "random-ab-1000": random_lyndon(rng, 1000, BINARY),
        "random-abc-500": random_lyndon(rng, 500, TERNARY),
    }


class TestTreeCommand:
    """`tree` writes every kind and format from bracket counts, with no Node."""

    KINDS = ("left", "right", "cartesian")
    FORMATS = ("text", "structured", "dot")

    @pytest.mark.parametrize("alphabet, max_len", [(BINARY, 12), (TERNARY, 7)], ids=["ab", "abc"])
    def test_every_lyndon_word(self, alphabet, max_len):
        for w in all_lyndon_words(alphabet, max_len):
            for kind in self.KINDS:
                for fmt in self.FORMATS:
                    expected = expected_tree_output(w, kind, fmt, {})
                    assert run_tree(w, kind, fmt) == (0, expected, ""), (w, kind, fmt)

    @pytest.mark.parametrize("w", [pytest.param(w, id=k) for k, w in long_tree_words().items()])
    def test_long_words(self, w):
        assert is_lyndon(w)
        dots = {}
        for kind in self.KINDS:
            for fmt in self.FORMATS:
                expected = expected_tree_output(w, kind, fmt, dots)
                assert run_tree(w, kind, fmt) == (0, expected, ""), (kind, fmt)

    def test_bracket_equality_matches_node_equality(self):
        # The left and right trees of one word: equal on a few words only.
        outcomes = set()
        for alphabet, max_len in ((BINARY, 10), (TERNARY, 6)):
            for w in all_lyndon_words(alphabet, max_len):
                left, right = left_lyndon_tree(w), right_lyndon_tree(w)
                same = walk(left) == walk(right)
                assert (left == right) == same, w
                assert (_bracket_counts(_left_ranks(w)) == _bracket_counts(_right_ranks(w))) == same
                assert _bracket_counts(_left_ranks(w)) == _bracket_counts(_cartesian_ranks(w)), w
                outcomes.add(same)
        assert outcomes == {True, False}

    def test_no_node_is_made(self, monkeypatch):
        words = [comb(50), christoffel(21, 13), Word(TERNARY, (0, 0, 1, 0, 0, 2, 0, 1)), comb(1)]
        expected = {
            (w, kind, fmt): expected_tree_output(w, kind, fmt, {})
            for w in words for kind in self.KINDS for fmt in self.FORMATS
        }

        def refuse(self, *args, **kwargs):
            raise AssertionError("tree made a Node")

        monkeypatch.setattr(Node, "__init__", refuse)
        for (w, kind, fmt), out in expected.items():
            assert run_tree(w, kind, fmt) == (0, out, ""), (w, kind, fmt)


def counts_by_max_split(labels, w: Word):
    """opens and closes of the max-split decreasing tree of labels, completed with w.

    The reference recurses once per level, and the comb's tree is as deep
    as the word is long, so the recursion limit is raised for the call.
    """
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 3 * len(w))
    try:
        tree = completion_by_sizes(decreasing_by_max_split(list(labels)), w)
    finally:
        sys.setrecursionlimit(limit)
    return tuple(_brackets(tree)[1:])


class TestBracketCounts:
    """The nearest-larger stack pass against the max-split decreasing tree."""

    @pytest.mark.parametrize("k", range(8))
    def test_every_permutation(self, k):
        # Every binary tree of k + 1 leaves is the decreasing tree of some
        # permutation here, whether or not a Lyndon word has that tree.
        w = comb(k + 1)
        for labels in itertools.permutations(range(1, k + 1)):
            assert _bracket_counts(labels) == counts_by_max_split(labels, w), labels

    @pytest.mark.parametrize("w", [pytest.param(w, id=k) for k, w in long_tree_words().items()])
    def test_rank_labels(self, w):
        for ranks in (_left_ranks, _right_ranks, _cartesian_ranks):
            labels = ranks(w)
            assert _bracket_counts(labels) == counts_by_max_split(labels, w), ranks


def z_by_slices(ls) -> list[int]:
    """z[i] by its definition: the length of the common prefix of ls and ls[i:]."""
    return [
        next((k for k, (a, b) in enumerate(zip(ls, ls[i:])) if a != b), len(ls) - i)
        for i in range(len(ls))
    ]


class TestPrefixRanks:
    """The Z-array, and the Cartesian ranks read from it without a PrefixStandard."""

    @pytest.mark.parametrize("alphabet, max_len", [(BINARY, 10), (TERNARY, 7)], ids=["ab", "abc"])
    def test_every_word(self, alphabet, max_len):
        for w in all_words(alphabet, max_len):
            assert _z_array(w.letters) == z_by_slices(w.letters), w
            if is_lyndon(w):
                assert _cartesian_ranks(w) == prefix_standard_permutation(w).sigma[:-1], w
            else:
                with pytest.raises(errors.NotLyndon):
                    _cartesian_ranks(w)

    @pytest.mark.parametrize("w", [comb(2000), christoffel(1237, 763)], ids=["comb", "christoffel"])
    def test_long_words(self, w):
        assert _z_array(w.letters) == z_by_slices(w.letters)
        assert _cartesian_ranks(w) == prefix_standard_permutation(w).sigma[:-1]


class TestDeepCombTree:
    """Equality, hashing and repr of a 100,000-leaf tree, made without the quadratic builder."""

    N = 100_000

    @pytest.mark.parametrize("labels", ["decreasing", "increasing"])
    def test_no_recursion(self, labels):
        # Decreasing labels give the right comb (a,(a,...(a,b))), increasing
        # ones the left comb (((a,a),...,a),b).
        cuts = range(self.N - 1, 0, -1) if labels == "decreasing" else range(1, self.N)
        w = comb(self.N)
        tree, twin = _complete(list(cuts), w), _complete(list(cuts), w)
        assert tree is not twin and tree == twin and hash(tree) == hash(twin)
        assert tree != _complete(list(cuts), reversed_comb(self.N))
        a, b = "Leaf(letter=Word('a'))", "Leaf(letter=Word('b'))"
        if labels == "decreasing":
            expect = f"Node(left={a}, right=" * (self.N - 1) + b + ")" * (self.N - 1)
        else:
            expect = "Node(left=" * (self.N - 1) + a + f", right={a})" * (self.N - 2)
            expect += f", right={b})"
        assert repr(tree) == expect


def run_factorize(w: Word, fmt: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["factorize", w.text(), "--format", fmt])
    return code, out.getvalue(), err.getvalue()


def expected_factorize_output(w: Word, fmt: str) -> str:
    """What `factorize` prints: the factors of lyndon_factorization, as text."""
    factors = [f.text() for f in lyndon_factorization(w)]
    if fmt == "structured":
        return json.dumps({"factors": factors, "first": factors[0], "last": factors[-1]}) + "\n"
    return "".join(f"({f})" for f in factors) + f"\nfirst: {factors[0]}\nlast: {factors[-1]}\n"


def long_factorize_words():
    rng = random.Random(15)
    return {
        "b-a^1999": Word(BINARY, (1,) + (0,) * 1999),
        "(ab)^1000": Word(BINARY, (0, 1) * 1000),
        "random-2000": Word(BINARY, [rng.randrange(2) for _ in range(2000)]),
    }


class TestFactorizeCommand:
    """`factorize` prints the library's factorization, read from Duval's cuts."""

    FORMATS = ("text", "structured")

    @pytest.mark.parametrize("alphabet, max_len", [(BINARY, 12), (TERNARY, 7)], ids=["ab", "abc"])
    def test_every_word(self, alphabet, max_len):
        for w in all_words(alphabet, max_len):
            for fmt in self.FORMATS:
                assert run_factorize(w, fmt) == (0, expected_factorize_output(w, fmt), ""), (w, fmt)

    @pytest.mark.parametrize("w", [pytest.param(w, id=k) for k, w in long_factorize_words().items()])
    def test_long_words(self, w):
        for fmt in self.FORMATS:
            assert run_factorize(w, fmt) == (0, expected_factorize_output(w, fmt), ""), fmt

    def test_no_word_per_factor(self, monkeypatch):
        # b a^1999 has 2,000 factors; at most the input and its two end
        # factors are made as words.
        w = long_factorize_words()["b-a^1999"]
        expected = expected_factorize_output(w, "text")
        made = []
        make = Word._make

        def counting(cls, alphabet, letters):
            made.append(len(letters))
            return make(alphabet, letters)

        monkeypatch.setattr(Word, "_make", classmethod(counting))
        assert run_factorize(w, "text") == (0, expected, "")
        assert len(made) <= 3


def check_end_factors(w: Word) -> None:
    against_whole, against_rest = first_lyndon_factor_naive(w)
    assert first_lyndon_factor(w) == against_whole == against_rest, w
    assert last_lyndon_factor(w) == last_lyndon_factor_naive(w), w


class TestEndFactors:
    @pytest.mark.parametrize(
        "alphabet, max_len", [(BINARY, EXHAUSTIVE_LEN), (TERNARY, 7)], ids=["ab", "abc"]
    )
    def test_every_word(self, alphabet, max_len):
        for w in all_words(alphabet, max_len):
            check_end_factors(w)

    @given(words(TERNARY, max_size=40))
    def test_any_word(self, w):
        check_end_factors(w)


LONG = 16_000


def long_pairs():
    """The benchmark's three compare shapes: random, a late mismatch, equal powers."""
    rng = random.Random(16)
    k = (LONG - 1) // 3
    root = (0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1, 0, 1, 0)
    return [
        tuple(Word(BINARY, [rng.randrange(2) for _ in range(LONG)]) for _ in range(2)),
        (Word(BINARY, (0, 0, 1) * k + (0,)), Word(BINARY, (0, 0, 1) * k + (1,))),
        (Word(BINARY, root * 800), Word(BINARY, root * 600)),
    ]


class TestLongWords:
    @pytest.mark.parametrize("pair", long_pairs(), ids=["random", "late-mismatch", "powers"])
    def test_omega_cmp_matches_naive(self, pair):
        u, v = pair
        for a, b in (pair, (v, u)):
            got = omega_cmp(a, b)
            assert got == omega_cmp_naive(a, b)
            assert omega_mismatch_position(a, b) == got.mismatch_position

    def test_make_word_error_position(self):
        text = "ab" * (LONG // 2 - 1) + "ax"
        for source in (text, iter(text)):
            with pytest.raises(errors.UnknownSymbol) as info:
                make_word(source, BINARY)
            assert (info.value.position, info.value.character) == (LONG, "x")


def random_letters(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.randrange(2) for _ in range(n))


def root_length_brute(ls: tuple[int, ...]) -> int:
    """The shortest d dividing |ls| under which every letter repeats."""
    n = len(ls)
    return next(d for d in range(1, n + 1) if n % d == 0 and all(ls[i] == ls[i % d] for i in range(n)))


# 2^k - 1, 2^k and 2^k + 1 up to 2,049: lengths on both sides of every
# gallop window size.
PHASE_LENGTHS = sorted({n for k in range(1, 12) for n in (2**k - 1, 2**k, 2**k + 1)})


def boundary_changes(a: tuple[int, ...], b: tuple[int, ...]):
    """a and b, then a or b with one letter changed at a phase or window boundary.

    With p = |a| <= q = |b|, the indices 1, p - 1, p, q - p, q and the
    Fine and Wilf bound p + q - gcd(p, q) - 1 are taken in ab and in ba,
    and the letter there is changed in whichever word holds it.
    """
    p, q = len(a), len(b)
    yield a, b
    for m in {1, p - 1, p, q - p, q, p + q - gcd(p, q) - 1}:
        for x, y, swap in ((a, b, False), (b, a, True)):
            if not 0 <= m < p + q:
                continue
            if m < len(x):
                x = x[:m] + (1 - x[m],) + x[m + 1:]
            else:
                k = m - len(x)
                y = y[:k] + (1 - y[k],) + y[k + 1:]
            yield (y, x) if swap else (x, y)


class TestLongComparisons:
    """omega_cmp on 100 to 2,000 letters, where it compares uv with vu without building them."""

    def check(self, a, b):
        u, v = Word(BINARY, a), Word(BINARY, b)
        for x, y in ((u, v), (v, u)):
            assert omega_cmp(x, y) == omega_cmp_naive(x, y)

    @pytest.mark.parametrize("p", PHASE_LENGTHS)
    def test_phase_boundaries(self, p):
        # u = x[:p] and v = x[:q] for a word x of period 5: the shorter is
        # a prefix of the longer, and where 5 divides p the scan reaches the
        # third phase.
        x = (0, 1, 1, 0, 1) * 410
        for q in PHASE_LENGTHS[PHASE_LENGTHS.index(p):]:
            for a, b in boundary_changes(x[:p], x[:q]):
                self.check(a, b)

    @pytest.mark.parametrize("root", [(0,), (0, 1), (0, 0, 1)], ids=["a", "ab", "aab"])
    def test_powers_at_phase_lengths(self, root):
        # Powers of one root with p != q: equal extensions, read to the end
        # of every phase, until one letter is changed.
        lengths = [n for n in PHASE_LENGTHS if n % len(root) == 0]
        for p, q in itertools.combinations(lengths, 2):
            for a, b in boundary_changes(root * (p // len(root)), root * (q // len(root))):
                self.check(a, b)

    @given(st.integers(100, 2000), st.booleans(), st.randoms(use_true_random=False))
    def test_equal_length_mismatch(self, n, late, rng):
        a = random_letters(rng, n)
        i = rng.randrange(n - 10, n) if late else rng.randrange(10)
        self.check(a, a[:i] + (1 - a[i],) + a[i + 1:])

    @given(
        st.integers(100, 2000), st.integers(1, 2000), st.booleans(), st.randoms(use_true_random=False)
    )
    def test_prefix(self, n, extra, periodic, rng):
        # A periodic tail continues the extension of u, so uv and vu agree
        # on their first |v| letters and differ, if at all, in the last |u|.
        a = random_letters(rng, n)
        tail = (a * (extra // n + 1))[:extra] if periodic else random_letters(rng, extra)
        self.check(a, a + tail)

    @given(st.data())
    def test_powers_of_a_non_primitive_word(self, data):
        rng = data.draw(st.randoms(use_true_random=False))
        x = random_letters(rng, data.draw(st.integers(1, 20))) * data.draw(st.integers(2, 5))
        i, j = (data.draw(st.integers(-(-100 // len(x)), 2000 // len(x))) for _ in range(2))
        u, v = Word(BINARY, x * i), Word(BINARY, x * j)
        got = omega_cmp(u, v)
        assert got == omega_cmp_naive(u, v)
        assert got.common_root.letters == x[:root_length_brute(x)]

    @given(st.data())
    def test_primitive_root(self, data):
        rng = data.draw(st.randoms(use_true_random=False))
        y = random_letters(rng, data.draw(st.integers(1, 50)))
        ls = y * data.draw(st.integers(-(-100 // len(y)), 2000 // len(y)))
        if data.draw(st.booleans()):
            k = rng.randrange(len(ls))
            ls = ls[:k] + (1 - ls[k],) + ls[k + 1:]
        d = root_length_brute(ls)
        assert omega_cmp(Word(BINARY, ls), Word(BINARY, ls)).common_root == Word(BINARY, ls[:d])
