from dataclasses import make_dataclass
from itertools import product

import pytest
from hypothesis import given

from lyndonkit import (
    Leaf,
    Node,
    OrderedAlphabet,
    Ordering,
    Word,
    enumerate_lyndon_words,
    errors,
    foliage,
    format_tree,
    internal_addresses,
    is_lyndon,
    left_cartesian_tree,
    left_foliage,
    left_lyndon_tree,
    left_standard_factorization,
    left_subtrees_sequence,
    lex_cmp,
    make_word,
    omega_cmp,
    prec_cmp,
    right_lyndon_tree,
    right_standard_factorization,
)

from .strategies import BINARY, TERNARY, words


def w(text: str) -> Word:
    return make_word(text, BINARY)


def t(text: str) -> Word:
    return make_word(text, TERNARY)


def leaf(ch: str, alphabet=BINARY) -> Leaf:
    return Leaf(make_word(ch, alphabet))


EXAMPLE_WORD = "aabaacab"


def example_tree() -> Node:
    a, b, c = leaf("a", TERNARY), leaf("b", TERNARY), leaf("c", TERNARY)
    return Node(
        Node(Node(a, Node(a, b)), Node(a, Node(a, c))),
        Node(a, b),
    )


# Internal address -> left foliage, as drawn on the labeled variant of
# the worked-example tree.
EXAMPLE_LABELS = {
    "": "aabaac",
    "L": "aab",
    "LL": "a",
    "LLR": "aa",
    "LR": "aaba",
    "LRR": "aabaa",
    "R": "aabaaca",
}


class TestMagmaTree:
    def test_leaf_wants_single_letter(self):
        with pytest.raises(ValueError):
            Leaf(w("ab"))
        with pytest.raises(ValueError):
            Leaf(Word(BINARY))

    def test_equality_follows_alphabet_and_letters(self):
        # An equal alphabet built apart gives equal trees and hashes; one
        # with other symbols does not, even where the ranks agree.
        twin, wider = OrderedAlphabet("abc"), OrderedAlphabet("abd")
        for build in (left_lyndon_tree, right_lyndon_tree, left_cartesian_tree):
            tree = build(t(EXAMPLE_WORD))
            same = build(make_word(EXAMPLE_WORD, twin))
            assert tree == same and hash(tree) == hash(same)
            assert tree != build(make_word(EXAMPLE_WORD.replace("c", "d"), wider))
        mixed = Node(leaf("a"), leaf("b", TERNARY))
        assert mixed == Node(leaf("a", OrderedAlphabet("ab")), leaf("b", twin))
        assert hash(mixed) == hash(Node(leaf("a", OrderedAlphabet("ab")), leaf("b", twin)))
        assert mixed != Node(leaf("a"), leaf("b"))
        assert mixed != Node(leaf("a", TERNARY), leaf("b", TERNARY))
        assert mixed != Node(leaf("b", TERNARY), leaf("a"))

    def test_foliage(self):
        assert foliage(example_tree()) == t(EXAMPLE_WORD)
        assert foliage(leaf("a")) == w("a")
        assert foliage(Node(leaf("a"), leaf("b"))) == w("ab")


class TestLeftStandardFactorization:
    def test_examples(self):
        assert left_standard_factorization(t(EXAMPLE_WORD)) == (t("aabaac"), t("ab"))
        assert left_standard_factorization(w("ab")) == (w("a"), w("b"))
        assert left_standard_factorization(w("aab")) == (w("a"), w("ab"))

    def test_errors(self):
        with pytest.raises(errors.NotLyndon):
            left_standard_factorization(w("ba"))
        with pytest.raises(errors.TooShort):
            left_standard_factorization(w("a"))

    def test_parts_are_lyndon_and_ordered(self):
        for word in enumerate_lyndon_words(BINARY, 10):
            if len(word) < 2:
                continue
            u, v = left_standard_factorization(word)
            assert u + v == word
            assert is_lyndon(u) and is_lyndon(v)
            assert lex_cmp(u, v) is Ordering.LESS
            # u is the longest Lyndon proper prefix.
            for k in range(len(u) + 1, len(word)):
                assert not is_lyndon(word[:k])

    def test_right_part_head_is_prefix_of_left_part(self):
        for word in enumerate_lyndon_words(BINARY, 10):
            if len(word) < 2:
                continue
            u, v = left_standard_factorization(word)
            if len(v) < 2:
                continue
            v1, _ = left_standard_factorization(v)
            assert lex_cmp(v1, u) is not Ordering.GREATER
            assert u.letters[: len(v1)] == v1.letters


class TestRightStandardFactorization:
    def test_examples(self):
        assert right_standard_factorization(w("aabab")) == (w("aab"), w("ab"))
        assert right_standard_factorization(w("ab")) == (w("a"), w("b"))
        assert right_standard_factorization(t(EXAMPLE_WORD)) == (t("aab"), t("aacab"))

    def test_errors(self):
        with pytest.raises(errors.NotLyndon):
            right_standard_factorization(w("aa"))
        with pytest.raises(errors.TooShort):
            right_standard_factorization(w("b"))
        # NotLyndon is raised exactly for the words is_lyndon rejects.
        for alphabet, max_len in ((BINARY, 10), (TERNARY, 6)):
            for n in range(2, max_len + 1):
                for letters in product(range(len(alphabet.symbols)), repeat=n):
                    word = Word(alphabet, letters)
                    try:
                        right_standard_factorization(word)
                    except errors.NotLyndon:
                        assert not is_lyndon(word)
                    else:
                        assert is_lyndon(word)

    def test_both_parts_lyndon(self):
        # The left remainder being Lyndon is asserted, not assumed.
        for word in enumerate_lyndon_words(BINARY, 10):
            if len(word) < 2:
                continue
            u, v = right_standard_factorization(word)
            assert u + v == word
            assert is_lyndon(u) and is_lyndon(v)
            for start in range(1, len(word) - len(v)):
                assert not is_lyndon(word[start:])


class TestLyndonTrees:
    def test_left_tree_golden(self):
        assert left_lyndon_tree(t(EXAMPLE_WORD)) == example_tree()
        assert left_lyndon_tree(w("a")) == leaf("a")
        assert left_lyndon_tree(w("ab")) == Node(leaf("a"), leaf("b"))

    def test_right_tree_goldens(self):
        assert right_lyndon_tree(w("ab")) == Node(leaf("a"), leaf("b"))
        assert right_lyndon_tree(w("aab")) == Node(leaf("a"), Node(leaf("a"), leaf("b")))
        assert right_lyndon_tree(w("aabab")) == Node(
            Node(leaf("a"), Node(leaf("a"), leaf("b"))),
            Node(leaf("a"), leaf("b")),
        )

    def test_not_lyndon_rejected(self):
        with pytest.raises(errors.NotLyndon):
            left_lyndon_tree(w("ba"))
        with pytest.raises(errors.NotLyndon):
            right_lyndon_tree(w("bab"))
        # Each builder's stack pass decides Lyndon-ness: NotLyndon is raised
        # exactly for the words is_lyndon rejects.
        for alphabet, max_len in ((BINARY, 10), (TERNARY, 6)):
            for n in range(2, max_len + 1):
                for letters in product(range(len(alphabet.symbols)), repeat=n):
                    word = Word(alphabet, letters)
                    for build in (left_lyndon_tree, right_lyndon_tree):
                        try:
                            build(word)
                        except errors.NotLyndon:
                            assert not is_lyndon(word), (build.__name__, word)
                        else:
                            assert is_lyndon(word), (build.__name__, word)

    def test_empty_word_rejected(self):
        for build in (left_lyndon_tree, right_lyndon_tree):
            with pytest.raises(errors.EmptyWord):
                build(Word(BINARY, ()))

    def test_right_tree_matches_definitional_recursion(self):
        def brute(word):
            if len(word) == 1:
                return Leaf(word)
            for start in range(1, len(word)):
                if is_lyndon(word[start:]):
                    return Node(brute(word[:start]), brute(word[start:]))
            raise AssertionError("unreachable: the last letter is Lyndon")

        for word in enumerate_lyndon_words(BINARY, 9):
            assert right_lyndon_tree(word) == brute(word), word

    def test_foliage_round_trip(self):
        for word in enumerate_lyndon_words(TERNARY, 6):
            assert foliage(left_lyndon_tree(word)) == word
            assert foliage(right_lyndon_tree(word)) == word


class TestAddresses:
    def test_bad_addresses(self):
        tree = example_tree()
        with pytest.raises(errors.BadAddress):
            left_subtrees_sequence(tree, "X")
        with pytest.raises(errors.BadAddress):
            left_subtrees_sequence(tree, "RRR")
        with pytest.raises(errors.BadAddress):
            left_subtrees_sequence(tree, "RL")  # resolves to a leaf
        with pytest.raises(errors.BadAddress):
            left_foliage(leaf("a"), "")

    def test_address_through_a_leaf_partway(self):
        # "RL" is a leaf, so "RLLR" steps below it at depth 2.
        tree = example_tree()
        for fn in (left_subtrees_sequence, left_foliage):
            with pytest.raises(errors.BadAddress, match="walks into a leaf at depth 2"):
                fn(tree, "RLLR")

    def test_internal_addresses_preorder(self):
        assert list(internal_addresses(example_tree())) == [
            "",
            "L",
            "LL",
            "LLR",
            "LR",
            "LRR",
            "R",
        ]
        assert list(internal_addresses(leaf("a"))) == []


class TestLeftSubtrees:
    def test_worked_example(self):
        tree = example_tree()
        # Three nested nodes down the left-branch spine of the example tree.
        x1, x2, x3 = "L", "LR", "LRR"
        assert [foliage(s).text() for s in left_subtrees_sequence(tree, x1)] == ["aab"]
        assert [foliage(s).text() for s in left_subtrees_sequence(tree, x2)] == [
            "aab",
            "a",
        ]
        assert [foliage(s).text() for s in left_subtrees_sequence(tree, x3)] == [
            "aab",
            "a",
            "a",
        ]

    def test_root_is_left_child(self):
        tree = example_tree()
        assert left_subtrees_sequence(tree, "") == (tree.left,)

    def test_full_label_map(self):
        tree = example_tree()
        got = {x: left_foliage(tree, x).text() for x in internal_addresses(tree)}
        assert got == EXAMPLE_LABELS

    def test_left_foliage_of_simple_pair(self):
        assert left_foliage(Node(leaf("a"), leaf("b")), "") == w("a")

    def test_left_foliage_counts_leaves_to_the_left(self):
        for word in enumerate_lyndon_words(BINARY, 10):
            tree = left_lyndon_tree(word)
            for x in internal_addresses(tree):
                expect = sum(len(foliage(s)) for s in left_subtrees_sequence(tree, x))
                assert len(left_foliage(tree, x)) == expect


def _concat(parts):
    out = parts[0]
    for p in parts[1:]:
        out = out + p
    return out


class TestHangingSubtreeLemmas:
    def sweep(self):
        for alphabet, max_len in ((BINARY, 10), (TERNARY, 6)):
            for word in enumerate_lyndon_words(alphabet, max_len):
                tree = left_lyndon_tree(word)
                for x in internal_addresses(tree):
                    yield word, tree, x

    def test_chain_is_lyndon_with_prefix_steps(self):
        for word, tree, x in self.sweep():
            ells = [foliage(s) for s in left_subtrees_sequence(tree, x)]
            assert all(is_lyndon(e) for e in ells), (word, x)
            for a, b in zip(ells, ells[1:]):
                assert a.letters[: len(b)] == b.letters, (word, x)

    def test_left_foliage_is_concatenation(self):
        for word, tree, x in self.sweep():
            ells = [foliage(s) for s in left_subtrees_sequence(tree, x)]
            assert left_foliage(tree, x) == _concat(ells), (word, x)

    def test_extension_order_of_clipped_and_shortened_products(self):
        for word, tree, x in self.sweep():
            ells = [foliage(s) for s in left_subtrees_sequence(tree, x)]
            whole = _concat(ells)
            if len(ells[-1]) >= 2:
                head, _ = left_standard_factorization(ells[-1])
                clipped = _concat(ells[:-1] + [head])
                assert omega_cmp(clipped, whole).outcome is Ordering.LESS, (word, x)
            if len(ells) >= 2:
                shorter = _concat(ells[:-1])
                assert omega_cmp(whole, shorter).outcome is not Ordering.GREATER, (
                    word,
                    x,
                )

    def test_labels_decrease_downward(self):
        for word, tree, x in self.sweep():
            node = tree
            for step in x:
                node = node.left if step == "L" else node.right
            for step, child in (("L", node.left), ("R", node.right)):
                if isinstance(child, Node):
                    assert (
                        prec_cmp(left_foliage(tree, x + step), left_foliage(tree, x))
                        is Ordering.LESS
                    ), (word, x, step)


class TestDeepComb:
    """The public tree functions on the comb a^1499 b: 1,500 levels, past the recursion limit."""

    COMB = "a" * 1499 + "b"

    def tree(self):
        return left_lyndon_tree(w(self.COMB))

    def test_foliage(self):
        assert foliage(self.tree()) == w(self.COMB)

    def test_internal_addresses(self):
        addresses = list(internal_addresses(self.tree()))
        assert addresses == ["R" * k for k in range(1499)]

    def test_left_subtrees_and_left_foliage_on_a_long_address(self):
        tree = self.tree()
        address = "R" * 1400
        assert left_subtrees_sequence(tree, address) == (leaf("a"),) * 1401
        assert left_foliage(tree, address) == w("a" * 1401)
        with pytest.raises(errors.BadAddress):
            left_subtrees_sequence(tree, "R" * 1499)
        with pytest.raises(errors.BadAddress):
            left_foliage(tree, "R" * 1499)

    def test_format_tree(self):
        assert format_tree(self.tree()) == "(a," * 1499 + "b" + ")" * 1499

    def test_equality_and_hash(self):
        tree = self.tree()
        cartesian = left_cartesian_tree(w(self.COMB))
        assert tree == cartesian
        assert hash(tree) == hash(cartesian)
        assert len({tree, cartesian}) == 1
        other = left_lyndon_tree(w("a" * 1498 + "bb"))
        assert tree != other
        assert tree != Node(tree.left, Node(leaf("a"), leaf("b")))

    def test_repr(self):
        expect = "Node(left=Leaf(letter=Word('a')), right=" * 1499
        expect += "Leaf(letter=Word('b'))" + ")" * 1499
        assert repr(self.tree()) == expect


# The dataclass repr Node had before it got an iterative one: the reference.
DataclassNode = make_dataclass("Node", ["left", "right"], frozen=True)


def dataclass_node(tree):
    if isinstance(tree, Leaf):
        return tree
    return DataclassNode(dataclass_node(tree.left), dataclass_node(tree.right))


class TestTreeRepr:
    def test_matches_the_dataclass_repr(self):
        for alphabet in (BINARY, TERNARY):
            for word in enumerate_lyndon_words(alphabet, 6):
                for tree in (left_lyndon_tree(word), right_lyndon_tree(word)):
                    assert repr(tree) == repr(dataclass_node(tree)), word
        assert repr(example_tree()) == repr(dataclass_node(example_tree()))


class TestTreeEquality:
    def test_different_alphabets_differ(self):
        # Same ranks, so the same shape, over another alphabet.
        for symbols in ("xy", "ba", "abc"):
            alphabet = OrderedAlphabet(symbols)
            for word in enumerate_lyndon_words(BINARY, 6):
                tree = left_lyndon_tree(word)
                moved = left_lyndon_tree(Word(alphabet, word.letters))
                assert tree != moved and not tree == moved, (word, symbols)

    def test_leaf_and_node_differ(self):
        pair = Node(leaf("a"), leaf("b"))
        assert pair != leaf("a") and leaf("a") != pair
        assert Node(pair, leaf("b")) != Node(leaf("a"), leaf("b"))
        assert Node(leaf("a"), pair) != Node(leaf("a"), leaf("b"))

    def test_shared_leaves_short_cut(self, monkeypatch):
        a, b = leaf("a"), leaf("b")

        def refuse(self, other):
            raise AssertionError("compared a shared leaf by value")

        monkeypatch.setattr(Leaf, "__eq__", refuse)
        assert Node(a, Node(a, b)) == Node(a, Node(a, b))

    def test_equal_trees_hash_equal(self):
        for word in enumerate_lyndon_words(TERNARY, 6):
            tree = left_lyndon_tree(word)
            copy = left_lyndon_tree(Word(TERNARY, word.letters))
            assert tree == copy and hash(tree) == hash(copy), word
