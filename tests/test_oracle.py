import random
import sys
import time
from itertools import product

import pytest
from hypothesis import given

from lyndonkit import (
    CHECK_NAMES,
    CheckResult,
    LyndonFactorization,
    OmegaComparison,
    OrderedAlphabet,
    Ordering,
    VerificationReport,
    Word,
    enumerate_lyndon_words,
    errors,
    first_lyndon_factor_naive,
    is_lyndon,
    iter_all_words,
    last_lyndon_factor_naive,
    left_cartesian_tree_via_prefixes,
    left_lyndon_tree,
    left_lyndon_tree_naive,
    lyndon_factorization,
    lyndon_factorization_naive,
    make_word,
    omega_cmp,
    omega_cmp_naive,
    verify_word,
)

from .strategies import BINARY, TERNARY, words
from .test_trees import EXAMPLE_WORD, example_tree


def w(text: str) -> Word:
    return make_word(text, BINARY)


def omega_cmp_indexed(u: Word, v: Word) -> OmegaComparison:
    """Reference: the extensions built one `%`-indexed letter at a time, then scanned."""
    a, b = u.letters, v.letters
    total = len(a) + len(b)
    ea = [a[i % len(a)] for i in range(total)]
    eb = [b[i % len(b)] for i in range(total)]
    for i in range(total):
        if ea[i] != eb[i]:
            outcome = Ordering.LESS if ea[i] < eb[i] else Ordering.GREATER
            return OmegaComparison(outcome, i + 1, None)
    root = next(
        a[:d]
        for d in range(1, len(a) + 1)
        if a[:d] * (len(a) // d) == a and a[:d] * (len(b) // d) == b
    )
    return OmegaComparison(Ordering.EQUAL, None, Word(u.alphabet, root))


def lyndon_splittings(letters):
    """Reference: every factorization of the letter tuple into Lyndon pieces."""
    if not letters:
        return [()]
    out = []
    for i in range(1, len(letters) + 1):
        head = letters[:i]
        if all(head < head[k:] + head[:k] for k in range(1, len(head))):
            out.extend((head,) + tail for tail in lyndon_splittings(letters[i:]))
    return out


def lyndon_factorization_enumerated(word: Word) -> LyndonFactorization:
    """Reference: enumerate every Lyndon splitting, keep the nonincreasing ones."""
    survivors = [
        fact
        for fact in lyndon_splittings(word.letters)
        if all(fact[i] >= fact[i + 1] for i in range(len(fact) - 1))
    ]
    assert len(survivors) == 1, (word, survivors)
    return LyndonFactorization(tuple(Word(word.alphabet, part) for part in survivors[0]))


def random_lyndon_word(n: int, seed: int) -> Word:
    rng = random.Random(seed)
    while True:
        word = w("".join(rng.choices("ab", k=n)))
        if is_lyndon(word):
            return word


class TestNaiveOmega:
    def test_examples(self):
        assert omega_cmp_naive(w("b"), w("ba")).outcome is Ordering.GREATER
        equal = omega_cmp_naive(w("ab"), w("abab"))
        assert equal.outcome is Ordering.EQUAL
        assert equal.common_root == w("ab")

    def test_tight_mismatch(self):
        got = omega_cmp_naive(w("abaab"), w("abaababa"))
        assert got.outcome is Ordering.GREATER
        assert got.mismatch_position == 12

    def test_root_search_raises_unless_the_words_commute(self):
        # Equal extensions are confirmed by finding the common root, which
        # exists exactly when uv = vu; no assert is needed, so none vanishes
        # under python -O.
        from lyndonkit.oracle import _common_root

        assert _common_root(w("abab"), w("ab")) == w("ab")
        with pytest.raises(AssertionError, match="no common root"):
            _common_root(w("ab"), w("ba"))

    def test_agrees_with_fast_path_exhaustively(self):
        universe = list(iter_all_words(BINARY, 5))
        for u, v in product(universe, repeat=2):
            assert omega_cmp_naive(u, v) == omega_cmp(u, v), (u, v)

    @given(words(TERNARY, max_size=7), words(TERNARY, max_size=7))
    def test_agrees_with_fast_path(self, u, v):
        assert omega_cmp_naive(u, v) == omega_cmp(u, v)

    @pytest.mark.parametrize("alphabet, max_len", [(BINARY, 6), (TERNARY, 4)])
    def test_agrees_with_indexed_materialization(self, alphabet, max_len):
        universe = list(iter_all_words(alphabet, max_len))
        for u, v in product(universe, repeat=2):
            assert omega_cmp_naive(u, v) == omega_cmp_indexed(u, v), (u, v)

    @pytest.mark.parametrize("alphabet, max_len", [(BINARY, 8), (TERNARY, 5)])
    def test_extensions_of_twice_the_word_decide_every_pair(self, alphabet, max_len):
        # verify extends each prefix and suffix of an n-letter word once, to
        # 2n letters, and scans the first |u| + |v| of them for each pair.
        from lyndonkit.oracle import _extension, _first_mismatch

        for word in iter_all_words(alphabet, max_len):
            letters = word.letters
            n = len(letters)
            prefixes = [letters[:i] for i in range(1, n + 1)]
            suffixes = [letters[j:] for j in range(n)]
            for u, v in product(prefixes, suffixes):
                total = len(u) + len(v)
                literal = next(
                    (k for k in range(total) if u[k % len(u)] != v[k % len(v)]), None
                )
                scanned = _first_mismatch(_extension(u, 2 * n), _extension(v, 2 * n), total)
                assert scanned == literal, (u, v)

    @pytest.mark.parametrize("compare", [omega_cmp, omega_cmp_naive])
    def test_error_order(self, compare):
        # A mismatched alphabet is reported before an empty word.
        other = make_word("a", OrderedAlphabet("ba"))
        with pytest.raises(errors.AlphabetMismatch):
            compare(Word(BINARY), other)
        with pytest.raises(errors.AlphabetMismatch):
            compare(other, Word(BINARY))
        with pytest.raises(errors.EmptyWord):
            compare(Word(BINARY), w("a"))
        with pytest.raises(errors.EmptyWord):
            compare(w("a"), Word(BINARY))


class TestNaiveFactorization:
    def test_examples(self):
        assert [f.text() for f in lyndon_factorization_naive(w("ababaab"))] == [
            "ab",
            "ab",
            "aab",
        ]
        assert [f.text() for f in lyndon_factorization_naive(w("b"))] == ["b"]
        assert [f.text() for f in lyndon_factorization_naive(w("aabb"))] == ["aabb"]

    def test_agrees_with_fast_path_exhaustively(self):
        for word in iter_all_words(BINARY, 9):
            assert lyndon_factorization_naive(word) == lyndon_factorization(word), word

    @given(words(TERNARY, max_size=8))
    def test_agrees_with_fast_path(self, word):
        assert lyndon_factorization_naive(word) == lyndon_factorization(word)

    @pytest.mark.parametrize("alphabet, max_len", [(BINARY, 10), (TERNARY, 6)])
    def test_agrees_with_enumerate_then_filter(self, alphabet, max_len):
        for word in iter_all_words(alphabet, max_len):
            assert lyndon_factorization_naive(word) == lyndon_factorization_enumerated(word), word

    def test_long_word_is_quick(self):
        # Enumerating every Lyndon splitting first needs gigabytes here.
        word = random_lyndon_word(64, seed=1)
        start = time.perf_counter()
        assert lyndon_factorization_naive(word).factors == (word,)
        assert verify_word(word).passed
        assert time.perf_counter() - start < 30


class TestNaiveTree:
    def test_examples(self):
        assert left_lyndon_tree_naive(make_word(EXAMPLE_WORD, TERNARY)) == example_tree()
        assert left_lyndon_tree_naive(w("ab")) == left_lyndon_tree(w("ab"))
        assert left_lyndon_tree_naive(w("aabab")) == left_lyndon_tree(w("aabab"))

    def test_rejects_non_lyndon(self):
        with pytest.raises(errors.NotLyndon):
            left_lyndon_tree_naive(w("ba"))

    def test_agrees_with_fast_path_exhaustively(self):
        for word in enumerate_lyndon_words(BINARY, 9):
            assert left_lyndon_tree_naive(word) == left_lyndon_tree(word), word

    @pytest.mark.parametrize(
        "build", [left_lyndon_tree_naive, left_cartesian_tree_via_prefixes]
    )
    def test_no_recursion(self, build):
        # The comb a^299 b has 300 levels; the builder gets 150 frames.
        word = w("a" * 299 + "b")
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 150)
        try:
            tree = build(word)
        finally:
            sys.setrecursionlimit(limit)
        assert tree == left_lyndon_tree(word)


class TestVerifyWord:
    def test_worked_example_passes(self):
        report = verify_word(make_word(EXAMPLE_WORD, TERNARY))
        assert report.passed
        assert report.failures() == ()
        assert set(c.name for c in report.checks) == set(CHECK_NAMES)

    def test_non_lyndon_word_skips_tree_checks(self):
        report = verify_word(w("ababaab"))
        assert report.passed
        ran = {c.name for c in report.checks}
        assert "omega-agreement" in ran
        assert "trees-coincide" not in ran

    def test_single_letter_skips_factorization_split(self):
        report = verify_word(w("a"))
        assert report.passed
        ran = {c.name for c in report.checks}
        assert "trees-coincide" in ran
        assert "left-factorization" not in ran

    def test_check_names_are_stable(self):
        # The sweep output format keys on these names.
        assert len(CHECK_NAMES) == len(set(CHECK_NAMES))
        report = verify_word(w("aabab"))
        assert [c.name for c in report.checks] == list(CHECK_NAMES)

    def test_failures_surface(self):
        report = VerificationReport(
            w("a"), (CheckResult("x", True), CheckResult("y", False, "boom"))
        )
        assert not report.passed
        assert [c.name for c in report.failures()] == ["y"]

    def test_check_detail_becomes_a_failed_result(self, monkeypatch):
        def raising(x, facts):
            raise IndexError("tuple index out of range")

        checks = (
            ("holds", lambda x, facts: None, lambda x, facts: True),
            ("breaks", lambda x, facts: "boom", lambda x, facts: True),
            ("raises", raising, lambda x, facts: True),
            ("skipped", lambda x, facts: "never run", lambda x, facts: False),
        )
        monkeypatch.setattr("lyndonkit.oracle._CHECKS", checks)
        assert verify_word(w("ab")).checks == (
            CheckResult("holds", True, ""),
            CheckResult("breaks", False, "boom"),
            CheckResult("raises", False, "raised IndexError: tuple index out of range"),
        )

    def test_left_foliage_must_be_a_prefix_of_the_word(self, monkeypatch):
        # Reversing every foliage reverses both sides of the concatenation
        # alike, so only the prefix condition sees it.
        import lyndonkit.oracle
        import lyndonkit.trees

        real = lyndonkit.trees.foliage
        for module in (lyndonkit.trees, lyndonkit.oracle):
            monkeypatch.setattr(module, "foliage", lambda t: real(t)[::-1])
        failed = [c.name for c in verify_word(w("aabab")).failures()]
        assert "left-foliage-concatenation" in failed

    def test_end_factor_disagreement_is_a_check_failure(self, monkeypatch):
        word = w("ababaab")
        monkeypatch.setattr(
            "lyndonkit.oracle.first_lyndon_factor_naive", lambda x: (x[:2], x[:1])
        )
        monkeypatch.setattr("lyndonkit.oracle.last_lyndon_factor_naive", lambda x: x)
        report = verify_word(word)
        assert [c.name for c in report.failures()] == ["first-factor", "last-factor"]

    def test_omega_agreement_visits_every_pair_once(self, monkeypatch):
        from lyndonkit.oracle import _first_mismatch

        word = w("abaabbab")
        n = len(word)
        prefixes = [word.letters[:i] for i in range(1, n + 1)]
        suffixes = [word.letters[j:] for j in range(n)]
        seen = []

        def length_of(extension, parts):
            # The one part whose periodic extension this is.
            [part] = [x for x in parts if all(c == x[k % len(x)] for k, c in enumerate(extension))]
            return len(part)

        def recording(ep, es, total):
            i, j = length_of(ep, prefixes), length_of(es, suffixes)
            assert total == i + j
            seen.append((i, j))
            return _first_mismatch(ep, es, total)

        monkeypatch.setattr("lyndonkit.oracle._first_mismatch", recording)
        assert verify_word(word).passed
        assert len(seen) == n * n
        assert set(seen) == set(product(range(1, n + 1), repeat=2))

    def test_omega_agreement_fails_when_the_oracle_lies(self, monkeypatch):
        from lyndonkit.oracle import _first_mismatch

        word = w("aabab")
        p, s = word.letters[:2], word.letters[1:]

        def extension(x, total):
            return tuple(x[k % len(x)] for k in range(total))

        def lying(ep, es, total):
            k = _first_mismatch(ep, es, total)
            pair = (extension(p, total), extension(s, total))
            if total == len(p) + len(s) and (ep[:total], es[:total]) == pair:
                return k + 1
            return k

        monkeypatch.setattr("lyndonkit.oracle._first_mismatch", lying)
        [failure] = verify_word(word).failures()
        assert failure.name == "omega-agreement"
        assert failure.detail.startswith("prefix aa vs suffix abab: ")

    @pytest.mark.parametrize(
        "text, prefix, suffix, lie",
        [
            ("aabab", "aa", "abab", {"outcome": Ordering.GREATER}),
            ("aabab", "aa", "abab", {"mismatch_position": 3}),
            ("aabab", "aa", "abab", {"common_root": w("a")}),
            ("abab", "ab", "abab", {"outcome": Ordering.LESS}),
            ("abab", "ab", "abab", {"mismatch_position": 5}),
            ("abab", "ab", "abab", {"common_root": None}),
            ("abab", "ab", "abab", {"common_root": w("abab")}),
        ],
    )
    def test_omega_agreement_checks_every_field(self, monkeypatch, text, prefix, suffix, lie):
        # One field of one pair is wrong.  The pair's first letters agree,
        # so only a scan past them can tell.
        def lying(x, y):
            got = omega_cmp(x, y)
            return got._replace(**lie) if (x.text(), y.text()) == (prefix, suffix) else got

        monkeypatch.setattr("lyndonkit.oracle.omega_cmp", lying)
        failures = {c.name: c.detail for c in verify_word(w(text)).failures()}
        assert failures["omega-agreement"].startswith(f"prefix {prefix} vs suffix {suffix}: ")

    def test_six_equivalence_fails_when_one_condition_flips(self, monkeypatch):
        import lyndonkit.oracle

        word = w("aabab")
        real = lyndonkit.oracle.six_conditions

        def flipped(u, v):
            six = real(u, v)
            return six._replace(u_lt_vu=not six.u_lt_vu) if u.letters == (0, 0) else six

        monkeypatch.setattr(lyndonkit.oracle, "six_conditions", flipped)
        [failure] = verify_word(word).failures()
        assert failure.name == "six-equivalence"
        assert failure.detail.startswith("split aa|bab: ")

    def test_bergman_chain_fails_when_one_link_breaks(self, monkeypatch):
        import lyndonkit.omega

        word = w("aabab")
        u, v = word[:2], word[2:]
        link = ((u + v).letters, (v + u).letters)
        real = lyndonkit.omega._omega_order

        def broken(a, b):
            return Ordering.GREATER if (a, b) == link else real(a, b)

        monkeypatch.setattr(lyndonkit.omega, "_omega_order", broken)
        details = {c.name: c.detail for c in verify_word(word).failures()}
        # The link (uv)^ω < (vu)^ω is also one of the six.
        assert set(details) == {"six-equivalence", "bergman-chain"}
        assert details["bergman-chain"] == "split aa|bab: chain violated"

    def test_one_tree_and_one_factorization_per_word(self, monkeypatch):
        import lyndonkit.oracle

        word = w("aabab")
        unpatched = verify_word(word)
        calls = {"left_lyndon_tree": 0, "lyndon_factorization": 0, "left_foliage": 0}
        for name in calls:

            def counted(*args, name=name, real=getattr(lyndonkit.oracle, name)):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(lyndonkit.oracle, name, counted)
        assert verify_word(word) == unpatched
        # One left foliage per internal node of the 5-leaf tree.
        assert calls == {"left_lyndon_tree": 1, "lyndon_factorization": 1, "left_foliage": 4}

    def test_end_factor_scans_examples(self):
        assert first_lyndon_factor_naive(w("ababaab")) == (w("ab"), w("ab"))
        assert first_lyndon_factor_naive(w("aabab")) == (w("aabab"), w("aabab"))
        assert last_lyndon_factor_naive(w("ababaab")) == w("aab")
        assert last_lyndon_factor_naive(w("bbb")) == w("b")

    @given(words(TERNARY, max_size=7))
    def test_every_small_word_passes(self, word):
        assert verify_word(word).passed
