"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

import itertools
import json
from pathlib import Path

import pytest

from perfbench import checks, inputs, stats
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.tracing import Tracer, aggregate


def test_comb_and_christoffel_are_lyndon_of_stated_shape():
    assert inputs.comb(128) == "a" * 127 + "b"
    assert checks.is_lyndon(inputs.comb(128))
    c = inputs.christoffel(144, 89)
    assert (len(c), c.count("a"), c.count("b")) == (233, 144, 89)
    assert checks.is_lyndon(c)
    assert inputs.christoffel(3, 2) == "aabab"


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_random_lyndon_words(seed):
    words = inputs.tree_words(seed)
    assert [len(w) for w in words] == [256, 256, 128, 233]
    assert set(words[0]) == set("ab") and set(words[1]) == set("abc")
    assert all(checks.is_lyndon(w) for w in words)


def test_same_seed_same_inputs_and_seeds_differ():
    for workload in inputs.WORKLOADS:
        assert inputs.CYCLES[workload](3) == inputs.CYCLES[workload](3)
    assert inputs.lyndon_trees_cycle(3) != inputs.lyndon_trees_cycle(4)
    assert inputs.long_words_cycle(3) != inputs.long_words_cycle(4)


def test_long_words_inputs():
    pairs = inputs.compare_pairs(5)
    assert all(len(u) == 16_000 for u, _ in pairs)
    assert pairs[1][0][-1] == "a" and pairs[1][1][-1] == "b"
    u, v = pairs[2]
    assert u + v == v + u
    assert [len(w) for w in inputs.factorize_words(5)] == [2000, 2000, 2000]
    cycle = inputs.long_words_cycle(5)
    assert [op.kind for op in cycle].count("compare") == 9
    assert sum("--six" in op.argv for op in cycle) == 3


def test_percentile_interpolates():
    assert stats.median([3, 1, 2]) == 2
    assert stats.percentile([0, 10], 900) == pytest.approx(9)
    assert stats.percentile(list(range(101)), 900) == pytest.approx(90)


def test_tail_needs_ten_samples_beyond():
    assert stats.beyond(100, 900) == 10 and stats.tail_supported(100, 900)
    assert stats.beyond(99, 900) == 9 and not stats.tail_supported(99, 900)
    assert stats.beyond(1000, 990) == 10 and not stats.tail_supported(999, 990)
    assert stats.beyond(20, 500) == 10 and not stats.tail_supported(19, 500)


def test_self_time_on_synthetic_nested_trace():
    # A [0, 100] calls B [10, 30] and C [40, 90]; C calls B [50, 60].
    # A recursive D [200, 260] calls D [210, 240].
    fid = [0, 1, 2, 1, 3, 3]
    start = [0, 10, 40, 50, 200, 210]
    end = [100, 30, 90, 60, 260, 240]
    parent = [-1, 0, 0, 2, -1, 4]
    agg = aggregate(fid, start, end, parent, 4)
    assert agg.calls == [1, 2, 1, 2]
    assert agg.total_ns == [100, 30, 50, 90]
    assert agg.self_ns == [30, 30, 40, 60]
    assert agg.edges[0, 1] == 1 and agg.edges[2, 1] == 1 and agg.edges[-1, 0] == 1


def test_wrapper_records_parents_with_a_fake_clock():
    ticks = itertools.count(step=10)
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("m.inner", "m", lambda x: x + 1)
    outer = tracer.wrap("m.outer", "m", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert list(tracer.parent) == [-1, 0]
    # Clock reads: outer starts at 0, inner runs 10..20, outer ends at 30.
    # Function ids follow wrapping order: inner is 0, outer is 1.
    agg = tracer.aggregate()
    assert agg.calls == [1, 1]
    assert agg.total_ns == [10, 30]
    assert agg.self_ns == [10, 20]


def test_lyndon_prefix_scan_matches_brute_force():
    for n in range(1, 11):
        for letters in itertools.product("ab", repeat=n):
            s = "".join(letters)
            brute = [k for k in range(1, n + 1) if checks.is_lyndon(s[:k])]
            assert checks.lyndon_prefix_lengths(s) == brute, s


def test_necklace_counts():
    assert [checks.necklace_count(n, 2) for n in range(1, 12)] == [
        2, 1, 2, 3, 6, 9, 18, 30, 56, 99, 186,
    ]


def test_tree_checks_reject_a_wrong_split():
    word = "aabab"
    good = (("a", ("a", "b")), ("a", "b"))
    assert checks.tree_shape_error(good, word, "left") is None
    assert checks.tree_shape_error(checks.parse_text_tree("((a,(a,b)),(a,b))"), word, "left") is None
    bad = ("a", (("a", "b"), ("a", "b")))
    assert checks.tree_shape_error(bad, word, "left") is not None
    left, right = (("a", ("a", "b")), "b"), ("a", (("a", "b"), "b"))
    assert checks.tree_shape_error(left, "aabb", "left") is None
    assert checks.tree_shape_error(right, "aabb", "right") is None
    assert checks.tree_shape_error(right, "aabb", "left") is not None
    assert checks.tree_shape_error(left, "aabb", "right") is not None
    with pytest.raises(ValueError):
        checks.parse_text_tree("((a,b)")
    assert checks.check_tree(("tree", "ab"), "(a,b)\nleft == cartesian: equal\n") is None
    assert checks.check_tree(("tree", "ab"), "(ab)\nleft == cartesian: equal\n") is not None
    assert checks.check_tree(("tree", "ab"), "(a,b)\n") is not None


def test_dot_trees_are_rebuilt_with_their_labels_checked():
    dot = '\n'.join([
        "digraph {", '  n0 [label="a"];', '  n1 [label="a"];', '  n2 [label="b"];',
        "  n0 -> n1;", "  n0 -> n2;", "}",
    ])
    assert checks.parse_dot_tree(dot, "ab") == ("a", "b")
    with pytest.raises(ValueError):
        checks.parse_dot_tree(dot.replace('n0 [label="a"]', 'n0 [label="ab"]'), "ab")


def test_compare_and_factorize_checks():
    argv = ("compare", "aab", "ab")
    assert checks.check_compare(argv, "aab <ω ab, mismatch at 2\n") is None
    assert checks.check_compare(argv, "aab <ω ab, mismatch at 3\n") is not None
    assert checks.check_compare(("compare", "ab", "abab"), "equal: powers of ab\n") is None
    out = "(ab)(ab)(aab)\nfirst: ab\nlast: aab\n"
    assert checks.check_factorize(("factorize", "ababaab"), out) is None
    assert checks.check_factorize(("factorize", "ababaab"), out.replace("(ab)(ab)", "(abab)")) is not None


def test_benchmark_json_mirrors_the_metric_tables():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert [tuple(m.values()) for m in spec["end_to_end"]] == [tuple(m) for m in END_TO_END]
    assert [tuple(m.values()) for m in spec["per_layer"]] == [tuple(m) for m in PER_LAYER]
