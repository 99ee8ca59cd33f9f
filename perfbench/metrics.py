"""Names, units and directions of every metric; BENCHMARK.json mirrors them.

End-to-end metrics are reported on every workload with tracing off, and
each has the regression bound a later change must respect.  Per-operation
medians and the failure ratio are printed for the workloads that have them
but are not gated: the gated set must exist on every workload.
"""

from __future__ import annotations

from .tracing import LAYERS

# name, unit, better, bound (share of the parent's median).  The timing bounds
# are wide because the shared machine they were set on drifts in speed by
# tens of percent over minutes; see README.md.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("words_per_s", "words/s", "higher", 0.25),
    ("calls_per_s", "calls/s", "higher", 0.25),
    ("call_ms_p50", "ms", "lower", 0.25),
    ("call_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Median latency of one operation kind (lower is better), printed on the
# workload that runs it.
PER_OPERATION = (
    ("pstd_ms_p50", "ms", "lyndon_trees", "pstd"),
    ("tree_ms_p50", "ms", "lyndon_trees", "tree"),
    ("compare_ms_p50", "ms", "long_words", "compare"),
    ("factorize_ms_p50", "ms", "long_words", "factorize"),
)

# The oracle's check table at the time the benchmark was defined.
CHECK_NAMES = (
    "omega-agreement",
    "lyndon-definitions",
    "lyndon-suffix-conditions",
    "lyndon-prefix-condition",
    "six-equivalence",
    "bergman-chain",
    "factorization",
    "first-factor",
    "last-factor",
    "first-dominates-rest",
    "left-factorization",
    "right-factorization",
    "left-subtrees-chain",
    "left-foliage-concatenation",
    "left-subtrees-order",
    "left-foliage-decreasing",
    "trees-coincide",
    "tree-foliage",
)

# Functions whose per-call time is fitted against n = 64, 128, 256.
SCALED = (
    "cartesian.prefix_standard_permutation",
    "trees.left_lyndon_tree",
    "cartesian.left_cartesian_tree",
    "trees.right_lyndon_tree",
    "lyndon.lyndon_factorization",
    "lyndon.last_lyndon_factor",
)


def _per_layer():
    rows = []
    for layer in LAYERS:
        rows.append((f"{layer}.calls", "count", "lower"))
        rows.append((f"{layer}.self_s", "s", "lower"))
    rows += [
        ("omega.omega_cmp.calls", "count", "lower"),
        ("omega.scanned_letters", "letters", "lower"),
        ("omega.equal_ratio", "ratio", "lower"),
        ("words.letters_copied", "letters", "lower"),
        ("words.make_word.self_s", "s", "lower"),
        ("lyndon.is_lyndon.calls", "count", "lower"),
        ("lyndon.is_lyndon.self_s", "s", "lower"),
        ("lyndon.lyndon_factorization.self_s", "s", "lower"),
        ("lyndon.first_lyndon_factor.self_s", "s", "lower"),
        ("lyndon.last_lyndon_factor.self_s", "s", "lower"),
        ("trees.left_lyndon_tree.self_s", "s", "lower"),
        ("trees.right_lyndon_tree.self_s", "s", "lower"),
        ("trees.left_standard_factorization.calls", "count", "lower"),
        ("trees.lyndon_tests", "count", "lower"),
        ("trees.lyndon_tests_per_split", "ratio", "lower"),
        ("cartesian.prefix_standard_permutation.self_s", "s", "lower"),
        ("cartesian.prec_cmp.calls", "count", "lower"),
        ("cartesian.decreasing_tree.self_s", "s", "lower"),
        ("cartesian.completion.self_s", "s", "lower"),
        ("oracle.verify_word.calls", "count", "lower"),
        ("oracle.omega_cmp_naive.calls", "count", "lower"),
        ("oracle.lyndon_factorization_naive.self_s", "s", "lower"),
        ("oracle.left_lyndon_tree_naive.self_s", "s", "lower"),
    ]
    rows += [(f"oracle.check.{name}.s", "s", "lower") for name in CHECK_NAMES]
    rows += [
        ("oracle.omega_pair_reuse", "ratio", "lower"),
        ("cli.format_tree.self_s", "s", "lower"),
        ("cli.render_dot.self_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    rows += [(f"{name}.exponent", "slope", "lower") for name in SCALED]
    return tuple(rows)


PER_LAYER = _per_layer()
