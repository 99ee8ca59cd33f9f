import importlib

import lyndonkit

# The package root's public names, by the module that defines each one.
NAMES = {
    "words": [
        "Ordering",
        "OrderedAlphabet",
        "Word",
        "make_word",
        "lex_cmp",
        "nontrivial_splits",
        "iter_all_words",
    ],
    "omega": [
        "OmegaComparison",
        "SixConditions",
        "omega_cmp",
        "omega_mismatch_position",
        "six_conditions",
        "bergman_chain",
    ],
    "lyndon": [
        "LyndonFactorization",
        "is_lyndon",
        "lyndon_factorization",
        "first_lyndon_factor",
        "last_lyndon_factor",
        "enumerate_lyndon_words",
    ],
    "trees": [
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
    ],
    "cartesian": [
        "prec_cmp",
        "PrefixStandard",
        "prefix_standard_permutation",
        "left_cartesian_tree",
    ],
    "oracle": [
        "is_lyndon_via_suffixes",
        "is_lyndon_via_rotations",
        "is_lyndon_suffix_omega",
        "is_lyndon_prefix_omega",
        "left_cartesian_tree_via_prefixes",
        "omega_cmp_naive",
        "lyndon_factorization_naive",
        "first_lyndon_factor_naive",
        "last_lyndon_factor_naive",
        "left_lyndon_tree_naive",
        "CheckResult",
        "VerificationReport",
        "CHECK_NAMES",
        "verify_word",
    ],
    "cli": ["main"],
}


def test_root_names():
    expected = ["errors", "__version__", *(n for names in NAMES.values() for n in names)]
    assert len(expected) == 52
    assert sorted(lyndonkit.__all__) == sorted(expected)


def test_root_names_are_the_module_objects():
    assert lyndonkit.errors is importlib.import_module("lyndonkit.errors")
    for module_name, names in NAMES.items():
        module = importlib.import_module(f"lyndonkit.{module_name}")
        for name in names:
            assert getattr(lyndonkit, name) is getattr(module, name), (module_name, name)
