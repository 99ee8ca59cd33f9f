"""What importing lyndonkit and running each command loads, in a fresh interpreter."""

import json

import pytest

import lyndonkit

from .test_cli import run_python

# Run after `site`, which may load modules of its own: the modules that
# importing lyndonkit and running one command add, as the last line.
LOADS = """
import sys
before = set(sys.modules)
import lyndonkit, lyndonkit.cli
code = lyndonkit.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(" ".join(sorted(set(sys.modules) - before)))
sys.exit(code)
"""

DEFERRED = (
    "lyndonkit.trees",
    "lyndonkit.cartesian",
    "lyndonkit.oracle",
    "fractions",
    "json",
    "concurrent.futures.process",
    "dataclasses",
)
EAGER = {"lyndonkit", "lyndonkit.errors", "lyndonkit.words", "lyndonkit.omega", "lyndonkit.lyndon"}


def loaded_by(*argv):
    done = run_python("-c", LOADS, *argv)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


@pytest.mark.parametrize(
    "argv",
    [(), ("compare", "--six", "abab", "ab"), ("factorize", "abaabbab")],
    ids=["import", "compare", "factorize"],
)
def test_compare_and_factorize_load_no_deferred_module(argv):
    loaded = loaded_by(*argv)
    assert {m for m in loaded if m.startswith("lyndonkit")} == EAGER | {"lyndonkit.cli"}
    assert "argparse" in loaded
    assert not loaded & set(DEFERRED)


def test_tree_loads_trees_and_cartesian_but_not_the_oracles():
    loaded = loaded_by("tree", "aabab")
    assert {"lyndonkit.trees", "lyndonkit.cartesian"} <= loaded
    assert "lyndonkit.oracle" not in loaded


def test_verify_loads_the_oracles():
    assert "lyndonkit.oracle" in loaded_by("verify", "--max-len", "2")


STAR = """
import importlib, json
from lyndonkit import *
import lyndonkit

bound = dict(globals())
owner = {"errors": lyndonkit, "__version__": lyndonkit}
for name in ("words", "omega", "lyndon", "trees", "cartesian", "oracle", "cli"):
    module = importlib.import_module(f"lyndonkit.{name}")
    owner.update(dict.fromkeys(module.__all__, module))
print(json.dumps({
    "all": lyndonkit.__all__,
    "owned": sorted(owner),
    "wrong": [n for n in lyndonkit.__all__ if n not in bound or bound[n] is not getattr(owner[n], n)],
}))
"""


def test_star_import_binds_each_name_to_its_module_object():
    done = run_python("-c", STAR)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert len(got["all"]) == 52
    assert sorted(got["all"]) == got["owned"]
    assert got["wrong"] == []


def test_dir_lists_every_exported_name_before_it_is_loaded():
    done = run_python(
        "-c",
        "import sys, lyndonkit; names = dir(lyndonkit); "
        "print(sorted(set(lyndonkit.__all__) - set(names)), names == sorted(names))",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[] True\n"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        lyndonkit.no_such_name
    assert not hasattr(lyndonkit, "no_such_name")
