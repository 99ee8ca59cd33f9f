"""Seeded inputs for the three workloads.

A workload is a cycle of operations, each one lyndonkit command line.  The
closed loops repeat the cycle in one process; the sweep repeats its single
operation, each time in a fresh interpreter.
The same seed always yields the same cycle, and the program only ever
receives the generated strings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("sweep", "lyndon_trees", "long_words")

SWEEP_MAX_LEN = 11
TREE_LEN = 256
COMPARE_LEN = 16_000
FACTORIZE_LEN = 2_000

# The generator of each workload, recorded with every result.
GENERATORS = {
    "sweep": f"verify --max-len {SWEEP_MAX_LEN} --alphabet ab --jobs 1 (seed unused)",
    "lyndon_trees": (
        f"random_lyndon({TREE_LEN}, ab), random_lyndon({TREE_LEN}, abc), "
        "comb(128), christoffel(144, 89) x pstd, tree, "
        "tree --kind cartesian --format structured, tree --kind right, tree --format dot"
    ),
    "long_words": (
        f"compare pairs of {COMPARE_LEN} letters: random_word x2, (aab)^k a vs (aab)^k b, "
        f"root^800 vs root^600 with a random primitive root of 20; factorize "
        f"random_word({FACTORIZE_LEN}), (ab)^1000, b a^1999; 3 compares (one --six) per factorize"
    ),
}


@dataclass(frozen=True)
class Op:
    """One command line.  `kind` groups operations for per-kind timings."""

    kind: str
    argv: tuple[str, ...]


def rng_for(seed: int, stream: str) -> random.Random:
    """An independent random stream per purpose, fixed by the seed."""
    return random.Random(f"{seed}:{stream}")


def random_word(rng: random.Random, n: int, letters: str) -> str:
    return "".join(rng.choices(letters, k=n))


def is_primitive(s: str) -> bool:
    """A word is primitive when it occurs in its square only at 0 and |s|."""
    return (s + s).find(s, 1) == len(s)


def random_lyndon(rng: random.Random, n: int, letters: str) -> str:
    """The least rotation of a random primitive word that uses every letter."""
    while True:
        s = random_word(rng, n, letters)
        if set(s) == set(letters) and is_primitive(s):
            return min(s[i:] + s[:i] for i in range(n))


def comb(n: int) -> str:
    """a^(n-1) b: its left Lyndon tree is a path of depth n - 1."""
    return "a" * (n - 1) + "b"


def christoffel(a_count: int, b_count: int) -> str:
    """Lower Christoffel word with the given letter counts.

    Letter i (1-based) is b exactly when floor(i q / n) steps up, with q the
    number of b's and n the length.  It is Lyndon when the counts are coprime.
    """
    n = a_count + b_count
    return "".join(
        "b" if (i * b_count) // n > ((i - 1) * b_count) // n else "a"
        for i in range(1, n + 1)
    )


def sweep_cycle(seed: int) -> list[Op]:
    argv = ("verify", "--max-len", str(SWEEP_MAX_LEN), "--alphabet", "ab", "--jobs", "1")
    return [Op("verify", argv)]


TREE_COMMANDS = (
    ("pstd", ("pstd",)),
    ("tree", ("tree",)),
    ("tree", ("tree", "--kind", "cartesian", "--format", "structured")),
    ("tree", ("tree", "--kind", "right")),
    ("tree", ("tree", "--format", "dot")),
)


def tree_words(seed: int) -> list[str]:
    rng = rng_for(seed, "lyndon_trees")
    return [
        random_lyndon(rng, TREE_LEN, "ab"),
        random_lyndon(rng, TREE_LEN, "abc"),
        comb(128),
        christoffel(144, 89),
    ]


def lyndon_trees_cycle(seed: int) -> list[Op]:
    return [
        Op(kind, argv + (word,))
        for word in tree_words(seed)
        for kind, argv in TREE_COMMANDS
    ]


def compare_pairs(seed: int) -> list[tuple[str, str]]:
    rng = rng_for(seed, "long_words.compare")
    k = (COMPARE_LEN - 1) // 3
    root = random_word(rng, 20, "ab")
    while not is_primitive(root):
        root = random_word(rng, 20, "ab")
    return [
        (random_word(rng, COMPARE_LEN, "ab"), random_word(rng, COMPARE_LEN, "ab")),
        ("aab" * k + "a", "aab" * k + "b"),
        (root * 800, root * 600),
    ]


def factorize_words(seed: int) -> list[str]:
    rng = rng_for(seed, "long_words.factorize")
    return [
        random_word(rng, FACTORIZE_LEN, "ab"),
        "ab" * (FACTORIZE_LEN // 2),
        "b" + "a" * (FACTORIZE_LEN - 1),
    ]


def long_words_cycle(seed: int) -> list[Op]:
    ops = []
    pairs = compare_pairs(seed)
    for j, word in enumerate(factorize_words(seed)):
        for i, (u, v) in enumerate(pairs):
            six = ("--six",) if i == j else ()
            ops.append(Op("compare", ("compare",) + six + (u, v)))
        ops.append(Op("factorize", ("factorize", word)))
    return ops


CYCLES = {
    "sweep": sweep_cycle,
    "lyndon_trees": lyndon_trees_cycle,
    "long_words": long_words_cycle,
}


def words_in(op: Op) -> int:
    """Words the operation hands to the program: the sweep verifies 2^(L+1) - 2."""
    if op.kind == "verify":
        return 2 ** (SWEEP_MAX_LEN + 1) - 2
    return 2 if op.kind == "compare" else 1
