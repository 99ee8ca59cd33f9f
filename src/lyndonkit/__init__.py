"""Infinite-order comparison of finite words and Lyndon tree constructions.

The package compares finite words through their periodic extensions,
factorizes words into nonincreasing Lyndon factors, and builds the left
Lyndon tree of a Lyndon word three independent ways, together with
brute-force oracles and a per-word verifier used by the test suite and
the ``lyndonkit verify`` sweep.
"""

from . import cartesian, cli, errors, lyndon, omega, oracle, trees, words
from .cartesian import *
from .cli import *
from .lyndon import *
from .omega import *
from .oracle import *
from .trees import *
from .words import *

__version__ = "0.1.0"

# Each module lists its own public names once; the package exports them all.
__all__ = [
    "errors",
    *words.__all__,
    *omega.__all__,
    *lyndon.__all__,
    *trees.__all__,
    *cartesian.__all__,
    *oracle.__all__,
    *cli.__all__,
    "__version__",
]
