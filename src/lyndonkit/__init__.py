"""Infinite-order comparison of finite words and Lyndon tree constructions.

The package compares finite words through their periodic extensions,
factorizes words into nonincreasing Lyndon factors, and builds the left
Lyndon tree of a Lyndon word three independent ways, together with
brute-force oracles and a per-word verifier used by the test suite and
the ``lyndonkit verify`` sweep.
"""

import importlib

from . import errors, lyndon, omega, words
from .lyndon import *
from .omega import *
from .words import *

__version__ = "0.1.0"

# compare and factorize need only the modules above; these load on first use.
_DEFERRED = ("trees", "cartesian", "oracle", "cli")


def __getattr__(name: str):
    if name in _DEFERRED:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        # Each module lists its own public names once; the package exports them all.
        value = [
            "errors",
            *words.__all__,
            *omega.__all__,
            *lyndon.__all__,
            *(n for module in _DEFERRED for n in __getattr__(module).__all__),
            "__version__",
        ]
    else:
        owner = next((m for m in map(__getattr__, _DEFERRED) if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
