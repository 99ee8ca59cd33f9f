"""Outside-in spans around the public functions of each lyndonkit module.

`Tracer.install` replaces every public function (a plain function named in
a module's `__all__` and defined there) by a timing wrapper, in every module
namespace that binds it, because the modules import each other's names
with `from .x import y`.  It also wraps each entry of the oracle's check
table, and counts the letters that `Word` slicing and `+` copy.  Nothing in
the package is edited; `uninstall` puts every original back.

Each span is kept in memory as one entry in four parallel arrays: function
id, start and end (integer nanoseconds), and the index of the enclosing
span (-1 at the top).  `write` stores them as a JSON header line followed by
the raw arrays.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from array import array
from collections import Counter
from dataclasses import dataclass

LAYERS = ("words", "omega", "lyndon", "trees", "cartesian", "oracle", "cli")
_ARRAYS = (("fid", "H"), ("start", "q"), ("end", "q"), ("parent", "i"))


@dataclass
class Aggregate:
    """Per-function totals over a span trace; times in nanoseconds."""

    calls: list[int]
    total_ns: list[int]
    self_ns: list[int]
    edges: Counter  # (parent fid, child fid) -> calls; parent -1 at the top


def aggregate(fid, start, end, parent, nfuncs: int) -> Aggregate:
    """Self time is a span's duration minus the durations of its direct children."""
    calls = [0] * nfuncs
    total = [0] * nfuncs
    own = [0] * nfuncs
    edges: Counter = Counter()
    for i in range(len(fid)):
        f = fid[i]
        d = end[i] - start[i]
        calls[f] += 1
        total[f] += d
        own[f] += d
        p = parent[i]
        if p >= 0:
            pf = fid[p]
            own[pf] -= d
            edges[pf, f] += 1
        else:
            edges[-1, f] += 1
    return Aggregate(calls, total, own, edges)


class Tracer:
    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.fid = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.letters_copied = 0
        self.omega_scanned = 0
        self.omega_equal = 0
        self.agreement_pairs = 0
        self.agreement_distinct: set[bytes] = set()
        self._agreement_fid = -1
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, layer: str, fn, observe=None):
        """A wrapper that records one span per call of fn."""
        fid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        fids, starts, ends, parents = self.fid, self.start, self.end, self.parent
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result, parents[index])
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        modules = {
            layer: importlib.import_module(f"{package.__name__}.{layer}")
            for layer in LAYERS
        }
        namespaces = [package, *modules.values()]
        observers = {
            "omega.omega_cmp": self._observe_omega_cmp,
            "oracle.omega_cmp_naive": self._observe_naive_pair,
        }
        for layer, module in modules.items():
            for name in module.__all__:
                fn = getattr(module, name)
                if not (isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__):
                    continue
                key = f"{layer}.{name}"
                wrapper = self.wrap(key, layer, fn, observers.get(key))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, attr, wrapper)

        oracle = modules["oracle"]
        table = getattr(oracle, "_CHECKS", ())
        wrapped = tuple(
            (name, self.wrap(f"oracle.check.{name}", "oracle", check), applies)
            for name, check, applies in table
        )
        if wrapped:
            self._patch(oracle, "_CHECKS", wrapped)
            self._agreement_fid = self.names.index("oracle.check.omega-agreement")

        word_cls = modules["words"].Word
        for attr in ("__getitem__", "__add__"):
            self._patch(word_cls, attr, self._count_copies(word_cls, getattr(word_cls, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _count_copies(self, word_cls, method):
        @functools.wraps(method)
        def counted(word, *args):
            out = method(word, *args)
            if type(out) is word_cls:
                self.letters_copied += len(out.letters)
            return out

        return counted

    def _observe_omega_cmp(self, args, result, parent) -> None:
        if result.mismatch_position is None:
            self.omega_equal += 1
        else:
            self.omega_scanned += result.mismatch_position

    def _observe_naive_pair(self, args, result, parent) -> None:
        if parent >= 0 and self.fid[parent] == self._agreement_fid:
            u, v = args
            self.agreement_pairs += 1
            self.agreement_distinct.add(
                bytes(x + 1 for x in u.letters) + b"\0" + bytes(x + 1 for x in v.letters)
            )

    def aggregate(self) -> Aggregate:
        return aggregate(self.fid, self.start, self.end, self.parent, len(self.names))

    def write(self, path) -> None:
        header = {
            "names": self.names,
            "layers": self.layer_of,
            "spans": len(self.fid),
            "arrays": [f"{name}:{code}" for name, code in _ARRAYS],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for name, _ in _ARRAYS:
                getattr(self, name).tofile(out)
