"""Calling lyndonkit's command line in-process, timing and checking each call."""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass, field

from . import checks
from .inputs import CYCLES, Op

MIN_CALLS = 100  # so p90 has at least ten samples beyond it
MAX_LOOP_S = 120.0  # stop early rather than overrun the run's time limit
TRACE_CYCLES = 2


@dataclass
class Sample:
    op: Op
    seconds: float
    failure: str | None


@dataclass
class Run:
    samples: list[Sample] = field(default_factory=list)
    _passed: dict[tuple[str, ...], str] = field(default_factory=dict)

    def call(self, main, op: Op) -> None:
        """Time one command line, then check its output outside the timing.

        An output equal to one that already passed its check for the same
        command line passes again without being re-derived.
        """
        out, err = io.StringIO(), io.StringIO()
        failure = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = main(list(op.argv))
            except Exception as exc:  # RecursionError included: a failed call, not a crash
                failure = f"raised {exc!r}"
            seconds = time.perf_counter() - start
        text = out.getvalue()
        if failure is None and not (code == 0 and self._passed.get(op.argv) == text):
            failure = checks.check(op, code, text)
            if failure is None:
                self._passed[op.argv] = text
            elif err.getvalue():
                failure += f" ({err.getvalue().strip()[:200]})"
        self.samples.append(Sample(op, seconds, failure))

    @property
    def busy_s(self) -> float:
        return sum(s.seconds for s in self.samples)

    @property
    def failed(self) -> int:
        return sum(s.failure is not None for s in self.samples)


def closed_loop(main, cycle: list[Op], seconds: float) -> Run:
    """One caller: whole cycles until `seconds` have passed and MIN_CALLS are made."""
    run = Run()
    start = time.perf_counter()
    while True:
        for op in cycle:
            run.call(main, op)
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_LOOP_S or (elapsed >= seconds and len(run.samples) >= MIN_CALLS):
            return run


def single_pass(main, ops: list[Op]) -> Run:
    run = Run()
    for op in ops:
        run.call(main, op)
    return run


def fixed_ops(workload: str, seed: int) -> list[Op]:
    """A fixed operation list: the sweep's one verify, or a few closed-loop cycles.

    Traced runs use it so that their counts repeat exactly.
    """
    cycle = CYCLES[workload](seed)
    return cycle if workload == "sweep" else cycle * TRACE_CYCLES
