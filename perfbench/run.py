"""lyndonkit benchmark: run one workload through lyndonkit.cli.main.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a lyndonkit checkout; the package is imported from
that checkout's src/.  With --trace 0 it reports the end-to-end metrics,
with --trace 1 the per-layer metrics of a separate traced run.  Every
output is checked.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Load comes from this one process: a single
closed-loop caller, or one serial sweep.
"""

import argparse
import importlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import harness, inputs, stats  # noqa: E402
from perfbench.checkout import OUT, ROOT, load_lyndonkit  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER, PER_OPERATION, SCALED  # noqa: E402
from perfbench.tracing import LAYERS, Tracer  # noqa: E402

SETUP_PROBES = 21
SCALING_SIZES = (64, 128, 256)


def probe(mode: str, workload: str, seed: int) -> str:
    """Run probe.py in a fresh interpreter and return the last line it prints."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "probe.py"), mode, workload, str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"perfbench: {mode} probe failed: {done.stderr.strip()[-500:]}")
    return done.stdout.strip().splitlines()[-1]


def repeat_in_children(workload: str, seed: int, seconds: float) -> harness.Run:
    """Repeat the fixed operation list, each time in a fresh interpreter.

    The sweep is one long call that fills the oracle's caches, so each repeat
    gets a process of its own, as a user's invocation would.
    """
    ops = harness.fixed_ops(workload, seed)
    run = harness.Run()
    start = time.perf_counter()
    while not run.samples or time.perf_counter() - start < seconds:
        for op, (secs, failure) in zip(ops, json.loads(probe("calls", workload, seed))):
            run.samples.append(harness.Sample(op, secs, failure))
    return run


def machine() -> str:
    cpu = platform.processor() or "unknown cpu"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, {cpu}"


def report_failures(run: harness.Run) -> None:
    seen = set()
    for s in run.samples:
        if s.failure is not None and (s.op.argv, s.failure) not in seen:
            seen.add((s.op.argv, s.failure))
            args = " ".join(a if len(a) <= 24 else a[:21] + "..." for a in s.op.argv)
            print(f"FAIL {args}: {s.failure}")


def end_to_end(lyndonkit, workload: str, seed: int, seconds: float) -> tuple[harness.Run, dict]:
    setup = [float(probe("setup", workload, seed)) for _ in range(SETUP_PROBES)]
    if workload == "sweep":
        run = repeat_in_children(workload, seed, seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    else:
        run = harness.closed_loop(lyndonkit.cli.main, inputs.CYCLES[workload](seed), seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    times_ms = [s.seconds * 1000 for s in run.samples]
    n = len(times_ms)
    busy = run.busy_s
    values = {
        "setup_s": stats.median(setup),
        "words_per_s": sum(inputs.words_in(s.op) for s in run.samples) / busy,
        "calls_per_s": n / busy,
        "call_ms_p50": stats.median(times_ms),
        "call_ms_p90": stats.percentile(times_ms, 900),
        "peak_rss_mb": peak_mb,
    }
    counts = {"setup_s": len(setup), "call_ms_p50": n, "call_ms_p90": n}
    for name, unit, *_ in END_TO_END:
        note = f"  n={counts[name]}" if name in counts else ""
        if name == "call_ms_p90" and not stats.tail_supported(n, 900):
            note += f", only {stats.beyond(n, 900)} beyond: below the ten-sample rule"
        print(f"{name:<18} {values[name]:>14.4f} {unit}{note}")
    for name, unit, where, kind in PER_OPERATION:
        if where == workload:
            own = [s.seconds * 1000 for s in run.samples if s.op.kind == kind]
            print(f"{name:<18} {stats.median(own):>14.4f} {unit}  n={len(own)}")
    print(f"{'fail_ratio':<18} {run.failed / n:>14.4f}  ({run.failed} failed / {n} attempted)")
    return run, values


def scaling_exponents(lyndonkit, seed: int) -> dict:
    """Log-log slope of per-call time over random binary Lyndon words."""
    ab = lyndonkit.OrderedAlphabet("ab")
    words = {
        n: lyndonkit.make_word(inputs.random_lyndon(inputs.rng_for(seed, f"scaling.{n}"), n, "ab"), ab)
        for n in SCALING_SIZES
    }
    out = {}
    for name in SCALED:
        layer, fn_name = name.split(".")
        fn = getattr(importlib.import_module(f"{lyndonkit.__name__}.{layer}"), fn_name)
        xs = [math.log(n) for n in SCALING_SIZES]
        ys = [math.log(per_call_s(fn, words[n])) for n in SCALING_SIZES]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        out[f"{name}.exponent"] = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
            (x - mx) ** 2 for x in xs
        )
    return out


def per_call_s(fn, arg, budget_s: float = 0.05, batches: int = 5) -> float:
    """Fastest of a few batches, each repeating the call for at least budget_s."""
    best = math.inf
    for _ in range(batches):
        reps, start = 0, time.perf_counter()
        while True:
            fn(arg)
            reps += 1
            elapsed = time.perf_counter() - start
            if elapsed >= budget_s:
                break
        best = min(best, elapsed / reps)
    return best


def traced(lyndonkit, workload: str, seed: int) -> tuple[harness.Run, dict]:
    untraced_s = sum(secs for secs, _ in json.loads(probe("calls", workload, seed)))
    ops = harness.fixed_ops(workload, seed)
    tracer = Tracer()
    tracer.install(lyndonkit)
    try:
        run = harness.single_pass(lyndonkit.cli.main, ops)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload}.spans")
    values = layer_metrics(tracer, run.busy_s / untraced_s)
    values.update(scaling_exponents(lyndonkit, seed))
    for name, unit, _ in PER_LAYER:
        v = values[name]
        shown = f"{v:>14d}" if isinstance(v, int) else f"{v:>14.6f}"
        print(f"{name:<48} {shown} {unit}")
    print(
        f"oracle.omega_pair_reuse base: {len(tracer.agreement_distinct)} distinct "
        f"(prefix, suffix) pairs of {tracer.agreement_pairs} compared in omega-agreement"
    )
    print(f"trace: {len(tracer.fid)} spans, {run.busy_s:.3f} s traced / {untraced_s:.3f} s untraced")
    return run, values


def layer_metrics(tracer: Tracer, overhead: float) -> dict:
    agg = tracer.aggregate()
    index = {name: i for i, name in enumerate(tracer.names)}

    def calls(name):
        return agg.calls[index[name]] if name in index else 0

    def self_s(name):
        return agg.self_ns[index[name]] / 1e9 if name in index else 0.0

    m = {}
    for layer in LAYERS:
        fids = [i for i, owner in enumerate(tracer.layer_of) if owner == layer]
        m[f"{layer}.calls"] = sum(agg.calls[i] for i in fids)
        m[f"{layer}.self_s"] = sum(agg.self_ns[i] for i in fids) / 1e9
    omega_calls = calls("omega.omega_cmp")
    is_lyndon = index.get("lyndon.is_lyndon")
    trees = [i for i, owner in enumerate(tracer.layer_of) if owner == "trees"]
    lyndon_tests = sum(agg.edges[p, is_lyndon] for p in trees)
    splits = calls("trees.left_standard_factorization") + calls("trees.right_standard_factorization")
    pairs = tracer.agreement_pairs
    m.update({
        "omega.omega_cmp.calls": omega_calls,
        "omega.scanned_letters": tracer.omega_scanned,
        "omega.equal_ratio": tracer.omega_equal / omega_calls if omega_calls else 0.0,
        "words.letters_copied": tracer.letters_copied,
        "trees.left_standard_factorization.calls": calls("trees.left_standard_factorization"),
        "trees.lyndon_tests": lyndon_tests,
        "trees.lyndon_tests_per_split": lyndon_tests / splits if splits else 0.0,
        "lyndon.is_lyndon.calls": calls("lyndon.is_lyndon"),
        "cartesian.prec_cmp.calls": calls("cartesian.prec_cmp"),
        "oracle.verify_word.calls": calls("oracle.verify_word"),
        "oracle.omega_cmp_naive.calls": calls("oracle.omega_cmp_naive"),
        "oracle.omega_pair_reuse": 1 - len(tracer.agreement_distinct) / pairs if pairs else 0.0,
        "trace.overhead_ratio": overhead,
    })
    for name, _, _ in PER_LAYER:
        if name.endswith(".self_s") and name not in m:
            m[name] = self_s(name[: -len(".self_s")])
        elif name.startswith("oracle.check."):
            check = name[: -len(".s")]
            m[name] = agg.total_ns[index[check]] / 1e9 if check in index else 0.0
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    lyndonkit = load_lyndonkit()

    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    print(f"generator: {inputs.GENERATORS[args.workload]}")
    print(f"machine: {machine()}")
    if args.trace:
        run, values = traced(lyndonkit, args.workload, args.seed)
    else:
        run, values = end_to_end(lyndonkit, args.workload, args.seed, args.seconds)
    report_failures(run)
    units = {name: unit for name, unit, *_ in (END_TO_END if not args.trace else PER_LAYER)}
    result = {
        "correct": run.failed == 0,
        "attempted": len(run.samples),
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
