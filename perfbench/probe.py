"""Measurements that need a fresh interpreter, run as child processes of run.py.

    python3 perfbench/probe.py setup WORKLOAD SEED
        prints the seconds taken to import lyndonkit and generate the inputs
    python3 perfbench/probe.py calls WORKLOAD SEED
        runs the workload's fixed operation list once, checking each output,
        and prints a JSON list of [seconds, failure or null] per call
"""

import json
import sys
import time
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench.checkout import load_lyndonkit  # noqa: E402


def main(mode: str, workload: str, seed: int) -> None:
    start = time.perf_counter()
    lyndonkit = load_lyndonkit()
    from perfbench import inputs

    inputs.CYCLES[workload](seed)
    setup_s = time.perf_counter() - start
    if mode == "setup":
        print(repr(setup_s))
        return
    from perfbench import harness

    run = harness.single_pass(lyndonkit.cli.main, harness.fixed_ops(workload, seed))
    print(json.dumps([[s.seconds, s.failure] for s in run.samples]))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]))
