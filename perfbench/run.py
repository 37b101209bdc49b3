"""Benchmark of rigidity-kit: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the last line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (spans are written to
``perfbench/out/``).  The line before it records the machine, the inputs
and the raw samples.  Exit status 2 means the run could not start.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

import measure
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rigidity_kit" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no rigidity_kit sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    package = Path(importlib.import_module("rigidity_kit").__file__).resolve()
    if SRC.resolve() not in package.parents:
        sys.stderr.write(f"perfbench: imported rigidity_kit from {package}, not {SRC}\n")
        return 2
    workload = WORKLOADS[args.workload]()
    trace_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
    result = measure.run(workload, args.seed, args.seconds, bool(args.trace),
                         trace_path=trace_path)
    info = result.pop("info")
    print(json.dumps({"perfbench": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
