#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload bib-stream --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload bib-stream --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --self-test

``--trace 0`` measures the end-to-end metrics with nothing attached;
``--trace 1`` is the separate traced run that splits each pass into the
program's layers.  Each workload ends its output with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``; ``--workload all``
runs the four in turn.  See
``perfbench/README.md`` for the workloads, metrics and how to read them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("bib-stream", "xmark-stream", "fleet-churn", "xmark-pool2")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or all four in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that the output check catches a corrupted reference")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


#: The interpreter's string-hash seed for every measured process.  With
#: randomized hashing, dict and set layouts differ between processes and so
#: does speed (several percent run to run); one fixed seed removes that.
HASH_SEED = "0"


def main(argv=None) -> int:
    args = _parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.self_test:
        import selftest

        return selftest.main()

    import inputs
    import runs

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        workload = inputs.build(name, args.seed)
        inputs.compute_reference(workload)
        if args.trace:
            metrics, lines, tally = runs.traced(workload, args.seconds)
            units = runs.PER_LAYER_UNITS
        else:
            metrics, lines, tally = runs.end_to_end(workload, args.seconds)
            units = runs.END_TO_END_UNITS
        for line in lines:
            print(line)
        result = {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {metric: {"value": metrics[metric], "unit": unit}
                        for metric, unit in units.items()},
        }
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
