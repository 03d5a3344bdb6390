"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cb-dense --seed 1 --seconds 25 --trace 0

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from a traced run (and writes its spans as a Chrome trace).  The exit
code is 0 only when every correctness gate passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"


def fingerprint(nproc: int) -> dict:
    """Host and engine shape a result is only comparable under."""
    import numpy
    import scipy
    return {"nproc": nproc, "engine": f"threads {nproc}x1",
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Command-line options."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cb-dense", "im-paths", "serve-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record (fingerprint, "
                                      "metrics, details) as JSON here")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    """Run the workload; return the process exit code."""
    args = parse_args(argv)
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are not at {SRC_DIR}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    sys.dont_write_bytecode = True
    from layers import Tracer
    from workloads import WORKLOADS

    nproc = len(os.sched_getaffinity(0))
    host = fingerprint(nproc)
    tracer = Tracer() if args.trace else None
    OUT_DIR.mkdir(exist_ok=True)
    staging = tempfile.mkdtemp(prefix="staging-", dir=OUT_DIR)
    try:
        run = WORKLOADS[args.workload].run(args.seed, args.seconds, nproc,
                                           staging, tracer)
    except Exception:  # noqa: BLE001 — reported, then a non-zero exit
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(staging, ignore_errors=True)

    metrics = run.per_layer if args.trace else run.end_to_end
    print(f"host {json.dumps(host, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    error_rate = run.failed / max(1, run.attempted)
    print(f"  {'error_rate':28s} {error_rate:14.6g} frac "
          f"({run.failed} of {run.attempted})")
    for key, value in run.details.items():
        print(f"  {key:28s} {value}")
    for problem in run.errors:
        print(f"  FAILED: {problem}")
    if tracer is not None:
        trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        tracer.write_chrome_trace(trace_path)
        print(f"  trace written to {trace_path} ({len(tracer.spans)} spans)")
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    if args.out:
        record = {"host": host, "workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "error_rate": error_rate, "details": run.details,
                  "result": result}
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True, default=str)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
