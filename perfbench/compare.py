"""Compare two benchmark records written by ``run.py --out``.

Usage::

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of the new record as a ratio to the base.  Runs recorded
on hosts with different core counts, engine shapes or workloads are refused
(exit code 2): a parallel solve's speed depends on the core count, so such
numbers are not comparable.
"""

from __future__ import annotations

import json
import sys

#: Fingerprint fields that must match before two records are compared.
MUST_MATCH = ("nproc", "engine")


def load(path: str) -> dict:
    """Read one record."""
    with open(path) as fh:
        return json.load(fh)


def compare(base: dict, new: dict) -> list[str]:
    """Lines comparing ``new`` to ``base``; raises ``ValueError`` if incomparable."""
    for key in MUST_MATCH:
        if base["host"].get(key) != new["host"].get(key):
            raise ValueError(f"refusing to compare: host {key} differs "
                             f"({base['host'].get(key)} vs {new['host'].get(key)})")
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            raise ValueError(f"refusing to compare: {key} differs "
                             f"({base[key]} vs {new[key]})")
    lines = []
    base_metrics = base["result"]["metrics"]
    for name, entry in new["result"]["metrics"].items():
        if name not in base_metrics:
            lines.append(f"{name:28s} {entry['value']:14.6g} {entry['unit']} (new)")
            continue
        before = base_metrics[name]["value"]
        ratio = entry["value"] / before if before else float("nan")
        lines.append(f"{name:28s} {before:14.6g} -> {entry['value']:14.6g} "
                     f"{entry['unit']:6s} x{ratio:.3f}")
    return lines


def main(argv: list[str]) -> int:
    """Compare the two records named on the command line."""
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        lines = compare(load(argv[0]), load(argv[1]))
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
