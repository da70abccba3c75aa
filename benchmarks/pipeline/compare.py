"""Compare two sets of pipeline-benchmark run records.

    python3 benchmarks/pipeline/compare.py BASE_DIR NEW_DIR

Each directory holds run records written by run.py (.pipebench/runs/*.json),
for example copied there after running the parent commit and the change.
Per workload and metric it prints each side's median with its quartiles and
the change of the medians. It lists every (workload, seed, input) whose
report sha256 is not the same in all runs of both sides, since reports must
stay byte-identical. Records made with different kernel backends are not
comparable: it refuses them with exit code 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(directory) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]


def spread(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def metric_values(records: list[dict]) -> dict[tuple, list[float]]:
    out: dict[tuple, list[float]] = {}
    for r in records:
        for name, m in r["metrics"].items():
            key = (r["meta"]["workload"], r["meta"]["trace"], name, m["unit"])
            out.setdefault(key, []).append(m["value"])
    return out


def report_hashes(records: list[dict]) -> dict[tuple, set]:
    out: dict[tuple, set] = {}
    for r in records:
        for op in r["ops"]:
            if op["sha256"] is not None:
                key = (r["meta"]["workload"], r["meta"]["seed"], op["input"])
                out.setdefault(key, set()).add(op["sha256"])
    return out


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    if not base or not new:
        print("compare: both directories need run records", file=sys.stderr)
        return 2
    backends = {r["meta"]["kernel_backend"] for r in base + new}
    if len(backends) > 1:
        print(f"compare: refusing to compare kernel backends {sorted(backends)}",
              file=sys.stderr)
        return 2
    old_values, new_values = metric_values(base), metric_values(new)
    print("workload   trace metric                                        "
          "base median [q1, q3]            new median [q1, q3]             change")
    for key in sorted(old_values.keys() & new_values.keys()):
        workload, trace, name, unit = key
        b, n = spread(old_values[key]), spread(new_values[key])
        change = f"{(n[1] - b[1]) / b[1]:+.1%}" if b[1] else "n/a"
        print(f"{workload:10} {trace:5} {name:45} "
              f"{b[1]:.4g} [{b[0]:.4g}, {b[2]:.4g}] {unit:6} "
              f"{n[1]:.4g} [{n[0]:.4g}, {n[2]:.4g}] {unit:6} {change}")
    hashes = report_hashes(base)
    for key, found in report_hashes(new).items():
        hashes.setdefault(key, set()).update(found)
    differing = sorted(key for key, found in hashes.items() if len(found) > 1)
    for workload, seed, inp in differing:
        print(f"report differs: {workload} seed {seed} {inp}")
    print(f"{len(hashes) - len(differing)} of {len(hashes)} reports byte-identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
