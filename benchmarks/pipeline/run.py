"""Pipeline benchmark: certified-result throughput of ncdef, per workload.

    python3 benchmarks/pipeline/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

One single-threaded process acts as one closed-loop caller: it builds the
seeded inputs, then runs one op after another, each on the next input of
the list (cycling), until --seconds of wall time have passed. An op's clock
covers computing and rendering its JSON report (for hull and cohomology, the
whole in-process `ncdef` command from reading its input file to writing the
report); every report is checked against the workload's oracle after the
loop, outside the timed region, and the peak RSS is read before the checks.

--trace 0 prints the end-to-end metrics. --trace 1 runs every input twice,
once plain and once with every layer wrapped by the tracer (see tracing.py),
alternating which goes first, and prints the per-layer metrics, the share of
op time inside top-level spans and the traced/untraced time ratio; the traced
reports must hash the same as the untraced ones.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The run record (metadata, inputs, per-op times and
report sha256) goes to .pipebench/runs/, the spans of a traced run to
.pipebench/spans/; compare.py compares two sets of run records.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
OUT = ROOT / ".pipebench"
EXAMPLE = ROOT / "docs" / "examples" / "elliptic_a1_b1_ext1.json"
# BENCHMARK.json gates pipeline and cohomology only. hull stays runnable by
# hand for hull-tower work: a run holds only 5-6 of its 7-9 s ops, too few
# for a median that repeats across runs on a shared 2-vCPU machine.
WORKLOADS = ("pipeline", "hull", "cohomology")
SETUPS = 3  # set-ups per run (this process plus fresh interpreters); setup_s is their median


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print the set-up time and exit")
    return parser.parse_args(argv)


def make_workload(workloads, name: str, seed: int, workdir: Path):
    if name == "pipeline":
        return workloads.Pipeline(seed)
    if name == "hull":
        return workloads.Hull(seed, workdir)
    return workloads.Cohomology(seed, workdir, EXAMPLE)


def fresh_setup_seconds(args) -> float:
    """Set-up time of the same workload in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return float(done.stdout.split()[-1])


def run_op(workload, inp):
    """(seconds, report text or None, error or None) of one op."""
    start = time.perf_counter()
    try:
        text = workload.op(inp)
    except Exception:  # an op that raises counts as failed; the loop goes on
        return time.perf_counter() - start, None, traceback.format_exc()
    return time.perf_counter() - start, text, None


def closed_loop(workload, seconds: float):
    """Ops back to back over the cycled inputs until `seconds` have passed."""
    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        inp = workload.inputs[len(ops) % len(workload.inputs)]
        ops.append((inp, *run_op(workload, inp)))
    return ops, time.perf_counter() - start


def verify(workload, ops) -> list[dict]:
    """Per-op record with the oracle's verdict, computed after the clock."""
    records = []
    for inp, seconds, text, error in ops:
        if error is None:
            try:
                problems = workload.check(inp, text)
            except (KeyError, TypeError, ValueError) as exc:
                problems = [f"malformed report: {exc!r}"]
        else:
            problems = [error]
        records.append({
            "input": workload.describe(inp),
            "seconds": seconds,
            "sha256": hashlib.sha256(text.encode()).hexdigest() if text is not None else None,
            "ok": not problems,
            "problems": problems,
        })
    return records


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload, seconds: float):
    """The closed loop, then the oracle checks: (records, wall seconds, peak
    RSS in MB). The peak is read before the checks, which may build larger
    objects than the ops (cohomology's non-normalized complexes)."""
    ops, wall = closed_loop(workload, seconds)
    rss_mb = peak_rss_mb()
    return verify(workload, ops), wall, rss_mb


def end_to_end(records, wall: float, setups: list[float], rss_mb: float) -> dict:
    times = [r["seconds"] for r in records]
    verified = sum(r["ok"] for r in records)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (verified / wall, "1/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "rss_peak_mb": (rss_mb, "MB"),
    }


def traced(workload, tracing, seconds: float, spans_path: Path, header: dict):
    """Each input twice, untraced and traced, alternating which runs first,
    until `seconds` have passed; the pairs give the tracing overhead."""
    tracer = tracing.Tracer()
    plain_ops, traced_ops = [], []
    start = time.perf_counter()
    while not plain_ops or time.perf_counter() - start < seconds:
        k = len(plain_ops)
        inp = workload.inputs[k % len(workload.inputs)]
        for with_spans in (k % 2 == 1, k % 2 == 0):
            if not with_spans:
                plain_ops.append((inp, *run_op(workload, inp)))
                continue
            tracer.install()
            tracer.begin_op(k)
            try:
                traced_ops.append((inp, *run_op(workload, inp)))
            finally:
                tracer.uninstall()
    plain, with_spans = verify(workload, plain_ops), verify(workload, traced_ops)
    for a, b in zip(plain, with_spans):
        if a["sha256"] != b["sha256"]:
            b["ok"] = False
            b["problems"].append("traced report differs from the untraced one")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(spans_path, header)
    traced_time = sum(r["seconds"] for r in with_spans)
    values = tracing.layer_metrics(tracer.spans, tracer.counts, len(with_spans))
    values["trace.coverage"] = tracing.root_time(tracer.spans) / traced_time
    values["trace.overhead_ratio"] = traced_time / sum(r["seconds"] for r in plain)
    metrics = {name: (values[name], unit) for name, unit, _better in tracing.PER_LAYER}
    return plain + with_spans, metrics


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ncdef" / "__init__.py").is_file():
        print(f"pipeline benchmark: no ncdef sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ncdef

    if Path(ncdef.__file__).resolve().parent != (SRC / "ncdef").resolve():
        print(f"pipeline benchmark: imported ncdef from {ncdef.__file__}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = make_workload(workloads, args.workload, args.seed, workdir)
        setups = [time.perf_counter() - T0]
        if args.setup_only:
            print(setups[0])
            return 0
        meta = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "kernel_backend": ncdef.KERNEL_BACKEND,
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(), "inputs": [workload.describe(i) for i in workload.inputs],
        }
        tag = f"{args.workload}-seed{args.seed}"
        if args.trace:
            records, metrics = traced(workload, tracing, args.seconds,
                                      OUT / "spans" / f"{tag}.jsonl", meta)
        else:
            setups += [fresh_setup_seconds(args) for _ in range(SETUPS - 1)]
            records, wall, rss_mb = measure(workload, args.seconds)
            metrics = end_to_end(records, wall, setups, rss_mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not r["ok"] for r in records)
    values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    record = {"meta": meta, "setups_s": setups, "ops": records, "metrics": values}
    (runs / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    for r in records:
        for problem in r["problems"]:
            print(f"FAILED {r['input']}: {problem}", file=sys.stderr)
    print(f"# {args.workload}, seed {args.seed}, kernel backend {meta['kernel_backend']}, "
          f"{len(records)} ops ({failed} failed)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# fail_ratio = {failed / len(records):.6g} 1")
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
