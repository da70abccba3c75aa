"""Smoke configurations of the benchmark workloads and its input generator."""

import hashlib
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tracing
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parents[1]
EXAMPLE = ROOT / "docs" / "examples" / "elliptic_a1_b1_ext1.json"


def smoke(name, tmp_path):
    if name == "pipeline":
        return workloads.Pipeline(seed=3, count=1, hull_order=3)
    if name == "hull":
        return workloads.Hull(seed=3, workdir=tmp_path, count=1, order=3)
    return workloads.Cohomology(seed=3, workdir=tmp_path, example=EXAMPLE, count=1,
                                objects=(4, 5), cells=(1, 10**9))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", ["pipeline", "hull", "cohomology"])
def test_smoke_workload_passes_oracles_traced_and_untraced(name, tmp_path):
    workload = smoke(name, tmp_path)
    for inp in workload.inputs:
        plain = workload.op(inp)
        assert workload.check(inp, plain) == []
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.begin_op(0)
            traced = workload.op(inp)
        finally:
            tracer.uninstall()
        assert tracer.spans
        assert tracing.root_time(tracer.spans) > 0
        assert digest(traced) == digest(plain)


def test_oracle_rejects_a_wrong_report(tmp_path):
    workload = workloads.Hull(seed=3, workdir=tmp_path, count=1, order=3)
    inp = workload.inputs[0]
    payload = json.loads(workload.op(inp))
    payload["hull"]["relations"] = []
    payload["verdicts"]["hull_versal_zero_defect"] = False
    problems = workload.check(inp, json.dumps(payload))
    assert len(problems) == 2


class ScriptedRng:
    """Replays choice/randint results in order."""

    def __init__(self, values):
        self.values = list(values)

    def choice(self, _seq):
        return self.values.pop(0)

    def randint(self, _lo, _hi):
        return self.values.pop(0)


def test_draw_curve_redraws_singular_parameters():
    # (a, b) = (-3, 2) has 4a^3 + 27b^2 = 0; the next draw is (1, 1)
    rng = ScriptedRng([-1, 3, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1])
    assert workloads.draw_curve(rng, a_zero=False) == (1, 1)
    assert rng.values == []


def test_curve_inputs_are_seeded_and_mix_regimes():
    first = workloads.curve_inputs(7, 8)
    assert first == workloads.curve_inputs(7, 8)
    assert first != workloads.curve_inputs(8, 8)
    assert [a == 0 for a, _b in first] == [True, False, False, False] * 2
    assert all(4 * a**3 + 27 * b**2 != 0 for a, b in first)
    assert all(isinstance(x, Fraction) for pair in first for x in pair)


def test_differential_cells_matches_the_built_complex():
    from ncdef.diagrams import build_resolving_complex

    base, functor = workloads.draw_diagram(random.Random(5), (4, 6))
    rc = build_resolving_complex(base, functor, normalized=True, p_max=2)
    built = sum(d.rows * d.cols for d in rc.differentials.values())
    assert workloads.differential_cells(base, functor) == built


def test_draw_diagrams_keeps_the_seeded_draws_in_the_cell_range():
    rng = random.Random(9)
    drawn = [workloads.differential_cells(*workloads.draw_diagram(rng, (4, 6)))
             for _ in range(12)]
    cells = (sorted(drawn)[3], sorted(drawn)[8])
    kept = workloads.draw_diagrams(random.Random(9), 3, (4, 6), cells)
    got = [workloads.differential_cells(*d) for d in kept]
    assert got == [c for c in drawn if cells[0] <= c <= cells[1]][:3]


def test_cli_report_names_inputs_relative_to_the_workdir(tmp_path):
    workload = smoke("cohomology", tmp_path)
    name = workload.inputs[1]
    payload = json.loads(workload.op(name))
    assert payload["diagram"] == name
    assert workload.check(name, json.dumps(payload)) == []


def test_peak_rss_is_read_before_the_oracle_checks(monkeypatch):
    import run

    log = []

    class Recording:
        inputs = [0]
        describe = staticmethod(str)

        def op(self, _inp):
            return "report"

        def check(self, _inp, _text):
            log.append("check")
            return []

    monkeypatch.setattr(run, "peak_rss_mb", lambda: log.append("rss") or 1.0)
    records, _wall, rss_mb = run.measure(Recording(), 0.0)
    assert rss_mb == 1.0
    assert log == ["rss", "check"]
    assert records[0]["ok"]


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks" / "pipeline",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/pipeline/run.py", "--workload", "pipeline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
