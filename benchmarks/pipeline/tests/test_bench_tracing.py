"""Span arithmetic and patching of the benchmark's outside-in tracer."""

import json
from pathlib import Path

import pytest

import run
import tracing

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parents[1]


def test_self_time_of_synthetic_span_tree():
    # A [0, 10] has children B [1, 4] and C [5, 9]; B holds a recursive
    # B [2, 3]; C holds D [6, 7] and a child E [8, 12] clipped at C's end.
    spans = [
        ["A", 0.0, 10.0, None, 0],
        ["B", 1.0, 4.0, 0, 0],
        ["B", 2.0, 3.0, 1, 0],
        ["C", 5.0, 9.0, 0, 0],
        ["D", 6.0, 7.0, 3, 0],
        ["E", 8.0, 12.0, 3, 0],
        ["A", 20.0, 21.0, None, 1],
    ]
    stats = tracing.span_stats(spans)
    assert stats["A"] == {"calls": 2, "incl_s": 11.0, "self_s": (10 - 3 - 4) + 1}
    # incl_s counts the outer B only; self_s is 3 - 1 for it plus 1 inside
    assert stats["B"] == {"calls": 2, "incl_s": 3.0, "self_s": 3.0}
    assert stats["C"] == {"calls": 1, "incl_s": 4.0, "self_s": 4 - 1 - 1}
    assert stats["E"]["self_s"] == 4.0
    assert tracing.root_time(spans) == 11.0


def test_covered_merges_overlapping_intervals():
    assert tracing._covered([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4


def test_layer_metrics_are_per_op_and_ratios_are_not():
    spans = [
        ["linalg.SubspaceReducer.add", 0.0, 1.0, None, 0],
        ["linalg.SubspaceReducer.add", 1.0, 2.0, None, 0],
        ["linalg.SubspaceReducer.add", 2.0, 4.0, None, 1],
        ["matric.quotient", 4.0, 5.0, None, 1],
    ]
    counts = {"linalg.SubspaceReducer.add.accepted": 1, "matric.quotient.free_dim": 8,
              "matric.quotient.quotient_dim": 2}
    m = tracing.layer_metrics(spans, counts, n_ops=2)
    assert m["linalg.SubspaceReducer.add.calls"] == 1.5
    assert m["linalg.SubspaceReducer.add.self_s"] == 2.0
    assert m["linalg.SubspaceReducer.add.accept_ratio"] == pytest.approx(1 / 3)
    assert m["matric.quotient.keep_ratio"] == 0.25
    assert m["matric.quotient.free_dim"] == 4
    assert m["linalg.rref.calls"] == 0


def test_install_patches_every_binding_and_uninstall_restores():
    from ncdef import cokernels, diagrams, elliptic, engine, linalg, matric
    from ncdef.algebra import PresentedAlgebra

    before = {
        "solve": linalg.solve, "kernel_basis": linalg.kernel_basis,
        "quotient": matric.quotient, "normal_form": vars(PresentedAlgebra)["normal_form"],
        "from_charts": vars(engine.EngineContext)["from_charts"],
        "surjection": vars(matric.SmallSurjection)["__init__"],
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module in (linalg, cokernels, diagrams, engine):
            assert module.solve is not before["solve"]
            assert module.solve is linalg.solve
        assert engine.kernel_basis is cokernels.kernel_basis is linalg.kernel_basis
        assert engine.quotient is elliptic.quotient is matric.quotient
        assert matric.quotient is not before["quotient"]
        assert PresentedAlgebra.element is PresentedAlgebra.normal_form
        assert vars(PresentedAlgebra)["normal_form"] is not before["normal_form"]
        assert isinstance(vars(engine.EngineContext)["from_charts"], classmethod)
        assert vars(matric.SmallSurjection)["__init__"] is not before["surjection"]
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    for module in (linalg, cokernels, diagrams, engine):
        assert module.solve is before["solve"]
    assert engine.quotient is elliptic.quotient is matric.quotient is before["quotient"]
    assert vars(PresentedAlgebra)["normal_form"] is before["normal_form"]
    assert PresentedAlgebra.element is before["normal_form"]
    assert vars(engine.EngineContext)["from_charts"] is before["from_charts"]
    assert vars(matric.SmallSurjection)["__init__"] is before["surjection"]


def test_window_probe_adds_no_spans_and_counts_repeats():
    from ncdef import elliptic
    from ncdef.cokernels import cokernel_of_derivation

    chart = elliptic.build(1, 1).charts["U2"]
    presentation = cokernel_of_derivation(chart.algebra, chart.derivation)
    element = chart.algebra.normal_form("x^3*y")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        presentation.reduce(element)
        first = len(tracer.spans)
        presentation.reduce(element)
    finally:
        tracer.uninstall()
    assert len(tracer.spans) == 2 * first
    assert tracer.counts["cokernels.CokernelPresentation.reduce.window_repeats"] == 1
    names = [s[0] for s in tracer.spans]
    assert names.count("cokernels.CokernelPresentation.reduce") == 2


def test_per_layer_metrics_match_benchmark_json_and_layer_map():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in tracing.PER_LAYER
    ]
    layers = json.loads((BENCH / "layers.json").read_text())
    mapped = [n for entry in layers["predictions"] for n in entry["per_layer"]]
    named = [n for n, _u, _b in tracing.PER_LAYER if not n.startswith("trace.")]
    assert sorted(mapped) == sorted(named)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    # the layer map also covers hull, which runs by hand but is not gated
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    for entry in layers["predictions"]:
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["expect"]) == set(run.WORKLOADS)

