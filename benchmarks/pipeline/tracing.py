"""Outside-in span tracing of the ncdef layers.

``Tracer.install`` replaces each public entry point named in ``TARGETS`` by a
wrapper that records one span per call: name, start, end, parent span and
the id of the benchmark op it belongs to. Spans stay in memory; ``dump``
writes them out when the run ends. Nothing under ``src/`` changes: the
wrappers are installed from here and removed again by ``uninstall``.

A name imported with ``from .linalg import solve`` is a separate binding in
the importing module, so every ``ncdef`` module namespace (and every class
attribute aliasing a wrapped method) that holds the original object is
patched, not only the defining one.

Probes add counts at the same boundaries (matrix cells, accepted vectors,
repeated reduce windows, quotient sizes, bytes read). They run after the
wrapped call returns and call only the unwrapped originals, so they never
add spans or counts of their own.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time


def _rref_cells(tracer, args, kwargs, result):
    m = args[0]
    tracer.count("linalg.rref.cells", m.rows * m.cols)


def _accepted(tracer, args, kwargs, result):
    if result:
        tracer.count("linalg.SubspaceReducer.add.accepted", 1)


def _operator_cells(tracer, args, kwargs, result):
    tracer.count("algebra.truncated_operator_matrix.cells", result.rows * result.cols)


def _reduce_window(tracer, args, kwargs, result):
    # the window degree reduce() solves at, as CokernelPresentation.reduce
    # derives it; normal_form is the unwrapped original
    presentation = args[0]
    element = args[1] if len(args) > 1 else kwargs["e"]
    normal_form = tracer.originals["algebra.PresentedAlgebra.normal_form"]
    degree = max(presentation.d_star, normal_form(presentation.algebra, element).degree())
    key = (id(presentation), degree)
    if key in tracer.windows:
        tracer.count("cokernels.CokernelPresentation.reduce.window_repeats", 1)
    else:
        tracer.windows.add(key)


def _differential_cells(tracer, args, kwargs, result):
    cells = sum(d.rows * d.cols for d in result.differentials.values())
    tracer.count("diagrams.build_resolving_complex.differential_cells", cells)


def _file_bytes(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.count("diagram_io.load_functor.bytes", os.path.getsize(path))


def _quotient_dims(tracer, args, kwargs, result):
    tracer.count("matric.quotient.free_dim", result.free.dim)
    tracer.count("matric.quotient.quotient_dim", result.dim)


# (module, attribute path, probe). A class target wraps its constructor.
TARGETS = [
    ("linalg", "rref", _rref_cells),
    ("linalg", "solve", None),
    ("linalg", "kernel_basis", None),
    ("linalg", "SubspaceReducer.add", _accepted),
    ("algebra", "truncated_operator_matrix", _operator_cells),
    ("algebra", "PresentedAlgebra.normal_form", None),
    ("cokernels", "cokernel_of_derivation", None),
    ("cokernels", "CokernelPresentation.reduce", _reduce_window),
    ("cokernels", "build_ext_diagram", None),
    ("cokernels", "global_hochschild_dims", None),
    ("diagrams", "build_resolving_complex", _differential_cells),
    ("diagrams", "ResolvingComplex.cohomology", None),
    ("diagrams", "CohomologyGroup.class_coords", None),
    ("diagram_io", "load_functor", _file_bytes),
    ("matric", "quotient", _quotient_dims),
    ("matric", "SmallSurjection", None),
    ("engine", "EngineContext.from_charts", None),
    ("engine", "EngineContext.validate", None),
    ("engine", "EngineContext.obstruction_class", None),
    ("engine", "EngineContext.cup_table", None),
    ("engine", "EngineContext.hull_compute", None),
    ("elliptic", "build", None),
    ("elliptic", "build_context", None),
    ("elliptic", "run_full_pipeline", None),
    ("elliptic", "exp_datum", None),
    ("report", "Report.render", None),
]

# Per-layer metrics, as (name, unit, better). "<span>.<stat>": calls,
# self_s and incl_s come from the spans, the other stats from the probes.
# Every value except the ratios is a mean per traced op.
PER_LAYER = [
    ("linalg.rref.calls", "count", "lower"),
    ("linalg.rref.self_s", "s", "lower"),
    ("linalg.rref.cells", "count", "lower"),
    ("linalg.solve.calls", "count", "lower"),
    ("linalg.solve.incl_s", "s", "lower"),
    ("linalg.kernel_basis.calls", "count", "lower"),
    ("linalg.kernel_basis.incl_s", "s", "lower"),
    ("linalg.SubspaceReducer.add.calls", "count", "lower"),
    ("linalg.SubspaceReducer.add.self_s", "s", "lower"),
    ("linalg.SubspaceReducer.add.accept_ratio", "1", "higher"),
    ("algebra.truncated_operator_matrix.calls", "count", "lower"),
    ("algebra.truncated_operator_matrix.self_s", "s", "lower"),
    ("algebra.truncated_operator_matrix.cells", "count", "lower"),
    ("algebra.PresentedAlgebra.normal_form.calls", "count", "lower"),
    ("algebra.PresentedAlgebra.normal_form.self_s", "s", "lower"),
    ("cokernels.cokernel_of_derivation.calls", "count", "lower"),
    ("cokernels.cokernel_of_derivation.self_s", "s", "lower"),
    ("cokernels.cokernel_of_derivation.incl_s", "s", "lower"),
    ("cokernels.CokernelPresentation.reduce.calls", "count", "lower"),
    ("cokernels.CokernelPresentation.reduce.self_s", "s", "lower"),
    ("cokernels.CokernelPresentation.reduce.incl_s", "s", "lower"),
    ("cokernels.CokernelPresentation.reduce.window_repeats", "count", "lower"),
    ("cokernels.build_ext_diagram.incl_s", "s", "lower"),
    ("cokernels.global_hochschild_dims.incl_s", "s", "lower"),
    ("diagrams.build_resolving_complex.calls", "count", "lower"),
    ("diagrams.build_resolving_complex.self_s", "s", "lower"),
    ("diagrams.build_resolving_complex.differential_cells", "count", "lower"),
    ("diagrams.ResolvingComplex.cohomology.calls", "count", "lower"),
    ("diagrams.ResolvingComplex.cohomology.incl_s", "s", "lower"),
    ("diagrams.CohomologyGroup.class_coords.calls", "count", "lower"),
    ("diagrams.CohomologyGroup.class_coords.incl_s", "s", "lower"),
    ("diagram_io.load_functor.calls", "count", "lower"),
    ("diagram_io.load_functor.self_s", "s", "lower"),
    ("diagram_io.load_functor.bytes", "B", "lower"),
    ("matric.quotient.calls", "count", "lower"),
    ("matric.quotient.self_s", "s", "lower"),
    ("matric.quotient.incl_s", "s", "lower"),
    ("matric.quotient.free_dim", "count", "lower"),
    ("matric.quotient.quotient_dim", "count", "lower"),
    ("matric.quotient.keep_ratio", "1", "higher"),
    ("matric.SmallSurjection.calls", "count", "lower"),
    ("matric.SmallSurjection.self_s", "s", "lower"),
    ("engine.EngineContext.from_charts.incl_s", "s", "lower"),
    ("engine.EngineContext.validate.calls", "count", "lower"),
    ("engine.EngineContext.validate.self_s", "s", "lower"),
    ("engine.EngineContext.obstruction_class.calls", "count", "lower"),
    ("engine.EngineContext.obstruction_class.incl_s", "s", "lower"),
    ("engine.EngineContext.cup_table.incl_s", "s", "lower"),
    ("engine.EngineContext.hull_compute.incl_s", "s", "lower"),
    ("engine.EngineContext.hull_compute.self_s", "s", "lower"),
    ("elliptic.build.incl_s", "s", "lower"),
    ("elliptic.build_context.incl_s", "s", "lower"),
    ("elliptic.run_full_pipeline.incl_s", "s", "lower"),
    ("elliptic.exp_datum.incl_s", "s", "lower"),
    ("report.Report.render.incl_s", "s", "lower"),
    ("trace.coverage", "1", "higher"),
    ("trace.overhead_ratio", "1", "lower"),
]


class Tracer:
    """Span recorder for one traced run; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, op id]
        self.counts: dict[str, float] = {}
        self.originals: dict[str, object] = {}
        self.windows: set = set()
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def begin_op(self, op_id) -> None:
        self.op = op_id
        self.windows.clear()

    def count(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, name, fn, probe):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), None, stack[-1] if stack else None, tracer.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if probe is not None:
                probe(tracer, args, kwargs, result)
            return result

        return traced

    def _replace(self, owner, original, wrapper) -> int:
        hits = 0
        for key, value in list(vars(owner).items()):
            if value is original:
                self._patches.append((owner, key, original))
                setattr(owner, key, wrapper)
                hits += 1
        return hits

    def install(self) -> None:
        """Wrap every target in every ncdef namespace that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, path, probe in TARGETS:
            importlib.import_module(f"ncdef.{module_name}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "ncdef" or n.startswith("ncdef.")]
        for module_name, path, probe in TARGETS:
            name = f"{module_name}.{path}"
            owner = sys.modules[f"ncdef.{module_name}"]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            raw = vars(owner)[attr]
            if isinstance(raw, type):
                owner, raw = raw, vars(raw)["__init__"]
                self.originals[name] = raw
                self._replace(owner, raw, self._wrap(name, raw, probe))
            elif isinstance(owner, type):
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                self.originals[name] = fn
                wrapper = self._wrap(name, fn, probe)
                if isinstance(raw, classmethod):
                    wrapper = classmethod(wrapper)
                self._replace(owner, raw, wrapper)
            else:
                self.originals[name] = raw
                wrapper = self._wrap(name, raw, probe)
                if not sum(self._replace(m, raw, wrapper) for m in modules):
                    raise RuntimeError(f"{name} is bound in no ncdef module")

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def dump(self, path, header: dict) -> None:
        """Write the header and one JSON list per span, as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def span_stats(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, incl_s and self_s.

    Self time is a span's duration minus the part of it its children cover.
    Inclusive time counts only spans with no ancestor of the same name, so
    recursion is not counted twice.
    """
    children: dict[int, list] = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(span[3], []).append((span[1], span[2]))
    stats: dict[str, dict[str, float]] = {}
    for index, (name, start, end, parent, _op) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        inside = [(max(a, start), min(b, end)) for a, b in children.get(index, ())]
        s["self_s"] += (end - start) - _covered([iv for iv in inside if iv[0] < iv[1]])
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent is None:
            s["incl_s"] += end - start
    return stats


def root_time(spans) -> float:
    """Total duration of the top-level spans (those without a parent)."""
    return _covered((s[1], s[2]) for s in spans if s[3] is None)


def layer_metrics(spans, counts: dict, n_ops: int) -> dict[str, float]:
    """Every per-layer metric except the trace.* pair, per traced op."""
    stats = span_stats(spans)
    empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
    out = {}
    for metric, _unit, _better in PER_LAYER:
        span, stat = metric.rsplit(".", 1)
        if span == "trace":
            continue
        s = stats.get(span, empty)
        if stat in empty:
            out[metric] = s[stat] / n_ops
        elif stat == "accept_ratio":
            accepted = counts.get(f"{span}.accepted", 0)
            out[metric] = accepted / s["calls"] if s["calls"] else 0.0
        elif stat == "keep_ratio":
            free = counts.get(f"{span}.free_dim", 0)
            out[metric] = counts.get(f"{span}.quotient_dim", 0) / free if free else 0.0
        else:
            out[metric] = counts.get(metric, 0) / n_ops
    return out
