"""Seeded workloads of the pipeline benchmark and their independent oracles.

Each workload turns a seed into a fixed input list, runs one op per input
and checks each JSON report against expectations that do not come from the
code under test. ``op`` returns the report text; ``check`` returns the list
of problems found in it (empty when it is correct).

``hull`` and ``cohomology`` run ``ncdef.cli.main`` in-process on input files
written at set-up, so they time the program's own ``ncdef hull`` and
``ncdef cohomology`` paths. ``pipeline`` calls the Python API instead of
``ncdef elliptic``, whose argparse reads ``--b -5/7`` as a flag.

The ncdef modules are imported by the caller's sys.path, and every call goes
through a module attribute (``elliptic.build``), so the tracer's patches
apply to the calls made here too.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
from fractions import Fraction
from pathlib import Path

from ncdef import cli, diagram_io, diagrams, elliptic, synthetic

# Ext^1 representatives per chart in the paper's printed normalization,
# by regime; an inclusion slot U_i >= U3 carries the U3 basis.
EXT1_TABLE = {
    "a!=0": {"U1": ["1", "z", "z^2", "z^3"], "U2": ["1", "y^2"],
             "U3": ["x^2*y^-1", "1", "y^-1", "y^-2", "y^-3"]},
    "a=0": {"U1": ["1", "z", "x", "x*z"], "U2": ["1", "x"],
            "U3": ["x^2*y^-1", "1", "y^-1", "x", "x*y^-1"]},
}
COMMUTATOR = ["t1*t2 - t2*t1"]
CUPS = {"<t1*,t1*>": "0", "<t1*,t2*>": "o*", "<t2*,t1*>": "-o*", "<t2*,t2*>": "0"}
SHIPPED_DIMS = {0: 2, 1: 1}


def _rational(rng, height: int) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, height), rng.randint(1, height))


def draw_curve(rng, a_zero: bool, height: int = 19) -> tuple[Fraction, Fraction]:
    """Rational (a, b), redrawn until 4a^3 + 27b^2 != 0."""
    while True:
        a = Fraction(0) if a_zero else _rational(rng, height)
        b = _rational(rng, height)
        if 4 * a**3 + 27 * b**2 != 0:
            return a, b


def curve_inputs(seed: int, count: int) -> list[tuple[Fraction, Fraction]]:
    """Every fourth curve has a = 0, so each stretch of four mixes regimes."""
    rng = random.Random(seed)
    return [draw_curve(rng, a_zero=(k % 4 == 0)) for k in range(count)]


def describe_curve(inp) -> str:
    return f"a={inp[0]} b={inp[1]}"


def run_cli(argv: list[str], workdir: Path) -> str:
    """The JSON report of ``ncdef <argv>`` run in `workdir`. Input files are
    named relative to `workdir`, so its path stays out of the report."""
    cwd, err = os.getcwd(), io.StringIO()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--format", "json", "--out", "report.json"])
        if code != 0:
            raise RuntimeError(f"ncdef {argv[0]} exited {code}: {err.getvalue().strip()}")
        return Path("report.json").read_text(encoding="utf-8")
    finally:
        os.chdir(cwd)


def _expect(problems: list, what: str, got, wanted) -> None:
    if got != wanted:
        problems.append(f"{what}: got {got!r}, expected {wanted!r}")


def _curve_checks(problems: list, payload: dict, a, b) -> str:
    regime = "a=0" if a == 0 else "a!=0"
    _expect(problems, "input", (payload["input"]["a"], payload["input"]["b"]),
            (str(a), str(b)))
    _expect(problems, "discriminant", payload["discriminant"], str(4 * a**3 + 27 * b**2))
    _expect(problems, "regime", payload["regime"], regime)
    return regime


class Pipeline:
    """``ncdef elliptic``: the full pipeline and its JSON report."""

    name = "pipeline"

    def __init__(self, seed: int, count: int = 12, hull_order: int = 4):
        self.hull_order = hull_order
        self.inputs = curve_inputs(seed, count)

    describe = staticmethod(describe_curve)

    def op(self, inp) -> str:
        a, b = inp
        report = elliptic.run_full_pipeline(elliptic.build(a, b), hull_order=self.hull_order)
        return report.render("json")

    def check(self, inp, text: str) -> list[str]:
        problems: list[str] = []
        payload = json.loads(text)
        regime = _curve_checks(problems, payload, *inp)
        table = EXT1_TABLE[regime]
        _expect(problems, "ext1_bases", payload["ext1_bases"], {
            "U1 >= U1": table["U1"], "U2 >= U2": table["U2"], "U3 >= U3": table["U3"],
            "U1 >= U3": table["U3"], "U2 >= U3": table["U3"],
        })
        # de Rham: HH^n = H^n_dR = (1, 2, 1) for an elliptic curve
        _expect(problems, "HH dims", payload["cohomology"]["dims"],
                {"HH0": 1, "HH1": 2, "HH2": 1})
        _expect(problems, "cup products", payload.get("cup_products"), CUPS)
        hull = payload["hull"]
        _expect(problems, "relations", hull["relations"], COMMUTATOR)
        _expect(problems, "radical dims", hull["dims_by_radical_degree"],
                list(range(1, self.hull_order + 1)))
        _expect(problems, "verdicts", payload["verdicts"], {
            "first_order_certified": True, "hull_versal_zero_defect": True,
            "exp_datum_zero_defect": True,
        })
        return problems


class Hull:
    """``ncdef hull``: the obstruction tower alone, with its versal check."""

    name = "hull"

    def __init__(self, seed: int, workdir: Path, count: int = 4, order: int = 7):
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir, self.order = workdir, order
        self.inputs = curve_inputs(seed, count)
        self.configs = {}
        for k, (a, b) in enumerate(self.inputs):
            name = f"hull-{k}.json"
            config = {"schema": "ncdef-hull/1", "kind": "elliptic",
                      "a": str(a), "b": str(b), "hull_order": order}
            (workdir / name).write_text(json.dumps(config), encoding="utf-8")
            self.configs[a, b] = name

    describe = staticmethod(describe_curve)

    def op(self, inp) -> str:
        return run_cli(["hull", self.configs[inp]], self.workdir)

    def check(self, inp, text: str) -> list[str]:
        problems: list[str] = []
        payload = json.loads(text)
        _curve_checks(problems, payload, *inp)
        hull = payload["hull"]
        n = self.order
        _expect(problems, "relations", hull["relations"], COMMUTATOR)
        # k<<t1,t2>>/(t1 t2 - t2 t1) cut at I^n is k[t1,t2]/m^n
        _expect(problems, "hull dim", hull["dim"], n * (n + 1) // 2)
        _expect(problems, "radical dims", hull["dims_by_radical_degree"], list(range(1, n + 1)))
        _expect(problems, "zero defect", payload["verdicts"]["hull_versal_zero_defect"], True)
        return problems


def differential_cells(base, functor) -> int:
    """Sum of rows * cols of the normalized differentials d0, d1 (p_max = 2),
    counted from the chains without building the complex."""
    arrows = [m for m in base.morphisms.values() if not base.is_identity(m.name)]
    dim0 = sum(functor.dims[base.identity[o]] for o in base.objects)
    dim1 = sum(functor.dims[f.name] for f in arrows)
    dim2 = sum(functor.dims[base.compose(f.name, g.name)]
               for f in arrows for g in arrows if f.tgt == g.src)
    return dim1 * dim0 + dim2 * dim1


def draw_diagram(rng, objects: tuple[int, int]):
    """A random hom functor on a poset of objects[0]..objects[1] objects,
    each pair related with probability 1/2."""
    n = rng.randint(*objects)
    names = [f"P{i}" for i in range(n)]
    relations = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
    base = diagrams.FiniteCategory.poset(names, relations)
    return base, synthetic.random_hom_functor(base, rng)


def draw_diagrams(rng, count: int, objects: tuple[int, int],
                  cells: tuple[int, int]) -> list:
    """The first `count` seeded draws whose normalized differentials have
    between cells[0] and cells[1] cells."""
    out = []
    while len(out) < count:
        base, functor = draw_diagram(rng, objects)
        if cells[0] <= differential_cells(base, functor) <= cells[1]:
            out.append((base, functor))
    return out


class Cohomology:
    """``ncdef cohomology`` on seeded synthetic diagrams plus the shipped
    Ext^1 diagram of the elliptic curve at (1, 1).

    An op's time grows about linearly with the differentials' cells, so the
    narrow cell range keeps one seed's mean op cost within a few per cent of
    another's (15k-45k let it differ by up to a quarter), at about 130
    draws per set-up."""

    name = "cohomology"

    def __init__(self, seed: int, workdir: Path, example: Path, count: int = 20,
                 objects: tuple[int, int] = (8, 10),
                 cells: tuple[int, int] = (24_000, 36_000)):
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        shutil.copy(example, workdir / example.name)
        self.inputs = [example.name]
        for k, (base, functor) in enumerate(
                draw_diagrams(random.Random(seed), count, objects, cells)):
            name = f"diagram-{seed}-{k:02d}.json"
            diagram_io.dump_functor(base, functor, workdir / name)
            self.inputs.append(name)
        self._expected: dict[str, dict[int, int]] = {}

    @staticmethod
    def describe(name: str) -> str:
        return name

    def op(self, name: str) -> str:
        return run_cli(["cohomology", name], self.workdir)

    def expected(self, name: str) -> dict[int, int]:
        """Dims of the non-normalized complex (the shipped example: {0: 2, 1: 1})."""
        if name == self.inputs[0]:
            return SHIPPED_DIMS
        if name not in self._expected:
            base, functor = diagram_io.load_functor(self.workdir / name)
            rc = diagrams.build_resolving_complex(base, functor, normalized=False, p_max=2)
            self._expected[name] = {p: rc.cohomology(p).dim for p in range(2)}
        return self._expected[name]

    def check(self, name: str, text: str) -> list[str]:
        problems: list[str] = []
        run = json.loads(text)["cohomology_run"]
        _expect(problems, "dims", {int(p): d["dim"] for p, d in run.items()},
                self.expected(name))
        return problems
