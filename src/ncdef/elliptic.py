"""The elliptic-curve D-module configuration and the end-to-end pipeline.

Charts for the plane cubic y^2 z = x^3 + a x z^2 + b z^3 with nonzero
discriminant: two affine pieces and their intersection (one inverted
variable), each with the generating derivation of its tangent module, plus
the restriction maps gluing them over the three-object cover poset. The
pipeline computes the Ext^1 tables, the global cohomology, the cup products
and the pro-representing hull, and certifies the closed-form exponential
family over the hull.

The configuration's tables only choose bases, in the paper's printed
normalization: the Ext^1 representative monomials per chart, the two H^0
classes and the H^1 class. The engine certifies each choice and derives
everything else, the restriction corrections tau among them.
"""

from __future__ import annotations

import time
from fractions import Fraction

from .algebra import AlgebraMorphism, Derivation, PresentedAlgebra
from .cokernels import D_START, ChartData
from .diagrams import FiniteCategory
from .engine import DeformationDatum, EngineContext, EngineError, TensorElement
from .matric import quotient
from .report import Report

U1, U2, U3 = "U1", "U2", "U3"
INCL_13 = "U1>U3"
INCL_23 = "U2>U3"


class SingularCurve(ValueError):
    def __init__(self, a, b):
        super().__init__(f"singular curve: discriminant = 0 at (a, b) = ({a}, {b})")


class EllipticConfig:
    """Charts, derivations, restrictions and cover poset for one (a, b)."""

    def __init__(self, a, b, poset, charts, restrictions):
        self.a = a
        self.b = b
        self.discriminant = 4 * a**3 + 27 * b**2
        self.poset = poset
        self.charts = charts
        self.restrictions = restrictions

    @property
    def a_is_zero(self) -> bool:
        return self.a == 0

    @property
    def regime(self) -> str:
        return "a=0" if self.a_is_zero else "a!=0"

    # -- the basis choices, certified downstream --------------------------------

    def ext_basis_strings(self):
        """Preferred cokernel representative monomials per chart; each is kept
        only after the presentation proves it independent modulo the image."""
        if not self.a_is_zero:
            return {
                U1: ["1", "z", "z^2", "z^3"],
                U2: ["1", "y^2"],
                U3: ["x^2*y^-1", "1", "y^-1", "y^-2", "y^-3"],
            }
        return {
            U1: ["1", "z", "x", "x*z"],
            U2: ["1", "x"],
            U3: ["x^2*y^-1", "1", "y^-1", "x", "x*y^-1"],
        }

    def tangent_rep_strings(self):
        """Two H^0 classes, one xi per chart each: the tangent basis."""
        disc = self.discriminant
        if not self.a_is_zero:
            xi2 = {U1: f"{disc}*z^2", U2: "15*y^2", U3: f"{disc}*y^-2"}
        else:
            xi2 = {U1: f"{-3 * self.b}*x*z", U2: "x", U3: "x"}
        return [{U1: "1", U2: "1", U3: "1"}, xi2]

    def obstruction_rep_strings(self):
        """The degree-one cocycle spanning the obstruction space, supported
        on the second inclusion slot for a != 0 and the same slot for a = 0."""
        if not self.a_is_zero:
            return {INCL_13: "0", INCL_23: f"{6 * self.a}*x^2*y^-1"}
        return {INCL_13: "0", INCL_23: "x^2*y^-1"}


def build(a, b) -> EllipticConfig:
    """Construct and certify the three-chart configuration.

    Verifies the discriminant, the well-definedness of each derivation
    against its chart relation, and that both restriction maps intertwine
    the derivations on all generators.
    """
    a, b = Fraction(a), Fraction(b)
    if 4 * a**3 + 27 * b**2 == 0:
        raise SingularCurve(a, b)

    A1 = PresentedAlgebra(["x", "z"], [f"z - x^3 - {a}*x*z^2 - {b}*z^3"], name="A1")
    d1 = Derivation(A1, {"x": f"1 - {2 * a}*x*z - {3 * b}*z^2",
                         "z": f"3*x^2 + {a}*z^2"}, name="d1")
    relation2 = f"y^2 - x^3 - {a}*x - {b}"
    A2 = PresentedAlgebra(["x", "y"], [relation2], name="A2")
    d2 = Derivation(A2, {"x": "-2*y", "y": f"-3*x^2 - {a}"}, name="d2")
    A3 = PresentedAlgebra(["x", "y"], [relation2], inverted="y", name="A3")
    d3 = Derivation(A3, {"x": "-2*y", "y": f"-3*x^2 - {a}"}, name="d3")

    rho13 = AlgebraMorphism(A1, A3, {"x": "x*y^-1", "z": "y^-1"}, name="rho13")
    rho23 = AlgebraMorphism(A2, A3, {"x": "x", "y": "y"}, name="rho23")

    charts = {
        U1: ChartData(U1, A1, d1),
        U2: ChartData(U2, A2, d2),
        U3: ChartData(U3, A3, d3),
    }
    restrictions = {INCL_13: rho13, INCL_23: rho23}
    for name, rho in restrictions.items():
        src = charts[name.split(">")[0]]
        tgt = charts[name.split(">")[1]]
        for g in src.algebra.generators():
            if rho(src.derivation(g)) != tgt.derivation(rho(g)):
                raise ValueError(f"restriction {name} fails to transport the derivation")

    poset = FiniteCategory.poset([U1, U2, U3], [(U1, U3), (U2, U3)])
    return EllipticConfig(a, b, poset, charts, restrictions)


def build_context(cfg: EllipticConfig, d_max: int = 24) -> EngineContext:
    """Engine context in the configured bases, certified."""
    ctx = EngineContext.from_charts(
        cfg.poset, cfg.charts, cfg.restrictions, d_max=d_max,
        preferred_reps=cfg.ext_basis_strings(),
        tangent_rep_strings=cfg.tangent_rep_strings(),
        obstruction_rep_strings=cfg.obstruction_rep_strings(),
    )
    for obj, wanted in cfg.ext_basis_strings().items():
        got = ctx.diagram.cokernels[obj].rep_labels
        if got != wanted:
            raise EngineError(
                f"chart {obj}: certified representative basis {got} differs "
                f"from the configured table {wanted}"
            )
    return ctx


def exp_datum(ctx: EngineContext, truncation: int) -> DeformationDatum:
    """The closed-form family over k<<t1,t2>>/(t1 t2 - t2 t1) cut at I^truncation:
    first-order operator corrections plus exp(tau (x) t2) restriction
    multipliers, exact over Q (division only by factorials)."""
    from .engine import _tangent_free, _word_elem

    free = _tangent_free(len(ctx.tangent_reps), truncation)
    comm = _word_elem(free, (0, 1)) - _word_elem(free, (1, 0))
    H = quotient(free, [comm], name=f"H/m^{truncation}")
    datum = ctx.first_order_datum(H)
    extra = {}
    for name in ctx.inclusions:
        A = ctx.target_algebra_of(name)
        tau = ctx.tangent_reps[1][1][name]
        te = TensorElement(A, H)
        power = A.one()
        t2n = H.one()
        factorial = 1
        for n in range(1, truncation):
            power = power * tau
            t2n = t2n * H.generator("t2")
            factorial *= n
            if n >= 2:
                te = te + TensorElement.from_pairs(
                    A, H, [(power * Fraction(1, factorial), t2n)]
                )
        extra[name] = te
    return datum.corrected({}, extra)


_SLOT_TITLES = {
    "id:U1": "U1 >= U1", "id:U2": "U2 >= U2", "id:U3": "U3 >= U3",
    INCL_13: "U1 >= U3", INCL_23: "U2 >= U3",
}


def run_full_pipeline(cfg: EllipticConfig, hull_order: int = 4,
                      d_max: int = 24, full_complex: bool = False) -> Report:
    """The end-to-end computation: Ext^1 tables, cohomology bases, cup table,
    hull relations, and the validated exponential versal family."""
    t0 = time.perf_counter()
    ctx = build_context(cfg, d_max)
    hh = ctx.hh
    slots = cfg.poset.sorted_morphisms()

    ext1 = {}
    for name in slots:
        ck = ctx.diagram.cokernel_at(name)
        ext1[_SLOT_TITLES[name]] = list(ck.rep_labels)

    def classes_p0(vec):
        out = {}
        for name, coords in hh.full_complex_layout(0, vec):
            ck = ctx.diagram.cokernel_at(name)
            if cfg.poset.is_identity(name):
                out[_SLOT_TITLES[name]] = str(ck.class_element(coords))
        return out

    def classes_p1(vec):
        out = {}
        for name, coords in hh.full_complex_layout(1, vec):
            ck = ctx.diagram.cokernel_at(name)
            if full_complex or not cfg.poset.is_identity(name):
                out[_SLOT_TITLES[name]] = str(ck.class_element(coords))
        return out

    h0_named = {f"xi{l + 1}": classes_p0(vec)
                for l, vec in enumerate(hh.h0.representatives)}
    h1_named = {"omega": classes_p1(hh.h1.representatives[0])} if hh.h1.dim else {}

    # first-order certificate: the universal order-2 datum has zero defect
    from .engine import _tangent_free

    free2 = _tangent_free(len(ctx.tangent_reps), 2)
    first_order_ok = ctx.validate(
        ctx.first_order_datum(quotient(free2, [], name="H2"))
    ).is_zero()

    payload = {
        "schema": "ncdef/1",
        "input": {
            "a": str(cfg.a), "b": str(cfg.b),
            "hull_order": hull_order, "d_start": D_START, "dmax": d_max,
            "full_complex": bool(full_complex),
        },
        "discriminant": str(cfg.discriminant),
        "regime": cfg.regime,
        "ext1_bases": ext1,
        "cohomology": {
            "dims": {"HH0": hh.dims[0], "HH1": hh.dims[1], "HH2": hh.dims[2]},
            "degree0_classes": h0_named,
            "degree1_classes": h1_named,
        },
        "verdicts": {"first_order_certified": first_order_ok},
    }

    if hull_order >= 3:
        table = ctx.cup_table()
        if table[(1, 2)] != [Fraction(1)]:
            raise EngineError(
                "sign convention broke: <t1*, t2*> is not +o* in the configured "
                "orientation"
            )
        def cup_str(coords):
            (c,) = coords
            if c == 0:
                return "0"
            if c == 1:
                return "o*"
            if c == -1:
                return "-o*"
            return f"{c}*o*"

        payload["cup_products"] = {
            f"<t{l}*,t{m}*>": cup_str(table[(l, m)])
            for l in (1, 2) for m in (1, 2)
        }

    hull = ctx.hull_compute(hull_order)
    payload["hull"] = hull.payload()
    payload["verdicts"]["hull_versal_zero_defect"] = hull.versal_defect.is_zero()

    exp_order = hull_order + 1
    exp = exp_datum(ctx, exp_order)
    payload["versal_family"] = {
        "psi": {
            f"t{l + 1}": {obj: str(xi[obj]) for obj in cfg.poset.objects}
            for l, (xi, _tau) in enumerate(ctx.tangent_reps)
        },
        "tau": {
            f"t{l + 1}": {_SLOT_TITLES[n]: str(tau[n]) for n in ctx.inclusions}
            for l, (_xi, tau) in enumerate(ctx.tangent_reps)
        },
        "restriction_multiplier": "exp(tau_2 (x) t2)",
        "exp_series_order": exp_order,
    }
    payload["verdicts"]["exp_datum_zero_defect"] = ctx.validate(exp).is_zero()
    return Report(payload, elapsed=time.perf_counter() - t0)
