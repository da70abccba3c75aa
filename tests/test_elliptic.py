import json
import random
from fractions import Fraction

import pytest

from ncdef import elliptic
from ncdef.elliptic import INCL_13, INCL_23, U2, U3, SingularCurve
from ncdef.engine import EngineContext


@pytest.fixture(scope="module")
def ctx11():
    return elliptic.build_context(elliptic.build(1, 1))


def test_build_computes_discriminant():
    cfg = elliptic.build(1, 1)
    assert cfg.discriminant == 31
    assert cfg.regime == "a!=0"


def test_build_rejects_singular_curves():
    with pytest.raises(SingularCurve):
        elliptic.build(0, 0)
    with pytest.raises(SingularCurve):
        elliptic.build(-3, 2)  # 4*(-27) + 27*4 = 0


def test_build_accepts_rational_parameters():
    cfg = elliptic.build(Fraction(1, 2), Fraction(-1, 3))
    assert cfg.discriminant == Fraction(1, 2) + Fraction(3)  # 4/8 + 27/9
    assert cfg.regime == "a!=0"


def test_tangent_guard_accepts_seeded_curves_in_both_regimes():
    # every chart of every nonsingular cubic vanishes nowhere: the guard in
    # ChartData accepts them, with a = 0 on every fourth draw
    rng = random.Random(11)
    built = 0
    for k in range(12):
        a = Fraction(0) if k % 4 == 0 else Fraction(rng.randint(-19, 19), rng.randint(1, 19))
        b = Fraction(rng.randint(-19, 19), rng.randint(1, 19))
        if 4 * a**3 + 27 * b**2 == 0:
            continue
        for chart in elliptic.build(a, b).charts.values():
            assert chart.algebra.generates_unit_ideal(chart.derivation.images.values())
        built += 1
    assert built >= 10


def test_tangent_guard_rejects_vanishing_derivations():
    from ncdef.algebra import Derivation, PresentedAlgebra
    from ncdef.cokernels import ChartData, TangentNotGenerated

    # the cusp y^2 = x^3: its derivation vanishes at the singular point
    cusp = PresentedAlgebra(["x", "y"], ["y^2 - x^3"], name="cusp")
    with pytest.raises(TangentNotGenerated):
        ChartData("C", cusp, Derivation(cusp, {"x": "-2*y", "y": "-3*x^2"}))
    # x^2 d/dx vanishes at 0 on Q[x], but x^2 is a unit once x is inverted
    line = PresentedAlgebra(["x"], name="line")
    with pytest.raises(TangentNotGenerated):
        ChartData("L", line, Derivation(line, {"x": "x^2"}))
    punctured = PresentedAlgebra(["x"], inverted="x", name="punctured")
    ChartData("P", punctured, Derivation(punctured, {"x": "x^2"}))


def test_a_zero_branch_selected():
    cfg = elliptic.build(0, 1)
    assert cfg.regime == "a=0"
    assert cfg.ext1[U2] == ["1", "x"]


def test_derived_tau_is_certified(ctx11):
    # construction fails loudly unless the derived d(tau) = rho(xi) - xi
    # holds exactly; re-assert the identity here for the nontrivial slot
    (xi1, tau1), (xi2, tau2) = ctx11.tangent_reps
    d3 = ctx11.charts[U3].derivation
    rho23 = ctx11.restrictions[INCL_23]
    assert d3(tau2[INCL_23]) == rho23(xi2[U2]) - xi2[U3]
    assert tau2[INCL_13].is_zero()
    assert all(t.is_zero() for t in tau1.values())


def _printed_tau(a, b):
    """The paper's printed restriction corrections of the two tangent
    classes, per inclusion."""
    tau1 = {INCL_13: "0", INCL_23: "0"}
    if a:
        tau2 = {INCL_13: "0",
                INCL_23: f"{-4 * a * a}*y^-1 + {-3}*x*y + {9 * b}*x*y^-1 + {-6 * a}*x^2*y^-1"}
    else:
        tau2 = {INCL_13: "x^2*y^-1", INCL_23: "0"}
    return [tau1, tau2]


def _seeded_rational(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def _seeded_curves(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = Fraction(0) if len(out) % 3 == 2 else _seeded_rational(rng)
        b = _seeded_rational(rng)
        if 4 * a**3 + 27 * b**2:
            out.append((a, b))
    return out


@pytest.mark.parametrize("a, b", [(Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))]
                         + _seeded_curves(20261018, 3), ids=str)
def test_derived_tau_and_xi_match_the_printed_tables(a, b):
    # the engine derives tau from the configured H^0 classes; the paper's
    # printed formulas are the oracle
    cfg = elliptic.build(a, b)
    ctx = elliptic.build_context(cfg)
    for (xi, tau), printed_xi, printed_tau in zip(
            ctx.tangent_reps, cfg.h0, _printed_tau(a, b)):
        for obj, text in printed_xi.items():
            assert xi[obj] == ctx.algebra_of(obj).normal_form(text)
        for name, text in printed_tau.items():
            assert tau[name] == ctx.target_algebra_of(name).normal_form(text)


@pytest.mark.parametrize("ab", [(2, 3), (Fraction(1, 2), Fraction(-1, 3))])
def test_generic_tables_certify_at_other_rational_points(ab):
    # the representative formulas are generic in (a, b) for a != 0; the
    # context constructor proves them at each parameter or raises
    ctx = elliptic.build_context(elliptic.build(*ab))
    assert ctx.hh.dims == (1, 2, 1)


def test_omega_is_a_nonzero_class_in_both_regimes():
    for a, b in ((1, 1), (0, 1)):
        cfg = elliptic.build(a, b)
        ctx = elliptic.build_context(cfg)
        vec = ctx.hh.cochain(1, cfg.h1)
        coords = ctx.hh.h1.class_coords(vec)
        assert coords == [1]  # omega is the installed basis vector itself


def test_pipeline_report_a_nonzero(monkeypatch):
    validated, hulls = [], []
    real_validate = EngineContext.validate
    real_hull = EngineContext.hull_compute

    def counting_validate(self, datum):
        validated.append(datum)
        return real_validate(self, datum)

    def keeping_hull(self, max_order):
        hulls.append(real_hull(self, max_order))
        return hulls[-1]

    monkeypatch.setattr(EngineContext, "validate", counting_validate)
    monkeypatch.setattr(EngineContext, "hull_compute", keeping_hull)
    report = elliptic.run_full_pipeline(elliptic.build(1, 1), hull_order=4)
    assert report.elapsed < 60
    # 5 in the hull tower (the first-order datum, then per step the naive
    # lift and the corrected lift) and the exp datum: the first-order
    # verdict, the cup table and the verdict on the versal datum all read
    # the one tower
    assert len(validated) == 6
    (hull,) = hulls
    assert hull.versal_defect.is_zero()
    assert validated.count(hull.versal_datum) == 1
    p = report.payload
    assert p["cohomology"]["dims"] == {"HH0": 1, "HH1": 2, "HH2": 1}
    assert p["hull"]["relations"] == ["t1*t2 - t2*t1"]
    assert p["hull"]["new_relations_by_order"] == {
        "3": ["t1*t2 - t2*t1"], "4": []
    }
    assert p["cup_products"]["<t1*,t2*>"] == "o*"
    assert p["cup_products"]["<t2*,t1*>"] == "-o*"
    assert all(p["verdicts"].values())
    assert p["versal_family"]["exp_series_order"] == 5


def test_pipeline_report_a_zero():
    report = elliptic.run_full_pipeline(elliptic.build(0, 1), hull_order=4)
    p = report.payload
    assert p["cohomology"]["dims"] == {"HH0": 1, "HH1": 2, "HH2": 1}
    assert p["hull"]["relations"] == ["t1*t2 - t2*t1"]
    assert all(p["verdicts"].values())


def test_pipeline_order_two_stops_at_tangent_level():
    report = elliptic.run_full_pipeline(elliptic.build(1, 1), hull_order=2)
    p = report.payload
    assert "cup_products" not in p
    assert p["hull"]["relations"] == []
    assert p["verdicts"]["first_order_certified"]
    assert p["verdicts"]["hull_versal_zero_defect"]


def test_full_complex_layout_flag():
    report = elliptic.run_full_pipeline(
        elliptic.build(1, 1), hull_order=2, full_complex=True
    )
    omega = report.payload["cohomology"]["degree1_classes"]["omega"]
    assert list(omega) == [
        "U1 >= U1", "U2 >= U2", "U3 >= U3", "U1 >= U3", "U2 >= U3"
    ]
    assert omega["U1 >= U1"] == "0"
    assert omega["U2 >= U3"] == "6*x^2*y^-1"


def test_report_json_is_deterministic_and_parses():
    r1 = elliptic.run_full_pipeline(elliptic.build(1, 1), hull_order=3)
    r2 = elliptic.run_full_pipeline(elliptic.build(1, 1), hull_order=3)
    assert r1.to_json() == r2.to_json()
    parsed = json.loads(r1.to_json())
    assert parsed["schema"] == "ncdef/1"
    assert "timing" not in parsed
    assert r1.to_markdown() == r2.to_markdown()


def test_markdown_renders_paper_tables():
    md = elliptic.run_full_pipeline(elliptic.build(1, 1), hull_order=3).to_markdown()
    assert "| U1 >= U1 | 1, z, z^2, z^3 |" in md
    assert "| U3 >= U3 | x^2*y^-1, 1, y^-1, y^-2, y^-3 |" in md
    assert "xi2 = (31*z^2, 15*y^2, 31*y^-2)" in md
    assert "omega" in md and "6*x^2*y^-1" in md
