import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from ncdef import elliptic
from ncdef.cokernels import CokernelPresentation
from ncdef.diagram_io import Curve
from ncdef.elliptic import INCL_13, INCL_23, U1, U2, U3
from ncdef.engine import (
    DeformationDatum,
    EngineContext,
    EngineError,
    TensorElement,
    UnsupportedDefect,
)
from ncdef.matric import MatricMorphism, SmallSurjection, quotient
from ncdef.tower import tangent_free
from helpers import identity_morphism
from oracles import tangent_dimension_check

EXAMPLES = Path(__file__).resolve().parents[1] / "docs" / "examples"


def make_context(a, b):
    cfg = elliptic.build(a, b)
    return EngineContext.from_charts(
        cfg.poset, cfg.charts, cfg.restrictions,
        preferred_reps=cfg.ext1,
        tangent_rep_strings=cfg.h0,
        obstruction_rep_strings=cfg.h1,
    )


@pytest.fixture(scope="module")
def ctx11():
    return make_context(1, 1)


@pytest.fixture(scope="module")
def ctx01():
    return make_context(0, 1)


@pytest.fixture(scope="module")
def ctx_seeded():
    return make_context(*_seeded_curve(20261022, a_zero=False))


def h2_base(r=2):
    free = tangent_free(r, 2)
    return quotient(free, [], name="H2")


def m3_base(r=2):
    free = tangent_free(r, 3)
    return quotient(free, [], name="T/m^3")


def words_of_length_two(free):
    gens = free.generator_elements
    return [s * t for s in gens for t in gens]


def commutator(free):
    t1, t2 = free.generator_elements
    return t1 * t2 - t2 * t1


# --- A (x) R arithmetic --------------------------------------------------------


def _random_chart_element(rng, A):
    monos = A.nf_monomials(3)
    return A.normal_form({m: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                          for m in rng.sample(monos, 3)})


def _random_base_element(rng, R):
    return R.element({w: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                      for w in rng.sample(R.free.basis, 4)})


def test_tensor_arithmetic_matches_its_definitions(ctx11):
    # over the noncommutative T/m^4, (a (x) r) * (b (x) s) = ab (x) rs and
    # the chart maps act on the left factor only; the right-hand sides use
    # chart-ring and base products, never a product of tensor elements
    rng = random.Random(20261018)
    R = quotient(tangent_free(2, 4), [], name="T/m^4")
    name = INCL_13
    i, j = ctx11.endpoints(name)
    A_i, A_j = ctx11.algebra_of(i), ctx11.algebra_of(j)
    rho, d_i = ctx11.restrictions[name], ctx11.charts[i].derivation

    def te(x, y):
        return TensorElement.from_pairs(A_i, R, [(x, y)])

    saw_noncommuting = False
    for _ in range(6):
        a, b, a2, b2 = (_random_chart_element(rng, A_i) for _ in range(4))
        r, s, r2, s2 = (_random_base_element(rng, R) for _ in range(4))
        saw_noncommuting |= R.multiply(r, s) != R.multiply(s, r)
        assert te(a, r) * te(b, s) == te(a * b, R.multiply(r, s))
        assert (te(a, r) + te(a2, r2)) * (te(b, s) + te(b2, s2)) == (
            te(a, r) * te(b, s) + te(a, r) * te(b2, s2)
            + te(a2, r2) * te(b, s) + te(a2, r2) * te(b2, s2)
        )
        assert te(a, r).map_coefficients(d_i) == te(d_i(a), r)
        assert te(a, r).map_coefficients(rho, A_j) == TensorElement.from_pairs(
            A_j, R, [(rho(a), r)]
        )
    assert saw_noncommuting


def test_rebase_section_rejects_words_outside_the_new_base(ctx11):
    base = m3_base()
    A = ctx11.algebra_of(U1)
    t1t2 = base.generator("t1") * base.generator("t2")
    te = TensorElement.from_pairs(A, base, [(A.generator("x"), t1t2)])
    with pytest.raises(EngineError, match="is not a base basis word"):
        te.rebase_section(h2_base())


# --- validation -------------------------------------------------------------


def test_trivial_datum_has_zero_defect(ctx11):
    base = m3_base()
    assert ctx11.validate(DeformationDatum(ctx11, base, {}, {})).is_zero()


def test_first_order_datum_validates_both_regimes(ctx11, ctx01):
    for ctx in (ctx11, ctx01):
        datum = ctx.first_order_datum(h2_base())
        assert ctx.validate(datum).is_zero()


@pytest.mark.parametrize("make", [lambda: make_context(1, 1), lambda: make_context(0, 1),
                                  lambda: _refined_context()],
                         ids=["a1_b1", "a0_b1", "refined"])
def test_multiplier_form_holds_on_certified_charts(make):
    # validate evaluates no multiplier identity: map_coefficients(d) is a
    # derivation of A (x) R, so for a unit U = 1 + tau the identity
    # U rho(d_i g) = d_j(U rho(g)) - d_j(U) rho(g) is the intertwining
    # rho(d_i g) = d_j(rho(g)) that the diagram certifies at load
    ctx = make()
    base = m3_base()
    one = base.one()
    rng = random.Random(20261023)

    def random_tensor(A, radical):
        words = base.free.radical_words() if radical else base.free.basis
        pairs = [(_random_chart_element(rng, A),
                  base.element({w: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                for w in rng.sample(words, 3)}))
                 for _ in range(2)]
        return TensorElement.from_pairs(A, base, pairs)

    for chart in ctx.charts.values():
        A, d = chart.algebra, chart.derivation
        for _ in range(3):
            a, b = random_tensor(A, False), random_tensor(A, False)
            assert (a * b).map_coefficients(d) == (
                a.map_coefficients(d) * b + a * b.map_coefficients(d)
            )
    for name in ctx.inclusions:
        i, j = ctx.endpoints(name)
        A_j, rho = ctx.algebra_of(j), ctx.restrictions[name]
        d_i, d_j = ctx.charts[i].derivation, ctx.charts[j].derivation
        for _ in range(3):
            U = TensorElement.unit(A_j, base) + random_tensor(A_j, True)
            dU = U.map_coefficients(d_j)
            for gen in ctx.algebra_of(i).generators():
                rho_g = TensorElement.from_pairs(A_j, base, [(rho(gen), one)])
                rho_dg = TensorElement.from_pairs(A_j, base, [(rho(d_i(gen)), one)])
                assert U * rho_dg == (U * rho_g).map_coefficients(d_j) - dU * rho_g


def test_naive_second_order_defect_is_commutator_shaped(ctx11):
    # over T/m^3, adding the square/2 restriction term leaves exactly the
    # commutator defect -tau (x) (t1*t2 - t2*t1) on the deformed inclusion
    base = m3_base()
    datum = ctx11.first_order_datum(base)
    A3 = ctx11.algebra_of(U3)
    tau = ctx11.tangent_reps[1][1][INCL_23]
    half_sq = tau * tau * Fraction(1, 2)
    t2sq = base.generator("t2") * base.generator("t2")
    datum = datum.corrected(
        {}, {INCL_23: TensorElement.from_pairs(A3, base, [(half_sq, t2sq)])}
    )
    defect = ctx11.validate(datum)
    expected = TensorElement.from_pairs(A3, base, [(-tau, base.reduce(commutator(base.free)))])
    assert defect.d11[INCL_23] == expected
    assert defect.d11[INCL_13].is_zero()


def test_second_order_obstruction_class_is_commutator(ctx11):
    base = m3_base()
    Rp = base
    H2 = quotient(base.free, words_of_length_two(base.free), name="H2")
    surj = SmallSurjection(Rp, H2)
    datum = ctx11.first_order_datum(Rp)
    obst = ctx11.obstruction_class(ctx11.validate(datum), surj)
    assert not obst.is_zero()
    (row,) = obst.rows()
    from ncdef.tower import _normalize_relation

    assert str(_normalize_relation(row)) == "t1*t2 - t2*t1"
    # the witness leaves only the class, which T/(b + commutator) kills
    H3 = quotient(base.free, [commutator(base.free)], name="H3")
    corrected = datum.corrected(obst.witness.E, obst.witness.W)
    assert not ctx11.validate(corrected).is_zero()
    assert ctx11.validate(corrected.push(_word_images(Rp, H3), H3)).is_zero()


@pytest.mark.parametrize("order", [3, 4])
def test_obstruction_class_reduces_each_kernel_component_once(ctx11, monkeypatch, order):
    # the witness is read off coordinates: one reduce per nonzero kernel
    # component of the defect, none for the residual the correction leaves
    datum, Rp, H, _H_next = _last_tower_step(ctx11, order)
    surj = SmallSurjection(Rp, H)
    defect = ctx11.validate(datum.rebase_section(Rp))
    nonzero = sum(not a.is_zero() for name in ctx11.inclusions
                  for a in ctx11.kernel_components(defect.d11[name], surj))
    assert nonzero > 0
    calls = []
    real = CokernelPresentation.reduce

    def counted(self, e):
        calls.append(e)
        return real(self, e)

    monkeypatch.setattr(CokernelPresentation, "reduce", counted)
    ctx11.obstruction_class(defect, surj)
    assert len(calls) == nonzero


def test_kernel_components_reject_a_defect_outside_a_tensor_k(ctx11):
    # along T/m^3 -> H2 the kernel is spanned by the words of length 2
    base = m3_base()
    H2 = quotient(base.free, words_of_length_two(base.free), name="H2")
    surj = SmallSurjection(base, H2)
    A = ctx11.algebra_of(U1)
    t1, t2 = base.generator("t1"), base.generator("t2")
    inside = TensorElement.from_pairs(A, base, [(A.generator("x"), t1 * t2 - t2 * t2)])
    rebuilt = TensorElement(A, base)
    for a, kappa in zip(ctx11.kernel_components(inside, surj), surj.kernel_basis):
        rebuilt = rebuilt + TensorElement.from_pairs(A, base, [(a, kappa)])
    assert rebuilt == inside
    outside = inside + TensorElement.from_pairs(A, base, [(A.one(), t1)])
    with pytest.raises(UnsupportedDefect, match=re.escape("defect does not lie in A (x) K")):
        ctx11.kernel_components(outside, surj)


def test_zero_defect_gives_zero_class_and_zero_witness(ctx11):
    free = tangent_free(2, 2)
    R = quotient(free, [], name="R")
    kp = quotient(free, [free.generator("t1"), free.generator("t2")], name="k")
    surj = SmallSurjection(R, kp)
    obst = ctx11.obstruction_class(ctx11.validate(DeformationDatum(ctx11, R, {}, {})), surj)
    assert obst.is_zero()
    assert obst.witness.is_zero()


def test_obstruction_vanishes_after_quotienting_by_commutator(ctx11):
    free = tangent_free(2, 3)
    H3 = quotient(free, [commutator(free)], name="H3")
    H2 = quotient(free, words_of_length_two(free), name="H2")
    surj = SmallSurjection(H3, H2)
    datum = ctx11.first_order_datum(H3)
    obst = ctx11.obstruction_class(ctx11.validate(datum), surj)
    assert obst.is_zero()
    corrected = datum.corrected(obst.witness.E, obst.witness.W)
    assert ctx11.validate(corrected).is_zero()


def _word_images(source, target):
    """The projection of two quotients of one free algebra, on basis words."""
    return {w: target.element({w: 1}) for w in source.qbasis}.__getitem__


def _last_tower_step(ctx, order):
    """The datum, T/b -> H and the next hull H' of the tower's step to
    ``order``, rebuilt from the public API."""
    before, after = ctx.hull_compute(order - 1), ctx.hull_compute(order)
    free = after.hull.free
    a = [free.element(g.coeffs) for g in before.hull.ideal_basis()]
    a += [free.element({w: 1}) for w in free.radical_words(order - 1)]
    b = [p for g in a for t in free.generator_elements for p in (t * g, g * t) if not p.is_zero()]
    return before.versal_datum, quotient(free, b), quotient(free, a), after.hull


def _refined_context():
    doc = json.loads((EXAMPLES / "elliptic_a1_b1_refined_curve.json").read_text())
    return elliptic.build_context(Curve(doc))


@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("make", [lambda: make_context(1, 1), lambda: make_context(0, 1),
                                  _refined_context], ids=["a1_b1", "a0_b1", "refined"])
def test_witness_pushes_to_the_witness_of_the_lift(make, order):
    # naturality: the one class along T/b -> H, with its witness pushed to
    # H', agrees with the zero class of the lift along H' -> H and its witness
    ctx = make()
    datum, Rp, H, H_next = _last_tower_step(ctx, order)
    lift = datum.rebase_section(Rp)
    obst = ctx.obstruction_class(ctx.validate(lift), SmallSurjection(Rp, H))
    assert all(H_next.in_ideal(row) for row in obst.rows())
    lifted = datum.rebase_section(H_next)
    old = ctx.obstruction_class(ctx.validate(lifted), SmallSurjection(H_next, H))
    assert old.is_zero()
    push = _word_images(Rp, H_next)
    for new_part, old_part in ((obst.witness.E, old.witness.E), (obst.witness.W, old.witness.W)):
        assert new_part.keys() == old_part.keys()
        for key, te in new_part.items():
            assert te.push(push, H_next) == old_part[key], key
    corrected = lifted.corrected(old.witness.E, old.witness.W)
    assert ctx.validate(corrected).is_zero()


# --- cup products ------------------------------------------------------------


@pytest.mark.parametrize("fixture", ["ctx11", "ctx01", "ctx_seeded"])
def test_cup_table(fixture, request):
    ctx = request.getfixturevalue(fixture)
    table = ctx.cup_table()
    c12 = table[(1, 2)]
    c21 = table[(2, 1)]
    assert table[(1, 1)] == [0]
    assert table[(2, 2)] == [0]
    assert len(c12) == 1 and abs(c12[0]) == 1
    assert c21[0] == -c12[0]


def test_cup_bilinearity_under_rescaling(ctx11):
    # rescaling the second tangent representative by 3 rescales <2,1> by 3
    scaled_reps = []
    for l, (xi, tau) in enumerate(ctx11.tangent_reps):
        scale = 3 if l == 1 else 1
        scaled_reps.append((
            {o: xi[o] * scale for o in xi},
            {n: tau[n] * scale for n in tau},
        ))
    ctx_scaled = EngineContext(ctx11.diagram, ctx11.hh, scaled_reps)
    plain = ctx11.cup_table()[(2, 1)]
    scaled = ctx_scaled.cup_table()[(2, 1)]
    assert scaled == [3 * c for c in plain]


# --- the hull ---------------------------------------------------------------


@pytest.mark.parametrize("fixture", ["ctx11", "ctx01"])
def test_hull_is_commutator_relation_only(fixture, request):
    ctx = request.getfixturevalue(fixture)
    result = ctx.hull_compute(4)
    assert result.relation_strings() == ["t1*t2 - t2*t1"]
    assert result.new_relations_by_order[3] == ["t1*t2 - t2*t1"]
    assert result.new_relations_by_order[4] == []
    assert ctx.validate(result.versal_datum).is_zero()
    # commutativization of the hull is the commutative power series pattern
    from ncdef.matric import commutativization

    hc = commutativization(result.hull)
    assert hc.radical_dims_by_order() == [1, 2, 3, 4]
    assert hc.dim == result.hull.dim  # the hull is already commutative here


def _seeded_curve(seed, a_zero):
    """A seeded nonsingular rational (a, b), with a = 0 if asked."""
    rng = random.Random(seed)

    def rational():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))

    while True:
        a = Fraction(0) if a_zero else rational()
        b = rational()
        if 4 * a**3 + 27 * b**2:
            return a, b


@pytest.mark.parametrize("a, b", [
    (Fraction(1), Fraction(1)),
    _seeded_curve(20261018, a_zero=False),
    _seeded_curve(20261019, a_zero=False),
    _seeded_curve(20261020, a_zero=True),
], ids=str)
def test_hull_independent_of_representative_choices(a, b):
    # with self-computed tangent classes and witness-derived restriction
    # corrections (no configured tables at all), the global dimensions are
    # de Rham's (1, 2, 1) and the hull relation is still the commutator: a
    # linear change of tangent basis only rescales it
    cfg = elliptic.build(a, b)
    for preferred in (cfg.ext1, None):
        ctx = EngineContext.from_charts(
            cfg.poset, cfg.charts, cfg.restrictions, preferred_reps=preferred,
        )
        assert ctx.hh.dims == (1, 2, 1)
        result = ctx.hull_compute(4)
        assert result.relation_strings() == ["t1*t2 - t2*t1"]
        assert ctx.validate(result.versal_datum).is_zero()


def test_hull_order_five_keeps_the_same_relations(ctx11):
    result = ctx11.hull_compute(5)
    assert result.relation_strings() == ["t1*t2 - t2*t1"]
    assert result.new_relations_by_order[5] == []
    assert ctx11.validate(result.versal_datum).is_zero()
    # the truncated hull has the commutative power-series growth pattern
    assert result.hull.radical_dims_by_order() == [1, 2, 3, 4, 5]


def test_hull_step_closes_its_relations_once_they_repeat(ctx11, monkeypatch):
    # each step closes one ideal from the free algebra T, that of T/b; H
    # re-presented and the next hull are further quotients of T/b. T/b{n}
    # closes from t*r and r*t over the rows r that H{n} was built from, the
    # generators of step n - 1's next hull: none at n = 2, then 2 * 2
    # products of the one commutator
    from ncdef import tower
    from ncdef.matric import MatricArtin

    closures, gens_of = [], {}
    real = tower.quotient

    def recording(base, gens, name="R"):
        closure = (base.name if isinstance(base, MatricArtin) else "T", name)
        closures.append(closure)
        gens_of[closure] = list(gens)
        return real(base, gens, name=name)

    monkeypatch.setattr(tower, "quotient", recording)
    result = ctx11.hull_compute(8)
    assert result.relation_strings() == ["t1*t2 - t2*t1"]
    assert closures == [("T", "H2")] + [
        closure for n in range(2, 8)
        for closure in (("T", f"T/b{n}"), (f"T/b{n}", f"H{n}"), (f"T/b{n}", f"H{n + 1}"))]
    assert sum(base == "T" for base, _name in closures) == 7
    assert [len(gens_of["T", f"T/b{n}"]) for n in range(2, 8)] == [0, 4, 4, 4, 4, 4]
    for n in range(3, 8):
        seeds = gens_of["T", f"T/b{n}"]
        free = seeds[0].parent
        rows = [free.element(g.coeffs) for g in gens_of[f"T/b{n - 1}", f"H{n}"]]
        assert [str(row) for row in rows] == ["t1*t2 - t2*t1"]
        assert seeds == [p for row in rows for t in free.generator_elements
                         for p in (t * row, row * t)]


def test_hull_never_reads_an_ideal_echelon(ctx11, monkeypatch):
    # the tower carries its hull as rows; only SmallSurjection, inside
    # matric, still reads a target's ideal basis
    import sys

    from ncdef.matric import MatricArtin

    real = MatricArtin.ideal_basis

    def guarded(self):
        if sys._getframe(1).f_globals["__name__"] != "ncdef.matric":
            raise AssertionError("ideal_basis called outside matric")
        return real(self)

    monkeypatch.setattr(MatricArtin, "ideal_basis", guarded)
    result = ctx11.hull_compute(6)
    assert result.relation_strings() == ["t1*t2 - t2*t1"]
    assert result.versal_defect.is_zero()


@pytest.mark.parametrize("a, b", [(Fraction(1), Fraction(1)),
                                  _seeded_curve(20261023, a_zero=True)], ids=str)
def test_hull_order_eight_keeps_the_commutator_tower(a, b):
    # six steps, each re-presenting the previous hull in its own truncation
    result = make_context(a, b).hull_compute(8)
    comm = ["t1*t2 - t2*t1"]
    assert result.relation_strings() == comm
    assert result.new_relations_by_order == {3: comm, 4: [], 5: [], 6: [], 7: [], 8: []}
    assert result.hull.radical_dims_by_order() == [1, 2, 3, 4, 5, 6, 7, 8]
    assert result.hull.dim == 36
    assert result.versal_defect.is_zero()
    assert result.first_defect.is_zero()


def _drop_tau(real):
    def first_order_datum(self, base):
        datum = real(self, base)
        return datum.corrected({}, {n: datum.tau[n].scale(-1) for n in datum.tau})
    return first_order_datum


def _rows_after_the_first(real):
    calls = []

    def rows(self):
        calls.append(self)
        return real(self) if len(calls) == 1 else []
    return rows


@pytest.mark.parametrize("target, mutate, error", [
    ("EngineContext.first_order_datum", _drop_tau,
     "the first-order datum fails to validate"),
    ("ObstructionClass.rows", lambda real: lambda self: [],
     "corrected datum fails to validate at order 3"),
    ("ObstructionClass.rows", _rows_after_the_first,
     "tower coherence fails at order 4"),
    ("DeformationDatum.corrected", lambda real: lambda self, E, W: self,
     "corrected datum fails to validate at order 3"),
], ids=["first-order", "zero-obstruction", "coherence", "zero-defect"])
def test_hull_certifications_raise(ctx11, monkeypatch, target, mutate, error):
    from ncdef import engine

    cls, attr = target.split(".")
    monkeypatch.setattr(getattr(engine, cls), attr, mutate(getattr(getattr(engine, cls), attr)))
    with pytest.raises(EngineError, match=re.escape(error)):
        ctx11.hull_compute(4)


def test_hull_order_two_stops_at_tangent_level(ctx11):
    result = ctx11.hull_compute(2)
    assert result.relations == []
    assert result.hull.dim == 3
    assert result.versal_defect.is_zero()
    assert result.first_defect is result.versal_defect
    assert result.cup_table is None
    assert ctx11.validate(result.versal_datum).is_zero()


def test_unobstructed_synthetic_hull_is_free():
    # sub-poset with only U2 >= U3 has vanishing degree-1 diagram cohomology
    cfg = elliptic.build(1, 1)
    from ncdef.diagrams import FiniteCategory

    poset = FiniteCategory.poset([U2, U3], [(U2, U3)])
    charts = {U2: cfg.charts[U2], U3: cfg.charts[U3]}
    restrictions = {INCL_23: cfg.restrictions[INCL_23]}
    pref = cfg.ext1
    ctx = EngineContext.from_charts(
        poset, charts, restrictions,
        preferred_reps={U2: pref[U2], U3: pref[U3]},
    )
    assert ctx.hh.h1.dim == 0
    assert ctx.hh.h0.dim == 2
    result = ctx.hull_compute(4)
    assert result.relations == []
    free_dim = 1 + 2 + 4 + 8
    assert result.hull.dim == free_dim
    assert ctx.validate(result.versal_datum).is_zero()


def test_exp_datum_validates_over_the_hull(ctx11):
    # the closed-form exponential family over k<<t1,t2>>/(t1t2 - t2t1), cut at
    # order five, has zero defect
    free = tangent_free(2, 5)
    H = quotient(free, [commutator(free)], name="H")
    datum = ctx11.first_order_datum(H)
    extra = {}
    for name in ctx11.inclusions:
        A = ctx11.target_algebra_of(name)
        tau = ctx11.tangent_reps[1][1][name]
        te = TensorElement(A, H)
        power = A.one()
        t2n = H.one()
        fact = 1
        for n in range(1, 5):
            power = power * tau
            t2n = t2n * H.generator("t2")
            fact *= n
            if n >= 2:
                te = te + TensorElement.from_pairs(A, H, [(power * Fraction(1, fact), t2n)])
        extra[name] = te
    datum = datum.corrected({}, extra)
    assert ctx11.validate(datum).is_zero()


# --- invariance properties -----------------------------------------------------


def test_equivalence_transport_preserves_defect_class(ctx11):
    rng = random.Random(8)
    base = m3_base()
    datum = ctx11.first_order_datum(base)
    H2 = quotient(base.free, words_of_length_two(base.free), name="H2")
    surj = SmallSurjection(base, H2)
    reference = ctx11.obstruction_class(ctx11.validate(datum), surj)
    for trial in range(3):
        pi = {}
        for obj in ctx11.poset.objects:
            A = ctx11.algebra_of(obj)
            monos = A.nf_monomials(2)
            coeff = A.normal_form(
                {rng.choice(monos): Fraction(rng.randint(-2, 2))}
            )
            pi[obj] = TensorElement.from_pairs(
                A, base, [(coeff, base.generator(rng.choice(["t1", "t2"])))]
            )
        moved = datum.transport(pi)
        obst = ctx11.obstruction_class(ctx11.validate(moved), surj)
        assert obst.coords == reference.coords


def test_transport_of_valid_datum_stays_valid(ctx11):
    base = h2_base()
    datum = ctx11.first_order_datum(base)
    pi = {}
    for obj in ctx11.poset.objects:
        A = ctx11.algebra_of(obj)
        pi[obj] = TensorElement.from_pairs(
            A, base, [(A.generator("x"), base.generator("t1"))]
        )
    assert ctx11.validate(datum.transport(pi)).is_zero()


def test_defect_naturality_under_base_morphisms(ctx11):
    # pushing the datum along t1 -> t1 + t2^2, t2 -> t2 commutes with taking
    # defects, computed over the free order-3 base
    base = m3_base()
    datum = ctx11.first_order_datum(base)
    t1, t2 = base.generator("t1"), base.generator("t2")
    alpha = MatricMorphism(base, base, {"t1": t1 + t2 * t2, "t2": t2})

    def word_image(w):
        from ncdef.matric import MatricElement

        return alpha.apply(MatricElement(base, {w: Fraction(1)}))

    pushed = datum.push(word_image, base)
    defect_of_push = ctx11.validate(pushed)
    push_of_defect = {
        name: te.push(word_image, base)
        for name, te in ctx11.validate(datum).d11.items()
    }
    for name in ctx11.inclusions:
        assert defect_of_push.d11[name] == push_of_defect[name]


def test_coboundary_perturbed_trivial_datum_roundtrip(ctx11):
    # perturb the trivial datum over a square-zero base by a random 1-cochain;
    # the class vanishes and the witness restores the trivial datum's defect
    rng = random.Random(99)
    free = tangent_free(2, 2)
    R = quotient(free, [], name="R")
    kp = quotient(free, [free.generator("t1"), free.generator("t2")], name="k")
    surj = SmallSurjection(R, kp)
    saw_nonzero_witness = False
    for trial in range(20):
        E = {}
        for obj in ctx11.poset.objects:
            A = ctx11.algebra_of(obj)
            monos = A.nf_monomials(3)
            elem = A.normal_form({rng.choice(monos): Fraction(rng.randint(-3, 3))})
            E[obj] = TensorElement.from_pairs(A, R, [(elem, R.generator("t1"))])
        W = {}
        for name in ctx11.inclusions:
            A = ctx11.target_algebra_of(name)
            monos = A.nf_monomials(3)
            elem = A.normal_form({rng.choice(monos): Fraction(rng.randint(-3, 3))})
            W[name] = TensorElement.from_pairs(A, R, [(elem, R.generator("t2"))])
        datum = DeformationDatum(ctx11, R, {}, {}).corrected(E, W)
        defect = ctx11.validate(datum)
        obst = ctx11.obstruction_class(defect, surj)
        assert obst.is_zero()
        if not defect.is_zero():
            assert not obst.witness.is_zero()
            saw_nonzero_witness = True
        fixed = datum.corrected(obst.witness.E, obst.witness.W)
        assert ctx11.validate(fixed).is_zero()
    assert saw_nonzero_witness


# --- tangent dimension ------------------------------------------------------------


def test_tangent_dimension_is_two(ctx11):
    assert tangent_dimension_check(ctx11) == 2


def test_tangent_dimension_zero_for_zero_diagram():
    # a one-chart cover has no inclusions and (here) a 4-dimensional H^0;
    # shrink to the zero-tangent situation by an empty-cokernel synthetic:
    # the derivation x d/dx + y d/dy... instead, use the polynomial line,
    # where d/dx is surjective and the cokernel vanishes
    from ncdef.algebra import Derivation, PresentedAlgebra
    from ncdef.cokernels import ChartData
    from ncdef.diagrams import FiniteCategory

    A = PresentedAlgebra(["x"], [], name="line")
    d = Derivation(A, {"x": "1"}, name="ddx")
    poset = FiniteCategory.poset(["U"], [])
    ctx = EngineContext.from_charts(poset, {"U": ChartData("U", A, d)}, {})
    assert ctx.hh.h0.dim == 0
    assert tangent_dimension_check(ctx) == 0


def test_tangent_dimension_stable_under_cover_refinement():
    # doubling the intersection chart (an equal copy U4 of U3 under identity
    # restrictions) keeps the tangent dimension at 2
    from ncdef.diagrams import FiniteCategory

    cfg = elliptic.build(1, 1)
    poset = FiniteCategory.poset(
        ["U1", "U2", "U3", "U4"],
        [("U1", "U3"), ("U2", "U3"), ("U3", "U4")],
    )
    A3 = cfg.charts[U3].algebra
    from ncdef.cokernels import ChartData

    charts = {
        "U1": cfg.charts[U1],
        "U2": cfg.charts[U2],
        "U3": cfg.charts[U3],
        "U4": ChartData("U4", A3, cfg.charts[U3].derivation),
    }
    ident = identity_morphism(A3)
    restrictions = {
        "U1>U3": cfg.restrictions[INCL_13],
        "U2>U3": cfg.restrictions[INCL_23],
        "U3>U4": ident,
        "U1>U4": cfg.restrictions[INCL_13].compose(ident),
        "U2>U4": cfg.restrictions[INCL_23].compose(ident),
    }
    pref = cfg.ext1
    ctx = EngineContext.from_charts(
        poset, charts, restrictions,
        preferred_reps={**pref, "U4": pref[U3]},
    )
    assert ctx.hh.h0.dim == 2
    assert tangent_dimension_check(ctx) == 2


def test_p1_chart_whose_derivation_vanishes_is_rejected():
    # P^1 glued from Q[x] with d/dx and Q[u] with -u^2 d/du over Q[x, x^-1]:
    # u -> x^-1 intertwines the derivations exactly, but -u^2 d/du vanishes
    # at u = 0, where the engine would report HH = (1, 1, 0) instead of the
    # de Rham (1, 0, 1)
    from ncdef.algebra import AlgebraMorphism, Derivation, PresentedAlgebra
    from ncdef.cokernels import ChartData, TangentNotGenerated
    from ncdef.diagrams import FiniteCategory

    line = PresentedAlgebra(["x"], name="Q[x]")
    dual = PresentedAlgebra(["u"], name="Q[u]")
    overlap = PresentedAlgebra(["x"], inverted="x", name="Q[x, x^-1]")
    poset = FiniteCategory.poset(["U1", "U2", "U3"], [("U1", "U3"), ("U2", "U3")])
    restrictions = {"U1>U3": AlgebraMorphism(line, overlap, {"x": "x"}),
                    "U2>U3": AlgebraMorphism(dual, overlap, {"u": "x^-1"})}
    with pytest.raises(TangentNotGenerated,
                       match="chart U2: derivation does not generate the tangent module"):
        EngineContext.from_charts(poset, {
            "U1": ChartData("U1", line, Derivation(line, {"x": "1"})),
            "U2": ChartData("U2", dual, Derivation(dual, {"u": "-u^2"})),
            "U3": ChartData("U3", overlap, Derivation(overlap, {"x": "1"})),
        }, restrictions)


def test_a_cover_whose_arrows_form_a_cycle_raises_a_typed_error():
    # two copies of Q[x] with d/dx restricted to each other both ways: the
    # composite A>B then B>A is the identity of A, which has no restriction
    from ncdef.algebra import AlgebraError, AlgebraMorphism, Derivation, PresentedAlgebra
    from ncdef.cokernels import ChartData
    from ncdef.diagrams import FiniteCategory

    algebras = {c: PresentedAlgebra(["x"], name=c) for c in "AB"}
    charts = {c: ChartData(c, A, Derivation(A, {"x": "1"})) for c, A in algebras.items()}
    restrictions = {f"{s}>{t}": AlgebraMorphism(algebras[s], algebras[t], {"x": "x"})
                    for s, t in ("AB", "BA")}
    poset = FiniteCategory.poset(["A", "B"], [("A", "B"), ("B", "A")])
    with pytest.raises(AlgebraError, match="^restrictions A>B and B>A close a cycle; "
                                           "the charts of a cover form a poset$"):
        EngineContext.from_charts(poset, charts, restrictions)
