import random
from fractions import Fraction

import pytest

from ncdef import elliptic, linalg
from ncdef.elliptic import INCL_13, INCL_23, U1, U2, U3
from ncdef.engine import (
    EngineContext,
    EngineError,
    TensorElement,
    _tangent_free,
    _word_elem,
)
from ncdef.matric import MatricMorphism, SmallSurjection, quotient


def make_context(a, b):
    cfg = elliptic.build(a, b)
    return EngineContext.from_charts(
        cfg.poset, cfg.charts, cfg.restrictions,
        preferred_reps=cfg.ext_basis_strings(),
        tangent_rep_strings=cfg.tangent_rep_strings(),
        obstruction_rep_strings=cfg.obstruction_rep_strings(),
    )


@pytest.fixture(scope="module")
def ctx11():
    return make_context(1, 1)


@pytest.fixture(scope="module")
def ctx01():
    return make_context(0, 1)


def h2_base(r=2):
    free = _tangent_free(r, 2)
    return quotient(free, [], name="H2")


def m3_base(r=2):
    free = _tangent_free(r, 3)
    return quotient(free, [], name="T/m^3")


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
    R = quotient(_tangent_free(2, 4), [], name="T/m^4")
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
    assert ctx11.validate(ctx11.trivial_datum(base)).is_zero()


def test_first_order_datum_validates_both_regimes(ctx11, ctx01):
    for ctx in (ctx11, ctx01):
        datum = ctx.first_order_datum(h2_base())
        assert ctx.validate(datum).is_zero()


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
    comm = _word_elem(base.free, (0, 1)) - _word_elem(base.free, (1, 0))
    expected = TensorElement.from_pairs(A3, base, [(-tau, base.reduce(comm))])
    assert defect.d11[INCL_23] == expected
    assert defect.d11[INCL_13].is_zero()
    assert all(te.is_zero() for per in defect.d02.values() for te in per.values())


def test_second_order_obstruction_class_is_commutator(ctx11):
    base = m3_base()
    Rp = base
    H2 = quotient(base.free, [
        _word_elem(base.free, (i, j)) for i in range(2) for j in range(2)
    ], name="H2")
    surj = SmallSurjection(Rp, H2)
    datum = ctx11.first_order_datum(Rp)
    obst = ctx11.obstruction_class(ctx11.validate(datum), surj)
    assert not obst.is_zero()
    rels = obst.relation_elements()
    assert len(rels) == 1
    from ncdef.engine import _normalize_relation

    assert str(_normalize_relation(rels[0])) == "t1*t2 - t2*t1"
    assert obst.witness is None


def test_kernel_components_factor_the_kernel_matrix_once(ctx11, monkeypatch):
    base = m3_base()
    H2 = quotient(base.free, [
        _word_elem(base.free, (i, j)) for i in range(2) for j in range(2)
    ], name="H2")
    surj = SmallSurjection(base, H2)
    defect = ctx11.validate(ctx11.first_order_datum(base))
    te = defect.d11[INCL_23]
    assert not te.is_zero()
    factored = []

    class Counting(linalg._Factorization):
        def __init__(self, m):
            factored.append(m)
            super().__init__(m)

    monkeypatch.setattr(linalg, "_Factorization", Counting)
    first = ctx11.kernel_components(te, surj)
    assert ctx11.kernel_components(te, surj) == first
    assert len(factored) == 1 and factored[0] is surj.kernel_matrix
    rebuilt = TensorElement(te.algebra, base)
    for a, kappa in zip(first, surj.kernel_basis):
        rebuilt = rebuilt + TensorElement.from_pairs(te.algebra, base, [(a, kappa)])
    assert rebuilt == te


def test_zero_defect_gives_zero_class_and_zero_witness(ctx11):
    free = _tangent_free(2, 2)
    R = quotient(free, [], name="R")
    kp = quotient(free, [free.generator("t1"), free.generator("t2")], name="k")
    surj = SmallSurjection(R, kp)
    obst = ctx11.obstruction_class(ctx11.validate(ctx11.trivial_datum(R)), surj)
    assert obst.is_zero()
    assert obst.witness.is_zero()


def test_obstruction_vanishes_after_quotienting_by_commutator(ctx11):
    free = _tangent_free(2, 3)
    comm = _word_elem(free, (0, 1)) - _word_elem(free, (1, 0))
    H3 = quotient(free, [comm], name="H3")
    H2 = quotient(free, [_word_elem(free, (i, j)) for i in range(2) for j in range(2)],
                  name="H2")
    surj = SmallSurjection(H3, H2)
    datum = ctx11.first_order_datum(H3)
    obst = ctx11.obstruction_class(ctx11.validate(datum), surj)
    assert obst.is_zero()
    corrected = datum.corrected(obst.witness.E, obst.witness.W)
    assert ctx11.validate(corrected).is_zero()


# --- cup products ------------------------------------------------------------


@pytest.mark.parametrize("fixture", ["ctx11", "ctx01"])
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
    cfg = elliptic.build(1, 1)
    (xi1, tau1), (xi2, tau2) = cfg.tangent_rep_strings()
    xi2s = {k: f"3*{v}" if v != "0" else "0" for k, v in xi2.items()}
    tau2s = {k: f"3*({'+'.join([v])})" if v != "0" else "0" for k, v in tau2.items()}
    tau2s = {k: v.replace("3*(", "3*").rstrip(")") if v != "0" else "0"
             for k, v in tau2s.items()}
    # simpler: scale by building elements directly
    ctx = EngineContext.from_charts(
        cfg.poset, cfg.charts, cfg.restrictions,
        preferred_reps=cfg.ext_basis_strings(),
        tangent_rep_strings=None,
        obstruction_rep_strings=cfg.obstruction_rep_strings(),
    )
    base_ctx = make_context(1, 1)
    scaled_reps = []
    for l, (xi, tau) in enumerate(base_ctx.tangent_reps):
        scale = 3 if l == 1 else 1
        scaled_reps.append((
            {o: xi[o] * scale for o in xi},
            {n: tau[n] * scale for n in tau},
        ))
    ctx_scaled = EngineContext(base_ctx.diagram, base_ctx.hh, scaled_reps)
    plain = base_ctx.cup_product(2, 1)
    scaled = ctx_scaled.cup_product(2, 1)
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
    for preferred in (cfg.ext_basis_strings(), None):
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


def test_hull_order_two_stops_at_tangent_level(ctx11):
    result = ctx11.hull_compute(2)
    assert result.relations == []
    assert result.hull.dim == 3
    assert result.versal_defect.is_zero()
    assert ctx11.validate(result.versal_datum).is_zero()


def test_unobstructed_synthetic_hull_is_free():
    # sub-poset with only U2 >= U3 has vanishing degree-1 diagram cohomology
    cfg = elliptic.build(1, 1)
    from ncdef.diagrams import FiniteCategory

    poset = FiniteCategory.poset([U2, U3], [(U2, U3)])
    charts = {U2: cfg.charts[U2], U3: cfg.charts[U3]}
    restrictions = {INCL_23: cfg.restrictions[INCL_23]}
    pref = cfg.ext_basis_strings()
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
    free = _tangent_free(2, 5)
    comm = _word_elem(free, (0, 1)) - _word_elem(free, (1, 0))
    H = quotient(free, [comm], name="H")
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
    H2 = quotient(base.free, [
        _word_elem(base.free, (i, j)) for i in range(2) for j in range(2)
    ], name="H2")
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
    free = _tangent_free(2, 2)
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
        datum = ctx11.trivial_datum(R).corrected(E, W)
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
    assert ctx11.tangent_dimension_check() == 2


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
    assert ctx.tangent_dimension_check() == 0


def test_tangent_dimension_stable_under_cover_refinement():
    # doubling the intersection chart (an equal copy U4 of U3 under identity
    # restrictions) keeps the tangent dimension at 2
    from ncdef.algebra import identity_morphism
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
    pref = cfg.ext_basis_strings()
    ctx = EngineContext.from_charts(
        poset, charts, restrictions,
        preferred_reps={**pref, "U4": pref[U3]},
    )
    assert ctx.hh.h0.dim == 2
    assert ctx.tangent_dimension_check() == 2
