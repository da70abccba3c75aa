import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from ncdef import elliptic
from ncdef.algebra import (
    AlgebraError,
    AlgebraMorphism,
    Derivation,
    NegativeExponent,
    PresentedAlgebra,
    TruncationEscape,
    UndeclaredVariable,
    buchberger,
    p_add,
    p_leading,
    p_mul,
    parse_polynomial,
    reduce_poly,
    s_polynomial,
    truncated_operator_matrix,
)
from ncdef.diagram_io import Curve
from ncdef.linalg import Matrix, kernel_basis, rank
from helpers import MALFORMED_NUMBERS, identity_morphism

EXAMPLES = Path(__file__).resolve().parents[1] / "docs" / "examples"


def chart_A1(a, b):
    A = PresentedAlgebra(["x", "z"], [f"z - x^3 - {a}*x*z^2 - {b}*z^3"], name="A1")
    d = Derivation(A, {"x": f"1 - 2*{a}*x*z - 3*{b}*z^2", "z": f"3*x^2 + {a}*z^2"}, "d1")
    return A, d


def chart_A2(a, b):
    A = PresentedAlgebra(["x", "y"], [f"y^2 - x^3 - {a}*x - {b}"], name="A2")
    d = Derivation(A, {"x": "-2*y", "y": f"-3*x^2 - {a}"}, "d2")
    return A, d


def chart_A3(a, b):
    A = PresentedAlgebra(["x", "y"], [f"y^2 - x^3 - {a}*x - {b}"], inverted="y", name="A3")
    d = Derivation(A, {"x": "-2*y", "y": f"-3*x^2 - {a}"}, "d3")
    return A, d


def restriction_13(A1, A3):
    return AlgebraMorphism(A1, A3, {"x": "x*y^-1", "z": "y^-1"}, name="r13")


def restriction_23(A2, A3):
    return AlgebraMorphism(A2, A3, {"x": "x", "y": "y"}, name="r23")


# --- normal forms ----------------------------------------------------------


def test_relation_reduces_to_zero_in_A2():
    A, _ = chart_A2(0, 1)
    assert A.normal_form("y^2 - x^3 - 1").is_zero()


def test_x_cubed_rewrites_in_A3():
    A, _ = chart_A3(0, 1)
    assert A.normal_form("x^3") == A.normal_form("y^2 - 1")


def test_relation_reduces_to_zero_in_A1():
    A, _ = chart_A1(1, 1)
    assert A.normal_form("z - x^3 - x*z^2 - z^3").is_zero()


def test_normal_form_idempotent():
    A, _ = chart_A3(1, 1)
    e = A.normal_form("x^5*y^-3 + 7*x^4 - 2/3*y^2")
    assert A.normal_form(e) == e
    assert all(A._reducible(m) is None for m in e.terms)


def test_laurent_degree_uses_absolute_value():
    A, _ = chart_A3(1, 1)
    assert A.degree((2, -3)) == 5
    assert A.degree((1, 2)) == 3


def test_nf_monomial_slices_are_finite_and_sorted():
    A, _ = chart_A3(0, 1)
    monos = A.nf_monomials(3)
    assert all(m[0] <= 2 for m in monos)
    assert all(A.degree(m) <= 3 for m in monos)
    degs = [A.degree(m) for m in monos]
    assert degs == sorted(degs)
    # x^i y^j with 0 <= i <= 2, i + |j| <= 3
    assert len(monos) == 7 + 5 + 3


def _box_monomials(A, degree):
    """The normal-form monomials of degree <= degree by enumerating the whole
    exponent box: a monomial is standard when it is its own normal form."""
    inv = A.variables.index(A.inverted) if A.inverted else -1
    ranges = [range(-degree, degree + 1) if k == inv else range(degree + 1)
              for k in range(len(A.variables))]
    monos = [m for m in itertools.product(*ranges)
             if A.degree(m) <= degree and A.normal_form({m: 1}).terms == {m: 1}]
    return sorted(monos, key=lambda m: (A.degree(m), m))


@pytest.mark.parametrize("make, top", [
    (lambda: chart_A1(1, 1)[0], 16),
    (lambda: chart_A2(0, 1)[0], 16),
    (lambda: chart_A3(Fraction(-2, 3), Fraction(5, 7))[0], 16),
    (lambda: PresentedAlgebra(["x", "y", "z"], ["x*y - z^2"], inverted="z"), 10),
    (lambda: PresentedAlgebra(["z", "x", "y"], ["x*y - z"], inverted="z"), 10),
], ids=["polynomial A1", "polynomial A2", "Laurent A3", "Laurent in z last", "Laurent in z first"])
def test_nf_monomials_match_box_enumeration(make, top):
    boxes = [_box_monomials(make(), d) for d in range(top + 1)]
    # the shells grow in any order of requests, and each degree is a prefix
    for order in (range(top + 1), range(top, -1, -1)):
        A = make()
        for d in order:
            assert A.nf_monomials(d) == boxes[d]
    assert A.nf_monomials(-1) == []


def test_undeclared_variable_rejected():
    A, _ = chart_A2(1, 1)
    with pytest.raises(UndeclaredVariable):
        A.normal_form("x + w")


def test_negative_exponent_on_non_inverted_rejected():
    A, _ = chart_A2(1, 1)
    with pytest.raises(NegativeExponent):
        A.normal_form("y^-1")
    A3, _ = chart_A3(1, 1)
    with pytest.raises(NegativeExponent):
        A3.normal_form("x^-1")


# --- derivations -----------------------------------------------------------


def test_derivation_on_generators_and_constants():
    _, d2 = chart_A2(1, 1)
    A = d2.algebra
    assert d2(A.generator("x")) == A.normal_form("-2*y")
    assert d2(A.one()).is_zero()
    assert d2(A.normal_form("x^2")) == A.normal_form("-4*x*y")


def test_derivation_rejects_bad_images():
    A, _ = chart_A2(1, 1)
    with pytest.raises(AlgebraError):
        Derivation(A, {"x": "1", "y": "1"})


@pytest.mark.parametrize("text, message", MALFORMED_NUMBERS)
def test_malformed_numbers_raise_algebra_errors(text, message):
    with pytest.raises(AlgebraError, match=re.escape(message)):
        PresentedAlgebra(["x", "y"], [f"y - {text}"], name="A")


def test_derivation_on_inverted_variable():
    A, d3 = chart_A3(1, 1)
    # d(y^-1) = -y^-2 d(y) = (3x^2 + a) y^-2
    got = d3(A.normal_form("y^-1"))
    assert got == A.normal_form("3*x^2*y^-2 + y^-2")


def _shift_bound_charts():
    """Every chart of the shipped curve configurations, the charts of three
    seeded elliptic curves, and Q[t, t^-1] with d(t) = t^2 + t^-1, whose
    d(t^-1) = -1 - t^-3 raises the degree by 2."""
    for path in sorted(EXAMPLES.glob("*_curve.json")):
        for label, chart in Curve(json.loads(path.read_text())).charts.items():
            yield f"{path.name}:{label}", chart.derivation
    rng = random.Random(41)
    seeded = 0
    while seeded < 3:
        a, b = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
        try:
            cfg = elliptic.build(a, b)
        except elliptic.SingularCurve:
            continue
        seeded += 1
        for label, chart in cfg.charts.items():
            yield f"({a}, {b}):{label}", chart.derivation
    A = PresentedAlgebra(["t"], inverted="t", name="Q[t, t^-1]")
    yield A.name, Derivation(A, {"t": "t^2 + t^-1"})


def test_degree_shift_bounds_every_monomial_and_is_attained():
    # the bound is read off the generator images; compare it with the
    # actual degree increase on every normal-form monomial up to degree 12
    shifts = {}
    for name, d in _shift_bound_charts():
        A = d.algebra
        bound = d.degree_shift()
        increases = [max(A.degree(mm) for mm in image) - A.degree(m)
                     for m in A.nf_monomials(12) if (image := d.monomial_image(m))]
        assert max(increases) == bound, name
        shifts[name] = bound
    assert len(shifts) == 22
    assert shifts["Q[t, t^-1]"] == 2
    assert shifts["gm_curve.json:U"] == 0
    assert shifts["genus2_affine_curve.json:U"] == 3
    assert [shifts[f"elliptic_a1_b1_curve.json:{c}"] for c in ("U1", "U2", "U3")] == [1, 1, 3]


def _division(A, poly):
    """One division of the whole polynomial by A's Groebner basis. A Laurent
    polynomial is first multiplied by the power y^s of the inverted variable
    that clears its negative exponents, then divided by it again: no leading
    monomial involves y, so the normal form is unique and commutes with y^s."""
    inv = A._inv_index
    s = max([0] + [-m[inv] for m in poly]) if inv >= 0 else 0

    def shifted(m, by):
        return tuple(e + by if k == inv else e for k, e in enumerate(m))

    rem = reduce_poly({shifted(m, s): c for m, c in poly.items()}, A.groebner)
    return {shifted(m, -s): c for m, c in rem.items()}


def test_tabled_normal_forms_and_images_match_whole_polynomial_division():
    # monomial_nf rewrites a monomial once and walks its table;
    # monomial_image sums tabled normal forms. Both must equal one division
    # of the whole polynomial, on every monomial of degree <= 12 (reducible
    # ones too, highest first, so each rewrite chain starts from the top)
    # and on the monomials of the relations
    charts = 0
    for name, d in _shift_bound_charts():
        A = d.algebra
        monos = {m for deg in range(13) for m in A._shell(deg)}
        monos.update(m for rel in A.relations for m in rel)
        for m in sorted(monos, key=lambda m: (A.degree(m), m), reverse=True):
            assert A.monomial_nf(m) == _division(A, {m: Fraction(1)}), name
            product = {}
            for k, e in enumerate(m):
                lowered = tuple(x - 1 if i == k else x for i, x in enumerate(m))
                product = p_add(product, p_mul({lowered: Fraction(e)},
                                               d.images[A.variables[k]].terms))
            assert d.monomial_image(m) == _division(A, product), name
        charts += 1
    assert charts == 22


def test_a_long_rewrite_chain_stays_out_of_the_recursion_limit():
    # y - x^2 rewrites x^(2n + 1) to x*y^n one step at a time: 2500 steps
    # for x^5001, beyond the default recursion limit of 1000
    A = PresentedAlgebra(["x", "y"], ["y - x^2"])
    assert A.monomial_nf((5001, 0)) == {(1, 2500): Fraction(1)}
    d = Derivation(A, {"x": "x^5000", "y": "2*x^5001"})
    assert d.degree_shift() == 2500


def _random_element(A, rng, deg=3, nterms=4):
    monos = A.nf_monomials(deg)
    terms = {}
    for _ in range(nterms):
        m = rng.choice(monos)
        terms[m] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    return A.normal_form(terms)


@pytest.mark.parametrize("ab", [(1, 1), (0, 1)])
def test_multiplication_commutative_associative_randomized(ab):
    rng = random.Random(42)
    for A, _ in (chart_A1(*ab), chart_A3(*ab)):
        for _ in range(10):
            e1, e2, e3 = (_random_element(A, rng) for _ in range(3))
            assert e1 * e2 == e2 * e1
            assert (e1 * e2) * e3 == e1 * (e2 * e3)


@pytest.mark.parametrize("make", [chart_A1, chart_A2, chart_A3])
def test_leibniz_randomized(make):
    rng = random.Random(99)
    A, d = make(1, 1)
    for _ in range(12):
        e1 = _random_element(A, rng)
        e2 = _random_element(A, rng)
        assert d(e1 * e2) == d(e1) * e2 + e1 * d(e2)


# --- morphisms ---------------------------------------------------------------


def test_morphism_is_ring_hom_and_commutes_with_normal_form():
    rng = random.Random(5)
    A1, _ = chart_A1(1, 1)
    A3, _ = chart_A3(1, 1)
    rho = restriction_13(A1, A3)
    for _ in range(12):
        e1 = _random_element(A1, rng)
        e2 = _random_element(A1, rng)
        assert rho(e1 * e2) == rho(e1) * rho(e2)
        assert rho(e1 + e2) == rho(e1) + rho(e2)
    assert rho(A1.one()) == A3.one()


def test_morphism_rejects_non_relation_preserving_images():
    A1, _ = chart_A1(1, 1)
    A3, _ = chart_A3(1, 1)
    with pytest.raises(AlgebraError):
        AlgebraMorphism(A1, A3, {"x": "x", "z": "y"})


def test_morphism_from_laurent_source_needs_unit_inverse():
    A3, _ = chart_A3(1, 1)
    with pytest.raises(AlgebraError):
        AlgebraMorphism(A3, A3, {"x": "x", "y": "y"})
    ident = identity_morphism(A3)
    assert ident(A3.normal_form("x*y^-5")) == A3.normal_form("x*y^-5")


@pytest.mark.parametrize("ab", [(1, 1), (0, 1)])
def test_restrictions_intertwine_derivations(ab):
    # transporting the U1 derivation along x -> x/y, z -> 1/y gives the U3 one
    A1, d1 = chart_A1(*ab)
    A2, d2 = chart_A2(*ab)
    A3, d3 = chart_A3(*ab)
    r13 = restriction_13(A1, A3)
    r23 = restriction_23(A2, A3)
    for g in ("x", "z"):
        assert r13(d1(A1.generator(g))) == d3(r13(A1.generator(g)))
    for g in ("x", "y"):
        assert r23(d2(A2.generator(g))) == d3(r23(A2.generator(g)))


# --- Groebner ---------------------------------------------------------------


def test_buchberger_on_nonprincipal_ideal():
    # x^2 - y, x*y - 1 in Q[x, y]: reduced deglex basis has the relation y^2 - x
    gens = [parse_polynomial("x^2 - y", ("x", "y")), parse_polynomial("x*y - 1", ("x", "y"))]
    gb = buchberger(gens)
    for f in gens:
        assert not reduce_poly(f, gb)
    for i, g in enumerate(gb):
        for j in range(i):
            assert not reduce_poly(s_polynomial(gb[i], gb[j]), gb)


@pytest.mark.parametrize("ab", [(1, 1), (0, 1), (Fraction(-3, 2), 2)])
def test_stored_groebner_s_polynomials_reduce_to_zero(ab):
    for make in (chart_A1, chart_A2, chart_A3):
        A, _ = make(*ab)
        for i in range(len(A.groebner)):
            for j in range(i):
                s = s_polynomial(A.groebner[i], A.groebner[j])
                assert not reduce_poly(s, A.groebner)
        for rel in A.relations:
            assert not reduce_poly(rel, A.groebner)


def test_groebner_leading_terms_avoid_inverted_variable():
    A, _ = chart_A3(1, 1)
    for g in A.groebner:
        lm, _ = p_leading(g)
        assert lm[A._inv_index] == 0


# --- truncated matrices -------------------------------------------------------


def test_multiplication_by_one_is_identity():
    A, _ = chart_A2(1, 1)
    for d in (2, 4):
        m = truncated_operator_matrix(lambda e: e, A, A, d, d)
        n = len(A.nf_monomials(d))
        assert m == Matrix.identity(n)


def test_multiplication_by_x_is_injective_below_relation_degree():
    A, _ = chart_A2(1, 1)
    x = A.generator("x")
    m = truncated_operator_matrix(lambda e: x * e, A, A, 3, 4)
    assert rank(m) == len(A.nf_monomials(3))


def test_derivation_truncation_kernel_is_constants():
    A, d2 = chart_A2(0, 1)
    m = truncated_operator_matrix(d2, A, A, 3, 5)
    ker = kernel_basis(m)
    assert len(ker) == 1
    # the kernel vector is supported on the constant monomial
    monos = A.nf_monomials(3)
    (v,) = ker
    support = [monos[i] for i, c in enumerate(v) if c]
    assert support == [(0, 0)]


def test_truncation_escape_reported():
    A, d2 = chart_A2(1, 1)
    with pytest.raises(TruncationEscape):
        truncated_operator_matrix(d2, A, A, 3, 3)


# --- per-monomial tables --------------------------------------------------------


def _reference_normal_form(A, poly):
    """Whole-polynomial division by the stored Groebner basis, largest deglex
    term first; Laurent input is first multiplied by a power of the inverted
    variable that clears its denominators and divided by it at the end."""
    inv = A._inv_index
    shift = max([0] + [-m[inv] for m in poly]) if inv >= 0 else 0

    def moved(m, by):
        return tuple(e + by if k == inv else e for k, e in enumerate(m))

    work = {moved(m, shift): Fraction(c) for m, c in poly.items()}
    out = {}
    while work:
        m = max(work, key=lambda mm: (sum(mm), mm))
        c = work.pop(m)
        if not c:
            continue
        for g in A.groebner:
            lm = max(g, key=lambda mm: (sum(mm), mm))
            if all(a >= b for a, b in zip(m, lm)):
                q = tuple(a - b for a, b in zip(m, lm))
                for gm, gc in g.items():
                    if gm != lm:
                        mm = tuple(a + b for a, b in zip(q, gm))
                        work[mm] = work.get(mm, 0) - c * gc / g[lm]
                break
        else:
            out[m] = out.get(m, 0) + c
    return {moved(m, -shift): c for m, c in out.items() if c}


def _random_poly(rng, exponent_ranges, nterms=5):
    return {
        tuple(rng.randint(lo, hi) for lo, hi in exponent_ranges):
            Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
        for _ in range(nterms)
    }


def _nonprincipal_algebra():
    return PresentedAlgebra(["x", "y"], ["x^2 - y", "x*y - 1"], name="Q[x,y]/(x^2-y,xy-1)")


@pytest.mark.parametrize("ab", [(1, 1), (0, 1), (Fraction(-3, 2), Fraction(2, 5))])
def test_tabled_normal_form_matches_whole_polynomial_rewriting(ab):
    rng = random.Random(2024)
    cases = [
        (chart_A1(*ab)[0], [(0, 6), (0, 6)]),
        (chart_A2(*ab)[0], [(0, 6), (0, 6)]),
        (chart_A3(*ab)[0], [(0, 6), (-5, 5)]),
        (_nonprincipal_algebra(), [(0, 5), (0, 5)]),
    ]
    for A, ranges in cases:
        for _ in range(25):
            poly = _random_poly(rng, ranges)
            expected = _reference_normal_form(A, poly)
            assert A.normal_form(poly).terms == expected
            # the second evaluation is served from the table
            assert A.normal_form(poly).terms == expected


def _leibniz(d, e):
    A = d.algebra
    out = A.zero()
    for m, c in e.terms.items():
        for k, exp in enumerate(m):
            if exp:
                lowered = tuple(x - 1 if i == k else x for i, x in enumerate(m))
                out = out + A.normal_form({lowered: c * exp}) * d.images[A.variables[k]]
    return out


def _power_product(rho, e):
    out = rho.target.zero()
    for m, c in e.terms.items():
        term = rho.target.normal_form(c)
        for k, exp in enumerate(m):
            factor = rho.images[rho.source.variables[k]] if exp > 0 else rho.inverse_image
            for _ in range(abs(exp)):
                term = term * factor
        out = out + term
    return out


def _random_laurent_element(A, rng):
    inv = A._inv_index
    ranges = [(-4, 4) if k == inv else (0, 5) for k in range(len(A.variables))]
    return A.normal_form(_random_poly(rng, ranges))


@pytest.mark.parametrize("ab", [(1, 1), (0, 1)])
def test_tabled_operator_images_match_leibniz_and_power_products(ab):
    rng = random.Random(77)
    charts = [chart_A1(*ab), chart_A2(*ab), chart_A3(*ab)]
    for A, d in charts:
        for _ in range(15):
            e = _random_laurent_element(A, rng)
            assert d(e) == _leibniz(d, e)
            assert d(e) == _leibniz(d, e)
    (A1, _), (A2, _), (A3, _) = charts
    for rho in (restriction_13(A1, A3), restriction_23(A2, A3), identity_morphism(A3)):
        for _ in range(15):
            e = _random_laurent_element(rho.source, rng)
            assert rho(e) == _power_product(rho, e)
            assert rho(e) == _power_product(rho, e)


def test_tables_belong_to_one_configuration():
    A_01, d_01 = chart_A3(0, 1)
    A_11, d_11 = chart_A3(1, 1)
    assert str(A_01.normal_form("x^3")) == "-1 + y^2"
    assert str(A_11.normal_form("x^3")) == "-1 - x + y^2"
    assert str(A_01.normal_form("x^3")) == "-1 + y^2"
    assert str(d_01(A_01.normal_form("y"))) == "-3*x^2"
    assert str(d_11(A_11.normal_form("y"))) == "-1 - 3*x^2"


def test_mutating_a_result_leaves_the_tables_intact():
    A1, d1 = chart_A1(1, 1)
    A3, d3 = chart_A3(1, 1)
    rho = restriction_13(A1, A3)
    results = [
        lambda: A3.normal_form("x^3"),
        lambda: A3.monomial_element((1, -2)),
        lambda: A3.one(),
        lambda: d3(A3.normal_form("x^2*y^-1")),
        lambda: rho(A1.normal_form("x^2*z")),
    ]
    for make in results:
        first = make()
        expected = dict(first.terms)
        first.terms.clear()
        first.terms[(7, 7)] = Fraction(5)
        assert make().terms == expected
