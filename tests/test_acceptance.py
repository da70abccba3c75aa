"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines as
they print). Everything here is exact rational arithmetic; there are no
tolerances to tune.
"""

import time
from fractions import Fraction

import pytest

from ncdef import elliptic, selftest
from ncdef.elliptic import INCL_13, INCL_23, U1, U2, U3
from ncdef.linalg import solve
from ncdef.matric import SmallSurjection, quotient
from ncdef.tower import tangent_free
from oracles import tangent_dimension_check


@pytest.fixture(scope="module")
def ctx11():
    return elliptic.build_context(elliptic.build(1, 1))


@pytest.fixture(scope="module")
def ctx01():
    return elliptic.build_context(elliptic.build(0, 1))


def _passed(n, text):
    print(f"ACCEPTANCE {n}: {text} ... PASS")


def test_criterion_1_ext1_table_a_nonzero(ctx11):
    sizes = {obj: ctx11.diagram.cokernels[obj].size for obj in (U1, U2, U3)}
    assert sizes == {U1: 4, U2: 2, U3: 5}
    assert ctx11.diagram.cokernels[U1].rep_labels == ["1", "z", "z^2", "z^3"]
    assert ctx11.diagram.cokernels[U2].rep_labels == ["1", "y^2"]
    for incl in (INCL_13, INCL_23):
        assert ctx11.diagram.functor.dims[incl] == 5
        assert ctx11.diagram.cokernel_at(incl) is ctx11.diagram.cokernels[U3]
    _passed(1, "Ext^1 sizes (4, 2, 5) at (1,1), intersection slots shared")


def test_criterion_2_ext1_table_a_zero(ctx01):
    sizes = {obj: ctx01.diagram.cokernels[obj].size for obj in (U1, U2, U3)}
    assert sizes == {U1: 4, U2: 2, U3: 5}
    tables = elliptic.build(0, 1).ext1
    for obj, monomials in tables.items():
        ck = ctx01.diagram.cokernels[obj]
        for i, mono in enumerate(monomials):
            coords = ck.reduce(mono).coords
            assert coords[i] == 1
            assert all(c == 0 for j, c in enumerate(coords) if j != i)
    _passed(2, "Ext^1 sizes (4, 2, 5) at (0,1); table monomials reduce to units")


def test_criterion_3_reduction_identities(ctx11, ctx01):
    ck = ctx11.diagram.cokernels[U3]
    got = {lbl: c for lbl, c in zip(ck.rep_labels, ck.reduce("15*y^2").coords) if c}
    assert got == {"y^-2": Fraction(31)}
    ck0 = ctx01.diagram.cokernels[U3]
    got0 = {lbl: c for lbl, c in zip(ck0.rep_labels, ck0.reduce("x").coords) if c}
    assert got0 == {"x": Fraction(1)}
    assert ck0.reduce("x + 3*x*y^-2").is_zero()
    _passed(3, "15y^2 = 31*[y^-2] at (1,1); -3b*x*y^-2 = x at (0,1)")


def test_criterion_4_global_hochschild_dims(ctx11, ctx01):
    assert ctx11.hh.dims == (1, 2, 1)
    assert ctx01.hh.dims == (1, 2, 1)
    _passed(4, "(HH^0, HH^1, HH^2) = (1, 2, 1) at (1,1) and (0,1)")


def test_criterion_5_cup_table(ctx11, ctx01):
    # the golden sign convention: with the configured orientation of the
    # obstruction basis, <t1*, t2*> is exactly +o*
    for ctx in (ctx11, ctx01):
        table = ctx.cup_table()
        assert table[(1, 2)] == [Fraction(1)]
        assert table[(2, 1)] == [Fraction(-1)]
        assert table[(1, 1)] == [Fraction(0)]
        assert table[(2, 2)] == [Fraction(0)]
    _passed(5, "<t1*,t2*> = +o*, <t2*,t1*> = -o*, others 0, both regimes")


def test_criterion_6_no_lift_certificate(ctx11):
    free = tangent_free(2, 3)
    t1, t2 = free.generator_elements
    R = quotient(free, [], name="T/m^3")
    H2 = quotient(free, [s * t for s in (t1, t2) for t in (t1, t2)], name="H2")
    surj = SmallSurjection(R, H2)
    datum = ctx11.first_order_datum(R)
    defect = ctx11.validate(datum)
    obst = ctx11.obstruction_class(defect, surj)
    assert not obst.is_zero()
    # the correcting linear system is infeasible for some kernel component:
    # its degree-1 cochain of reduce coordinates is not a coboundary
    d0 = ctx11.hh.complex.differentials[0]
    comps = {name: ctx11.kernel_components(defect.d11[name], surj) for name in ctx11.inclusions}
    vecs = [ctx11.hh.cochain(1, {name: comps[name][m] for name in ctx11.inclusions
                                 if not comps[name][m].is_zero()})
            for m in range(len(surj.kernel_basis))]
    assert any(solve(d0, vec) is None for vec in vecs)
    # after quotienting by the commutator the lift exists and validates
    H3 = quotient(free, [t1 * t2 - t2 * t1], name="H3")
    surj3 = SmallSurjection(H3, H2)
    datum3 = ctx11.first_order_datum(H3)
    obst3 = ctx11.obstruction_class(ctx11.validate(datum3), surj3)
    assert obst3.is_zero()
    lifted = datum3.corrected(obst3.witness.E, obst3.witness.W)
    assert ctx11.validate(lifted).is_zero()
    _passed(6, "no lift to k<t1,t2>/m^3; lift exists after t1t2 - t2t1 = 0")


@pytest.mark.parametrize("which", ["a_nonzero", "a_zero"])
def test_criterion_7_hull(which, ctx11, ctx01, request):
    ctx = ctx11 if which == "a_nonzero" else ctx01
    t0 = time.perf_counter()
    result = ctx.hull_compute(4)
    assert result.relation_strings() == ["t1*t2 - t2*t1"]
    assert result.new_relations_by_order[3] == ["t1*t2 - t2*t1"]
    assert result.new_relations_by_order[4] == []
    assert ctx.validate(result.versal_datum).is_zero()
    exp = elliptic.exp_datum(ctx, 5)
    assert ctx.validate(exp).is_zero()
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    _passed(7, f"hull relations {{t1t2 - t2t1}}, exp family exact over H/m^5 "
               f"({which}, {elapsed:.1f}s)")


def test_criterion_8_tangent_theorem(ctx11):
    dim = tangent_dimension_check(ctx11)
    assert dim == 2 == ctx11.hh.h0.dim
    _passed(8, "first-order solutions mod equivalence have dimension 2 = dim HH^1")


def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    for name, fn in selftest.SUITES:
        ok, detail = fn()
        assert ok, f"property suite failed: {name} ({detail})"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    _passed(9, f"all six property suites green ({elapsed:.1f}s)")
