import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ncdef
from ncdef.algebra import (
    Derivation,
    PresentedAlgebra,
    truncated_operator_matrix,
)
from ncdef.cokernels import (
    D_START,
    NoStabilization,
    build_ext_diagram,
    cokernel_of_derivation,
    global_hochschild_dims,
)
from ncdef.diagrams import constant_functor
from ncdef.elliptic import INCL_13, INCL_23, U1, U2, U3, SingularCurve, build
from ncdef.linalg import Matrix, SubspaceReducer, rref, solve


def coker(cfg, chart, d_start=6, d_max=24, preferred=True):
    c = cfg.charts[chart]
    pref = cfg.ext1[chart] if preferred else ()
    return cokernel_of_derivation(c.algebra, c.derivation, d_start, d_max, pref)


def rep_names(ck):
    return set(ck.rep_labels)


@pytest.fixture(scope="module")
def cfg11():
    return build(1, 1)


@pytest.fixture(scope="module")
def cfg01():
    return build(0, 1)


@pytest.fixture(scope="module")
def diagram11(cfg11):
    return build_ext_diagram(cfg11.poset, cfg11.charts, cfg11.restrictions,
                             preferred_reps=cfg11.ext1)


@pytest.fixture(scope="module")
def diagram01(cfg01):
    return build_ext_diagram(cfg01.poset, cfg01.charts, cfg01.restrictions,
                             preferred_reps=cfg01.ext1)


def test_singular_curve_rejected():
    with pytest.raises(SingularCurve):
        build(0, 0)


# --- chart cokernel bases ---------------------------------------------------


def test_coker_d1_basis_a_nonzero(cfg11):
    ck = coker(cfg11, U1)
    assert rep_names(ck) == {"1", "z", "z^2", "z^3"}


def test_coker_d2_basis_a_nonzero(cfg11):
    ck = coker(cfg11, U2)
    assert rep_names(ck) == {"1", "y^2"}


def test_coker_d3_basis_a_nonzero(cfg11):
    ck = coker(cfg11, U3)
    assert rep_names(ck) == {"x^2*y^-1", "1", "y^-1", "y^-2", "y^-3"}


def test_coker_d1_basis_a_zero(cfg01):
    ck = coker(cfg01, U1)
    assert rep_names(ck) == {"1", "z", "x", "x*z"}


def test_coker_d2_basis_a_zero(cfg01):
    ck = coker(cfg01, U2)
    assert rep_names(ck) == {"1", "x"}


def test_coker_d3_basis_a_zero(cfg01):
    ck = coker(cfg01, U3)
    assert rep_names(ck) == {"x^2*y^-1", "1", "y^-1", "x", "x*y^-1"}


# --- reduction identities ------------------------------------------------------


def test_reduce_15y2_is_disc_times_inverse_square(cfg11):
    ck = coker(cfg11, U3)
    red = ck.reduce("15*y^2")
    expected = {"y^-2": Fraction(31)}
    got = {lbl: c for lbl, c in zip(ck.rep_labels, red.coords) if c}
    assert got == expected
    # the witness is an exact preimage
    resid = ck.algebra.normal_form("15*y^2 - 31*y^-2")
    assert ck.derivation(red.witness) == resid


def test_reduce_x_consistent_with_a_zero_identity(cfg01):
    ck = coker(cfg01, U3)
    red = ck.reduce("x")
    got = {lbl: c for lbl, c in zip(ck.rep_labels, red.coords) if c}
    assert got == {"x": Fraction(1)}
    # -3b*x*y^-2 = x in the cokernel, here with b = 1
    assert ck.reduce("x + 3*x*y^-2").is_zero()
    red2 = ck.reduce("x*y^-2")
    got2 = {lbl: c for lbl, c in zip(ck.rep_labels, red2.coords) if c}
    assert got2 == {"x": Fraction(-1, 3)}


def test_reduce_image_element_is_zero(cfg11):
    ck = coker(cfg11, U3)
    x = ck.algebra.generator("x")
    red = ck.reduce(ck.derivation(x))
    assert red.is_zero()
    assert ck.derivation(red.witness) == ck.derivation(x)


def test_reduce_is_linear(cfg11):
    ck = coker(cfg11, U3)
    rng = random.Random(3)
    monos = ck.algebra.nf_monomials(5)
    for _ in range(8):
        e1 = ck.algebra.normal_form({rng.choice(monos): Fraction(rng.randint(1, 5))})
        e2 = ck.algebra.normal_form({rng.choice(monos): Fraction(rng.randint(1, 5))})
        r1, r2, r12 = ck.reduce(e1), ck.reduce(e2), ck.reduce(e1 + e2)
        assert [a + b for a, b in zip(r1.coords, r2.coords)] == r12.coords


def test_reduce_each_representative_is_a_unit_vector(cfg11, cfg01):
    for cfg in (cfg11, cfg01):
        for chart in (U1, U2, U3):
            ck = coker(cfg, chart)
            for i, rep in enumerate(ck.rep_elements()):
                coords = ck.reduce(rep).coords
                assert coords[i] == 1
                assert all(c == 0 for j, c in enumerate(coords) if j != i)


def test_no_stabilization_when_ceiling_too_low(cfg11):
    with pytest.raises(NoStabilization):
        coker(cfg11, U3, d_start=6, d_max=8)
    ck = coker(cfg11, U3)
    with pytest.raises(NoStabilization):
        ck.reduce("y^30")


def test_complement_dimension_is_choice_independent(cfg11):
    # without the preferred table the greedy complement differs as a set but
    # never in size
    for chart, n in ((U1, 4), (U2, 2), (U3, 5)):
        assert coker(cfg11, chart, preferred=False).size == n


def test_stabilization_oracle_recompute_at_dmax_plus_3(cfg11):
    # recomputation with a larger ceiling and window changes nothing
    rng = random.Random(17)
    for chart in (U1, U2, U3):
        ck = coker(cfg11, chart)
        ck2 = coker(cfg11, chart, d_start=ck.d_star + 1, d_max=27)
        assert ck.reps == ck2.reps
        monos = ck.algebra.nf_monomials(6)
        for _ in range(20):
            e = ck.algebra.normal_form(
                {rng.choice(monos): Fraction(rng.randint(-5, 5), rng.randint(1, 3))}
            )
            assert ck.reduce(e).coords == ck2.reduce(e).coords


# --- the image echelon against one elimination per stage ---------------------------


def _stage_oracle(ck, d):
    """Stage d from scratch: the image of the sources of degree <= d + margin
    by truncated_operator_matrix, its rref with the coordinates above degree
    d first, and the greedy complement of the rows pivoting in A_{<=d}."""
    A = ck.algebra
    d_in = d + ck._margin
    m = truncated_operator_matrix(ck.derivation, A, A, d_in, d_in + ck._shift)
    low = A.nf_monomials(d)
    n, h = len(low), m.rows - len(low)
    images = [{} for _ in range(m.cols)]
    for i, row in enumerate(m.sparse):
        for j, c in row.items():
            images[j][i - n if i >= n else h + i] = c
    echelon, pivots = rref(Matrix.from_sparse(m.cols, m.rows, images))
    reducer = SubspaceReducer(n)
    for k, p in enumerate(pivots):
        if p >= h:
            reducer.add({j - h: c for j, c in echelon.sparse[k].items()})
    index = {mono: i for i, mono in enumerate(low)}
    reps = []
    for mono in [*(mono for mono in ck.preferred if mono in index), *low]:
        if mono not in reps and reducer.add({index[mono]: 1}):
            reps.append(mono)
    return reps


def _reduce_oracle(ck, e):
    """The RREF solution of [reps | D] at the window of e, by linalg.solve."""
    A = ck.algebra
    d_in = max(ck.d_star, e.degree()) + ck._margin
    m = truncated_operator_matrix(ck.derivation, A, A, d_in, d_in + ck._shift)
    tgt = A.nf_monomials(d_in + ck._shift)
    k = len(ck.reps)
    reps = Matrix.from_columns([[int(mono == r) for mono in tgt] for r in ck.reps],
                               nrows=len(tgt))
    system = Matrix.from_blocks(len(tgt), k + m.cols, [(0, 0, reps, 1), (0, k, m, 1)])
    x = solve(system, [e.terms.get(mono, 0) for mono in tgt])
    witness = A.normal_form({mono: c for mono, c in zip(A.nf_monomials(d_in), x[k:]) if c})
    return x[:k], witness


def _seeded_curve(rng, a_zero):
    while True:
        a = Fraction(0) if a_zero else Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
        b = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        try:
            return build(a, b)
        except SingularCurve:
            continue


def _genus_two_chart():
    A = PresentedAlgebra(["x", "y"], ["y^2 - x^5 - 1"], name="y^2 = x^5 + 1")
    return A, Derivation(A, {"x": "2*y", "y": "5*x^4"}), ()


def _oracle_cases():
    rng = random.Random(29)
    for a_zero in (False, True):
        cfg = _seeded_curve(rng, a_zero)
        for chart in (U1, U2, U3):
            c = cfg.charts[chart]
            yield c.algebra, c.derivation, cfg.ext1[chart]
    yield _genus_two_chart()


def test_image_echelon_matches_one_elimination_per_stage():
    rng = random.Random(31)
    for algebra, derivation, preferred in _oracle_cases():
        ck = cokernel_of_derivation(algebra, derivation, preferred=preferred)
        assert ck._margin == ck._shift + 4
        for d in range(D_START, ck.d_star + 1):
            assert ck._stage(d)[0] == _stage_oracle(ck, d), (algebra.name, d)
        monos = algebra.nf_monomials(ck.d_star)
        low = [algebra.normal_form({rng.choice(monos): Fraction(rng.randint(-4, 4), 3)})
               + algebra.normal_form({rng.choice(monos): 1}) for _ in range(4)]
        low += ck.rep_elements() + [derivation(algebra.normal_form({monos[-1]: 1}))]
        high = [algebra.normal_form({mono: 1}) + low[0] for mono in
                (algebra.nf_monomials(ck.d_star + k)[-1] for k in (1, 2))]
        for e in low + high + low:
            red = ck.reduce(e)
            coords, witness = _reduce_oracle(ck, e)
            assert red.coords == coords and red.witness == witness, (algebra.name, e)
        for d in (ck.d_star + 1, ck.d_star + 2):
            assert ck._stage(d)[0] == _stage_oracle(ck, d) == ck.reps


def test_reduce_rejects_representatives_that_are_not_the_stage_complement(cfg11):
    # y = d(-x/2) lies in the image on U2, so reps {1, y} are not the
    # complement the d_star stage found: reduce refuses them at d_star too
    ck = coker(cfg11, U2)
    A = ck.algebra
    y, y2 = (0, 1), (0, 2)
    assert A.variables == ("x", "y") and y2 in ck.reps
    assert ck.derivation(A.normal_form("-1/2*x")) == A.monomial_element(y)
    ck.reps = [y if m == y2 else m for m in ck.reps]
    with pytest.raises(NoStabilization, match="changed the basis"):
        ck.reduce("y^2")


def test_reduce_certifies_that_the_stage_spans_its_degree(cfg11):
    # a stage echelon that lost a representative's row leaves part of the
    # element behind, which reduce reports instead of reading coordinates
    ck = coker(cfg11, U2)
    reps, echelon, n_src = ck._stages[ck.d_star]
    short = SubspaceReducer(echelon.dim)
    for row in echelon.rows[:-1]:
        short.add(row)
    ck._stages[ck.d_star] = (reps, short, n_src)
    with pytest.raises(NoStabilization, match="do not span degree"):
        ck.reduce(ck.rep_elements()[-1])


def test_a_refuted_window_stays_refuted(cfg11):
    # reversing the preferred order makes the window extension pick another
    # complement; the image it inserted must not serve a later reduce
    ck = coker(cfg11, U3)
    ck.preferred.reverse()
    high = ck.algebra.nf_monomials(ck.d_star + 1)[-1]
    with pytest.raises(NoStabilization, match="changed the basis"):
        ck.reduce(ck.algebra.monomial_element(high))
    with pytest.raises(NoStabilization, match="changed the basis"):
        ck.reduce("15*y^2")


_TAMPER_SCRIPT = """
import sys
from ncdef import cokernels, elliptic

if not sys.flags.optimize:
    sys.exit("run with python -O")
cfg = elliptic.build(1, 1)
chart = cfg.charts["U3"]
ck = cokernels.cokernel_of_derivation(chart.algebra, chart.derivation,
                                      preferred=cfg.ext1["U3"])
ck.reduce("15*y^2")
# doubling every stored tag of the image and of the d_star stage doubles
# the coordinates and the witness, which then account for 2*e instead of e;
# every tag is expanded first, so that none is later expanded from doubled ones
_reps, echelon, _n_src = ck._stages[ck.d_star]
for red in (ck._image, echelon):
    for tag in [red._tag(p) for p in red.pivots]:
        for j in tag:
            tag[j] *= 2
try:
    ck.reduce("15*y^2")
except cokernels.CertificationError:
    print("certified")
"""


def test_tampered_reduction_raises_under_python_O():
    # the witness check is an exception, so -O keeps it, also for a reduce
    # served from the cached table
    env = dict(os.environ, PYTHONPATH=str(Path(ncdef.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-O", "-c", _TAMPER_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["certified"]


# --- the Ext^1 diagram -----------------------------------------------------------


def test_diagram_identity_inclusion_is_identity(diagram11):
    f = diagram11.functor
    n = f.dims["U1>U3"]
    assert f.matrix("U1>U3", "id:U1", "id:U3") == Matrix.identity(n)


def test_diagram_intersection_slots_share_the_value_space(diagram11):
    assert diagram11.cokernel_at(INCL_13) is diagram11.cokernel_at(INCL_23)
    assert diagram11.cokernel_at(INCL_13) is diagram11.cokernel_at("id:U3")


def test_diagram_map_sends_z2_to_inverse_square(diagram11):
    # restriction z -> y^-1 sends the class of z^2 to the class of y^-2
    ck1 = diagram11.cokernels[U1]
    ck3 = diagram11.cokernels[U3]
    m = diagram11.functor.matrix("id:U1", "id:U1", INCL_13)
    col = m.column(ck1.reps.index((0, 2)))  # z^2 in A1 exponents (x, z)
    got = {lbl: c for lbl, c in zip(ck3.rep_labels, col) if c}
    assert got == {"y^-2": Fraction(1)}


def test_diagram_slot_sizes(diagram11):
    f = diagram11.functor
    assert f.dims["id:U1"] == 4
    assert f.dims["id:U2"] == 2
    assert f.dims["id:U3"] == 5
    assert f.dims[INCL_13] == 5
    assert f.dims[INCL_23] == 5


def test_intertwining_failure_reported(cfg11):
    bad = dict(cfg11.restrictions)
    from ncdef.algebra import AlgebraMorphism

    # x -> x/y, z -> 1/y composed with an extra twist breaks transport
    A1 = cfg11.charts[U1].algebra
    A3 = cfg11.charts[U3].algebra
    bad[INCL_13] = AlgebraMorphism(A1, A3, {"x": "x*y^-1", "z": "y^-1"}, name="ok")
    bad[INCL_23] = AlgebraMorphism(
        cfg11.charts[U2].algebra, A3, {"x": "x*y^2 - x*y^2 + x", "y": "y"}, name="ok2"
    )
    # still fine: identical maps in disguise
    build_ext_diagram(cfg11.poset, cfg11.charts, bad)
    from ncdef.algebra import AlgebraError

    scaled = {
        INCL_13: bad[INCL_13],
        INCL_23: AlgebraMorphism(
            cfg11.charts[U2].algebra, A3, {"x": "x", "y": "-y"}, name="twist"
        ),
    }
    with pytest.raises(AlgebraError) as err:
        build_ext_diagram(cfg11.poset, cfg11.charts, scaled)
    assert "intertwine" in str(err.value)


# --- global dims ------------------------------------------------------------------


def test_global_hochschild_dims_a_nonzero(cfg11, diagram11):
    hh = global_hochschild_dims(diagram11, constant_functor(cfg11.poset))
    assert hh.dims == (1, 2, 1)


def test_global_hochschild_dims_a_zero(cfg01, diagram01):
    hh = global_hochschild_dims(diagram01, constant_functor(cfg01.poset))
    assert hh.dims == (1, 2, 1)


def test_global_hochschild_zero_diagram(cfg11):
    from ncdef.diagrams import build_resolving_complex
    from ncdef.synthetic import zero_functor

    hh0 = build_resolving_complex(
        cfg11.poset, constant_functor(cfg11.poset), p_max=2
    ).cohomology(0)
    zero_rc = build_resolving_complex(cfg11.poset, zero_functor(cfg11.poset), p_max=2)
    assert (hh0.dim, zero_rc.cohomology(0).dim, zero_rc.cohomology(1).dim) == (1, 0, 0)


def test_paper_h0_cocycles_close(cfg11, diagram11, cfg01, diagram01):
    # both tangent representative tuples are cocycles of the diagram complex
    for cfg, diagram in ((cfg11, diagram11), (cfg01, diagram01)):
        hh = global_hochschild_dims(diagram, constant_functor(cfg.poset))
        rc = hh.complex
        for xi in cfg.h0:
            vec = [Fraction(0)] * rc.space_dims[0]
            for obj in cfg.poset.objects:
                ck = diagram.cokernels[obj]
                coords = ck.reduce(xi[obj]).coords
                off = rc.offsets[0][(obj,)]
                for k, c in enumerate(coords):
                    vec[off + k] = c
            assert any(c != 0 for c in vec)
            hh.h0.class_coords(vec)  # raises CocycleError if it does not close
