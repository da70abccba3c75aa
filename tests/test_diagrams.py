import random
from fractions import Fraction
from pathlib import Path

import pytest

from ncdef.diagrams import (
    CategoryError,
    CocycleError,
    FiniteCategory,
    Morphism,
    MorFunctor,
    ResolvingComplex,
    build_resolving_complex,
    constant_functor,
)
from ncdef.diagram_io import load_functor
from ncdef.linalg import Matrix, SubspaceReducer, image_basis, kernel_basis
from ncdef.synthetic import random_hom_functor, random_poset
from helpers import zero_functor
from oracles import direct_limit_dim

EXAMPLES = Path(__file__).resolve().parents[1] / "docs" / "examples"


def elliptic_poset():
    return FiniteCategory.poset(["U1", "U2", "U3"], [("U1", "U3"), ("U2", "U3")])


def test_poset_closure_and_composition():
    c = FiniteCategory.poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert "a>c" in c.morphisms
    assert c.compose("a>b", "b>c") == "a>c"
    assert c.compose("id:a", "a>b") == "a>b"


def test_single_object_category():
    c = FiniteCategory.poset(["pt"], [])
    G = constant_functor(c)
    rc = build_resolving_complex(c, G, normalized=True, p_max=2)
    assert rc.space_dims[0] == 1
    assert rc.space_dims[1] == 0
    assert rc.cohomology(0).dim == 1
    assert rc.cohomology(1).dim == 0


def test_elliptic_poset_constant_functor():
    c = elliptic_poset()
    G = constant_functor(c)
    rc = build_resolving_complex(c, G, normalized=True, p_max=2)
    assert rc.space_dims[0] == 3
    assert rc.space_dims[1] == 2
    assert rc.cohomology(0).dim == 1
    assert rc.cohomology(1).dim == 0
    # independent oracle: the only 0->1 differential is (g3-g1, g3-g2)
    d0 = rc.differentials[0]
    img = {tuple(d0.apply(v)) for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1])}
    assert img == {(-1, 0), (0, -1), (1, 1)}


def test_full_complex_degree_one_has_five_slots():
    c = elliptic_poset()
    G = constant_functor(c)
    rc = build_resolving_complex(c, G, normalized=False, p_max=2)
    slots = list(rc.blocks(1, rc.cochain(1, {})))
    assert slots == [("id:U1",), ("id:U2",), ("id:U3",), ("U1>U3",), ("U2>U3",)]


def test_zero_functor_all_cohomology_zero():
    c = elliptic_poset()
    rc = build_resolving_complex(c, zero_functor(c), normalized=True, p_max=2)
    assert rc.cohomology(0).dim == 0
    assert rc.cohomology(1).dim == 0


def test_randomized_functors_are_functorial_and_dd_zero():
    rng = random.Random(314)
    for _ in range(50):
        c = random_poset(rng)
        G = random_hom_functor(c, rng)
        G.check_functor()
        rc = build_resolving_complex(c, G, normalized=True, p_max=3)
        for p in range(2):
            prod = rc.differentials[p + 1] @ rc.differentials[p]
            assert prod.is_zero()


def test_a_flipped_differential_sign_fails_the_dd_check(monkeypatch):
    chain = FiniteCategory.poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    G = constant_functor(chain)
    build_resolving_complex(chain, G)
    build = ResolvingComplex._build_differential

    def flipped(self, p):
        d = build(self, p)
        if p != 1:
            return d
        # every row of d_0 is nonzero here, so flipping any nonzero entry
        # of d_1 leaves d_1 . d_0 nonzero
        entries = [e for i in range(d.rows) for e in d.row(i)]
        k = next(k for k, e in enumerate(entries) if e)
        entries[k] = -entries[k]
        return Matrix(d.rows, d.cols, entries)

    monkeypatch.setattr(ResolvingComplex, "_build_differential", flipped)
    with pytest.raises(CategoryError, match=r"d\.d != 0 between degrees 0 and 2"):
        build_resolving_complex(chain, G)


def test_check_functor_catches_one_changed_entry_of_a_hom_functor():
    # (id:a, id:a, a>c) is the right-hand side of the checked pair
    # (a>b, id:c).(id:a, b>c), whose factors it is not: changing one of its
    # entries, a nonzero to zero or a zero to nonzero, must fail the check
    chain = FiniteCategory.poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    key = ("id:a", "id:a", "a>c")
    changed = set()
    for seed in range(20):
        G = random_hom_functor(chain, random.Random(seed))
        G.check_functor()
        m = G.mats[key]
        entries = [e for i in range(m.rows) for e in m.row(i)]
        for to_zero in (True, False):
            hits = [k for k, e in enumerate(entries) if bool(e) == to_zero]
            if not hits:
                continue
            bad = list(entries)
            bad[hits[0]] = Fraction(0) if to_zero else Fraction(1)
            mats = dict(G.mats)
            mats[key] = Matrix(m.rows, m.cols, bad)
            with pytest.raises(CategoryError, match="functoriality fails"):
                MorFunctor(chain, G.dims, mats, G.labels).check_functor()
            changed.add(to_zero)
    assert changed == {True, False}


def _changed(m: Matrix) -> Matrix:
    """m with its first entry moved by one."""
    entries = [e for i in range(m.rows) for e in m.row(i)]
    entries[0] += 1
    return Matrix(m.rows, m.cols, entries)


def _rejects(G: MorFunctor, key) -> bool:
    mats = dict(G.mats)
    mats[key] = _changed(mats[key])
    try:
        MorFunctor(G.base, G.dims, mats, G.labels).check_functor()
    except CategoryError as exc:
        return "functoriality fails" in str(exc)
    return False


def test_check_functor_catches_a_changed_composite_arrow_on_a_chain():
    # on a < b < c < d the generators are the three covers; every arrow of
    # the morphism category that is not (gamma, id) or (id, gamma) for one
    # of them is a composite, whose changed matrix some checked pair reads
    chain = FiniteCategory.poset("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    assert chain.generators() == ["a>b", "b>c", "c>d"]
    ids = set(chain.identity.values())
    generating = {(gamma, i) for gamma in chain.generators() for i in ids}
    generating |= {(i, gamma) for (gamma, i) in generating}
    G = random_hom_functor(chain, random.Random(4))
    G.check_functor()
    composites = [key for key in G.mats
                  if (key[1], key[2]) not in generating and {key[1], key[2]} - ids]
    assert len(composites) == 13
    assert all(_rejects(G, key) for key in composites)


def _idempotent_category() -> FiniteCategory:
    """One object and e . e = e."""
    table = {("id:pt", "id:pt"): "id:pt", ("id:pt", "e"): "e", ("e", "id:pt"): "e",
             ("e", "e"): "e"}
    return FiniteCategory(["pt"], [Morphism("id:pt", "pt", "pt"), Morphism("e", "pt", "pt")],
                          {"pt": "id:pt"}, table)


def test_check_functor_takes_an_idempotent_as_a_generator():
    # e = e . e is no irreducible arrow and none reaches it, so e generates:
    # (e, id) is idempotent in the morphism category, and a matrix 2 there
    # breaks the law (e, id).(e, id) = (e, id)
    c = _idempotent_category()
    assert c.generators() == ["e"]
    G = constant_functor(c)
    G.check_functor()
    assert _rejects(G, ("e", "e", "id:pt"))
    assert all(_rejects(G, key) for key in G.mats if key[1:] != ("id:pt", "id:pt"))


def test_check_functor_on_the_groupoid_of_cyclic_relations():
    # a > b > c > a closes to a groupoid in which every arrow is a composite
    # of two others: no arrow is irreducible, all six generate, and a changed
    # matrix at any non-identity arrow breaks G(x^-1) G(x) = 1
    c = FiniteCategory.poset("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    assert c.compose("a>b", "b>a") == "id:a"
    assert sorted(c.generators()) == ["a>b", "a>c", "b>a", "b>c", "c>a", "c>b"]
    G = constant_functor(c)
    G.check_functor()
    assert all(_rejects(G, key) for key in G.mats
               if not (c.is_identity(key[1]) and c.is_identity(key[2])))


@pytest.mark.parametrize("example, fractions", [
    ("elliptic_a1_b1_ext1.json", [Fraction(31, 15)]),
    ("synthetic_hom_seed243.json", []),
], ids=["shipped", "synthetic"])
@pytest.mark.parametrize("normalized", [True, False], ids=["normalized", "full"])
def test_a_loaded_diagram_keeps_its_ints_in_the_differentials(example, fractions, normalized):
    # the merged blocks are the functor's own identity-arrow matrices, so
    # no Fraction 1 enters the differentials: every integral entry is an
    # int, and the only Fractions are the diagram's own (one arrow of the
    # shipped example holds 31/15; the synthetic draw is integral)
    base, G = load_functor(EXAMPLES / example)
    rc = build_resolving_complex(base, G, normalized=normalized, p_max=2)
    entries = [e for p in range(2) for row in rc.differentials[p].sparse for e in row.values()]
    assert entries and {abs(e) for e in entries if type(e) is not int} == set(fractions)


def test_normalized_and_full_cohomology_dims_agree():
    rng = random.Random(2718)
    for _ in range(50):
        c = random_poset(rng)
        G = random_hom_functor(c, rng)
        norm = build_resolving_complex(c, G, normalized=True, p_max=3)
        full = build_resolving_complex(c, G, normalized=False, p_max=3)
        for p in range(3):
            assert norm.cohomology(p).dim == full.cohomology(p).dim


def test_h0_matches_direct_limit():
    rng = random.Random(161803)
    for _ in range(25):
        c = random_poset(rng)
        G = random_hom_functor(c, rng)
        rc = build_resolving_complex(c, G, normalized=True, p_max=2)
        assert rc.cohomology(0).dim == direct_limit_dim(c, G)


def test_class_coords_zero_exactly_on_coboundaries():
    rng = random.Random(55)
    c = elliptic_poset()
    G = random_hom_functor(c, rng)
    rc = build_resolving_complex(c, G, normalized=True, p_max=2)
    h1 = rc.cohomology(1)
    for _ in range(10):
        v = [Fraction(rng.randint(-4, 4)) for _ in range(rc.space_dims[0])]
        coords = h1.class_coords(rc.differentials[0].apply(v))
        assert all(x == 0 for x in coords)


def _greedy_representatives(rc, p):
    """The reference: in the full cochain space, the kernel vectors of d_p,
    in column order, that are independent of B^p and of those taken."""
    red = SubspaceReducer(rc.space_dims[p])
    if p:
        for b in image_basis(rc.differentials[p - 1]):
            red.add(b)
    return [z for z in kernel_basis(rc.differentials[p]) if red.add(z)]


def _class_plus_coboundary(rc, p, reps, coeffs, rng):
    """sum_k coeffs[k] * reps[k] plus a random coboundary."""
    vec = [Fraction(0)] * rc.space_dims[p]
    for c, rep in zip(coeffs, reps):
        vec = [v + c * e for v, e in zip(vec, rep)]
    if p:
        x = [Fraction(rng.randint(-3, 3)) for _ in range(rc.space_dims[p - 1])]
        vec = [v + e for v, e in zip(vec, rc.differentials[p - 1].apply(x))]
    return vec


def test_cohomology_matches_full_space_greedy_reference():
    rng = random.Random(1729)
    dims = [0, 0]
    for _ in range(20):
        c = random_poset(rng)
        rc = build_resolving_complex(c, random_hom_functor(c, rng), p_max=2)
        for p in (0, 1):
            h = rc.cohomology(p)
            assert h.representatives == _greedy_representatives(rc, p)
            dims[p] += h.dim
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(h.dim)]
            vec = _class_plus_coboundary(rc, p, h.representatives, coeffs, rng)
            assert h.class_coords(vec) == coeffs
            # rebase on a unitriangular change of basis, shifted by coboundaries
            reps = [
                _class_plus_coboundary(rc, p, h.representatives, [
                    1 if j == k else rng.randint(-2, 2) if j < k else 0
                    for j in range(h.dim)
                ], rng)
                for k in range(h.dim)
            ]
            h.set_representatives(reps)
            vec = _class_plus_coboundary(rc, p, reps, coeffs, rng)
            assert h.class_coords(vec) == coeffs
    assert min(dims) > 0


def test_class_coords_rejects_non_cocycle():
    c = elliptic_poset()
    G = constant_functor(c)
    rc = build_resolving_complex(c, G, normalized=True, p_max=2)
    h0 = rc.cohomology(0)
    with pytest.raises(CocycleError) as err:
        h0.class_coords([1, 2, 3])
    assert any(e != 0 for e in err.value.residual)


def test_representative_rebasing_checks_span():
    c = elliptic_poset()
    G = constant_functor(c)
    rc = build_resolving_complex(c, G, normalized=True, p_max=2)
    h0 = rc.cohomology(0)
    (old,) = h0.class_coords([1, 1, 1])
    assert old != Fraction(1, 2)
    # the rebased group solves against the new basis, not the one used above
    h0.set_representatives([[2, 2, 2]])
    assert h0.class_coords([1, 1, 1]) == [Fraction(1, 2)]
    with pytest.raises(CategoryError):
        h0.set_representatives([[0, 0, 0]])


def test_bad_category_rejected():
    morphs = [Morphism("id:a", "a", "a"), Morphism("f", "a", "a")]
    with pytest.raises(CategoryError):
        # f . f claimed to be id breaks associativity/unit structure: f missing table entry
        FiniteCategory(["a"], morphs, {"a": "id:a"}, {("id:a", "id:a"): "id:a"})
