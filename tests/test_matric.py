import random
from fractions import Fraction

import pytest

from ncdef.linalg import SubspaceReducer
from ncdef.matric import (
    MatricArtin,
    MatricElement,
    MatricError,
    MatricGeneratorSet,
    MatricMorphism,
    MatricTruncatedFree,
    SmallSurjection,
    commutativization,
    quotient,
)


def free_on(p, names_positions, N):
    return MatricTruncatedFree(MatricGeneratorSet(p, names_positions), N)


def two_var_free(N):
    return free_on(1, [("t1", 1, 1), ("t2", 1, 1)], N)


# --- test objects k^p[eps_ij] -------------------------------------------------


def make_test_algebra(p: int, i: int, j: int) -> MatricArtin:
    """k^p[eps_ij]: the p+1 dimensional square-zero pointing test object."""
    gens = MatricGeneratorSet(p, [("eps", i, j)])
    free = MatricTruncatedFree(gens, truncation=2)
    return MatricArtin(free, [], name=f"k^{p}[eps_{i}{j}]")


def test_dual_numbers():
    R = make_test_algebra(1, 1, 1)
    assert R.dim == 2
    eps = R.generator("eps")
    assert (eps * eps).is_zero()


def test_pointed_test_algebra_p2():
    R = make_test_algebra(2, 1, 2)
    assert R.dim == 3
    eps = R.generator("eps")
    e1, e2 = R.idempotent(1), R.idempotent(2)
    assert e1 * eps == eps
    assert eps * e2 == eps
    assert (eps * e1).is_zero()
    assert (e2 * eps).is_zero()
    assert (eps * eps).is_zero()


def test_index_out_of_range():
    with pytest.raises(MatricError):
        make_test_algebra(2, 1, 3)


# --- quotients ----------------------------------------------------------------


def test_commutator_quotient_dims():
    free = two_var_free(3)
    c = free.generator("t1") * free.generator("t2") - free.generator("t2") * free.generator("t1")
    R = quotient(free, [c])
    # commutative monomials of degree 0,1,2 in two variables: 1, 2, 3
    assert R.radical_dims_by_order() == [1, 2, 3]


def test_commutator_quotient_keeps_t1_t2_and_drops_t2_t1():
    free = two_var_free(3)
    t1, t2 = free.generator("t1"), free.generator("t2")
    R = quotient(free, [t1 * t2 - t2 * t1])
    words = [free.format_word(w) for w in R.qbasis]
    # the ideal pivots on its largest word, so the smaller t1*t2 survives
    assert words == ["1", "t1", "t2", "t1*t1", "t1*t2", "t2*t2"]
    assert str(R.reduce(t2 * t1)) == "t1*t2"
    assert R.in_ideal(t2 * t1 - t1 * t2) and not R.in_ideal(t2 * t1)


def test_reduce_emits_words_in_basis_order():
    free = two_var_free(3)
    t1, t2 = free.generator("t1"), free.generator("t2")
    R = quotient(free, [t1 * t2 - t2 * t1])
    # coefficients inserted largest word first
    x = free.element({("w", (1, 0)): 3, ("w", (1,)): -1, ("e", 1): 2, ("w", (0, 0)): 5})
    reduced = R.reduce(x)
    assert list(reduced.coeffs) == sorted(reduced.coeffs, key=free.index.__getitem__)
    assert reduced.coeffs == {("e", 1): 2, ("w", (1,)): -1, ("w", (0, 0)): 5,
                              ("w", (0, 1)): 3}


def test_one_pointed_closure_skips_the_unit_and_spans_the_same_ideal(monkeypatch):
    free = two_var_free(6)
    t1, t2 = free.generator("t1"), free.generator("t2")
    gens = [t1 * t2 - t2 * t1, t1 * t1 * t1]
    unit = free.idempotent(1)
    # the closure a quotient would build with the unit among the factors
    ech = SubspaceReducer(free.dim)
    frontier = [g for g in gens if ech.add(free.sparse(g))]
    while frontier:
        frontier = [prod for s in frontier for m in (unit, t1, t2)
                    for prod in (m * s, s * m) if ech.add(free.sparse(prod))]
    factors = []
    real = MatricTruncatedFree.multiply

    def recording(self, a, b):
        factors.extend((a, b))
        return real(self, a, b)

    monkeypatch.setattr(MatricTruncatedFree, "multiply", recording)
    R = quotient(free, gens)
    assert factors and unit not in factors
    assert R.dim == free.dim - ech.rank
    assert all(R.in_ideal(MatricElement(free, {free.basis[k]: c for k, c in row.items()}))
               for row in ech.rows)


def test_zero_ideal_gives_free_algebra():
    free = two_var_free(3)
    R = quotient(free, [])
    assert R.dim == free.dim == 1 + 2 + 4


def test_killing_one_generator():
    free = two_var_free(3)
    R = quotient(free, [free.generator("t1")])
    # k[t2]/(t2^3) pattern
    assert R.dim == 3
    t2 = R.generator("t2")
    assert not (t2 * t2).is_zero()
    assert (t2 * t2 * t2).is_zero()


def test_ideal_generator_outside_radical_rejected():
    free = two_var_free(3)
    with pytest.raises(MatricError):
        quotient(free, [free.one()])


def test_quotient_multiplication_associative_on_basis():
    free = two_var_free(4)
    c = free.generator("t1") * free.generator("t2") - free.generator("t2") * free.generator("t1")
    R = quotient(free, [c])
    elems = [R.element({w: Fraction(1)}) for w in R.qbasis]
    for a in elems:
        for b in elems:
            for cc in elems[:4]:
                assert (a * b) * cc == a * (b * cc)


def test_radical_power_vanishes_at_truncation():
    free = two_var_free(4)
    R = quotient(free, [])
    assert R.radical_basis(4) == []
    assert len(R.radical_basis(3)) == 8


# --- matric structure -----------------------------------------------------------


def _random_artin(rng, p, N=3):
    names = []
    for k in range(rng.randint(1, 3)):
        names.append((f"g{k}", rng.randint(1, p), rng.randint(1, p)))
    free = free_on(p, names, N)
    rad = free.radical_words(1)
    gens = []
    for _ in range(rng.randint(0, 2)):
        coeffs = {}
        for w in rng.sample(rad, min(len(rad), rng.randint(1, 3))):
            coeffs[w] = Fraction(rng.randint(-3, 3))
        g = free.element(coeffs)
        if not g.is_zero():
            gens.append(g)
    return quotient(free, gens)


def test_a_further_quotient_is_the_quotient_by_both_generator_lists():
    # quotient(R, extra) starts from R's closed ideal; it must equal the
    # quotient of the free algebra by R's generators and extra, and leave R
    rng = random.Random(20261021)
    for _ in range(120):
        p = rng.randint(1, 3)
        R = _random_artin(rng, p)
        before = (list(R.qbasis), [g.coeffs for g in R.ideal_basis()])
        rad = R.free.radical_words(1)
        extra = [R.free.element({w: Fraction(rng.randint(-3, 3)) for w in
                                 rng.sample(rad, min(len(rad), rng.randint(1, 3)))})
                 for _ in range(rng.randint(0, 2))]
        S = quotient(R, extra)
        direct = quotient(R.free, R.ideal_generators + extra)
        assert S.ideal_generators == R.ideal_generators + extra
        assert S.qbasis == direct.qbasis
        for w in R.free.basis:
            e = R.free.element({w: Fraction(1)}) + R.free.element(
                {v: Fraction(rng.randint(-2, 2)) for v in rng.sample(R.free.basis, 2)})
            assert S.reduce(e) == direct.reduce(e)
        for u in S.qbasis:
            for v in S.qbasis:
                assert S.word_product(u, v) == direct.word_product(u, v)
        assert (R.qbasis, [g.coeffs for g in R.ideal_basis()]) == before


def test_matric_components_decompose_randomized():
    rng = random.Random(2024)
    for _ in range(15):
        p = rng.randint(1, 3)
        R = _random_artin(rng, p)
        # e_i R e_j decompose R: dimensions add up and components are disjoint
        total = 0
        for i in range(1, p + 1):
            for j in range(1, p + 1):
                comp = [
                    w for w in R.qbasis
                    if R.free.word_row(w) == i and R.free.word_col(w) == j
                ]
                total += len(comp)
                for w in comp:
                    e = R.element({w: Fraction(1)})
                    assert R.component(e, i, j) == e
        assert total == R.dim


def test_idempotents_orthogonal_and_sum_to_one():
    R = make_test_algebra(3, 2, 3)
    s = R.zero()
    for i in range(1, 4):
        for j in range(1, 4):
            prod = R.idempotent(i) * R.idempotent(j)
            if i == j:
                assert prod == R.idempotent(i)
            else:
                assert prod.is_zero()
        s = s + R.idempotent(i)
    assert s == R.one()


# --- commutativization ------------------------------------------------------------


def test_commutativization_kills_off_diagonal_generator():
    free = free_on(2, [("x12", 1, 2)], 2)
    R = quotient(free, [])
    assert R.dim == 3
    Rc = commutativization(R)
    assert Rc.dim == 2
    assert Rc.generator("x12").is_zero()


def test_commutativization_of_commutative_algebra_is_isomorphic():
    free = free_on(1, [("t", 1, 1)], 4)
    R = quotient(free, [])
    Rc = commutativization(R)
    assert Rc.dim == R.dim == 4


def test_commutativization_of_free_two_vars():
    free = two_var_free(3)
    R = quotient(free, [])
    Rc = commutativization(R)
    assert Rc.radical_dims_by_order() == [1, 2, 3]
    assert Rc.is_commutative()


def test_commutativization_functorial_on_quotient_maps():
    # a further quotient S of R induces R^c -> S^c: the commutativized ideal
    # of R lands inside that of S
    rng = random.Random(123)
    for _ in range(10):
        p = rng.randint(1, 3)
        R = _random_artin(rng, p)
        extra = []
        rad = R.free.radical_words(1)
        for w in rng.sample(rad, min(len(rad), 2)):
            extra.append(R.free.element({w: Fraction(rng.randint(1, 3))}))
        S = quotient(R.free, R.ideal_generators + extra)
        Rc, Sc = commutativization(R), commutativization(S)
        for g in Rc.ideal_generators:
            assert Sc.in_ideal(S.free.element(dict(g.coeffs)))


def test_commutativization_idempotent_and_kills_offdiagonal_randomized():
    rng = random.Random(77)
    for _ in range(12):
        p = rng.randint(1, 3)
        R = _random_artin(rng, p)
        Rc = commutativization(R)
        assert Rc.is_commutative()
        Rcc = commutativization(Rc)
        assert Rcc.dim == Rc.dim
        for i in range(1, p + 1):
            for j in range(1, p + 1):
                if i != j:
                    for w in Rc.qbasis:
                        e = Rc.element({w: Fraction(1)})
                        assert Rc.component(e, i, j).is_zero()


# --- small surjections ---------------------------------------------------------


def test_small_surjection_accepted():
    free = two_var_free(3)
    R = quotient(free, [])            # k<t1,t2>/m^3
    words2 = [free.element({w: Fraction(1)}) for w in free.radical_words(2)]
    S = quotient(free, words2)        # k<t1,t2>/m^2
    u = SmallSurjection(R, S)
    assert len(u.kernel_basis) == 4   # the four length-2 words
    t1 = R.generator("t1")
    assert S.reduce(t1 * t1).is_zero()
    assert not S.reduce(t1).is_zero()
    # p = 2, with a: 1 -> 2 and b: 2 -> 1: the length-3 paths aba and bab
    # times a generator are paths of length 4 or not composable
    free = free_on(2, [("a", 1, 2), ("b", 2, 1)], 4)
    a, b = free.generator("a"), free.generator("b")
    u = SmallSurjection(quotient(free, []), quotient(free, [a * b * a, b * a * b]))
    assert len(u.kernel_basis) == 2


def test_non_small_surjection_rejected():
    # k[t]/t^4 -> k[t]/t^2 has kernel (t^2, t^3) with t^2 * t = t^3 != 0
    free = free_on(1, [("t", 1, 1)], 4)
    R = quotient(free, [])
    t = free.generator("t")
    S = quotient(free, [t * t])
    with pytest.raises(MatricError, match="not a small surjection"):
        SmallSurjection(R, S)
    # p = 2: the kernel of k^2<a, b>/m^4 -> k^2<a, b>/(m^4, ab) holds ab,
    # and ab * a = aba != 0 in the source
    free = free_on(2, [("a", 1, 2), ("b", 2, 1)], 4)
    a, b = free.generator("a"), free.generator("b")
    with pytest.raises(MatricError, match="not a small surjection"):
        SmallSurjection(quotient(free, []), quotient(free, [a * b]))


def test_surjection_rejected_when_one_side_fails_on_one_generator():
    # in R = k<t1,t2>/(m^4, t1t1t1, t1t1t2) the kernel of R -> R/(t1t1) holds
    # t1t1, and of its products with a generator only t2 * t1t1 is nonzero;
    # with t2t1t1 in place of t1t1t2 only t1t1 * t2 is
    free = two_var_free(4)
    t1, t2 = free.generator("t1"), free.generator("t2")
    S = quotient(free, [t1 * t1])
    for third, left, right in ((t1 * t1 * t2, [True, False], [True, True]),
                               (t2 * t1 * t1, [True, True], [True, False])):
        R = quotient(free, [t1 * t1 * t1, third])
        k = R.reduce(t1 * t1)
        assert [(R.reduce(t) * k).is_zero() for t in (t1, t2)] == left
        assert [(k * R.reduce(t)).is_zero() for t in (t1, t2)] == right
        with pytest.raises(MatricError, match="not a small surjection"):
            SmallSurjection(R, S)


def _annihilates_the_radical(R, S):
    """The smallness condition checked against the whole radical basis."""
    kernel = [R.reduce(g) for g in S.ideal_basis()]
    return all((k * r).is_zero() and (r * k).is_zero()
               for k in kernel for r in R.radical_basis(1))


def test_generator_smallness_agrees_with_the_radical_basis_check():
    rng = random.Random(20261019)
    outcomes = []
    for _ in range(60):
        p = rng.choice([1, 2])
        if p == 1:
            free = free_on(1, [("t1", 1, 1), ("t2", 1, 1)], 4)
        else:
            free = free_on(2, [("a", 1, 2), ("b", 2, 1), ("c", 1, 1)], 4)

        def random_radical_element(min_length):
            words = free.radical_words(min_length)
            picks = rng.sample(words, min(len(words), rng.randint(1, 3)))
            return free.element({w: Fraction(rng.randint(1, 3)) for w in picks})

        R = quotient(free, [random_radical_element(2) for _ in range(rng.randint(0, 2))])
        extra = [random_radical_element(rng.choice([2, 3])) for _ in range(rng.randint(1, 2))]
        S = quotient(free, list(R.ideal_generators) + extra)
        expected = _annihilates_the_radical(R, S)
        try:
            SmallSurjection(R, S)
            accepted = True
        except MatricError as err:
            assert "not a small surjection" in str(err)
            accepted = False
        assert accepted == expected
        outcomes.append(accepted)
    assert 10 <= sum(outcomes) <= 50


def test_surjection_requires_ideal_inclusion():
    free = two_var_free(3)
    t1 = free.generator("t1")
    R = quotient(free, [t1])
    S = quotient(free, [])
    with pytest.raises(MatricError, match="target is not a further quotient of source"):
        SmallSurjection(R, S)


def test_kernel_coordinates_roundtrip():
    rng = random.Random(20261019)
    free = two_var_free(3)
    R = quotient(free, [])
    words2 = [free.element({w: Fraction(1)}) for w in free.radical_words(2)]
    S = quotient(free, words2)
    u = SmallSurjection(R, S)
    assert len(u.kernel_basis) == 4
    t1, t2 = R.generator("t1"), R.generator("t2")
    k = t1 * t2 - t2 * t1
    coords = u.kernel_coordinates(k)
    rebuilt = R.zero()
    for c, b in zip(coords, u.kernel_basis):
        rebuilt = rebuilt + b.scale(c)
    assert rebuilt == k
    # random kernel combinations give back their exact coordinates
    for _ in range(20):
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.5
             else Fraction(0) for _ in u.kernel_basis]
        elem = R.zero()
        for c, b in zip(x, u.kernel_basis):
            elem = elem + b.scale(c)
        assert u.kernel_coordinates(elem) == x
    assert u.kernel_coordinates(R.zero()) == [0] * 4
    # t1 maps to a nonzero element of S: it has no kernel coordinates
    assert u.kernel_coordinates(k + t1) is None
    # a surjection with a zero kernel takes only zero
    same = SmallSurjection(S, S)
    assert same.kernel_basis == []
    assert same.kernel_coordinates(S.zero()) == []
    assert same.kernel_coordinates(S.generator("t1")) is None


# --- morphisms -------------------------------------------------------------------


def test_morphism_pushes_words():
    free = two_var_free(4)
    R = quotient(free, [])
    t1, t2 = R.generator("t1"), R.generator("t2")
    u = MatricMorphism(R, R, {"t1": t1 + t2 * t2, "t2": t2})
    img = u.apply(t1 * t2)
    assert img == t1 * t2 + t2 * t2 * t2


def test_morphism_must_kill_source_ideal():
    free = two_var_free(3)
    c = free.generator("t1") * free.generator("t2") - free.generator("t2") * free.generator("t1")
    R = quotient(free, [c])
    F = quotient(free, [])
    t1, t2 = F.generator("t1"), F.generator("t2")
    with pytest.raises(MatricError):
        MatricMorphism(R, F, {"t1": t1, "t2": t2})
