"""The property suite behind `ncdef selftest`.

Each suite returns (name, ok, detail); run_all prints one line per suite and
reports overall success. The same checks back the randomized portions of the
test suite, with fixed seeds so results are reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .diagrams import build_resolving_complex
from .linalg import Matrix, cokernel_reps, image_basis, kernel_basis, rank, solve
from .synthetic import random_hom_functor, random_poset


def suite_dd_zero(seed=314, runs=50):
    rng = random.Random(seed)
    for _ in range(runs):
        c = random_poset(rng)
        G = random_hom_functor(c, rng)
        rc = build_resolving_complex(c, G, normalized=True, p_max=3)
        for p in range(2):
            if not (rc.differentials[p + 1] @ rc.differentials[p]).is_zero():
                return False, f"d.d != 0 on a poset with {len(c.objects)} objects"
    return True, f"{runs} randomized diagram functors"


def suite_normalized_vs_full(seed=2718, runs=50):
    rng = random.Random(seed)
    for _ in range(runs):
        c = random_poset(rng)
        G = random_hom_functor(c, rng)
        norm = build_resolving_complex(c, G, normalized=True, p_max=3)
        full = build_resolving_complex(c, G, normalized=False, p_max=3)
        for p in range(3):
            if norm.cohomology(p).dim != full.cohomology(p).dim:
                return False, f"H^{p} differs between normalized and full"
    return True, f"{runs} randomized diagram functors, degrees 0..2"


def suite_linalg_roundtrips(seed=20260810, runs=200):
    rng = random.Random(seed)
    for _ in range(runs):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        entries = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)) if rng.random() > 0.3
            else Fraction(0)
            for _ in range(rows * cols)
        ]
        m = Matrix(rows, cols, entries)
        ker = kernel_basis(m)
        if rank(m) + len(ker) != cols:
            return False, "rank-nullity failed"
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
        b = m.apply(coeffs)
        x = solve(m, b)
        if x is None or m.apply(x) != b:
            return False, "solve round-trip failed"
        reps = cokernel_reps(m)
        if len(reps) + len(image_basis(m)) != rows:
            return False, "cokernel complement count failed"
    return True, f"{runs} randomized matrices"


def suite_commutativization(seed=77, runs=15):
    from .matric import MatricGeneratorSet, MatricTruncatedFree, commutativization, quotient

    rng = random.Random(seed)
    for _ in range(runs):
        p = rng.randint(1, 3)
        names = [(f"g{k}", rng.randint(1, p), rng.randint(1, p))
                 for k in range(rng.randint(1, 3))]
        free = MatricTruncatedFree(MatricGeneratorSet(p, names), 3)
        rad = free.radical_words(1)
        gens = []
        for _ in range(rng.randint(0, 2)):
            coeffs = {w: Fraction(rng.randint(-3, 3))
                      for w in rng.sample(rad, min(len(rad), 2))}
            g = free.element(coeffs)
            if not g.is_zero():
                gens.append(g)
        R = quotient(free, gens)
        Rc = commutativization(R)
        if not Rc.is_commutative():
            return False, "commutativization left a noncommutative pair"
        for i in range(1, p + 1):
            for j in range(1, p + 1):
                if i == j:
                    continue
                for w in Rc.qbasis:
                    e = Rc.element({w: Fraction(1)})
                    if not Rc.component(e, i, j).is_zero():
                        return False, f"off-diagonal ({i},{j}) component survives"
    return True, f"{runs} randomized pointed algebras, p <= 3"


def suite_cokernel_stability(a=1, b=1, seed=17):
    from . import elliptic
    from .cokernels import cokernel_of_derivation

    rng = random.Random(seed)
    cfg = elliptic.build(a, b)
    pref = cfg.ext1
    for obj, chart in cfg.charts.items():
        ck = cokernel_of_derivation(chart.algebra, chart.derivation, 6, 24, pref[obj])
        ck2 = cokernel_of_derivation(chart.algebra, chart.derivation,
                                     ck.d_star + 1, 27, pref[obj])
        if ck.reps != ck2.reps:
            return False, f"basis changed under recomputation at {obj}"
        monos = chart.algebra.nf_monomials(6)
        for _ in range(20):
            e = chart.algebra.normal_form(
                {rng.choice(monos): Fraction(rng.randint(-5, 5), rng.randint(1, 3))}
            )
            if ck.reduce(e).coords != ck2.reduce(e).coords:
                return False, f"reduce coordinates changed at {obj}"
    return True, "all elliptic charts at (1, 1), recomputed at dmax+3"


def suite_defect_invariance(a=1, b=1, seed=99, runs=20):
    from . import elliptic
    from .engine import TensorElement
    from .matric import MatricMorphism, MatricElement, SmallSurjection, quotient
    from .tower import tangent_free

    rng = random.Random(seed)
    cfg = elliptic.build(a, b)
    ctx = elliptic.build_context(cfg)
    free = tangent_free(2, 3)
    base = quotient(free, [], name="T/m^3")
    gens = free.generator_elements
    H2 = quotient(free, [s * t for s in gens for t in gens], name="H2")
    surj = SmallSurjection(base, H2)
    datum = ctx.first_order_datum(base)
    reference = ctx.obstruction_class(ctx.validate(datum), surj)
    t1, t2 = base.generator("t1"), base.generator("t2")
    alpha = MatricMorphism(base, base, {"t1": t1 + t2 * t2, "t2": t2})

    def word_image(w):
        return alpha.apply(MatricElement(base, {w: Fraction(1)}))

    pushed_defect = ctx.validate(datum.push(word_image, base))
    straight = {n: te.push(word_image, base) for n, te in ctx.validate(datum).d11.items()}
    for name in ctx.inclusions:
        if pushed_defect.d11[name] != straight[name]:
            return False, f"defect naturality failed at {name}"
    for _ in range(runs):
        pi = {}
        for obj in ctx.poset.objects:
            A = ctx.algebra_of(obj)
            monos = A.nf_monomials(2)
            coeff = A.normal_form({rng.choice(monos): Fraction(rng.randint(-2, 2))})
            pi[obj] = TensorElement.from_pairs(
                A, base, [(coeff, base.generator(rng.choice(["t1", "t2"])))]
            )
        moved = datum.transport(pi)
        if ctx.obstruction_class(ctx.validate(moved), surj).coords != reference.coords:
            return False, "equivalence transport changed the obstruction class"
    return True, f"naturality + {runs} randomized equivalence transports"


SUITES = [
    ("resolving-complex d.d = 0", suite_dd_zero),
    ("normalized vs full cohomology", suite_normalized_vs_full),
    ("exact linear algebra round-trips", suite_linalg_roundtrips),
    ("commutativization kills off-diagonals", suite_commutativization),
    ("cokernel stabilization oracle", suite_cokernel_stability),
    ("defect naturality and equivalence invariance", suite_defect_invariance),
]


def run_all(write=print) -> bool:
    ok_all = True
    for name, fn in SUITES:
        ok, detail = fn()
        ok_all = ok_all and ok
        write(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return ok_all
