"""Constructions only the tests need: an identity chart map, the cokernel
representatives as elements, the zero diagram functor, and malformed
expression strings with the error each one raises."""

from fractions import Fraction

from ncdef.algebra import AlgebraMorphism, PresentedAlgebra
from ncdef.diagrams import FiniteCategory, MorFunctor
from ncdef.linalg import Matrix

_ONE = Fraction(1)

MALFORMED_NUMBERS = [
    ("1/2/3*x", "malformed number '1/2/3'"),
    ("1//2", "malformed number '1//2'"),
    ("3/0*x", "malformed number '3/0'"),
    ("x^", "bad exponent near '^'"),
    ("x^-", "bad exponent near '^'"),
]


def identity_morphism(algebra: PresentedAlgebra) -> AlgebraMorphism:
    images = {v: algebra.generator(v) for v in algebra.variables}
    inv = None
    if algebra.inverted:
        mono = tuple(-1 if v == algebra.inverted else 0 for v in algebra.variables)
        inv = algebra.normal_form({mono: _ONE})
    return AlgebraMorphism(algebra, algebra, images, inv, name=f"id_{algebra.name}")


def rep_elements(ck) -> list:
    """The representative monomials of a cokernel presentation, as elements."""
    return [ck.algebra.monomial_element(m) for m in ck.reps]


def zero_functor(base: FiniteCategory) -> MorFunctor:
    dims = {f: 0 for f in base.morphisms}
    mats = {(f, a, b): Matrix.zero(0, 0) for (f, a, b, _g) in base.mor_arrows()}
    return MorFunctor(base, dims, mats, {f: [] for f in base.morphisms})
