"""Synthetic posets and diagram functors for property suites.

The hom-functor construction below is functorial by design: presheaves are
factored through a common core (P_V Q_U with Q P = id), so their induced
maps compose on the nose. Used both by the test suite and `ncdef selftest`.
"""

from __future__ import annotations

from .diagrams import FiniteCategory, MorFunctor
from .linalg import Matrix


def random_poset(rng, max_objects: int = 4) -> FiniteCategory:
    n = rng.randint(1, max_objects)
    objects = [f"P{i}" for i in range(n)]
    relations = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                relations.append((objects[i], objects[j]))
    return FiniteCategory.poset(objects, relations)


def _random_unitriangular(rng, n: int) -> tuple[Matrix, Matrix]:
    """(S, S^-1) with S = I + strictly upper triangular small integers."""
    nil = [[rng.randint(-2, 2) if j > i else 0 for j in range(n)]
           for i in range(n)]
    N = Matrix.from_rows(nil) if n else Matrix.zero(0, 0)
    S = Matrix.identity(n) + N
    inv = Matrix.identity(n)
    power = Matrix.identity(n)
    for _ in range(n):
        power = power @ N
        inv = inv + power.scale((-1) ** (_ + 1))
        if power.is_zero():
            break
    return S, inv


class SyntheticPresheaf:
    """Covariant diagram of vector spaces on a poset, functorial by factoring
    every structure map through a fixed core dimension."""

    def __init__(self, base: FiniteCategory, rng, core: int | None = None,
                 max_extra: int = 2):
        self.base = base
        self.core = core if core is not None else rng.randint(1, 2)
        self.dims = {}
        P, Q = {}, {}
        for o in base.objects:
            n = self.core + rng.randint(0, max_extra)
            self.dims[o] = n
            S, S_inv = _random_unitriangular(rng, n)
            emb = Matrix(n, self.core,
                         [(1 if i == j else 0) for i in range(n)
                          for j in range(self.core)])
            proj = Matrix(self.core, n,
                          [(1 if i == j else 0) for i in range(self.core)
                           for j in range(n)])
            P[o] = S @ emb
            Q[o] = proj @ S_inv
        self._maps = {}
        for f, m in base.morphisms.items():
            if base.is_identity(f):
                self._maps[f] = Matrix.identity(self.dims[m.src])
            else:
                self._maps[f] = P[m.tgt] @ Q[m.src]

    def matrix(self, f: str) -> Matrix:
        return self._maps[f]


def random_hom_functor(base: FiniteCategory, rng) -> MorFunctor:
    """Hom_k(F1, F2) as a functor on the morphism category of the base."""
    F1 = SyntheticPresheaf(base, rng)
    F2 = SyntheticPresheaf(base, rng)
    dims = {}
    labels = {}
    for f, m in base.morphisms.items():
        dims[f] = F1.dims[m.src] * F2.dims[m.tgt]
        labels[f] = [f"h{i}" for i in range(dims[f])]
    mats = {}
    for (f, alpha, beta, g) in base.mor_arrows():
        fm = base.morphisms[f]
        gm = base.morphisms[g]
        A = F1.matrix(alpha).sparse             # F1(src g) -> F1(src f)
        B = F2.matrix(beta).transpose().sparse  # columns of F2(tgt f) -> F2(tgt g)
        n1_f, n1_g = F1.dims[fm.src], F1.dims[gm.src]
        n2_f, n2_g = F2.dims[fm.tgt], F2.dims[gm.tgt]
        rows = [{} for _ in range(n1_g * n2_g)]
        for i in range(n2_f):
            for j in range(n1_f):
                col = i * n1_f + j
                # image of the matrix unit E_ij is B E_ij A, each entry a
                # single product of two ints
                for k, bki in B[i].items():
                    for l, a_jl in A[j].items():
                        rows[k * n1_g + l][col] = bki * a_jl
        mats[(f, alpha, beta)] = Matrix.from_sparse(n1_g * n2_g, n1_f * n2_f, rows)
    return MorFunctor(base, dims, mats, labels)

