"""Finite categories, their morphism categories, diagram functors, and the
resolving complex computing derived projective limits.

A functor here assigns a finite-dimensional labeled vector space to every
morphism f of the base category and a matrix to every pair (alpha, beta)
with beta . f . alpha = g. The resolving complex lives on tuples of
composable morphisms; its degree-p differential is the alternating sum of
the outer functor actions and the inner compositions. The normalized
variant restricts to tuples of non-identity morphisms and computes the same
cohomology.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .linalg import Matrix, SubspaceReducer, image_basis, kernel_basis, rank, solve

_ZERO = Fraction(0)
_ONE = Fraction(1)


class CategoryError(ValueError):
    pass


class CocycleError(ValueError):
    """A vector passed for class coordinates is not a cocycle."""

    def __init__(self, residual):
        self.residual = residual
        super().__init__(f"not a cocycle; differential residual {residual}")


class Morphism(NamedTuple):
    name: str
    src: str
    tgt: str


class FiniteCategory:
    """Objects, morphisms and an explicit composition table.

    ``compose(f, g)`` is diagrammatic: first f, then g. Associativity, unit
    laws and totality on composable pairs are verified at construction.
    """

    def __init__(self, objects, morphisms, identities, compose_table):
        self.objects = list(objects)
        self.morphisms = {m.name: m for m in morphisms}
        self.identity = dict(identities)
        self._compose = dict(compose_table)
        for o in self.objects:
            ident = self.morphisms[self.identity[o]]
            if ident.src != o or ident.tgt != o:
                raise CategoryError(f"identity of {o} has wrong endpoints")
        for f in self.morphisms.values():
            for g in self.morphisms.values():
                if f.tgt == g.src:
                    if (f.name, g.name) not in self._compose:
                        raise CategoryError(f"composition table misses {g.name} . {f.name}")
                    h = self.morphisms[self._compose[(f.name, g.name)]]
                    if h.src != f.src or h.tgt != g.tgt:
                        raise CategoryError(f"composite {g.name} . {f.name} has wrong endpoints")
            if self.compose(self.identity[f.src], f.name) != f.name:
                raise CategoryError(f"left unit law fails for {f.name}")
            if self.compose(f.name, self.identity[f.tgt]) != f.name:
                raise CategoryError(f"right unit law fails for {f.name}")
        for f in self.morphisms.values():
            for g in self.morphisms.values():
                if f.tgt != g.src:
                    continue
                fg = self.compose(f.name, g.name)
                for h in self.morphisms.values():
                    if g.tgt != h.src:
                        continue
                    if self.compose(fg, h.name) != self.compose(f.name, self.compose(g.name, h.name)):
                        raise CategoryError("composition not associative")

    @classmethod
    def poset(cls, objects, relations) -> FiniteCategory:
        """Poset category from covering pairs (a, b) meaning a morphism a -> b.

        The relation set is closed under composition automatically.
        """
        objects = list(objects)
        reach = {o: {o} for o in objects}
        changed = True
        rel = set(relations)
        while changed:
            changed = False
            for a, b in list(rel):
                for c in objects:
                    if (b, c) in rel and (a, c) not in rel and a != c:
                        rel.add((a, c))
                        changed = True
        morphisms = [Morphism(f"id:{o}", o, o) for o in objects]
        identities = {o: f"id:{o}" for o in objects}
        for a, b in sorted(rel, key=lambda ab: (objects.index(ab[0]), objects.index(ab[1]))):
            if a == b:
                continue
            morphisms.append(Morphism(f"{a}>{b}", a, b))
        names = {(m.src, m.tgt): m.name for m in morphisms}
        compose_table = {}
        for f in morphisms:
            for g in morphisms:
                if f.tgt == g.src:
                    compose_table[(f.name, g.name)] = names[(f.src, g.tgt)]
        return cls(objects, morphisms, identities, compose_table)

    def compose(self, f: str, g: str) -> str:
        """Name of g . f (apply f first)."""
        return self._compose[(f, g)]

    def is_identity(self, f: str) -> bool:
        return f in (self.identity[o] for o in self.objects)

    def sorted_morphisms(self) -> list[str]:
        """Identities in object order, then non-identities by (src, tgt, name)."""
        idx = {o: k for k, o in enumerate(self.objects)}
        ids = [self.identity[o] for o in self.objects]
        rest = sorted(
            (m for m in self.morphisms.values() if not self.is_identity(m.name)),
            key=lambda m: (idx[m.src], idx[m.tgt], m.name),
        )
        return ids + [m.name for m in rest]

    def mor_arrows(self):
        """All morphisms of the category of morphisms: (f, alpha, beta) -> g."""
        out = []
        for f in self.morphisms.values():
            for alpha in self.morphisms.values():
                if alpha.tgt != f.src:
                    continue
                for beta in self.morphisms.values():
                    if beta.src != f.tgt:
                        continue
                    g = self.compose(alpha.name, self.compose(f.name, beta.name))
                    out.append((f.name, alpha.name, beta.name, g))
        return out


class MorFunctor:
    """Finite-dimensional functor on the morphism category.

    ``dims[f]``/``labels[f]`` describe the value space at the base morphism
    f; ``matrix(f, alpha, beta)`` is the induced map to the value space at
    beta . f . alpha.
    """

    def __init__(self, base: FiniteCategory, dims: dict, mats: dict, labels=None):
        self.base = base
        self.dims = dict(dims)
        self.mats = dict(mats)
        self.labels = labels or {
            f: [f"b{k}" for k in range(self.dims[f])] for f in self.dims
        }

    def matrix(self, f: str, alpha: str, beta: str) -> Matrix:
        return self.mats[(f, alpha, beta)]

    def check_functor(self):
        """Identities map to identity matrices; arrow matrices compose."""
        for f in self.base.morphisms.values():
            ida = self.base.identity[f.src]
            idb = self.base.identity[f.tgt]
            if self.matrix(f.name, ida, idb) != Matrix.identity(self.dims[f.name]):
                raise CategoryError(f"identity arrow at {f.name} is not the identity matrix")
        # With the identity arrows mapping to identity matrices, a pair that
        # composes with an identity arrow holds by the unit laws: skip it.
        ids = set(self.base.identity.values())
        arrows = self.base.mor_arrows()
        arrows_from = {f: [] for f in self.base.morphisms}
        for arrow in arrows:
            if arrow[1] not in ids or arrow[2] not in ids:
                arrows_from[arrow[0]].append(arrow)
        for (f, alpha, beta, g) in arrows:
            m1 = self.matrix(f, alpha, beta)
            if (m1.rows, m1.cols) != (self.dims[g], self.dims[f]):
                raise CategoryError(f"matrix shape mismatch at ({f},{alpha},{beta})")
            if alpha in ids and beta in ids:
                continue
            for (_g, alpha2, beta2, _h) in arrows_from[g]:
                comp_alpha = self.base.compose(alpha2, alpha)
                comp_beta = self.base.compose(beta, beta2)
                lhs = self.matrix(g, alpha2, beta2) @ m1
                rhs = self.matrix(f, comp_alpha, comp_beta)
                if lhs != rhs:
                    raise CategoryError(
                        f"functoriality fails: ({alpha2},{beta2}).({alpha},{beta}) at {f}"
                    )


def constant_functor(base: FiniteCategory, dim: int = 1, label: str = "k") -> MorFunctor:
    dims = {f: dim for f in base.morphisms}
    mats = {
        (f, alpha, beta): Matrix.identity(dim)
        for (f, alpha, beta, _g) in base.mor_arrows()
    }
    labels = {f: [label] * dim if dim == 1 else [f"{label}{i}" for i in range(dim)]
              for f in base.morphisms}
    return MorFunctor(base, dims, mats, labels)


def direct_limit_dim(base: FiniteCategory, G: MorFunctor) -> int:
    """Dimension of lim G over the morphism category (equalizer description)."""
    order = base.sorted_morphisms()
    offsets = {}
    total = 0
    for f in order:
        offsets[f] = total
        total += G.dims[f]
    rows = []
    for (f, alpha, beta, g) in base.mor_arrows():
        m = G.matrix(f, alpha, beta)
        for r in range(m.rows):
            row = [_ZERO] * total
            for c in range(m.cols):
                row[offsets[f] + c] = m[r, c]
            row[offsets[g] + r] -= _ONE
            rows.append(row)
    if not rows:
        return total
    mat = Matrix.from_rows(rows)
    return len(kernel_basis(mat))


class ResolvingComplex:
    """Cochain complex on tuples of composable morphisms of the base category.

    Degree p is the product of the functor values at the total composites
    over the admitted p-tuples (all tuples, or identity-free tuples in the
    normalized variant). Built up to and including degree p_max.
    """

    def __init__(self, base: FiniteCategory, G: MorFunctor, normalized: bool = True,
                 p_max: int = 2):
        if p_max < 1:
            raise CategoryError("p_max must be >= 1")
        self.base = base
        self.functor = G
        self.normalized = normalized
        self.p_max = p_max
        morph_order = base.sorted_morphisms()
        if normalized:
            chain_pool = [f for f in morph_order if not base.is_identity(f)]
        else:
            chain_pool = morph_order

        self.tuples = {0: [(o,) for o in base.objects]}
        self.composites = {0: {(o,): base.identity[o] for o in base.objects}}
        prev = [((f,), f) for f in chain_pool]
        self.tuples[1] = [t for t, _ in prev]
        self.composites[1] = dict(prev)
        for p in range(2, p_max + 1):
            cur = []
            for t, comp in prev:
                last_tgt = base.morphisms[t[-1]].tgt
                for f in chain_pool:
                    if base.morphisms[f].src == last_tgt:
                        cur.append((t + (f,), base.compose(comp, f)))
            self.tuples[p] = [t for t, _ in cur]
            self.composites[p] = dict(cur)
            prev = cur

        self.offsets = {}
        self.space_dims = {}
        for p in range(p_max + 1):
            off, total = {}, 0
            for t in self.tuples[p]:
                off[t] = total
                total += G.dims[self._value_at(p, t)]
            self.offsets[p] = off
            self.space_dims[p] = total

        self.differentials = {p: self._build_differential(p) for p in range(p_max)}
        for p in range(p_max - 1):
            prod = self.differentials[p + 1] @ self.differentials[p]
            if not prod.is_zero():
                raise CategoryError(f"d.d != 0 between degrees {p} and {p + 2}")

    def _value_at(self, p: int, t) -> str:
        return self.composites[p][t]

    def _admitted(self, p: int, t) -> bool:
        return t in self.offsets[p]

    def _block(self, p_out, t_out, p_in, t_in, mat: Matrix, sign: int):
        """sign * mat placed at the slots of t_out and t_in, for Matrix.from_blocks."""
        return self.offsets[p_out][t_out], self.offsets[p_in][t_in], mat, sign

    def _build_differential(self, p: int) -> Matrix:
        G = self.functor
        base = self.base
        blocks = []
        units = {}  # dim -> the identity, shared by the merged blocks
        for t in self.tuples[p + 1]:
            phis = t  # p+1 morphism names (p=0: t is (object,) handled below)
            if p == 0:
                (phi,) = phis
                m = base.morphisms[phi]
                mat1 = G.matrix(base.identity[m.tgt], phi, base.identity[m.tgt])
                blocks.append(self._block(1, t, 0, (m.tgt,), mat1, +1))
                mat2 = G.matrix(base.identity[m.src], base.identity[m.src], phi)
                blocks.append(self._block(1, t, 0, (m.src,), mat2, -1))
                continue
            first, rest = phis[0], phis[1:]
            src0 = base.morphisms[first].src
            tgt_last = base.morphisms[phis[-1]].tgt
            if self._admitted(p, rest):
                comp_rest = self._value_at(p, rest)
                mat = G.matrix(comp_rest, first, base.identity[tgt_last])
                blocks.append(self._block(p + 1, t, p, rest, mat, +1))
            sign = -1
            for i in range(len(phis) - 1):
                merged = phis[:i] + (base.compose(phis[i], phis[i + 1]),) + phis[i + 2:]
                if self._admitted(p, merged):
                    dim = G.dims[self._value_at(p + 1, t)]
                    if dim not in units:
                        units[dim] = Matrix.identity(dim)
                    blocks.append(self._block(p + 1, t, p, merged, units[dim], sign))
                sign = -sign
            head = phis[:-1]
            if self._admitted(p, head):
                comp_head = self._value_at(p, head)
                mat = G.matrix(comp_head, base.identity[src0], phis[-1])
                blocks.append(self._block(p + 1, t, p, head, mat, sign))
        return Matrix.from_blocks(self.space_dims[p + 1], self.space_dims[p], blocks)

    def slot_layout(self, p: int):
        """(tuple, value-space labels, offset) per admitted p-tuple."""
        out = []
        for t in self.tuples[p]:
            f = self._value_at(p, t)
            out.append((t, self.functor.labels[f], self.offsets[p][t]))
        return out

    def cohomology(self, p: int) -> CohomologyGroup:
        if p >= self.p_max:
            raise CategoryError(f"need p_max > {p} for H^{p}")
        d_p = self.differentials[p]
        cocycles = kernel_basis(d_p)
        if p == 0:
            boundaries = []
        else:
            boundaries = image_basis(self.differentials[p - 1])
        return CohomologyGroup(self, p, cocycles, boundaries)


class CohomologyGroup:
    """H^p of a resolving complex: dimension, canonical representative
    cocycles, and exact class coordinates in the chosen basis."""

    def __init__(self, rc: ResolvingComplex, p: int, cocycles, boundaries):
        self.complex = rc
        self.degree = p
        self._boundaries = boundaries
        red = SubspaceReducer(rc.space_dims[p])
        for b in boundaries:
            red.add(b)
        self.representatives = [z for z in cocycles if red.add(z)]
        self._system = None

    @property
    def dim(self) -> int:
        return len(self.representatives)

    def set_representatives(self, reps):
        """Re-base on caller-supplied cocycles after checking they span H^p."""
        coords = [self.class_coords(r) for r in reps]
        m = Matrix.from_columns(coords, nrows=self.dim) if reps else None
        if len(reps) != self.dim or (m is not None and rank(m) != self.dim):
            raise CategoryError("supplied representatives do not form a basis")
        self.representatives = [list(r) for r in reps]
        self._system = None

    def class_coords(self, vec) -> list[Fraction]:
        """Coordinates of a cocycle's class; exactly zero on coboundaries."""
        rc = self.complex
        vec = [Fraction(e) for e in vec]
        residual = rc.differentials[self.degree].apply(vec)
        if any(e != 0 for e in residual):
            raise CocycleError(residual)
        if self._system is None:
            # [representatives | boundaries], factored once by its first solve
            cols = [list(r) for r in self.representatives] + [list(b) for b in self._boundaries]
            if not cols:
                return []
            self._system = Matrix.from_columns(cols, nrows=rc.space_dims[self.degree])
        x = solve(self._system, vec)
        if x is None:
            raise CocycleError(vec)
        return x[: self.dim]


def build_resolving_complex(base: FiniteCategory, G: MorFunctor, normalized: bool = True,
                            p_max: int = 2) -> ResolvingComplex:
    return ResolvingComplex(base, G, normalized=normalized, p_max=p_max)
