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

from .linalg import Matrix, SubspaceReducer, exact, kernel_basis, rank, rref, solve


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
        seen = set()
        for o in self.objects:
            if o in seen:
                raise CategoryError(f"object {o!r} is listed more than once")
            seen.add(o)
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

    def generators(self) -> list[str]:
        """The non-identity arrows that generate the category under
        composition, in ``sorted_morphisms`` order: the irreducible ones,
        which are no composite of two non-identities, and then every arrow
        that products of those do not reach. On a poset these are the
        covering pairs; on a category without irreducibles, such as a
        cyclic groupoid, they are all its non-identities."""
        arrows = [f for f in self.sorted_morphisms() if not self.is_identity(f)]
        composites = set()
        for f in arrows:
            for g in arrows:
                if self.morphisms[f].tgt == self.morphisms[g].src:
                    composites.add(self.compose(f, g))
        irreducible = [f for f in arrows if f not in composites]
        reached, todo = set(irreducible), list(irreducible)
        while todo:
            f = todo.pop()
            for g in irreducible:
                if self.morphisms[f].tgt == self.morphisms[g].src:
                    h = self.compose(f, g)
                    if h not in reached and not self.is_identity(h):
                        reached.add(h)
                        todo.append(h)
        return irreducible + [f for f in arrows if f not in reached]

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
        """Identities map to identity matrices; arrow matrices compose.

        An arrow (alpha, beta) of the morphism category is (id, beta) after
        (alpha, id), and each factor is a product of generators of the base:
        its irreducible arrows (non-identities that are no composite of two
        non-identities) and any arrow that products of those do not reach,
        such as an idempotent e = e . e. So every arrow b is a product
        s_k ... s_1 of the generating arrows (gamma, id) and (id, gamma).
        The law G(s . a) = G(s) G(a) for every arrow a and generating s then
        gives G(b . a) = G(b) G(a) by induction on k, since G(id) = 1: only
        those pairs are multiplied out.
        """
        for f in self.base.morphisms.values():
            ida = self.base.identity[f.src]
            idb = self.base.identity[f.tgt]
            if self.matrix(f.name, ida, idb) != Matrix.identity(self.dims[f.name]):
                raise CategoryError(f"identity arrow at {f.name} is not the identity matrix")
        base = self.base
        ids = set(base.identity.values())
        into = {o: [] for o in base.objects}    # generators by target
        out_of = {o: [] for o in base.objects}  # generators by source
        for gamma in base.generators():
            m = base.morphisms[gamma]
            into[m.tgt].append(gamma)
            out_of[m.src].append(gamma)
        for (f, alpha, beta, g) in base.mor_arrows():
            m1 = self.matrix(f, alpha, beta)
            if (m1.rows, m1.cols) != (self.dims[g], self.dims[f]):
                raise CategoryError(f"matrix shape mismatch at ({f},{alpha},{beta})")
            if alpha in ids and beta in ids:
                continue
            src, tgt = base.morphisms[g].src, base.morphisms[g].tgt
            pairs = [(gamma, base.identity[tgt]) for gamma in into[src]]
            pairs += [(base.identity[src], gamma) for gamma in out_of[tgt]]
            for alpha2, beta2 in pairs:
                lhs = self.matrix(g, alpha2, beta2) @ m1
                rhs = self.matrix(f, base.compose(alpha2, alpha), base.compose(beta, beta2))
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


class ResolvingComplex:
    """Cochain complex on tuples of composable morphisms of the base category.

    Degree p is the product of the functor values at the total composites
    over the admitted p-tuples (all tuples, or identity-free tuples in the
    normalized variant). Built up to and including degree p_max.

    The functor is taken as certified (``MorFunctor.check_functor``): an
    inner composition maps G(g) to itself by the identity, and the complex
    places G's own matrix of the identity arrow at g there, which the unit
    law makes the identity and which keeps a loaded diagram's ints. The
    d . d = 0 check below still runs on every complex.
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
            # the merged blocks: G's identity-arrow matrix at t's composite
            unit = G.matrix(self._value_at(p + 1, t), base.identity[src0],
                            base.identity[tgt_last])
            if self._admitted(p, rest):
                comp_rest = self._value_at(p, rest)
                mat = G.matrix(comp_rest, first, base.identity[tgt_last])
                blocks.append(self._block(p + 1, t, p, rest, mat, +1))
            sign = -1
            for i in range(len(phis) - 1):
                merged = phis[:i] + (base.compose(phis[i], phis[i + 1]),) + phis[i + 2:]
                if self._admitted(p, merged):
                    blocks.append(self._block(p + 1, t, p, merged, unit, sign))
                sign = -sign
            head = phis[:-1]
            if self._admitted(p, head):
                comp_head = self._value_at(p, head)
                mat = G.matrix(comp_head, base.identity[src0], phis[-1])
                blocks.append(self._block(p + 1, t, p, head, mat, sign))
        return Matrix.from_blocks(self.space_dims[p + 1], self.space_dims[p], blocks)

    def blocks(self, p: int, vec) -> dict:
        """Each admitted p-tuple's entries of the degree-p cochain vec, in
        layout order."""
        out = {}
        for t in self.tuples[p]:
            off = self.offsets[p][t]
            out[t] = list(vec[off: off + self.functor.dims[self._value_at(p, t)]])
        return out

    def coordinates(self, p: int) -> list[tuple]:
        """The (p-tuple, label) that each coordinate of a degree-p cochain
        reports, in layout order: a cochain's nonzero entries are read
        through it without cutting the vector into slots."""
        labels = self.functor.labels
        return [(t, label) for t in self.tuples[p] for label in labels[self._value_at(p, t)]]

    def cochain(self, p: int, blocks: dict) -> list[Fraction]:
        """The degree-p cochain vector with the given entries {p-tuple:
        entries}; the tuples not listed are zero."""
        vec = [0] * self.space_dims[p]
        for t, entries in blocks.items():
            off = self.offsets[p][t]
            if len(entries) != self.functor.dims[self._value_at(p, t)]:
                raise CategoryError(f"{len(entries)} entries for the slot {t}")
            vec[off: off + len(entries)] = entries
        return vec

    def cohomology(self, p: int) -> CohomologyGroup:
        if p >= self.p_max:
            raise CategoryError(f"need p_max > {p} for H^{p}")
        return CohomologyGroup(self, p)


class CohomologyGroup:
    """H^p of a resolving complex: dimension, canonical representative
    cocycles, and exact class coordinates in the chosen basis.

    It works in cocycle coordinates: a cocycle is fixed by its entries at
    the free (non-pivot) columns of d_p, so Z^p is Q^free. The boundaries,
    restricted to those columns, form one echelon pivoting on last indices.
    The free columns left without a pivot give the canonical representatives
    (the kernel vectors of d_p there, which greedy selection over the kernel
    basis in column order after the boundaries accepts), and a class's
    canonical coordinates are the residual of its free entries, read there.
    """

    def __init__(self, rc: ResolvingComplex, p: int):
        self.complex = rc
        self.degree = p
        d = rc.differentials[p]
        pivots = set(rref(d)[1])
        self._free = [j for j in range(d.cols) if j not in pivots]
        position = {j: k for k, j in enumerate(self._free)}
        self._image = SubspaceReducer(len(self._free))
        if p > 0:
            prev = rc.differentials[p - 1]
            columns = prev.transpose().sparse
            for j in rref(prev)[1]:
                self._image.add({position[i]: e for i, e in columns[j].items()
                                 if i in position})
        taken = set(self._image.pivots)
        self._classes = [k for k in range(len(self._free)) if k not in taken]
        cocycles = kernel_basis(d)
        self.representatives = [cocycles[k] for k in self._classes]
        self._basis = None  # columns: the representatives in canonical coordinates

    @property
    def dim(self) -> int:
        return len(self.representatives)

    def set_representatives(self, reps):
        """Re-base on caller-supplied cocycles after checking they span H^p."""
        coords = [self._canonical_coords(r) for r in reps]
        m = Matrix.from_columns(coords, nrows=self.dim) if reps else None
        if len(reps) != self.dim or (m is not None and rank(m) != self.dim):
            raise CategoryError("supplied representatives do not form a basis")
        self.representatives = [list(r) for r in reps]
        self._basis = m

    def class_coords(self, vec) -> list[Fraction]:
        """Coordinates of a cocycle's class; exactly zero on coboundaries."""
        coords = self._canonical_coords(vec)
        return coords if self._basis is None else solve(self._basis, coords)

    def _canonical_coords(self, vec) -> list[Fraction]:
        """Class coordinates of a cocycle in the canonical representatives."""
        vec = [exact(e) for e in vec]
        residual = self.complex.differentials[self.degree].apply(vec)
        if any(e != 0 for e in residual):
            raise CocycleError(residual)
        rest = self._image.residual({k: vec[j] for k, j in enumerate(self._free)})
        return [rest.get(k, 0) for k in self._classes]


def build_resolving_complex(base: FiniteCategory, G: MorFunctor, normalized: bool = True,
                            p_max: int = 2) -> ResolvingComplex:
    return ResolvingComplex(base, G, normalized=normalized, p_max=p_max)
