"""p-pointed matric Artin algebras: truncated free path algebras on matric
generators, two-sided quotients, small surjections, commutativization.

Basis words of the truncated free algebra are the idempotents e_1..e_p and
the composable generator paths of length < N (paths of length >= N vanish).
Quotients keep a canonical monomial basis: the ideal subspace is echelonized
by a ``linalg.SubspaceReducer``, which pivots on the largest word, so the
surviving complement words are the small ones (for the commutator ideal on
t1, t2 the class of t1*t2 = t2*t1 is stored as t1*t2). Elements reach the
echelon as sparse ``{word index: coefficient}`` dicts
(``MatricTruncatedFree.sparse`` and ``MatricArtin.sparse``), so no step of
a quotient or a small surjection builds a vector as long as the algebra.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from .linalg import SubspaceReducer, axpy, format_terms, tag_coordinates

_ZERO = Fraction(0)
_ONE = Fraction(1)


class MatricError(ValueError):
    pass


class MatricGeneratorSet:
    """Named generators with matric positions (name, row, col), 1-based."""

    def __init__(self, p: int, generators):
        if p < 1:
            raise MatricError("p must be >= 1")
        self.p = p
        self.generators = []
        seen = set()
        for name, i, j in generators:
            if not (1 <= i <= p and 1 <= j <= p):
                raise MatricError(f"generator {name!r} has position ({i},{j}) outside p={p}")
            if name in seen:
                raise MatricError(f"duplicate generator name {name!r}")
            seen.add(name)
            self.generators.append((name, i, j))

    def __len__(self):
        return len(self.generators)


def _word_key(word):
    kind, data = word
    if kind == "e":
        return (0, 0, (data,))
    return (1, len(data), data)


class MatricTruncatedFree:
    """Free matric algebra on a generator set, truncated at I^N = 0."""

    def __init__(self, gens: MatricGeneratorSet, truncation: int):
        if truncation < 1:
            raise MatricError("truncation must be >= 1")
        self.gens = gens
        self.p = gens.p
        self.truncation = truncation
        paths = [()]
        words = []
        for length in range(1, truncation):
            new = []
            for path in paths:
                last_col = gens.generators[path[-1]][2] if path else None
                for gi, (_, i, j) in enumerate(gens.generators):
                    if last_col is None or last_col == i:
                        new.append(path + (gi,))
            words.extend(new)
            paths = new
        self.basis = [("e", i) for i in range(1, self.p + 1)]
        self.basis += sorted([("w", w) for w in words], key=_word_key)
        self.index = {w: k for k, w in enumerate(self.basis)}
        self.dim = len(self.basis)
        # the generators as elements, in generator order (they generate I)
        self.generator_elements = [self.element({w: _ONE}) for w in self.basis
                                   if self.word_length(w) == 1]

    def word_row(self, word) -> int:
        kind, data = word
        if kind == "e":
            return data
        return self.gens.generators[data[0]][1]

    def word_col(self, word) -> int:
        kind, data = word
        if kind == "e":
            return data
        return self.gens.generators[data[-1]][2]

    def word_length(self, word) -> int:
        kind, data = word
        return 0 if kind == "e" else len(data)

    def mul_words(self, u, v):
        """Product of two basis words: a basis word or None (zero)."""
        ku, du = u
        kv, dv = v
        if ku == "e":
            if kv == "e":
                return u if du == dv else None
            return v if du == self.word_row(v) else None
        if kv == "e":
            return u if self.word_col(u) == dv else None
        if self.word_col(u) != self.word_row(v):
            return None
        w = du + dv
        if len(w) >= self.truncation:
            return None
        return ("w", w)

    def element(self, coeffs: dict) -> MatricElement:
        return MatricElement(self, {w: Fraction(c) for w, c in coeffs.items() if c})

    def zero(self) -> MatricElement:
        return self.element({})

    def one(self) -> MatricElement:
        return self.element({("e", i): _ONE for i in range(1, self.p + 1)})

    def idempotent(self, i: int) -> MatricElement:
        return self.element({("e", i): _ONE})

    def generator(self, name: str) -> MatricElement:
        for gi, (n, _, _) in enumerate(self.gens.generators):
            if n == name:
                return self.element({("w", (gi,)): _ONE})
        raise MatricError(f"no generator named {name!r}")

    def radical_words(self, min_length: int = 1):
        return [w for w in self.basis if self.word_length(w) >= min_length]

    def format_word(self, word) -> str:
        kind, data = word
        if kind == "e":
            return f"e{data}" if self.p > 1 else "1"
        return "*".join(self.gens.generators[g][0] for g in data)

    def multiply(self, a: MatricElement, b: MatricElement) -> MatricElement:
        out = {}
        for u, cu in a.coeffs.items():
            for v, cv in b.coeffs.items():
                w = self.mul_words(u, v)
                if w is not None:
                    s = out.get(w, _ZERO) + cu * cv
                    if s:
                        out[w] = s
                    else:
                        out.pop(w, None)
        return MatricElement(self, out)

    def sparse(self, elem: MatricElement) -> dict:
        """Sparse coordinates {basis index: coefficient} of a free element."""
        index = self.index
        return {index[w]: c for w, c in elem.coeffs.items()}


class MatricElement:
    """Element of a truncated free matric algebra (free coordinates)."""

    __slots__ = ("parent", "coeffs")

    def __init__(self, parent, coeffs):
        self.parent = parent
        self.coeffs = coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        axpy(out, _ONE, other.coeffs)
        return MatricElement(self.parent, out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        axpy(out, -_ONE, other.coeffs)
        return MatricElement(self.parent, out)

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return MatricElement(self.parent, {})
        return MatricElement(self.parent, {w: c * v for w, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return self.parent.multiply(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __neg__(self):
        return self.scale(-_ONE)

    def __eq__(self, other):
        return isinstance(other, MatricElement) and self.coeffs == other.coeffs

    def is_zero(self):
        return not self.coeffs

    def radical_order(self) -> int:
        """Largest n with the element in I^n (truncation if zero)."""
        free = self.parent.free if isinstance(self.parent, MatricArtin) else self.parent
        if not self.coeffs:
            return free.truncation
        return min(free.word_length(w) for w in self.coeffs)

    def __str__(self):
        free = self.parent.free if isinstance(self.parent, MatricArtin) else self.parent
        return format_terms((free.format_word(w), self.coeffs[w])
                            for w in sorted(self.coeffs, key=_word_key))

    __repr__ = __str__


class MatricArtin:
    """Two-sided quotient of a truncated free matric algebra.

    The ideal is stored by generators and closed to a linear basis at the
    working truncation; the quotient basis is the canonical word complement,
    and ``word_product`` tables the reduced product of two basis words. The
    base is the free algebra or a quotient R of it: the quotient of R by
    more generators starts from R's closed ideal, whose rows it shares.
    """

    def __init__(self, base, ideal_generators=(), name="R"):
        gens = list(ideal_generators)
        if isinstance(base, MatricArtin):
            free, ech = base.free, base._ideal.copy()
            self.ideal_generators = base.ideal_generators + gens
        else:
            free, ech = base, SubspaceReducer(base.dim)
            self.ideal_generators = gens
        self.free = free
        self.p = free.p
        self.name = name
        for g in gens:
            if any(free.word_length(w) == 0 for w in g.coeffs):
                raise MatricError("ideal generator outside the radical")
        # two-sided closure: multiply by idempotents and length-1 generators;
        # for p = 1 the one idempotent is the unit, whose products add nothing.
        # Only a vector that enlarged the echelon is multiplied further, so a
        # closed base ideal is not multiplied again.
        side = [free.idempotent(i) for i in range(1, free.p + 1)] if free.p > 1 else []
        side += free.generator_elements
        work = deque(gens)
        while work:
            s = work.popleft()
            if ech.add(free.sparse(s)):
                for m in side:
                    work += (m * s, s * m)
        self._ideal = ech
        pivot_set = set(ech.pivots)
        self.qbasis = [w for k, w in enumerate(free.basis) if k not in pivot_set]
        self.qindex = {w: k for k, w in enumerate(self.qbasis)}
        self.dim = len(self.qbasis)
        for i in range(1, free.p + 1):
            if ("e", i) not in self.qindex:
                raise MatricError("ideal meets the idempotents; not a pointed quotient")
        self._products: dict[tuple, dict] = {}

    # -- reduction and elements ---------------------------------------------

    def reduce(self, elem: MatricElement) -> MatricElement:
        """Canonical representative of an element reduced mod the ideal. Only
        its word coefficients are read, so it may be an element of the free
        algebra or of any quotient of it (``in_ideal`` reads the same)."""
        return self._reduce_sparse(self.free.sparse(elem))

    def _reduce_sparse(self, vec: dict) -> MatricElement:
        """The reduced element of sparse free coordinates, its words in
        basis order."""
        basis = self.free.basis
        v = self._ideal.residual(vec)
        return MatricElement(self, {basis[k]: v[k] for k in sorted(v)})

    def element(self, coeffs: dict) -> MatricElement:
        return self.reduce(self.free.element(coeffs))

    def zero(self) -> MatricElement:
        return MatricElement(self, {})

    def one(self) -> MatricElement:
        return self.reduce(self.free.one())

    def idempotent(self, i) -> MatricElement:
        return self.reduce(self.free.idempotent(i))

    def generator(self, name) -> MatricElement:
        return self.reduce(self.free.generator(name))

    def in_ideal(self, elem: MatricElement) -> bool:
        return self._ideal.contains(self.free.sparse(elem))

    def ideal_basis(self) -> list[MatricElement]:
        """A basis of the ideal, as free elements: the rows of its echelon,
        each 1 at its largest word. Only their span is fixed, not their
        order, and the rows are not reduced: a row may hold another row's
        pivot word."""
        basis = self.free.basis
        return [MatricElement(self.free, {basis[k]: c for k, c in row.items()})
                for row in self._ideal.rows]

    def word_product(self, u, v) -> dict:
        """The reduced product of the basis words u and v as ``{word:
        coefficient}``, computed on first use and tabled; callers must not
        edit it."""
        prod = self._products.get((u, v))
        if prod is None:
            w = self.free.mul_words(u, v)
            prod = {} if w is None else self._reduce_sparse({self.free.index[w]: _ONE}).coeffs
            self._products[u, v] = prod
        return prod

    def multiply(self, a: MatricElement, b: MatricElement) -> MatricElement:
        out = {}
        for u, cu in a.coeffs.items():
            for v, cv in b.coeffs.items():
                axpy(out, cu * cv, self.word_product(u, v))
        return MatricElement(self, out)

    def sparse(self, elem: MatricElement) -> dict:
        """Sparse coordinates {quotient basis index: coefficient}."""
        qindex = self.qindex
        return {qindex[w]: c for w, c in elem.coeffs.items()}

    # -- structure ------------------------------------------------------------

    def radical_basis(self, min_order: int = 1) -> list[MatricElement]:
        """Basis of I(R)^min_order as a subspace of the quotient."""
        ech = SubspaceReducer(self.dim)
        out = []
        for w in self.free.radical_words(min_order):
            e = self.reduce(self.free.element({w: _ONE}))
            if not e.is_zero() and ech.add(self.sparse(e)):
                out.append(e)
        return out

    def radical_dims_by_order(self) -> list[int]:
        """Dimensions of the graded pieces I^n / I^(n+1), n = 0..truncation-1."""
        dims = [self.dim]
        for n in range(1, self.free.truncation):
            dims.append(len(self.radical_basis(n)))
        return [dims[n] - dims[n + 1] for n in range(len(dims) - 1)] + [dims[-1]]

    def component(self, elem: MatricElement, i: int, j: int) -> MatricElement:
        return self.multiply(self.multiply(self.idempotent(i), elem), self.idempotent(j))

    def is_commutative(self) -> bool:
        basis_elems = [MatricElement(self, {w: _ONE}) for w in self.qbasis]
        for a in basis_elems:
            for b in basis_elems:
                if self.multiply(a, b) != self.multiply(b, a):
                    return False
        return True


def quotient(base, ideal_generators, name="R") -> MatricArtin:
    """The quotient of the free algebra, or further quotient of a quotient,
    by the two-sided ideal the generators generate."""
    return MatricArtin(base, ideal_generators, name=name)


def commutativization(R: MatricArtin) -> MatricArtin:
    """Quotient of R by the two-sided ideal generated by all commutators."""
    free = R.free
    side = [free.idempotent(i) for i in range(1, free.p + 1)] + free.generator_elements
    comms = []
    for a in side:
        for b in side:
            c = a * b - b * a
            if not c.is_zero():
                comms.append(c)
    return quotient(R, comms, name=f"{R.name}^c")


class SmallSurjection:
    """Canonical projection R -> S of quotients of one free algebra, with
    K I = I K = 0 verified for K = ker and I = I(R). Every word of length
    >= 1 is t w and w t for a generator t, so K t = t K = 0 on the
    generators decides it."""

    def __init__(self, source: MatricArtin, target: MatricArtin):
        if source.free is not target.free:
            raise MatricError("source and target must share the ambient free algebra")
        for g in source.ideal_generators:
            if not target.in_ideal(g):
                raise MatricError("target is not a further quotient of source")
        self.source = source
        self.target = target
        # each kernel vector carries the tag -1 - k of its index in
        # kernel_basis, so residuals hold kernel coordinates
        self._kernel = SubspaceReducer(source.dim)
        kernel = []
        for g in target.ideal_basis():
            e = source.reduce(g)
            tag = {-1 - len(kernel): _ONE}
            if not e.is_zero() and self._kernel.add(source.sparse(e), tag):
                kernel.append(e)
        self.kernel_basis = kernel
        ts = [source.reduce(t) for t in source.free.generator_elements]
        for k in kernel:
            for t in ts:
                if not source.multiply(k, t).is_zero() or not source.multiply(t, k).is_zero():
                    raise MatricError(
                        f"not a small surjection: kernel element {k} does not "
                        "annihilate the radical"
                    )

    def kernel_coordinates(self, elem: MatricElement):
        """Coordinates of a kernel element in the kernel basis, or None."""
        residual = self._kernel.residual(self.source.sparse(elem))
        return tag_coordinates(residual, len(self.kernel_basis))


class MatricMorphism:
    """Pointed-algebra morphism given by generator images (idempotents fixed).

    Well-definedness (the source ideal maps into the target ideal, images sit
    in the matching matric components and the radical) is verified eagerly.
    """

    def __init__(self, source: MatricArtin, target: MatricArtin, images: dict, name="u"):
        self.source = source
        self.target = target
        self.name = name
        self.images = {}
        for gi, (gname, i, j) in enumerate(source.free.gens.generators):
            img = target.reduce(images[gname]) if images[gname].parent is not target \
                else images[gname]
            if img.radical_order() < 1:
                raise MatricError(f"image of {gname!r} is not in the radical")
            if target.component(img, i, j) != img:
                raise MatricError(f"image of {gname!r} leaves component ({i},{j})")
            self.images[gi] = img
        for g in source.ideal_generators:
            if not self.apply(g).is_zero():
                raise MatricError(f"{name}: source ideal does not map to zero")

    def apply(self, elem: MatricElement) -> MatricElement:
        out = {}
        for w, c in elem.coeffs.items():
            kind, data = w
            if kind == "e":
                term = self.target.idempotent(data)
            else:
                term = self.target.one()
                for gi in data:
                    term = self.target.multiply(term, self.images[gi])
            axpy(out, c, term.coeffs)
        return MatricElement(self.target, out)
