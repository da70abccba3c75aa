"""Finitely presented commutative coordinate rings with exact normal forms.

A PresentedAlgebra is k[x_1..x_n]/(relations) over Q, optionally with one
variable inverted (so one chart can be a localization). Normal forms come
from a degree-lexicographic Groebner basis of the relation ideal; for the
localized case the basis may not involve the inverted variable, which makes
reduction of Laurent monomials terminate. Derivations and morphisms act on
normal forms and are certified against the relations at construction time.

All three maps are linear: the normal form is the unique representative in
the span of the standard monomials, so NF(sum c*m) = sum c*NF(m), and a
derivation or morphism image is likewise the sum of its monomial images.
Each algebra, derivation and morphism therefore rewrites or expands a
monomial once and tables the result; every later application is a linear
combination of table entries, built into a fresh dict, and equals the
whole-polynomial computation term for term. A table lives as long as the
object that owns it.

Monomials are exponent tuples; only the inverted variable may carry a
negative exponent, and its degree contribution is |exponent| so that every
degree slice of the monomial basis is finite.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .linalg import Matrix, axpy, format_terms

_ZERO = Fraction(0)
_ONE = Fraction(1)


class AlgebraError(ValueError):
    pass


class UndeclaredVariable(AlgebraError):
    pass


class NegativeExponent(AlgebraError):
    """Negative power on a variable that is not inverted."""


class TruncationEscape(AlgebraError):
    """An operator image left the requested degree window."""


# ---------------------------------------------------------------------------
# raw polynomial arithmetic on {exponent tuple: Fraction} dicts

def _deglex_key(mono):
    return (sum(mono), mono)


def p_add(p, q):
    out = dict(p)
    axpy(out, _ONE, q)
    return out


def p_scale(p, c):
    if not c:
        return {}
    return {m: c * v for m, v in p.items()}


def p_sub(p, q):
    out = dict(p)
    axpy(out, -_ONE, q)
    return out


def p_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            s = out.get(m, _ZERO) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def p_leading(p):
    m = max(p, key=_deglex_key)
    return m, p[m]


def _linear_image(poly, image):
    """sum c * image(m) over the terms of poly, as a fresh terms dict."""
    out = {}
    for m, c in poly.items():
        if c:
            axpy(out, c, image(m))
    return out


def _degree(mono, inv):
    """Total degree; the inverted variable (index inv, -1 for none) counts
    with |exponent|."""
    return sum(abs(e) if k == inv else e for k, e in enumerate(mono))


def _first_divisor(mono, leading, inv):
    """The first (g, lm) pair whose lm divides mono away from index inv."""
    for g, lm in leading:
        if all(mono[k] >= lm[k] for k in range(len(mono)) if k != inv):
            return g, lm
    return None


def reduce_poly(p, basis):
    """Full normal form of p modulo a list of monic polynomials, reducing
    terms largest first by (degree, exponents)."""
    leading = [(g, p_leading(g)[0]) for g in basis]
    work = dict(p)
    out = {}
    while work:
        m = max(work, key=lambda mm: (sum(mm), mm))
        c = work.pop(m)
        hit = _first_divisor(m, leading, -1)
        if hit is None:
            s = out.get(m, _ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
            continue
        g, lm = hit
        q = tuple(a - b for a, b in zip(m, lm))
        for gm, gc in g.items():
            if gm == lm:
                continue
            mm = tuple(a + b for a, b in zip(q, gm))
            s = work.get(mm, _ZERO) - c * gc
            if s:
                work[mm] = s
            else:
                work.pop(mm, None)
    return out


def _monic(p):
    _, c = p_leading(p)
    return p_scale(p, _ONE / c)


def s_polynomial(f, g):
    lmf, cf = p_leading(f)
    lmg, cg = p_leading(g)
    lcm = tuple(max(a, b) for a, b in zip(lmf, lmg))
    uf = {tuple(a - b for a, b in zip(lcm, lmf)): _ONE / cf}
    ug = {tuple(a - b for a, b in zip(lcm, lmg)): _ONE / cg}
    return p_sub(p_mul(uf, f), p_mul(ug, g))


def buchberger(generators):
    """Reduced Groebner basis (deglex) of the ideal the generators span."""
    basis = []
    for g in generators:
        g = {m: c for m, c in g.items() if c}
        if g:
            basis.append(_monic(g))
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        i, j = pairs.pop()
        lmi, _ = p_leading(basis[i])
        lmj, _ = p_leading(basis[j])
        if all(a == 0 or b == 0 for a, b in zip(lmi, lmj)):
            continue  # coprime leading monomials: S-poly reduces to zero
        r = reduce_poly(s_polynomial(basis[i], basis[j]), basis)
        if r:
            if not any(p_leading(r)[0]):
                return [_monic(r)]  # a constant: the unit ideal, whose basis is {1}
            basis.append(_monic(r))
            pairs.extend((len(basis) - 1, k) for k in range(len(basis) - 1))
    # autoreduce
    reduced = []
    for i, g in enumerate(basis):
        others = basis[:i] + basis[i + 1 :]
        r = reduce_poly(g, others)
        if r:
            reduced.append(_monic(r))
    reduced.sort(key=lambda g: _deglex_key(p_leading(g)[0]))
    out = []
    for g in reduced:
        r = reduce_poly(g, out)
        if r:
            out.append(_monic(r))
    return out


# ---------------------------------------------------------------------------
# expression parser: sums of rational-coefficient power products

def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^":
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and (text[j].isdigit() or text[j] == "/"):
                j += 1
            tokens.append(text[i:j])
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise AlgebraError(f"unexpected character {ch!r} in {text!r}")
    return tokens


def parse_polynomial(text, variables):
    """Parse e.g. '15*y^2 - 3/2*x*y^-1 + 4' into an exponent-dict polynomial."""
    tokens = _tokenize(text)
    var_index = {v: k for k, v in enumerate(variables)}
    nvars = len(variables)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        t = tokens[pos]
        pos += 1
        return t

    def parse_signs():
        sign = _ONE
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        return sign

    def parse_factor():
        sign = parse_signs()
        t = peek()
        if t is None:
            raise AlgebraError(f"dangling operator in {text!r}")
        if t[0].isdigit():
            take()
            try:
                return sign * Fraction(t), None
            except (ValueError, ZeroDivisionError):
                raise AlgebraError(f"malformed number {t!r} in {text!r}") from None
        if t in var_index:
            take()
            exp = 1
            if peek() == "^":
                take()
                esign = 1
                while peek() in ("+", "-"):
                    if take() == "-":
                        esign = -esign
                tok = peek()
                if tok is None or not tok.isdigit():
                    raise AlgebraError(f"bad exponent near {tok or '^'!r} in {text!r}")
                take()
                exp = esign * int(tok)
            return sign, (var_index[t], exp)
        raise UndeclaredVariable(f"variable {t!r} not declared (have {list(variables)})")

    poly = {}
    while pos < len(tokens):
        coeff = _ONE
        exps = [0] * nvars
        while True:
            c, ve = parse_factor()
            coeff *= c
            if ve is not None:
                exps[ve[0]] += ve[1]
            if peek() == "*":
                take()
                continue
            break
        m = tuple(exps)
        s = poly.get(m, _ZERO) + coeff
        if s:
            poly[m] = s
        else:
            poly.pop(m, None)
        if peek() not in ("+", "-", None):
            raise AlgebraError(f"expected '+' or '-' near token {peek()!r} in {text!r}")
    return poly


# ---------------------------------------------------------------------------

class PresentedAlgebra:
    """Quotient of Q[variables] (one variable optionally inverted).

    The Groebner basis of the relation ideal is computed eagerly; instances
    are immutable afterwards, apart from the table of monomial normal forms
    they fill as they go. ``normal_form`` is idempotent and the
    normal-form monomials of each total degree are finitely enumerable
    (Laurent exponents count with absolute value).
    """

    def __init__(self, variables, relations=(), inverted=None, name=""):
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise AlgebraError("duplicate variable names")
        self.name = name or "Q[" + ",".join(self.variables) + "]"
        if inverted is not None and inverted not in self.variables:
            raise UndeclaredVariable(f"inverted variable {inverted!r} not declared")
        self.inverted = inverted
        self._inv_index = self.variables.index(inverted) if inverted else -1
        rels = []
        for r in relations:
            poly = parse_polynomial(r, self.variables) if isinstance(r, str) else dict(r)
            for m in poly:
                if any(e < 0 for e in m):
                    raise NegativeExponent("relations must be polynomial")
            rels.append(poly)
        self.relations = rels
        self.groebner = buchberger(rels)
        self._leading = [(g, p_leading(g)[0]) for g in self.groebner]
        if self.inverted:
            for _g, lm in self._leading:
                if lm[self._inv_index] != 0:
                    raise AlgebraError(
                        f"{self.name}: a Groebner leading monomial involves the "
                        f"inverted variable {self.inverted!r}; localization is "
                        "not compatible with this presentation/order"
                    )
        # the normal-form monomials by (degree, exps), and the end of each
        # degree's prefix in that list
        self._nf_monos: list[tuple] = []
        self._nf_ends: list[int] = []
        self._nf_table: dict[tuple, dict] = {}

    # -- monomial bookkeeping ------------------------------------------------

    def degree(self, mono) -> int:
        return _degree(mono, self._inv_index)

    def check_monomial(self, mono):
        for k, e in enumerate(mono):
            if e < 0 and k != self._inv_index:
                raise NegativeExponent(
                    f"negative power on {self.variables[k]!r}, which is not inverted"
                )

    def _reducible(self, mono):
        return _first_divisor(mono, self._leading, self._inv_index)

    def nf_monomials(self, degree: int) -> list[tuple]:
        """Normal-form monomials of total degree <= degree, sorted by (degree, exps).

        The lists for increasing degrees are prefixes of one list, which
        grows by one exact-degree shell at a time; each call returns a fresh
        copy of its prefix.
        """
        monos, ends = self._nf_monos, self._nf_ends
        while len(ends) <= degree:
            monos.extend(m for m in self._shell(len(ends)) if self._reducible(m) is None)
            ends.append(len(monos))
        return monos[:ends[degree]] if degree >= 0 else []

    def _shell(self, degree: int) -> list[tuple]:
        """The monomials of total degree exactly ``degree``, in increasing
        exponent order: each exponent but the last ranges over its box, and
        the last one takes the degree that is left."""
        inv, last = self._inv_index, len(self.variables) - 1
        if last < 0:
            return [()] if degree == 0 else []
        out = []
        for head in product(*(range(-degree, degree + 1) if k == inv else range(degree + 1)
                              for k in range(last))):
            left = degree - _degree(head, inv)
            if left < 0:
                continue
            if last == inv and left:
                out += [(*head, -left), (*head, left)]
            else:
                out.append((*head, left))
        return out

    # -- normal forms ----------------------------------------------------------

    def _reduce_laurent(self, poly):
        return _linear_image(poly, self.monomial_nf)

    def monomial_nf(self, mono):
        """Normal form of one monomial as a terms dict, computed on first use
        and tabled; callers must not edit it.

        A monomial q * lm with lm the leading monomial of its first divisor
        g is rewritten once, to -sum c_mu * NF(q * mu) over the tail of g:
        the full division of the monomial by the Groebner basis, as that
        rewrites each monomial by the same rule and never revisits one, so
        its result is linear in the terms. Each q * mu comes later in the
        division order than q * lm, so the chain ends; a stack walks it, as
        it can outgrow the recursion limit (x^(2n) by y - x^2).
        """
        table = self._nf_table
        stack = [mono]
        while stack:
            m = stack[-1]
            if m in table:
                stack.pop()
                continue
            hit = _first_divisor(m, self._leading, self._inv_index)
            if hit is None:
                table[stack.pop()] = {m: _ONE}
                continue
            g, lm = hit
            q = tuple(a - b for a, b in zip(m, lm))
            tail = [(tuple(a + b for a, b in zip(q, mu)), c) for mu, c in g.items() if mu != lm]
            todo = [mm for mm, _c in tail if mm not in table]
            if todo:
                stack += todo
                continue
            stack.pop()
            nf = {}
            for mm, c in tail:
                axpy(nf, -c, table[mm])
            table[m] = nf
        return table[mono]

    def normal_form(self, expr) -> AlgebraElement:
        """Coerce an expression (str, dict, scalar, element) to normal form."""
        if isinstance(expr, AlgebraElement):
            if expr.algebra is not self:
                raise AlgebraError("element belongs to a different algebra")
            return expr
        if isinstance(expr, str):
            poly = parse_polynomial(expr, self.variables)
        elif isinstance(expr, dict):
            poly = {tuple(m): Fraction(c) for m, c in expr.items() if c}
        else:
            poly = {(0,) * len(self.variables): Fraction(expr)} if expr else {}
        for m in poly:
            self.check_monomial(m)
        return AlgebraElement(self, self._reduce_laurent(poly))

    element = normal_form

    def zero(self) -> AlgebraElement:
        return AlgebraElement(self, {})

    def one(self) -> AlgebraElement:
        return self.normal_form(1)

    def generator(self, name: str) -> AlgebraElement:
        if name not in self.variables:
            raise UndeclaredVariable(name)
        mono = tuple(1 if v == name else 0 for v in self.variables)
        return self.normal_form({mono: _ONE})

    def generators(self) -> list[AlgebraElement]:
        gens = [self.generator(v) for v in self.variables]
        if self.inverted:
            mono = tuple(-1 if v == self.inverted else 0 for v in self.variables)
            gens.append(self.normal_form({mono: _ONE}))
        return gens

    def monomial_element(self, mono) -> AlgebraElement:
        return self.normal_form({tuple(mono): _ONE})

    def generates_unit_ideal(self, elements) -> bool:
        """Whether the elements generate the unit ideal of this algebra.

        Decided by the reduced Groebner basis of the relations and the
        elements in the polynomial ring; an inverted variable y enters
        through one more variable w and the relation w*y - 1, so y^-k is w^k.
        """
        inv, n = self._inv_index, len(self.variables)

        def lift(mono):
            if inv < 0:
                return mono
            return tuple(max(e, 0) for e in mono) + (max(-mono[inv], 0),)

        polys = [*self.relations, *(e.terms for e in elements)]
        gens = [{lift(m): c for m, c in p.items()} for p in polys]
        one = lift((0,) * n)
        if inv >= 0:
            gens.append({tuple(int(k in (inv, n)) for k in range(n + 1)): _ONE, one: -_ONE})
        return buchberger(gens) == [{one: _ONE}]

    def format_monomial(self, mono) -> str:
        parts = [
            v if e == 1 else f"{v}^{e}"
            for v, e in zip(self.variables, mono)
            if e
        ]
        return "*".join(parts) if parts else "1"

    def __repr__(self):
        return f"PresentedAlgebra({self.name})"


class AlgebraElement:
    """Element of a PresentedAlgebra in normal form; no zero coefficients kept."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: PresentedAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = terms

    def _coerce(self, other) -> AlgebraElement:
        if isinstance(other, AlgebraElement):
            if other.algebra is not self.algebra:
                raise AlgebraError("mixing elements of different algebras")
            return other
        return self.algebra.normal_form(other)

    def __add__(self, other):
        other = self._coerce(other)
        return AlgebraElement(self.algebra, p_add(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return AlgebraElement(self.algebra, p_scale(self.terms, -_ONE))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return AlgebraElement(self.algebra, p_scale(self.terms, Fraction(other)))
        other = self._coerce(other)
        return AlgebraElement(
            self.algebra, self.algebra._reduce_laurent(p_mul(self.terms, other.terms))
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if n < 0:
            raise AlgebraError("negative powers of general elements are not defined")
        out = self.algebra.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, AlgebraElement):
            return self.algebra is other.algebra and self.terms == other.terms
        return self.terms == self._coerce(other).terms

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(self.algebra.degree(m) for m in self.terms)

    def sorted_terms(self):
        return sorted(
            self.terms.items(), key=lambda mc: (self.algebra.degree(mc[0]), mc[0])
        )

    def __str__(self):
        fmt = self.algebra.format_monomial
        return format_terms((fmt(m), c) for m, c in self.sorted_terms())

    __repr__ = __str__


class Derivation:
    """k-linear derivation of a PresentedAlgebra, given by generator images.

    Construction verifies the images are compatible with the relation ideal
    (the derivation of every relation reduces to zero), so the operator is
    well defined on normal forms.
    """

    def __init__(self, algebra: PresentedAlgebra, images: dict, name="d"):
        self.algebra = algebra
        self.name = name
        self.images = {v: algebra.normal_form(images[v]) for v in algebra.variables}
        self._table: dict[tuple, dict] = {}
        for rel in algebra.relations:
            value = self._apply_poly(rel)
            if not value.is_zero():
                raise AlgebraError(
                    f"derivation {name} is not well defined: relation maps to {value}"
                )

    def _apply_poly(self, poly) -> AlgebraElement:
        return AlgebraElement(self.algebra, _linear_image(poly, self.monomial_image))

    def monomial_image(self, mono):
        """Leibniz expansion of one monomial as a terms dict, computed on
        first use and tabled; callers must not edit it: the sum over k of
        e_k * c_mu * NF(mono / x_k * mu) over the terms c_mu * mu of d(x_k),
        where e_k is the exponent of x_k in mono."""
        img = self._table.get(mono)
        if img is None:
            A = self.algebra
            img = {}
            for k, e in enumerate(mono):
                if e == 0:
                    continue
                lowered = tuple(x - 1 if i == k else x for i, x in enumerate(mono))
                for mu, c in self.images[A.variables[k]].terms.items():
                    axpy(img, e * c, A.monomial_nf(tuple(a + b for a, b in zip(lowered, mu))))
            self._table[mono] = img
        return img

    def __call__(self, e) -> AlgebraElement:
        e = self.algebra.normal_form(e)
        return self._apply_poly(e.terms)

    def degree_shift(self) -> int:
        """A bound on deg d(m) - deg m over all monomials m, read off the
        generator images: the largest deg mu - 1 over the monomials mu of
        d(x_k), where for the inverted x_k the exponent mu_k counts as
        |mu_k - 1| + 1.

        The term of d(m) from x_k is a multiple of m * mu / x_k, of degree
        at most deg m plus that bound, since |a + b| <= |a| + |b| on the
        inverted exponent; normal forms never raise the degree, because
        the Groebner leading monomials avoid the inverted variable.
        """
        A = self.algebra
        inv = A._inv_index
        return max((A.degree(mu) - 1 if k != inv
                    else abs(mu[k] - 1) + A.degree(mu) - abs(mu[k])
                    for k, v in enumerate(A.variables)
                    for mu in self.images[v].terms), default=0)

    def __repr__(self):
        return f"Derivation({self.name} on {self.algebra.name})"


class AlgebraMorphism:
    """Algebra map determined by generator images; certified on the relations.

    If the source inverts a variable, the image of that variable must be a
    unit of the target and its inverse is stored explicitly.
    """

    def __init__(self, source: PresentedAlgebra, target: PresentedAlgebra,
                 images: dict, inverted_image_inverse=None, name="rho"):
        self.source = source
        self.target = target
        self.name = name
        self.images = {v: target.normal_form(images[v]) for v in source.variables}
        self._table: dict[tuple, dict] = {}
        self.inverse_image = None
        if source.inverted:
            if inverted_image_inverse is None:
                raise AlgebraError(
                    f"morphism from {source.name} must provide the inverse image "
                    f"of {source.inverted!r}"
                )
            self.inverse_image = target.normal_form(inverted_image_inverse)
            prod = self.images[source.inverted] * self.inverse_image
            if prod != target.one():
                raise AlgebraError(
                    f"claimed inverse fails: image*inverse = {prod}, expected 1"
                )
        for rel in source.relations:
            value = self._apply_poly(rel)
            if not value.is_zero():
                raise AlgebraError(
                    f"morphism {name} does not kill a relation (image {value})"
                )

    def _apply_poly(self, poly) -> AlgebraElement:
        return AlgebraElement(self.target, _linear_image(poly, self.monomial_image))

    def monomial_image(self, mono):
        """Power product of generator images for one monomial as a terms
        dict, tabled; callers must not edit it."""
        img = self._table.get(mono)
        if img is None:
            term = self.target.one()
            for k, e in enumerate(mono):
                if e > 0:
                    term = term * self.images[self.source.variables[k]] ** e
                elif e < 0:
                    term = term * self.inverse_image ** (-e)
            img = self._table[mono] = term.terms
        return img

    def __call__(self, e) -> AlgebraElement:
        e = self.source.normal_form(e)
        return self._apply_poly(e.terms)

    def compose(self, other: AlgebraMorphism) -> AlgebraMorphism:
        """other after self (self: A->B, other: B->C)."""
        if other.source is not self.target:
            raise AlgebraError("morphisms not composable")
        images = {v: other(self.images[v]) for v in self.source.variables}
        inv = other(self.inverse_image) if self.inverse_image is not None else None
        return AlgebraMorphism(self.source, other.target, images, inv,
                               name=f"{other.name}.{self.name}")

    def __repr__(self):
        return f"AlgebraMorphism({self.name}: {self.source.name} -> {self.target.name})"


def truncated_operator_matrix(op, source: PresentedAlgebra, target: PresentedAlgebra,
                              d_in: int, d_out: int) -> Matrix:
    """Matrix of a k-linear operator on the degree-truncated monomial bases.

    Columns are the images of the normal-form monomials of degree <= d_in,
    written in the degree <= d_out basis of the target. Raises
    TruncationEscape when an image does not fit.
    """
    src = source.nf_monomials(d_in)
    tgt = target.nf_monomials(d_out)
    index = {m: i for i, m in enumerate(tgt)}
    rows = [{} for _ in tgt]
    for j, m in enumerate(src):
        img = op(source.monomial_element(m))
        for mm, c in img.terms.items():
            if mm not in index:
                raise TruncationEscape(
                    f"image of {source.format_monomial(m)} contains "
                    f"{target.format_monomial(mm)} of degree "
                    f"{target.degree(mm)} > {d_out}"
                )
            if c:
                rows[index[mm]][j] = c if c.__class__ is Fraction else Fraction(c)
    return Matrix.from_sparse(len(tgt), len(src), rows)
