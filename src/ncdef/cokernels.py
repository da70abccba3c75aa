"""Ext^1 of cyclic D-modules on affine curve charts, computed as cokernels
of derivations, and their assembly into a diagram functor on a cover poset.

Per chart, coker(d: A -> A) is presented by a finite list of representative
monomials found by a stabilized degree truncation: the image subspace
captured inside each degree slice must reproduce the same greedy complement
over a three-degree window before the presentation is trusted. ``reduce``
then writes any element as a representative combination plus an exact
derivation preimage (the witness).

Both read one incremental echelon per chart. The images of the source
monomials enter it in degree order, as the stages ask for more, and each
row carries the source combination it is the image of. The derivation's
degree shift, a bound read off its generator images, says how far above
its source each image can reach, so every image fits its window. Stage d
reads the rows that lie in degrees <= d, so no stage re-eliminates what
an earlier one did. For each degree it reads at, ``reduce`` adds the
representatives, tagged, to those rows once, and then reads coordinates
and witness off the tags of one residual.

The degenerate curve identification packages the global answer:
HH^0 is H^0 of the constant functor, HH^n is H^(n-1) of the Ext^1 diagram
for n = 1, 2. The identification needs the charts to be curves; their
one-dimensionality is assumed, not derived.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraElement, AlgebraError, Derivation, PresentedAlgebra
from .diagrams import FiniteCategory, MorFunctor, build_resolving_complex
# kernel_basis and solve are not called here but stay bound: the pipeline
# benchmark's tracer test checks that tracing patches these bindings
from .linalg import Matrix, SubspaceReducer, kernel_basis, solve, tag_coordinates  # noqa: F401

_ZERO = Fraction(0)
_ONE = Fraction(1)

# the first truncation degree the stabilization search tries; the
# stabilization oracle re-runs a presentation from d_star + 1 instead
D_START = 6


class NoStabilization(RuntimeError):
    """No stable representative window found below the degree ceiling."""

    def __init__(self, d_max, detail=""):
        self.d_max = d_max
        super().__init__(
            f"cokernel truncation did not stabilize below degree {d_max}"
            + (f" ({detail})" if detail else "")
        )


class CertificationError(RuntimeError):
    """An exact self-check of the cokernel computation failed."""


class TangentNotGenerated(AlgebraError):
    """A chart derivation that does not generate the chart's tangent module."""


class ChartData:
    """One affine chart: coordinate ring, its distinguished derivation, label.

    The calculus needs the derivation to generate the tangent module, that
    is to vanish nowhere on the chart: the relations and the images
    d(x_1), ..., d(x_n) of the generators must generate the unit ideal.
    Construction certifies it and raises TangentNotGenerated otherwise.
    """

    def __init__(self, label: str, algebra: PresentedAlgebra, derivation: Derivation):
        if derivation.algebra is not algebra:
            raise AlgebraError("derivation does not act on the chart algebra")
        if not algebra.generates_unit_ideal(derivation.images.values()):
            raise TangentNotGenerated(
                f"chart {label}: derivation does not generate the tangent module "
                "(the relations and the derivation's generator images do not "
                "generate the unit ideal)"
            )
        self.label = label
        self.algebra = algebra
        self.derivation = derivation

    def __repr__(self):
        return f"ChartData({self.label})"


class Reduction:
    """reduce() output: coordinates in the representative basis plus an exact
    preimage witness (element - sum coords * reps = derivation(witness))."""

    __slots__ = ("coords", "witness")

    def __init__(self, coords, witness):
        self.coords = coords
        self.witness = witness

    def is_zero(self):
        return all(c == 0 for c in self.coords)


class CokernelPresentation:
    """Finite presentation of coker(d: A -> A) with exact reduction data.

    One echelon holds the images of the source monomials, inserted in
    ``nf_monomials`` order as the stages ask for them. Its vector indices
    are the target monomials in that order, so each A_{<=d} is an index
    prefix, and a row pivots on its largest index: the rows pivoting below
    |A_{<=d}| span the image inside A_{<=d}. Each row carries, under the
    tag index -1 - j of source j, the source combination whose image it is.
    ``reduce`` reads a copy of those rows completed by the representatives
    (``_table``), built for d_star on construction and for a larger degree
    when an element first needs it; later insertions leave it unchanged.
    """

    def __init__(self, algebra: PresentedAlgebra, derivation: Derivation,
                 d_start: int = D_START, d_max: int = 24, preferred=()):
        self.algebra = algebra
        self.derivation = derivation
        self.d_max = d_max
        self.preferred = []
        for cand in preferred:
            e = algebra.normal_form(cand)
            if len(e.terms) != 1 or next(iter(e.terms.values())) != 1:
                raise AlgebraError(f"preferred representative {cand!r} is not a monomial")
            self.preferred.append(next(iter(e.terms)))
        self._shift = max(1, derivation.degree_shift())
        self._margin = self._shift + 4
        self._stages: dict[int, list] = {}
        # target monomials by index, and the index of each
        self._targets: list[tuple] = []
        self._ids: dict[tuple, int] = {}
        # the inserted source monomials (those of degree <= _source_degree)
        self._sources: list[tuple] = []
        self._source_degree = -1
        self._image = SubspaceReducer(0)
        # degree -> the echelon that reduce reads there (see _table)
        self._tables: dict[int, tuple] = {}
        reps = None
        self.d_star = None
        for d in range(d_start, d_max - 1):
            window = [self._rep_monomials(dd) for dd in (d, d + 1, d + 2)]
            if window[0] == window[1] == window[2]:
                reps = window[0]
                self.d_star = d + 2
                break
        if reps is None:
            raise NoStabilization(d_max, f"chart {algebra.name}")
        self.reps = reps
        self.rep_labels = [algebra.format_monomial(m) for m in reps]
        self._table(self.d_star)

    # -- the image echelon ----------------------------------------------------

    def _extend(self, d_in: int) -> None:
        """Insert the images of the source monomials of degree <= d_in that
        are not in yet. The derivation raises no degree by more than the
        shift, so each image lies in degree <= d_in + shift."""
        if d_in <= self._source_degree:
            return
        sources = self.algebra.nf_monomials(d_in)
        images = self._images(sources[len(self._sources):], d_in + self._shift)
        for j, image in enumerate(images, len(self._sources)):
            # an image that reduces to zero leaves a free source, not a row
            self._image.add(image, {-1 - j: _ONE})
        self._sources = sources
        self._source_degree = d_in

    def _images(self, sources, d_out: int) -> list[dict]:
        """The derivation's images of the sources on the target indices of
        degree <= d_out; an image that does not fit breaks the shift bound."""
        targets = self.algebra.nf_monomials(d_out)
        ids = self._ids
        for m in targets[len(self._targets):]:
            ids[m] = len(ids)
        if len(targets) > len(self._targets):
            self._targets = targets
            self._image.dim = len(targets)
        limit = len(targets)
        out = []
        for m in sources:
            row = {}
            for mm, c in self.derivation.monomial_image(m).items():
                i = ids.get(mm, limit)
                if i >= limit:
                    raise CertificationError(
                        f"degree shift {self._shift} fails: the image of "
                        f"{self.algebra.format_monomial(m)} contains "
                        f"{self.algebra.format_monomial(mm)} of degree "
                        f"{self.algebra.degree(mm)} > {d_out}"
                    )
                row[i] = c
            out.append(row)
        return out

    def _rep_monomials(self, d: int) -> list[tuple]:
        """Complement of the image in the degree-d slice, from the sources of
        degree <= d + margin: preferred candidates first (kept only if
        independent), then greedy by ascending degree."""
        if d in self._stages:
            return self._stages[d]
        self._extend(d + self._margin)
        basis = self.algebra.nf_monomials(d)
        n = len(basis)
        if self._targets[:n] != basis:
            raise CertificationError(
                f"degree-{d} monomials are not a prefix of the target basis"
            )
        # the rows pivoting in A_{<=d} are zero above it, and reduced already,
        # so the reducer takes them without further elimination
        reducer = SubspaceReducer(n)
        image = self._image
        for p, row in zip(image.pivots, image.rows):
            if p < n:
                reducer.add({j: e for j, e in row.items() if j >= 0})
        index = {m: i for i, m in enumerate(basis)}
        reps = []

        def try_monomial(m):
            if reducer.add({index[m]: _ONE}):
                reps.append(m)

        for m in self.preferred:
            if m in index:
                try_monomial(m)
        for m in basis:
            if m not in reps:
                try_monomial(m)
        self._stages[d] = reps
        return reps

    # -- public API ---------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.reps)

    def rep_elements(self) -> list[AlgebraElement]:
        return [self.algebra.monomial_element(m) for m in self.reps]

    def reduce(self, e) -> Reduction:
        """Coordinates of [e] in the representative basis, with exact witness.

        Extends the truncation window if e is too big, re-checking that the
        stored representatives stay a complement (NoStabilization otherwise).
        The residual of e against the table of its degree holds only tags:
        minus the coordinates at the representatives' tags and minus the
        witness at the sources'.
        """
        e = self.algebra.normal_form(e)
        d = max(self.d_star, e.degree())
        if d > self.d_star:
            if d > self.d_max:
                raise NoStabilization(self.d_max, f"element of degree {d}")
            if self._rep_monomials(d) != self.reps:
                raise NoStabilization(self.d_max, "window extension changed the basis")
        table, n_src = self._table(d)
        x = tag_coordinates(table.residual({self._ids[m]: c for m, c in e.terms.items()}),
                            n_src + len(self.reps))
        coords = x[n_src:]
        witness = self.algebra.normal_form(
            {m: c for m, c in zip(self._sources, x[:n_src]) if c})
        if self.derivation(witness) != e - self.class_element(coords):
            raise CertificationError(
                f"reduction witness fails d(witness) = e - sum coords*reps on {e}"
            )
        return Reduction(coords, witness)

    def _table(self, d: int) -> tuple[SubspaceReducer, int]:
        """The echelon that ``reduce`` reads at degree d, built once, and the
        number S of sources it knows. It holds the image rows pivoting in
        A_{<=d}, tagged with their sources, and the unit vector of rep k,
        tagged -1 - S - k; certified to span A_{<=d}."""
        if d not in self._tables:
            n = len(self.algebra.nf_monomials(d))
            n_src = len(self._sources)
            table = SubspaceReducer(n)
            for p, row in zip(self._image.pivots, self._image.rows):
                if p < n:
                    table.add(row)
            for k, m in enumerate(self.reps):
                table.add({self._ids[m]: _ONE}, {-1 - n_src - k: _ONE})
            if table.rank != n:
                raise NoStabilization(
                    self.d_max, f"representatives and image do not span degree {d}")
            self._tables[d] = (table, n_src)
        return self._tables[d]

    def class_element(self, coords) -> AlgebraElement:
        out = self.algebra.zero()
        for c, m in zip(coords, self.reps):
            if c:
                out = out + self.algebra.normal_form({m: Fraction(c)})
        return out


def cokernel_of_derivation(algebra: PresentedAlgebra, derivation: Derivation,
                           d_start: int = D_START, d_max: int = 24,
                           preferred=()) -> CokernelPresentation:
    if d_max <= d_start + 2:
        raise NoStabilization(d_max, "window larger than the degree ceiling")
    return CokernelPresentation(algebra, derivation, d_start, d_max, preferred)


class ExtDiagram:
    """The Ext^1 functor of a chart family on its cover poset.

    The value at every inclusion U_i >= U_j is the cokernel presentation of
    the target chart's derivation (literally shared, so the two maps into an
    intersection land in one space), and arrows act by restrict-then-reduce.
    """

    def __init__(self, poset: FiniteCategory, charts: dict, restrictions: dict,
                 d_max: int = 24, preferred_reps=None):
        self.poset = poset
        self.charts = charts
        self.restrictions = dict(restrictions)
        preferred_reps = preferred_reps or {}
        for name, m in poset.morphisms.items():
            if poset.is_identity(name):
                continue
            if name not in self.restrictions:
                raise AlgebraError(f"no restriction morphism supplied for {name}")
            rho = self.restrictions[name]
            src_chart, tgt_chart = charts[m.src], charts[m.tgt]
            if rho.source is not src_chart.algebra or rho.target is not tgt_chart.algebra:
                raise AlgebraError(f"restriction {name} does not match the charts")
            for g in src_chart.algebra.generators():
                lhs = rho(src_chart.derivation(g))
                rhs = tgt_chart.derivation(rho(g))
                if lhs != rhs:
                    raise AlgebraError(
                        f"restriction {name} does not intertwine the derivations "
                        f"on generator {g}"
                    )
        for f in poset.morphisms.values():
            for g in poset.morphisms.values():
                if f.tgt != g.src or poset.is_identity(f.name) or poset.is_identity(g.name):
                    continue
                comp = poset.compose(f.name, g.name)
                direct = self.restrictions[comp]
                chained = self.restrictions[f.name].compose(self.restrictions[g.name])
                for gen in charts[f.src].algebra.generators():
                    if direct(gen) != chained(gen):
                        raise AlgebraError(
                            f"restriction for {comp} disagrees with the composite "
                            f"through {f.name} and {g.name}"
                        )
        self.cokernels = {
            obj: cokernel_of_derivation(
                charts[obj].algebra, charts[obj].derivation, d_max=d_max,
                preferred=preferred_reps.get(obj, ()),
            )
            for obj in poset.objects
        }
        self.functor = self._build_functor()

    def cokernel_at(self, morphism_name: str) -> CokernelPresentation:
        return self.cokernels[self.poset.morphisms[morphism_name].tgt]

    def _restriction_action(self, beta_name: str) -> Matrix:
        beta = self.poset.morphisms[beta_name]
        src_ck = self.cokernels[beta.src]
        tgt_ck = self.cokernels[beta.tgt]
        if self.poset.is_identity(beta_name):
            return Matrix.identity(src_ck.size)
        rho = self.restrictions[beta_name]
        cols = [tgt_ck.reduce(rho(src_ck.algebra.monomial_element(m))).coords
                for m in src_ck.reps]
        return Matrix.from_columns(cols, nrows=tgt_ck.size)

    def _build_functor(self) -> MorFunctor:
        poset = self.poset
        dims, labels = {}, {}
        for name in poset.morphisms:
            ck = self.cokernel_at(name)
            dims[name] = ck.size
            labels[name] = list(ck.rep_labels)
        action_cache = {}
        mats = {}
        for (f, alpha, beta, _g) in poset.mor_arrows():
            if beta not in action_cache:
                action_cache[beta] = self._restriction_action(beta)
            mats[(f, alpha, beta)] = action_cache[beta]
        functor = MorFunctor(poset, dims, mats, labels)
        functor.check_functor()
        return functor


def build_ext_diagram(poset: FiniteCategory, charts: dict, restrictions: dict,
                      d_max: int = 24, preferred_reps=None) -> ExtDiagram:
    return ExtDiagram(poset, charts, restrictions, d_max, preferred_reps)


class GlobalHochschild:
    """Degenerate-curve global answer: dims, bases, and the class machinery
    the obstruction calculus consumes."""

    def __init__(self, diagram: ExtDiagram, endo_h0: MorFunctor):
        self.diagram = diagram
        base_rc = build_resolving_complex(diagram.poset, endo_h0, normalized=True, p_max=2)
        self.hh0 = base_rc.cohomology(0).dim
        self.complex = build_resolving_complex(
            diagram.poset, diagram.functor, normalized=True, p_max=2
        )
        self.h0 = self.complex.cohomology(0)
        self.h1 = self.complex.cohomology(1)

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.hh0, self.h0.dim, self.h1.dim)

    def full_complex_layout(self, p: int, vec) -> list[tuple[str, list]]:
        """Pad a normalized degree-p cochain with zero identity slots, in the
        order identities-first then inclusions (the printed table layout)."""
        rc = self.complex
        out = []
        for name in self.diagram.poset.sorted_morphisms():
            ck = self.diagram.cokernel_at(name)
            if self.diagram.poset.is_identity(name):
                if p == 0:
                    obj = self.diagram.poset.morphisms[name].src
                    off = rc.offsets[0][(obj,)]
                    out.append((name, list(vec[off: off + ck.size])))
                else:
                    out.append((name, [_ZERO] * ck.size))
            elif p == 1:
                off = rc.offsets[1][(name,)]
                out.append((name, list(vec[off: off + ck.size])))
        return out


def global_hochschild_dims(diagram: ExtDiagram, endo_h0: MorFunctor) -> GlobalHochschild:
    return GlobalHochschild(diagram, endo_h0)
