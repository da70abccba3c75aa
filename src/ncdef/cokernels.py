"""Ext^1 of cyclic D-modules on affine curve charts, computed as cokernels
of derivations, and their assembly into a diagram functor on a cover poset.

Per chart, coker(d: A -> A) is presented by a finite list of representative
monomials found by a stabilized degree truncation: the image subspace
captured inside each degree slice must reproduce the same greedy complement
over a three-degree window before the presentation is trusted. The window
starts no lower than the derivation's degree shift: below it a class can
sit at about the shift (x^(N-1) spans coker(x^N d/dx) on G_m) while the
stages before it agree. ``reduce``
then writes any element as a representative combination plus an exact
derivation preimage (the witness).

Both read one incremental echelon per chart. The images of the source
monomials enter it in degree order, as the stages ask for more, and each
row carries the source combination it is the image of. The derivation's
degree shift, a bound read off its generator images, says how far above
its source each image can reach, so every image fits its window. Stage d
reads the rows that lie in degrees <= d in place: a monomial's residual
against the echelon is its projection along the image in degree <= d.
The stage keeps a monomial when that residual is independent of the kept
ones', and holds the kept residuals, tagged, in an echelon of its own.
``reduce`` takes one residual against the image and one against that
echelon, and reads coordinates and witness off its tags.

The degenerate curve identification packages the global answer:
HH^0 is H^0 of the constant functor, whose H^1 and H^2 are certified zero,
and HH^n is H^(n-1) of the Ext^1 diagram for n = 1, 2. The identification
needs the charts to be curves; their one-dimensionality is assumed, not
derived.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraElement, AlgebraError, Derivation, PresentedAlgebra
from .diagrams import FiniteCategory, MorFunctor, build_resolving_complex
# kernel_basis and solve are not called here but stay bound: the pipeline
# benchmark's tracer test checks that tracing patches these bindings
from .linalg import Matrix, SubspaceReducer, axpy, kernel_basis, solve, tag_coordinates  # noqa: F401

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


class CoverNotAcyclic(AlgebraError):
    """A cover whose constant row has cohomology above degree 0."""


class ChartData:
    """One affine chart: coordinate ring, its distinguished derivation, label.

    The calculus needs the derivation to generate the tangent module, that
    is to vanish nowhere on the chart: the relations and the images
    d(x_1), ..., d(x_n) of the generators must generate the unit ideal.
    Construction certifies it and raises TangentNotGenerated otherwise.
    A derivation whose degree shift leaves no stabilization window below
    d_max is rejected first (NoStabilization): its images have no bound.
    """

    def __init__(self, label: str, algebra: PresentedAlgebra, derivation: Derivation,
                 d_max: int = 24):
        if derivation.algebra is not algebra:
            raise AlgebraError("derivation does not act on the chart algebra")
        if derivation.degree_shift() >= d_max - 1:
            raise NoStabilization(d_max, f"chart {label}")
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
    |A_{<=d}| span the image inside A_{<=d}, and no later row that pivots
    above it changes them. Each row carries, under the tag index -1 - j of
    source j, the source combination whose image it is. A stage reads the
    image echelon without adding to it (``_stage``); the only rows it builds
    are its representatives' residuals.
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
        # degree -> (representatives, their residual echelon, sources known)
        self._stages: dict[int, tuple] = {}
        # the error of a failed window extension, raised by every later reduce
        self._refuted = None
        # target monomials by index, and the index of each
        self._targets: list[tuple] = []
        self._ids: dict[tuple, int] = {}
        # the inserted source monomials (those of degree <= _source_degree)
        self._sources: list[tuple] = []
        self._source_degree = -1
        self._image = SubspaceReducer(0)
        reps = None
        self.d_star = None
        # a window below the shift can agree before a class near the shift
        # enters, so the search starts no lower than the shift
        for d in range(max(d_start, self._shift), d_max - 1):
            window = [self._stage(dd)[0] for dd in (d, d + 1, d + 2)]
            if window[0] == window[1] == window[2]:
                reps = window[0]
                self.d_star = d + 2
                break
        if reps is None:
            raise NoStabilization(d_max, f"chart {algebra.name}")
        self.reps = reps
        self.rep_labels = [algebra.format_monomial(m) for m in reps]

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
            self._image.add(image, {-1 - j: 1})
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

    def _stage(self, d: int) -> tuple[list[tuple], SubspaceReducer, int]:
        """Stage d, built once: the complement of the image in the degree-d
        slice, from the sources of degree <= d + margin, preferred candidates
        first (kept only if independent), then by ascending degree; with the
        echelon of the kept residuals and the number S of sources known.

        A unit vector in A_{<=d} meets only the image rows pivoting below
        |A_{<=d}|, so its residual is its projection along the image there,
        and it is kept when that residual is independent of the kept ones'.
        Rep k's residual keeps its source tags and carries the tag -1 - S - k.
        The ascending pass skips the image pivots: a pivot's residual lies in
        the span of the unit vectors at the smaller indices without a pivot,
        all of them tried before it."""
        if d not in self._stages:
            self._extend(d + self._margin)
            basis = self.algebra.nf_monomials(d)
            n = len(basis)
            if self._targets[:n] != basis:
                raise CertificationError(
                    f"degree-{d} monomials are not a prefix of the target basis"
                )
            n_src = len(self._sources)
            pivots = set(self._image.pivots)
            preferred = [i for m in self.preferred if (i := self._ids.get(m, n)) < n]
            echelon = SubspaceReducer(n)
            reps = []
            # each candidate once: a repeat is dependent on its first try
            for i in dict.fromkeys([*preferred, *(i for i in range(n) if i not in pivots)]):
                if echelon.add(self._image.residual({i: 1}), {-1 - n_src - len(reps): 1}):
                    reps.append(basis[i])
            self._stages[d] = (reps, echelon, n_src)
        return self._stages[d]

    # -- public API ---------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.reps)

    def reduce(self, e) -> Reduction:
        """Coordinates of [e] in the representative basis, with exact witness.

        Extends the truncation window if e is too big, re-checking that the
        stored representatives stay a complement (NoStabilization otherwise,
        then and at every later call). The residual of e against the image
        and then against the stage's echelon holds only tags: minus the
        coordinates at the representatives' tags and minus the witness at
        the sources'.
        """
        e = self.algebra.normal_form(e)
        d = max(self.d_star, e.degree())
        if d > self.d_max:
            raise NoStabilization(self.d_max, f"element of degree {d}")
        if self._refuted is None:
            reps, echelon, n_src = self._stage(d)
            if reps != self.reps:
                self._refuted = NoStabilization(self.d_max, "window extension changed the basis")
        if self._refuted is not None:
            raise self._refuted.with_traceback(None)
        x = tag_coordinates(
            echelon.residual(self._image.residual({self._ids[m]: c for m, c in e.terms.items()})),
            n_src + len(self.reps))
        if x is None:
            raise NoStabilization(
                self.d_max, f"representatives and image do not span degree {d}")
        coords = x[n_src:]
        witness = self.algebra.normal_form(
            {m: c for m, c in zip(self._sources, x[:n_src]) if c})
        if self.derivation(witness) != e - self.class_element(coords):
            raise CertificationError(
                f"reduction witness fails d(witness) = e - sum coords*reps on {e}"
            )
        return Reduction(coords, witness)

    def class_element(self, coords) -> AlgebraElement:
        return self.algebra.normal_form(dict(zip(self.reps, coords)))


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
    A cover is a poset, so two arrows that compose to an identity are
    rejected.
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
                if poset.is_identity(comp):
                    raise AlgebraError(f"restrictions {f.name} and {g.name} close a cycle; "
                                       "the charts of a cover form a poset")
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
        # per non-identity arrow, the reduce witness of rho(rep_k) for each k
        self._witnesses: dict[str, list[AlgebraElement]] = {}
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
        reductions = [tgt_ck.reduce(rho(src_ck.algebra.monomial_element(m)))
                      for m in src_ck.reps]
        self._witnesses[beta_name] = [red.witness for red in reductions]
        return Matrix.from_columns([red.coords for red in reductions], nrows=tgt_ck.size)

    def restriction_witness(self, beta_name: str, coords) -> AlgebraElement:
        """The witness of rho(class element with these coordinates) along a
        non-identity arrow, read off with no further ``reduce``: sum_k c_k w_k,
        where w_k is the witness of rho(rep_k). ``reduce`` certified
        d(w_k) = rho(rep_k) - (class element of column k), so by linearity
        d(witness) = rho(class element) - class element of (action * c)."""
        terms = {}
        for c, w in zip(coords, self._witnesses[beta_name]):
            if c:
                axpy(terms, c, w.terms)
        return AlgebraElement(self.cokernel_at(beta_name).algebra, terms)

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
    the obstruction calculus consumes.

    HH^0 is read off H^0 of the constant (Ext^0) row alone, which holds
    when that row has no cohomology in degrees 1 and 2; construction
    certifies it and raises CoverNotAcyclic otherwise."""

    def __init__(self, diagram: ExtDiagram, endo_h0: MorFunctor):
        self.diagram = diagram
        base_rc = build_resolving_complex(diagram.poset, endo_h0, normalized=True, p_max=3)
        base = [base_rc.cohomology(p).dim for p in range(3)]
        if base[1] or base[2]:
            raise CoverNotAcyclic(
                f"the constant row of the cover has H^1, H^2 of dimensions {base[1]}, "
                f"{base[2]}; HH^0 reads only its H^0, which needs both to be 0"
            )
        self.hh0 = base[0]
        self.complex = build_resolving_complex(
            diagram.poset, diagram.functor, normalized=True, p_max=2
        )
        self.h0 = self.complex.cohomology(0)
        self.h1 = self.complex.cohomology(1)

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.hh0, self.h0.dim, self.h1.dim)

    def reduce(self, p: int, elements: dict) -> tuple[list[Fraction], dict]:
        """The degree-p cochain whose block at each slot holds the reduce
        coordinates of its chart element, with each slot's reduce witness.
        Slots are objects at p = 0 and inclusions at p = 1; the slots not
        listed are zero."""
        reductions = {slot: self._cokernel(p, slot).reduce(e) for slot, e in elements.items()}
        vec = self.complex.cochain(p, {(slot,): red.coords for slot, red in reductions.items()})
        return vec, {slot: red.witness for slot, red in reductions.items()}

    def cochain(self, p: int, elements: dict) -> list[Fraction]:
        """The degree-p cochain of the elements' reduce coordinates."""
        return self.reduce(p, elements)[0]

    def elements(self, p: int, vec) -> dict:
        """Each slot's class element of the degree-p cochain vec."""
        return {slot: self._cokernel(p, slot).class_element(entries)
                for (slot,), entries in self.complex.blocks(p, vec).items()}

    def restriction_witness(self, incl: str, vec) -> AlgebraElement:
        """The witness of the inclusion's restriction of the class element
        that the degree-0 cochain vec holds at the inclusion's source."""
        src = self.diagram.poset.morphisms[incl].src
        return self.diagram.restriction_witness(incl, self.complex.blocks(0, vec)[(src,)])

    def _cokernel(self, p: int, slot: str) -> CokernelPresentation:
        return self.diagram.cokernels[slot] if p == 0 else self.diagram.cokernel_at(slot)


def global_hochschild_dims(diagram: ExtDiagram, endo_h0: MorFunctor) -> GlobalHochschild:
    return GlobalHochschild(diagram, endo_h0)
