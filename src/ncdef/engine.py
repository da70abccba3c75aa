"""Order-by-order obstruction calculus for presheaf deformations.

A deformation datum over a 1-pointed Artinian base deforms the distinguished
operator of each chart by multiplication corrections (psi) and each
restriction map by an invertible multiplier (1 + tau), with all correction
coefficients in the radical. Writing Psi_i for the chart correction and
U = 1 + tau for the multiplier of an inclusion i -> j, the semilinearity
defect is the single element

    D = U * rho(Psi_i) - d_j(U) - Psi_j * U        in  A_j (x) I(R),

and the composition defect of a composable pair is U' * rho'(U) - U''.
These two are all a datum decides; two more identities hold on certified
charts and are checked once, where the charts load. The operator relations
hold within the multiplication ansatz: [Psi, g] = 0 because the charts are
commutative, and d(rel) = 0 is certified by ``algebra.Derivation``. The
multiplier form of the semilinearity defect on a generator g,

    U * rho(d_i g) = d_j(U * rho(g)) - d_j(U) * rho(g),

reads rho(d_i g) = d_j(rho(g)) once Leibniz cancels d_j(U) and the unit U
divides out; ``cokernels.ExtDiagram`` certifies that. Along a small
surjection the defect lands in A (x) K; reducing it slotwise into the Ext^1
cokernels gives a degree-one cochain of the diagram complex whose class is
the obstruction. If the class vanishes, solving

    [D] = d^0 [E]

in cokernel coordinates yields corrections (psi += E, tau += W) that kill
the defect exactly. If it does not vanish, the same solve on the defect
less its class yields corrections that leave exactly the class, as basis
cocycles times the relation rows, so they kill the defect over the base cut
by the relations. Every element is reduced once: W is read off
coordinates, as the defect's own reduce witnesses plus the restriction
witnesses that ``ExtDiagram`` keeps, taken at the solution E. The tangent
corrections tau are restriction witnesses of the degree-0 classes.
``EngineContext`` is the deformation problem that ``tower.hull`` drives to
the hull.

Every element of A (x) R is one flat sparse Q-vector keyed by (base word,
chart monomial) pairs. Sums, scalings, pushes and the images of chart maps
are combinations of rows through the one accumulate ``linalg.axpy``, and a
product of two such vectors reads two tables: the base's reduced word
products (``MatricArtin.word_product``) and the chart algebra's monomial
normal forms (``PresentedAlgebra.monomial_nf``).
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraElement, PresentedAlgebra
from .cokernels import ExtDiagram, GlobalHochschild
from .diagrams import CocycleError
# kernel_basis and quotient are not called here but stay bound: the pipeline
# benchmark's tracer test checks that tracing patches these bindings
from .linalg import axpy, kernel_basis, solve  # noqa: F401
from .matric import MatricArtin, MatricElement, SmallSurjection, quotient  # noqa: F401
from .tower import DeformationError, HullResult, NoLiftPossible, hull

_ZERO = Fraction(0)
_ONE = Fraction(1)

# the calculus and the tower it drives raise one error type, so a caller
# catches the tower's errors too as EngineError
EngineError = DeformationError


class UnsupportedDefect(EngineError):
    """A defect component outside the curve-degenerate shape."""


# ---------------------------------------------------------------------------


class TensorElement:
    """Element of A (x) R as one sparse Q-vector: ``coeffs`` maps each
    (base word, normal-form monomial) pair to its nonzero coefficient.

    Sums, scalings and pushes accumulate rows with ``linalg.axpy``; a
    product reads the base's tabled word products and the chart algebra's
    tabled monomial normal forms. The constructor owns the dict it is given.
    """

    __slots__ = ("algebra", "base", "coeffs")

    def __init__(self, algebra: PresentedAlgebra, base: MatricArtin, coeffs=None):
        self.algebra = algebra
        self.base = base
        self.coeffs = {} if coeffs is None else coeffs

    @classmethod
    def from_pairs(cls, algebra, base, pairs):
        """Sum of a_k (x) r_k with r_k arbitrary base elements."""
        out = {}
        for a, r in pairs:
            terms = algebra.normal_form(a).terms
            for w, c in base.reduce(r).coeffs.items():
                axpy(out, c, _row(w, terms))
        return cls(algebra, base, out)

    @classmethod
    def unit(cls, algebra, base):
        return cls.from_pairs(algebra, base, [(algebra.one(), base.one())])

    def __add__(self, other):
        out = dict(self.coeffs)
        axpy(out, _ONE, other.coeffs)
        return TensorElement(self.algebra, self.base, out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        axpy(out, -_ONE, other.coeffs)
        return TensorElement(self.algebra, self.base, out)

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return TensorElement(self.algebra, self.base)
        return TensorElement(self.algebra, self.base,
                             {k: c * e for k, e in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, TensorElement):
            raise EngineError("tensor elements multiply with tensor elements")
        word_product = self.base.word_product
        monomial_nf = self.algebra.monomial_nf
        out = {}
        for (u, m1), c1 in self.coeffs.items():
            for (v, m2), c2 in other.coeffs.items():
                prod = word_product(u, v)
                if prod:
                    terms = monomial_nf(tuple(a + b for a, b in zip(m1, m2)))
                    c = c1 * c2
                    for w, cw in prod.items():
                        axpy(out, c * cw, _row(w, terms))
        return TensorElement(self.algebra, self.base, out)

    def map_coefficients(self, op, target_algebra=None):
        """Apply a Derivation or AlgebraMorphism to every chart coefficient."""
        image = op.monomial_image
        out = {}
        for (w, m), c in self.coeffs.items():
            axpy(out, c, _row(w, image(m)))
        return TensorElement(target_algebra or self.algebra, self.base, out)

    def is_zero(self) -> bool:
        return not self.coeffs

    def radical_part_only(self) -> bool:
        return all(self.base.free.word_length(w) >= 1 for w, _m in self.coeffs)

    def rebase_section(self, new_base: MatricArtin) -> TensorElement:
        """Monomial section into a larger quotient of the same free algebra."""
        for w, _m in self.coeffs:
            if w not in new_base.qindex:
                raise EngineError(f"word {w} is not a base basis word")
        return TensorElement(self.algebra, new_base, dict(self.coeffs))

    def push(self, word_image_fn, new_base: MatricArtin) -> TensorElement:
        """Push along a base morphism given by its action on basis words."""
        out = {}
        for (w, m), c in self.coeffs.items():
            axpy(out, c, {(w2, m): c2 for w2, c2 in word_image_fn(w).coeffs.items()})
        return TensorElement(self.algebra, new_base, out)

    def __eq__(self, other):
        return (
            isinstance(other, TensorElement)
            and self.base is other.base
            and self.coeffs == other.coeffs
        )


def _row(word, terms: dict) -> dict:
    """The A (x) R row of word (x) (the chart element with these terms)."""
    return {(word, m): c for m, c in terms.items()}


# ---------------------------------------------------------------------------


class DeformationDatum:
    """psi per chart, tau per non-identity inclusion, over a 1-pointed base."""

    def __init__(self, context: EngineContext, base: MatricArtin, psi: dict, tau: dict):
        if base.p != 1:
            raise EngineError("deformation data are implemented over 1-pointed bases")
        self.context = context
        self.base = base
        self.psi = dict(psi)
        self.tau = dict(tau)
        for obj in context.poset.objects:
            te = self.psi.setdefault(obj, TensorElement(context.algebra_of(obj), base))
            if not te.radical_part_only():
                raise EngineError(f"psi at {obj} has a non-radical coefficient")
        for name in context.inclusions:
            te = self.tau.setdefault(
                name, TensorElement(context.target_algebra_of(name), base)
            )
            if not te.radical_part_only():
                raise EngineError(f"tau at {name} has a non-radical coefficient")

    def multiplier(self, incl: str) -> TensorElement:
        return TensorElement.unit(self.tau[incl].algebra, self.base) + self.tau[incl]

    def rebase_section(self, new_base: MatricArtin) -> DeformationDatum:
        return DeformationDatum(
            self.context, new_base,
            {o: te.rebase_section(new_base) for o, te in self.psi.items()},
            {n: te.rebase_section(new_base) for n, te in self.tau.items()},
        )

    def push(self, word_image_fn, new_base: MatricArtin) -> DeformationDatum:
        return DeformationDatum(
            self.context, new_base,
            {o: te.push(word_image_fn, new_base) for o, te in self.psi.items()},
            {n: te.push(word_image_fn, new_base) for n, te in self.tau.items()},
        )

    def corrected(self, E: dict, W: dict) -> DeformationDatum:
        psi = {o: self.psi[o] + E.get(o, TensorElement(self.psi[o].algebra, self.base))
               for o in self.psi}
        tau = {n: self.tau[n] + W.get(n, TensorElement(self.tau[n].algebra, self.base))
               for n in self.tau}
        return DeformationDatum(self.context, self.base, psi, tau)

    def transport(self, pi: dict) -> DeformationDatum:
        """Equivalence transport by the invertible 0-cochain 1 + pi."""
        ctx = self.context
        units, invs = {}, {}
        for obj in ctx.poset.objects:
            u = TensorElement.unit(ctx.algebra_of(obj), self.base) + pi[obj]
            inv = TensorElement.unit(ctx.algebra_of(obj), self.base)
            power = TensorElement.unit(ctx.algebra_of(obj), self.base)
            for k in range(1, self.base.free.truncation):
                power = power * pi[obj]
                inv = inv + power.scale(Fraction(-1) ** k)
                if power.is_zero():
                    break
            units[obj], invs[obj] = u, inv
        psi = {}
        for obj in ctx.poset.objects:
            d = ctx.charts[obj].derivation
            dv = invs[obj].map_coefficients(d)
            psi[obj] = units[obj] * dv + units[obj] * self.psi[obj] * invs[obj]
        tau = {}
        for name in ctx.inclusions:
            i, j = ctx.endpoints(name)
            rho = ctx.restrictions[name]
            rho_inv = invs[i].map_coefficients(rho, ctx.algebra_of(j))
            U = units[j] * self.multiplier(name) * rho_inv
            tau[name] = U - TensorElement.unit(ctx.algebra_of(j), self.base)
        return DeformationDatum(ctx, self.base, psi, tau)


class DefectCochain:
    """(1,1) semilinearity failures per inclusion, (2,0) composition failures
    per composable pair: the two defects a datum decides. The (0,2) operator
    relations hold identically on certified charts."""

    def __init__(self, d11: dict, d20: dict):
        self.d11 = d11
        self.d20 = d20

    def is_zero(self) -> bool:
        return (
            all(te.is_zero() for te in self.d11.values())
            and all(te.is_zero() for te in self.d20.values())
        )


class Correction:
    """A 1-cochain (psi corrections E, tau corrections W) that leaves of a
    defect only its class; it kills a vanishing-class defect."""

    def __init__(self, E: dict, W: dict):
        self.E = E
        self.W = W

    def is_zero(self) -> bool:
        return all(t.is_zero() for t in self.E.values()) and all(
            t.is_zero() for t in self.W.values()
        )


class ObstructionClass:
    """Coordinates in (chosen obstruction basis) (x) kernel basis, with a
    witness (E, W) over the source base that leaves the class alone:
    D + rho(E_i) - E_j - d_j(W) = sum_alpha omega_alpha (x) row_alpha, with
    omega_alpha the H^1 basis cocycles. Over any quotient of the source by
    the rows the corrected datum's defect vanishes; on a zero class the
    witness kills the defect outright."""

    def __init__(self, coords, surj: SmallSurjection, witness: Correction):
        self.coords = coords          # coords[alpha][m]
        self.kernel_basis = surj.kernel_basis
        self.base = surj.source
        self.witness = witness

    def is_zero(self) -> bool:
        return all(c == 0 for row in self.coords for c in row)

    def rows(self) -> list[MatricElement]:
        """sum_m coords[alpha][m] * kappa_m, per obstruction basis vector alpha."""
        out = []
        for row in self.coords:
            terms = {}
            for c, kappa in zip(row, self.kernel_basis):
                if c:
                    axpy(terms, c, kappa.coeffs)
            out.append(MatricElement(self.base, terms))
        return out


# ---------------------------------------------------------------------------


class EngineContext:
    """Everything the calculus needs about one chart configuration: the
    poset, charts, restrictions, cokernel presentations, the diagram
    cohomology in degrees 0 and 1, and certified tangent representatives."""

    def __init__(self, diagram: ExtDiagram, hh: GlobalHochschild, tangent_reps):
        self.diagram = diagram
        self.hh = hh
        self.poset = diagram.poset
        self.charts = diagram.charts
        self.restrictions = diagram.restrictions
        self.inclusions = [
            name for name in self.poset.sorted_morphisms()
            if not self.poset.is_identity(name)
        ]
        self.tangent_reps = tangent_reps
        for l, (xi, tau) in enumerate(tangent_reps):
            for name in self.inclusions:
                i, j = self.endpoints(name)
                rho = self.restrictions[name]
                lhs = self.charts[j].derivation(tau[name])
                rhs = rho(xi[i]) - xi[j]
                if lhs != rhs:
                    raise EngineError(
                        f"tangent representative {l + 1} fails the first-order "
                        f"identity on {name}"
                    )

    # -- small helpers -----------------------------------------------------------

    @property
    def tangent_dim(self) -> int:
        """The number of tangent directions, one per tangent representative."""
        return len(self.tangent_reps)

    def algebra_of(self, obj: str) -> PresentedAlgebra:
        return self.charts[obj].algebra

    def target_algebra_of(self, incl: str) -> PresentedAlgebra:
        return self.algebra_of(self.poset.morphisms[incl].tgt)

    def endpoints(self, incl: str):
        m = self.poset.morphisms[incl]
        return m.src, m.tgt

    def composable_pairs(self):
        out = []
        for f in self.inclusions:
            for g in self.inclusions:
                mf, mg = self.poset.morphisms[f], self.poset.morphisms[g]
                if mf.tgt == mg.src:
                    out.append((f, g, self.poset.compose(f, g)))
        return out

    @classmethod
    def from_charts(cls, poset, charts, restrictions, d_max=24,
                    preferred_reps=None, tangent_rep_strings=None,
                    obstruction_rep_strings=None) -> EngineContext:
        """The context of a chart configuration. The optional tables only
        choose bases: ``preferred_reps`` the Ext^1 representative monomials
        per chart, ``tangent_rep_strings`` one per-chart class xi for each
        basis vector of H^0, ``obstruction_rep_strings`` the per-inclusion
        cocycle spanning H^1. The restriction corrections are always derived."""
        from .cokernels import build_ext_diagram, global_hochschild_dims
        from .diagrams import constant_functor

        diagram = build_ext_diagram(poset, charts, restrictions, d_max=d_max,
                                    preferred_reps=preferred_reps)
        hh = global_hochschild_dims(diagram, constant_functor(poset))
        if tangent_rep_strings is not None:
            hh.h0.set_representatives([hh.cochain(0, xi) for xi in tangent_rep_strings])
        if obstruction_rep_strings is not None:
            hh.h1.set_representatives([hh.cochain(1, obstruction_rep_strings)])
        # tau_l on an inclusion is the restriction witness of xi_l at its
        # source; __init__ certifies each pair
        inclusions = [name for name in poset.sorted_morphisms() if not poset.is_identity(name)]
        return cls(diagram, hh, [
            (hh.elements(0, vec), {name: hh.restriction_witness(name, vec) for name in inclusions})
            for vec in hh.h0.representatives])

    # -- datum construction -------------------------------------------------------

    def first_order_datum(self, base: MatricArtin) -> DeformationDatum:
        """psi = sum_l xi_l (x) t_l, tau = sum_l tau_l (x) t_l."""
        names = [g[0] for g in base.free.gens.generators]
        if len(names) != len(self.tangent_reps):
            raise EngineError("base generator count != tangent dimension")
        psi, tau = {}, {}
        for obj in self.poset.objects:
            psi[obj] = TensorElement.from_pairs(
                self.algebra_of(obj), base,
                [(xi[obj], base.generator(n))
                 for n, (xi, _t) in zip(names, self.tangent_reps)],
            )
        for name in self.inclusions:
            tau[name] = TensorElement.from_pairs(
                self.target_algebra_of(name), base,
                [(t[name], base.generator(n))
                 for n, (_xi, t) in zip(names, self.tangent_reps)],
            )
        return DeformationDatum(self, base, psi, tau)

    # -- the calculus ---------------------------------------------------------------

    def validate(self, datum: DeformationDatum) -> DefectCochain:
        """Exact defect evaluation; defects are data, not errors. Only the
        two defects a datum decides are computed: the operator relations
        hold once ``Derivation`` certifies the chart relations, and the
        multiplier form once ``ExtDiagram`` certifies that each restriction
        intertwines the derivations."""
        d11, d20 = {}, {}
        for name in self.inclusions:
            i, j = self.endpoints(name)
            rho = self.restrictions[name]
            A_j = self.algebra_of(j)
            d_j = self.charts[j].derivation
            U = datum.multiplier(name)
            dU = U.map_coefficients(d_j)
            rho_psi = datum.psi[i].map_coefficients(rho, A_j)
            d11[name] = U * rho_psi - dU - datum.psi[j] * U
        for f, g, comp in self.composable_pairs():
            rho_g = self.restrictions[g]
            A_k = self.target_algebra_of(g)
            U_f = datum.multiplier(f).map_coefficients(rho_g, A_k)
            D = datum.multiplier(g) * U_f - datum.multiplier(comp)
            d20[(f, g)] = D
        return DefectCochain(d11, d20)

    def kernel_components(self, te: TensorElement, surj: SmallSurjection) -> list[AlgebraElement]:
        """Write an A (x) K element as per-kernel-basis algebra coefficients."""
        if te.is_zero():
            return [te.algebra.zero() for _ in surj.kernel_basis]
        if not surj.kernel_basis:
            raise UnsupportedDefect("nonzero defect with a zero kernel")
        by_monomial: dict[tuple, dict] = {}
        for (w, m), c in te.coeffs.items():
            by_monomial.setdefault(m, {})[w] = c
        out = [{} for _ in surj.kernel_basis]
        for mono in sorted(by_monomial, key=lambda m: (te.algebra.degree(m), m)):
            x = surj.kernel_coordinates(MatricElement(surj.source, by_monomial[mono]))
            if x is None:
                raise UnsupportedDefect("defect does not lie in A (x) K")
            for m_idx, c in enumerate(x):
                if c:
                    out[m_idx][mono] = c
        return [AlgebraElement(te.algebra, terms) for terms in out]

    def obstruction_class(self, defect: DefectCochain, surj: SmallSurjection) -> ObstructionClass:
        """HH^2 (x) K coordinates of a lifting defect, with its witness.

        Per kernel index m, each nonzero defect component a at i -> j is
        reduced once, d_j(w) = a - [r]. The cochain of the r, less its class
        sum_alpha coords[alpha][m] omega_alpha, is d^0 x = x_j - A x_i. So
        E = [x] and W = w + (the restriction witness w' of x_i), both times
        kappa_m, leave a + rho([x_i]) - [x_j] - d_j(w + w') = [r + A x_i - x_j],
        exactly the class: D + rho(E_i) - E_j - d(W) = sum omega_alpha (x) row_alpha.

        Requires the (2,0) component to vanish (it does within the
        multiplication ansatz on intersection-closed curve covers).
        """
        for pair, te in defect.d20.items():
            if not te.is_zero():
                raise UnsupportedDefect(f"(2,0) defect at {pair}")
        hh, base = self.hh, surj.source
        d0 = hh.complex.differentials[0]
        omegas = hh.h1.representatives
        comps = {name: self.kernel_components(defect.d11[name], surj)
                 for name in self.inclusions}
        coords = [[_ZERO] * len(surj.kernel_basis) for _ in omegas]
        E = {obj: TensorElement(self.algebra_of(obj), base) for obj in self.poset.objects}
        W = {name: TensorElement(self.target_algebra_of(name), base)
             for name in self.inclusions}
        for m_idx, kappa in enumerate(surj.kernel_basis):
            vec, witnesses = hh.reduce(1, {name: comps[name][m_idx] for name in self.inclusions
                                           if not comps[name][m_idx].is_zero()})
            try:
                cls_coords = hh.h1.class_coords(vec)
            except CocycleError as err:
                raise EngineError(
                    f"defect is not a cocycle (internal checker bug): residual "
                    f"{err.residual}"
                ) from err
            for omega, row, c in zip(omegas, coords, cls_coords):
                row[m_idx] = c
                if c:
                    vec = [v - c * o for v, o in zip(vec, omega)]
            x = solve(d0, vec)
            if x is None:
                raise NoLiftPossible("class-level solve failed on a coboundary")
            for obj, elem in hh.elements(0, x).items():
                if not elem.is_zero():
                    E[obj] = E[obj] + TensorElement.from_pairs(
                        self.algebra_of(obj), base, [(elem, kappa)]
                    )
            for name in self.inclusions:
                w = hh.restriction_witness(name, x)
                if name in witnesses:
                    w = w + witnesses[name]
                if not w.is_zero():
                    W[name] = W[name] + TensorElement.from_pairs(
                        self.target_algebra_of(name), base, [(w, kappa)]
                    )
        return ObstructionClass(coords, surj, Correction(E, W))

    # -- the hull -----------------------------------------------------------------

    def cup_table(self):
        """Every cup product, read off the tower's order-2 obstruction."""
        return self.hull_compute(3).cup_table

    def hull_compute(self, max_order: int) -> HullResult:
        """The hull to the requested order, by the lifting tower."""
        return hull(self, max_order)

