"""Order-by-order obstruction calculus for presheaf deformations.

A deformation datum over a 1-pointed Artinian base deforms the distinguished
operator of each chart by multiplication corrections (psi) and each
restriction map by an invertible multiplier (1 + tau), with all correction
coefficients in the radical. Writing Psi_i for the chart correction and
U = 1 + tau for the multiplier of an inclusion i -> j, the semilinearity
defect is the single element

    D = U * rho(Psi_i) - d_j(U) - Psi_j * U        in  A_j (x) I(R),

the composition defect of a composable pair is U' * rho'(U) - U'', and the
operator relations hold identically within the multiplication ansatz (still
checked). Along a small surjection the defect lands in A (x) K; reducing it
slotwise into the Ext^1 cokernels gives a degree-one cochain of the diagram
complex whose class is the obstruction. If the class vanishes, solving

    [D] = d^0 [E]

in cokernel coordinates and taking derivation preimages of the residual
yields corrections (psi += E, tau += W) that kill the defect exactly; the
hull loop alternates naive lifts, relation extraction from nonzero classes,
and corrected lifts, exactly in the tower of the obstruction morphism.

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
from .linalg import Matrix, SubspaceReducer, axpy, kernel_basis, rank, solve
from .matric import (
    MatricArtin,
    MatricElement,
    MatricGeneratorSet,
    MatricTruncatedFree,
    SmallSurjection,
    quotient,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class EngineError(RuntimeError):
    pass


class NoLiftPossible(EngineError):
    """The solver failed after ideal enlargement; must not happen."""


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
            for w, c in base.reduce(base.free.element(dict(r.coeffs))).coeffs.items():
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
    """(0,2) operator failures per chart, (1,1) semilinearity failures per
    inclusion, (2,0) composition failures per composable pair."""

    def __init__(self, d02: dict, d11: dict, d20: dict):
        self.d02 = d02
        self.d11 = d11
        self.d20 = d20

    def is_zero(self) -> bool:
        return (
            all(te.is_zero() for per in self.d02.values() for te in per.values())
            and all(te.is_zero() for te in self.d11.values())
            and all(te.is_zero() for te in self.d20.values())
        )


class Correction:
    """A 1-cochain (psi corrections E, tau corrections W) certified to kill a
    vanishing-class defect."""

    def __init__(self, E: dict, W: dict):
        self.E = E
        self.W = W

    def is_zero(self) -> bool:
        return all(t.is_zero() for t in self.E.values()) and all(
            t.is_zero() for t in self.W.values()
        )


class ObstructionClass:
    """Coordinates in (chosen obstruction basis) (x) kernel basis."""

    def __init__(self, coords, surj: SmallSurjection, witness: Correction | None):
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

    def relation_elements(self) -> list[MatricElement]:
        """The nonzero rows: one relation per obstruction basis vector."""
        return [elem for elem in self.rows() if not elem.is_zero()]


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
        return cls(diagram, hh, _derive_tangent_reps(diagram, hh))

    # -- datum construction -------------------------------------------------------

    def trivial_datum(self, base: MatricArtin) -> DeformationDatum:
        return DeformationDatum(self, base, {}, {})

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
        """Exact defect evaluation; defects are data, not errors."""
        d02, d11, d20 = {}, {}, {}
        for obj in self.poset.objects:
            A = self.algebra_of(obj)
            d = self.charts[obj].derivation
            per = {}
            for gen in A.generators():
                gen_tensor = TensorElement.from_pairs(A, datum.base, [(gen, datum.base.one())])
                per[str(gen)] = datum.psi[obj] * gen_tensor - gen_tensor * datum.psi[obj]
            # the operator relation evaluated on the chart relations: the
            # relation acts as multiplication by its (zero) normal form, so
            # only the derivation image survives
            for k, rel in enumerate(A.relations):
                img = d._apply_poly(rel)
                per[f"relation{k}"] = TensorElement.from_pairs(
                    A, datum.base, [(img, datum.base.one())]
                )
            d02[obj] = per
        for name in self.inclusions:
            i, j = self.endpoints(name)
            rho = self.restrictions[name]
            A_j = self.algebra_of(j)
            d_j = self.charts[j].derivation
            U = datum.multiplier(name)
            dU = U.map_coefficients(d_j)
            rho_psi = datum.psi[i].map_coefficients(rho, A_j)
            d11[name] = U * rho_psi - dU - datum.psi[j] * U
            self._check_multiplier_shape(datum, name, U, dU)
        for f, g, comp in self.composable_pairs():
            rho_g = self.restrictions[g]
            A_k = self.target_algebra_of(g)
            U_f = datum.multiplier(f).map_coefficients(rho_g, A_k)
            D = datum.multiplier(g) * U_f - datum.multiplier(comp)
            d20[(f, g)] = D
        return DefectCochain(d02, d11, d20)

    def _check_multiplier_shape(self, datum, name, U, dU):
        """Semilinearity on generators agrees with the multiplier form. Less
        D rho(g), whose Psi terms cancel, it reads U rho(d_i g) = d_j(U rho(g))
        - d_j(U) rho(g) on each generator g of A_i (at g = 1 both sides are 0)."""
        i, j = self.endpoints(name)
        A_j = self.algebra_of(j)
        rho = self.restrictions[name]
        d_i, d_j = self.charts[i].derivation, self.charts[j].derivation
        one = datum.base.one()
        for gen in self.algebra_of(i).generators():
            rho_g = TensorElement.from_pairs(A_j, datum.base, [(rho(gen), one)])
            rho_dg = TensorElement.from_pairs(A_j, datum.base, [(rho(d_i(gen)), one)])
            if U * rho_dg != (U * rho_g).map_coefficients(d_j) - dU * rho_g:
                raise EngineError(
                    f"defect at {name} is not of multiplication type on {gen}"
                )

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

    def _defect_cochain_vectors(self, defect: DefectCochain, surj: SmallSurjection):
        """Per kernel index: the normalized degree-1 cochain of reduce coords."""
        comps = {name: self.kernel_components(defect.d11[name], surj)
                 for name in self.inclusions}
        return [
            self.hh.cochain(1, {name: comps[name][m_idx] for name in self.inclusions
                                if not comps[name][m_idx].is_zero()})
            for m_idx in range(len(surj.kernel_basis))
        ]

    def obstruction_class(self, defect: DefectCochain, surj: SmallSurjection) -> ObstructionClass:
        """HH^2 (x) K coordinates of a lifting defect, with a witness when zero.

        Requires the (0,2) and (2,0) components to vanish (they do within the
        multiplication ansatz on intersection-closed curve covers).
        """
        for obj, per in defect.d02.items():
            for gen, te in per.items():
                if not te.is_zero():
                    raise UnsupportedDefect(f"(0,2) defect at {obj} on {gen}")
        for pair, te in defect.d20.items():
            if not te.is_zero():
                raise UnsupportedDefect(f"(2,0) defect at {pair}")
        vecs = self._defect_cochain_vectors(defect, surj)
        coords = [[_ZERO] * len(vecs) for _ in range(self.hh.h1.dim)]
        classes = []
        for m_idx, vec in enumerate(vecs):
            try:
                cls_coords = self.hh.h1.class_coords(vec)
            except CocycleError as err:
                raise EngineError(
                    f"defect is not a cocycle (internal checker bug): residual "
                    f"{err.residual}"
                ) from err
            classes.append(cls_coords)
            for alpha, c in enumerate(cls_coords):
                coords[alpha][m_idx] = c
        obst = ObstructionClass(coords, surj, None)
        if obst.is_zero():
            obst.witness = self._solve_correction(defect, surj, vecs)
        return obst

    def _solve_correction(self, defect: DefectCochain, surj: SmallSurjection, vecs) -> Correction:
        """Find (E, W) with D + rho(E_i) - E_j - d(W) = 0, exactly."""
        d0 = self.hh.complex.differentials[0]
        base = surj.source
        E = {obj: TensorElement(self.algebra_of(obj), base) for obj in self.poset.objects}
        for m_idx, vec in enumerate(vecs):
            x = solve(d0, vec)
            if x is None:
                raise NoLiftPossible("class-level solve failed on a zero class")
            kappa = surj.kernel_basis[m_idx]
            for obj, elem in self.hh.elements(0, x).items():
                if not elem.is_zero():
                    E[obj] = E[obj] + TensorElement.from_pairs(
                        self.algebra_of(obj), base, [(elem, kappa)]
                    )
        W = {}
        for name in self.inclusions:
            i, j = self.endpoints(name)
            rho = self.restrictions[name]
            A_j = self.algebra_of(j)
            residual = (defect.d11[name]
                        + E[i].map_coefficients(rho, A_j)
                        - E[j])
            comps = self.kernel_components(residual, surj)
            ck = self.diagram.cokernel_at(name)
            W_te = TensorElement(A_j, base)
            for m_idx, a in enumerate(comps):
                if a.is_zero():
                    continue
                red = ck.reduce(a)
                if not red.is_zero():
                    raise NoLiftPossible(
                        f"residual class at {name} did not vanish after the solve"
                    )
                W_te = W_te + TensorElement.from_pairs(
                    A_j, base, [(red.witness, surj.kernel_basis[m_idx])]
                )
            W[name] = W_te
        return Correction(E, W)

    # -- cup products -----------------------------------------------------------

    def cup_product(self, l: int, m: int) -> list[Fraction]:
        """Order-2 obstruction coordinates of the (l, m) monomial, 1-based."""
        return self.cup_table()[(l, m)]

    def cup_table(self):
        """Every cup product, read off the tower's order-2 obstruction."""
        return self.hull_compute(3).cup_table

    # -- the hull loop -------------------------------------------------------------

    def hull_compute(self, max_order: int) -> HullResult:
        """Run the lifting tower to the requested order.

        Starts from the first-order datum over T/I^2. Step n lifts the order-n
        hull H = T/a in T/I^(n+1), the free algebra truncated at the step's
        own order, where a is spanned by H's ideal basis and the words of
        length n, and b = I a + a I by their products with the generators.
        The naive lift's obstruction along T/b -> T/a gives the relations
        (and at n = 2 the cup table); over T/(b + relations) it vanishes, and
        its witness corrects the lift.
        """
        if max_order < 2:
            raise EngineError("hull order must be >= 2")
        r = len(self.tangent_reps)
        H = quotient(_tangent_free(r, 2), [], name="H2")
        datum = self.first_order_datum(H)
        first_defect = defect = self.validate(datum)
        if not defect.is_zero():
            raise EngineError("the first-order datum fails to validate")
        relations: list[MatricElement] = []
        new_by_order: dict[int, list[str]] = {}
        cup_table = None
        for n in range(2, max_order):
            free = _tangent_free(r, n + 1)
            a_basis = [free.element(g.coeffs) for g in H.ideal_basis()]
            a_basis += [free.element({w: _ONE}) for w in free.radical_words(n)]
            b_gens = [prod for g in a_basis for t in free.generator_elements
                      for prod in (t * g, g * t) if not prod.is_zero()]
            Rp = quotient(free, b_gens, name=f"T/b{n}")
            H = quotient(free, a_basis, name=H.name)  # H re-presented in this truncation
            surj = SmallSurjection(Rp, H)
            obst = self.obstruction_class(self.validate(datum.rebase_section(Rp)), surj)
            if n == 2:
                rows = obst.rows()
                cup_table = {(l, m): [e.coeffs.get(("w", (l - 1, m - 1)), _ZERO) for e in rows]
                             for l in range(1, r + 1) for m in range(1, r + 1)}
            rels = [_normalize_relation(e) for e in obst.relation_elements()]
            H_next = quotient(free, b_gens + [free.element(rel.coeffs) for rel in rels],
                              name=f"H{n + 1}")
            # the earlier relations lie in a and I a + a I = b, so b plus their
            # span is already a two-sided ideal: a relation is fresh when its
            # T/b reduction is not in the span of theirs
            known = SubspaceReducer(Rp.dim)
            for rel in relations:
                known.add(Rp.sparse(Rp.reduce(free.element(rel.coeffs))))
            fresh = [rel for rel in rels if not known.contains(Rp.sparse(rel))]
            # tower coherence: H_(n+1) / I^n recovers H_n
            if H_next.dim - len(H_next.radical_basis(n)) != H.dim:
                raise EngineError(f"tower coherence fails at order {n + 1}")
            lifted = datum.rebase_section(H_next)
            obst2 = self.obstruction_class(self.validate(lifted), SmallSurjection(H_next, H))
            if not obst2.is_zero():
                raise NoLiftPossible(
                    f"obstruction did not vanish after enlarging the ideal at "
                    f"order {n + 1}"
                )
            datum = lifted.corrected(obst2.witness.E, obst2.witness.W)
            defect = self.validate(datum)
            if not defect.is_zero():
                raise NoLiftPossible(f"corrected datum fails to validate at order {n + 1}")
            H = H_next
            relations = _merge_relations(relations, rels)
            new_by_order[n + 1] = [str(rel) for rel in fresh]
        return HullResult(max_order, H, relations, new_by_order, datum, defect,
                          first_defect, cup_table)

    # -- the tangent dimension check ---------------------------------------------------------

    def tangent_dimension_check(self) -> int:
        """Dimension of the raw first-order solution space modulo equivalence.

        Unknowns are truncated psi per chart and tau per inclusion; equations
        are the first-order semilinearity and composition identities; the
        equivalence directions come from truncated 0-cochains constrained to
        keep their images inside the variable spaces.
        """
        d_psi = max(ck.d_star for ck in self.diagram.cokernels.values())
        margin = max(ck._margin for ck in self.diagram.cokernels.values())
        d_pi = d_psi + margin
        factor = self._restriction_degree_factor()
        d_tau = factor * d_pi
        return self._tangent_dim_at(d_psi, d_pi, d_tau)

    def _restriction_degree_factor(self) -> int:
        factor = 1
        for name in self.inclusions:
            rho = self.restrictions[name]
            src = self.algebra_of(self.endpoints(name)[0])
            for g in src.generators():
                factor = max(factor, rho(g).degree())
        return factor

    def _tangent_dim_at(self, d_psi, d_pi, d_tau):
        psi_bases = {o: self.algebra_of(o).nf_monomials(d_psi) for o in self.poset.objects}
        tau_bases = {n: self.target_algebra_of(n).nf_monomials(d_tau)
                     for n in self.inclusions}
        offsets = {}
        total = 0
        for o in self.poset.objects:
            offsets[("psi", o)] = total
            total += len(psi_bases[o])
        for n in self.inclusions:
            offsets[("tau", n)] = total
            total += len(tau_bases[n])

        def equation_rows(target_algebra, d_target):
            monos = target_algebra.nf_monomials(d_target)
            return monos, {m: i for i, m in enumerate(monos)}

        rows = []

        def add_equation(entries_by_unknown, target_algebra, d_target):
            monos, index = equation_rows(target_algebra, d_target)
            block = [[_ZERO] * total for _ in monos]
            for (kind, key), elems in entries_by_unknown.items():
                off = offsets[(kind, key)]
                for col, elem in enumerate(elems):
                    for mono, c in elem.terms.items():
                        block[index[mono]][off + col] += c
            rows.extend(block)

        shift = max(1, max(self.charts[o].derivation.degree_shift()
                           for o in self.poset.objects))
        factor = self._restriction_degree_factor()
        d_eq = max(d_tau + shift, factor * max(d_psi, d_tau)) + 2
        for name in self.inclusions:
            i, j = self.endpoints(name)
            rho = self.restrictions[name]
            A_i, A_j = self.algebra_of(i), self.algebra_of(j)
            d_j = self.charts[j].derivation
            entries = {
                ("psi", i): [rho(A_i.monomial_element(m)) for m in psi_bases[i]],
                ("psi", j): [-A_j.monomial_element(m) for m in psi_bases[j]],
                ("tau", name): [-d_j(A_j.monomial_element(m)) for m in tau_bases[name]],
            }
            add_equation(entries, A_j, d_eq)
        for f, g, comp in self.composable_pairs():
            rho_g = self.restrictions[g]
            A_k = self.target_algebra_of(g)
            entries = {
                ("tau", f): [rho_g(self.target_algebra_of(f).monomial_element(m))
                             for m in tau_bases[f]],
                ("tau", g): [A_k.monomial_element(m) for m in tau_bases[g]],
                ("tau", comp): [-A_k.monomial_element(m) for m in tau_bases[comp]],
            }
            add_equation(entries, A_k, d_eq)
        system = Matrix.from_rows(rows) if rows else Matrix.zero(0, total)
        sol_dim = len(kernel_basis(system))

        # equivalence directions: 0-cochains pi per chart, restricted to the
        # subspace whose derivation image stays inside the psi space (the
        # kernel of the high-degree block, so cancelling combinations count)
        eq_cols = []
        tau_index = {n: {mm: k for k, mm in enumerate(tau_bases[n])}
                     for n in self.inclusions}
        for o in self.poset.objects:
            A = self.algebra_of(o)
            d = self.charts[o].derivation
            pi_monos = A.nf_monomials(d_pi)
            psi_index = {m: i for i, m in enumerate(psi_bases[o])}
            images = [d(A.monomial_element(m)) for m in pi_monos]
            high_monos = sorted(
                {mm for img in images for mm in img.terms if mm not in psi_index},
                key=lambda mm: (A.degree(mm), mm),
            )
            high_index = {mm: k for k, mm in enumerate(high_monos)}
            high_rows = [[_ZERO] * len(pi_monos) for _ in high_monos]
            for col, img in enumerate(images):
                for mm, c in img.terms.items():
                    if mm in high_index:
                        high_rows[high_index[mm]][col] = c
            if high_rows:
                high = Matrix.from_rows(high_rows)
                pi_space = kernel_basis(high)
            else:
                pi_space = [
                    [(_ONE if k == i else _ZERO) for k in range(len(pi_monos))]
                    for i in range(len(pi_monos))
                ]
            for v in pi_space:
                pi_elem = A.normal_form(
                    {m: c for m, c in zip(pi_monos, v) if c}
                )
                col = [_ZERO] * total
                off = offsets[("psi", o)]
                for mm, c in d(pi_elem).terms.items():
                    col[off + psi_index[mm]] -= c
                for name in self.inclusions:
                    i, j = self.endpoints(name)
                    contrib = None
                    if j == o:
                        contrib = pi_elem
                    if i == o:
                        piece = -self.restrictions[name](pi_elem)
                        contrib = piece if contrib is None else contrib + piece
                    if contrib is None or contrib.is_zero():
                        continue
                    off_t = offsets[("tau", name)]
                    for mm, c in contrib.terms.items():
                        col[off_t + tau_index[name][mm]] += c
                eq_cols.append(col)
        if eq_cols:
            eq_rank = rank(Matrix.from_columns(eq_cols, nrows=total))
        else:
            eq_rank = 0
        return sol_dim - eq_rank


class HullResult:
    """Output of the hull loop: the truncated hull algebra, its relation
    generators (with first-appearance bookkeeping), the validated versal
    datum with the defect cochains of its final and first validations, and
    the cup table (None below order 3): per (l, m), the coefficient of
    t_l t_m in each row of the order-2 obstruction."""

    def __init__(self, order, hull, relations, new_by_order, versal_datum,
                 versal_defect, first_defect, cup_table):
        self.order = order
        self.hull = hull
        self.relations = relations
        self.new_relations_by_order = new_by_order
        self.versal_datum = versal_datum
        self.versal_defect = versal_defect
        self.first_defect = first_defect
        self.cup_table = cup_table

    def relation_strings(self) -> list[str]:
        return [str(r) for r in self.relations]

    def payload(self) -> dict:
        """The report's "hull" block."""
        return {
            "relations": self.relation_strings(),
            "new_relations_by_order": {
                str(k): v for k, v in sorted(self.new_relations_by_order.items())
            },
            "dims_by_radical_degree": self.hull.radical_dims_by_order(),
            "dim": self.hull.dim,
        }


# ---------------------------------------------------------------------------


def _tangent_free(r: int, truncation: int) -> MatricTruncatedFree:
    gens = MatricGeneratorSet(1, [(f"t{l + 1}", 1, 1) for l in range(r)])
    return MatricTruncatedFree(gens, truncation)


def _word_elem(free: MatricTruncatedFree, indices) -> MatricElement:
    return free.element({("w", tuple(indices)): _ONE})


def _leading_key(word):
    kind, data = word
    if kind == "e":
        return (0, ())
    return (len(data), tuple(-i for i in data))


def _normalize_relation(elem: MatricElement) -> MatricElement:
    lead = max(elem.coeffs, key=_leading_key)
    return elem.scale(_ONE / elem.coeffs[lead])


def _merge_relations(old: list, new: list) -> list:
    out = list(old)
    for rel in new:
        if not any(rel.coeffs == r.coeffs for r in out):
            out.append(rel)
    return out


def _derive_tangent_reps(diagram: ExtDiagram, hh: GlobalHochschild):
    """Tangent representatives from the computed degree-0 classes: per chart
    the representative combination, per inclusion the reduce witness."""
    poset = diagram.poset
    reps = []
    for vec in hh.h0.representatives:
        xi = hh.elements(0, vec)
        tau = {}
        for name in poset.sorted_morphisms():
            if poset.is_identity(name):
                continue
            m = poset.morphisms[name]
            ck = diagram.cokernels[m.tgt]
            red = ck.reduce(diagram.restrictions[name](xi[m.src]) - xi[m.tgt])
            if not red.is_zero():
                raise EngineError("computed tangent class fails to close")
            tau[name] = red.witness
        reps.append((xi, tau))
    return reps
