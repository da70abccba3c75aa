"""Laudal's lifting tower: the hull of a deformation problem, order by order.

The tower drives any deformation problem that offers

- ``tangent_dim``, the number r of tangent directions;
- ``first_order_datum(base)``, the universal first-order datum over a
  quotient of the free algebra T on t1, ..., tr (``tangent_free``);
- ``validate(datum)``, the datum's defect, which has ``is_zero()``;
- ``obstruction_class(defect, surj)``, the class of a defect along a small
  surjection R -> S. It has ``rows()`` (one element of R per obstruction
  basis vector) and a ``witness`` correction with parts ``E`` and ``W``,
  always present: the corrected datum's defect over R is the class itself,
  so it vanishes over any quotient of R that kills the rows;

and whose data offer ``rebase_section(base)`` (the same datum over a larger
quotient of T), ``corrected(E, W)`` and ``push(word_image, base)`` (the
datum along a base map, given on basis words). Each step validates the
naive lift, takes its one class, divides its nonzero rows out and pushes
the corrected lift there, exactly in the tower of the obstruction
morphism; the zero-defect certificate there fails if the rows do not
kill the class.

Base words are the 1-pointed words of ``matric``: ``("e", 1)`` and
``("w", indices)`` with 0-based generator indices, so the coefficient of
t_l t_m in an order-2 obstruction row is the one of ``("w", (l - 1, m - 1))``.
"""

from __future__ import annotations

from fractions import Fraction

from .matric import (
    MatricElement,
    MatricGeneratorSet,
    MatricTruncatedFree,
    SmallSurjection,
    quotient,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DeformationError(RuntimeError):
    """A deformation problem or its tower failed a certification."""


class NoLiftPossible(DeformationError):
    """The solver failed after ideal enlargement; must not happen."""


def tangent_free(r: int, truncation: int) -> MatricTruncatedFree:
    """The free algebra on t1, ..., tr over a 1-pointed base, cut at I^truncation."""
    gens = MatricGeneratorSet(1, [(f"t{l + 1}", 1, 1) for l in range(r)])
    return MatricTruncatedFree(gens, truncation)


def hull(problem, max_order: int) -> HullResult:
    """Run the lifting tower of ``problem`` to the requested order.

    Starts from the first-order datum over T/I^2. Step n lifts the order-n
    hull H = T/a in T/I^(n+1), the free algebra truncated at the step's
    own order, where a is spanned by H's ideal basis and the words of
    length n, and b = I a + a I by their products with the generators.
    The step closes b once; H and H_(n+1) = T/(b + rows) are further
    quotients of T/b. The naive lift's obstruction along T/b -> T/a gives
    the rows (and at n = 2 the cup table), which T/b -> H_(n+1) kills, and
    the class's witness, pushed there, corrects the lift. The kernel of
    H_(n+1) -> T/a is the image of that of T/b -> T/a, so the one small
    surjection covers both.

    The relations are one per obstruction coordinate alpha: its latest
    nonzero row, Laudal's f_alpha refined order by order, which replaces
    the earlier one.
    """
    if max_order < 2:
        raise DeformationError("hull order must be >= 2")
    r = problem.tangent_dim
    H = quotient(tangent_free(r, 2), [], name="H2")
    datum = problem.first_order_datum(H)
    first_defect = defect = problem.validate(datum)
    if not defect.is_zero():
        raise DeformationError("the first-order datum fails to validate")
    relations: dict[int, MatricElement] = {}  # obstruction coordinate -> f_alpha
    new_by_order: dict[int, list[str]] = {}
    cup_table = None
    for n in range(2, max_order):
        free = tangent_free(r, n + 1)
        a_basis = [free.element(g.coeffs) for g in H.ideal_basis()]
        a_basis += [free.element({w: _ONE}) for w in free.radical_words(n)]
        b_gens = [prod for g in a_basis for t in free.generator_elements
                  for prod in (t * g, g * t) if not prod.is_zero()]
        Rp = quotient(free, b_gens, name=f"T/b{n}")
        H = quotient(Rp, a_basis, name=H.name)  # H re-presented in this truncation
        surj = SmallSurjection(Rp, H)
        lift = datum.rebase_section(Rp)
        obst = problem.obstruction_class(problem.validate(lift), surj)
        rows = obst.rows()
        if n == 2:
            cup_table = {(l, m): [e.coeffs.get(("w", (l - 1, m - 1)), _ZERO) for e in rows]
                         for l in range(1, r + 1) for m in range(1, r + 1)}
        current = {alpha: _normalize_relation(free.element(row.coeffs))
                   for alpha, row in enumerate(rows) if not row.is_zero()}
        new_by_order[n + 1] = [str(rel) for alpha, rel in current.items()
                               if alpha not in relations]
        relations.update(current)
        H_next = quotient(Rp, list(current.values()), name=f"H{n + 1}")
        # tower coherence: H_(n+1) / I^n recovers H_n
        if H_next.dim - len(H_next.radical_basis(n)) != H.dim:
            raise DeformationError(f"tower coherence fails at order {n + 1}")
        images = {w: H_next.element({w: _ONE}) for w in Rp.qbasis}
        datum = (lift.corrected(obst.witness.E, obst.witness.W)
                 .push(images.__getitem__, H_next))
        defect = problem.validate(datum)
        if not defect.is_zero():
            raise NoLiftPossible(f"corrected datum fails to validate at order {n + 1}")
        H = H_next
    return HullResult(max_order, H, list(relations.values()), new_by_order, datum,
                      defect, first_defect, cup_table)


class HullResult:
    """Output of the tower: the truncated hull algebra, its relation
    generators (with first-appearance bookkeeping), the validated versal
    datum with the defects of its final and first validations, and the cup
    table (None below order 3): per (l, m), the coefficient of t_l t_m in
    each row of the order-2 obstruction."""

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


def _leading_key(word):
    kind, data = word
    if kind == "e":
        return (0, ())
    return (len(data), tuple(-i for i in data))


def _normalize_relation(elem: MatricElement) -> MatricElement:
    lead = max(elem.coeffs, key=_leading_key)
    return elem.scale(_ONE / elem.coeffs[lead])

