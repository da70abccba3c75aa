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
    own order. H is carried as the nonzero rows it was presented by, the
    ones the previous step divided out (none at n = 2): a = (rows) + I^n,
    and b = I a + a I is generated by t r and r t over those rows r and
    the generators t. The step closes b once; H and H_(n+1) = T/(b + rows)
    are further quotients of T/b. The naive lift's obstruction along
    T/b -> T/a gives the rows (and at n = 2 the cup table), which
    T/b -> H_(n+1) kills, and the class's witness, pushed there, corrects
    the lift. The kernel of H_(n+1) -> T/a is the image of that of
    T/b -> T/a, so the one small surjection covers both.

    Carrying the rows alone is exact. Tower coherence, certified at every
    step, gives a = b + (rows) + I^n, so b = I a + a I lies in
    I b + b I + (rows). Each pass of that inclusion adds a letter to the
    b term, and after n passes it lies in I^(n+1) = 0, so b lies in
    (rows) and H_(n+1) = T/(rows). The next step's a is therefore
    (rows) + I^(n+1), and its b is generated by t r and r t. The rows
    carried are this step's nonzero ones: the relations below keep a
    coordinate's last nonzero row even after that row turns zero.

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
    carried: list[MatricElement] = []  # the nonzero rows H = T/(rows) was built from
    for n in range(2, max_order):
        free = tangent_free(r, n + 1)
        f_rows = [free.element(row.coeffs) for row in carried]
        b_gens = [prod for row in f_rows for t in free.generator_elements
                  for prod in (t * row, row * t) if not prod.is_zero()]
        Rp = quotient(free, b_gens, name=f"T/b{n}")
        a_gens = f_rows + [free.element({w: 1}) for w in free.radical_words(n)]
        H = quotient(Rp, a_gens, name=H.name)  # H re-presented in this truncation
        surj = SmallSurjection(Rp, H)
        lift = datum.rebase_section(Rp)
        obst = problem.obstruction_class(problem.validate(lift), surj)
        rows = obst.rows()
        if n == 2:
            cup_table = {(l, m): [e.coeffs.get(("w", (l - 1, m - 1)), 0) for e in rows]
                         for l in range(1, r + 1) for m in range(1, r + 1)}
        current = {alpha: _normalize_relation(free.element(row.coeffs))
                   for alpha, row in enumerate(rows) if not row.is_zero()}
        new_by_order[n + 1] = [str(rel) for alpha, rel in current.items()
                               if alpha not in relations]
        relations.update(current)
        carried = list(current.values())
        H_next = quotient(Rp, carried, name=f"H{n + 1}")
        # tower coherence: H_(n+1) / I^n recovers H_n
        if H_next.dim - len(H_next.radical_basis(n)) != H.dim:
            raise DeformationError(f"tower coherence fails at order {n + 1}")
        images = {w: H_next.element({w: 1}) for w in Rp.qbasis}
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
    return elem.scale(Fraction(1, elem.coeffs[lead]))

