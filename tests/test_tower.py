"""The lifting tower against fake deformation problems.

Each fake offers only the interface ``tower.hull`` documents, so any other
call fails. An unobstructed problem, as on a hereditary category, has the
free hull: the completed free algebra on its tangent directions. The point
of a plane curve has the completed local ring of the curve there.
"""

from types import SimpleNamespace

import pytest

from ncdef.matric import MatricElement, quotient
from ncdef.tower import hull


class Zero:
    def is_zero(self):
        return True


class Datum:
    def rebase_section(self, base):
        return self

    def corrected(self, E, W):
        return self

    def push(self, word_image, base):
        return self


class Class:
    """A class given by its kernel rows, one per obstruction basis vector,
    with a zero witness."""

    def __init__(self, rows):
        self._rows = rows
        self.witness = SimpleNamespace(E={}, W={})

    def rows(self):
        return self._rows


class Unobstructed:
    """Every defect and every obstruction class vanishes."""

    def __init__(self, r):
        self.tangent_dim = r

    def first_order_datum(self, base):
        return Datum()

    def validate(self, datum):
        return Zero()

    def obstruction_class(self, defect, surj):
        return Class([MatricElement(surj.source, {})])


class Counting(Unobstructed):
    """Counts the tower's calls on the problem."""

    def __init__(self, r):
        super().__init__(r)
        self.validated = self.obstructed = 0

    def validate(self, datum):
        self.validated += 1
        return super().validate(datum)

    def obstruction_class(self, defect, surj):
        self.obstructed += 1
        return super().obstruction_class(defect, surj)


class Point:
    """A point of a plane curve f(X, Y) = 0 over a base R: the images x and
    y of X and Y, in the radical of R."""

    def __init__(self, base, x, y):
        self.base, self.x, self.y = base, x, y

    def rebase_section(self, base):
        return Point(base, base.element(self.x.coeffs), base.element(self.y.coeffs))

    def corrected(self, E, W):
        return self

    def push(self, word_image, base):
        def image(e):
            out = base.zero()
            for w, c in e.coeffs.items():
                out = out + word_image(w).scale(c)
            return out
        return Point(base, image(self.x), image(self.y))


class Defect:
    def __init__(self, parts):
        self.parts = parts

    def is_zero(self):
        return all(e.is_zero() for e in self.parts)


class PointModule:
    """Rank-one deformations of the point module of the origin on the plane
    curve f(X, Y) = 0. A datum over R is an algebra map k[X, Y]/(f) -> R,
    so its defect is ([x, y], f(x, y)). Both relations lie in m^2, so the
    defect of a lift along a small surjection is its own class, with a zero
    witness, and the hull is the completed local ring of the point."""

    tangent_dim = 2

    def __init__(self, f):
        self.f = f  # {(i, j): c} for the terms c X^i Y^j

    def first_order_datum(self, base):
        return Point(base, base.generator("t1"), base.generator("t2"))

    def validate(self, datum):
        R, x, y = datum.base, datum.x, datum.y
        f = R.zero()
        for (i, j), c in self.f.items():
            term = R.one()
            for factor in [x] * i + [y] * j:
                term = term * factor
            f = f + term.scale(c)
        return Defect([x * y - y * x, f])

    def obstruction_class(self, defect, surj):
        return Class(defect.parts)


SINGULAR_CURVES = {
    "cusp": {(0, 2): 1, (3, 0): -1},
    "node": {(0, 2): 1, (2, 0): -1, (3, 0): -1},
    "y2_x5": {(0, 2): 1, (5, 0): -1},
}


@pytest.mark.parametrize("f", SINGULAR_CURVES.values(), ids=SINGULAR_CURVES)
def test_the_relations_generate_the_hull_of_a_point(f):
    # the hull of the point is the completed local ring: its graded pieces
    # have the Hilbert-Samuel dims 1, 2, 2, ... of a double point, and the
    # reported relations, one refined f_alpha per obstruction coordinate,
    # cut out exactly the hull in the free algebra cut at I^order
    for order in range(3, 7):
        result = hull(PointModule(f), order)
        H = result.hull
        assert H.radical_dims_by_order() == [1, 2, 2, 2, 2, 2][:order]
        assert all(H.in_ideal(rel) for rel in result.relations)
        free = H.free
        spanned = quotient(free, [free.element(rel.coeffs) for rel in result.relations])
        assert spanned.qbasis == H.qbasis


def test_the_cusp_reports_its_refined_relation_once():
    # the order-3 row t2^2 is refined at order 4 to t1^3 - t2^2, which
    # replaces it and is not a new relation
    result = hull(PointModule(SINGULAR_CURVES["cusp"]), 6)
    assert result.relation_strings() == ["t1*t2 - t2*t1", "-t2*t2 + t1*t1*t1"]
    assert result.new_relations_by_order == {3: ["t1*t2 - t2*t1", "t2*t2"],
                                             4: [], 5: [], 6: []}


@pytest.mark.parametrize("r", [1, 2, 3])
def test_an_unobstructed_problem_has_the_free_hull(r):
    result = hull(Unobstructed(r), 5)
    assert result.hull.radical_dims_by_order() == [1, r, r**2, r**3, r**4]
    assert result.relations == []
    assert result.new_relations_by_order == {3: [], 4: [], 5: []}
    assert result.cup_table == {(l, m): [0] for l in range(1, r + 1)
                                for m in range(1, r + 1)}


@pytest.mark.parametrize("order", [2, 3, 6])
def test_each_step_validates_twice_and_obstructs_once(order):
    # the first-order certificate, then per step the naive lift's defect and
    # the corrected lift's zero-defect certificate; one class per step
    problem = Counting(2)
    hull(problem, order)
    assert problem.validated == 1 + 2 * (order - 2)
    assert problem.obstructed == order - 2
