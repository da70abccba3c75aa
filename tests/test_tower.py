"""The lifting tower against fake deformation problems.

Each fake offers only the interface ``tower.hull`` documents, so any other
call fails. An unobstructed problem, as on a hereditary category, has the
free hull: the completed free algebra on its tangent directions.
"""

import re
from types import SimpleNamespace

import pytest

from ncdef.matric import MatricElement
from ncdef.tower import NoLiftPossible, hull


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
    """A class with one obstruction basis vector, and its kernel row."""

    def __init__(self, row, witness):
        self.row = row
        self.witness = witness

    def rows(self):
        return [self.row]

    def relation_elements(self):
        return [] if self.row.is_zero() else [self.row]


class Unobstructed:
    """Every defect and every obstruction class vanishes."""

    def __init__(self, r):
        self.tangent_dim = r

    def first_order_datum(self, base):
        return Datum()

    def validate(self, datum):
        return Zero()

    def obstruction_class(self, defect, surj):
        return Class(MatricElement(surj.source, {}), SimpleNamespace(E={}, W={}))


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


class RowWithoutRelation(Class):
    """A class whose row never reaches the tower as a relation."""

    def relation_elements(self):
        return []


class RelationDropped(Unobstructed):
    """The class is the first kernel vector of every small surjection, but
    its relation is dropped, so the enlarged ideal does not kill it."""

    def obstruction_class(self, defect, surj):
        return RowWithoutRelation(surj.kernel_basis[0], SimpleNamespace(E={}, W={}))


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


def test_an_obstruction_that_survives_the_relations_raises():
    with pytest.raises(NoLiftPossible, match=re.escape(
            "obstruction did not vanish after enlarging the ideal at order 3")):
        hull(RelationDropped(2), 4)
