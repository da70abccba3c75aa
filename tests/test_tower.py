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


class Class:
    """A class with one obstruction basis vector, and its kernel row."""

    def __init__(self, row, witness):
        self.row = row
        self.witness = witness

    def is_zero(self):
        return self.row.is_zero()

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


class NeverUnobstructed(Unobstructed):
    """The class is the first kernel vector of every small surjection, so it
    survives any enlargement of the ideal."""

    def obstruction_class(self, defect, surj):
        return Class(surj.kernel_basis[0], None)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_an_unobstructed_problem_has_the_free_hull(r):
    result = hull(Unobstructed(r), 5)
    assert result.hull.radical_dims_by_order() == [1, r, r**2, r**3, r**4]
    assert result.relations == []
    assert result.new_relations_by_order == {3: [], 4: [], 5: []}
    assert result.cup_table == {(l, m): [0] for l in range(1, r + 1)
                                for m in range(1, r + 1)}


def test_an_obstruction_that_survives_the_relations_raises():
    with pytest.raises(NoLiftPossible, match=re.escape(
            "obstruction did not vanish after enlarging the ideal at order 3")):
        hull(NeverUnobstructed(2), 4)
