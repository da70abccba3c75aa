"""Exact linear algebra over the rationals, in cost proportional to nonzeros.

Every cohomology and obstruction computation in this package reduces to
row reduction of a DenseMatrix with Fraction entries. There is one
elimination: a reduced echelon of sparse ``{index: Fraction}`` rows, keyed
by pivot, that reduces each vector as it is inserted. A matrix's rows are
inserted in turn; ``SubspaceReducer`` grows one echelon a vector at a time,
as in greedy complement selection.

A DenseMatrix stores every entry, but its products read only the nonzero
ones: ``@`` and ``apply`` take the nonzero ``(index, entry)`` pairs of each
row of the right factor once and accumulate over the nonzero entries of
the left one. ``SubspaceReducer`` accepts the sparse dicts as input, so
callers with sparse data (the matric quotients over free algebras of a few
hundred words) never build dense vectors.

Each inserted row pivots on its first nonzero index and stays 1 at its
pivot and 0 at every other row's pivot, so the rows sorted by pivot are the
unique RREF whatever order they were inserted in. A matrix is immutable,
so its eliminations are cached on it: ``rref``, ``rank``, ``kernel_basis``
and ``image_basis`` read one echelon of its rows, and ``solve`` factors the
matrix once (the echelon of ``[m | I]``, which holds the left transform E
with E @ m = rref(m)) and answers every later right-hand side with a
sparse product E @ b.

>>> m = DenseMatrix.from_rows([[1, 2], [2, 4]])
>>> r, pivots = rref(m)
>>> r.row(0), r.row(1), pivots
((Fraction(1, 1), Fraction(2, 1)), (Fraction(0, 1), Fraction(0, 1)), [0])
>>> red = SubspaceReducer(3)
>>> red.add({0: 1, 2: 2}), red.add([0, 0, 4]), red.contains({0: 3})
(True, True, True)
>>> red.residual({1: Fraction(1, 2), 2: 1})
{1: Fraction(1, 2)}
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class DenseMatrix:
    """Immutable rows x cols grid of Fractions."""

    __slots__ = ("rows", "cols", "entries", "_echelon", "_factor", "_nonzeros")

    def __init__(self, rows: int, cols: int, entries):
        # the exact class test passes the Fractions of internal callers
        # through without a call per entry
        entries = tuple(e if e.__class__ is Fraction else Fraction(e) for e in entries)
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self._echelon = None
        self._factor = None
        self._nonzeros = None

    @classmethod
    def from_rows(cls, rows) -> DenseMatrix:
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
        return cls(len(rows), ncols, [e for r in rows for e in r])

    @classmethod
    def from_columns(cls, cols, nrows: int | None = None) -> DenseMatrix:
        cols = [list(c) for c in cols]
        if nrows is None:
            if not cols:
                raise DimensionMismatch("from_columns with no columns needs nrows")
            nrows = len(cols[0])
        for c in cols:
            if len(c) != nrows:
                raise DimensionMismatch("ragged columns")
        return cls(nrows, len(cols), [cols[j][i] for i in range(nrows) for j in range(len(cols))])

    @classmethod
    def identity(cls, n: int) -> DenseMatrix:
        return cls(n, n, [_ONE if i == j else _ZERO for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> DenseMatrix:
        return cls(rows, cols, [_ZERO] * (rows * cols))

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> list:
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DenseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"DenseMatrix({self.rows}x{self.cols}: {body})"

    def transpose(self) -> DenseMatrix:
        return DenseMatrix(
            self.cols,
            self.rows,
            [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    def __add__(self, other: DenseMatrix) -> DenseMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return DenseMatrix(self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: DenseMatrix) -> DenseMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix subtraction shape mismatch")
        return DenseMatrix(self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)])

    def scale(self, c) -> DenseMatrix:
        c = _as_fraction(c)
        return DenseMatrix(self.rows, self.cols, [c * e for e in self.entries])

    def _sparse_rows(self) -> list[list[tuple[int, Fraction]]]:
        """The nonzero (column, entry) pairs of each row, read once."""
        if self._nonzeros is None:
            n, e = self.cols, self.entries
            self._nonzeros = [[(j, b) for j, b in enumerate(e[k * n:(k + 1) * n]) if b]
                              for k in range(self.rows)]
        return self._nonzeros

    def __matmul__(self, other: DenseMatrix) -> DenseMatrix:
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        right = other._sparse_rows()
        out = []
        for i in range(self.rows):
            acc = [_ZERO] * other.cols
            for k, a in enumerate(self.row(i)):
                if a:
                    for j, b in right[k]:
                        acc[j] += a * b
            out.extend(acc)
        return DenseMatrix(self.rows, other.cols, out)

    def apply(self, vec) -> list:
        """Matrix-vector product, vec of length cols."""
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length != cols")
        terms = [(k, x) for k, x in enumerate(vec) if x]
        n, e = self.cols, self.entries
        out = []
        for i in range(self.rows):
            base = i * n
            s = _ZERO
            for k, x in terms:
                a = e[base + k]
                if a:
                    s += a * x
            out.append(s)
        return out

    def is_zero(self) -> bool:
        return not any(self.entries)

    def hstack(self, other: DenseMatrix) -> DenseMatrix:
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        entries = []
        for i in range(self.rows):
            entries.extend(self.row(i))
            entries.extend(other.row(i))
        return DenseMatrix(self.rows, self.cols + other.cols, entries)


def _echelon(m: DenseMatrix) -> dict[int, dict[int, Fraction]]:
    """The reduced echelon of m's rows as pivot -> sparse row, cached on m."""
    if m._echelon is None:
        rows: dict[int, dict[int, Fraction]] = {}
        for row in m._sparse_rows():
            _insert(rows, dict(row), min)
        m._echelon = rows
    return m._echelon


def rref(m: DenseMatrix) -> tuple[DenseMatrix, list[int]]:
    """Reduced row-echelon form and the (strictly increasing) pivot columns."""
    rows = _echelon(m)
    pivots = sorted(rows)
    entries = []
    for p in pivots:
        dense = [_ZERO] * m.cols
        for j, e in rows[p].items():
            dense[j] = e
        entries.extend(dense)
    entries.extend([_ZERO] * ((m.rows - len(pivots)) * m.cols))
    return DenseMatrix(m.rows, m.cols, entries), pivots


def rank(m: DenseMatrix) -> int:
    return len(_echelon(m))


def kernel_basis(m: DenseMatrix) -> list[list[Fraction]]:
    """Basis of {x : m @ x = 0}, one vector per non-pivot column."""
    rows = _echelon(m)
    basis = {j: [_ZERO] * m.cols for j in range(m.cols) if j not in rows}
    for j, v in basis.items():
        v[j] = _ONE
    for p, row in rows.items():
        for j, e in row.items():
            if j != p:
                basis[j][p] = -e
    return list(basis.values())


def image_basis(m: DenseMatrix) -> list[list[Fraction]]:
    """Columns of m at the pivot indices: a basis of the column space."""
    return [m.column(j) for j in sorted(_echelon(m))]


def cokernel_reps(m: DenseMatrix) -> list[int]:
    """Standard-basis indices spanning a complement of the column space."""
    pivots = _echelon(m.transpose())
    return [i for i in range(m.rows) if i not in pivots]


class _Factorization:
    """The reduced echelon of [m | I], ready for repeated solves.

    ``columns[k]`` holds the nonzero (pivot, entry) pairs of column k of
    the left transform E, with E @ m = rref(m). [m | I] has full row rank,
    so every row pivots: a pivot below m.cols marks a row of rref(m), one
    from m.cols on a row of E spanning the left null space of m, which
    decides feasibility.
    """

    __slots__ = ("columns",)

    def __init__(self, m: DenseMatrix):
        n = m.cols
        rows: dict[int, dict[int, Fraction]] = {}
        for i, row in enumerate(m._sparse_rows()):
            v = dict(row)
            v[n + i] = _ONE
            _insert(rows, v, min)
        self.columns = [[] for _ in range(m.rows)]
        for p, row in rows.items():
            for j, e in row.items():
                if j >= n:
                    self.columns[j - n].append((p, e))


def solve(m: DenseMatrix, b) -> list[Fraction] | None:
    """One exact solution of m @ x = b, or None if the system is infeasible.

    The solution is the RREF one: free columns zero, pivot columns read off
    the reduced right-hand side E @ b. The factorization of m is computed
    on the first solve and reused by every later solve against the same
    matrix.
    """
    if len(b) != m.rows:
        raise DimensionMismatch("rhs length != rows")
    f = m._factor
    if f is None:
        f = m._factor = _Factorization(m)
    acc: dict[int, Fraction] = {}
    for k, e in enumerate(b):
        if e:
            e = _as_fraction(e)
            for p, c in f.columns[k]:
                acc[p] = acc.get(p, _ZERO) + c * e
    x = [_ZERO] * m.cols
    for p, s in acc.items():
        if s:
            if p >= m.cols:
                return None
            x[p] = s
    return x


def _sparse(vec) -> dict[int, Fraction]:
    """A fresh ``{index: Fraction}`` dict of the nonzero entries of a dict
    or dense vector."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    return {k: e if e.__class__ is Fraction else Fraction(e) for k, e in items if e}


class SubspaceReducer:
    """Incremental membership oracle for a growing subspace of Q^n.

    Maintains a reduced echelon basis: ``rows`` are sparse
    ``{index: Fraction}`` dicts, each 1 at its pivot and 0 at every other
    row's pivot. ``residual`` reduces a vector against them, ``add``
    inserts an independent vector; both take a dict or a dense vector. A
    new row pivots on its first nonzero index, scanning from 0 up, or from
    dim - 1 down with ``descending=True``. The unit vectors at the indices
    without a pivot span a canonical complement of the subspace: the large
    indices, or with ``descending=True`` the small ones. Used for greedy
    complement selection and span comparisons.
    """

    def __init__(self, dim: int, descending: bool = False):
        self.dim = dim
        # pivot -> row, in the order the rows were added
        self._rows: dict[int, dict[int, Fraction]] = {}
        self._first = max if descending else min

    @property
    def rows(self) -> list[dict[int, Fraction]]:
        return list(self._rows.values())

    @property
    def pivots(self) -> list[int]:
        return list(self._rows)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def residual(self, vec) -> dict[int, Fraction]:
        """The nonzero entries of vec minus its projection on the rows."""
        return _reduce(self._rows, _sparse(vec))

    def contains(self, vec) -> bool:
        return not self.residual(vec)

    def add(self, vec) -> bool:
        """Insert vec; returns True if it enlarged the subspace."""
        return _insert(self._rows, _sparse(vec), self._first)


def _reduce(rows: dict, v: dict) -> dict:
    """Subtract from v, in place, its projection on the reduced rows."""
    # the rows are reduced, so each pivot's coefficient is v's own entry
    for p in [p for p in v if p in rows]:
        _axpy(v, -v[p], rows[p])
    return v


def _insert(rows: dict, v: dict, first) -> bool:
    """Reduce v against the pivot -> row map and add what is left as a row
    pivoting on ``first(v)``, clearing that pivot from the other rows.
    Returns True if a row was added. Every elimination goes through here;
    the matrix ones call it directly, so ``SubspaceReducer.add`` is entered
    only by incremental callers."""
    _reduce(rows, v)
    if not v:
        return False
    p = first(v)
    inv = v[p]
    if inv != 1:
        v = {j: e / inv for j, e in v.items()}
    for row in rows.values():
        c = row.get(p)
        if c:
            _axpy(row, -c, v)
    rows[p] = v
    return True


def _axpy(v: dict, c: Fraction, row: dict) -> None:
    """v += c * row on sparse vectors, dropping the entries that cancel."""
    for j, r in row.items():
        s = v.get(j)
        if s is None:
            v[j] = c * r
        else:
            s += c * r
            if s:
                v[j] = s
            else:
                del v[j]
