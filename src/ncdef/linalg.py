"""Exact linear algebra over the rationals, in cost proportional to nonzeros.

Every cohomology and obstruction computation in this package reduces to
row reduction of a DenseMatrix with Fraction entries. Elimination itself
runs fraction-free on integer-scaled rows (``_rref_int``); growing
subspaces, as in greedy complement selection, are echelonized one vector
at a time by ``SubspaceReducer``.

A DenseMatrix stores every entry, but its products read only the nonzero
ones: ``@`` and ``apply`` take the nonzero ``(index, entry)`` pairs of each
row of the right factor once and accumulate over the nonzero entries of
the left one. The one sparse format is a dict ``{index: Fraction}`` holding
the nonzero entries of a vector; ``SubspaceReducer`` keeps its rows in it
and accepts it as input, so callers with sparse data (the matric quotients
over free algebras of a few hundred words) never build dense vectors.

A matrix is immutable, so its eliminations are cached on it: ``rref``
keeps the reduced form, and ``solve`` factors the matrix once (the RREF of
``[m | I]``, i.e. the pivots and the left transform E with E @ m = rref(m))
and answers every later right-hand side with a sparse product E @ b. RREF
is unique, so the solution is the same whichever way it is computed.

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
from math import gcd, lcm

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

    __slots__ = ("rows", "cols", "entries", "_rref", "_factor", "_nonzeros")

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
        self._rref = None
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


def _integer_row(row) -> tuple[int, list[int]]:
    """(d, d * row) with d the least common denominator of the entries."""
    d = 1
    for e in row:
        if e:
            d = lcm(d, e.denominator)
    return d, [e.numerator * (d // e.denominator) for e in row]


def _row_content(row) -> int:
    g = 0
    for e in row:
        if e:
            g = gcd(g, e if e >= 0 else -e)
            if g == 1:
                return 1
    return g


def _rref_int(rows, ncols) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination on integer rows.

    Takes a list of integer rows (each of length ``ncols``), eliminates on
    a copy, and returns ``(reduced_rows, pivots)``. Pivot selection is the
    largest |entry| in the current column (ties: lowest row). Each returned
    pivot row is divided by its content and sign-fixed so the pivot entry
    is positive; entries above and below every pivot are zero. The caller
    rescales rows to leading coefficient 1 over Q.
    """
    work = [list(r) for r in rows]
    nrows = len(work)
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        best = -1
        best_abs = 0
        for k in range(r, nrows):
            e = work[k][c]
            if e:
                a = e if e >= 0 else -e
                if a > best_abs:
                    best_abs = a
                    best = k
        if best < 0:
            continue
        if best != r:
            work[r], work[best] = work[best], work[r]
        piv_row = work[r]
        p = piv_row[c]
        for k in range(nrows):
            if k == r:
                continue
            e = work[k][c]
            if e:
                row_k = work[k]
                for j in range(ncols):
                    b = piv_row[j]
                    a = row_k[j]
                    if b:
                        row_k[j] = p * a - e * b if a else -e * b
                    elif a:
                        row_k[j] = p * a
                g = _row_content(row_k)
                if g > 1:
                    for j in range(ncols):
                        row_k[j] //= g
        pivots.append(c)
        r += 1
    out = []
    for i, c in enumerate(pivots):
        row = work[i]
        g = _row_content(row)
        if row[c] < 0:
            g = -g
        if g != 1 and g != 0:
            row = [e // g for e in row]
        out.append(row)
    return out, pivots


def rref(m: DenseMatrix) -> tuple[DenseMatrix, list[int]]:
    """Reduced row-echelon form and the (strictly increasing) pivot columns.

    Row scaling to integers preserves the row space, so the RREF computed
    fraction-free agrees with the RREF over Q.
    """
    if m._rref is not None:
        return m._rref
    int_rows, pivots = _rref_int(
        [_integer_row(m.row(i))[1] for i in range(m.rows)], m.cols
    )
    entries = []
    for row, c in zip(int_rows, pivots):
        p = row[c]
        entries.extend(Fraction(e, p) if e else _ZERO for e in row)
    entries.extend([_ZERO] * ((m.rows - len(pivots)) * m.cols))
    m._rref = (DenseMatrix(m.rows, m.cols, entries), pivots)
    return m._rref


def rank(m: DenseMatrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: DenseMatrix) -> list[list[Fraction]]:
    """Basis of {x : m @ x = 0}, one vector per non-pivot column."""
    r, pivots = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    basis = []
    for j in free:
        v = [_ZERO] * m.cols
        v[j] = _ONE
        for i, pc in enumerate(pivots):
            v[pc] = -r[i, j]
        basis.append(v)
    return basis


def image_basis(m: DenseMatrix) -> list[list[Fraction]]:
    """Columns of m at the pivot indices: a basis of the column space."""
    _, pivots = rref(m)
    return [m.column(j) for j in pivots]


def cokernel_reps(m: DenseMatrix) -> list[int]:
    """Standard-basis indices spanning a complement of the column space."""
    _, pivots = rref(m.transpose())
    pivot_set = set(pivots)
    return [i for i in range(m.rows) if i not in pivot_set]


class _Factorization:
    """RREF of [m | I] in integer form, ready for repeated solves.

    ``pivots`` are the pivot columns of m, ``heads[i]`` the integer pivot
    entry of row i, and ``columns[k]`` the nonzero (row, value) pairs of
    column k of the integer left transform. Row i of E is row i of that
    transform divided by ``heads[i]`` for i < rank; the rows from the rank
    on span the left null space of m and decide feasibility.
    """

    __slots__ = ("pivots", "heads", "columns")

    def __init__(self, m: DenseMatrix):
        aug = []
        for i in range(m.rows):
            d, row = _integer_row(m.row(i))
            unit = [0] * m.rows
            unit[i] = d
            aug.append(row + unit)
        # [m | I] has full row rank, so every row of the result holds a pivot
        int_rows, pivots = _rref_int(aug, m.cols + m.rows)
        rank = sum(1 for c in pivots if c < m.cols)
        self.pivots = pivots[:rank]
        self.heads = [row[c] for row, c in zip(int_rows, self.pivots)]
        self.columns = [[] for _ in range(m.rows)]
        for i, row in enumerate(int_rows):
            for k, e in enumerate(row[m.cols:]):
                if e:
                    self.columns[k].append((i, e))


def solve(m: DenseMatrix, b) -> list[Fraction] | None:
    """One exact solution of m @ x = b, or None if the system is infeasible.

    The solution is the RREF one: free columns zero, pivot columns read off
    the reduced right-hand side. The factorization of m is computed on the
    first solve and reused by every later solve against the same matrix.
    """
    if len(b) != m.rows:
        raise DimensionMismatch("rhs length != rows")
    f = m._factor
    if f is None:
        f = m._factor = _Factorization(m)
    terms = [(k, _as_fraction(e)) for k, e in enumerate(b) if e]
    den = 1
    for _, e in terms:
        den = lcm(den, e.denominator)
    acc = [0] * m.rows
    for k, e in terms:
        v = e.numerator * (den // e.denominator)
        for i, c in f.columns[k]:
            acc[i] += c * v
    rank = len(f.pivots)
    if any(acc[rank:]):
        return None
    x = [_ZERO] * m.cols
    for i, c in enumerate(f.pivots):
        if acc[i]:
            x[c] = Fraction(acc[i], f.heads[i] * den)
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
        v = _sparse(vec)
        rows = self._rows
        # the rows are reduced, so each pivot's coefficient is vec's own entry
        for p in [p for p in v if p in rows]:
            _axpy(v, -v[p], rows[p])
        return v

    def contains(self, vec) -> bool:
        return not self.residual(vec)

    def add(self, vec) -> bool:
        """Insert vec; returns True if it enlarged the subspace."""
        v = self.residual(vec)
        if not v:
            return False
        p = self._first(v)
        inv = v[p]
        if inv != 1:
            v = {j: e / inv for j, e in v.items()}
        for row in self._rows.values():
            c = row.get(p)
            if c:
                _axpy(row, -c, v)
        self._rows[p] = v
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
