"""Exact linear algebra over the rationals, in cost proportional to nonzeros.

Every vector and matrix here is sparse: a row is a ``{index: Fraction}``
dict of its nonzero entries, and a Matrix is a list of such rows. Products,
sums, transposes and comparisons read and write these rows directly, and
every operation drops the entries that cancel, so no stored row holds a
zero and equal matrices have equal rows. ``Matrix.from_sparse`` takes such
rows as they are, and ``Matrix.from_blocks`` sums signed blocks into them.
Dense views (``row``, ``column``, ``m[i, j]``) are built on demand.

Every cohomology and obstruction computation in this package reduces to
row reduction. There is one elimination: a reduced echelon of sparse rows,
keyed by pivot, that reduces each vector as it is inserted. A matrix's rows
are inserted in turn; ``SubspaceReducer`` grows one echelon a vector at a
time, as in greedy complement selection, and accepts sparse dicts or dense
vectors.

Each inserted row pivots on its first nonzero index and stays 1 at its
pivot and 0 at every other row's pivot, so the rows sorted by pivot are the
unique RREF whatever order they were inserted in. A matrix is immutable,
so its eliminations are cached on it: ``rref``, ``rank``, ``kernel_basis``
and ``image_basis`` read one echelon of its rows, and ``solve`` factors the
matrix once (the echelon of ``[m | I]``, which holds the left transform E
with E @ m = rref(m)) and answers every later right-hand side with a
sparse product E @ b.

>>> m = Matrix.from_rows([[1, 2], [2, 4]])
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


class Matrix:
    """Immutable rows x cols matrix over Q.

    ``sparse[i]`` holds the nonzero entries of row i as ``{col: Fraction}``;
    no stored row ever holds a zero, so equal matrices have equal rows.
    The rows are shared, never mutated: code that edits one edits a copy.
    """

    __slots__ = ("rows", "cols", "sparse", "_echelon", "_factor")

    def __init__(self, rows: int, cols: int, entries):
        """A matrix from its rows * cols entries, row-major."""
        entries = list(entries)
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        self._set(rows, cols, [_sparse(entries[i * cols:(i + 1) * cols]) for i in range(rows)])

    def _set(self, rows: int, cols: int, sparse: list) -> None:
        self.rows = rows
        self.cols = cols
        self.sparse = sparse
        self._echelon = None
        self._factor = None

    @classmethod
    def from_sparse(cls, rows: int, cols: int, sparse: list) -> Matrix:
        """A matrix on its ``rows`` sparse rows, taken as they are.

        Each row is a ``{col: Fraction}`` dict with 0 <= col < cols and no
        zero value: equality compares these rows, so a stored zero would
        make equal matrices differ. The matrix owns the rows from then on,
        and nothing may edit them.
        """
        m = cls.__new__(cls)
        m._set(rows, cols, sparse)
        return m

    @classmethod
    def from_blocks(cls, rows: int, cols: int, blocks) -> Matrix:
        """The rows x cols sum of signed blocks: each ``(r0, c0, block, c)``
        adds c * block with its top-left entry at (r0, c0). The factor c is
        a Fraction or an int sign; a sign keeps ``axpy``'s unit test cheap."""
        out = [{} for _ in range(rows)]
        for r0, c0, block, c in blocks:
            for r, row in enumerate(block.sparse, r0):
                axpy(out[r], c, {c0 + j: e for j, e in row.items()})
        return cls.from_sparse(rows, cols, out)

    @classmethod
    def from_rows(cls, rows) -> Matrix:
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
        return cls.from_sparse(len(rows), ncols, [_sparse(r) for r in rows])

    @classmethod
    def from_columns(cls, cols, nrows: int | None = None) -> Matrix:
        cols = [list(c) for c in cols]
        if nrows is None:
            if not cols:
                raise DimensionMismatch("from_columns with no columns needs nrows")
            nrows = len(cols[0])
        for c in cols:
            if len(c) != nrows:
                raise DimensionMismatch("ragged columns")
        return cls.from_sparse(len(cols), nrows, [_sparse(c) for c in cols]).transpose()

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return cls.from_sparse(n, n, [{i: _ONE} for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> Matrix:
        return cls.from_sparse(rows, cols, [{} for _ in range(rows)])

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        if not 0 <= j < self.cols:
            raise IndexError("matrix column out of range")
        return self.sparse[i].get(j, _ZERO)

    def row(self, i: int) -> tuple:
        """Row i as a dense tuple."""
        dense = [_ZERO] * self.cols
        for j, e in self.sparse[i].items():
            dense[j] = e
        return tuple(dense)

    def column(self, j: int) -> list:
        """Column j as a dense list."""
        return [r.get(j, _ZERO) for r in self.sparse]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.sparse == other.sparse
        )

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def transpose(self) -> Matrix:
        out = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.sparse):
            for j, e in r.items():
                out[j][i] = e
        return Matrix.from_sparse(self.cols, self.rows, out)

    def _combine(self, other: Matrix, c: Fraction, what: str) -> Matrix:
        """self + c * other."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(f"matrix {what} shape mismatch")
        out = []
        for a, b in zip(self.sparse, other.sparse):
            v = dict(a)
            axpy(v, c, b)
            out.append(v)
        return Matrix.from_sparse(self.rows, self.cols, out)

    def __add__(self, other: Matrix) -> Matrix:
        return self._combine(other, _ONE, "addition")

    def __sub__(self, other: Matrix) -> Matrix:
        return self._combine(other, -_ONE, "subtraction")

    def scale(self, c) -> Matrix:
        c = _as_fraction(c)
        if not c:
            return Matrix.zero(self.rows, self.cols)
        return Matrix.from_sparse(self.rows, self.cols,
                                  [{j: c * e for j, e in r.items()} for r in self.sparse])

    def __matmul__(self, other: Matrix) -> Matrix:
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        right = other.sparse
        out = []
        for row in self.sparse:
            acc: dict[int, Fraction] = {}
            for k, a in row.items():
                # diagram maps are mostly units: on the cohomology benchmark's
                # inputs 86 % of the products have a factor 1, so skip those
                unit = a == 1
                for j, b in right[k].items():
                    p = b if unit else a if b == 1 else a * b
                    s = acc.get(j)
                    acc[j] = p if s is None else s + p
            out.append({j: s for j, s in acc.items() if s})
        return Matrix.from_sparse(self.rows, other.cols, out)

    def apply(self, vec) -> list:
        """Matrix-vector product, vec of length cols."""
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length != cols")
        out = []
        for r in self.sparse:
            s = _ZERO
            for k, a in r.items():
                x = vec[k]
                if x:
                    s += a * x
            out.append(s)
        return out

    def is_zero(self) -> bool:
        return not any(self.sparse)

    def hstack(self, other: Matrix) -> Matrix:
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        n = self.cols
        out = []
        for a, b in zip(self.sparse, other.sparse):
            v = dict(a)
            for j, e in b.items():
                v[n + j] = e
            out.append(v)
        return Matrix.from_sparse(self.rows, n + other.cols, out)


def _echelon(m: Matrix) -> dict[int, dict[int, Fraction]]:
    """The reduced echelon of m's rows as pivot -> sparse row, cached on m."""
    if m._echelon is None:
        rows: dict[int, dict[int, Fraction]] = {}
        for row in m.sparse:
            # _insert edits the row it is given, and m's rows never change
            _insert(rows, dict(row), min)
        m._echelon = rows
    return m._echelon


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form and the (strictly increasing) pivot columns."""
    rows = _echelon(m)
    pivots = sorted(rows)
    sparse = [rows[p] for p in pivots] + [{} for _ in range(m.rows - len(pivots))]
    return Matrix.from_sparse(m.rows, m.cols, sparse), pivots


def rank(m: Matrix) -> int:
    return len(_echelon(m))


def kernel_basis(m: Matrix) -> list[list[Fraction]]:
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


def image_basis(m: Matrix) -> list[list[Fraction]]:
    """Columns of m at the pivot indices: a basis of the column space."""
    return [m.column(j) for j in sorted(_echelon(m))]


def cokernel_reps(m: Matrix) -> list[int]:
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

    def __init__(self, m: Matrix):
        n = m.cols
        rows: dict[int, dict[int, Fraction]] = {}
        for i, row in enumerate(m.sparse):
            v = dict(row)
            v[n + i] = _ONE
            _insert(rows, v, min)
        self.columns = [[] for _ in range(m.rows)]
        for p, row in rows.items():
            for j, e in row.items():
                if j >= n:
                    self.columns[j - n].append((p, e))


def solve(m: Matrix, b) -> list[Fraction] | None:
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
    # the exact class test passes Fractions through without a call per entry;
    # other entries are converted before the zero test, so "0" is dropped too
    return {k: f for k, e in items
            if e and (f := e if e.__class__ is Fraction else Fraction(e))}


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
        axpy(v, -v[p], rows[p])
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
            axpy(row, -c, v)
    rows[p] = v
    return True


def axpy(v: dict, c: Fraction | int, row: dict) -> None:
    """v += c * row on sparse vectors, dropping the entries that cancel.

    The one sparse accumulate: matrices, chart-ring polynomials, base
    elements and A (x) R elements all combine their rows through it. The
    factor c is a nonzero Fraction or an int sign; row keys are any
    hashable indices.

    >>> v = {0: Fraction(1)}
    >>> axpy(v, Fraction(-1, 2), {0: Fraction(2), 1: Fraction(1)})
    >>> v
    {1: Fraction(-1, 2)}
    """
    # c is 1 or -1 for 83 % of the entries on the cohomology benchmark's
    # inputs (signed blocks, unit pivots), 15 % on the pipeline's: then add
    # or subtract the row without products, testing c once per call; a row
    # entry 1 (tabled normal forms and word products) skips the product too
    sub = c == -1
    scale = not sub and c != 1
    for j, r in row.items():
        if scale:
            r = c if r == 1 else c * r
        s = v.get(j)
        if s is None:
            v[j] = -r if sub else r
        else:
            s = s - r if sub else s + r
            if s:
                v[j] = s
            else:
                del v[j]


def format_terms(terms) -> str:
    """A signed sum of terms, from (label, coefficient) pairs in print
    order. A label "1" prints as the bare coefficient, and no terms print
    as 0.

    >>> format_terms([("x", Fraction(-2)), ("y", Fraction(1)), ("1", Fraction(3, 2))])
    '-2*x + y + 3/2'
    >>> format_terms([])
    '0'
    """
    parts = []
    for label, c in terms:
        if label == "1":
            body = str(abs(c))
        elif abs(c) == 1:
            body = label
        else:
            body = f"{abs(c)}*{label}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"
