"""Exact linear algebra over the rationals, in cost proportional to nonzeros.

Every vector and matrix here is sparse: a row is a ``{index: entry}``
dict of its nonzero entries, and a Matrix is a list of such rows. Products,
sums, transposes and comparisons read and write these rows directly, and
every operation drops the entries that cancel, so no stored row holds a
zero and equal matrices have equal rows. ``Matrix.from_sparse`` takes such
rows as they are, and ``Matrix.from_blocks`` sums signed blocks into them.
Dense views (``row``, ``column``, ``m[i, j]``) are built on demand.

An entry is an exact ``int`` or ``Fraction``. ``exact`` states the rule by
which one enters: an integral value is an int and any other rational a
Fraction, and a float, which stands for its binary approximation, is
refused. Every public entry point reads its entries through it, passing
ints and Fractions as they are without a call per entry. After that,
arithmetic keeps whatever Python's int and Fraction operations return: the
two compare and hash alike, and ints add and multiply without a Fraction's
overhead. They part only under ``/``, where two ints give a float, so
``_quotient`` is the one division: it keeps an int quotient an int and
makes any other one a Fraction.

Every cohomology and obstruction computation in this package reduces to
row reduction, by one of two routines over sparse rows keyed by pivot.

A matrix's rows enter a reduced echelon in turn (Gauss-Jordan): each row
pivots on its first nonzero index, stays 1 there and 0 at every other
row's pivot, so the rows are the matrix's RREF whatever order they came
in. A matrix is immutable, so the echelon is cached on it: ``rref``,
``rank``, ``kernel_basis`` and ``image_basis`` all read it. Forward
elimination with one back-substitution pass at the end gives the same
RREF, but took 300 ms against 208 ms on the 42 normalized differentials
of 21 ``cohomology`` benchmark inputs (seed 711, 2-vCPU x86-64 VM), so
matrices stay on Gauss-Jordan.

``SubspaceReducer`` grows an echelon one vector at a time, as in greedy
complement selection; it accepts sparse dicts or dense vectors. Its rows
pivot on their last index and are forward-only: never edited once
inserted, never back-substituted. A row may carry a tag on negative
indices, the combination of inserted vectors it came from, kept factored
as the insertion produced it and expanded only when read; coordinates are
read off the tags of a residual (``tag_coordinates``). ``solve`` keeps one
such tagged echelon of a matrix's columns, cached on the matrix.

>>> m = Matrix.from_rows([[1, 2], [2, 4]])
>>> r, pivots = rref(m)
>>> r.row(0), r.row(1), pivots
((1, 2), (0, 0), [0])
>>> red = SubspaceReducer(3)
>>> red.add({0: 1, 2: 2}), red.add([0, 0, 4]), red.contains({0: 3})
(True, True, True)
>>> red.residual({1: Fraction(1, 2), 2: 1})
{1: Fraction(1, 2)}
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


def exact(x) -> int | Fraction:
    """The exact entry that x stands for: an int when it is integral and a
    Fraction when it is not. An int is returned as it is; a str or any other
    rational is read by ``Fraction``. A float raises TypeError, as it stands
    for its binary approximation (0.1 is 3602879701896397/36028797018963968).

    >>> exact(Fraction(6, 3)), exact("-3/4")
    (2, Fraction(-3, 4))
    """
    if x.__class__ is int:
        return x
    if x.__class__ is not Fraction:
        if isinstance(x, float):
            raise TypeError(f"float entry {x!r}: give an int, a Fraction or a rational string")
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class Matrix:
    """Immutable rows x cols matrix over Q.

    ``sparse[i]`` holds the nonzero entries of row i as ``{col: entry}``,
    each an int or a Fraction; no stored row ever holds a zero, so equal
    matrices have equal rows. The rows are shared, never mutated: code that
    edits one edits a copy.
    """

    __slots__ = ("rows", "cols", "sparse", "_echelon", "_column_echelon")

    def __init__(self, rows: int, cols: int, entries):
        """A matrix from its rows * cols entries, row-major."""
        entries = list(entries)
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        self._set(rows, cols, [_exact(entries[i * cols:(i + 1) * cols]) for i in range(rows)])

    def _set(self, rows: int, cols: int, sparse: list) -> None:
        self.rows = rows
        self.cols = cols
        self.sparse = sparse
        self._echelon = None
        self._column_echelon = None

    @classmethod
    def from_sparse(cls, rows: int, cols: int, sparse: list) -> Matrix:
        """A matrix on its ``rows`` sparse rows, taken as they are.

        Each row is a ``{col: entry}`` dict, entries ints or Fractions, with
        0 <= col < cols and no zero value: equality compares these rows, so
        a stored zero would make equal matrices differ. The matrix owns the
        rows from then on, and nothing may edit them.
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
        return cls.from_sparse(len(rows), ncols, [_exact(r) for r in rows])

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
        return cls.from_sparse(len(cols), nrows, [_exact(c) for c in cols]).transpose()

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return cls.from_sparse(n, n, [{i: 1} for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> Matrix:
        return cls.from_sparse(rows, cols, [{} for _ in range(rows)])

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        if not 0 <= j < self.cols:
            raise IndexError("matrix column out of range")
        return self.sparse[i].get(j, 0)

    def row(self, i: int) -> tuple:
        """Row i as a dense tuple."""
        dense = [0] * self.cols
        for j, e in self.sparse[i].items():
            dense[j] = e
        return tuple(dense)

    def column(self, j: int) -> list:
        """Column j as a dense list."""
        return [r.get(j, 0) for r in self.sparse]

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
        return self._combine(other, 1, "addition")

    def __sub__(self, other: Matrix) -> Matrix:
        return self._combine(other, -1, "subtraction")

    def scale(self, c) -> Matrix:
        c = exact(c)
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
            s = 0
            for k, a in r.items():
                x = vec[k]
                if x:
                    s += a * x
            out.append(s)
        return out

    def is_zero(self) -> bool:
        return not any(self.sparse)


def _echelon(m: Matrix) -> dict[int, dict[int, Fraction]]:
    """The reduced echelon of m's rows as pivot -> sparse row, cached on m."""
    if m._echelon is None:
        rows: dict[int, dict[int, Fraction]] = {}
        for row in m.sparse:
            # _insert edits the row it is given, and m's rows never change
            _insert(rows, dict(row))
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
    basis = {j: [0] * m.cols for j in range(m.cols) if j not in rows}
    for j, v in basis.items():
        v[j] = 1
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


def solve(m: Matrix, b) -> list[Fraction] | None:
    """One exact solution of m @ x = b, or None if the system is infeasible.

    On the first solve against m its columns enter one ``SubspaceReducer``
    in turn, column j tagged -1 - j; a column is kept exactly when it is
    independent of the earlier ones, which are the pivot columns of
    rref(m), and the echelon is cached on m. The residual of b against it
    is free of indices >= 0 exactly when b lies in the column space, and
    then holds -x[j] at -1 - j: the unique solution in the kept columns,
    the others zero, which is the RREF solution.

    >>> solve(Matrix.from_rows([[1, 2, 1], [2, 4, 0]]), [3, 2])
    [Fraction(1, 1), 0, Fraction(2, 1)]
    >>> solve(Matrix.from_rows([[1, 2], [2, 4]]), [1, 0]) is None
    True
    """
    if len(b) != m.rows:
        raise DimensionMismatch("rhs length != rows")
    columns = m._column_echelon
    if columns is None:
        columns = m._column_echelon = SubspaceReducer(m.rows)
        # through _add, so that SubspaceReducer.add counts only the
        # incremental callers' insertions
        for j, col in enumerate(m.transpose().sparse):
            columns._add(col, {-1 - j: 1})
    return tag_coordinates(columns.residual(b), m.cols)


def tag_coordinates(residual: dict, n: int) -> list[Fraction] | None:
    """The coefficients x of a vector b in n vectors inserted with the tags
    -1 - j, read off b's residual against their echelon: x[j] is minus its
    entry at -1 - j. None when the residual keeps an index >= 0, that is,
    when b is not in their span."""
    x = [0] * n
    for k, c in residual.items():
        if k >= 0:
            return None
        x[-1 - k] = -c
    return x


class SubspaceReducer:
    """Incremental membership oracle for a growing subspace of Q^n.

    A forward-only echelon: each row pivots on its largest index, is 1
    there and holds nothing above it, and is never edited once inserted,
    so an insertion reduces only the new vector, largest pivot first, and
    never goes back over the rows. ``residual`` reduces a vector the same
    way; ``add`` inserts an independent vector; both take a dict or a
    dense vector. The residual is zero at every pivot, so it is unique
    whatever the rows, and the unit vectors at the small indices without
    a pivot span a canonical complement of the subspace. Used for greedy
    complement selection, span comparisons and tagged coordinates.

    A row's tag (see ``add``) is kept in the factored form its insertion
    produced: its own tag, the coefficients with which the reduction
    subtracted earlier rows, and its pivot entry. It is expanded the first
    time a residual reaches the row or ``rows`` lists it, and cached; the
    vector parts never need it, so ``contains`` reads no tag.

    ``rows`` lists the rows in insertion order, as fresh dicts; they are
    not reduced, since a row is not cleared at the pivots of later rows.
    """

    def __init__(self, dim: int):
        self.dim = dim
        # pivot -> the row's entries below its pivot, in insertion order
        self._tails: dict[int, dict[int, Fraction]] = {}
        # pivot -> the row's tag, for the rows with one: (own tag, earlier
        # pivot -> the coefficient its reduction subtracted that row with,
        # its pivot entry) until first read, then the expanded dict
        self._tags: dict[int, tuple | dict] = {}

    def copy(self) -> SubspaceReducer:
        """An echelon of the same rows that grows apart from this one. The
        rows are shared, as no row is edited once inserted."""
        other = SubspaceReducer(self.dim)
        other._tails = dict(self._tails)
        other._tags = dict(self._tags)
        return other

    @property
    def rows(self) -> list[dict[int, Fraction]]:
        return [{**tail, p: 1, **self._tag(p)} for p, tail in self._tails.items()]

    @property
    def pivots(self) -> list[int]:
        return list(self._tails)

    @property
    def rank(self) -> int:
        return len(self._tails)

    def residual(self, vec) -> dict[int, Fraction]:
        """The nonzero entries of vec minus its projection on the rows,
        tags and all."""
        v, tag = _split(vec)
        for p, c in _forward(self._tails, v).items():
            if p in self._tags:
                axpy(tag, -c, self._tag(p))
        v.update(tag)
        return v

    def contains(self, vec) -> bool:
        """Whether the vector part of vec lies in the span; tags are not read."""
        v, _tag = _split(vec)
        _forward(self._tails, v)
        return not v

    def add(self, vec, tag=None) -> bool:
        """Insert vec; returns True if it enlarged the subspace.

        A tag is a sparse dict on negative indices that rides along in vec's
        row (vec's own negative indices join it). Rows combine tags as they
        combine vectors: a row whose vector part is sum c_j * v_j holds sum
        c_j * tag_j on the negative indices. Rows pivot on their vector part
        only, and a vector whose vector part reduces to zero is not added.
        The residual of an untagged vector b then holds minus the tag
        combination of its projection b - residual.
        """
        v, own = _split(vec)
        if tag is not None:
            own.update(_exact(tag))
        return self._add(v, own)

    def _add(self, v: dict, tag: dict) -> bool:
        """Insert the fresh vector part v with the tag, both sparse dicts."""
        steps = _forward(self._tails, v)
        if not v:
            return False
        p = max(v)
        e = v.pop(p)
        if e != 1:
            v = {j: _quotient(x, e) for j, x in v.items()}
        self._tails[p] = v
        steps = {q: c for q, c in steps.items() if q in self._tags}
        if tag or steps:
            self._tags[p] = (tag, steps, e)
        return True

    def _tag(self, p: int) -> dict:
        """Row p's tag, expanded on first read and cached (empty for a row
        without one)."""
        tags = self._tags
        if p not in tags:
            return {}
        # a row's tag refers only to earlier rows; the stack keeps the
        # expansion of a long chain of them out of the recursion limit
        stack = [p]
        while stack:
            q = stack[-1]
            factored = tags[q]
            if factored.__class__ is not tuple:
                stack.pop()
                continue
            own, steps, e = factored
            todo = [r for r in steps if tags[r].__class__ is tuple]
            if todo:
                stack += todo
                continue
            stack.pop()
            t = dict(own)
            for r, c in steps.items():
                axpy(t, -c, tags[r])
            tags[q] = t if e == 1 else {j: _quotient(x, e) for j, x in t.items()}
        return tags[p]


def _exact(vec) -> dict:
    """A fresh ``{index: entry}`` dict of the nonzero entries of a dict or
    dense vector, each read through ``exact``: the input path of matrices
    and echelons."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    # the class test passes ints and Fractions without a call per entry;
    # any other entry is read before the zero test, so "0" is dropped and
    # 0.0 refused
    return {k: f for k, e in items
            if (f := e if e.__class__ is int or e.__class__ is Fraction else exact(e))}


def _split(vec) -> tuple[dict, dict]:
    """Fresh sparse dicts of vec's vector part (indices >= 0) and tag."""
    v = _exact(vec)
    tag = {k: e for k, e in v.items() if k < 0}
    for k in tag:
        del v[k]
    return v, tag


def _forward(tails: dict, v: dict) -> dict[int, Fraction]:
    """Subtract from v, in place, its projection on forward rows (pivot ->
    entries below the pivot): the largest pivot first, as a row reaches
    only below its own pivot, so each row is subtracted at most once.
    Returns pivot -> the coefficient of each row it subtracted."""
    heap = [-j for j in v if j in tails]
    steps = {}
    if not heap:
        return steps
    heapify(heap)
    while heap:
        p = -heappop(heap)
        c = v.pop(p, None)
        if c is None:
            # a duplicate, or an entry that cancelled
            continue
        steps[p] = c
        for j, r in tails[p].items():
            s = v.get(j)
            if s is None:
                v[j] = -c * r
                if j in tails:
                    heappush(heap, -j)
            else:
                s -= c * r
                if s:
                    v[j] = s
                else:
                    del v[j]
    return steps


def _insert(rows: dict, v: dict) -> bool:
    """Reduce v, in place, against the pivot -> row map of a matrix's
    reduced echelon and add what is left as a row pivoting on its first
    index, clearing that pivot from the other rows. Returns True if a row
    was added."""
    # the rows are reduced, so each pivot's coefficient is v's own entry
    for p in [p for p in v if p in rows]:
        axpy(v, -v[p], rows[p])
    if not v:
        return False
    p = min(v)
    inv = v[p]
    if inv != 1:
        v = {j: _quotient(e, inv) for j, e in v.items()}
    for row in rows.values():
        c = row.get(p)
        if c:
            axpy(row, -c, v)
    rows[p] = v
    return True


def _quotient(x, e):
    """x / e, exact: two ints give an int when e divides x and a Fraction
    otherwise, where ``/`` would give a float; any other pair gives x / e.
    The one division of the echelons."""
    if x.__class__ is int and e.__class__ is int:
        q, r = divmod(x, e)
        return Fraction(x, e) if r else q
    return x / e


def axpy(v: dict, c: Fraction | int, row: dict) -> None:
    """v += c * row on sparse vectors, dropping the entries that cancel.

    The one sparse accumulate: matrices, chart-ring polynomials, base
    elements and A (x) R elements all combine their rows through it. The
    factor c is a nonzero int or Fraction; row keys are any hashable
    indices.

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
