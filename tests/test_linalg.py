import random
from fractions import Fraction

import pytest

from ncdef.linalg import (
    DimensionMismatch,
    Matrix,
    SubspaceReducer,
    cokernel_reps,
    image_basis,
    kernel_basis,
    rank,
    rref,
    solve,
)


def test_rref_identity():
    m = Matrix.identity(3)
    r, pivots = rref(m)
    assert r == m
    assert pivots == [0, 1, 2]


def test_rref_zero():
    m = Matrix.zero(2, 3)
    r, pivots = rref(m)
    assert r == m
    assert pivots == []


def test_rref_rank_one():
    # hand Gaussian elimination: R2 -> R2 - 2*R1 kills the second row
    m = Matrix.from_rows([[1, 2], [2, 4]])
    r, pivots = rref(m)
    assert r == Matrix.from_rows([[1, 2], [0, 0]])
    assert pivots == [0]


def test_rref_pivot_list_strictly_increasing():
    m = Matrix.from_rows([[0, 1, 3], [0, 2, 7], [0, 0, 1]])
    _, pivots = rref(m)
    assert pivots == sorted(set(pivots))


def test_kernel_cokernel_identity():
    m = Matrix.identity(4)
    assert kernel_basis(m) == []
    assert cokernel_reps(m) == []


def test_solve_zero_matrix_zero_rhs():
    m = Matrix.zero(2, 2)
    assert solve(m, [0, 0]) == [0, 0]
    assert solve(m, [1, 0]) is None


def test_cokernel_of_column_embedding():
    # the map k -> k^2, 1 |-> (1, 2), has rank 1, so exactly one complement index
    m = Matrix.from_rows([[1], [2]])
    reps = cokernel_reps(m)
    assert len(reps) == 1


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        Matrix(2, 2, [1, 2, 3])
    with pytest.raises(DimensionMismatch):
        solve(Matrix.identity(2), [1, 2, 3])
    with pytest.raises(DimensionMismatch):
        Matrix.identity(2) @ Matrix.identity(3)
    with pytest.raises(DimensionMismatch):
        Matrix.identity(2).apply([1, 2, 3])


def test_entries_of_any_rational_type_become_fractions():
    m = Matrix(2, 2, [1, "3/4", Fraction(-2, 6), "0"])
    assert [m.row(0), m.row(1)] == [(Fraction(1), Fraction(3, 4)), (Fraction(-1, 3), Fraction(0))]
    assert all(type(e) is Fraction for i in range(2) for e in m.row(i))
    # the zero given as "0" is not stored
    assert m.sparse == [{0: Fraction(1), 1: Fraction(3, 4)}, {0: Fraction(-1, 3)}]
    assert m == Matrix.from_rows([[Fraction(1), Fraction(3, 4)], [Fraction(-1, 3), 0]])


def _random_matrix(rng, rows, cols, zeros=0.35):
    entries = []
    for _ in range(rows * cols):
        if rng.random() < zeros:
            entries.append(Fraction(0))
        else:
            entries.append(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    return Matrix(rows, cols, entries)


# --- products ------------------------------------------------------------------


def _shaped_matrix(rng, rows, cols, kind):
    if kind == "zero":
        return Matrix.zero(rows, cols)
    if kind == "dense":
        return Matrix(rows, cols, [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                            rng.randint(1, 4))
                                   for _ in range(rows * cols)])
    return _random_matrix(rng, rows, cols)


def test_products_match_a_triple_loop_on_seeded_matrices():
    rng = random.Random(20261018)
    shapes = set()
    for _ in range(300):
        n, k, m = (rng.randint(0, 5) for _ in range(3))
        a = _shaped_matrix(rng, n, k, rng.choice(["zero", "dense", "sparse"]))
        b = _shaped_matrix(rng, k, m, rng.choice(["zero", "dense", "sparse"]))
        want = [sum((a[i, t] * b[t, j] for t in range(k)), Fraction(0))
                for i in range(n) for j in range(m)]
        prod = a @ b
        assert (prod.rows, prod.cols) == (n, m)
        assert [e for i in range(n) for e in prod.row(i)] == want
        assert a @ b == prod
        vec = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)]
        assert a.apply(vec) == [sum((a[i, t] * vec[t] for t in range(k)), Fraction(0))
                                for i in range(n)]
        assert a.apply([0] * k) == [0] * n
        shapes.add((n == 0, k == 0, m == 0))
    # 0 x n, n x 0 and empty inner dimensions all occur
    assert {(True, False, False), (False, True, False), (False, False, True)} <= shapes


def _dense(m):
    return (m.rows, m.cols, [m.row(i) for i in range(m.rows)])


def _assert_zero_free(m):
    assert len(m.sparse) == m.rows
    for row in m.sparse:
        for j, e in row.items():
            assert type(e) is Fraction and e != 0 and 0 <= j < m.cols


def test_stored_rows_hold_no_zero_and_equality_reads_the_dense_rows():
    rng = random.Random(20261022)
    shapes = set()
    for _ in range(200):
        n, k, m = (rng.randint(0, 4) for _ in range(3))
        a, b = (_shaped_matrix(rng, n, k, rng.choice(["zero", "dense", "sparse"]))
                for _ in range(2))
        c = _shaped_matrix(rng, k, m, rng.choice(["zero", "dense", "sparse"]))
        same_shape = [a, b, a + b, a - b, (a - b) + b, b + a, a - a, a + a.scale(-1),
                      a.scale(0), a.scale(Fraction(-1, 2)), rref(a)[0]]
        others = [a @ c, (a - a) @ c, a @ (c - c), a.transpose()]
        for x in same_shape + others:
            _assert_zero_free(x)
        assert (a - a).is_zero() and a.scale(0).is_zero() and ((a - a) @ c).is_zero()
        assert (a - b) + b == a and a + b == b + a
        for x in same_shape:
            for y in same_shape:
                assert (x == y) == (_dense(x) == _dense(y))
        shapes.add((n == 0, k == 0))
    assert {(True, False), (False, True), (False, False)} <= shapes


def test_products_that_cancel_store_empty_rows():
    x = Matrix.from_rows([[1, 1], [2, 3]])
    y = Matrix.from_rows([[1, 2], [-1, -2]])
    assert (x @ y).sparse == [{}, {0: Fraction(-1), 1: Fraction(-2)}]
    assert x @ y == Matrix.from_rows([[0, 0], [-1, -2]])


def test_from_blocks_sums_signed_blocks_and_drops_cancelled_entries():
    rng = random.Random(20261023)
    for _ in range(100):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        want = [[Fraction(0)] * cols for _ in range(rows)]
        blocks = []
        for _ in range(rng.randint(0, 5)):
            r0, c0 = rng.randint(0, rows), rng.randint(0, cols)
            block = _shaped_matrix(rng, rng.randint(0, rows - r0), rng.randint(0, cols - c0),
                                   rng.choice(["zero", "dense", "sparse"]))
            sign = rng.choice([1, -1])
            blocks.append((r0, c0, block, sign))
            # the same block again with the other sign cancels it
            if rng.random() < 0.3:
                blocks.append((r0, c0, block, -sign))
                sign = 0
            for i in range(block.rows):
                for j in range(block.cols):
                    want[r0 + i][c0 + j] += sign * block[i, j]
        m = Matrix.from_blocks(rows, cols, blocks)
        _assert_zero_free(m)
        assert _dense(m) == (rows, cols, [tuple(r) for r in want])


def test_rank_nullity_and_solve_roundtrip_200_random_matrices():
    rng = random.Random(20260810)
    for _ in range(200):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        m = _random_matrix(rng, rows, cols)
        ker = kernel_basis(m)
        assert rank(m) + len(ker) == cols
        for v in ker:
            assert all(e == 0 for e in m.apply(v))
        # b in the column span: solve succeeds and reproduces b exactly
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
        b = m.apply(coeffs)
        x = solve(m, b)
        assert x is not None
        assert m.apply(x) == b
        # complement indices + image basis span the target, counts add up
        reps = cokernel_reps(m)
        img = image_basis(m)
        assert len(reps) + len(img) == rows
        red = SubspaceReducer(rows)
        for col in img:
            assert red.add(col)
        for i in reps:
            e = [Fraction(0)] * rows
            e[i] = Fraction(1)
            assert red.add(e)
        assert red.rank == rows


def test_rref_is_idempotent():
    rng = random.Random(11)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        r, pivots = rref(m)
        r2, pivots2 = rref(r)
        assert r2 == r and pivots2 == pivots


# --- solve against the tagged column echelon ------------------------------------


def _reference_rref(rows):
    """Fraction Gauss-Jordan, written independently of ncdef.linalg: the
    reduced rows (zero rows last) and the pivot columns."""
    rows = [[Fraction(e) for e in row] for row in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        k = next((k for k in range(r, len(rows)) if rows[k][c] != 0), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        p = rows[r][c]
        rows[r] = [e / p for e in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c] != 0:
                f = rows[k][c]
                rows[k] = [a - f * e for a, e in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def _reference_solve(m, b):
    """The RREF solution of m @ x = b (free columns zero), or None when
    the system is infeasible."""
    rows, pivots = _reference_rref(
        [list(m.row(i)) + [b[i]] for i in range(m.rows)]
    )
    if pivots and pivots[-1] == m.cols:
        return None
    x = [Fraction(0)] * m.cols
    for i, c in enumerate(pivots):
        x[c] = rows[i][m.cols]
    return x


def _random_system(rng):
    shape = rng.random()
    zeros = 0.35
    if shape < 0.1:
        rows, cols = 0, rng.randint(0, 5)
    elif shape < 0.2:
        rows, cols = rng.randint(1, 5), 0
    elif shape < 0.3:
        # the shapes the pipeline feeds the echelon: operator and
        # differential matrices of a few dozen rows, about 6 % nonzero
        rows, cols, zeros = rng.randint(1, 40), rng.randint(1, 60), 0.94
    else:
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
    m = _random_matrix(rng, rows, cols, zeros)
    if rows > 1 and cols and rng.random() < 0.4:
        # rank-deficient: the last row repeats a multiple of the first
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        m = Matrix.from_rows([m.row(i) for i in range(rows - 1)]
                                  + [[c * e for e in m.row(0)]])
    return m


def test_solve_matches_independent_gauss_jordan_on_200_random_systems():
    rng = random.Random(20261018)
    infeasible = 0
    for _ in range(200):
        m = _random_system(rng)
        rhs = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(m.rows)],
               m.apply([Fraction(rng.randint(-3, 3)) for _ in range(m.cols)]),
               [Fraction(0)] * m.rows]
        for b in rhs:
            expected = _reference_solve(m, b)
            assert solve(m, b) == expected
            infeasible += expected is None
    # the draw includes infeasible right-hand sides
    assert infeasible > 20


def test_rref_matches_independent_gauss_jordan_on_200_random_matrices():
    rng = random.Random(20261019)
    shapes = set()
    for _ in range(200):
        m = _random_system(rng)
        if rng.random() < 0.1:
            m = Matrix.zero(m.rows, m.cols)
        rows, pivots = _reference_rref([list(m.row(i)) for i in range(m.rows)])
        r, got = rref(m)
        assert got == pivots
        assert r == Matrix(m.rows, m.cols, [e for row in rows for e in row])
        shapes.add("0 x n" if not m.rows else "n x 0" if not m.cols
                   else "zero" if not pivots else
                   "deficient" if len(pivots) < min(m.rows, m.cols) else "full")
    assert shapes == {"0 x n", "n x 0", "zero", "deficient", "full"}


def test_many_rhs_on_one_matrix_equal_fresh_matrices():
    rng = random.Random(99)
    for _ in range(20):
        m = _random_system(rng)
        for _ in range(10):
            b = [Fraction(rng.randint(-4, 4)) if rng.random() < 0.5 else Fraction(0)
                 for _ in range(m.rows)]
            fresh = Matrix(m.rows, m.cols, [e for i in range(m.rows) for e in m.row(i)])
            assert solve(m, b) == solve(fresh, b)


def test_row_order_changes_no_elimination_result():
    # each row is reduced as it is inserted and pivots on its first nonzero
    # column, so every insertion order gives the one RREF
    rng = random.Random(20261021)
    sparse = 0
    for _ in range(80):
        m = _random_system(rng)
        order = list(range(m.rows))
        rng.shuffle(order)
        permuted = Matrix(m.rows, m.cols, [e for i in order for e in m.row(i)])
        assert rref(permuted) == rref(m)
        assert kernel_basis(permuted) == kernel_basis(m)
        for b in ([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m.rows)],
                  m.apply([Fraction(rng.randint(-3, 3)) for _ in range(m.cols)])):
            assert solve(permuted, [b[i] for i in order]) == solve(m, b)
        sparse += m.rows * m.cols > 49
    assert sparse > 5


def test_matrix_eliminations_do_not_enter_subspace_reducer_add(monkeypatch):
    # they share the echelon's insertion routine, but the calls of
    # SubspaceReducer.add (which the pipeline benchmark's tracer counts)
    # stay the incremental ones
    def refuse(self, vec):
        raise AssertionError("a matrix elimination entered SubspaceReducer.add")

    monkeypatch.setattr(SubspaceReducer, "add", refuse)
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 7], [0, 0, 1]])
    assert rank(m) == 2
    assert rref(m)[1] == [0, 2]
    assert kernel_basis(m) == [[-2, 1, 0]]
    assert image_basis(m) == [[1, 2, 0], [3, 7, 1]]
    assert cokernel_reps(m) == [2]
    assert solve(m, [1, 2, 0]) == [1, 0, 0]


# --- the incremental echelon ------------------------------------------------------


def test_subspace_reducer_pivot_order():
    e = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    e0_plus_e3 = [a + b for a, b in zip(e[0], e[3])]
    red = SubspaceReducer(4)
    assert red.add(e0_plus_e3) and red.add(e[1])
    assert not red.add([2 * a - b for a, b in zip(e0_plus_e3, e[1])])
    assert red.pivots == [3, 1]
    # the small indices without a pivot complement the subspace
    complement = [i for i in range(4) if i not in red.pivots]
    assert complement == [0, 2]
    assert all(red.add(e[i]) for i in complement)
    assert red.rank == 4


def test_subspace_reducer_rank_and_membership_match_rref_and_solve():
    rng = random.Random(20261020)
    outcomes = set()
    for _ in range(60):
        dim = rng.randint(1, 6)
        vectors = [list(_random_matrix(rng, 1, dim).row(0))
                   for _ in range(rng.randint(0, 5))]
        if len(vectors) > 1 and rng.random() < 0.5:
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            vectors.append([c * a + b for a, b in zip(vectors[0], vectors[1])])
        span = Matrix.from_columns(vectors, nrows=dim)
        probes = [list(_random_matrix(rng, 1, dim).row(0)) for _ in range(3)]
        probes.append(span.apply([Fraction(rng.randint(-2, 2)) for _ in vectors]))
        red = SubspaceReducer(dim)
        for v in vectors:
            red.add(v)
        assert red.rank == rank(span)
        for b in probes:
            assert red.contains(b) == (solve(span, b) is not None)
            outcomes.add(red.contains(b))
    assert outcomes == {False, True}


def test_subspace_reducer_takes_dict_and_dense_vectors_alike():
    rng = random.Random(20261019)
    for _ in range(60):
        dim = rng.randint(1, 7)
        vectors = [list(_random_matrix(rng, 1, dim).row(0)) for _ in range(rng.randint(0, 6))]
        if len(vectors) > 1:
            vectors.append([2 * a - b for a, b in zip(vectors[0], vectors[1])])
        probes = [list(_random_matrix(rng, 1, dim).row(0)) for _ in range(3)] + vectors
        dense = SubspaceReducer(dim)
        sparse = SubspaceReducer(dim)
        for v in vectors:
            as_dict = {k: e for k, e in enumerate(v) if e}
            assert dense.add(v) == sparse.add(as_dict)
        assert dense.pivots == sparse.pivots
        assert dense.rows == sparse.rows
        for b in probes:
            as_dict = {k: e for k, e in enumerate(b) if e}
            res = sparse.residual(as_dict)
            assert dense.residual(b) == res
            assert all(res.values()) and set(res) <= set(range(dim))
            assert dense.contains(b) == sparse.contains(as_dict) == (not res)
            # the residual is b minus a combination of the rows
            full = [res.get(k, 0) for k in range(dim)]
            back = SubspaceReducer(dim)
            for row in sparse.rows:
                back.add(row)
            assert back.contains([x - y for x, y in zip(b, full)])
            assert all(res.get(p, 0) == 0 for p in sparse.pivots)


def test_tagged_rows_record_their_combination_of_inserted_vectors():
    rng = random.Random(20261021)
    for _ in range(60):
        dim = rng.randint(1, 6)
        vectors = [list(_random_matrix(rng, 1, dim).row(0)) for _ in range(rng.randint(1, 6))]
        if len(vectors) > 1:
            vectors.insert(1, [2 * a - b for a, b in zip(vectors[0], vectors[-1])])
        tagged = SubspaceReducer(dim)
        plain = SubspaceReducer(dim)
        for j, v in enumerate(vectors):
            assert tagged.add(v, {-1 - j: 1}) == plain.add(v)
        # the vector parts are the untagged echelon, pivots and all
        assert tagged.pivots == plain.pivots
        parts = [({k: e for k, e in row.items() if k >= 0},
                  {k: e for k, e in row.items() if k < 0}) for row in tagged.rows]
        assert [vec for vec, _tag in parts] == plain.rows
        for vec, tag in parts:
            combo = [sum(c * vectors[-1 - k][i] for k, c in tag.items()) for i in range(dim)]
            assert combo == [vec.get(i, 0) for i in range(dim)]
        # a residual holds minus the combination of its projection
        x = [Fraction(rng.randint(-3, 3)) for _ in vectors]
        b = [sum(c * v[i] for c, v in zip(x, vectors)) for i in range(dim)]
        res = tagged.residual(b)
        assert all(k < 0 for k in res)
        back = [-sum(c * vectors[-1 - k][i] for k, c in res.items()) for i in range(dim)]
        assert back == b


def _reference_tagged_echelon(insertions):
    """Eager reduced echelon with tags, written independently of
    ncdef.linalg: each accepted vector becomes a row pivoting on its largest
    vector index, 1 there and 0 at every other row's pivot, its tag riding
    along on the negative indices. Returns pivot -> row in insertion order
    and whether each insertion was accepted."""
    rows, accepted = {}, []
    for vec, tag in insertions:
        v = {k: Fraction(e) for k, e in {**vec, **tag}.items() if e}
        v = _reference_reduce(rows, v)
        vector = [k for k in v if k >= 0]
        accepted.append(bool(vector))
        if not vector:
            continue
        p = max(vector)
        v = {k: e / v[p] for k, e in v.items()}
        for q, row in rows.items():
            if row.get(p):
                rows[q] = _reference_axpy(row, -row[p], v)
        rows[p] = v
    return rows, accepted


def _reference_axpy(v, c, row):
    out = dict(v)
    for k, e in row.items():
        out[k] = out.get(k, 0) + c * e
    return {k: e for k, e in out.items() if e}


def _reference_reduce(rows, v):
    for p, row in rows.items():
        if v.get(p):
            v = _reference_axpy(v, -v[p], row)
    return v


def test_product_form_tags_match_an_eager_reduced_echelon():
    rng = random.Random(20261022)
    seen = set()
    for _ in range(80):
        dim = rng.randint(1, 7)
        basis = [{k: e for k, e in enumerate(_random_matrix(rng, 1, dim).row(0)) if e}
                 for _ in range(rng.randint(1, 7))]
        insertions = []
        for j in range(rng.randint(1, 9)):
            if len(basis) > 1 and rng.random() < 0.3:
                # a vector in the span: dependent unless its part is new
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                vec = _reference_axpy(basis[0], c, basis[-1])
            else:
                vec = rng.choice(basis)
            # untagged insertions interleave with tagged ones
            tag = {} if rng.random() < 0.25 else {-1 - j: Fraction(rng.randint(1, 3))}
            insertions.append((vec, tag))
        red = SubspaceReducer(dim)
        added = [red.add(vec, tag or None) for vec, tag in insertions]
        expected, accepted = _reference_tagged_echelon(insertions)
        assert added == accepted
        assert red.pivots == list(expected) and red.rank == len(expected)
        # each row is 1 at its pivot with nothing above it, and reducing it
        # at the other pivots gives the reduced row, tag and all
        for p, row in zip(red.pivots, red.rows):
            assert row[p] == 1 and max(k for k in row if k >= 0) == p
            others = {q: r for q, r in expected.items() if q != p}
            assert _reference_reduce(others, row) == expected[p]
        # residuals of spanned vectors, of vectors whose vector part cancels
        # while their own tag does not, and of random ones
        probes = [(_reference_axpy(vec, Fraction(rng.randint(-2, 2)), basis[0]), {})
                  for vec, _tag in insertions]
        probes += [(vec, {-1 - rng.randrange(9): Fraction(2)}) for vec, _tag in insertions]
        probes += [({k: e for k, e in enumerate(_random_matrix(rng, 1, dim).row(0)) if e}, {})]
        for vec, tag in probes:
            want = _reference_reduce(expected, {**vec, **tag})
            assert red.residual({**vec, **tag}) == want
            assert red.contains({**vec, **tag}) == all(k < 0 for k in want)
            seen.add("tag only" if want and all(k < 0 for k in want) else
                     "vector" if want else "zero")
        seen.update("dependent" if not a else "accepted" for a in added)
    assert seen == {"tag only", "vector", "zero", "dependent", "accepted"}


def test_membership_reads_the_vector_part_of_a_tagged_echelon():
    red = SubspaceReducer(2)
    red.add({0: 1}, {-1: 1})
    assert red.contains({0: 1}) and red.contains({0: 3, -2: 1})
    assert not red.contains({1: 1})
    assert red.residual({0: 1}) == {-1: -1}


def test_a_copy_shares_the_rows_and_grows_apart():
    red = SubspaceReducer(4)
    red.add({0: 1, 2: 2}, {-1: 1})
    red.add({0: 1, 1: 1}, {-2: 1})
    copy = red.copy()
    assert (copy.pivots, copy.rows) == (red.pivots, red.rows)
    # each grows on its own, and neither sees the other's new row
    assert copy.add({0: 1}, {-3: 1}) and red.add({3: 1, 2: 1}, {-4: 1})
    assert copy.residual({0: 1}) == {-3: -1} and red.residual({0: 1}) == {0: 1}
    assert not copy.contains({3: 1}) and red.contains({3: 1, 0: Fraction(-1, 2)})
    assert copy.pivots == [2, 1, 0] and red.pivots == [2, 1, 3]
    assert red.rows[:2] == copy.rows[:2]


# --- integral entries ----------------------------------------------------------


def test_quotient_is_exact_and_keeps_ints_that_divide():
    from ncdef.linalg import _quotient

    assert [(q, type(q)) for q in (_quotient(6, 3), _quotient(-8, -4), _quotient(0, 7))] == [
        (2, int), (2, int), (0, int)]
    assert _quotient(1, 2) == Fraction(1, 2) and _quotient(-6, -4) == Fraction(3, 2)
    assert _quotient(Fraction(1, 2), 2) == Fraction(1, 4)
    assert _quotient(3, Fraction(3, 2)) == 2 and type(_quotient(3, Fraction(3))) is Fraction


# mostly zero and units, plus the non-unit pivots whose division leaves a
# fraction (2, 3, -4) or an int (6 by 2 or 3)
_INTEGRAL_ENTRIES = (0, 0, 0, 0, 1, -1, 1, 2, 3, -4, 6)


def _exact(values) -> bool:
    """No entry is a float (or anything but an int or a Fraction)."""
    return all(type(x) in (int, Fraction) for x in values)


def test_int_and_fraction_entries_eliminate_alike_and_never_to_a_float():
    from ncdef.linalg import _echelon

    rng = random.Random(20261025)
    kinds = set()  # the types that the int matrices' echelons ended up holding
    for _ in range(150):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        ints = [{j: e for j in range(cols) if (e := rng.choice(_INTEGRAL_ENTRIES))}
                for _ in range(rows)]
        fracs = [{j: Fraction(e) for j, e in row.items()} for row in ints]
        mi, mf = Matrix.from_sparse(rows, cols, ints), Matrix.from_sparse(rows, cols, fracs)
        assert rref(mi) == rref(mf) and rank(mi) == rank(mf)
        assert kernel_basis(mi) == kernel_basis(mf)
        x = [rng.choice(_INTEGRAL_ENTRIES) for _ in range(cols)]
        for b in (mf.apply(x), [rng.choice(_INTEGRAL_ENTRIES) for _ in range(rows)]):
            got = solve(mi, b)
            assert got == solve(mf, b)
            assert got is None or _exact(got)
        echelon = _echelon(mi)
        assert _exact(e for row in echelon.values() for e in row.values())
        assert _exact(e for row in rref(mi)[0].sparse for e in row.values())
        assert _exact(e for v in kernel_basis(mi) for e in v)
        columns = mi._column_echelon
        assert _exact(e for row in columns.rows for e in row.values())
        kinds.update((type(e), type(e) is int or e.denominator == 1)
                     for row in echelon.values() for e in row.values())

        # the tagged reducer on the same rows: ints through _add (as solve
        # inserts a matrix's columns), Fractions through add
        red_i, red_f = SubspaceReducer(cols), SubspaceReducer(cols)
        for k, (row_i, row_f) in enumerate(zip(ints, fracs)):
            tag = {-1 - k: rng.choice((1, 2, -3))}
            assert red_i._add(dict(row_i), dict(tag)) == red_f.add(row_f, tag)
        # rows expands every tag, through the int division of _tag
        assert red_i.rows == red_f.rows
        assert _exact(e for row in red_i.rows for e in row.values())
        for _ in range(3):
            probe = {j: e for j in range(cols) if (e := rng.choice(_INTEGRAL_ENTRIES))}
            got = red_i.residual(probe)
            assert got == red_f.residual(probe) and _exact(got.values())
    # the int echelons keep ints, and a non-unit pivot left true fractions
    assert {(int, True), (Fraction, False)} <= kinds


def test_subspace_reducer_takes_int_vectors_as_they_are():
    # add, residual and contains keep an int entry an int: the same pivots,
    # rows and residuals as from the vectors made Fractions, and an echelon
    # whose rows stayed integral reduces an int vector to ints
    rng = random.Random(20261026)
    integral = 0
    for _ in range(150):
        dim = rng.randint(1, 7)
        vectors = [[rng.choice(_INTEGRAL_ENTRIES) for _ in range(dim)]
                   for _ in range(rng.randint(0, 6))]
        red_i, red_f = SubspaceReducer(dim), SubspaceReducer(dim)
        for v in vectors:
            assert red_i.add(v) == red_f.add([Fraction(e) for e in v])
        assert red_i.pivots == red_f.pivots and red_i.rows == red_f.rows
        assert all(type(e) is Fraction for row in red_f.rows for e in row.values())
        # a row's pivot entry is the Fraction 1 (SubspaceReducer.rows)
        rows_integral = all(type(e) is int for p, row in zip(red_i.pivots, red_i.rows)
                            for j, e in row.items() if j != p)
        for _ in range(3):
            b = [rng.choice(_INTEGRAL_ENTRIES) for _ in range(dim)]
            got = red_i.residual(b)
            assert got == red_f.residual([Fraction(e) for e in b]) and _exact(got.values())
            assert red_i.contains({j: e for j, e in enumerate(b) if e}) == red_f.contains(b)
            if rows_integral:
                assert all(type(e) is int for e in got.values())
                integral += bool(got)
    assert integral > 50
