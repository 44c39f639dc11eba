"""Exact linear algebra tests, including the Boolean incidence matrices."""

import csv
import io
import math
import random
from fractions import Fraction

import pytest

from supertorus import linalg as la


def _rref(rows, ncols):
    """Reference reduced row echelon form in Fraction arithmetic, in place;
    the pivot is the first nonzero entry at or below the current row."""
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((k for k in range(r, nrows) if rows[k][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for k in range(nrows):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rowr = rows[r]
                rows[k] = [a - f * b for a, b in zip(rows[k], rowr)]
        pivots.append(c)
        r += 1
    return rows, pivots


def reference_kernel(m):
    rows, pivots = _rref(m.rows(), m.ncols)
    basis = []
    for free in range(m.ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * m.ncols
        v[free] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -rows[r][free]
        basis.append(v)
    return basis


def reference_solve_many(m, vectors):
    aug = [m.row(r) + [Fraction(v[r]) for v in vectors] for r in range(m.nrows)]
    rows, pivots = _rref(aug, m.ncols + len(vectors))
    results = []
    for i in range(len(vectors)):
        col = m.ncols + i
        if col in pivots:
            results.append(None)
            continue
        x = [Fraction(0)] * m.ncols
        for r, p in enumerate(pivots):
            if p >= m.ncols:
                if rows[r][col]:
                    x = None
                    break
                continue
            x[p] = rows[r][col]
        results.append(x)
    return results


def assert_matches_reference(m, vectors):
    rows, pivots = _rref(m.rows(), m.ncols)
    reduced, got_pivots = m.rref()
    assert got_pivots == tuple(pivots)
    assert reduced.rows() == rows
    assert all(type(x) is Fraction for row in reduced.rows() for x in row)
    assert m.kernel_basis() == reference_kernel(m)
    assert m.solve_many(vectors) == reference_solve_many(m, vectors)
    assert m.rank() == len(pivots)
    assert la._bareiss_rank(m.scaled_integer_rows()) == len(pivots)


def rand_matrix(rng, nrows, ncols, bound=5):
    return la.Matrix(
        nrows,
        ncols,
        [Fraction(rng.randint(-bound, bound), rng.randint(1, 4)) for _ in range(nrows * ncols)],
    )


def test_rank_identity_and_zero():
    assert la.Matrix.identity(3).rank() == 3
    assert la.Matrix(2, 2).rank() == 0
    assert la.Matrix(0, 5).rank() == 0
    assert la.Matrix(5, 0).rank() == 0


def test_rank_transpose_random():
    rng = random.Random(1)
    for _ in range(30):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert m.rank() == m.transpose().rank()


def test_rank_fast_path_matches_bareiss():
    rng = random.Random(2)
    for _ in range(30):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        ints = m.scaled_integer_rows()
        assert la._bareiss_rank(ints) == m.rank()


def test_modp_rank_is_lower_bound():
    rng = random.Random(3)
    for _ in range(30):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        ints = m.scaled_integer_rows()
        assert la._modp_rank(ints) <= la._bareiss_rank(ints)


def test_kernel_identity_empty():
    assert la.Matrix.identity(4).kernel_basis() == []


def test_kernel_one_relation():
    m = la.Matrix(1, 2, [1, 1])
    (v,) = m.kernel_basis()
    assert m.mat_vec(v) == [0]
    # proportional to (1, -1)
    assert v[0] * (-1) == v[1] * 1


def test_kernel_vectors_are_exact():
    rng = random.Random(4)
    for _ in range(25):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 7))
        kernel = m.kernel_basis()
        assert len(kernel) == m.ncols - m.rank()
        for v in kernel:
            assert not any(m.mat_vec(v))


def test_coordinates_basic():
    m = la.Matrix.from_rows([[1, 0], [0, 1], [1, 1]])
    assert m.coordinates(m.column(0)) == [1, 0]
    assert m.coordinates([0, 0, 0]) == [0, 0]
    assert m.coordinates([1, 0, 0]) is None


def test_coordinates_rational():
    m = la.Matrix.from_rows([[Fraction(1, 2)], [Fraction(1, 3)]])
    got = m.coordinates([Fraction(1, 4), Fraction(1, 6)])
    assert got == [Fraction(1, 2)]


def test_solve_many_mixed():
    m = la.Matrix.from_rows([[1, 2], [0, 1]])
    inside = m.mat_vec([3, -2])
    got = m.solve_many([inside, [0, 0]])
    assert got[0] == [3, -2]
    assert got[1] == [0, 0]
    column = la.Matrix.from_rows([[1], [1]])
    assert column.solve_many([[1, 1], [5, 6]]) == [[1], None]


def test_is_invertible():
    assert la.Matrix.identity(3).is_invertible()
    assert not la.Matrix(2, 2).is_invertible()
    with pytest.raises(ValueError):
        la.Matrix(2, 3).is_invertible()


def test_matrix_product():
    a = la.Matrix.from_rows([[1, 2], [3, 4]])
    b = la.Matrix.from_rows([[0, 1], [1, 0]])
    assert (a * b).rows() == [[2, 1], [4, 3]]


def test_boolean_incidence_small():
    m = la.boolean_incidence(2, 1, 1)
    assert m.rows() == [[1, 0], [0, 1]]
    ones = la.boolean_incidence(3, 0, 2)
    assert ones.nrows == 1 and all(x == 1 for x in ones.row(0))


def test_boolean_incidence_row_sums():
    m = la.boolean_incidence(4, 1, 3)
    for r in range(m.nrows):
        assert sum(m.row(r)) == 3


def test_boolean_incidence_validation():
    with pytest.raises(ValueError):
        la.boolean_incidence(3, 2, 1)


def test_boolean_complementary_invertible_small():
    for n in range(1, 7):
        for i in range(0, n // 2 + 1):
            m = la.boolean_incidence(n, i, n - i)
            assert m.nrows == m.ncols == math.comb(n, i)
            assert m.is_invertible()


def test_boolean_rank_example():
    assert la.boolean_incidence(5, 1, 4).rank() == 5


def from_csv(text):
    """Reads back what ``Matrix.to_csv`` writes."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    nrows, ncols = int(header[0]), int(header[1])
    entries = [Fraction(x) for row in reader for x in row]
    return la.Matrix(nrows, ncols, entries)


def test_csv_round_trip():
    rng = random.Random(7)
    m = rand_matrix(rng, 3, 4)
    text = m.to_csv()
    assert from_csv(text) == m
    assert "/" in text  # exact rationals serialized as p/q


def test_csv_empty_matrix():
    m = la.Matrix(0, 3)
    assert from_csv(m.to_csv()) == m


def test_subsets_lex_order():
    assert la.subsets_lex(4, 2) == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    ]


def engine_cases(rng):
    """Seeded matrices of every kind the engine meets, with right-hand sides."""
    for k in range(600):
        kind = k % 4
        nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
        if kind == 0:
            m = rand_matrix(rng, nrows, ncols)
        elif kind == 1:
            m = la.Matrix(nrows, ncols, [rng.choice((-1, 0, 0, 1)) for _ in range(nrows * ncols)])
        elif kind == 2:
            inner = rng.randint(0, 3)
            m = rand_matrix(rng, nrows, inner, 3) * rand_matrix(rng, inner, ncols, 3)
        else:
            m = la.Matrix(0, ncols) if k % 8 == 3 else la.Matrix(nrows, 0)
        vectors = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m.nrows)]
            for _ in range(rng.randint(0, 3))
        ]
        # some right-hand sides inside the column span
        vectors += [m.mat_vec([rng.randint(-2, 2) for _ in range(m.ncols)])
                    for _ in range(rng.randint(0, 2))]
        yield m, vectors


def test_engine_matches_rational_reference():
    rng = random.Random(11)
    for m, vectors in engine_cases(rng):
        assert_matches_reference(m, vectors)


def test_engine_matches_reference_on_raising_blocks():
    # the matrices behind cohomology._kernel_block and _cokernel_block
    for d0 in range(7):
        for i0 in range(d0 + 1):
            kernel_block = (
                la.boolean_incidence(d0, i0, i0 + 1).transpose() if i0 < d0 else la.Matrix(0, 1)
            )
            blocks = [kernel_block]
            if i0 > 0:
                image = la.boolean_incidence(d0, i0 - 1, i0)
                blocks.append(la.Matrix.from_rows([row[::-1] for row in image.rows()]))
            for m in blocks:
                vectors = [m.column(c) for c in range(min(m.ncols, 2))]
                vectors.append([Fraction(r % 3 - 1) for r in range(m.nrows)])
                assert_matches_reference(m, vectors)
