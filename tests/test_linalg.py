"""Exact linear algebra tests, including the Boolean incidence matrices."""

import csv
import io
import math
import random
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    assert reduced == la.Matrix(m.nrows, m.ncols, [x for row in rows for x in row])
    assert m.kernel_basis() == reference_kernel(m)
    assert m.solve_many(vectors) == reference_solve_many(m, vectors)
    assert m.rank() == len(pivots)
    assert la._bareiss_rank(integer_rows(m)) == len(pivots)


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
        ints = integer_rows(m)
        assert la._bareiss_rank(ints) == m.rank()


def test_modp_rank_is_lower_bound():
    rng = random.Random(3)
    for _ in range(30):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        ints = integer_rows(m)
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
    assert m.solve_many([m.column(0)]) == [[1, 0]]
    assert m.solve_many([[0, 0, 0]]) == [[0, 0]]
    assert m.solve_many([[1, 0, 0]]) == [None]


def test_coordinates_rational():
    m = la.Matrix.from_rows([[Fraction(1, 2)], [Fraction(1, 3)]])
    (got,) = m.solve_many([[Fraction(1, 4), Fraction(1, 6)]])
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
    # the raising blocks behind cohomology._kernel_block and _cokernel_block,
    # and the raised images with their columns reversed
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


# ---------------------------------------------------------------------------
# The integer-row storage and the mod-p certificate against their oracles.

def modp_rank_oracle(int_rows):
    """The certificate before the low-fill pivot: the first candidate row is
    the pivot, and each entry is reduced on its own."""
    if not int_rows or not int_rows[0]:
        return 0
    p = la._CERT_PRIME
    a = np.array([[x % p for x in row] for row in int_rows], dtype=np.int64)
    nrows, ncols = a.shape
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        nz = np.nonzero(a[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, col]), p - 2, p)
        a[rank, col:] = (a[rank, col:] * inv) % p
        hot = np.nonzero(a[rank + 1 :, col])[0]
        if hot.size:
            rows_idx = rank + 1 + hot
            factors = a[rows_idx, col][:, None]
            a[rows_idx, col:] = (a[rows_idx, col:] - factors * a[rank, col:]) % p
        rank += 1
    return rank


def integer_row_oracle(row):
    """The row of Fractions times the lcm of its denominators."""
    if all(x.denominator == 1 for x in row):
        return [x.numerator for x in row]
    scale = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def integer_rows(m):
    """The rows of m, each times the lcm of its denominators; rank preserving."""
    return [integer_row_oracle(row) for row in m.rows()]


@pytest.mark.parametrize("n", range(9))
def test_modp_rank_matches_oracle_on_boolean_incidences(n):
    for i in range(n + 1):
        for j in range(i, n + 1):
            ints = integer_rows(la.boolean_incidence(n, i, j))
            assert la._modp_rank(ints) == modp_rank_oracle(ints), (i, j)


@pytest.mark.parametrize("n,i,j", [(12, 5, 7), (12, 4, 8)])
def test_modp_rank_matches_oracle_on_large_boolean_incidences(n, i, j):
    ints = integer_rows(la.boolean_incidence(n, i, j))
    assert la._modp_rank(ints) == modp_rank_oracle(ints) == math.comb(n, i)


def test_modp_rank_matches_oracle_on_seeded_matrices():
    rng = random.Random(13)
    for k in range(200):
        kind = k % 5
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        if kind == 0:
            m = la.Matrix(nrows, ncols, [rng.randint(-9, 9) for _ in range(nrows * ncols)])
        elif kind == 1:
            m = rand_matrix(rng, nrows, ncols)
        elif kind == 2:
            # rank deficient: a product through a narrow middle
            inner = rng.randint(0, min(nrows, ncols) - 1)
            m = rand_matrix(rng, nrows, inner, 3) * rand_matrix(rng, inner, ncols, 3)
        elif kind == 3:
            # full rank: a lower triangle with a nonzero diagonal, rows shuffled
            size = min(nrows, ncols)
            rows = [
                [rng.randint(1, 5) if r == c else rng.randint(-3, 3) * (r > c) for c in range(size)]
                for r in range(size)
            ]
            rng.shuffle(rows)
            m = la.Matrix.from_rows(rows)
        else:
            m = la.Matrix(0, ncols) if k % 10 == 4 else la.Matrix(nrows, 0)
        ints = integer_rows(m)
        assert la._modp_rank(ints) == modp_rank_oracle(ints)
        assert m.rank() == la._bareiss_rank(ints)
        if kind == 3:
            assert m.rank() == m.nrows


class _OverflowSpy:
    """Stands in for numpy in ``linalg`` and counts failed int64 conversions."""

    def __init__(self):
        self.overflows = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def array(self, *args, **kwargs):
        try:
            return np.array(*args, **kwargs)
        except OverflowError:
            self.overflows += 1
            raise


@pytest.mark.parametrize("rows", [
    [[2**63, 1], [1, 0]],
    [[2**63, 2], [2**64, 4]],
    [[-(2**70) - 3, 5, 0], [1, 2**63 + 7, -1], [0, 0, 2**100]],
])
def test_modp_rank_falls_back_on_huge_entries(monkeypatch, rows):
    spy = _OverflowSpy()
    monkeypatch.setattr(la, "np", spy)
    assert la._modp_rank(rows) == la._bareiss_rank(rows)
    assert spy.overflows == 1
    assert la.Matrix.from_rows(rows).rank() == la._bareiss_rank(rows)


_entries = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def fraction_rows(draw):
    """A list of equally long rows of Fractions, some rows all zero."""
    nrows, ncols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    rows = [draw(st.lists(_entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for r in draw(st.lists(st.integers(0, max(nrows - 1, 0)), max_size=2)):
        if nrows:
            rows[r] = [Fraction(0)] * ncols
    return ncols, rows


def reference_csv(nrows, ncols, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([nrows, ncols])
    for row in rows:
        writer.writerow([str(x) for x in row])
    return buf.getvalue()


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(fraction_rows(), st.integers(0, 15), _entries)
@example((2, [[Fraction(-1, 2), Fraction(0)], [Fraction(0), Fraction(0)]]), 0, Fraction(1, 3))
@example((0, [[], []]), 0, Fraction(0))
def test_integer_rows_match_fraction_reference(shaped, where, other):
    ncols, rows = shaped
    nrows = len(rows)
    m = la.Matrix(nrows, ncols, [x for row in rows for x in row])
    assert m.rows() == rows
    assert all(type(x) is Fraction for row in m.rows() for x in row)
    assert all(
        m[r, c] == rows[r][c] and type(m[r, c]) is Fraction
        for r in range(nrows) for c in range(ncols)
    )
    assert [m.row(r) for r in range(nrows)] == rows
    assert [m.column(c) for c in range(ncols)] == [[row[c] for row in rows] for c in range(ncols)]
    assert hash(m) == hash(((nrows, ncols), tuple(tuple(row) for row in rows)))
    assert m.to_csv() == reference_csv(nrows, ncols, rows)
    # ints and integral Fractions store alike
    mixed = la.Matrix.from_rows(
        [[int(x) if x.denominator == 1 else x for x in row] for row in rows]
    ) if nrows else la.Matrix(0, ncols)
    assert mixed == m and hash(mixed) == hash(m)
    if nrows and ncols:
        changed = [list(row) for row in rows]
        r, c = divmod(where % (nrows * ncols), ncols)
        changed[r][c] = other
        m2 = la.Matrix.from_rows(changed)
        assert (m2 == m) == (changed == rows)
        assert m2.rows() == changed


def test_from_nonzeros_matches_dense_construction():
    rng = random.Random(17)
    for _ in range(100):
        nrows, ncols = rng.randint(0, 5), rng.randint(0, 5)
        dense = [[Fraction(0)] * ncols for _ in range(nrows)]
        nonzeros = []
        for _ in range(rng.randint(0, 2 * nrows * ncols)):
            r, c = rng.randrange(nrows), rng.randrange(ncols)
            x = rng.choice((rng.randint(-4, 4), Fraction(rng.randint(-4, 4), rng.randint(1, 6))))
            nonzeros.append((r, c, x))
            dense[r][c] = Fraction(x)
        m = la.Matrix._from_nonzeros(nrows, ncols, nonzeros)
        assert m.rows() == dense
        assert m == la.Matrix(nrows, ncols, [x for row in dense for x in row])


@pytest.mark.parametrize("entries", [[0.1, 1], [Fraction(1), 2.0], [np.float64(0.5), 0]])
def test_float_entries_are_refused(entries):
    with pytest.raises(TypeError):
        la.Matrix(1, 2, entries)
    with pytest.raises(TypeError):
        la.Matrix.from_rows([entries])


@pytest.mark.parametrize("v", [[0.5, 1], [Fraction(1), 2.0], [np.float64(0.5), 0]])
def test_float_vectors_are_refused(v):
    with pytest.raises(TypeError, match="float"):
        la.Matrix.identity(2).mat_vec(v)
    with pytest.raises(TypeError, match="float"):
        la.Matrix.identity(2).solve_many([v])
    with pytest.raises(TypeError, match="float"):
        la.Matrix.identity(2).solve_many([[1, 2], v])


def test_exact_vectors_still_accepted():
    m = la.Matrix.from_rows([[1, 2], [0, Fraction(1, 2)]])
    assert m.mat_vec([1, Fraction(1, 3)]) == [Fraction(5, 3), Fraction(1, 6)]
    assert m.solve_many([[3, Fraction(1, 2)], [True, 0]]) == [[1, 1], [1, 0]]


def test_transpose_keeps_empty_shapes():
    assert la.Matrix(3, 0).transpose().shape == (0, 3)
    assert la.Matrix(0, 3).transpose().shape == (3, 0)
    m = la.Matrix.from_rows([[Fraction(1, 2), Fraction(2, 3)], [0, 5]])
    assert m.transpose().rows() == [[Fraction(1, 2), 0], [Fraction(2, 3), 5]]
    assert m.transpose() == la.Matrix.from_rows([[Fraction(1, 2), 0], [Fraction(2, 3), 5]])
    assert m.transpose().transpose() == m


def test_transpose_matches_fraction_reference():
    rng = random.Random(23)
    cases = [la.Matrix(3, 0), la.Matrix(0, 4), la.Matrix(0, 0)]
    for _ in range(60):
        nrows, ncols = rng.randint(0, 5), rng.randint(0, 5)
        cases.append(la.Matrix(nrows, ncols, [
            rng.choice((0, rng.randint(-4, 4))) for _ in range(nrows * ncols)
        ]))
        cases.append(rand_matrix(rng, nrows, ncols))
    for m in cases:
        rows = m.rows()
        want = [[rows[r][c] for r in range(m.nrows)] for c in range(m.ncols)]
        t = m.transpose()
        assert t.shape == (m.ncols, m.nrows)
        assert t.rows() == want
        assert all(type(x) is Fraction for row in t.rows() for x in row)
        assert t == la.Matrix(m.ncols, m.nrows, [x for row in want for x in row])
        assert t.to_csv() == reference_csv(m.ncols, m.nrows, want)
        assert t.transpose() == m


def test_only_linalg_reads_the_matrix_storage():
    src = Path(la.__file__).parent
    assert "_data" not in (src / "cohomology.py").read_text()
    for path in src.glob("*.py"):
        if path.name != "linalg.py":
            text = path.read_text()
            assert "._rows" not in text and "._dens" not in text, path.name


# ---------------------------------------------------------------------------
# The block-wise rank: one certificate per connected component.

def components_oracle(dense):
    """The dense rows of each connected component of the graph joining a row
    to the columns where it is nonzero, found by breadth-first search; rows
    and columns in increasing order."""
    nrows = len(dense)
    ncols = len(dense[0]) if dense else 0
    seen = set()
    out = []
    for start in range(nrows):
        if start in seen or not any(dense[start]):
            continue
        rows, cols, frontier = {start}, set(), [start]
        while frontier:
            new_cols = {c for r in frontier for c in range(ncols) if dense[r][c]} - cols
            cols |= new_cols
            frontier = [
                r for r in range(nrows) if r not in rows and any(dense[r][c] for c in new_cols)
            ]
            rows.update(frontier)
        seen |= rows
        out.append([[dense[r][c] for c in sorted(cols)] for r in sorted(rows)])
    return out


_small = st.integers(-3, 3)
_huge = st.integers(2**63, 2**70) | st.integers(-(2**70), -(2**63))


@st.composite
def integer_block(draw):
    """A random nonzero integer block of at most 4 x 4, 1 x k and k x 1
    included; some are singular (a row combining the others) and some
    have entries beyond int64."""
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entries = _huge | _small if draw(st.booleans()) else _small
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if nrows >= 2 and draw(st.booleans()):
        factors = draw(st.lists(_small | _huge, min_size=nrows - 1, max_size=nrows - 1))
        rows[-1] = [sum(f * row[c] for f, row in zip(factors, rows)) for c in range(ncols)]
    if not any(any(row) for row in rows):
        rows[0][0] = 1
    return rows


def block_diagonal_rows(blocks, zero_rows=0, zero_cols=0):
    """The blocks placed block-diagonally, then that many zero rows and
    zero columns."""
    nrows = sum(len(b) for b in blocks) + zero_rows
    ncols = sum(len(b[0]) for b in blocks) + zero_cols
    dense = [[0] * ncols for _ in range(nrows)]
    r0 = c0 = 0
    for b in blocks:
        for r, row in enumerate(b):
            dense[r0 + r][c0 : c0 + len(row)] = row
        r0, c0 = r0 + len(b), c0 + len(b[0])
    return dense


@st.composite
def block_diagonal(draw):
    """Blocks placed block-diagonally, with zero rows and zero columns
    added, then the rows and the columns permuted."""
    dense = block_diagonal_rows(
        draw(st.lists(integer_block(), max_size=5)),
        draw(st.integers(0, 2)),
        draw(st.integers(0, 2)),
    )
    row_order = draw(st.permutations(range(len(dense))))
    col_order = draw(st.permutations(range(len(dense[0]) if dense else 0)))
    return [[row[c] for c in col_order] for row in (dense[r] for r in row_order)]


def _check_block_rank(dense):
    """The rank of the permuted block matrix against the exact rank of its
    dense rows, and the components the exact fallback ran on: exactly those
    whose certificate is short, the singular ones among them."""
    fallbacks = []
    exact = la._bareiss_rank

    def counted(rows):
        fallbacks.append(rows)
        return exact(rows)

    m = la.Matrix.from_rows(dense) if dense else la.Matrix(0, 0)
    with patch.object(la, "_bareiss_rank", counted):
        got = m.rank()
    assert got == exact(dense)
    short = [
        c for c in components_oracle(dense)
        if len(c) > 1 and len(c[0]) > 1 and modp_rank_oracle(c) < min(len(c), len(c[0]))
    ]
    assert sorted(fallbacks) == sorted(short)
    singular = [c for c in components_oracle(dense) if exact(c) < min(len(c), len(c[0]))]
    assert all(c in fallbacks for c in singular)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(block_diagonal())
@example([[1, 2, 0], [0, 0, 0], [2, 4, 0], [0, 0, 5]])
@example([[2**64, 0, 2**65], [0, 3, 0], [1, 0, 2]])
def test_block_rank_matches_exact_rank(dense):
    _check_block_rank(dense)


def test_fallback_counts_per_component():
    # three singular 2 x 2 blocks, one nonsingular 2 x 2 block, a 1 x 3 and a
    # 3 x 1 block, interleaved: the exact fallback runs once per singular block
    dense = block_diagonal_rows([
        [[1, 2], [2, 4]], [[1, 0], [0, 1]], [[3, 3], [1, 1]],
        [[7, 8, 9]], [[1], [2], [3]], [[2**64, 2**65], [1, 2]],
    ])
    dense = [dense[r] for r in (3, 0, 8, 11, 1, 5, 7, 2, 4, 6, 9, 10)]
    calls = []
    exact = la._bareiss_rank
    with patch.object(la, "_bareiss_rank", lambda rows: calls.append(rows) or exact(rows)):
        assert la.Matrix.from_rows(dense).rank() == 1 + 2 + 1 + 1 + 1 + 1
    assert len(calls) == 3
    _check_block_rank(dense)


def test_block_rank_sees_a_rank_taken_as_full(full_rank_components):
    assert la.Matrix.from_rows([[1, 2], [2, 4]]).rank() == 2
    with pytest.raises(AssertionError):
        test_block_rank_matches_exact_rank()
    with pytest.raises(AssertionError):
        test_fallback_counts_per_component()


def test_signed_permutations_need_no_certificate(monkeypatch):
    def refuse(rows):
        raise AssertionError("a 1 x 1 component reached the certificate")

    monkeypatch.setattr(la, "_modp_rank", refuse)
    m = la.Matrix.from_rows([[0, -3, 0], [Fraction(1, 2), 0, 0], [0, 0, 0]])
    assert m.rank() == 2
    assert la.Matrix.identity(5).is_invertible()
    assert la.Matrix.from_rows([[1, 2, 3], [0, 0, 0]]).rank() == 1
    assert la.Matrix.from_rows([[1, 0], [2, 0], [-1, 0]]).rank() == 1
