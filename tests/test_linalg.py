"""Exact linear algebra tests, including the Boolean incidence matrices."""

import csv
import functools
import io
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supertorus import cohomology as co
from supertorus import linalg as la

from matrices import from_rows, identity, matmul


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


def gauss_jordan(rows):
    """The engine ``linalg._integer_rref`` replaced, as its oracle:
    Gauss-Jordan elimination in place of integer rows stored as their
    nonzeros, whose pivot is the first candidate row at or below the current
    row and which updates every other row at each pivot; returns the pivots.
    Row r below the rank ends as the rational reduced echelon row r times
    its pivot entry."""
    nrows = len(rows)
    pivots = []
    r = 0
    for c in sorted({c for row in rows for c in row}):
        if r == nrows:
            break
        piv = next((k for k in range(r, nrows) if c in rows[k]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        p = prow[c]
        for k in range(nrows):
            row = rows[k]
            f = row.get(c)
            if f and k != r:
                g = math.gcd(p, f)
                a, b = p // g, f // g
                if a != 1:
                    rows[k] = row = {col: a * x for col, x in row.items()}
                for col, y in prow.items():
                    row[col] = x = row.get(col, 0) - b * y
                    if not x:
                        del row[col]
                g = math.gcd(*row.values())
                if g > 1:
                    rows[k] = {col: x // g for col, x in row.items()}
        pivots.append(c)
        r += 1
    return pivots


def scaled_rows(spread):
    """The storage ``linalg._integer_rows`` replaced, as its oracle: the
    stored rows and denominators of rows given as dicts from column to int
    or Fraction, each row's nonzeros times the lcm of their denominators,
    and that lcm."""
    rows, dens = [], []
    for entries in spread:
        den = math.lcm(*(x.denominator for x in entries.values()))
        if den == 1:
            rows.append({c: x.numerator for c, x in entries.items() if x})
        else:
            rows.append({c: x.numerator * (den // x.denominator) for c, x in entries.items() if x})
        dens.append(den)
    return rows, dens


def scan_forward(rows):
    """The forward elimination ``linalg._forward`` replaced, as its oracle:
    the same pivot rule, with each column's candidates found by scanning
    every row that gave no pivot yet; in place, and returns the pivot
    columns and the rows that gave them."""
    live = list(range(len(rows)))
    pivots, order = [], []
    for c in sorted({c for row in rows for c in row}):
        if not live:
            break
        cand = [k for k in live if c in rows[k]]
        if not cand:
            continue
        piv = min(cand, key=lambda k: len(rows[k]))
        live.remove(piv)
        prow = rows[piv]
        for k in cand:
            if k != piv:
                la._clear(rows, k, prow, c)
        pivots.append(c)
        order.append(piv)
    return pivots, order


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
    assert exact_rank(integer_rows(m)) == len(pivots)


def rand_matrix(rng, nrows, ncols, bound=5):
    return la.Matrix(
        nrows,
        ncols,
        [Fraction(rng.randint(-bound, bound), rng.randint(1, 4)) for _ in range(nrows * ncols)],
    )


def test_rank_identity_and_zero():
    assert identity(3).rank() == 3
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
        assert exact_rank(ints) == m.rank()


def test_kernel_identity_empty():
    assert identity(4).kernel_basis() == []


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
    m = from_rows([[1, 0], [0, 1], [1, 1]])
    assert m.solve_many([m.column(0)]) == [[1, 0]]
    assert m.solve_many([[0, 0, 0]]) == [[0, 0]]
    assert m.solve_many([[1, 0, 0]]) == [None]


def test_coordinates_rational():
    m = from_rows([[Fraction(1, 2)], [Fraction(1, 3)]])
    (got,) = m.solve_many([[Fraction(1, 4), Fraction(1, 6)]])
    assert got == [Fraction(1, 2)]


def test_solve_many_mixed():
    m = from_rows([[1, 2], [0, 1]])
    inside = m.mat_vec([3, -2])
    got = m.solve_many([inside, [0, 0]])
    assert got[0] == [3, -2]
    assert got[1] == [0, 0]
    column = from_rows([[1], [1]])
    assert column.solve_many([[1, 1], [5, 6]]) == [[1], None]


def test_is_invertible():
    assert identity(3).is_invertible()
    assert not la.Matrix(2, 2).is_invertible()
    with pytest.raises(ValueError):
        la.Matrix(2, 3).is_invertible()


def test_matrix_product():
    a = from_rows([[1, 2], [3, 4]])
    b = from_rows([[0, 1], [1, 0]])
    assert matmul(a, b).rows() == [[2, 1], [4, 3]]


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


def _summed_masks(n, k):
    """The masks ``subset_masks`` replaced: one sum per subset."""
    return [sum(1 << x for x in S) for S in itertools.combinations(range(1, n + 1), k)]


def _summed_incidence(n, i, j):
    """The stored rows and column count of the builder ``boolean_incidence``
    replaced: each row's columns from the combinations of the elements
    outside it, one sum per column."""
    index = {t: c for c, t in enumerate(_summed_masks(n, j))}
    out = []
    for s in _summed_masks(n, i):
        outside = [1 << x for x in range(1, n + 1) if not s >> x & 1]
        out.append({index[s | sum(extra)]: 1 for extra in itertools.combinations(outside, j - i)})
    return out, len(index)


@pytest.mark.parametrize("n", range(11))
def test_boolean_incidence_matches_the_summing_oracle(n):
    # the stored rows, their key order too, and the masks, bit for bit
    for k in range(n + 2):
        assert la.subset_masks(n, k) == _summed_masks(n, k)
    for i in range(n + 1):
        for j in range(i, n + 1):
            m = la.boolean_incidence(n, i, j)
            rows, ncols = _summed_incidence(n, i, j)
            assert (m.nrows, m.ncols) == (len(rows), ncols)
            assert all(type(x) is int and x == 1 for row in m._rows for x in row.values())
            assert [list(r.items()) for r in m._rows] == [list(r.items()) for r in rows]


def test_boolean_rank_example():
    assert la.boolean_incidence(5, 1, 4).rank() == 5


# The complementary blocks: the inverse certificate, which sums rows of N
# packed into Python integers of byte-wide fields, against the rank and
# against the library's exact product.

@pytest.mark.parametrize("n", range(11))
def test_complementary_certificate_agrees_with_the_rank(n):
    for i in range(n // 2 + 1):
        w = la.boolean_incidence(n, i, n - i)
        assert la.certify_complementary_block(w, n, i)
        assert w.is_invertible()


def test_complementary_certificate_with_int16_entries():
    # at (13, 3) the scaled coefficients reach 252, so the shifted entries
    # reach 504 and each field of w N takes two bytes
    c = la._complementary_coefficients(13, 3)
    scale = math.lcm(*(x.denominator for x in c))
    assert max(abs(x * scale) for x in c) == 252
    w = la.boolean_incidence(13, 3, 10)
    assert la.certify_complementary_block(w, 13, 3) and w.is_invertible()


@pytest.mark.parametrize("n", range(7))
def test_complementary_inverse_is_exact(n):
    for i in range(n // 2 + 1):
        c = la._complementary_coefficients(n, i)
        inverse = from_rows([
            [c[len(set(t) & set(s))] for s in la.subsets_lex(n, i)]
            for t in la.subsets_lex(n, n - i)
        ])
        w = la.boolean_incidence(n, i, n - i)
        assert matmul(w, inverse) == identity(math.comb(n, i))


@pytest.mark.parametrize("n", range(7))
def test_complementary_certificate_sees_any_flipped_entry(n):
    # N is invertible, so w N = L I holds for the built block alone
    for i in range(n // 2 + 1):
        rows = la.boolean_incidence(n, i, n - i).rows()
        for r, c in itertools.product(range(len(rows)), repeat=2):
            flipped = [list(row) for row in rows]
            flipped[r][c] = 1 - flipped[r][c]
            assert not la.certify_complementary_block(from_rows(flipped), n, i)


def test_complementary_certificate_refuses():
    w = la.boolean_incidence(6, 2, 4)
    assert la.certify_complementary_block(w, 6, 2)
    doubled = from_rows([[2 * x for x in row] for row in w.rows()])
    assert doubled.is_invertible() and not la.certify_complementary_block(doubled, 6, 2)
    assert not la.certify_complementary_block(w.transpose(), 6, 2)
    assert not la.certify_complementary_block(la.boolean_incidence(6, 1, 5), 6, 2)
    for n, i in [(6, 4), (16, 1), (3, -1)]:
        with pytest.raises(ValueError):
            la.certify_complementary_block(w, n, i)


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
            m = matmul(rand_matrix(rng, nrows, inner, 3), rand_matrix(rng, inner, ncols, 3))
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
                blocks.append(from_rows([row[::-1] for row in image.rows()]))
            for m in blocks:
                vectors = [m.column(c) for c in range(min(m.ncols, 2))]
                vectors.append([Fraction(r % 3 - 1) for r in range(m.nrows)])
                assert_matches_reference(m, vectors)


def engine_outputs(m, vectors):
    """What the engine serves, one at a time: the reduced echelon form with
    its pivots, read as stored rows and as Fractions, the kernel basis, the
    solves and the rank."""
    reduced, pivots = m.rref()
    yield reduced, reduced._rows, pivots, reduced.rows(), reduced.to_csv()
    yield m.kernel_basis()
    yield m.solve_many(vectors)
    yield m.rank()


def oracle_outputs(m, vectors):
    """``engine_outputs`` with the Gauss-Jordan oracle in the engine's place."""
    def rank(rows):
        return len(gauss_jordan(la._integer_rows(rows)))

    with patch.object(la, "_integer_rref", gauss_jordan), patch.object(la, "_bareiss_rank", rank), \
            patch.object(la, "_integer_rows", lambda rows: scaled_rows(rows)[0]):
        return list(engine_outputs(m, vectors))


def oracle_cases(rng):
    """Seeded fractional, rank-deficient, empty and huge-entry matrices, with
    right-hand sides inside and outside their column spans."""
    huge = (2**64, -(2**64) - 1, 2**70 + 3, 3**45)
    for k in range(400):
        kind = k % 4
        nrows, ncols = rng.randint(0, 8), rng.randint(0, 8)
        if kind == 0:
            m = rand_matrix(rng, nrows, ncols)
        elif kind == 1:
            inner = rng.randint(0, 3)
            m = matmul(rand_matrix(rng, nrows, inner, 3), rand_matrix(rng, inner, ncols, 3))
        elif kind == 2:
            m = la.Matrix(nrows, ncols, [
                rng.choice((0, 0, rng.randint(-3, 3), rng.choice(huge) * rng.choice((1, -1))))
                for _ in range(nrows * ncols)
            ])
        else:
            m = la.Matrix(0, ncols) if k % 8 == 3 else la.Matrix(nrows, 0)
        vectors = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m.nrows)]
            for _ in range(rng.randint(0, 2))
        ]
        vectors += [m.mat_vec([rng.randint(-2, 2) for _ in range(m.ncols)])
                    for _ in range(rng.randint(0, 2))]
        yield m, vectors


def test_engine_matches_gauss_jordan_oracle():
    rng = random.Random(29)
    kinds = set()
    for m, vectors in oracle_cases(rng):
        got = []
        # each output is compared before the engine computes the next
        for out, want in zip(engine_outputs(m, vectors), oracle_outputs(m, vectors), strict=True):
            assert out == want
            got.append(out)
        assert all(type(x) is Fraction for v in got[1] for x in v)
        assert all(type(x) is Fraction for v in got[2] if v is not None for x in v)
        kinds.add((
            not m.nrows or not m.ncols,
            got[-1] < min(m.nrows, m.ncols),
            any(x.denominator > 1 for row in m._rows for x in row.values()),
            any(abs(x) >= 2**64 for row in m._rows for x in row.values()),
        ))
    # empty, rank-deficient, fractional and huge-entry cases all occur
    assert all(any(kind[k] for kind in kinds) for k in range(4))


def engine_blocks():
    """The kernel and cokernel block routes that ``cohomology``'s ballot
    rule replaced, as its oracle, with a fresh kernel cache: the canonical
    kernel basis of the transposed Boolean block by the elimination engine,
    and the cokernel picks as the reversed free columns of the complementary
    block's kernel, so each block is eliminated once."""
    @functools.cache
    def kernel_block(d0, i0):
        # With i0 = d0 there is no larger subset: one column and no rows.
        block = la.boolean_incidence(d0, i0, i0 + 1).transpose() if i0 < d0 else la.Matrix(0, 1)
        return tuple(
            tuple((c, x) for c, x in enumerate(v) if x) for v in block.kernel_basis()
        )

    def cokernel_block(d0, i0):
        size = math.comb(d0, i0)
        return tuple(sorted(size - 1 - v[-1][0] for v in kernel_block(d0, d0 - i0)))

    return kernel_block, cokernel_block


def built_blocks(kernel_block, cokernel_block, d0):
    return [(kernel_block(d0, i0), cokernel_block(d0, i0)) for i0 in range(d0 + 1)]


@pytest.mark.parametrize("d0", range(11))
def test_blocks_match_gauss_jordan_oracle(d0):
    # the kernel and cokernel blocks of cohomology, built afresh, byte for
    # byte against the engine route, and that route against itself with the
    # Gauss-Jordan oracle as its engine
    got = built_blocks(co._kernel_block.__wrapped__, co._cokernel_block.__wrapped__, d0)
    want = built_blocks(*engine_blocks(), d0)
    assert repr(got) == repr(want)
    with patch.object(la, "_integer_rref", gauss_jordan):
        assert built_blocks(*engine_blocks(), d0) == want


def ballot_arcs(mask, d0):
    """The scan ``cohomology._ballot_arcs`` that ``linalg._bracket_scan``
    replaced, as its oracle: a subset of 1..d0, bit x of ``mask`` set for
    member x, read left to right, where a non-member opens an arc and a
    member closes the nearest open arc or stays uncovered; None when an arc
    stays open (not ballot)."""
    opened, arcs = [], []
    for x in range(1, d0 + 1):
        if not mask >> x & 1:
            opened.append(x)
        elif opened:
            arcs.append((opened.pop(), x))
    return None if opened else arcs


def test_block_scans_match_the_ballot_oracle():
    # every subset of 1..d0, d0 <= 12, scanned as _kernel_block scans it
    # (its arcs, or that it is not ballot) and as _cokernel_block does
    # (whether its complement is ballot)
    for d0 in range(13):
        full = (1 << d0 + 1) - 2
        for mask in range(0, full + 1, 2):
            arcs, _, opened = la._bracket_scan(full ^ mask, mask)
            assert (None if opened else arcs) == ballot_arcs(mask, d0)
            complement_ballot = not la._bracket_scan(mask, full ^ mask)[2]
            assert complement_ballot == (ballot_arcs(full ^ mask, d0) is not None)


@pytest.mark.parametrize("fault", ["dropped_ballot_vector", "swapped_arc_signs",
                                   "skipped_ballot_step", "two_open_arcs_to_close"])
def test_block_oracle_sees_a_faulty_ballot_rule(fault, request):
    request.getfixturevalue(fault)
    with pytest.raises(AssertionError):
        for d0 in range(7):
            test_blocks_match_gauss_jordan_oracle(d0)


def test_a_dropped_ballot_vector_fails_the_dimension_check(dropped_ballot_vector):
    with pytest.raises(AssertionError, match="disagrees with formula"):
        co.invariants_basis(4, (2, 2))


def test_blocks_run_no_elimination():
    # every bidegree with n <= 6 from cleared block caches; the stand-in
    # fires on the engine route, so it is live
    calls = []
    forward = la._forward
    co._kernel_block.cache_clear()
    co._cokernel_block.cache_clear()
    with patch.object(la, "_forward", lambda rows: calls.append(rows) or forward(rows)):
        for n in range(7):
            for i in range(n + 1):
                for j in range(n + 1):
                    co.invariants_basis(n, (i, j))
                    co.coinvariants_representatives(n, (i, j))
                    co.duality_gram(n, i, j)
                    if i + j <= n:
                        co.lefschetz_matrix(n, i, j)
        assert calls == []
        built_blocks(*engine_blocks(), 3)
    assert len(calls) == 4


def test_oracle_sees_a_skipped_back_substitution(skipped_back_substitution):
    with pytest.raises(AssertionError):
        test_engine_matches_gauss_jordan_oracle()


def checked_forward(forward, calls):
    """``forward`` that asserts, on each call, the pivots, the rows that gave
    them and the eliminated rows that ``scan_forward`` gives on a copy, and
    appends the call's rows to ``calls``."""
    def checked(rows):
        calls.append(rows)
        want_rows = [dict(row) for row in rows]
        want = scan_forward(want_rows)
        got = forward(rows)
        assert got == want and rows == want_rows
        return got

    return checked


def test_forward_matches_scan_oracle():
    # every elimination that the Gauss-Jordan oracle test's matrices run:
    # one each for rref, kernel_basis, solve_many and rank
    calls = []
    with patch.object(la, "_forward", checked_forward(la._forward, calls)):
        for m, vectors in oracle_cases(random.Random(29)):
            list(engine_outputs(m, vectors))
    assert len(calls) == 4 * 400


@pytest.mark.parametrize("d0", range(11))
def test_forward_matches_scan_oracle_on_blocks(d0):
    # the engine route to the kernel and cokernel blocks, built afresh; the
    # cokernel blocks read the kernel blocks, so each block is eliminated once
    calls = []
    with patch.object(la, "_forward", checked_forward(la._forward, calls)):
        built_blocks(*engine_blocks(), d0)
    assert len(calls) == d0 + 1


def test_oracles_see_unindexed_fill_in(unindexed_fill_in):
    with pytest.raises(AssertionError):
        test_engine_matches_gauss_jordan_oracle()
    with pytest.raises(AssertionError):
        test_forward_matches_scan_oracle()


# ---------------------------------------------------------------------------
# The integer-row storage and the rank against their oracles.

def integer_row_oracle(row):
    """The row of Fractions times the lcm of its denominators."""
    if all(x.denominator == 1 for x in row):
        return [x.numerator for x in row]
    scale = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def integer_rows(m):
    """The rows of m, each times the lcm of its denominators; rank preserving."""
    return [integer_row_oracle(row) for row in m.rows()]


def sparse_rows(int_rows):
    """Dense integer rows as the engine takes them: each row's nonzeros."""
    return [{c: x for c, x in enumerate(row) if x} for row in int_rows]


def exact_rank(int_rows):
    """The rank by the Gauss-Jordan oracle."""
    return len(gauss_jordan(sparse_rows(int_rows)))


def test_rank_matches_oracle_on_seeded_matrices():
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
            m = matmul(rand_matrix(rng, nrows, inner, 3), rand_matrix(rng, inner, ncols, 3))
        elif kind == 3:
            # full rank: a lower triangle with a nonzero diagonal, rows shuffled
            size = min(nrows, ncols)
            rows = [
                [rng.randint(1, 5) if r == c else rng.randint(-3, 3) * (r > c) for c in range(size)]
                for r in range(size)
            ]
            rng.shuffle(rows)
            m = from_rows(rows)
        else:
            m = la.Matrix(0, ncols) if k % 10 == 4 else la.Matrix(nrows, 0)
        assert m.rank() == exact_rank(integer_rows(m))
        if kind == 3:
            assert m.rank() == m.nrows


@pytest.mark.parametrize("rows", [
    [[2**63, 1], [1, 0]],
    [[2**63, 2], [2**64, 4]],
    [[-(2**70) - 3, 5, 0], [1, 2**63 + 7, -1], [0, 0, 2**100]],
])
def test_rank_matches_oracle_on_huge_entries(rows):
    assert from_rows(rows).rank() == exact_rank(rows)


@pytest.mark.parametrize("rows", [
    [[1, 2], [2, 4]],
    [[1, 2, 0], [2**64, 2**65, 0], [0, 3, 5]],
    [[Fraction(1, 2), 3, 0], [1, 6, 0], [0, 0, -(2**70)]],
])
def test_rank_leaves_the_matrix_unchanged(rows):
    # each matrix has a singular component, which the exact engine, working
    # in place, eliminates; the rows it is handed must be copies
    m = from_rows(rows)
    before, digest = from_rows(rows), hash(m)
    calls = []
    exact = la._bareiss_rank
    with patch.object(la, "_bareiss_rank", lambda block: calls.append(block) or exact(block)):
        assert m.rank() == len(rows) - 1
    assert len(calls) == 1
    assert m == before and hash(m) == digest


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
    mixed = from_rows(
        [[int(x) if x.denominator == 1 else x for x in row] for row in rows]
    ) if nrows else la.Matrix(0, ncols)
    assert mixed == m and hash(mixed) == hash(m)
    if nrows and ncols:
        changed = [list(row) for row in rows]
        r, c = divmod(where % (nrows * ncols), ncols)
        changed[r][c] = other
        m2 = from_rows(changed)
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
        from_rows([entries])


@pytest.mark.parametrize("v", [[0.5, 1], [Fraction(1), 2.0], [np.float64(0.5), 0]])
def test_float_vectors_are_refused(v):
    with pytest.raises(TypeError, match="float"):
        identity(2).mat_vec(v)
    with pytest.raises(TypeError, match="float"):
        identity(2).solve_many([v])
    with pytest.raises(TypeError, match="float"):
        identity(2).solve_many([[1, 2], v])


def test_exact_vectors_still_accepted():
    m = from_rows([[1, 2], [0, Fraction(1, 2)]])
    assert m.mat_vec([1, Fraction(1, 3)]) == [Fraction(5, 3), Fraction(1, 6)]
    assert m.solve_many([[3, Fraction(1, 2)], [True, 0]]) == [[1, 1], [1, 0]]


def test_transpose_keeps_empty_shapes():
    assert la.Matrix(3, 0).transpose().shape == (0, 3)
    assert la.Matrix(0, 3).transpose().shape == (3, 0)
    m = from_rows([[Fraction(1, 2), Fraction(2, 3)], [0, 5]])
    assert m.transpose().rows() == [[Fraction(1, 2), 0], [Fraction(2, 3), 5]]
    assert m.transpose() == from_rows([[Fraction(1, 2), 0], [Fraction(2, 3), 5]])
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


def test_integer_rows_match_the_scaling_oracle():
    # seeded int, fractional, huge and empty rows, zeros among them
    rng = random.Random(31)
    huge = (2**64, -(2**64) - 1, 2**70 + 3, 3**45)
    draws = (
        lambda: rng.randint(-3, 3),
        lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 6)),
        lambda: rng.choice(huge) * rng.choice((1, -1)),
        lambda: Fraction(rng.choice(huge), rng.choice((1, 3, 2**65 + 1))),
    )
    rows = [{}, {0: 0, 3: Fraction(0)}, {2: Fraction(6, 3)}]
    rows += [{c: draws[k % 4]() for c in rng.sample(range(9), rng.randint(0, 6))}
             for k in range(400)]
    before = [dict(row) for row in rows]
    got = la._integer_rows(rows)
    want, dens = scaled_rows(rows)
    assert [list(row.items()) for row in got] == [list(row.items()) for row in want]
    assert all(type(x) is int for row in got for x in row.values())
    assert all(a is not b for a, b in zip(got, rows)) and rows == before
    assert got[:3] == [{}, {}, {2: 2}] and max(dens) > 2**64
    assert any(abs(x) >= 2**64 for row in got for x in row.values())


def test_integral_builders_store_ints():
    f = co.invariants_basis(5, (3, 2)).vectors
    built = [
        la.boolean_incidence(6, 2, 4),
        co.raising_matrix(5, (2, 1)),
        co.lefschetz_matrix(5, 2, 1),
        co.coordinate_matrix(f, co.bidegree_monomials(5, (3, 2))),
    ]
    for m in built:
        assert any(m._rows)
        assert all(type(x) is int for row in m._rows for x in row.values())


def test_matrix_keeps_given_fractions_and_reads_fractions():
    m = la.Matrix(2, 3, [Fraction(2, 3), 4, Fraction(6, 3), 0, Fraction(0), -1])
    assert [[type(x) for x in row.values()] for row in m._rows] == [[Fraction, int, Fraction], [int]]
    assert m._rows == [{0: Fraction(2, 3), 1: 4, 2: 2}, {2: -1}]
    t, (reduced, _) = m.transpose(), m.rref()
    reads = [m[0, 1], m[1, 0], *m.row(0), *m.column(1), *sum(m.rows(), []), *m.mat_vec([1, 1, 1]),
             *sum(t.rows(), []), *sum(reduced.rows(), []), *m.kernel_basis()[0],
             *m.solve_many([[1, 0]])[0]]
    assert all(type(x) is Fraction for x in reads)
    assert m.to_csv() == "2,3\n2/3,4,2\n0,0,-1\n"


def test_only_linalg_reads_the_matrix_storage():
    src = Path(la.__file__).parent
    assert "_data" not in (src / "cohomology.py").read_text()
    for path in src.glob("*.py"):
        if path.name != "linalg.py":
            text = path.read_text()
            assert "._rows" not in text and "._dens" not in text, path.name


# ---------------------------------------------------------------------------
# The rank of block-diagonal matrices: one engine run over all the blocks.

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
    dense rows, and the exact rank run once, on all its stored rows."""
    calls = []
    exact = la._bareiss_rank
    m = from_rows(dense) if dense else la.Matrix(0, 0)
    with patch.object(la, "_bareiss_rank", lambda rows: calls.append(rows) or exact(rows)):
        got = m.rank()
    assert got == exact_rank(dense)
    assert calls == [m._rows]


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(block_diagonal())
@example([[1, 2, 0], [0, 0, 0], [2, 4, 0], [0, 0, 5]])
@example([[2**64, 0, 2**65], [0, 3, 0], [1, 0, 2]])
@example([[0, 0, 0, 7], [1, 1, 0, 0], [0, 1, 1, 0], [-1, 0, 1, 0]])
def test_block_rank_matches_exact_rank(dense):
    _check_block_rank(dense)


def test_fallback_counts_per_component():
    # three singular 2 x 2 blocks, one nonsingular 2 x 2 block, a 1 x 3 and a
    # 3 x 1 block, interleaved: the exact rank runs once, on the whole matrix
    dense = block_diagonal_rows([
        [[1, 2], [2, 4]], [[1, 0], [0, 1]], [[3, 3], [1, 1]],
        [[7, 8, 9]], [[1], [2], [3]], [[2**64, 2**65], [1, 2]],
    ])
    dense = [dense[r] for r in (3, 0, 8, 11, 1, 5, 7, 2, 4, 6, 9, 10)]
    calls = []
    exact = la._bareiss_rank
    with patch.object(la, "_bareiss_rank", lambda rows: calls.append(rows) or exact(rows)):
        assert from_rows(dense).rank() == 1 + 2 + 1 + 1 + 1 + 1
    assert len(calls) == 1
    _check_block_rank(dense)


def test_block_rank_sees_a_rank_taken_as_full(unindexed_fill_in):
    # the first row less the second is minus the third, but the second
    # row's fill-in in the third column goes unindexed
    assert from_rows([[1, 1, 0], [0, 1, 1], [-1, 0, 1]]).rank() == 3
    with pytest.raises(AssertionError):
        test_block_rank_matches_exact_rank()


def test_signed_permutations_need_no_certificate():
    # signed permutations, one-row and one-column matrices: the engine ranks
    # them as it ranks any other, one pivot per nonzero row and column
    m = from_rows([[0, -3, 0], [Fraction(1, 2), 0, 0], [0, 0, 0]])
    assert m.rank() == 2
    assert identity(5).is_invertible()
    assert from_rows([[1, 2, 3], [0, 0, 0]]).rank() == 1
    assert from_rows([[1, 0], [2, 0], [-1, 0]]).rank() == 1
