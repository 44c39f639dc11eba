"""Tests for the per-bidegree invariants, coinvariants, and characters."""

import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from supertorus import cohomology as co
from supertorus import exterior as ex
from supertorus import linalg as la
from supertorus.verify import random_permutation


# ---------------------------------------------------------------------------
# raising matrices

def test_raising_matrix_n1():
    m = co.raising_matrix(1, (0, 1))
    assert m.rows() == [[1]]


def test_raising_matrix_theta_degree_zero():
    m = co.raising_matrix(2, (1, 0))
    assert m.nrows == 0 and m.ncols == 2


def test_raising_matrix_column_ones_count():
    # each column has as many ones as the source has free theta indices
    n = 3
    for i in range(n + 1):
        for j in range(n + 1):
            mat = co.raising_matrix(n, (i, j))
            monos = co.bidegree_monomials(n, (i, j))
            for c, mono in enumerate(monos):
                A = {g.index for g in mono.generators() if g.kind == "alpha"}
                B = {g.index for g in mono.generators() if g.kind == "theta"}
                ones = sum(1 for r in range(mat.nrows) if mat[r, c])
                assert ones == len(B - A)


def test_raising_injective_below_diagonal():
    assert co.raising_matrix(2, (0, 1)).kernel_basis() == []


def test_raising_matrix_golden_csv():
    # frozen layout: source pairs in lexicographic order, entries 0/1
    assert co.raising_matrix(2, (1, 1)).to_csv() == "1,4\n0,1,1,0\n"


def bidegree_monomials_oracle(n, d):
    """The generic route: one ``subset_monomial`` per pair of index sets."""
    i, j = d
    if not (0 <= i <= n and 0 <= j <= n):
        return []
    return [
        ex.subset_monomial(A, B, n)
        for A in la.subsets_lex(n, i)
        for B in la.subsets_lex(n, j)
    ]


@pytest.mark.parametrize("n", range(7))
def test_bidegree_enumeration_matches_oracle(n):
    # every bidegree, and the empty ones just outside the range
    for i in range(-1, n + 2):
        for j in range(-1, n + 2):
            want = bidegree_monomials_oracle(n, (i, j))
            assert co.bidegree_monomials(n, (i, j)) == want
            assert co._bidegree_masks(n, (i, j)) == [m.mask for m in want]


def test_enumeration_checks_rank_first():
    for fn in (co.bidegree_monomials, co.raising_matrix):
        with pytest.raises(ValueError, match="rank 15 exceeds the guard 14"):
            fn(15, (1, 1))


# ---------------------------------------------------------------------------
# dimensions

def test_invariants_dimension_examples():
    for n in range(0, 7):
        assert co.invariants_dimension(n, 0, 0) == 1
    assert co.invariants_dimension(3, 1, 1) == 6
    assert co.invariants_dimension(2, 0, 1) == 0


def test_coinvariants_dimension_examples():
    for n in range(0, 5):
        assert co.coinvariants_dimension(n, n, n) == 1
    assert co.coinvariants_dimension(3, 1, 1) == 6
    assert co.coinvariants_dimension(3, 2, 1) == 0


def test_dimensions_match_kernels_small():
    for n in range(0, 5):
        for i in range(n + 1):
            for j in range(n + 1):
                m = co.raising_matrix(n, (i, j))
                assert m.ncols - m.rank() == co.invariants_dimension(n, i, j)
                into = co.raising_matrix(n, (i - 1, j + 1))
                dim = len(co.bidegree_monomials(n, (i, j)))
                assert dim - into.rank() == co.coinvariants_dimension(n, i, j)


def test_duality_dimension_identity():
    for n in range(0, 7):
        for i in range(n + 1):
            for j in range(n + 1):
                assert co.invariants_dimension(n, i, j) == co.coinvariants_dimension(
                    n, n - i, n - j
                )


# ---------------------------------------------------------------------------
# bases

def test_invariants_basis_n1():
    basis = co.invariants_basis(1, (1, 1))
    assert len(basis) == 1
    assert basis[0] == ex.parse_element("1*a1 t1", 1)


def test_invariants_basis_n2_diagonal():
    basis = co.invariants_basis(2, (1, 1))
    assert len(basis) == 3
    expected_span = [
        ex.parse_element("1*a1 t1", 2),
        ex.parse_element("1*a2 t2", 2),
        ex.parse_element("1*a1 t2 + 1*a2 t1", 2),
    ]
    mat = _basis_matrix(basis)
    order = basis.monomial_order()
    for v in expected_span:
        assert mat.coordinates(co.element_coordinates(v, order)) is not None


def test_invariants_basis_empty_when_zero():
    assert len(co.invariants_basis(2, (0, 1))) == 0


@pytest.mark.parametrize(
    "fn", [co.invariants_basis, co.coinvariants_representatives], ids=["inv", "coinv"]
)
@pytest.mark.parametrize(
    "n, d, message",
    [(3, (5, 1), "bidegree"), (3, (-1, 0), "bidegree"), (-1, (0, 0), "bidegree"),
     # a small bidegree, so that a lost rank guard fails here rather than
     # enumerating millions of masks
     (15, (1, 1), "rank 15 exceeds the guard 14")],
    ids=["3-(5,1)", "3-(-1,0)", "-1-(0,0)", "15-(1,1)"],
)
def test_bases_reject_bad_rank_or_bidegree(fn, n, d, message):
    with pytest.raises(ValueError, match=message):
        fn(n, d)


def test_invariants_bases_are_fixed_points():
    for n in range(0, 4):
        for i in range(n + 1):
            for j in range(i + 1):
                for v in co.invariants_basis(n, (i, j)):
                    assert ex.translate(v) == v
                    assert ex.raising(v).is_zero()


def test_coinvariants_representatives_examples():
    top = co.coinvariants_representatives(2, (2, 2))
    assert len(top) == 1
    assert top[0] == ex.Element.from_monomial(ex.volume_form(2))
    reps = co.coinvariants_representatives(1, (0, 1))
    assert [ex.format_element(v) for v in reps] == ["1*t1"]
    assert len(co.coinvariants_representatives(1, (1, 0))) == 0


def test_coinvariants_representatives_are_monomials_spanning():
    n = 3
    for i in range(n + 1):
        for j in range(n + 1):
            reps = co.coinvariants_representatives(n, (i, j))
            assert len(reps) == co.coinvariants_dimension(n, i, j)
            for v in reps:
                assert len(v) == 1  # single monomial classes


# ---------------------------------------------------------------------------
# block route against the dense oracle

def _formatted(basis):
    return [ex.format_element(v) for v in basis]


def _dense_invariants(n, d):
    """Kernel basis from a reduction of the whole raising matrix."""
    source = co.bidegree_monomials(n, d)
    return [
        ex.format_element(
            ex.Element(n, {m.mask: c for m, c in zip(source, v) if c})
        )
        for v in co.raising_matrix(n, d).kernel_basis()
    ]


def _dense_coinvariants(n, d):
    """Greedy rational echelon: the whole image of raising first, then the
    unit vectors in monomial order, keeping each one that extends the span."""
    target = co.bidegree_monomials(n, d)
    echelon = []

    def insert(vec):
        v = list(vec)
        for row in echelon:
            lead = next(k for k, x in enumerate(row) if x)
            if v[lead]:
                f = v[lead] / row[lead]
                v = [a - f * b for a, b in zip(v, row)]
        if any(v):
            echelon.append(v)
            return True
        return False

    image = co.raising_matrix(n, (d[0] - 1, d[1] + 1))
    for c in range(image.ncols):
        insert(image.column(c))
    reps = []
    for k, m in enumerate(target):
        unit = [Fraction(0)] * len(target)
        unit[k] = Fraction(1)
        if insert(unit):
            reps.append(ex.format_element(ex.Element.from_monomial(m)))
    return reps


@pytest.mark.parametrize("n", range(6))
def test_blocks_match_dense_oracle(n):
    for i in range(n + 1):
        for j in range(n + 1):
            assert _formatted(co.invariants_basis(n, (i, j))) == _dense_invariants(n, (i, j))
            assert _formatted(co.coinvariants_representatives(n, (i, j))) == (
                _dense_coinvariants(n, (i, j))
            )


@pytest.mark.parametrize("d", [(3, 3), (4, 3)], ids=["3-3", "4-3"])
def test_blocks_match_dense_oracle_n6(d):
    assert _formatted(co.invariants_basis(6, d)) == _dense_invariants(6, d)


def test_block_edge_classes():
    # the empty class, A = B = I: one monomial, invariant and its own coset
    assert co._kernel_block(0, 0) == (((0, 1),),)
    assert co._cokernel_block(0, 0) == (0,)
    for d0 in range(1, 6):
        # i0 = 0: raising the empty subset is injective and nothing reaches it
        assert co._kernel_block(d0, 0) == ()
        assert co._cokernel_block(d0, 0) == (0,)
        # i0 = d0: raising the full subset is zero and it is always reached
        assert co._kernel_block(d0, d0) == (((0, 1),),)
        assert co._cokernel_block(d0, d0) == ()
    # bidegrees made of one edge kind only: (0, 0) of empty classes,
    # (0, j) of i0 = 0 classes, (i, 0) of i0 = d0 classes
    for n, d in [(0, (0, 0)), (3, (0, 0)), (3, (0, 2)), (3, (2, 0))]:
        assert _formatted(co.invariants_basis(n, d)) == _dense_invariants(n, d)
        assert _formatted(co.coinvariants_representatives(n, d)) == (
            _dense_coinvariants(n, d)
        )


def test_block_caches_under_threads():
    jobs = [
        (fn, n, d)
        for fn in (co.invariants_basis, co.coinvariants_representatives)
        for n, d in [(4, (2, 2)), (4, (3, 1)), (5, (3, 2)), (5, (2, 3)),
                     (6, (3, 3)), (6, (4, 2)), (6, (2, 4))]
    ]
    caches = (co._kernel_block, co._cokernel_block)

    for cache in caches:
        cache.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(fn, n, d) for fn, n, d in jobs]
            threaded = [_formatted(f.result(timeout=120)) for f in futures]
    finally:
        sys.setswitchinterval(interval)

    for cache in caches:
        cache.cache_clear()
    assert threaded == [_formatted(fn(n, d)) for fn, n, d in jobs]
    for cache in caches:
        info = cache.cache_info()
        # one entry per block shape (d0, i0) with i0 <= d0 <= 6
        assert info.maxsize is not None
        assert 0 < info.currsize <= 28


# ---------------------------------------------------------------------------
# read-offs against the dense oracles: coordinate lists over the whole
# bidegree, an augmented solve, and one pairing per Gram entry

def _basis_matrix(basis):
    """Columns are the basis vectors in monomial coordinates."""
    order = basis.monomial_order()
    return la.Matrix.from_columns(
        [co.element_coordinates(v, order) for v in basis.vectors],
        nrows=len(order),
    )


def _trace_oracle(w, basis):
    order = basis.monomial_order()
    images = [co.element_coordinates(ex.permute(w, v), order) for v in basis]
    total = Fraction(0)
    for k, x in enumerate(_basis_matrix(basis).solve_many(images)):
        if x is None:
            raise ValueError("the span of the basis is not permutation stable")
        total += x[k]
    return total


def _lefschetz_oracle(n, i, j):
    source = co.invariants_basis(n, (i, j))
    target = co.invariants_basis(n, (n - j, n - i))
    power = ex.lefschetz_element(n) ** (n - i - j)
    order = target.monomial_order()
    columns = _basis_matrix(target).solve_many(
        [co.element_coordinates(v * power, order) for v in source]
    )
    assert None not in columns
    return la.Matrix.from_columns(columns, nrows=len(target))


def _gram_oracle(n, i, j):
    left = co.invariants_basis(n, (i, j))
    right = co.coinvariants_representatives(n, (n - i, n - j))
    return la.Matrix(len(left), len(right), [ex.pairing(u, v) for u in left for v in right])


def _assert_same_matrix(got, want):
    assert got.shape == want.shape
    assert got.rows() == want.rows()
    assert all(type(x) is Fraction for row in got.rows() for x in row)
    assert got.to_csv() == want.to_csv()


def _assert_same_trace(w, basis):
    try:
        want = _trace_oracle(w, basis)
    except ValueError:
        with pytest.raises(ValueError, match="not permutation stable"):
            co.trace_on_basis(w, basis)
        return
    got = co.trace_on_basis(w, basis)
    assert type(got) is Fraction
    assert got == want


@pytest.mark.parametrize("n", range(6))
def test_read_offs_match_dense_oracles(n):
    rng = random.Random(100 + n)
    for i in range(n + 1):
        for j in range(n + 1):
            _assert_same_matrix(co.duality_gram(n, i, j), _gram_oracle(n, i, j))
            if i + j <= n:
                _assert_same_matrix(
                    co.lefschetz_matrix(n, i, j), _lefschetz_oracle(n, i, j)
                )
            # the coinvariant representatives span no stable subspace in
            # general: both routes must then refuse
            for basis in (co.invariants_basis(n, (i, j)),
                          co.coinvariants_representatives(n, (i, j))):
                for w in [ex.Permutation.identity(n), random_permutation(rng, n)]:
                    _assert_same_trace(w, basis)


def test_read_offs_match_dense_oracles_n6():
    # the n = 6 calls of the cohomology benchmark workload
    _assert_same_matrix(co.duality_gram(6, 3, 2), _gram_oracle(6, 3, 2))
    for i, j in [(2, 1), (4, 1)]:
        _assert_same_matrix(co.lefschetz_matrix(6, i, j), _lefschetz_oracle(6, i, j))
    rng = random.Random(6)
    basis = co.invariants_basis(6, (2, 2))
    for _ in range(3):
        _assert_same_trace(random_permutation(rng, 6), basis)


# ---------------------------------------------------------------------------
# lefschetz and duality

def test_lefschetz_matrix_trivial_power():
    # i + j = n means the zeroth power, and source equals target
    m = co.lefschetz_matrix(2, 1, 1)
    assert m == la.Matrix.identity(3)


def test_lefschetz_matrix_n1():
    m = co.lefschetz_matrix(1, 0, 0)
    assert m.rows() == [[1]]
    assert m.is_invertible()


def test_lefschetz_matrix_invertible_small():
    for n in range(1, 4):
        for i in range(n + 1):
            for j in range(n + 1 - i):
                m = co.lefschetz_matrix(n, i, j)
                assert m.nrows == m.ncols == co.invariants_dimension(n, i, j)
                if m.nrows:
                    assert m.is_invertible()


def test_lefschetz_matrix_rejects_bad_bidegree():
    with pytest.raises(ValueError):
        co.lefschetz_matrix(2, 2, 1)


def test_duality_gram_trivia():
    assert co.duality_gram(2, 0, 0).rows() == [[1]]
    assert co.duality_gram(1, 1, 1).rows() == [[1]]


def test_duality_gram_invertible_n3():
    g = co.duality_gram(3, 1, 1)
    assert g.nrows == g.ncols == 6
    assert g.is_invertible()


@pytest.mark.parametrize(
    "fn, args",
    [(co.lefschetz_matrix, (3, -1, 0)), (co.duality_gram, (3, 5, 1)),
     (co.duality_gram, (3, -1, 0))],
    ids=["lefschetz-3-(-1)-0", "gram-3-5-1", "gram-3-(-1)-0"],
)
def test_out_of_range_bidegree_rejected(fn, args):
    n, i, j = args
    with pytest.raises(ValueError) as dims:
        co.invariants_dimension(n, i, j)
    with pytest.raises(ValueError) as err:
        fn(*args)
    assert str(err.value) == str(dims.value)


def test_kernel_pairs_to_zero_with_image():
    rng = random.Random(5)
    from supertorus.verify import random_element, random_invariant

    for n in (1, 2, 3):
        for _ in range(20):
            u = random_invariant(rng, n)
            g = random_element(rng, n)
            assert ex.pairing(u, ex.raising(g)) == 0


# ---------------------------------------------------------------------------
# characters

def test_wedge_character_dimension():
    for n in (1, 2, 3, 4):
        for i in range(n + 1):
            assert co.wedge_character((1,) * n, i) == math.comb(n, i)


def test_wedge_character_single_cycle():
    assert co.wedge_character((4,), 0) == 1
    # the full wedge of one n-cycle carries the sign character
    assert co.wedge_character((4,), 4) == -1


def test_wedge_character_transposition():
    assert co.wedge_character((2, 1), 1) == 1


def test_invariants_character_identity_is_dimension():
    for n in (1, 2, 3):
        for i in range(n + 1):
            for j in range(i + 1):
                assert co.invariants_character(n, i, j, (1,) * n) == co.invariants_dimension(n, i, j)


def test_invariants_character_rejects_zero_module():
    with pytest.raises(ValueError):
        co.invariants_character(3, 0, 1, (3,))
    with pytest.raises(ValueError):
        co.invariants_character(3, 1, 1, (2, 2))


def test_characters_match_trace_oracle():
    for n in (1, 2, 3):
        for i in range(n + 1):
            for j in range(i + 1):
                basis = co.invariants_basis(n, (i, j))
                if len(basis) == 0:
                    continue
                for w in co.symmetric_group(n):
                    tr = co.trace_on_basis(w, basis)
                    assert tr.denominator == 1
                    assert tr == co.invariants_character(n, i, j, w.cycle_type())


def test_trace_on_ambient_is_wedge_product():
    n = 3
    for i in range(n + 1):
        for j in range(n + 1):
            monos = co.bidegree_monomials(n, (i, j))
            if not monos:
                continue
            basis = co.BidegreeBasis(
                n,
                ex.Bidegree(i, j),
                tuple(ex.Element.from_monomial(m) for m in monos),
            )
            for w in co.symmetric_group(n):
                ct = w.cycle_type()
                expected = co.wedge_character(ct, i) * co.wedge_character(ct, j)
                assert co.trace_on_basis(w, basis) == expected


def test_trace_detects_unstable_span():
    basis = co.BidegreeBasis(
        2,
        co.bidegree_monomials(2, (1, 1))[0].bidegree(),
        (ex.parse_element("1*a1 t2", 2),),
    )
    w = ex.Permutation((2, 1))
    with pytest.raises(ValueError):
        co.trace_on_basis(w, basis)


def test_trace_echelon_fallback():
    # both vectors touch a1 and a2, so neither has an own monomial
    basis = co.BidegreeBasis(
        2,
        ex.Bidegree(1, 0),
        (ex.parse_element("1*a1 + 1*a2", 2), ex.parse_element("1*a1 - 1*a2", 2)),
    )
    assert co._own_monomials(basis.vectors) is None
    for w in co.symmetric_group(2):
        tr = co.trace_on_basis(w, basis)
        assert tr == _trace_oracle(w, basis) == co.wedge_character(w.cycle_type(), 1)

    # a random invertible recombination of an invariant basis
    rng = random.Random(11)
    n, d = 4, (2, 1)
    kernel = co.invariants_basis(n, d)
    k = len(kernel)
    mix = la.Matrix(k, k, [rng.randint(-2, 2) for _ in range(k * k)])
    assert mix.is_invertible()
    mixed = co.BidegreeBasis(n, kernel.bidegree, tuple(
        sum((v.scale(x) for v, x in zip(kernel, mix.row(r))), ex.Element.zero(n))
        for r in range(k)
    ))
    assert co._own_monomials(mixed.vectors) is None
    for w in [ex.Permutation.identity(n)] + [random_permutation(rng, n) for _ in range(3)]:
        tr = co.trace_on_basis(w, mixed)
        assert type(tr) is Fraction
        assert tr == _trace_oracle(w, mixed) == co.trace_on_basis(w, kernel)
        assert tr == co.invariants_character(n, *d, w.cycle_type())


def test_partitions():
    assert list(co.partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


# ---------------------------------------------------------------------------
# census and tables

def test_diagonal_census_values():
    census = co.diagonal_census(3)
    assert census.diagonal == (1, 6, 6, 1)
    assert census.diagonal_total == 14 == census.catalan
    assert census.total == 35 == census.central_binomial
    assert co.diagonal_census(1).total == 3
    assert co.diagonal_census(0).total == 1


def test_diagonal_census_matches_narayana():
    for n in range(1, 9):
        census = co.diagonal_census(n)
        assert census.diagonal == tuple(co.narayana(n + 1, i + 1) for i in range(n + 1))
        assert census.diagonal_total == census.catalan
        assert census.total == census.central_binomial


def test_dimension_table_shape():
    rows = co.dimension_table(2)
    assert len(rows) == 9
    assert {"n", "bidegree", "h0", "h1"} <= set(rows[0])
    row_11 = next(r for r in rows if r["bidegree"] == [1, 1])
    assert row_11["h0"] == 3 and row_11["h1"] == 3


def test_character_table_rows():
    rows = co.character_table(3, 1, 1)
    assert [r["cycle_type"] for r in rows] == [[3], [2, 1], [1, 1, 1]]
    assert rows[-1]["character"] == 6
