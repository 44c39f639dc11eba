"""Tests for the per-bidegree invariants, coinvariants, and characters."""

import hashlib
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import pytest

from supertorus import cohomology as co
from supertorus import exterior as ex
from supertorus import linalg as la
from supertorus.verify import check_duality_dimensions, random_permutation

from matrices import identity


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


def test_duality_dimension_identity():
    assert check_duality_dimensions(6, random.Random(0))


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
    order = co.bidegree_monomials(2, (1, 1))
    vecs = co.coordinate_matrix(expected_span, order).transpose().rows()
    for x in mat.solve_many(vecs):
        assert x is not None


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


@pytest.mark.parametrize("call", [
    lambda: co.invariants_basis(3, (True, 0)),
    lambda: co.coinvariants_representatives(3, (0, True)),
    lambda: co.invariants_dimension(3, True, 0),
    lambda: co.duality_gram(3, 1, True),
    lambda: co.bidegree_monomials(3, (True, 0)),
    lambda: co.raising_matrix(3, (True, 1)),
], ids=["inv-basis", "coinv-reps", "inv-dim", "gram", "monomials", "raising"])
def test_bidegree_parts_must_be_ints(call):
    # invariants_basis(3, (True, 0)) once returned a basis labelled
    # Bidegree(i=True, j=0), and bidegree_monomials(3, (True, 0)) the three
    # monomials of bidegree (1, 0)
    with pytest.raises(TypeError, match="bidegree part must be an integer"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: co.invariants_dimension(True, 1, 0), "rank must be an integer"),
    (lambda: co.coinvariants_dimension(True, 1, 0), "rank must be an integer"),
    (lambda: co.diagonal_census(True), "rank must be an integer"),
    (lambda: co.dimension_table(True), "rank must be an integer"),
    (lambda: co.character_table(True, 1, 0), "rank must be an integer"),
    (lambda: co.invariants_character(True, 1, 0, (1,)), "rank must be an integer"),
    (lambda: co.wedge_character((2, 1), True), "degree must be an integer"),
], ids=["inv-dim", "coinv-dim", "census", "dims", "characters", "inv-character", "wedge"])
def test_ranks_and_degrees_must_be_ints(call, message):
    # each once took True for 1: invariants_dimension(True, 1, 0) gave 1 and
    # wedge_character((2, 1), True) gave 1
    with pytest.raises(TypeError, match=message):
        call()


def test_bidegree_masks_out_of_range_are_empty():
    # check_dimension_formulas reads the empty neighbour at (i - 1, j + 1)
    assert co.bidegree_monomials(3, (4, 0)) == co.bidegree_monomials(3, (-1, 2)) == []


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


@dataclass(frozen=True)
class _DataclassBasis:
    """``BidegreeBasis`` as a @dataclass, the oracle of the hand-written class."""

    n: int
    bidegree: ex.Bidegree
    vectors: tuple[ex.Element, ...]


_DataclassBasis.__name__ = _DataclassBasis.__qualname__ = "BidegreeBasis"


def test_basis_behaves_as_its_dataclass(like_dataclass):
    values = [co.invariants_basis(n, (i, j)) for n in range(3) for i in range(n + 1)
              for j in range(i + 1)]
    values += [co.coinvariants_representatives(2, (1, 2)),
               co.BidegreeBasis(2, ex.Bidegree(1, 1), values[-1].vectors[:1]),
               co.BidegreeBasis(n=2, bidegree=(1, 1), vectors=values[-1].vectors[:1])]
    like_dataclass(values, [_DataclassBasis(b.n, b.bidegree, b.vectors) for b in values])


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


# The repr of every kernel and cokernel block at one d0, hashed in order of
# i0 = 0..d0 as "i0:kernel:cokernel" lines; index d0.
BLOCK_DIGESTS = [
    "c1ee635ad9d576562ef17dd6b9ca4643cf86602c2d0436cd37f0bbc87428340c",
    "7bb3d5c1479b0bbfce4096be51f476bcd568429b9487faea82d6dfe771e9a4f1",
    "06d0146fcc9f2b5d3d5a41e79e851e169fcdd7cc50f80c2a416370cb39305728",
    "f487838c4e8fa9987d7de406c41efcd9a2b79f4c9d5df3ca648614e863378284",
    "693c1934de8cb40bd9cbff62813d64f3f393c0a4b29a538bcc260a47d13bfeac",
    "22fc8701f2685dc97971e41386dacbebcf1cbbfd8c0f5536f8b9fe3fc86075a0",
    "91a7cc6b73196e08b3b800c16c1c328c4d75fc945a37584df7421f16a4ddef49",
    "ed0b567319ab37f12ca91201d0babbf2259dad177f8bc6f471463670e7a1e470",
    "83d560e185d6822e675a1d9ca670f3fb9ed07254482f3b43124ae2dfb646b693",
    "4b86a13e30644496bbe84fd558151e5a304824df66167a2a529fb08e7f07df85",
]


@pytest.mark.parametrize("d0", range(len(BLOCK_DIGESTS)))
def test_block_bytes_are_pinned(d0):
    # the blocks store ints; the pins hash them with Fraction entries
    digest = hashlib.sha256()
    for i0 in range(d0 + 1):
        kernel = co._kernel_block(d0, i0)
        assert all(type(x) is int for v in kernel for _, x in v)
        kernel = tuple(tuple((c, Fraction(x)) for c, x in v) for v in kernel)
        line = f"{i0}:{kernel!r}:{co._cokernel_block(d0, i0)!r}\n"
        digest.update(line.encode())
    assert digest.hexdigest() == BLOCK_DIGESTS[d0]


def test_cokernel_picks_are_the_reversed_free_columns():
    # the cokernel's former definition: the reversed leads of the kernel of
    # the complementary block, now derived without reading that kernel
    for d0 in range(13):
        for i0 in range(d0 + 1):
            size = math.comb(d0, i0)
            leads = [v[-1][0] for v in co._kernel_block(d0, d0 - i0)]
            assert co._cokernel_block(d0, i0) == tuple(sorted(size - 1 - c for c in leads))


# ---------------------------------------------------------------------------
# coordinate matrices against the dense route they replace: one coefficient
# list per element over the whole monomial list, read back as rows

def dense_coordinate_matrix(vectors, basis):
    columns = [[f.coefficient(m) for m in basis] for f in vectors]
    for f, col in zip(vectors, columns):
        if sum(1 for c in col if c) != len(f):
            raise ValueError("element has support outside the given monomial basis")
    return la.Matrix(
        len(basis), len(vectors), [col[r] for r in range(len(basis)) for col in columns]
    )


def _random_homogeneous(rng, n, d, count=3):
    masks = [m.mask for m in co.bidegree_monomials(n, d)]
    return [
        ex.Element(n, {
            m: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for m in rng.sample(masks, rng.randint(0, min(4, len(masks))))
        })
        for _ in range(count)
    ]


def _assert_same_coordinates(vectors, basis):
    got = co.coordinate_matrix(vectors, basis)
    want = dense_coordinate_matrix(vectors, basis)
    assert got.shape == (len(basis), len(vectors))
    assert got == want
    assert got.to_csv() == want.to_csv()
    assert [list(map(type, row)) for row in got.rows()] == [
        list(map(type, row)) for row in want.rows()
    ]
    return got


@pytest.mark.parametrize("n", range(5))
def test_coordinate_matrix_matches_dense_route(n):
    rng = random.Random(300 + n)
    for i in range(n + 1):
        for j in range(n + 1):
            order = co.bidegree_monomials(n, (i, j))
            _assert_same_coordinates(co.invariants_basis(n, (i, j)).vectors, order)
            _assert_same_coordinates(co.coinvariants_representatives(n, (i, j)).vectors, order)
            _assert_same_coordinates(_random_homogeneous(rng, n, (i, j)), order)
            raised = [
                ex.raising(ex.Element.from_monomial(m))
                for m in co.bidegree_monomials(n, (i - 1, j + 1))
            ]
            got = _assert_same_coordinates(raised, order)
            assert co.raising_matrix(n, (i - 1, j + 1)) == got


def test_coordinate_matrix_refuses_support_off_the_basis():
    order = co.bidegree_monomials(2, (1, 1))
    inside = ex.parse_element("1*a1 t2 + 1*a2 t1", 2)
    stray = ex.parse_element("1*a1 t1 + 1/2*a1 a2", 2)
    for build in (co.coordinate_matrix, dense_coordinate_matrix):
        with pytest.raises(ValueError, match="support outside the given monomial basis"):
            build([inside, stray], order)
    assert co.coordinate_matrix([], order).shape == (4, 0)
    assert co.coordinate_matrix([ex.Element.zero(2)], []).shape == (0, 1)


# ---------------------------------------------------------------------------
# read-offs against the dense oracles: coordinate lists over the whole
# bidegree, an augmented solve, and one pairing per Gram entry

def _basis_matrix(basis):
    """Columns are the basis vectors in monomial coordinates."""
    return co.coordinate_matrix(basis.vectors, co.bidegree_monomials(basis.n, basis.bidegree))


def _monomial_coordinates(vectors, basis):
    """Each vector's coordinate list over the monomials of the basis's bidegree."""
    order = co.bidegree_monomials(basis.n, basis.bidegree)
    return co.coordinate_matrix(vectors, order).transpose().rows()


def _trace_oracle(w, basis):
    images = _monomial_coordinates([ex.permute(w, v) for v in basis], basis)
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
    columns = _basis_matrix(target).solve_many(
        _monomial_coordinates([v * power for v in source], target)
    )
    assert None not in columns
    return la.Matrix(
        len(target), len(source), [col[r] for r in range(len(target)) for col in columns]
    )


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


def _lefschetz_product_oracle(n, i, j):
    """The Lefschetz matrix through the products: each source vector times
    ell**(n-i-j), read through the target's own monomials."""
    source = co.invariants_basis(n, (i, j))
    target = co.invariants_basis(n, (n - j, n - i)).vectors
    own = co._own_monomials(target)
    power = ex.lefschetz_element(n) ** (n - i - j)
    nonzeros = []
    for col, v in enumerate(source):
        coords = co._coordinates(target, own, v * power)
        assert coords is not None
        nonzeros += ((row, col, x) for row, x in coords.items())
    return la.Matrix._from_nonzeros(len(target), len(source), nonzeros)


@pytest.mark.parametrize("n", range(8))
def test_lefschetz_matches_product_oracle(n):
    for i in range(n + 1):
        for j in range(n + 1 - i):
            got = co.lefschetz_matrix(n, i, j)
            want = _lefschetz_product_oracle(n, i, j)
            assert got == want and got.to_csv() == want.to_csv(), (i, j)
            entries = got.to_csv().split("\n", 1)[1].replace("\n", ",").split(",")
            assert set(entries) <= {"", "0", str(math.factorial(n - i - j))}


@pytest.mark.parametrize("change, message", [
    (lambda kernel: kernel[:-1], "not square"),
    (lambda kernel: kernel[:-1] + [kernel[-1]._replace(t=kernel[-1].t + 1000)],
     "left the invariant subspace"),
])
def test_lefschetz_refuses_a_broken_target(monkeypatch, change, message):
    kernel_vectors = co._kernel_vectors

    def broken(n, d):
        # the target of lefschetz_matrix(5, 2, 1) only
        source, kernel = kernel_vectors(n, d)
        return source, change(kernel) if d == (4, 3) else kernel

    monkeypatch.setattr(co, "_kernel_vectors", broken)
    with pytest.raises(AssertionError, match=message):
        co.lefschetz_matrix(5, 2, 1)


# ``Matrix.to_csv`` of every matrix of one builder at one n, hashed in order:
# duality_gram and raising_matrix at every bidegree (i, j), lefschetz_matrix
# at every i + j <= n, boolean_incidence at every i <= j; index n.
CSV_DIGESTS = {
    "duality_gram": [
        "ff5e62191d0b9be6ffcd4976cd1db16a9e311336c049022fb64f131135d8554e",
        "82cdc51afd53c4a6721a70433a64a6288f711fce0ce0b73d9ab4375c21e390ac",
        "3689137b1a1ad7a2811153b91dc1eb503edf0d3497d6ee853dd7b285ac538ec2",
        "3b6a8cc5f5a2f806f2fa7ed19d314004786f0564f031abcbed06cbdb9f54122e",
        "575bae102b545e5a104b989ed0dbb9faf9380ffc1b52d8f7beb6fc4e4323064b",
        "27742e4b314df4c2a036e9fe03f76c74bea18b76858dc7d7f8c1f9beea1d58bf",
        "b8fd4466f62d3ea5a29a62ba3126eea2645157e9669deda2d8344321bbeb5507",
    ],
    "lefschetz_matrix": [
        "ff5e62191d0b9be6ffcd4976cd1db16a9e311336c049022fb64f131135d8554e",
        "24a7feab6914e8e0d8958cfefda4e0756f4ddddce734b54ea5f4f711c4dbb2cc",
        "ca0db40209fe05f171ed313800760f48e227f6868c7a22b4d63f9ec8f63774d6",
        "33368cd3348dc5e382d02d2d6b622d7527169436c7d32241d085394df2210c70",
        "cd14cba5e91ae964de801093666445cb73d2ed640d19333b2a18c3d8d10c6886",
        "1a5fafc158cd5bbadd6520e861328adf07b12da5de86aee415581068344356eb",
        "a39463abe00c4c0351963d48f3ad91ea62258f8c12c6dd6768809c5fcd422cf4",
    ],
    "raising_matrix": [
        "8d66c089414bb76bc2ee5c11465c93257821752b4e08be4f1d70737b9fa10f0c",
        "991fabbfc0952f5d87b1dccc02cfe3f5d0395243964d2840df86f809fad49d52",
        "1a0f20b6b4715da622f539c850e8afe967b1c0bf9be07dd473e15db2079bd480",
        "e66a2e43d1443e3228274e7edf7c19b16c6b4aefd801d7ec9beb37e39b18c244",
        "1edb893e9aa6c4bad7d9e1f1347106ae84f5c277f8ff5498d84ebb942f7a244f",
        "0abb9fbad1fbf108d5828304bf956d4e0c6d469bf8277a6a7b8541dcc6356545",
        "179c25f7f894e2944eaab790ddea08c41b7780859cbd43133cc675970089cd27",
    ],
    "boolean_incidence": [
        "ff5e62191d0b9be6ffcd4976cd1db16a9e311336c049022fb64f131135d8554e",
        "0712a867f0c7dabaef42c1421dfdf1c7d2ac596b724e031528086fb3d3313e98",
        "53a2df5023159e337e29f1bd43adfca1f3a0eb1abcccad9b5f57fa4833ca7c4b",
        "61d55f62ee3ac169b542bdfb558d8b2d2e1ba492b50f827266ba980d774c7dc7",
        "a9f9d381ee30b3ee401f86165e3df29ebc238e0f3afab02abcbb87c0c095a4a6",
        "de6006832c8694c3a88d82f3ac5a6dde4582965b642340ec338fd228c3dc9348",
        "0482aface23bfe53cddc788142add6ade752adda81ad03cd6036e2846be76739",
        "3319da3eb8e624810723b725f06bb32cae9b3afe1822eb0ccd17388617f460dc",
        "b70ff6c159f9ae1f85e8b5beb06ea6050ed496886a526d521a6bed0bc672e6f5",
    ],
}


def _builder_calls(name, n):
    if name == "boolean_incidence":
        return la.boolean_incidence, [(n, i, j) for i in range(n + 1) for j in range(i, n + 1)]
    if name == "lefschetz_matrix":
        return co.lefschetz_matrix, [(n, i, j) for i in range(n + 1) for j in range(n + 1 - i)]
    if name == "raising_matrix":
        return co.raising_matrix, [(n, (i, j)) for i in range(n + 1) for j in range(n + 1)]
    return co.duality_gram, [(n, i, j) for i in range(n + 1) for j in range(n + 1)]


@pytest.mark.parametrize("name", sorted(CSV_DIGESTS))
def test_matrix_csv_bytes_are_pinned(name):
    for n, want in enumerate(CSV_DIGESTS[name]):
        fn, calls = _builder_calls(name, n)
        digest = hashlib.sha256()
        for args in calls:
            digest.update(fn(*args).to_csv().encode())
        assert digest.hexdigest() == want, (name, n)


# ---------------------------------------------------------------------------
# lefschetz and duality

def test_lefschetz_matrix_trivial_power():
    # i + j = n means the zeroth power, and source equals target
    m = co.lefschetz_matrix(2, 1, 1)
    assert m == identity(3)


def test_lefschetz_matrix_n1():
    m = co.lefschetz_matrix(1, 0, 0)
    assert m.rows() == [[1]]
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


def random_invariant_oracle(rng, n):
    """``verify.random_invariant`` before it kept its bases: one fresh
    invariant basis per draw."""
    out = ex.Element.zero(n)
    for _ in range(3):
        i = rng.randint(0, n)
        j = rng.randint(0, i)
        basis = co.invariants_basis(n, (i, j))
        if len(basis) == 0:
            continue
        v = basis[rng.randrange(len(basis))]
        out = out + v.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return out


def test_random_invariant_matches_oracle():
    from supertorus.verify import random_invariant

    for seed in range(10):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        bases = {}
        for n in range(1, 6):
            for _ in range(20):
                got = random_invariant(rng, n, bases)
                want = random_invariant_oracle(oracle_rng, n)
                assert list(got._terms.items()) == list(want._terms.items())
                assert [type(c) for c in got._terms.values()] == [
                    type(c) for c in want._terms.values()
                ]
            assert random_invariant(rng, n, {}) == random_invariant_oracle(
                oracle_rng, n
            )
        assert rng.getstate() == oracle_rng.getstate()


def test_kernel_pairs_to_zero_with_image():
    rng = random.Random(5)
    from supertorus.verify import random_element, random_invariant

    for n in (1, 2, 3):
        for _ in range(20):
            u = random_invariant(rng, n, {})
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


@pytest.mark.parametrize("i, j", [(4, 0), (2, -1), (-1, -2), (4, 4)])
def test_invariants_character_rejects_out_of_range_bidegree(i, j):
    with pytest.raises(ValueError) as dims:
        co.invariants_dimension(3, i, j)
    with pytest.raises(ValueError) as char:
        co.invariants_character(3, i, j, (1, 1, 1))
    assert str(char.value) == str(dims.value)
    with pytest.raises(ValueError):
        co.character_table(3, i, j)


@pytest.mark.parametrize("cycle_type", [(0, 3), (4, -1), (3, 0), (1, 1, 1, 0)])
def test_invariants_character_rejects_nonpositive_parts(cycle_type):
    with pytest.raises(ValueError, match="is not a partition of 3"):
        co.invariants_character(3, 1, 1, cycle_type)


@pytest.mark.parametrize("cycle_type", [(0, 3), (-1,), (3, 0), (1.0, 2), (True, 2)])
def test_wedge_character_rejects_parts_that_are_not_positive_ints(cycle_type):
    with pytest.raises(ValueError, match="is not a partition"):
        co.wedge_character(cycle_type, 1)


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


def test_trace_of_an_integer_basis_is_a_fraction():
    # a public Element keeps int coefficients, so the coordinates divide ints
    kernel = co.invariants_basis(2, (1, 1))
    doubled = co.BidegreeBasis(2, kernel.bidegree, tuple(
        ex.Element(2, {m.mask: int(2 * c) for m, c in v.terms()}) for v in kernel
    ))
    swap = co.trace_on_basis(ex.Permutation((2, 1)), doubled)
    same = co.trace_on_basis(ex.Permutation.identity(2), doubled)
    assert (swap, same) == (Fraction(1), Fraction(3))
    assert type(swap) is Fraction and type(same) is Fraction


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
