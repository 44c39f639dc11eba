"""Translation invariants and coinvariants of E_n per bidegree.

The invariants in bidegree (i, j) form the kernel of the raising operator on
that component; the coinvariants are its cokernel.  Closed dimension formulas,
symmetric-group characters, the Lefschetz isomorphism between complementary
bidegrees, and the volume-form duality pairing all live here, each backed by
an explicit matrix computation over the subset-pair monomial bases.

Monomial components are always ordered the same way, by one enumeration of
their masks: the alpha index set runs lexicographically in the outer loop and
the theta index set in the inner one.  The bases are built on those masks.

Raising sends the monomial (A, B) to the sum of (A + c, B - c) over c in
B - A, so it keeps the union D = A | B and the intersection I = A & B fixed.
Inside one (D, I) class the monomial is fixed by S = A - I, a subset of
D - I of size i0 = i - |I|, and lexicographic order on A agrees with
lexicographic order on S, since both are decided by the least element of the
symmetric difference.  Raising is therefore block diagonal over the classes,
and each block is the transposed Boolean inclusion matrix from the i0-subsets
to the (i0 + 1)-subsets of a d0 = |D - I| element set.  Blocks have disjoint
row supports, so pivots, free columns and greedy choices all split block by
block: ``invariants_basis`` and ``coinvariants_representatives`` relabel one
cached result per block shape (d0, i0) into each class, and match a reduction
of the whole matrix vector for vector.  No block is reduced: the bracket
scan ``linalg._bracket_scan`` reads its free columns, the ballot subsets,
and its greedy picks, those with a ballot complement.  ``raising_matrix``
builds the whole matrix from the operator, by ``coordinate_matrix`` like
every matrix of elements here: the dense oracle of the tests and ``verify``.

Every kernel vector has an own monomial, its free column: it is nonzero there
and every other kernel vector is zero.  So the coordinates of any x in their
span read off as x[m_k] / v_k[m_k], and one exact check that x minus the
combination is zero certifies that x lies in the span.  The permutation
traces are read this way, with no coordinate lists over the bidegree and no
solve.  The Lefschetz matrix needs no product at all: multiplying by
ell**k only relabels each kernel vector into the classes (D + C, I + C), so
its nonzeros, each k!, come from the class labels alone.  The coinvariant
representatives are monomials r_l, so the Gram entry of an invariant v and
r_l is v's coefficient on the complement of r_l times one merge sign.  The
Gram and Lefschetz builders read the kernel vectors straight from the
cached blocks, without building elements.  The tests keep the dense solves,
the products and the per-entry pairings these replace as oracles.  A
``BidegreeBasis`` is a frozen record (``exterior._Record``).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterator, NamedTuple, Sequence

from .exterior import (
    _ALPHA_BITS,
    Bidegree,
    Element,
    Monomial,
    Permutation,
    Rational,
    _Record,
    _check_bidegree,
    _check_int,
    _check_rank,
    _merge_sign,
    permute,
    raising,
    volume_form,
)
from .linalg import Matrix, _bracket_scan, _comb, subset_masks


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def narayana(n: int, k: int) -> int:
    """Nar(n, k) for 1 <= k <= n; refines the Catalan number."""
    if not 1 <= k <= n:
        return 0
    return math.comb(n, k) * math.comb(n, k - 1) // n


def _bidegree_masks(n: int, d: tuple[int, int]) -> list[int]:
    """Masks of ``bidegree_monomials(n, d)``, the rank checked up front."""
    _check_rank(n)
    i, j = d
    _check_int(i, "bidegree part")
    _check_int(j, "bidegree part")
    if not (0 <= i <= n and 0 <= j <= n):
        return []
    # index x + 1 holds a at bit 2x and t at bit 2x + 1
    alphas, thetas = ([sum(4**x for x in S) for S in combinations(range(n), k)] for k in d)
    return [a | (t << 1) for a in alphas for t in thetas]


def bidegree_monomials(n: int, d: tuple[int, int]) -> list[Monomial]:
    """Monomial basis of the (i, j) component, alpha sets outer, theta inner,
    each in lexicographic order; empty when (i, j) is out of range."""
    return [Monomial(n, m) for m in _bidegree_masks(n, d)]


def coordinate_matrix(vectors: Sequence[Element], basis: Sequence[Monomial]) -> Matrix:
    """The matrix whose column k holds the coefficients of ``vectors[k]`` on
    the monomials of ``basis``, in that order; built from the nonzeros."""
    index = {m.mask: r for r, m in enumerate(basis)}
    nonzeros = []
    for c, f in enumerate(vectors):
        for mask, x in f._terms.items():
            r = index.get(mask)
            if r is None:
                raise ValueError("element has support outside the given monomial basis")
            nonzeros.append((r, c, x))
    return Matrix._from_nonzeros(len(basis), len(vectors), nonzeros)


def raising_matrix(n: int, d: tuple[int, int]) -> Matrix:
    """Matrix of the raising operator out of bidegree (i, j).

    Columns follow the source monomials and rows the target monomials in
    bidegree (i+1, j-1); every entry is 0 or 1.
    """
    i, j = d
    images = [raising(Element._make(n, {m: 1})) for m in _bidegree_masks(n, d)]
    if any(c != 1 for f in images for c in f._terms.values()):
        raise AssertionError("raising is not sign free in this basis")
    return coordinate_matrix(images, bidegree_monomials(n, (i + 1, j - 1)))


def invariants_dimension(n: int, i: int, j: int) -> int:
    """Dimension of the translation-invariant part in bidegree (i, j)."""
    _check_bidegree(n, i, j)
    if i < j:
        return 0
    return _comb(n, i) * _comb(n, j) - _comb(n, i + 1) * _comb(n, j - 1)


def coinvariants_dimension(n: int, i: int, j: int) -> int:
    """Dimension of the cokernel of raising into bidegree (i, j)."""
    _check_bidegree(n, i, j)
    if i > j:
        return 0
    return _comb(n, i) * _comb(n, j) - _comb(n, i - 1) * _comb(n, j + 1)


class BidegreeBasis(_Record):
    """An ordered list of homogeneous elements spanning part of one bidegree;
    its fields cannot be reassigned."""

    __slots__ = ("n", "bidegree", "vectors")

    def __init__(self, n: int, bidegree: Bidegree, vectors: tuple[Element, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bidegree", bidegree)
        object.__setattr__(self, "vectors", vectors)

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def __getitem__(self, k: int) -> Element:
        return self.vectors[k]


# Every (d0, i0) block shape the rank guard admits: d0 <= 14, i0 <= d0.
_BLOCK_CACHE_SIZE = 128


def _block_classes(masks: list[int], i: int) -> list[tuple[int, int, int, int, list[int]]]:
    """The (A | B, A & B) classes of the masks of one bidegree with alpha
    degree i, as (union, meet, d0, i0, positions): the class, as masks of
    alpha bits, its block shape and its positions in ``masks``, in monomial
    order."""
    classes: dict[tuple[int, int], list[int]] = {}
    for k, m in enumerate(masks):
        a, b = m & _ALPHA_BITS, (m >> 1) & _ALPHA_BITS
        classes.setdefault((a | b, a & b), []).append(k)
    return [
        (union, meet, (union ^ meet).bit_count(), i - meet.bit_count(), cols)
        for (union, meet), cols in classes.items()
    ]


@lru_cache(maxsize=_BLOCK_CACHE_SIZE)
def _kernel_block(d0: int, i0: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Canonical kernel basis of one raising block, from the i0-subsets of a
    d0-set to the (i0 + 1)-subsets, as sparse (column, value) vectors in
    free-column order, each 1 at its last entry, its own free column.

    R is ballot when ``_bracket_scan(non-members, members)`` leaves no arc
    open; raising kills the product over its arcs (a, b) of (e_R - e_R'),
    R' being R with b moved to a.  Moving members left makes a subset
    lexicographically smaller, so R is its last column, coefficient +1.  A
    kernel vector's last column is free, and there are as many ballot
    subsets as the kernel's dimension, so they are the free columns.  Taking
    off, largest first, its entry at each earlier lead times the reduced
    vector there leaves R's reduced vector, with integer entries: reduced
    vectors are 0 on each other's leads, so no step changes another's.
    """
    full = (1 << d0 + 1) - 2
    masks = subset_masks(d0, i0)
    column = {m: c for c, m in enumerate(masks)}
    reduced: dict[int, dict[int, int]] = {}
    for lead, mask in enumerate(masks):
        arcs, _, opened = _bracket_scan(full ^ mask, mask)
        if opened:
            continue
        terms = {mask: 1}
        for a, b in arcs:
            terms.update([(m + (1 << a) - (1 << b), -x) for m, x in terms.items()])
        vector = {column[m]: x for m, x in terms.items()}
        for free in sorted(vector.keys() & reduced.keys(), reverse=True):
            x = vector[free]
            for c, y in reduced[free].items():
                vector[c] = vector.get(c, 0) - x * y
        reduced[lead] = {c: x for c, x in vector.items() if x}
    return tuple(tuple(sorted(v.items())) for v in reduced.values())


@lru_cache(maxsize=_BLOCK_CACHE_SIZE)
def _cokernel_block(d0: int, i0: int) -> tuple[int, ...]:
    """Greedy representatives of one block's cokernel: the positions k among
    the i0-subsets of a d0-set whose unit vectors, taken in order, extend the
    span of the raised (i0 - 1)-subsets.  The unit vector e_k extends that
    span plus e_0 .. e_{k-1} exactly when column k is no pivot of the image
    with its columns reversed, which up to rows is the raising block from the
    (d0 - i0)-subsets, transposed, since complements list the subsets of one
    size in reverse order: they are the subsets with a ballot complement.
    """
    full = (1 << d0 + 1) - 2
    masks = subset_masks(d0, i0)
    return tuple(k for k, m in enumerate(masks) if not _bracket_scan(m, full ^ m)[2])


class _KernelVector(NamedTuple):
    """One canonical kernel vector of raising: the block vector ``vector``,
    the ``t``-th of ``_kernel_block`` for its block shape, relabelled into the
    class (union, meet) through the class's positions ``cols``."""

    free: int  # the position of its free column in the bidegree's masks
    union: int
    meet: int
    t: int
    cols: list[int]
    vector: tuple[tuple[int, int], ...]


def _kernel_vectors(n: int, d: Bidegree) -> tuple[list[int], list[_KernelVector]]:
    """The masks of bidegree d and the canonical kernel basis of raising on
    it, in free-column order, checked against the closed dimension."""
    _check_bidegree(n, *d)
    source = _bidegree_masks(n, d)
    kernel = sorted(
        (
            _KernelVector(cols[v[-1][0]], union, meet, t, cols, v)
            for union, meet, d0, i0, cols in _block_classes(source, d.i)
            for t, v in enumerate(_kernel_block(d0, i0))
        ),
        key=lambda k: k.free,
    )
    expected = invariants_dimension(n, d.i, d.j)
    if len(kernel) != expected:
        raise AssertionError(
            f"kernel dimension {len(kernel)} disagrees with formula {expected}"
        )
    return source, kernel


def invariants_basis(n: int, d: tuple[int, int]) -> BidegreeBasis:
    """Canonical kernel basis of raising on bidegree d, one per free column,
    with the blocks' integer entries as ``int`` coefficients."""
    d = Bidegree(*d)
    source, kernel = _kernel_vectors(n, d)
    vectors = tuple(
        Element._make(n, {source[k.cols[c]]: x for c, x in k.vector})
        for k in kernel
    )
    return BidegreeBasis(n, d, vectors)


def _cokernel_masks(n: int, d: Bidegree) -> list[int]:
    """The masks of the greedy coset representatives for the cokernel in
    bidegree d, in monomial order, checked against the closed dimension."""
    _check_bidegree(n, *d)
    target = _bidegree_masks(n, d)
    picks = sorted(
        cols[k]
        for _, _, d0, i0, cols in _block_classes(target, d.i)
        for k in _cokernel_block(d0, i0)
    )
    expected = coinvariants_dimension(n, d.i, d.j)
    if len(picks) != expected:
        raise AssertionError(
            f"cokernel dimension {len(picks)} disagrees with formula {expected}"
        )
    return [target[c] for c in picks]


def coinvariants_representatives(n: int, d: tuple[int, int]) -> BidegreeBasis:
    """Greedy monomial coset representatives for the cokernel in bidegree d.

    The image of raising is inserted first; the representatives are then the
    monomials, in the fixed lexicographic order, whose unit vectors extend the
    span until the whole component is covered.
    """
    d = Bidegree(*d)
    reps = tuple(Element._make(n, {m: 1}) for m in _cokernel_masks(n, d))
    return BidegreeBasis(n, d, reps)


def _own_monomials(vectors: Sequence[Element]) -> dict[int, int] | None:
    """Each vector's own monomial, a mask where that vector is nonzero and
    every other vector is zero, mapped to the vector's index; None when some
    vector has none."""
    touched = Counter(m for v in vectors for m in v._terms)
    own = {}
    for k, v in enumerate(vectors):
        m = next((m for m in v._terms if touched[m] == 1), None)
        if m is None:
            return None
        own[m] = k
    return own


def _coordinates(
    vectors: Sequence[Element], own: dict[int, int], x: Element
) -> dict[int, Rational] | None:
    """The nonzero coordinates of x over the vectors, by index, read off
    their own monomials; None when x minus that combination is not exactly
    zero, that is, when x is outside the span.  An own coefficient of +1 or
    -1 divides exactly, so integer vectors give integer coordinates."""
    coords = {}
    for m, c in x._terms.items():
        k = own.get(m)
        if k is not None:
            a = vectors[k]._terms[m]
            coords[k] = c * a if a == 1 or a == -1 else Fraction(c, a)
    rest = dict(x._terms)
    for k, c in coords.items():
        for m, a in vectors[k]._terms.items():
            r = rest.get(m, 0) - c * a
            if r:
                rest[m] = r
            else:
                del rest[m]
    return None if rest else coords


def lefschetz_matrix(n: int, i: int, j: int) -> Matrix:
    """Matrix of multiplication by the Lefschetz power between invariants.

    Maps the invariants in bidegree (i, j) to those in (n-j, n-i) through
    multiplication by ell**k, k = n-i-j; square and invertible.  Since
    ell**k = k! times the sum of the products of a_c t_c over the k-subsets
    C of 1..n, and each a_c t_c is even and adjacent in the generator order,
    ell**k sends the monomial (A, B) to k! (A + C, B + C) for each C outside
    A | B, with no sign.  So it sends the kernel vector t of class (D, I) to
    k! times the kernel vector t of each class (D + C, I + C), which has the
    same block shape: every entry is 0 or k!.
    """
    _check_bidegree(n, i, j)
    if i + j > n:
        raise ValueError(f"need i + j <= n, got i={i}, j={j}, n={n}")
    k = n - i - j
    _, source = _kernel_vectors(n, Bidegree(i, j))
    _, target = _kernel_vectors(n, Bidegree(n - j, n - i))
    if len(source) != len(target):
        raise AssertionError("the Lefschetz map between invariants is not square")
    row_of = {(v.union, v.meet, v.t): row for row, v in enumerate(target)}
    scale = math.factorial(k)
    pairs = [1 << 2 * x for x in range(n)]
    nonzeros = []
    for col, v in enumerate(source):
        outside = [b for b in pairs if not v.union & b]
        for extra in combinations(outside, k):
            c = sum(extra)
            row = row_of.get((v.union | c, v.meet | c, v.t))
            if row is None:
                raise AssertionError("Lefschetz image left the invariant subspace")
            nonzeros.append((row, col, scale))
    return Matrix._from_nonzeros(len(target), len(source), nonzeros)


def duality_gram(n: int, i: int, j: int) -> Matrix:
    """Gram matrix of the volume pairing between invariants in (i, j) and
    coinvariant representatives in (n-i, n-j); square and invertible."""
    _check_bidegree(n, i, j)
    source, left = _kernel_vectors(n, Bidegree(i, j))
    right = _cokernel_masks(n, Bidegree(n - i, n - j))
    vol = volume_form(n).mask
    # v pairs with the monomial r (coefficient 1) through its coefficient on
    # the complement vol ^ r, times the sign of reordering (vol ^ r, r)
    partner = {vol ^ r: (col, _merge_sign(vol ^ r, r)) for col, r in enumerate(right)}
    nonzeros = []
    for row, v in enumerate(left):
        for c, x in v.vector:
            hit = partner.get(source[v.cols[c]])
            if hit:
                col, sign = hit
                nonzeros.append((row, col, x if sign > 0 else -x))
    return Matrix._from_nonzeros(len(left), len(right), nonzeros)


# ---------------------------------------------------------------------------
# Symmetric group characters by cycle type.

def partitions(n: int, largest: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n, parts decreasing, in reverse lexicographic order."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def symmetric_group(n: int) -> Iterator[Permutation]:
    for images in permutations(range(1, n + 1)):
        yield Permutation(images)


def _check_partition(cycle_type: Sequence[int], n: int | None = None) -> None:
    """Refuse a cycle type with a part that is not a positive int, or, given
    n, one whose parts do not add up to n."""
    if not all(type(part) is int and part > 0 for part in cycle_type) or (
        n is not None and sum(cycle_type) != n
    ):
        of = "" if n is None else f" of {n}"
        raise ValueError(f"cycle type {cycle_type} is not a partition{of}")


def wedge_character(cycle_type: Sequence[int], i: int) -> int:
    """Trace of a permutation of the given cycle type on the i-th exterior
    power of the permutation representation.

    Reads off the t**i coefficient of the product of (1 - (-t)**L) over the
    cycle lengths L.
    """
    _check_partition(cycle_type)
    _check_int(i, "degree")
    n = sum(cycle_type)
    coeffs = [0] * (n + 1)
    coeffs[0] = 1
    deg = 0
    for length in cycle_type:
        sign = -((-1) ** length)
        new = coeffs[:]
        for k in range(deg, -1, -1):
            if coeffs[k]:
                new[k + length] += sign * coeffs[k]
        coeffs = new
        deg += length
    if i < 0 or i > n:
        return 0
    return coeffs[i]


def invariants_character(n: int, i: int, j: int, cycle_type: Sequence[int]) -> int:
    """Character of the invariants in bidegree (i, j) at a cycle type."""
    _check_bidegree(n, i, j)
    _check_partition(cycle_type, n)
    if i < j:
        raise ValueError(
            f"the invariant module in bidegree ({i}, {j}) is zero when i < j"
        )
    return wedge_character(cycle_type, i) * wedge_character(cycle_type, j) - (
        wedge_character(cycle_type, i + 1) * wedge_character(cycle_type, j - 1)
    )


def trace_on_basis(w: Permutation, basis: BidegreeBasis) -> Fraction:
    """Trace of the permutation action on the span of the basis.

    Reads each permuted basis vector's coordinates off the basis's own
    monomials; a vector falling outside the span means the subspace is not
    stable and is reported as an error.  A basis in which some vector has no
    own monomial is first replaced by the nonzero rows of the reduced echelon
    form of its coordinates: the same span, each row alone on its pivot.
    """
    if w.n != basis.n:
        raise ValueError("permutation degree does not match basis rank")
    vectors = basis.vectors
    own = _own_monomials(vectors)
    if own is None:
        support = sorted({m for v in vectors for m in v._terms})
        monomials = [Monomial(basis.n, m) for m in support]
        reduced, pivots = coordinate_matrix(vectors, monomials).transpose().rref()
        vectors = [
            Element._make(basis.n, dict(zip(support, reduced.row(r))))
            for r in range(len(pivots))
        ]
        own = _own_monomials(vectors)
    total = Fraction(0)
    for k, v in enumerate(vectors):
        coords = _coordinates(vectors, own, permute(w, v))
        if coords is None:
            raise ValueError("the span of the basis is not permutation stable")
        total += coords.get(k, 0)
    return total


# ---------------------------------------------------------------------------
# Census tables.

class DiagonalCensus(NamedTuple):
    n: int
    diagonal: tuple[int, ...]
    diagonal_total: int
    catalan: int
    total: int
    central_binomial: int


def diagonal_census(n: int) -> DiagonalCensus:
    """Diagonal invariant dimensions, their Catalan total, and the full count."""
    diagonal = tuple(invariants_dimension(n, i, i) for i in range(n + 1))
    total = sum(
        invariants_dimension(n, i, j)
        for i in range(n + 1)
        for j in range(n + 1)
    )
    return DiagonalCensus(
        n=n,
        diagonal=diagonal,
        diagonal_total=sum(diagonal),
        catalan=catalan(n + 1),
        total=total,
        central_binomial=math.comb(2 * n + 1, n),
    )


def dimension_table(n: int) -> list[dict]:
    """Rows of invariant and coinvariant dimensions for every bidegree."""
    return [
        {
            "n": n,
            "bidegree": [i, j],
            "h0": invariants_dimension(n, i, j),
            "h1": coinvariants_dimension(n, i, j),
        }
        for i in range(n + 1)
        for j in range(n + 1)
    ]


def character_table(n: int, i: int, j: int) -> list[dict]:
    """Character of the invariants in bidegree (i, j) on every cycle type."""
    return [
        {
            "n": n,
            "bidegree": [i, j],
            "cycle_type": list(ct),
            "character": invariants_character(n, i, j, ct),
        }
        for ct in partitions(n)
    ]
