"""Dense exact rational linear algebra and Boolean-poset incidence matrices.

A matrix stores integer rows, one denominator each: row r is kept as its
entries times the lcm of their reduced denominators, together with that
lcm, and its entries read back as Fractions.  Eliminations run on the
stored rows directly.  A reduction modulo a fixed large prime certifies full
rank, since the rank modulo a prime never exceeds the rank over the
rationals.  One exact engine, integer Gauss-Jordan on primitive rows, serves
the rank when that certificate fails, reduced echelon forms, kernels and
solves.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

# Largest Mersenne prime below 2**31; products of two residues fit in int64.
_CERT_PRIME = 2**31 - 1

# Fractions are immutable, so the rows read back share these entries.
_ONE = Fraction(1)
_ZERO = Fraction(0)


class Matrix:
    """Immutable dense rational matrix, row major.

    Row r is stored as the integers ``_rows[r]`` over the positive
    denominator ``_dens[r]``, the lcm of the row's reduced denominators, so
    equal matrices store equal rows.  Only this module reads the storage.
    """

    __slots__ = ("nrows", "ncols", "_rows", "_dens")

    def __init__(self, nrows: int, ncols: int, entries: Iterable[Fraction] | None = None):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.nrows = nrows
        self.ncols = ncols
        if entries is None:
            self._rows = [[0] * ncols for _ in range(nrows)]
            self._dens = [1] * nrows
            return
        flat = [_rational(e) for e in entries]
        if len(flat) != nrows * ncols:
            raise ValueError(f"expected {nrows * ncols} entries, got {len(flat)}")
        scaled = [_integer_row(flat[r * ncols : (r + 1) * ncols]) for r in range(nrows)]
        self._rows = [row for row, _ in scaled]
        self._dens = [den for _, den in scaled]

    @classmethod
    def _make(cls, ncols: int, rows: list[list[int]], dens: list[int]) -> "Matrix":
        """The matrix of stored rows and their denominators, taken as given."""
        out = cls.__new__(cls)
        out.nrows, out.ncols, out._rows, out._dens = len(rows), ncols, rows, dens
        return out

    @classmethod
    def _from_nonzeros(
        cls, nrows: int, ncols: int, nonzeros: Iterable[tuple[int, int, int | Fraction]]
    ) -> "Matrix":
        """The matrix with the given (row, column, value) entries, each value
        an int or a Fraction, and zeros elsewhere; a later entry at the same
        position replaces an earlier one."""
        spread: list[dict[int, int | Fraction]] = [{} for _ in range(nrows)]
        for r, c, x in nonzeros:
            spread[r][c] = x
        rows, dens = [], []
        for entries in spread:
            scaled, den = _integer_row(list(entries.values()))
            row = [0] * ncols
            for c, x in zip(entries, scaled):
                row[c] = x
            rows.append(row)
            dens.append(den)
        return cls._make(ncols, rows, dens)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
        return cls(nrows, ncols, [x for row in rows for x in row])

    @classmethod
    def identity(cls, k: int) -> "Matrix":
        return cls._make(k, [[int(r == c) for c in range(k)] for r in range(k)], [1] * k)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        r, c = key
        return Fraction(self._rows[r][c], self._dens[r])

    def row(self, r: int) -> list[Fraction]:
        return _fractions(self._rows[r], self._dens[r])

    def column(self, c: int) -> list[Fraction]:
        return [Fraction(row[c], den) for row, den in zip(self._rows, self._dens)]

    def rows(self) -> list[list[Fraction]]:
        return [_fractions(row, den) for row, den in zip(self._rows, self._dens)]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.shape == other.shape
            and self._dens == other._dens
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.shape, tuple(tuple(row) for row in self.rows())))

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols})"

    def transpose(self) -> "Matrix":
        return Matrix._from_nonzeros(self.ncols, self.nrows, (
            (c, r, x if den == 1 else Fraction(x, den))
            for r, (row, den) in enumerate(zip(self._rows, self._dens))
            for c, x in enumerate(row)
            if x
        ))

    def mat_vec(self, v: Sequence) -> list[Fraction]:
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        vv = [Fraction(x) for x in v]
        return [
            sum((vv[c] * x for c, x in enumerate(row) if x), _ZERO) / den
            for row, den in zip(self._rows, self._dens)
        ]

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions mismatch")
        columns = other.transpose().rows()
        return Matrix(self.nrows, other.ncols, [
            sum((a * b for a, b in zip(row, col)), _ZERO)
            for row in self.rows()
            for col in columns
        ])

    def scaled_integer_rows(self) -> list[list[int]]:
        """Each row times the lcm of its denominators; rank preserving."""
        return [row[:] for row in self._rows]

    def rank(self) -> int:
        if self.nrows == 0 or self.ncols == 0:
            return 0
        r = _modp_rank(self._rows)
        if r == min(self.nrows, self.ncols):
            # full rank modulo the prime certifies full rank over Q
            return r
        return _bareiss_rank(self._rows)

    def is_invertible(self) -> bool:
        if self.nrows != self.ncols:
            raise ValueError("invertibility requires a square matrix")
        return self.rank() == self.nrows

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        rows = self.scaled_integer_rows()
        pivots = _integer_rref(rows, self.ncols)
        dens = [1] * self.nrows
        for r, p in enumerate(pivots):
            # row r over its pivot entry, which the gcd of the row divides
            g = math.gcd(*rows[r])
            if rows[r][p] < 0:
                g = -g
            rows[r] = [x // g for x in rows[r]]
            dens[r] = rows[r][p]
        return Matrix._make(self.ncols, rows, dens), tuple(pivots)

    def kernel_basis(self) -> list[list[Fraction]]:
        """Canonical basis of the right null space, one vector per free column."""
        rows = self.scaled_integer_rows()
        pivots = _integer_rref(rows, self.ncols)
        pivot_set = set(pivots)
        basis = []
        for free in range(self.ncols):
            if free in pivot_set:
                continue
            v = [_ZERO] * self.ncols
            v[free] = _ONE
            for row, p in zip(rows, pivots):
                v[p] = Fraction(-row[free], row[p])
            basis.append(v)
        return basis

    def solve_many(self, vectors: Sequence[Sequence]) -> list[list[Fraction] | None]:
        """Coordinates of each vector (of ints or Fractions) in the column
        span, or None if outside."""
        for v in vectors:
            if len(v) != self.nrows:
                raise ValueError("vector length mismatch")
        aug = []
        for r, (row, den) in enumerate(zip(self._rows, self._dens)):
            rhs, rhs_den = _integer_row([v[r] for v in vectors])
            scale = math.lcm(den, rhs_den)
            aug.append(
                [x * (scale // den) for x in row] + [x * (scale // rhs_den) for x in rhs]
            )
        pivots = _integer_rref(aug, self.ncols + len(vectors))
        results: list[list[Fraction] | None] = []
        for col in range(self.ncols, self.ncols + len(vectors)):
            x: list[Fraction] | None = [_ZERO] * self.ncols
            for row, p in zip(aug, pivots):
                if row[col]:
                    if p >= self.ncols:
                        # it needs a pivot among the vectors: outside the span
                        x = None
                        break
                    x[p] = Fraction(row[col], row[p])
            results.append(x)
        return results

    def to_csv(self) -> str:
        """Serialize with a leading "rows,cols" line; entries as p or p/q."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([self.nrows, self.ncols])
        for row, den in zip(self._rows, self._dens):
            writer.writerow(row if den == 1 else [str(x) for x in _fractions(row, den)])
        return buf.getvalue()


def _rational(x) -> int | Fraction:
    """A matrix entry or an element coefficient as an int or a Fraction."""
    if type(x) is int or type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(f"expected an exact rational, got the float {x!r}")
    return Fraction(x)


def _integer_row(row: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """The row times the lcm of its denominators, and that lcm."""
    den = math.lcm(*(x.denominator for x in row))
    if den == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (den // x.denominator) for x in row], den


def _fractions(row: list[int], den: int) -> list[Fraction]:
    if den == 1:
        return [Fraction(x) if x else _ZERO for x in row]
    return [Fraction(x, den) if x else _ZERO for x in row]


def _integer_rref(rows: list[list[int]], ncols: int) -> list[int]:
    """Gauss-Jordan elimination of integer rows in place; returns the pivots.

    A column's pivot is its first nonzero entry at or below the current row;
    each updated row is divided by the gcd of its entries.  Row r below the
    rank ends as the rational reduced echelon row r times its pivot entry.
    """
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((k for k in range(r, nrows) if rows[k][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        p = prow[c]
        for k in range(nrows):
            f = rows[k][c]
            if f and k != r:
                g = math.gcd(p, f)
                a, b = p // g, f // g
                new = [a * x - b * y for x, y in zip(rows[k], prow)]
                g = math.gcd(*new)
                rows[k] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
    return pivots


def _bareiss_rank(int_rows: list[list[int]]) -> int:
    """Exact rank of integer rows by the engine, on a copy: the fallback of
    ``Matrix.rank``, under the name ``perfbench/tracing.py`` rebinds to
    count it."""
    ncols = len(int_rows[0]) if int_rows else 0
    return len(_integer_rref([row[:] for row in int_rows], ncols))


def _modp_rank(int_rows: list[list[int]]) -> int:
    """Rank modulo the prime p; always a lower bound for the rank over Q.

    Each column's pivot is the candidate row with the fewest nonzeros left,
    which keeps the fill-in of the rows it updates low.
    """
    if not int_rows or not int_rows[0]:
        return 0
    p = _CERT_PRIME
    try:
        a = np.array(int_rows, dtype=np.int64) % p
    except OverflowError:
        # some entry does not fit in int64
        a = np.array([[x % p for x in row] for row in int_rows], dtype=np.int64)
    nrows, ncols = a.shape
    # nonzeros of each row from the current column on; rows that already
    # gave a pivot are dead and keep their place
    weight = np.count_nonzero(a, axis=1)
    alive = np.ones(nrows, dtype=bool)
    rank = 0
    for col in range(ncols):
        cand = np.flatnonzero(alive & (a[:, col] != 0))
        if cand.size == 0:
            continue
        k = int(np.argmin(weight[cand]))
        piv = int(cand[k])
        alive[piv] = False
        rank += 1
        if rank == nrows:
            break
        hot = np.delete(cand, k)
        if hot.size:
            # the update only touches the columns where the pivot row is nonzero
            support = col + np.flatnonzero(a[piv, col:])
            prow = a[piv, support] * pow(int(a[piv, col]), p - 2, p) % p
            block = np.ix_(hot, support)
            old = a[block]
            new = (old - old[:, :1] * prow) % p
            a[block] = new
            weight[hot] += np.count_nonzero(new, axis=1) - np.count_nonzero(old, axis=1)
    return rank


def subsets_lex(n: int, k: int) -> list[tuple[int, ...]]:
    """Size-k subsets of 1..n in lexicographic order on sorted tuples."""
    return list(itertools.combinations(range(1, n + 1), k))


def subset_masks(n: int, k: int) -> list[int]:
    """The subsets of ``subsets_lex(n, k)``, in that order, as bitmasks with
    bit x set for each member x."""
    return [sum(1 << x for x in S) for S in subsets_lex(n, k)]


def boolean_incidence(n: int, i: int, j: int) -> Matrix:
    """Containment matrix between size-i and size-j subsets of 1..n.

    Rows follow the size-i subsets and columns the size-j subsets, both in
    lexicographic order; the entry is 1 exactly when the row subset is
    contained in the column subset.
    """
    if not 0 <= i <= j <= n:
        raise ValueError(f"need 0 <= i <= j <= n, got i={i}, j={j}, n={n}")
    rows, cols = subset_masks(n, i), subset_masks(n, j)
    index = {t: c for c, t in enumerate(cols)}
    out = []
    for s in rows:
        row = [0] * len(cols)
        outside = [1 << x for x in range(1, n + 1) if not s >> x & 1]
        for extra in itertools.combinations(outside, j - i):
            row[index[s | sum(extra)]] = 1
        out.append(row)
    return Matrix._make(len(cols), out, [1] * len(rows))
