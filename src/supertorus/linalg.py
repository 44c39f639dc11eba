"""Dense exact rational linear algebra and Boolean-poset incidence matrices.

Eliminations run on integer rows, each row scaled by the lcm of its
denominators.  A reduction modulo a fixed large prime certifies full rank,
since the rank modulo a prime never exceeds the rank over the rationals.
One exact engine, integer Gauss-Jordan on primitive rows, serves the rank
when that certificate fails, reduced echelon forms, kernels and solves.
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

# Fractions are immutable, so incidence matrices share these entries.
_ONE = Fraction(1)
_ZERO = Fraction(0)


class Matrix:
    """Immutable dense matrix of Fractions, row major."""

    __slots__ = ("nrows", "ncols", "_data")

    def __init__(self, nrows: int, ncols: int, entries: Iterable[Fraction] | None = None):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.nrows = nrows
        self.ncols = ncols
        if entries is None:
            self._data = [[_ZERO] * ncols for _ in range(nrows)]
        else:
            # Fractions are immutable, so entries that already are one are kept
            flat = [e if type(e) is Fraction else Fraction(e) for e in entries]
            if len(flat) != nrows * ncols:
                raise ValueError(
                    f"expected {nrows * ncols} entries, got {len(flat)}"
                )
            self._data = [flat[r * ncols : (r + 1) * ncols] for r in range(nrows)]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
        return cls(nrows, ncols, [x for row in rows for x in row])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], nrows: int | None = None) -> "Matrix":
        if columns:
            nrows = len(columns[0])
        elif nrows is None:
            nrows = 0
        return cls.from_rows(
            [[col[r] for col in columns] for r in range(nrows)]
            if columns
            else [[] for _ in range(nrows)]
        )

    @classmethod
    def identity(cls, k: int) -> "Matrix":
        m = cls(k, k)
        for i in range(k):
            m._data[i][i] = Fraction(1)
        return m

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        r, c = key
        return self._data[r][c]

    def row(self, r: int) -> list[Fraction]:
        return list(self._data[r])

    def column(self, c: int) -> list[Fraction]:
        return [self._data[r][c] for r in range(self.nrows)]

    def rows(self) -> list[list[Fraction]]:
        return [list(row) for row in self._data]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.shape == other.shape
            and self._data == other._data
        )

    def __hash__(self):
        return hash((self.shape, tuple(tuple(r) for r in self._data)))

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols})"

    def transpose(self) -> "Matrix":
        return Matrix.from_rows(
            [[self._data[r][c] for r in range(self.nrows)] for c in range(self.ncols)]
            if self.nrows
            else [[] for _ in range(self.ncols)]
        )

    def mat_vec(self, v: Sequence) -> list[Fraction]:
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        vv = [Fraction(x) for x in v]
        return [
            sum((row[c] * vv[c] for c in range(self.ncols)), Fraction(0))
            for row in self._data
        ]

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions mismatch")
        out = Matrix(self.nrows, other.ncols)
        for r in range(self.nrows):
            row = self._data[r]
            for c in range(other.ncols):
                out._data[r][c] = sum(
                    (row[k] * other._data[k][c] for k in range(self.ncols)),
                    Fraction(0),
                )
        return out

    def scaled_integer_rows(self) -> list[list[int]]:
        """Each row times the lcm of its denominators; rank preserving."""
        return [_integer_row(row) for row in self._data]

    def rank(self) -> int:
        if self.nrows == 0 or self.ncols == 0:
            return 0
        ints = self.scaled_integer_rows()
        r = _modp_rank(ints)
        if r == min(self.nrows, self.ncols):
            # full rank modulo the prime certifies full rank over Q
            return r
        return _bareiss_rank(ints)

    def is_invertible(self) -> bool:
        if self.nrows != self.ncols:
            raise ValueError("invertibility requires a square matrix")
        return self.rank() == self.nrows

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        rows = self.scaled_integer_rows()
        pivots = _integer_rref(rows, self.ncols)
        out = Matrix(self.nrows, self.ncols)
        for r, p in enumerate(pivots):
            out._data[r] = [Fraction(x, rows[r][p]) if x else _ZERO for x in rows[r]]
        return out, tuple(pivots)

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
        aug = [
            _integer_row(row + [v[r] for v in vectors])
            for r, row in enumerate(self._data)
        ]
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

    def coordinates(self, v: Sequence) -> list[Fraction] | None:
        """Exact coordinates of v in the column span; None when not in span."""
        return self.solve_many([v])[0]

    def to_csv(self) -> str:
        """Serialize with a leading "rows,cols" line; entries as p or p/q."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([self.nrows, self.ncols])
        for row in self._data:
            writer.writerow([str(x) for x in row])
        return buf.getvalue()


def _integer_row(row: Sequence[Fraction | int]) -> list[int]:
    """The row times the lcm of its denominators."""
    if all(x.denominator == 1 for x in row):
        return [x.numerator for x in row]
    scale = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


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
    """Rank modulo the prime p; always a lower bound for the rank over Q."""
    if not int_rows or not int_rows[0]:
        return 0
    p = _CERT_PRIME
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
        below = a[rank + 1 :, col]
        hot = np.nonzero(below)[0]
        if hot.size:
            rows_idx = rank + 1 + hot
            factors = a[rows_idx, col][:, None]
            a[rows_idx, col:] = (a[rows_idx, col:] - factors * a[rank, col:]) % p
        rank += 1
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
    out = Matrix(len(rows), len(cols))
    out._data = [[_ONE if s & t == s else _ZERO for t in cols] for s in rows]
    return out
