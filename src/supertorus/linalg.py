"""Sparse exact rational linear algebra and Boolean-poset incidence matrices.

A matrix stores each row as its nonzeros, a dict from column to integer,
over one denominator: row r is kept as its entries times the lcm of their
reduced denominators, together with that lcm, and its entries read back as
Fractions.  The rank splits the nonzeros into the connected components of
the row-column graph by union-find and adds up the ranks of the components.
A component with one row or one column has rank 1; any other hands its
stored rows to a reduction modulo a fixed large prime, filled straight from
their nonzeros, which certifies full rank, since the rank modulo a prime
never exceeds the rank over the rationals.  One exact engine, integer
Gauss-Jordan on copies of the sparse rows, serves the rank of a component
when that certificate fails, reduced echelon forms, kernels and solves.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

# Largest Mersenne prime below 2**31; products of two residues fit in int64.
_CERT_PRIME = 2**31 - 1

# Fractions are immutable, so the rows read back share these entries.
_ONE = Fraction(1)
_ZERO = Fraction(0)


class Matrix:
    """Immutable sparse rational matrix, row major.

    Row r is stored as the dict ``_rows[r]`` from each column where the row
    is nonzero to an integer, over the positive denominator ``_dens[r]``, the
    lcm of the row's reduced denominators, so equal matrices store equal
    rows.  Only this module reads the storage.
    """

    __slots__ = ("nrows", "ncols", "_rows", "_dens")

    def __init__(self, nrows: int, ncols: int, entries: Iterable[Fraction] | None = None):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.nrows = nrows
        self.ncols = ncols
        if entries is None:
            self._rows = [{} for _ in range(nrows)]
            self._dens = [1] * nrows
            return
        flat = [_rational(e) for e in entries]
        if len(flat) != nrows * ncols:
            raise ValueError(f"expected {nrows * ncols} entries, got {len(flat)}")
        self._rows, self._dens = _scaled_rows(
            dict(enumerate(flat[r * ncols : (r + 1) * ncols])) for r in range(nrows)
        )

    @classmethod
    def _make(cls, ncols: int, rows: list[dict[int, int]], dens: list[int]) -> "Matrix":
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
            if not 0 <= c < ncols:
                raise IndexError(f"column {c} out of range for {ncols} columns")
            spread[r][c] = x
        return cls._make(ncols, *_scaled_rows(spread))

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
        return cls._make(k, [{r: 1} for r in range(k)], [1] * k)

    def _column_index(self, c: int) -> int:
        """c as a list index into a dense row: negative counts from the end."""
        if not -self.ncols <= c < self.ncols:
            raise IndexError(f"column {c} out of range for {self.ncols} columns")
        return c % self.ncols

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        r, c = key
        return Fraction(self._rows[r].get(self._column_index(c), 0), self._dens[r])

    def row(self, r: int) -> list[Fraction]:
        return _fractions(self._rows[r], self._dens[r], self.ncols)

    def column(self, c: int) -> list[Fraction]:
        c = self._column_index(c)
        return [Fraction(row.get(c, 0), den) for row, den in zip(self._rows, self._dens)]

    def rows(self) -> list[list[Fraction]]:
        return [_fractions(row, den, self.ncols) for row, den in zip(self._rows, self._dens)]

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
        return hash((self.shape, tuple(map(tuple, self.rows()))))

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols})"

    def transpose(self) -> "Matrix":
        return Matrix._from_nonzeros(self.ncols, self.nrows, (
            (c, r, x if den == 1 else Fraction(x, den))
            for r, (row, den) in enumerate(zip(self._rows, self._dens))
            for c, x in row.items()
        ))

    def mat_vec(self, v: Sequence) -> list[Fraction]:
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        vv = [_rational(x) for x in v]
        return [
            sum((vv[c] * x for c, x in row.items()), _ZERO) / den
            for row, den in zip(self._rows, self._dens)
        ]

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions mismatch")
        products = []
        for row, den in zip(self._rows, self._dens):
            acc: dict[int, Fraction] = {}
            for k, a in row.items():
                f = Fraction(a, den * other._dens[k])
                for c, b in other._rows[k].items():
                    acc[c] = acc.get(c, _ZERO) + f * b
            products.append(acc)
        return Matrix._make(other.ncols, *_scaled_rows(products))

    def rank(self) -> int:
        """The sum of the ranks of the connected components.  A component
        with one row or one column has rank 1; any other is ranked on its
        stored rows and the sorted list of their columns."""
        total = 0
        for block in _components(self._rows):
            if len(block) == 1:
                total += 1
                continue
            rows = [self._rows[r] for r in block]
            cols = sorted({c for row in rows for c in row})
            total += 1 if len(cols) == 1 else _block_rank(rows, cols)
        return total

    def is_invertible(self) -> bool:
        if self.nrows != self.ncols:
            raise ValueError("invertibility requires a square matrix")
        return self.rank() == self.nrows

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        rows = [dict(row) for row in self._rows]
        pivots = _integer_rref(rows)
        dens = [1] * self.nrows
        for r, p in enumerate(pivots):
            # row r over its pivot entry, which the gcd of the row divides
            g = math.gcd(*rows[r].values())
            if rows[r][p] < 0:
                g = -g
            rows[r] = {c: x // g for c, x in rows[r].items()}
            dens[r] = rows[r][p]
        return Matrix._make(self.ncols, rows, dens), tuple(pivots)

    def kernel_basis(self) -> list[list[Fraction]]:
        """Canonical basis of the right null space, one vector per free column."""
        rows = [dict(row) for row in self._rows]
        pivots = _integer_rref(rows)
        pivot_set = set(pivots)
        basis = {c: [_ZERO] * self.ncols for c in range(self.ncols) if c not in pivot_set}
        for c, v in basis.items():
            v[c] = _ONE
        # a reduced row is nonzero off its pivot on free columns only
        for row, p in zip(rows, pivots):
            for c, x in row.items():
                if c != p:
                    basis[c][p] = Fraction(-x, row[p])
        return list(basis.values())

    def solve_many(self, vectors: Sequence[Sequence]) -> list[list[Fraction] | None]:
        """Coordinates of each vector (of ints or Fractions) in the column
        span, or None if outside."""
        for v in vectors:
            if len(v) != self.nrows:
                raise ValueError("vector length mismatch")
        rhs_rows, rhs_dens = _scaled_rows(
            {k: _rational(v[r]) for k, v in enumerate(vectors)} for r in range(self.nrows)
        )
        n = self.ncols
        aug = []
        for row, den, rhs, rhs_den in zip(self._rows, self._dens, rhs_rows, rhs_dens):
            scale = math.lcm(den, rhs_den)
            a, b = scale // den, scale // rhs_den
            aug.append({c: x * a for c, x in row.items()} | {n + k: x * b for k, x in rhs.items()})
        pivots = _integer_rref(aug)
        results: list[list[Fraction] | None] = [[_ZERO] * n for _ in vectors]
        # the rows with a pivot among the vectors come last
        for row, p in zip(aug, pivots):
            for c, x in row.items():
                if c >= n and p >= n:
                    # it needs a pivot among the vectors: outside the span
                    results[c - n] = None
                elif c >= n:
                    results[c - n][p] = Fraction(x, row[p])
        return results

    def to_csv(self) -> str:
        """Serialize with a leading "rows,cols" line; entries as p or p/q.
        No cell needs csv quoting, so the lines are joined directly."""
        lines = [f"{self.nrows},{self.ncols}"]
        lines.extend(",".join(map(str, row)) for row in self.rows())
        return "\n".join(lines) + "\n"


def _rational(x) -> int | Fraction:
    """A matrix entry or an element coefficient as an int or a Fraction."""
    if type(x) is int or type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(f"expected an exact rational, got the float {x!r}")
    return Fraction(x)


def _scaled_rows(
    spread: Iterable[dict[int, int | Fraction]]
) -> tuple[list[dict[int, int]], list[int]]:
    """The stored rows and denominators of rows given as dicts from column to
    int or Fraction: each row's nonzeros times the lcm of their
    denominators, and that lcm."""
    rows, dens = [], []
    for entries in spread:
        den = math.lcm(*(x.denominator for x in entries.values()))
        if den == 1:
            rows.append({c: x.numerator for c, x in entries.items() if x})
        else:
            rows.append({c: x.numerator * (den // x.denominator) for c, x in entries.items() if x})
        dens.append(den)
    return rows, dens


def _fractions(row: dict[int, int], den: int, ncols: int) -> list[Fraction]:
    out = [_ZERO] * ncols
    for c, x in row.items():
        out[c] = Fraction(x, den) if den != 1 else Fraction(x)
    return out


def _components(rows: list[dict[int, int]]) -> Iterable[list[int]]:
    """The row sets, each in increasing order, of the connected components
    of the graph joining each row to the columns where it is nonzero; zero
    rows belong to none.

    Union-find over the columns: each row joins its columns to the root of
    its first one, and path halving keeps the trees shallow.
    """
    parent: dict[int, int] = {}
    firsts = []
    for r, row in enumerate(rows):
        if not row:
            continue
        cols = iter(row)
        root = next(cols)
        root = parent.setdefault(root, root)
        while parent[root] != root:
            parent[root] = root = parent[parent[root]]
        for c in cols:
            c = parent.setdefault(c, c)
            while parent[c] != c:
                parent[c] = c = parent[parent[c]]
            if c != root:
                parent[c] = root
        firsts.append((r, root))
    members: dict[int, list[int]] = {}
    for r, c in firsts:
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        members.setdefault(c, []).append(r)
    return members.values()


def _block_rank(rows: list[dict[int, int]], cols: list[int]) -> int:
    """Rank of one component, given its stored rows and their sorted columns:
    the mod-p rank when it is full, which certifies it, else the exact rank."""
    r = _modp_rank(rows, cols)
    if r == min(len(rows), len(cols)):
        return r
    return _bareiss_rank(rows)


def _integer_rref(rows: list[dict[int, int]]) -> list[int]:
    """Gauss-Jordan elimination in place of integer rows stored as their
    nonzeros; returns the pivots.

    Only columns where some row is nonzero are visited, in order: an update
    fills in only the pivot row's columns.  A column's pivot is its first
    nonzero entry at or below the current row; each updated row is divided
    by the gcd of its entries.  Row r below the rank ends as the rational
    reduced echelon row r times its pivot entry.
    """
    nrows = len(rows)
    pivots: list[int] = []
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


def _bareiss_rank(rows: list[dict[int, int]]) -> int:
    """Exact rank of integer rows stored as their nonzeros, by the engine on
    copies, since it eliminates in place: the fallback of ``Matrix.rank``,
    under the name ``perfbench/tracing.py`` rebinds to count it."""
    return len(_integer_rref([dict(row) for row in rows]))


def _modp_rank(rows: list[dict[int, int]], cols: list[int]) -> int:
    """Rank modulo the prime p of integer rows stored as their nonzeros,
    on the sorted columns ``cols`` that hold them; always a lower bound for
    the rank over Q.

    Each entry is reduced modulo p before it reaches numpy, so entries of
    any size take the same path.  Each column's pivot is the candidate row
    with the fewest nonzeros left, which keeps the fill-in of the rows it
    updates low.
    """
    if not rows or not cols:
        return 0
    import numpy as np  # here, so that importing the package leaves numpy unloaded

    p = _CERT_PRIME
    index = {c: k for k, c in enumerate(cols)}
    a = np.zeros((len(rows), len(cols)), dtype=np.int64)
    a[
        [r for r, row in enumerate(rows) for _ in row],
        [index[c] for row in rows for c in row],
    ] = [x % p for row in rows for x in row.values()]
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
        outside = [1 << x for x in range(1, n + 1) if not s >> x & 1]
        out.append({index[s | sum(extra)]: 1 for extra in itertools.combinations(outside, j - i)})
    return Matrix._make(len(cols), out, [1] * len(rows))
