"""Sparse exact rational linear algebra and Boolean-poset incidence matrices.

A matrix stores each row as its nonzeros, a dict from column to the entry
as given, an int or a Fraction, and its entries read back as Fractions.  One
exact elimination engine works on integer copies of those rows, each times
the lcm of its denominators (fraction-free, after Bareiss): forward
elimination by insertion, which takes the rows in turn and clears each at
its lowest column by the row kept there until it is kept under a column of
its own or is empty, so finding a pivot is one lookup.  The rank is forward
elimination alone; reduced echelon forms, kernels and solves add back
substitution.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

# Fractions are immutable, so the rows read back share these entries.
_ONE = Fraction(1)
_ZERO = Fraction(0)


class Matrix:
    """Sparse rational matrix, row major; not frozen, but no operation
    mutates one.

    Row r is stored as the dict ``_rows[r]`` from each column where the row
    is nonzero to its entry, an int or a Fraction as given, so an integral
    matrix stores ints.  Only this module reads the storage.
    """

    __slots__ = ("nrows", "ncols", "_rows")

    def __init__(self, nrows: int, ncols: int, entries: Iterable[Fraction] | None = None):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.nrows = nrows
        self.ncols = ncols
        if entries is None:
            self._rows = [{} for _ in range(nrows)]
            return
        flat = [_rational(e) for e in entries]
        if len(flat) != nrows * ncols:
            raise ValueError(f"expected {nrows * ncols} entries, got {len(flat)}")
        self._rows = [
            {c: x for c, x in enumerate(flat[r * ncols : (r + 1) * ncols]) if x}
            for r in range(nrows)
        ]

    @classmethod
    def _make(cls, ncols: int, rows: list[dict[int, int | Fraction]]) -> "Matrix":
        """The matrix of stored rows, taken as given."""
        out = cls.__new__(cls)
        out.nrows, out.ncols, out._rows = len(rows), ncols, rows
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
        return cls._make(ncols, [{c: x for c, x in row.items() if x} for row in spread])

    def _column_index(self, c: int) -> int:
        """c as a list index into a dense row: negative counts from the end."""
        if not -self.ncols <= c < self.ncols:
            raise IndexError(f"column {c} out of range for {self.ncols} columns")
        return c % self.ncols

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        r, c = key
        return Fraction(self._rows[r].get(self._column_index(c), 0))

    def row(self, r: int) -> list[Fraction]:
        out = [_ZERO] * self.ncols
        for c, x in self._rows[r].items():
            out[c] = Fraction(x)
        return out

    def column(self, c: int) -> list[Fraction]:
        c = self._column_index(c)
        return [Fraction(row.get(c, 0)) for row in self._rows]

    def rows(self) -> list[list[Fraction]]:
        return [self.row(r) for r in range(self.nrows)]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.shape == other.shape
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.shape, tuple(map(tuple, self.rows()))))

    def __reduce__(self):
        # _make takes its rows as given, so it gets copies
        return (Matrix._make, (self.ncols, [dict(row) for row in self._rows]))

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols})"

    def transpose(self) -> "Matrix":
        out = [{} for _ in range(self.ncols)]
        for r, row in enumerate(self._rows):
            for c, x in row.items():
                out[c][r] = x
        return Matrix._make(self.nrows, out)

    def mat_vec(self, v: Sequence) -> list[Fraction]:
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        vv = [_rational(x) for x in v]
        return [sum((vv[c] * x for c, x in row.items()), _ZERO) for row in self._rows]

    def rank(self) -> int:
        """The number of pivots forward elimination finds in integer copies
        of the stored rows."""
        return _bareiss_rank(self._rows)

    def is_invertible(self) -> bool:
        if self.nrows != self.ncols:
            raise ValueError("invertibility requires a square matrix")
        return self.rank() == self.nrows

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        rows = _integer_rows(self._rows)
        pivots = _integer_rref(rows)
        for r, p in enumerate(pivots):
            lead = rows[r][p]
            rows[r] = {c: Fraction(x, lead) for c, x in rows[r].items()}
        return Matrix._make(self.ncols, rows), tuple(pivots)

    def kernel_basis(self) -> list[list[Fraction]]:
        """Canonical basis of the right null space, one vector per free column."""
        rows = _integer_rows(self._rows)
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
        n = self.ncols
        aug = _integer_rows(
            row | {n + k: _rational(v[r]) for k, v in enumerate(vectors)}
            for r, row in enumerate(self._rows)
        )
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


def _integer_rows(rows: Iterable[dict[int, int | Fraction]]) -> list[dict[int, int]]:
    """The engine's integer copies of rows given as dicts from column to int
    or Fraction: each row's nonzeros times the lcm of their denominators."""
    out = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row.values()))
        if den == 1:
            out.append({c: x.numerator for c, x in row.items() if x})
        else:
            out.append({c: x.numerator * (den // x.denominator) for c, x in row.items() if x})
    return out


def _cleared(row: dict[int, int], prow: dict[int, int], c: int) -> dict[int, int]:
    """Row less the multiple of the pivot row ``prow`` that clears column c,
    both times the least factors that keep them integral, and then divided
    by the gcd of its entries; may update ``row`` in place."""
    p, f = prow[c], row[c]
    g = math.gcd(p, f)
    a, b = p // g, f // g
    if a != 1:
        row = {col: a * x for col, x in row.items()}
    for col, y in prow.items():
        row[col] = x = row.get(col, 0) - b * y
        if not x:
            del row[col]
    g = math.gcd(*row.values())
    return {col: x // g for col, x in row.items()} if g > 1 else row


def _echelon(rows: list[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Forward elimination by insertion, in place, of integer rows stored as
    their nonzeros: each row in turn is cleared at its lowest column by the
    row kept there until it is kept under that column, its pivot, or is
    empty.  Returns the kept rows by pivot; none is updated once kept."""
    kept: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            c = min(row)
            prow = kept.get(c)
            if prow is None:
                kept[c] = row
                break
            row = _cleared(row, prow, c)
    return kept


def _integer_rref(rows: list[dict[int, int]]) -> list[int]:
    """The exact elimination engine: forward elimination, then back
    substitution, which clears each pivot column from the kept rows with
    smaller pivots, last pivot first; in place, and returns the pivots in
    increasing order.

    Row r below the rank ends as the rational reduced echelon row r times
    its pivot entry.  That form is unique, so the order in which the rows
    are taken leaves it unchanged.
    """
    kept = _echelon(rows)
    pivots = sorted(kept)
    for t in range(len(pivots) - 1, 0, -1):
        c = pivots[t]
        for p in pivots[:t]:
            if c in kept[p]:
                kept[p] = _cleared(kept[p], kept[c], c)
    rows[:] = [kept[p] for p in pivots] + [{} for _ in range(len(rows) - len(pivots))]
    return pivots


def _bareiss_rank(rows: list[dict[int, int | Fraction]]) -> int:
    """Exact rank of stored rows, by forward elimination on their integer
    copies, since it works in place; every rank runs it once, and
    ``perfbench/tracing.py`` rebinds the name to count them."""
    return len(_echelon(_integer_rows(rows)))


def subsets_lex(n: int, k: int) -> list[tuple[int, ...]]:
    """Size-k subsets of 1..n in lexicographic order on sorted tuples."""
    return list(itertools.combinations(range(1, n + 1), k))


def subset_masks(n: int, k: int) -> list[int]:
    """The subsets of ``subsets_lex(n, k)``, in that order, as bitmasks with
    bit x set for each member x."""
    # masks[s] holds the s-subsets of x..n as x falls from n to 1; in
    # lexicographic order those that hold x come first.
    masks = [[0]] + [[]] * k
    for x in range(n, 0, -1):
        for s in range(k, 0, -1):
            masks[s] = [m | 1 << x for m in masks[s - 1]] + masks[s]
    return masks[k]


def _bracket_scan(opens: int, closes: int) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """The ballot bracketing of two disjoint masks, from bit 0 up: a bit of
    ``opens`` opens an arc and one of ``closes`` closes the nearest open arc.
    Returns the arcs (open, close), the closers that found none, the openers left."""
    arcs, stray, opened = [], [], []
    rest = opens | closes
    while rest:
        low = rest & -rest
        rest ^= low
        x = low.bit_length() - 1
        if opens & low:
            opened.append(x)
        elif opened:
            arcs.append((opened.pop(), x))
        else:
            stray.append(x)
    return arcs, stray, opened


def boolean_incidence(n: int, i: int, j: int) -> Matrix:
    """Containment matrix between size-i and size-j subsets of 1..n.

    Rows follow the size-i subsets and columns the size-j subsets, both in
    lexicographic order; the entry is 1 exactly when the row subset is
    contained in the column subset.
    """
    if not 0 <= i <= j <= n:
        raise ValueError(f"need 0 <= i <= j <= n, got i={i}, j={j}, n={n}")

    memo: dict[tuple[int, int, int], list[list[int]]] = {}

    def columns(m: int, a: int, b: int) -> list[list[int]]:
        # Each row's columns, ascending, for the a- and b-subsets of an
        # m-set, 0 <= a <= b <= m.  The subsets that hold its first element
        # come first, and the first C(m - 1, b - 1) columns hold it: a row
        # that holds it meets only those, a row that does not meets those
        # and the rest.  The empty row meets every column, a = b is the
        # identity, and b = m leaves one column.
        got = memo.get((m, a, b))
        if got is None:
            if a == 0:
                got = [list(range(math.comb(m, b)))]
            elif a == b:
                got = [[r] for r in range(math.comb(m, a))]
            elif b == m:
                got = [[0]] * math.comb(m, a)
            else:
                shift = math.comb(m - 1, b - 1)
                got = columns(m - 1, a - 1, b - 1) + [
                    low + [c + shift for c in high]
                    for low, high in zip(columns(m - 1, a, b - 1), columns(m - 1, a, b))
                ]
            memo[m, a, b] = got
        return got

    return Matrix._make(math.comb(n, j), [dict.fromkeys(row, 1) for row in columns(n, i, j)])


def _comb(n: int, k: int) -> int:
    """C(n, k), or 0 outside 0 <= k <= n."""
    return math.comb(n, k) if 0 <= k <= n else 0


def _complementary_coefficients(n: int, i: int) -> list[Fraction]:
    """c_0..c_i such that N[T, S] = c_|T & S|, over the (n - i)-subsets T and
    the i-subsets S of 1..n, inverts ``boolean_incidence(n, i, n - i)``.

    Entry (S, S') of the product with |S & S'| = r adds c_k once for each
    (n - i)-subset T above S with |T & S'| = k: T takes k - r of the i - r
    elements of S' outside S, and its other n - 2i - k + r elements from the
    n - 2i + r outside S | S'.  The product is the identity when, for
    r = 0..i, sum_k C(i - r, k - r) C(n - 2i + r, n - 2i - k + r) c_k = [r = i];
    the system is upper triangular with diagonal C(n - 2i + r, n - 2i) > 0,
    so back substitution solves it exactly.
    """

    m = n - 2 * i
    c = [_ZERO] * (i + 1)
    for r in range(i, -1, -1):
        rest = sum(_comb(i - r, k - r) * _comb(m + r, m - k + r) * c[k] for k in range(r + 1, i + 1))
        c[r] = Fraction(int(r == i) - rest) / math.comb(m + r, m)
    return c


def certify_complementary_block(w: Matrix, n: int, i: int) -> bool:
    """Whether w, the block ``boolean_incidence(n, i, n - i)`` as built, is
    invertible, by an exact inverse up to scale; 2i <= n <= 15.

    With c from the triangular counting system and L the lcm of their
    denominators, N[T, S] = L c_|T & S|.  True exactly when w is a 0/1
    matrix and every entry of w N equals that of L times the identity, which
    alone proves det w != 0, whatever suggested N; False otherwise, which
    leaves the rank open.  Each row of N, shifted by top = max |L c_k| to be
    nonnegative, is packed into one integer of equal-width fields, one per
    i-subset, and row r of w N is the sum of the packed rows at the columns
    of row r of w.
    """
    if not 0 <= 2 * i <= n <= 15:
        raise ValueError(f"need 0 <= 2i <= n <= 15, got i={i}, n={n}")
    small, large = subset_masks(n, i), subset_masks(n, n - i)
    size = len(small)
    if w.shape != (size, size) or not all(w._rows):
        return False
    if set().union(*map(dict.values, w._rows)) != {1}:
        return False
    c = _complementary_coefficients(n, i)
    scale = math.lcm(*(x.denominator for x in c))
    scaled = [int(x * scale) for x in c]
    top = max(map(abs, scaled))
    weight = max(map(len, w._rows))
    # A field of row r of w N sums at most `weight` shifted entries, each in
    # 0..2 top, and should read top per summed row, plus L on the diagonal.
    # Fields of `width` bytes hold both bounds, so none carries into the next
    # and the sum equals the expected integer exactly when every field does.
    width = (max(2 * top * weight, top * weight + scale).bit_length() + 7) // 8
    # byte s of member[x] is 1 when x is in the s-th i-subset, so summing
    # member[x] over the members x of T puts |T & S| in the byte of S
    member = [int.from_bytes(bytes(m >> x & 1 for m in small), "little") for x in range(n + 1)]
    tables = [bytes((x + top) >> 8 * b & 255 for x in scaled).ljust(256, b"\0")
              for b in range(width)]
    field = bytearray(width * size)
    packed = []
    for t in large:
        meets = sum(member[x] for x in range(1, n + 1) if t >> x & 1).to_bytes(size, "little")
        for b, table in enumerate(tables):
            field[b::width] = meets.translate(table)
        packed.append(int.from_bytes(field, "little"))
    ones = int.from_bytes(b"\1".ljust(width, b"\0") * size, "little")
    return all(
        sum(map(packed.__getitem__, row)) == len(row) * top * ones + (scale << 8 * width * r)
        for r, row in enumerate(w._rows)
    )
