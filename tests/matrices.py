"""Matrix constructors and the matrix product that only the tests use,
built on ``linalg.Matrix``'s public constructor, rows and columns."""

from supertorus import linalg as la


def from_rows(rows) -> la.Matrix:
    """The matrix with these rows; a ragged list is a ValueError."""
    ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged rows")
    return la.Matrix(len(rows), ncols, [x for row in rows for x in row])


def identity(k: int) -> la.Matrix:
    return la.Matrix(k, k, [int(r == c) for r in range(k) for c in range(k)])


def matmul(a: la.Matrix, b: la.Matrix) -> la.Matrix:
    """The product a b, in exact arithmetic."""
    if a.ncols != b.nrows:
        raise ValueError("inner dimensions mismatch")
    columns = [b.column(c) for c in range(b.ncols)]
    return la.Matrix(a.nrows, b.ncols, [
        sum(x * y for x, y in zip(row, column)) for row in a.rows() for column in columns
    ])
