"""``linalg`` as it was before two of its steps were made cheaper.

``frac`` is the parse from before it built its Fraction from the integer parts
of its own regex match: the string was checked by the regex, then parsed a
second time by ``Fraction(str)``.  The arithmetic below is ``Vector`` and
``Matrix`` arithmetic from before its results were built with the trusted
constructors: each result went through the public ``Vector(...)`` or
``Matrix(...)``, which run every entry through ``frac`` again.  ``rank`` is
the rank from before it counted the pivots of the echelon form directly: it
built the padded reduced rows of ``_rref`` and kept only their pivot list.
Tests compare the library against them."""

import re
from fractions import Fraction

from nambucat.linalg import Matrix, Vector, _rref

_FRAC_RE = re.compile(r"[+-]?\d+(/\d+)?")


def frac(x) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if not _FRAC_RE.fullmatch(x.strip()):
            raise ValueError(f"not a 'p' or 'p/q' rational string: {x!r}")
        return Fraction(x)
    raise TypeError(f"not a rational scalar: {x!r}")


# ------------------------------------------------------------ coercing arithmetic

def vector_add(u: Vector, v: Vector) -> Vector:
    if u.dim != v.dim:
        raise ValueError("dimension mismatch")
    return Vector(a + b for a, b in zip(u.entries, v.entries))


def vector_sub(u: Vector, v: Vector) -> Vector:
    if u.dim != v.dim:
        raise ValueError("dimension mismatch")
    return Vector(a - b for a, b in zip(u.entries, v.entries))


def vector_neg(u: Vector) -> Vector:
    return Vector(-a for a in u.entries)


def vector_scale(u: Vector, c) -> Vector:
    c = frac(c)
    return Vector(c * a for a in u.entries)


def vector_zero(dim: int) -> Vector:
    return Vector([0] * dim)


def vector_basis(dim: int, i: int) -> Vector:
    return Vector([1 if j == i else 0 for j in range(dim)])


def kron_vec(a: Vector, b: Vector) -> Vector:
    return Vector([x * y for x in a.entries for y in b.entries])


def matrix_add(m: Matrix, n: Matrix) -> Matrix:
    if (m.rows, m.cols) != (n.rows, n.cols):
        raise ValueError("shape mismatch")
    return Matrix(m.rows, m.cols, (a + b for a, b in zip(m.entries, n.entries)))


def matrix_sub(m: Matrix, n: Matrix) -> Matrix:
    if (m.rows, m.cols) != (n.rows, n.cols):
        raise ValueError("shape mismatch")
    return Matrix(m.rows, m.cols, (a - b for a, b in zip(m.entries, n.entries)))


def matrix_neg(m: Matrix) -> Matrix:
    return Matrix(m.rows, m.cols, (-a for a in m.entries))


def matrix_scale(m: Matrix, c) -> Matrix:
    c = frac(c)
    return Matrix(m.rows, m.cols, (c * a for a in m.entries))


def matrix_identity(n: int) -> Matrix:
    return Matrix(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])


def matrix_zero(rows: int, cols: int) -> Matrix:
    return Matrix(rows, cols, [0] * (rows * cols))


def kron(a: Matrix, b: Matrix) -> Matrix:
    out = []
    for i in range(a.rows):
        for k in range(b.rows):
            for j in range(a.cols):
                aij = a[i, j]
                for l in range(b.cols):
                    out.append(aij * b[k, l])
    return Matrix(a.rows * b.rows, a.cols * b.cols, out)


def rank(m: Matrix) -> int:
    """Exact rank."""
    _, pivots = _rref(m.row_list())
    return len(pivots)
