"""Exact rational linear algebra: vectors, matrices, nullspaces, ranks, determinants.

Everything is built on ``fractions.Fraction``, and one elimination routine
(``_echelon``, on rows of Python integers) serves RREF, rank, solving and
nullspaces, so all results are exact; no operation ever rounds.  Rows that
arrive as integers, such as the equations ``spaces`` assembles, need no
``Fraction`` work; rational rows are first scaled to integers.  Solution-space
bases are returned in reduced echelon normal form, which makes them
canonical: two calls on equal matrices return identical bases.

Only the public constructors coerce: ``Vector(...)``, ``Matrix(...)``,
``Matrix.from_rows``, ``from_columns`` and ``diagonal`` run every entry through
``frac``, since they take caller input.  Every arithmetic result (sums,
differences, negations, scalings, products, Kronecker products, transposes,
zeros, identities and basis vectors) and every value the engine already holds
as Fractions (decoded files, elimination results and the kernels' row tables)
is wrapped by ``Vector.trusted`` or ``Matrix.trusted``, which take the
entries as they are: a sum or product of Fractions is a Fraction.  ``scale``
still coerces its scalar.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

Rational = Union[Fraction, int, str]

_FRAC_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?")
_ZERO, _ONE = Fraction(0), Fraction(1)       # shared: Fractions are immutable


def frac(x: Rational) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact Fraction.  A
    string is checked by one regex and built from its match's integer parts."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        m = _FRAC_RE.fullmatch(x.strip())
        if not m:
            raise ValueError(f"not a 'p' or 'p/q' rational string: {x!r}")
        p, q = m.groups()
        return Fraction(int(p)) if q is None else Fraction(int(p), int(q))
    raise TypeError(f"not a rational scalar: {x!r}")


def frac_str(x: Fraction) -> str:
    """Serialize a rational as "p" or "p/q" (always lowest terms, q > 0)."""
    return str(x)


class Vector:
    """Immutable exact-rational vector."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Rational]):
        self.entries = tuple(frac(e) for e in entries)

    @classmethod
    def trusted(cls, entries: Iterable[Fraction]) -> "Vector":
        """A vector of entries that already are Fractions, taken without
        coercion: for values the engine holds, never for caller input."""
        v = object.__new__(cls)
        v.entries = tuple(entries)
        return v

    @classmethod
    def zero(cls, dim: int) -> "Vector":
        return cls.trusted((_ZERO,) * dim)

    @classmethod
    def basis(cls, dim: int, i: int) -> "Vector":
        return cls.trusted(_ONE if j == i else _ZERO for j in range(dim))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __add__(self, other: "Vector") -> "Vector":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return Vector.trusted(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "Vector") -> "Vector":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return Vector.trusted(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "Vector":
        return Vector.trusted(-a for a in self.entries)

    def scale(self, c: Rational) -> "Vector":
        c = frac(c)
        return Vector.trusted(c * a for a in self.entries)

    def dot(self, other: "Vector") -> Fraction:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return sum((a * b for a, b in zip(self.entries, other.entries)), Fraction(0))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"Vector([{', '.join(frac_str(e) for e in self.entries)}])"


def kron_vec(a: Vector, b: Vector) -> Vector:
    """Kronecker (tensor) product of two coordinate vectors."""
    return Vector.trusted(x * y for x in a.entries for y in b.entries)


class Matrix:
    """Immutable exact-rational matrix, row-major storage."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[Rational]):
        self.rows = rows
        self.cols = cols
        self.entries = tuple(frac(e) for e in entries)
        if len(self.entries) != rows * cols:
            raise ValueError("entries length does not match rows*cols")

    @classmethod
    def trusted(cls, rows: int, cols: int, entries: Iterable[Fraction]) -> "Matrix":
        """A matrix of entries that already are Fractions, taken without
        coercion: for values the engine holds, never for caller input."""
        m = object.__new__(cls)
        m.rows, m.cols, m.entries = rows, cols, tuple(entries)
        if len(m.entries) != rows * cols:
            raise ValueError("entries length does not match rows*cols")
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Rational]]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, [e for row in rows for e in row])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.trusted(n, n, (_ONE if i == j else _ZERO for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls.trusted(rows, cols, (_ZERO,) * (rows * cols))

    @classmethod
    def diagonal(cls, diag: Sequence[Rational]) -> "Matrix":
        n = len(diag)
        return cls(n, n, [diag[i] if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def from_columns(cls, cols: Sequence[Vector]) -> "Matrix":
        if not cols:
            return cls(0, 0, [])
        d = cols[0].dim
        return cls(d, len(cols), [cols[j][i] for i in range(d) for j in range(len(cols))])

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return Vector.trusted(self.entries[i * self.cols:(i + 1) * self.cols])

    def col(self, j: int) -> Vector:
        return Vector.trusted(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_list(self) -> list:
        return [list(self.entries[i * self.cols:(i + 1) * self.cols]) for i in range(self.rows)]

    def sparse_rows(self) -> list:
        """Rows as {column: value} dicts of their nonzero entries."""
        return [{j: x for j, x in enumerate(row) if x} for row in self.row_list()]

    def apply(self, v: Vector) -> Vector:
        """Matrix-vector product."""
        if v.dim != self.cols:
            raise ValueError("dimension mismatch")
        e = self.entries
        c = self.cols
        return Vector.trusted(
            sum((e[i * c + j] * v.entries[j] for j in range(c) if v.entries[j]), Fraction(0))
            for i in range(self.rows)
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = []
        for i in range(self.rows):
            ri = self.entries[i * self.cols:(i + 1) * self.cols]
            for j in range(other.cols):
                out.append(sum((ri[k] * other.entries[k * other.cols + j]
                                for k in range(self.cols) if ri[k]), Fraction(0)))
        return Matrix.trusted(self.rows, other.cols, out)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix.trusted(self.rows, self.cols,
                              (a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix.trusted(self.rows, self.cols,
                              (a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return Matrix.trusted(self.rows, self.cols, (-a for a in self.entries))

    def scale(self, c: Rational) -> "Matrix":
        c = frac(c)
        return Matrix.trusted(self.rows, self.cols, (c * a for a in self.entries))

    def transpose(self) -> "Matrix":
        return Matrix.trusted(self.cols, self.rows,
                              (self.entries[i * self.cols + j]
                               for j in range(self.cols) for i in range(self.rows)))

    @property
    def T(self) -> "Matrix":
        return self.transpose()

    def power(self, k: int) -> "Matrix":
        """k-th power for square matrices; k = 0 gives the identity."""
        if self.rows != self.cols:
            raise ValueError("not square")
        if k < 0:
            raise ValueError("negative power")
        result = Matrix.identity(self.rows)
        for _ in range(k):
            result = result @ self
        return result

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self[i, j] == self[j, i] for i in range(self.rows) for j in range(i))

    def flatten(self) -> Vector:
        return Vector.trusted(self.entries)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        rows = "; ".join(
            " ".join(frac_str(self[i, j]) for j in range(self.cols))
            for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {rows})"


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product of matrices."""
    out = []
    for i in range(a.rows):
        for k in range(b.rows):
            for j in range(a.cols):
                aij = a[i, j]
                for l in range(b.cols):
                    out.append(aij * b[k, l])
    return Matrix.trusted(a.rows * b.rows, a.cols * b.cols, out)


class SparseMatrix:
    """Rows of a linear system as {column: value} dicts, the values ints or
    Fractions; absent entries are zero."""

    __slots__ = ("rows", "cols", "row_dicts")

    def __init__(self, cols: int, row_dicts: Sequence[dict]):
        self.rows = len(row_dicts)
        self.cols = cols
        self.row_dicts = row_dicts

    def sparse_rows(self) -> Sequence[dict]:
        return self.row_dicts


def _primitive(row: dict) -> dict:
    """Divide an integer row by the gcd of its entries, in place."""
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g
    return row


def _integer_row(row: dict) -> dict:
    """The nonzero entries of an integer or rational row, scaled to coprime
    integers; an integer row is only copied and divided by its gcd."""
    if all(type(x) is int for x in row.values()):
        return _primitive({j: x for j, x in row.items() if x})
    den = lcm(*(x.denominator for x in row.values()))
    return _primitive({j: x.numerator * (den // x.denominator)
                       for j, x in row.items() if x})


def _eliminate(row: dict, pivot: dict, c: int) -> None:
    """row <- b * row - a * pivot with a/b = row[c]/pivot[c] in lowest terms,
    which clears column c and keeps every entry an integer."""
    g = gcd(row[c], pivot[c])
    a, b = row[c] // g, pivot[c] // g
    if b != 1:
        for j in row:
            row[j] *= b
    for j, y in pivot.items():
        v = row.get(j, 0) - a * y
        if v:
            row[j] = v
        else:
            del row[j]


def _echelon(rows: Iterable[dict], ncols: int) -> dict:
    """Fully reduced echelon form of the span of the rows, built one row at a time.

    Rows are {column: int or Fraction} dicts and are not modified; an integer
    row needs no ``Fraction`` work, a rational one is scaled to integers first.
    Returns {pivot column: primitive integer row}; each row's pivot is its
    leftmost entry, is positive, and is the only nonzero entry of any pivot
    column in the set.  Sorted by pivot and divided by the pivot entries, the
    rows are the reduced row echelon form, which depends on the span alone.
    Stops early once the rank reaches ncols.
    """
    pivots: dict = {}
    for raw in rows:
        row = _integer_row(raw)
        for c in [c for c in row if c in pivots]:
            _eliminate(row, pivots[c], c)
        if not row:
            continue
        _primitive(row)
        c = min(row)
        if row[c] < 0:
            for j in row:
                row[j] = -row[j]
        for q in pivots.values():
            if c in q:
                _eliminate(q, row, c)
                _primitive(q)
        pivots[c] = row
        if len(pivots) == ncols:
            break
    return pivots


def _reduced_rows(pivots: dict, ncols: int) -> list:
    """The rows of an ``_echelon`` result sorted by pivot and divided by their
    pivot entries: the reduced row echelon form, as lists of Fractions."""
    out = []
    for p in sorted(pivots):
        row = pivots[p]
        v = [Fraction(0)] * ncols
        for j, x in row.items():
            v[j] = Fraction(x, row[p])
        out.append(v)
    return out


def _rref(rows: list) -> tuple:
    """Reduced row echelon form of a list of rows, zero rows at the bottom;
    returns (new rows, pivot column list)."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = _echelon((dict(enumerate(row)) for row in rows), ncols)
    out = _reduced_rows(pivots, ncols)
    out += [[Fraction(0)] * ncols for _ in range(len(rows) - len(out))]
    return out, sorted(pivots)


def rref(m: Matrix) -> tuple:
    """Reduced row echelon form of m; returns (Matrix, pivot columns)."""
    rows, pivots = _rref(m.row_list())
    return Matrix.trusted(m.rows, m.cols, [x for row in rows for x in row]), pivots


def rank(m: Matrix) -> int:
    """Exact rank."""
    _, pivots = _rref(m.row_list())
    return len(pivots)


def nullspace(m) -> list:
    """Exact basis of {v : m v = 0}, canonicalized to echelon normal form.

    ``m`` is a Matrix or a SparseMatrix with integer or rational rows.  Its
    rows are reduced one at a time against the current fully reduced echelon
    basis, with fraction-free integer steps (as in Bareiss 1968) and each row
    kept divided by the gcd of its entries.  An empty or zero matrix yields the full-space standard
    basis.
    """
    n = m.cols
    pivots = _echelon(m.sparse_rows(), n)
    basis = {f: {f: Fraction(1)} for f in range(n) if f not in pivots}
    for p, row in pivots.items():
        for f, x in row.items():
            if f != p:
                basis[f][p] = Fraction(-x, row[p])
    # canonicalize representatives: echelon-reduce the basis itself
    return [Vector.trusted(v) for v in _reduced_rows(_echelon(basis.values(), n), n)]


def det(m: Matrix) -> Fraction:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("not square")
    n = m.rows
    if n == 0:
        return Fraction(1)
    a = m.row_list()
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def solve(m: Matrix, b: Vector) -> Optional[Vector]:
    """One exact solution of m x = b, or None if the system is inconsistent."""
    if b.dim != m.rows:
        raise ValueError("dimension mismatch")
    x = solve_matrix(m, Matrix.trusted(b.dim, 1, b.entries))
    return None if x is None else x.col(0)


def solve_matrix(m: Matrix, rhs: Matrix) -> Optional[Matrix]:
    """One exact solution X of m X = rhs, its free variables zero, from one
    reduction of [m | rhs]; None if any column is inconsistent, which shows
    as a pivot among the rhs columns."""
    if rhs.rows != m.rows:
        raise ValueError("dimension mismatch")
    n, k = m.cols, rhs.cols
    rows, pivots = _rref([list(m.entries[i * n:(i + 1) * n] + rhs.entries[i * k:(i + 1) * k])
                          for i in range(m.rows)])
    if pivots and pivots[-1] >= n:
        return None
    x = [[Fraction(0)] * k for _ in range(n)]
    for row, p in zip(rows, pivots):
        x[p] = row[n:]
    return Matrix.trusted(n, k, [v for row in x for v in row])


def in_span(basis: Sequence[Vector], v: Vector) -> Optional[Vector]:
    """Coefficients expressing v in the given basis, or None if v is outside."""
    if not basis:
        return Vector.trusted(()) if v.is_zero() else None
    m = Matrix.from_columns(list(basis))
    return solve(m, v)
