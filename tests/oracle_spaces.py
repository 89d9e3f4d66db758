"""Reference solver for the structure spaces: the dense assembly and the
dense Gauss-Jordan elimination that ``nambucat.spaces`` and
``nambucat.linalg`` used before they became sparse and incremental.  Every
unknown gets its own ``pattern.value`` lookup, and every row is a dense list
of Fractions.  Tests compare the library against it.
"""

from fractions import Fraction
from typing import List, Optional

from nambucat.algebra import all_tuples
from nambucat.linalg import Matrix, Vector
from nambucat.spaces import SubspaceBasis, _twist_power


def _rref(rows: list) -> tuple:
    """In-place reduced row echelon form; returns (rows, pivot column list)."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        p = rows[r][c]
        if p != 1:
            rows[r] = [x / p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rref(m: Matrix) -> tuple:
    rows, pivots = _rref(m.row_list())
    return Matrix.from_rows(rows) if rows else m, pivots


def rank(m: Matrix) -> int:
    return len(_rref(m.row_list())[1])


def solve(m: Matrix, b: Vector) -> Optional[Vector]:
    if b.dim != m.rows:
        raise ValueError("dimension mismatch")
    n = m.cols
    aug = [list(row) + [b[i]] for i, row in enumerate(m.row_list())]
    rows, pivots = _rref(aug)
    for r in range(len(pivots), len(rows)):
        if rows[r][n] != 0:
            return None
    x = [Fraction(0)] * n
    for r, p in enumerate(pivots):
        if p == n:
            return None
        x[p] = rows[r][n]
    return Vector(x)


def in_span(basis, v: Vector) -> Optional[Vector]:
    if not basis:
        return Vector([]) if v.is_zero() else None
    return solve(Matrix.from_columns(list(basis)), v)


def dense_nullspace(m: Matrix) -> list:
    """Exact basis of {v : m v = 0}, canonicalized to echelon normal form."""
    n = m.cols
    if m.rows == 0 or n == 0:
        return [Vector.basis(n, i) for i in range(n)]
    rows, pivots = _rref(m.row_list())
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(v)
    if not basis:
        return []
    basis, _ = _rref(basis)
    return [Vector(row) for row in basis]


def _matrix_nullspace_basis(rows: List[List[Fraction]], d: int) -> SubspaceBasis:
    if rows:
        sols = dense_nullspace(Matrix.from_rows(rows))
    else:
        sols = [Vector.basis(d * d, i) for i in range(d * d)]
    mats = tuple(Matrix.from_rows([[v[u * d + s] for s in range(d)]
                                   for u in range(d)]) for v in sols)
    return SubspaceBasis("matrix", d, mats)


def centroid(a, k: int) -> SubspaceBasis:
    d, n = a.dim, a.arity
    pw = _twist_power(a, k)
    pattern = a.bracket.transform([None] + [pw] * (n - 1))
    rows: List[List[Fraction]] = []
    seen = set()
    for t in all_tuples(d, n):
        cv = a.bracket.value(t)
        for r in range(d):
            row = [Fraction(0)] * (d * d)
            for s in range(d):
                row[r * d + s] += cv[s]
            for j in range(d):
                row[j * d + t[0]] -= pattern.value((j,) + t[1:])[r]
            key = tuple(row)
            if any(row) and key not in seen:
                seen.add(key)
                rows.append(row)
    return _matrix_nullspace_basis(rows, d)


def derivations(a, k: int) -> SubspaceBasis:
    d, n = a.dim, a.arity
    pw = _twist_power(a, k)
    patterns = [a.bracket.transform([pw if j != i else None for j in range(n)])
                for i in range(n)]
    rows: List[List[Fraction]] = []
    seen = set()
    for t in all_tuples(d, n):
        cv = a.bracket.value(t)
        for r in range(d):
            row = [Fraction(0)] * (d * d)
            for s in range(d):
                row[r * d + s] += cv[s]
            for i in range(n):
                for j in range(d):
                    row[j * d + t[i]] -= patterns[i].value(t[:i] + (j,) + t[i + 1:])[r]
            key = tuple(row)
            if any(row) and key not in seen:
                seen.add(key)
                rows.append(row)
    alpha = a.twist
    for u in range(d):
        for v in range(d):
            row = [Fraction(0)] * (d * d)
            for s in range(d):
                row[u * d + s] += alpha[s, v]
                row[s * d + v] -= alpha[u, s]
            if any(row):
                rows.append(row)
    return _matrix_nullspace_basis(rows, d)


def center(a) -> SubspaceBasis:
    d, n = a.dim, a.arity
    rows: List[List[Fraction]] = []
    for t in all_tuples(d, n - 1):
        for r in range(d):
            row = [a.bracket.value((i,) + t)[r] for i in range(d)]
            if any(row):
                rows.append(row)
    if rows:
        sols = dense_nullspace(Matrix.from_rows(rows))
    else:
        sols = [Vector.basis(d, i) for i in range(d)]
    return SubspaceBasis("vector", d, tuple(sols))


def _derived_span(a) -> List[Vector]:
    vals = [v for _, v in a.bracket.dense_items()]
    if not vals:
        return []
    reduced, pivots = rref(Matrix.from_rows([list(v.entries) for v in vals]))
    return [reduced.row(i) for i in range(len(pivots))]


def central_derivations(a) -> SubspaceBasis:
    d = a.dim
    cent = center(a)
    derived = _derived_span(a)
    rows: List[List[Fraction]] = []
    if cent.dimension < d:
        if cent.basis:
            zb = Matrix.from_rows([list(v.entries) for v in cent.basis])
            annihilator = dense_nullspace(zb)
        else:
            annihilator = [Vector.basis(d, i) for i in range(d)]
        for w in annihilator:
            for j in range(d):
                row = [Fraction(0)] * (d * d)
                for s in range(d):
                    row[s * d + j] = w[s]
                rows.append(row)
    for u in derived:
        for r in range(d):
            row = [Fraction(0)] * (d * d)
            for s in range(d):
                row[r * d + s] = u[s]
            rows.append(row)
    return _matrix_nullspace_basis(rows, d)
