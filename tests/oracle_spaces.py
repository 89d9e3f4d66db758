"""Reference solver for the structure spaces: the dense assembly and the
dense Gauss-Jordan nullspace that ``nambucat.spaces`` and
``nambucat.linalg.nullspace`` used before they became sparse and
incremental.  Every unknown gets its own ``pattern.value`` lookup, and every
row is a dense list of Fractions.  Tests compare the library against it.
"""

from fractions import Fraction
from typing import List

from nambucat.algebra import all_tuples
from nambucat.linalg import Matrix, Vector, _rref, rref
from nambucat.spaces import SubspaceBasis, _twist_power


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
