"""The kernels as they were before skew storage stayed skew: ``transform``
expanding skew storage into every signed permutation and applying the slot
maps one at a time, ``spaces._assemble`` walking every expanded entry, and
the skew fundamental identity reading ``top`` and ``side`` through
``.coeffs``, which assumes dense storage.  ``fraction_assemble`` is the
assembly as it was before it became integer-native: ``Fraction`` rows from
patterns already mapped, walking every expanded entry or, on skew storage,
one equation per orbit; the ``fraction_*`` solvers build their patterns
with the library's ``transform``, which expands skew storage when the
slots carry different maps.  ``row_minors`` computes each minor of a map
as its own Bareiss determinant, as ``algebra._row_minors`` did before it
built them as an exterior product.  Tests compare the library against them.
"""

import itertools
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from nambucat.algebra import BracketTensor, add_scaled
from nambucat.checks import (CheckReport, Counterexample, _budget, _comb_rank,
                             _tuple_count, _twist_slots)
from nambucat.linalg import Matrix, SparseMatrix, Vector, det, nullspace, rref
from nambucat.spaces import SubspaceBasis, _twist_power


def is_increasing(t: Sequence[int]) -> bool:
    return all(p < q for p, q in zip(t, t[1:]))


def _is_identity(m: Matrix, n: int) -> bool:
    return m.rows == m.cols == n and m == Matrix.identity(n)


def row_minors(m: Matrix, rows: Tuple[int, ...]) -> Dict[Tuple[int, ...], Fraction]:
    """The nonzero minors det(m[rows, J]), keyed by the increasing column
    tuples J within the columns where those rows have entries."""
    q = len(rows)
    sub = [m.entries[i * m.cols:(i + 1) * m.cols] for i in rows]
    support = sorted({j for row in sub for j, x in enumerate(row) if x})
    out = {}
    for cols in itertools.combinations(support, q):
        c = det(Matrix(q, q, [row[j] for row in sub for j in cols]))
        if c:
            out[cols] = c
    return out


def transform(tensor: BracketTensor, slot_maps: Sequence[Optional[Matrix]],
              out_map: Optional[Matrix] = None) -> BracketTensor:
    """Dense-storage tensor of (args) -> out_map(bracket(M_1 a_1, ..., M_n a_n))."""
    if len(slot_maps) != tensor.arity:
        raise ValueError("need one map per slot")
    maps = [None if m is None or _is_identity(m, tensor.dim) else m for m in slot_maps]
    widths = {tensor.dim if m is None else m.cols for m in maps}
    if len(widths) > 1 or any(m is not None and m.rows != tensor.dim for m in maps):
        raise ValueError("slot map has wrong shape")
    (width,) = widths
    items = dict(tensor.dense_items())
    for k, m in enumerate(maps):
        if m is None:
            continue
        nxt: Dict[Tuple[int, ...], List[Fraction]] = {}
        for idx, vec in items.items():
            i = idx[k]
            for j in range(width):
                c = m[i, j]
                if c == 0:
                    continue
                add_scaled(nxt, idx[:k] + (j,) + idx[k + 1:], c, vec.entries)
        items = {key: Vector(v) for key, v in nxt.items()}
    vdim = tensor.vdim
    if out_map is not None and not _is_identity(out_map, vdim):
        items = {key: out_map.apply(vec) for key, vec in items.items()}
        vdim = out_map.rows
    return BracketTensor(width, tensor.arity, items, vdim=vdim)


def fraction_assemble(d: int, width: int, lhs: Optional[BracketTensor],
                      patterns: Sequence[Tuple[int, BracketTensor]],
                      free: Optional[int] = None) -> List[Dict[int, Fraction]]:
    """The equations of ``spaces._assemble`` as ``Fraction`` rows, with each
    pattern already mapped.  With ``free`` None every expanded entry is
    walked, every ordering of a skew bracket's slots included; otherwise only
    the expanded entries whose slots other than i increase, one equation per
    orbit.  Vanishing and repeated rows are dropped."""
    rows: Dict[Tuple[Tuple[int, ...], int], Dict[int, Fraction]] = {}

    def add(t, r, col, x):
        row = rows.setdefault((t, r), {})
        row[col] = row.get(col, 0) + x

    def entries(tensor, i):
        items = tensor.dense_items()
        if free is None:
            return [(key, vec, range(width)) for key, vec in items]
        items = [(key, vec) for key, vec in items if is_increasing(key[:i] + key[i + 1:])]
        if free == 1:
            return [(key, vec, range(width)) for key, vec in items]
        return [(key, vec, range(key[i - 1] + 1 if i else 0,
                                 key[i + 1] if i + 1 < len(key) else width))
                for key, vec in items]

    if lhs is not None:
        for t, vec, slot0 in entries(lhs, 0):
            if t[0] in slot0:
                for s, x in enumerate(vec.entries):
                    if x:
                        for r in range(d):
                            add(t, r, r * width + s, x)
    for i, pattern in patterns:
        for key, vec, slot in entries(pattern, i):
            for r, x in enumerate(vec.entries):
                if x:
                    for ti in slot:
                        add(key[:i] + (ti,) + key[i + 1:], r, key[i] * width + ti, -x)
    out, seen = [], set()
    for row in rows.values():
        key = frozenset((c, x) for c, x in row.items() if x)
        if key and key not in seen:
            seen.add(key)
            out.append(row)
    return out


def _matrix_nullspace_basis(rows, d: int) -> SubspaceBasis:
    sols = nullspace(SparseMatrix(d * d, rows))
    return SubspaceBasis("matrix", d, tuple(Matrix(d, d, v.entries) for v in sols))


def centroid(a, k: int) -> SubspaceBasis:
    d, n = a.dim, a.arity
    pw = _twist_power(a, k)
    pattern = transform(a.bracket, [None] + [pw] * (n - 1))
    return _matrix_nullspace_basis(fraction_assemble(d, d, a.bracket, [(0, pattern)]), d)


def derivations(a, k: int) -> SubspaceBasis:
    d, n = a.dim, a.arity
    alpha = a.twist
    pw = _twist_power(a, k)
    patterns = [(i, transform(a.bracket, [pw if j != i else None for j in range(n)]))
                for i in range(n)]
    rows = fraction_assemble(d, d, a.bracket, patterns)
    unary = BracketTensor(d, 1, {(v,): alpha.col(v) for v in range(d)})
    rows += fraction_assemble(d, d, unary, [(0, unary)])
    return _matrix_nullspace_basis(rows, d)


def center(a) -> SubspaceBasis:
    rows = fraction_assemble(a.dim, 1, None, [(0, a.bracket)])
    return SubspaceBasis("vector", a.dim, tuple(nullspace(SparseMatrix(a.dim, rows))))


def central_derivations(a, center_of=center) -> SubspaceBasis:
    d = a.dim
    cent = center_of(a)
    rows: List[Dict[int, Fraction]] = []
    if cent.dimension < d:
        annihilator = nullspace(SparseMatrix(d, [{s: x for s, x in enumerate(v) if x}
                                                 for v in cent.basis]))
        for w in annihilator:
            for j in range(d):
                rows.append({s * d + j: x for s, x in enumerate(w) if x})
    vals = [v for _, v in a.bracket.dense_items()]
    derived = []
    if vals:
        reduced, pivots = rref(Matrix.from_rows([list(v.entries) for v in vals]))
        derived = [reduced.row(i) for i in range(len(pivots))]
    for u in derived:
        for r in range(d):
            rows.append({r * d + s: x for s, x in enumerate(u) if x})
    return _matrix_nullspace_basis(rows, d)


def hom_nambu_identity(a, max_tuples=None) -> CheckReport:
    """The fundamental identity on skew storage under one twist, on
    increasing x and y, with ``top`` and ``side`` built densely and read
    through ``.coeffs``."""
    n, d = a.arity, a.dim
    C = a.bracket
    count = _tuple_count(d, n - 1, True) * _tuple_count(d, n, True)
    _budget(count, max_tuples)
    top = transform(C, list(a.twists) + [None])
    side = [transform(C, _twist_slots(a.twists, n, i)) for i in range(n)]
    brackets: Dict[Tuple[int, ...], list] = {}
    for t, v in C.dense_items():
        if is_increasing(t[:-1]):
            brackets.setdefault(t[:-1], []).append((t[-1], v.entries))
    twisted: Dict[Tuple[int, ...], dict] = {}
    for t, v in top.coeffs.items():
        if is_increasing(t[:-1]):
            twisted.setdefault(t[:-1], {})[t[-1]] = v.entries
    values = [(y, v.entries) for y, v in C.coeffs.items() if is_increasing(y)]
    groups: Dict[int, list] = {}
    for i, s in enumerate(side):
        for t, v in s.coeffs.items():
            head, tail = t[:i], t[i + 1:]
            if is_increasing(head + tail):
                groups.setdefault(t[i], []).append(
                    (head[-1] if head else -1, tail[0] if tail else d, head, tail, v.entries))
    zero = [Fraction(0)] * d
    for x in sorted(brackets.keys() | twisted.keys()):
        lhs: Dict[Tuple[int, ...], List[Fraction]] = {}
        rhs: Dict[Tuple[int, ...], List[Fraction]] = {}
        tx = twisted.get(x)
        if tx:
            for y, w in values:
                for j, c in enumerate(w):
                    if c and j in tx:
                        add_scaled(lhs, y, c, tx[j])
        for k, v in brackets.get(x, ()):
            for j, c in enumerate(v):
                if c:
                    for lo, hi, head, tail, vals in groups.get(j, ()):
                        if lo < k < hi:
                            add_scaled(rhs, head + (k,) + tail, c, vals)
        bad = [y for y in lhs.keys() | rhs.keys() if lhs.get(y, zero) != rhs.get(y, zero)]
        if bad:
            y = min(bad)
            return CheckReport("hom_nambu_identity", False,
                               Counterexample(x + y, Vector(lhs.get(y, zero)),
                                              Vector(rhs.get(y, zero))),
                               _comb_rank(x, d) * _tuple_count(d, n, True)
                               + _comb_rank(y, d) + 1)
    return CheckReport("hom_nambu_identity", True, None, count)


def _free(a, slot: int) -> Optional[int]:
    return slot if a.bracket.skew_storage else None


def fraction_centroid_rows(a, k: int) -> List[Dict[int, Fraction]]:
    d, n = a.dim, a.arity
    pattern = a.bracket.transform([None] + [_twist_power(a, k)] * (n - 1))
    return fraction_assemble(d, d, a.bracket, [(0, pattern)], _free(a, 1))


def fraction_derivation_rows(a, k: int) -> List[Dict[int, Fraction]]:
    """The bracket's equations only, without those of D alpha = alpha D."""
    d, n = a.dim, a.arity
    pw = _twist_power(a, k)
    patterns = [(i, a.bracket.transform([pw if j != i else None for j in range(n)]))
                for i in range(n)]
    return fraction_assemble(d, d, a.bracket, patterns, _free(a, 0))


def fraction_center_rows(a) -> List[Dict[int, Fraction]]:
    return fraction_assemble(a.dim, 1, None, [(0, a.bracket)], _free(a, 1))


def fraction_centroid(a, k: int) -> SubspaceBasis:
    return _matrix_nullspace_basis(fraction_centroid_rows(a, k), a.dim)


def fraction_derivations(a, k: int) -> SubspaceBasis:
    d, alpha = a.dim, a.twist
    rows = fraction_derivation_rows(a, k)
    unary = BracketTensor(d, 1, {(v,): alpha.col(v) for v in range(d)})
    rows += fraction_assemble(d, d, unary, [(0, unary)])
    return _matrix_nullspace_basis(rows, d)


def fraction_center(a) -> SubspaceBasis:
    return SubspaceBasis("vector", a.dim,
                         tuple(nullspace(SparseMatrix(a.dim, fraction_center_rows(a)))))


def fraction_central_derivations(a) -> SubspaceBasis:
    return central_derivations(a, fraction_center)
