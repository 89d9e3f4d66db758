"""Centroids, derivations, centers, and the algebras built from them.

Spaces of endomorphisms are computed as nullspaces of exactly-assembled
linear systems over the rationals; membership of a single candidate is
checked directly against the defining equations instead.  The equations
are assembled as rows of Python integers: every entry read is scaled by one
common denominator, which leaves the nullspace as it is, and ``linalg``
reduces the rows without any ``Fraction`` work.  For a bracket in skew
storage the equations alternate in the bracket's slots (the centroid's in
all but the first), so one equation per orbit is assembled, read off the
stored keys without expanding them; the twist power alpha^k in the other
slots enters through minors of alpha^k, at any k.  The assembly sees which
slots alternate from the storage of the bracket and the slots it fills.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (BracketTensor, HomAssocNAry, HomLeibnizAlgebra, HomNambuAlgebra,
                      adjoint_operator)
from .checks import (CheckReport, _compare, _intertwines, check_hom_leibniz,
                     check_skew_symmetry)
from .linalg import Matrix, SparseMatrix, Vector, in_span, kron, nullspace, rref


@dataclass(frozen=True)
class SubspaceBasis:
    """A canonical basis of a rational subspace of d-by-d matrices (kind
    "matrix") or of the algebra itself (kind "vector")."""

    kind: str
    ambient_dim: int
    basis: tuple

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _twist_power(a, k: int) -> Matrix:
    """alpha^k with the conventions alpha^0 = id and alpha^(-1) = 0."""
    if k == -1:
        return Matrix.zero(a.dim, a.dim)
    if k == 0:
        return Matrix.identity(a.dim)
    return a.twist.power(k)


def _assemble(d: int, width: int, lhs: Optional[BracketTensor],
              patterns: Sequence[Tuple[int, BracketTensor, Optional[Matrix]]]
              ) -> List[Dict[int, int]]:
    """Linear equations on an unknown d-by-width matrix X, from nonzero entries only.

    For each basis tuple t and output coordinate r the equation reads
    sum_s lhs(t)_s X[r, s] = sum over (i, P, M) in patterns of
    sum_j P'(t with j in slot i)_r X[j, t_i], where P' is P with the map M
    in every slot but i (None: no map) and slot i of t ranges over
    range(width); a lhs term needs width = d.  Every entry read is scaled by
    one common denominator L > 0, the lcm of their denominators, so the rows
    are {column: int} dicts with X[u, s] in column u * width + s; this
    leaves the nullspace as it is.  Rows that vanish and repeats of an
    earlier row are dropped.

    When the patterns (and lhs, which must share their storage) have skew
    storage the equations alternate in the slots from f on, with f = 1
    when every pattern sits in slot 0 (the centroid and the center) and
    f = 0 otherwise, so only t with t[f:]
    strictly increasing is assembled, one equation per orbit: the others
    repeat or negate it, or vanish.  Every entry is read through
    ``free_slot_items``, which on skew storage gives those with t[f:]
    increasing, M applied by minors without expanding the storage.
    """
    between = (all(pattern.skew_storage for _, pattern, _ in patterns)
               and any(i for i, _, _ in patterns))      # f = 0

    def entries(tensor, i, m):
        """(key, value, the values slot i of an assembled t may take)."""
        if between:         # slot i lies strictly between its neighbours
            return [(key, vec, range(key[i - 1] + 1 if i else 0,
                                     key[i + 1] if i + 1 < len(key) else width))
                    for key, vec in tensor.free_slot_items(i, m)]
        return [(key, vec, range(width)) for key, vec in tensor.free_slot_items(i, m)]

    lhs_items = entries(lhs, 0, None) if lhs is not None else []
    pattern_items = [(i, entries(pattern, i, m)) for i, pattern, m in patterns]
    scale = lcm(*{x.denominator for items in [lhs_items] + [it for _, it in pattern_items]
                  for _, vec, _ in items for x in vec.entries})
    rows: Dict[Tuple[Tuple[int, ...], int], Dict[int, int]] = {}
    for t, vec, slot0 in lhs_items:
        if t[0] in slot0:
            for s, x in enumerate(vec.entries):
                if x:
                    x = x.numerator * (scale // x.denominator)
                    for r in range(d):
                        row = rows.setdefault((t, r), {})
                        c = r * width + s
                        row[c] = row.get(c, 0) + x
    for i, items in pattern_items:
        for key, vec, slot in items:
            head, tail, col = key[:i], key[i + 1:], key[i] * width
            for r, x in enumerate(vec.entries):
                if x:
                    x = x.numerator * (scale // x.denominator)
                    for ti in slot:
                        row = rows.setdefault((head + (ti,) + tail, r), {})
                        c = col + ti
                        row[c] = row.get(c, 0) - x
    out, seen = [], set()
    for row in rows.values():
        row = {c: x for c, x in row.items() if x}
        key = frozenset(row.items())
        if row and key not in seen:
            seen.add(key)
            out.append(row)
    return out


def _matrix_nullspace_basis(rows: List[dict], d: int) -> SubspaceBasis:
    sols = nullspace(SparseMatrix(d * d, rows))
    return SubspaceBasis("matrix", d, tuple(Matrix.trusted(d, d, v.entries) for v in sols))


def compute_centroid(a: HomNambuAlgebra, k: int) -> SubspaceBasis:
    """Maps theta with theta([x_1..x_n]) = [theta x_1, alpha^k x_2, ...,
    alpha^k x_n], as a canonical matrix basis."""
    d, n = a.dim, a.arity
    pw = _twist_power(a, k)
    return _matrix_nullspace_basis(_assemble(d, d, a.bracket, [(0, a.bracket, pw)]), d)


def centroid_membership(a: HomNambuAlgebra, theta: Matrix, k: int) -> CheckReport:
    """Direct check of the centroid equations for one candidate map."""
    return _intertwines("centroid_membership", a.bracket, theta,
                        [theta] + [_twist_power(a, k)] * (a.arity - 1))


def compute_derivations(a: HomNambuAlgebra, k: int) -> SubspaceBasis:
    """Maps D with D([x_1..x_n]) = sum_i [alpha^k x_1, ..., D x_i, ...,
    alpha^k x_n] that commute with the twist, as a canonical matrix basis."""
    d, n = a.dim, a.arity
    alpha = a.twist
    pw = _twist_power(a, k)
    patterns = [(i, a.bracket, pw) for i in range(n)]
    rows = _assemble(d, d, a.bracket, patterns)
    # D alpha = alpha D: the same equations for the unary "bracket" alpha
    unary = BracketTensor.linear(alpha)
    rows += _assemble(d, d, unary, [(0, unary, None)])
    return _matrix_nullspace_basis(rows, d)


def derivation_membership(a: HomNambuAlgebra, big_d: Matrix, k: int) -> CheckReport:
    """Direct check of the alpha^k-derivation equations (including commuting
    with the twist) for one candidate map."""
    d, n = a.dim, a.arity
    alpha = a.twist
    if big_d @ alpha != alpha @ big_d:
        return CheckReport("derivation_membership", False, None, 0,
                           detail="candidate does not commute with the twist")
    pw = _twist_power(a, k)
    right = BracketTensor.combine(
        [(1, a.bracket.transform([pw if j != i else big_d for j in range(n)]))
         for i in range(n)])
    return _compare("derivation_membership", d, n,
                    a.bracket.transform([None] * n, out_map=big_d), right)


def inner_derivation(a: HomNambuAlgebra, x: Sequence[Vector], k: int) -> Matrix:
    """ad(x_1..x_{n-1}) composed with alpha^k; requires the twist to fix every
    x_i, and the result is verified to be an alpha^(k+1)-derivation."""
    if len(x) != a.arity - 1:
        raise ValueError("expected an (n-1)-tuple of vectors")
    alpha = a.twist
    for i, v in enumerate(x):
        if alpha.apply(v) != v:
            raise ValueError(f"twist does not fix argument {i + 1}")
    m = adjoint_operator(a, x) @ _twist_power(a, k)
    report = derivation_membership(a, m, k + 1)
    if not report.passed:
        raise ValueError(f"inner map is not a derivation: {report.detail or report.counterexample}")
    return m


def compute_center(a: HomNambuAlgebra) -> SubspaceBasis:
    """Vectors z with [z, x_2, ..., x_n] = 0 for all basis choices."""
    rows = _assemble(a.dim, 1, None, [(0, a.bracket, None)])
    return SubspaceBasis("vector", a.dim, tuple(nullspace(SparseMatrix(a.dim, rows))))


def _derived_span(a: HomNambuAlgebra) -> List[Vector]:
    vals = list(a.bracket.coeffs.values())     # stored values span the signed copies too
    if not vals:
        return []
    reduced, pivots = rref(Matrix.trusted(len(vals), a.bracket.vdim,
                                          [x for v in vals for x in v.entries]))
    return [reduced.row(i) for i in range(len(pivots))]


def compute_central_derivations(a: HomNambuAlgebra) -> SubspaceBasis:
    """Maps vanishing on the derived subspace with image inside the center."""
    d = a.dim
    center = compute_center(a)
    derived = _derived_span(a)
    rows: List[Dict[int, Fraction]] = []
    # image in the center: w . (phi e_j) = 0 for w spanning the annihilator
    if center.dimension < d:
        annihilator = nullspace(SparseMatrix(d, [{s: x for s, x in enumerate(v) if x}
                                                 for v in center.basis]))
        for w in annihilator:
            for j in range(d):
                rows.append({s * d + j: x for s, x in enumerate(w) if x})
    for u in derived:
        for r in range(d):
            rows.append({r * d + s: x for s, x in enumerate(u) if x})
    return _matrix_nullspace_basis(rows, d)


def derivation_commutator(a: HomNambuAlgebra, d1: Matrix, k1: int,
                          d2: Matrix, k2: int) -> Tuple[Matrix, CheckReport]:
    """[D, D'] with membership of the result verified in the level-(k1+k2)
    derivation space."""
    r1 = derivation_membership(a, d1, k1)
    if not r1.passed:
        raise ValueError("first map is not a derivation at its level")
    r2 = derivation_membership(a, d2, k2)
    if not r2.passed:
        raise ValueError("second map is not a derivation at its level")
    m = d1 @ d2 - d2 @ d1
    return m, derivation_membership(a, m, k1 + k2)


def centroid_derivation_product(a: HomNambuAlgebra, theta: Matrix, kp: int,
                                big_d: Matrix, k: int):
    """For a centroid element theta and derivation D: theta D with membership
    checked at level k + k', and [D, theta] with centroid membership checked
    at level k."""
    if not centroid_membership(a, theta, kp).passed:
        raise ValueError("theta is not a centroid element at its level")
    if not derivation_membership(a, big_d, k).passed:
        raise ValueError("D is not a derivation at its level")
    prod = theta @ big_d
    prod_report = derivation_membership(a, prod, k + kp)
    comm = big_d @ theta - theta @ big_d
    comm_report = centroid_membership(a, comm, k)
    return prod, prod_report, comm, comm_report


def varsigma_hom_lie(a: HomNambuAlgebra,
                     levels: Sequence[int] = (-1, 0, 1, 2)):
    """The graded space of twisted derivations with bracket
    sigma([D, D']) = alpha [D, D'] landing one level up, and the shift map
    sigma(D) = alpha D as the twist; levels outside the window truncate to
    zero. Returns the binary Hom-algebra with its Hom-Jacobi and skewness
    reports."""
    levels = sorted(levels)
    alpha = a.twist
    flats: Dict[int, List[Vector]] = {}
    elems: List[Tuple[int, Matrix]] = []
    offsets: Dict[int, int] = {}
    for k in levels:
        basis = compute_derivations(a, k).basis
        flats[k] = [b.flatten() for b in basis]
        offsets[k] = len(elems)
        elems.extend((k, m) for m in basis)
    dim = len(elems)

    def image(k: int, m: Matrix, what: str) -> Vector:
        """m in the coordinates of the graded space; zero outside the window."""
        v = [Fraction(0)] * dim
        if k in offsets:
            coeffs = in_span(flats[k], m.flatten())
            if coeffs is None:
                raise ValueError(f"{what} left the level-{k} space")
            v[offsets[k]:offsets[k] + len(coeffs.entries)] = coeffs.entries
        return Vector.trusted(v)

    items: Dict[Tuple[int, ...], Vector] = {}
    for i, (ki, mi) in enumerate(elems):
        for j, (kj, mj) in enumerate(elems):
            v = image(ki + kj + 1, alpha @ (mi @ mj - mj @ mi),
                      f"bracket of levels {ki} and {kj}")
            if not v.is_zero():
                items[(i, j)] = v
    sigma = Matrix.from_columns([image(k + 1, alpha @ m, f"shift of a level-{k} element")
                                 for k, m in elems])

    out = HomLeibnizAlgebra(dim, BracketTensor(dim, 2, items), sigma)
    jacobi = check_hom_leibniz(out)
    skew = check_skew_symmetry(out.as_nambu())
    return out, jacobi, skew


def assoc_centroid_membership(h: HomAssocNAry, f: Matrix, k: int) -> CheckReport:
    """Centroid equations for an n-ary multiplication: f(mu(x_1..x_n)) =
    mu(f x_1, eta^k x_2, ..., eta^k x_n)."""
    return _intertwines("assoc_centroid_membership", h.mu, f,
                        [f] + [_twist_power(h, k)] * (h.arity - 1))


def tensor_centroid_derivation(h: HomAssocNAry, a: HomNambuAlgebra,
                               f: Matrix, g: Matrix, mode: str, k: int):
    """f tensor g on the product algebra: with g a level-k centroid element
    the product lands in the product algebra's level-k centroid, with g a
    level-k derivation (and f also level-k multiplicative-compatible) it is
    checked as a level-k centroid element composed with derivation behavior on
    the product. Returns the Kronecker map and its verified membership report."""
    from .constructions import tensor_product
    if not assoc_centroid_membership(h, f, k).passed:
        raise ValueError("f is not a centroid element of the associative factor")
    checks = {"centroid": (centroid_membership, "a centroid element"),
              "derivation": (derivation_membership, "a derivation")}
    if mode not in checks:
        raise ValueError("mode must be 'centroid' or 'derivation'")
    membership, name = checks[mode]
    if not membership(a, g, k).passed:
        raise ValueError(f"g is not {name} at its level")
    prod = tensor_product(h, a, verify=False)
    m = kron(f, g)
    return m, membership(prod, m, k)
