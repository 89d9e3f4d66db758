"""Exact, exhaustive checkers for the defining identities.

Every checker decides its identity on all relevant basis tuples (which by
multilinearity is equivalent to the identity on all vectors) and returns a
CheckReport: pass, or the first violating tuple in lexicographic order
together with the two unequal sides. Pointwise identities (skew-symmetry,
multiplicativity, morphisms, symmetry of a product, centroid and derivation
membership) build both sides as sparse tensors and compare their nonzero
entries only; ``tuples_checked`` still counts tuples in lexicographic order.
The association orders of a totally Hom-associative product are built the
same way, by substituting the product into each slot of its twisted copy.

For verified skew brackets the fundamental-identity check iterates only over
strictly increasing tuples: both sides of the identity are alternating
multilinear in the x-block and the y-block, so increasing tuples span all
cases and the cost drops combinatorially.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (BracketTensor, HomAssocNAry, HomLeibnizAlgebra,
                      HomNambuAlgebra, QuadraticStructure, all_tuples,
                      increasing_tuples)
from .linalg import Matrix, Vector, frac_str, rank


class TupleBudgetExceeded(Exception):
    """Raised when a check would exceed the caller's tuple budget."""

    def __init__(self, needed: int, budget: int):
        super().__init__(f"check needs {needed} basis tuples, budget is {budget}")
        self.needed = needed
        self.budget = budget


@dataclass(frozen=True)
class Counterexample:
    indices: Tuple[int, ...]          # 0-based basis tuple
    left: Vector
    right: Vector

    def to_json(self) -> dict:
        return {
            "indices": [i + 1 for i in self.indices],
            "left": [frac_str(x) for x in self.left],
            "right": [frac_str(x) for x in self.right],
        }


@dataclass(frozen=True)
class CheckReport:
    identity: str
    passed: bool
    counterexample: Optional[Counterexample] = None
    tuples_checked: int = 0
    warnings: Tuple[str, ...] = ()
    detail: Optional[str] = None

    def __post_init__(self):
        if self.passed and self.counterexample is not None:
            raise ValueError("passing report cannot carry a counterexample")
        if not self.passed and self.counterexample is None and self.detail is None:
            raise ValueError("failing report needs a counterexample or detail")

    def to_json(self) -> dict:
        out = {
            "identity": self.identity,
            "passed": self.passed,
            "counterexample": self.counterexample.to_json() if self.counterexample else None,
            "tuples_checked": self.tuples_checked,
        }
        if self.warnings:
            out["warnings"] = list(self.warnings)
        if self.detail:
            out["detail"] = self.detail
        return out


def _budget(needed: int, max_tuples: Optional[int]):
    if max_tuples is not None and needed > max_tuples:
        raise TupleBudgetExceeded(needed, max_tuples)


def _tuple_iter(dim: int, length: int, skew: bool):
    return increasing_tuples(dim, length) if skew else all_tuples(dim, length)


def _tuple_count(dim: int, length: int, skew: bool) -> int:
    if skew:
        from math import comb
        return comb(dim, length)
    return dim ** length


def _entries(x) -> Dict[Tuple[int, ...], Vector]:
    if not isinstance(x, BracketTensor):
        return x
    return dict(x.dense_items()) if x.skew_storage else x.coeffs


def _compare(identity: str, d: int, n: int, left, right,
             detail: Optional[str] = None) -> CheckReport:
    """Compare two sparse n-linear maps on d-dimensional arguments, each a
    BracketTensor or a {basis tuple: nonzero Vector} map (absent keys zero).

    Only stored keys are visited. A failure reports the first differing
    tuple in lexicographic order, and ``tuples_checked`` is that tuple's
    position in ``all_tuples`` order, as the exhaustive loop would count."""
    left, right = _entries(left), _entries(right)
    first = None
    for t in left.keys() | right.keys():
        if (first is None or t < first) and left.get(t) != right.get(t):
            first = t
    if first is None:
        return CheckReport(identity, True, None, d ** n)
    lv, rv = left.get(first), right.get(first)
    zero = Vector.zero((rv if lv is None else lv).dim)
    position = 0
    for i in first:
        position = position * d + i
    return CheckReport(identity, False,
                       Counterexample(first, zero if lv is None else lv,
                                      zero if rv is None else rv),
                       position + 1, detail=detail)


def _compare_transpositions(identity: str, tensor: BracketTensor, sign: int,
                            detail: Optional[str] = None) -> CheckReport:
    """tensor(t) against sign * tensor(t with slots k, k+1 swapped) for every
    adjacent transposition k; reports the first failing (t, k)."""
    d, n = tensor.dim, tensor.arity
    items = _entries(tensor)
    reports = [_compare(identity, d, n, items,
                        {t[:k] + (t[k + 1], t[k]) + t[k + 2:]: v if sign > 0 else -v
                         for t, v in items.items()},
                        detail or f"transposition of slots {k + 1},{k + 2}")
               for k in range(n - 1)]
    return _first(identity, d ** n, reports)


def _first(identity: str, count: int, reports) -> CheckReport:
    """The failing report with the earliest tuple (the first listed on a tie),
    or a pass over ``count`` tuples when every report passed or there is none."""
    return min(reports, key=lambda r: (r.passed, r.tuples_checked),
               default=CheckReport(identity, True, None, count))


def _twist_slots(twists: Sequence[Matrix], n: int, free: int) -> List[Optional[Matrix]]:
    """Slot maps with slot ``free`` left alone, the twists in order before it
    and shifted by one after it."""
    return [twists[j] if j < free else None if j == free else twists[j - 1]
            for j in range(n)]


def check_hom_nambu_identity(a: HomNambuAlgebra,
                             max_tuples: Optional[int] = None) -> CheckReport:
    """Fundamental identity: the twisted adjoint action is a twisted derivation
    of the bracket, checked on all (2n-1)-tuples of basis vectors."""
    n, d = a.arity, a.dim
    C = a.bracket
    skew = a.skew
    count = _tuple_count(d, n - 1, skew) * _tuple_count(d, n, skew)
    _budget(count, max_tuples)

    # left side: [a1(x1), ..., a_{n-1}(x_{n-1}), w] with w a free last slot
    top = C.transform(list(a.twists) + [None])
    # right side, term i: slot i free, slots j<i carry a_j, slots j>i carry a_{j-1}
    side = [C.transform(_twist_slots(a.twists, n, i)) for i in range(n)]

    checked = 0
    for x in _tuple_iter(d, n - 1, skew):
        for y in _tuple_iter(d, n, skew):
            checked += 1
            w = C.value(y)
            lhs = Vector.zero(d)
            for j, wj in enumerate(w.entries):
                if wj:
                    lhs = lhs + top.value(x + (j,)).scale(wj)
            rhs = Vector.zero(d)
            for i in range(n):
                v = C.value(x + (y[i],))
                for j, vj in enumerate(v.entries):
                    if vj:
                        rhs = rhs + side[i].value(y[:i] + (j,) + y[i + 1:]).scale(vj)
            if lhs != rhs:
                return CheckReport("hom_nambu_identity", False,
                                   Counterexample(x + y, lhs, rhs), checked)
    return CheckReport("hom_nambu_identity", True, None, checked)


def check_skew_symmetry(a: HomNambuAlgebra,
                        max_tuples: Optional[int] = None) -> CheckReport:
    """Total skew-symmetry on basis tuples (adjacent transpositions generate S_n)."""
    _budget(a.dim ** a.arity, max_tuples)
    return _compare_transpositions("skew_symmetry", a.bracket, -1)


def check_multiplicativity(a: HomNambuAlgebra,
                           max_tuples: Optional[int] = None) -> CheckReport:
    """All twists equal one map that commutes with the bracket."""
    n, d = a.arity, a.dim
    if any(t != a.twists[0] for t in a.twists[1:]):
        return CheckReport("multiplicativity", False, None, 0, detail="twists differ")
    alpha = a.twists[0]
    _budget(d ** n, max_tuples)
    return _compare("multiplicativity", d, n,
                    a.bracket.transform([None] * n, out_map=alpha),
                    a.bracket.transform([alpha] * n))


def check_total_hom_associativity(h: HomAssocNAry,
                                  max_tuples: Optional[int] = None) -> CheckReport:
    """Argument symmetry of mu plus the chain of n-1 total associativity equalities."""
    n, d = h.arity, h.dim
    mu = h.mu
    count = d ** n + d ** (2 * n - 1)
    _budget(count, max_tuples)
    symmetric = _compare_transpositions("total_hom_associativity", mu, 1,
                                        "product not symmetric")
    if not symmetric.passed:
        return symmetric
    # order p: the inner product in slot p, the twists fill the others in order
    orders = [mu.transform(_twist_slots(h.twists, n, p)).substitute(p, mu)
              for p in range(n)]
    first = _first("total_hom_associativity", d ** (2 * n - 1),
                   [_compare("total_hom_associativity", d, 2 * n - 1, orders[p - 1], orders[p],
                             f"association orders {p} and {p + 1} differ")
                    for p in range(1, n)])
    return replace(first, tuples_checked=symmetric.tuples_checked + first.tuples_checked)


def check_hom_leibniz(l: HomLeibnizAlgebra,
                      max_tuples: Optional[int] = None) -> CheckReport:
    """Twisted Leibniz identity [a(x),[y,z]] = [[x,y],a(z)] + [a(y),[x,z]]:
    the fundamental identity at arity 2."""
    return replace(check_hom_nambu_identity(l.as_nambu(), max_tuples),
                   identity="hom_leibniz")


def check_quadratic(q: QuadraticStructure,
                    max_tuples: Optional[int] = None) -> CheckReport:
    """Symmetry, nondegeneracy (degenerate forms warn, not fail), twist
    symmetry of the form, and (beta-)invariance under adjoint operators."""
    a = q.algebra
    n, d = a.arity, a.dim
    G = q.form.gram
    warnings: List[str] = []
    checked = 0

    if not G.is_symmetric():
        return CheckReport("quadratic", False, None, 0, detail="gram matrix not symmetric")
    r = rank(G)
    if r < d:
        warnings.append(f"form is degenerate: rank {r} < dim {d}")
    for i, t in enumerate(a.twists):
        if t.T @ G != G @ t:
            return CheckReport("quadratic", False, None, checked,
                               detail=f"form not symmetric with respect to twist {i + 1}",
                               warnings=tuple(warnings))

    beta = q.beta if q.beta is not None else Matrix.identity(d)
    count = d ** (n - 1)
    _budget(count, max_tuples)
    from .algebra import adjoint_of_basis_tuple
    for x in all_tuples(d, n - 1):
        checked += 1
        L = adjoint_of_basis_tuple(a, x)
        # B(L y, beta z) + B(beta y, L z) = 0  as matrices in (y, z)
        resid = L.T @ G @ beta + beta.T @ G @ L
        if not resid.is_zero():
            yz = next((i, j) for i in range(d) for j in range(d) if resid[i, j] != 0)
            lv = Vector([(L.T @ G @ beta)[yz]])
            rv = Vector([-(beta.T @ G @ L)[yz]])
            return CheckReport("quadratic", False,
                               Counterexample(x + yz, lv, rv), checked,
                               detail="invariance identity fails",
                               warnings=tuple(warnings))
    return CheckReport("quadratic", True, None, checked, warnings=tuple(warnings))


def check_morphism(src: HomNambuAlgebra, dst: HomNambuAlgebra,
                   f: Matrix, max_tuples: Optional[int] = None) -> CheckReport:
    """f is an algebra morphism: f[..] = [f .., f ..]' and f a_i = a_i' f."""
    if src.arity != dst.arity:
        raise ValueError("arity mismatch")
    if f.rows != dst.dim or f.cols != src.dim:
        raise ValueError("morphism matrix has wrong shape")
    n, d = src.arity, src.dim
    for i in range(n - 1):
        if f @ src.twists[i] != dst.twists[i] @ f:
            return CheckReport("morphism", False, None, 0,
                               detail=f"f does not intertwine twist {i + 1}")
    _budget(d ** n, max_tuples)
    return _compare("morphism", d, n, src.bracket.transform([None] * n, out_map=f),
                    dst.bracket.transform([f] * n))


def _mat_of(vec: Vector, m: int) -> Matrix:
    return Matrix(m, m, vec.entries)


def check_representation(a: HomNambuAlgebra, rep, mode: str = "primal",
                         max_tuples: Optional[int] = None) -> CheckReport:
    """Representation identity (primal) or the dual-representation condition.

    The inner-twist indexing follows the reading under which the adjoint
    action is a representation: in term i the free slot is i, slots before it
    carry the twists a_1..a_{i-1} and slots after it a_i..a_{n-2}, applied to
    the second tuple of arguments.
    """
    if mode not in ("primal", "dual"):
        raise ValueError("mode must be 'primal' or 'dual'")
    n, d = a.arity, a.dim
    m = rep.target_dim
    rho = rep.rho
    nu = rep.nu
    C = a.bracket
    count = d ** (2 * (n - 1))
    _budget(count, max_tuples)

    rho_tw = rho.transform(list(a.twists))  # rho(a_1 x_1, ..., a_{n-1} x_{n-1})
    side = [rho.transform(_twist_slots(a.twists, n - 1, i)) for i in range(n - 1)]

    checked = 0
    ident = f"representation_{mode}"
    for x in all_tuples(d, n - 1):
        rho_x = _mat_of(rho.value(x), m)
        rho_ax = _mat_of(rho_tw.value(x), m)
        for y in all_tuples(d, n - 1):
            checked += 1
            rho_y = _mat_of(rho.value(y), m)
            rho_ay = _mat_of(rho_tw.value(y), m)
            if mode == "primal":
                lhs = rho_ax @ rho_y - rho_ay @ rho_x
            else:
                lhs = rho_x @ rho_ay - rho_y @ rho_ax
            rhs = Matrix.zero(m, m)
            for i in range(n - 1):
                v = C.value(x + (y[i],))   # L(x) . y_i
                term = Vector.zero(m * m)
                for j, vj in enumerate(v.entries):
                    if vj:
                        term = term + side[i].value(y[:i] + (j,) + y[i + 1:]).scale(vj)
                rhs = rhs + _mat_of(term, m)
            rhs = (rhs @ nu) if mode == "primal" else (nu @ rhs)
            if lhs != rhs:
                return CheckReport(ident, False,
                                   Counterexample(x + y, lhs.flatten(), rhs.flatten()),
                                   checked)
    return CheckReport(ident, True, None, checked)
