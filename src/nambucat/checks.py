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

For skew storage under one twist the fundamental-identity check decides
only the strictly increasing tuples: both sides are then alternating in the
x-block and the y-block, so those tuples span all cases.  Under distinct
twists [a_1 x_1, a_2 x_2, [y]] does not alternate in x, and the loop over
all tuples runs.  The shortcut builds both sides from nonzero entries, read
off the stored keys by ``free_slot_items``; so does the representation
identity, whose sides are an operator product and a sum of substitutions
with their slots reordered by ``permute``.  The operator product is the
product of m x m matrices, a bilinear tensor on their flattenings, composed
with the two operator tensors.  Invariance of a form is the residual
W(x, i)_j + W(x, j)_i of one tensor W, which must vanish; on skew storage
it is read off the stored keys for increasing x.
On skew storage the skew-symmetry check passes without expanding the
tensor, since that storage is alternating by construction, and two
skew-storage tensors are compared on their stored keys.

One loop over all tuples is left: the fundamental identity outside that
shortcut.  A faster kernel lets a benchmark run fit more passes, and the
benchmark's memory reading grows with them, so the loop stays until that
reading no longer counts speed as a memory regression (ROADMAP item 1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (BracketTensor, HomAssocNAry, HomLeibnizAlgebra,
                      HomNambuAlgebra, QuadraticStructure, add_scaled, all_tuples,
                      tuple_position)
from .linalg import Matrix, Vector, frac_str, kron, rank


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


def _tuple_count(dim: int, length: int, skew: bool) -> int:
    return comb(dim, length) if skew else dim ** length


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
    position in ``all_tuples`` order, as the exhaustive loop would count.
    Two skew-storage tensors are compared on their increasing keys alone:
    their difference alternates, and the sorted arrangement of distinct
    indices is the least in lexicographic order, so the first differing
    tuple is an increasing one."""
    if all(isinstance(x, BracketTensor) and x.skew_storage for x in (left, right)):
        left, right = left.coeffs, right.coeffs
    else:
        left, right = _entries(left), _entries(right)
    first = None
    for t in left.keys() | right.keys():
        if (first is None or t < first) and left.get(t) != right.get(t):
            first = t
    if first is None:
        return CheckReport(identity, True, None, d ** n)
    lv, rv = left.get(first), right.get(first)
    zero = Vector.zero((rv if lv is None else lv).dim)
    return CheckReport(identity, False,
                       Counterexample(first, zero if lv is None else lv,
                                      zero if rv is None else rv),
                       tuple_position(first, d) + 1, detail=detail)


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
    skew = a.skew and all(t == a.twists[0] for t in a.twists[1:])
    count = _tuple_count(d, n - 1, skew) * _tuple_count(d, n, skew)
    _budget(count, max_tuples)
    if skew:
        return _skew_identity(a, count)

    # left side: [a1(x1), ..., a_{n-1}(x_{n-1}), w] with w a free last slot
    top = C.transform(list(a.twists) + [None])
    # right side, term i: slot i free, slots j<i carry a_j, slots j>i carry a_{j-1}
    side = [C.transform(_twist_slots(a.twists, n, i)) for i in range(n)]

    checked = 0
    for x in all_tuples(d, n - 1):
        for y in all_tuples(d, n):
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


def _comb_rank(t: Tuple[int, ...], d: int) -> int:
    """Position of an increasing tuple in ``increasing_tuples(d, len(t))``."""
    m = len(t)
    return comb(d, m) - 1 - sum(comb(d - 1 - v, m - p) for p, v in enumerate(t))


def _skew_identity(a: HomNambuAlgebra, count: int) -> CheckReport:
    """The fundamental identity on increasing x and y, from nonzero entries
    only, for skew storage with all twists one map a.

    For each increasing x with a nonzero [x, .] or twisted [a(x), .], both
    sides are accumulated as rows keyed by increasing y: the left side from
    the stored values [y], the right side from the entries of each twisted
    copy of the bracket with slot i free, grouped by their slot-i index,
    times the coordinates of [x, y_i].  Every copy is read off the stored
    keys by ``free_slot_items``, through minors of the twist.  The first
    differing (x, y) is reported with its position in the loop over
    increasing tuples."""
    C = a.bracket
    d, n = C.dim, C.arity
    # copy i: slot i free and a in every other slot; copy n-1 is the left
    # side's [a(x_1), ..., a(x_{n-1}), w]
    copies = [C.free_slot_items(i, a.twists[0]) for i in range(n)]
    brackets: Dict[Tuple[int, ...], list] = {}       # x -> [(k, [x, e_k])]
    for t, v in C.free_slot_items(n - 1):
        brackets.setdefault(t[:-1], []).append((t[-1], v.entries))
    twisted: Dict[Tuple[int, ...], dict] = {}        # x -> {j: [a(x), e_j]}
    for t, v in copies[n - 1]:
        twisted.setdefault(t[:-1], {})[t[-1]] = v.entries
    values = [(y, v.entries) for y, v in C.coeffs.items()]
    # entries of copy i whose other slots increase, grouped by their slot-i
    # index; slot i takes k with lo < k < hi
    groups: Dict[int, list] = {}
    for i, items in enumerate(copies):
        for t, v in items:
            head, tail = t[:i], t[i + 1:]
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
                               Counterexample(x + y, Vector.trusted(lhs.get(y, zero)),
                                              Vector.trusted(rhs.get(y, zero))),
                               _comb_rank(x, d) * comb(d, n) + _comb_rank(y, d) + 1)
    return CheckReport("hom_nambu_identity", True, None, count)


def check_skew_symmetry(a: HomNambuAlgebra,
                        max_tuples: Optional[int] = None) -> CheckReport:
    """Total skew-symmetry on basis tuples (adjacent transpositions generate S_n).
    Skew storage is alternating by construction, so it passes unexpanded."""
    count = a.dim ** a.arity
    _budget(count, max_tuples)
    if a.bracket.skew_storage:
        return CheckReport("skew_symmetry", True, None, count)
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
    """Nondegeneracy (degenerate forms warn, not fail), twist symmetry of the
    form, and (beta-)invariance under adjoint operators."""
    a = q.algebra
    n, d = a.arity, a.dim
    G = q.form.gram
    warnings: List[str] = []

    r = rank(G)
    if r < d:
        warnings.append(f"form is degenerate: rank {r} < dim {d}")
    for i, t in enumerate(a.twists):
        if t.T @ G != G @ t:
            return CheckReport("quadratic", False, None, 0,
                               detail=f"form not symmetric with respect to twist {i + 1}",
                               warnings=tuple(warnings))

    beta = q.beta if q.beta is not None else Matrix.identity(d)
    count = d ** (n - 1)
    _budget(count, max_tuples)
    # W(x, i)_j = B([x, e_i], beta e_j); invariance is the residual
    # W(x, i)_j + W(x, j)_i = 0, and the first failure is the least x + (i, j)
    W = a.bracket.transform([None] * n, out_map=beta.T @ G)
    rows: Dict[Tuple[int, ...], Dict[int, tuple]] = {}    # x -> {i: W(x, i)}
    # skew storage alternates in x, and the sorted arrangement of x is the
    # least, so increasing x suffice, read off the stored keys
    for t, v in W.free_slot_items(n - 1) if W.skew_storage else W.coeffs.items():
        rows.setdefault(t[:-1], {})[t[-1]] = v.entries
    zero = (0,) * d
    for x in sorted(rows):
        wx = rows[x]
        # the residual is symmetric in (i, j), so the least failing pair is sorted
        bad = [tuple(sorted((i, j))) for i, w in wx.items() for j, c in enumerate(w)
               if c and c + wx.get(j, zero)[i]]
        if bad:
            i, j = min(bad)
            return CheckReport("quadratic", False,
                               Counterexample(x + (i, j), Vector([wx.get(i, zero)[j]]),
                                              Vector([-wx.get(j, zero)[i]])),
                               tuple_position(x, d) + 1,
                               detail="invariance identity fails",
                               warnings=tuple(warnings))
    return CheckReport("quadratic", True, None, count, warnings=tuple(warnings))


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


def _matrix_product(m: int) -> BracketTensor:
    """The product of m x m matrices as a bilinear tensor on their row-major
    flattenings: (r*m+k, k*m+c) -> e_{r*m+c}."""
    return BracketTensor(m * m, 2, {(r * m + k, k * m + c): Vector.basis(m * m, r * m + c)
                                    for r in range(m) for k in range(m) for c in range(m)})


def check_representation(a: HomNambuAlgebra, rep, mode: str = "primal",
                         max_tuples: Optional[int] = None) -> CheckReport:
    """Representation identity (primal) or the dual-representation condition.

    The inner-twist indexing follows the reading under which the adjoint
    action is a representation: in term i the free slot is i, slots before it
    carry the twists a_1..a_{i-1} and slots after it a_i..a_{n-2}, applied to
    the second tuple of arguments.

    Both sides are tensors keyed x + y: the operator product rho(a x) rho(y)
    (dual: rho(x) rho(a y)) minus its block swap, against the sum over i of
    [x, y_i] substituted into slot i, times nu on the right (dual: left).
    """
    if mode not in ("primal", "dual"):
        raise ValueError("mode must be 'primal' or 'dual'")
    n, d = a.arity, a.dim
    m = rep.target_dim
    rho = rep.rho
    _budget(d ** (2 * (n - 1)), max_tuples)

    rho_tw = rho.transform(list(a.twists))  # rho(a_1 x_1, ..., a_{n-1} x_{n-1})
    product = _matrix_product(m).compose([rho_tw, rho] if mode == "primal"
                                         else [rho, rho_tw])
    swap = list(range(n - 1, 2 * n - 2)) + list(range(n - 1))
    lhs = BracketTensor.combine([(1, product), (-1, product.permute(swap))])
    # substituting into slot i keys term i y[:i] + x + (y_i,) + y[i+1:]
    terms = [(1, rho.transform(_twist_slots(a.twists, n - 1, i))
              .substitute(i, a.bracket)
              .permute([i + k for k in range(n - 1)]
                       + [k if k < i else k + n - 1 for k in range(n - 1)]))
             for i in range(n - 1)]
    ident = Matrix.identity(m)
    nu = kron(ident, rep.nu.T) if mode == "primal" else kron(rep.nu, ident)
    rhs = BracketTensor.combine(terms).transform([None] * (2 * n - 2), out_map=nu)
    return _compare(f"representation_{mode}", d, 2 * n - 2, lhs, rhs)
