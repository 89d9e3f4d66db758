"""Reference checkers: the tuple-by-tuple loops that ``nambucat.checks`` and
``nambucat.spaces`` used for the pointwise identities before these became a
comparison of two sparse tensors, the Hom-Leibniz loop from before it
became the arity-2 fundamental identity, and the fundamental-identity and
quadratic-invariance loops from before their sparse kernels.  Every basis
tuple gets its own ``value`` lookups and fresh Vector arithmetic.  Tests
compare the library's reports against them.
"""

from math import comb
from typing import List, Optional, Tuple

from nambucat.algebra import BracketTensor, all_tuples, increasing_tuples
from nambucat.checks import CheckReport, Counterexample, _budget, _twist_slots
from nambucat.linalg import Matrix, Vector, rank
from nambucat.spaces import _twist_power

from oracle_representations import adjoint_of_basis_tuple


def skew_symmetry(a, max_tuples=None) -> CheckReport:
    n, d = a.arity, a.dim
    C = a.bracket
    _budget(d ** n, max_tuples)
    checked = 0
    for t in all_tuples(d, n):
        checked += 1
        v = C.value(t)
        for k in range(n - 1):
            s = t[:k] + (t[k + 1], t[k]) + t[k + 2:]
            w = C.value(s)
            if w != -v:
                return CheckReport("skew_symmetry", False,
                                   Counterexample(t, v, -w), checked,
                                   detail=f"transposition of slots {k + 1},{k + 2}")
    return CheckReport("skew_symmetry", True, None, checked)


def multiplicativity(a, max_tuples=None) -> CheckReport:
    n, d = a.arity, a.dim
    if any(t != a.twists[0] for t in a.twists[1:]):
        return CheckReport("multiplicativity", False, None, 0, detail="twists differ")
    alpha = a.twists[0]
    _budget(d ** n, max_tuples)
    twisted = a.bracket.transform([alpha] * n)
    checked = 0
    for t in all_tuples(d, n):
        checked += 1
        lhs = alpha.apply(a.bracket.value(t))
        rhs = twisted.value(t)
        if lhs != rhs:
            return CheckReport("multiplicativity", False,
                               Counterexample(t, lhs, rhs), checked)
    return CheckReport("multiplicativity", True, None, checked)


def total_hom_associativity(h, max_tuples=None) -> CheckReport:
    n, d = h.arity, h.dim
    mu = h.mu
    _budget(d ** n + d ** (2 * n - 1), max_tuples)
    checked = 0
    for t in all_tuples(d, n):
        checked += 1
        v = mu.value(t)
        for k in range(n - 1):
            s = t[:k] + (t[k + 1], t[k]) + t[k + 2:]
            if mu.value(s) != v:
                return CheckReport("total_hom_associativity", False,
                                   Counterexample(t, v, mu.value(s)), checked,
                                   detail="product not symmetric")
    patterns = []
    for p in range(n):
        maps: List[Optional[Matrix]] = []
        for j in range(n):
            if j < p:
                maps.append(h.twists[j])
            elif j == p:
                maps.append(None)
            else:
                maps.append(h.twists[j - 1])
        patterns.append(mu.transform(maps))

    def assoc_value(p: int, t: Tuple[int, ...]) -> Vector:
        inner = mu.value(t[p:p + n])
        outer_idx = t[:p] + t[p + n:]
        acc = Vector.zero(d)
        for j, cj in enumerate(inner.entries):
            if cj:
                acc = acc + patterns[p].value(outer_idx[:p] + (j,) + outer_idx[p:]).scale(cj)
        return acc

    for t in all_tuples(d, 2 * n - 1):
        checked += 1
        prev = assoc_value(0, t)
        for p in range(1, n):
            cur = assoc_value(p, t)
            if cur != prev:
                return CheckReport("total_hom_associativity", False,
                                   Counterexample(t, prev, cur), checked,
                                   detail=f"association orders {p} and {p + 1} differ")
            prev = cur
    return CheckReport("total_hom_associativity", True, None, checked)


def hom_leibniz(l, max_tuples=None) -> CheckReport:
    d = l.dim
    C = l.bracket
    _budget(d ** 3, max_tuples)
    left_tw = C.transform([l.twist, None])    # [a(u), w]
    right_tw = C.transform([None, l.twist])   # [w, a(u)]
    checked = 0

    def contract(tensor, fixed: int, free_vec: Vector, slot: int) -> Vector:
        acc = Vector.zero(d)
        for j, cj in enumerate(free_vec.entries):
            if cj:
                idx = (fixed, j) if slot == 1 else (j, fixed)
                acc = acc + tensor.value(idx).scale(cj)
        return acc

    for x, y, z in all_tuples(d, 3):
        checked += 1
        lhs = contract(left_tw, x, C.value((y, z)), 1)
        rhs = (contract(right_tw, z, C.value((x, y)), 0)
               + contract(left_tw, y, C.value((x, z)), 1))
        if lhs != rhs:
            return CheckReport("hom_leibniz", False,
                               Counterexample((x, y, z), lhs, rhs), checked)
    return CheckReport("hom_leibniz", True, None, checked)


def morphism(src, dst, f: Matrix, max_tuples=None) -> CheckReport:
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
    if src.dim == dst.dim:
        mapped = dst.bracket.transform([f] * n)
    else:
        # rectangular f: evaluate columns directly
        cols = [f.col(j) for j in range(d)]
        items = {}
        for t in all_tuples(d, n):
            v = dst.bracket.eval([cols[i] for i in t])
            if not v.is_zero():
                items[t] = v
        mapped = BracketTensor(d, n, items, vdim=dst.dim)
    checked = 0
    for t in all_tuples(d, n):
        checked += 1
        lhs = f.apply(src.bracket.value(t))
        rhs = mapped.value(t)
        if lhs != rhs:
            return CheckReport("morphism", False, Counterexample(t, lhs, rhs), checked)
    return CheckReport("morphism", True, None, checked)


def _centroid(identity: str, bracket, f: Matrix, pw: Matrix) -> CheckReport:
    d, n = bracket.dim, bracket.arity
    pattern = bracket.transform([f] + [pw] * (n - 1))
    count = 0
    for t in all_tuples(d, n):
        count += 1
        left = f.apply(bracket.value(t))
        right = pattern.value(t)
        if left != right:
            return CheckReport(identity, False, Counterexample(t, left, right), count)
    return CheckReport(identity, True, None, count)


def centroid_membership(a, theta: Matrix, k: int) -> CheckReport:
    return _centroid("centroid_membership", a.bracket, theta, _twist_power(a, k))


def assoc_centroid_membership(h, f: Matrix, k: int) -> CheckReport:
    return _centroid("assoc_centroid_membership", h.mu, f, _twist_power(h, k))


def derivation_membership(a, big_d: Matrix, k: int) -> CheckReport:
    d, n = a.dim, a.arity
    alpha = a.twist
    if big_d @ alpha != alpha @ big_d:
        return CheckReport("derivation_membership", False, None, 0,
                           detail="candidate does not commute with the twist")
    pw = _twist_power(a, k)
    patterns = [a.bracket.transform(
        [pw if j != i else big_d for j in range(n)]) for i in range(n)]
    count = 0
    for t in all_tuples(d, n):
        count += 1
        left = big_d.apply(a.bracket.value(t))
        right = Vector.zero(d)
        for p in patterns:
            right = right + p.value(t)
        if left != right:
            return CheckReport("derivation_membership", False,
                               Counterexample(t, left, right), count)
    return CheckReport("derivation_membership", True, None, count)


def hom_nambu_identity(a, max_tuples=None) -> CheckReport:
    n, d = a.arity, a.dim
    C = a.bracket
    skew = a.skew
    if skew:
        count = comb(d, n - 1) * comb(d, n)
        tuples = increasing_tuples
    else:
        count = d ** (n - 1) * d ** n
        tuples = all_tuples
    _budget(count, max_tuples)
    top = C.transform(list(a.twists) + [None])
    side = [C.transform(_twist_slots(a.twists, n, i)) for i in range(n)]
    checked = 0
    for x in tuples(d, n - 1):
        for y in tuples(d, n):
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


def quadratic(q, max_tuples=None) -> CheckReport:
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
    _budget(d ** (n - 1), max_tuples)
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
