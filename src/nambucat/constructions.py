"""Structure-producing transforms.

Each transform takes verified input structures, checks the hypotheses it
needs, builds the new bracket/form data, and re-verifies the advertised
identities on the output before returning it. Hypothesis or verification
failures raise ConstructionError carrying the failing CheckReport. Every
check a transform runs honours its ``max_tuples`` budget.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (BilinearForm, BracketTensor, HomAssocNAry,
                      HomLeibnizAlgebra, HomNambuAlgebra, QuadraticStructure,
                      all_tuples, tuple_position)
from .checks import (CheckReport, check_hom_leibniz, check_hom_nambu_identity,
                     check_morphism, check_multiplicativity, check_quadratic,
                     check_skew_symmetry)
from .linalg import Matrix, Vector, in_span, kron, kron_vec


def kron_power(m: Matrix, k: int) -> Matrix:
    acc = Matrix.identity(1)
    for _ in range(k):
        acc = kron(acc, m)
    return acc


class ConstructionError(ValueError):
    """A construction hypothesis or output verification failed."""

    def __init__(self, message: str, report: Optional[CheckReport] = None):
        super().__init__(message)
        self.report = report


def _require(report: CheckReport, what: str) -> CheckReport:
    if not report.passed:
        raise ConstructionError(f"{what}: {report.identity} check failed", report)
    return report


def _verified_flags(a: HomNambuAlgebra, expect_skew: Optional[bool] = None,
                    max_tuples: Optional[int] = None) -> HomNambuAlgebra:
    """Set skew/multiplicative flags from actual verification runs."""
    skew = check_skew_symmetry(a, max_tuples).passed
    if expect_skew is not None and skew != expect_skew:
        raise ConstructionError(f"expected skew={expect_skew}, verification says {skew}")
    mult = (all(t == a.twists[0] for t in a.twists)
            and check_multiplicativity(a, max_tuples).passed)
    out = a.with_flags(skew=skew, multiplicative=mult)
    if skew and not out.bracket.skew_storage:
        out = HomNambuAlgebra(out.dim, out.arity, out.bracket.skew_canonical(),
                              out.twists, skew=True, multiplicative=mult)
    return out


def twist_by_morphism(a: HomNambuAlgebra, rho: Matrix, verify: bool = True,
                      max_tuples: Optional[int] = None) -> HomNambuAlgebra:
    """Compose an untwisted bracket with one of its endomorphisms; the
    endomorphism becomes the twist family."""
    ident = Matrix.identity(a.dim)
    if any(t != ident for t in a.twists):
        raise ConstructionError("input must have identity twists")
    _require(check_morphism(a, a, rho, max_tuples), "rho is not an endomorphism")
    bracket = a.bracket.transform([None] * a.arity, out_map=rho)
    out = HomNambuAlgebra(a.dim, a.arity, bracket,
                          (rho,) * (a.arity - 1))
    out = _verified_flags(out, max_tuples=max_tuples)
    if verify:
        _require(check_hom_nambu_identity(out, max_tuples), "twisted algebra")
    return out


def self_twist(a: HomNambuAlgebra, verify: bool = True,
               max_tuples: Optional[int] = None) -> HomNambuAlgebra:
    """Second twisting principle: bracket composed with the (n-1)-th power of
    the twist, new twist the n-th power."""
    if not a.multiplicative:
        raise ConstructionError("input must be multiplicative")
    alpha = a.twist
    n = a.arity
    bracket = a.bracket.transform([None] * n, out_map=alpha.power(n - 1))
    out = HomNambuAlgebra(a.dim, n, bracket, (alpha.power(n),) * (n - 1))
    out = _verified_flags(out, max_tuples=max_tuples)
    if verify:
        _require(check_hom_nambu_identity(out, max_tuples), "self-twisted algebra")
    return out


def _flat(idx_a: int, idx_n: int, dn: int) -> int:
    return idx_a * dn + idx_n


def tensor_product(h: HomAssocNAry, a: HomNambuAlgebra,
                   form_h: Optional[BilinearForm] = None,
                   beta_h: Optional[Matrix] = None,
                   form_a: Optional[QuadraticStructure] = None,
                   verify: bool = True, max_tuples: Optional[int] = None):
    """Bracket mu(a_1..a_n) (x) [x_1..x_n] on the tensor space, twists the
    slot-wise Kronecker products.

    With forms given, also returns the product form together with its twist
    (the Kronecker product of the two beta maps)."""
    if h.arity != a.arity:
        raise ConstructionError("arity mismatch")
    n = a.arity
    da, dn = h.dim, a.dim
    items: Dict[Tuple[int, ...], Vector] = {}
    for s, mv in h.mu.dense_items():
        for t, cv in a.bracket.dense_items():
            key = tuple(_flat(s[i], t[i], dn) for i in range(n))
            items[key] = kron_vec(mv, cv)
    bracket = BracketTensor(da * dn, n, items)
    twists = tuple(kron(h.twists[i], a.twists[i]) for i in range(n - 1))
    out = HomNambuAlgebra(da * dn, n, bracket, twists)
    out = _verified_flags(out, max_tuples=max_tuples)
    if verify:
        _require(check_hom_nambu_identity(out, max_tuples), "tensor product algebra")
    if form_h is None:
        return out

    if beta_h is None:
        beta_h = Matrix.identity(da)
    if form_a is None:
        raise ConstructionError("tensor form needs the quadratic structure of the second factor")
    # hypothesis checks on the associative factor's form
    ga = form_h.gram
    for i in range(n - 1):
        if h.twists[i].T @ ga != ga @ h.twists[i]:
            raise ConstructionError(f"first factor form not symmetric w.r.t. twist {i + 1}")
    for t in all_tuples(da, n - 1):
        # mu(t_1..t_{n-1}, .) as an operator, invariance twisted by beta_h
        op = Matrix.from_columns([h.mu.value(t + (j,)) for j in range(da)])
        if op.T @ ga @ beta_h != beta_h.T @ ga @ op:
            raise ConstructionError("first factor form is not beta-invariant for the product")
    _require(check_quadratic(form_a, max_tuples), "second factor quadratic structure")
    beta_a = form_a.beta if form_a.beta is not None else Matrix.identity(dn)
    big_form = BilinearForm(da * dn, kron(ga, form_a.form.gram))
    omega = kron(beta_h, beta_a)
    result = QuadraticStructure(out, big_form, beta=omega)
    if verify:
        _require(check_quadratic(result, max_tuples), "tensor product quadratic structure")
    return out, result


def induced_hom_leibniz(a: HomNambuAlgebra,
                        form: Optional[QuadraticStructure] = None,
                        verify: bool = True, max_tuples: Optional[int] = None):
    """Binary bracket on the (n-1)-fold tensor power: the adjoint action of
    one fundamental element on another, slotwise, with the twist applied to
    untouched factors.

    With a quadratic structure supplied (its beta must equal the twist), also
    returns the product form on simple tensors and verifies its invariance.
    """
    if not a.multiplicative:
        raise ConstructionError("input must be multiplicative")
    n, d = a.arity, a.dim
    alpha = a.twist
    D = d ** (n - 1)
    alpha_entries = [(k, j, alpha[k, j]) for k in range(d) for j in range(d) if alpha[k, j]]
    # [u, v] is the sum over factors i of L(u) on factor i and alpha on the
    # others.  An entry (u + (c,), w) of the bracket meets every v with
    # v_i = c; each other factor j contributes an entry alpha[k_j, v_j], and
    # the output tensor index is k with k_i running over w.
    rows: Dict[Tuple[int, int], List[Fraction]] = {}
    for t, w in a.bracket.dense_items():
        ui, c = tuple_position(t[:-1], d), t[-1]
        for i in range(n - 1):
            for others in itertools.product(alpha_entries, repeat=n - 2):
                coef = prod(x for _, _, x in others)
                ks = [k for k, _, _ in others]
                vs = [j for _, j, _ in others]
                vi = tuple_position(vs[:i] + [c] + vs[i:], d)
                row = rows.setdefault((ui, vi), [Fraction(0)] * D)
                for r, x in enumerate(w.entries):
                    if x:
                        row[tuple_position(ks[:i] + [r] + ks[i:], d)] += coef * x
    bracket = BracketTensor(D, 2, {key: Vector(row) for key, row in rows.items()})
    alpha_hat = kron_power(alpha, n - 1)
    out = HomLeibnizAlgebra(D, bracket, alpha_hat)
    if verify:
        _require(check_hom_leibniz(out, max_tuples), "induced Leibniz algebra")
    if form is None:
        return out
    if form.beta is None or form.beta != alpha:
        raise ConstructionError("induced form needs a Hom-quadratic input with beta = twist")
    _require(check_quadratic(form, max_tuples), "input quadratic structure")
    b_hat = BilinearForm(D, kron_power(form.form.gram, n - 1))
    if verify:
        invariance = check_quadratic(
            QuadraticStructure(out.as_nambu(), b_hat, beta=alpha_hat), max_tuples)
        _require(invariance, "induced form invariance")
    return out, b_hat


def _blocks(top: Tuple[Matrix, Matrix], bottom: Tuple[Matrix, Matrix]) -> Matrix:
    """The 2 x 2 block matrix with rows of d x d blocks ``top`` and ``bottom``."""
    d = top[0].rows
    return Matrix.from_rows([[m[i, j] for m in half for j in range(d)]
                             for half in (top, bottom) for i in range(d)])


@dataclass(frozen=True)
class TStarResult:
    """Output of the T*-extension: the quadratic structure on N + N*, plus the
    twist data when an involution was supplied."""

    structure: QuadraticStructure
    omega: Optional[Matrix] = None
    omega_form: Optional[BilinearForm] = None

    @property
    def algebra(self) -> HomNambuAlgebra:
        return self.structure.algebra


def tstar_extension(a: HomNambuAlgebra, form: BilinearForm,
                    omega: Optional[Matrix] = None, verify: bool = True,
                    max_tuples: Optional[int] = None) -> TStarResult:
    """Extension on N + N*: the bracket keeps the N part and adds the signed
    coadjoint correction terms; the form is the hyperbolic pairing extended
    by the original form on the N block."""
    n, d = a.arity, a.dim
    ident = Matrix.identity(d)
    if not a.skew or any(t != ident for t in a.twists):
        raise ConstructionError("input must be a skew algebra with identity twists")
    _require(check_quadratic(QuadraticStructure(a, form), max_tuples),
             "input quadratic structure")

    entries = a.bracket.dense_items()
    zero_d = [Fraction(0)] * d
    rows: Dict[Tuple[int, ...], List[Fraction]] = {
        t: list(v.entries) + zero_d for t, v in entries}
    # one dual element e_j* at position i (0-based), sign (-1)^{(i+1)+n+1}:
    # the entry (rest + (m,), v) puts sign * v_j at dual coordinate m of
    # rest[:i] + (e_j*,) + rest[i:]
    for t, v in entries:
        rest, m = t[:-1], t[-1]
        for i in range(n):
            sign = 1 if (i + n) % 2 == 0 else -1
            for j, x in enumerate(v.entries):
                if x:
                    key = rest[:i] + (d + j,) + rest[i:]
                    rows.setdefault(key, [Fraction(0)] * (2 * d))[d + m] = sign * x
    bracket = BracketTensor(2 * d, n, {t: Vector(row) for t, row in rows.items()})

    zero = Matrix.zero(d, d)
    big_form = BilinearForm(2 * d, _blocks((form.gram, ident), (ident, zero)))

    big_ident = Matrix.identity(2 * d)
    ext = HomNambuAlgebra(2 * d, n, bracket, (big_ident,) * (n - 1))
    ext = _verified_flags(ext, max_tuples=max_tuples)
    if omega is None:
        if verify:
            _require(check_hom_nambu_identity(ext, max_tuples), "T*-extension")
            _require(check_quadratic(QuadraticStructure(ext, big_form), max_tuples),
                     "T*-extension form")
        return TStarResult(QuadraticStructure(ext, big_form))

    if omega @ omega != ident:
        raise ConstructionError("omega is not an involution")
    if omega.T @ form.gram != form.gram @ omega:
        raise ConstructionError("omega is not symmetric with respect to the form")
    _require(check_morphism(a, a, omega, max_tuples), "omega is not an automorphism")
    big_omega = _blocks((omega, zero), (zero, omega.T))

    tw_bracket = bracket.transform([None] * n, out_map=big_omega)
    twisted = HomNambuAlgebra(2 * d, n, tw_bracket, (big_omega,) * (n - 1))
    twisted = _verified_flags(twisted, max_tuples=max_tuples)
    struct = QuadraticStructure(twisted, big_form, beta=big_omega)
    omega_form = BilinearForm(2 * d, big_omega.T @ big_form.gram)
    if verify:
        _require(check_hom_nambu_identity(twisted, max_tuples), "twisted T*-extension")
        _require(check_multiplicativity(twisted, max_tuples),
                 "twisted T*-extension multiplicativity")
        _require(check_quadratic(struct, max_tuples),
                 "twisted T*-extension Hom-quadratic form")
        _require(check_quadratic(QuadraticStructure(twisted, omega_form), max_tuples),
                 "twisted T*-extension pulled-back form")
    return TStarResult(struct, omega=big_omega, omega_form=omega_form)


def pullback_form(form: BilinearForm, m: Matrix) -> BilinearForm:
    """New gram matrix m^T g, defined when m is symmetric for the form."""
    if m.T @ form.gram != form.gram @ m:
        raise ConstructionError("map is not symmetric with respect to the form")
    return BilinearForm(form.dim, m.T @ form.gram)


def trace_induced_ternary(l: HomLeibnizAlgebra, gamma: Matrix, tau: Vector,
                          form: Optional[BilinearForm] = None,
                          beta: Optional[Matrix] = None,
                          verify: bool = True, max_tuples: Optional[int] = None):
    """Ternary bracket tau(x)[y,z] + tau(y)[z,x] + tau(z)[x,y] with twist
    pair (twist, gamma); optionally carries a form into a quadratic output."""
    d = l.dim
    alpha = l.twist
    _require(check_skew_symmetry(l.as_nambu(), max_tuples), "input bracket skew-symmetry")

    def tval(m: Matrix) -> Vector:
        return m.T.apply(tau)   # i -> tau(m e_i)

    t_a, t_g = tval(alpha), tval(gamma)
    for i in range(d):
        for j in range(d):
            if t_a[i] * tau[j] != tau[i] * t_a[j]:
                raise ConstructionError(
                    f"trace condition tau(a x) tau(y) = tau(x) tau(a y) fails at ({i + 1},{j + 1})")
            if t_g[i] * tau[j] != tau[i] * t_g[j]:
                raise ConstructionError(
                    f"trace condition tau(g x) tau(y) = tau(x) tau(g y) fails at ({i + 1},{j + 1})")
            if gamma.col(j).scale(t_a[i]) != alpha.col(j).scale(t_g[i]):
                raise ConstructionError(
                    f"trace condition tau(a x) g(y) = tau(g x) a(y) fails at ({i + 1},{j + 1})")

    # tau(x)[y, z], moved by the two cyclic reorders to tau(y)[z, x] and tau(z)[x, y]
    first = BracketTensor(d, 3, {(i,) + t: v.scale(tau[i]) for i in range(d) if tau[i]
                                 for t, v in l.bracket.dense_items()})
    bracket = BracketTensor.combine([(1, first), (1, first.permute((2, 0, 1))),
                                     (1, first.permute((1, 2, 0)))])
    tern = HomNambuAlgebra(d, 3, bracket, (alpha, gamma))
    tern = _verified_flags(tern, expect_skew=True, max_tuples=max_tuples)
    if verify:
        _require(check_hom_nambu_identity(tern, max_tuples), "trace-induced ternary algebra")
    if form is None:
        return tern

    b = beta if beta is not None else Matrix.identity(d)
    g = form.gram
    if alpha.T @ g != g @ alpha:
        raise ConstructionError("form not symmetric with respect to the first twist")
    if gamma.T @ g != g @ gamma:
        raise ConstructionError("form not symmetric with respect to the second twist")
    m = b.T @ g
    for i in range(d):
        for j in range(d):
            for k in range(d):
                if tau[i] * m[j, k] != tau[j] * m[i, k]:
                    raise ConstructionError(
                        "compatibility tau(x) B(beta y, z) = tau(y) B(beta x, z) fails")
    struct = QuadraticStructure(tern, form, beta=beta)
    if verify:
        _require(check_quadratic(struct, max_tuples), "trace-induced quadratic structure")
    return tern, struct


_RAISE_SIZE_LIMIT = 1_000_000


def raise_arity(q: QuadraticStructure, k: int, verify: bool = True,
                max_tuples: Optional[int] = None) -> QuadraticStructure:
    """Iterate the arity-doubling product: each step nests the previous
    bracket inside itself with twisted trailing arguments, squares the twist,
    and composes the form twist with the current twist power.  The checks on
    the output honour ``max_tuples``."""
    if k < 0:
        raise ConstructionError("k must be nonnegative")
    if k == 0:
        return q
    a = q.algebra
    if not a.multiplicative:
        raise ConstructionError("input must be multiplicative")
    alpha = a.twist
    d = a.dim
    C = a.bracket
    arity = a.arity
    beta = q.beta if q.beta is not None else Matrix.identity(d)
    alpha_pow = alpha          # alpha^(2^step) during iteration
    for _ in range(k):
        new_arity = 2 * arity - 1
        if d ** new_arity > _RAISE_SIZE_LIMIT:
            raise ConstructionError("raised bracket tensor would be too large")
        C = C.transform([None] + [alpha_pow] * (arity - 1)).substitute(0, C)
        beta = beta @ alpha_pow
        alpha_pow = alpha_pow @ alpha_pow
        arity = new_arity
    out = HomNambuAlgebra(d, arity, C, (alpha_pow,) * (arity - 1))
    out = _verified_flags(out, max_tuples=max_tuples)
    struct = QuadraticStructure(out, q.form, beta=beta)
    if verify:
        _require(check_hom_nambu_identity(out, max_tuples), "raised-arity algebra")
        _require(check_quadratic(struct, max_tuples), "raised-arity quadratic structure")
    return struct


def reduce_arity(q: QuadraticStructure, fixed: Sequence[Vector], verify: bool = True,
                 max_tuples: Optional[int] = None) -> QuadraticStructure:
    """Freeze leading arguments to fixed vectors that the relevant twists fix
    and that annihilate the bracket per the lowering hypotheses."""
    a = q.algebra
    n, d = a.arity, a.dim
    k = len(fixed)
    if n - k < 2:
        raise ConstructionError("reduced arity must be at least 2")
    C = a.bracket
    for j, v in enumerate(fixed):
        if a.twists[j].apply(v) != v:
            raise ConstructionError(f"twist {j + 1} does not fix the fixed vector {j + 1}")
        # [fixed_1..fixed_{j+1}, e_t, fixed_{j+1}] = 0 for every basis tuple t
        vals = C.substitute(n - 1, BracketTensor.constant(v)).fix(fixed[:j + 1])
        if vals.coeffs:
            t = min(vals.coeffs)
            raise ConstructionError(
                f"annihilation hypothesis fails for fixed vector {j + 1} at tuple "
                f"{tuple(i + 1 for i in t)}")

    out = HomNambuAlgebra(d, n - k, C.fix(fixed), tuple(a.twists[k:]))
    out = _verified_flags(out, max_tuples=max_tuples)
    struct = QuadraticStructure(out, q.form, beta=q.beta)
    if verify:
        _require(check_hom_nambu_identity(out, max_tuples), "reduced-arity algebra")
        _require(check_quadratic(struct, max_tuples), "reduced-arity quadratic structure")
    return struct


def centroid_twisted_bracket(a: HomNambuAlgebra, theta: Matrix, p: int,
                             verify: bool = True,
                             max_tuples: Optional[int] = None) -> HomNambuAlgebra:
    """Apply a centroid element to the first p arguments; the element becomes
    the twist family."""
    n, d = a.arity, a.dim
    ident = Matrix.identity(d)
    if not a.skew or any(t != ident for t in a.twists):
        raise ConstructionError("input must be a skew algebra with identity twists")
    if not 1 <= p <= n:
        raise ConstructionError("p must be between 1 and the arity")
    from .spaces import compute_centroid
    cent = compute_centroid(a, 0)
    if in_span([m.flatten() for m in cent.basis], theta.flatten()) is None:
        raise ConstructionError("theta is not in the centroid")
    bracket = a.bracket.transform([theta] * p + [None] * (n - p))
    out = HomNambuAlgebra(d, n, bracket, (theta,) * (n - 1))
    out = _verified_flags(out, expect_skew=True, max_tuples=max_tuples)
    if verify:
        _require(check_hom_nambu_identity(out, max_tuples), "centroid-twisted algebra")
    return out
