"""Structure-producing transforms.

Each transform takes verified input structures, checks the hypotheses it
needs, builds the new bracket/form data, and re-verifies the advertised
identities on the output before returning it. Hypothesis or verification
failures raise ConstructionError carrying the failing CheckReport. Every
check a transform runs honours its ``max_tuples`` budget.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (BilinearForm, BracketTensor, HomAssocNAry,
                      HomLeibnizAlgebra, HomNambuAlgebra, QuadraticStructure)
from .checks import (CheckReport, check_hom_leibniz, check_hom_nambu_identity,
                     check_morphism, check_multiplicativity, check_quadratic,
                     check_skew_symmetry)
from .linalg import Matrix, Vector, in_span, kron


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


def _alternating(a: HomNambuAlgebra, expect_skew: Optional[bool] = None,
                 max_tuples: Optional[int] = None) -> HomNambuAlgebra:
    """The algebra, its bracket in skew storage if it passes the skew check;
    a bracket already in skew storage passes it without work, so it is not run."""
    skew = a.bracket.skew_storage or check_skew_symmetry(a, max_tuples).passed
    if expect_skew is not None and skew != expect_skew:
        raise ConstructionError(f"expected skew={expect_skew}, verification says {skew}")
    return replace(a, bracket=a.bracket.skew_canonical()) if skew else a


def _verified_flags(a: HomNambuAlgebra, expect_skew: Optional[bool] = None,
                    max_tuples: Optional[int] = None) -> HomNambuAlgebra:
    """``_alternating``, and the multiplicative flag from a verification run."""
    a = _alternating(a, expect_skew, max_tuples)
    mult = (all(t == a.twists[0] for t in a.twists)
            and check_multiplicativity(a, max_tuples).passed)
    return replace(a, multiplicative=mult)


def _twisted(bracket: BracketTensor, out_map: Matrix, twist: Matrix, what: str,
             verify: bool, max_tuples: Optional[int]) -> HomNambuAlgebra:
    """A twisting step: ``out_map`` after the bracket, every twist ``twist``.
    The output is stored alternating if it is, its multiplicativity report
    sets its flag, and with ``verify`` its identity and then that report are
    required, the failures named after ``what``."""
    n = bracket.arity
    out = HomNambuAlgebra(bracket.dim, n, bracket.transform([None] * n, out_map=out_map),
                          (twist,) * (n - 1))
    out = _alternating(out, max_tuples=max_tuples)
    mult = check_multiplicativity(out, max_tuples)
    out = replace(out, multiplicative=mult.passed)
    if verify:
        _require(check_hom_nambu_identity(out, max_tuples), what)
        _require(mult, f"{what} multiplicativity")
    return out


def _require_twisting(a: HomNambuAlgebra, form: BilinearForm, m: Matrix, name: str,
                      max_tuples: Optional[int]) -> None:
    """The hypotheses on a map ``name`` that twists a quadratic algebra: an
    involution, symmetric with respect to the form, and an automorphism."""
    if m @ m != Matrix.identity(a.dim):
        raise ConstructionError(f"{name} is not an involution")
    if m.T @ form.gram != form.gram @ m:
        raise ConstructionError(f"{name} is not symmetric with respect to the form")
    _require(check_morphism(a, a, m, max_tuples), f"{name} is not an automorphism")


def twist_by_morphism(a: HomNambuAlgebra, rho: Matrix, verify: bool = True,
                      max_tuples: Optional[int] = None) -> HomNambuAlgebra:
    """Compose an untwisted bracket with one of its endomorphisms; the
    endomorphism becomes the twist family."""
    ident = Matrix.identity(a.dim)
    if any(t != ident for t in a.twists):
        raise ConstructionError("input must have identity twists")
    _require(check_morphism(a, a, rho, max_tuples), "rho is not an endomorphism")
    return _twisted(a.bracket, rho, rho, "twisted algebra", verify, max_tuples)


def self_twist(a: HomNambuAlgebra, verify: bool = True,
               max_tuples: Optional[int] = None) -> HomNambuAlgebra:
    """Second twisting principle: bracket composed with the (n-1)-th power of
    the twist, new twist the n-th power."""
    if not a.multiplicative:
        raise ConstructionError("input must be multiplicative")
    n = a.arity
    return _twisted(a.bracket, a.twist.power(n - 1), a.twist.power(n),
                    "self-twisted algebra", verify, max_tuples)


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
    bracket = BracketTensor.kron([([h.mu, a.bracket], [[(0, i), (1, i)] for i in range(n)])])
    twists = tuple(kron(h.twists[i], a.twists[i]) for i in range(n - 1))
    out = HomNambuAlgebra(da * dn, n, bracket, twists)
    out = _verified_flags(out, max_tuples=max_tuples)
    if verify:
        _require(check_hom_nambu_identity(out, max_tuples), "tensor product algebra")
    if form_h is None:
        return out

    beta_h = Matrix.identity(da) if beta_h is None else beta_h
    if form_a is None:
        raise ConstructionError("tensor form needs the quadratic structure of the second factor")
    # hypothesis checks on the associative factor's form
    ga = form_h.gram
    for i in range(n - 1):
        if h.twists[i].T @ ga != ga @ h.twists[i]:
            raise ConstructionError(f"first factor form not symmetric w.r.t. twist {i + 1}")
    # W(t, i)_j = B(mu(t, e_i), beta e_j) must be symmetric in (i, j)
    W = h.mu.transform([None] * n, out_map=beta_h.T @ ga)
    if W != W.swap_output(n - 1):
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
    # [u, v] is the sum over factors i of L(u) on factor i and alpha on the
    # others: u is read by the bracket's first n-1 slots, and factor j of v by
    # its last slot (j = i) or by alpha
    twist = BracketTensor.linear(alpha)
    bracket = BracketTensor.kron([
        ([twist] * i + [a.bracket] + [twist] * (n - 2 - i),
         [[(i, k) for k in range(n - 1)], [(j, n - 1 if j == i else 0) for j in range(n - 1)]])
        for i in range(n - 1)])
    alpha_hat = kron_power(alpha, n - 1)
    out = HomLeibnizAlgebra(bracket.dim, bracket, alpha_hat)
    if verify:
        _require(check_hom_leibniz(out, max_tuples), "induced Leibniz algebra")
    if form is None:
        return out
    if form.beta is None or form.beta != alpha:
        raise ConstructionError("induced form needs a Hom-quadratic input with beta = twist")
    _require(check_quadratic(form, max_tuples), "input quadratic structure")
    b_hat = BilinearForm(bracket.dim, kron_power(form.form.gram, n - 1))
    if verify:
        invariance = check_quadratic(
            QuadraticStructure(out.as_nambu(), b_hat, beta=alpha_hat), max_tuples)
        _require(invariance, "induced form invariance")
    return out, b_hat


def _blocks(top: Tuple[Matrix, Matrix], bottom: Tuple[Matrix, Matrix]) -> Matrix:
    """The 2 x 2 block matrix with rows of d x d blocks ``top`` and ``bottom``."""
    d = top[0].rows
    return Matrix.trusted(2 * d, 2 * d, [m[i, j] for half in (top, bottom) for i in range(d)
                                         for m in half for j in range(d)])


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

    # skew storage, so every key has its dual index, if any, last: the stored
    # entry (K, v) of C keeps v on the N block, and each entry (rest + (m,), v)
    # with rest increasing puts -v_j at dual coordinate m of rest + (e_j*,)
    C = a.bracket.skew_canonical()
    zero_d = [Fraction(0)] * d
    rows: Dict[Tuple[int, ...], List[Fraction]] = {
        t: list(v.entries) + zero_d for t, v in C.coeffs.items()}
    for t, v in C.free_slot_items(n - 1):
        rest, m = t[:-1], t[-1]
        for j, x in enumerate(v.entries):
            if x:
                rows.setdefault(rest + (d + j,), [Fraction(0)] * (2 * d))[d + m] = -x
    bracket = BracketTensor(2 * d, n, {t: Vector.trusted(row) for t, row in rows.items()},
                            skew_storage=True)

    zero = Matrix.zero(d, d)
    big_form = BilinearForm(2 * d, _blocks((form.gram, ident), (ident, zero)))

    if omega is None:
        ext = HomNambuAlgebra(2 * d, n, bracket, (Matrix.identity(2 * d),) * (n - 1))
        ext = _verified_flags(ext, max_tuples=max_tuples)
        if verify:
            _require(check_hom_nambu_identity(ext, max_tuples), "T*-extension")
            _require(check_quadratic(QuadraticStructure(ext, big_form), max_tuples),
                     "T*-extension form")
        return TStarResult(QuadraticStructure(ext, big_form))

    _require_twisting(a, form, omega, "omega", max_tuples)
    big_omega = _blocks((omega, zero), (zero, omega.T))
    twisted = _twisted(bracket, big_omega, big_omega, "twisted T*-extension", verify,
                       max_tuples)
    struct = QuadraticStructure(twisted, big_form, beta=big_omega)
    omega_form = BilinearForm(2 * d, big_omega.T @ big_form.gram)
    if verify:
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

    t_a, t_g = alpha.T.apply(tau), gamma.T.apply(tau)      # i -> tau(m e_i)
    for i in range(d):
        for j in range(d):
            for name, t in (("a", t_a), ("g", t_g)):
                if t[i] * tau[j] != tau[i] * t[j]:
                    raise ConstructionError(f"trace condition tau({name} x) tau(y) = "
                                            f"tau(x) tau({name} y) fails at ({i + 1},{j + 1})")
            if gamma.col(j).scale(t_a[i]) != alpha.col(j).scale(t_g[i]):
                raise ConstructionError(
                    f"trace condition tau(a x) g(y) = tau(g x) a(y) fails at ({i + 1},{j + 1})")

    # tau(x)[y, z] and its two cyclic readings tau(y)[z, x] and tau(z)[x, y]
    reads = [[(0, 0)], [(1, 0)], [(1, 1)]]
    tau_map = BracketTensor.linear(Matrix.trusted(1, d, tau.entries))
    bracket = BracketTensor.kron([([tau_map, l.bracket], reads[3 - r:] + reads[:3 - r])
                                  for r in range(3)])
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
    if any(tau[i] * m[j, k] != tau[j] * m[i, k]
           for i in range(d) for j in range(d) for k in range(d)):
        raise ConstructionError("compatibility tau(x) B(beta y, z) = tau(y) B(beta x, z) fails")
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
