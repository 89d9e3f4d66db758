"""Structure-producing transforms.

Each transform takes verified input structures, checks the hypotheses it
needs, builds the new bracket/form data, and re-verifies the advertised
identities on the output before returning it: every Hom-Nambu algebra
built goes through one output step, ``_finish``, and every structure with a
form through one more, ``_quadratic``.  Hypothesis or verification failures
raise ConstructionError carrying the failing CheckReport. Every check a
transform runs honours its ``max_tuples`` budget.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (BilinearForm, BracketTensor, HomAssocNAry,
                      HomLeibnizAlgebra, HomNambuAlgebra, QuadraticStructure)
from .checks import (CheckReport, _budget, check_hom_leibniz, check_hom_nambu_identity,
                     check_morphism, check_multiplicativity, check_quadratic,
                     check_skew_symmetry)
from .linalg import Matrix, Vector, kron
from .spaces import centroid_membership


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


def _finish(a: HomNambuAlgebra, what: str, verify: bool, max_tuples: Optional[int],
            expect_skew: Optional[bool] = None, twisting: bool = False) -> HomNambuAlgebra:
    """The output step of every construction.  The bracket goes to skew
    storage if it passes the skew check (a bracket already in skew storage
    is not checked), and the multiplicativity report sets the flag when the
    twists agree.  With ``verify`` the identity is required under the name
    ``what``, and for a twisting step that report under ``what``
    multiplicativity."""
    skew = a.bracket.skew_storage or check_skew_symmetry(a, max_tuples).passed
    if expect_skew is not None and skew != expect_skew:
        raise ConstructionError(f"expected skew={expect_skew}, verification says {skew}")
    if skew:
        a = replace(a, bracket=a.bracket.skew_canonical())
    mult = (check_multiplicativity(a, max_tuples)
            if all(t == a.twists[0] for t in a.twists) else None)
    a = replace(a, multiplicative=mult is not None and mult.passed)
    if verify:
        _require(check_hom_nambu_identity(a, max_tuples), what)
        if twisting:
            _require(mult, f"{what} multiplicativity")
    return a


def _quadratic(q: QuadraticStructure, what: str, verify: bool,
               max_tuples: Optional[int]) -> QuadraticStructure:
    """The output step of every structure with a form that a construction
    builds: with ``verify`` its quadratic check is required under the name
    ``what``."""
    if verify:
        _require(check_quadratic(q, max_tuples), what)
    return q


def _twisted(bracket: BracketTensor, out_map: Matrix, twist: Matrix) -> HomNambuAlgebra:
    """A twisting step: ``out_map`` after the bracket, every twist ``twist``."""
    n = bracket.arity
    return HomNambuAlgebra(bracket.dim, n, bracket.transform([None] * n, out_map=out_map),
                           (twist,) * (n - 1))


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
    return _finish(_twisted(a.bracket, rho, rho), "twisted algebra", verify, max_tuples,
                   twisting=True)


def self_twist(a: HomNambuAlgebra, verify: bool = True,
               max_tuples: Optional[int] = None) -> HomNambuAlgebra:
    """Second twisting principle: bracket composed with the (n-1)-th power of
    the twist, new twist the n-th power."""
    if not a.multiplicative:
        raise ConstructionError("input must be multiplicative")
    n = a.arity
    return _finish(_twisted(a.bracket, a.twist.power(n - 1), a.twist.power(n)),
                   "self-twisted algebra", verify, max_tuples, twisting=True)


def tensor_product(h: HomAssocNAry, a: HomNambuAlgebra,
                   form_h: Optional[BilinearForm] = None,
                   beta_h: Optional[Matrix] = None,
                   form_a: Optional[QuadraticStructure] = None,
                   verify: bool = True, max_tuples: Optional[int] = None):
    """Bracket mu(a_1..a_n) (x) [x_1..x_n] on the tensor space, twists the
    slot-wise Kronecker products.

    With forms given, returns the quadratic structure of the product form,
    its beta the Kronecker product of the two beta maps."""
    if h.arity != a.arity:
        raise ConstructionError("arity mismatch")
    n = a.arity
    da, dn = h.dim, a.dim
    _budget((da * dn) ** n, max_tuples)     # the output's skew check, before the build
    bracket = BracketTensor.kron([([h.mu, a.bracket], [[(0, i), (1, i)] for i in range(n)])])
    twists = tuple(kron(h.twists[i], a.twists[i]) for i in range(n - 1))
    out = _finish(HomNambuAlgebra(da * dn, n, bracket, twists), "tensor product algebra",
                  verify, max_tuples)
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
    return _quadratic(QuadraticStructure(out, big_form, beta=omega),
                      "tensor product quadratic structure", verify, max_tuples)


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
    if verify:      # the identity check's budget, before the dense build
        _budget((d ** (n - 1)) ** 3, max_tuples)
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
    _quadratic(QuadraticStructure(out.as_nambu(), b_hat, beta=alpha_hat),
               "induced form invariance", verify, max_tuples)
    return out, b_hat


def _blocks(top: Tuple[Matrix, Matrix], bottom: Tuple[Matrix, Matrix]) -> Matrix:
    """The 2 x 2 block matrix with rows of d x d blocks ``top`` and ``bottom``."""
    d = top[0].rows
    return Matrix.trusted(2 * d, 2 * d, [m[i, j] for half in (top, bottom) for i in range(d)
                                         for m in half for j in range(d)])


def tstar_extension(a: HomNambuAlgebra, form: BilinearForm,
                    omega: Optional[Matrix] = None, verify: bool = True,
                    max_tuples: Optional[int] = None) -> QuadraticStructure:
    """Extension on N + N*: the bracket keeps the N part and adds the signed
    coadjoint correction terms; the form is the hyperbolic pairing extended
    by the original form on the N block.  With an involution omega, the
    bracket and twists are twisted by omega + omega^T, which is the output's
    beta, and the form pulled back by it is verified too."""
    n, d = a.arity, a.dim
    ident = Matrix.identity(d)
    if not a.skew or any(t != ident for t in a.twists):
        raise ConstructionError("input must be a skew algebra with identity twists")
    _require(check_quadratic(QuadraticStructure(a, form), max_tuples),
             "input quadratic structure")

    # skew storage, so every key has its dual index, if any, last: the stored
    # entry (K, v) of C keeps v on the N block, and each entry (rest + (m,), v)
    # with rest increasing puts -v_j at dual coordinate m of rest + (e_j*,)
    C = a.bracket
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
        ext = _finish(HomNambuAlgebra(2 * d, n, bracket, (Matrix.identity(2 * d),) * (n - 1)),
                      "T*-extension", verify, max_tuples)
        return _quadratic(QuadraticStructure(ext, big_form), "T*-extension form",
                          verify, max_tuples)

    _require_twisting(a, form, omega, "omega", max_tuples)
    big_omega = _blocks((omega, zero), (zero, omega.T))
    twisted = _finish(_twisted(bracket, big_omega, big_omega), "twisted T*-extension",
                      verify, max_tuples, twisting=True)
    q = _quadratic(QuadraticStructure(twisted, big_form, beta=big_omega),
                   "twisted T*-extension Hom-quadratic form", verify, max_tuples)
    _quadratic(QuadraticStructure(twisted, BilinearForm(2 * d, big_omega.T @ big_form.gram)),
               "twisted T*-extension pulled-back form", verify, max_tuples)
    return q


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
    pair (twist, gamma); with a form, returns the quadratic structure it
    carries."""
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
    tern = _finish(HomNambuAlgebra(d, 3, bracket, (alpha, gamma)),
                   "trace-induced ternary algebra", verify, max_tuples, expect_skew=True)
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
    return _quadratic(QuadraticStructure(tern, form, beta=beta),
                      "trace-induced quadratic structure", verify, max_tuples)


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
    out = _finish(HomNambuAlgebra(d, arity, C, (alpha_pow,) * (arity - 1)),
                  "raised-arity algebra", verify, max_tuples)
    return _quadratic(QuadraticStructure(out, q.form, beta=beta),
                      "raised-arity quadratic structure", verify, max_tuples)


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

    out = _finish(HomNambuAlgebra(d, n - k, C.fix(fixed), tuple(a.twists[k:])),
                  "reduced-arity algebra", verify, max_tuples)
    return _quadratic(QuadraticStructure(out, q.form, beta=q.beta),
                      "reduced-arity quadratic structure", verify, max_tuples)


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
    if not centroid_membership(a, theta, 0).passed:
        raise ConstructionError("theta is not in the centroid")
    bracket = a.bracket.transform([theta] * p + [None] * (n - p))
    return _finish(HomNambuAlgebra(d, n, bracket, (theta,) * (n - 1)),
                   "centroid-twisted algebra", verify, max_tuples, expect_skew=True)
