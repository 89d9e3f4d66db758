"""Reference Faulkner construction and tensor-form hypothesis: the map phi,
the coadjoint action, the tensor Leibniz bracket, the equivariance check and
the ternary bracket as they were written before they were built on
``BracketTensor.swap_output``, one basis vector at a time through ``eval``
and ``Vector.basis``, plus the per-tuple operator loop that tested the first
factor's form in ``tensor_product``.  Tests compare the library's tensors and
reports against them.

``tensor_leibniz_entries`` is the entry loop that built the tensor Leibniz
bracket from phi and the coadjoint action before it became a
``BracketTensor.kron`` call.
"""

from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from nambucat.algebra import (BilinearForm, BracketTensor, HomLeibnizAlgebra,
                              all_tuples)
from nambucat.checks import CheckReport, Counterexample
from nambucat.constructions import ConstructionError
from nambucat.faulkner import _actions
from nambucat.linalg import Matrix, Vector, kron, solve_matrix


@lru_cache(maxsize=None)
def gram_inverse(gram: Matrix) -> Matrix:
    inv = solve_matrix(gram, Matrix.identity(gram.rows))
    if inv is None:
        raise ValueError("form must be nondegenerate")
    return inv


def phi_map(g, x: Vector, f: Vector) -> Vector:
    """phi(x (x) f) with B(phi, w) = f([w, x])."""
    d = g.dim
    r = [sum((f[s] * v for s, v in enumerate(g.algebra.bracket.eval(
        [Vector.basis(d, i), x]).entries)), Fraction(0)) for i in range(d)]
    return gram_inverse(g.form.gram).apply(Vector(r))


def dual_action(g, v: Vector, f: Vector) -> Vector:
    """The coadjoint action (v . f)(y) = f([y, v])."""
    d = g.dim
    out = []
    for m in range(d):
        w = g.algebra.bracket.eval([Vector.basis(d, m), v])
        out.append(sum((f[s] * ws for s, ws in enumerate(w.entries)), Fraction(0)))
    return Vector(out)


def phi_table(g) -> List[List[Vector]]:
    d = g.dim
    return [[phi_map(g, Vector.basis(d, i), Vector.basis(d, j))
             for j in range(d)] for i in range(d)]


def tensor_leibniz_bracket(g) -> BracketTensor:
    """The Leibniz bracket on g (x) g*, unverified."""
    d = g.dim
    phi = phi_table(g)
    items: Dict[Tuple[int, ...], Vector] = {}
    for i in range(d):
        for j in range(d):
            v = phi[i][j]
            if v.is_zero():
                continue
            act = Matrix.from_columns(
                [g.algebra.bracket.eval([v, Vector.basis(d, k)]) for k in range(d)])
            for k in range(d):
                for l in range(d):
                    coeffs = [Fraction(0)] * (d * d)
                    w = act.col(k)
                    for m in range(d):
                        coeffs[m * d + l] += w[m]
                    dual = dual_action(g, v, Vector.basis(d, l))
                    for m in range(d):
                        coeffs[k * d + m] += dual[m]
                    if any(coeffs):
                        items[(i * d + j, k * d + l)] = Vector(coeffs)
    return BracketTensor(d * d, 2, items)


def tensor_leibniz_entries(g) -> BracketTensor:
    """The Leibniz bracket on g (x) g* read off the entries of [phi(x, f), y]
    and phi(x, f) . h, each spread over the untouched factor by hand."""
    d = g.dim
    D, phi = _actions(g)
    items: Dict[Tuple[int, int], List[Fraction]] = {}

    def add(key: Tuple[int, int], r: int, c: Fraction) -> None:
        items.setdefault(key, [Fraction(0)] * (d * d))[r] += c

    # [phi(e_i (x) e^j), e_k] (x) e^l
    for (i, j, k), v in g.algebra.bracket.substitute(0, phi).coeffs.items():
        for m, c in enumerate(v.entries):
            if c:
                for l in range(d):
                    add((i * d + j, k * d + l), m * d + l, c)
    # e_k (x) (phi(e_i (x) e^j) . e^l)
    for (i, j, l), v in D.substitute(0, phi).coeffs.items():
        for m, c in enumerate(v.entries):
            if c:
                for k in range(d):
                    add((i * d + j, k * d + l), k * d + m, c)
    return BracketTensor(d * d, 2, {key: Vector(row) for key, row in items.items()})


def omega_twist_bracket(g, alpha: Matrix) -> Tuple[HomLeibnizAlgebra, BilinearForm]:
    """The Omega-twisted tensor Leibniz algebra and its pairing, unverified."""
    d = g.dim
    omega = kron(alpha, alpha.T)
    bracket = tensor_leibniz_bracket(g).transform([None, None], out_map=omega)
    gram = Matrix.from_rows(
        [[alpha[l, i] * alpha[j, k] for k in range(d) for l in range(d)]
         for i in range(d) for j in range(d)])
    return HomLeibnizAlgebra(d * d, bracket, omega), BilinearForm(d * d, gram)


def check_phi_equivariance(g) -> CheckReport:
    d = g.dim
    phi = phi_table(g)
    count = 0
    for i in range(d):
        for j in range(d):
            p = phi[i][j]
            for k in range(d):
                for l in range(d):
                    count += 1
                    ek, el = Vector.basis(d, k), Vector.basis(d, l)
                    left = g.algebra.bracket.eval([p, phi[k][l]])
                    right = (phi_map(g, g.algebra.bracket.eval([p, ek]), el)
                             + phi_map(g, ek, dual_action(g, p, el)))
                    if left != right:
                        return CheckReport("phi_equivariance", False,
                                           Counterexample((i, j, k, l), left, right),
                                           count)
    return CheckReport("phi_equivariance", True, None, count)


def ternary_bracket(g, alpha: Optional[Matrix] = None) -> BracketTensor:
    """[x, y, z] = [T(x (x) y), z] with T(x (x) y) = phi(x (x) By), twisted by
    alpha on the output when one is given; unverified."""
    d = g.dim
    gram = g.form.gram

    def tmap(i: int, j: int) -> Vector:
        return phi_map(g, Vector.basis(d, i), gram.apply(Vector.basis(d, j)))

    tvals = [[tmap(i, j) for j in range(d)] for i in range(d)]
    for i in range(d):
        for j in range(d):
            if tvals[i][j] != -tvals[j][i]:
                raise ConstructionError("T is not antisymmetric")
    items: Dict[Tuple[int, ...], Vector] = {}
    for i in range(d):
        for j in range(d):
            t = tvals[i][j]
            if t.is_zero():
                continue
            for k in range(d):
                v = g.algebra.bracket.eval([t, Vector.basis(d, k)])
                if not v.is_zero():
                    items[(i, j, k)] = v
    bracket = BracketTensor(d, 3, items)
    return bracket if alpha is None else bracket.transform([None] * 3, out_map=alpha)


def form_beta_invariant(h, ga: Matrix, beta_h: Matrix) -> bool:
    """The tensor product's hypothesis on the first factor: every operator
    mu(t_1..t_{n-1}, .) is beta_h-invariant for the form ga."""
    n, da = h.arity, h.dim
    for t in all_tuples(da, n - 1):
        op = Matrix.from_columns([h.mu.value(t + (j,)) for j in range(da)])
        if op.T @ ga @ beta_h != beta_h.T @ ga @ op:
            return False
    return True
