"""From a quadratic Lie algebra to a Leibniz bracket on g tensor g* and to a
ternary quadratic bracket, with an optional involution twisting both."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .algebra import (BilinearForm, BracketTensor, HomLeibnizAlgebra,
                      HomNambuAlgebra, QuadraticStructure)
from .checks import (CheckReport, Counterexample, check_hom_leibniz,
                     check_hom_nambu_identity, check_morphism,
                     check_multiplicativity, check_quadratic,
                     check_skew_symmetry)
from .constructions import ConstructionError, _require, _verified_flags
from .linalg import Matrix, Vector, kron, solve_matrix


@dataclass(frozen=True)
class QuadraticLieAlgebra:
    """A binary skew bracket with identity twist and an invariant
    nondegenerate symmetric form."""

    algebra: HomNambuAlgebra
    form: BilinearForm

    def __post_init__(self):
        if self.algebra.arity != 2:
            raise ValueError("expected a binary bracket")
        if not self.form.nondegenerate:
            raise ValueError("form must be nondegenerate")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def validate(self, max_tuples: Optional[int] = None) -> List[CheckReport]:
        """Skewness, Jacobi, and invariance reports."""
        return [check_skew_symmetry(self.algebra, max_tuples),
                check_hom_nambu_identity(self.algebra, max_tuples),
                check_quadratic(QuadraticStructure(self.algebra, self.form), max_tuples)]


@lru_cache(maxsize=None)
def _gram_inverse(gram: Matrix) -> Matrix:
    inv = solve_matrix(gram, Matrix.identity(gram.rows))
    if inv is None:
        raise ValueError("form must be nondegenerate")
    return inv


def phi_map(g: QuadraticLieAlgebra, x: Vector, f: Vector) -> Vector:
    """The element phi(x (x) f) of g defined by B(phi, w) = f([w, x]); the
    dual vector f is given by its coordinates on the dual basis."""
    d = g.dim
    r = [sum((f[s] * v for s, v in enumerate(g.algebra.bracket.eval(
        [Vector.basis(d, i), x]).entries)), Fraction(0)) for i in range(d)]
    return _gram_inverse(g.form.gram).apply(Vector(r))


def _dual_action(g: QuadraticLieAlgebra, v: Vector, f: Vector) -> Vector:
    """Coordinates of the coadjoint action (v . f)(y) = f([y, v]) = -f([v, y]);
    this is the sign the equivariance of phi forces."""
    d = g.dim
    out = []
    for m in range(d):
        w = g.algebra.bracket.eval([Vector.basis(d, m), v])
        out.append(sum((f[s] * ws for s, ws in enumerate(w.entries)), Fraction(0)))
    return Vector(out)


def _phi_table(g: QuadraticLieAlgebra) -> List[List[Vector]]:
    d = g.dim
    return [[phi_map(g, Vector.basis(d, i), Vector.basis(d, j))
             for j in range(d)] for i in range(d)]


def tensor_leibniz(g: QuadraticLieAlgebra, verify: bool = True,
                   max_tuples: Optional[int] = None) -> HomLeibnizAlgebra:
    """Leibniz bracket on g (x) g*: phi of the first argument acts on both
    factors of the second by the adjoint and coadjoint actions."""
    d = g.dim
    phi = _phi_table(g)
    items: Dict[Tuple[int, ...], Vector] = {}
    for i in range(d):
        for j in range(d):
            v = phi[i][j]
            if v.is_zero():
                continue
            # action on the first factor: [phi, e_k]
            act = Matrix.from_columns(
                [g.algebra.bracket.eval([v, Vector.basis(d, k)]) for k in range(d)])
            for k in range(d):
                for l in range(d):
                    coeffs = [Fraction(0)] * (d * d)
                    w = act.col(k)
                    for m in range(d):
                        coeffs[m * d + l] += w[m]
                    dual = _dual_action(g, v, Vector.basis(d, l))
                    for m in range(d):
                        coeffs[k * d + m] += dual[m]
                    if any(coeffs):
                        items[(i * d + j, k * d + l)] = Vector(coeffs)
    out = HomLeibnizAlgebra(d * d, BracketTensor(d * d, 2, items),
                            Matrix.identity(d * d))
    if verify:
        _require(check_hom_leibniz(out, max_tuples), "tensor Leibniz algebra")
    return out


def check_phi_equivariance(g: QuadraticLieAlgebra) -> CheckReport:
    """[phi(x,f), phi(y,h)] = phi([phi(x,f),y], h) + phi(y, phi(x,f).h) over
    all basis choices."""
    d = g.dim
    phi = _phi_table(g)
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
                             + phi_map(g, ek, _dual_action(g, p, el)))
                    if left != right:
                        return CheckReport("phi_equivariance", False,
                                           Counterexample((i, j, k, l), left, right),
                                           count)
    return CheckReport("phi_equivariance", True, None, count)


def omega_twist_leibniz(g: QuadraticLieAlgebra, alpha: Matrix,
                        verify: bool = True, max_tuples: Optional[int] = None):
    """Twist the tensor Leibniz bracket by Omega = alpha (x) alpha^T for an
    involutive, form-symmetric automorphism alpha. Returns the twisted
    Hom-Leibniz algebra together with the twisted pairing form."""
    d = g.dim
    ident = Matrix.identity(d)
    if alpha @ alpha != ident:
        raise ConstructionError("alpha is not an involution")
    if alpha.T @ g.form.gram != g.form.gram @ alpha:
        raise ConstructionError("alpha is not symmetric with respect to the form")
    _require(check_morphism(g.algebra, g.algebra, alpha, max_tuples),
             "alpha is not an automorphism")
    base = tensor_leibniz(g, verify=verify, max_tuples=max_tuples)
    omega = kron(alpha, alpha.T)
    bracket = base.bracket.transform([None, None], out_map=omega)
    out = HomLeibnizAlgebra(d * d, bracket, omega)
    # pairing <x (x) f, y (x) h> twisted by Omega in the first slot
    gram = Matrix.from_rows(
        [[alpha[l, i] * alpha[j, k] for k in range(d) for l in range(d)]
         for i in range(d) for j in range(d)])
    form = BilinearForm(d * d, gram)
    if verify:
        _require(check_hom_leibniz(out, max_tuples), "twisted tensor Leibniz algebra")
        _require(check_multiplicativity(out.as_nambu(), max_tuples),
                 "twisted tensor Leibniz multiplicativity")
        _require(check_quadratic(QuadraticStructure(out.as_nambu(), form), max_tuples),
                 "twisted tensor Leibniz form")
    return out, form


def faulkner_ternary(g: QuadraticLieAlgebra, alpha: Optional[Matrix] = None,
                     verify: bool = True,
                     max_tuples: Optional[int] = None) -> QuadraticStructure:
    """Ternary bracket [x, y, z] = [T(x (x) y), z] with T(x (x) y) =
    phi(x (x) By); with an involution alpha the bracket and form are twisted
    into a Hom-quadratic ternary structure."""
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
    if alpha is None:
        tern = HomNambuAlgebra(d, 3, bracket, (Matrix.identity(d),) * 2)
        tern = _verified_flags(tern, max_tuples=max_tuples)
        struct = QuadraticStructure(tern, g.form)
        if verify:
            _require(check_hom_nambu_identity(tern, max_tuples), "ternary algebra")
            _require(check_quadratic(struct, max_tuples), "ternary quadratic structure")
        return struct

    ident = Matrix.identity(d)
    if alpha @ alpha != ident:
        raise ConstructionError("alpha is not an involution")
    if alpha.T @ gram != gram @ alpha:
        raise ConstructionError("alpha is not symmetric with respect to the form")
    _require(check_morphism(g.algebra, g.algebra, alpha, max_tuples),
             "alpha is not an automorphism")
    tw_bracket = bracket.transform([None] * 3, out_map=alpha)
    tern = HomNambuAlgebra(d, 3, tw_bracket, (alpha, alpha))
    tern = _verified_flags(tern, max_tuples=max_tuples)
    form = BilinearForm(d, alpha.T @ gram)
    struct = QuadraticStructure(tern, form)
    if verify:
        _require(check_hom_nambu_identity(tern, max_tuples), "twisted ternary algebra")
        _require(check_multiplicativity(tern, max_tuples), "twisted ternary multiplicativity")
        _require(check_quadratic(struct, max_tuples), "twisted ternary quadratic structure")
    return struct
