"""From a quadratic Lie algebra to a Leibniz bracket on g tensor g* and to a
ternary quadratic bracket, with an optional involution twisting both.

Everything is built from the bracket's nonzero entries.  Exchanging the
first slot of the bracket C with its output (``swap_output``) gives the
coadjoint action D, and phi is D with the inverse Gram matrix on its output.
The ternary bracket and both sides of phi's equivariance are substitutions of
phi into C and D; the tensor Leibniz bracket is a ``kron`` of two of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .algebra import (BilinearForm, BracketTensor, HomLeibnizAlgebra,
                      HomNambuAlgebra, QuadraticStructure)
from .checks import (CheckReport, _compare, check_hom_leibniz,
                     check_hom_nambu_identity, check_multiplicativity,
                     check_quadratic, check_skew_symmetry)
from .constructions import (ConstructionError, _finish, _quadratic, _require,
                            _require_twisting, _twisted)
from .linalg import Matrix, Vector, kron, solve_matrix


@dataclass(frozen=True)
class QuadraticLieAlgebra(QuadraticStructure):
    """A binary skew bracket with identity twist and an invariant
    nondegenerate symmetric form: a quadratic structure without beta."""

    def __post_init__(self):
        super().__post_init__()
        if self.beta is not None:
            raise ValueError("a quadratic Lie algebra has no beta")
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
                check_quadratic(self, max_tuples)]


def _actions(g: QuadraticLieAlgebra) -> Tuple[BracketTensor, BracketTensor]:
    """The coadjoint action D and the map phi, both keyed (x, f) with f on
    the dual basis.  D(e_a, e_l)_m = [e_m, e_a]_l, so (v . f)(y) = f([y, v])
    = -f([v, y]): this is the sign the equivariance of phi forces.  phi is
    G^-1 D, so that B(phi(x (x) f), w) = f([w, x])."""
    D = g.algebra.bracket.swap_output(0).permute((1, 0))
    return D, D.transform([None, None],
                          out_map=solve_matrix(g.form.gram, Matrix.identity(g.dim)))


def phi_map(g: QuadraticLieAlgebra, x: Vector, f: Vector) -> Vector:
    """The element phi(x (x) f) of g defined by B(phi, w) = f([w, x]); the
    dual vector f is given by its coordinates on the dual basis."""
    return _actions(g)[1].eval([x, f])


def tensor_leibniz(g: QuadraticLieAlgebra, verify: bool = True,
                   max_tuples: Optional[int] = None) -> HomLeibnizAlgebra:
    """Leibniz bracket on g (x) g*: phi of the first argument acts on both
    factors of the second by the adjoint and coadjoint actions.  Basis
    element e_k (x) e^l has index k * d + l."""
    d = g.dim
    D, phi = _actions(g)
    ident = BracketTensor.linear(Matrix.identity(d))
    # [phi(e_i (x) e^j), e_k] (x) e^l  +  e_k (x) (phi(e_i (x) e^j) . e^l)
    bracket = BracketTensor.kron([
        ([g.algebra.bracket.substitute(0, phi), ident], [[(0, 0), (0, 1)], [(0, 2), (1, 0)]]),
        ([ident, D.substitute(0, phi)], [[(1, 0), (1, 1)], [(0, 0), (1, 2)]])])
    out = HomLeibnizAlgebra(d * d, bracket, Matrix.identity(d * d))
    if verify:
        _require(check_hom_leibniz(out, max_tuples), "tensor Leibniz algebra")
    return out


def check_phi_equivariance(g: QuadraticLieAlgebra) -> CheckReport:
    """[phi(x,f), phi(y,h)] = phi([phi(x,f),y], h) + phi(y, phi(x,f).h) over
    all basis choices, as two tensors keyed (x, f, y, h)."""
    D, phi = _actions(g)
    act = g.algebra.bracket.substitute(0, phi)      # [phi(x, f), y], keyed (x, f, y)
    # phi(y, phi(x, f) . h) is keyed (y, x, f, h) before the reorder
    right = BracketTensor.combine(
        [(1, phi.substitute(0, act)),
         (1, phi.substitute(1, D.substitute(0, phi)).permute([1, 2, 0, 3]))])
    return _compare("phi_equivariance", g.dim, 4, act.substitute(2, phi), right)


def omega_twist_leibniz(g: QuadraticLieAlgebra, alpha: Matrix,
                        verify: bool = True, max_tuples: Optional[int] = None):
    """Twist the tensor Leibniz bracket by Omega = alpha (x) alpha^T for an
    involutive, form-symmetric automorphism alpha. Returns the twisted
    Hom-Leibniz algebra together with the twisted pairing form."""
    d = g.dim
    _require_twisting(g.algebra, g.form, alpha, "alpha", max_tuples)
    base = tensor_leibniz(g, verify=verify, max_tuples=max_tuples)
    omega = kron(alpha, alpha.T)
    bracket = base.bracket.transform([None, None], out_map=omega)
    out = HomLeibnizAlgebra(d * d, bracket, omega)
    # pairing <x (x) f, y (x) h> twisted by Omega in the first slot
    form = BilinearForm(d * d, Matrix.trusted(
        d * d, d * d, [alpha[l, i] * alpha[j, k] for i in range(d) for j in range(d)
                       for k in range(d) for l in range(d)]))
    if verify:
        _require(check_hom_leibniz(out, max_tuples), "twisted tensor Leibniz algebra")
        _require(check_multiplicativity(out.as_nambu(), max_tuples),
                 "twisted tensor Leibniz multiplicativity")
    _quadratic(QuadraticStructure(out.as_nambu(), form), "twisted tensor Leibniz form",
               verify, max_tuples)
    return out, form


def faulkner_ternary(g: QuadraticLieAlgebra, alpha: Optional[Matrix] = None,
                     verify: bool = True,
                     max_tuples: Optional[int] = None) -> QuadraticStructure:
    """Ternary bracket [x, y, z] = [T(x (x) y), z] with T(x (x) y) =
    phi(x (x) By); with an involution alpha the bracket and form are twisted
    into a Hom-quadratic ternary structure."""
    d = g.dim
    gram = g.form.gram
    T = _actions(g)[1].transform([None, gram])      # T(x (x) y) = phi(x (x) By)
    if T != BracketTensor.combine([(-1, T.permute((1, 0)))]):
        raise ConstructionError("T is not antisymmetric")
    bracket = g.algebra.bracket.substitute(0, T)
    if alpha is None:
        tern = _finish(HomNambuAlgebra(d, 3, bracket, (Matrix.identity(d),) * 2),
                       "ternary algebra", verify, max_tuples)
        return _quadratic(QuadraticStructure(tern, g.form), "ternary quadratic structure",
                          verify, max_tuples)
    _require_twisting(g.algebra, g.form, alpha, "alpha", max_tuples)
    tern = _finish(_twisted(bracket, alpha, alpha), "twisted ternary", verify, max_tuples,
                   twisting=True)
    return _quadratic(QuadraticStructure(tern, BilinearForm(d, alpha.T @ gram)),
                      "twisted ternary quadratic structure", verify, max_tuples)
