"""Adjoint and coadjoint representations, and the form-induced intertwiner.

A representation is a skew multilinear assignment of an operator on the
target space to each (n-1)-tuple of algebra elements, together with an
endomorphism nu of the target space entering the defining identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .algebra import BracketTensor, HomNambuAlgebra, QuadraticStructure
from .checks import CheckReport, _compare, check_representation
from .linalg import Matrix, Vector, kron, rank


@dataclass(frozen=True)
class Representation:
    """Operator-valued tensor rho on (n-1)-tuples plus the endomorphism nu.

    ``rho`` stores, per basis index tuple, the flattened m x m operator matrix
    (row-major); it extends multilinearly like any structure-constant tensor.
    """

    source_dim: int
    arity: int
    target_dim: int
    rho: BracketTensor
    nu: Matrix

    def __post_init__(self):
        m = self.target_dim
        if self.rho.dim != self.source_dim or self.rho.arity != self.arity - 1:
            raise ValueError("rho tensor does not match source dim/arity")
        if self.rho.vdim != m * m:
            raise ValueError("rho values must be flattened m x m matrices")
        if self.nu.rows != m or self.nu.cols != m:
            raise ValueError("nu has wrong shape")

    def operator(self, idx: Tuple[int, ...]) -> Matrix:
        return Matrix.trusted(self.target_dim, self.target_dim, self.rho.value(idx).entries)


def _adjoint_tensor(a: HomNambuAlgebra, coadjoint: bool = False) -> BracketTensor:
    """rho(x) flattened, read from the bracket's entries: entry r*d+c is
    [x, e_c]_r, or -[x, e_r]_c for the coadjoint (negated transpose)."""
    d = a.dim
    rows: Dict[Tuple[int, ...], List[Fraction]] = {}
    for t, v in a.bracket.dense_items():
        row = rows.setdefault(t[:-1], [Fraction(0)] * (d * d))
        k = t[-1]
        for r, x in enumerate(v.entries):
            if coadjoint:
                row[k * d + r] = -x
            else:
                row[r * d + k] = x
    return BracketTensor(d, a.arity - 1, {x: Vector.trusted(row) for x, row in rows.items()},
                         vdim=d * d)


def adjoint_rep(a: HomNambuAlgebra) -> Representation:
    """rho(x) = adjoint operator of x, nu = last twist map."""
    return Representation(a.dim, a.arity, a.dim, _adjoint_tensor(a), a.twists[-1])


def coadjoint_rep(a: HomNambuAlgebra) -> Tuple[Representation, CheckReport]:
    """Negated-transpose action on the dual space.

    Returns the dual representation together with the report of the condition
    under which it actually is one (the dual-mode representation identity for
    the adjoint action); the two are packaged so callers cannot use the
    coadjoint without seeing the verdict.
    """
    rep = Representation(a.dim, a.arity, a.dim, _adjoint_tensor(a, coadjoint=True),
                         a.twists[-1].T)
    return rep, check_representation(a, adjoint_rep(a), mode="dual")


def rep_isomorphism_psi(q: QuadraticStructure) -> Tuple[Matrix, CheckReport]:
    """The form viewed as a map into the dual space, verified to intertwine the
    adjoint and coadjoint actions and the twist endomorphisms: G L(x) against
    -L(x)^T G, compared as flattened operators on every basis tuple x."""
    a = q.algebra
    n, d = a.arity, a.dim
    G = q.form.gram
    if rank(G) < d:
        raise ValueError("form is degenerate; no isomorphism")
    alpha_last = a.twists[-1]
    if G @ alpha_last != alpha_last.T @ G:
        return G, CheckReport("rep_isomorphism", False, None, 0,
                              detail="psi does not intertwine nu with nu*")
    ident = Matrix.identity(d)
    slots = [None] * (n - 1)
    lhs = _adjoint_tensor(a).transform(slots, out_map=kron(G, ident))
    rhs = _adjoint_tensor(a, coadjoint=True).transform(slots, out_map=kron(ident, G.T))
    return G, _compare("rep_isomorphism", d, n - 1, lhs, rhs)
