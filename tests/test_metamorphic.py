"""Metamorphic tests: a random invertible rational change of basis P keeps
every verdict and every structure-space dimension, the verdicts of both
representation identities on the adjoint action and of the form intertwiner
included.

In the new basis the bracket is P^-1 C(P., ..., P.), each twist P^-1 a P,
the form P^T G P and the form twist P^-1 beta P.
"""

import random
from fractions import Fraction as F

import pytest

from conftest import filippov
from nambucat import (BilinearForm, BracketTensor, HomNambuAlgebra, Matrix,
                      QuadraticStructure, Vector, corpus)
from nambucat.checks import (check_hom_nambu_identity, check_multiplicativity,
                             check_quadratic, check_representation,
                             check_skew_symmetry)
from nambucat.linalg import det, solve_matrix
from nambucat.representations import adjoint_rep, rep_isomorphism_psi
from nambucat.spaces import (compute_center, compute_centroid,
                             compute_derivations)


def _structure(name):
    """A quadratic structure on a small corpus algebra or on A4; algebras
    without a form get the standard one."""
    if name == "A4":
        a = filippov(4)
    elif name == "A4-perturbed":     # fails the fundamental identity and skew
        a = filippov(4)
        coeffs = dict(a.bracket.dense_items())
        coeffs[(0, 0, 1)] = Vector([1, 0, 0, 0])
        a = HomNambuAlgebra(4, 3, BracketTensor(4, 3, coeffs), a.twists)
    else:
        a = corpus.load(name)
    if isinstance(a, QuadraticStructure):
        return a
    form = getattr(a, "form", None)
    a = getattr(a, "algebra", a)
    return QuadraticStructure(a, form or BilinearForm.standard(a.dim))


def _is_signed_permutation(p):
    return all(sum(1 for j in range(p.cols) if p[i, j] != 0) == 1
               and all(p[i, j] in (0, 1, -1) for j in range(p.cols))
               for i in range(p.rows))


def _random_invertible(rng, d):
    """A random invertible rational matrix that is not a signed permutation."""
    while True:
        p = Matrix(d, d, [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d * d)])
        if det(p) != 0 and not _is_signed_permutation(p):
            return p


def _change_basis(q, p):
    a = q.algebra
    pinv = solve_matrix(p, Matrix.identity(a.dim))
    bracket = a.bracket.transform([p] * a.arity, out_map=pinv)
    algebra = HomNambuAlgebra(a.dim, a.arity, bracket,
                              tuple(pinv @ t @ p for t in a.twists),
                              skew=a.skew, multiplicative=a.multiplicative)
    beta = None if q.beta is None else pinv @ q.beta @ p
    return QuadraticStructure(algebra, BilinearForm(a.dim, p.T @ q.form.gram @ p), beta)


def _dim(solve, *args):
    try:
        return solve(*args).dimension
    except ValueError:      # twists differ
        return None


def _psi(q):
    try:
        return rep_isomorphism_psi(q)[1].passed
    except ValueError:      # degenerate form
        return None


def _invariants(q):
    a = q.algebra
    return {
        "hom_nambu_identity": check_hom_nambu_identity(a).passed,
        "skew_symmetry": check_skew_symmetry(a).passed,
        "multiplicativity": check_multiplicativity(a).passed,
        "quadratic": check_quadratic(q).passed,
        **{f"representation_{mode}": check_representation(a, adjoint_rep(a), mode).passed
           for mode in ("primal", "dual")},
        "rep_isomorphism": _psi(q),
        "center": _dim(compute_center, a),
        **{f"{solve.__name__} {k}": _dim(solve, a, k)
           for solve in (compute_centroid, compute_derivations) for k in (-1, 0, 1)},
    }


NAMES = ["example1", "example2", "heisenberg3", "simple3lie4", "sl2", "zero2", "zero3",
         "A4", "A4-perturbed"]


@pytest.mark.parametrize("name", NAMES)
def test_change_of_basis_keeps_verdicts_and_dimensions(name):
    q = _structure(name)
    want = _invariants(q)
    rng = random.Random(name)
    for _ in range(2):
        p = _random_invertible(rng, q.algebra.dim)
        assert _invariants(_change_basis(q, p)) == want


def test_corpus_verdicts_are_not_all_true():
    """The corpus and the perturbed A4 give both verdicts of every check."""
    seen = {}
    for name in NAMES:
        for key, value in _invariants(_structure(name)).items():
            if isinstance(value, bool):
                seen.setdefault(key, set()).add(value)
    assert all(v == {True, False} for v in seen.values()), seen

