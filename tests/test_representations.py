"""Adjoint/coadjoint representations and the form-induced intertwiner."""

from fractions import Fraction as F

import pytest

from nambucat import (BracketTensor, HomNambuAlgebra, Matrix, QuadraticStructure, Vector,
                      check_hom_nambu_identity, check_representation, corpus)
from nambucat.representations import (Representation, adjoint_rep,
                                      coadjoint_rep, rep_isomorphism_psi)
from nambucat import fileio


def test_adjoint_values(s4):
    rep = adjoint_rep(s4.algebra)
    L = rep.operator((0, 1))    # action of the pair (e1, e2)
    assert L.apply(Vector.basis(4, 2)) == Vector.basis(4, 3)
    assert L.apply(Vector.basis(4, 3)) == -Vector.basis(4, 2)
    assert L.apply(Vector.basis(4, 0)).is_zero()


def test_adjoint_is_representation(s4, heis, sl2, ex1, zero3):
    for a in (s4.algebra, heis, sl2.algebra, ex1.algebra, zero3):
        rep = adjoint_rep(a)
        assert check_representation(a, rep, mode="primal").passed


def test_adjoint_skew_in_arguments(s4):
    rep = adjoint_rep(s4.algebra)
    assert rep.rho.value((1, 0)) == -rep.rho.value((0, 1))
    assert rep.rho.value((2, 2)).is_zero()


def test_coadjoint(s4, sl2):
    for a in (s4.algebra, sl2.algebra):
        rep, condition = coadjoint_rep(a)
        assert condition.passed
        assert check_representation(a, rep, mode="primal").passed


def test_coadjoint_operators_negated_transpose(s4):
    adj = adjoint_rep(s4.algebra)
    co, _ = coadjoint_rep(s4.algebra)
    assert co.operator((0, 1)) == -adj.operator((0, 1)).T
    assert co.nu == adj.nu.T


def test_psi_intertwines_quadratic(s4, sl2):
    for q in (s4, sl2):
        psi, report = rep_isomorphism_psi(q)
        assert report.passed
        assert psi == q.form.gram


def test_psi_honest_failure(ex1):
    """This quadratic structure needs its twist in the form identity, so the
    untwisted intertwining condition genuinely fails."""
    psi, report = rep_isomorphism_psi(ex1)
    assert not report.passed


def test_psi_rejects_degenerate(ex2):
    with pytest.raises(ValueError):
        rep_isomorphism_psi(ex2)


def test_representation_shape_validation():
    from nambucat import BracketTensor
    with pytest.raises(ValueError):
        Representation(3, 3, 3, BracketTensor.zero(3, 2, vdim=9),
                       Matrix.identity(2))
    with pytest.raises(ValueError):
        Representation(3, 3, 3, BracketTensor.zero(3, 2, vdim=4),
                       Matrix.identity(3))


def test_non_representation_detected(s4):
    """Perturbing one operator breaks the identity."""
    rep = adjoint_rep(s4.algebra)
    items = dict(rep.rho.dense_items())
    items[(0, 1)] = items[(0, 1)].scale(F(2))
    from nambucat import BracketTensor
    bad = Representation(4, 3, 4,
                         BracketTensor(4, 2, items, vdim=16), rep.nu)
    report = check_representation(s4.algebra, bad, mode="primal")
    assert not report.passed
    assert report.counterexample is not None


def test_representation_serialization_roundtrip(s4, tmp_path):
    rep = adjoint_rep(s4.algebra)
    doc = fileio.representation_to_document(rep)
    back = fileio.representation_from_document(doc)
    assert back.rho == rep.rho
    assert back.nu == rep.nu
    assert back.source_dim == rep.source_dim
    assert back.target_dim == rep.target_dim
    assert fileio.representation_to_document(back) == doc


def _semidirect(a, rep):
    """A + V with A's bracket on A, [x_1, .., x_{n-1}, v] = rho(x) v extended
    alternating, zero with two arguments in V, and twists alpha_i + nu."""
    d, n, m = a.dim, a.arity, rep.target_dim
    coeffs = {t: Vector(list(v.entries) + [0] * m) for t, v in a.bracket.dense_items()}
    for x, op in rep.rho.dense_items():
        for k in range(m):
            col = [op[r * m + k] for r in range(m)]
            if any(col):
                coeffs[x + (d + k,)] = Vector([0] * d + col)

    def plus_nu(t):
        return Matrix.from_rows([list(t.row(i).entries) + [0] * m for i in range(d)]
                                + [[0] * d + list(rep.nu.row(i).entries) for i in range(m)])
    return HomNambuAlgebra(d + m, n, BracketTensor.skew_from_entries(d + m, n, coeffs),
                           tuple(plus_nu(t) for t in a.twists))


def _adjoint_of_simple3lie4():
    a = corpus.load("simple3lie4").algebra
    return a, adjoint_rep(a)


def _shift_on_zero4():
    """The zero ternary bracket on dim 4, nu = id, and rho(e2, e3) =
    rho(e1, e4) = N, the 3 x 3 shift (N^2 != 0): the commutator condition
    holds, every operator being a multiple of N, but the semidirect product
    fails the fundamental identity at (1, 7, 2, 3, 4)."""
    a = HomNambuAlgebra(4, 3, BracketTensor(4, 3, {}, skew_storage=True),
                        (Matrix.identity(4),) * 2)
    n = Matrix(3, 3, [int(c == r + 1) for r in range(3) for c in range(3)]).flatten()
    rho = BracketTensor(4, 2, {(1, 2): n, (2, 1): -n, (0, 3): n, (3, 0): -n}, vdim=9)
    return a, Representation(4, 3, 3, rho, Matrix.identity(3))


@pytest.mark.parametrize("case", [
    _adjoint_of_simple3lie4,
    pytest.param(_shift_on_zero4, marks=pytest.mark.xfail(
        strict=True, reason="check_representation checks the commutator condition only, "
                            "not the second condition of an n-ary representation"))])
def test_representation_verdict_matches_the_semidirect_product(case):
    """rho is a representation exactly when A + V with the semidirect bracket
    is a Hom-Nambu algebra."""
    a, rep = case()
    assert check_representation(a, rep).passed \
        == check_hom_nambu_identity(_semidirect(a, rep)).passed
