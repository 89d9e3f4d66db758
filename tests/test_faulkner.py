"""Construction of ternary structures from quadratic Lie algebras."""

from fractions import Fraction as F

import pytest

from nambucat import (BilinearForm, BracketTensor, HomNambuAlgebra, Matrix,
                      Vector, check_hom_leibniz, check_hom_nambu_identity,
                      check_skew_symmetry)
from nambucat.algebra import eval_bracket
from nambucat.faulkner import (QuadraticLieAlgebra, check_phi_equivariance,
                               faulkner_ternary, omega_twist_leibniz, phi_map,
                               tensor_leibniz)


def _bracket(g, x, y):
    return eval_bracket(g.algebra, [x, y])


def test_sl2_validates(sl2):
    reports = sl2.validate()
    assert all(r.passed for r in reports)


def test_phi_defining_equation(sl2):
    """B(y, phi(x (x) f)) = f([y, x]) for all basis choices."""
    d = sl2.algebra.dim
    gram = sl2.form.gram
    for i in range(d):
        x = Vector.basis(d, i)
        for j in range(d):
            # the functional f = B(e_j, -) has coordinate vector gram row j
            fvec = gram.row(j)
            out = phi_map(sl2, x, fvec)
            for k in range(d):
                y = Vector.basis(d, k)
                lhs = sl2.form.apply(y, out)
                rhs = fvec.dot(_bracket(sl2, y, x))
                assert lhs == rhs


def test_phi_equivariance(sl2):
    report = check_phi_equivariance(sl2)
    assert report.passed


def test_tensor_leibniz(sl2):
    lb = tensor_leibniz(sl2)
    assert lb.dim == 9
    assert check_hom_leibniz(lb).passed


def test_omega_twist(sl2):
    alpha = sl2.algebra.twists[0]
    out, form = omega_twist_leibniz(sl2, alpha)
    assert out.dim == 9
    assert check_hom_leibniz(out).passed
    assert form.gram.T == form.gram
    assert form.dim == 9


def test_faulkner_ternary_untwisted(sl2):
    q = faulkner_ternary(sl2)
    a = q.algebra
    assert a.arity == 3 and a.dim == 3
    assert check_hom_nambu_identity(a).passed
    # not skew in general: record the honest status
    assert not check_skew_symmetry(a).passed


def test_faulkner_ternary_twisted(sl2):
    alpha = sl2.algebra.twists[0]
    q = faulkner_ternary(sl2, alpha=alpha)
    assert check_hom_nambu_identity(q.algebra).passed


def test_T_antisymmetry(sl2):
    """T(x (x) y) = -T(y (x) x) where T(x (x) y) = phi(x (x) B(y, -))."""
    d = sl2.algebra.dim
    gram = sl2.form.gram
    for i in range(d):
        for j in range(d):
            x, y = Vector.basis(d, i), Vector.basis(d, j)
            txy = phi_map(sl2, x, gram.apply(y))
            tyx = phi_map(sl2, y, gram.apply(x))
            assert txy == -tyx


def test_ternary_form_invariance(sl2):
    """The inherited form pairs the ternary bracket skew-symmetrically
    in the last two slots."""
    q = faulkner_ternary(sl2)
    d = 3
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    xs = [Vector.basis(d, m) for m in (i, j, k)]
                    w = Vector.basis(d, l)
                    lhs = q.form.apply(eval_bracket(q.algebra, xs), w)
                    rhs = q.form.apply(
                        eval_bracket(q.algebra, [xs[0], xs[1], w]), xs[2])
                    assert lhs == -rhs


def test_onedim_trivial():
    g = HomNambuAlgebra(1, 2, BracketTensor(1, 2, {}, skew_storage=True),
                        (Matrix.identity(1),), multiplicative=True)
    q = QuadraticLieAlgebra(g, BilinearForm(1, Matrix.identity(1)))
    tern = faulkner_ternary(q)
    assert not tern.algebra.bracket.dense_items()


def test_degenerate_form_rejected(sl2):
    with pytest.raises(ValueError):
        QuadraticLieAlgebra(sl2.algebra, BilinearForm(3, Matrix.zero(3, 3)))


def test_nonbinary_rejected(s4):
    with pytest.raises(ValueError):
        QuadraticLieAlgebra(s4.algebra, BilinearForm(4, Matrix.identity(4)))
