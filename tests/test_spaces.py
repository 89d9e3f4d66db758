"""Centroids, derivations, centers, and the derived graded structures."""

from fractions import Fraction as F

import pytest

from nambucat import (BracketTensor, HomNambuAlgebra, Matrix, Vector,
                      check_hom_leibniz, corpus)
from nambucat.algebra import all_tuples, eval_bracket
from nambucat.spaces import (SubspaceBasis, assoc_centroid_membership,
                             centroid_derivation_product, centroid_membership,
                             compute_center, compute_central_derivations,
                             compute_centroid, compute_derivations,
                             derivation_commutator, derivation_membership,
                             inner_derivation, tensor_centroid_derivation,
                             varsigma_hom_lie)
from conftest import zero_algebra


def brute_centroid_check(a, theta, k):
    """Oracle: check the defining equations directly, no tensor machinery."""
    d, n = a.dim, a.arity
    pw = Matrix.identity(d) if k == 0 else a.twist.power(k)
    for t in all_tuples(d, n):
        args = [Vector.basis(d, i) for i in t]
        left = theta.apply(eval_bracket(a, args))
        right = eval_bracket(a, [theta.apply(args[0])]
                             + [pw.apply(x) for x in args[1:]])
        if left != right:
            return False
    return True


def brute_derivation_check(a, D, k):
    d, n = a.dim, a.arity
    if D @ a.twist != a.twist @ D:
        return False
    pw = Matrix.identity(d) if k == 0 else a.twist.power(k)
    for t in all_tuples(d, n):
        args = [Vector.basis(d, i) for i in t]
        left = D.apply(eval_bracket(a, args))
        right = Vector.zero(d)
        for i in range(n):
            right = right + eval_bracket(
                a, [pw.apply(x) if j != i else D.apply(x)
                    for j, x in enumerate(args)])
        if left != right:
            return False
    return True


def test_centroid_dimensions(s4, zero3):
    assert compute_centroid(s4.algebra, 0).dimension == 1
    assert compute_centroid(zero3, 0).dimension == 9


def test_centroid_contains_identity(s4, heis, ex1):
    for a in (s4.algebra, heis, ex1.algebra):
        basis = compute_centroid(a, 0)
        assert basis.contains(Matrix.identity(a.dim))


def test_centroid_cross_validated(s4, heis):
    for a in (s4.algebra, heis):
        basis = compute_centroid(a, 0)
        for m in basis.basis:
            assert brute_centroid_check(a, m, 0)
            assert centroid_membership(a, m, 0).passed
    assert not centroid_membership(
        s4.algebra, Matrix.diagonal([F(1), F(2), F(1), F(1)]), 0).passed


def test_centroid_slot_independence(s4):
    """For skew algebras a centroid element moves freely between slots."""
    a = s4.algebra
    for theta in compute_centroid(a, 0).basis:
        for p in range(a.arity):
            for t in all_tuples(a.dim, a.arity):
                args = [Vector.basis(a.dim, i) for i in t]
                moved = [theta.apply(x) if j == p else x
                         for j, x in enumerate(args)]
                assert eval_bracket(a, moved) \
                    == theta.apply(eval_bracket(a, args))


def test_centroid_power_law(s4):
    a = s4.algebra
    theta = Matrix.identity(4).scale(F(2))  # spans Cent for s4
    for powers in ((1, 0, 0), (1, 1, 0), (2, 1, 1)):
        for t in all_tuples(4, 3):
            args = [theta.power(p).apply(Vector.basis(4, i))
                    for p, i in zip(powers, t)]
            expected = theta.power(sum(powers)).apply(
                eval_bracket(a, [Vector.basis(4, i) for i in t]))
            assert eval_bracket(a, args) == expected


def test_derivation_dimensions(s4, zero3):
    assert compute_derivations(s4.algebra, 0).dimension == 6
    assert compute_derivations(zero3, 0).dimension == 9


def test_derivations_commutant_constraint():
    ab = HomNambuAlgebra(2, 2, BracketTensor(2, 2, {}, skew_storage=True),
                         (Matrix.diagonal([F(1), F(2)]),), multiplicative=True)
    basis = compute_derivations(ab, 0)
    assert basis.dimension == 2     # diagonal matrices only
    for m in basis.basis:
        assert m[0, 1] == 0 and m[1, 0] == 0


def test_derivations_reject_distinct_twists_before_assembly(ex2, monkeypatch):
    def no_transform(*args, **kwargs):
        raise AssertionError("assembled equations for distinct twists")
    monkeypatch.setattr(BracketTensor, "transform", no_transform)
    with pytest.raises(ValueError, match="twists differ"):
        compute_derivations(ex2.algebra, 0)


def test_derivations_cross_validated(s4):
    a = s4.algebra
    for D in compute_derivations(a, 0).basis:
        assert brute_derivation_check(a, D, 0)
        assert derivation_membership(a, D, 0).passed


def test_derivation_level_minus_one(sum5):
    # alpha^(-1) = 0: derivations must vanish on the derived subspace
    basis = compute_derivations(sum5, -1)
    for D in basis.basis:
        for t, v in sum5.bracket.dense_items():
            assert D.apply(v).is_zero()
    assert basis.dimension == 5  # maps into anything, killing the simple part


def test_inner_derivation(s4):
    a = s4.algebra
    D = inner_derivation(a, [Vector.basis(4, 0), Vector.basis(4, 1)], 0)
    assert D.col(2) == Vector.basis(4, 3)
    assert D.col(3) == -Vector.basis(4, 2)
    assert compute_derivations(a, 1).contains(D)


def test_inner_derivation_rejects_unfixed_args(s4):
    from nambucat import twist_by_morphism
    tw = twist_by_morphism(s4.algebra, Matrix.diagonal([F(1), F(1), F(-1), F(-1)]))
    with pytest.raises(ValueError):
        inner_derivation(tw, [Vector.basis(4, 2), Vector.basis(4, 3)], 0)


def test_inner_derivations_all_in_next_level(s4, heis, ex1):
    from nambucat.algebra import increasing_tuples
    for a in (s4.algebra, heis):
        der1 = compute_derivations(a, 1)
        for t in increasing_tuples(a.dim, a.arity - 1):
            D = inner_derivation(a, [Vector.basis(a.dim, i) for i in t], 0)
            assert der1.contains(D)


def test_center(s4, zero3, sum5):
    assert compute_center(s4.algebra).dimension == 0
    assert compute_center(zero3).dimension == 3
    c = compute_center(sum5)
    assert c.dimension == 1
    assert c.basis[0] == Vector.basis(5, 4)


def test_central_derivations(s4, zero3, sum5):
    assert compute_central_derivations(s4.algebra).dimension == 0
    assert compute_central_derivations(zero3).dimension == 9
    assert compute_central_derivations(sum5).dimension == 1


def test_derivation_commutator(s4):
    a = s4.algebra
    d1 = inner_derivation(a, [Vector.basis(4, 0), Vector.basis(4, 1)], 0)
    d2 = inner_derivation(a, [Vector.basis(4, 0), Vector.basis(4, 2)], 0)
    m, report = derivation_commutator(a, d1, 0, d2, 0)
    assert report.passed
    assert not m.is_zero()
    z, rz = derivation_commutator(a, d1, 0, d1, 0)
    assert z.is_zero() and rz.passed


def test_commutator_rejects_non_derivation(s4):
    with pytest.raises(ValueError):
        derivation_commutator(s4.algebra,
                              Matrix.diagonal([F(1), F(2), F(1), F(1)]), 0,
                              Matrix.identity(4), 0)


def test_centroid_derivation_product(s4):
    a = s4.algebra
    D = inner_derivation(a, [Vector.basis(4, 0), Vector.basis(4, 1)], 0)
    theta = Matrix.identity(4).scale(F(2))
    prod, pr, comm, cr = centroid_derivation_product(a, theta, 0, D, 1)
    assert prod == D.scale(F(2))
    assert pr.passed and cr.passed
    assert comm.is_zero()


def test_varsigma_identity_twist(s4):
    out, jacobi, skew = varsigma_hom_lie(s4.algebra, (0,))
    assert jacobi.passed and skew.passed
    assert out.dim == 6


def test_varsigma_twisted(s4):
    from nambucat import twist_by_morphism
    tw = twist_by_morphism(s4.algebra, Matrix.diagonal([F(1), F(1), F(-1), F(-1)]))
    out, jacobi, skew = varsigma_hom_lie(tw, (0, 1))
    assert jacobi.passed and skew.passed


def test_varsigma_default_window(s4):
    out, jacobi, skew = varsigma_hom_lie(s4.algebra)
    assert out.dim == 18
    assert jacobi.passed and skew.passed


def test_assoc_centroid_and_tensor(dualnum, s4):
    f = Matrix.from_rows([[F(0), F(0)], [F(1), F(0)]])   # multiply by t
    assert assoc_centroid_membership(dualnum, f, 0).passed
    m, report = tensor_centroid_derivation(
        dualnum, s4.algebra, f, Matrix.identity(4).scale(F(2)), "centroid", 0)
    assert report.passed
    D = inner_derivation(s4.algebra, [Vector.basis(4, 0), Vector.basis(4, 1)], 0)
    m2, report2 = tensor_centroid_derivation(
        dualnum, s4.algebra, Matrix.identity(2), D, "derivation", 0)
    assert report2.passed


def test_tensor_rejects_non_member(dualnum, s4):
    with pytest.raises(ValueError):
        tensor_centroid_derivation(dualnum, s4.algebra, Matrix.identity(2),
                                   Matrix.diagonal([F(1), F(2), F(1), F(1)]),
                                   "centroid", 0)


def test_subspaces_closed_under_combination(s4):
    basis = compute_derivations(s4.algebra, 0)
    combo = basis.basis[0].scale(F(2)) + basis.basis[1].scale(F(-3, 7))
    assert derivation_membership(s4.algebra, combo, 0).passed
    assert basis.contains(combo)
