"""Identity checkers: positive/negative instances, budgets, report shape."""

from fractions import Fraction as F

import pytest

from nambucat import (BilinearForm, BracketTensor, HomAssocNAry,
                      HomLeibnizAlgebra, HomNambuAlgebra, Matrix,
                      QuadraticStructure, TupleBudgetExceeded, Vector,
                      check_hom_leibniz, check_hom_nambu_identity,
                      check_morphism, check_multiplicativity, check_quadratic,
                      check_skew_symmetry, check_total_hom_associativity)
from conftest import zero_algebra


def test_zero_algebras_pass_everything():
    for d in (1, 2, 3):
        for n in (2, 3):
            a = zero_algebra(d, n)
            assert check_hom_nambu_identity(a).passed
            assert check_skew_symmetry(a).passed
            assert check_multiplicativity(a).passed


def test_hom_nambu_positive(ex1, ex2, s4):
    assert check_hom_nambu_identity(ex1.algebra).passed
    assert check_hom_nambu_identity(ex2.algebra).passed
    r = check_hom_nambu_identity(s4.algebra)
    assert r.passed
    # skew fast path: increasing (n-1)- and n-tuple pairs only
    assert r.tuples_checked == 6 * 4


def test_hom_nambu_negative():
    # [e1,e2] = e1 with twist alpha = 0 on e1: fails Jacobi-type identity?
    # use a genuinely broken bracket: [e1,e2] = e2, [e2,e1] = 0 (not skew),
    # identity twist; Leibniz-type expansion fails at (e2, e1, e2)
    items = {(0, 1): Vector.basis(2, 1), (1, 0): Vector.basis(2, 1)}
    a = HomNambuAlgebra(2, 2, BracketTensor(2, 2, items), (Matrix.identity(2),))
    r = check_hom_nambu_identity(a)
    assert not r.passed
    assert r.counterexample is not None
    j = r.to_json()
    assert j["passed"] is False
    # JSON counterexample uses 1-based indices
    assert min(j["counterexample"]["indices"]) >= 1


def test_skew_negative_names_slots(ex1):
    r = check_skew_symmetry(ex1.algebra)
    assert not r.passed
    assert r.counterexample is not None


def test_multiplicativity(ex1, ex2):
    assert check_multiplicativity(ex1.algebra).passed
    r = check_multiplicativity(ex2.algebra)   # twists differ
    assert not r.passed and r.detail


def test_budget():
    a = zero_algebra(3, 3)
    with pytest.raises(TupleBudgetExceeded):
        check_skew_symmetry(a, max_tuples=5)
    assert check_skew_symmetry(a, max_tuples=100).passed


def test_total_hom_associativity(dualnum):
    assert check_total_hom_associativity(dualnum).passed
    # breaking one entry kills symmetry
    bad = dict(dualnum.mu.coeffs)
    bad[(1, 1, 1)] = Vector.basis(2, 0)
    h = HomAssocNAry(2, 3, BracketTensor(2, 3, bad), dualnum.twists)
    assert not check_total_hom_associativity(h).passed


def test_hom_leibniz(heis):
    l = HomLeibnizAlgebra(3, heis.bracket, Matrix.identity(3))
    assert check_hom_leibniz(l).passed
    bad = HomLeibnizAlgebra(3, heis.bracket, Matrix.diagonal([F(1), F(1), F(5)]))
    # scaling the twist on the center breaks nothing here: [x,y] lands in the
    # center and the bracket kills it; use a genuinely bad bracket instead
    items = {(0, 1): Vector.basis(3, 0), (1, 0): Vector.basis(3, 1)}
    bad = HomLeibnizAlgebra(3, BracketTensor(3, 2, items), Matrix.identity(3))
    assert not check_hom_leibniz(bad).passed


def test_quadratic(ex1, ex2, s4):
    assert check_quadratic(ex1).passed
    assert check_quadratic(s4).passed
    r = check_quadratic(ex2)
    assert r.passed and any("degenerate" in w for w in r.warnings)
    # wrong gram: not invariant for s4
    bad = QuadraticStructure(s4.algebra,
                             BilinearForm(4, Matrix.diagonal([F(1), F(2), F(3), F(4)])))
    assert not check_quadratic(bad).passed
    # beta makes a difference: ex1 without beta fails invariance
    no_beta = QuadraticStructure(ex1.algebra, ex1.form)
    assert not check_quadratic(no_beta).passed


def test_quadratic_twist_symmetry_violation(s4):
    # with gram = identity, twist-symmetry means the twist is symmetric
    shear = Matrix.from_rows([[F(1), F(1), F(0), F(0)],
                              [F(0), F(1), F(0), F(0)],
                              [F(0), F(0), F(1), F(0)],
                              [F(0), F(0), F(0), F(1)]])
    skewed = HomNambuAlgebra(4, 3, s4.algebra.bracket, (shear,) * 2)
    q = QuadraticStructure(skewed, s4.form)
    assert not check_quadratic(q).passed


def test_morphism(s4):
    a = s4.algebra
    rho = Matrix.diagonal([F(1), F(1), F(-1), F(-1)])
    assert check_morphism(a, a, rho).passed
    assert check_morphism(a, a, Matrix.identity(4)).passed
    assert not check_morphism(a, a, Matrix.diagonal([F(2), F(1), F(1), F(1)])).passed


def test_morphism_rectangular_embedding(s4, sum5):
    # e_i -> e_i embeds the simple 3-Lie algebra as the summand of sum5
    f = Matrix(5, 4, [1 if i == j else 0 for i in range(5) for j in range(4)])
    r = check_morphism(s4.algebra, sum5, f)
    assert r.passed and r.tuples_checked == 4 ** 3
    bad = check_morphism(s4.algebra, sum5, f.scale(2))
    assert not bad.passed
    ce = bad.counterexample
    assert ce.left == ce.right.scale(F(1, 4)) != ce.right   # 2[x,y,z] vs [2x,2y,2z]


def test_morphism_twist_intertwining(ex1):
    a = ex1.algebra
    # identity does not intertwine alpha with alpha unless it commutes; here
    # any diagonal map commutes with diag(1,1,-1), so check a non-diagonal one
    f = Matrix.from_rows([[F(1), F(0), F(1)],
                          [F(0), F(1), F(0)],
                          [F(0), F(0), F(1)]])
    assert not check_morphism(a, a, f).passed


def test_report_json_contract(s4):
    j = check_hom_nambu_identity(s4.algebra).to_json()
    assert set(j) >= {"identity", "passed", "counterexample", "tuples_checked"}
    assert j["identity"] == "hom_nambu_identity"
    assert j["counterexample"] is None
