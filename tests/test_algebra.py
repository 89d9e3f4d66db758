"""Bracket tensors, multilinear evaluation, and adjoint operators."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nambucat import (BilinearForm, BracketTensor, HomAssocNAry, HomNambuAlgebra,
                      Matrix, Vector, corpus, eval_bracket)
from nambucat.algebra import (adjoint_operator,
                              all_tuples, increasing_tuples, perm_sign)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=5)


def vec(d):
    return st.lists(rationals, min_size=d, max_size=d).map(
        lambda xs: Vector([F(x) for x in xs]))


def naive_eval(tensor, args):
    """Oracle: expand multilinearity coordinate by coordinate."""
    d = tensor.dim
    acc = Vector.zero(tensor.vdim if tensor.vdim else d)
    for idx in itertools.product(range(d), repeat=tensor.arity):
        c = F(1)
        for slot, i in enumerate(idx):
            c *= args[slot][i]
            if c == 0:
                break
        if c != 0:
            acc = acc + tensor.value(idx).scale(c)
    return acc


def test_perm_sign():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((2, 0, 1)) == 1


def test_tuple_iterators():
    assert len(list(all_tuples(3, 2))) == 9
    assert list(increasing_tuples(3, 2)) == [(0, 1), (0, 2), (1, 2)]


def test_skew_from_entries_expansion(s4):
    b = s4.algebra.bracket
    assert b.value((0, 1, 2)) == Vector.basis(4, 3)
    assert b.value((1, 0, 2)) == -Vector.basis(4, 3)
    assert b.value((0, 0, 2)).is_zero()
    # absent tuples share one immutable zero vector instead of allocating
    assert b.value((0, 0, 2)) is b.value((1, 1, 3))
    dense = b.transform([None] * 3)
    assert dense.value((0, 0, 2)) is dense.value((1, 1, 3)) == Vector.zero(4)


def test_skew_from_entries_inconsistent():
    items = {(0, 1): Vector.basis(2, 0), (1, 0): Vector.basis(2, 0)}
    with pytest.raises(ValueError):
        BracketTensor.skew_from_entries(2, 2, items)


def test_eval_bracket_example1(ex1):
    # the defining formula at (e1, e2, e2): B(e2,e2)a(e1) - B(e2,e1)a(e2) = e1
    v = eval_bracket(ex1.algebra, [Vector.basis(3, 0), Vector.basis(3, 1),
                                   Vector.basis(3, 1)])
    assert v == Vector.basis(3, 0)


def test_transform_matches_naive(ex1):
    a = ex1.algebra
    alpha = a.twist
    t = a.bracket.transform([alpha, None, alpha], out_map=alpha)
    for idx in all_tuples(3, 3):
        args = [alpha.col(idx[0]), Vector.basis(3, idx[1]), alpha.col(idx[2])]
        assert t.value(idx) == alpha.apply(a.bracket.eval(args))


def test_transform_identity_maps_and_rectangular_slots(s4):
    b = s4.algebra.bracket
    ident = Matrix.identity(4)
    assert b.transform([ident] * 3, out_map=ident) == b.transform([None] * 3) == b
    # slot maps dim x d' give a tensor on d'-dimensional arguments
    f = Matrix(4, 2, [1, 0, 0, 1, 1, 1, 0, 2])
    t = b.transform([f] * 3)
    assert (t.dim, t.arity, t.vdim) == (2, 3, 4)
    for idx in all_tuples(2, 3):
        assert t.value(idx) == b.eval([f.col(i) for i in idx])
    for maps in ([f, None, f], [f, f, Matrix(4, 3, [0] * 12)], [Matrix.identity(3)] * 3):
        with pytest.raises(ValueError, match="slot map has wrong shape"):
            b.transform(maps)


def test_permute_moves_slots(ex1, s4):
    """New slot k takes old slot order[k]; skew storage is read expanded."""
    b = ex1.algebra.bracket
    for order in itertools.permutations(range(3)):
        p = b.permute(order)
        assert (p.dim, p.arity, p.vdim, p.skew_storage) == (3, 3, 3, False)
        for t in all_tuples(3, 3):
            assert p.value(tuple(t[o] for o in order)) == b.value(t)
    c = s4.algebra.bracket
    assert c.permute((1, 0, 2)) == c.transform([None] * 3, out_map=Matrix.identity(4).scale(-1))
    for order in ((0, 1), (0, 1, 1), (0, 1, 3)):
        with pytest.raises(ValueError, match="does not reorder"):
            b.permute(order)


def test_combine_sums_and_cancels(ex1, s4):
    b = ex1.algebra.bracket
    assert BracketTensor.combine([(1, b), (-1, b)]).coeffs == {}
    twice = BracketTensor.combine([(F(1, 2), b), (F(3, 2), b)])
    assert twice == b.transform([None] * 3, out_map=Matrix.identity(3).scale(2))
    skew = s4.algebra.bracket          # skew storage takes part expanded
    assert BracketTensor.combine([(1, skew), (1, skew.permute((1, 0, 2)))]).coeffs == {}
    for terms in ([], [(1, b), (1, skew)]):
        with pytest.raises(ValueError, match="one shape"):
            BracketTensor.combine(terms)


def test_adjoint_operator(s4):
    a = s4.algebra
    L = adjoint_operator(a, [Vector.basis(4, 0), Vector.basis(4, 1)])
    assert L.col(2) == Vector.basis(4, 3)
    assert L.col(3) == -Vector.basis(4, 2)
    assert L == Matrix.from_columns([a.bracket.value((0, 1, j)) for j in range(4)])


def test_bilinear_form():
    g = Matrix.from_rows([[F(2), F(1)], [F(1), F(2)]])
    b = BilinearForm(2, g)
    assert b.apply(Vector.basis(2, 0), Vector.basis(2, 1)) == F(1)
    assert b.nondegenerate
    with pytest.raises(ValueError):
        BilinearForm(2, Matrix.from_rows([[F(0), F(1)], [F(2), F(0)]]))


def test_twist_property_requires_equal_twists(ex2):
    with pytest.raises(ValueError):
        ex2.algebra.twist
    twists = (Matrix.identity(2), Matrix.diagonal([1, 2]))
    h = HomAssocNAry(2, 3, BracketTensor.zero(2, 3), twists)
    with pytest.raises(ValueError, match="twists differ"):
        h.twist


@settings(max_examples=25, deadline=None)
@given(vec(4), vec(4), vec(4))
def test_eval_is_multilinear_oracle(s4, x, y, z):
    b = s4.algebra.bracket
    assert b.eval([x, y, z]) == naive_eval(b, [x, y, z])


@settings(max_examples=25, deadline=None)
@given(vec(4), vec(4), vec(4), vec(4), rationals)
def test_eval_linearity_in_slot(s4, x, y, z, w, c):
    b = s4.algebra.bracket
    lhs = b.eval([x, y.scale(F(c)) + w, z])
    rhs = b.eval([x, y, z]).scale(F(c)) + b.eval([x, w, z])
    assert lhs == rhs
