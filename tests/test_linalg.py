"""Exact linear algebra kernel."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_spaces as oracle
from nambucat.linalg import (Matrix, Vector, det, frac, frac_str, in_span,
                             kron, kron_vec, nullspace, rank, rref, solve,
                             solve_matrix)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=7)


def mat(rows):
    return Matrix.from_rows([[F(x) for x in r] for r in rows])


def square(n):
    return st.lists(st.lists(rationals, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(mat)


def perm_det(m):
    """Independent oracle: Leibniz permutation expansion."""
    n = m.rows
    total = F(0)
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n)
                  if perm[i] > perm[j])
        term = F(1 - 2 * (inv % 2))
        for i in range(n):
            term *= m[i, perm[i]]
        total += term
    return total


def test_frac_parsing():
    assert frac("2/4") == F(1, 2)
    assert frac("-3") == F(-3)
    assert frac(5) == F(5)
    assert frac_str(F(1, 2)) == "1/2"
    assert frac_str(F(-7)) == "-7"
    with pytest.raises(ZeroDivisionError):
        frac("1/0")


def test_rref_pivots():
    m = mat([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    r, pivots = rref(m)
    assert pivots == [0, 2]
    assert r.row(0) == Vector([F(1), F(2), F(0)])
    assert r.row(1) == Vector([F(0), F(0), F(1)])


def test_rank_and_det_examples():
    assert rank(Matrix.identity(3)) == 3
    assert rank(mat([[1, 2], [2, 4]])) == 1
    assert det(mat([[2, 1], [1, 1]])) == F(1)
    assert det(mat([[1, 2], [2, 4]])) == F(0)
    m = mat([[-2, 1, 0], [1, F(-1, 2), 0], [0, 0, 0]])
    assert det(m) == 0 and rank(m) == 1


def test_nullspace_canonical_and_correct():
    m = mat([[1, -1]])
    (v,) = nullspace(m)
    assert v == Vector([F(1), F(1)])
    assert nullspace(Matrix.identity(2)) == []
    basis = nullspace(Matrix.zero(2, 3))
    assert len(basis) == 3
    for v in basis:
        assert m.cols or True


def test_solve_and_in_span():
    m = mat([[2, 0], [0, 3]])
    assert solve(m, Vector([F(4), F(9)])) == Vector([F(2), F(3)])
    assert solve(mat([[1, 1], [1, 1]]), Vector([F(0), F(1)])) is None
    coeffs = in_span([Vector([F(1), F(0)]), Vector([F(1), F(1)])],
                     Vector([F(3), F(2)]))
    assert coeffs == Vector([F(1), F(2)])
    assert in_span([Vector([F(1), F(0)])], Vector([F(0), F(1)])) is None


def test_solve_matrix_inverse():
    m = mat([[1, 2], [3, 5]])
    inv = solve_matrix(m, Matrix.identity(2))
    assert m @ inv == Matrix.identity(2)
    assert solve_matrix(mat([[1, 1], [1, 1]]), Matrix.identity(2)) is None


def test_kron():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    k = kron(a, b)
    assert k.rows == 4 and k[0, 1] == F(1) and k[0, 0] == F(0)
    assert kron_vec(Vector([F(1), F(2)]), Vector([F(3), F(4)])) \
        == Vector([F(3), F(4), F(6), F(8)])
    # kron is multiplicative: (A(x)B)(u(x)v) = Au (x) Bv
    u, v = Vector([F(1), F(-1)]), Vector([F(2), F(5)])
    assert k.apply(kron_vec(u, v)) == kron_vec(a.apply(u), b.apply(v))


@settings(max_examples=60, deadline=None)
@given(square(3))
def test_det_matches_permutation_expansion(m):
    assert det(m) == perm_det(m)


@settings(max_examples=60, deadline=None)
@given(square(3))
def test_det_nonzero_iff_full_rank(m):
    assert (det(m) != 0) == (rank(m) == 3)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(rationals, min_size=4, max_size=4),
                min_size=2, max_size=5).map(mat))
def test_rank_nullity_and_nullspace_members(m):
    basis = nullspace(m)
    assert rank(m) + len(basis) == m.cols
    for v in basis:
        assert m.apply(v).is_zero()
    # reproducible: second run gives the same canonical basis
    assert nullspace(m) == basis


@settings(max_examples=40, deadline=None)
@given(square(3), square(3))
def test_det_multiplicative(a, b):
    assert det(a @ b) == det(a) * det(b)


sparse_rationals = st.one_of(st.just(F(0)), st.just(F(0)), st.just(F(0)),
                             st.fractions(min_value=-9, max_value=9, max_denominator=5))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_elimination_matches_dense_oracle(rows, cols, data):
    """rank, rref, solve and in_span (one sparse integer elimination) against
    the dense Gauss-Jordan copy, on mostly-zero matrices with dependent rows."""
    entries = data.draw(st.lists(sparse_rationals, min_size=rows * cols,
                                 max_size=rows * cols))
    m = Matrix(rows, cols, entries)
    if rows:     # repeat a scaled row so that some rows are dependent
        i = data.draw(st.integers(0, rows - 1))
        m = Matrix.from_rows(m.row_list() + [[2 * x for x in m.row(i)]])
    assert rank(m) == oracle.rank(m)
    assert rref(m) == oracle.rref(m)
    b = Vector(data.draw(st.lists(sparse_rationals, min_size=m.rows, max_size=m.rows)))
    assert solve(m, b) == oracle.solve(m, b)
    consistent = m.apply(Vector([1] * cols))
    assert solve(m, consistent) == oracle.solve(m, consistent)
    basis = [m.row(i) for i in range(m.rows)]
    w = Vector(data.draw(st.lists(sparse_rationals, min_size=cols, max_size=cols)))
    for v in (w, Vector.zero(cols), sum(basis, Vector.zero(cols))):
        assert in_span(basis, v) == oracle.in_span(basis, v)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(1, 4), st.data())
def test_solve_matrix_matches_dense_oracle(rows, cols, k, data):
    """All right-hand sides in one elimination against the dense oracle, one
    column at a time: None when any column is inconsistent.  m has a repeated
    row, so it is singular, and each column is either m times a random vector
    or random (mostly inconsistent when m has more rows than rank)."""
    m = Matrix(rows, cols, data.draw(st.lists(sparse_rationals, min_size=rows * cols,
                                              max_size=rows * cols)))
    if rows:
        i = data.draw(st.integers(0, rows - 1))
        m = Matrix.from_rows(m.row_list() + [[3 * x for x in m.row(i)]])
    columns = []
    for _ in range(k):
        x = Vector(data.draw(st.lists(sparse_rationals, min_size=cols, max_size=cols)))
        b = Vector(data.draw(st.lists(sparse_rationals, min_size=m.rows, max_size=m.rows)))
        columns.append(m.apply(x) if data.draw(st.booleans()) else b)
    want = [oracle.solve(m, b) for b in columns]
    got = solve_matrix(m, Matrix(m.rows, k, [b[i] for i in range(m.rows) for b in columns]))
    if any(x is None for x in want):
        assert got is None
    else:
        assert got == Matrix(cols, k, [x[i] for i in range(cols) for x in want])
