import itertools
from fractions import Fraction as F

import pytest
from hypothesis import strategies as st

from nambucat import (BilinearForm, BracketTensor, HomAssocNAry,
                      HomNambuAlgebra, Matrix, QuadraticStructure, Vector,
                      corpus)
from nambucat.faulkner import QuadraticLieAlgebra


@pytest.fixture(scope="session")
def ex1():
    """Ternary bracket B(y,z)a(x) - B(z,x)a(y), a = diag(1,1,-1), B = id."""
    return corpus.load("example1")


@pytest.fixture(scope="session")
def ex2():
    return corpus.load("example2")


@pytest.fixture(scope="session")
def s4():
    """4-dim simple 3-Lie algebra with the standard invariant form."""
    return corpus.load("simple3lie4")


@pytest.fixture(scope="session")
def sl2():
    return corpus.load("sl2")


@pytest.fixture(scope="session")
def heis():
    return corpus.load("heisenberg3")


@pytest.fixture(scope="session")
def dualnum():
    return corpus.load("dualnumbers3")


@pytest.fixture(scope="session")
def zero3():
    return corpus.load("zero3")


def zero_algebra(d, n):
    return HomNambuAlgebra(d, n, BracketTensor(d, n, {}, skew_storage=True),
                           (Matrix.identity(d),) * (n - 1), multiplicative=True)


def filippov(d):
    """Filippov's simple d-dimensional (d-1)-Lie algebra A_d in closed form:
    [e_1, .., ^e_i, .., e_d] = (-1)^(d+i) e_i, identity twists."""
    items = {}
    for omit in range(d):
        out = [F(0)] * d
        out[omit] = F((-1) ** (d + omit + 1))
        items[tuple(i for i in range(d) if i != omit)] = Vector(out)
    return HomNambuAlgebra(d, d - 1, BracketTensor(d, d - 1, items, skew_storage=True),
                           (Matrix.identity(d),) * (d - 2), multiplicative=True)


@pytest.fixture(scope="session")
def sum5(s4):
    """(1-dim trivial) + (4-dim simple 3-Lie), the trivial summand last."""
    items = {}
    for t, v in s4.algebra.bracket.dense_items():
        if not v.is_zero():
            items[t] = Vector(list(v.entries) + [F(0)])
    return HomNambuAlgebra(5, 3, BracketTensor(5, 3, items).skew_canonical(),
                           (Matrix.identity(5),) * 2, multiplicative=True)


# random tensors and slot maps for the differential tests

entries = st.sampled_from([F(-1), F(0), F(0), F(1), F(2), F(1, 2)])


@st.composite
def skew_tensors(draw, d, n, vdim):
    """A random skew-storage tensor; it need not be an algebra."""
    keys = draw(st.lists(st.sampled_from(list(itertools.combinations(range(d), n))),
                         unique=True, max_size=6))
    return BracketTensor(d, n, {k: Vector(draw(st.lists(entries, min_size=vdim,
                                                         max_size=vdim)))
                                for k in keys}, skew_storage=True, vdim=vdim)


coef = st.one_of(st.just(F(0)), st.just(F(0)),
                 st.fractions(min_value=-3, max_value=3, max_denominator=3))


@st.composite
def tensors(draw, dim, arity, vdim):
    """A random tensor, in skew storage about half the time."""
    skew = arity > 0 and draw(st.booleans())
    keys = (itertools.combinations(range(dim), arity) if skew
            else itertools.product(range(dim), repeat=arity))
    coeffs = {t: Vector(draw(st.lists(coef, min_size=vdim, max_size=vdim)))
              for t in keys if draw(st.booleans())}
    return BracketTensor(dim, arity, coeffs, skew_storage=skew, vdim=vdim)


def matrix(draw, rows, cols):
    return Matrix(rows, cols, draw(st.lists(entries, min_size=rows * cols,
                                            max_size=rows * cols)))


@st.composite
def slot_maps(draw, d, kind=None):
    """An identity, invertible, singular or rectangular d-row map."""
    kind = kind or draw(st.sampled_from(("identity", "invertible", "singular",
                                         "rectangular")))
    if kind == "identity":
        return Matrix.identity(d)
    if kind == "rectangular":
        return matrix(draw, d, draw(st.integers(1, d + 1).filter(lambda w: w != d)))
    # unit lower times unit upper triangular, then a signed permutation of rows
    lower = Matrix(d, d, [1 if i == j else draw(entries) if i > j else 0
                          for i in range(d) for j in range(d)])
    upper = Matrix(d, d, [1 if i == j else draw(entries) if i < j else 0
                          for i in range(d) for j in range(d)])
    perm = draw(st.permutations(range(d)))
    sign = draw(st.sampled_from((1, -1)))
    m = Matrix(d, d, [sign if perm[i] == j else 0 for i in range(d) for j in range(d)]) \
        @ lower @ upper
    if kind == "singular":      # one column zero or a copy of the next
        c = draw(st.integers(0, d - 1))
        src = None if draw(st.booleans()) else (c + 1) % d
        m = Matrix(d, d, [m[i, j] if j != c else 0 if src is None else m[i, src]
                          for i in range(d) for j in range(d)])
    return m


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance criterion verdict lines even when stdout capture
    is active, so a plain ``pytest -v`` run shows one line per criterion."""
    try:
        from test_acceptance import VERDICT_LINES
    except ImportError:
        return
    if VERDICT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in VERDICT_LINES:
            terminalreporter.write_line(line)
