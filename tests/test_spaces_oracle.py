"""The sparse structure-space solver against the dense reference solver,
plus metamorphic and closed-form checks where the reference is too slow."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_skew
import oracle_spaces as oracle
from conftest import filippov, skew_tensors, slot_maps
from nambucat import BilinearForm, HomNambuAlgebra, Matrix, corpus
from nambucat.constructions import induced_hom_leibniz, tstar_extension
from nambucat.fileio import subspace_to_document
from nambucat.linalg import SparseMatrix, nullspace, solve_matrix
from nambucat.spaces import (compute_center, compute_central_derivations,
                             compute_centroid, compute_derivations)

LEVELS = (-1, 0, 1, 2)


def _inputs():
    out = {}
    for name in corpus.corpus_names():
        obj = corpus.load(name)
        a = getattr(obj, "algebra", obj)     # quadratic wrappers hold an algebra
        if isinstance(a, HomNambuAlgebra):
            out[name] = a
    out["A4"], out["A5"] = filippov(4), filippov(5)
    out["tstar(simple3lie4)"] = tstar_extension(out["simple3lie4"],
                                                BilinearForm.standard(4)).algebra
    out["leibniz(example1)"] = induced_hom_leibniz(out["example1"]).as_nambu()
    return out


INPUTS = _inputs()


def _same(new, old, *args):
    """Both raise the same ValueError, or both give the same document."""
    try:
        want = subspace_to_document(old(*args))
    except ValueError as e:
        with pytest.raises(ValueError, match=str(e)):
            new(*args)
        return
    assert subspace_to_document(new(*args)) == want


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_spaces_match_dense_oracle(name):
    a = INPUTS[name]
    for k in LEVELS:
        _same(compute_centroid, oracle.centroid, a, k)
        _same(compute_derivations, oracle.derivations, a, k)
    _same(compute_center, oracle.center, a)
    _same(compute_central_derivations, oracle.central_derivations, a)


def test_oracle_inputs_cover_the_corpus():
    # every bundled n-ary algebra; dualnumbers3 is an associative product
    assert set(corpus.corpus_names()) - set(INPUTS) == {"dualnumbers3"}


rationals = st.one_of(st.just(F(0)), st.just(F(0)),
                      st.fractions(min_value=-9, max_value=9, max_denominator=5))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.data())
def test_nullspace_matches_dense_oracle(rows, cols, data):
    m = Matrix(rows, cols, data.draw(st.lists(rationals, min_size=rows * cols,
                                              max_size=rows * cols)))
    want = oracle.dense_nullspace(m)
    assert nullspace(m) == want
    assert nullspace(SparseMatrix(cols, m.sparse_rows())) == want


def _change_basis(a, p):
    """The algebra in the basis f_j = p e_j, a skew bracket re-stored skew."""
    d = a.dim
    pinv = solve_matrix(p, Matrix.identity(d))
    bracket = a.bracket.transform([p] * a.arity, out_map=pinv)
    if a.skew:
        bracket = bracket.skew_canonical()
    twists = tuple(pinv @ t @ p for t in a.twists)
    return HomNambuAlgebra(d, a.arity, bracket, twists, skew=a.skew,
                           multiplicative=a.multiplicative)


def _relabel(a, perm, signs):
    """The algebra in the basis f_i = signs[i] e_perm[i]."""
    d = a.dim
    return _change_basis(a, Matrix(d, d, [signs[j] if perm[j] == i else 0
                                          for i in range(d) for j in range(d)]))


def _dim(solve, *args):
    try:
        return solve(*args).dimension
    except ValueError:      # twists differ
        return None


def _dims(a):
    return [_dim(compute_center, a), _dim(compute_central_derivations, a)] + [
        _dim(solve, a, k) for k in (-1, 0, 1)
        for solve in (compute_centroid, compute_derivations)]


@pytest.mark.parametrize("name", ["A4", "heisenberg3", "example1", "example2",
                                  "leibniz(example1)"])
def test_signed_permutation_keeps_dimensions(name):
    a = INPUTS[name]
    rng = random.Random(name)
    for _ in range(2):
        perm = list(range(a.dim))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(a.dim)]
        assert _dims(_relabel(a, perm, signs)) == _dims(a)


def _invertible(rng, d):
    """A random unit lower times unit upper triangular integer matrix with
    its rows permuted, so invertible."""
    lower = Matrix(d, d, [1 if i == j else rng.randint(-1, 2) if i > j else 0
                          for i in range(d) for j in range(d)])
    upper = Matrix(d, d, [1 if i == j else rng.randint(-1, 1) if i < j else 0
                          for i in range(d) for j in range(d)])
    perm = list(range(d))
    rng.shuffle(perm)
    return Matrix(d, d, [1 if perm[i] == j else 0 for i in range(d) for j in range(d)]) \
        @ lower @ upper


@pytest.mark.parametrize("name", ["A5", "tstar(simple3lie4)"])
def test_invertible_change_of_basis_keeps_dimensions(name):
    a = INPUTS[name]
    want = _dims(a)
    rng = random.Random(name)
    for _ in range(2):
        p = _invertible(rng, a.dim)
        assert sum(1 for x in p.entries if x) > a.dim      # not a signed permutation
        b = _change_basis(a, p)
        assert b.bracket.skew_storage and b.bracket != a.bracket
        assert _dims(b) == want


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 5).flatmap(lambda d: st.tuples(st.just(d), st.integers(2, min(d, 4)))),
       st.data())
def test_skew_storage_spaces_match_oracle(shape, data):
    """Random skew-storage brackets, with identity, invertible or singular
    twists: the spaces assembled on one tuple per orbit equal those
    assembled on every expanded entry, at k = -1 to 2."""
    d, n = shape
    C = data.draw(skew_tensors(d, n, d))
    alpha = data.draw(slot_maps(d, data.draw(st.sampled_from(("identity", "invertible",
                                                               "singular")))))
    a = HomNambuAlgebra(d, n, C, (alpha,) * (n - 1), skew=True)
    for k in LEVELS:
        _same(compute_centroid, oracle_skew.centroid, a, k)
        _same(compute_derivations, oracle_skew.derivations, a, k)
    _same(compute_center, oracle_skew.center, a)
    _same(compute_central_derivations, oracle_skew.central_derivations, a)


def test_filippov_a6_against_theory():
    """A_6 is simple: centroid = scalars, derivations = so(6), no center."""
    a = filippov(6)
    assert compute_centroid(a, 0).dimension == 1
    assert compute_derivations(a, 0).dimension == 15
    assert compute_center(a).dimension == 0
