"""The sparse-tensor checkers against the tuple-by-tuple reference loops in
``oracle_checks``: every report must have the same JSON (verdict, first
counterexample, detail and tuples_checked), and a check that raises must
raise the same error."""

import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_checks as oracle
from conftest import filippov
from nambucat import (BilinearForm, BracketTensor, HomAssocNAry,
                      HomLeibnizAlgebra, HomNambuAlgebra, Matrix,
                      TupleBudgetExceeded, Vector, corpus)
from nambucat.checks import (check_hom_leibniz, check_morphism,
                             check_multiplicativity, check_skew_symmetry,
                             check_total_hom_associativity)
from nambucat.constructions import (induced_hom_leibniz, raise_arity,
                                    tstar_extension)
from nambucat.faulkner import faulkner_ternary, tensor_leibniz
from nambucat.spaces import (assoc_centroid_membership, centroid_membership,
                             compute_centroid, compute_derivations,
                             derivation_membership)

LEVELS = (-1, 0, 1)


def _same(new, old, *args):
    """Both raise the same ValueError, or both give the same report JSON."""
    try:
        want = old(*args).to_json()
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            new(*args)
        return
    assert new(*args).to_json() == want


def _maps(d):
    """Candidate maps: identity, zero, two diagonals and a dense one."""
    return [Matrix.identity(d), Matrix.zero(d, d),
            Matrix.diagonal([i + 1 for i in range(d)]),
            Matrix.diagonal([1] * (d - 1) + [-1]),
            Matrix(d, d, [(3 * i + 5 * j) % 4 - 1 for i in range(d) for j in range(d)])]


def _space_elements(a, limit):
    out = list(compute_centroid(a, 0).basis[:limit])
    try:
        out += compute_derivations(a, 0).basis[:limit]
    except ValueError:       # distinct twists: no derivation space
        pass
    return out


def _compare_nambu(a, maps, levels=LEVELS):
    _same(check_skew_symmetry, oracle.skew_symmetry, a)
    _same(check_multiplicativity, oracle.multiplicativity, a)
    for f in maps:
        _same(check_morphism, oracle.morphism, a, a, f)
        for k in levels:
            _same(centroid_membership, oracle.centroid_membership, a, f, k)
            _same(derivation_membership, oracle.derivation_membership, a, f, k)
    if a.arity == 2:
        l = HomLeibnizAlgebra(a.dim, a.bracket, a.twists[0])
        _same(check_hom_leibniz, oracle.hom_leibniz, l)


def _compare_assoc(h, maps):
    _same(check_total_hom_associativity, oracle.total_hom_associativity, h)
    for f in maps:
        for k in LEVELS:
            _same(assoc_centroid_membership, oracle.assoc_centroid_membership, h, f, k)


def _algebra(obj):
    return getattr(obj, "algebra", obj)     # quadratic wrappers hold an algebra


@pytest.mark.parametrize("name", corpus.corpus_names())
def test_corpus_matches_oracle(name):
    a = _algebra(corpus.load(name))
    if isinstance(a, HomAssocNAry):
        _compare_assoc(a, _maps(a.dim))
    else:
        _compare_nambu(a, _maps(a.dim) + _space_elements(a, 3))


@pytest.mark.parametrize("d", (4, 5, 6))
def test_filippov_matches_oracle(d):
    a = filippov(d)
    _compare_nambu(a, _maps(d)[2:] + _space_elements(a, 1), levels=(0,))


@pytest.fixture(scope="module")
def constructed(ex1, s4, sl2):
    return {
        "raise": raise_arity(ex1, 1).algebra,
        "leibniz": induced_hom_leibniz(s4.algebra),
        "tstar": tstar_extension(s4.algebra, BilinearForm.standard(4)).algebra,
        "faulkner-ternary": faulkner_ternary(sl2).algebra,
        "faulkner-leibniz": tensor_leibniz(sl2),
    }


@pytest.mark.parametrize("name", ("raise", "leibniz", "tstar", "faulkner-ternary",
                                  "faulkner-leibniz"))
def test_construction_outputs_match_oracle(constructed, name):
    x = constructed[name]
    if isinstance(x, HomLeibnizAlgebra):
        x = x.as_nambu()        # the arity-2 view also runs the Leibniz check
    _compare_nambu(x, _maps(x.dim)[2:], levels=(0, 1))


def test_rectangular_morphism_matches_oracle(s4, sum5):
    f = Matrix(5, 4, [1 if i == j else 0 for i in range(5) for j in range(4)])
    for g in (f, f.scale(2), f.scale(-1)):
        _same(check_morphism, oracle.morphism, s4.algebra, sum5, g)


def test_budgets_match_oracle(s4, dualnum):
    a = s4.algebra
    for new, old, obj, need in (
            (check_skew_symmetry, oracle.skew_symmetry, a, 64),
            (check_multiplicativity, oracle.multiplicativity, a, 64),
            (check_hom_leibniz, oracle.hom_leibniz,
             HomLeibnizAlgebra(3, corpus.load("sl2").algebra.bracket, Matrix.identity(3)), 27),
            (check_total_hom_associativity, oracle.total_hom_associativity,
             dualnum, 8 + 32)):
        for check in (new, old):
            with pytest.raises(TupleBudgetExceeded):
                check(obj, need - 1)
        _same(new, old, obj, need)


# ------------------------------------------------- single-entry perturbations

BASES = {name: _algebra(corpus.load(name))
         for name in ("simple3lie4", "sl2", "heisenberg3", "example1", "example2")}
BASES["A4"] = filippov(4)

small = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def _perturb(bracket, t, delta, skew):
    """The bracket with delta added at tuple t: in increasing-tuple storage
    when asked and t has distinct indices, else in dense storage (where t may
    repeat an index)."""
    if skew and bracket.skew_storage and len(set(t)) == len(t):
        key = tuple(sorted(t))
        coeffs = dict(bracket.coeffs)
        coeffs[key] = coeffs.get(key, Vector.zero(bracket.vdim)) + delta
        return BracketTensor(bracket.dim, bracket.arity, coeffs, skew_storage=True)
    coeffs = dict(bracket.dense_items())
    coeffs[t] = coeffs.get(t, Vector.zero(bracket.vdim)) + delta
    return BracketTensor(bracket.dim, bracket.arity, coeffs)


@st.composite
def perturbed(draw, bases):
    base = bases[draw(st.sampled_from(sorted(bases)))]
    d, n = base.dim, base.arity
    t = tuple(draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n)))
    delta = Vector(draw(st.lists(small, min_size=d, max_size=d)
                        .filter(lambda xs: any(xs))))
    skew = draw(st.booleans())
    f = Matrix(d, d, draw(st.lists(st.sampled_from([F(-1), F(0), F(0), F(1), F(2)]),
                                   min_size=d * d, max_size=d * d)))
    mu = _perturb(base.mu if isinstance(base, HomAssocNAry) else base.bracket, t, delta, skew)
    return base, mu, f


@settings(max_examples=120, deadline=None)
@given(perturbed(BASES))
def test_perturbed_brackets_match_oracle(case):
    base, bracket, f = case
    a = HomNambuAlgebra(base.dim, base.arity, bracket, base.twists)
    _compare_nambu(a, [Matrix.identity(a.dim), Matrix.diagonal(range(1, a.dim + 1)), f])


@settings(max_examples=40, deadline=None)
@given(perturbed({"dualnumbers3": corpus.load("dualnumbers3")}))
def test_perturbed_products_match_oracle(case):
    base, mu, f = case
    h = HomAssocNAry(base.dim, base.arity, mu, base.twists)
    _compare_assoc(h, [Matrix.identity(h.dim), f])
