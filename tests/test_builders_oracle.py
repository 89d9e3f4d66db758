"""The representation layer and the construction brackets built on tensor
kernels, against the loops they replaced (``oracle_representations`` and
``oracle_constructions``): every report must have the same JSON (verdict,
first counterexample, detail and tuples_checked) and every built tensor must
be the same tensor."""

import itertools
import re
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_constructions as oc
import oracle_representations as orr
from conftest import filippov, tensors
from nambucat import (BilinearForm, BracketTensor, HomAssocNAry, HomLeibnizAlgebra,
                      HomNambuAlgebra, Matrix, QuadraticStructure, Vector, corpus)
from nambucat.checks import _matrix_product, check_representation
from nambucat.constructions import (induced_hom_leibniz, tensor_product,
                                    trace_induced_ternary, tstar_extension)
from nambucat.representations import adjoint_rep, coadjoint_rep, rep_isomorphism_psi

NAMBU = [n for n in corpus.corpus_names()
         if isinstance(getattr(corpus.load(n), "algebra", corpus.load(n)), HomNambuAlgebra)]


def _same(new, old, *args):
    """Both raise the same ValueError, or both give the same report JSON; a
    (matrix, report) pair must agree in both parts."""
    try:
        want = old(*args)
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            new(*args)
        return None
    got = new(*args)
    if isinstance(want, tuple):
        assert got[0] == want[0]
        got, want = got[1], want[1]
    assert got.to_json() == want.to_json()
    return got


def _same_rep(new, old):
    assert new.rho == old.rho and new.rho.coeffs == old.rho.coeffs
    assert (new.source_dim, new.arity, new.target_dim, new.nu) == \
        (old.source_dim, old.arity, old.target_dim, old.nu)


def _structure(name):
    """(algebra, quadratic structure): the file's form, else the standard one."""
    if name.startswith("A"):
        a = filippov(int(name[1:]))
        return a, QuadraticStructure(a, BilinearForm.standard(a.dim))
    obj = corpus.load(name)
    if isinstance(obj, QuadraticStructure):
        return obj.algebra, obj
    a = getattr(obj, "algebra", obj)
    return a, QuadraticStructure(a, getattr(obj, "form", None) or BilinearForm.standard(a.dim))


def _compare_representations(a, q):
    """Adjoint and coadjoint tensors, the intertwiner, and both modes of the
    identity on both representations, where the loop is affordable: it takes
    2 s per call on zero4's 4^6 pairs and 14 s on A5's 5^8."""
    adj = adjoint_rep(a)
    _same_rep(adj, orr.adjoint_rep(a))
    _same(rep_isomorphism_psi, orr.rep_isomorphism_psi, q)
    if a.dim ** (2 * a.arity - 2) > 1024:
        return False
    co, condition = coadjoint_rep(a)
    co_old, condition_old = orr.coadjoint_rep(a)
    _same_rep(co, co_old)
    assert condition.to_json() == condition_old.to_json()
    for mode in ("primal", "dual"):
        for rep in (adj, co):
            _same(check_representation, orr.check_representation, a, rep, mode)
    return True


@pytest.mark.parametrize("name", NAMBU + ["A4", "A5", "A6"])
def test_representations_match_oracle(name):
    """Past the loop's reach, zero4 and A5 still pass both modes, as theory
    says they must; on A6 the new check itself takes half a minute a mode
    (720^2 operator products), so there only the tensors and the intertwiner
    are compared."""
    a, q = _structure(name)
    if not _compare_representations(a, q) and a.dim < 6:
        _, condition = coadjoint_rep(a)
        assert condition.passed and check_representation(a, adjoint_rep(a)).passed


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_matrix_product_matches_dense_operator_product(data):
    """The operator product as the matrix-product tensor composed with two
    operator tensors, against one dense ``Matrix`` product per pair."""
    d, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    A, B = (data.draw(tensors(d, data.draw(st.integers(1, 2)), m * m)) for _ in range(2))
    assert _matrix_product(m).compose([A, B]) == orr.operator_product(A, B, m)


def test_representation_counts_and_failures_carry_over(ex2):
    """example2's dual condition fails at its 15th pair, as the loop counts."""
    _, condition = coadjoint_rep(ex2.algebra)
    assert not condition.passed and condition.tuples_checked == 15
    assert condition.to_json() == orr.coadjoint_rep(ex2.algebra)[1].to_json()


# ------------------------------------------------------------ construction brackets

SIGN = {4: Matrix.diagonal([1, 1, -1, -1]), 5: Matrix.diagonal([1, 1, 1, -1, -1])}
TSTAR = [n for n in NAMBU if _structure(n)[0].skew
         and all(t == Matrix.identity(t.rows) for t in _structure(n)[0].twists)]


@pytest.mark.parametrize("name", TSTAR + ["A4", "A5", "A6"])
def test_tstar_matches_oracle(name):
    """The bracket does not depend on the form; the zero form is invariant
    for every bracket, so every skew input passes the hypothesis check."""
    a, _ = _structure(name)
    form = BilinearForm(a.dim, Matrix.zero(a.dim, a.dim))
    old = oc.tstar_bracket(a)
    assert tstar_extension(a, form, verify=False).algebra.bracket == old
    if a.dim in SIGN:
        omega = SIGN[a.dim]
        out = tstar_extension(a, form, omega=omega, verify=False)
        assert out.algebra.bracket == old.transform([None] * a.arity, out_map=out.beta)


@pytest.mark.parametrize("name", [n for n in NAMBU if _structure(n)[0].multiplicative]
                         + ["A4"])
def test_induced_leibniz_matches_oracle(name):
    """The loop takes 42 s on A5's 125^2 pairs, so Filippov stops at A4."""
    a, _ = _structure(name)
    new = induced_hom_leibniz(a, verify=False).bracket
    old = oc.induced_leibniz_bracket(a)
    assert new == old and new.coeffs == old.coeffs
    assert new.coeffs == oc.induced_leibniz_entries(a).coeffs


def test_induced_leibniz_matches_entry_loop_on_a5():
    """Past the per-tuple loop's reach, against the entry loop it replaced:
    the 125-dim bracket of A5."""
    a, _ = _structure("A5")
    assert induced_hom_leibniz(a, verify=False).bracket.coeffs == \
        oc.induced_leibniz_entries(a).coeffs


ASSOC = corpus.load("dualnumbers3")


@pytest.mark.parametrize("name", [n for n in NAMBU if _structure(n)[0].arity == 3])
def test_tensor_product_matches_oracle(name):
    a, _ = _structure(name)
    new = tensor_product(ASSOC, a, verify=False).bracket
    assert new == oc.tensor_product_bracket(ASSOC, a)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_tensor_product_matches_oracle_on_random_factors(data):
    """Random products and brackets, skew or dense, arity 2 or 3."""
    n, dh, dn = (data.draw(st.integers(lo, hi)) for lo, hi in ((2, 3), (1, 2), (1, 3)))
    h = HomAssocNAry(dh, n, data.draw(tensors(dh, n, dh)), (Matrix.identity(dh),) * (n - 1))
    a = HomNambuAlgebra(dn, n, data.draw(tensors(dn, n, dn)), (Matrix.identity(dn),) * (n - 1))
    new = tensor_product(h, a, verify=False).bracket
    assert new == oc.tensor_product_bracket(h, a)


TAUS = [[1, 0, 0], [0, F(1, 2), -2], [1, 1, 1]]


@pytest.mark.parametrize("name", [n for n in NAMBU if _structure(n)[0].arity == 2])
def test_trace_ternary_matches_oracle(name):
    a, _ = _structure(name)
    l = HomLeibnizAlgebra(a.dim, a.bracket, a.twists[0])
    for tau in TAUS:
        tau = Vector((tau * a.dim)[:a.dim])
        new = trace_induced_ternary(l, l.twist, tau, verify=False).bracket
        assert new == oc.trace_ternary_bracket(l, tau)


# ------------------------------------------------------- single-entry perturbations

REP_BASES = {name: _structure(name)
             for name in ("simple3lie4", "sl2", "heisenberg3", "example1", "example2")}
REP_BASES["A4"] = _structure("A4")
small = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def _plus(tensor, t, delta):
    """The tensor in dense storage with delta added at t."""
    coeffs = dict(tensor.dense_items())
    coeffs[t] = coeffs.get(t, Vector.zero(tensor.vdim)) + delta
    return BracketTensor(tensor.dim, tensor.arity, coeffs, vdim=tensor.vdim)


@st.composite
def perturbed(draw):
    a, q = REP_BASES[draw(st.sampled_from(sorted(REP_BASES)))]
    d, n = a.dim, a.arity
    t = tuple(draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n)))
    delta = Vector(draw(st.lists(small, min_size=d, max_size=d).filter(any)))
    b = replace(a, bracket=_plus(a.bracket, t, delta))
    return a, b, replace(q, algebra=b)


@settings(max_examples=40, deadline=None)
@given(perturbed())
def test_perturbed_representations_match_oracle(case):
    """One bracket entry changed: the algebra's own representations, and the
    unchanged algebra's identity on the changed adjoint action."""
    a, b, q = case
    _compare_representations(b, q)
    for mode in ("primal", "dual"):
        _same(check_representation, orr.check_representation, a, adjoint_rep(b), mode)


@settings(max_examples=30, deadline=None)
@given(perturbed())
def test_perturbed_induced_leibniz_matches_oracle(case):
    _, b, _ = case
    m = replace(b, multiplicative=True, twists=(b.twists[0],) * (b.arity - 1))
    new = induced_hom_leibniz(m, verify=False).bracket
    assert new == oc.induced_leibniz_bracket(m)
    assert new.coeffs == oc.induced_leibniz_entries(m).coeffs


SKEW_BASES = ("simple3lie4", "sl2", "heisenberg3", "A4")


@st.composite
def perturbed_skew(draw):
    """A skew base with identity twists and delta added to one stored entry."""
    a = REP_BASES[draw(st.sampled_from(SKEW_BASES))][0]
    d, n = a.dim, a.arity
    t = tuple(sorted(draw(st.sets(st.integers(0, d - 1), min_size=n, max_size=n))))
    delta = Vector(draw(st.lists(small, min_size=d, max_size=d).filter(any)))
    coeffs = dict(a.bracket.skew_canonical().coeffs)
    coeffs[t] = coeffs.get(t, Vector.zero(d)) + delta
    return HomNambuAlgebra(d, n, BracketTensor(d, n, coeffs, skew_storage=True),
                           (Matrix.identity(d),) * (n - 1), multiplicative=True)


@settings(max_examples=40, deadline=None)
@given(perturbed_skew())
def test_perturbed_skew_builders_match_oracle(a):
    """The T*-bracket (the zero form is invariant for any bracket, so the
    input check passes) and, for binary brackets, the trace-induced ternary
    bracket."""
    d = a.dim
    zero_form = BilinearForm(d, Matrix.zero(d, d))
    assert tstar_extension(a, zero_form, verify=False).algebra.bracket == oc.tstar_bracket(a)
    if a.arity == 2:
        l = HomLeibnizAlgebra(d, a.bracket, a.twists[0])
        tau = Vector(range(1, d + 1))
        assert trace_induced_ternary(l, l.twist, tau, verify=False).bracket == \
            oc.trace_ternary_bracket(l, tau)


def test_perturbations_fail_at_inner_tuples():
    """Adding a basis vector to one entry of A4 or example1 fails the
    representation identity and the intertwiner at pairs past the first and
    short of the last; every report matches."""
    inner = set()
    for name in ("A4", "example1"):
        a, q = _structure(name)
        d, n = a.dim, a.arity
        for t in itertools.combinations(range(d), n):
            for k in range(d):
                b = replace(a, bracket=_plus(a.bracket, t, Vector.basis(d, k)))
                for mode in ("primal", "dual"):
                    r = _same(check_representation, orr.check_representation,
                              b, adjoint_rep(b), mode)
                    if 1 < r.tuples_checked < d ** (2 * n - 2):
                        inner.add((name, mode))
                r = _same(rep_isomorphism_psi, orr.rep_isomorphism_psi,
                          replace(q, algebra=b))
                if 1 < r.tuples_checked < d ** (n - 1):
                    inner.add((name, "psi"))
    assert inner == {(name, what) for name in ("A4", "example1")
                     for what in ("primal", "dual", "psi")}
