"""``BracketTensor.substitute`` against its definition, and every site built
on it (``eval``, ``adjoint_operator``, ``inner_derivation``, the
``raise_arity`` and ``reduce_arity`` builders) against the tuple-by-tuple
loops in ``oracle_substitute``."""

import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_substitute as oracle
from conftest import filippov
from nambucat import (BilinearForm, BracketTensor, ConstructionError,
                      Matrix, QuadraticStructure, Vector,
                      corpus, fileio, raise_arity, reduce_arity,
                      twist_by_morphism)
from nambucat.algebra import adjoint_operator, all_tuples, increasing_tuples
from nambucat.spaces import inner_derivation

coef = st.one_of(st.just(F(0)), st.just(F(0)),
                 st.fractions(min_value=-3, max_value=3, max_denominator=3))


@st.composite
def tensors(draw, dim, arity, vdim):
    """A random tensor, in skew storage about half the time."""
    skew = arity > 0 and draw(st.booleans())
    keys = increasing_tuples(dim, arity) if skew else all_tuples(dim, arity)
    coeffs = {t: Vector(draw(st.lists(coef, min_size=vdim, max_size=vdim)))
              for t in keys if draw(st.booleans())}
    return BracketTensor(dim, arity, coeffs, skew_storage=skew, vdim=vdim)


def _by_definition(outer, slot, inner, key):
    """outer(a_0..a_{slot-1}, inner(b), a_{slot+1}..) on one basis tuple."""
    m = inner.arity
    head, b, tail = key[:slot], key[slot:slot + m], key[slot + m:]
    acc = Vector.zero(outer.vdim)
    for j, c in enumerate(inner.value(b).entries):
        if c:
            acc = acc + outer.value(head + (j,) + tail).scale(c)
    return acc


@pytest.mark.parametrize("m", (0, 1, 2, 3))
@pytest.mark.parametrize("n", (1, 2, 3))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_substitute_matches_definition(n, m, data):
    d = data.draw(st.integers(1, 3))
    vdim = data.draw(st.sampled_from((d, d + 1, 1)))     # operator-valued when != d
    outer = data.draw(tensors(d, n, vdim))
    inner = data.draw(tensors(d, m, d))
    for slot in range(n):
        out = outer.substitute(slot, inner)
        assert (out.dim, out.arity, out.vdim) == (d, n + m - 1, vdim)
        assert not out.skew_storage
        assert all(not v.is_zero() for v in out.coeffs.values())
        for key in all_tuples(d, n + m - 1):
            assert out.value(key) == _by_definition(outer, slot, inner, key)


def test_substitute_rejects_bad_shapes(s4):
    C = s4.algebra.bracket
    with pytest.raises(ValueError, match="no slot 3"):
        C.substitute(3, C)
    with pytest.raises(ValueError, match="dimension mismatch"):
        C.substitute(0, BracketTensor.constant(Vector.zero(3)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        C.substitute(0, BracketTensor.zero(3, 2, vdim=4))


def test_eval_errors_unchanged(s4):
    C = s4.algebra.bracket
    for args in ([Vector.zero(4)] * 2, [Vector.zero(4)] * 2 + [Vector.zero(3)]):
        with pytest.raises(ValueError) as new:
            C.eval(args)
        with pytest.raises(ValueError) as old:
            oracle.eval(C, args)
        assert str(new.value) == str(old.value)


# ------------------------------------------------------------ differential

def _algebra(obj):
    return getattr(obj, "algebra", obj)     # quadratic wrappers hold an algebra


ALGEBRAS = {name: _algebra(corpus.load(name))
            for name in ("example1", "example2", "heisenberg3", "simple3lie4", "sl2",
                         "zero3")}
ALGEBRAS["A4"], ALGEBRAS["A5"] = filippov(4), filippov(5)


def _vector(data, d):
    return Vector(data.draw(st.lists(coef, min_size=d, max_size=d)))


def _same_or_same_error(new, old, *args):
    try:
        want = old(*args)
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            new(*args)
        return None
    got = new(*args)
    assert got == want
    return got


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(ALGEBRAS)), st.integers(0, 2), st.data())
def test_eval_adjoint_inner_derivation_match_oracle(name, k, data):
    a = ALGEBRAS[name]
    args = [_vector(data, a.dim) for _ in range(a.arity)]
    assert a.bracket.eval(args) == oracle.eval(a.bracket, args)
    x = args[:-1]
    assert adjoint_operator(a, x) == oracle.adjoint_operator(a, x)
    _same_or_same_error(inner_derivation, oracle.inner_derivation, a, x, k)


def test_inner_derivation_nonzero_cases_match_oracle(s4, ex1):
    # identity twists fix every argument; example1's twist fixes e_1, e_2
    for a, x in ((s4.algebra, [Vector.basis(4, 0), Vector([1, F(1, 2), 0, -3])]),
                 (ex1.algebra, [Vector.basis(3, 0), Vector([2, -1, 0])])):
        for k in (0, 1):
            m = _same_or_same_error(inner_derivation, oracle.inner_derivation, a, x, k)
            assert m is not None and not m.is_zero()


def _quadratic(name):
    obj = corpus.load(name) if name in corpus.corpus_names() else ALGEBRAS[name]
    if isinstance(obj, QuadraticStructure):
        return obj
    return QuadraticStructure(obj, BilinearForm.standard(obj.dim))


@pytest.mark.parametrize("name,k", [("example1", 1), ("example1", 2), ("simple3lie4", 1),
                                    ("A4", 1), ("zero3", 2)])
def test_raise_matches_oracle(name, k):
    q = _quadratic(name)
    out = raise_arity(q, k, verify=(name, k) == ("example1", 1))
    want = oracle.raised_bracket(q.algebra, k)
    assert out.algebra.arity == want.arity
    assert out.algebra.bracket == want


def _same_reduction(q, fixed, verify=True):
    try:
        want = fileio.dumps(oracle.reduce_arity(q, fixed, verify))
    except ConstructionError as e:
        with pytest.raises(ConstructionError) as got:
            reduce_arity(q, fixed, verify)
        assert str(got.value) == str(e)
        return str(e)
    assert fileio.dumps(reduce_arity(q, fixed, verify)) == want
    return None


def test_reduce_matches_oracle(s4, sum5):
    e = [Vector.basis(4, i) for i in range(4)]
    errors = []
    for fixed in ([e[0]], [e[3]], [Vector([1, 2, 0, F(-1, 2)])], [e[0], e[1]]):
        errors.append(_same_reduction(s4, fixed))
    errors.append(_same_reduction(QuadraticStructure(sum5, BilinearForm.standard(5)),
                                  [Vector.basis(5, 4)]))
    twisted = twist_by_morphism(s4.algebra, Matrix.diagonal([1, 1, -1, -1]))
    errors.append(_same_reduction(QuadraticStructure(twisted, s4.form), [e[2]]))
    ex1 = _quadratic("example1")
    for i in range(3):
        errors.append(_same_reduction(ex1, [Vector.basis(3, i)]))
    a5 = _quadratic("A5")
    errors.append(_same_reduction(a5, [Vector.basis(5, 0), Vector.basis(5, 1)],
                                  verify=False))
    errors.append(_same_reduction(a5, [Vector.basis(5, 4)], verify=False))
    # every kind of failure is exercised, and so is success
    assert None in errors
    for text in ("reduced arity must be at least 2", "does not fix",
                 "annihilation hypothesis fails for fixed vector 1 at tuple (1,)"):
        assert any(err and text in err for err in errors), text


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["example1", "simple3lie4", "zero3", "A5"]), st.data())
def test_reduce_random_fixed_vectors_match_oracle(name, data):
    q = _quadratic(name)
    d, n = q.algebra.dim, q.algebra.arity
    k = data.draw(st.integers(1, n - 2))
    fixed = [_vector(data, d) for _ in range(k)]
    _same_reduction(q, fixed, verify=name != "A5")
