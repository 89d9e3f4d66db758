"""``BracketTensor.substitute`` against its definition, ``compose`` against
one oracle substitution per slot and the old dense slot-map loop, and every
site built on them (``eval``, ``adjoint_operator``, ``inner_derivation``, the
``raise_arity`` and ``reduce_arity`` builders) against the tuple-by-tuple
loops in ``oracle_substitute``."""

import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_substitute as oracle
from conftest import coef, filippov, matrix, tensors
from nambucat import (BilinearForm, BracketTensor, ConstructionError,
                      Matrix, QuadraticStructure, Vector,
                      corpus, fileio, raise_arity, reduce_arity,
                      twist_by_morphism)
from nambucat.algebra import adjoint_operator, all_tuples
from nambucat.spaces import inner_derivation


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
        assert out == oracle.substitute(outer, slot, inner)


def test_substitute_rejects_bad_shapes(s4):
    C = s4.algebra.bracket
    with pytest.raises(ValueError, match="no slot 3"):
        C.substitute(3, C)
    with pytest.raises(ValueError, match="dimension mismatch"):
        C.substitute(0, BracketTensor.constant(Vector.zero(3)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        C.substitute(0, BracketTensor.zero(3, 2, vdim=4))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_compose_matches_sequential_oracle(data):
    """Each slot gets None, a random tensor of arity 0-3 or a random map; the
    maps are rectangular (d x d') about half the time, and then every other
    slot gets a constant.  The oracle substitutes the tensors one slot at a
    time and then applies the maps, one slot at a time."""
    d = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 3))
    vdim = data.draw(st.sampled_from((d, d + 1, 1)))
    outer = data.draw(tensors(d, n, vdim))
    width = data.draw(st.sampled_from((d, d % 3 + 1)))
    budget = 5 - n          # at most 5 result slots
    inners, substituted, maps = [], [], []
    for _ in range(n):
        kind = data.draw(st.sampled_from(("none", "tensor", "map") if width == d
                                         else ("tensor", "map")))
        if kind == "map":
            m = matrix(data.draw, d, width)
            inners.append(BracketTensor.linear(m))
            substituted.append(None)
            maps.append(m)
            continue
        arity = data.draw(st.integers(0, min(3, budget + 1))) if width == d else 0
        budget -= max(arity - 1, 0)
        inner = None if kind == "none" else data.draw(tensors(d, arity, d))
        inners.append(inner)
        substituted.append(inner)
        maps += [None] * (1 if inner is None else inner.arity)
    out = outer.compose(inners)
    want = oracle.compose(outer, substituted, maps if maps else None)
    assert (out.dim, out.arity, out.vdim) == (want.dim if maps else d, want.arity, vdim)
    assert not out.skew_storage
    assert all(not v.is_zero() for v in out.coeffs.values())
    assert out == want


@pytest.mark.parametrize("name", ["example1", "example2", "simple3lie4", "sl2", "A4"])
def test_compose_matches_sequential_oracle_on_brackets(name):
    """The bracket in its own first slot, a dense map in the second and a
    constant in any other: many partial entries land on one key."""
    C = ALGEBRAS[name].bracket
    n, d = C.arity, C.dim
    p = Matrix(d, d, [(i * d + j) % 3 - 1 for i in range(d) for j in range(d)])
    const = BracketTensor.constant(Vector(range(1, d + 1)))
    out = C.compose([C, BracketTensor.linear(p)] + [const] * (n - 2))
    want = oracle.compose(C, [C, None] + [const] * (n - 2), [None] * n + [p])
    assert out == want and out.coeffs


def test_compose_sums_and_drops_cancelling_entries():
    # A(e_0) = 1 and A(e_1) = -1, under a map whose columns are (1, 1),
    # (1, 0) and (1, -1): the first cancels, the last sums to 2
    outer = BracketTensor(2, 1, {(0,): Vector([1]), (1,): Vector([-1])}, vdim=1)
    out = outer.compose([BracketTensor.linear(Matrix(2, 3, [1, 1, 1, 1, 0, -1]))])
    assert (out.dim, out.arity, out.vdim) == (3, 1, 1)
    assert out.coeffs == {(1,): Vector([1]), (2,): Vector([2])}


def test_compose_and_transform_without_inners(s4):
    v = Vector([1, F(1, 2)])
    t = BracketTensor(2, 2, {(0, 1): v})
    assert t.compose([None, None]) == t
    # transform builds no new entries when no slot is mapped
    assert t.transform([None, Matrix.identity(2)]).coeffs[(0, 1)] is v
    C = s4.algebra.bracket
    out = C.compose([None] * 3)
    assert out == C and not out.skew_storage


def test_compose_rejects_bad_shapes(s4):
    C = s4.algebra.bracket
    with pytest.raises(ValueError, match="arity mismatch"):
        C.compose([None, None])
    with pytest.raises(ValueError, match="dimension mismatch"):
        C.compose([None, None, BracketTensor.zero(4, 1, vdim=3)])
    with pytest.raises(ValueError, match="dimension mismatch"):
        C.compose([BracketTensor.linear(Matrix.zero(4, 3)), None, None])


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
