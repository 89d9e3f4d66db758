"""Every pointwise check is one comparison of two tensors: ``checks._compare``
on tensors only, the transposition check through ``permute`` and
``combine``, the map checks through ``checks._intertwines``, and
``free_slot_items`` on dense storage as the one reader of ``_assemble``.
Each is compared with the code it replaced, kept in ``oracle_compare``, on
random dense and skew tensors, output dimension other than the argument
dimension among them."""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_compare as oracle
import oracle_skew
from conftest import coef, matrix, slot_maps, tensors
from nambucat import (BracketTensor, HomAssocNAry, HomNambuAlgebra, Matrix, Vector,
                      check_morphism, check_multiplicativity)
from nambucat.algebra import perm_sign
from nambucat.checks import _compare, _compare_transpositions, _intertwines
from nambucat.spaces import (_assemble, assoc_centroid_membership,
                             centroid_membership)


def _same(new, old, *args):
    """Both raise the same ValueError, or both give the same report JSON."""
    try:
        want = old(*args).to_json()
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            new(*args)
        return
    assert new(*args).to_json() == want


def _dense(t: BracketTensor) -> BracketTensor:
    return BracketTensor(t.dim, t.arity, dict(t.dense_items()), vdim=t.vdim)


@st.composite
def shapes(draw, least_arity=1):
    d = draw(st.integers(2, 4))
    return d, draw(st.integers(least_arity, 3)), draw(st.integers(1, 4))


@st.composite
def square_maps(draw, d):
    """None, the identity, zero, or an invertible or singular d x d map."""
    kind = draw(st.sampled_from(("none", "zero", "identity", "invertible", "singular")))
    if kind == "none":
        return None
    return Matrix.zero(d, d) if kind == "zero" else draw(slot_maps(d, kind))


@st.composite
def partners(draw, left: BracketTensor):
    """A tensor of the shape of ``left``: random, its dense twin, a dense
    copy with one entry changed, or an equal copy."""
    d, n, vdim = left.dim, left.arity, left.vdim
    how = draw(st.sampled_from(("random", "twin", "perturbed", "equal")))
    if how == "random":
        return draw(tensors(d, n, vdim))
    if how == "twin":
        return _dense(left)
    if how == "perturbed":
        items = dict(_dense(left).coeffs)
        key = draw(st.sampled_from(list(itertools.product(range(d), repeat=n))))
        change = Vector(draw(st.lists(coef, min_size=vdim, max_size=vdim)))
        items[key] = items.get(key, Vector.zero(vdim)) + change
        return BracketTensor(d, n, items, vdim=vdim)
    return BracketTensor(d, n, dict(left.coeffs), skew_storage=left.skew_storage, vdim=vdim)


@settings(max_examples=200, deadline=None)
@given(shapes(), st.data())
def test_compare_matches_dict_oracle(shape, data):
    """Two tensors, in either storage, give the report of the comparison
    that read them as dicts."""
    d, n, vdim = shape
    left = data.draw(tensors(d, n, vdim))
    right = data.draw(partners(left))
    if data.draw(st.booleans()):
        left, right = right, left
    detail = data.draw(st.sampled_from((None, "sides differ")))
    new = _compare("pointwise", d, n, left, right, detail)
    assert new.to_json() == oracle.compare("pointwise", d, n, left, right, detail).to_json()
    assert new.to_json() == oracle.compare("pointwise", d, n, dict(left.dense_items()),
                                           dict(right.dense_items()), detail).to_json()


@settings(max_examples=200, deadline=None)
@given(shapes(least_arity=2), st.data())
def test_transpositions_match_hand_built_swap(shape, data):
    """The tensor against its signed slot swaps, built by ``permute`` and
    ``combine``, gives the report of the hand-built swapped dicts, on random
    tensors and on (perturbed) symmetrized and alternated ones."""
    d, n, vdim = shape
    sign = data.draw(st.sampled_from((1, -1)))
    tensor = data.draw(tensors(d, n, vdim))
    if data.draw(st.booleans()):
        tensor = BracketTensor.combine(
            [(perm_sign(p) if sign < 0 else 1, tensor.permute(p))
             for p in itertools.permutations(range(n))])
        if data.draw(st.booleans()):
            tensor = data.draw(partners(tensor))
    detail = data.draw(st.sampled_from((None, "product not symmetric")))
    _same(_compare_transpositions, oracle.transpositions, "transpositions", tensor, sign,
          detail)


@st.composite
def algebras(draw, d, n):
    """A bracket in either storage with one twist (identity, invertible or
    singular) in every slot, or two distinct twists."""
    bracket = draw(tensors(d, n, d))
    if n > 2 and draw(st.booleans()):
        twists = tuple(draw(slot_maps(d, "invertible")) for _ in range(n - 1))
    else:
        kind = draw(st.sampled_from(("identity", "invertible", "singular")))
        twists = (draw(slot_maps(d, kind)),) * (n - 1)
    return HomNambuAlgebra(d, n, bracket, twists)


@settings(max_examples=150, deadline=None)
@given(shapes(least_arity=2), st.data())
def test_map_checks_match_their_three_copies(shape, data):
    """Multiplicativity, morphisms (between dimensions too) and centroid
    membership, of n-ary and associative algebras, reach ``_compare``
    through ``_intertwines`` and give the reports of the comparisons each
    check made itself."""
    d, n, _ = shape
    a = data.draw(algebras(d, n))
    _same(check_multiplicativity, oracle.multiplicativity, a)
    f = data.draw(square_maps(d)) or Matrix.identity(d)
    _same(check_morphism, oracle.morphism, a, a, f)
    d2 = data.draw(st.integers(1, 4))
    ident = (Matrix.identity(d),) * (n - 1)
    src = HomNambuAlgebra(d, n, a.bracket, ident)
    dst = HomNambuAlgebra(d2, n, data.draw(tensors(d2, n, d2)),
                          (Matrix.identity(d2),) * (n - 1))
    _same(check_morphism, oracle.morphism, src, dst, matrix(data.draw, d2, d))
    h = HomAssocNAry(d, n, a.bracket, a.twists)
    for k in (-1, 0, 1):
        _same(centroid_membership, oracle.centroid_membership, a, f, k)
        _same(assoc_centroid_membership, oracle.assoc_centroid_membership, h, f, k)


@settings(max_examples=150, deadline=None)
@given(shapes(), st.data())
def test_intertwines_matches_the_dict_comparison(shape, data):
    """f after C against D (C unless given) with maps in its slots, for any
    output dimensions and for maps from another dimension, gives the report
    of the old comparison of the two transforms."""
    d, n, vdim = shape
    C = data.draw(tensors(d, n, vdim))
    if data.draw(st.booleans()):
        D, rows = None, vdim
        maps = [data.draw(square_maps(d)) for _ in range(n)]
    else:
        d2, rows = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        D = data.draw(tensors(d2, n, rows))
        maps = [matrix(data.draw, d2, d) for _ in range(n)]
    f = matrix(data.draw, rows, vdim)
    want = oracle.compare("intertwines", d, n, C.transform([None] * n, out_map=f),
                          (C if D is None else D).transform(maps))
    assert _intertwines("intertwines", C, f, maps, D).to_json() == want.to_json()


@settings(max_examples=150, deadline=None)
@given(shapes(), st.data())
def test_free_slot_items_on_dense_storage_are_the_transform_entries(shape, data):
    """On dense storage the free-slot reader gives every entry of the tensor
    with the map in each slot but the free one, sorted: the entries of the
    dense oracle transform; a rectangular map is refused as on skew storage."""
    d, n, vdim = shape
    C = _dense(data.draw(tensors(d, n, vdim)))
    slot = data.draw(st.integers(0, n - 1))
    m = data.draw(square_maps(d))
    got = C.free_slot_items(slot, m)
    want = oracle_skew.transform(C, [None if k == slot else m for k in range(n)])
    assert got == sorted(want.coeffs.items())
    with pytest.raises(ValueError, match="slot map has wrong shape"):
        C.free_slot_items(slot, Matrix.zero(d, d + 1))


@settings(max_examples=150, deadline=None)
@given(shapes(), st.data())
def test_assemble_matches_its_dense_reader(shape, data):
    """The centroid-, derivation-, center- and twist-shaped systems, on
    brackets in either storage with any map in the other slots, are the rows
    the assembly gave with its own reader of dense storage."""
    d, n, vdim = shape
    kind = data.draw(st.sampled_from(("centroid", "derivations", "center", "unary")))
    if kind == "unary":
        C = BracketTensor.linear(data.draw(square_maps(d)) or Matrix.identity(d))
        args = (d, d, C, [(0, C, None)])
    elif kind == "center":
        C = data.draw(tensors(d, n, vdim))
        args = (d, 1, None, [(0, C, None)])
    else:
        C = data.draw(tensors(d, n, d))
        pw = data.draw(square_maps(d))
        slots = [0] if kind == "centroid" else range(n)
        args = (d, d, C, [(i, C, pw) for i in slots])
    assert _assemble(*args) == oracle.assemble(*args)
