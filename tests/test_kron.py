"""``BracketTensor.kron``, the sum of Kronecker products of tensors, against
a per-tuple reference: every result key is split into the factor slots it
reads, and each term adds the Kronecker product of the factors' values."""

import itertools
from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import entries, matrix
from nambucat import BracketTensor, Matrix, Vector
from nambucat.algebra import all_tuples
from nambucat.linalg import kron, kron_vec


def kron_reference(terms) -> BracketTensor:
    """The sum of the terms at every key, one basis tuple at a time."""
    factors, slots = terms[0]
    vdim = prod(t.vdim for t in factors)
    dim = prod(factors[f].dim for f, _ in slots[0]) if slots else vdim
    items = {}
    for key in all_tuples(dim, len(slots)):
        total = Vector.zero(vdim)
        for factors, slots in terms:
            args = [[0] * t.arity for t in factors]
            for p, group in enumerate(slots):
                rest = key[p]
                for f, s in reversed(group):
                    rest, args[f][s] = divmod(rest, factors[f].dim)
            value = Vector([1])
            for t, a in zip(factors, args):
                value = kron_vec(value, t.value(tuple(a)))
            total = total + value
        if not total.is_zero():
            items[key] = total
    return BracketTensor(dim, len(slots), items, vdim=vdim)


@st.composite
def factors(draw, dim, arity, vdim):
    """A tensor with one to four nonzero entries, in skew storage about half
    the time when it can have any; a product with a zero factor would hide
    the other factors."""
    skew = 0 < arity <= dim and draw(st.booleans())
    keys = list(itertools.combinations(range(dim), arity) if skew
                else itertools.product(range(dim), repeat=arity))
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=4, unique=True))
    value = st.lists(entries, min_size=vdim, max_size=vdim).filter(any)
    return BracketTensor(dim, arity, {k: Vector(draw(value)) for k in chosen},
                         skew_storage=skew, vdim=vdim)


def _negated(t: BracketTensor) -> BracketTensor:
    return BracketTensor(t.dim, t.arity, {k: -v for k, v in t.coeffs.items()},
                         skew_storage=t.skew_storage, vdim=t.vdim)


@st.composite
def kron_terms(draw):
    """Two or three terms of one shape.  One layout fixes the factors' dims,
    arities and output dims: every result slot reads one factor slot of each
    dim in ``template``, and the factor slots of one dim are dealt out to
    factors of arity 1 to 3, with at most one arity-0 factor besides.  Each
    term draws its own tensors, orders its factors, result slots and the
    pairs within each slot anew, and may be the negation of the first term,
    so that every entry of that term cancels."""
    arity = draw(st.integers(0, 3))
    template = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)
                    .filter(lambda dims: prod(dims) ** arity <= 64))
    layout = []         # (dim, vdim, [(result slot, position in it)] per factor slot)

    def vdim():
        return draw(st.integers(1, 3 if not layout else 2))

    for q, dim in enumerate(template):
        holes = draw(st.permutations([(p, q) for p in range(arity)]))
        while holes:
            k = draw(st.integers(1, min(3, len(holes))))
            layout.append((dim, vdim(), holes[:k]))
            holes = holes[k:]
    if not layout or draw(st.booleans()):
        layout.append((draw(st.integers(1, 3)), vdim(), []))
    terms = []
    for _ in range(draw(st.integers(2, 3))):
        order = draw(st.permutations(range(len(layout))))
        term = [draw(factors(layout[f][0], len(layout[f][2]), layout[f][1])) for f in order]
        groups = [[None] * len(template) for _ in range(arity)]
        for new, f in enumerate(order):
            for s, (p, q) in enumerate(layout[f][2]):
                groups[p][q] = (new, s)
        slots = [draw(st.permutations(g)) for g in draw(st.permutations(groups))]
        terms.append((term, slots))
    if draw(st.booleans()):
        term, slots = terms[0]
        terms.append(([_negated(term[0])] + term[1:], slots))
    return terms


@settings(max_examples=150, deadline=None)
@given(kron_terms())
def test_kron_matches_per_tuple_reference(terms):
    got = kron_reference(terms)
    want = BracketTensor.kron(terms)
    assert not want.skew_storage
    assert (want.dim, want.arity, want.vdim) == (got.dim, got.arity, got.vdim)
    assert want.coeffs == got.coeffs


def test_kron_orders_slots_and_outputs_and_sums_terms():
    """Fixed cases of each rule: the first pair of a slot is the most
    significant, the outputs multiply in factor order with the output
    dimension as the radix, every term counts, and entries that cancel go."""
    A = BracketTensor.linear(Matrix(2, 3, [1, 2, 0, 0, F(1, 2), -1]))     # dim 3, vdim 2
    B = BracketTensor.linear(Matrix(3, 2, [1, 0, 2, 1, 0, -3]))          # dim 2, vdim 3
    AB = BracketTensor.kron([([A, B], [[(0, 0), (1, 0)]])])
    assert (AB.dim, AB.arity, AB.vdim) == (6, 1, 6)
    # e_2 (x) e_1 is key 2 * 2 + 1; its value is A e_2 (x) B e_1
    assert AB.value((5,)) == kron_vec(A.value((2,)), B.value((1,)))
    assert AB.value((1,)) == kron_vec(A.value((0,)), B.value((1,)))
    BA = BracketTensor.kron([([A, B], [[(1, 0), (0, 0)]])])
    assert BA.value((1,)) == kron_vec(A.value((1,)), B.value((0,)))
    twice = BracketTensor.kron([([A, B], [[(0, 0), (1, 0)]])] * 2)
    assert twice == AB.transform([None], out_map=Matrix.identity(6).scale(2))
    C = BracketTensor.linear(Matrix(2, 2, [1, 1, 0, 1]))
    pair = BracketTensor.kron([([C, C], [[(0, 0)], [(1, 0)]]),
                               ([C, C], [[(1, 0)], [(0, 0)]])])
    assert pair.value((0, 1)) == Vector([2, 1, 1, 0])
    gone = BracketTensor.kron([([C, C], [[(0, 0)], [(1, 0)]]),
                               ([_negated(C), C], [[(0, 0)], [(1, 0)]])])
    assert gone.coeffs == {} and (gone.dim, gone.arity, gone.vdim) == (2, 2, 4)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kron_of_linear_maps_is_the_matrix_kron(data):
    dims = [data.draw(st.integers(1, 3)) for _ in range(4)]
    A, B = matrix(data.draw, dims[0], dims[1]), matrix(data.draw, dims[2], dims[3])
    got = BracketTensor.kron([([BracketTensor.linear(A), BracketTensor.linear(B)],
                               [[(0, 0), (1, 0)]])])
    assert got == BracketTensor.linear(kron(A, B))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kron_of_constants_is_the_vector_kron(data):
    u, v = (Vector(data.draw(st.lists(entries, min_size=1, max_size=3))) for _ in range(2))
    got = BracketTensor.kron([([BracketTensor.constant(u), BracketTensor.constant(v)], [])])
    assert got == BracketTensor.constant(kron_vec(u, v))


def test_kron_rejects_bad_terms():
    A = BracketTensor.zero(2, 2)
    B = BracketTensor.zero(3, 1)
    for slots in ([[(0, 0)], [(0, 0)]],            # slot 0 read twice, slot 1 never
                  [[(0, 0)]],                        # slot 1 never read
                  [[(0, 0), (0, 1), (0, 1)]],        # slot 1 read twice
                  [[(0, 0)], [(0, 1)], [(0, 2)]]):   # no slot 2
        with pytest.raises(ValueError, match="every factor slot once"):
            BracketTensor.kron([([A], slots)])
    with pytest.raises(ValueError, match="differ in shape"):
        BracketTensor.kron([([A, B], [[(0, 0)], [(0, 1), (1, 0)]])])      # dims 2 and 6
    one = ([A], [[(0, 0)], [(0, 1)]])
    for other in (([A], [[(0, 0), (0, 1)]]),                             # arity 1
                  ([A, BracketTensor.constant(Vector([1, 1]))],         # vdim 4
                   [[(0, 0)], [(0, 1)]]),
                  ([BracketTensor.zero(3, 2)], [[(0, 0)], [(0, 1)]])):  # dim 3
        with pytest.raises(ValueError, match="differ in shape"):
            BracketTensor.kron([one, other])
    with pytest.raises(ValueError, match="one or more terms"):
        BracketTensor.kron([])
