"""Reference builders for the construction brackets that are now read off the
input bracket's nonzero entries: the dual block of the T*-extension, the
induced Leibniz bracket and the trace-induced ternary bracket, each as it was
written before, one basis tuple at a time through adjoint operators or
``value`` lookups.  Tests compare the library's output tensors against them.

The brackets on tensor spaces, now ``BracketTensor.kron`` calls, are also
kept as the entry loops that built them before: ``tensor_product_bracket``
and ``induced_leibniz_entries``.
"""

import itertools
from fractions import Fraction
from math import prod
from typing import Dict, List, Sequence, Tuple

from nambucat.algebra import BracketTensor, all_tuples, tuple_position
from nambucat.linalg import Vector, kron_vec

from oracle_representations import adjoint_of_basis_tuple


def tstar_bracket(a) -> BracketTensor:
    """The T*-extension bracket on N + N* of a skew algebra."""
    n, d = a.arity, a.dim
    items: Dict[Tuple[int, ...], Vector] = {}
    zero_d = [Fraction(0)] * d
    for t, v in a.bracket.dense_items():
        items[t] = Vector(list(v.entries) + zero_d)
    for i in range(n):
        sign = 1 if ((i + 1) + n + 1) % 2 == 0 else -1
        for rest in all_tuples(d, n - 1):
            L = adjoint_of_basis_tuple(a, rest)
            for j in range(d):
                dual = [sign * L[j, m] for m in range(d)]
                if all(x == 0 for x in dual):
                    continue
                key = tuple(rest[:i]) + (d + j,) + tuple(rest[i:])
                items[key] = Vector(zero_d + dual)
    return BracketTensor(2 * d, n, items)


def induced_leibniz_bracket(a) -> BracketTensor:
    """The induced bracket on the (n-1)-fold tensor power of a multiplicative
    algebra."""
    n, d = a.arity, a.dim
    alpha = a.twist
    D = d ** (n - 1)
    alpha_cols = [alpha.col(j) for j in range(d)]
    basis_tuples = list(all_tuples(d, n - 1))
    adj = {u: adjoint_of_basis_tuple(a, u) for u in basis_tuples}

    def tensor_of(vectors: Sequence[Vector]) -> Vector:
        acc = vectors[0]
        for v in vectors[1:]:
            acc = kron_vec(acc, v)
        return acc

    items: Dict[Tuple[int, ...], Vector] = {}
    for ui, u in enumerate(basis_tuples):
        L = adj[u]
        for vi, v in enumerate(basis_tuples):
            acc = Vector.zero(D)
            for i in range(n - 1):
                factors = [alpha_cols[v[j]] if j != i else L.col(v[i])
                           for j in range(n - 1)]
                acc = acc + tensor_of(factors)
            if not acc.is_zero():
                items[(ui, vi)] = acc
    return BracketTensor(D, 2, items)


def trace_ternary_bracket(l, tau: Vector) -> BracketTensor:
    """tau(x)[y, z] + tau(y)[z, x] + tau(z)[x, y] on every basis triple."""
    d = l.dim
    C = l.bracket
    items: Dict[Tuple[int, ...], Vector] = {}
    for t in all_tuples(d, 3):
        i, j, k = t
        v = (C.value((j, k)).scale(tau[i])
             + C.value((k, i)).scale(tau[j])
             + C.value((i, j)).scale(tau[k]))
        if not v.is_zero():
            items[t] = v
    return BracketTensor(d, 3, items)


def tensor_product_bracket(h, a) -> BracketTensor:
    """mu(a_1..a_n) (x) [x_1..x_n] on the tensor space, one pair of entries
    at a time; slot index s_i * dim(a) + t_i."""
    n, da, dn = a.arity, h.dim, a.dim
    items: Dict[Tuple[int, ...], Vector] = {}
    for s, mv in h.mu.dense_items():
        for t, cv in a.bracket.dense_items():
            items[tuple(s[i] * dn + t[i] for i in range(n))] = kron_vec(mv, cv)
    return BracketTensor(da * dn, n, items)


def induced_leibniz_entries(a) -> BracketTensor:
    """The induced bracket read off the bracket's nonzero entries and the
    twist's: an entry (u + (c,), w) of the bracket meets every v with v_i =
    c; each other factor j contributes an entry alpha[k_j, v_j], and the
    output tensor index is k with k_i running over w."""
    n, d = a.arity, a.dim
    alpha = a.twist
    D = d ** (n - 1)
    alpha_entries = [(k, j, alpha[k, j]) for k in range(d) for j in range(d) if alpha[k, j]]
    rows: Dict[Tuple[int, int], List[Fraction]] = {}
    for t, w in a.bracket.dense_items():
        ui, c = tuple_position(t[:-1], d), t[-1]
        for i in range(n - 1):
            for others in itertools.product(alpha_entries, repeat=n - 2):
                coef = prod(x for _, _, x in others)
                ks = [k for k, _, _ in others]
                vs = [j for _, j, _ in others]
                vi = tuple_position(vs[:i] + [c] + vs[i:], d)
                row = rows.setdefault((ui, vi), [Fraction(0)] * D)
                for r, x in enumerate(w.entries):
                    if x:
                        row[tuple_position(ks[:i] + [r] + ks[i:], d)] += coef * x
    return BracketTensor(D, 2, {key: Vector(row) for key, row in rows.items()})
