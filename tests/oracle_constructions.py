"""Reference builders for the construction brackets that are now read off the
input bracket's nonzero entries: the dual block of the T*-extension, the
induced Leibniz bracket and the trace-induced ternary bracket, each as it was
written before, one basis tuple at a time through adjoint operators or
``value`` lookups.  Tests compare the library's output tensors against them.
"""

from fractions import Fraction
from typing import Dict, Sequence, Tuple

from nambucat.algebra import BracketTensor, all_tuples
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
