"""Reference loops for the sites that now substitute a tensor or a vector
into a slot with ``BracketTensor.substitute``: the multilinear ``eval``, the
adjoint operator and inner derivation built from it, the ``raise_arity``
builder and both ``reduce_arity`` loops, as they were written before.  Each
visits every basis tuple with its own ``value`` lookups and fresh Vector
arithmetic.  The total Hom-associativity chain's old loop is
``oracle_checks.total_hom_associativity``.

``substitute`` is ``BracketTensor.substitute`` as it was before
``BracketTensor.compose`` replaced it, and ``compose`` chains it with the
old dense slot-map loop.  Tests compare the library against all of these.
"""

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import oracle_skew

from nambucat.algebra import (BracketTensor, HomNambuAlgebra, QuadraticStructure,
                              add_scaled, all_tuples)
from nambucat.checks import check_hom_nambu_identity, check_quadratic
from nambucat.constructions import ConstructionError, _require, _verified_flags
from nambucat.linalg import Matrix, Vector
from nambucat.spaces import _twist_power, derivation_membership


def substitute(outer: BracketTensor, slot: int, inner: BracketTensor) -> BracketTensor:
    """outer(a_0..a_{slot-1}, inner(b), a_{slot+1}..): the outer entries
    grouped by their slot index, and each nonzero coordinate of each inner
    entry adds one scaled outer entry per group member."""
    if not 0 <= slot < outer.arity:
        raise ValueError(f"no slot {slot} in an arity-{outer.arity} tensor")
    if inner.vdim != outer.dim or (inner.arity and inner.dim != outer.dim):
        raise ValueError("dimension mismatch")
    groups: Dict[int, list] = {}
    for idx, vec in outer.dense_items():
        groups.setdefault(idx[slot], []).append((idx[:slot], idx[slot + 1:], vec.entries))
    acc: Dict[Tuple[int, ...], List[Fraction]] = {}
    for t, w in inner.dense_items():
        for j, c in enumerate(w.entries):
            if not c:
                continue
            for head, tail, vals in groups.get(j, ()):
                add_scaled(acc, head + t + tail, c, vals)
    return BracketTensor(outer.dim, outer.arity + inner.arity - 1,
                         {key: Vector(row) for key, row in acc.items()},
                         vdim=outer.vdim)


def compose(outer: BracketTensor, inners: Sequence[Optional[BracketTensor]],
            maps: Optional[Sequence[Optional[Matrix]]] = None) -> BracketTensor:
    """outer(inner_0(..), ..., inner_{n-1}(..)) by one ``substitute`` per
    non-None inner, from the last slot to the first so that the slots still
    to fill keep their place, then ``maps`` (one per slot left) applied one
    slot at a time by ``oracle_skew.transform``, the loop of the dense
    ``transform`` that ``compose`` replaced."""
    out = outer
    for k in reversed(range(outer.arity)):
        if inners[k] is not None:
            out = substitute(out, k, inners[k])
    return out if maps is None else oracle_skew.transform(out, maps)


def eval(tensor: BracketTensor, args: Sequence[Vector]) -> Vector:
    if len(args) != tensor.arity:
        raise ValueError("arity mismatch")
    for v in args:
        if v.dim != tensor.dim:
            raise ValueError("dimension mismatch")
    acc = [Fraction(0)] * tensor.vdim
    for idx, vec in tensor.dense_items():
        c = Fraction(1)
        for k, i in enumerate(idx):
            a = args[k].entries[i]
            if a == 0:
                c = None
                break
            c *= a
        if c is None:
            continue
        for r, x in enumerate(vec.entries):
            if x:
                acc[r] += c * x
    return Vector(acc)


def adjoint_operator(a, x: Sequence[Vector]) -> Matrix:
    if len(x) != a.arity - 1:
        raise ValueError("need n-1 arguments")
    return Matrix.from_columns([eval(a.bracket, list(x) + [Vector.basis(a.dim, j)])
                                for j in range(a.dim)])


def inner_derivation(a, x: Sequence[Vector], k: int) -> Matrix:
    if len(x) != a.arity - 1:
        raise ValueError("expected an (n-1)-tuple of vectors")
    alpha = a.twist
    for i, v in enumerate(x):
        if alpha.apply(v) != v:
            raise ValueError(f"twist does not fix argument {i + 1}")
    pw = _twist_power(a, k)
    m = Matrix.from_columns([eval(a.bracket, list(x) + [pw.col(j)])
                             for j in range(a.dim)])
    report = derivation_membership(a, m, k + 1)
    if not report.passed:
        raise ValueError(f"inner map is not a derivation: {report.detail or report.counterexample}")
    return m


def raised_bracket(a: HomNambuAlgebra, k: int) -> BracketTensor:
    """The bracket ``raise_arity`` builds in k arity-doubling steps."""
    d = a.dim
    C = a.bracket
    arity = a.arity
    alpha_pow = a.twist
    for _ in range(k):
        new_arity = 2 * arity - 1
        pattern = C.transform([None] + [alpha_pow] * (arity - 1))
        items: Dict[Tuple[int, ...], Vector] = {}
        for t in all_tuples(d, new_arity):
            inner = C.value(t[:arity])
            acc = Vector.zero(d)
            for j, cj in enumerate(inner.entries):
                if cj:
                    acc = acc + pattern.value((j,) + t[arity:]).scale(cj)
            if not acc.is_zero():
                items[t] = acc
        C = BracketTensor(d, new_arity, items)
        alpha_pow = alpha_pow @ alpha_pow
        arity = new_arity
    return C


def reduce_arity(q: QuadraticStructure, fixed: Sequence[Vector],
                 verify: bool = True) -> QuadraticStructure:
    a = q.algebra
    n, d = a.arity, a.dim
    k = len(fixed)
    if n - k < 2:
        raise ConstructionError("reduced arity must be at least 2")
    C = a.bracket
    for j, v in enumerate(fixed):
        if a.twists[j].apply(v) != v:
            raise ConstructionError(f"twist {j + 1} does not fix the fixed vector {j + 1}")
        lead = list(fixed[:j + 1])
        for t in all_tuples(d, n - 2 - j):
            args = lead + [Vector.basis(d, i) for i in t] + [fixed[j]]
            val = eval(C, args)
            if not val.is_zero():
                raise ConstructionError(
                    f"annihilation hypothesis fails for fixed vector {j + 1} at tuple "
                    f"{tuple(i + 1 for i in t)}")

    items: Dict[Tuple[int, ...], Vector] = {}
    lead = list(fixed)
    for t in all_tuples(d, n - k):
        v = eval(C, lead + [Vector.basis(d, i) for i in t])
        if not v.is_zero():
            items[t] = v
    out = HomNambuAlgebra(d, n - k, BracketTensor(d, n - k, items),
                          tuple(a.twists[k:]))
    out = _verified_flags(out)
    struct = QuadraticStructure(out, q.form, beta=q.beta)
    if verify:
        _require(check_hom_nambu_identity(out), "reduced-arity algebra")
        _require(check_quadratic(struct), "reduced-arity quadratic structure")
    return struct
