"""The comparison code of ``nambucat.checks`` and ``nambucat.spaces`` as it
was before every pointwise check became one comparison of two tensors.

``compare`` accepts a {basis tuple: nonzero Vector} dict as well as a
tensor, read through ``entries``; ``transpositions`` builds the swapped
entries of every adjacent transposition by hand.  ``multiplicativity``,
``morphism`` and ``centroid_report`` are the three copies of "f applied
after the bracket, against maps applied in its slots".  ``assemble`` is
``spaces._assemble`` with its own reader of dense storage: the tensor mapped
by ``transform`` and walked through ``dense_items``.  Tests compare the
library against them.
"""

from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from nambucat.algebra import BracketTensor, tuple_position
from nambucat.checks import CheckReport, Counterexample, _budget, _first
from nambucat.linalg import Matrix, Vector
from nambucat.spaces import _twist_power


def entries(x) -> Dict[Tuple[int, ...], Vector]:
    if not isinstance(x, BracketTensor):
        return x
    return dict(x.dense_items()) if x.skew_storage else x.coeffs


def compare(identity: str, d: int, n: int, left, right,
            detail: Optional[str] = None) -> CheckReport:
    """Compare two sparse n-linear maps, each a BracketTensor or a dict."""
    if all(isinstance(x, BracketTensor) and x.skew_storage for x in (left, right)):
        left, right = left.coeffs, right.coeffs
    else:
        left, right = entries(left), entries(right)
    first = None
    for t in left.keys() | right.keys():
        if (first is None or t < first) and left.get(t) != right.get(t):
            first = t
    if first is None:
        return CheckReport(identity, True, None, d ** n)
    lv, rv = left.get(first), right.get(first)
    zero = Vector.zero((rv if lv is None else lv).dim)
    return CheckReport(identity, False,
                       Counterexample(first, zero if lv is None else lv,
                                      zero if rv is None else rv),
                       tuple_position(first, d) + 1, detail=detail)


def transpositions(identity: str, tensor: BracketTensor, sign: int,
                   detail: Optional[str] = None) -> CheckReport:
    d, n = tensor.dim, tensor.arity
    items = entries(tensor)
    reports = [compare(identity, d, n, items,
                       {t[:k] + (t[k + 1], t[k]) + t[k + 2:]: v if sign > 0 else -v
                        for t, v in items.items()},
                       detail or f"transposition of slots {k + 1},{k + 2}")
               for k in range(n - 1)]
    return _first(identity, d ** n, reports)


def multiplicativity(a, max_tuples=None) -> CheckReport:
    n, d = a.arity, a.dim
    if any(t != a.twists[0] for t in a.twists[1:]):
        return CheckReport("multiplicativity", False, None, 0, detail="twists differ")
    alpha = a.twists[0]
    _budget(d ** n, max_tuples)
    return compare("multiplicativity", d, n,
                   a.bracket.transform([None] * n, out_map=alpha),
                   a.bracket.transform([alpha] * n))


def morphism(src, dst, f: Matrix, max_tuples=None) -> CheckReport:
    if src.arity != dst.arity:
        raise ValueError("arity mismatch")
    if f.rows != dst.dim or f.cols != src.dim:
        raise ValueError("morphism matrix has wrong shape")
    n, d = src.arity, src.dim
    for i in range(n - 1):
        if f @ src.twists[i] != dst.twists[i] @ f:
            return CheckReport("morphism", False, None, 0,
                               detail=f"f does not intertwine twist {i + 1}")
    _budget(d ** n, max_tuples)
    return compare("morphism", d, n, src.bracket.transform([None] * n, out_map=f),
                   dst.bracket.transform([f] * n))


def centroid_report(identity: str, bracket: BracketTensor, f: Matrix,
                    pw: Matrix) -> CheckReport:
    """f([x_1..x_n]) against [f x_1, pw x_2, ..., pw x_n] on basis tuples."""
    n = bracket.arity
    return compare(identity, bracket.dim, n,
                   bracket.transform([None] * n, out_map=f),
                   bracket.transform([f] + [pw] * (n - 1)))


def centroid_membership(a, theta: Matrix, k: int) -> CheckReport:
    return centroid_report("centroid_membership", a.bracket, theta, _twist_power(a, k))


def assoc_centroid_membership(h, f: Matrix, k: int) -> CheckReport:
    return centroid_report("assoc_centroid_membership", h.mu, f, _twist_power(h, k))


def assemble(d: int, width: int, lhs: Optional[BracketTensor],
             patterns: Sequence[Tuple[int, BracketTensor, Optional[Matrix]]]
             ) -> List[Dict[int, int]]:
    free = None
    if all(pattern.skew_storage for _, pattern, _ in patterns):
        free = 1 if all(i == 0 for i, _, _ in patterns) else 0

    def entries(tensor, i, m):
        if free is None:
            if m is not None:
                tensor = tensor.transform([None if j == i else m
                                           for j in range(tensor.arity)])
            return [(key, vec, range(width)) for key, vec in tensor.dense_items()]
        if free == 1:
            return [(key, vec, range(width)) for key, vec in tensor.free_slot_items(0, m)]
        return [(key, vec, range(key[i - 1] + 1 if i else 0,
                                 key[i + 1] if i + 1 < len(key) else width))
                for key, vec in tensor.free_slot_items(i, m)]

    lhs_items = entries(lhs, 0, None) if lhs is not None else []
    pattern_items = [(i, entries(pattern, i, m)) for i, pattern, m in patterns]
    scale = lcm(*{x.denominator for items in [lhs_items] + [it for _, it in pattern_items]
                  for _, vec, _ in items for x in vec.entries})
    rows: Dict[Tuple[Tuple[int, ...], int], Dict[int, int]] = {}
    for t, vec, slot0 in lhs_items:
        if t[0] in slot0:
            for s, x in enumerate(vec.entries):
                if x:
                    x = x.numerator * (scale // x.denominator)
                    for r in range(d):
                        row = rows.setdefault((t, r), {})
                        c = r * width + s
                        row[c] = row.get(c, 0) + x
    for i, items in pattern_items:
        for key, vec, slot in items:
            head, tail, col = key[:i], key[i + 1:], key[i] * width
            for r, x in enumerate(vec.entries):
                if x:
                    x = x.numerator * (scale // x.denominator)
                    for ti in slot:
                        row = rows.setdefault((head + (ti,) + tail, r), {})
                        c = col + ti
                        row[c] = row.get(c, 0) - x
    out, seen = [], set()
    for row in rows.values():
        row = {c: x for c, x in row.items() if x}
        key = frozenset(row.items())
        if row and key not in seen:
            seen.add(key)
            out.append(row)
    return out
