"""Reference evaluator, independent of the nambucat package.

It reads the JSON documents the program reads and writes, keeps structure
constants as a plain dict from 0-based index tuples to sparse vectors
(dict of output index to Fraction), and evaluates the defining identities
on basis tuples.  Structure spaces are assembled here from their defining
equations and ranked by fraction-free elimination over the integers
(Bareiss).  Nothing here is timed; it only decides whether an output is
right.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Vec = Dict[int, Fraction]
Key = Tuple[int, ...]


def perm_sign(p: Sequence[int]) -> int:
    inversions = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return -1 if inversions % 2 else 1


@dataclass
class Alg:
    """A parsed algebra document with every structure constant written out."""

    kind: str
    dim: int
    arity: int
    br: Dict[Key, Vec]
    twists: List[List[List[Fraction]]]
    skew_claim: bool
    mult_claim: bool
    form: Optional[List[List[Fraction]]]
    beta: Optional[List[List[Fraction]]]

    def col(self, m: List[List[Fraction]], j: int) -> Vec:
        return {i: m[i][j] for i in range(self.dim) if m[i][j]}


def _matrix(rows) -> List[List[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def parse(doc: dict) -> Alg:
    """Expand a document's bracket into all index tuples.

    With a skew claim the listed entries stand for their alternating
    extension, as the file format says; entries of one orbit that disagree
    raise ValueError.
    """
    kind, d, n = doc["kind"], doc["dim"], doc["arity"]
    flags = doc.get("flags", {})
    skew = bool(flags.get("skew", kind == "quadratic_lie")) if kind in (
        "hom_nambu", "quadratic_lie") else False
    mult = bool(flags.get("multiplicative", False)) if kind in (
        "hom_nambu", "quadratic_lie") else False
    br: Dict[Key, Vec] = {}
    for e in doc["bracket"]:
        key = tuple(i - 1 for i in e["inputs"])
        out = {k: Fraction(x) for k, x in enumerate(e["output"]) if Fraction(x)}
        if not out:
            continue
        if not skew:
            br[key] = out
            continue
        if len(set(key)) != len(key):
            raise ValueError(f"skew entry with a repeated index {key}")
        for p in itertools.permutations(range(n)):
            k2 = tuple(key[i] for i in p)
            sign = perm_sign(p)
            v = {k: sign * x for k, x in out.items()}
            if br.setdefault(k2, v) != v:
                raise ValueError(f"inconsistent skew entries at {k2}")
    form = _matrix(doc["form"]) if doc.get("form") is not None else None
    beta = _matrix(doc["beta"]) if doc.get("beta") is not None else None
    return Alg(kind, d, n, br, [_matrix(t) for t in doc["twists"]], skew, mult,
               form, beta)


def _add(acc: Vec, v: Vec, c: Fraction = Fraction(1)) -> None:
    for k, x in v.items():
        y = acc.get(k, 0) + c * x
        if y:
            acc[k] = y
        else:
            acc.pop(k, None)


def bracket(a: Alg, args: Sequence[Vec]) -> Vec:
    """Multilinear evaluation over the supports of the arguments."""
    acc: Vec = {}
    for combo in itertools.product(*(arg.items() for arg in args)):
        out = a.br.get(tuple(i for i, _ in combo))
        if out:
            c = Fraction(1)
            for _, x in combo:
                c *= x
            _add(acc, out, c)
    return acc


def basis(i: int) -> Vec:
    return {i: Fraction(1)}


def apply(a: Alg, m: List[List[Fraction]], v: Vec) -> Vec:
    acc: Vec = {}
    for j, x in v.items():
        _add(acc, a.col(m, j), x)
    return acc


class Evaluator:
    """Identity sides on basis tuples, with twisted basis vectors cached."""

    def __init__(self, a: Alg):
        self.a = a
        d = a.dim
        self.tw = [[a.col(t, j) for j in range(d)] for t in a.twists]

    def nambu_sides(self, x: Key, y: Key) -> Tuple[Vec, Vec]:
        """[a1 x1, .., a(n-1) x(n-1), [y]] and
        sum_i [a1 y1, .., a(i-1) y(i-1), [x, yi], ai y(i+1), .., a(n-1) yn]."""
        a, tw = self.a, self.tw
        n = a.arity
        lhs = bracket(a, [tw[i][x[i]] for i in range(n - 1)] + [a.br.get(y, {})])
        rhs: Vec = {}
        for i in range(n):
            args = ([tw[j][y[j]] for j in range(i)]
                    + [a.br.get(x + (y[i],), {})]
                    + [tw[j - 1][y[j]] for j in range(i + 1, n)])
            _add(rhs, bracket(a, args))
        return lhs, rhs

    def leibniz_sides(self, x: int, y: int, z: int) -> Tuple[Vec, Vec]:
        """[a x, [y, z]] and [[x, y], a z] + [a y, [x, z]]."""
        a, t = self.a, self.tw[0]
        lhs = bracket(a, [t[x], a.br.get((y, z), {})])
        rhs = bracket(a, [a.br.get((x, y), {}), t[z]])
        _add(rhs, bracket(a, [t[y], a.br.get((x, z), {})]))
        return lhs, rhs

    def mult_sides(self, t: Key) -> Tuple[Vec, Vec]:
        a, tw = self.a, self.tw[0]
        return (apply(a, a.twists[0], a.br.get(t, {})),
                bracket(a, [tw[i] for i in t]))

    def assoc_value(self, p: int, t: Key) -> Vec:
        """mu with the inner product in outer slot p, twists on the others."""
        a, tw = self.a, self.tw
        n = a.arity
        inner = a.br.get(t[p:p + n], {})
        outer = t[:p] + t[p + n:]
        args = [tw[j][outer[j]] for j in range(p)] + [inner] \
            + [tw[j - 1][outer[j - 1]] for j in range(p + 1, n)]
        return bracket(a, args)


def _tuples(d: int, k: int, increasing: bool) -> Iterable[Key]:
    if increasing:
        return itertools.combinations(range(d), k)
    return itertools.product(range(d), repeat=k)


def twists_equal(a: Alg) -> bool:
    return all(t == a.twists[0] for t in a.twists[1:])


def nambu_tuples(a: Alg, increasing: bool) -> Iterable[Tuple[Key, Key]]:
    """Basis tuples in lexicographic order, x-block outer and y-block inner;
    with ``increasing`` only strictly increasing blocks, as the program
    visits them for a skew claim."""
    n, d = a.arity, a.dim
    for x in _tuples(d, n - 1, increasing):
        for y in _tuples(d, n, increasing):
            yield x, y


def first_nambu_failure(a: Alg, increasing: bool) -> Tuple[Optional[Key], int, Vec, Vec]:
    """(x + y, position, lhs, rhs) of the first violated tuple, or
    (None, tuples visited, {}, {})."""
    ev = Evaluator(a)
    count = 0
    for x, y in nambu_tuples(a, increasing):
        count += 1
        lhs, rhs = ev.nambu_sides(x, y)
        if lhs != rhs:
            return x + y, count, lhs, rhs
    return None, count, {}, {}


def nambu_holds(a: Alg) -> bool:
    """The fundamental identity on all basis tuples.  Increasing blocks
    suffice for an alternating bracket with equal twists: both sides are
    then alternating in each block.  parse() expands a skew claim into the
    alternating extension."""
    return first_nambu_failure(a, a.skew_claim and twists_equal(a))[0] is None


def skew_holds(a: Alg) -> bool:
    n, d = a.arity, a.dim
    for t in itertools.product(range(d), repeat=n):
        v = a.br.get(t, {})
        for k in range(n - 1):
            s = t[:k] + (t[k + 1], t[k]) + t[k + 2:]
            if {i: -x for i, x in a.br.get(s, {}).items()} != v:
                return False
    return True


def mult_holds(a: Alg) -> bool:
    if not twists_equal(a):
        return False
    ev = Evaluator(a)
    return all(l == r for l, r in (ev.mult_sides(t) for t in
                                   itertools.product(range(a.dim), repeat=a.arity)))


def leibniz_holds(a: Alg) -> bool:
    ev = Evaluator(a)
    return all(l == r for l, r in (ev.leibniz_sides(*t) for t in
                                   itertools.product(range(a.dim), repeat=3)))


def assoc_holds(a: Alg) -> bool:
    n, d = a.arity, a.dim
    for t in itertools.product(range(d), repeat=n):
        v = a.br.get(t, {})
        if any(a.br.get(t[:k] + (t[k + 1], t[k]) + t[k + 2:], {}) != v
               for k in range(n - 1)):
            return False
    ev = Evaluator(a)
    for t in itertools.product(range(d), repeat=2 * n - 1):
        first = ev.assoc_value(0, t)
        if any(ev.assoc_value(p, t) != first for p in range(1, n)):
            return False
    return True


def _bilinear(g: List[List[Fraction]], u: Vec, v: Vec) -> Fraction:
    return sum((x * g[i][j] * y for i, x in u.items() for j, y in v.items()), Fraction(0))


def quadratic_holds(a: Alg) -> bool:
    """Symmetric, nondegenerate form; twists symmetric for it; and
    B([x, y], beta z) + B(beta y, [x, z]) = 0 on basis tuples."""
    g, d, n = a.form, a.dim, a.arity
    if any(g[i][j] != g[j][i] for i in range(d) for j in range(d)):
        return False
    if rank([[g[i][j] for j in range(d)] for i in range(d)], d) != d:
        return False
    for t in a.twists:
        if any(sum(t[k][i] * g[k][j] for k in range(d)) != sum(g[i][k] * t[k][j] for k in range(d))
               for i in range(d) for j in range(d)):
            return False
    beta = a.beta if a.beta is not None else [[Fraction(int(i == j)) for j in range(d)]
                                              for i in range(d)]
    e = [basis(i) for i in range(d)]
    be = [a.col(beta, j) for j in range(d)]
    for x in itertools.product(range(d), repeat=n - 1):
        xs = [e[i] for i in x]
        lx = [bracket(a, xs + [e[j]]) for j in range(d)]
        for y in range(d):
            for z in range(d):
                if _bilinear(g, lx[y], be[z]) + _bilinear(g, be[y], lx[z]):
                    return False
    return True


def verdicts(a: Alg) -> Dict[str, bool]:
    """Verdict of each check the CLI runs on this file by default, keyed by
    the program's report identity names."""
    if a.kind == "hom_leibniz":
        return {"hom_leibniz": leibniz_holds(a)}
    if a.kind == "hom_assoc":
        return {"total_hom_associativity": assoc_holds(a)}
    out = {"hom_nambu_identity": nambu_holds(a)}
    if a.skew_claim:
        out["skew_symmetry"] = skew_holds(a)
    if a.mult_claim and a.kind == "hom_nambu":
        out["multiplicativity"] = mult_holds(a)
    if a.form is not None:
        out["quadratic"] = quadratic_holds(a)
    return out


# ------------------------------------------------------------ linear systems

def rank(rows: Iterable[Sequence[Fraction]], ncols: int) -> int:
    """Exact rank by Bareiss elimination on integer rows.

    Each row is scaled to a primitive integer row (sign fixed by its first
    nonzero entry) and duplicates are dropped before elimination."""
    unique = set()
    for row in rows:
        den = 1
        for x in row:
            if x:
                den = lcm(den, x.denominator)
        ints = [int(x * den) for x in row]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if not g:
            continue
        lead = next(v for v in ints if v)
        if lead < 0:
            g = -g
        unique.add(tuple(v // g for v in ints))
    m = [list(r) for r in unique]
    r, prev = 0, 1
    for c in range(ncols):
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p, pc = m[r], m[r][c]
        for i in range(r + 1, len(m)):
            row, f = m[i], m[i][c]
            new = []
            for x, y in zip(row, p):
                q, rem = divmod(pc * x - f * y, prev)
                if rem:
                    raise ArithmeticError("Bareiss step was not exact")
                new.append(q)
            m[i] = new
        prev, r = pc, r + 1
    return r


def _row(n: int, entries: Iterable[Tuple[int, Fraction]]) -> List[Fraction]:
    row = [Fraction(0)] * n
    for i, x in entries:
        row[i] += x
    return row


def space_system(a: Alg, space: str) -> Tuple[List[List[Fraction]], int]:
    """The defining equations of a structure space (twist power 0), as rows
    over the unknowns.  Matrix unknowns X[u][s] sit at u*d + s."""
    d, n = a.dim, a.arity
    br = a.br
    rows: List[List[Fraction]] = []
    if space == "center":
        for t in itertools.product(range(d), repeat=n - 1):
            for r in range(d):
                row = _row(d, ((i, br.get((i,) + t, {}).get(r, 0)) for i in range(d)))
                if any(row):
                    rows.append(row)
        return rows, d
    N = d * d
    for t in itertools.product(range(d), repeat=n):
        ct = br.get(t, {})
        for r in range(d):
            # X applied to the bracket: sum_s X[r][s] c_t[s]
            terms = [(r * d + s, x) for s, x in ct.items()]
            if space == "centroid":
                terms += [(j * d + t[0], -br.get((j,) + t[1:], {}).get(r, 0))
                          for j in range(d)]
            elif space == "derivations":
                for i in range(n):
                    terms += [(j * d + t[i], -br.get(t[:i] + (j,) + t[i + 1:], {}).get(r, 0))
                              for j in range(d)]
            row = _row(N, terms)
            if any(row):
                rows.append(row)
    if space == "derivations":
        alpha = a.twists[0]
        for u in range(d):
            for v in range(d):
                row = _row(N, [(u * d + s, alpha[s][v]) for s in range(d)]
                           + [(s * d + v, -alpha[u][s]) for s in range(d)])
                if any(row):
                    rows.append(row)
    elif space == "central-derivations":
        # image in the center: [X e_j, e_t] = 0
        for j in range(d):
            for t in itertools.product(range(d), repeat=n - 1):
                for r in range(d):
                    row = _row(N, ((s * d + j, br.get((s,) + t, {}).get(r, 0))
                                   for s in range(d)))
                    if any(row):
                        rows.append(row)
    return rows, N


def is_rref(vectors: Sequence[Sequence[Fraction]]) -> bool:
    """Rows in reduced echelon form: leading 1s in increasing columns, each
    pivot column zero elsewhere."""
    pivots = []
    for v in vectors:
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None or v[lead] != 1:
            return False
        pivots.append(lead)
    if any(p >= q for p, q in zip(pivots, pivots[1:])):
        return False
    return all(v[p] == 0 for i, p in enumerate(pivots)
               for k, v in enumerate(vectors) if k != i)


def basis_error(rows: Sequence[Sequence[Fraction]], n: int, rank_: int,
                vectors: Sequence[Sequence[Fraction]]) -> Optional[str]:
    """None when a returned basis is right: every element solves the
    reference equations, the basis is in reduced echelon form, and its size
    is the number of unknowns minus the reference rank."""
    for v in vectors:
        if len(v) != n:
            return f"basis element of length {len(v)}, expected {n}"
        if any(sum((x * y for x, y in zip(row, v) if x and y), Fraction(0)) for row in rows):
            return "a basis element violates the defining equations"
    if not is_rref(vectors):
        return "basis is not in reduced echelon form"
    if len(vectors) != n - rank_:
        return f"dimension {len(vectors)}, reference says {n - rank_}"
    return None


def is_endomorphism(a: Alg, m: List[List[Fraction]]) -> bool:
    """m[e_t] = [m e_t1, .., m e_tn] on every basis tuple."""
    cols = [a.col(m, j) for j in range(a.dim)]
    return all(apply(a, m, a.br.get(t, {})) == bracket(a, [cols[i] for i in t])
               for t in itertools.product(range(a.dim), repeat=a.arity))


def vec_to_json(v: Vec, d: int) -> List[str]:
    return [str(v.get(i, Fraction(0))) for i in range(d)]
