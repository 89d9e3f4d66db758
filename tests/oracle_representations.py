"""Reference loops for the representation layer as it was written before it
moved onto tensor kernels: the representation identity checked one pair of
basis tuples at a time with dense ``Matrix`` products, and the adjoint
representation, coadjoint representation and form intertwiner built from one
adjoint operator per basis tuple.  Tests compare the library against them.
"""

from typing import Tuple

from nambucat.algebra import BracketTensor, all_tuples
from nambucat.checks import CheckReport, Counterexample, _budget, _twist_slots
from nambucat.linalg import Matrix, Vector, rank
from nambucat.representations import Representation


def adjoint_of_basis_tuple(a, idx: Tuple[int, ...]) -> Matrix:
    """Adjoint operator of a tuple of basis vectors, via direct table lookup."""
    cols = [a.bracket.value(idx + (j,)) for j in range(a.dim)]
    return Matrix.from_columns(cols)


def _mat_of(vec: Vector, m: int) -> Matrix:
    return Matrix(m, m, vec.entries)


def check_representation(a, rep, mode: str = "primal", max_tuples=None) -> CheckReport:
    if mode not in ("primal", "dual"):
        raise ValueError("mode must be 'primal' or 'dual'")
    n, d = a.arity, a.dim
    m = rep.target_dim
    rho = rep.rho
    nu = rep.nu
    C = a.bracket
    count = d ** (2 * (n - 1))
    _budget(count, max_tuples)

    rho_tw = rho.transform(list(a.twists))
    side = [rho.transform(_twist_slots(a.twists, n - 1, i)) for i in range(n - 1)]

    checked = 0
    ident = f"representation_{mode}"
    for x in all_tuples(d, n - 1):
        rho_x = _mat_of(rho.value(x), m)
        rho_ax = _mat_of(rho_tw.value(x), m)
        for y in all_tuples(d, n - 1):
            checked += 1
            rho_y = _mat_of(rho.value(y), m)
            rho_ay = _mat_of(rho_tw.value(y), m)
            if mode == "primal":
                lhs = rho_ax @ rho_y - rho_ay @ rho_x
            else:
                lhs = rho_x @ rho_ay - rho_y @ rho_ax
            rhs = Matrix.zero(m, m)
            for i in range(n - 1):
                v = C.value(x + (y[i],))
                term = Vector.zero(m * m)
                for j, vj in enumerate(v.entries):
                    if vj:
                        term = term + side[i].value(y[:i] + (j,) + y[i + 1:]).scale(vj)
                rhs = rhs + _mat_of(term, m)
            rhs = (rhs @ nu) if mode == "primal" else (nu @ rhs)
            if lhs != rhs:
                return CheckReport(ident, False,
                                   Counterexample(x + y, lhs.flatten(), rhs.flatten()),
                                   checked)
    return CheckReport(ident, True, None, checked)


def adjoint_rep(a) -> Representation:
    n, d = a.arity, a.dim
    items = {}
    for t in all_tuples(d, n - 1):
        L = adjoint_of_basis_tuple(a, t)
        if not L.is_zero():
            items[t] = L.flatten()
    rho = BracketTensor(d, n - 1, items, vdim=d * d)
    nu = a.twists[n - 2] if n >= 2 else Matrix.identity(d)
    return Representation(d, n, d, rho, nu)


def coadjoint_rep(a):
    n, d = a.arity, a.dim
    adj = adjoint_rep(a)
    items = {}
    for t, vec in adj.rho.dense_items():
        items[t] = (-Matrix(d, d, vec.entries).T).flatten()
    rho_star = BracketTensor(d, n - 1, items, vdim=d * d)
    rep = Representation(d, n, d, rho_star, adj.nu.T)
    return rep, check_representation(a, adj, mode="dual")


def rep_isomorphism_psi(q):
    a = q.algebra
    n, d = a.arity, a.dim
    G = q.form.gram
    if rank(G) < d:
        raise ValueError("form is degenerate; no isomorphism")
    alpha_last = a.twists[n - 2]
    checked = 0
    if G @ alpha_last != alpha_last.T @ G:
        return G, CheckReport("rep_isomorphism", False, None, 0,
                              detail="psi does not intertwine nu with nu*")
    for x in all_tuples(d, n - 1):
        checked += 1
        L = adjoint_of_basis_tuple(a, x)
        lhs = G @ L
        rhs = (-L.T) @ G
        if lhs != rhs:
            return G, CheckReport("rep_isomorphism", False,
                                  Counterexample(x, lhs.flatten(), rhs.flatten()),
                                  checked)
    return G, CheckReport("rep_isomorphism", True, None, checked)
