"""Structure-producing transforms and their hypothesis checking."""

import collections
from dataclasses import replace
from fractions import Fraction as F

import pytest

from nambucat import checks, constructions, faulkner
from nambucat import (BilinearForm, BracketTensor, ConstructionError,
                      HomLeibnizAlgebra, HomNambuAlgebra, Matrix,
                      QuadraticStructure, Vector, centroid_twisted_bracket,
                      check_hom_leibniz, check_hom_nambu_identity,
                      check_quadratic, check_skew_symmetry,
                      induced_hom_leibniz, pullback_form, raise_arity, rank,
                      reduce_arity, self_twist, tensor_product,
                      trace_induced_ternary, tstar_extension,
                      twist_by_morphism)
from nambucat.algebra import all_tuples, eval_bracket
from nambucat.faulkner import faulkner_ternary, omega_twist_leibniz
from conftest import filippov, ones_assoc, zero_algebra


def sign4():
    return Matrix.diagonal([F(1), F(1), F(-1), F(-1)])


def test_twist_by_morphism(s4):
    a = s4.algebra
    out = twist_by_morphism(a, sign4())
    assert out.skew and out.multiplicative
    assert out.twists == (sign4(),) * 2
    # bracket is rho composed with the original
    assert out.bracket.value((0, 1, 2)) == sign4().apply(a.bracket.value((0, 1, 2)))


def test_twist_identity_is_noop(s4):
    out = twist_by_morphism(s4.algebra, Matrix.identity(4))
    assert out.bracket.coeffs == s4.algebra.bracket.coeffs


def test_twist_rejects_non_endomorphism(s4):
    with pytest.raises(ConstructionError):
        twist_by_morphism(s4.algebra, Matrix.diagonal([F(2), F(1), F(1), F(1)]))


def test_twist_rejects_twisted_input(ex1):
    with pytest.raises(ConstructionError):
        twist_by_morphism(ex1.algebra, Matrix.identity(3))


def test_self_twist(ex1):
    out = self_twist(ex1.algebra)
    alpha = ex1.algebra.twist
    assert out.multiplicative
    assert out.twists == (alpha.power(3),) * 2
    assert out.bracket.value((0, 1, 2)) \
        == alpha.power(2).apply(ex1.algebra.bracket.value((0, 1, 2)))


def test_tensor_product(dualnum, s4):
    out = tensor_product(dualnum, s4.algebra)
    assert out.dim == 8 and out.arity == 3
    assert out.skew  # symmetric times alternating is alternating
    assert check_hom_nambu_identity(out).passed


def test_tensor_product_with_forms(dualnum, s4):
    bh = BilinearForm(2, Matrix.from_rows([[F(1), F(0)], [F(0), F(0)]]))
    # B_A(x, y) = x_1 y_1 satisfies B_A(xyz, w) = B_A(x, yzw) on this product
    q = tensor_product(dualnum, s4.algebra, form_h=bh, form_a=s4)
    assert isinstance(q, QuadraticStructure) and q.form.dim == 8
    assert check_quadratic(q).passed


def test_tensor_budget_comes_before_the_build(monkeypatch):
    """The skew check of the 18-dim 5-ary tensor product needs 18^5 tuples:
    a smaller budget refuses it, with the check's own message, before the
    Kronecker bracket is built."""
    def no_build(*args, **kwargs):
        raise AssertionError("the bracket was built")
    monkeypatch.setattr(BracketTensor, "kron", no_build)
    with pytest.raises(checks.TupleBudgetExceeded,
                       match="^check needs 1889568 basis tuples, budget is 10000$"):
        tensor_product(ones_assoc(3, 5), filippov(6), max_tuples=10000)


def test_tensor_arity_mismatch(dualnum, heis):
    with pytest.raises(ConstructionError):
        tensor_product(dualnum, heis)


def test_induced_hom_leibniz(ex1):
    lb, b_hat = induced_hom_leibniz(ex1.algebra, form=ex1)
    assert lb.dim == 9
    assert check_hom_leibniz(lb).passed
    assert b_hat.dim == 9
    # bracket on simple tensors is the summed slotwise adjoint action
    a = ex1.algebra
    alpha = a.twist
    u, v = (0, 1), (2, 0)
    from nambucat.algebra import adjoint_operator
    from nambucat.linalg import kron_vec
    L = adjoint_operator(a, [Vector.basis(3, i) for i in u])
    expected = kron_vec(L.col(2), alpha.col(0)) \
        + kron_vec(alpha.col(2), L.col(0))
    assert lb.bracket.value((0 * 3 + 1, 2 * 3 + 0)) == expected


def test_induced_leibniz_binary_case(heis):
    lb = induced_hom_leibniz(heis)
    assert lb.dim == 3
    # n = 2: the induced bracket is the original one
    for t in all_tuples(3, 2):
        assert lb.bracket.value(t) == heis.bracket.value(t)
    assert check_hom_leibniz(lb).passed


def test_induced_leibniz_budget_comes_before_the_build(monkeypatch):
    """The identity check of the 125-dim induced Leibniz algebra of A5 needs
    125^3 tuples: a smaller budget refuses it, with the check's own message,
    before the dense bracket is built."""
    def no_build(*args, **kwargs):
        raise AssertionError("the bracket was built")
    monkeypatch.setattr(BracketTensor, "kron", no_build)
    with pytest.raises(checks.TupleBudgetExceeded,
                       match="^check needs 1953125 basis tuples, budget is 1000$"):
        induced_hom_leibniz(filippov(5), max_tuples=1000)


def test_tstar_extension(s4):
    res = tstar_extension(s4.algebra, BilinearForm.standard(4))
    a = res.algebra
    assert a.dim == 8 and a.skew and res.beta is None
    assert rank(res.form.gram) == 8
    assert check_hom_nambu_identity(a).passed
    assert check_quadratic(res).passed
    # N part embeds: [e1,e2,e3] still e4
    assert a.bracket.value((0, 1, 2))[3] == 1
    # dual part: one dual argument gives the signed coadjoint term
    # [f1, e1, e2] = (-1)^{1+3+1} f((.) -> [., e1, e2]) with f = e1*
    v = a.bracket.value((4, 0, 1))
    assert v.entries[:4] == (F(0),) * 4


def test_tstar_omega(s4):
    """The involution on N + N* is omega + omega^T, the output's beta; the
    form pulled back by it is nondegenerate and invariant."""
    omega = sign4()
    res = tstar_extension(s4.algebra, BilinearForm.standard(4), omega=omega)
    zero = [F(0)] * 4
    assert res.beta == Matrix.from_rows([list(omega.row(i).entries) + zero for i in range(4)]
                                        + [zero + list(omega.T.row(i).entries)
                                           for i in range(4)])
    assert check_quadratic(res).passed
    pulled = QuadraticStructure(res.algebra, BilinearForm(8, res.beta.T @ res.form.gram))
    assert pulled.form.nondegenerate and check_quadratic(pulled).passed


def test_tstar_rejects_non_skew(ex1):
    with pytest.raises(ConstructionError):
        tstar_extension(ex1.algebra, BilinearForm.standard(3))


def test_pullback_form():
    b = BilinearForm.standard(4)
    out = pullback_form(b, Matrix.identity(4).scale(F(3)))
    assert out.gram == Matrix.identity(4).scale(F(3))
    skewm = Matrix.from_rows([[F(0), F(1), F(0), F(0)],
                              [F(-1), F(0), F(0), F(0)],
                              [F(0), F(0), F(1), F(0)],
                              [F(0), F(0), F(0), F(1)]])
    with pytest.raises(ConstructionError):
        pullback_form(b, skewm)


def test_trace_induced_ternary(heis):
    l = HomLeibnizAlgebra(3, heis.bracket, Matrix.identity(3))
    tau = Vector([F(0), F(0), F(1)])
    tern = trace_induced_ternary(l, Matrix.identity(3), tau)
    assert tern.arity == 3 and tern.skew
    # [e1,e2,e3] = tau(e3)[e1,e2] = e3
    assert eval_bracket(tern, [Vector.basis(3, i) for i in range(3)]) \
        == Vector.basis(3, 2)
    assert check_hom_nambu_identity(tern).passed


def test_trace_ternary_rejects_bad_trace(heis):
    l = HomLeibnizAlgebra(3, heis.bracket, Matrix.identity(3))
    # gamma that breaks tau(g x) tau(y) = tau(x) tau(g y)
    gamma = Matrix.from_rows([[F(1), F(0), F(0)],
                              [F(0), F(1), F(0)],
                              [F(1), F(0), F(1)]])
    with pytest.raises(ConstructionError):
        trace_induced_ternary(l, gamma, Vector([F(0), F(0), F(1)]))


def test_raise_arity(ex1):
    out = raise_arity(ex1, 1)
    a = out.algebra
    alpha = ex1.algebra.twist
    assert a.arity == 5
    assert all(t == alpha.power(2) for t in a.twists)
    assert out.beta == alpha @ alpha  # beta was alpha, composed with alpha^1
    assert check_hom_nambu_identity(a).passed
    assert check_quadratic(out).passed
    # recursion oracle on one tuple
    inner = ex1.algebra.bracket.value((0, 1, 2))
    args = [inner, alpha.col(0), alpha.col(1)]
    assert a.bracket.value((0, 1, 2, 0, 1)) == ex1.algebra.bracket.eval(args)


def test_raise_arity_k0_identity(ex1):
    assert raise_arity(ex1, 0) is ex1


def test_reduce_arity(s4):
    out = reduce_arity(s4, [Vector.basis(4, 0)])
    a = out.algebra
    assert a.arity == 2
    # [x,y] := [e1,x,y]: e2,e3 -> e4
    assert a.bracket.value((1, 2)) == Vector.basis(4, 3)
    assert check_hom_nambu_identity(a).passed
    assert check_quadratic(out).passed
    assert a.skew


def test_reduce_arity_direct_sum(sum5):
    q = QuadraticStructure(sum5, BilinearForm.standard(5))
    out = reduce_arity(q, [Vector.basis(5, 4)])
    assert out.algebra.arity == 2
    assert out.algebra.bracket.coeffs == {}


def test_reduce_arity_rejects_unfixed(s4):
    tw = twist_by_morphism(s4.algebra, sign4())
    q = QuadraticStructure(tw, s4.form)
    with pytest.raises(ConstructionError):
        reduce_arity(q, [Vector.basis(4, 2)])   # sign twist negates e3


def test_centroid_twisted_bracket(s4):
    theta = Matrix.identity(4).scale(F(3))
    out = centroid_twisted_bracket(s4.algebra, theta, 2)
    assert out.skew
    assert out.twists == (theta,) * 2
    # {x,y,z}_2 = [3x, 3y, z] = 9 [x,y,z]
    assert out.bracket.value((0, 1, 2)) == Vector.basis(4, 3).scale(F(9))
    assert check_hom_nambu_identity(out).passed


def test_centroid_bracket_rejects_non_centroid(s4):
    bad = Matrix.diagonal([F(1), F(2), F(1), F(1)])
    with pytest.raises(ConstructionError, match="^theta is not in the centroid$"):
        centroid_twisted_bracket(s4.algebra, bad, 1)


def _count_flag_checks(monkeypatch, fail=False, order=None,
                       names=("check_skew_symmetry", "check_multiplicativity")):
    """Count the checks ``names`` that the builders run, and append each
    call's name to ``order`` if given; with ``fail`` every multiplicativity
    report is turned into a failure."""
    calls = collections.Counter()
    for name in names:
        fn = getattr(checks, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            if order is not None:
                order.append(_name)
            report = _fn(*args, **kwargs)
            if fail and _name == "check_multiplicativity":
                return replace(report, passed=False, detail="forced")
            return report
        for mod in (constructions, faulkner):
            monkeypatch.setattr(mod, name, counted)
    return calls


TWISTED_BUILDERS = {
    "twisted T*-extension": (lambda s4, sl2: tstar_extension(
        s4.algebra, BilinearForm.standard(4), omega=sign4()), {"check_multiplicativity": 1}),
    "twisted ternary": (lambda s4, sl2: faulkner_ternary(
        sl2, alpha=Matrix.diagonal([-1, -1, 1])),
        {"check_skew_symmetry": 1, "check_multiplicativity": 1}),
}


@pytest.mark.parametrize("name", sorted(TWISTED_BUILDERS))
def test_twisted_builders_run_each_flag_check_once(monkeypatch, s4, sl2, name):
    """The twisted output's multiplicativity report sets its flag and is the
    one a failure carries; no check runs on an untwisted output that is
    thrown away."""
    build, expected = TWISTED_BUILDERS[name]
    calls = _count_flag_checks(monkeypatch)
    assert build(s4, sl2).algebra.multiplicative
    assert calls == expected
    calls = _count_flag_checks(monkeypatch, fail=True)
    with pytest.raises(ConstructionError) as e:
        build(s4, sl2)
    assert str(e.value) == f"{name} multiplicativity: multiplicativity check failed"
    assert e.value.report.detail == "forced"
    assert calls == expected


# the name of each quadratic check on an output: (a call of a builder that
# runs it on the loaded inputs, its place among the builder's quadratic checks)
QUADRATIC_OUTPUTS = {
    "tensor product quadratic structure": (lambda f: tensor_product(
        f("dualnum"), f("s4").algebra, form_h=BilinearForm(2, Matrix.diagonal([1, 0])),
        form_a=f("s4")), 2),
    "induced form invariance": (lambda f: induced_hom_leibniz(f("ex1").algebra,
                                                              form=f("ex1")), 2),
    "T*-extension form": (lambda f: tstar_extension(f("s4").algebra,
                                                    BilinearForm.standard(4)), 2),
    "twisted T*-extension Hom-quadratic form": (lambda f: tstar_extension(
        f("s4").algebra, BilinearForm.standard(4), omega=sign4()), 2),
    "twisted T*-extension pulled-back form": (lambda f: tstar_extension(
        f("s4").algebra, BilinearForm.standard(4), omega=sign4()), 3),
    "trace-induced quadratic structure": (lambda f: trace_induced_ternary(
        HomLeibnizAlgebra(3, f("heis").bracket, Matrix.identity(3)), Matrix.identity(3),
        Vector([0, 0, 1]), form=BilinearForm(3, Matrix.zero(3, 3))), 1),
    "raised-arity quadratic structure": (lambda f: raise_arity(f("ex1"), 1), 1),
    "reduced-arity quadratic structure": (lambda f: reduce_arity(
        QuadraticStructure(f("s4").algebra, BilinearForm.standard(4)), [Vector.basis(4, 3)]), 1),
    "twisted tensor Leibniz form": (lambda f: omega_twist_leibniz(
        f("sl2"), Matrix.diagonal([-1, -1, 1])), 1),
    "ternary quadratic structure": (lambda f: faulkner_ternary(f("sl2")), 1),
    "twisted ternary quadratic structure": (lambda f: faulkner_ternary(
        f("sl2"), alpha=Matrix.diagonal([-1, -1, 1])), 1),
}


@pytest.mark.parametrize("name", sorted(QUADRATIC_OUTPUTS))
def test_quadratic_output_checks_keep_their_names(monkeypatch, request, name):
    """Each quadratic check on an output runs, in its place, and its failure
    is reported under its own name; the quadratic checks before it pass."""
    build, place = QUADRATIC_OUTPUTS[name]
    inputs = {f: request.getfixturevalue(f) for f in ("s4", "sl2", "ex1", "dualnum", "heis")}
    calls = []

    def forced(q, max_tuples=None):
        calls.append(q)
        report = checks.check_quadratic(q, max_tuples)
        assert report.passed
        return report if len(calls) < place else replace(report, passed=False, detail="forced")
    monkeypatch.setattr(constructions, "check_quadratic", forced)
    with pytest.raises(ConstructionError) as e:
        build(inputs.get)
    assert str(e.value) == f"{name}: quadratic check failed"
    assert e.value.report.detail == "forced" and len(calls) == place


# builder: (a call of it on the loaded inputs; the checks it runs, in order)
CHECKED_BUILDERS = {
    "tstar": (lambda f: tstar_extension(f("s4").algebra, BilinearForm.standard(4)),
              ("quadratic", "mult", "identity", "quadratic")),
    "raise": (lambda f: raise_arity(f("ex1"), 1), ("skew", "mult", "identity", "quadratic")),
    "reduce": (lambda f: reduce_arity(
        QuadraticStructure(f("s4").algebra, BilinearForm.standard(4)), [Vector.basis(4, 3)]),
        ("skew", "mult", "identity", "quadratic")),
    "centroid": (lambda f: centroid_twisted_bracket(
        f("s4").algebra, Matrix.identity(4).scale(F(3)), 2), ("skew", "mult", "identity")),
    "faulkner": (lambda f: faulkner_ternary(f("sl2")),
                 ("skew", "mult", "identity", "quadratic")),
    "self-twist": (lambda f: self_twist(f("ex1").algebra), ("skew", "mult", "identity")),
    "twist": (lambda f: twist_by_morphism(f("s4").algebra, sign4()), ("mult", "identity")),
    "tensor": (lambda f: tensor_product(f("dualnum"), f("s4").algebra),
               ("skew", "mult", "identity")),
    "trace": (lambda f: trace_induced_ternary(
        HomLeibnizAlgebra(3, f("heis").bracket, Matrix.identity(3)),
        Matrix.identity(3), Vector([F(0), F(0), F(1)])), ("skew", "skew", "mult", "identity")),
}
SHORT = {"check_skew_symmetry": "skew", "check_multiplicativity": "mult",
         "check_hom_nambu_identity": "identity", "check_quadratic": "quadratic"}


@pytest.mark.parametrize("name", sorted(CHECKED_BUILDERS))
def test_builders_run_their_checks_in_order(monkeypatch, request, name):
    """The checks on the input (the T*-extension's input form, the
    trace-induced bracket's input skewness) come first; then the output's
    skew check, unless it is built in skew storage, its multiplicativity,
    identity and quadratic checks, each once."""
    build, expected = CHECKED_BUILDERS[name]
    # loaded before counting starts: loading a file runs checks of its own
    inputs = {f: request.getfixturevalue(f) for f in ("s4", "sl2", "ex1", "dualnum", "heis")}
    order = []
    _count_flag_checks(monkeypatch, order=order, names=tuple(SHORT))
    build(inputs.get)
    assert tuple(SHORT[n] for n in order) == expected
