"""The Faulkner construction and the tensor product's form hypothesis, built
on ``BracketTensor.swap_output``, against the loops they replaced
(``oracle_faulkner``): phi, the coadjoint action, the ternary and tensor
Leibniz brackets must be the same tensors, the equivariance report must have
the same JSON, and a construction that raises must raise the same error."""

import itertools
import random
import re
from fractions import Fraction as F

import pytest

import oracle_faulkner as of
from nambucat import (BilinearForm, BracketTensor, HomNambuAlgebra, Matrix,
                      Vector, corpus)
from nambucat.constructions import ConstructionError, tensor_product
from nambucat.faulkner import (QuadraticLieAlgebra, _actions, check_phi_equivariance,
                               faulkner_ternary, omega_twist_leibniz, phi_map,
                               tensor_leibniz)
from nambucat.linalg import kron, rank

SL2 = corpus.load("sl2")
# e, f, h -> -e, -f, h: an involutive automorphism of sl2 that is symmetric
# for its form
SL2_INVOLUTION = Matrix.diagonal([-1, -1, 1])


def _direct_sum(g: QuadraticLieAlgebra, scale: int) -> QuadraticLieAlgebra:
    """g + g, the second copy's form scaled by ``scale``."""
    d = g.dim
    items = {}
    for (i, j), v in g.algebra.bracket.dense_items():
        items[(i, j)] = Vector(list(v.entries) + [0] * d)
        items[(i + d, j + d)] = Vector([0] * d + list(v.entries))
    G = g.form.gram
    gram = Matrix(2 * d, 2 * d, [G[i % d, j % d] * (1 if i < d else scale) if i // d == j // d
                                 else 0 for i in range(2 * d) for j in range(2 * d)])
    algebra = HomNambuAlgebra(2 * d, 2, BracketTensor.skew_from_entries(2 * d, 2, items),
                              (Matrix.identity(2 * d),), multiplicative=True)
    return QuadraticLieAlgebra(algebra, BilinearForm(2 * d, gram))


def _random_forms(count: int, seed: int):
    """sl2 with nondegenerate symmetric forms that are not invariant: every
    other one random, the rest its invariant form with one symmetric pair of
    entries changed."""
    rng = random.Random(seed)
    G = SL2.form.gram
    out = []
    while len(out) < count:
        if len(out) % 2:
            i, j = rng.randrange(3), rng.randrange(3)
            c = rng.choice([-2, -1, 1, 2])
            gram = Matrix(3, 3, [G[r, k] + (c if {r, k} == {i, j} else 0)
                                 for r in range(3) for k in range(3)])
        else:
            a, b, c, d, e, f = (rng.randint(-2, 2) for _ in range(6))
            gram = Matrix.from_rows([[a, b, c], [b, d, e], [c, e, f]])
        if rank(gram) == 3:
            out.append(QuadraticLieAlgebra(SL2.algebra, BilinearForm(3, gram)))
    return out


SL2_SUM = _direct_sum(SL2, 2)
RANDOM = _random_forms(25, seed=2009)
ALGEBRAS = [SL2, SL2_SUM] + RANDOM
IDS = ["sl2", "sl2+sl2"] + [f"sl2-form{i}" for i in range(len(RANDOM))]


# ------------------------------------------------------------------ swap_output

def _tensors():
    """Tensors with vdim == dim: corpus brackets (skew and dense storage) and
    their transforms, plus a dense tensor with repeated indices."""
    out = []
    for name in ("sl2", "example1", "example2", "simple3lie4", "heisenberg3", "zero3"):
        obj = corpus.load(name)
        a = getattr(obj, "algebra", obj)
        out.append(a.bracket)
        out.append(a.bracket.transform([None] * a.arity,
                                       out_map=Matrix.diagonal(range(1, a.dim + 1))))
    out.append(BracketTensor(2, 3, {(0, 0, 1): Vector([1, F(-1, 2)]),
                                    (1, 1, 1): Vector([0, 3])}))
    return out


def _naive_swap(T: BracketTensor, slot: int) -> BracketTensor:
    items = {}
    for t in itertools.product(range(T.dim), repeat=T.arity):
        row = [T.value(t[:slot] + (r,) + t[slot + 1:])[t[slot]] for r in range(T.dim)]
        if any(row):
            items[t] = Vector(row)
    return BracketTensor(T.dim, T.arity, items)


@pytest.mark.parametrize("T", _tensors(), ids=repr)
def test_swap_output_twice_gives_input_and_matches_naive(T):
    for slot in range(T.arity):
        S = T.swap_output(slot)
        assert S == _naive_swap(T, slot)
        assert not S.skew_storage
        assert S.swap_output(slot) == T


def test_swap_output_rejects_bad_slot_and_shape():
    C = SL2.algebra.bracket
    for slot in (-1, 2):
        with pytest.raises(ValueError, match="no slot"):
            C.swap_output(slot)
    wide = BracketTensor(2, 2, {(0, 1): Vector([1, 0, 0])}, vdim=3)
    with pytest.raises(ValueError, match="vdim == dim"):
        wide.swap_output(0)


# -------------------------------------------------------- Faulkner construction

@pytest.mark.parametrize("g", ALGEBRAS, ids=IDS)
def test_phi_and_coadjoint_match_oracle(g):
    d = g.dim
    D, phi = _actions(g)
    basis = [Vector.basis(d, i) for i in range(d)]
    for x, f in itertools.product(basis, basis):
        assert D.eval([x, f]) == of.dual_action(g, x, f)
        assert phi.eval([x, f]) == of.phi_map(g, x, f)
    x = Vector([F(i + 1, 2) for i in range(d)])
    f = Vector([(-1) ** i * (i + 2) for i in range(d)])
    assert phi_map(g, x, f) == of.phi_map(g, x, f)


@pytest.mark.parametrize("g", ALGEBRAS, ids=IDS)
def test_builders_and_equivariance_match_oracle(g):
    new = tensor_leibniz(g, verify=False).bracket
    assert new == of.tensor_leibniz_bracket(g)
    assert new.coeffs == of.tensor_leibniz_entries(g).coeffs
    assert check_phi_equivariance(g).to_json() == of.check_phi_equivariance(g).to_json()
    try:
        want = of.ternary_bracket(g)
    except ConstructionError as e:
        with pytest.raises(ConstructionError, match=re.escape(str(e))):
            faulkner_ternary(g, verify=False)
    else:
        assert faulkner_ternary(g, verify=False).algebra.bracket == want


def test_random_forms_reach_failures():
    """The random forms are not a vacuous sample: equivariance fails on them
    at several different tuples, and since T is antisymmetric exactly when
    the form is invariant, every one of them takes the error path."""
    counts = {of.check_phi_equivariance(g).tuples_checked for g in RANDOM}
    assert len(counts) > 2
    for g in RANDOM:
        with pytest.raises(ConstructionError, match="T is not antisymmetric"):
            of.ternary_bracket(g)


@pytest.mark.parametrize("g, alpha", [
    (SL2, Matrix.identity(3)), (SL2, SL2_INVOLUTION),
    (SL2_SUM, Matrix.diagonal([-1, -1, 1, 1, 1, 1]))], ids=["sl2-id", "sl2-inv", "sum-inv"])
def test_twisted_builders_match_oracle(g, alpha):
    out, form = omega_twist_leibniz(g, alpha, verify=False)
    want, want_form = of.omega_twist_bracket(g, alpha)
    assert out.bracket == want.bracket
    assert out.twist == want.twist and form == want_form
    q = faulkner_ternary(g, alpha=alpha, verify=False)
    assert q.algebra.bracket == of.ternary_bracket(g, alpha)
    assert q.form.gram == alpha.T @ g.form.gram


def test_verified_builders_pass(sl2):
    out, _ = omega_twist_leibniz(sl2, SL2_INVOLUTION)
    assert out.twist == kron(SL2_INVOLUTION, SL2_INVOLUTION.T)
    q = faulkner_ternary(sl2, alpha=SL2_INVOLUTION)
    assert q.algebra.twists == (SL2_INVOLUTION,) * 2


# ------------------------------------------------- tensor product form hypothesis

def _grams():
    for a, b, c in itertools.product((0, 1, 2), repeat=3):
        yield Matrix.from_rows([[a, b], [b, c]])


BETAS = [Matrix.identity(2), Matrix.diagonal([1, -1]), Matrix.from_rows([[0, 1], [1, 0]])]


@pytest.mark.parametrize("beta", BETAS, ids=["id", "diag", "swap"])
def test_tensor_form_hypothesis_matches_oracle(dualnum, s4, beta):
    outcomes = set()
    for ga in _grams():
        invariant = of.form_beta_invariant(dualnum, ga, beta)
        outcomes.add(invariant)
        form = BilinearForm(2, ga)
        if invariant:
            q = tensor_product(dualnum, s4.algebra, form_h=form, beta_h=beta,
                               form_a=s4, verify=False)
            assert q.beta == kron(beta, Matrix.identity(4))
        else:
            with pytest.raises(ConstructionError, match="not beta-invariant"):
                tensor_product(dualnum, s4.algebra, form_h=form, beta_h=beta,
                               form_a=s4, verify=False)
    assert outcomes == {True, False}


def test_tensor_product_rejects_non_invariant_form(dualnum, s4):
    # with B the standard form, B(e1 e2 e1, e2) = 1 but B(e1, e1 e2 e2) = 0
    form = BilinearForm(2, Matrix.identity(2))
    assert not of.form_beta_invariant(dualnum, form.gram, Matrix.identity(2))
    with pytest.raises(ConstructionError,
                       match="first factor form is not beta-invariant for the product"):
        tensor_product(dualnum, s4.algebra, form_h=form, form_a=s4)
