"""The sparse structure-space solver against the dense reference solver,
plus metamorphic and closed-form checks where the reference is too slow."""

import itertools
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_skew
import oracle_spaces as oracle
from conftest import filippov, skew_tensors, slot_maps
from nambucat import (BilinearForm, BracketTensor, HomNambuAlgebra, Matrix, Vector,
                      corpus)
from nambucat.constructions import induced_hom_leibniz, tstar_extension
from nambucat.constructions import twist_by_morphism
from nambucat.fileio import subspace_to_document, to_document
from nambucat.linalg import SparseMatrix, nullspace, solve_matrix
from nambucat.spaces import (_assemble, _twist_power, compute_center,
                             compute_central_derivations, compute_centroid,
                             compute_derivations, inner_derivation,
                             tensor_centroid_derivation, varsigma_hom_lie)

LEVELS = (-1, 0, 1, 2)


def _inputs():
    out = {}
    for name in corpus.corpus_names():
        obj = corpus.load(name)
        a = getattr(obj, "algebra", obj)     # quadratic wrappers hold an algebra
        if isinstance(a, HomNambuAlgebra):
            out[name] = a
    out["A4"], out["A5"] = filippov(4), filippov(5)
    out["tstar(simple3lie4)"] = tstar_extension(out["simple3lie4"],
                                                BilinearForm.standard(4)).algebra
    out["leibniz(example1)"] = induced_hom_leibniz(out["example1"]).as_nambu()
    return out


INPUTS = _inputs()


def _same(new, old, *args):
    """Both raise the same ValueError, or both give the same document."""
    try:
        want = subspace_to_document(old(*args))
    except ValueError as e:
        with pytest.raises(ValueError, match=str(e)):
            new(*args)
        return
    assert subspace_to_document(new(*args)) == want


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_spaces_match_dense_oracle(name):
    a = INPUTS[name]
    for k in LEVELS:
        _same(compute_centroid, oracle.centroid, a, k)
        _same(compute_derivations, oracle.derivations, a, k)
    _same(compute_center, oracle.center, a)
    _same(compute_central_derivations, oracle.central_derivations, a)


def test_oracle_inputs_cover_the_corpus():
    # every bundled n-ary algebra; dualnumbers3 is an associative product
    assert set(corpus.corpus_names()) - set(INPUTS) == {"dualnumbers3"}


rationals = st.one_of(st.just(F(0)), st.just(F(0)),
                      st.fractions(min_value=-9, max_value=9, max_denominator=5))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.data())
def test_nullspace_matches_dense_oracle(rows, cols, data):
    m = Matrix(rows, cols, data.draw(st.lists(rationals, min_size=rows * cols,
                                              max_size=rows * cols)))
    want = oracle.dense_nullspace(m)
    assert nullspace(m) == want
    assert nullspace(SparseMatrix(cols, m.sparse_rows())) == want


def _change_basis(a, p):
    """The algebra in the basis f_j = p e_j, a skew bracket re-stored skew."""
    d = a.dim
    pinv = solve_matrix(p, Matrix.identity(d))
    bracket = a.bracket.transform([p] * a.arity, out_map=pinv)
    if a.skew:
        bracket = bracket.skew_canonical()
    twists = tuple(pinv @ t @ p for t in a.twists)
    return HomNambuAlgebra(d, a.arity, bracket, twists, multiplicative=a.multiplicative)


def _relabel(a, perm, signs):
    """The algebra in the basis f_i = signs[i] e_perm[i]."""
    d = a.dim
    return _change_basis(a, Matrix(d, d, [signs[j] if perm[j] == i else 0
                                          for i in range(d) for j in range(d)]))


def _dim(solve, *args):
    try:
        return solve(*args).dimension
    except ValueError:      # twists differ
        return None


def _dims(a):
    return [_dim(compute_center, a), _dim(compute_central_derivations, a)] + [
        _dim(solve, a, k) for k in (-1, 0, 1)
        for solve in (compute_centroid, compute_derivations)]


@pytest.mark.parametrize("name", ["A4", "heisenberg3", "example1", "example2",
                                  "leibniz(example1)"])
def test_signed_permutation_keeps_dimensions(name):
    a = INPUTS[name]
    rng = random.Random(name)
    for _ in range(2):
        perm = list(range(a.dim))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(a.dim)]
        assert _dims(_relabel(a, perm, signs)) == _dims(a)


def _invertible(rng, d):
    """A random unit lower times unit upper triangular integer matrix with
    its rows permuted, so invertible."""
    lower = Matrix(d, d, [1 if i == j else rng.randint(-1, 2) if i > j else 0
                          for i in range(d) for j in range(d)])
    upper = Matrix(d, d, [1 if i == j else rng.randint(-1, 1) if i < j else 0
                          for i in range(d) for j in range(d)])
    perm = list(range(d))
    rng.shuffle(perm)
    return Matrix(d, d, [1 if perm[i] == j else 0 for i in range(d) for j in range(d)]) \
        @ lower @ upper


@pytest.mark.parametrize("name", ["A5", "tstar(simple3lie4)"])
def test_invertible_change_of_basis_keeps_dimensions(name):
    a = INPUTS[name]
    want = _dims(a)
    rng = random.Random(name)
    for _ in range(2):
        p = _invertible(rng, a.dim)
        assert sum(1 for x in p.entries if x) > a.dim      # not a signed permutation
        b = _change_basis(a, p)
        assert b.bracket.skew_storage and b.bracket != a.bracket
        assert _dims(b) == want


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 5).flatmap(lambda d: st.tuples(st.just(d), st.integers(2, min(d, 4)))),
       st.data())
def test_skew_storage_spaces_match_oracle(shape, data):
    """Random skew-storage brackets, with identity, invertible or singular
    twists: the spaces assembled on one tuple per orbit equal those
    assembled on every expanded entry, at k = -1 to 2."""
    d, n = shape
    C = data.draw(skew_tensors(d, n, d))
    alpha = data.draw(slot_maps(d, data.draw(st.sampled_from(("identity", "invertible",
                                                               "singular")))))
    a = HomNambuAlgebra(d, n, C, (alpha,) * (n - 1))
    for k in LEVELS:
        _same(compute_centroid, oracle_skew.centroid, a, k)
        _same(compute_derivations, oracle_skew.derivations, a, k)
    _same(compute_center, oracle_skew.center, a)
    _same(compute_central_derivations, oracle_skew.central_derivations, a)


def test_filippov_a6_against_theory():
    """A_6 is simple: centroid = scalars, derivations = so(6), no center."""
    a = filippov(6)
    assert compute_centroid(a, 0).dimension == 1
    assert compute_derivations(a, 0).dimension == 15
    assert compute_center(a).dimension == 0


# ------------------------------------------ integer rows against Fraction rows

def _integer_systems(a, k):
    """{space: the rows the solvers hand to the nullspace} at level k, the
    derivations without the rows of D alpha = alpha D."""
    d, n = a.dim, a.arity
    pw = _twist_power(a, k)
    return {"centroid": _assemble(d, d, a.bracket, [(0, a.bracket, pw)]),
            "derivations": _assemble(d, d, a.bracket, [(i, a.bracket, pw) for i in range(n)]),
            "center": _assemble(d, 1, None, [(0, a.bracket, None)])}


def _fraction_systems(a, k):
    return {"centroid": oracle_skew.fraction_centroid_rows(a, k),
            "derivations": oracle_skew.fraction_derivation_rows(a, k),
            "center": oracle_skew.fraction_center_rows(a)}


def _by_direction(rows):
    """Rows without zero entries, sorted by their entries divided by the
    leading one and then by the leading entry; a common positive factor
    keeps this order."""
    rows = [{c: x for c, x in row.items() if x} for row in rows]

    def key(row):
        lead = row[min(row)]
        return [(c, F(row[c]) / lead) for c in sorted(row)], F(lead)
    return sorted(rows, key=key)


def _assert_scaled(new, old):
    """The integer rows are the Fraction rows, no more and no fewer, each
    times one common positive factor (the rows may come in another order)."""
    assert len(new) == len(old)
    assert all(type(x) is int and x for row in new for x in row.values())
    factors = set()
    for row, want in zip(_by_direction(new), _by_direction(old)):
        assert row.keys() == want.keys()
        factors |= {F(x) / want[c] for c, x in row.items()}
    assert len(factors) <= 1 and all(f > 0 for f in factors)


def _assert_same_systems(a):
    for k in LEVELS:
        try:
            new = _integer_systems(a, k)
        except ValueError:      # distinct twists have no common power
            with pytest.raises(ValueError, match="twists differ"):
                _fraction_systems(a, k)
        else:
            old = _fraction_systems(a, k)
            for space in new:
                _assert_scaled(new[space], old[space])
        _same(compute_centroid, oracle_skew.fraction_centroid, a, k)
        _same(compute_derivations, oracle_skew.fraction_derivations, a, k)
    _same(compute_center, oracle_skew.fraction_center, a)
    _same(compute_central_derivations, oracle_skew.fraction_central_derivations, a)


# the corpus, the solve-spaces bench inputs (A5, the T*-extension of A4 and
# the induced Leibniz algebra of example1), and A6
SYSTEM_INPUTS = dict(INPUTS)
SYSTEM_INPUTS["tstar(A4)"] = tstar_extension(filippov(4), BilinearForm.standard(4)).algebra
SYSTEM_INPUTS["A6"] = filippov(6)


@pytest.mark.parametrize("name", sorted(SYSTEM_INPUTS))
def test_integer_assembly_matches_fraction_assembly(name):
    _assert_same_systems(SYSTEM_INPUTS[name])


# entries with denominators 2, 3 and 6
fractional = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-1, 3), F(5, 6)])


@st.composite
def fractional_algebras(draw):
    """A random bracket with non-integer entries, in skew or dense storage,
    with one identity, invertible or singular twist scaled by 1, 1/3 or -2/3."""
    d = draw(st.integers(2, 5))
    n = draw(st.integers(2, min(d, 4)))
    skew = draw(st.booleans())
    keys = (list(itertools.combinations(range(d), n)) if skew
            else list(itertools.product(range(d), repeat=n)))
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=6))
    C = BracketTensor(d, n, {t: Vector(draw(st.lists(fractional, min_size=d, max_size=d)))
                             for t in chosen}, skew_storage=skew)
    alpha = draw(slot_maps(d, draw(st.sampled_from(("identity", "invertible", "singular")))))
    alpha = alpha.scale(draw(st.sampled_from((1, F(1, 3), F(-2, 3)))))
    return HomNambuAlgebra(d, n, C, (alpha,) * (n - 1))


@settings(max_examples=80, deadline=None)
@given(fractional_algebras())
def test_integer_assembly_matches_fraction_assembly_on_random_brackets(a):
    _assert_same_systems(a)


def _same_outcome(new, old, canonical, *args):
    """Both raise the same ValueError, or both give the same results."""
    try:
        want = canonical(*old(*args))
    except ValueError as e:
        with pytest.raises(ValueError, match=f"^{re.escape(str(e))}$"):
            new(*args)
        return
    assert canonical(*new(*args)) == want


def _varsigma_results(out, jacobi, skew):
    return to_document(out), jacobi.to_json(), skew.to_json()


VARSIGMA_INPUTS = {name: INPUTS[name] for name in corpus.corpus_names() if name in INPUTS}
VARSIGMA_INPUTS["twisted simple3lie4"] = twist_by_morphism(
    INPUTS["simple3lie4"], Matrix.diagonal([F(1), F(1), F(-1), F(-1)]))


# the full window is left out on zero3 and zero4: every matrix is a
# derivation there, and the checks on the graded space of dim 36 and 64 run
# over the cube of its dimension
@pytest.mark.parametrize("name, levels", [
    pytest.param(name, levels, id=f"{name}{list(levels)}") for name in sorted(VARSIGMA_INPUTS)
    for levels in ((0,), (0, 1), (-1, 0, 1, 2))
    if levels == (0,) or name not in ("zero3", "zero4")])
def test_varsigma_matches_oracle(name, levels):
    """The graded bracket, the shift map, both reports, or the error."""
    _same_outcome(varsigma_hom_lie, oracle.varsigma_hom_lie, _varsigma_results,
                  VARSIGMA_INPUTS[name], levels)


def _tensor_results(m, report):
    return m, report.to_json()


def test_tensor_centroid_derivation_matches_oracle():
    """Both modes on members and non-members, a non-member f and an unknown
    mode: the Kronecker map and its report, or the same error."""
    h = corpus.load("dualnumbers3")
    s4 = INPUTS["simple3lie4"]
    t = Matrix.from_rows([[F(0), F(0)], [F(1), F(0)]])     # multiply by t
    D = inner_derivation(s4, [Vector.basis(4, 0), Vector.basis(4, 1)], 0)
    maps = {"2 id": Matrix.identity(4).scale(F(2)), "D": D,
            "diag(1, 2, 1, 1)": Matrix.diagonal([F(1), F(2), F(1), F(1)])}
    for f in (t, Matrix.identity(2), Matrix.diagonal([F(1), F(2)])):
        for g in maps.values():
            for mode in ("centroid", "derivation", "other"):
                _same_outcome(tensor_centroid_derivation, oracle.tensor_centroid_derivation,
                              _tensor_results, h, s4, f, g, mode, 0)
