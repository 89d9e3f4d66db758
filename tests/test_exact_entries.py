"""Exact rationals are coerced once.  ``frac`` parses a "p/q" string in one
step, and must agree with the two-step parse it replaced
(``oracle_linalg.frac``) on every input.  ``Vector`` and ``Matrix``
arithmetic builds its results without coercing them again, and must agree
with the coercing arithmetic it replaced (``oracle_linalg``).  These and the
other producers that wrap values the engine holds with ``Vector.trusted`` or
``Matrix.trusted`` must still hand out ``Fraction`` entries only."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_linalg
import oracle_spaces
from conftest import entries, filippov, matrix, skew_tensors, slot_maps, tensors
from nambucat import (BilinearForm, BracketTensor, HomAssocNAry, HomLeibnizAlgebra,
                      HomNambuAlgebra, Matrix, Vector, corpus)
from nambucat.checks import check_hom_nambu_identity
from nambucat.constructions import trace_induced_ternary, tstar_extension
from nambucat.faulkner import omega_twist_leibniz
from nambucat.linalg import (SparseMatrix, frac, in_span, kron, kron_vec, nullspace, rref,
                             solve, solve_matrix)
from nambucat.representations import adjoint_rep, coadjoint_rep
from nambucat.spaces import _derived_span, varsigma_hom_lie


def outcome(f, *args):
    """What ``f(*args)`` gives: the value and its type, or the exception's
    type and message."""
    try:
        value = f(*args)
    except Exception as e:
        return "raises", type(e), str(e)
    return "returns", type(value), value


# ------------------------------------------------------------ the one-step parse

# Arabic-Indic, fullwidth and mathematical digits are decimal digits to the
# regex and to int(); superscript two and U+2212 MINUS SIGN are not
DIGITS = "0123456789" + "٣٤５\U0001d7d9" + "²"
SPACES = " \t\n\x0b\x1c  　"

number = st.text(alphabet=DIGITS, max_size=4)       # empty, leading zeros, mixed scripts
rational_like = st.builds(
    lambda *parts: "".join(parts),
    st.text(alphabet=SPACES, max_size=2),
    st.sampled_from(["", "+", "-", "--", "−"]),
    number,
    st.one_of(st.just(""), st.builds("/{}{}".format, st.sampled_from(["", "+", "-", " "]),
                                     number),
              st.sampled_from(["/0", "/00", ".5", "/2.5", "e3", "_0"])),
    st.text(alphabet=SPACES, max_size=2))

CASES = ["", " ", "0", "-0", "+0", "7", "-7", "+7", " -3/4 ", "\t5\n", "007/010", "-0/5",
         "1/0", "-3/0", "0/0", "1/-2", "-1/-2", "0.5", "1e3", "1_000", "1 /2", "1/ 2",
         "/2", "1/", "+-1", "−" + "1", "٣/٤", "１２", "1²",
         " 1/3　"]


@pytest.mark.parametrize("x", CASES)
def test_frac_matches_the_two_step_parse_on_listed_strings(x):
    assert outcome(frac, x) == outcome(oracle_linalg.frac, x)


def test_frac_matches_the_two_step_parse_past_the_int_digit_limit():
    for x in ("9" * 4301, "-" + "9" * 4301, "1/" + "9" * 4301):
        assert outcome(frac, x) == outcome(oracle_linalg.frac, x)


@settings(max_examples=400, deadline=None)
@given(st.one_of(rational_like, st.text(max_size=8)))
def test_frac_matches_the_two_step_parse(x):
    assert outcome(frac, x) == outcome(oracle_linalg.frac, x)


@given(st.one_of(st.integers(), st.booleans(), st.fractions(), st.floats(), st.none()))
def test_frac_matches_the_two_step_parse_off_strings(x):
    assert outcome(frac, x) == outcome(oracle_linalg.frac, x)


# ------------------------------------------------------------ trusted producers

def fractions_only(values) -> bool:
    return all(type(x) is F for x in values)


def tensor_values(t: BracketTensor) -> list:
    return [x for v in t.coeffs.values() for x in v.entries]


# ------------------------------------------------------------ trusted arithmetic

# scalars as Fractions, ints and "p/q" strings, and scalars scale must refuse
scalars = st.one_of(st.fractions(min_value=-4, max_value=4, max_denominator=4),
                    st.integers(-4, 4),
                    st.builds("{}/{}".format, st.integers(-4, 4), st.integers(1, 4)))
bad_scalars = st.one_of(st.booleans(), st.floats(), st.none(), st.complex_numbers(),
                        st.sampled_from(["x", "", "0.5", "1/0", "1/-2"]))


def vector(draw, dim: int) -> Vector:
    return Vector(draw(st.lists(entries, min_size=dim, max_size=dim)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_arithmetic_matches_the_coercing_oracle_and_hands_out_fractions(data):
    """Every operation gives the oracle's entries, each a Fraction, or raises
    the oracle's exception type and message: mismatched shapes and scalars
    that are bools or not rational included."""
    d, e = data.draw(st.integers(0, 4), label="dim"), data.draw(st.integers(0, 4))
    r, c = data.draw(st.integers(0, 3), label="rows"), data.draw(st.integers(0, 3))
    u, v, w = vector(data.draw, d), vector(data.draw, d), vector(data.draw, e)
    m, n, p = matrix(data.draw, r, c), matrix(data.draw, r, c), matrix(data.draw, c, r)
    i = data.draw(st.integers(0, d), label="basis index")
    o = oracle_linalg
    cases = [
        (Vector.__add__, o.vector_add, u, v), (Vector.__add__, o.vector_add, u, w),
        (Vector.__sub__, o.vector_sub, u, v), (Vector.__sub__, o.vector_sub, w, u),
        (Vector.__neg__, o.vector_neg, u),
        (Vector.zero, o.vector_zero, d), (Vector.basis, o.vector_basis, d, i),
        (kron_vec, o.kron_vec, u, w),
        (Matrix.__add__, o.matrix_add, m, n), (Matrix.__add__, o.matrix_add, m, p),
        (Matrix.__sub__, o.matrix_sub, m, n), (Matrix.__sub__, o.matrix_sub, p, m),
        (Matrix.__neg__, o.matrix_neg, m),
        (Matrix.identity, o.matrix_identity, r), (Matrix.zero, o.matrix_zero, r, c),
        (kron, o.kron, m, p),
        # results of results
        (lambda x, y: (x - y).scale(-1) + -x, lambda x, y: o.vector_add(
            o.vector_scale(o.vector_sub(x, y), -1), o.vector_neg(x)), u, v),
        (lambda x, y: kron(x + y, x).scale(2) - kron(y, y), lambda x, y: o.matrix_sub(
            o.matrix_scale(o.kron(o.matrix_add(x, y), x), 2), o.kron(y, y)), m, n),
    ]
    for s in (data.draw(scalars, label="scalar"), data.draw(bad_scalars, label="bad scalar")):
        cases += [(Vector.scale, o.vector_scale, u, s), (Matrix.scale, o.matrix_scale, m, s)]
    for new, old, *args in cases:
        got = outcome(new, *args)
        assert got == outcome(old, *args), (new, args)
        if got[0] == "returns":
            assert fractions_only(got[2].entries), (new, args, got[2])


@pytest.mark.parametrize("scalar", [True, False, 0.5, None, "x", "1/0"])
def test_scale_still_refuses_what_frac_refuses(scalar):
    """scale coerces its scalar first, so even an empty vector or matrix
    raises for a bool or a non-rational scalar."""
    for new, old, arg in ((Vector.scale, oracle_linalg.vector_scale, Vector([])),
                          (Matrix.scale, oracle_linalg.matrix_scale, Matrix.zero(0, 0))):
        got = outcome(new, arg, scalar)
        assert got[0] == "raises" and got == outcome(old, arg, scalar)


def test_zero_and_basis_share_their_fractions():
    """zero, identity and basis entries are the module's Fraction(0) and
    Fraction(1), shared across calls."""
    zeros = Vector.zero(3).entries + Matrix.zero(2, 2).entries
    ones = [Vector.basis(3, 1)[1], Matrix.identity(2)[0, 0], Matrix.identity(2)[1, 1]]
    assert zeros == (F(0),) * 7 and ones == [F(1)] * 3
    assert len({id(x) for x in zeros + Vector.basis(3, 1).entries[::2]}) == 1
    assert len({id(x) for x in ones}) == 1
    assert fractions_only(zeros + tuple(ones))


# ------------------------------------------------------------ trusted call sites

@settings(max_examples=60, deadline=None)
@given(st.data())
def test_solvers_match_the_dense_oracle_and_hand_out_fractions(data):
    """rref, solve, solve_matrix and in_span wrap their results with the
    trusted constructors: equal to the dense oracle, Fractions only."""
    r, c = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    m = matrix(data.draw, r, c)
    rhs = matrix(data.draw, r, data.draw(st.integers(1, 2)))
    b = rhs.col(0)
    basis = [m.col(j) for j in range(c)]
    reduced, pivots = rref(m)
    assert (reduced, pivots) == oracle_spaces.rref(m)
    x, xs = solve(m, b), solve_matrix(m, rhs)
    assert x == oracle_spaces.solve(m, b)
    assert xs is None if x is None else xs is None or xs.col(0) == x
    coeffs = in_span(basis, b)
    assert coeffs == oracle_spaces.in_span(basis, b)
    assert in_span([], Vector([0] * r)) == Vector([])
    for result in (reduced, x, xs, coeffs, in_span([], Vector.zero(r))):
        assert result is None or fractions_only(result.entries)


def perturbed_a4() -> HomNambuAlgebra:
    """Filippov's A4 with 1/2 added to one coordinate of one bracket value:
    skew, one twist, and failing the fundamental identity."""
    a = filippov(4)
    items = dict(a.bracket.coeffs)
    key = min(items)
    items[key] = items[key] + Vector.basis(4, 0).scale("1/2")
    return HomNambuAlgebra(4, 3, BracketTensor(4, 3, items, skew_storage=True), a.twists)


def test_builders_and_representations_hand_out_fractions():
    """The call sites that wrap engine values with the trusted constructors:
    the T*-extension's rows and block matrices, the trace-induced bracket,
    the twisted tensor Leibniz form, the (co)adjoint tensors and their
    operators, the varsigma algebra, the derived span and the skew
    identity's counterexample."""
    s4, sl2 = corpus.load("simple3lie4"), corpus.load("sl2")
    sign = Matrix.diagonal([1, 1, -1, -1])
    plain = tstar_extension(s4.algebra, BilinearForm.standard(4))
    twisted = tstar_extension(s4.algebra, BilinearForm(4, Matrix.zero(4, 4)), omega=sign,
                              verify=False)
    l = HomLeibnizAlgebra(sl2.dim, sl2.algebra.bracket, sl2.algebra.twists[0])
    tern = trace_induced_ternary(l, l.twist, Vector([1, F(1, 2), -2]), verify=False)
    leib, form = omega_twist_leibniz(sl2, sl2.algebra.twists[0], verify=False)
    adj, (co, _) = adjoint_rep(s4.algebra), coadjoint_rep(s4.algebra)
    varsigma = varsigma_hom_lie(s4.algebra, (0,))[0]
    failure = check_hom_nambu_identity(perturbed_a4())
    assert not failure.passed
    values = (tensor_values(plain.algebra.bracket) + tensor_values(twisted.algebra.bracket)
              + tensor_values(tern.bracket) + tensor_values(leib.bracket)
              + tensor_values(adj.rho) + tensor_values(co.rho)
              + tensor_values(varsigma.bracket))
    matrices = [plain.structure.form.gram, twisted.omega, twisted.omega_form.gram,
                form.gram, varsigma.twist]
    matrices += [rep.operator(t) for rep in (adj, co) for t in rep.rho.coeffs]
    vectors = _derived_span(s4.algebra) + [failure.counterexample.left,
                                           failure.counterexample.right]
    values += [x for m in matrices for x in m.entries] + [x for v in vectors for x in v]
    assert fractions_only(values)
    for rep in (adj, co):
        for t, v in rep.rho.coeffs.items():
            assert rep.operator(t) == Matrix(rep.target_dim, rep.target_dim, v.entries)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tensor_kernels_hand_out_fractions(data):
    d = data.draw(st.integers(1, 3), label="dim")
    vdim = data.draw(st.integers(1, 4).filter(lambda v: v != d), label="vdim")
    e = data.draw(st.integers(1, 3), label="inner dim")
    a, b = data.draw(tensors(d, 2, vdim)), data.draw(tensors(d, 2, vdim))
    inner, other = data.draw(tensors(e, 1, d)), data.draw(tensors(e, 2, d))
    pairs = [[(0, 0), (1, 0)], [(0, 1), (1, 1)]]       # slot p reads slot p of each factor
    point = Vector(data.draw(st.lists(entries, min_size=d, max_size=d)))
    results = [
        a.compose([inner, other]),
        a.compose([BracketTensor.constant(point), None]),
        BracketTensor.combine([(1, a), (-2, b)]),
        BracketTensor.kron([([a, other], pairs), ([b, other], pairs)]),
        data.draw(tensors(d, 2, d)).swap_output(data.draw(st.integers(0, 1))),
    ]
    for result in results:
        assert fractions_only(tensor_values(result)), result


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_transform_by_minors_hands_out_fractions(data):
    vdim = data.draw(st.sampled_from([1, 2, 4]), label="vdim")
    t = data.draw(skew_tensors(3, 2, vdim))
    m = data.draw(slot_maps(3, data.draw(st.sampled_from(["invertible", "singular",
                                                          "rectangular"]))))
    out_map = matrix(data.draw, 2, vdim)
    minors = t.transform([m, m])
    assert minors.skew_storage
    for result in (minors, t.transform([m, m], out_map=out_map)):
        assert fractions_only(tensor_values(result))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_elimination_and_matrix_products_hand_out_fractions(data):
    r, c = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    m, n = matrix(data.draw, r, c), matrix(data.draw, c, r)
    v = Vector(data.draw(st.lists(entries, min_size=c, max_size=c)))
    rows = [{j: x for j, x in enumerate(m.entries[i * c:(i + 1) * c]) if x} for i in range(r)]
    ints = [{j: int(2 * x) for j, x in row.items()} for row in rows]     # entries are halves
    vectors = (nullspace(m) + nullspace(SparseMatrix(c, rows)) + nullspace(SparseMatrix(c, ints))
               + [m.apply(v), m.row(r - 1), m.col(c - 1), m.flatten()])
    for x in vectors:
        assert fractions_only(x.entries)
    for product in (m @ n, n @ m, m.transpose()):
        assert fractions_only(product.entries)


def loaded_values(obj) -> list:
    """Every rational a loaded file holds: the bracket's outputs, the twists,
    the form and beta."""
    a = getattr(obj, "algebra", obj)
    tensor = a.mu if isinstance(a, HomAssocNAry) else a.bracket
    matrices = [a.twist] if isinstance(a, HomLeibnizAlgebra) else list(a.twists)
    form = getattr(obj, "form", None)
    matrices += [m for m in (form and form.gram, getattr(obj, "beta", None)) if m is not None]
    return tensor_values(tensor) + [x for m in matrices for x in m.entries]


@pytest.mark.parametrize("name", corpus.corpus_names())
def test_decoded_corpus_files_hold_fractions(name):
    values = loaded_values(corpus.load(name))
    assert values and fractions_only(values)
