"""Exact rationals are coerced once.  ``frac`` parses a "p/q" string in one
step, and must agree with the two-step parse it replaced
(``oracle_linalg.frac``) on every input.  The producers that wrap values the
engine holds with ``Vector.trusted`` or ``Matrix.trusted``, without
coercing them, must still hand out ``Fraction`` entries only."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_linalg
from conftest import entries, matrix, skew_tensors, slot_maps, tensors
from nambucat import BracketTensor, HomAssocNAry, HomLeibnizAlgebra, Vector, corpus
from nambucat.linalg import SparseMatrix, frac, nullspace


def outcome(coerce, x):
    """What ``coerce(x)`` gives: the value and its type, or the exception's
    type and message."""
    try:
        value = coerce(x)
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
