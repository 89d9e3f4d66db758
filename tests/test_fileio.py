"""Serialization: round trips, flag verification, and malformed input."""

import json
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from nambucat import (HomLeibnizAlgebra, Matrix, QuadraticStructure,
                      TupleBudgetExceeded, Vector, corpus, fileio)
from nambucat.checks import (check_hom_nambu_identity, check_multiplicativity,
                             check_quadratic, check_skew_symmetry)
from nambucat.fileio import FileFormatError, FlagVerificationError


ALL_NAMES = corpus.corpus_names()


def _path(name):
    return Path(corpus.corpus_path(name))


def test_corpus_is_nonempty():
    assert len(ALL_NAMES) >= 8


@pytest.mark.parametrize("name", ALL_NAMES)
def test_roundtrip_byte_identical(name, tmp_path):
    src = _path(name)
    original = src.read_text()
    obj = fileio.load(src)
    out = tmp_path / "out.json"
    meta = fileio.load_document(src).get("metadata", {})
    fileio.save(obj, out, name=meta.get("name"),
                provenance=meta.get("provenance"))
    assert out.read_text() == original


@pytest.mark.parametrize("name", ALL_NAMES)
def test_load_equals_loads(name):
    src = _path(name)
    assert fileio.load(src) == fileio.loads(src.read_text())


def test_false_skew_claim_fails_closed():
    doc = fileio.load_document(_path("example1"))
    assert doc["flags"]["skew"] is False
    doc["flags"]["skew"] = True
    with pytest.raises(FlagVerificationError):
        fileio.from_document(doc)


def test_false_multiplicative_claim_fails_closed():
    doc = fileio.load_document(_path("example2"))
    assert doc["flags"]["multiplicative"] is False
    doc["flags"]["multiplicative"] = True
    with pytest.raises(FlagVerificationError):
        fileio.from_document(doc)


def test_load_time_check_honours_budget(tmp_path):
    path = tmp_path / "s4.json"
    fileio.save(corpus.load("simple3lie4"), path)
    with pytest.raises(TupleBudgetExceeded, match="needs 64 basis tuples, budget is 63"):
        fileio.load(path, max_tuples=63)
    assert fileio.load(path, max_tuples=64) == fileio.load(path)
    assert fileio.load(path, verify=False, max_tuples=1) == fileio.load(path)


@pytest.mark.parametrize("name, identities", [
    ("simple3lie4", ["multiplicativity"]),
    ("sl2", ["hom_nambu_identity", "multiplicativity", "quadratic", "skew_symmetry"])])
def test_load_fills_reports_with_its_flag_checks(name, identities):
    """The reports of the flag checks a load runs are put in ``reports`` by
    identity, each equal to a fresh run of its check; without verification
    none runs and ``reports`` stays empty."""
    reports = {}
    obj = fileio.load(_path(name), reports=reports)
    assert obj == fileio.load(_path(name))
    assert sorted(reports) == identities
    a = getattr(obj, "algebra", obj)
    fresh = {"multiplicativity": lambda: check_multiplicativity(a),
             "skew_symmetry": lambda: check_skew_symmetry(a),
             "hom_nambu_identity": lambda: check_hom_nambu_identity(a),
             "quadratic": lambda: check_quadratic(QuadraticStructure(a, obj.form))}
    for identity, r in reports.items():
        assert r.identity == identity
        assert r.to_json() == fresh[identity]().to_json()
    unverified = {}
    assert fileio.load(_path(name), verify=False, reports=unverified) == obj
    assert unverified == {}


def test_flag_error_carries_report():
    doc = fileio.load_document(_path("example2"))
    doc["flags"]["multiplicative"] = True
    try:
        fileio.from_document(doc)
    except FlagVerificationError as e:
        assert e.report is not None
        assert not e.report.passed
    else:
        pytest.fail("expected FlagVerificationError")


def test_quadratic_gram_mismatch_fails_closed():
    doc = fileio.load_document(_path("sl2"))
    doc["form"][0][0] = "1"  # was 0; breaks invariance (still symmetric)
    with pytest.raises(FlagVerificationError):
        fileio.from_document(doc)


def test_verify_false_skips_flag_checks():
    doc = fileio.load_document(_path("example2"))
    doc["flags"]["multiplicative"] = True
    obj = fileio.from_document(doc, verify=False)
    assert obj.algebra.multiplicative is True  # taken on faith, as requested


def _drop(d, key):
    return {k: v for k, v in d.items() if k != key}


def _doc(name):
    """A corpus document, or ``leibniz``: sl2's bracket as a hom_leibniz one."""
    if name == "leibniz":
        sl2 = corpus.load("sl2")
        return fileio.to_document(HomLeibnizAlgebra(3, sl2.algebra.bracket, Matrix.identity(3)))
    return fileio.load_document(_path(name))


IDENTITY3 = [["1" if i == j else "0" for j in range(3)] for i in range(3)]


# each case maps zero2's document to a malformed one; the cases after the
# first six are fields that the document's kind does not read, each of which
# used to load and be dropped without a word (a misspelled form dropped the
# quadratic check from verify); the message must match the fragment, so a
# case that fails for another reason fails the test
FLAGS_MESSAGE = "flags must map skew and multiplicative to true/false"


@pytest.mark.parametrize("mutate,match", [
    (lambda d: _drop(d, "schema_version"), "missing or unsupported schema_version"),
    (lambda d: dict(d, schema_version=99), "missing or unsupported schema_version"),
    (lambda d: dict(d, kind="nonsense"), "unknown kind 'nonsense'"),
    (lambda d: dict(d, dim=0), "dim must be a positive integer"),
    (lambda d: dict(d, arity=1), "arity must be an integer >= 2"),
    (lambda d: _drop(d, "twists"), "expected 1 twist matrices"),
    (lambda d: _drop(_doc("example1"), "form"), "beta needs a form"),
    (lambda d: dict(_doc("sl2"), beta=IDENTITY3), "quadratic_lie takes no 'beta' field"),
    (lambda d: dict(_doc("leibniz"), form=IDENTITY3), "hom_leibniz takes no 'form' field"),
    (lambda d: dict(_doc("leibniz"), beta=IDENTITY3), "hom_leibniz takes no 'beta' field"),
    (lambda d: dict(_doc("leibniz"), flags={"skew": "yes"}),
     "hom_leibniz takes no 'flags' field"),
    (lambda d: dict(_doc("dualnumbers3"), form=[["1", "0"], ["0", "1"]]),
     "hom_assoc takes no 'form' field"),
    (lambda d: dict(_doc("dualnumbers3"), beta=[["1", "0"], ["0", "1"]]),
     "hom_assoc takes no 'beta' field"),
    (lambda d: dict(_doc("dualnumbers3"), flags={}), "hom_assoc takes no 'flags' field"),
    (lambda d: dict(_doc("simple3lie4"), flags={"Skew": True}), FLAGS_MESSAGE),
    (lambda d: dict(d, flags={"skew": True, "multiplicative": True, "quadratic": True}),
     FLAGS_MESSAGE),
    (lambda d: {("Form" if k == "form" else k): v for k, v in _doc("simple3lie4").items()},
     "hom_nambu takes no 'Form' field"),
])
def test_malformed_documents(mutate, match):
    doc = mutate(fileio.load_document(_path("zero2")))
    with pytest.raises(FileFormatError, match=f"^{re.escape(match)}$"):
        fileio.from_document(doc)


def test_bad_rational_rejected():
    doc = fileio.load_document(_path("zero2"))
    doc["twists"][0][0][0] = "1/0"
    with pytest.raises(FileFormatError):
        fileio.from_document(doc)
    doc["twists"][0][0][0] = "0.5"
    with pytest.raises(FileFormatError):
        fileio.from_document(doc)


def test_out_of_range_index_rejected():
    doc = fileio.load_document(_path("simple3lie4"))
    doc["bracket"][0]["inputs"] = [1, 2, 5]
    with pytest.raises(FileFormatError):
        fileio.from_document(doc)
    doc["bracket"][0]["inputs"] = [0, 1, 2]  # indices are 1-based
    with pytest.raises(FileFormatError):
        fileio.from_document(doc)
    doc["bracket"][0]["inputs"] = [True, 2, 3]  # JSON true is not index 1
    with pytest.raises(FileFormatError):
        fileio.from_document(doc)


def test_duplicate_entry_rejected():
    doc = fileio.load_document(_path("simple3lie4"))
    doc["bracket"].append(dict(doc["bracket"][0]))
    with pytest.raises(FileFormatError):
        fileio.from_document(doc)


def test_skew_storage_roundtrip(s4):
    """Skew-flagged files keep only increasing tuples but reload densely."""
    doc = fileio.to_document(s4)
    for entry in doc["bracket"]:
        assert list(entry["inputs"]) == sorted(set(entry["inputs"]))
    back = fileio.from_document(doc)
    assert back.algebra.bracket.value((1, 0, 2)) == \
        -s4.algebra.bracket.value((0, 1, 2))


def test_skew_storage_without_a_skew_claim_is_written_expanded(sl2, s4):
    """A document that claims no skew symmetry lists every nonzero tuple of
    a skew-storage bracket, so it loads back as the same map.  A Hom-Nambu
    algebra on skew storage always carries the claim."""
    leibniz = HomLeibnizAlgebra(3, sl2.algebra.bracket, Matrix.identity(3))
    assert leibniz.bracket.skew_storage
    back = fileio.from_document(fileio.to_document(leibniz))
    assert not back.bracket.skew_storage and back.bracket == leibniz.bracket
    assert fileio.to_document(s4.algebra)["flags"]["skew"] is True


def test_fraction_strings_are_reduced(ex2):
    text = fileio.dumps(ex2)
    assert "1/2" in text
    assert "2/4" not in text
    data = json.loads(text)
    assert data["schema_version"] == 1


def test_deterministic_dumps(sl2):
    assert fileio.dumps(sl2) == fileio.dumps(sl2)


def test_matrix_and_vector_from_file(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"matrix": [["1", "1/2"], ["0", "3"]]}))
    m = fileio.matrix_from_file(p)
    assert m[0, 1] == F(1, 2)
    p2 = tmp_path / "v.json"
    p2.write_text(json.dumps({"vector": ["1", "-2/3"]}))
    v = fileio.vector_from_file(p2, 2)
    assert v.entries[1] == F(-2, 3)
    p2.write_text(json.dumps({"vector": ["1"]}))
    with pytest.raises(FileFormatError):
        fileio.vector_from_file(p2, 2)


def test_representation_document_kind(s4):
    from nambucat.representations import adjoint_rep
    doc = fileio.representation_to_document(adjoint_rep(s4.algebra))
    assert doc["kind"] == "representation"
    doc["target_dim"] = 5
    with pytest.raises((FileFormatError, ValueError)):
        fileio.representation_from_document(doc)


@pytest.mark.parametrize("mutate", [
    lambda d: _drop(d, "nu"),
    lambda d: dict(d, rho=[_drop(d["rho"][0], "inputs")] + d["rho"][1:]),
    lambda d: dict(d, rho=[dict(d["rho"][0], inputs=[True, 2])] + d["rho"][1:]),
    lambda d: dict(d, rho={}),
    lambda d: [d],                                      # a list, not an object
    lambda d: _drop(d, "rho"),
    lambda d: dict(d, rho=d["rho"] + [dict(d["rho"][0], matrix=d["rho"][1]["matrix"])]),
    lambda d: dict(d, schema_version=99),
    lambda d: _drop(d, "schema_version"),
])
def test_malformed_representation_fails_closed(s4, mutate):
    from nambucat.representations import adjoint_rep
    doc = fileio.representation_to_document(adjoint_rep(s4.algebra))
    fileio.representation_from_document(doc)
    with pytest.raises(FileFormatError):
        fileio.representation_from_document(mutate(doc))
