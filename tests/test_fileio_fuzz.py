"""Bad input fails closed: corpus documents mutated at random (keys dropped,
values of the wrong type, JSON bools, out-of-range indices, non-rational
strings, huge sizes) either load or raise ``FileFormatError`` or
``FlagVerificationError``, and the command line answers them with exit code
1 or 2 and no traceback."""

import json
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nambucat import corpus, fileio
from nambucat.cli import main
from nambucat.fileio import FileFormatError, FlagVerificationError

DOCS = {name: fileio.load_document(corpus.corpus_path(name)) for name in corpus.corpus_names()}
HUGE = (10 ** 6, 10 ** 12, 2 ** 63)

bad_values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.sampled_from(HUGE),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "x", "1/0", "0/0", "1.5", "1e3", "p/q", "--1", "1/-2", "9" * 5000,
                     "hom_nambu", "hom_leibniz", "quadratic_lie", "hom_assoc"]),
    st.lists(st.integers(-1, 4), max_size=4), st.builds(dict), st.builds(lambda: [[]]),
    st.dictionaries(st.sampled_from(["inputs", "output", "skew"]), st.booleans(), max_size=2))


def _paths(node, path=()):
    """Every (path, value) in a JSON tree, the root included."""
    yield path, node
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, path + (i,))


def _get(doc, path):
    for k in path:
        doc = doc[k]
    return doc


@st.composite
def mutated(draw):
    doc = json.loads(json.dumps(DOCS[draw(st.sampled_from(sorted(DOCS)))]))
    for _ in range(draw(st.integers(1, 3))):
        paths = [p for p, _ in _paths(doc) if p]
        path = draw(st.sampled_from(paths))
        parent, key = _get(doc, path[:-1]), path[-1]
        how = draw(st.sampled_from(["drop", "replace", "index", "size"]))
        if how == "drop":
            del parent[key]
        elif how == "replace":
            parent[key] = draw(bad_values)
        elif how == "index":        # an out-of-range or mistyped basis index
            tuples = [v for p, v in _paths(doc) if p and p[-1] == "inputs"
                      and isinstance(v, list) and v]
            if tuples:
                idx = draw(st.sampled_from(tuples))
                idx[draw(st.integers(0, len(idx) - 1))] = \
                    draw(st.sampled_from([0, -1, 10 ** 6, True, "1", 1.0]))
        else:
            doc[draw(st.sampled_from(["dim", "arity"]))] = draw(st.sampled_from(HUGE + (0, 1)))
    return doc


def _outcome(text):
    try:
        fileio.loads(text)
    except (FileFormatError, FlagVerificationError) as e:
        return type(e)
    return None


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated())
def test_mutated_documents_fail_closed(tmp_path, capsys, doc):
    text = json.dumps(doc)
    failed = _outcome(text)              # any other exception fails the test
    path = tmp_path / "doc.json"
    path.write_text(text)
    code = main(["verify", str(path)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if failed is FileFormatError:
        assert code == 2
    elif failed is FlagVerificationError:
        assert code == 1
    else:
        assert code in (0, 1)


@pytest.mark.parametrize("text", [
    "", "{", "[]", "null", "1", '"hom_nambu"', "[" * 100000 + "]" * 100000,
    '{"schema_version": true, "kind": "hom_nambu", "dim": 1, "arity": 2, '
    '"bracket": [], "twists": [[["1"]]]}',
    '{"schema_version": 1, "kind": "hom_nambu", "dim": 2, "arity": 2, "bracket": [], '
    '"twists": [[["1", "0"], ["0", "1"]]], "flags": {"skew": "false"}}',
    '{"schema_version": 1, "kind": "hom_nambu", "dim": 2, "arity": 2, "bracket": [], '
    '"twists": [[["1", "0"], ["0", "1"]]], "form": [["1", "1"], ["0", "1"]]}',
])
def test_malformed_text_is_a_format_error(text):
    with pytest.raises(FileFormatError):
        fileio.loads(text)


def test_degenerate_quadratic_lie_form_fails_verification():
    with pytest.raises(FlagVerificationError, match="degenerate"):
        fileio.loads('{"schema_version": 1, "kind": "quadratic_lie", "dim": 1, "arity": 2, '
                     '"bracket": [], "twists": [[["1"]]], "form": [["0"]]}')


def _sized(kind, dim, arity):
    return json.dumps({"schema_version": 1, "kind": kind, "dim": dim, "arity": arity,
                       "bracket": [], "twists": [[["1"]]], "form": [["1"]]})


@pytest.mark.parametrize("kind", ["hom_nambu", "hom_leibniz", "hom_assoc", "quadratic_lie"])
@pytest.mark.parametrize("dim,arity", [(10 ** 12, 2), (1, 10 ** 9), (2 ** 63, 2 ** 63)])
def test_huge_sizes_are_refused_before_allocation(monkeypatch, kind, dim, arity):
    """The refusal comes from the document's own shape; no tensor is built
    and almost nothing is allocated."""
    def no_tensor(*args, **kwargs):
        raise AssertionError("a tensor was built")
    monkeypatch.setattr(fileio, "BracketTensor", no_tensor)
    tracemalloc.start()
    try:
        with pytest.raises(FileFormatError):
            fileio.loads(_sized(kind, dim, arity))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
