"""End-to-end exercises of the command-line interface."""

import collections
import json
import os
from pathlib import Path

import pytest

from conftest import filippov, ones_assoc
from nambucat import BracketTensor, checks, cli, corpus, faulkner, fileio
from nambucat.cli import main
from test_construct_bytes import PINNED, _argv


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as e:     # argparse usage errors
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


def cp(name):
    return corpus.corpus_path(name)


# ---------------------------------------------------------------- verify

def test_verify_pass_defaults(capsys):
    code, out, _ = run(capsys, "verify", cp("simple3lie4"))
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert all(r["passed"] for r in data["reports"])


def test_verify_explicit_selectors(capsys):
    code, out, _ = run(capsys, "verify", cp("simple3lie4"), "nambu", "skew")
    assert code == 0
    data = json.loads(out)
    assert {r["identity"] for r in data["reports"]} \
        == {"hom_nambu_identity", "skew_symmetry"}


def test_verify_failure_exit_1(capsys):
    code, out, _ = run(capsys, "verify", cp("example1"), "skew")
    assert code == 1
    data = json.loads(out)
    assert data["passed"] is False
    assert data["reports"][0]["counterexample"] is not None


def test_verify_degenerate_quadratic_fails_command(capsys):
    code, out, _ = run(capsys, "verify", cp("example2"), "quadratic")
    assert code == 1
    data = json.loads(out)
    # the identity holds; the command verdict fails on the degeneracy warning
    assert data["reports"][0]["passed"] is True
    assert any("degenerate" in w for w in data["reports"][0]["warnings"])


def test_verify_zero_algebra(capsys):
    code, out, _ = run(capsys, "verify", cp("zero3"))
    assert code == 0


def test_verify_text_format(capsys):
    code, out, _ = run(capsys, "--format", "text", "verify", cp("simple3lie4"))
    assert code == 0
    assert "PASS" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_format_flag_after_subcommand(capsys):
    code1, out1, _ = run(capsys, "verify", "--format", "text", cp("zero2"))
    code2, out2, _ = run(capsys, "--format", "text", "verify", cp("zero2"))
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/thing.json")
    assert code == 2


def test_verify_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2
    bad.write_text('{"schema_version": 1}')
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2


def test_verify_false_flag_claim(capsys, tmp_path):
    doc = fileio.load_document(cp("example2"))
    doc["flags"]["multiplicative"] = True
    lied = tmp_path / "lied.json"
    lied.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(lied))
    assert code == 1
    # false skew claims fail while the bracket is stored alternating
    doc = fileio.load_document(cp("example1"))
    doc["flags"]["skew"] = True
    repeated = tmp_path / "repeated.json"
    repeated.write_text(json.dumps(doc))
    doc = fileio.load_document(cp("simple3lie4"))
    first = doc["bracket"][0]
    assert first["inputs"] == [1, 2, 3]
    doc["bracket"].append({"inputs": [2, 1, 3], "output": first["output"]})
    inconsistent = tmp_path / "inconsistent.json"
    inconsistent.write_text(json.dumps(doc))
    for path, why in ((repeated, "nonzero value on repeated indices (0, 1, 0)"),
                      (inconsistent, "inconsistent skew data at (0, 1, 2)")):
        assert run(capsys, "verify", str(path)) == (
            1, "", f"verification failure: claimed skew flag is inconsistent: {why}\n")


LOAD_CHECKS = ("check_hom_nambu_identity", "check_skew_symmetry",
               "check_multiplicativity", "check_quadratic")


def _count_checks(monkeypatch) -> collections.Counter:
    """Count the calls of the checks a file load may run, wherever they are
    called from."""
    calls = collections.Counter()
    for name in LOAD_CHECKS:
        fn = getattr(checks, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        for mod in (cli, fileio, faulkner):
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("name, expected", [
    ("simple3lie4", ["hom_nambu_identity", "skew_symmetry", "multiplicativity", "quadratic"]),
    ("sl2", ["hom_nambu_identity", "skew_symmetry", "quadratic"])])
def test_verify_and_report_run_each_check_once(capsys, monkeypatch, name, expected):
    """A check that ran while the file loaded is reused by its selector, with
    the same report as a fresh run."""
    obj = corpus.load(name)
    fresh = [cli._run_check(obj, s, None, {}).to_json()
             for s in cli._applicable(obj, defaults=True)]
    calls = _count_checks(monkeypatch)
    code, out, _ = run(capsys, "verify", cp(name))
    assert code == 0 and json.loads(out)["reports"] == fresh
    assert [r["identity"] for r in fresh] == expected
    assert set(calls.values()) == {1}
    assert calls["check_multiplicativity"] == 1     # both files claim it
    calls.clear()
    code, out, _ = run(capsys, "report", cp(name), cp(name))
    assert code == 0 and out.count(" pass ") == 2
    assert set(calls.values()) == {2}


def test_false_claim_runs_its_check_once(capsys, monkeypatch, tmp_path):
    doc = fileio.load_document(cp("example2"))
    doc["flags"]["multiplicative"] = True
    lied = tmp_path / "lied.json"
    lied.write_text(json.dumps(doc))
    calls = _count_checks(monkeypatch)
    code, out, err = run(capsys, "verify", str(lied))
    assert (code, out) == (1, "")
    assert err.startswith("verification failure: claimed multiplicative flag failed "
                          "verification\n{")
    assert calls == {"check_multiplicativity": 1}
    code, out, _ = run(capsys, "report", str(lied))
    assert code == 1 and "claimed multiplicative flag failed verification" in out
    assert calls == {"check_multiplicativity": 2}


def test_verify_and_report_read_each_file_through_load(capsys, monkeypatch):
    """``fileio.load`` is the one loader: ``verify`` calls it once, and
    ``report`` once per file."""
    calls = []
    load = fileio.load

    def counted(path, *args, **kwargs):
        calls.append(path)
        return load(path, *args, **kwargs)
    monkeypatch.setattr(fileio, "load", counted)
    assert run(capsys, "verify", cp("sl2"))[0] == 0
    assert calls == [cp("sl2")]
    calls.clear()
    assert run(capsys, "report", cp("sl2"), cp("example1"))[0] == 0
    assert calls == [cp("sl2"), cp("example1")]


def _repro_documents(tmp_path):
    """A ternary skew bracket [e1, e2, e3] = e3 under two distinct twists,
    once with a skew claim and its one stored entry, once as its dense twin
    with all six signed entries and no claim."""
    twists = [[["0", "1", "1"], ["1", "1", "0"], ["0", "1", "0"]],
              [["1", "1", "-1"], ["0", "1", "0"], ["0", "-1", "0"]]]
    base = {"schema_version": 1, "kind": "hom_nambu", "dim": 3, "arity": 3,
            "twists": twists}
    skew = dict(base, bracket=[{"inputs": [1, 2, 3], "output": ["0", "0", "1"]}],
                flags={"skew": True})
    dense = dict(base, bracket=[
        {"inputs": list(p), "output": ["0", "0", s]}
        for p, s in (((1, 2, 3), "1"), ((1, 3, 2), "-1"), ((2, 1, 3), "-1"),
                     ((2, 3, 1), "1"), ((3, 1, 2), "1"), ((3, 2, 1), "-1"))])
    paths = []
    for name, doc in (("skew", skew), ("dense", dense)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return paths


def test_skew_claim_under_distinct_twists_gets_the_dense_verdict(capsys, tmp_path):
    """Under distinct twists the identity does not alternate, so a skew
    claim does not cut it down to increasing tuples: the skew file fails at
    the dense twin's counterexample, after the same count."""
    skew, dense = _repro_documents(tmp_path)
    code, out, _ = run(capsys, "verify", skew)
    reports = json.loads(out)["reports"]
    assert code == 1 and [r["identity"] for r in reports] \
        == ["hom_nambu_identity", "skew_symmetry"]
    assert reports[0]["counterexample"]["indices"] == [1, 1, 1, 2, 3]
    dense_code, dense_out, _ = run(capsys, "verify", dense)
    assert dense_code == 1 and json.loads(dense_out)["reports"] == reports[:1]
    code, out, _ = run(capsys, "verify", skew, "nambu", "--format", "text")
    assert (code, out) == (1, f"{skew}: hom_nambu_identity: FAIL (6 tuples) "
                              "-- counterexample at (1, 1, 1, 2, 3)\n")
    code, out, _ = run(capsys, "verify", dense, "--format", "text")
    assert (code, out) == (1, f"{dense}: hom_nambu_identity: FAIL (6 tuples) "
                              "-- counterexample at (1, 1, 1, 2, 3)\n")


def test_example2_checks_every_tuple(capsys):
    """example2 is skew with distinct twists: its identity passes over all
    3^5 tuples."""
    code, out, _ = run(capsys, "verify", cp("example2"), "nambu")
    assert code == 0
    assert json.loads(out)["reports"][0]["tuples_checked"] == 3 ** 5


def test_verify_inapplicable_selector(capsys):
    code, _, err = run(capsys, "verify", cp("zero2"), "quadratic")
    assert code == 2


def test_verify_unknown_selector(capsys):
    code, _, err = run(capsys, "verify", cp("zero2"), "bogus")
    assert code == 2


def test_max_tuples_budget(capsys):
    code, _, err = run(capsys, "--max-tuples", "1", "verify", cp("simple3lie4"),
                       "nambu")
    assert code == 1


@pytest.mark.parametrize("position", ["before", "after"])
def test_negative_max_tuples_is_a_usage_error(capsys, position):
    """N < 0 is rejected by the parser, before any file is read, with exit 2;
    N = 0 is a budget that no check fits in."""
    flag = ("--max-tuples", "-1")
    argv = flag + ("verify", cp("sl2")) if position == "before" else ("verify", cp("sl2")) + flag
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith("error: argument --max-tuples: N must be >= 0, got -1")
    assert "budget" not in err
    code, out, err = run(capsys, "--max-tuples", "0", "verify", cp("sl2"))
    assert (code, out, err) == (
        1, "", "tuple budget exceeded: check needs 9 basis tuples, budget is 0\n")


def test_max_tuples_budget_applies_at_load(capsys, tmp_path):
    """A6 claims multiplicativity; the check that runs while the file loads
    needs 6^5 tuples and exceeds the budget before any selector runs;
    ``report`` gives the file an error row instead."""
    path = tmp_path / "A6.json"
    fileio.save(filippov(6), path)
    want = "tuple budget exceeded: check needs 7776 basis tuples, budget is 10\n"
    for argv in (["verify", str(path)], ["verify", str(path), "nambu"],
                 ["solve", str(path), "center"],
                 ["construct", "self-twist", str(path), "-o", str(tmp_path / "out.json")]):
        code, out, err = run(capsys, "--max-tuples", "10", *argv)
        assert (code, out, err) == (1, "", want), argv
    assert not (tmp_path / "out.json").exists()
    code, out, err = run(capsys, "--max-tuples", "10", "report", str(path))
    assert (code, err) == (1, "")
    assert out.splitlines()[1].split()[1:] == [
        "error", "-", "-", *"check needs 7776 basis tuples, budget is 10".split(),
        "-", "-", "-"]
    code, _, _ = run(capsys, "--max-tuples", "7776", "verify", str(path), "multiplicative")
    assert code == 0


def test_report_over_budget_file_gets_its_own_row(capsys, tmp_path):
    """One file over the budget does not abort the table: the others still
    get their rows, and the command exits 1."""
    path = tmp_path / "A4.json"
    fileio.save(filippov(4), path)
    code, out, err = run(capsys, "--max-tuples", "10", "report", str(path),
                         cp("example1"), cp("zero2"))
    assert (code, err) == (1, "")
    rows = [line.split() for line in out.splitlines()]
    assert len(rows) == 4
    assert rows[1][:5] == [str(path), "error", "-", "-", "check"]
    assert " ".join(rows[1][4:-3]) == "check needs 64 basis tuples, budget is 10"
    assert rows[2][:2] == [cp("example1"), "error"]      # 27 tuples at load
    assert rows[3][:5] == [cp("zero2"), "hom_nambu", "2", "2", "pass"]


@pytest.mark.parametrize("construction", ["leibniz", "tstar"])
def test_constructions_honour_budget(capsys, tmp_path, construction):
    """A4 loads within 100 tuples (multiplicativity needs 64), but the
    checks on the output need more: no file is written."""
    src, dst = tmp_path / "A4.json", tmp_path / "out.json"
    fileio.save(filippov(4), src)
    code, out, err = run(capsys, "--max-tuples", "100", "construct", construction,
                         str(src), "-o", str(dst))
    need = 16 ** 3 if construction == "leibniz" else 8 ** 3
    assert (code, out) == (1, "")
    assert err == f"tuple budget exceeded: check needs {need} basis tuples, budget is 100\n"
    assert not dst.exists()
    code, _, _ = run(capsys, "construct", construction, str(src), "-o", str(dst))
    assert code == 0 and dst.exists()


def test_construct_tensor_budget_comes_before_the_build(capsys, tmp_path, monkeypatch):
    """The tensor product of a 5-ary product on dim 3 with A6 is refused by
    the budget of its first check (skew symmetry on 18^5 tuples) before the
    Kronecker bracket is built: exit 1, no file written."""
    src_h, src_a, dst = tmp_path / "mu.json", tmp_path / "A6.json", tmp_path / "out.json"
    fileio.save(ones_assoc(3, 5), src_h)
    fileio.save(filippov(6), src_a)

    def no_build(*args, **kwargs):
        raise AssertionError("the bracket was built")
    monkeypatch.setattr(BracketTensor, "kron", no_build)
    code, out, err = run(capsys, "--max-tuples", "10000", "construct", "tensor",
                         str(src_h), str(src_a), "-o", str(dst))
    assert (code, out) == (1, "")
    assert err == "tuple budget exceeded: check needs 1889568 basis tuples, budget is 10000\n"
    assert not dst.exists()


def test_construct_raise_honours_budget(capsys, tmp_path):
    """Raising A5 to arity 7 stops at the first check on the output (skew
    symmetry on 5^7 tuples) instead of running the identity on 5^13."""
    src, dst = tmp_path / "A5.json", tmp_path / "out.json"
    fileio.save(filippov(5), src)
    code, out, err = run(capsys, "--max-tuples", "1000", "construct", "raise", str(src),
                         "-k", "1", "-o", str(dst))
    assert (code, out) == (1, "")
    assert err == "tuple budget exceeded: check needs 78125 basis tuples, budget is 1000\n"
    assert not dst.exists()


def test_parallel_is_a_usage_error(capsys):
    # evaluation is sequential; there is no worker-count option
    code, out, err = run(capsys, "--parallel", "4", "verify", cp("zero2"))
    assert code == 2
    assert out == "" and "error" in err


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "verify", cp("sl2"))
    _, out2, _ = run(capsys, "verify", cp("sl2"))
    assert out1 == out2


# ---------------------------------------------------------------- construct

def test_construct_twist(capsys, tmp_path):
    rho = tmp_path / "rho.json"
    rho.write_text(json.dumps({"matrix": [["1", "0", "0", "0"],
                                          ["0", "1", "0", "0"],
                                          ["0", "0", "-1", "0"],
                                          ["0", "0", "0", "-1"]]}))
    out = tmp_path / "twisted.json"
    code, _, _ = run(capsys, "construct", "twist", cp("simple3lie4"),
                     "--rho", str(rho), "-o", str(out))
    assert code == 0
    obj = fileio.load(out)
    a = getattr(obj, 'algebra', obj)
    assert a.twists[0][2, 2] == -1
    doc = fileio.load_document(out)
    assert "constructed by 'twist'" in doc["metadata"]["provenance"]


def test_construct_twist_bad_morphism(capsys, tmp_path):
    rho = tmp_path / "rho.json"
    rho.write_text(json.dumps({"matrix": [["1", "1", "0", "0"],
                                          ["0", "1", "0", "0"],
                                          ["0", "0", "1", "0"],
                                          ["0", "0", "0", "1"]]}))
    out = tmp_path / "twisted.json"
    code, _, err = run(capsys, "construct", "twist", cp("simple3lie4"),
                       "--rho", str(rho), "-o", str(out))
    assert code == 1
    assert not out.exists()


def test_construct_rejects_a_matrix_file_without_its_field(capsys, tmp_path):
    """A matrix file is an object with a "matrix" field; a plain list of rows
    and an object without the field both fail closed."""
    rows = [["1", "0", "0", "0"], ["0", "1", "0", "0"],
            ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]
    out = tmp_path / "twisted.json"
    for doc, why in ((rows, "top level must be a JSON object"),
                     ({"rows": rows}, "expected a nonempty list of matrix rows")):
        rho = tmp_path / "rho.json"
        rho.write_text(json.dumps(doc))
        assert run(capsys, "construct", "twist", cp("simple3lie4"),
                   "--rho", str(rho), "-o", str(out)) == (2, "", f"error: {why}\n")
        assert not out.exists()


def test_construct_tstar(capsys, tmp_path):
    out = tmp_path / "tstar.json"
    code, _, _ = run(capsys, "construct", "tstar", cp("simple3lie4"),
                     "--form", "identity", "-o", str(out))
    assert code == 0
    obj = fileio.load(out)
    assert obj.algebra.dim == 8
    code2, _, _ = run(capsys, "verify", str(out))
    assert code2 == 0


def test_construct_raise(capsys, tmp_path):
    out = tmp_path / "raised.json"
    code, _, _ = run(capsys, "construct", "raise", cp("example1"),
                     "-k", "1", "-o", str(out))
    assert code == 0
    obj = fileio.load(out)
    assert obj.algebra.arity == 5
    assert run(capsys, "verify", str(out), "nambu")[0] == 0


@pytest.mark.parametrize("name, k", [("heisenberg3", "0"), ("example1", "-1")])
def test_construct_raise_k_below_one_is_a_usage_error(capsys, tmp_path, name, k):
    """k = 0 would write the input unchecked, and a negative k has no
    meaning: both are refused by the parser, and nothing is written."""
    out = tmp_path / "raised.json"
    code, stdout, err = run(capsys, "construct", "raise", cp(name), "-k", k, "-o", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith("usage: nambucat construct raise ")
    assert err.splitlines()[-1].endswith(f"error: argument -k: K must be >= 1, got {k}")
    assert "Traceback" not in err
    assert not out.exists()


def test_construct_reduce(capsys, tmp_path):
    fixed = tmp_path / "x.json"
    fixed.write_text(json.dumps({"vector": ["1", "0", "0", "0"]}))
    out = tmp_path / "reduced.json"
    code, _, _ = run(capsys, "construct", "reduce", cp("simple3lie4"),
                     "--fixed", str(fixed), "-o", str(out))
    assert code == 0
    obj = fileio.load(out)
    assert obj.arity == 2 if not hasattr(obj, "algebra") else obj.algebra.arity == 2
    assert run(capsys, "verify", str(out), "nambu")[0] == 0


def test_construct_leibniz(capsys, tmp_path):
    out = tmp_path / "lb.json"
    code, _, _ = run(capsys, "construct", "leibniz", cp("simple3lie4"),
                     "-o", str(out))
    assert code == 0
    code2, _, _ = run(capsys, "verify", str(out))
    assert code2 == 0


def test_construct_faulkner(capsys, tmp_path):
    out = tmp_path / "tern.json"
    code, _, _ = run(capsys, "construct", "faulkner", cp("sl2"),
                     "-o", str(out))
    assert code == 0
    obj = fileio.load(out)
    assert obj.algebra.arity == 3
    assert run(capsys, "verify", str(out), "nambu", "quadratic")[0] == 0


def test_construct_tensor(capsys, tmp_path):
    out = tmp_path / "tp.json"
    code, _, _ = run(capsys, "construct", "tensor", cp("dualnumbers3"),
                     cp("simple3lie4"), "-o", str(out))
    assert code == 0
    obj = fileio.load(out)
    assert obj.algebra.dim == 8 if hasattr(obj, "algebra") else obj.dim == 8


def test_construct_pullback_form_checks_the_pulled_back_form(capsys, tmp_path):
    """sign4 is symmetric for the standard form but not in the centroid of
    simple3lie4, so the pulled-back form is not invariant: exit 1 with the
    failing report, and nothing written."""
    out = tmp_path / "pb.json"
    code, stdout, err = run(capsys, "construct",
                            *_argv("pullback-form simple3lie4 --map sign4", tmp_path),
                            "-o", str(out))
    assert (code, stdout) == (1, "")
    head, report = err.split("\n", 1)
    assert head == "construction failure: pulled-back form: quadratic check failed"
    report = json.loads(report)
    assert (report["identity"], report["counterexample"]["indices"]) == ("quadratic", [1, 3, 2, 4])
    assert not out.exists()


@pytest.mark.parametrize("name", ["simple3lie4", "example2"])
def test_construct_pullback_form_refuses_a_degenerate_form(capsys, tmp_path, name):
    """The zero map is symmetric for every form, and the zero form it pulls
    back is invariant but degenerate, which verify rejects: exit 1 with the
    report and its degeneracy warning, and nothing written."""
    d = corpus.load(name).algebra.dim
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"matrix": [["0"] * d for _ in range(d)]}))
    out = tmp_path / "pb.json"
    code, stdout, err = run(capsys, "construct", "pullback-form", cp(name),
                            "--map", str(zero), "-o", str(out))
    assert (code, stdout) == (1, "")
    head, report = err.split("\n", 1)
    assert head == "construction failure: pulled-back form: quadratic check failed"
    report = json.loads(report)
    assert (report["identity"], report["passed"]) == ("quadratic", True)
    assert report["warnings"] == [f"form is degenerate: rank 0 < dim {d}"]
    assert not out.exists()


# every construction that reads an n-ary algebra, with options sl2 admits:
# alpha3 is an involutive automorphism of sl2, gamma3 the identity, tau3 = e3
# and killing its form
SL2_CONSTRUCTIONS = ["raise sl2", "self-twist sl2", "leibniz sl2", "tstar sl2 --form killing",
                     "twist sl2 --rho alpha3", "centroid-bracket sl2 --theta gamma3",
                     "pullback-form sl2 --map gamma3",
                     "trace-ternary sl2 --gamma gamma3 --tau tau3"]


@pytest.mark.parametrize("words", SL2_CONSTRUCTIONS)
def test_constructions_read_a_quadratic_lie_file_as_its_hom_nambu_twin(capsys, tmp_path,
                                                                      words):
    """A quadratic_lie file is the hom_nambu file with its bracket, twist,
    flags and form: each construction writes the same document, metadata
    aside, on either, and verify passes it."""
    doc = json.loads(Path(cp("sl2")).read_text())
    twin = tmp_path / "twin.json"
    twin.write_text(json.dumps(dict(doc, kind="hom_nambu")))
    killing = tmp_path / "killing.json"
    killing.write_text(json.dumps({"matrix": doc["form"]}))
    argv = [str(killing) if w == "killing" else w for w in _argv(words, tmp_path)]
    written = []
    for i, path in enumerate((cp("sl2"), str(twin))):
        out = tmp_path / f"out-{i}.json"
        argv[1] = path
        assert run(capsys, "construct", *argv, "-o", str(out)) == (0, f"wrote {out}\n", "")
        assert run(capsys, "verify", str(out))[0] == 0
        written.append({k: v for k, v in json.loads(out.read_text()).items() if k != "metadata"})
    assert written[0] == written[1]


def test_construct_missing_option(capsys, tmp_path):
    out = tmp_path / "x.json"
    code, _, err = run(capsys, "construct", "twist", cp("simple3lie4"),
                       "-o", str(out))
    assert code == 2


# construction: (a pinned command line of it, an option it does not read)
STRAY_OPTIONS = {
    "twist": ("twist-simple3lie4.json", "--omega sign4"),
    "self-twist": ("self-twist-example1.json", "--rho sign4"),
    "tensor": ("tensor-zero3.json", "-k 1"),
    "leibniz": ("leibniz-zero2.json", "--omega sign4"),
    "tstar": ("tstar-simple3lie4.json", "--rho sign4"),
    "trace-ternary": ("trace-heisenberg3.json", "--alpha gamma3"),
    "raise": ("raise-example1.json", "-p 2"),
    "reduce": ("reduce-simple3lie4.json", "--theta three4"),
    "centroid-bracket": ("centroid-bracket-simple3lie4.json", "-k 2"),
    "pullback-form": ("pullback-form-simple3lie4.json", "--what leibniz"),
    "faulkner": ("faulkner-ternary-sl2.json", "--fixed e1"),
}


def _usage_error(capsys, tmp_path, words):
    """Run ``construct words -o OUT``: it must exit 2 with argparse's message,
    print nothing on stdout and write nothing at OUT."""
    out = tmp_path / "out.json"
    code, stdout, err = run(capsys, "construct", *_argv(words, tmp_path), "-o", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith("usage: nambucat") and "Traceback" not in err
    assert not out.exists()
    return err.splitlines()[-1]


@pytest.mark.parametrize("construction", sorted(STRAY_OPTIONS))
def test_construct_rejects_an_option_it_does_not_read(capsys, tmp_path, construction):
    case, stray = STRAY_OPTIONS[construction]
    message = _usage_error(capsys, tmp_path, f"{PINNED[case][0]} {stray}")
    assert message.startswith(f"nambucat: error: unrecognized arguments: {stray.split()[0]} ")


# a prefix of an option: of --format after a construction, of --max-tuples at
# the top level and of --format after verify
ABBREVIATED = [["construct", "self-twist", cp("example1"), "--form", "json"],
               ["--max", "10", "verify", cp("zero2")],
               ["verify", cp("zero2"), "--form", "text"]]


@pytest.mark.parametrize("argv", ABBREVIATED)
def test_an_abbreviated_option_is_a_usage_error(capsys, tmp_path, argv):
    out = tmp_path / "abbrev.json"
    argv = argv + (["-o", str(out)] if argv[0] == "construct" else [])
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert err.startswith("usage: nambucat") and "Traceback" not in err
    assert not out.exists()


# a required option or input removed from a pinned command line, and one input
# too many
MISSING = [("twist-simple3lie4.json", "--rho sign4"),
           ("trace-heisenberg3.json", "--gamma gamma3"),
           ("trace-heisenberg3.json", "--tau tau3"),
           ("reduce-simple3lie4.json", "--fixed e1"),
           ("centroid-bracket-simple3lie4.json", "--theta three4"),
           ("pullback-form-simple3lie4.json", "--map three4"),
           ("tensor-zero3.json", "zero3")]
MISSING += [(case, PINNED[case][0].split()[1]) for case, _ in STRAY_OPTIONS.values()]


@pytest.mark.parametrize("case, missing", MISSING)
def test_construct_rejects_a_missing_option_or_input(capsys, tmp_path, case, missing):
    words = PINNED[case][0]
    assert f" {missing}" in words
    message = _usage_error(capsys, tmp_path, words.replace(f" {missing}", "", 1))
    assert "error: the following arguments are required: " in message


@pytest.mark.parametrize("construction", sorted(STRAY_OPTIONS))
def test_construct_rejects_an_extra_input(capsys, tmp_path, construction):
    words = PINNED[STRAY_OPTIONS[construction][0]][0]
    name, first = words.split()[:2]
    message = _usage_error(capsys, tmp_path, words.replace(first, f"{first} zero1", 1))
    assert message.startswith("nambucat: error: unrecognized arguments: ")


@pytest.mark.parametrize("construction", sorted(STRAY_OPTIONS))
def test_a_stray_argument_is_shown_with_its_construction_usage(capsys, tmp_path, construction):
    """An option the construction does not read and an extra input are shown
    under the usage line of the construction's own parser."""
    case, stray = STRAY_OPTIONS[construction]
    words = PINNED[case][0]
    first = words.split()[1]
    for words in (f"{words} {stray}", words.replace(first, f"{first} zero1", 1)):
        out = tmp_path / "out.json"
        code, stdout, err = run(capsys, "construct", *_argv(words, tmp_path), "-o", str(out))
        assert (code, stdout) == (2, "")
        assert err.startswith(f"usage: nambucat construct {construction} [-h] ")
        assert err.splitlines()[-1].startswith("nambucat: error: unrecognized arguments: ")
        assert not out.exists()


# a stray argument and the parser that receives it
STRAY = [(("verify", cp("zero2"), "--bogus"), "nambucat verify"),
         (("solve", cp("heisenberg3"), "center", "--bogus"), "nambucat solve file center"),
         (("solve", cp("heisenberg3"), "--bogus", "center"), "nambucat solve"),
         (("report", cp("zero2"), "--bogus"), "nambucat report"),
         (("construct", "--bogus", "self-twist", cp("example1")), "nambucat construct"),
         (("--bogus", "verify", cp("zero2")), "nambucat")]


@pytest.mark.parametrize("argv, prog", STRAY)
def test_a_stray_argument_is_shown_with_the_usage_of_its_parser(capsys, tmp_path, argv, prog):
    out = tmp_path / "out.json"
    argv += ("-o", str(out)) if "construct" in argv else ()
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"usage: {prog} [-h] ") and "Traceback" not in err
    assert err.splitlines()[-1] == "nambucat: error: unrecognized arguments: --bogus"
    assert not out.exists()


# ---------------------------------------------------------------- --format

FORMAT_ERROR = "nambucat: error: argument --format: read only by verify and solve"


@pytest.mark.parametrize("case", sorted(PINNED))
def test_construct_rejects_format_in_either_position(capsys, tmp_path, case):
    """Only verify and solve read --format: after a construction it is an
    option the construction does not read, before construct a flag the
    command does not read.  Both are usage errors, and nothing is written."""
    words = _argv(PINNED[case][0], tmp_path)
    out = tmp_path / "out.json"
    for argv, message in (
            (["construct", *words, "--format", "text"],
             "nambucat: error: unrecognized arguments: --format text"),
            (["--format", "text", "construct", *words], FORMAT_ERROR)):
        code, stdout, err = run(capsys, *argv, "-o", str(out))
        assert (code, stdout) == (2, "")
        assert err.startswith("usage: nambucat") and "Traceback" not in err
        assert err.splitlines()[-1] == message
        assert not out.exists()


def test_report_rejects_format_in_either_position(capsys):
    for argv, usage, message in (
            (("report", cp("sl2"), "--format", "text"), "usage: nambucat report [-h] ",
             "nambucat: error: unrecognized arguments: --format text"),
            (("--format", "text", "report", cp("sl2")), "usage: nambucat [-h] ", FORMAT_ERROR)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(usage) and "Traceback" not in err
        assert err.splitlines()[-1] == message


@pytest.mark.parametrize("argv", [("verify", cp("zero2")), ("verify", cp("zero2"), "nambu"),
                                  ("solve", cp("heisenberg3"), "centroid"),
                                  ("solve", cp("heisenberg3"), "derivations", "1"),
                                  ("solve", cp("heisenberg3"), "center"),
                                  ("solve", cp("heisenberg3"), "central-derivations")])
def test_verify_and_solve_read_format_before_and_after(capsys, argv):
    command, rest = argv[0], argv[1:]
    runs = [run(capsys, "--format", "text", *argv), run(capsys, *argv, "--format", "text"),
            run(capsys, command, "--format", "text", *rest)]
    assert runs[0][0] == 0 and runs[0][1].startswith(f"{argv[1]}: ")
    assert all(r == runs[0] for r in runs)


@pytest.mark.parametrize("argv", [("construct", "-h"), ("report", "-h")]
                         + [("construct", name, "-h") for name in cli.CONSTRUCTIONS])
def test_help_of_a_command_that_does_not_read_format_omits_it(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "--max-tuples" in out and "--format" not in out


@pytest.mark.parametrize("argv", [("-h",), ("verify", "-h"), ("solve", "-h"),
                                  ("solve", cp("sl2"), "centroid", "-h")])
def test_help_of_a_command_that_reads_format_lists_it(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "--max-tuples" in out and "--format" in out


# ---------------------------------------------------------------- solve

def test_solve_centroid(capsys):
    code, out, _ = run(capsys, "solve", cp("simple3lie4"), "centroid", "0")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 1


def test_solve_derivations_text(capsys):
    code, out, _ = run(capsys, "--format", "text", "solve", cp("simple3lie4"),
                       "derivations", "0")
    assert code == 0
    assert "dimension 6" in out


def test_solve_derivations_distinct_twists(capsys):
    code, out, err = run(capsys, "solve", cp("example2"), "derivations", "0")
    assert code == 1 and out == ""
    assert err == "error: twists differ\n"


@pytest.mark.parametrize("space", ["centroid", "derivations"])
def test_solve_twist_power_below_minus_one_is_a_usage_error(capsys, space):
    """alpha^k is defined for k >= -1, with alpha^(-1) = 0: k = -2 exits 2 with
    a message naming the range, and k = -1 still solves."""
    code, out, err = run(capsys, "solve", cp("sl2"), space, "-2")
    assert (code, out) == (2, "")
    assert err == "error: twist power k must be >= -1 (alpha^-1 = 0, alpha^0 = id), got -2\n"
    code, out, err = run(capsys, "--format", "text", "solve", cp("sl2"), space, "-1")
    assert (code, err) == (0, "")
    assert out == f"{cp('sl2')}: {space} dimension 0\n"


@pytest.mark.parametrize("space", ["center", "central-derivations"])
def test_solve_takes_no_twist_power_for_a_space_without_one(capsys, space):
    """K follows only centroid and derivations; an explicit K after center or
    central-derivations is a usage error, while centroid still takes -1."""
    for k in ("0", "1", "-5"):
        code, out, err = run(capsys, "solve", cp("heisenberg3"), space, k)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"nambucat: error: unrecognized arguments: {k}"
    code, out, err = run(capsys, "--format", "text", "solve", cp("heisenberg3"), space)
    assert (code, err) == (0, "")
    code, _, err = run(capsys, "solve", cp("heisenberg3"), "centroid", "-1")
    assert (code, err) == (0, "")


def test_solve_center(capsys):
    code, out, _ = run(capsys, "solve", cp("heisenberg3"), "center")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 1


# ---------------------------------------------------------------- report

def test_report_pass(capsys):
    code, out, _ = run(capsys, "report", cp("simple3lie4"), cp("zero2"))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert "pass" in lines[1]


def test_report_degenerate_quadratic_fails(capsys):
    code, out, _ = run(capsys, "report", cp("example2"))
    assert code == 1
    assert "FAIL" in out
    assert "degenerate" in out


def test_report_mixed(capsys):
    code, out, _ = run(capsys, "report", cp("simple3lie4"), cp("example2"))
    assert code == 1


def test_no_args_usage(capsys):
    code, _, err = run(capsys, "report")
    assert code == 2


def test_unknown_command(capsys):
    code, _, err = run(capsys)
    assert code == 2


def test_a_bare_command_is_argparse_usage_error(capsys):
    code, out, err = run(capsys)
    assert (code, out) == (2, "")
    assert err.startswith("usage: nambucat [-h] ")
    assert err.splitlines()[-1] == "nambucat: error: the following arguments are required: command"


# ---------------------------------------------------------------- unreadable paths

def _open_error(path, mode="r") -> str:
    """The message of the OSError that opening ``path`` raises."""
    with pytest.raises(OSError) as e:
        open(path, mode)
    return str(e.value)


UTF8_ERROR = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


@pytest.fixture
def unreadable(tmp_path):
    """A directory, a missing file and a file that is not UTF-8 text, each
    with the message it must fail with."""
    missing, bom = tmp_path / "missing.json", tmp_path / "bom.json"
    bom.write_bytes(b"\xff\xfe")
    return [(str(tmp_path), _open_error(tmp_path)), (str(missing), _open_error(missing)),
            (str(bom), UTF8_ERROR)]


# None stands for the input path
@pytest.mark.parametrize("argv", [("verify", None), ("solve", None, "centroid"),
                                  ("construct", "self-twist", None, "-o", os.devnull)])
def test_unreadable_input_is_a_file_error(capsys, unreadable, argv):
    """A directory or a non-UTF-8 file fails like a missing one: exit 2 and
    the error's own message, no traceback."""
    for path, message in unreadable:
        code, out, err = run(capsys, *(path if a is None else a for a in argv))
        assert (code, out, err) == (2, "", f"error: {message}\n"), path


def test_unwritable_output_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "construct", "self-twist", cp("example1"), "-o", str(tmp_path))
    assert (code, out, err) == (2, "", f"error: {_open_error(tmp_path, 'w')}\n")


def test_report_gives_an_unreadable_file_its_own_row(capsys, unreadable):
    code, out, err = run(capsys, "report", *(path for path, _ in unreadable), cp("sl2"))
    assert (code, err) == (1, "")
    rows = [line.split() for line in out.splitlines()]
    assert len(rows) == 2 + len(unreadable)
    for row, (path, message) in zip(rows[1:], unreadable):
        assert row[:2] == [path, "error"] and " ".join(row[4:-3]) == message
    assert rows[-1][:5] == [cp("sl2"), "quadratic_lie", "3", "2", "pass"]


# ---------------------------------------------------------------- parser reuse

def test_parser_is_built_once_and_reused_like_a_fresh_one(capsys, monkeypatch, tmp_path):
    """Back-to-back calls of main share one parser and give the exit code,
    stdout and stderr of calls that each build their own: mixed
    subcommands, the shared flags before and after the subcommand, and
    usage errors."""
    calls = [
        ("verify", cp("simple3lie4")),
        ("--format", "text", "verify", cp("sl2")),
        ("verify", cp("sl2"), "--format", "text"),
        ("--max-tuples", "10", "verify", cp("simple3lie4")),
        ("verify", cp("simple3lie4"), "--max-tuples", "10"),
        ("solve", cp("heisenberg3"), "derivations", "-1"),
        ("--format", "text", "solve", cp("sl2"), "centroid"),
        ("solve", cp("sl2"), "nonsense"),
        ("report", cp("sl2"), cp("example2"), "--format", "text"),
        ("construct", "tstar", cp("simple3lie4"), "-o", str(tmp_path / "t.json")),
        ("verify",),
        ("--parallel", "2", "verify", cp("sl2")),
        (),
        ("verify", cp("sl2")),
    ]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    assert [run(capsys, *argv) for argv in calls] == fresh
    assert len(built) == 1
    assert {code for code, _, _ in fresh} == {0, 1, 2}


def test_dispatch_finds_a_replaced_command(capsys, monkeypatch):
    """The parser is kept, but each call looks its cmd_* function up anew."""
    run(capsys, "verify", cp("sl2"))
    monkeypatch.setattr(cli, "cmd_verify", lambda args: 7)
    assert run(capsys, "verify", cp("sl2"))[0] == 7
