"""End-to-end exercises of the command-line interface."""

import json
from pathlib import Path

import pytest

from conftest import filippov
from nambucat import corpus, fileio
from nambucat.cli import main


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


def test_construct_missing_option(capsys, tmp_path):
    out = tmp_path / "x.json"
    code, _, err = run(capsys, "construct", "twist", cp("simple3lie4"),
                       "-o", str(out))
    assert code == 2


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
