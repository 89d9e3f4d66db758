"""The three workloads: their inputs, their command lists and the checks of
every output against the reference evaluator or a property the method must
have.

A workload's ``setup`` writes the seeded inputs, builds the inputs that come
from the program's own ``construct`` and checks each input with the
reference before use.  ``ops`` is the command list of one pass.  Checks run
after a pass, outside the timed region.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import generate as gen
import reference as ref

Result = Tuple[int, str, str]


class SetupError(Exception):
    """An input could not be built or failed its reference check."""


class Program:
    """The nambucat package imported from the checkout's ``src``.

    Commands look ``cli.main`` and ``fileio`` up through this handle at call
    time, so the functions a tracer installs are the ones that run."""

    def __init__(self, root: Path):
        self.src = root / "src"

    def load(self) -> None:
        """(Re-)import the package from source; used to time the import."""
        for name in [m for m in sys.modules if m == "nambucat" or m.startswith("nambucat.")]:
            del sys.modules[name]
        if str(self.src) not in sys.path:
            sys.path.insert(0, str(self.src))
        self.cli = importlib.import_module("nambucat.cli")
        self.fileio = importlib.import_module("nambucat.fileio")
        self.package = sys.modules["nambucat"]
        if not Path(self.package.__file__).resolve().is_relative_to(self.src.resolve()):
            raise SetupError(f"nambucat imported from {self.package.__file__}, not from {self.src}")

    def run_cli(self, argv: List[str]) -> Result:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as e:     # argparse usage errors
                code = e.code if isinstance(e.code, int) else 2
        return code, out.getvalue(), err.getvalue()


@dataclass
class Op:
    """One operation of a pass.  ``run`` is timed; ``prepare`` runs just
    before it, untimed.  ``check(code, stdout, stderr, files)`` gets the
    bytes of each path in ``outputs`` and returns None when the result is
    right, else what is wrong."""

    label: str
    run: Callable[[], Result]
    check: Callable[[int, str, str, Tuple[bytes, ...]], Optional[str]]
    outputs: Tuple[Path, ...] = ()
    prepare: Optional[Callable[[], None]] = None


def _fracs(xs) -> List[Fraction]:
    return [Fraction(x) for x in xs]


class Workload:
    name = ""

    def __init__(self, prog: Program, work: Path, seed: int, root: Path):
        self.prog = prog
        self.work = work
        self.seed = seed
        self.corpus_dir = root / "src" / "nambucat" / "corpus"
        self.docs: Dict[str, dict] = {}

    # ---------------------------------------------------------------- setup

    def setup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "out").mkdir(parents=True)
        corpus = {p.stem: json.loads(p.read_text()) for p in self.corpus_dir.glob("*.json")}
        self.seeded = gen.make_seeded(self.seed, corpus)
        self.corpus = corpus
        self.build()

    def build(self) -> None:
        raise NotImplementedError

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def path(self, name: str) -> str:
        return str(self.work / name)

    def put(self, name: str, doc: Optional[dict] = None) -> None:
        """Write a seeded (or given) document into the work directory."""
        doc = self.seeded[name] if doc is None else doc
        gen.write(self.path(name), doc)
        self.docs[name] = doc

    def construct(self, args: List[str], out: str) -> None:
        code, _, err = self.prog.run_cli(["construct"] + args + ["-o", self.path(out)])
        if code != 0:
            raise SetupError(f"construct {' '.join(args)} exited {code}: {err.strip()}")
        self.docs[out] = json.loads(Path(self.path(out)).read_text())

    def require(self, name: str, expect: Dict[str, bool]) -> None:
        """Reference verdicts of an input must be the ones theory gives."""
        got = ref.verdicts(ref.parse(self.docs[name]))
        if got != expect:
            raise SetupError(f"{name}: reference verdicts {got}, expected {expect}")

    def cli_op(self, label: str, argv: List[str], check, output: Optional[str] = None) -> Op:
        return Op(label, lambda: self.prog.run_cli(argv), check,
                  (Path(self.path(output)),) if output else ())


def _expected_reports(doc: dict) -> List[Tuple[str, int]]:
    """The reports `verify` gives by default, with their closed-form tuple
    counts: C(d,n-1)*C(d,n) for a skew claim, d^(2n-1) otherwise, d^3 for
    Leibniz, d^n for skew and multiplicativity, d^(n-1) for the form."""
    d, n, kind = doc["dim"], doc["arity"], doc["kind"]
    if kind == "hom_leibniz":
        return [("hom_leibniz", d ** 3)]
    flags = doc.get("flags", {})
    skew = flags.get("skew", False)
    out = [("hom_nambu_identity", comb(d, n - 1) * comb(d, n) if skew else d ** (2 * n - 1))]
    if skew:
        out.append(("skew_symmetry", d ** n))
    if flags.get("multiplicative", False):
        out.append(("multiplicativity", d ** n))
    if doc.get("form") is not None:
        out.append(("quadratic", d ** (n - 1)))
    return out


class VerifyLadder(Workload):
    name = "verify-ladder"
    FILES = ["A4.json", "A5.json", "A6.json", "A4-nonskew.json", "raise5.json",
             "leibniz16.json", "A5-perturbed.json"]

    def build(self) -> None:
        for name in ("A4.json", "A5.json", "A6.json", "A4-nonskew.json",
                     "A5-perturbed.json", "example1.json"):
            self.put(name)
        self.construct(["raise", self.path("example1.json"), "-k", "1"], "raise5.json")
        self.construct(["leibniz", self.path("A4.json")], "leibniz16.json")
        self.expect = {}
        for name in self.FILES:
            a = ref.parse(self.docs[name])
            v = ref.verdicts(a)
            if all(v.values()) != (name != "A5-perturbed.json"):
                raise SetupError(f"{name}: reference verdicts {v} contradict theory")
            reports = [(ident, v[ident], count) for ident, count in
                       _expected_reports(self.docs[name])]
            failure = None
            if not v.get("hom_nambu_identity", True):
                # the first violated tuple in the order the program visits
                idx, pos, lhs, rhs = ref.first_nambu_failure(a, a.skew_claim)
                failure = {"indices": [i + 1 for i in idx],
                           "left": ref.vec_to_json(lhs, a.dim),
                           "right": ref.vec_to_json(rhs, a.dim)}
                reports[0] = (reports[0][0], False, pos)
            self.expect[name] = (reports, failure)

    def ops(self) -> List[Op]:
        return [self.cli_op(f"verify {name}", ["verify", self.path(name)],
                            self._checker(name)) for name in self.FILES]

    def _checker(self, name: str):
        reports, failure = self.expect[name]
        path = self.path(name)

        def check(code, out, err, _):
            doc = json.loads(out)
            got = [(r["identity"], r["passed"] and not r.get("warnings"), r["tuples_checked"])
                   for r in doc["reports"]]
            if got != reports:
                return f"reports {got}, expected {reports}"
            ok = all(p for _, p, _ in reports)
            if doc["file"] != path or doc["passed"] != ok or code != (0 if ok else 1):
                return f"exit {code}, passed {doc['passed']}, expected {ok}"
            cex = doc["reports"][0]["counterexample"]
            if cex != failure:
                return f"counterexample {cex}, reference gives {failure}"
            return None
        return check


class SolveSpaces(Workload):
    name = "solve-spaces"
    SPACES = ("centroid", "derivations", "center", "central-derivations")
    GENERATED = ["A5.json", "tstar8.json", "leibniz9-nambu.json"]

    def build(self) -> None:
        for name in ("A4.json", "A5.json", "example1.json"):
            self.put(name)
        self.construct(["tstar", self.path("A4.json")], "tstar8.json")
        self.construct(["leibniz", self.path("example1.json")], "leibniz9.json")
        self.put("leibniz9-nambu.json", gen.leibniz_as_nambu(self.docs["leibniz9.json"]))
        (self.work / "corpus").mkdir()
        self.corpus_files = []
        for stem in sorted(self.corpus):
            name = f"corpus/{stem}.json"
            shutil.copyfile(self.corpus_dir / f"{stem}.json", self.path(name))
            self.docs[name] = self.corpus[stem]
            self.corpus_files.append(name)
        self.require("A5.json", {"hom_nambu_identity": True, "skew_symmetry": True,
                                 "multiplicativity": True})
        self.require("tstar8.json", {"hom_nambu_identity": True, "skew_symmetry": True,
                                     "multiplicativity": True, "quadratic": True})
        self.require("leibniz9.json", {"hom_leibniz": True})
        self.require("leibniz9-nambu.json", {"hom_nambu_identity": True})
        self.systems: Dict[Tuple[str, str], tuple] = {}

    def system(self, name: str, space: str):
        """Reference equations and rank, assembled once per run."""
        key = (name, space)
        if key not in self.systems:
            rows, n = ref.space_system(ref.parse(self.docs[name]), space)
            self.systems[key] = (rows, n, ref.rank(rows, n))
        return self.systems[key]

    def ops(self) -> List[Op]:
        ops = [self.cli_op(f"solve {name} {space}", ["solve", self.path(name), space],
                           self._solve_checker(name, space))
               for name in ("A5.json", "tstar8.json") for space in self.SPACES]
        ops.append(self.cli_op("solve leibniz9-nambu.json derivations",
                               ["solve", self.path("leibniz9-nambu.json"), "derivations"],
                               self._solve_checker("leibniz9-nambu.json", "derivations")))
        files = self.corpus_files + self.GENERATED
        ops.append(self.cli_op("report", ["report"] + [self.path(f) for f in files],
                               self._report_checker(files)))
        return ops

    def _solve_checker(self, name: str, space: str):
        d = self.docs[name]["dim"]
        # Filippov's A_{n+1} is simple: centroid = scalars, derivations =
        # so(n+1), no center and so no central derivations
        theory = {"centroid": 1, "derivations": d * (d - 1) // 2, "center": 0,
                  "central-derivations": 0} if name == "A5.json" else {}

        def check(code, out, err, _):
            doc = json.loads(out)
            kind = "vector" if space == "center" else "matrix"
            if code != 0 or doc["space"] != kind or doc["ambient_dim"] != d:
                return f"exit {code}, space {doc['space']}, ambient {doc['ambient_dim']}"
            if doc["dimension"] != len(doc["basis"]):
                return "dimension disagrees with the basis length"
            if space in theory and doc["dimension"] != theory[space]:
                return f"dimension {doc['dimension']}, theory gives {theory[space]}"
            vectors = [_fracs(v) if kind == "vector" else _fracs(x for row in v for x in row)
                       for v in doc["basis"]]
            return ref.basis_error(*self.system(name, space), vectors)
        return check

    def _report_row(self, name: str) -> List[str]:
        doc = self.docs[name]
        a = ref.parse(doc)
        ok = all(ref.verdicts(a).values())
        cent = der = form = "-"
        if a.kind in ("hom_nambu", "quadratic_lie"):
            rows, n, r = self.system(name, "centroid")
            cent = str(n - r)
            if ref.twists_equal(a):
                rows, n, r = self.system(name, "derivations")
                der = str(n - r)
        if a.form is not None and a.kind in ("hom_nambu", "quadratic_lie"):
            r = ref.rank(a.form, a.dim)
            form = "nondegenerate" if r == a.dim else f"degenerate (rank {r})"
        return [self.path(name), a.kind, str(a.dim), str(a.arity),
                "pass" if ok else "FAIL", cent, der, form]

    def _report_checker(self, files: List[str]):
        def check(code, out, err, _):
            expect = [self._report_row(f) for f in files]
            lines = out.splitlines()
            got = [line.split(None, 7) for line in lines[1:]]
            if lines[0].split() != ["file", "kind", "dim", "arity", "checks", "centroid",
                                    "derivations", "form"]:
                return f"bad header {lines[0]!r}"
            if got != expect:
                bad = next(i for i in range(max(len(got), len(expect)))
                           if i >= len(got) or i >= len(expect) or got[i] != expect[i])
                return f"row {bad}: {got[bad] if bad < len(got) else None}, " \
                       f"expected {expect[bad] if bad < len(expect) else None}"
            want = 1 if any(row[4] != "pass" for row in expect) else 0
            return None if code == want else f"exit {code}, expected {want}"
        return check


class ConstructRoundtrip(Workload):
    name = "construct-roundtrip"

    def build(self) -> None:
        for name in ("example1.json", "A4.json", "sl2.json", "rho.json"):
            self.put(name)
        self.require("example1.json", {"hom_nambu_identity": True, "multiplicativity": True,
                                       "quadratic": True})
        self.require("A4.json", {"hom_nambu_identity": True, "skew_symmetry": True,
                                 "multiplicativity": True})
        self.require("sl2.json", {"hom_nambu_identity": True, "skew_symmetry": True,
                                  "quadratic": True})
        rho = [_fracs(row) for row in self.docs["rho.json"]["matrix"]]
        if not ref.is_endomorphism(ref.parse(self.docs["A4.json"]), rho):
            raise SetupError("rho is not an automorphism of A4")

    def ops(self) -> List[Op]:
        # (construction, arguments, output, kind, dim, arity) with the dim and
        # arity theory gives: raise 2n-1, tstar 2d, leibniz d^(n-1), faulkner
        # leibniz d^2
        plan = [
            ("raise", ["example1.json", "-k", "1"], "raise.json", "hom_nambu", 3, 5),
            ("leibniz", ["A4.json"], "leibniz.json", "hom_leibniz", 16, 2),
            ("tstar", ["A4.json"], "tstar.json", "hom_nambu", 8, 3),
            ("faulkner", ["sl2.json"], "faulkner-ternary.json", "hom_nambu", 3, 3),
            ("faulkner", ["sl2.json", "--what", "leibniz"], "faulkner-leibniz.json",
             "hom_leibniz", 9, 2),
            ("self-twist", ["example1.json"], "self-twist.json", "hom_nambu", 3, 3),
            ("twist", ["A4.json", "--rho", "rho.json"], "twist.json", "hom_nambu", 4, 3),
        ]
        ops = []
        for sub, args, out, kind, dim, arity in plan:
            argv = ["construct", sub] + [self.path(a) if a.endswith(".json") else a
                                         for a in args] + ["-o", self.path("out/" + out)]
            ops.append(self.cli_op(f"construct {sub} -> {out}", argv,
                                   self._construct_checker(out, kind, dim, arity),
                                   output="out/" + out))
            ops.append(self._roundtrip_op(out))
        return ops

    def _construct_checker(self, out: str, kind: str, dim: int, arity: int):
        path = self.path("out/" + out)

        def check(code, stdout, err, files):
            if code != 0 or stdout != f"wrote {path}\n":
                return f"exit {code}, stdout {stdout!r}"
            doc = json.loads(files[0])
            if (doc["kind"], doc["dim"], doc["arity"]) != (kind, dim, arity):
                return f"{doc['kind']} dim {doc['dim']} arity {doc['arity']}, " \
                       f"theory gives {kind} dim {dim} arity {arity}"
            v = ref.verdicts(ref.parse(doc))
            return None if all(v.values()) else f"reference verdicts {v}"
        return check

    def _roundtrip_op(self, out: str) -> Op:
        """save(load(out)) into a second file; it must equal out byte for byte."""
        src, dst = Path(self.path("out/" + out)), Path(self.path("out/resaved-" + out))
        meta = {}

        def prepare():
            meta.clear()
            meta.update(json.loads(src.read_text()).get("metadata", {}))

        def run():
            fio = self.prog.fileio
            fio.save(fio.load(str(src)), str(dst), name=meta.get("name"),
                     provenance=meta.get("provenance"))
            return 0, "", ""

        def check(code, stdout, err, files):
            return None if files[0] == files[1] else "save(load(out)) differs from out"
        return Op(f"roundtrip {out}", run, check, (dst, src), prepare)


WORKLOADS = {w.name: w for w in (VerifyLadder, SolveSpaces, ConstructRoundtrip)}
