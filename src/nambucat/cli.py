"""Command-line front end.

Exit codes: 0 all checks passed, 1 mathematical failure (failed identity,
failed construction hypothesis, false flag claim) or an exceeded tuple
budget, 2 usage or parse error, or a file that cannot be read or written
(an unreadable input is a ``FileFormatError``, an unwritable output an
``OSError``).  All output is deterministic.  ``--max-tuples`` may come
before or after any command, ``--format`` only around ``FORMAT_COMMANDS``;
a stray argument is shown under the usage of the parser that received it.

The identities that ``verify`` and ``report`` check are one table,
``CHECKS``: each selector names the identity of its report, by which a check
that already ran while the file loaded is found, and its check on the
algebra and quadratic structure that ``_unwrap`` takes out of a loaded file.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

from . import constructions, faulkner, fileio, spaces
from .algebra import (BilinearForm, HomAssocNAry, HomLeibnizAlgebra,
                      HomNambuAlgebra, QuadraticStructure)
from .checks import (CheckReport, TupleBudgetExceeded,
                     check_hom_leibniz, check_hom_nambu_identity,
                     check_multiplicativity, check_quadratic,
                     check_skew_symmetry, check_total_hom_associativity)
from .constructions import ConstructionError
from .faulkner import QuadraticLieAlgebra
from .fileio import FileFormatError, FlagVerificationError
from .linalg import rank

# selector: (the identity of its report, its check on the algebra and the
# quadratic structure); the checks are looked up when they run, so a
# replaced check_* binding of this module is the one called
CHECKS = {
    "nambu": ("hom_nambu_identity", lambda a, q, t: check_hom_nambu_identity(a, t)),
    "skew": ("skew_symmetry", lambda a, q, t: check_skew_symmetry(a, t)),
    "multiplicative": ("multiplicativity", lambda a, q, t: check_multiplicativity(a, t)),
    "quadratic": ("quadratic", lambda a, q, t: check_quadratic(q, t)),
    "leibniz": ("hom_leibniz", lambda a, q, t: check_hom_leibniz(a, t)),
    "assoc": ("total_hom_associativity",
              lambda a, q, t: check_total_hom_associativity(a, t)),
}
SELECTORS = tuple(CHECKS)
FORMAT_COMMANDS = ("verify", "solve")     # the commands that read --format


def _unwrap(obj) -> Tuple[object, Optional[QuadraticStructure]]:
    """The algebra of a loaded object and its quadratic structure (None when
    the file carries no form)."""
    if isinstance(obj, QuadraticLieAlgebra):
        return obj.algebra, QuadraticStructure(obj.algebra, obj.form)
    if isinstance(obj, QuadraticStructure):
        return obj.algebra, obj
    return obj, None


def _applicable(obj, defaults: bool = False) -> List[str]:
    """Selectors valid for this file kind; with defaults=True, only those run
    when none are named (skew/multiplicative only when the file claims them)."""
    a, quad = _unwrap(obj)
    if isinstance(obj, QuadraticLieAlgebra):
        sel = ["nambu", "skew"]
    elif isinstance(a, HomNambuAlgebra):
        sel = ["nambu"] + [s for s, claimed in (("skew", a.skew),
                                                ("multiplicative", a.multiplicative))
                           if claimed or not defaults]
    elif isinstance(a, HomLeibnizAlgebra):
        return ["leibniz"]
    else:       # hom_assoc, the last kind fileio loads
        return ["assoc"]
    return sel + (["quadratic"] if quad is not None else [])


def _run_check(obj, selector: str, max_tuples: Optional[int],
               loaded: Dict[str, CheckReport]) -> CheckReport:
    """The report of an applicable selector; a check that ran while the file
    loaded (with ``loaded`` its reports by identity) is reused, not run again."""
    identity, check = CHECKS[selector]
    done = loaded.get(identity)
    if done is not None:
        return done
    return check(*_unwrap(obj), max_tuples)


def _report_ok(r: CheckReport) -> bool:
    # at the command line a quadratic structure must be nondegenerate, so a
    # degeneracy warning counts against the verdict even though the library
    # check only warns
    if r.identity == "quadratic" and r.warnings:
        return False
    return r.passed


def _emit_reports(path: str, reports: List[CheckReport], fmt: str) -> None:
    if fmt == "json":
        doc = {"file": path,
               "reports": [r.to_json() for r in reports],
               "passed": all(_report_ok(r) for r in reports)}
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        for r in reports:
            verdict = "PASS" if _report_ok(r) else "FAIL"
            line = f"{path}: {r.identity}: {verdict} ({r.tuples_checked} tuples)"
            if r.warnings:
                line += " [" + "; ".join(r.warnings) + "]"
            if r.detail:
                line += f" -- {r.detail}"
            if r.counterexample is not None:
                line += f" -- counterexample at {tuple(i + 1 for i in r.counterexample.indices)}"
            sys.stdout.write(line + "\n")


def cmd_verify(args) -> int:
    loaded: Dict[str, CheckReport] = {}
    obj = fileio.load(args.file, max_tuples=args.max_tuples, reports=loaded)
    selectors = args.selectors or _applicable(obj, defaults=True)
    applicable = _applicable(obj)
    reports = []
    for s in selectors:
        if s not in SELECTORS:
            raise UsageError(f"unknown selector {s!r} (choose from {', '.join(SELECTORS)})")
        if s not in applicable:
            raise UsageError(f"selector {s!r} does not apply to this file kind")
        reports.append(_run_check(obj, s, args.max_tuples, loaded))
    _emit_reports(args.file, reports, args.format)
    return 0 if all(_report_ok(r) for r in reports) else 1


def _as_quadratic(obj, what: str) -> QuadraticStructure:
    if isinstance(obj, QuadraticStructure):
        return obj
    if isinstance(obj, HomNambuAlgebra):
        return QuadraticStructure(obj, BilinearForm.standard(obj.dim))
    raise UsageError(f"{what}: expected an n-ary algebra file")


def _as_nambu(obj, what: str) -> HomNambuAlgebra:
    return _as_quadratic(obj, what).algebra


def cmd_construct(args) -> int:
    sub = args.construction
    budget = args.max_tuples
    objs = [fileio.load(p, max_tuples=budget) for p in args.inputs]
    provenance = f"constructed by '{sub}' from {', '.join(map(os.path.basename, args.inputs))}"

    if sub == "twist":
        a = _as_nambu(objs[0], sub)
        out = constructions.twist_by_morphism(a, fileio.matrix_from_file(args.rho, a.dim),
                                              max_tuples=budget)
    elif sub == "self-twist":
        out = constructions.self_twist(_as_nambu(objs[0], sub), max_tuples=budget)
    elif sub == "tensor":
        h, a = objs
        if not isinstance(h, HomAssocNAry):
            raise UsageError("first tensor input must be a hom_assoc file")
        out = constructions.tensor_product(h, _as_nambu(a, sub), max_tuples=budget)
    elif sub == "leibniz":
        out = constructions.induced_hom_leibniz(_as_nambu(objs[0], sub), max_tuples=budget)
    elif sub == "tstar":
        a = _as_nambu(objs[0], sub)
        form = BilinearForm.standard(a.dim) if args.form in (None, "identity") \
            else BilinearForm(a.dim, fileio.matrix_from_file(args.form, a.dim))
        omega = fileio.matrix_from_file(args.omega, a.dim) if args.omega else None
        out = constructions.tstar_extension(a, form, omega=omega,
                                            max_tuples=budget).structure
    elif sub == "trace-ternary":
        l = objs[0]
        if isinstance(l, (QuadraticStructure, HomNambuAlgebra)):
            a = _as_nambu(l, sub)
            if a.arity != 2:
                raise UsageError("trace-ternary input must be binary")
            l = HomLeibnizAlgebra(a.dim, a.bracket, a.twists[0])
        if not isinstance(l, HomLeibnizAlgebra):
            raise UsageError("trace-ternary input must be a binary algebra file")
        gamma = fileio.matrix_from_file(args.gamma, l.dim)
        tau = fileio.vector_from_file(args.tau, l.dim)
        out = constructions.trace_induced_ternary(l, gamma, tau, max_tuples=budget)
    elif sub == "raise":
        out = constructions.raise_arity(_as_quadratic(objs[0], sub), args.k,
                                        max_tuples=budget)
    elif sub == "reduce":
        q = _as_quadratic(objs[0], sub)
        fixed = [fileio.vector_from_file(p, q.algebra.dim) for p in args.fixed]
        out = constructions.reduce_arity(q, fixed, max_tuples=budget)
    elif sub == "centroid-bracket":
        a = _as_nambu(objs[0], sub)
        out = constructions.centroid_twisted_bracket(
            a, fileio.matrix_from_file(args.theta, a.dim), args.p, max_tuples=budget)
    elif sub == "pullback-form":
        q = objs[0]
        if not isinstance(q, QuadraticStructure):
            raise UsageError("pullback-form input must carry a form")
        form = constructions.pullback_form(q.form, fileio.matrix_from_file(args.map, q.form.dim))
        out = QuadraticStructure(q.algebra, form, beta=q.beta)
        report = check_quadratic(out, budget)
        if not _report_ok(report):      # a degenerate form fails, as in verify
            raise ConstructionError("pulled-back form: quadratic check failed", report)
    else:       # faulkner, the last construction argparse admits
        g = objs[0]
        if not isinstance(g, QuadraticLieAlgebra):
            raise UsageError("faulkner input must be a quadratic_lie file")
        alpha = fileio.matrix_from_file(args.alpha, g.dim) if args.alpha else None
        if args.what == "ternary":
            out = faulkner.faulkner_ternary(g, alpha=alpha, max_tuples=budget)
        elif alpha is None:
            out = faulkner.tensor_leibniz(g, max_tuples=budget)
        else:
            out = faulkner.omega_twist_leibniz(g, alpha, max_tuples=budget)[0]

    fileio.save(out, args.output, name=os.path.basename(args.output),
                provenance=provenance)
    sys.stdout.write(f"wrote {args.output}\n")
    return 0


def cmd_solve(args) -> int:
    if args.space in ("centroid", "derivations") and args.k < -1:
        raise UsageError(f"twist power k must be >= -1 (alpha^-1 = 0, alpha^0 = id), "
                         f"got {args.k}")
    obj = fileio.load(args.file, max_tuples=args.max_tuples)
    a = _as_nambu(_unwrap(obj)[0], "solve")
    basis = (spaces.compute_centroid(a, args.k) if args.space == "centroid"
             else spaces.compute_derivations(a, args.k) if args.space == "derivations"
             else spaces.compute_center(a) if args.space == "center"
             else spaces.compute_central_derivations(a))    # argparse admits only these
    doc = fileio.subspace_to_document(basis)
    if args.format == "json":
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        sys.stdout.write(f"{args.file}: {args.space} dimension {basis.dimension}\n")
    return 0


def cmd_report(args) -> int:
    failures = 0
    rows = []
    for path in args.files:
        try:
            loaded: Dict[str, CheckReport] = {}
            obj = fileio.load(path, max_tuples=args.max_tuples, reports=loaded)
            a, quad = _unwrap(obj)
            checks = [_run_check(obj, s, args.max_tuples, loaded)
                      for s in _applicable(obj, defaults=True)]
            ok = all(_report_ok(r) for r in checks)
            failures += not ok
            form = "-" if quad is None else "nondegenerate" if quad.form.nondegenerate \
                else f"degenerate (rank {rank(quad.form.gram)})"
            cent = der = "-"
            if isinstance(a, HomNambuAlgebra):
                cent = spaces.compute_centroid(a, 0).dimension
                try:
                    der = spaces.compute_derivations(a, 0).dimension
                except ValueError:
                    der = "-"     # distinct twists: no single commuting map
            arity = 2 if isinstance(a, HomLeibnizAlgebra) else a.arity
            rows.append((path, fileio.kind_of(obj), str(a.dim), str(arity),
                         "pass" if ok else "FAIL", str(cent), str(der), form))
        except (ValueError, TupleBudgetExceeded) as e:
            failures += 1
            rows.append((path, "error", "-", "-", str(e), "-", "-", "-"))
    header = ("file", "kind", "dim", "arity", "checks", "centroid", "derivations",
              "form")
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
              for i in range(len(header))]
    for row in (header,) + tuple(rows):
        sys.stdout.write("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip()
                         + "\n")
    return 1 if failures else 0


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Names itself the receiver of its stray arguments, unless a subparser did."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, stray = super().parse_known_args(args, namespace)
        if stray and not hasattr(namespace, "receiver"):
            namespace.receiver = self
        return namespace, stray


def _at_least(least: int) -> type:
    """An action that stores an int option; a value below ``least`` is a
    usage error (exit 2)."""

    class AtLeast(argparse.Action):
        def __call__(self, parser, namespace, value, option_string=None):
            if value < least:
                raise argparse.ArgumentError(
                    self, f"{self.metavar} must be >= {least}, got {value}")
            setattr(namespace, self.dest, value)
    return AtLeast


# construction: (its number of input files, the options it reads)
CONSTRUCTIONS = {
    "twist": (1, {"--rho": dict(required=True, help="endomorphism matrix file")}),
    "self-twist": (1, {}),
    "tensor": (2, {}),
    "leibniz": (1, {}),
    "tstar": (1, {"--form": dict(help="'identity' (the default) or a matrix file"),
                  "--omega": dict(help="involution matrix file")}),
    "trace-ternary": (1, {"--gamma": dict(required=True, help="second twist matrix file"),
                          "--tau": dict(required=True, help="trace vector file")}),
    "raise": (1, {"-k": dict(type=int, default=1, metavar="K", action=_at_least(1),
                             help="iteration count")}),
    "reduce": (1, {"--fixed": dict(action="append", required=True,
                                   help="vector file of a fixed argument; repeatable")}),
    "centroid-bracket": (1, {"--theta": dict(required=True,
                                             help="centroid element matrix file"),
                             "-p": dict(type=int, default=1,
                                        help="number of twisted slots")}),
    "pullback-form": (1, {"--map": dict(required=True, help="form-symmetric matrix file")}),
    "faulkner": (1, {"--alpha": dict(help="involution matrix file"),
                     "--what": dict(choices=("ternary", "leibniz"), default="ternary",
                                    help="output type")}),
}


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "text"),
                     default=argparse.SUPPRESS, help="report output format")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--max-tuples", type=int, metavar="N", action=_at_least(0),
                        default=argparse.SUPPRESS,
                        help="abort any single check needing more than N basis tuples")
    # allow_abbrev=False: an option is read only under its full name
    parser = _Parser(
        prog="nambucat", parents=[fmt, budget], allow_abbrev=False,
        description="Verify, construct, and analyze n-ary Hom-Nambu algebras "
                    "over exact rationals.")
    subs = parser.add_subparsers(dest="command", required=True)

    def add(group, name: str, command: str = "", **kwargs) -> argparse.ArgumentParser:
        flags = [fmt, budget] if (command or name) in FORMAT_COMMANDS else [budget]
        return group.add_parser(name, parents=flags, allow_abbrev=False, **kwargs)

    p = add(subs, "verify", help="run identity checks on an algebra file")
    p.add_argument("file")
    p.add_argument("selectors", nargs="*",
                   help=f"identities to check (default: all applicable); "
                        f"choose from {', '.join(SELECTORS)}")

    p = add(subs, "construct", help="build a new algebra from inputs")
    builds = p.add_subparsers(dest="construction", required=True)
    for name, (inputs, options) in CONSTRUCTIONS.items():
        c = add(builds, name, "construct")
        c.add_argument("inputs", nargs=inputs, metavar="input")
        c.add_argument("-o", "--output", required=True)
        for flag, kwargs in options.items():
            c.add_argument(flag, **kwargs)

    p = add(subs, "solve", help="compute a structure space basis")
    p.add_argument("file")
    levels = p.add_subparsers(dest="space", required=True)
    for space in ("centroid", "derivations"):
        add(levels, space, "solve").add_argument(
            "k", nargs="?", type=int, default=0, help="twist power level")
    for space in ("center", "central-derivations"):
        add(levels, space, "solve")

    p = add(subs, "report", help="summary table, one row per file")
    p.add_argument("files", nargs="+")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept for the process."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    parser = _parser()
    args, stray = parser.parse_known_args(argv)
    if stray:
        parser.exit(2, args.receiver.format_usage() + f"{parser.prog}: error: "
                    f"unrecognized arguments: {' '.join(stray)}\n")
    # the shared flags may arrive before or after the subcommand
    if args.command in FORMAT_COMMANDS:
        args.format = getattr(args, "format", "json")
    elif hasattr(args, "format"):
        parser.error(f"argument --format: read only by {' and '.join(FORMAT_COMMANDS)}")
    args.max_tuples = getattr(args, "max_tuples", None)
    try:
        # looked up at call time, so a replaced cmd_* function is the one run
        return globals()[f"cmd_{args.command}"](args)
    except (UsageError, FileFormatError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except (FlagVerificationError, ConstructionError) as e:
        what = "verification" if isinstance(e, FlagVerificationError) else "construction"
        sys.stderr.write(f"{what} failure: {e}\n")
        if e.report is not None:
            sys.stderr.write(json.dumps(e.report.to_json(), indent=2) + "\n")
        return 1
    except (TupleBudgetExceeded, ValueError) as e:
        what = "tuple budget exceeded" if isinstance(e, TupleBudgetExceeded) else "error"
        sys.stderr.write(f"{what}: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
