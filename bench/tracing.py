"""Spans around the calls into each layer of nambucat, installed from outside.

Installing replaces each traced function with a wrapper in every nambucat
module that holds a binding to it: ``cli``, ``constructions``, ``fileio``,
``spaces`` and ``faulkner`` import the ``check_*`` functions by name, so
patching ``nambucat.checks`` alone would miss their calls.  A span is
``[name, start, end, parent, attr]``; spans stay in memory until the run
ends.  ``BracketTensor.value`` runs once per visited tuple, so it only
counts calls.  The layer metrics come from the spans and their parent links.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter
from typing import Dict, List

# (layer, module, names); None means every public function the module defines.
# linalg's Vector/Matrix arithmetic and frac coercion run per entry and are
# left out: the linalg layer is its elimination routines.
LAYERS = [
    ("cli", "nambucat.cli", ["main"]),
    ("checks", "nambucat.checks", None),
    ("spaces", "nambucat.spaces", None),
    ("constructions", "nambucat.constructions", None),
    ("constructions", "nambucat.faulkner",
     ["tensor_leibniz", "omega_twist_leibniz", "faulkner_ternary"]),
    ("fileio", "nambucat.fileio", None),
    ("linalg", "nambucat.linalg",
     ["_rref", "rref", "rank", "nullspace", "det", "solve", "solve_matrix", "in_span"]),
]
METHODS = [("algebra", "nambucat.algebra", "BracketTensor", ["transform", "dense_items"])]


# what a span records besides its times, from the call's arguments and result
ATTRS = {
    "transform": lambda args, res: len(res.coeffs),
    "nullspace": lambda args, res: (args[0].rows, args[0].cols),
    "_rref": lambda args, res: len(args[0]) * (len(args[0][0]) if args[0] else 0),
    "load": lambda args, res: os.path.getsize(args[0]),
    "load_document": lambda args, res: os.path.getsize(args[0]),
    "save": lambda args, res: os.path.getsize(args[1]),
}


def _tuples_checked(args, res) -> int:
    return getattr(res, "tuples_checked", 0)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.value_calls = 0
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    def _wrap(self, key: str, fn):
        spans, stack = self.spans, self._stack
        name = key.split(".", 1)[1]
        attr = _tuples_checked if key.startswith("checks.") else ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [key, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if attr is not None:
                rec[4] = attr(args, result)
            return result
        return wrapper

    def install(self) -> None:
        wrappers = {}     # id of a traced function -> its wrapper
        for layer, modname, names in LAYERS:
            mod = sys.modules[modname]
            if names is None:
                names = [n for n, v in vars(mod).items()
                         if inspect.isfunction(v) and v.__module__ == modname
                         and not n.startswith("_")]
            for n in names:
                fn = getattr(mod, n)
                wrappers[id(fn)] = self._wrap(f"{layer}.{n}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "nambucat" and not modname.startswith("nambucat."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])
        for layer, modname, clsname, names in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            for n in names:
                fn = cls.__dict__[n]
                self._patches.append((cls, n, fn))
                setattr(cls, n, self._wrap(f"{layer}.{n}", fn))
        cls = sys.modules["nambucat.algebra"].BracketTensor
        value = cls.__dict__["value"]

        def counted_value(tensor, idx):
            self.value_calls += 1
            return value(tensor, idx)
        self._patches.append((cls, "value", value))
        cls.value = counted_value

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._patches):
            setattr(owner, attr, val)
        self._patches.clear()

    def dump(self, path, pass_no: int, mode: str = "a") -> None:
        with open(path, mode) as fh:
            for key, start, end, parent, attr in self.spans:
                fh.write(json.dumps({"pass": pass_no, "name": key, "start": start, "end": end,
                                     "parent": parent, "attr": attr}) + "\n")


# per-layer metric -> unit
UNITS = {
    "checks.time_s": "s", "checks.calls": "count", "checks.tuples": "count",
    "checks.us_per_tuple": "us",
    "algebra.transform_s": "s", "algebra.transform_calls": "count",
    "algebra.transform_nnz": "count", "algebra.value_calls": "count",
    "algebra.dense_items_s": "s",
    "spaces.time_s": "s", "spaces.assembly_s": "s", "spaces.system_rows": "count",
    "spaces.system_cols": "count",
    "linalg.time_s": "s", "linalg.nullspace_s": "s", "linalg.elim_entries": "count",
    "constructions.time_s": "s", "constructions.build_s": "s",
    "constructions.verify_s": "s",
    "fileio.load_s": "s", "fileio.load_verify_s": "s", "fileio.save_s": "s",
    "fileio.bytes_read": "bytes", "fileio.bytes_written": "bytes",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: List[list], value_calls: int) -> Dict[str, float]:
    """Per-layer totals of one traced pass.  A layer's time counts only its
    outermost spans, so nested calls within a layer are not counted twice;
    a span's self time is its duration minus its children's."""
    n = len(spans)
    key = [s[0] for s in spans]
    layer = [k.split(".", 1)[0] for k in key]
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    anc: List[frozenset] = [frozenset()] * n   # ancestor layers and names
    for i, s in enumerate(spans):
        p = s[3]
        if p >= 0:
            child[p] += dur[i]
            anc[i] = anc[p] | {layer[p], key[p]}

    def total(pred) -> float:
        return sum((dur[i] for i in range(n) if pred(i)), 0.0)

    def top(lay: str):
        return lambda i: layer[i] == lay and lay not in anc[i]

    def count(k: str) -> int:
        return sum(1 for x in key if x == k)

    def attrs(k: str, pick=lambda a: a) -> int:
        return sum(pick(spans[i][4]) for i in range(n) if key[i] == k)

    m = defaultdict(float)
    m["checks.time_s"] = total(top("checks"))
    m["checks.calls"] = sum(1 for x in layer if x == "checks")
    m["checks.tuples"] = sum(spans[i][4] or 0 for i in range(n) if layer[i] == "checks")
    m["checks.us_per_tuple"] = (m["checks.time_s"] / m["checks.tuples"] * 1e6
                                if m["checks.tuples"] else 0.0)
    m["algebra.transform_s"] = total(lambda i: key[i] == "algebra.transform")
    m["algebra.transform_calls"] = count("algebra.transform")
    m["algebra.transform_nnz"] = attrs("algebra.transform")
    m["algebra.value_calls"] = value_calls
    m["algebra.dense_items_s"] = total(lambda i: key[i] == "algebra.dense_items"
                                       and "algebra.dense_items" not in anc[i])
    m["spaces.time_s"] = total(top("spaces"))
    m["spaces.assembly_s"] = sum((dur[i] - child[i] for i in range(n)
                                  if key[i].startswith("spaces.compute_")), 0.0)
    m["spaces.system_rows"] = sum(spans[i][4][0] for i in range(n)
                                  if key[i] == "linalg.nullspace" and "spaces" in anc[i])
    m["spaces.system_cols"] = sum(spans[i][4][1] for i in range(n)
                                  if key[i] == "linalg.nullspace" and "spaces" in anc[i])
    m["linalg.time_s"] = total(top("linalg"))
    m["linalg.nullspace_s"] = total(lambda i: key[i] == "linalg.nullspace")
    m["linalg.elim_entries"] = attrs("linalg._rref")
    m["constructions.time_s"] = total(top("constructions"))
    m["constructions.verify_s"] = total(lambda i: top("checks")(i) and "constructions" in anc[i])
    m["constructions.build_s"] = m["constructions.time_s"] - m["constructions.verify_s"]
    m["fileio.load_s"] = total(lambda i: key[i] == "fileio.load")
    m["fileio.load_verify_s"] = total(lambda i: top("checks")(i) and "fileio.load" in anc[i])
    m["fileio.save_s"] = total(lambda i: key[i] == "fileio.save")
    m["fileio.bytes_read"] = attrs("fileio.load") + attrs("fileio.load_document")
    m["fileio.bytes_written"] = attrs("fileio.save")
    m["cli.self_s"] = sum((dur[i] - child[i] for i in range(n) if key[i] == "cli.main"), 0.0)
    return dict(m)
