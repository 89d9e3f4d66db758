"""The names the benchmark's tracer wraps must exist in nambucat, so that a
rename in ``src/`` fails here and not silently in ``bench/run.py --trace 1``.

``bench/tracing.py`` is read as text and executed in a fresh namespace:
nothing is written under ``bench/``.
"""

import importlib
import inspect
import types
from pathlib import Path

import nambucat
from nambucat import Matrix, corpus
from nambucat.linalg import rank

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    mod = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), mod.__dict__)
    return mod


def test_traced_names_resolve():
    tracing = _tracing()
    for _, modname, names in tracing.LAYERS:
        mod = importlib.import_module(modname)
        public = [n for n, v in vars(mod).items()
                  if inspect.isfunction(v) and v.__module__ == modname and not n.startswith("_")]
        for name in public if names is None else names:
            assert inspect.isfunction(getattr(mod, name, None)), f"{modname}.{name}"
        assert names is not None or public, modname
    for _, modname, clsname, names in tracing.METHODS:
        cls = getattr(importlib.import_module(modname), clsname)
        for name in names + ["value"]:         # value calls are counted as well
            assert inspect.isfunction(cls.__dict__.get(name)), f"{clsname}.{name}"


def test_tracer_installs_and_records_layers():
    tracing = _tracing()
    sl2 = corpus.load("sl2").algebra
    tracer = tracing.Tracer()
    tracer.install()
    try:
        nambucat.checks.check_skew_symmetry(sl2)
        nambucat.linalg.rank(Matrix.identity(3))
        nambucat.linalg.rref(Matrix.identity(3))    # rank does not go through _rref
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    assert "checks.check_skew_symmetry" in names
    assert "linalg.rank" in names and "linalg._rref" in names
    metrics = tracing.layer_metrics(tracer.spans, tracer.value_calls)
    assert metrics["linalg.elim_entries"] == 9     # the 3 x 3 rows _rref was given
    assert nambucat.linalg.rank is rank        # uninstall restored the binding
