"""Benchmark of the nambucat command line, end to end and layer by layer.

    python3 bench/run.py --workload verify-ladder --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  One process: it imports nambucat from
``src``, writes seeded inputs under ``bench/_work/<workload>``, and runs the
workload's command list through ``nambucat.cli.main`` in a closed loop with
one client (each command starts when the previous one returns), pass after
pass, until ``--seconds`` of commands have run and, without tracing, at
least two passes.  After the last pass every output is checked by the
reference evaluator, outside the timed region.

Times are scaled to a reference host speed: see ``timed``.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import sys
import traceback
from pathlib import Path
from statistics import mean, median, median_low
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import generate as gen  # noqa: E402
import reference as ref  # noqa: E402
import tracing as tr  # noqa: E402
from workloads import WORKLOADS, Program, SetupError  # noqa: E402

# set-up runs this many times per run; setup_s is their median
SETUP_REPEATS = 3
# an untraced run makes at least this many passes, so that every command's
# median has more than one sample however long a pass takes
MIN_PASSES = 2

# Host speed.  Other tenants of a shared machine slow this whole process,
# by up to about 1.7x for seconds to minutes at a time, and CPU time moves
# with wall time.  So every timed interval is scaled to a reference host
# speed by a calibration kernel timed next to it and inside it: the
# reference evaluator (benchmark code, no nambucat) checking A4's
# identities and ranking its centroid system, the same kind of work as the
# program's, exact Fraction arithmetic over dicts of basis tuples.
# CAL_REF_S is the kernel's time at the reference speed (about the fast
# speed of a 2-vCPU Xeon host under Python 3.11), TICK_S how often it runs
# inside an interval.
CAL_A4 = ref.parse(gen.filippov(4))
CAL_REF_S = 0.010
TICK_S = 0.5
TICKS: list = []


def kernel_s() -> float:
    t0 = perf_counter()
    ref.verdicts(CAL_A4)
    ref.rank(*ref.space_system(CAL_A4, "centroid"))
    return perf_counter() - t0


def probe() -> float:
    """The kernel's time now, as the median of three runs."""
    return median(kernel_s() for _ in range(3))


def _tick(signum, frame) -> None:
    TICKS.append(kernel_s())


def timed(fn, before: float, tick: float = TICK_S):
    """Call fn with the kernel ticking every ``tick`` seconds inside it (0:
    not at all, so that traced spans hold no kernel time).

    Returns fn's result, its seconds without the ticks, those seconds at the
    reference speed, and a probe taken after it, which is the next interval's
    ``before``.  The scale is CAL_REF_S over the mean kernel time of the
    probe before, the ticks and the probe after: evenly spaced samples of
    the host speed over the interval.  A change to the program moves the
    interval and not the kernel, so it shows in full."""
    TICKS.clear()
    t0 = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, tick, tick)
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        dt = perf_counter() - t0
    dt -= sum(TICKS)
    after = probe()
    return result, dt, dt * CAL_REF_S / mean([before, *TICKS, after]), after


E2E_UNITS = {"setup_s": "s", "wall_s": "s", "max_cmd_s": "s", "peak_rss_mb": "MB"}


def git_sha() -> str:
    """HEAD of the checkout's git repository, read from its files."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_pass(ops, tick: float = TICK_S):
    """One pass: [(op, seconds, scaled seconds, code, stdout, stderr, output
    files)]; only ``op.run`` is timed, and code None means the command
    raised.  Each command starts on a collected heap, as in a fresh process."""
    results = []
    gc.collect()
    before = probe()
    for op in ops:
        if op.prepare is not None:
            op.prepare()
        gc.collect()
        (code, out, err), dt, scaled, before = timed(lambda: attempt(op), before, tick)
        results.append((op, dt, scaled, code, out, err,
                        tuple(p.read_bytes() for p in op.outputs)))
    return results


def attempt(op):
    try:
        return op.run()
    except Exception:
        return None, "", traceback.format_exc()


class Tally:
    """Attempted, failed and wrong operations over the run.  An operation
    fails when it raises or exits 2 (usage or file error); a completed one
    is checked, and identical results are checked once."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.wrong = []
        self._seen = {}

    def add(self, results) -> None:
        for op, _, _, code, out, err, files in results:
            self.attempted += 1
            if code is None or code == 2:
                self.failures.append(f"{op.label}: failed (exit {code}): {err.strip()[-500:]}")
                continue
            key = (op.label, code, out, err, files)
            if key not in self._seen:
                try:
                    self._seen[key] = op.check(code, out, err, files)
                except (ValueError, KeyError, TypeError, IndexError, AttributeError) as e:
                    self._seen[key] = f"unreadable output: {e!r}"
            if self._seen[key] is not None:
                self.wrong.append(f"{op.label}: {self._seen[key]}")


def set_up(prog: Program, args, work: Path):
    prog.load()
    wl = WORKLOADS[args.workload](prog, work, args.seed, ROOT)
    wl.setup()
    return wl


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "nambucat" / "__init__.py").is_file():
        sys.stderr.write(f"error: no nambucat sources under {ROOT / 'src'}\n")
        return 2
    work = BENCH / "_work" / args.workload
    prog = Program(ROOT)
    signal.signal(signal.SIGALRM, _tick)
    setup_times, setup_scaled = [], []
    try:
        # setup_s is reported by untraced runs only
        for _ in range(1 if args.trace else SETUP_REPEATS):
            gc.collect()
            wl, dt, scaled, _ = timed(lambda: set_up(prog, args, work), probe())
            setup_times.append(dt)
            setup_scaled.append(scaled)
    except (SetupError, ImportError) as e:
        sys.stderr.write(f"error: set-up failed: {e}\n")
        return 2
    ops = wl.ops()

    # outputs are checked after the last pass, so the reference evaluator's
    # memory does not reach the peak resident size read here
    passes = []
    raw_times = {op.label: [] for op in ops}      # untraced command times
    times = {op.label: [] for op in ops}          # the same, scaled
    traced_times = {op.label: [] for op in ops}   # traced, scaled
    layer_runs = []
    measured = 0.0
    spans_path = work / "spans.jsonl"
    min_passes = 1 if args.trace else MIN_PASSES
    while len(times[ops[0].label]) < min_passes or measured < args.seconds:
        results = run_pass(ops)
        passes.append(results)
        for op, dt, scaled, *_ in results:
            raw_times[op.label].append(dt)
            times[op.label].append(scaled)
        measured += sum(r[1] for r in results)
        if args.trace:
            tracer = tr.Tracer()
            tracer.install()
            try:
                results = run_pass(ops, tick=0)
            finally:
                tracer.uninstall()
            passes.append(results)
            for op, _, scaled, *_ in results:
                traced_times[op.label].append(scaled)
            measured += sum(r[1] for r in results)
            layer_runs.append(tr.layer_metrics(tracer.spans, tracer.value_calls))
            tracer.dump(spans_path, len(layer_runs), "w" if len(layer_runs) == 1 else "a")
    # A typical pass, command by command: each command's median over the
    # passes, in scaled seconds.
    cmd_median = {k: median(v) for k, v in times.items()}

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tally = Tally()
    for results in passes:
        tally.add(results)

    if args.trace:
        # counts are the same in every traced pass; median_low keeps them whole
        values = {k: (median if tr.UNITS[k] in ("s", "us") else median_low)(
                      [run[k] for run in layer_runs])
                  for k in tr.UNITS if k != "trace.overhead_s"}
        values["trace.overhead_s"] = (sum(median(v) for v in traced_times.values())
                                      - sum(cmd_median.values()))
        metrics = {k: {"value": values[k], "unit": tr.UNITS[k]} for k in tr.UNITS}
    else:
        values = {"setup_s": median(setup_scaled), "wall_s": sum(cmd_median.values()),
                  "max_cmd_s": max(cmd_median.values()), "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_sha": git_sha(),
            "python": platform.python_version(), "cpus": os.cpu_count(),
            "passes": len(times[ops[0].label]), "traced_passes": len(layer_runs),
            "cal_ref_s": CAL_REF_S, "setup_runs_s": setup_times,
            "setup_runs_scaled_s": setup_scaled, "command_s": raw_times,
            "command_scaled_s": times, "traced_command_scaled_s": traced_times,
            "command_median_s": cmd_median,
            "raw_wall_s": sum(median(v) for v in raw_times.values()),
            "attempted": tally.attempted, "failed": len(tally.failures),
            "correct": not tally.wrong, "errors": (tally.failures + tally.wrong)[:20],
            "metrics": metrics}
    (work / "report.json").write_text(json.dumps(info, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"git {info['git_sha']}  python {info['python']}  cpus {info['cpus']}")
    print(f"passes {info['passes']} untraced, {info['traced_passes']} traced; "
          f"attempted {info['attempted']}, failed {info['failed']}, correct {info['correct']}")
    print(f"unscaled: setup {median(setup_times):.4f} s, pass {info['raw_wall_s']:.4f} s")
    for label, t in info["command_median_s"].items():
        print(f"  {t:9.4f} s  {label}")
    for k, m in metrics.items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    for e in info["errors"]:
        print(f"error: {e}", file=sys.stderr)
    print(json.dumps({"correct": info["correct"], "attempted": info["attempted"],
                      "failed": info["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
