#!/usr/bin/env python3
"""The mollowpair benchmark: one command that times a workload and checks it.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {landscape,spectra,presets} \\
        --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the same checkout.  One caller runs
the workload's operations as a closed loop in this one process, whole passes
at a time, until ``--seconds`` of operation time have been spent.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before it
print every metric with its unit and sample count.  A results file with the
environment record and every failed check, and with ``--trace 1`` the spans,
go to ``.bench_out/``.  See ``bench/README.md`` for what each number means.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import warnings
from importlib import metadata
from pathlib import Path
from time import perf_counter, perf_counter_ns

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("landscape", "spectra", "presets")
#: One BLAS thread: every matrix here is at most 16 x 16, and a single thread
#: keeps the 2-core timings steady.  Set before numpy is first imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Fresh interpreters timed for setup_s and cli.import_s; the median is reported.
SETUP_REPEATS = 7
#: Enough operations that at least ten lie beyond p90.
MIN_SAMPLES = 100
#: In-process ``--list-presets`` calls timed for cli.main_self_ms.
LIST_PRESETS_CALLS = 5

#: The median latency, sweep_ms_p50, is printed but not among these: it is
#: too unsteady on a shared host to bound (see bench/README.md).
END_TO_END_UNITS = {
    "setup_s": "s", "points_per_s": "1/s", "sweep_ms_p90": "ms", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "params.us": "us/point",
    "moments.build_us": "us", "moments.solve_us": "us", "moments.calls": "calls/op",
    "moments.condition_warnings": "warnings/op",
    "closed_forms.us": "us", "closed_forms.calls": "calls/op",
    "spectrum.decompose_ms": "ms", "spectrum.evaluate_us": "us", "spectrum.calls": "calls/op",
    "spectrum.useful_ratio": "ratio",
    "liouville.seed_us": "us", "liouville.seed_calls": "calls/op",
    "liouville.fallback_ms": "ms", "liouville.fallback_calls": "calls/op",
    "sweep.run_self_ms": "ms", "sweep.emit_csv_ms": "ms", "sweep.emit_json_ms": "ms",
    "sweep.emit_bytes": "bytes", "sweep.emit_mb_per_s": "MB/s",
    "cli.import_s": "s", "cli.main_self_ms": "ms", "cli.op_self_ms": "ms",
    "trace.coverage": "ratio", "trace.overhead": "ratio",
    "failed_share": "share", "wrong_points": "count",
    "corner_wrong_points": "count", "corner_aborts": "count",
}


def use_checkout_source() -> None:
    """Import the package from this checkout's src/, or fail if it is not there."""
    if not (SRC / "mollowpair" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'mollowpair'}")
    for key, value in BLAS_ENV.items():
        os.environ[key] = value
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mollowpair

    if Path(mollowpair.__file__).resolve().parent != (SRC / "mollowpair").resolve():
        raise SystemExit(f"error: imported mollowpair from {mollowpair.__file__}, not {SRC}")


def _child_env() -> dict:
    return {**os.environ, **BLAS_ENV, "PYTHONPATH": str(SRC)}


def _fresh_process(args: list[str]) -> tuple[float, str]:
    """Wall time and standard output of one fresh interpreter."""
    start = perf_counter()
    done = subprocess.run([sys.executable, *args], env=_child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return perf_counter() - start, done.stdout


class SetupSampler:
    """Wall times of ``python -m mollowpair --list-presets`` in fresh interpreters.

    The machine's speed drifts over seconds, so the samples are spread over
    the timed loop: one after the operation that uses up another share of
    the time budget, any still missing at the end.
    """

    def __init__(self, repeats: int, seconds: float):
        self.repeats = repeats
        self.step_ns = seconds * 1e9 / repeats
        self.samples: list[float] = []
        self._sample()  # warm-up: byte-compiled files and the file cache
        self.samples.clear()

    def _sample(self) -> None:
        self.samples.append(_fresh_process(["-m", "mollowpair", "--list-presets"])[0])

    def after_op(self, loop: "Loop") -> None:
        if len(self.samples) < self.repeats and loop.busy_ns >= len(self.samples) * self.step_ns:
            self._sample()

    def median(self) -> float:
        while len(self.samples) < self.repeats:
            self._sample()
        return statistics.median(self.samples)


def import_seconds(repeats: int) -> float:
    """Median time of ``import mollowpair`` alone, measured inside fresh interpreters."""
    code = "import time; t = time.perf_counter(); import mollowpair; print(time.perf_counter() - t)"
    return statistics.median(float(_fresh_process(["-c", code])[1]) for _ in range(repeats))


class Loop:
    """Outcome of one closed loop over whole passes of a workload."""

    def __init__(self):
        self.latencies_ms: list[float] = []
        self.busy_ns = 0
        self.points = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[dict] = []
        self.warnings: dict[str, int] = {}
        self.wrong_points = 0
        self.corner_wrong_points = 0
        self.failures: list[dict] = []

    @property
    def points_per_s(self) -> float:
        return self.points / (self.busy_ns / 1e9)


def run_loop(ops, seconds: float, check: bool, tracer=None, after_op=None) -> Loop:
    """Run whole passes until `seconds` of operation time and MIN_SAMPLES are reached.

    Only the operation calls are timed.  With `check`, each operation's output
    from the first pass is checked right after it, outside its timing.
    `after_op(loop)` runs untimed after every operation.
    """
    loop = Loop()
    first = True
    while first or loop.busy_ns < seconds * 1e9 or loop.attempted < MIN_SAMPLES:
        for op in ops:
            if tracer is not None:
                tracer.op = loop.attempted
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                start = perf_counter_ns()
                try:
                    out = op.call() if tracer is None else tracer.call("op", op.call)
                    ok = True
                except Exception:  # a failed operation is counted, not fatal
                    ok = False
                    loop.failed += 1
                    if len(loop.errors) < 20:
                        loop.errors.append({"op": op.label, "error": traceback.format_exc()})
                elapsed = perf_counter_ns() - start
            loop.attempted += 1
            loop.busy_ns += elapsed  # failed operations use up the budget too
            for w in caught:
                name = w.category.__name__
                loop.warnings[name] = loop.warnings.get(name, 0) + 1
            if ok:
                loop.latencies_ms.append(elapsed / 1e6)
                loop.points += op.points
                if check and first:
                    _record_check(loop, op, op.check(out))
            if after_op is not None:
                after_op(loop)
        first = False
    if tracer is not None:
        tracer.op = spans.NO_OP
    return loop


def _record_check(loop: Loop, op, failures: list[dict]) -> None:
    if not failures:
        return
    indices = {f["point_index"] for f in failures}
    wrong = op.points if None in indices else len(indices)
    loop.wrong_points += wrong
    if op.corner:
        loop.corner_wrong_points += wrong
    for f in failures:
        loop.failures.append({"op": op.label, "corner": op.corner, **f})


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "seed": seed,
        "git_commit": _git_commit(),
        "loop": "closed loop, one caller, one process",
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload; returns the result object plus details for the report."""
    use_checkout_source()
    import mollowpair.cli as cli
    import workloads

    OUT.mkdir(exist_ok=True)
    layer: dict[str, float] = {}
    p50 = beyond_p90 = 0
    if trace:
        layer["cli.import_s"] = import_seconds(setup_repeats)
        setup = None
    else:
        setup = SetupSampler(setup_repeats, seconds)

    ops = workloads.build(workload, seed, str(OUT / "presets"))
    try:  # warm-up: lazy numpy/scipy set-up and first file reads stay untimed
        ops[0].call()
    except Exception:  # the timed loop counts and reports failed operations
        pass

    plain = run_loop(ops, seconds / 3 if trace else seconds, check=True,
                     after_op=setup.after_op if setup else None)
    corner_aborts, abort_error = 0, ""
    if workload == "spectra":
        corner_aborts, abort_error, probe_failures = workloads.trapping_probe()
        probe = workloads.Op("spectra trapping probe", workloads.TRAPPING_SPEC.grid.count,
                             None, None, workloads.CORNER_TRAPPING)
        _record_check(plain, probe, probe_failures)

    loops = [plain]
    if trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                for _ in range(LIST_PRESETS_CALLS):
                    cli.main(["--list-presets"])
            traced = run_loop(ops, 2 * seconds / 3, check=False, tracer=tracer)
        finally:
            tracer.restore()
        loops.append(traced)
        layer.update(spans.layer_metrics(tracer.spans, traced.attempted, traced.points,
                                         traced.warnings.get("ConditionWarning", 0)))
        layer["trace.overhead"] = plain.points_per_s / traced.points_per_s
        tracer.write(str(OUT / f"spans-{workload}-seed{seed}.csv"))

    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    checks = {
        "failed_share": failed / attempted,
        "wrong_points": plain.wrong_points,
        "corner_wrong_points": plain.corner_wrong_points,
        "corner_aborts": corner_aborts,
    }
    if abort_error:
        checks["corner_abort_error"] = abort_error
    if trace:
        values, units = {**layer, **checks}, PER_LAYER_UNITS
    else:
        lat = plain.latencies_ms
        if len(lat) < MIN_SAMPLES:
            raise SystemExit(f"error: only {len(lat)} of {plain.attempted} operations completed; "
                             + (plain.errors[0]["error"] if plain.errors else ""))
        p50 = statistics.median(lat)
        p90 = statistics.quantiles(lat, n=10)[8]
        beyond_p90 = sum(x > p90 for x in lat)
        values = {
            "setup_s": setup.median(),
            "points_per_s": plain.points_per_s,
            "sweep_ms_p90": p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    result = {
        # Known-red corners are counted in corner_wrong_points; any other wrong point fails.
        "correct": plain.wrong_points == plain.corner_wrong_points,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    details = {
        "workload": workload, "trace": trace, "seconds": seconds,
        "operations_per_pass": len(ops), "samples": len(plain.latencies_ms),
        "sweep_ms_p50": p50, "beyond_p90": beyond_p90,
        "points": plain.points, "warnings": plain.warnings,
        "checks": checks, "failures": plain.failures, "errors": [e for lp in loops for e in lp.errors],
        "environment": environment(seed),
    }
    with open(OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump({**result, "details": details}, fh, indent=1)
    return {**result, "details": details}


def report(res: dict) -> None:
    d = res["details"]
    print(f"mollowpair benchmark: workload {d['workload']}, seed {d['environment']['seed']}, "
          f"trace {int(d['trace'])}, {d['operations_per_pass']} operations per pass, "
          f"closed loop with one caller")
    n = d["samples"]
    c = d["checks"]
    if not d["trace"]:
        print(f"  {'sweep_ms_p50':28s} {d['sweep_ms_p50']:.6g} ms  (n={n} operations)")
    for name, m in res["metrics"].items():
        if name in c:
            continue
        note = ""
        if name == "sweep_ms_p90":
            note = f"  (n={n} operations, {d['beyond_p90']} beyond p90)"
        elif name == "setup_s":
            note = f"  (median of {SETUP_REPEATS} fresh interpreters)"
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'failed_share':28s} {c['failed_share']:.6g} share  ({res['failed']} of {res['attempted']} operations)")
    print(f"  {'wrong_points':28s} {c['wrong_points']} count  "
          f"({c['corner_wrong_points']} in known-red corners; corner aborts {c['corner_aborts']})")
    if c.get("corner_abort_error"):
        print(f"  corner (b) aborted: {c['corner_abort_error']}")
    for f in d["failures"][:5]:
        print(f"  failed check {f['check']} in {f['op']}: {f['detail']}")
    for e in d["errors"][:3]:
        print(f"  failed operation {e['op']}: {e['error'].strip().splitlines()[-1]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="mollowpair benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
