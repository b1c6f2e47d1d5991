"""Spans recorded around the calls the package's layers make into each other.

The tracer replaces the module attributes through which one layer calls the
next (``mollowpair.sweep.steady_state``, ``mollowpair.cli.emit``, ...) with
wrappers that record a span, and puts the originals back afterwards.  The
counts therefore reflect what the program calls, not what the benchmark
calls.  An attribute or module that a later version of the package removes
is skipped and reads as zero calls.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict
from time import perf_counter_ns


def _emit_name(args, kwargs) -> str:
    fmt = args[1] if len(args) > 1 else kwargs.get("format", "csv")
    return f"sweep.emit_{fmt}"


#: (module, attribute, span name).  A callable span name is computed from the
#: call's arguments.
TARGETS = (
    ("mollowpair.cli", "main", "cli.main"),
    ("mollowpair.cli", "load_preset", "sweep.load_preset"),
    ("mollowpair.cli", "run_sweep", "sweep.run_sweep"),
    ("mollowpair.cli", "emit", _emit_name),
    ("mollowpair.sweep", "run_sweep", "sweep.run_sweep"),
    ("mollowpair.sweep", "emit", _emit_name),
    ("mollowpair.sweep", "SystemParams", "params.SystemParams"),
    ("mollowpair.sweep", "classify_regime", "params.classify_regime"),
    ("mollowpair.sweep", "build_moment_system", "moments.build"),
    ("mollowpair.sweep", "steady_state", "moments.solve"),
    ("mollowpair.sweep", "populations", "moments.populations"),
    ("mollowpair.sweep", "g2_cross", "moments.g2_cross"),
    ("mollowpair.closed_forms", "regime_populations", "closed_forms.populations"),
    ("mollowpair.closed_forms", "regime_g2", "closed_forms.g2"),
    ("mollowpair.sweep", "default_grid", "spectrum.default_grid"),
    ("mollowpair.sweep", "decompose_spectrum", "spectrum.decompose"),
    ("mollowpair.sweep", "evaluate_spectrum", "spectrum.evaluate"),
    ("mollowpair.spectrum", "build_moment_system", "moments.build"),
    ("mollowpair.spectrum", "steady_state", "moments.solve"),
    ("mollowpair.spectrum", "build_liouvillian", "liouville.seed_build"),
    ("mollowpair.spectrum", "steady_state_dm", "liouville.seed_steady"),
    ("mollowpair.sweep", "build_liouvillian", "liouville.fallback_build"),
    ("mollowpair.sweep", "spectrum_fft", "liouville.fallback_fft"),
)

#: Operation id of spans recorded outside any timed operation.
NO_OP = -1


class Tracer:
    """In-memory spans: (name, start_ns, end_ns, parent index, op id, ok, bytes)."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.op = NO_OP
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span; a raised exception marks the span not ok."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        ok, size = False, 0
        start = perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
            ok = True
            if isinstance(out, bytes):
                size = len(out)
            return out
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op, ok, size)

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(original, name))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrapper(self, original, name):
        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            return self.call(span, original, *args, **kwargs)
        return traced

    def write(self, path: str) -> None:
        """Write every span as one CSV line, times in ns from the first span."""
        t0 = self.spans[0][1] if self.spans else 0
        with open(path, "w") as fh:
            fh.write("index,name,start_ns,end_ns,parent,op,ok,bytes\n")
            for i, (name, start, end, parent, op, ok, size) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0},{end - t0},{parent},{op},{int(ok)},{size}\n")


def layer_metrics(spans: list[tuple], ops: int, points: int, warnings_caught: int) -> dict:
    """Per-layer numbers from the spans of one traced loop.

    Per-call times are means over the calls the program made; counts are per
    operation.  A function that was never called reads as zero.
    """
    child = [0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    dur = defaultdict(int)      # inclusive ns per span name
    own = defaultdict(int)      # self ns per span name
    calls = defaultdict(int)
    returned = defaultdict(int)
    size = defaultdict(int)
    op_ns = 0
    for i, (name, start, end, parent, op, ok, nbytes) in enumerate(spans):
        if op == NO_OP:
            continue
        if name == "op":
            op_ns += end - start
            continue
        dur[name] += end - start
        own[name] += end - start - child[i]
        calls[name] += 1
        returned[name] += ok
        size[name] += nbytes

    def ratio(num, den, scale=1.0):
        return num / den / scale if den else 0.0

    cf = ("closed_forms.populations", "closed_forms.g2")
    emit = ("sweep.emit_csv", "sweep.emit_json")
    setup_main = [end - start - child[i] for i, (name, start, end, _, op, *_r) in enumerate(spans)
                  if name == "cli.main" and op == NO_OP]
    return {
        "params.us": ratio(own["params.SystemParams"] + own["params.classify_regime"], points, 1e3),
        "moments.build_us": ratio(dur["moments.build"], calls["moments.build"], 1e3),
        "moments.solve_us": ratio(dur["moments.solve"], calls["moments.solve"], 1e3),
        "moments.calls": ratio(calls["moments.solve"], ops),
        "moments.condition_warnings": ratio(warnings_caught, ops),
        "closed_forms.us": ratio(sum(dur[k] for k in cf), sum(calls[k] for k in cf), 1e3),
        "closed_forms.calls": ratio(sum(calls[k] for k in cf), ops),
        "spectrum.decompose_ms": ratio(dur["spectrum.decompose"], calls["spectrum.decompose"], 1e6),
        "spectrum.evaluate_us": ratio(dur["spectrum.evaluate"], calls["spectrum.evaluate"], 1e3),
        "spectrum.calls": ratio(calls["spectrum.decompose"], ops),
        "spectrum.useful_ratio": ratio(returned["spectrum.decompose"], calls["spectrum.decompose"]),
        "liouville.seed_us": ratio(dur["liouville.seed_build"] + dur["liouville.seed_steady"],
                                   calls["liouville.seed_steady"], 1e3),
        "liouville.seed_calls": ratio(calls["liouville.seed_steady"], ops),
        "liouville.fallback_ms": ratio(dur["liouville.fallback_build"] + dur["liouville.fallback_fft"],
                                       calls["liouville.fallback_fft"], 1e6),
        "liouville.fallback_calls": ratio(calls["liouville.fallback_fft"], ops),
        "sweep.run_self_ms": ratio(own["sweep.run_sweep"], calls["sweep.run_sweep"], 1e6),
        "sweep.emit_csv_ms": ratio(dur["sweep.emit_csv"], calls["sweep.emit_csv"], 1e6),
        "sweep.emit_json_ms": ratio(dur["sweep.emit_json"], calls["sweep.emit_json"], 1e6),
        "sweep.emit_bytes": ratio(sum(size[k] for k in emit), sum(calls[k] for k in emit)),
        "sweep.emit_mb_per_s": ratio(sum(size[k] for k in emit), sum(dur[k] for k in emit), 1e-3),
        "cli.main_self_ms": statistics.median(setup_main) / 1e6 if setup_main else 0.0,
        "cli.op_self_ms": ratio(own["cli.main"], calls["cli.main"], 1e6),
        "trace.coverage": ratio(sum(own.values()), op_ns),
    }

