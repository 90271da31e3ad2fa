"""In-memory span tracer, the wrappers that feed it, and self-time arithmetic.

The wrappers live in the benchmark, not in the package: `install` replaces
every attribute of every loaded `qutrit_parity.*` module that is bound to a
listed function, so calls made through a name another module imported
(``spectro.pulse_propagator``, ``cli.name_of``, ...) are traced as well.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict

PACKAGE = "qutrit_parity"

#: the span that defines one pulse run; per-run metrics divide by its count
RUN_SPAN = "cli.run_pulse_experiment"


class Tracer:
    """Spans in parallel columns, so that a long run adds no objects for the
    garbage collector to walk: name, start and end (perf_counter ns), parent
    span (-1 for a root), command id, pulse-run id (-1 outside a run), ok."""

    COLUMNS = ("name", "start_ns", "end_ns", "parent", "command_id", "run_id", "ok")

    def __init__(self):
        self.name = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.command = array("q")
        self.run = array("q")
        self.ok = bytearray()
        self.stack = []
        self.counts = Counter()
        self.gate_names = set()
        self.command_id = -1

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        index = len(self.name)
        run = index if name == RUN_SPAN else (self.run[parent] if parent >= 0 else -1)
        self.name.append(name)
        self.parent.append(parent)
        self.command.append(self.command_id)
        self.run.append(run)
        self.ok.append(1)
        self.end.append(0)
        self.stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int, ok: bool = True):
        self.end[index] = time.perf_counter_ns()
        self.ok[index] = ok
        self.stack.pop()

    def in_run(self) -> bool:
        return bool(self.stack) and self.run[self.stack[-1]] >= 0

    def begin_command(self) -> int:
        """Root span of one CLI command; its self time is untraced time."""
        self.command_id += 1
        return self.open("command")

    def rows(self):
        return zip(self.name, self.start, self.end, self.parent, self.command,
                   self.run, self.ok)


def _wrap(tracer: Tracer, name: str, fn, note):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(index, ok=False)
            raise
        tracer.close(index)
        if note is not None:
            note(tracer, args, result)
        return result

    return traced


def _note_gate(tracer, args, result):
    tracer.gate_names.add(args[0])


def _note_peaks(tracer, args, result):
    tracer.counts["spectro.pick_peaks.bins"] += len(args[0].amplitudes)
    tracer.counts["spectro.pick_peaks.peaks"] += len(result)


def _note_export(tracer, args, result):
    tracer.counts["export.bytes"] += len(result.encode())


#: traced functions, as "<module>.<attribute>" of the package, with the
#: counts each records at its boundary
TRACED = {
    "cli.cmd_run": None,
    "cli.cmd_sweep": None,
    "cli.cmd_compile": None,
    "cli.run_pulse_experiment": None,
    "cli.build_pulse_program": None,
    "compiler.compile_gate": _note_gate,
    "compiler.sequence_propagator": None,
    "compiler.verify": None,
    "spin.run_pulse_program": None,
    "spin.pulse_propagator": None,
    "spectro.detect": None,
    "spectro.synthesize_fid": None,
    "spectro.transform": None,
    "spectro.pick_peaks": _note_peaks,
    "spectro.classify_spectrum": None,
    "spectro.fid_to_text": _note_export,
    "spectro.spectrum_to_text": _note_export,
    "permutations.run_parity_algorithm": None,
    "permutations.name_of": None,
}

#: classes whose constructions inside a pulse run are counted (no span: they
#: are the validation in the hot loop, far too frequent to time one by one)
COUNTED_CLASSES = ("core.DensityMatrix", "core.Operator3")


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Installed:
    """The attributes replaced by `install`; `remove` puts the originals back."""

    def __init__(self):
        self.patches = []  # (owner, attribute, original)
        self.absent = []

    def remove(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def _lookup(qualname: str):
    """The package object named "<module>.<attribute>", or None if it is gone."""
    module_name, attr = qualname.rsplit(".", 1)
    try:
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ModuleNotFoundError:
        return None
    return getattr(module, attr, None)


def install(tracer: Tracer, traced=None, counted=COUNTED_CLASSES) -> Installed:
    traced = TRACED if traced is None else traced
    installed = Installed()
    for qualname, note in traced.items():
        original = _lookup(qualname)
        if not callable(original):
            installed.absent.append(qualname)
            continue
        wrapper = _wrap(tracer, qualname, original, note)
        for owner in _package_modules():
            for key, value in list(vars(owner).items()):
                if value is original:
                    installed.patches.append((owner, key, value))
                    setattr(owner, key, wrapper)
    for qualname in counted:
        cls = _lookup(qualname)
        if cls is None:
            installed.absent.append(qualname)
            continue
        installed.patches.append((cls, "__init__", cls.__init__))
        cls.__init__ = _counting_init(tracer, f"{qualname}.constructions", cls.__init__)
    return installed


def _counting_init(tracer: Tracer, key: str, init):
    def counted(self, *args, **kwargs):
        if tracer.in_run():
            tracer.counts[key] += 1
        init(self, *args, **kwargs)

    return counted


def self_times(start, end, parent) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for index, up in enumerate(parent):
        if up >= 0:
            children[up].append((start[index], end[index]))
    out = []
    for index, (lo_span, hi_span) in enumerate(zip(start, end)):
        covered = 0
        cursor = lo_span
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, hi_span)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(hi_span - lo_span - covered)
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers from the recorded spans and counts, as (value, unit).

    Layers inside a pulse run are normalized per run (per call of
    cli.run_pulse_experiment); command-level layers per call of themselves.
    A function that no longer exists reads 0 calls and 0 ms.
    """
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls = Counter()
    self_ns = Counter()
    failed = Counter()
    run_ms = []
    for (name, start, end, _, _, _, ok), own in zip(tracer.rows(), selfs):
        calls[name] += 1
        self_ns[name] += own
        failed[name] += not ok
        if name == RUN_SPAN:
            run_ms.append((end - start) / 1e6)
    runs = calls[RUN_SPAN]

    def per(value, base):
        return value / base if base else 0.0

    m = {
        f"{RUN_SPAN}.calls": (runs, "count"),
        f"{RUN_SPAN}.p50_ms": (_quantile(run_ms, 0.5), "ms"),
        f"{RUN_SPAN}.p90_ms": (_quantile(run_ms, 0.9), "ms"),
        f"{RUN_SPAN}.mean_ms": (per(sum(run_ms), runs), "ms"),
    }
    for name in (RUN_SPAN, "cli.build_pulse_program", "compiler.compile_gate",
                 "compiler.sequence_propagator", "spin.run_pulse_program", "spin.pulse_propagator",
                 "spectro.detect", "spectro.synthesize_fid", "spectro.transform",
                 "spectro.pick_peaks", "spectro.classify_spectrum"):
        m[f"{name}.self_ms"] = (per(self_ns[name], runs) / 1e6, "ms/run")
    for name in ("compiler.compile_gate", "compiler.sequence_propagator",
                 "spin.pulse_propagator"):
        m[f"{name}.calls"] = (per(calls[name], runs), "count/run")
    m["compiler.compile_gate.distinct_frac"] = (
        per(len(tracer.gate_names), calls["compiler.compile_gate"]), "fraction")
    for name in COUNTED_CLASSES:
        key = f"{name}.constructions"
        m[key] = (per(tracer.counts[key], runs), "count/run")
    picks = calls["spectro.pick_peaks"]
    for key in ("spectro.pick_peaks.bins", "spectro.pick_peaks.peaks"):
        m[key] = (per(tracer.counts[key], picks), "count/call")
    classify = calls["spectro.classify_spectrum"]
    m["spectro.classify_spectrum.classified_frac"] = (
        per(classify - failed["spectro.classify_spectrum"], classify), "fraction")
    for name in ("spectro.fid_to_text", "spectro.spectrum_to_text", "cli.cmd_run",
                 "cli.cmd_sweep", "cli.cmd_compile", "compiler.verify",
                 "permutations.run_parity_algorithm"):
        m[f"{name}.self_ms"] = (per(self_ns[name], calls[name]) / 1e6, "ms/call")
    m["export.bytes"] = (per(tracer.counts["export.bytes"],
                             calls["spectro.fid_to_text"]), "bytes/call")
    m["permutations.name_of.calls"] = (per(calls["permutations.name_of"],
                                           calls["command"]), "count/cmd")
    m["untraced_ms"] = (per(self_ns["command"], calls["command"]) / 1e6, "ms/cmd")
    return m


def _quantile(values, q: float) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1])
