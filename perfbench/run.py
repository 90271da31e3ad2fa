"""Benchmark of the qutrit-parity CLI, measured from outside the package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli-oneshot --seed 1 --seconds 20 --trace 0

One closed-loop client runs the workload's CLI commands as cold child
processes, one at a time, for --seconds, and checks every output. With
--trace 0 the last stdout line carries the end-to-end metrics; with --trace 1
it carries the per-layer metrics, from an `-X importtime` probe, the same
cold loop, and the workload's commands driven in-process through cli.main
with the benchmark's wrappers installed (see spans.py).

Workloads (see BENCHMARK.json for the reason behind each):
  cli-oneshot  run --mode pulse, run --mode gate, compile <gate>, sweep; cold
  mc-noisy     sweep --noise-sigma-deg 5 --repeat 200 (n = 4096)
  mc-hires     the same noisy sweep at n = 65536 from an INI config, --repeat 60

Children get one BLAS thread unless the environment sets the pool size. Each
run's provenance, raw samples and failures go to .perfbench-out/result-*.json,
a traced run's spans to .perfbench-out/spans-*.jsonl. The benchmark's own
tests: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import probes
import spans
import workloads

WORKLOADS = ("cli-oneshot", "mc-noisy", "mc-hires")

#: fresh interpreters importing the CLI module; setup_s is their median
SETUP_IMPORTS = 7
IMPORTTIME_PROBES = 3
#: one BLAS thread unless the environment sets the pool size: the package's
#: 3x3 BLAS calls gain nothing from a pool, and on a small shared machine its
#: spin-waiting threads made child walls vary many-fold between runs
BLAS_DEFAULTS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}
#: every child is killed, and no new one started, this long after the start,
#: so that a run ends well inside its 180 s limit
DEADLINE_S = 160.0


class Fatal(Exception):
    """The program cannot be set up; the run ends without a result."""


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.root = root
        self.src = root / "src"
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.out = root / ".perfbench-out"
        self.work = self.out / f"work-{workload}-{seed}-{os.getpid()}"
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONPATH", "QUTRIT_PARITY_OUTPUT_DIR")}
        self.env["PYTHONPATH"] = str(self.src)
        self.attempted = 0
        self.failures = []
        self.digests = {}
        self.verdicts = {}

    # --- child processes ---------------------------------------------------

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def spawn(self, args: list, tag: str):
        """Run one child to completion: (exit code, stderr, wall s, maxrss KB)."""
        stdout_path = self.work / f"{tag}.stdout"
        stderr_path = self.work / f"{tag}.stderr"
        with open(stdout_path, "wb") as so, open(stderr_path, "wb") as se:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.root,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=so, stderr=se)
            pidfd = os.pidfd_open(proc.pid)
            try:
                if not select.select([pidfd], [], [], max(self.remaining(), 0.1))[0]:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                os.close(pidfd)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, stderr_path.read_text(errors="replace"), wall, usage.ru_maxrss

    def setup(self) -> list:
        """Fresh `import qutrit_parity.cli` walls; the first one is a warm-up."""
        if not (self.src / "qutrit_parity" / "cli.py").is_file():
            raise Fatal(f"no package source under {self.src}")
        walls = []
        for k in range(SETUP_IMPORTS + 1):
            code, err, wall, _ = self.spawn(["-c", "import qutrit_parity.cli"], f"setup{k}")
            if code != 0:
                raise Fatal(f"import qutrit_parity.cli failed:\n{err[-2000:]}")
            walls.append(wall)
        return walls[1:]

    # --- checks ------------------------------------------------------------

    def record(self, cmd: workloads.Command, code, stderr: str) -> workloads.Outcome:
        """Check one executed command, including byte-identical reruns."""
        self.attempted += 1
        outcome = workloads.check(cmd, code, stderr)
        digest = workloads.digests(cmd)
        if self.digests.setdefault(cmd.key, digest) != digest:
            outcome.failures.append("seeded rerun is not byte-identical")
        if cmd.kind in ("run_pulse", "run_gate") and outcome.verdict is not None:
            spec = cmd.expected["spec"]
            if self.verdicts.setdefault(spec, outcome.verdict) != outcome.verdict:
                outcome.failures.append(f"gate and pulse verdicts disagree for {spec!r}")
        if outcome.failures:
            self.failures.append({"argv": cmd.argv, "reasons": outcome.failures,
                                  "stderr": stderr[-2000:]})
        return outcome

    # --- the closed loop ---------------------------------------------------

    def cold_loop(self, rounds: list) -> list:
        """Run the rounds as cold children, cycling, for self.seconds.

        Whole rounds only, and at least one round more than there are distinct
        rounds, so that some command is always a seeded rerun. Returns one
        record per child.
        """
        samples = []
        loop_start = time.perf_counter()
        k = 0
        while k <= len(rounds) or time.perf_counter() - loop_start < self.seconds:
            for cmd in rounds[k % len(rounds)]:
                if self.remaining() <= 0:
                    return samples
                code, err, wall, rss = self.spawn(
                    ["-m", "qutrit_parity.cli", *cmd.argv], f"cmd{len(samples)}")
                outcome = self.record(cmd, code, err)
                samples.append({"kind": cmd.kind, "round": k, "wall_s": wall,
                                "maxrss_kb": rss, "pulse_runs": outcome.pulse_runs,
                                "classified": outcome.classified})
            k += 1
        return samples

    # --- traced in-process run ---------------------------------------------

    def in_process(self, rounds: list) -> dict:
        """Drive the commands through cli.main, each untraced and traced in
        turn; the traced calls give the per-layer metrics."""
        commands = [cmd for r in rounds for cmd in r]
        sys.path.insert(0, str(self.src))
        from qutrit_parity import cli

        package = Path(cli.__file__).resolve()
        if self.src.resolve() not in package.parents:
            raise Fatal(f"qutrit_parity imported from {package}, not from {self.src}")
        for cmd in commands:  # warm-up: first-call costs count on neither side
            code, err, _ = _call_main(cli, cmd.argv)
            self.record(cmd, code, err)
        tracer = spans.Tracer()
        walls = {False: 0.0, True: 0.0}
        absent = []
        # each command untraced and traced in ABBA order, so that a linear
        # drift of the machine's speed cancels out of the overhead
        for cmd in commands:
            for traced in (False, True, True, False):
                installed = spans.install(tracer) if traced else None
                try:
                    root = tracer.begin_command() if traced else None
                    code, err, wall = _call_main(cli, cmd.argv)
                    if installed is not None:
                        tracer.close(root)
                        absent = installed.absent
                finally:
                    if installed is not None:
                        installed.remove()
                walls[traced] += wall
                self.record(cmd, code, err)
        metrics = spans.layer_metrics(tracer)
        metrics["trace.overhead_frac"] = (walls[True] / walls[False] - 1.0, "fraction")
        spans_path = self.out / f"spans-{self.workload}-seed{self.seed}.jsonl"
        with open(spans_path, "w") as fh:
            fh.write(json.dumps(spans.Tracer.COLUMNS) + "\n")
            for row in tracer.rows():
                fh.write(json.dumps(row) + "\n")
        if absent:
            print(f"perfbench: absent functions, reported as 0: {absent}", file=sys.stderr)
        return metrics

    def import_layer(self) -> dict:
        runs = []
        for k in range(IMPORTTIME_PROBES):
            code, err, _, _ = self.spawn(["-X", "importtime", "-c", probes.IMPORT_PROBE],
                                         f"importtime{k}")
            if code != 0:
                raise Fatal(f"import probe failed:\n{err[-2000:]}")
            runs.append(probes.import_metrics(probes.parse_importtime(err)))
        return {key: (statistics.median(run[key][0] for run in runs), unit)
                for key, (_, unit) in runs[0].items()}


def _call_main(cli, argv):
    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the checker counts it as a failed operation
            traceback.print_exc(file=err)
            code = None
    return code, err.getvalue(), time.perf_counter() - t0


def end_to_end(setup_walls: list, samples: list) -> dict:
    rounds = {}
    for s in samples:
        rounds.setdefault(s["round"], []).append(s["wall_s"])
    total_wall = sum(s["wall_s"] for s in samples)
    runs = sum(s["pulse_runs"] for s in samples)
    return {
        "setup_s": (statistics.median(setup_walls), "s"),
        "cli_wall_s": (statistics.median(sum(w) / len(w) for w in rounds.values()), "s"),
        "pulse_runs_per_s": (runs / total_wall, "runs/s"),
        "peak_rss_mb": (max(s["maxrss_kb"] for s in samples) / 1024.0, "MB"),
        "classified_frac": (sum(s["classified"] for s in samples) / max(runs, 1), "fraction"),
    }


def cold_layer(samples: list) -> dict:
    """Per-command cold walls and the tail of all child walls."""
    out = {}
    for kind in ("run_pulse", "run_gate", "compile", "sweep"):
        walls = [s["wall_s"] for s in samples if s["kind"] == kind]
        out[f"cli.{kind}_s"] = (statistics.median(walls) if walls else 0.0, "s")
    walls = [s["wall_s"] for s in samples]
    tail = probes.tail_percentile(walls)
    out["cli_wall_s.tail"] = (tail[1] if tail else 0.0, "s")
    out["cli_wall_s.tail_pct"] = (tail[0] if tail else 0, "pct")
    out["cli_wall_s.samples"] = (len(walls), "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for key, value in BLAS_DEFAULTS.items():
        os.environ.setdefault(key, value)
    root = Path(__file__).resolve().parent.parent
    bench = Bench(root, args.workload, args.seed, args.seconds)
    bench.work.mkdir(parents=True, exist_ok=True)
    try:
        setup_walls = bench.setup()
        prov = probes.provenance(root, bench.src, bench.env, args.workload, args.seed)
        rounds = workloads.build(args.workload, args.seed, bench.work)
        samples = bench.cold_loop(rounds)
        if args.trace:
            metrics = {**cold_layer(samples), **bench.import_layer(),
                       **bench.in_process(rounds)}
        else:
            metrics = end_to_end(setup_walls, samples)
    except Fatal as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    failed = len(bench.failures)
    if args.trace:
        metrics["failed_frac"] = (failed / bench.attempted, "fraction")
    for failure in bench.failures:
        print(f"perfbench: FAILED {json.dumps(failure)}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": bench.attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    detail = {"provenance": prov, "result": result, "samples": samples,
              "setup_walls_s": setup_walls, "failures": bench.failures}
    detail_path = bench.out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
