"""Workload inputs generated from a seed, and the checks on each command's outputs.

A workload is a list of rounds of CLI commands that one closed-loop client
runs in order, cycling. Every command carries what its outputs must satisfy;
the checker reports each violated condition as a failure reason.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

LABELS = (1, 0, -1)

#: images of (+1, 0, -1) under each named permutation, as the CLI names them
NAMED_IMAGES = {
    "f1": (1, 0, -1),
    "f2": (0, -1, 1),
    "f3": (-1, 1, 0),
    "f4": (0, 1, -1),
    "f5": (1, -1, 0),
    "f6": (-1, 0, 1),
}

GATE_NAMES = ("I", "F", "Finv", "S12", "S23", "S13",
              "U1", "U2", "U3", "U4", "U5", "U6")

NOISE_SIGMA_DEG = 5.0
#: noisy sweep repetitions per permutation: mc-noisy runs 6 * 200 pulse runs
#: per process, mc-hires 6 * 60 at 16x the acquisition length
MC_NOISY_REPEAT = 200
MC_HIRES_REPEAT = 60
MC_HIRES_POINTS = 65536

#: distinct cli-oneshot rounds per seed; the client cycles through them, so
#: every later pass reruns a seeded command and must reproduce its bytes
ONESHOT_POOL = 3

FIDELITY_FLOOR = 1.0 - 1e-9

PULSE_FILES = ("pulse_program.json", "fid.txt", "spectrum.txt",
               "readout.json", "run_record.json")
GATE_FILES = ("trace.json", "run_record.json")


def parity(images) -> str:
    """Parity of the inversion count of a permutation of LABELS.

    Parity does not depend on how the labels are ordered, so this is the
    same rule as the package's parity_by_counting, computed independently.
    """
    idx = [LABELS.index(x) for x in images]
    inversions = sum(1 for i in range(3) for j in range(i + 1, 3) if idx[i] > idx[j])
    return "even" if inversions % 2 == 0 else "odd"


@dataclass
class Command:
    kind: str  # run_pulse, run_gate, compile, sweep
    argv: list  # CLI arguments after the program name
    out_dir: Path
    files: tuple  # output files that must exist
    expected: dict = field(default_factory=dict)

    @property
    def key(self) -> tuple:
        return tuple(self.argv)


@dataclass
class Outcome:
    """What the checker learned from one executed command."""

    failures: list
    pulse_runs: int = 0
    classified: int = 0
    verdict: str | None = None


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _strict_json(path: Path):
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def _permutation_spec(rng: random.Random, name: str) -> str:
    """The CLI accepts a name tag or two-row Cauchy text in any column order."""
    if rng.random() < 0.5:
        return name if rng.random() < 0.5 else name.upper()
    columns = list(zip(LABELS, NAMED_IMAGES[name]))
    rng.shuffle(columns)
    top = " ".join(str(t) for t, _ in columns)
    bottom = " ".join(str(b) for _, b in columns)
    return f"({top} / {bottom})"


def build(workload: str, seed: int, work: Path) -> list:
    """The rounds of one workload's command cycle; inputs depend only on the seed."""
    if workload == "cli-oneshot":
        rng = random.Random(seed)
        rounds = []
        for r in range(ONESHOT_POOL):
            name = rng.choice(sorted(NAMED_IMAGES))
            spec = _permutation_spec(rng, name)
            gate = rng.choice(GATE_NAMES)
            expected = {"parity": parity(NAMED_IMAGES[name]), "spec": spec}
            base = work / f"r{r}"
            rounds.append([
                Command("run_pulse", ["run", "--mode", "pulse", "--permutation", spec,
                                      "--seed", str(seed), "--output-dir",
                                      str(base / "pulse")],
                        base / "pulse", PULSE_FILES, expected),
                Command("run_gate", ["run", "--mode", "gate", "--permutation", spec,
                                     "--output-dir", str(base / "gate")],
                        base / "gate", GATE_FILES, expected),
                Command("compile", ["compile", gate, "--output-dir",
                                    str(base / "compile")],
                        base / "compile", (f"{gate}_sequence.json",)),
                Command("sweep", ["sweep", "--seed", str(seed), "--output-dir",
                                  str(base / "sweep")],
                        base / "sweep", ("sweep.tsv",), {"repeat": 1, "noisy": False}),
            ])
        return rounds
    if workload in ("mc-noisy", "mc-hires"):
        repeat = MC_NOISY_REPEAT if workload == "mc-noisy" else MC_HIRES_REPEAT
        argv = ["sweep", "--noise-sigma-deg", str(NOISE_SIGMA_DEG),
                "--repeat", str(repeat), "--seed", str(seed)]
        if workload == "mc-hires":
            config = work / "hires.ini"
            config.write_text(f"[acquisition]\nn = {MC_HIRES_POINTS}\n")
            argv += ["--config", str(config)]
        out = work / "sweep"
        return [[Command("sweep", argv + ["--output-dir", str(out)], out,
                         ("sweep.tsv",), {"repeat": repeat, "noisy": True})]]
    raise ValueError(f"unknown workload {workload!r}")


def check(cmd: Command, code, stderr: str) -> Outcome:
    """Check exit code, stderr and output files of one executed command."""
    failures = []
    noisy = cmd.expected.get("noisy", False)
    allowed = (0, 2) if noisy else (0,)
    if code not in allowed:
        failures.append(f"exit code {code}, expected one of {allowed}")
    if "Traceback" in stderr:
        failures.append("traceback on stderr")
    missing = [name for name in cmd.files if not (cmd.out_dir / name).is_file()]
    if missing:
        failures.append(f"missing outputs {missing}")
        return Outcome(failures)
    try:
        parsed = {name: _strict_json(cmd.out_dir / name)
                  for name in cmd.files if name.endswith(".json")}
    except ValueError as exc:
        failures.append(f"invalid JSON: {exc}")
        return Outcome(failures)

    out = Outcome(failures)
    try:
        _check_content(cmd, parsed, out)
    except (LookupError, TypeError, AttributeError, ValueError) as exc:
        failures.append(f"unexpected output structure: {exc!r}")
    return out


def _check_content(cmd: Command, parsed: dict, out: Outcome):
    if cmd.kind in ("run_pulse", "run_gate"):
        out.verdict = parsed["run_record.json"]["verdict"]
        if out.verdict != cmd.expected["parity"]:
            out.failures.append(f"verdict {out.verdict!r} for {cmd.expected['spec']!r}, "
                                f"expected {cmd.expected['parity']!r}")
        if cmd.kind == "run_pulse":
            out.pulse_runs = 1
            out.classified = int(out.verdict in ("even", "odd"))
    elif cmd.kind == "compile":
        fidelity = next(iter(parsed.values()))["fidelity"]
        if not isinstance(fidelity, float) or fidelity < FIDELITY_FLOOR:
            out.failures.append(f"compile fidelity {fidelity!r} below {FIDELITY_FLOOR!r}")
    elif cmd.kind == "sweep":
        _check_sweep(cmd, out)


def _check_sweep(cmd: Command, out: Outcome):
    lines = (cmd.out_dir / "sweep.tsv").read_text().splitlines()
    rows = [line.split("\t") for line in lines[1:] if not line.startswith("#")]
    repeat = cmd.expected["repeat"]
    if len(rows) != 6 * repeat:
        out.failures.append(f"sweep has {len(rows)} rows, expected {6 * repeat}")
    for row in rows:
        name, verdict = row[0], row[2]
        out.pulse_runs += 1
        if verdict == "unclassifiable" and cmd.expected["noisy"]:
            continue
        out.classified += verdict in ("even", "odd")
        expected = parity(NAMED_IMAGES.get(name, LABELS))
        if name not in NAMED_IMAGES or verdict != expected:
            out.failures.append(f"sweep row {row[:3]} expected verdict {expected!r}")
            break


def digests(cmd: Command) -> dict:
    return {name: hashlib.sha256((cmd.out_dir / name).read_bytes()).hexdigest()
            for name in cmd.files if (cmd.out_dir / name).is_file()}
