"""Batch command line: run gate- or pulse-level experiments, sweep all six
permutations, and compile gates to pulse sequences.

Exit codes: 0 = classified, 1 = usage/config error, 2 = unclassifiable
physics outcome. All outputs are deterministic given the config (seed
included), and a command's files replace the old ones together.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import compiler, spectro, spin
from .core import DensityMatrix
from .permutations import (
    NAMED_MAPS,
    CauchyParseError,
    Parity,
    PermutationMap,
    name_of,
    parity_by_counting,
    resolve,
    run_parity_algorithm,
)

ENV_OUTPUT_DIR = "QUTRIT_PARITY_OUTPUT_DIR"

#: sweep --repeat bound, which keeps a sweep's run time in check; its memory
#: does not grow with --repeat, as it holds one block of rows at a time
MAX_REPEAT = 10**5

#: sweep draws, runs, reads out and writes this many rows of sweep.tsv at a
#: time, in file order, so a block may span permutations
SWEEP_BLOCK = 4096

#: the sweep.tsv verdict of each spectro outcome code
VERDICTS = (Parity.EVEN.value, Parity.ODD.value) + ("unclassifiable",) * 3


def _field(default, section: str, *, flag: str | None = None,
           choices: tuple | None = None, help: str = ""):
    """A config field with its INI section. Its command-line flag is
    --name-with-dashes unless `flag` names another spelling."""
    return dataclasses.field(default=default, metadata={
        "section": section, "flag": flag, "choices": choices, "help": help})


#: defaults mirror the reference experiment: Lambda/2pi = 156 Hz,
#: T1 = 170 ms, T2 = 50 ms, 30-degree detection
@dataclass
class RunConfig:
    mode: str = _field("pulse", "run", choices=("gate", "pulse"))
    permutation: str = _field("f1", "run", help="name f1..f6 or Cauchy text")
    lambda_q_hz: float = _field(156.0, "run")
    t1_s: float = _field(0.170, "run")
    t2_s: float = _field(0.050, "run")
    detection_flip_deg: float = _field(30.0, "run")
    n: int = _field(spectro.DEFAULT_POINTS, "acquisition")
    dwell_s: float = _field(spectro.DEFAULT_DWELL, "acquisition")
    pulse_angle_sigma_deg: float = _field(0.0, "noise", flag="--noise-sigma-deg")
    seed: int = _field(0, "noise")
    output_dir: str = _field(".", "run")

    def validate(self):
        """The command line's own bounds, then the physics of what a run builds."""
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            choices = f.metadata["choices"]
            if choices and value not in choices:
                raise ConfigError(f"{f.name} must be one of {choices}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.lambda_q_hz <= 0:
            raise ConfigError(f"lambda_q_hz must be positive, got {self.lambda_q_hz}")
        if self.n > 2**20:  # its FID would not fit in memory
            raise ConfigError(f"n must be at most 2**20, got {self.n}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.output_dir:
            raise ConfigError("output_dir must not be empty")
        if not 0.0 <= (sigma := self.pulse_angle_sigma_deg) <= 360.0:  # a turn at most
            raise ConfigError(f"pulse_angle_sigma_deg = {sigma} is outside [0, 360]")
        try:
            spectro.detection_events(self.detection_flip_deg)
            spectro.check_acquisition(self.hamiltonian(), self.relaxation(),
                                      self.n, self.dwell_s)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def hamiltonian(self) -> spin.HamiltonianParams:
        return spin.HamiltonianParams(lambda_q=2.0 * np.pi * self.lambda_q_hz)

    def relaxation(self) -> spin.RelaxationParams:
        return spin.RelaxationParams(self.t1_s, self.t2_s)


class ConfigError(ValueError):
    pass


def load_config(path: str, cfg: RunConfig | None = None) -> RunConfig:
    """cfg (a new RunConfig by default) with the keys of a UTF-8 INI file set,
    a byte order mark allowed; each value is read raw, as its flag reads it."""
    import configparser  # here, so that a command without --config never loads it

    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    sections = {f.metadata["section"] for f in fields.values()}
    cfg = RunConfig() if cfg is None else cfg
    # "" can never be a section header, so "[DEFAULT]" is an ordinary (and
    # unknown) section rather than keys merged into every other section
    parser = configparser.ConfigParser(default_section="", interpolation=None)
    try:
        if not parser.read(path, encoding="utf-8-sig"):
            raise ConfigError(f"cannot read config file {path!r}")
        for section in parser.sections():
            if section not in sections:
                raise ConfigError(f"unknown section [{section}]")
            for key, raw in parser[section].items():
                f = fields.get(key)
                if f is None or f.metadata["section"] != section:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                try:
                    setattr(cfg, key, type(f.default)(raw))
                except ValueError:
                    raise ConfigError(f"bad value {raw!r} for {key}") from None
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path!r}: {exc}") from None
    return cfg


def _write_files(directory: str, files: dict):
    """Write each file of files, a name -> iterable of str parts, into one
    staging directory, then move them all into directory; if any part raises,
    every old file keeps what it held."""
    os.makedirs(directory, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=directory, prefix=".tmp-") as staging:
        for name, parts in files.items():
            with open(os.path.join(staging, name), "w") as handle:
                handle.writelines(parts)
        for name in files:
            os.replace(os.path.join(staging, name), os.path.join(directory, name))


def _json(obj) -> list:
    import json  # here, so that a sweep never loads it

    return [json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"]


def build_pulse_program(p: PermutationMap) -> list:
    """Pseudopure prep, then the events of F, of the oracle and of F inverse."""
    events = list(spin.pseudopure_prep_events())
    for gate in ("F", "U" + name_of(p)[1], "Finv"):
        events.extend(compiler.gate_events(gate))
    return events


def _draw_flips(cfg: RunConfig, segments) -> list:
    """The flips of each segment (events, key, reps): (R, K) flips of the K
    pulses of events, one row per rep (one without reps). With noise, row r
    adds K offsets drawn as default_rng([*key, reps[r]]) or default_rng(key)
    would, .normal(0, sigma, K), by _wrap_flips. One normal_draws call draws
    the rows of every segment (whose keys and reps must make rows of one word
    count), as many draws each as the most pulses of any segment; a row's
    stream is sequential, so its first K draws are the bytes of K draws."""
    sigma = cfg.pulse_angle_sigma_deg
    nominals = [spin.pulse_flips(events) for events, _, _ in segments]
    counts = [1 if reps is None else len(reps) for _, _, reps in segments]
    if sigma == 0:
        return [np.tile(nominal, (count, 1)) for nominal, count in zip(nominals, counts)]
    from . import seeding  # here, so that a command without noise never compiles it

    entropy = np.concatenate([seeding.entropy(key, reps) for _, key, reps in segments])
    offsets = seeding.normal_draws(entropy, sigma, max(map(len, nominals)))
    starts = np.cumsum([0, *counts]).tolist()
    return [_wrap_flips(nominal, offsets[a:b, :len(nominal)])
            for nominal, a, b in zip(nominals, starts, starts[1:])]


def _wrap_flips(nominal: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """(flip + d) % 360, 0 read as 360, for each row of offsets d, but for the
    last pulse, the detection pulse, flip + d clipped to [1e-6, 360]."""
    drawn = nominal + offsets
    flips = drawn % 360.0
    flips[flips == 0.0] = 360.0
    flips[:, -1] = np.clip(drawn[:, -1], 1e-6, 360.0)
    return flips


def run_pulse_experiment(cfg: RunConfig, p: PermutationMap, key):
    """Prep, F, oracle, F inverse and detection, with flips drawn under key:
    the program as it ran, and the (1, 3, 3) detected row."""
    program = build_pulse_program(p)
    events = program + spectro.detection_events(cfg.detection_flip_deg)
    [flips] = _draw_flips(cfg, [(events, key, None)])
    return spin.with_flips(program, flips[0]), spin.run_pulse_batch(
        spin.thermal_deviation(), events, flips)


def cmd_run(cfg: RunConfig) -> int:
    started = time.monotonic()
    perm = resolve(cfg.permutation)
    record = {"config": dataclasses.asdict(cfg), "permutation": name_of(perm),
              "cauchy": perm.cauchy()}

    if cfg.mode == "gate":
        if cfg.pulse_angle_sigma_deg:
            print("warning: noise settings are ignored in gate mode",
                  file=sys.stderr)
        trace = run_parity_algorithm(perm)
        record["trace"] = trace.to_record()
        record["verdict"] = trace.verdict.value
        files = {"trace.json": _json(record["trace"])}
        summary = f"global phase {trace.global_phase:+.6f} rad"
    else:
        program, rhos = run_pulse_experiment(cfg, perm, cfg.seed)
        acquisition = cfg.hamiltonian(), cfg.relaxation(), cfg.n, cfg.dwell_s
        line12, line23, confidence, code = (c.item() for c in spectro.read_out(rhos, *acquisition))
        if code not in (spectro.EVEN, spectro.ODD):
            print(f"unclassifiable: {spectro.why(line12, line23, code)}", file=sys.stderr)
            return 2
        detected = DensityMatrix(rhos[0], "deviation")
        readout = dict(verdict=VERDICTS[code], line12=line12, line23=line23, confidence=confidence)
        record["pulse_program"] = spin.program_to_records(program)
        record["readout"] = readout
        record["verdict"] = VERDICTS[code]
        files = {"pulse_program.json": _json(record["pulse_program"]),
                 "fid.txt": spectro.fid_rows(spectro.synthesize_fid(detected, *acquisition)),
                 "spectrum.txt": spectro.spectrum_rows(spectro.spectrum(detected, *acquisition)),
                 "readout.json": _json(readout)}
        summary = f"line12 {line12:+.6g}, line23 {line23:+.6g}"

    files["run_record.json"] = _json(record)
    _write_files(cfg.output_dir, files)
    print(f"{name_of(perm)}: verdict {record['verdict']} ({summary})")
    print(f"wall time {time.monotonic() - started:.3f} s", file=sys.stderr)
    return 0


def cmd_sweep(cfg: RunConfig, repetitions: int = 1) -> int:
    ignored = [name for name in ("mode", "permutation")
               if getattr(cfg, name) != getattr(RunConfig, name)]
    if ignored:
        print(f"warning: sweep runs all six permutations at the pulse level; "
              f"{' and '.join(ignored)} ignored", file=sys.stderr)
    acquisition = cfg.hamiltonian(), cfg.relaxation(), cfg.n, cfg.dwell_s
    detection = spectro.detection_events(cfg.detection_flip_deg)
    programs = [(name, build_pulse_program(perm) + detection,
                 spectro.EVEN if parity_by_counting(perm) is Parity.EVEN else spectro.ODD)
                for name, perm in NAMED_MAPS.items()]
    correct, total = 0, 6 * repetitions

    def rows():
        """sweep.tsv's lines, SWEEP_BLOCK of them at a time: row q is permutation
        q // repetitions at rep q % repetitions. A block draws its noise at once,
        then runs and reads out each permutation's part of it."""
        nonlocal correct
        yield "permutation\trep\tverdict\tline12\tline23\tmatch\n"
        for start in range(0, total, SWEEP_BLOCK):
            stop = min(start + SWEEP_BLOCK, total)
            # each permutation's reps among the block's rows; first is its first row
            parts = [(index, range(max(start - first, 0), min(stop - first, repetitions)))
                     for index, first in enumerate(range(0, total, repetitions))]
            parts = [(index, reps) for index, reps in parts if reps]
            flips = _draw_flips(cfg, [(programs[index][1], [cfg.seed, index], reps)
                                      for index, reps in parts])
            for (index, reps), block in zip(parts, flips):
                name, events, want = programs[index]
                rhos = spin.run_pulse_batch(spin.thermal_deviation(), events, block)
                line12, line23, _, codes = (c.tolist() for c in spectro.read_out(rhos, *acquisition))
                correct += codes.count(want)
                yield "".join(f"{name}\t{rep}\t{VERDICTS[code]}\t{a!r}\t{b!r}\t{code == want}\n"
                              for rep, a, b, code in zip(reps, line12, line23, codes))
        yield f"# accuracy = {correct}/{total} = {correct / total!r}\n"

    _write_files(cfg.output_dir, {"sweep.tsv": rows()})
    print(f"accuracy {correct}/{total} = {correct / total:.3f}")
    return 0 if correct == total else 2


def cmd_compile(gate: str, output_dir: str) -> int:
    seq = compiler.compile_gate(gate)
    record = seq.to_record()
    record["worst_entry"] = seq.worst_entry
    _write_files(output_dir, {f"{gate}_sequence.json": _json(record)})
    print(f"{gate}: fidelity {seq.fidelity:.12f}, phase_exact {seq.phase_exact}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are exit code 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sub):
    sub.add_argument("--config", help="INI config file")
    for f in dataclasses.fields(RunConfig):
        meta = f.metadata
        where = f"INI [{meta['section']}] {f.name}"
        sub.add_argument(meta["flag"] or "--" + f.name.replace("_", "-"),
                         dest=f.name, type=type(f.default), choices=meta["choices"],
                         help=f"{meta['help']}; {where}" if meta["help"] else where)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qutrit-parity",
                     description="Single-qutrit permutation-parity simulator")
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="run one permutation")
    _add_common(run)

    sweep = subs.add_parser("sweep", help="run all six permutations")
    _add_common(sweep)
    sweep.add_argument("--repeat", type=int, default=1,
                       help=f"seeded repetitions per permutation, at most {MAX_REPEAT}")

    comp = subs.add_parser("compile", help="compile a gate to pulses")
    comp.add_argument("gate", help=f"one of {', '.join(compiler.GATE_NAMES)}")
    comp.add_argument("--output-dir", dest="output_dir")
    return parser


def _config_from_args(args) -> RunConfig:
    """Each field from its flag, else the INI file, else its default; the
    output directory's default is $QUTRIT_PARITY_OUTPUT_DIR, else "."."""
    cfg = RunConfig(output_dir=os.environ.get(ENV_OUTPUT_DIR, "."))
    if getattr(args, "config", None):
        load_config(args.config, cfg)
    for f in dataclasses.fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "compile":
            return cmd_compile(args.gate, cfg.output_dir)
        if args.command == "run":
            return cmd_run(cfg)
        if not 1 <= args.repeat <= MAX_REPEAT:  # sweep: argparse takes no other command
            raise ConfigError(f"--repeat must be in [1, {MAX_REPEAT}], got {args.repeat}")
        return cmd_sweep(cfg, args.repeat)
    except (ConfigError, CauchyParseError, compiler.UnknownGateError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
