"""Batch command line: run gate- or pulse-level experiments, sweep all six
permutations, and compile gates to pulse sequences.

Exit codes: 0 = classified, 1 = usage/config error, 2 = unclassifiable
physics outcome. All outputs are deterministic given the config (seed
included), and files are written atomically.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
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
    PermutationMap,
    name_of,
    parity_by_counting,
    resolve,
    run_parity_algorithm,
)

ENV_OUTPUT_DIR = "QUTRIT_PARITY_OUTPUT_DIR"

#: sweep --repeat bound, so each run's readout outcome (~320 B), the (R, K)
#: flips and the (R, 3, 3) rows fit in memory
MAX_REPEAT = 10**5


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

    def snapshot(self) -> dict:
        return dataclasses.asdict(self)


class ConfigError(ValueError):
    pass


def load_config(path: str, cfg: RunConfig | None = None) -> RunConfig:
    """cfg (a new RunConfig by default) with the keys of a UTF-8 INI file set."""
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    sections = {f.metadata["section"] for f in fields.values()}
    cfg = RunConfig() if cfg is None else cfg
    # "" can never be a section header, so "[DEFAULT]" is an ordinary (and
    # unknown) section rather than keys merged into every other section
    parser = configparser.ConfigParser(default_section="")
    try:
        if not parser.read(path, encoding="utf-8"):
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


def _atomic_write(path: str, text: str):
    """Write path through a temporary file, with the mode open() would give."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    umask = os.umask(0)  # read, then restored: mkstemp's files are 0600
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, obj):
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True,
                                   allow_nan=False) + "\n")


def build_pulse_program(p: PermutationMap) -> list:
    """Pseudopure prep, compiled F, compiled oracle, compiled F inverse."""
    events = list(spin.pseudopure_prep_events())
    for gate in ("F", "U" + name_of(p)[1], "Finv"):
        events.extend(compiler.compile_gate(gate).events)
    return events


def _draw_flips(cfg: RunConfig, events, seeds) -> np.ndarray:
    """(R, K) flips of the K pulses of events, one row per seed. With noise,
    default_rng(seed) draws K offsets d: (flip + d) % 360, 0 read as 360, then
    for the last pulse, the detection pulse, flip + d clipped to [1e-6, 360]."""
    nominal, sigma = spin.pulse_flips(events), cfg.pulse_angle_sigma_deg
    if sigma == 0:
        return np.tile(nominal, (len(seeds), 1))
    draws = [np.random.default_rng(s).normal(0.0, sigma, len(nominal)) for s in seeds]
    drawn = nominal + np.array(draws)
    flips = drawn % 360.0
    flips[flips == 0.0] = 360.0
    flips[:, -1] = np.clip(drawn[:, -1], 1e-6, 360.0)
    return flips


def run_pulse_experiment(cfg: RunConfig, p: PermutationMap, seeds):
    """Prep, F, oracle, F inverse and detection for one repetition per noise seed,
    as one batch: the program as row 0 ran it, and the (R, 3, 3) detected rows."""
    program = build_pulse_program(p)
    events = program + spectro.detection_events(cfg.detection_flip_deg)
    flips = _draw_flips(cfg, events, seeds)
    return spin.with_flips(program, flips[0]), spin.run_pulse_batch(
        spin.thermal_deviation(), events, flips)


def cmd_run(cfg: RunConfig) -> int:
    started = time.monotonic()
    perm = resolve(cfg.permutation)
    out = cfg.output_dir
    record = {"config": cfg.snapshot(), "permutation": name_of(perm),
              "cauchy": perm.cauchy()}

    if cfg.mode == "gate":
        if cfg.pulse_angle_sigma_deg:
            print("warning: noise settings are ignored in gate mode",
                  file=sys.stderr)
        trace = run_parity_algorithm(perm)
        record["trace"] = trace.to_record()
        record["verdict"] = trace.verdict.value
        _write_json(os.path.join(out, "trace.json"), record["trace"])
        _write_json(os.path.join(out, "run_record.json"), record)
        print(f"{name_of(perm)}: verdict {trace.verdict.value} "
              f"(global phase {trace.global_phase:+.6f} rad)")
    else:
        program, rhos = run_pulse_experiment(cfg, perm, [cfg.seed])
        acquisition = cfg.hamiltonian(), cfg.relaxation(), cfg.n, cfg.dwell_s
        readout = spectro.read_out(rhos, *acquisition)[0]
        if isinstance(readout, spectro.UnclassifiableSpectrumError):
            print(f"unclassifiable: {readout}", file=sys.stderr)
            return 2
        detected = DensityMatrix(rhos[0], "deviation")
        fid = spectro.synthesize_fid(detected, *acquisition)
        record["pulse_program"] = spin.program_to_records(program)
        record["readout"] = readout.to_record()
        record["verdict"] = readout.verdict.value
        _write_json(os.path.join(out, "pulse_program.json"), record["pulse_program"])
        _atomic_write(os.path.join(out, "fid.txt"), spectro.fid_to_text(fid))
        _atomic_write(os.path.join(out, "spectrum.txt"),
                      spectro.spectrum_to_text(spectro.spectrum(detected, *acquisition)))
        _write_json(os.path.join(out, "readout.json"), readout.to_record())
        _write_json(os.path.join(out, "run_record.json"), record)
        print(f"{name_of(perm)}: verdict {readout.verdict.value} "
              f"(line12 {readout.line12:+.6g}, line23 {readout.line23:+.6g})")

    print(f"wall time {time.monotonic() - started:.3f} s", file=sys.stderr)
    return 0


def cmd_sweep(cfg: RunConfig, repetitions: int = 1) -> int:
    ignored = [name for name in ("mode", "permutation")
               if getattr(cfg, name) != getattr(RunConfig, name)]
    if ignored:
        print(f"warning: sweep runs all six permutations at the pulse level; "
              f"{' and '.join(ignored)} ignored", file=sys.stderr)
    lines = ["permutation\trep\tverdict\tline12\tline23\tmatch"]
    correct, total = 0, 6 * repetitions
    for index, (name, perm) in enumerate(NAMED_MAPS.items()):
        expected = parity_by_counting(perm)
        _, rhos = run_pulse_experiment(
            cfg, perm, [[cfg.seed, index, rep] for rep in range(repetitions)])
        readouts = spectro.read_out(rhos, cfg.hamiltonian(), cfg.relaxation(),
                                    cfg.n, cfg.dwell_s)
        for rep, readout in enumerate(readouts):
            classified = isinstance(readout, spectro.ReadoutResult)
            match = classified and readout.verdict is expected
            correct += match
            verdict = readout.verdict.value if classified else "unclassifiable"
            lines.append(f"{name}\t{rep}\t{verdict}\t{readout.line12!r}\t"
                         f"{readout.line23!r}\t{match}")
    accuracy = correct / total
    lines.append(f"# accuracy = {correct}/{total} = {accuracy!r}")
    _atomic_write(os.path.join(cfg.output_dir, "sweep.tsv"),
                  "\n".join(lines) + "\n")
    print(f"accuracy {correct}/{total} = {accuracy:.3f}")
    return 0 if correct == total else 2


def cmd_compile(gate: str, output_dir: str) -> int:
    seq = compiler.compile_gate(gate)
    record = seq.to_record()
    record["worst_entry"] = seq.worst_entry
    _write_json(os.path.join(output_dir, f"{gate}_sequence.json"), record)
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
        if args.command == "sweep":
            if not 1 <= args.repeat <= MAX_REPEAT:
                raise ConfigError(f"--repeat must be in [1, {MAX_REPEAT}], got {args.repeat}")
            return cmd_sweep(cfg, args.repeat)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, CauchyParseError, compiler.UnknownGateError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
