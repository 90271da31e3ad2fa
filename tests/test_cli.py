import dataclasses
import importlib.util
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qutrit_parity
from qutrit_parity import cli, compiler, seeding, spectro, spin
from qutrit_parity.cli import ENV_OUTPUT_DIR, ConfigError, RunConfig, load_config, main


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _package_env():
    """The environment of a child process that imports this package."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(qutrit_parity.__file__).parent.parent),
         os.environ.get("PYTHONPATH", "")]))


class TestRunGateMode:
    def test_f4_odd_with_phase(self, tmp_path, capsys):
        assert main(["run", "--mode", "gate", "--permutation", "f4",
                     "--output-dir", str(tmp_path)]) == 0
        assert "odd" in capsys.readouterr().out
        trace = json.loads(read(tmp_path / "trace.json"))
        assert trace["verdict"] == "odd"
        assert trace["global_phase_rad"] == pytest.approx(-2.0943951023931953)

    def test_cauchy_text_accepted(self, tmp_path):
        assert main(["run", "--mode", "gate", "--permutation", "(1 0 -1 / 0 -1 1)",
                     "--output-dir", str(tmp_path)]) == 0
        rec = json.loads(read(tmp_path / "run_record.json"))
        assert rec["permutation"] == "f2"
        assert rec["verdict"] == "even"


class TestRunPulseMode:
    def test_f1_single_line_even(self, tmp_path):
        assert main(["run", "--mode", "pulse", "--permutation", "f1",
                     "--output-dir", str(tmp_path)]) == 0
        readout = json.loads(read(tmp_path / "readout.json"))
        assert readout["verdict"] == "even"
        assert readout["line12"] == 0.0
        assert readout["line23"] > 0.0
        for name in ("pulse_program.json", "fid.txt", "spectrum.txt",
                     "run_record.json"):
            assert (tmp_path / name).exists()

    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        # identical config, including the (relative) output dir
        a, b = tmp_path / "a", tmp_path / "b"
        for base in (a, b):
            base.mkdir()
            monkeypatch.chdir(base)
            assert main(["run", "--permutation", "f5", "--seed", "3",
                         "--output-dir", "."]) == 0
        for name in ("pulse_program.json", "fid.txt", "spectrum.txt",
                     "readout.json", "run_record.json"):
            assert read(a / name) == read(b / name), name

    def test_unclassifiable_exit_code_2(self, tmp_path):
        # heavy flip-angle noise with this seed scrambles the line pattern
        assert main(["run", "--permutation", "f4", "--noise-sigma-deg", "60",
                     "--seed", "2", "--output-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv, message", [
    (["--n", "2"], "no peaks to classify"),  # no bin between the two edge bins
    (["--lambda-q-hz", "3"], "spectrum matches neither parity signature "
                             "(line12 = 10.4096, line23 = 99.0141)"),
    ([], "spectrum has no signal"),  # with the detected deviation replaced by 0
    # a 360-degree pulse is the identity: no coherence beyond rounding is left
    (["--detection-flip-deg", "360"], "spectrum has no signal"),
], ids=["no-peaks", "neither-signature", "no-signal", "identity-detection"])
def test_run_exit_2_names_why_and_writes_nothing(tmp_path, capsys, monkeypatch, argv, message):
    if not argv:
        monkeypatch.setattr(cli, "run_pulse_experiment",
                            lambda cfg, perm, key: ([], np.zeros((1, 3, 3), complex)))
    assert main(["run", *argv, "--output-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"unclassifiable: {message}\n"
    assert not list(tmp_path.iterdir())


def test_run_exit_2_keeps_the_last_successful_runs_files(tmp_path, capsys):
    """An unclassifiable run writes nothing over a directory that holds a
    classified run's files: they stay, byte for byte."""
    assert main(["run", "--permutation", "f4", "--output-dir", str(tmp_path)]) == 0
    before = {p.name: read(p) for p in tmp_path.iterdir()}
    assert sorted(before) == ["fid.txt", "pulse_program.json", "readout.json",
                              "run_record.json", "spectrum.txt"]
    capsys.readouterr()
    assert main(["run", "--permutation", "f1", "--detection-flip-deg", "360",
                 "--output-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "unclassifiable: spectrum has no signal\n"
    assert {p.name: read(p) for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("name", ["f1", "f2", "f3"])
def test_even_runs_turn_unclassifiable_between_34_6_and_34_7_degrees(tmp_path, capsys, name):
    """A noise-free even run's minor line is tan^2(flip / 2) of its major one in
    coherence, and the readout's line ratio runs ~3.5% above that: it passes
    PEAK_THRESHOLD = 0.1 between a 34.6 and a 34.7 degree detection flip, short
    of the coherences' crossing at 2 atan(sqrt(0.1)) = 35.10 degrees."""
    argv = ["run", "--permutation", name, "--detection-flip-deg"]
    assert main([*argv, "34.6", "--output-dir", str(tmp_path / "34.6")]) == 0
    assert capsys.readouterr().out.startswith(f"{name}: verdict even ")
    assert main([*argv, "34.7", "--output-dir", str(tmp_path / "34.7")]) == 2
    assert capsys.readouterr().err == ("unclassifiable: spectrum matches neither parity "
                                       "signature (line12 = 10.9885, line23 = 109.771)\n")


class TestErrors:
    def test_bad_permutation_exit_1(self, tmp_path, capsys):
        assert main(["run", "--permutation", "f9(", "--output-dir",
                     str(tmp_path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_gate_exit_1(self, tmp_path):
        assert main(["compile", "Q9", "--output-dir", str(tmp_path)]) == 1

    @pytest.mark.parametrize("argv", [["run", "--mode", "sideways"], ["bogus"], []],
                             ids=["bad-mode", "unknown-command", "no-command"])
    def test_usage_error_exit_1(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1


class TestSweep:
    def test_all_six_correct(self, tmp_path, capsys):
        assert main(["sweep", "--output-dir", str(tmp_path)]) == 0
        assert "6/6" in capsys.readouterr().out
        body = read(tmp_path / "sweep.tsv").decode()
        assert body.count("True") == 6
        assert "accuracy = 6/6 = 1.0" in body

    def test_gate_and_pulse_verdicts_agree(self, tmp_path):
        main(["sweep", "--output-dir", str(tmp_path)])
        rows = [line.split("\t") for line in
                read(tmp_path / "sweep.tsv").decode().splitlines()[1:7]]
        from qutrit_parity.permutations import NAMED_MAPS, run_parity_algorithm
        for name, _, verdict, *_ in rows:
            assert run_parity_algorithm(NAMED_MAPS[name]).verdict.value == verdict

    def test_noisy_repetitions_report_measured_accuracy(self, tmp_path):
        code = main(["sweep", "--noise-sigma-deg", "5", "--output-dir",
                     str(tmp_path), "--repeat", "3", "--seed", "1"])
        assert code in (0, 2)
        body = read(tmp_path / "sweep.tsv").decode()
        assert body.strip().splitlines()[-1].startswith("# accuracy")
        assert len(body.strip().splitlines()) == 1 + 18 + 1


class TestCompileCommand:
    def test_fourier_sequence_file(self, tmp_path, capsys):
        assert main(["compile", "F", "--output-dir", str(tmp_path)]) == 0
        rec = json.loads(read(tmp_path / "F_sequence.json"))
        assert rec["fidelity"] >= 1 - 1e-9
        assert rec["phase_exact"] is True
        assert len([e for e in rec["events"] if e["kind"] == "pulse"]) == 3
        assert "phase_exact True" in capsys.readouterr().out

    def test_identity_empty(self, tmp_path):
        assert main(["compile", "I", "--output-dir", str(tmp_path)]) == 0
        rec = json.loads(read(tmp_path / "I_sequence.json"))
        assert rec["events"] == []


class TestConfig:
    def test_load_ini(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(
            "[run]\nmode = gate\npermutation = f6\nlambda_q_hz = 200\n"
            "[acquisition]\nn = 2048\ndwell_s = 0.0005\n"
            "[noise]\nseed = 9\n"
        )
        cfg = load_config(str(path))
        assert cfg.mode == "gate"
        assert cfg.permutation == "f6"
        assert cfg.lambda_q_hz == 200.0
        assert cfg.n == 2048
        assert cfg.seed == 9

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[run]\nbogus = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_flags_override_config(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[run]\npermutation = f1\nmode = gate\n"
                        f"output_dir = {tmp_path}\n")
        assert main(["run", "--config", str(path), "--permutation", "f4"]) == 0
        rec = json.loads(read(tmp_path / "run_record.json"))
        assert rec["permutation"] == "f4"

    def test_validation(self):
        cfg = RunConfig(t2_s=-1.0)
        with pytest.raises(ConfigError):
            cfg.validate()
        cfg = RunConfig(n=1000)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--mode", "gate", "--permutation", "f1"]) == 0
        assert (tmp_path / "trace.json").exists()

    @pytest.mark.parametrize("command, flag, ini, env, want", [
        (command, *case) for command in (["run", "--mode", "gate"], ["sweep"], ["compile", "I"])
        for case in ((None, None, None, "."), (None, None, "env", "env"),
                     (None, "ini", "env", "ini"), (None, ".", "env", "."),
                     (None, "./", "env", "."), ("flag", "ini", "env", "flag"))
        if command[0] != "compile" or case[1] is None],  # compile reads no INI
        ids=lambda v: v[0] if isinstance(v, list) else str(v))
    def test_output_dir_precedence(self, tmp_path, monkeypatch, command,
                                   flag, ini, env, want):
        """flag, then INI, then $QUTRIT_PARITY_OUTPUT_DIR, then "."."""
        monkeypatch.chdir(tmp_path)
        if env is None:
            monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)
        else:
            monkeypatch.setenv(ENV_OUTPUT_DIR, env)
        argv = list(command)
        if flag is not None:
            argv += ["--output-dir", flag]
        if ini is not None:
            Path("cfg.ini").write_text(f"[run]\noutput_dir = {ini}\n")
            argv += ["--config", "cfg.ini"]
        assert main(argv) == 0
        written = {p.parent.name or "." for p in Path().rglob("*")
                   if p.is_file() and p.name != "cfg.ini"}
        assert written == {want}


class TestInputContract:
    @pytest.mark.parametrize("ini", [
        "[acquisition]\ndwell_s = nan\n",
        "[noise]\npulse_angle_sigma_deg = nan\n",
        "[run]\nt1_s = inf\n",
    ], ids=["dwell_s-nan", "sigma-nan", "t1_s-inf"])
    def test_non_finite_value_exit_1(self, tmp_path, capsys, ini):
        path = tmp_path / "cfg.ini"
        path.write_text(ini)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--output-dir", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not (out / "run_record.json").exists()

    def test_unknown_section_exit_1(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        path.write_text("[acqusition]\nn = 65536\n")
        assert main(["run", "--config", str(path), "--output-dir",
                     str(tmp_path)]) == 1
        assert "[acqusition]" in capsys.readouterr().err
        assert not (tmp_path / "run_record.json").exists()

    @pytest.mark.parametrize("repeat", [0, cli.MAX_REPEAT + 1])
    def test_repeat_out_of_range_exit_1_before_any_run(self, tmp_path, capsys,
                                                       monkeypatch, repeat):
        def unreachable(*args):
            raise AssertionError("a sweep ran before --repeat was checked")

        monkeypatch.setattr(spin, "run_pulse_batch", unreachable)
        assert main(["sweep", "--repeat", str(repeat), "--output-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: --repeat must be in [1, 100000], got {repeat}\n")
        assert not (tmp_path / "sweep.tsv").exists()

    @pytest.mark.parametrize("command, source", [
        ("run", "flag"), ("run", "env"), ("run", "ini"), ("sweep", "flag")])
    def test_empty_output_dir_exit_1_before_any_run(self, tmp_path, capsys,
                                                    monkeypatch, command, source):
        def unreachable(*args):
            raise AssertionError("a run started before output_dir was checked")

        monkeypatch.setattr(spin, "run_pulse_batch", unreachable)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(ENV_OUTPUT_DIR, "" if source == "env" else ".")
        argv = [command]
        if source == "flag":
            argv += ["--output-dir", ""]
        if source == "ini":
            Path("cfg.ini").write_text("[run]\noutput_dir =\n")
            argv += ["--config", "cfg.ini"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: output_dir must not be empty\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == (["cfg.ini"] if source == "ini" else [])

    def test_missing_config_exit_1(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.ini")
        assert main(["run", "--config", missing, "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: cannot read config file {missing!r}\n"
        assert list(tmp_path.iterdir()) == []

    def test_non_utf8_config_exit_1_without_traceback(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_bytes(b"\xff\xfe[run]\nmode = gate\n")
        proc = subprocess.run(
            [sys.executable, "-m", "qutrit_parity.cli", "run", "--config", str(path),
             "--output-dir", str(tmp_path)],
            capture_output=True, text=True, env=_package_env(), timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: malformed config file")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "run_record.json").exists()

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_ini_values_read_as_the_flags_read_them(self, tmp_path, monkeypatch, bom):
        """An INI value is read raw, a '%' included, and a UTF-8 file may start
        with a byte order mark: the same config as the flags, and the same run."""
        monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)
        out = str(tmp_path / "runs" / "50%done")
        path = tmp_path / "cfg.ini"
        path.write_bytes(bom + f"[run]\nmode = gate\noutput_dir = {out}\n".encode())

        def config(*argv):
            return cli._config_from_args(cli.build_parser().parse_args(["run", *argv]))

        assert config("--config", str(path)) == config("--mode", "gate", "--output-dir", out)
        assert main(["run", "--config", str(path)]) == 0
        assert json.loads(read(Path(out) / "run_record.json"))["config"]["output_dir"] == out

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
    def test_output_files_get_the_umask_mode(self, tmp_path, umask):
        """Each file of each command has the mode open() would give it: 0o666
        less the umask."""
        commands = {"gate": ["run", "--mode", "gate"], "pulse": ["run"],
                    "sweep": ["sweep"], "compile": ["compile", "I"]}
        old = os.umask(umask)
        try:
            for label, argv in commands.items():
                assert main([*argv, "--output-dir", str(tmp_path / label)]) == 0
        finally:
            os.umask(old)
        modes = {p.relative_to(tmp_path).as_posix(): p.stat().st_mode & 0o777
                 for p in tmp_path.rglob("*") if p.is_file()}
        assert modes == dict.fromkeys(
            ["gate/trace.json", "gate/run_record.json", "pulse/pulse_program.json",
             "pulse/fid.txt", "pulse/spectrum.txt", "pulse/readout.json",
             "pulse/run_record.json", "sweep/sweep.tsv", "compile/I_sequence.json"],
            0o666 & ~umask)

    def test_unwritable_output_dir_exit_1_without_traceback(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(qutrit_parity.__file__).parent.parent),
             os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "qutrit_parity.cli", "compile", "F",
             "--output-dir", str(blocker / "sub")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["--t2-s", "1", "--t1-s", "0.1"],  # T2 > 2 T1
        ["--lambda-q-hz", "700"],  # lines at +-2100 Hz, window +-2000 Hz
        ["--detection-flip-deg", "400"],
        ["--noise-sigma-deg", "1e308"],  # its draws would overflow to NaN flips
        ["--seed", "-1"],
        ["--n", str(2**50)],  # its FID would not fit in memory
        ["--lambda-q-hz", "1e308"],  # 2 pi lambda_q_hz overflows to inf
        ["--dwell-s", "1e-320"],  # the window +-1/(2 dwell_s) overflows to inf
        ["--t1-s", "1e-320", "--t2-s", "1e-320"],  # t / T2 overflows over the FID
    ], ids=["t2-above-2t1", "lines-outside-window", "flip-above-360",
            "sigma-above-360", "negative-seed", "n-above-2**20", "lambda-overflows",
            "dwell-subnormal", "t2-subnormal"])
    def test_physical_config_error_exit_1_without_traceback(self, tmp_path, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "qutrit_parity.cli", "run", *argv,
             "--output-dir", str(tmp_path)],
            capture_output=True, text=True, env=_package_env(), timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "run_record.json").exists()


#: float flag values at the edges of what a double holds, mixed with any float and
#: with the physical range
FLOAT_VALUES = st.one_of(
    st.sampled_from([0.0, -1.0, 5e-324, 1e-320, 1e-300, 1e308, math.nan, math.inf]),
    st.floats(), st.floats(1e-4, 1e3))
FLOAT_FLAGS = ["--lambda-q-hz", "--t1-s", "--t2-s", "--detection-flip-deg", "--dwell-s",
               "--noise-sigma-deg"]
#: an n that validate accepts runs, so those stay <= 2**14; the larger ones are rejected
N_VALUES = st.one_of(st.sampled_from([2**k for k in range(1, 15)]), st.integers(-2**62, 2**14),
                     st.sampled_from([3 * 2**14, 2**20 + 1, 2**21, 2**50]))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(command=st.sampled_from(["run", "sweep"]), flags=st.lists(st.one_of(
    # at most 3, so that some of the drawn configs run
    st.tuples(st.sampled_from(FLOAT_FLAGS), FLOAT_VALUES), st.tuples(st.just("--n"), N_VALUES),
    st.tuples(st.just("--seed"), st.integers(-2**64, 2**70))), max_size=3),
    repeat=st.integers(0, 3))
@example(command="run", flags=[("--dwell-s", 1e-320)], repeat=1)
@example(command="run", flags=[("--t1-s", 1e-320), ("--t2-s", 1e-320)], repeat=1)
@example(command="sweep", flags=[("--noise-sigma-deg", 360.0), ("--n", 2)], repeat=3)
def test_fuzzed_flags_keep_the_exit_contract(tmp_path_factory, command, flags, repeat):
    """Any flag values to run, or to sweep with --repeat <= 3: exit 0, 1 with
    "error:", or 2; no traceback, no warning."""
    argv = [command, "--output-dir", str(tmp_path_factory.getbasetemp() / "fuzz")]
    argv += [f"{flag}={value!r}" for flag, value in flags]
    if command == "sweep":
        argv.append(f"--repeat={repeat}")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    if code == 1:
        assert "error:" in err.getvalue(), argv
    assert "Traceback" not in err.getvalue(), argv


#: INI section names: the three real ones, near misses and any text
INI_SECTIONS = st.one_of(st.sampled_from(["run", "acquisition", "noise", "DEFAULT", "",
                                          "Run", " run", "run]"]), st.text(max_size=8))
#: a value for any key: the physical range, the edges of a double, the mode and
#: permutation spellings, and any text; an n the loader accepts stays <= 2**14
INI_VALUES = st.one_of(
    st.sampled_from(["gate", "pulse", "f4", "F4", "(1 0 -1 / 0 -1 1)", "(1 0 / 0 1)",
                     "nan", "-inf", "1e308", "1e-320", "0", "-1", "%(n)s", "%", ""]),
    FLOAT_VALUES.map(repr), N_VALUES.map(str), st.text(max_size=12))
SECTION_OF = {f.name: f.metadata["section"] for f in dataclasses.fields(RunConfig)}
#: known keys, each under its own section's header and half the time set to
#: its default, so that many documents load and run
INI_WELL_FORMED = st.lists(st.sampled_from(dataclasses.fields(RunConfig)).flatmap(
    lambda f: st.tuples(st.just(f.name), st.one_of(st.just(str(f.default)), INI_VALUES))),
    max_size=4, unique_by=lambda kv: kv[0]).map(lambda keys: [
        line for section in sorted({SECTION_OF[k] for k, _ in keys})
        for line in [f"[{section}]"] + [f"{k} = {v}" for k, v in keys
                                        if SECTION_OF[k] == section]])
INI_LINES = st.one_of(
    INI_SECTIONS.map(lambda name: f"[{name}]"),
    st.tuples(st.one_of(st.sampled_from(sorted(SECTION_OF)), st.text(max_size=6)),
              st.sampled_from(["=", " = ", ":", " "]), INI_VALUES).map("".join),
    st.sampled_from(["", "# comment", "; comment", "  indented continuation"]),
    st.text(max_size=20))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(lines=st.one_of(INI_WELL_FORMED, st.lists(INI_LINES, max_size=8)))
@example(lines=["[run]", "mode = gate", "permutation = f4"])
@example(lines=["[acquisition]", "n = 3"])
def test_fuzzed_ini_keeps_the_exit_contract(tmp_path_factory, lines):
    """Any UTF-8 INI text: exit 0, 1 with "error:", or 2; no traceback, no warning."""
    base = tmp_path_factory.getbasetemp() / "ini-fuzz"
    base.mkdir(exist_ok=True)
    path = base / "fuzz.ini"
    path.write_text("\n".join(lines), encoding="utf-8")
    # the flag overrides any output_dir the text sets
    argv = ["run", "--config", str(path), "--output-dir", str(base / "out")]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 1, 2), (lines, err.getvalue())
    if code == 1:
        assert err.getvalue().startswith("error:"), (lines, err.getvalue())
    assert "Traceback" not in err.getvalue(), lines


#: a non-default value and the command-line flag of every RunConfig field
FIELD_SETTINGS = {
    "mode": ("--mode", "gate"),
    "permutation": ("--permutation", "f4"),
    "lambda_q_hz": ("--lambda-q-hz", 200.0),
    "t1_s": ("--t1-s", 0.2),
    "t2_s": ("--t2-s", 0.04),
    "detection_flip_deg": ("--detection-flip-deg", 45.0),
    "n": ("--n", 2048),
    "dwell_s": ("--dwell-s", 0.0005),
    "pulse_angle_sigma_deg": ("--noise-sigma-deg", 2.0),
    "seed": ("--seed", 7),
    "output_dir": ("--output-dir", None),  # the test's own directory
}


@pytest.mark.parametrize("field", dataclasses.fields(RunConfig), ids=lambda f: f.name)
def test_flag_and_ini_set_the_same_field(tmp_path, field):
    out = tmp_path / "out"
    flag, value = FIELD_SETTINGS[field.name]
    value = str(out) if value is None else value
    assert value != field.default
    path = tmp_path / "cfg.ini"
    path.write_text(f"[{field.metadata['section']}]\n{field.name} = {value}\n")
    # gate mode is the quickest run; no base flag may override the INI value
    base = {"--mode": "gate", "--output-dir": str(out)}
    base.pop(flag, None)
    argv = ["run", *(arg for pair in base.items() for arg in pair)]
    snapshots = []
    for extra in ([flag, str(value)], ["--config", str(path)]):
        assert main(argv + extra) == 0
        record = out / "run_record.json"
        snapshots.append(json.loads(read(record))["config"])
        record.unlink()  # the next run must write its own
    assert snapshots[0] == snapshots[1]
    assert snapshots[0][field.name] == value


def test_readme_flag_table_matches_config_and_parser():
    """README's table declares the config a second time: each row's flag,
    section, key and default must be the RunConfig field's, and the flag
    build_parser gives that field in run and in sweep."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in readme.splitlines() if line.startswith("| `--")]
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    table = {key: (flag, section, default) for flag, section, key, default in rows}
    assert len(rows) == len(table) and set(table) == set(fields)
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    for command in ("run", "sweep"):
        actions = {a.dest: a for a in commands[command]._actions}
        for name, (flag, section, default) in table.items():
            field, action = fields[name], actions[name]
            choices = f" {{{','.join(action.choices)}}}" if action.choices else ""
            assert flag == action.option_strings[0] + choices
            assert section == f"[{field.metadata['section']}]"
            assert type(field.default)(default) == field.default, name


DATA = Path(__file__).parent / "data"


def test_noisy_sweep_matches_recorded_fixture(tmp_path):
    """sweep.tsv of a seeded noisy sweep, pinned byte for byte."""
    assert main(["sweep", "--noise-sigma-deg", "5", "--repeat", "20", "--seed", "1",
                 "--output-dir", str(tmp_path)]) == 2  # 100 of 120 runs classified
    assert read(tmp_path / "sweep.tsv") == read(DATA / "sweep_sigma5_seed1.tsv")


def test_noisy_run_matches_recorded_fixture(tmp_path, monkeypatch):
    """A seeded noisy pulse run, pinned byte for byte to its output before
    the repetitions were propagated as one batch."""
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--mode", "pulse", "--permutation", "f4", "--noise-sigma-deg", "5",
                 "--seed", "3", "--output-dir", "."]) == 0
    for name in ("readout.json", "run_record.json", "pulse_program.json"):
        assert read(tmp_path / name) == read(DATA / "run_f4_sigma5_seed3" / name), name


@pytest.mark.parametrize("name", [f"f{k}" for k in range(1, 7)])
@pytest.mark.parametrize("mode, output, fixture", [
    ("gate", "trace.json", "gate_trace"),
    ("pulse", "readout.json", "pulse_readout"),
], ids=["gate-trace", "pulse-readout"])
def test_noise_free_run_matches_recorded_fixture(tmp_path, name, mode, output, fixture):
    """The gate trace (states and global phase) and the noise-free pulse
    readout (lines and confidence, even and odd) of each permutation, pinned
    byte for byte. Recorded with

        for k in 1 2 3 4 5 6; do
          PYTHONPATH=src python -m qutrit_parity.cli run --mode gate \\
            --permutation f$k --output-dir g && cp g/trace.json tests/data/gate_trace/f$k.json
          PYTHONPATH=src python -m qutrit_parity.cli run --mode pulse \\
            --permutation f$k --output-dir p && cp p/readout.json tests/data/pulse_readout/f$k.json
        done
    """
    assert main(["run", "--mode", mode, "--permutation", name,
                 "--output-dir", str(tmp_path)]) == 0
    assert read(tmp_path / output) == read(DATA / fixture / f"{name}.json")


#: the pulse-path fixtures above: (command, {output file: fixture})
PULSE_FIXTURES = [
    (["sweep", "--noise-sigma-deg", "5", "--repeat", "20", "--seed", "1"],
     {"sweep.tsv": "sweep_sigma5_seed1.tsv"}),
    *((["run", "--mode", "pulse", "--permutation", f"f{k}"],
       {"readout.json": f"pulse_readout/f{k}.json"}) for k in range(1, 7)),
    (["run", "--mode", "pulse", "--permutation", "f4", "--noise-sigma-deg", "5", "--seed", "3"],
     {name: f"run_f4_sigma5_seed3/{name}"
      for name in ("readout.json", "run_record.json", "pulse_program.json")}),
]


@pytest.mark.parametrize("coretype", ["Haswell", "Sandybridge"])
def test_pulse_fixtures_hold_on_every_openblas_kernel(tmp_path, coretype):
    """The pulse engine makes no BLAS call, so the pulse path's pinned bytes do
    not depend on which OpenBLAS kernel numpy loads. One child per kernel runs
    every fixture command, each from its own directory into ".", as the
    fixtures were recorded."""
    script = (
        "import os, sys\n"
        "from qutrit_parity.cli import main\n"
        f"for k, argv in enumerate({[argv for argv, _ in PULSE_FIXTURES]!r}):\n"
        "    os.mkdir(str(k)); os.chdir(str(k))\n"
        "    main(argv + ['--output-dir', '.'])\n"
        "    os.chdir('..')\n")
    env = dict(_package_env(), OPENBLAS_CORETYPE=coretype, OPENBLAS_VERBOSE="2")
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert f"Core: {coretype}" in proc.stderr  # the kernel it was asked to load
    for k, (argv, files) in enumerate(PULSE_FIXTURES):
        for name, fixture in files.items():
            assert read(tmp_path / str(k) / name) == read(DATA / fixture), (coretype, argv, name)


@pytest.mark.parametrize("seed", [0, 1, 2014, [5, 2, 7]])
@pytest.mark.parametrize("sigma", [0.5, 5.0, 60.0, 360.0])
def test_one_vector_draw_equals_scalar_draws(seed, sigma):
    """What lets a repetition take its K + 1 flip draws in one call."""
    k = 17
    one = np.random.default_rng(seed).normal(0.0, sigma, k)
    rng = np.random.default_rng(seed)
    assert one.tobytes() == np.array([rng.normal(0.0, sigma) for _ in range(k)]).tobytes()


def test_drawn_flips_wrap_to_360_and_clip_detection():
    """A pulse that lands on 0 degrees turns 360, not 0; the last pulse, the
    detection pulse, is clipped to [1e-6, 360] instead."""
    events = [spin.Pulse("transition12", 90.0), spin.VirtualZ(2, 90.0),
              spin.Pulse("transition23", 350.0), *spectro.detection_events(30.0)]
    offsets = np.array([[-90.0, 10.0, -40.0], [1.0, 370.0, 400.0]])
    flips = cli._wrap_flips(spin.pulse_flips(events), offsets)
    assert flips.tolist() == [[360.0, 360.0, 1e-6], [91.0, 360.0, 360.0]]


def test_drawn_flips_equal_the_default_rng_rule():
    """The flips of a noisy sweep row are _wrap_flips of default_rng([seed,
    index, rep]).normal(0, sigma, K), byte for byte, beside segments of more
    pulses (f6, 11) and of fewer (f1, 8) drawn in the same call."""
    cfg = RunConfig(pulse_angle_sigma_deg=5.0, seed=3)
    segments = [(cli.build_pulse_program(cli.resolve(name)) + spectro.detection_events(30.0),
                 [3, index], reps)
                for name, index, reps in (("f2", 1, range(50)), ("f6", 5, range(3)),
                                          ("f1", 0, range(7, 9)))]
    drawn = cli._draw_flips(cfg, segments)
    assert [flips.shape for flips in drawn] == [(50, 10), (3, 11), (2, 8)]
    for (events, key, reps), flips in zip(segments, drawn):
        nominal = spin.pulse_flips(events)
        offsets = np.array([np.random.default_rng([*key, rep]).normal(0.0, 5.0, len(nominal))
                            for rep in reps])
        assert flips.tobytes() == cli._wrap_flips(nominal, offsets).tobytes()


def test_sweep_propagates_each_permutation_once(tmp_path, monkeypatch):
    calls = []
    engine = spin.run_pulse_batch

    def counted(rho0, events, flips, *args, **kwargs):
        calls.append(len(flips))
        return engine(rho0, events, flips, *args, **kwargs)

    monkeypatch.setattr(spin, "run_pulse_batch", counted)
    assert main(["sweep", "--noise-sigma-deg", "5", "--repeat", "50",
                 "--output-dir", str(tmp_path)]) in (0, 2)
    assert calls == [50] * 6


@pytest.mark.parametrize("repeat, blocks", [
    (6, [[6, 1], [5, 2], [4, 3], [3, 4], [2, 5], [1]]),
    (7, [[7]] * 6),
    (8, [[7], [1, 6], [2, 5], [3, 4], [4, 3], [5, 2], [6]]),
    (15, [[7], [7], [1, 6], [7], [2, 5], [7], [3, 4], [7], [4, 3], [7], [5, 2], [7], [6]]),
    (2, [[2, 2, 2, 1], [1, 2, 2]]),
])
def test_sweep_blocks_change_no_byte(tmp_path, monkeypatch, capsys, repeat, blocks):
    """A noisy sweep run in blocks of 7 rows of sweep.tsv, in file order,
    writes the sweep.tsv and stdout of one block: with fewer, as many and more
    repetitions than a block, more than two blocks', and a block over four
    permutations. Each block is one normal_draws call, then one engine run
    per permutation part of it (blocks lists their rows)."""
    argv = ["sweep", "--noise-sigma-deg", "5", "--repeat", str(repeat), "--seed", "1"]
    assert main([*argv, "--output-dir", str(tmp_path / "whole")]) in (0, 2)
    whole = capsys.readouterr().out
    draws, engine_rows = [], []
    normal_draws, engine = seeding.normal_draws, spin.run_pulse_batch

    def drawn(entropy, *args):
        draws.append(len(entropy))
        return normal_draws(entropy, *args)

    def run(rho0, events, flips):
        engine_rows.append(len(flips))
        return engine(rho0, events, flips)

    monkeypatch.setattr(cli, "SWEEP_BLOCK", 7)
    monkeypatch.setattr(seeding, "normal_draws", drawn)
    monkeypatch.setattr(spin, "run_pulse_batch", run)
    assert main([*argv, "--output-dir", str(tmp_path / "blocks")]) in (0, 2)
    assert capsys.readouterr().out == whole
    assert draws == [sum(block) for block in blocks]
    assert engine_rows == [rows for block in blocks for rows in block]
    assert read(tmp_path / "blocks" / "sweep.tsv") == read(tmp_path / "whole" / "sweep.tsv")


def test_sweep_memory_is_flat_in_repeat(tmp_path, monkeypatch, capsys):
    """A sweep holds one block of repetitions at a time, so its traced peak at
    --repeat 512 stays below 1.5 times its peak at --repeat 128 (both in
    blocks of 64; measured 0.19 against 0.18 MiB). Holding each run's outcome
    object and sweep.tsv line until the end, it grew 0.35 -> 1.21 MiB."""
    monkeypatch.setattr(cli, "SWEEP_BLOCK", 64)

    def peak(repeat):
        tracemalloc.start()
        try:
            assert main(["sweep", "--noise-sigma-deg", "5", "--repeat", str(repeat),
                         "--output-dir", str(tmp_path / str(repeat))]) in (0, 2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(64)  # the cached gates and basis spectra, and the seeding import
    small, large = peak(128), peak(512)
    assert large < 1.5 * small, (small, large)


def test_sweep_failing_mid_stream_keeps_the_old_file(tmp_path, monkeypatch):
    """A readout that raises on the second block propagates; the staging
    directory that the first block went to is removed, and sweep.tsv keeps its bytes."""
    (tmp_path / "sweep.tsv").write_bytes(b"old sweep\n")
    calls, read_out = [], spectro.read_out

    def failing(rhos, *acquisition):
        calls.append(len(rhos))
        if len(calls) == 2:
            assert any(p.name.startswith(".tmp-") for p in tmp_path.iterdir())
            raise RuntimeError("readout failed")
        return read_out(rhos, *acquisition)

    monkeypatch.setattr(cli, "SWEEP_BLOCK", 7)
    monkeypatch.setattr(spectro, "read_out", failing)
    with pytest.raises(RuntimeError, match="^readout failed$"):
        main(["sweep", "--noise-sigma-deg", "5", "--repeat", "10",
              "--output-dir", str(tmp_path)])
    assert calls == [7, 3]
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.tsv"]
    assert read(tmp_path / "sweep.tsv") == b"old sweep\n"


def test_run_streams_its_exports(tmp_path, capsys):
    """A warm run at n = 2^17 writes fid.txt and spectrum.txt one block at a
    time, so its traced peak stays below the size of the spectrum.txt it
    writes (measured 6.2 against 9.4 MiB). Joining each export before the
    write, it peaked at 22.9 MiB."""
    argv = ["run", "--n", "131072", "--output-dir"]
    assert main([*argv, str(tmp_path / "warm")]) == 0  # the cached gates and basis
    tracemalloc.start()
    try:
        assert main([*argv, str(tmp_path / "traced")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "traced" / "spectrum.txt").stat().st_size
    assert peak < size, (peak, size)


def test_export_failing_mid_stream_keeps_the_old_file(tmp_path, monkeypatch):
    """Spectrum rows that raise after their first block propagate; the
    staging directory that the run's files went to is removed, and each of
    the five old files keeps its bytes, including those staged before it."""
    old = {name: f"old {name}\n".encode() for name in (
        "pulse_program.json", "fid.txt", "spectrum.txt", "readout.json", "run_record.json")}
    for name, data in old.items():
        (tmp_path / name).write_bytes(data)
    spectrum_rows = spectro.spectrum_rows

    def failing(s):
        rows = spectrum_rows(s)
        yield next(rows)  # the header
        yield next(rows)
        assert any(p.name.startswith(".tmp-") for p in tmp_path.iterdir())
        raise RuntimeError("export failed")

    monkeypatch.setattr(spectro, "EXPORT_BLOCK", 64)
    monkeypatch.setattr(spectro, "spectrum_rows", failing)
    with pytest.raises(RuntimeError, match="^export failed$"):
        main(["run", "--output-dir", str(tmp_path)])
    assert {p.name: read(p) for p in tmp_path.iterdir()} == old


def test_unclassifiable_sweep_rows_carry_measured_lines(tmp_path):
    """At a 3 Hz coupling the lines overlap, and the minor line of f1-f3
    reads ~10.5% of the major one, just above the 10% even rule."""
    assert main(["sweep", "--lambda-q-hz", "3", "--output-dir", str(tmp_path)]) == 2
    rows = [line.split("\t") for line in
            read(tmp_path / "sweep.tsv").decode().splitlines()[1:7]]
    for name, _, verdict, line12, line23, match in rows[:3]:
        assert (verdict, match) == ("unclassifiable", "False"), name
        assert float(line12) == pytest.approx(10.41, abs=0.01)
        assert float(line23) == pytest.approx(99.01, abs=0.01)
    assert [row[2] for row in rows[3:]] == ["odd"] * 3


def test_sweep_of_a_silent_detection_classifies_nothing(tmp_path):
    """A 180-degree pulse leaves the crushed, diagonal deviation diagonal."""
    assert main(["sweep", "--detection-flip-deg", "180", "--output-dir", str(tmp_path)]) == 2
    rows = [line.split("\t") for line in
            read(tmp_path / "sweep.tsv").decode().splitlines()[1:]]
    assert [row[2:] for row in rows[:6]] == [["unclassifiable", "0.0", "0.0", "False"]] * 6
    assert rows[6] == ["# accuracy = 0/6 = 0.0"]


@pytest.mark.parametrize("argv", [["--mode", "gate"], ["--permutation", "f4"]],
                         ids=["mode", "permutation"])
def test_sweep_warns_that_it_ignores_mode_and_permutation(tmp_path, capsys, argv):
    """sweep runs all six permutations at the pulse level whatever is set."""
    assert main(["sweep", "--output-dir", str(tmp_path / "plain")]) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    assert main(["sweep", *argv, "--output-dir", str(tmp_path / "set")]) == 0
    warned = capsys.readouterr()
    assert warned.out == plain.out
    assert warned.err.startswith("warning: ") and warned.err.count("\n") == 1
    assert read(tmp_path / "set" / "sweep.tsv") == read(tmp_path / "plain" / "sweep.tsv")


def test_commands_do_not_import_scipy(tmp_path):
    """numpy is the only third-party import of run, sweep and compile: no
    scipy module, scipy.optimize included."""
    script = (
        "import sys\n"
        "from qutrit_parity.cli import main\n"
        f"main(['run', '--mode', 'pulse', '--output-dir', {str(tmp_path / 'pulse')!r}])\n"
        f"main(['run', '--mode', 'gate', '--output-dir', {str(tmp_path / 'gate')!r}])\n"
        f"main(['sweep', '--output-dir', {str(tmp_path / 'sweep')!r}])\n"
        f"main(['compile', 'F', '--output-dir', {str(tmp_path / 'compile')!r}])\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_package_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    for name in ("pulse/run_record.json", "gate/trace.json", "sweep/sweep.tsv",
                 "compile/F_sequence.json"):
        assert (tmp_path / name).is_file(), name


def test_cli_import_and_a_noise_free_sweep_leave_out_json_configparser_and_seeding(tmp_path):
    """In a fresh interpreter: json is loaded by the commands that write
    JSON, configparser only under --config and seeding only with noise."""
    script = (
        "import sys\n"
        "from qutrit_parity.cli import main\n"
        "unused = ('json', 'configparser', 'qutrit_parity.seeding')\n"
        "print([m for m in unused if m in sys.modules])\n"
        f"main(['sweep', '--output-dir', {str(tmp_path)!r}])\n"
        "print([m for m in unused if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_package_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "accuracy 6/6 = 1.000", "[]"]


def test_pulse_path_measures_no_gate(tmp_path, monkeypatch, capsys):
    """run and sweep build each gate's events without measuring them: F's
    frame is read once per process (one sequence_propagator call) and F
    inverse inverts F's events. compile still measures its gate."""
    def unmeasured(*args):
        raise AssertionError("a pulse command measured a gate")

    propagators, sequence_propagator = [], compiler.sequence_propagator

    def counted(events):
        propagators.append(len(events))
        return sequence_propagator(events)

    monkeypatch.setattr(compiler, "_measured", unmeasured)
    monkeypatch.setattr(compiler, "sequence_propagator", counted)
    compiler.gate_events.cache_clear()
    compiler.compile_gate.cache_clear()
    assert main(["run", "--output-dir", str(tmp_path / "run")]) == 0
    assert propagators == [3]  # F's three pulses
    assert main(["sweep", "--noise-sigma-deg", "5", "--repeat", "3",
                 "--output-dir", str(tmp_path / "sweep")]) in (0, 2)
    assert propagators == [3]
    assert compiler.gate_events("Finv") == tuple(compiler.invert_events(compiler.gate_events("F")))
    monkeypatch.undo()
    capsys.readouterr()
    assert main(["compile", "F", "--output-dir", str(tmp_path / "compile")]) == 0
    assert capsys.readouterr().out.startswith("F: fidelity 1.000000000000, phase_exact True")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the fault counts are those of glibc's allocator")
def test_large_sweep_reuses_fft_scratch(tmp_path):
    """A second n = 65536 sweep in one process faults in almost no pages: the
    readout transforms the two basis tones once per acquisition and no row,
    so no per-row FFT scratch goes back to the kernel and is faulted in again
    (a per-row FFT under glibc's dynamic malloc thresholds took ~365 minor
    faults per readout row)."""
    argv = ["sweep", "--noise-sigma-deg", "5", "--repeat", "4", "--n", "65536",
            "--seed", "1", "--output-dir", str(tmp_path)]
    script = (
        "import resource\n"
        "from qutrit_parity.cli import main\n"
        f"main({argv!r})\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        f"main({argv!r})\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_package_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = 6 * 4
    faults = int(proc.stdout.splitlines()[-1])
    assert faults / rows < 50, f"{faults} minor faults for {rows} readout rows"


def test_output_digest_commands_parse():
    """tools/output_digests.py runs each of its commands with --output-dir .;
    every one parses, together they compile every gate, and README counts
    them right. None is run here."""
    path = Path(__file__).parent.parent / "tools" / "output_digests.py"
    spec = importlib.util.spec_from_file_location("output_digests", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    parser = cli.build_parser()
    for args in tool.COMMANDS.values():
        parser.parse_args([*args, "--output-dir", "."])
    assert sorted(tool.GATES) == sorted(compiler.GATE_NAMES)
    readme = (path.parent.parent / "README.md").read_text()
    counts = re.findall(r"a fixed set of (\d+)\s+CLI\s+commands", readme)
    assert counts == [str(len(tool.COMMANDS))]
