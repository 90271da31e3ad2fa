import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qutrit_parity
from qutrit_parity.cli import ENV_OUTPUT_DIR, ConfigError, RunConfig, load_config, main


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


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


class TestErrors:
    def test_bad_permutation_exit_1(self, tmp_path, capsys):
        assert main(["run", "--permutation", "f9(", "--output-dir",
                     str(tmp_path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_gate_exit_1(self, tmp_path):
        assert main(["compile", "Q9", "--output-dir", str(tmp_path)]) == 1

    def test_usage_error_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--mode", "sideways"])
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


DATA = Path(__file__).parent / "data"


def test_noisy_sweep_matches_recorded_fixture(tmp_path):
    """sweep.tsv of a seeded noisy sweep, pinned byte for byte."""
    assert main(["sweep", "--noise-sigma-deg", "5", "--repeat", "20", "--seed", "1",
                 "--output-dir", str(tmp_path)]) == 2  # 100 of 120 runs classified
    assert read(tmp_path / "sweep.tsv") == read(DATA / "sweep_sigma5_seed1.tsv")


def test_commands_do_not_import_scipy_optimize(tmp_path):
    script = (
        "import sys\n"
        "from qutrit_parity.cli import main\n"
        f"main(['run', '--output-dir', {str(tmp_path / 'run')!r}])\n"
        f"main(['sweep', '--output-dir', {str(tmp_path / 'sweep')!r}])\n"
        f"main(['compile', 'F', '--output-dir', {str(tmp_path / 'compile')!r}])\n"
        "assert 'scipy.optimize' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(qutrit_parity.__file__).parent.parent),
         os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for name in ("run/run_record.json", "sweep/sweep.tsv", "compile/F_sequence.json"):
        assert (tmp_path / name).is_file(), name
