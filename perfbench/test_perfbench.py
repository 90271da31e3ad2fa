"""Tests of the benchmark's own logic: python3 -m pytest -q perfbench"""

import json
import sys
from pathlib import Path

import pytest

import probes
import spans
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def test_self_time_subtracts_children_not_grandchildren():
    # root [0, 100] > a [10, 40] > a1 [20, 30]; root > b [50, 60]
    start = [0, 10, 20, 50]
    end = [100, 40, 30, 60]
    parent = [-1, 0, 1, 0]
    assert spans.self_times(start, end, parent) == [60, 20, 10, 10]


def test_self_time_counts_overlapping_children_once():
    start = [0, 10, 20]
    end = [100, 30, 40]
    parent = [-1, 0, 0]
    assert spans.self_times(start, end, parent)[0] == 70


def test_layer_metrics_normalize_per_pulse_run():
    tracer = spans.Tracer()
    root = tracer.begin_command()
    for _ in range(2):
        run = tracer.open(spans.RUN_SPAN)
        tracer.close(tracer.open("spectro.pick_peaks"))
        tracer.close(run)
    tracer.close(root)
    # command [0, 100]; runs [10, 40] and [50, 80], each holding a 10 ns pick
    tracer.start[:] = spans.array("q", [0, 10, 20, 50, 60])
    tracer.end[:] = spans.array("q", [100, 40, 30, 80, 70])
    m = spans.layer_metrics(tracer)
    assert m["cli.run_pulse_experiment.calls"] == (2, "count")
    assert m["spectro.pick_peaks.self_ms"] == (10 / 1e6, "ms/run")
    assert m["cli.run_pulse_experiment.self_ms"] == (20 / 1e6, "ms/run")
    assert m["untraced_ms"] == (40 / 1e6, "ms/cmd")
    assert list(tracer.run) == [-1, 1, 1, 3, 3]


def test_tail_percentile_needs_ten_samples_beyond():
    assert probes.tail_percentile(range(10)) is None
    assert probes.tail_percentile(range(11)) == (9, 0)
    assert probes.tail_percentile(range(1, 101)) == (90, 90)
    # ties: nothing lies beyond the upper half, so the tail is the median
    assert probes.tail_percentile([1] * 50 + [2] * 50) == (50, 1)


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       253 |        253 |   _io
perfbench: import starts
import time:      1882 |     154428 |       numpy
import time:      4888 |     168414 |     qutrit_parity.core
import time:       463 |     175522 |   qutrit_parity
import time:      1741 |     215562 |         scipy._lib.array_api_compat.numpy
import time:       834 |     311961 |       scipy.linalg
import time:       992 |     582020 |     scipy.optimize
import time:      6032 |     801612 | qutrit_parity.cli
"""


def test_importtime_parser_counts_only_after_marker():
    entries = probes.parse_importtime(IMPORTTIME)
    assert [name for name, _, _ in entries][0] == "numpy"
    m = probes.import_metrics(entries)
    assert m["import.modules"] == (7, "count")
    assert m["import.numpy_ms"] == (154.428, "ms")
    assert m["import.scipy_linalg_ms"] == (311.961, "ms")
    assert m["import.scipy_optimize_ms"] == (582.02, "ms")
    assert m["import.total_ms"] == (801.612, "ms")
    assert m["import.qutrit_parity_ms"] == (pytest.approx((4888 + 463 + 6032) / 1e3), "ms")


@pytest.fixture
def package(monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    from qutrit_parity import cli, spectro, spin

    return cli, spectro, spin


def test_wrappers_reach_names_bound_in_other_modules(package):
    cli, spectro, spin = package
    original = spin.pulse_propagator
    tracer = spans.Tracer()
    installed = spans.install(tracer, {"spectro.detect": None,
                                       "spin.pulse_propagator": None,
                                       "permutations.name_of": None})
    try:
        assert spectro.pulse_propagator is spin.pulse_propagator is not original
        spectro.detect(spin.thermal_deviation(), 30.0)
        cli.name_of(cli.resolve("f2"))
    finally:
        installed.remove()
    assert spectro.pulse_propagator is spin.pulse_propagator is original
    assert installed.absent == []
    assert tracer.name == ["spectro.detect", "spin.pulse_propagator",
                           "permutations.name_of"]
    assert list(tracer.parent) == [-1, 0, -1]


def test_missing_function_is_reported_absent(package):
    installed = spans.install(spans.Tracer(), {"spin.no_such_function": None,
                                               "no_such_module.f": None}, counted=())
    installed.remove()
    assert installed.absent == ["spin.no_such_function", "no_such_module.f"]


def _sweep_command(tmp_path, rows, noisy=True):
    (tmp_path / "sweep.tsv").write_text(
        "permutation\trep\tverdict\tline12\tline23\tmatch\n"
        + "".join(f"{name}\t0\t{verdict}\t0.0\t0.0\tTrue\n" for name, verdict in rows))
    return workloads.Command("sweep", [], tmp_path, ("sweep.tsv",),
                             {"repeat": 1, "noisy": noisy})


GOOD_ROWS = [("f1", "even"), ("f2", "even"), ("f3", "unclassifiable"),
             ("f4", "odd"), ("f5", "odd"), ("f6", "odd")]


def test_noisy_sweep_allows_unclassifiable_but_not_wrong(tmp_path):
    out = workloads.check(_sweep_command(tmp_path, GOOD_ROWS), 2, "")
    assert (out.failures, out.pulse_runs, out.classified) == ([], 6, 5)
    wrong = GOOD_ROWS[:5] + [("f6", "even")]
    assert workloads.check(_sweep_command(tmp_path, wrong), 0, "").failures


def test_noise_free_sweep_must_classify_and_exit_zero(tmp_path):
    assert workloads.check(_sweep_command(tmp_path, GOOD_ROWS, noisy=False), 0, "").failures
    good = GOOD_ROWS[:2] + [("f3", "even")] + GOOD_ROWS[3:]
    assert not workloads.check(_sweep_command(tmp_path, good, noisy=False), 0, "").failures
    assert workloads.check(_sweep_command(tmp_path, good, noisy=False), 2, "").failures


def test_strict_json_and_traceback_are_failures(tmp_path):
    (tmp_path / "F_sequence.json").write_text(json.dumps({"fidelity": 1.0}))
    cmd = workloads.Command("compile", [], tmp_path, ("F_sequence.json",))
    assert workloads.check(cmd, 0, "").failures == []
    assert workloads.check(cmd, 0, "Traceback (most recent call last)").failures
    (tmp_path / "F_sequence.json").write_text('{"fidelity": NaN}')
    assert workloads.check(cmd, 0, "").failures
    (tmp_path / "F_sequence.json").write_text('{"fidelity": 0.999}')
    assert workloads.check(cmd, 0, "").failures
    (tmp_path / "F_sequence.json").write_text('[1.0]')
    assert workloads.check(cmd, 0, "").failures


def test_inputs_depend_only_on_the_seed(tmp_path):
    def argvs(seed):
        return [c.argv for r in workloads.build("cli-oneshot", seed, tmp_path) for c in r]

    assert argvs(7) == argvs(7)
    assert argvs(7) != argvs(8)


def test_parity_matches_the_package(package):
    from qutrit_parity.permutations import NAMED_MAPS, parity_by_counting

    for name, images in workloads.NAMED_IMAGES.items():
        assert NAMED_MAPS[name].images == images
        assert workloads.parity(images) == parity_by_counting(NAMED_MAPS[name]).value
    assert sys.modules["qutrit_parity"].__file__.startswith(str(SRC))
