"""The readout under pulse-angle noise, as tools/readout_table.py measures it.

A seeded small grid (sigma in {0, 2, 5, 10} degrees, 30 runs per permutation)
pins what the strict 10% even rule does today. These record behaviour; they
are not bounds to tune toward.
"""

import importlib.util
from pathlib import Path

import pytest

from qutrit_parity.permutations import NAMED_MAPS, Parity, parity_by_counting

SIGMAS = (0.0, 2.0, 5.0, 10.0)
REPEAT = 30


def _tool():
    path = Path(__file__).parent.parent / "tools" / "readout_table.py"
    spec = importlib.util.spec_from_file_location("readout_table", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.fixture(scope="module")
def grid():
    tool = _tool()
    return tool, {sigma: tool.measure(sigma, REPEAT, seed=1) for sigma in SIGMAS}


EVEN = [name for name, perm in NAMED_MAPS.items() if parity_by_counting(perm) is Parity.EVEN]
ODD = [name for name in NAMED_MAPS if name not in EVEN]


def test_every_run_is_tallied(grid):
    _, rows = grid
    for counts in rows.values():
        assert {name: sum(c.values()) for name, c in counts.items()} == dict.fromkeys(
            NAMED_MAPS, REPEAT)


def test_no_wrong_verdict(grid):
    _, rows = grid
    for sigma, counts in rows.items():
        assert all(c["wrong"] == 0 for c in counts.values()), sigma


def test_odd_permutations_all_correct(grid):
    _, rows = grid
    assert ODD == ["f4", "f5", "f6"]
    for sigma, counts in rows.items():
        assert all(counts[name]["correct"] == REPEAT for name in ODD), sigma


def test_every_even_loss_is_unclassifiable(grid):
    """An even permutation's minor line passes 10% of the major one; noise
    makes the readout refuse, never answer odd. Noise-free, nothing is lost."""
    _, rows = grid
    for sigma, counts in rows.items():
        for name in EVEN:
            lost = REPEAT - counts[name]["correct"]
            assert counts[name]["unclassifiable"] == lost, (sigma, name)
    assert all(rows[0.0][name]["correct"] == REPEAT for name in EVEN)
    assert all(rows[5.0][name]["unclassifiable"] > 0 for name in EVEN)


def test_table_has_a_row_per_sigma(grid):
    tool, rows = grid
    lines = tool.table(rows).splitlines()
    assert len(lines) == 2 + len(SIGMAS)
    assert lines[2] == "| 0° | " + " | ".join([f"{REPEAT}/0/0"] * 6) + f" | {6 * REPEAT} | 0 |"


def test_detection_flip_table_has_a_row_per_angle(capsys):
    """--detection-flip-deg prints correct runs of all six permutations per
    angle and sigma: noise-free, every run is right at the default 30 degrees,
    and past 35.10 degrees each even run is unclassifiable, so half are."""
    tool = _tool()
    assert tool.main(["--sigmas", "0", "5", "--repeat", "5", "--seed", "1",
                      "--detection-flip-deg", "30", "45"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["| θ \\ σ | 0° | 5° |", "| --- | --- | --- |"]
    assert lines[2].startswith("| 30° (default) | 30 | ")
    assert lines[3].startswith("| 45° | 15 | ")
    assert len(lines) == 4
