"""tests/data/output_digests.txt, the committed listing of tools/output_digests.py.

Running the tool's commands takes ~15 s, so tier-1 checks only that the listing
and the tool's command table agree, and what --check reports.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).parent.parent
LISTING = ROOT / "tests" / "data" / "output_digests.txt"


def _tool():
    path = ROOT / "tools" / "output_digests.py"
    spec = importlib.util.spec_from_file_location("output_digests", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_listing_names_every_command():
    """Every label of COMMANDS, with its exit code and both streams, and no other."""
    commands = _tool().COMMANDS
    header, *lines = LISTING.read_text().splitlines()
    assert header.startswith("# numpy ") and ", OpenBLAS core " in header
    names = [line.split("  ", 1)[1] for line in lines]
    assert names == sorted(names)
    assert {name.split("/", 1)[0] for name in names} == set(commands)
    assert {f"{label}/{part}" for label in commands
            for part in ("exit", "stdout", "stderr")} <= set(names)


def test_check_names_each_moved_line_and_its_command(tmp_path, capsys):
    tool = _tool()
    old = ["# numpy 1, OpenBLAS core A", f"{'0' * 64}  sweep/exit", f"{'1' * 64}  sweep/sweep.tsv"]
    (tmp_path / "old.txt").write_text("\n".join(old) + "\n")
    assert tool.check(old, tmp_path / "old.txt") == 0
    new = ["# numpy 1, OpenBLAS core B", old[1], f"{'2' * 64}  sweep/sweep.tsv"]
    assert tool.check(new, tmp_path / "old.txt") == 1
    out = capsys.readouterr().out
    assert "made with numpy 1, OpenBLAS core A; this run has numpy 1, OpenBLAS core B" in out
    assert "moved: sweep/sweep.tsv  (qutrit-parity sweep)" in out
    assert "1 of 2 lines differ" in out
