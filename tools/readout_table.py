"""Print how the parity readout fares under pulse-angle noise, per permutation.

For each noise sigma the tool runs one seeded `sweep` through `cli.main` in a
temporary directory and tallies its `sweep.tsv`: each cell is correct /
unclassifiable / wrong out of --repeat runs, and the last columns total the
correct and wrong runs of all six permutations. With --detection-flip-deg, it
runs the sweeps at each detection flip angle instead and prints one row per
angle: the correct runs of all six permutations at each sigma, and the wrong
ones if any. Run from the repository root:

    PYTHONPATH=src python tools/readout_table.py --sigmas 0 1 2 5 10 20 --repeat 200 --seed 1
    PYTHONPATH=src python tools/readout_table.py --sigmas 0 2 5 10 --repeat 200 --seed 1 \\
        --detection-flip-deg 5 10 20 30 45 90
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
from collections import Counter
from pathlib import Path

from qutrit_parity import cli
from qutrit_parity.permutations import NAMED_MAPS

OUTCOMES = ("correct", "unclassifiable", "wrong")
DEFAULT_FLIP = cli.RunConfig.detection_flip_deg


def tally(sweep_tsv: str) -> dict:
    """{permutation: Counter of OUTCOMES} of one sweep.tsv text."""
    counts = {name: Counter() for name in NAMED_MAPS}
    for row in sweep_tsv.splitlines()[1:]:
        if row.startswith("#"):
            continue
        name, _, verdict, _, _, match = row.split("\t")
        outcome = ("correct" if match == "True" else
                   "unclassifiable" if verdict == "unclassifiable" else "wrong")
        counts[name][outcome] += 1
    return counts


def measure(sigma: float, repeat: int, seed: int, flip: float = DEFAULT_FLIP) -> dict:
    """tally of `sweep --noise-sigma-deg sigma --repeat repeat --seed seed
    --detection-flip-deg flip`."""
    with tempfile.TemporaryDirectory(prefix="readout-table-") as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["sweep", "--noise-sigma-deg", repr(float(sigma)), "--repeat",
                             str(repeat), "--seed", str(seed), "--detection-flip-deg",
                             repr(float(flip)), "--output-dir", out])
        if code not in (0, 2):
            raise RuntimeError(f"sweep at sigma = {sigma} exited {code}")
        return tally((Path(out) / "sweep.tsv").read_text())


def table(rows: dict) -> str:
    """Markdown table of {sigma: tally}."""
    names = list(NAMED_MAPS)
    lines = ["| σ | " + " | ".join(names) + " | correct | wrong |",
             "| --- |" + " --- |" * (len(names) + 2)]
    for sigma, counts in rows.items():
        cells = ["/".join(str(counts[name][o]) for o in OUTCOMES) for name in names]
        correct = sum(counts[name]["correct"] for name in names)
        wrong = sum(counts[name]["wrong"] for name in names)
        lines.append(f"| {sigma:g}° | " + " | ".join(cells) + f" | {correct} | {wrong} |")
    return "\n".join(lines)


def flip_table(rows: dict) -> str:
    """Markdown table of {detection flip: {sigma: tally}}: the correct runs of
    all six permutations per cell, and the wrong ones if any."""
    sigmas = list(next(iter(rows.values())))
    lines = ["| θ \\ σ | " + " | ".join(f"{sigma:g}°" for sigma in sigmas) + " |",
             "| --- |" + " --- |" * len(sigmas)]
    for flip, row in rows.items():
        cells = []
        for counts in row.values():
            correct, wrong = (sum(c[o] for c in counts.values()) for o in ("correct", "wrong"))
            cells.append(f"{correct} ({wrong} wrong)" if wrong else str(correct))
        label = f"{flip:g}°" + (" (default)" if flip == DEFAULT_FLIP else "")
        lines.append(f"| {label} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sigmas", type=float, nargs="+", default=[0, 1, 2, 5, 10, 20],
                        help="pulse-angle noise sigmas in degrees")
    parser.add_argument("--repeat", type=int, default=200, help="runs per permutation")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--detection-flip-deg", type=float, nargs="+",
                        help="detection flip angles in degrees: print one row per angle")
    args = parser.parse_args(argv)
    if args.detection_flip_deg:
        print(flip_table({flip: {s: measure(s, args.repeat, args.seed, flip) for s in args.sigmas}
                          for flip in args.detection_flip_deg}))
    else:
        print(table({s: measure(s, args.repeat, args.seed) for s in args.sigmas}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
