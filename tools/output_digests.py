"""Print a sha256 digest of everything a fixed set of CLI commands produces.

Each command runs as `python -m qutrit_parity.cli ... --output-dir .` in a
child process with PYTHONPATH=DIR (default: this repository's src) and a fresh
temporary working directory. For each command it digests the exit code,
stdout, stderr without the `wall time` line, and every file written, and it
prints one `<sha256>  <command>/<file>` line per digest, sorted by name, under
a header line naming the numpy version and OpenBLAS core type of the children.
It exits 1, naming the command, if a command leaves a `.tmp-*` file or
directory behind. Two source trees produce the same outputs when their
listings are identical:

    python tools/output_digests.py --src A/src > a.txt
    python tools/output_digests.py --src B/src > b.txt
    diff a.txt b.txt

The listing of this tree's outputs is committed as tests/data/output_digests.txt;
`--check FILE` compares a new listing with FILE, prints each line that differs
with the command that made it, and exits 1 if any does. A change that moves
output bytes on purpose regenerates the file:

    python tools/output_digests.py > tests/data/output_digests.txt
    python tools/output_digests.py --check tests/data/output_digests.txt
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

# spelled out rather than imported, so that every source tree runs the same set
PERMUTATIONS = [f"f{k}" for k in range(1, 7)]
GATES = ["I", "F", "Finv", "S12", "S23", "S13", "U1", "U2", "U3", "U4", "U5", "U6"]
NOISY = ["--noise-sigma-deg", "5", "--seed", "3"]

#: command label -> arguments, each run with --output-dir .
COMMANDS = {
    **{f"compile-{g}": ["compile", g] for g in GATES},
    **{f"run-{mode}-{p}": ["run", "--mode", mode, "--permutation", p]
       for mode in ("gate", "pulse") for p in PERMUTATIONS},
    **{f"run-pulse-{p}-noisy": ["run", "--permutation", p, *NOISY] for p in PERMUTATIONS},
    # seed 1437 sends f1's last flip draw, the detection pulse's, down the
    # ziggurat's tail past 3.65 sigma
    "run-pulse-f1-noisy-tail": ["run", "--noise-sigma-deg", "5", "--seed", "1437"],
    # 10**30 fills exactly the four words of SeedSequence's pool, as run's bare seed
    "run-pulse-f2-noisy-seed-10-30": ["run", "--permutation", "f2", "--noise-sigma-deg", "5",
                                      "--seed", "1000000000000000000000000000000"],
    "run-gate-cauchy": ["run", "--mode", "gate", "--permutation", "(1 0 -1 / 0 -1 1)"],
    "run-gate-noisy": ["run", "--mode", "gate", "--permutation", "f4", *NOISY],
    "sweep": ["sweep"],
    "sweep-noisy": ["sweep", "--noise-sigma-deg", "5", "--repeat", "50", "--seed", "1"],
    "sweep-lambda-3": ["sweep", "--lambda-q-hz", "3"],
    "sweep-noisy-hires": ["sweep", "--noise-sigma-deg", "5", "--repeat", "3", "--seed", "2",
                          "--n", "65536"],
    # 2**64 takes three entropy words, so each repetition's seed takes five
    "sweep-noisy-seed-2-64": ["sweep", "--noise-sigma-deg", "5", "--repeat", "20", "--seed",
                              "18446744073709551616"],
    # one repetition past a 4096-repetition block of the sweep
    "sweep-noisy-4097": ["sweep", "--noise-sigma-deg", "5", "--repeat", "4097", "--seed", "5"],
    "sweep-noise-20": ["sweep", "--noise-sigma-deg", "20", "--repeat", "50", "--seed", "4"],
    "sweep-short-t2": ["sweep", "--noise-sigma-deg", "5", "--repeat", "50", "--t2-s", "0.0005",
                       "--t1-s", "0.01", "--seed", "3"],
    "run-pulse-hires": ["run", "--permutation", "f2", "--n", "65536"],
    # exports of more than one block of rows, the largest export (256 blocks),
    # and a sweep at the largest n
    "run-pulse-n-131072": ["run", "--n", "131072"],
    "run-pulse-n-2-20": ["run", "--n", "1048576"],
    "sweep-noisy-n-2-20": ["sweep", "--noise-sigma-deg", "5", "--repeat", "2", "--seed", "3",
                           "--n", "1048576"],
    "run-lambda-700": ["run", "--lambda-q-hz", "700"],
    **{f"run-pulse-{p}-detect-360": ["run", "--permutation", p, "--detection-flip-deg", "360"]
       for p in ("f1", "f4")},
    "sweep-detect-180": ["sweep", "--detection-flip-deg", "180"],
    "sweep-no-signal": ["sweep", "--detection-flip-deg", "330", "--noise-sigma-deg", "120",
                        "--repeat", "20", "--seed", "1"],
    "sweep-mode-gate": ["sweep", "--mode", "gate"],
    "sweep-permutation-f4": ["sweep", "--permutation", "f4"],
    "compile-Q9": ["compile", "Q9"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(label: str, args: list, src: Path) -> list:
    """(digest, "<label>/<file>") for the exit code, streams and files of one command."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory(prefix="digests-") as cwd:
        proc = subprocess.run([sys.executable, "-m", "qutrit_parity.cli", *args,
                               "--output-dir", "."],
                              cwd=cwd, env=env, capture_output=True, timeout=600)
        leftovers = sorted(p.name for p in Path(cwd).rglob(".tmp-*"))
        if leftovers:
            sys.exit(f"{label}: left {', '.join(leftovers)} behind")
        stderr = b"".join(line for line in proc.stderr.splitlines(keepends=True)
                          if not line.startswith(b"wall time"))
        out = [(_sha256(str(proc.returncode).encode()), f"{label}/exit"),
               (_sha256(proc.stdout), f"{label}/stdout"),
               (_sha256(stderr), f"{label}/stderr")]
        for path in sorted(Path(cwd).rglob("*")):
            if path.is_file():
                out.append((_sha256(path.read_bytes()),
                            f"{label}/{path.relative_to(cwd).as_posix()}"))
    return out


def header(src: Path) -> str:
    """The numpy version and OpenBLAS core type that a child process loads."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_VERBOSE="2")
    proc = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                          env=env, capture_output=True, text=True, check=True)
    core = re.search(r"Core: (\S+)", proc.stderr)
    return f"# numpy {proc.stdout.strip()}, OpenBLAS core {core[1] if core else 'unknown'}"


def listing(src: Path) -> list:
    found = [pair for label, cmd in COMMANDS.items() for pair in digests(label, cmd, src)]
    found.sort(key=lambda pair: pair[1])
    return [header(src)] + [f"{digest}  {name}" for digest, name in found]


def check(lines: list, path: Path) -> int:
    """0 if lines equal the listing in path; else print what differs, and 1."""
    want = path.read_text().splitlines()
    if want[:1] != lines[:1]:
        print(f"{path} was made with {want[0][2:] if want else 'nothing'}; "
              f"this run has {lines[0][2:]}")
    old, new = (dict(reversed(line.split("  ", 1)) for line in side[1:]) for side in (want, lines))
    moved = sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))
    for name in moved:
        label = name.split("/", 1)[0]
        command = shlex.join(["qutrit-parity", *COMMANDS[label]]) if label in COMMANDS else "?"
        print(f"{'moved' if name in old and name in new else 'only in one'}: {name}"
              f"  ({command})")
    print(f"{len(moved)} of {len(old.keys() | new.keys())} lines differ from {path}")
    return 1 if moved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src",
                        help="directory that holds the qutrit_parity package")
    parser.add_argument("--check", type=Path, metavar="FILE",
                        help="compare with the listing in FILE instead of printing")
    args = parser.parse_args(argv)
    lines = listing(args.src.resolve())
    if args.check:
        return check(lines, args.check)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
