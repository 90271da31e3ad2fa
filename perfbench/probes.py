"""Import-time parsing, the tail-percentile rule, and run provenance."""

from __future__ import annotations

import hashlib
import importlib.metadata
import os
import platform
import subprocess
import sys
from pathlib import Path

#: written to stderr right before the measured import, so that only the
#: modules this import loads are counted, not the interpreter's start-up set
IMPORT_MARKER = "perfbench: import starts"

IMPORT_PROBE = (f"import sys; sys.stderr.write({IMPORT_MARKER!r} + '\\n'); "
                "sys.stderr.flush(); import qutrit_parity.cli")

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_importtime(stderr: str, marker: str = IMPORT_MARKER) -> list:
    """(module, self_us, cumulative_us) for each `-X importtime` line after marker.

    Lines read `import time: <self> | <cumulative> | <indent><module>`; the
    header line and anything that does not parse are skipped.
    """
    lines = stderr.splitlines()
    if marker in lines:
        lines = lines[lines.index(marker) + 1:]
    out = []
    for line in lines:
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        try:
            own, cumulative = int(fields[0]), int(fields[1])
        except ValueError:
            continue
        out.append((fields[2].strip(), own, cumulative))
    return out


def import_metrics(entries) -> dict:
    """The import.* layer as (value, unit): cumulative ms of the heavy
    dependencies, self ms of the package's own modules, and the exact number
    of modules loaded."""
    cumulative = {name: cum for name, _, cum in entries}
    own = sum(s for name, s, _ in entries
              if name == "qutrit_parity" or name.startswith("qutrit_parity."))
    return {
        "import.total_ms": (cumulative.get("qutrit_parity.cli", 0) / 1e3, "ms"),
        "import.numpy_ms": (cumulative.get("numpy", 0) / 1e3, "ms"),
        "import.scipy_linalg_ms": (cumulative.get("scipy.linalg", 0) / 1e3, "ms"),
        "import.scipy_optimize_ms": (cumulative.get("scipy.optimize", 0) / 1e3, "ms"),
        "import.qutrit_parity_ms": (own / 1e3, "ms"),
        "import.modules": (len(entries), "count"),
    }


def tail_percentile(samples, beyond: int = 10):
    """Highest integer percentile with at least `beyond` samples above it.

    Uses the nearest-rank percentile. Returns (percentile, value), or None
    when there are too few samples for any percentile to qualify.
    """
    values = sorted(samples)
    n = len(values)
    for pct in range(99, 0, -1):
        rank = -(-pct * n // 100)  # ceil(pct * n / 100), at least 1
        value = values[rank - 1]
        if sum(1 for v in values if v > value) >= beyond:
            return pct, value
    return None


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path):
    """HEAD of the checkout, or None when the checkout is not a git work tree.

    The ceiling keeps git from looking for a repository above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != root:
        return None
    return lines[1]


#: run in a child with the benchmark's environment: reports the BLAS thread
#: pool size that numpy's OpenBLAS actually uses
BLAS_PROBE = r"""
import ctypes, json, re
import numpy
threads = {}
with open("/proc/self/maps") as maps:
    libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps.read())))
for lib in libs:
    handle = ctypes.CDLL(lib)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(handle, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads[lib.rsplit("/", 1)[-1]] = fn()
            break
print(json.dumps(threads))
"""


def provenance(root: Path, src: Path, env: dict, workload: str, seed: int) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        probe = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env,
                               capture_output=True, text=True, timeout=60)
        blas_threads = probe.stdout.strip() or probe.stderr.strip()[-200:]
    except (OSError, subprocess.TimeoutExpired) as exc:
        blas_threads = f"probe failed: {exc}"
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(src),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "blas_threads": blas_threads,
    }
