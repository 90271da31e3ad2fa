"""Every import in the package modules is used, and scipy is imported only
inside functions: the project runs no linter, so these scans are the check."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qutrit_parity

MODULES = sorted(p for p in Path(qutrit_parity.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ only re-exports


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_scanner_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == [(1, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def import_time_modules(source: str) -> list:
    """Modules imported when the module itself is imported: everywhere but
    inside a function body (a class body runs at import, so it counts)."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                found.extend(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.append(child.module)
            visit(child)

    visit(ast.parse(source))
    return found


def test_scanner_skips_imports_inside_functions():
    source = ("import numpy as np\n"
              "try:\n    from scipy.linalg import expm\nexcept ImportError:\n    pass\n"
              "class C:\n    import scipy.special\n"
              "def f():\n    from scipy.optimize import minimize\n")
    assert import_time_modules(source) == ["numpy", "scipy.linalg", "scipy.special"]


@pytest.mark.parametrize("path", MODULES + [Path(qutrit_parity.__file__)],
                         ids=lambda p: p.name)
def test_scipy_imported_only_inside_functions(path):
    """The CLI commands need only numpy; scipy is for optimize_sequence."""
    assert [m for m in import_time_modules(path.read_text())
            if m.split(".")[0] == "scipy"] == []


def test_cli_import_leaves_out_scipy_and_concurrent_futures():
    """In a fresh interpreter: each costs every CLI process its import time."""
    probe = ("import sys, qutrit_parity.cli; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy' "
             "or m.startswith('concurrent.futures')])")
    env = dict(os.environ, PYTHONPATH=str(Path(qutrit_parity.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def numpy_random_uses(source: str) -> list:
    """Lines that import numpy.random, anywhere in the module, or reach it as
    the attribute np.random / numpy.random."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Attribute) and node.attr == "random"
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            names = ["numpy.random"]
        else:
            continue
        if any(name == "numpy.random" or name.startswith("numpy.random.") for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_scanner_flags_numpy_random():
    source = ("import numpy as np\nfrom numpy import linalg\n"
              "def f():\n    from numpy import random\n    return np.random.default_rng(0)\n"
              "import numpy.random.bit_generator\n")
    assert numpy_random_uses(source) == [4, 5, 6]


@pytest.mark.parametrize("path", MODULES + [Path(qutrit_parity.__file__)],
                         ids=lambda p: p.name)
def test_numpy_random_never_imported(path):
    """seeding draws default_rng's bytes itself: numpy.random (secrets, hmac
    and _hashlib with it) costs a cold noisy process 10-15 ms and ~6 MB."""
    assert numpy_random_uses(path.read_text()) == []


def test_noisy_commands_leave_out_numpy_random(tmp_path):
    """In a fresh interpreter, a noisy sweep and a noisy run through cli.main
    import neither numpy.random nor secrets or hmac."""
    probe = ("import sys\nfrom qutrit_parity.cli import main\n"
             f"out = {str(tmp_path)!r}\n"
             "main(['sweep', '--noise-sigma-deg', '5', '--repeat', '20', '--seed', '1',"
             " '--output-dir', out])\n"
             "main(['run', '--noise-sigma-deg', '5', '--seed', '1437', '--output-dir', out])\n"
             "print([m for m in sys.modules if m in ('secrets', 'hmac')"
             " or m == 'numpy.random' or m.startswith('numpy.random.')])\n")
    env = dict(os.environ, PYTHONPATH=str(Path(qutrit_parity.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "[]"
    assert (tmp_path / "sweep.tsv").exists() and (tmp_path / "readout.json").exists()
