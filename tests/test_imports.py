"""Import direction: the core modules never reach the checking side or the CLI,
and `import hagedorn` loads neither.  The names perfbench/tracing.py rebinds
all exist in the package, and a constant-H run loads neither scipy.integrate
nor scipy.optimize."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hagedorn

PACKAGE = Path(hagedorn.__file__).parent
CORE = ["symplectic", "polynomials", "wavepackets", "propagation"]
OUTER = {"swanson", "gridsolver", "oracles", "cli"}


def imported_modules(path):
    """Last dotted component of every module an import statement in path names,
    plus the names a relative `from . import x` brings in."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.rsplit(".", 1)[-1])
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", CORE)
def test_core_module_imports_nothing_from_the_outer_modules(module):
    assert imported_modules(PACKAGE / f"{module}.py") & OUTER == set()


def test_import_scan_sees_the_outer_modules():
    # cli imports swanson and gridsolver in the relative form a core module
    # would use, and a test module imports oracles and cli, so the scan would
    # notice each outer name
    assert {"swanson", "gridsolver"} <= imported_modules(PACKAGE / "cli.py")
    assert {"oracles", "cli"} <= imported_modules(Path(__file__).with_name("test_propagation.py"))


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_cleanly():
    tracing = load_tracing()
    targets = [(owner, attr) for owner, attr, *_ in tracing.TIMED + tracing.COUNTED]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets if not hasattr(owner, attr)]
    assert missing == []
    originals = [getattr(owner, attr) for owner, attr in targets]
    tracer = tracing.Tracer().install()
    try:
        for (owner, attr), original in zip(targets, originals):
            assert getattr(owner, attr).__wrapped__ is original, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(targets, originals):
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"


ROOT_CHECK = """
import sys
import hagedorn
outer = ["hagedorn.cli", "hagedorn.gridsolver", "hagedorn.swanson", "hagedorn.oracles",
         "scipy.integrate", "scipy.optimize"]
print(sorted(m for m in outer if m in sys.modules))
"""


def test_package_root_loads_only_the_production_side():
    # a fresh interpreter: this suite has imported every module already
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-c", ROOT_CHECK], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"


LAZY_CHECK = """
import sys, tempfile
import hagedorn.cli as cli
with tempfile.TemporaryDirectory() as out:
    raw = {**cli.PRESETS["swanson-fig1"], "oracle": {"enabled": False}}
    assert cli.run_scenario(cli.load_config(raw), out) == 0
print(sorted(m for m in ("scipy.integrate", "scipy.optimize") if m in sys.modules))
"""


def test_constant_h_run_loads_no_ode_or_root_finder():
    # a fresh interpreter: this suite's other modules import scipy.integrate
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-c", LAZY_CHECK], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"
