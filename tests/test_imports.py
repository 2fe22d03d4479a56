"""Import direction: the core modules never reach the checking side or the CLI,
and `import hagedorn` loads neither, nor any scipy module.  Every public function and class of a
core module has a production caller.  The names perfbench/tracing.py rebinds
all exist in the package.  A constant-H run loads neither scipy.integrate
nor scipy.optimize, and a driven run without a positivity crossing loads
neither either."""

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


def names_read(node):
    """Every name, attribute and imported name under an AST node."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


def test_every_public_core_definition_has_a_production_caller():
    # a public function or class of a core module is used by the production
    # side (the core modules and cli, outside its own definition), exported by
    # the package root, or wrapped by the benchmark tracer; code that only the
    # checking side calls belongs there
    statements = [
        (module, statement)
        for module in CORE + ["cli"]
        for statement in ast.parse((PACKAGE / f"{module}.py").read_text()).body
    ]
    tracing = load_tracing()
    allowed = names_read(ast.parse((PACKAGE / "__init__.py").read_text()))
    allowed |= {attr for _, attr, *_ in tracing.TIMED + tracing.COUNTED}
    unused = [
        f"{module}.{definition.name}"
        for module, definition in statements
        if module in CORE
        and isinstance(definition, (ast.FunctionDef, ast.ClassDef))
        and not definition.name.startswith("_")
        and definition.name not in allowed
        and not any(
            definition.name in names_read(other)
            for _, other in statements
            if other is not definition
        )
    ]
    assert unused == []


ROOT_CHECK = """
import sys
import hagedorn
outer = ["hagedorn.cli", "hagedorn.gridsolver", "hagedorn.swanson", "hagedorn.oracles",
         "scipy", "scipy.integrate", "scipy.optimize"]
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


DRIVEN_CHECK = """
import json, sys, tempfile
import hagedorn.cli as cli
with open(sys.argv[1]) as fh:
    raw = json.load(fh)
with tempfile.TemporaryDirectory() as out:
    assert cli.run_scenario(cli.load_config(raw), out) == 0
print(sorted(m for m in ("scipy.integrate", "scipy.optimize") if m in sys.modules))
"""


def test_polynomial_h_run_loads_no_ode_or_root_finder():
    # an n = 2 polynomial H without a crossing: the flow is the Taylor
    # recurrence, which needs no ODE solver, and no root is bracketed
    config = Path(__file__).with_name("configs") / "driven-polynomial.json"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-c", DRIVEN_CHECK, str(config)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout.strip() == "[]"
