"""The package root's public names, and what its callers reach through it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tdoaloc

DEMOS = Path(__file__).resolve().parent.parent / "demos"

ROOT_NAMES = {
    # errors
    "DegenerateDeltasError",
    "DegenerateLinearError",
    "DegenerateSamplingError",
    "InvalidConfigError",
    "LocalizationError",
    "NoCandidatesError",
    "NoRealSolutionError",
    "ScenarioFormatError",
    "SingularMatrixError",
    # results
    "AmbiguityResolution",
    "FailureCause",
    "LocalizationResult",
    "Method",
    # measurement and scenario documents
    "RangeDifferences",
    "SPEED_OF_LIGHT",
    "Scenario",
    "SensorArray",
    "arrival_times_to_range_diffs",
    "document_deltas",
    "load_scenario",
    "range_differences",
    "reference_frame",
    "write_scenario",
    # solvers
    "build_five_sensor_system",
    "build_four_sensor_system",
    "candidate_positions",
    "localize",
    "resolve_ambiguity",
    "solve_five_sensor",
    "solve_four_sensor",
    "solve_reference_range",
    # Monte Carlo
    "DEFAULT_SCALE_GRID",
    "ExperimentConfig",
    "instance_rng",
    "run_instance",
    "run_sweep",
    "sample_scenario",
}


def test_all_is_the_agreed_names():
    assert len(ROOT_NAMES) == 37
    assert len(tdoaloc.__all__) == len(set(tdoaloc.__all__))
    assert set(tdoaloc.__all__) == ROOT_NAMES


def test_every_listed_name_resolves():
    for name in tdoaloc.__all__:
        assert getattr(tdoaloc, name) is not None, name


def _demo_root_names(source: str) -> set[str]:
    """Names a demo reaches at the package root: ``tl.name`` after
    ``import tdoaloc as tl``, and ``from tdoaloc import name``."""
    tree = ast.parse(source)
    aliases = set()
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name == "tdoaloc"}
        elif isinstance(node, ast.ImportFrom) and node.module == "tdoaloc":
            names |= {a.name for a in node.names}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add(node.attr)
    return names


def test_demo_names_resolve_at_the_root():
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    used = set()
    for path in demos:
        names = _demo_root_names(path.read_text())
        missing = sorted(n for n in names if not hasattr(tdoaloc, n))
        assert not missing, f"{path.name}: {missing}"
        used |= names
    assert used


def _subprocess_env() -> dict:
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}


# success_fraction_sweep.py is left out: it writes a CSV and a PNG into demos/.
@pytest.mark.parametrize("demo", ["exact_localization.py", "degenerate_and_ambiguous.py"])
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(DEMOS / demo)], capture_output=True,
                          text=True, env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr


def test_import_loads_the_cli_module():
    # The benchmark's per-layer tracer finds the CLI layer in sys.modules
    # after a plain ``import tdoaloc``.
    out = subprocess.run(
        [sys.executable, "-c", "import sys, tdoaloc; print('tdoaloc.cli' in sys.modules)"],
        capture_output=True, text=True, check=True, env=_subprocess_env(),
    ).stdout.strip()
    assert out == "True"
