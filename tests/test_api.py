"""The package root's public names, and what its callers reach through it."""

import ast
import dataclasses
import inspect
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tdoaloc
from tdoaloc.cli import CSV_COLUMNS

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
    "write_scenario",
    # solvers
    "localize",
    "solve_five_sensor",
    "solve_four_sensor",
    # Monte Carlo
    "DEFAULT_SCALE_GRID",
    "ExperimentConfig",
    "instance_rng",
    "run_instance",
    "run_sweep",
    "sample_scenario",
}


def test_all_is_the_agreed_names():
    assert len(ROOT_NAMES) == 30
    assert len(tdoaloc.__all__) == len(set(tdoaloc.__all__))
    assert set(tdoaloc.__all__) == ROOT_NAMES


def test_result_record_holds_only_what_the_solvers_give():
    # Nothing derivable is stored: how the position was picked follows from
    # method and candidates. Every field is given by both solvers.
    fields = dataclasses.fields(tdoaloc.LocalizationResult)
    assert [f.name for f in fields] == [
        "position", "method", "candidates", "ambiguous", "diagnostics",
    ]
    assert all(f.default is dataclasses.MISSING for f in fields)
    assert all(f.default_factory is dataclasses.MISSING for f in fields)


def test_every_listed_name_resolves():
    for name in tdoaloc.__all__:
        assert getattr(tdoaloc, name) is not None, name


# The diagnostics keys of each solver's results, as the README's table lists them.
DIAGNOSTICS = {
    4: {"pivots", "pivot_ratio", "quadratic", "discriminant", "linear_fallback"},
    5: {"pivots", "pivot_ratio", "pairings", "scaled_rows", "pairing_retries"},
}


# One generic solve per array size, and one that takes the path named.
@pytest.mark.parametrize("sensors, source, path, taken", [
    ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], (2, 3, 4), "linear_fallback", False),
    # Leading coefficient exactly 0.
    ([(0.25, -0.25, 0), (-0.5, 0, 0.25), (0, 0, -0.25), (0.25, -0.375, -0.25)],
     (-0.25, 0.125, 0), "linear_fallback", True),
    ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], (2, 3, 4), "pairing_retries", False),
    # Equidistant from sensors 0, 1 and 2: the default pairing set carries no
    # information.
    ([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0.3, 0.4, 1.7), (1.2, -0.7, 0.4)],
     (1, 1, 1.5), "pairing_retries", True),
])
def test_diagnostics_keys_are_fixed(sensors, source, path, taken):
    array = tdoaloc.SensorArray(sensors)
    result = tdoaloc.localize(array, tdoaloc.range_differences(tdoaloc.Scenario(array, source)))
    assert set(result.diagnostics) == DIAGNOSTICS[len(sensors)]
    assert bool(result.diagnostics[path]) is taken


UNIT_5 = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 1.0, 1.0)]


@pytest.mark.parametrize("n", [4, 5])
def test_each_solve_calls_the_one_kernel_once(n, monkeypatch):
    # Both solvers reach the 3x3 solve by its public name, once per solve.
    from tdoaloc import geom3, solver4, solver5

    calls = []

    def counting(rows):
        calls.append(rows)
        return geom3.solve3_pivoted(rows)

    monkeypatch.setattr(solver4, "solve3_pivoted", counting)
    monkeypatch.setattr(solver5, "solve3_pivoted", counting)
    array = tdoaloc.SensorArray(UNIT_5[:n])
    tdoaloc.localize(array, tdoaloc.range_differences(tdoaloc.Scenario(array, (2.0, 3.0, 4.0))))
    assert len(calls) == 1
    public = [name for name, value in vars(geom3).items()
              if inspect.isfunction(value) and not name.startswith("_")]
    assert public == ["solve3_pivoted"]


@pytest.mark.parametrize("solve, n", [
    (tdoaloc.localize, 4), (tdoaloc.localize, 5),
    (tdoaloc.solve_four_sensor, 4), (tdoaloc.solve_five_sensor, 5),
])
def test_sensors_given_as_a_list(solve, n):
    # Sensor rows are coerced as range differences are: a list gives what a
    # SensorArray gives, and a bad shape is the constructor's ValueError.
    array = tdoaloc.SensorArray(UNIT_5[:n])
    deltas = tdoaloc.range_differences(tdoaloc.Scenario(array, (2.0, 3.0, 4.0)))
    result = solve(UNIT_5[:n], deltas.deltas.tolist())
    assert result.position.tolist() == solve(array, deltas).position.tolist()
    with pytest.raises(ValueError, match=r"must be an \(n, 3\) array"):
        solve([row[:2] for row in UNIT_5[:n]], deltas)
    # A scenario takes the rows as the solvers do.
    scenario = tdoaloc.Scenario(sensors=UNIT_5[:n], source=(2.0, 3.0, 4.0))
    assert scenario.sensors.positions.tolist() == array.positions.tolist()
    assert tdoaloc.range_differences(scenario).deltas.tolist() == deltas.deltas.tolist()
    with pytest.raises(ValueError, match=r"must be an \(n, 3\) array"):
        tdoaloc.Scenario(sensors=[row[:2] for row in UNIT_5[:n]], source=(2.0, 3.0, 4.0))


@pytest.mark.parametrize("n", [4, 5])
def test_result_positions_are_read_only(n):
    # Four sensors: two exact candidates, so the result holds two arrays
    # besides its position (which is the chosen one's).
    scenario = tdoaloc.sample_scenario(tdoaloc.instance_rng(42, 0, 1), n, 1.0)
    result = tdoaloc.localize(scenario.sensors, tdoaloc.range_differences(scenario))
    assert len(result.candidates) == (2 if n == 4 else 0)
    for array in (result.position, *(c.position for c in result.candidates)):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


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


# Each demo runs from a copy in tmp_path, so what it writes next to itself
# (success_fraction_sweep.py's CSVs and PNG) stays out of demos/.
@pytest.mark.parametrize(
    "demo", ["exact_localization.py", "degenerate_and_ambiguous.py", "success_fraction_sweep.py"]
)
def test_demo_runs(demo, tmp_path):
    copy = tmp_path / demo
    shutil.copyfile(DEMOS / demo, copy)
    proc = subprocess.run([sys.executable, str(copy)], capture_output=True, text=True,
                          env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    csvs = sorted(path.name for path in tmp_path.glob("*.csv"))
    if demo == "success_fraction_sweep.py":
        # One CSV per sensor count, in the columns of ``tdoaloc sweep``.
        assert csvs == ["success_fraction_sweep_4.csv", "success_fraction_sweep_5.csv"]
    for name in csvs:
        assert (tmp_path / name).read_text().startswith(",".join(CSV_COLUMNS) + "\n"), name


def test_module_entry_point_runs_a_sweep():
    proc = subprocess.run(
        [sys.executable, "-m", "tdoaloc", "sweep", "--sensors", "5", "--instances", "2",
         "--scales", "1"],
        capture_output=True, text=True, env=_subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == ",".join(CSV_COLUMNS)


def test_import_loads_the_cli_module():
    # The benchmark's per-layer tracer finds the CLI layer in sys.modules
    # after a plain ``import tdoaloc``. The sweep kernel's modules load only
    # when run_sweep first runs, so their import stays out of every caller
    # that never sweeps.
    modules = ("tdoaloc.cli", "tdoaloc._batch", "tdoaloc._streams")
    probe = f"import sys, tdoaloc; print([m in sys.modules for m in {modules!r}])"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, env=_subprocess_env(),
    ).stdout.strip()
    assert out == "[True, False, False]"


def _owners(path: Path, matches) -> list[str]:
    """``module.function`` for each AST node of ``path`` that ``matches``,
    named by its innermost enclosing function (``<module>`` at top level)."""
    owners = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif matches(node):
            owners.append(f"{path.stem}.{owner}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text()), "<module>")
    return owners


def _object_new_owners(path: Path) -> list[str]:
    """``module.function`` for each ``object.__new__`` in ``path``."""
    return _owners(path, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "__new__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"
    ))


def _setflags_owners(path: Path) -> list[str]:
    """``module.function`` for each ``.setflags(...)`` call in ``path``."""
    return _owners(path, lambda node: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "setflags"
    ))


def _is_blas_dot(node) -> bool:
    """Whether ``node`` is a ``@``, or a call of ``.dot``, ``.matmul``,
    ``.einsum`` or ``linalg.norm``."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    func = node.func
    return func.attr in ("dot", "matmul", "einsum") or (
        func.attr == "norm" and isinstance(func.value, ast.Attribute)
        and func.value.attr == "linalg"
    )


def test_one_builder_skips_a_constructor():
    # Records are built by their constructors, except where measurement._checked
    # builds one from values whose checks already ran; a second such builder
    # would be a second way to build the same record.
    package = Path(tdoaloc.__file__).parent
    owners = [o for path in sorted(package.glob("*.py")) for o in _object_new_owners(path)]
    assert owners == ["measurement._checked"]


def test_one_function_freezes_arrays():
    # Every array enters a record through measurement._frozen, which makes
    # a float64 copy and freezes that copy. A second setflags call could
    # freeze an array the package did not make, such as its caller's.
    package = Path(tdoaloc.__file__).parent
    owners = [o for path in sorted(package.glob("*.py")) for o in _setflags_owners(path)]
    assert owners == ["measurement._frozen"]


def test_one_function_checks_integers():
    # Sensor counts, instance counts and seeds are integers by one rule,
    # montecarlo._integer. A second isinstance(..., numbers.Integral) would be
    # a second rule that could accept what the first rejects, such as a bool.
    package = Path(tdoaloc.__file__).parent
    owners = [o for path in sorted(package.glob("*.py")) for o in _owners(path, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "Integral"
    ))]
    assert owners == ["montecarlo._integer"]


def test_batch_runs_the_solvers_rules():
    # The sweep batch calls the solvers' straight-line helpers on columns and
    # defines only its squared norms, its pivoted elimination, its masks and
    # its entry point. A new function there would be a second copy of a
    # scalar rule, which the batch must not keep in step by hand.
    tree = ast.parse((Path(tdoaloc.__file__).parent / "_batch.py").read_text())
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert defined == {"_sq_norm3", "_eliminate", "_solve3", "_rel_error", "_four_sensor",
                       "_five_sensor", "solve_scale"}
    assert not any(isinstance(node, (ast.Lambda, ast.AsyncFunctionDef)) for node in ast.walk(tree))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert {"_dot", "_line_rows", "_coefficients", "_point", "_residual",
            "_literal_row"} <= imported


def test_no_dot_goes_through_blas():
    # Every dot product is a written-out sum, (x0*y0 + x1*y1) + x2*y2, on
    # Python floats or on columns, so no output depends on how the BLAS
    # build rounds a dot. A matmul, einsum or norm would bring that back.
    package = Path(tdoaloc.__file__).parent
    owners = [o for path in sorted(package.glob("*.py")) for o in _owners(path, _is_blas_dot)]
    assert owners == []


def test_readme_python_blocks_run():
    readme = (DEMOS.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert len(blocks) == 2
    proc = subprocess.run([sys.executable, "-c", "\n".join(blocks)], capture_output=True,
                          text=True, env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    # The first block's position, candidates and ambiguous flag, as its comments give them.
    assert proc.stdout.splitlines()[:3] == ["[2. 3. 4.]", "()", "False"]
