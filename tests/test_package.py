"""Package surface: every public name resolves on first use, and commands
import only the layers they run."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import soliton_forge
from soliton_forge.fileio import export_points_csv, read_points_csv

#: the 48 public names of the package and the submodule that defines each
EXPORTS = {
    "warp_models": (
        "CurvatureBounds", "Violation", "WarpModel", "make_builtin_warp",
        "radial_curvature", "validate_warp", "warp_from_json"),
    "profile_solver": (
        "ProfileCurve", "SolitonSpec", "TerminationPolicy", "profile_rhs",
        "profile_to_graph", "solve_bowl", "solve_ideal_parametric",
        "solve_wing"),
    "graph_solvers": (
        "ClosedForm", "RadialGraph", "closed_form_oracle", "solve_grim",
        "solve_ideal_graph", "solve_radial_graph"),
    "diagnostics": (
        "CheckResult", "DiagnosticsReport", "asymptotic_report",
        "drift_identity_random", "flux_residual", "geodesic_residual",
        "perturb_curve", "run_profile_checks", "wing_height_report",
        "wing_turning_flux"),
    "mcf_flow": (
        "FlowProblem", "FlowTrajectory", "GraphFlowState", "bump_initial",
        "discrete_soliton", "flat_initial", "soliton_initial", "sphere_area"),
    "lorentz": (
        "LorentzMap", "LorentzPoint", "embed_polar", "form_defect",
        "hyperbolic_translation", "parabolic_translation", "transform_points"),
    "meshing": ("SolitonMesh", "revolve_profile"),
}

SRC = Path(soliton_forge.__file__).resolve().parents[1]


def test_every_export_is_the_submodule_object():
    names = sorted(name for group in EXPORTS.values() for name in group)
    assert len(names) == 48
    assert sorted(soliton_forge.__all__) == names
    assert set(names) <= set(dir(soliton_forge))
    for module, group in EXPORTS.items():
        sub = importlib.import_module(f"soliton_forge.{module}")
        for name in group:
            assert getattr(soliton_forge, name) is getattr(sub, name), name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        soliton_forge.no_such_name


def _python(code: str, cwd: Path) -> str:
    out = subprocess.run([sys.executable, "-c", code], cwd=cwd, check=True,
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    return out.stdout


def _run_cli(argv, cwd: Path):
    """Exit status of ``soliton_forge.cli argv`` run as ``python -m`` in a
    fresh interpreter, and the ``scipy*`` modules loaded when it ended."""
    argv = ["soliton_forge.cli", "--out", str(cwd), *argv]
    code = (
        "import json, runpy, sys\n"
        f"sys.argv = {argv!r}\n"
        "try:\n"
        "    runpy.run_module('soliton_forge.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    status = exc.code\n"
        "print(json.dumps([status, sorted(m for m in sys.modules\n"
        "                                 if m.startswith('scipy'))]))\n")
    return json.loads(_python(code, cwd).splitlines()[-1])


def test_isometry_command_imports_no_scipy(tmp_path):
    rng = np.random.default_rng(11)
    rho, theta = rng.uniform(0.0, 3.0, 50), rng.uniform(0.0, 6.3, 50)
    coords = np.stack([np.cosh(rho), np.sinh(rho) * np.cos(theta),
                       np.sinh(rho) * np.sin(theta)], axis=1)
    export_points_csv(coords, tmp_path / "pts.csv", heights=rho)
    status, scipy_modules = _run_cli(
        ["isometry", "--map", "parabolic", "--param", "0.7", "--points",
         str(tmp_path / "pts.csv")], tmp_path)
    assert status == 0
    assert scipy_modules == []
    moved, heights = read_points_csv(tmp_path / "points_parabolic_0.7.csv")
    assert moved.shape == coords.shape
    assert np.array_equal(heights, rho)
    # the parabolic map keeps every horosphere level x0 + x1
    assert np.allclose(moved[:, 0] + moved[:, 1], coords[:, 0] + coords[:, 1],
                       rtol=1e-13, atol=0)


@pytest.fixture(scope="module")
def bowl_csv(tmp_path_factory):
    """The profile CSV of a K = -1 bowl to r = 4, as ``soliton bowl`` writes it."""
    out = tmp_path_factory.mktemp("bowl")
    status, _ = _run_cli(["soliton", "bowl", "--r-max", "4"], out)
    assert status == 0
    return out / "bowl.csv"


@pytest.mark.parametrize("argv", [
    ["soliton", "bowl", "--r-max", "4"],
    ["soliton", "wing", "--r-max", "4"],
    ["soliton", "grim", "--r-max", "4"],
    ["sweep", "--family", "wing", "--epsilons", "0.5,1", "--r-max", "4"],
    ["sweep", "--family", "bowl", "--c-values", "0.5,1", "--r-max", "4"],
    ["verify", "--input", "{bowl_csv}"],
])
def test_solver_commands_import_no_scipy(tmp_path, argv, bowl_csv):
    argv = [arg.format(bowl_csv=bowl_csv) for arg in argv]
    status, scipy_modules = _run_cli(argv, tmp_path)
    assert status == 0
    assert scipy_modules == []


@pytest.mark.parametrize("argv", [
    ["flow", "--nodes", "201"],
    ["flow", "--chart", "equidistant", "--nodes", "201", "--horizon", "0.05"],
])
def test_flow_command_imports_no_scipy(tmp_path, argv):
    # the Newton systems go to the LAPACK that NumPy bundles, or to the
    # in-package port of dgtsv, and the sphere area takes math.gamma
    status, scipy_modules = _run_cli(argv, tmp_path)
    assert status == 0
    assert scipy_modules == []


def test_solver_names_load_no_scipy(tmp_path):
    code = ("import sys, soliton_forge as sf\n"
            "sf.LorentzPoint, sf.solve_bowl, sf.solve_radial_graph, sf.solve_grim\n"
            "print([m for m in sys.modules if m.startswith('scipy')])\n")
    assert _python(code, tmp_path).split() == ["[]"]


def test_table_warp_and_perturbed_curve_load_no_scipy(tmp_path):
    code = ("import sys, numpy as np\n"
            "from soliton_forge import (SolitonSpec, TerminationPolicy,\n"
            "                           perturb_curve, solve_bowl, warp_from_json)\n"
            "r = np.linspace(0.0, 3.0, 31)\n"
            "warp = warp_from_json({'kind': 'rotational', 'table': [\n"
            "    {'r': x, 'xi': np.sinh(x), 'dxi': np.cosh(x), 'ddxi': np.sinh(x)}\n"
            "    for x in r.tolist()]})\n"
            "warp.ddxi(r), warp.xi_ratio(1.5)\n"
            "spec = SolitonSpec(c=1.0, n=2, family='bowl', warp=warp)\n"
            "curve = solve_bowl(spec, stop=TerminationPolicy(r_max=2.5))\n"
            "perturb_curve(curve).sample(curve.s)\n"
            "print([m for m in sys.modules if m.startswith('scipy')])\n")
    assert _python(code, tmp_path).split() == ["[]"]
