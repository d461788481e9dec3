"""Numerical toolkit for translating solitons of mean curvature flow in
rotationally invariant Riemannian products R x P.

Submodules: warp_models (metric data), dop853 (the ODE integrator),
spline (cubic interpolants), profile_solver (parametric profiles),
graph_solvers (graph ODEs), diagnostics (identity checks), mcf_flow
(graphical flow and monotonicity), lorentz (hyperboloid-model
isometries), meshing and fileio (artifacts), cli (command line).

Each submodule is imported the first time one of its names is looked up
here, so ``soliton_forge.LorentzPoint`` loads NumPy and ``lorentz`` only.
Everything needs NumPy alone: the tridiagonal solves of the splines and
the flow call LAPACK's ``dgtsv`` in the OpenBLAS that NumPy's wheel
bundles, or an in-package port of it where there is none.
"""

import importlib

#: public name -> submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "warp_models": (
            "CurvatureBounds", "Violation", "WarpModel", "make_builtin_warp",
            "radial_curvature", "validate_warp", "warp_from_json",
        ),
        "profile_solver": (
            "ProfileCurve", "SolitonSpec", "TerminationPolicy", "profile_rhs",
            "profile_to_graph", "solve_bowl", "solve_ideal_parametric",
            "solve_wing",
        ),
        "graph_solvers": (
            "ClosedForm", "RadialGraph", "closed_form_oracle", "solve_grim",
            "solve_ideal_graph", "solve_radial_graph",
        ),
        "diagnostics": (
            "CheckResult", "DiagnosticsReport", "asymptotic_report",
            "drift_identity_random", "flux_residual", "geodesic_residual",
            "perturb_curve", "run_profile_checks", "wing_height_report",
            "wing_turning_flux",
        ),
        "mcf_flow": (
            "FlowProblem", "FlowTrajectory", "GraphFlowState", "bump_initial",
            "discrete_soliton", "flat_initial", "soliton_initial",
            "sphere_area",
        ),
        "lorentz": (
            "LorentzMap", "LorentzPoint", "embed_polar", "form_defect",
            "hyperbolic_translation", "parabolic_translation",
            "transform_points",
        ),
        "meshing": ("SolitonMesh", "revolve_profile"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    """Import the submodule that defines ``name`` and cache the name here."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
