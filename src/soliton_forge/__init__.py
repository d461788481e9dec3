"""Numerical toolkit for translating solitons of mean curvature flow in
rotationally invariant Riemannian products R x P.

Submodules: warp_models (metric data), profile_solver (parametric
profiles), graph_solvers (graph ODEs), diagnostics (identity checks),
mcf_flow (graphical flow and monotonicity), lorentz (hyperboloid-model
isometries), meshing and fileio (artifacts), cli (command line).
"""

from .warp_models import (
    CurvatureBounds, Violation, WarpModel, constant_curvature_ratio,
    level_mean_curvature, make_builtin_warp, radial_curvature,
    riccati_residual, validate_warp, warp_from_json,
)
from .profile_solver import (
    ProfileCurve, ProfileState, SampledCurve, SolitonSpec, TerminationPolicy,
    equilibrium_angle, profile_rhs, profile_to_graph, solve_bowl,
    solve_ideal_parametric, solve_wing,
)
from .graph_solvers import (
    ClosedForm, RadialGraph, closed_form_oracle, solve_grim,
    solve_ideal_graph, solve_radial_graph,
)
from .diagnostics import (
    CheckResult, DiagnosticsReport, asymptotic_report, drift_identity_random,
    drift_identity_residual, flux_residual, geodesic_residual, perturb_curve,
    run_profile_checks, wing_height_report, wing_turning_flux,
)
from .mcf_flow import (
    FlowProblem, FlowTrajectory, GraphFlowState, bump_initial,
    discrete_soliton, flat_initial, soliton_initial, sphere_area,
)
from .lorentz import (
    LorentzMap, LorentzPoint, compose, embed_polar, equidistant_point,
    form_defect, hyperbolic_translation, lorentz_product,
    parabolic_translation, transform_points,
)
from .meshing import SolitonMesh, revolve_profile

__version__ = "0.1.0"
