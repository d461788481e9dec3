"""The in-package DOP853 against SciPy as oracle: the same tableau, and
the same times, states, events, RHS counts, status, message and dense
coefficients as ``solve_ivp(method="DOP853", dense_output=True)`` bit for
bit, on every solve the soliton solvers make; its Brent root finder
against ``scipy.optimize.brentq``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.optimize import brentq as scipy_brentq

from soliton_forge import (
    SolitonSpec, TerminationPolicy, solve_bowl, solve_grim,
    solve_ideal_graph, solve_ideal_parametric, solve_radial_graph, solve_wing,
)
from soliton_forge import dop853
from soliton_forge.graph_solvers import _integrate_slope

TIGHT = {"rtol": 1e-11, "atol": 1e-13}


def _same(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _assert_matches_solve_ivp(run, fun, t_span, y0, rtol, atol, events=()):
    ref = solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol, atol=atol,
                    dense_output=True, events=list(events) or None)
    assert (run.status, run.message, run.nfev) == (ref.status, ref.message, ref.nfev)
    assert _same(run.t, ref.t)
    assert _same(run.y, ref.y)
    for i in range(len(events)):
        assert _same(run.t_events[i], ref.t_events[i])
        assert _same(run.y_events[i], ref.y_events[i])
    steps = ref.sol.interpolants if ref.sol is not None else []
    assert run.h.size == len(steps)
    if steps and hasattr(steps[0], "F"):
        assert _same(run.F, [step.F for step in steps])
        assert _same(run.t_old, [step.t_old for step in steps])
        assert _same(run.h, [step.h for step in steps])
        assert _same(run.y_old, [step.y_old for step in steps])
    return ref


@pytest.fixture
def oracle(monkeypatch):
    """Every ``dop853.solve`` call the solvers make, each checked against
    ``solve_ivp`` on the same arguments."""
    runs = []
    solve = dop853.solve

    def checked(fun, t_span, y0, rtol, atol, events=()):
        run = solve(fun, t_span, y0, rtol, atol, events)
        _assert_matches_solve_ivp(run, fun, t_span, y0, rtol, atol, events)
        runs.append((run, len(events)))
        return run

    monkeypatch.setattr(dop853, "solve", checked)
    return runs


def test_tableau_equals_scipy():
    ref = dop853_coefficients
    assert (dop853.N_STAGES, dop853.N_STAGES_EXTENDED, dop853.INTERPOLATOR_POWER) == (
        ref.N_STAGES, ref.N_STAGES_EXTENDED, ref.INTERPOLATOR_POWER)
    for name in ("C", "A", "B", "E3", "E5", "D"):
        assert _same(getattr(dop853, name), getattr(ref, name)), name


class TestSolveIvpBits:
    def test_bowl_and_wing_profiles_with_five_events(self, oracle, hyperbolic_warp):
        stop = TerminationPolicy(r_max=10.0)
        solve_bowl(SolitonSpec(c=1.0, n=2, family="bowl", warp=hyperbolic_warp),
                   stop=stop, **TIGHT)
        wing = SolitonSpec(c=1.0, n=3, family="wing", warp=hyperbolic_warp, epsilon=0.3)
        curve = solve_wing(wing, branch=-1, stop=stop)
        assert [events for _, events in oracle] == [5, 5]
        # the wing's run found its turning point and stopped on max_radius
        assert curve.turning_points and curve.termination == "max_radius"

    def test_ideal_profile(self, oracle, busemann_warp):
        spec = SolitonSpec(c=1.0, n=2, family="ideal", warp=busemann_warp)
        solve_ideal_parametric(spec, (-1.0, 0.0, 1.2), stop=TerminationPolicy(r_max=5.0))
        assert [events for _, events in oracle] == [4]

    def test_radial_graph(self, oracle, hyperbolic_bowl_spec):
        solve_radial_graph(hyperbolic_bowl_spec, r_span=(0.0, 10.0), **TIGHT)
        assert len(oracle) == 1 and oracle[0][0].status == 0

    def test_ideal_graph_to_its_blowup(self, oracle, busemann_warp):
        graph = solve_ideal_graph(2.0, 2, busemann_warp, r_span=(0.0, 2.0), **TIGHT)
        run = oracle[0][0]
        assert graph.gradient_blowup and run.status == 1 and run.t_events[0].size == 1

    def test_descending_grim_piece(self, oracle, equidistant_warp):
        solve_grim(1.0, 2, equidistant_warp, r_span=(-20.0, 20.0))
        (down, _), (up, _) = oracle
        assert down.h.max() < 0 < up.h.min()

    def test_zero_length_span(self):
        fun = lambda t, y: -y  # noqa: E731
        run = dop853.solve(fun, (1.0, 1.0), (2.0,), 1e-9, 1e-11)
        ref = _assert_matches_solve_ivp(run, fun, (1.0, 1.0), (2.0,), 1e-9, 1e-11)
        assert (run.n_steps, run.nfev) == (0, 1)
        for t in (1.0, np.array([1.0, 1.5])):
            assert _same(dop853.DenseSolution(run)(t), ref.sol(t))

    def test_step_failure(self):
        # u' = u^2 from u(0) = 1 blows up at 1, so the step size collapses
        def fun(r, y):
            return (y[0] ** 2, 0.0)
        run = dop853.solve(fun, (0.0, 2.0), (1.0, 0.0), 1e-9, 1e-11)
        _assert_matches_solve_ivp(run, fun, (0.0, 2.0), (1.0, 0.0), 1e-9, 1e-11)
        assert run.status == -1 and run.message == dop853.TOO_SMALL_STEP
        with pytest.raises(RuntimeError, match="step failure: Required step size"):
            _integrate_slope(fun, (0.0, 2.0), (1.0, 0.0), 1e-9, 1e-11)

    def test_tolerance_floor(self):
        fun = lambda t, y: -y  # noqa: E731
        with pytest.warns(UserWarning, match="rtol"):
            run = dop853.solve(fun, (0.0, 1.0), (1.0,), 1e-17, 1e-20)
        with pytest.warns(UserWarning, match="rtol"):
            _assert_matches_solve_ivp(run, fun, (0.0, 1.0), (1.0,), 1e-17, 1e-20)

    def test_every_rhs_call_is_a_stage(self, oracle, hyperbolic_bowl_spec, busemann_warp):
        # start, first-step probe, 12 stages per tried step, 3 dense stages
        # per accepted step
        solve_radial_graph(hyperbolic_bowl_spec, r_span=(0.0, 10.0))
        solve_ideal_graph(2.0, 2, busemann_warp, r_span=(0.0, 2.0))
        assert len(oracle) == 2
        for run, _ in oracle:
            assert run.nfev == 2 + 12 * (run.n_steps + run.n_rejected) + 3 * run.n_steps


def _bracketed(kind, root, scale, x):
    if kind == 0:
        return scale * (x - root)
    if kind == 1:
        return scale * (x - root) * (1.0 + (x - root) ** 2)
    if kind == 2:
        return math.tanh(scale * (x - root))
    if kind == 3:
        return math.exp(x - root) - 1.0
    # not monotone: Brent's interpolation and extrapolation steps both run
    return math.sin(scale * (x - root)) + 0.3 * (x - root)


@settings(max_examples=200, deadline=None)
@given(kind=st.integers(0, 4),
       lo=st.floats(-50.0, 50.0), width=st.floats(1e-12, 100.0),
       where=st.floats(0.0, 1.0), scale=st.floats(1e-6, 1e6))
def test_brentq_equals_scipy(kind, lo, width, where, scale):
    hi = lo + width
    root = lo + where * (hi - lo)

    def f(x):
        return _bracketed(kind, root, scale, x)

    try:
        want = scipy_brentq(f, lo, hi, xtol=dop853.ROOT_TOL, rtol=dop853.ROOT_TOL)
    except (ValueError, RuntimeError) as exc:
        with pytest.raises(type(exc), match="must have different signs|converge"):
            dop853.brentq(f, lo, hi)
        return
    got = dop853.brentq(f, lo, hi)
    assert type(got) is float
    assert _same(got, want)
