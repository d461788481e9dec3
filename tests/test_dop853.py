"""The in-package DOP853 against SciPy as oracle: the same tableau, and
the same times, states, roots and states of every named stop, RHS counts,
status and dense coefficients as ``solve_ivp(method="DOP853", dense_output=True)`` bit for
bit, on every solve the soliton solvers make and on random small systems
with stops; its Brent root finder against ``scipy.optimize.brentq``."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.optimize import brentq as scipy_brentq

from soliton_forge import (
    SolitonSpec, TerminationPolicy, solve_bowl, solve_grim,
    solve_ideal_graph, solve_ideal_parametric, solve_radial_graph, solve_wing,
)
from soliton_forge import dop853, make_builtin_warp
from soliton_forge.graph_solvers import BLOWUP_SLOPE, _integrate_slope

TIGHT = {"rtol": 1e-11, "atol": 1e-13}
#: the keys of every solve's run record
RECORD = {"n_rhs_evals", "n_steps", "status"}


def _same(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class _Stop:
    """A named stop ``(name, g, terminal)`` as a SciPy event: g with the
    ``terminal`` attribute."""

    def __init__(self, g, terminal):
        self.g, self.terminal = g, terminal

    def __call__(self, t, y):
        return self.g(t, y)


def _assert_matches_solve_ivp(out, fun, t_span, y0, rtol, atol, stops=()):
    # SciPy warns where its norms overflow or it divides by an underflowed
    # first step; the in-package solver must not (pytest makes that an error)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ref = solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol, atol=atol,
                        dense_output=True,
                        events=[_Stop(g, terminal) for _, g, terminal in stops] or None)
    assert (out.status, out.nfev) == (ref.status, ref.nfev)
    assert _same(out.t, ref.t)
    assert _same(out.y, ref.y)
    # each name's roots and states are those of its triples, triple by triple
    names = [name for name, _, _ in stops]
    for name in dict.fromkeys(names):
        want = [(root, state) for i, other in enumerate(names) if other == name
                for root, state in zip(ref.t_events[i], ref.y_events[i])]
        assert len(out.hits[name]) == len(want), name
        for (root, state), (ref_root, ref_state) in zip(out.hits[name], want):
            assert _same(root, ref_root) and _same(state, ref_state), name
    if ref.status == 1:
        # the stop that ended the solve has its root at the last time
        assert out.t[-1] in [root for root, _ in out.hits[out.stop]]
    if ref.status == -1:
        assert ref.message == dop853.TOO_SMALL_STEP
    steps = ref.sol.interpolants if ref.sol is not None else []
    assert out.h.size == len(steps)
    if steps and hasattr(steps[0], "F"):
        assert _same(out.F, [step.F for step in steps])
        assert _same(out.t_old, [step.t_old for step in steps])
        assert _same(out.h, [step.h for step in steps])
        assert _same(out.y_old, [step.y_old for step in steps])
    return ref


@pytest.fixture
def oracle(monkeypatch):
    """Every ``dop853.solve`` call the solvers make, each checked against
    ``solve_ivp`` on the same arguments."""
    outcomes = []
    solve = dop853.solve

    def checked(fun, t_span, y0, rtol, atol, stops=()):
        out = solve(fun, t_span, y0, rtol, atol, stops)
        _assert_matches_solve_ivp(out, fun, t_span, y0, rtol, atol, stops)
        outcomes.append((out, len(stops)))
        return out

    monkeypatch.setattr(dop853, "solve", checked)
    return outcomes


def _floats(t, y) -> bool:
    return type(t) is float and type(y) is list and all(type(v) is float for v in y)


@pytest.fixture
def contract(monkeypatch):
    """Every ``dop853.solve`` call the solvers make, with each call of its
    ``fun`` and of its stops recorded as whether it got a float t and a list
    of floats."""
    calls = {"fun": [], "stop": []}
    solve = dop853.solve

    def checked(fun, t_span, y0, rtol, atol, stops=()):
        def watched(kind, f):
            def call(t, y):
                calls[kind].append(_floats(t, y))
                return f(t, y)
            return call
        stops = [(name, watched("stop", g), terminal) for name, g, terminal in stops]
        return solve(watched("fun", fun), t_span, y0, rtol, atol, stops)

    monkeypatch.setattr(dop853, "solve", checked)
    return calls


def test_fun_and_stops_get_a_float_and_a_list_of_floats(
        contract, hyperbolic_warp, busemann_warp, equidistant_warp):
    stop = TerminationPolicy(r_max=6.0)
    solve_bowl(SolitonSpec(c=1.0, n=2, family="bowl", warp=hyperbolic_warp), stop=stop)
    solve_wing(SolitonSpec(c=1.0, n=3, family="wing", warp=hyperbolic_warp,
                           epsilon=0.3), stop=stop)
    solve_ideal_parametric(SolitonSpec(c=1.0, n=2, family="ideal", warp=busemann_warp),
                           (-1.0, 0.0, 1.2), stop=stop)
    solve_radial_graph(SolitonSpec(c=1.0, n=2, family="bowl", warp=hyperbolic_warp),
                       r_span=(0.0, 5.0))
    # a blow-up: its stop is also evaluated inside the root search
    solve_ideal_graph(2.0, 2, busemann_warp, r_span=(0.0, 2.0))
    solve_grim(1.0, 3, equidistant_warp, r_span=(0.0, 5.0))
    dop853.solve(lambda t, y: (1.0,), (0.0, 0.0), (0.0,), 1e-9, 1e-11,
                 [("at_start", lambda t, y: y[0], True)])
    assert len(contract["fun"]) > 1000 and len(contract["stop"]) > 100
    assert all(contract["fun"]) and all(contract["stop"])


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
        assert [stops for _, stops in oracle] == [5, 5]
        # the wing's run found its turning point and stopped on max_radius
        assert curve.turning_points and curve.termination == "max_radius"

    def test_ideal_profile(self, oracle, busemann_warp):
        spec = SolitonSpec(c=1.0, n=2, family="ideal", warp=busemann_warp)
        solve_ideal_parametric(spec, (-1.0, 0.0, 1.2), stop=TerminationPolicy(r_max=5.0))
        assert [stops for _, stops in oracle] == [4]

    def test_radial_graph(self, oracle, hyperbolic_bowl_spec):
        solve_radial_graph(hyperbolic_bowl_spec, r_span=(0.0, 10.0), **TIGHT)
        assert len(oracle) == 1 and oracle[0][0].status == 0

    def test_ideal_graph_to_its_blowup(self, oracle, busemann_warp):
        graph = solve_ideal_graph(2.0, 2, busemann_warp, r_span=(0.0, 2.0), **TIGHT)
        out = oracle[0][0]
        assert graph.gradient_blowup and out.stop == "blowup" and len(out.hits["blowup"]) == 1

    def test_descending_grim_piece(self, oracle, equidistant_warp):
        # an asymmetric span: both halves are solved
        solve_grim(1.0, 2, equidistant_warp, r_span=(-20.0, 15.0))
        (down, _), (up, _) = oracle
        assert down.h.max() < 0 < up.h.min()

    def test_zero_length_span(self):
        fun = lambda t, y: [-v for v in y]  # noqa: E731
        out = dop853.solve(fun, (1.0, 1.0), (2.0,), 1e-9, 1e-11)
        ref = _assert_matches_solve_ivp(out, fun, (1.0, 1.0), (2.0,), 1e-9, 1e-11)
        assert (out.n_steps, out.nfev) == (0, 1)
        for t in (1.0, np.array([1.0, 1.5])):
            assert _same(dop853.DenseSolution(out)(t), ref.sol(t))

    def test_step_failure(self):
        # u' = u^2 from u(0) = 1 blows up at 1, so the step size collapses
        def fun(r, y):
            return (y[0] ** 2, 0.0)
        out = dop853.solve(fun, (0.0, 2.0), (1.0, 0.0), 1e-9, 1e-11)
        ref = _assert_matches_solve_ivp(out, fun, (0.0, 2.0), (1.0, 0.0), 1e-9, 1e-11)
        assert out.stop == dop853.STEP_FAILURE and ref.message == dop853.TOO_SMALL_STEP
        with pytest.raises(RuntimeError, match="step failure: Required step size"):
            _integrate_slope(fun, (0.0, 2.0), (1.0, 0.0), 1e-9, 1e-11)

    def test_first_step_underflow(self):
        # f0 / scale overflows, so h0 = 0.01 d0 / d1 is 0: SciPy divides by
        # it, tries one step at the minimum size and fails
        fun = lambda t, y: [1e300 + y[0]]  # noqa: E731
        out = dop853.solve(fun, (0.0, 1.0), [1.0], 1e-9, 1e-11)
        _assert_matches_solve_ivp(out, fun, (0.0, 1.0), [1.0], 1e-9, 1e-11)
        assert (out.stop, out.n_steps, out.n_rejected) == (dop853.STEP_FAILURE, 0, 1)

    def test_tolerance_floor(self):
        fun = lambda t, y: [-v for v in y]  # noqa: E731
        with pytest.warns(UserWarning, match="rtol"):
            out = dop853.solve(fun, (0.0, 1.0), (1.0,), 1e-17, 1e-20)
        with pytest.warns(UserWarning, match="rtol"):
            _assert_matches_solve_ivp(out, fun, (0.0, 1.0), (1.0,), 1e-17, 1e-20)

    def test_every_rhs_call_is_a_stage(self, oracle, hyperbolic_bowl_spec, busemann_warp):
        # start, first-step probe, 12 stages per tried step, 3 dense stages
        # per accepted step
        solve_radial_graph(hyperbolic_bowl_spec, r_span=(0.0, 10.0))
        solve_ideal_graph(2.0, 2, busemann_warp, r_span=(0.0, 2.0))
        assert len(oracle) == 2
        for out, _ in oracle:
            assert out.nfev == 2 + 12 * (out.n_steps + out.n_rejected) + 3 * out.n_steps


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       t0=st.floats(-5.0, 5.0), length=st.floats(0.5, 8.0), descending=st.booleans(),
       rtol=st.floats(1e-12, 1e-6), level=st.floats(-2.0, 2.0),
       tuple_rhs=st.booleans(), offset=st.just(0.0))
# a drawn system with such an offset may grow past the float range after its
# first steps, where SciPy and the port both warn, so it runs as examples
@example(n=1, seed=0, t0=0.0, length=1.0, descending=False, rtol=1e-9, level=0.5,
         tuple_rhs=False, offset=1e300)
@example(n=3, seed=1, t0=-2.0, length=3.0, descending=True, rtol=1e-11, level=-0.5,
         tuple_rhs=True, offset=-1e300)
def test_random_systems_match_solve_ivp(n, seed, t0, length, descending, rtol, level,
                                        tuple_rhs, offset):
    """On random 1-3 dimensional systems y' = M y + sin(y) b + cos(t) d +
    offset, over an ascending or a descending span, with a terminal stop
    where y_0 crosses a level and a non-terminal stop that oscillates in t,
    the times, states, RHS count, status, event roots and states and dense
    coefficients equal ``solve_ivp``'s bit for bit.  An offset of ±1e300
    overflows the scaled first derivative, so that the first step size
    underflows to 0 (the first example then fails before any step)."""
    rng = np.random.default_rng(seed)
    M = rng.uniform(-1.5, 1.5, (n, n))
    b, d, y0 = rng.uniform(-1.0, 1.0, (3, n))

    def fun(t, y):
        dy = M @ y + np.sin(y) * b + np.cos(t) * d + offset
        return tuple(dy.tolist()) if tuple_rhs else dy

    stops = (("level", lambda t, y: y[0] - (y0[0] + level), True),
             ("wave", lambda t, y: math.sin(3.0 * t) + 0.1 * y[-1], False))
    t_span = (t0, t0 - length) if descending else (t0, t0 + length)
    out = dop853.solve(fun, t_span, y0, rtol, rtol * 1e-2, stops)
    _assert_matches_solve_ivp(out, fun, t_span, y0, rtol, rtol * 1e-2, stops)
    assert out.nfev == 2 + 12 * (out.n_steps + out.n_rejected) + 3 * out.n_steps


class TestIntegrate:
    """Named stops: why a solve stopped, each name's roots, its record."""

    @staticmethod
    def _line(stops, t_span=(0.0, 10.0)):
        # y' = 1 from y(0) = 0, so every root is where y = t hits its level
        return dop853.solve(lambda t, y: (1.0,), t_span, (0.0,), 1e-9, 1e-11, stops)

    def test_stops_by_name(self):
        out = self._line([("mark", lambda t, y: y[0] - 1.0, False),
                          ("mark", lambda t, y: y[0] - 3.0, False),
                          ("stop", lambda t, y: y[0] - 2.5, True),
                          ("never", lambda t, y: y[0] + 1.0, True)])
        assert out.stop == "stop" and out.status == 1
        assert [root for root, _ in out.hits["mark"]] == pytest.approx([1.0], abs=1e-14)
        (root, state), = out.hits["stop"]
        assert root == pytest.approx(2.5, abs=1e-14) and out.t[-1] == root
        assert state == pytest.approx([2.5], abs=1e-14)
        assert out.hits["never"] == []
        assert out.record == {"n_rhs_evals": out.nfev, "n_steps": out.n_steps,
                              "status": 1}
        assert out.dense(2.0) == pytest.approx([2.0], abs=1e-14)

    def test_shared_name_stops_at_either_root(self):
        # two terminal triples under one name, met on a descending span
        out = self._line([("edge", lambda t, y: y[0] - 4.0, True),
                          ("edge", lambda t, y: y[0] + 3.0, True)], t_span=(0.0, -10.0))
        assert out.stop == "edge"
        assert [root for root, _ in out.hits["edge"]] == pytest.approx([-3.0], abs=1e-14)

    def test_end_of_span_and_step_failure(self):
        out = self._line([("mark", lambda t, y: y[0] - 1.0, False)])
        assert out.stop == dop853.END_OF_SPAN and out.t[-1] == 10.0
        assert set(out.record) == RECORD and out.record["status"] == 0
        out = dop853.solve(lambda t, y: (y[0] ** 2,), (0.0, 2.0), (1.0,), 1e-9, 1e-11)
        assert out.stop == dop853.STEP_FAILURE and out.record["status"] == -1

    def test_step_budget(self, monkeypatch):
        """A solve ends after MAX_STEPS accepted steps with the stop
        STEP_BUDGET and the bits of the first MAX_STEPS steps of the same
        solve run to its end; a solve whose span ends on its last allowed
        step ends there."""
        def solve():
            return dop853.solve(lambda t, y: (y[1], -y[0]), (0.0, 50.0), (1.0, 0.0),
                                1e-9, 1e-11)
        full = solve()
        assert full.stop == dop853.END_OF_SPAN and full.n_steps > 7
        monkeypatch.setattr(dop853, "MAX_STEPS", 7)
        out = solve()
        assert out.stop == dop853.STEP_BUDGET and out.status == -1
        assert out.n_steps == 7 and out.record["status"] == -1
        assert _same(out.t, full.t[:8]) and _same(out.y, full.y[:, :8])
        assert _same(out.F, full.F[:7])
        monkeypatch.setattr(dop853, "MAX_STEPS", full.n_steps)
        again = solve()
        assert again.stop == dop853.END_OF_SPAN and _same(again.t, full.t)

    def test_record_of_several_runs(self):
        one = self._line([])
        two = self._line([], t_span=(0.0, -5.0))
        assert dop853.run_record(one, two) == {
            "n_rhs_evals": one.nfev + two.nfev, "n_steps": one.n_steps + two.n_steps,
            "status": 0}


def _on_stop(curve, stop, edge):
    """Whether the curve's last state sits on the named stop's level."""
    r, t = curve.r[-1], curve.t[-1]
    return {"max_radius": abs(r - stop.r_max) <= 1e-8,
            "max_height": abs(abs(t) - stop.t_max) <= 1e-8,
            "axis_reached": abs(r - 1e-9) <= 1e-8,
            "domain_edge": edge is not None and abs(r - edge) <= 1e-8,
            "max_arc_length": curve.s[-1] == stop.s_max}[curve.termination]


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["bowl", "wing", "ideal"]), table=st.booleans(),
       K=st.floats(-2.0, -0.1), c=st.floats(0.2, 2.0), eps=st.floats(0.05, 2.0),
       phi0=st.floats(-1.5, 1.5), s_max=st.floats(1.0, 30.0),
       r_room=st.floats(0.5, 8.0), t_max=st.floats(0.2, 20.0))
def test_profile_stops_where_its_termination_says(hyperbolic_table_warp, family, table,
                                                  K, c, eps, phi0, s_max, r_room, t_max):
    """A profile's termination names the stop whose root ended it: the last
    state sits on that stop, no limit was passed before it, and the
    diagnostics are exactly the run record."""
    # the radius limit lies beyond the start, a wing's inner radius eps
    r_max = r_room + (eps if family == "wing" else 0.0)
    stop = TerminationPolicy(s_max=s_max, r_max=r_max, t_max=t_max)
    edge = None
    if family == "ideal":
        spec = SolitonSpec(c=c, n=2, family="ideal", warp=make_builtin_warp("busemann", K))
        curve = solve_ideal_parametric(spec, (0.0, 0.0, phi0), stop=stop)
    else:
        warp = make_builtin_warp("rotational", K)
        if table:
            warp, edge = hyperbolic_table_warp, 5.0
        spec = SolitonSpec(c=c, n=2, family=family, warp=warp,
                           epsilon=eps if family == "wing" else None)
        solve = solve_bowl if family == "bowl" else solve_wing
        curve = solve(spec, stop=stop)
    assert set(curve.diagnostics) == RECORD
    assert curve.diagnostics["status"] == (curve.termination != "max_arc_length")
    assert _on_stop(curve, stop, edge), curve.termination
    assert curve.r.max() <= min(r_max, edge or r_max) + 1e-8
    assert np.abs(curve.t).max() <= t_max + 1e-8


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(["ideal", "grim"]), n=st.sampled_from([2, 3]),
       K=st.floats(-2.0, -0.05), c=st.floats(0.5, 2.0), r_end=st.floats(0.5, 10.0))
def test_graph_stops_where_its_record_says(family, n, K, c, r_end):
    """An ideal graph stops at its blow-up exactly when its record says a
    stop ended the run, a grim graph always reaches its span, and the
    diagnostics are exactly the run record."""
    if family == "ideal":
        graph = solve_ideal_graph(c, n, make_builtin_warp("busemann", K),
                                  r_span=(0.0, r_end), **TIGHT)
        stopped = graph.diagnostics["status"] == 1
        assert graph.gradient_blowup == stopped
        if stopped:
            assert abs(graph.du[-1]) == pytest.approx(BLOWUP_SLOPE, rel=1e-6)
            assert graph.r_grid[-1] < r_end
        else:
            assert graph.r_grid[-1] == r_end
            assert np.abs(graph.du).max() < BLOWUP_SLOPE
    else:
        span = (-r_end, r_end) if n == 2 else (0.0, r_end)
        graph = solve_grim(c, n, make_builtin_warp("equidistant", K), r_span=span, **TIGHT)
        assert graph.diagnostics["status"] == 0 and not graph.gradient_blowup
        assert graph.r_grid[-1] == r_end
    assert set(graph.diagnostics) == RECORD
    assert not set(graph.diagnostics) & set(graph.meta)


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


class TestJoined:
    """``dop853.joined``: each point is evaluated on its own side of the
    meeting point, and a side with no points is never called."""

    @staticmethod
    def _pieces(calls):
        def below(t):
            calls.append(("below", np.shape(t)))
            return np.array((t, 2.0 * t))

        def above(t):
            calls.append(("above", np.shape(t)))
            return np.array((t + 10.0, 3.0 * t))
        return below, above

    def test_scalar(self):
        calls = []
        dense = dop853.joined(*self._pieces(calls), 1.0)
        assert _same(dense(0.5), [0.5, 1.0])
        assert _same(dense(np.float64(-2.0)), [-2.0, -4.0])
        # the meeting point itself belongs to the piece above
        assert _same(dense(1.0), [11.0, 3.0])
        assert calls == [("below", ()), ("below", ()), ("above", ())]

    def test_array_on_both_sides(self):
        calls = []
        below, above = self._pieces(calls)
        t = np.array([2.0, 0.25, 1.0, -3.0, 1.5])
        y = dop853.joined(below, above, 1.0)(t)
        low = t < 1.0
        want = np.empty((2, t.size))
        want[:, low], want[:, ~low] = below(t[low]), above(t[~low])
        assert _same(y, want)
        assert calls[:2] == [("below", (2,)), ("above", (3,))]

    def test_empty_array(self):
        calls = []
        y = dop853.joined(*self._pieces(calls), 1.0)(np.empty(0))
        assert y.shape == (2, 0)
        assert len(calls) == 1

    @pytest.mark.parametrize("t, side", [([0.1, -5.0, 0.9], "below"),
                                         ([1.0, 5.0, 1.5], "above")])
    def test_one_sided_array_calls_that_side_alone(self, t, side):
        calls = []
        below, above = self._pieces(calls)
        y = dop853.joined(below, above, 1.0)(t)
        assert calls == [(side, (3,))]
        assert _same(y, {"below": below, "above": above}[side](np.array(t)))

    def test_joined_solves_equal_their_own_dense_outputs(self):
        # two solves of y' = -y from t = 0, one down and one up
        down = dop853.solve(lambda t, y: [-v for v in y], (0.0, -2.0), [1.0], **TIGHT)
        up = dop853.solve(lambda t, y: [-v for v in y], (0.0, 2.0), [1.0], **TIGHT)
        dense = dop853.joined(down.dense, up.dense, 0.0)
        t = np.linspace(-2.0, 2.0, 41)
        low = t < 0.0
        assert _same(dense(t)[:, low], down.dense(t[low]))
        assert _same(dense(t)[:, ~low], up.dense(t[~low]))
        assert _same(dense(-0.5), down.dense(-0.5))
        assert _same(dense(0.0), up.dense(0.0))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       rtol=st.floats(1e-12, 1e-6), descending=st.booleans())
def test_per_component_atol_matches_solve_ivp(n, seed, rtol, descending):
    """An ``atol`` of shape (n,), its components spread over six decades
    around rtol, gives ``solve_ivp``'s solve bit for bit."""
    rng = np.random.default_rng(seed)
    M = rng.uniform(-1.5, 1.5, (n, n))
    b, y0 = rng.uniform(-1.0, 1.0, (2, n))
    atol = rtol * 10.0 ** rng.uniform(-4.0, 2.0, n)

    def fun(t, y):
        return M @ y + np.sin(y) * b

    stops = (("level", lambda t, y: y[0] - (y0[0] + 0.5), True),)
    t_span = (0.0, -6.0) if descending else (0.0, 6.0)
    out = dop853.solve(fun, t_span, y0, rtol, atol, stops)
    _assert_matches_solve_ivp(out, fun, t_span, y0, rtol, atol, stops)


@pytest.mark.parametrize("t_span, rtol, atol", [
    ((0.0, 1.0), math.nan, 1e-11), ((0.0, 1.0), math.inf, 1e-11),
    ((0.0, 1.0), 1e-9, math.nan), ((0.0, 1.0), 1e-9, math.inf),
    ((0.0, 1.0), 1e-9, np.array([1e-11, math.nan])),
    ((0.0, math.nan), 1e-9, 1e-11), ((0.0, math.inf), 1e-9, 1e-11),
    ((-math.inf, 1.0), 1e-9, 1e-11)])
def test_non_finite_tolerance_or_span_is_rejected_before_any_rhs_call(t_span, rtol, atol):
    # a NaN tolerance makes a NaN step size, which no step-size floor catches
    calls = []

    def fun(t, y):
        calls.append(t)
        return [-v for v in y]

    with pytest.raises(ValueError, match="must be finite"):
        dop853.solve(fun, t_span, (1.0, 2.0), rtol, atol)
    assert calls == []


def test_solver_with_a_nan_tolerance_names_the_tolerance(hyperbolic_bowl_spec):
    with pytest.raises(ValueError, match="`rtol` and `atol` must be finite"):
        solve_bowl(hyperbolic_bowl_spec, rtol=math.nan)
