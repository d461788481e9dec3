"""Warp model construction, validation, and curvature identities."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from soliton_forge import (
    CurvatureBounds, WarpModel, make_builtin_warp, radial_curvature,
    validate_warp, warp_from_json,
)
from soliton_forge.warp_models import CHARTS, KINDS, default_validation_grid

COTH_1 = 1.3130352854993312  # cosh(1)/sinh(1)
TANH_1 = 0.7615941559557649
SINH_2 = 3.626860407847019


def constant_curvature_ratio(K: float, r):
    """xi'/xi for the simply connected space form of curvature K <= 0: the
    oracle for xi_ratio."""
    r = np.asarray(r, dtype=float)
    if K > 0:
        raise ValueError("only non-positive curvature comparison is supported")
    if K == 0.0:
        return 1.0 / r
    k = math.sqrt(-K)
    return k / np.tanh(k * r)


def _riccati_residual(model, r) -> float:
    """max |g' - 1 - K g^2| with g = xi/xi', g' = 1 - xi xi''/xi'^2 and
    K = -xi''/xi: zero to round-off when the derivative evaluators are
    analytically consistent."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    xi, dxi, ddxi = model.xi(r), model.dxi(r), model.ddxi(r)
    g, gp, K = xi / dxi, 1.0 - xi * ddxi / dxi**2, -ddxi / xi
    return float(np.max(np.abs(gp - 1.0 - K * g**2)))


class TestBuiltins:
    def test_euclidean_is_identity_warp(self, euclidean_warp):
        r = np.array([0.5, 1.0, 7.0])
        assert np.allclose(euclidean_warp.xi(r), r)
        assert np.allclose(euclidean_warp.dxi(r), 1.0)
        assert np.allclose(euclidean_warp.ddxi(r), 0.0)

    def test_hyperbolic_values(self, hyperbolic_warp):
        assert float(hyperbolic_warp.xi(2.0)) == pytest.approx(SINH_2, abs=1e-12)
        assert float(hyperbolic_warp.dxi(0.0)) == pytest.approx(1.0)

    def test_scaled_hyperbolic(self):
        warp = make_builtin_warp("rotational", -4.0)
        # xi = sinh(2 r) / 2
        assert float(warp.xi(1.0)) == pytest.approx(SINH_2 / 2, abs=1e-12)

    def test_equidistant_h_factor_is_tanh(self, equidistant_warp):
        ratio = float(equidistant_warp.dxi(1.0) / equidistant_warp.xi(1.0))
        assert ratio == pytest.approx(TANH_1, abs=1e-12)

    def test_positive_curvature_rejected(self):
        with pytest.raises(ValueError):
            make_builtin_warp("rotational", 1.0)

    @pytest.mark.parametrize("kind", ["rotational", "busemann", "equidistant"])
    @pytest.mark.parametrize("K", [math.nan, math.inf, -math.inf])
    def test_non_finite_curvature_rejected(self, kind, K):
        # NaN passes every sign test, and K = -inf gives k = inf
        with pytest.raises(ValueError, match=f"curvature K must be finite, got {K}"):
            make_builtin_warp(kind, K)

    @pytest.mark.parametrize("kind", ["busemann", "equidistant"])
    def test_flat_rejected_outside_polar(self, kind):
        with pytest.raises(ValueError):
            make_builtin_warp(kind, 0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_builtin_warp("spherical", -1.0)

    @pytest.mark.parametrize("kind", ["rotational", "busemann", "equidistant"])
    def test_chi_ratio_on_the_equidistant_kind_alone(self, kind):
        """chi'/chi is the equidistant chart's alone: a model without it on
        that kind, or with it on another, is refused when it is built."""
        fields = {field: getattr(make_builtin_warp(kind, -1.0), field)
                  for field in ("xi", "dxi", "ddxi", "r_domain")}
        chi_ratio, state = (None, "unset") if kind == "equidistant" else (lambda r: 1.0 / r, "set")
        with pytest.raises(ValueError, match=f"got kind '{kind}' with chi_ratio {state}"):
            WarpModel(kind=kind, chi_ratio=chi_ratio, **fields)

    @pytest.mark.parametrize("kind,chart", [("rotational", "polar"),
                                            ("busemann", "busemann"),
                                            ("equidistant", "equidistant")])
    def test_chart_follows_kind(self, kind, chart):
        assert set(CHARTS) == set(KINDS)
        assert make_builtin_warp(kind, -1.0).chart == chart


class TestValidation:
    def test_euclidean_clean(self, euclidean_warp):
        assert validate_warp(euclidean_warp, np.linspace(0.1, 10, 100)) == []

    def test_builtin_grids_clean(self):
        for kind, curv in [("rotational", 0.0), ("rotational", -1.0),
                           ("busemann", -1.0), ("equidistant", -0.25)]:
            model = make_builtin_warp(kind, curv)
            assert validate_warp(model, default_validation_grid(model)) == []

    def test_sine_warp_flagged(self):
        bad = WarpModel(
            kind="rotational",
            xi=lambda r: np.sin(np.asarray(r, dtype=float)),
            dxi=lambda r: np.cos(np.asarray(r, dtype=float)),
            ddxi=lambda r: -np.sin(np.asarray(r, dtype=float)),
            r_domain=(0.0, math.inf), label="sine", xi3_zero=-1.0)
        violations = validate_warp(bad, np.array([0.5, 4.0]))
        assert any(v.r == 4.0 and v.condition == "xi > 0" for v in violations)

    @pytest.mark.parametrize("kind,expected", [
        ("rotational", [("xi(0) = 0", 0.0), ("xi'(0) = 1", 0.0),
                        ("xi > 0", 1.0), ("xi > 0", 2.0), ("xi' > 0", 0.25),
                        ("xi' > 0", 1.0), ("xi' > 0", 2.0), ("K <= 0", 0.25)]),
        ("equidistant", [("xi(0) = 1", 0.0), ("xi'(0) = 0", 0.0),
                         ("xi > 0", 1.0), ("xi > 0", 2.0), ("K <= 0", 0.25)]),
        ("busemann", [("xi > 0", 1.0), ("xi > 0", 2.0), ("K <= 0", 0.25)]),
    ])
    def test_violation_order_per_kind(self, kind, expected):
        # xi = 1/2 - r^2 with inconsistent derivatives breaks every
        # condition of every kind somewhere on this grid
        bad = WarpModel(
            kind=kind,
            xi=lambda r: 0.5 - np.asarray(r, dtype=float) ** 2,
            dxi=lambda r: 0.5 - 2 * np.asarray(r, dtype=float),
            ddxi=lambda r: np.full_like(np.asarray(r, dtype=float), -2.0),
            chi_ratio=(lambda r: 1.0 / np.asarray(r, dtype=float))
            if kind == "equidistant" else None,
            r_domain=(-math.inf, math.inf), label="bad")
        violations = validate_warp(bad, np.array([0.25, 1.0, 2.0]))
        assert [(v.condition, v.r) for v in violations] == expected

    def test_validation_is_pure(self, hyperbolic_warp):
        grid = np.linspace(0.1, 5, 50)
        assert validate_warp(hyperbolic_warp, grid) == \
            validate_warp(hyperbolic_warp, grid)


class TestCurvature:
    def test_euclidean_flat(self, euclidean_warp):
        assert radial_curvature(euclidean_warp, 3.7) == pytest.approx(0.0)

    def test_hyperbolic_minus_one(self, hyperbolic_warp):
        assert radial_curvature(hyperbolic_warp, 1.0) == pytest.approx(-1.0,
                                                                       abs=1e-12)

    def test_busemann_minus_one(self, busemann_warp):
        assert radial_curvature(busemann_warp, 3.0) == pytest.approx(-1.0,
                                                                     abs=1e-12)

    @pytest.mark.parametrize("kind,curv", [
        ("rotational", 0.0), ("rotational", -1.0), ("rotational", -2.5),
        ("busemann", -1.0), ("equidistant", -1.0),
    ])
    def test_riccati_residual_roundoff(self, kind, curv):
        model = make_builtin_warp(kind, curv)
        if kind == "rotational":
            grid = np.geomspace(1e-2, 50.0, 64)
        else:
            grid = np.linspace(-10, 10, 64)
            grid = grid[np.abs(grid) > 1e-6]
        res = [float(_riccati_residual(model, float(r))) for r in grid]
        assert max(res) < 1e-10

    @pytest.mark.parametrize("kind,curv", [
        ("rotational", 0.0), ("rotational", -1.0), ("busemann", -1.0),
        ("equidistant", -0.5),
    ])
    def test_array_matches_scalar_calls(self, kind, curv):
        model = make_builtin_warp(kind, curv)
        grid = np.linspace(0.0 if kind == "rotational" else -8.0, 8.0, 97)
        got = radial_curvature(model, grid)
        assert got.shape == grid.shape
        np.testing.assert_array_equal(
            got, [radial_curvature(model, float(r)) for r in grid])

    def test_array_rejects_points_outside_domain(self, hyperbolic_warp):
        with pytest.raises(ValueError):
            radial_curvature(hyperbolic_warp, np.array([1.0, -0.5]))

    def test_hessian_comparison_sandwich(self):
        # interpolate between curvature -4 and -1 with a warp whose
        # curvature varies: xi = sinh(r) * cosh(r) = sinh(2r)/2 has
        # K = -4 exactly, so use a genuine blend via a table model;
        # here it suffices to verify the constant-curvature ratio
        # brackets the hyperbolic model itself.
        model = make_builtin_warp("rotational", -2.0)
        bounds = CurvatureBounds(K_minus=-2.0, K_plus=-2.0)
        for r in [0.3, 1.0, 4.0]:
            ratio = float(model.dxi(r) / model.xi(r))
            hi = constant_curvature_ratio(bounds.K_minus, r)
            lo = constant_curvature_ratio(bounds.K_plus, r)
            assert lo - 1e-12 <= ratio <= hi + 1e-12

    def test_constant_curvature_ratio_flat_limit(self):
        assert constant_curvature_ratio(0.0, 2.0) == pytest.approx(0.5)
        assert constant_curvature_ratio(-1.0, 2.0) == pytest.approx(
            math.cosh(2) / math.sinh(2))


class TestLevelMeanCurvature:
    """The drift is (n-1) times the mean curvature of the level {r = const}."""

    def test_euclidean(self, euclidean_warp):
        assert euclidean_warp.drift(2.0, 3) == pytest.approx(1.0)

    def test_equidistant_n2(self, equidistant_warp):
        assert equidistant_warp.drift(1.0, 2) == pytest.approx(TANH_1, abs=1e-12)

    def test_equidistant_n3_adds_coth(self, equidistant_warp):
        got = equidistant_warp.drift(1.0, 3)
        assert got == pytest.approx(TANH_1 + COTH_1, abs=1e-12)

    def test_busemann_constant(self, busemann_warp):
        assert busemann_warp.drift(-5.0, 4) == pytest.approx(3.0)

    def test_axis_singular(self, euclidean_warp):
        with pytest.raises(ZeroDivisionError, match="axis"):
            euclidean_warp.drift(0.0, 2)


class TestSeriesGuard:
    def test_axis_ratio_series_euclidean(self, euclidean_warp):
        r = 1e-5
        assert euclidean_warp.xi_ratio(r) == pytest.approx(1.0 / r, rel=1e-12)

    def test_axis_ratio_series_hyperbolic(self, hyperbolic_warp):
        r = 5e-4
        exact = math.cosh(r) / math.sinh(r)
        assert hyperbolic_warp.xi_ratio(r) == pytest.approx(exact, rel=1e-9)

    def test_axis_itself_raises(self, hyperbolic_warp):
        with pytest.raises(ZeroDivisionError):
            hyperbolic_warp.xi_ratio(0.0)

    def test_table_warp_axis_raises(self, hyperbolic_table_warp):
        model = hyperbolic_table_warp
        for form in (0.0, np.float64(0.0), np.array(0.0), np.array([0.0, 1.0])):
            with pytest.raises(ZeroDivisionError):
                model.xi_ratio(form)
        with pytest.raises(ZeroDivisionError):
            model.drift(np.array([1.0, 0.0]), 2)

    @pytest.mark.parametrize("K", [0.0, -0.25, -1.0, -4.0])
    def test_near_axis_ulps(self, K):
        """Both paths of the quotient stay within 8 ulps of k/tanh(k r)
        down to r = 1e-8."""
        model = make_builtin_warp("rotational", K)
        r = np.geomspace(1e-8, 1e-3, 2000)
        exact = constant_curvature_ratio(K, r)
        for got in (model.xi_ratio(r), [model.xi_ratio(float(x)) for x in r]):
            ulps = np.abs(np.asarray(got) - exact) / np.spacing(exact)
            assert ulps.max() <= 8, (K, ulps.max())


class TestJsonWarp:
    def test_table_roundtrip(self, tmp_path, hyperbolic_warp):
        r = np.linspace(0.05, 8.0, 400)
        payload = {
            "kind": "rotational",
            "interpolation": "cubic-hermite",
            "table": [{"r": float(x),
                       "xi": float(hyperbolic_warp.xi(x)),
                       "dxi": float(hyperbolic_warp.dxi(x)),
                       "ddxi": float(hyperbolic_warp.ddxi(x))} for x in r],
        }
        path = tmp_path / "warp.json"
        path.write_text(json.dumps(payload))
        model = warp_from_json(path)
        assert float(model.xi(2.0)) == pytest.approx(SINH_2, rel=1e-8)
        assert radial_curvature(model, 2.0) == pytest.approx(-1.0, abs=1e-5)

    @staticmethod
    def _table(xi, dxi, ddxi, r=np.linspace(0.0, 5.0, 51)):
        return {"kind": "rotational", "label": "probe",
                "table": [{"r": float(x), "xi": float(xi(x)), "dxi": float(dxi(x)),
                           "ddxi": float(ddxi(x))} for x in r]}

    def test_positive_curvature_table_rejected(self):
        # xi = sin r: K = +1 everywhere, and xi, xi' change sign on [0, 5]
        table = self._table(np.sin, np.cos, lambda x: -np.sin(x))
        with pytest.raises(ValueError, match=r"'probe' breaks xi > 0.*xi' > 0.*K <= 0"):
            warp_from_json(table)

    def test_axis_slope_table_rejected(self):
        table = self._table(lambda x: 2 * np.sinh(x), lambda x: 2 * np.cosh(x),
                            lambda x: 2 * np.sinh(x))
        with pytest.raises(ValueError, match=r"xi'\(0\) = 1, failing 1 of the checks, "
                                             r"first at r = 0 \(value 2\)"):
            warp_from_json(table)

    def test_table_short_of_the_axis_is_not_extrapolated_to_it(self, hyperbolic_warp):
        # the Hermite cubic extrapolated to r = 0 misses xi(0) = 0 by 2e-8
        model = warp_from_json(self._table(np.sinh, np.cosh, np.sinh,
                                           r=np.linspace(0.05, 8.0, 400)))
        assert validate_warp(model) == []
        assert not model.in_domain(0.0)


@settings(max_examples=50, deadline=None)
@given(r=st.floats(min_value=0.01, max_value=50.0),
       k=st.floats(min_value=0.1, max_value=3.0))
def test_riccati_property_hyperbolic(r, k):
    model = make_builtin_warp("rotational", -k * k)
    assert _riccati_residual(model, r) < 1e-9


BUILTINS = [("rotational", 0.0), ("rotational", -1.0), ("rotational", -2.5),
            ("busemann", -1.0), ("equidistant", -1.0), ("equidistant", -0.3)]


def _drift_reference(model, r, n, curv):
    """Chart Laplacian written out as quotients, with no closed form: dxi/xi
    of the model, and on the equidistant chart chi'/chi = cosh(k r) /
    (sinh(k r) / k) from the case's own k = sqrt(-K)."""
    if n == 1:
        return np.zeros_like(r)
    ratio = model.dxi(r) / model.xi(r)
    if model.kind == "equidistant":
        k = math.sqrt(-curv)
        return ratio + (n - 2) * np.cosh(k * r) / (np.sinh(k * r) / k) if n > 2 else ratio
    return (n - 1) * ratio


#: how far the closed-form drift may lie from the quotient of xi and chi, in
#: ulps of the quotient; both forms are a few ulps off, and 4e5 radii in
#: (1e-7, 40] of each built-in case gave at most 5
QUOTIENT_ULPS = 8


def _assert_near_quotient(got, reference):
    """``got`` within QUOTIENT_ULPS of ``reference`` wherever that is finite."""
    got, reference = np.asarray(got, dtype=float), np.asarray(reference, dtype=float)
    finite = np.isfinite(reference)
    ulps = np.abs(got[finite] - reference[finite]) / np.spacing(np.abs(reference[finite]))
    assert ulps.max(initial=0.0) <= QUOTIENT_ULPS, ulps.max()


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(BUILTINS), n=st.integers(min_value=1, max_value=4),
       mags=arrays(np.float64, st.integers(1, 16),
                   elements=st.floats(min_value=1e-7, max_value=40.0)),
       signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=16, max_size=16))
def test_drift_property(case, n, mags, signs):
    kind, curv = case
    model = make_builtin_warp(kind, curv)
    # rotational radii stay on the positive side of the axis
    r = mags if kind == "rotational" else mags * np.array(signs[:mags.size])
    got = model.drift(r, n)
    assert isinstance(got, np.ndarray) and got.shape == r.shape
    per_point = [model.drift(float(x), n) for x in r]
    assert all(isinstance(v, float) for v in per_point)
    np.testing.assert_array_equal(got, per_point)
    _assert_near_quotient(got, _drift_reference(model, r, n, curv))


class TestDrift:
    def test_equidistant_n3_is_tanh_plus_coth(self, equidistant_warp):
        assert equidistant_warp.drift(1.0, 3) == pytest.approx(
            TANH_1 + COTH_1, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 4])
    def test_equidistant_core_line_raises(self, equidistant_warp, n):
        """For n >= 3 the equidistant drift is singular on the core line
        r = 0, where chi = 0, and raises there as on a rotational axis, on
        every path; it used to return inf with a divide-by-zero warning."""
        model = equidistant_warp
        for call in (lambda: model.drift(0.0, n), lambda: model.drift(np.float64(0.0), n),
                     lambda: model.drift(np.array([1.0, 0.0]), n),
                     lambda: model.scalar_drift(n)(0.0)):
            with pytest.raises(ZeroDivisionError, match="core line"):
                call()
        assert model.drift(0.0, 2) == 0.0 == model.scalar_drift(2)(0.0)

    def test_n1_is_zero(self, hyperbolic_warp):
        assert hyperbolic_warp.drift(2.0, 1) == 0.0
        np.testing.assert_array_equal(
            hyperbolic_warp.drift(np.array([0.5, 1.0]), 1), [0.0, 0.0])

    def test_near_axis_is_the_closed_form(self, hyperbolic_warp):
        """Near the axis, as everywhere, the drift is (n-1) times the one
        closed form, with no series branch, within QUOTIENT_ULPS of the
        plain quotient."""
        r = np.array([5e-4, 2.0])
        np.testing.assert_array_equal(
            hyperbolic_warp.drift(r, 3), 2 * hyperbolic_warp.xi_ratio(r))
        w = hyperbolic_warp
        assert w.drift(5e-4, 3) == 2 * (1.0 / np.tanh(5e-4))
        _assert_near_quotient(w.drift(5e-4, 3), 2 * (w.dxi(5e-4) / w.xi(5e-4)))


EVALUATORS = ("xi", "dxi", "ddxi", "ratio", "chi_ratio")


def _same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(BUILTINS),
       mags=arrays(np.float64, st.integers(1, 12),
                   elements=st.one_of(
                       st.floats(min_value=1e-7, max_value=1e-3, exclude_max=True),
                       st.floats(min_value=1e-3, max_value=40.0))),
       signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=12, max_size=12))
def test_scalar_path_property(case, mags, signs):
    """A Python float, an np.float64 and a 0-d array each give the bits of
    the array call, near-axis radii (r < 1e-3) included."""
    kind, curv = case
    model = make_builtin_warp(kind, curv)
    r = mags if kind == "rotational" else mags * np.array(signs[:mags.size])
    calls = {name: getattr(model, name) for name in EVALUATORS
             if getattr(model, name) is not None}
    calls["xi_ratio"], calls["g"] = model.xi_ratio, model.g
    for n in range(1, 5):
        calls[f"drift_{n}"] = lambda x, n=n: model.drift(x, n)
    for name, fn in calls.items():
        whole = fn(r)
        assert isinstance(whole, np.ndarray) and whole.shape == r.shape, name
        for x, expected in zip(r, whole):
            for form in (float(x), np.float64(x), np.array(x)):
                got = fn(form)
                assert _same_bits(got, expected), (name, form)
                if name in ("xi_ratio", "g") or name.startswith("drift"):
                    assert type(got) is float, (name, type(form))


OVERFLOW_RADII = [("rotational", -1.0, 720.0), ("busemann", -1.0, 720.0),
                  ("busemann", -1.0, -760.0), ("equidistant", -1.0, 720.0),
                  ("equidistant", -1.0, -720.0), ("rotational", -1.0, 1e300),
                  ("busemann", -1.0, -1e300), ("equidistant", -1.0, -1e300)]


def _far_ratio(kind, r):
    """xi'/xi at K = -1 far from r = 0: k = 1, with r's sign on the
    equidistant chart, where it is tanh(r)."""
    return math.copysign(1.0, r) if kind == "equidistant" else 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOverflow:
    """Past about |r| = 710 at K = -1 cosh and exp overflow, and the quotient
    dxi/xi would be inf/inf or 0/0; the closed-form ratio is finite there,
    with no RuntimeWarning, and its float path gives the array path's bits.
    The test names recall the ValueError these radii once raised."""

    @pytest.mark.parametrize("kind,curv,r", OVERFLOW_RADII)
    def test_scalar_raises(self, kind, curv, r):
        model = make_builtin_warp(kind, curv)
        whole = model.xi_ratio(np.array([r]))
        for form in (r, np.float64(r), np.array(r)):
            got = model.xi_ratio(form)
            assert type(got) is float and got == _far_ratio(kind, r), form
            assert _same_bits(got, whole[0])

    @pytest.mark.parametrize("kind,curv,r", OVERFLOW_RADII)
    def test_array_with_one_overflow_radius(self, kind, curv, r):
        model = make_builtin_warp(kind, curv)
        got = model.xi_ratio(np.array([1.0, r, 2.0]))
        assert np.isfinite(got).all() and got[1] == _far_ratio(kind, r)
        assert _same_bits(got, [model.xi_ratio(x) for x in (1.0, r, 2.0)])

    @pytest.mark.parametrize("kind,curv,r", OVERFLOW_RADII)
    def test_g_and_drift_raise(self, kind, curv, r):
        model = make_builtin_warp(kind, curv)
        for call in (model.g, lambda x: model.drift(x, 3)):
            got = call(r)
            assert math.isfinite(got)
            assert _same_bits(got, call(np.array([r]))[0])


def test_ratio_finite_below_overflow():
    assert make_builtin_warp("rotational", -1.0).xi_ratio(700.0) == 1.0
    assert make_builtin_warp("busemann", -1.0).xi_ratio(-700.0) == 1.0
    assert make_builtin_warp("equidistant", -1.0).xi_ratio(-700.0) == -1.0


#: the warps whose float path the solvers' right-hand sides call, by name
FLOAT_PATH_WARPS = ("rotational", "busemann", "equidistant", "table")


def _float_path_warp(name, table_warp):
    return table_warp if name == "table" else make_builtin_warp(name, -1.0)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(FLOAT_PATH_WARPS),
       radii=st.lists(st.floats(min_value=1e-6, max_value=5.0), min_size=1, max_size=8),
       negate=st.booleans())
def test_float_paths_give_array_bits(hyperbolic_table_warp, name, radii, negate):
    """``xi_ratio`` and ``drift`` (n = 1, 2, 3) on a Python float and on an
    np.float64 return a float with the bits of the array path, on the three
    built-in kinds and a table warp."""
    model = _float_path_warp(name, hyperbolic_table_warp)
    r = np.array(radii)
    if negate and model.kind != "rotational":
        r = -r
    calls = {"xi_ratio": model.xi_ratio}
    for n in (1, 2, 3):
        calls[f"drift_{n}"] = lambda x, n=n: model.drift(x, n)
    for label, fn in calls.items():
        whole = fn(r)
        for x, expected in zip(r.tolist(), whole.tolist()):
            for form in (x, np.float64(x)):
                got = fn(form)
                assert type(got) is float, (label, type(form))
                assert _same_bits(got, expected), (label, form)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", FLOAT_PATH_WARPS)
def test_float_path_errors(hyperbolic_table_warp, name):
    """The float path raises where the array path does: ZeroDivisionError
    on a rotational axis, ValueError on a NaN quotient.  Past the float
    range of cosh and exp (r = 720, -760, 1e300) a built-in warp raises
    nothing: the float path gives the array path's finite bits there."""
    model = _float_path_warp(name, hyperbolic_table_warp)
    calls = [model.xi_ratio, lambda x: model.drift(x, 2), lambda x: model.drift(x, 3)]
    bad = [(math.nan, ValueError, "NaN")]
    if model.kind == "rotational":
        bad.append((0.0, ZeroDivisionError, "axis"))
    for r, error, match in bad:
        for fn in calls:
            for form in (r, np.float64(r), np.array([1.0, r])):
                with pytest.raises(error, match=match):
                    fn(form)
    if name == "table":
        return
    for r in (720.0, 1e300) if model.kind == "rotational" else (720.0, -760.0, 1e300):
        for fn in calls:
            whole = fn(np.array([1.0, r]))
            for form in (r, np.float64(r)):
                got = fn(form)
                assert type(got) is float and math.isfinite(got)
                assert _same_bits(got, whole[1]), (form, fn)


#: (kind, K) of every built-in kind at K < 0, the flat rotational warp, and
#: the K = -1 rotational table warp
BOUND_DRIFT_CASES = st.one_of(
    st.tuples(st.sampled_from(KINDS), st.floats(min_value=-3.0, max_value=-0.05)),
    st.just(("rotational", 0.0)), st.just(("table", -1.0)))


def _bound_drift_warp(case, table_warp):
    kind, curv = case
    return table_warp if kind == "table" else make_builtin_warp(kind, curv)


@settings(max_examples=120, deadline=None)
@given(case=BOUND_DRIFT_CASES, n=st.integers(min_value=1, max_value=5),
       r=st.floats(min_value=1e-6, max_value=5.0), negate=st.booleans())
def test_scalar_drift_property(hyperbolic_table_warp, case, n, r, negate):
    """The bound drift ``scalar_drift(n)`` returns a float with the bits of
    ``drift(np.array([r]), n)[0]`` on every built-in kind, at K < 0 and
    K = 0, and on a table warp, for n = 1 to 5."""
    model = _bound_drift_warp(case, hyperbolic_table_warp)
    if negate and model.kind != "rotational":
        r = -r
    got = model.scalar_drift(n)(r)
    assert type(got) is float
    assert _same_bits(got, model.drift(np.array([r]), n)[0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(case=BOUND_DRIFT_CASES, n=st.integers(min_value=2, max_value=5))
def test_scalar_drift_errors(hyperbolic_table_warp, case, n):
    """The bound drift raises where ``drift`` does, with its message:
    ZeroDivisionError on a rotational axis or an n >= 3 equidistant core
    line, ValueError on a NaN xi'/xi;
    for n = 1 both return 0 there.  Where cosh and exp overflow, a built-in
    warp's bound drift is finite, with the bits of ``drift``."""
    model = _bound_drift_warp(case, hyperbolic_table_warp)
    bad = [math.nan]
    if model.kind == "rotational" or (model.kind == "equidistant" and n >= 3):
        bad.append(0.0)
    for r in bad:
        with pytest.raises((ZeroDivisionError, ValueError)) as want:
            model.drift(np.array([r]), n)
        with pytest.raises(want.type, match=re.escape(str(want.value))):
            model.scalar_drift(n)(r)
        assert model.scalar_drift(1)(r) == 0.0 == model.drift(np.array([r]), 1)[0]
    if case[0] != "table" and case[1] < 0:
        # past the float range of cosh and exp the closed form stays finite
        r = 720.0 / math.sqrt(-case[1])
        got = model.scalar_drift(n)(r)
        assert math.isfinite(got)
        assert _same_bits(got, model.drift(np.array([r]), n)[0])


@settings(max_examples=80, deadline=None)
@given(case=BOUND_DRIFT_CASES,
       radii=st.lists(st.floats(min_value=1e-6, max_value=5.0), min_size=1, max_size=8),
       negate=st.booleans())
def test_xi_ratio_is_the_n2_drift(hyperbolic_table_warp, case, radii, negate):
    """``xi_ratio(x)`` has the type and bits of ``drift(x, 2)`` on a Python
    float, an np.float64, a 0-d array and a 1-d array, on every built-in
    kind at K < 0 and K = 0 and on a table warp."""
    model = _bound_drift_warp(case, hyperbolic_table_warp)
    r = np.array(radii)
    if negate and model.kind != "rotational":
        r = -r
    forms = [r] + [form for x in r.tolist() for form in (x, np.float64(x), np.array(x))]
    for form in forms:
        got, want = model.xi_ratio(form), model.drift(form, 2)
        assert type(got) is type(want), type(form)
        assert _same_bits(got, want), form


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(case=BOUND_DRIFT_CASES)
def test_xi_ratio_raises_the_n2_drift_errors(hyperbolic_table_warp, case):
    """``xi_ratio`` raises where ``drift(., 2)`` does, with its error and
    message, on a float, an np.float64, a 0-d array and a 1-d array; where
    cosh and exp overflow, a built-in warp's ``xi_ratio`` has the finite type
    and bits of ``drift(., 2)`` there."""
    model = _bound_drift_warp(case, hyperbolic_table_warp)
    bad = [math.nan]
    if model.kind == "rotational":
        bad.append(0.0)
    for r in bad:
        for form in (r, np.float64(r), np.array(r), np.array([1.0, r])):
            with pytest.raises((ZeroDivisionError, ValueError)) as want:
                model.drift(form, 2)
            with pytest.raises(want.type, match=re.escape(str(want.value))):
                model.xi_ratio(form)
    if case[0] != "table" and case[1] < 0:
        r = 720.0 / math.sqrt(-case[1])
        for form in (r, np.float64(r), np.array(r), np.array([1.0, r])):
            got, want = model.xi_ratio(form), model.drift(form, 2)
            assert type(got) is type(want) and np.isfinite(got).all(), type(form)
            assert _same_bits(got, want), form


@settings(max_examples=80, deadline=None)
@given(curv=st.floats(min_value=-4.0, max_value=-1e-3),
       radii=st.lists(st.one_of(st.floats(min_value=0.0, max_value=40.0),
                                st.floats(min_value=40.0, max_value=1e300)),
                      min_size=1, max_size=8))
def test_equidistant_n2_drift_is_odd(curv, radii):
    """The n = 2 equidistant drift k tanh(k r) is odd in r bit for bit, on
    the float, bound and array paths: ``solve_grim`` mirrors a symmetric
    graph on it."""
    model = make_builtin_warp("equidistant", curv)
    r = np.array(radii)
    assert _same_bits(model.drift(-r, 2), -model.drift(r, 2))
    bound = model.scalar_drift(2)
    for x in radii:
        assert _same_bits(model.drift(-x, 2), -model.drift(x, 2))
        assert _same_bits(bound(-x), -bound(x))
