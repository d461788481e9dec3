"""The in-package piecewise cubics against SciPy's interpolators, which
they reproduce bit for bit: coefficients, values and derivatives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicHermiteSpline, CubicSpline
from scipy.linalg.lapack import dgtsv

from soliton_forge import spline
from soliton_forge.spline import PiecewiseCubic, Tridiagonal, _dgtsv

_LOG_GAP = st.floats(-7.0, 7.0)
_VALUE = st.floats(-1e6, 1e6)


@st.composite
def _knots(draw):
    """Strictly increasing, strongly non-uniform knots: gaps over 14
    decades, the third at least four times the first two together, so the
    not-a-knot system's second row has to be interchanged with its third."""
    m = draw(st.integers(3, 40))
    gaps = np.exp(draw(st.lists(_LOG_GAP, min_size=m, max_size=m)))
    gaps[2] += 4 * (gaps[0] + gaps[1])
    start = draw(st.floats(-100.0, 100.0))
    x = start + np.concatenate(([0.0], np.cumsum(gaps)))
    return x[np.concatenate(([True], np.diff(x) > 0))]


def _queries(x, rng):
    """The knots, points 1e-9 either side of them, points on both sides
    outside the range, interior points and NaN."""
    span = x[-1] - x[0]
    return np.concatenate((x, x - 1e-9, x + 1e-9,
                           x[0] - span * rng.uniform(0, 0.5, 5),
                           x[-1] + span * rng.uniform(0, 0.5, 5),
                           rng.uniform(x[0], x[-1], 200), [math.nan]))


def _equal(a, b):
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


def _pivots(x):
    """Whether LAPACK's dgtsv interchanges rows on the not-a-knot system of
    the knots x, as CubicSpline's solve_banded call builds it: dgtsv leaves
    a nonzero second super-diagonal in dl exactly where it did."""
    dx = np.diff(x)
    upper = np.concatenate(([x[2] - x[0]], dx[:-1]))
    diag = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]))
    lower = np.concatenate((dx[1:], [x[-1] - x[-3]]))
    fill, *_, info = dgtsv(lower, diag, upper, np.ones(x.size))
    assert info == 0
    return bool(np.any(fill[:-1] != 0))


@settings(max_examples=150, deadline=None)
@given(x=_knots(), data=st.data())
def test_not_a_knot_equals_cubic_spline(x, data):
    values = np.array(data.draw(st.lists(_VALUE, min_size=x.size * 3,
                                         max_size=x.size * 3))).reshape(-1, 3)
    assert _pivots(x)
    q = _queries(x, np.random.default_rng(x.size))
    together = PiecewiseCubic.not_a_knot(x, values)
    for j in range(3):
        want = CubicSpline(x, values[:, j])
        got = PiecewiseCubic.not_a_knot(x, values[:, j])
        assert _equal(got.c, want.c)
        assert _equal(together.c[..., j], want.c)
        assert _equal(got(q), want(q))
        assert _equal(together(q)[:, j], want(q))
        assert _equal(got.derivative().c, want.derivative().c)
        assert _equal(got.derivative()(q), want.derivative()(q))
        assert _equal(got.derivative().derivative()(q),
                      want.derivative().derivative()(q))


@settings(max_examples=150, deadline=None)
@given(x=_knots(), data=st.data())
def test_hermite_equals_cubic_hermite_spline(x, data):
    y = np.array(data.draw(st.lists(_VALUE, min_size=x.size, max_size=x.size)))
    dydx = np.array(data.draw(st.lists(_VALUE, min_size=x.size, max_size=x.size)))
    q = _queries(x, np.random.default_rng(x.size))
    want = CubicHermiteSpline(x, y, dydx)
    got = PiecewiseCubic.hermite(x, y, dydx)
    assert _equal(got.c, want.c)
    assert _equal(got(q), want(q))
    assert _equal(got.derivative()(q), want.derivative()(q))
    assert _equal(got.derivative().derivative()(q),
                  want.derivative().derivative()(q))


def test_shapes_follow_ppoly():
    x = np.linspace(0.0, 3.0, 7)
    one = PiecewiseCubic.not_a_knot(x, np.sin(x))
    three = PiecewiseCubic.not_a_knot(x, np.stack((x, x * x, np.cos(x)), axis=-1))
    assert np.shape(one(1.5)) == ()
    assert float(one(1.5)) == float(CubicSpline(x, np.sin(x))(1.5))
    assert one(np.zeros((2, 5))).shape == (2, 5)
    assert three(np.zeros((2, 5))).shape == (2, 5, 3)
    assert three(0.5).shape == (3,)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 12), nrhs=st.integers(1, 3), data=st.data())
def test_dgtsv_equals_lapack(n, nrhs, data):
    """Every output of the port, the second super-diagonal left in dl
    included, equals LAPACK's on random systems, pivoting or not."""
    entry = st.floats(-1e3, 1e3).filter(lambda v: abs(v) > 1e-3)
    draw = lambda k: data.draw(st.lists(entry, min_size=k, max_size=k))
    dl, d, du = draw(n - 1), draw(n), draw(n - 1)
    b = np.array(draw(n * nrhs)).reshape(n, nrhs)
    fill, d_out, du_out, x, info = dgtsv(np.array(dl), np.array(d),
                                         np.array(du), b)
    if info:
        # an exactly singular draw: the port stops at LAPACK's zero pivot
        with pytest.raises(np.linalg.LinAlgError, match=f"info = {info}"):
            _dgtsv(dl, d, du, b.T.tolist())
        return
    cols = _dgtsv(dl, d, du, b.T.tolist())
    assert np.array_equal(np.array(cols).T, x)
    assert np.array_equal(dl, fill) and np.array_equal(d, d_out)
    assert np.array_equal(du, du_out)


@pytest.fixture(params=["lapack", "port"])
def solve_path(request, monkeypatch):
    """Each way ``Tridiagonal`` can solve: the bundled LAPACK, and the
    Python port that runs where that library or its symbol is absent."""
    if request.param == "lapack":
        if spline._bundled_dgtsv() is None:
            pytest.skip("NumPy bundles no OpenBLAS with dgtsv here")
    else:
        monkeypatch.setattr(spline, "_bundled_dgtsv", lambda: None)
    return request.param


def _system(n, nrhs, dl, d, du, b):
    system = Tridiagonal(n, nrhs)
    system.dl[...], system.d[...], system.du[...] = dl, d, du
    system.b[...] = b.T
    return system


@pytest.mark.parametrize("nrhs", [1, 3])
@pytest.mark.parametrize("pivoting", [False, True])
def test_tridiagonal_equals_lapack(solve_path, nrhs, pivoting):
    """Both solve paths give SciPy's ``dgtsv`` solution bit for bit, on a
    diagonally dominant system (no row interchange) and on one whose
    sub-diagonal outweighs the diagonal (interchanges throughout)."""
    rng = np.random.default_rng(nrhs + 2 * pivoting)
    for n in (2, 3, 17, 201):
        dl, du = rng.uniform(-1.0, 1.0, (2, n - 1))
        d = rng.uniform(0.1, 0.5, n) * rng.choice([-1.0, 1.0], n)
        if pivoting:
            dl = np.where(dl < 0, -1.0, 1.0) * (1.0 + np.abs(dl))
        else:
            d = d + 3.0 * np.sign(d)
        b = rng.normal(size=(n, nrhs))
        fill, *_, want, info = dgtsv(dl, d, du, b)
        assert info == 0
        assert bool(np.any(fill[:-1] != 0)) == (pivoting and n > 2)
        got = _system(n, nrhs, dl, d, du, b).solve()
        assert got.shape == (nrhs, n)
        assert np.array_equal(got.T, want)


#: five-row systems (dl, d, du) with LAPACK's info: a zero pivot column in
#: rows 1 and 3, where no interchange can rescue it, and a last pivot that
#: elimination brings to exactly zero
SINGULAR = [([0.0, 1.0, 1.0, 1.0], [0.0, 4.0, 4.0, 4.0, 4.0], [1.0] * 4, 1),
            ([1.0, 1.0, 0.0, 1.0], [4.0, 4.0, 0.0, 4.0, 4.0], [1.0, 0.0, 1.0, 1.0], 3),
            ([1.0, 1.0, 0.0, 1.0], [4.0, 4.0, 4.0, 1.0, 1.0], [1.0, 1.0, 0.0, 1.0], 5)]


@pytest.mark.parametrize("dl,d,du,info", SINGULAR)
def test_singular_tridiagonal_raises(solve_path, dl, d, du, info):
    """A zero pivot raises LinAlgError with LAPACK's info on both paths."""
    dl, d, du, b = map(np.array, (dl, d, du, [[1.0]] * 5))
    assert dgtsv(dl, d, du, b)[-1] == info
    with pytest.raises(np.linalg.LinAlgError, match=f"info = {info}"):
        _system(5, 1, dl, d, du, b).solve()


def test_not_a_knot_same_on_both_paths(monkeypatch):
    x = np.cumsum(np.random.default_rng(3).uniform(0.01, 2.0, 40))
    y = np.stack((np.sin(x), x ** 2, np.exp(-x)), axis=-1)
    lapack = PiecewiseCubic.not_a_knot(x, y)
    monkeypatch.setattr(spline, "_bundled_dgtsv", lambda: None)
    port = PiecewiseCubic.not_a_knot(x, y)
    assert _equal(lapack.c, port.c)
    assert _equal(lapack.c[..., 0], CubicSpline(x, y[:, 0]).c)


@pytest.mark.parametrize("x", [[0.0, 1.0], [0.0, 1.0, 2.0]])
def test_not_a_knot_needs_four_knots(x):
    with pytest.raises(ValueError, match="at least 4 knots"):
        PiecewiseCubic.not_a_knot(x, np.zeros(len(x)))


@pytest.mark.parametrize("x,y", [([0.0, 1.0, 1.0, 2.0], [0.0] * 4),
                                 ([0.0, 1.0, 2.0, math.nan], [0.0] * 4),
                                 ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, math.inf, 0.0]),
                                 ([0.0, 1.0, 2.0, 3.0], [0.0] * 3)])
def test_bad_knots_rejected(x, y):
    with pytest.raises(ValueError):
        PiecewiseCubic.not_a_knot(x, y)
    with pytest.raises(ValueError):
        PiecewiseCubic.hermite(x, y, np.zeros(len(y)))
