"""Hyperboloid model points, translation isometries, and invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soliton_forge import (
    LorentzMap, LorentzPoint, compose, embed_polar, equidistant_point,
    form_defect, hyperbolic_translation, lorentz_product,
    parabolic_translation, transform_points,
)

COSH_1 = 1.5430806348152437
SINH_1 = 1.1752011936438014

ORIGIN3 = LorentzPoint([1.0, 0.0, 0.0, 0.0])


def _origin(n):
    return LorentzPoint([1.0] + [0.0] * n)


class TestPoints:
    def test_embed_polar_values(self):
        p = embed_polar(1.0, [1.0, 0.0])
        assert p.array == pytest.approx([COSH_1, SINH_1, 0.0], abs=1e-15)
        assert p.dim == 2

    def test_distance_to_origin(self):
        # <p, o>_L = -cosh d(p, o)
        for r in (0.3, 1.0, 2.5):
            p = embed_polar(r, [0.0, 1.0])
            assert lorentz_product(p.array, _origin(2).array) == pytest.approx(
                -math.cosh(r), rel=1e-14)

    def test_off_sheet_rejected(self):
        with pytest.raises(ValueError):
            LorentzPoint([1.0, 0.5, 0.0])
        with pytest.raises(ValueError):
            LorentzPoint([-1.0, 0.0, 0.0])

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError):
            embed_polar(1.0, [1.0, 1.0])


class TestHyperbolicTranslation:
    def test_sends_marked_point_to_origin(self):
        t = hyperbolic_translation(1.0, 2)
        image = t.apply(embed_polar(1.0, [1.0, 0.0]))
        assert np.max(np.abs(image.array - _origin(2).array)) < 1e-15

    def test_origin_image(self):
        t = hyperbolic_translation(1.0, 2)
        image = t.apply(_origin(2))
        assert image.array == pytest.approx([COSH_1, -SINH_1, 0.0], abs=1e-15)

    def test_inverse_composes_to_identity(self):
        t = hyperbolic_translation(0.7, 3)
        s = hyperbolic_translation(-0.7, 3)
        assert np.max(np.abs(compose(t, s).array - np.eye(4))) < 1e-14

    def test_form_preserved(self):
        assert form_defect(hyperbolic_translation(2.0, 4).array) < 1e-13

    @pytest.mark.parametrize("r0", [400.0, -400.0, 800.0, math.inf, math.nan])
    def test_boost_too_far_rejected(self, r0):
        # cosh overflows past |r0| ~ 710; the form check past ~ 345
        with pytest.raises(ValueError, match="overflows|finite entries"):
            hyperbolic_translation(r0, 2)

    def test_boost_needs_one_dimension(self):
        with pytest.raises(ValueError, match="n >= 1"):
            hyperbolic_translation(1.0, 0)


class TestParabolicTranslation:
    def test_zero_is_identity(self):
        assert np.array_equal(parabolic_translation(0.0, 2).array, np.eye(3))

    def test_group_law(self):
        a, b = 0.4, -1.1
        lhs = compose(parabolic_translation(a, 2), parabolic_translation(b, 2))
        rhs = parabolic_translation(a + b, 2)
        assert np.max(np.abs(lhs.array - rhs.array)) < 1e-14

    def test_horosphere_levels_preserved(self, rng):
        t = parabolic_translation(0.8, 3)
        for _ in range(50):
            omega = rng.normal(size=3)
            omega /= np.linalg.norm(omega)
            p = embed_polar(rng.uniform(0, 3), omega)
            q = t.apply(p)
            level = p.coords[0] + p.coords[1]
            assert q.coords[0] + q.coords[1] == pytest.approx(level, rel=1e-12)

    def test_needs_two_dimensions(self):
        with pytest.raises(ValueError):
            parabolic_translation(1.0, 1)


class TestComposition:
    def test_long_product_stays_lorentz(self):
        maps = [hyperbolic_translation(0.3, 2), parabolic_translation(0.2, 2),
                hyperbolic_translation(-0.5, 2)]
        total = compose(*(maps * 40))
        scale = np.max(np.abs(total.array)) ** 2
        assert form_defect(total.array) < 1e-12 * scale

    def test_empty_composition_rejected(self):
        with pytest.raises(ValueError):
            compose()

    def test_malformed_matrix_rejected(self):
        with pytest.raises(ValueError):
            LorentzMap(np.diag([1.0, 2.0, 1.0]))

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf, 1e200])
    def test_non_finite_or_huge_matrix_rejected(self, entry):
        # NaN fails every comparison of the form check, and entries past
        # 1e150 overflow it, so these are rejected before it runs
        mat = np.full((3, 3), entry) if math.isnan(entry) else np.eye(3)
        mat[0, 0] = entry
        with pytest.raises(ValueError, match="finite entries below"):
            LorentzMap(mat)


class TestSphereToHorosphereLimit:
    def test_geometric_convergence(self):
        # translated spheres through the origin flatten onto the
        # horosphere level x0 + x1 = 1 at rate ~ exp(-2 r0)
        devs = []
        for r0 in (2.0, 4.0, 6.0):
            t = hyperbolic_translation(r0, 2)
            theta = math.asin(min(1.0, 1.0 / math.sinh(r0)))
            p = embed_polar(r0, [math.cos(theta), math.sin(theta)])
            q = t.apply(p)
            devs.append(abs(q.coords[0] + q.coords[1] - 1.0))
        assert devs[1] < 0.05 * devs[0]
        assert devs[2] < 0.05 * devs[1]


class TestEquidistant:
    def test_on_hyperboloid(self):
        for r in (-1.5, 0.0, 2.0):
            for tau in (-2.0, 0.4):
                p = equidistant_point(r, tau)
                assert abs(lorentz_product(p.array, p.array) + 1.0) < 1e-12

    def test_signed_distance_coordinate(self):
        # x1 = sinh r is the defining level of the equidistant surface
        p = equidistant_point(1.0, 0.7)
        assert p.coords[1] == pytest.approx(SINH_1, abs=1e-15)

    def test_core_plane_at_zero(self):
        p = equidistant_point(0.0, 1.3)
        assert p.coords[1] == 0.0

    def test_higher_dimension_theta(self):
        p = equidistant_point(0.5, 0.2, theta=[0.6, 0.8], n=3)
        assert abs(lorentz_product(p.array, p.array) + 1.0) < 1e-12
        assert p.coords[1] == pytest.approx(math.sinh(0.5) * 0.6)
        assert p.coords[3] == pytest.approx(math.sinh(0.5) * 0.8)

    def test_non_unit_theta_rejected(self):
        with pytest.raises(ValueError):
            equidistant_point(1.0, 0.0, theta=[2.0], n=2)


class TestTransformPoints:
    def test_heights_ride_along(self):
        t = hyperbolic_translation(0.5, 2)
        pts = [embed_polar(r, [1.0, 0.0]) for r in (0.0, 1.0)]
        moved, heights = transform_points(t, pts, heights=[10.0, 20.0])
        assert heights.tolist() == [10.0, 20.0]
        assert moved.shape == (2, 3)
        assert [LorentzPoint(q) for q in moved] == [t.apply(p) for p in pts]

    def test_length_mismatch(self):
        t = hyperbolic_translation(0.5, 2)
        with pytest.raises(ValueError):
            transform_points(t, [_origin(2)], heights=[1.0, 2.0])
        with pytest.raises(ValueError, match="3 heights for 2 points"):
            transform_points(t, np.array([[1.0, 0.0, 0.0]] * 2),
                             heights=[1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad, match", [
        ([1.0, 0.5, 0.0], "off the hyperboloid"),
        ([-1.0, 0.0, 0.0], "lower sheet"),
        ([math.nan, 0.0, 0.0], "off the hyperboloid"),
    ], ids=["off-sheet", "lower-sheet", "nan"])
    def test_bad_row_rejected(self, bad, match):
        # the bad row sits behind a good one, as row 1 of an array
        rows = np.array([[1.0, 0.0, 0.0], bad])
        with pytest.raises(ValueError, match=rf"{match}.*row 1"):
            transform_points(parabolic_translation(0.7, 2), rows)
        with pytest.raises(ValueError, match=match):
            LorentzPoint(bad)

    @pytest.mark.parametrize("shape", [(3,), (2, 1), (1, 2, 3)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="at least 2 coordinates"):
            transform_points(hyperbolic_translation(0.5, 2), np.ones(shape))


@st.composite
def _point_rows(draw):
    """A map of H^n, n in {2, 3, 4}, and 1..20 hyperboloid rows of R^{n,1}."""
    n = draw(st.sampled_from((2, 3, 4)))
    param = draw(st.floats(min_value=-2.0, max_value=2.0))
    make = draw(st.sampled_from((hyperbolic_translation, parabolic_translation)))
    size = draw(st.integers(min_value=1, max_value=20))
    radii = draw(st.lists(st.floats(min_value=0.0, max_value=3.0),
                          min_size=size, max_size=size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    omegas = rng.normal(size=(size, n))
    omegas /= np.linalg.norm(omegas, axis=1)[:, None]
    points = [embed_polar(r, w) for r, w in zip(radii, omegas)]
    return make(param, n), points


@settings(max_examples=80, deadline=None)
@given(case=_point_rows(), as_array=st.booleans(), with_heights=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_transform_points_equals_apply(case, as_array, with_heights, seed):
    lmap, points = case
    expected = np.array([lmap.apply(p).coords for p in points])
    given_points = np.array([p.coords for p in points]) if as_array else points
    if not with_heights:
        moved = transform_points(lmap, given_points)
    else:
        heights = np.random.default_rng(seed).normal(size=len(points))
        moved, carried = transform_points(lmap, given_points, heights=heights)
        assert carried.tobytes() == heights.tobytes()
    assert moved.shape == expected.shape
    assert moved.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(r1=st.floats(min_value=0.0, max_value=3.0),
       r2=st.floats(min_value=0.0, max_value=3.0),
       ang1=st.floats(min_value=0.0, max_value=2 * math.pi),
       ang2=st.floats(min_value=0.0, max_value=2 * math.pi),
       r0=st.floats(min_value=-2.0, max_value=2.0),
       alpha=st.floats(min_value=-1.5, max_value=1.5))
def test_pairwise_products_invariant(r1, r2, ang1, ang2, r0, alpha):
    p = embed_polar(r1, [math.cos(ang1), math.sin(ang1)])
    q = embed_polar(r2, [math.cos(ang2), math.sin(ang2)])
    t = compose(hyperbolic_translation(r0, 2), parabolic_translation(alpha, 2))
    before = lorentz_product(p.array, q.array)
    after = lorentz_product(t.apply(p).array, t.apply(q).array)
    assert after == pytest.approx(before, rel=1e-11, abs=1e-11)
