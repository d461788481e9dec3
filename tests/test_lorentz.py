"""Hyperboloid model points, translation isometries, and invariants."""

import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soliton_forge import (
    LorentzMap, LorentzPoint, embed_polar, form_defect,
    hyperbolic_translation, parabolic_translation, transform_points,
)
from soliton_forge.fileio import export_points_csv

COSH_1 = 1.5430806348152437
SINH_1 = 1.1752011936438014

ORIGIN3 = LorentzPoint([1.0, 0.0, 0.0, 0.0])


def _origin(n):
    return LorentzPoint([1.0] + [0.0] * n)


def _form(p, q) -> float:
    """The Lorentz form <p, q>_L = -p0 q0 + sum_i pi qi."""
    return float(-p[0] * q[0] + np.dot(p[1:], q[1:]))


class TestPoints:
    def test_embed_polar_values(self):
        p = embed_polar(1.0, [1.0, 0.0])
        assert p.array == pytest.approx([COSH_1, SINH_1, 0.0], abs=1e-15)
        assert len(p.coords) == 3

    def test_distance_to_origin(self):
        # <p, o>_L = -cosh d(p, o)
        for r in (0.3, 1.0, 2.5):
            p = embed_polar(r, [0.0, 1.0])
            assert _form(p.array, _origin(2).array) == pytest.approx(
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
        product = LorentzMap(t.array @ s.array)
        assert np.max(np.abs(product.array - np.eye(4))) < 1e-14

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
        lhs = LorentzMap(parabolic_translation(a, 2).array
                         @ parabolic_translation(b, 2).array)
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
        # 120 factors drift from the form by round-off only, well inside the
        # map check's tolerance, with no renormalization
        maps = [hyperbolic_translation(0.3, 2), parabolic_translation(0.2, 2),
                hyperbolic_translation(-0.5, 2)]
        total = LorentzMap(reduce(np.matmul, [m.array for m in maps * 40]))
        scale = np.max(np.abs(total.array)) ** 2
        assert form_defect(total.array) < 1e-12 * scale

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


class TestTransformPoints:
    def test_length_mismatch(self, tmp_path):
        # heights ride along beside the points in the file, one per row
        moved = transform_points(hyperbolic_translation(0.5, 2), [_origin(2)] * 2)
        for heights in ([1.0], [1.0, 2.0, 3.0]):
            with pytest.raises(ValueError, match=f"{len(heights)} heights for 2 points"):
                export_points_csv(moved, tmp_path / "pts.csv", heights=heights)

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

    def test_far_rows_checked_without_overflow(self):
        # x0 ~ 1.1e156: x0^2 overflows, the row scaled by 1/x0 does not
        far = embed_polar(20.0, [1.0, 0.0])
        boost = hyperbolic_translation(-340.0, 2)
        with np.errstate(over="raise", invalid="raise"):
            moved = transform_points(boost, np.array([far.coords]))
        assert moved[0, 0] == pytest.approx(math.cosh(360.0), rel=1e-12)
        # the same test: off the sheet by 1e-9 relative to x0^2 still fails
        bad = moved.copy()
        bad[0, 1] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match="off the hyperboloid.*row 0"):
            transform_points(parabolic_translation(0.7, 2), bad)

    @pytest.mark.parametrize("bad", [[math.inf, 0.0, 0.0], [1.0, -math.inf, 0.0],
                                     [math.inf, math.inf, 0.0]])
    def test_infinite_row_rejected_as_overflowed(self, bad):
        rows = np.array([[1.0, 0.0, 0.0], bad])
        with pytest.raises(ValueError, match=r"overflowed to inf \(row 1\)"):
            transform_points(parabolic_translation(0.7, 2), rows)
        with pytest.raises(ValueError, match="overflowed"):
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
@given(case=_point_rows(), as_array=st.booleans())
def test_transform_points_equals_apply(case, as_array):
    lmap, points = case
    expected = np.array([lmap.apply(p).coords for p in points])
    given_points = np.array([p.coords for p in points]) if as_array else points
    moved = transform_points(lmap, given_points)
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
    t = LorentzMap(hyperbolic_translation(r0, 2).array
                   @ parabolic_translation(alpha, 2).array)
    before = _form(p.array, q.array)
    after = _form(t.apply(p).array, t.apply(q).array)
    assert after == pytest.approx(before, rel=1e-11, abs=1e-11)
