"""Form fitting and baseline subtraction, with a nonlinear refinement oracle."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import least_squares

from bacdetect.calibration import (
    CalibrationError,
    calibrate_stage,
    fit_sphere,
    subtract_baseline,
)
from bacdetect.roughness import compute_sa
from bacdetect.surface_io import HeightMatrix, StageRecord
from conftest import sphere_cap

RADIUS_UM = 1688.0
DX_UM, DY_UM = 0.359, 0.369  # the instrument's pixel pitch


def random_sphere_points(rng, n, center, radius, noise=0.0):
    """Points on the upper cap of a sphere, optionally with iid noise."""
    phi = rng.uniform(0, 2 * np.pi, n)
    costh = rng.uniform(0.95, 1.0, n)  # small cap, like a real scan
    sinth = np.sqrt(1 - costh**2)
    pts = center + radius * np.column_stack(
        [sinth * np.cos(phi), sinth * np.sin(phi), costh])
    return pts + noise * rng.standard_normal(pts.shape)


def refine_sphere(points, guess):
    """Geometric (orthogonal-distance) sphere fit, the independent oracle."""

    def residuals(params):
        c, r = params[:3], params[3]
        return np.linalg.norm(points - c, axis=1) - r

    sol = least_squares(residuals, guess, method="lm")
    return sol.x[:3], sol.x[3]


class TestFitSphere:
    def test_exact_recovery(self, rng):
        center = np.array([1.0, 2.0, 3.0])
        pts = random_sphere_points(rng, 1000, center, RADIUS_UM)
        fit = fit_sphere(pts)
        assert np.linalg.norm(np.array(fit.center) - center) / RADIUS_UM <= 1e-9
        assert abs(fit.radius - RADIUS_UM) / RADIUS_UM <= 1e-9
        assert fit.rms_residual <= 1e-9 * RADIUS_UM

    def test_coplanar_points_rejected(self, rng):
        # coplanar points fit their plane (a = 0, infinite radius); points
        # on one circle lie on a whole pencil of spheres and are rejected
        xy = rng.standard_normal((50, 2))
        fit = fit_sphere(np.column_stack([xy, np.full(50, 2.0)]))
        assert fit.radius > 1e9
        assert fit.rms_residual <= 1e-12
        # a level plane has b along z alone: its center is (nan, nan, +-inf)
        assert np.isnan(fit.center[:2]).all() and np.isinf(fit.center[2])
        t = rng.uniform(0, 2 * np.pi, 50)
        u = np.array([1.0, 0.0, 0.25]) / np.hypot(1.0, 0.25)
        v = np.array([0.0, 1.0, 0.0])
        circle = np.array([3.0, 1.0, 7.0]) + 2.0 * (
            np.cos(t)[:, None] * u + np.sin(t)[:, None] * v)
        with pytest.raises(CalibrationError, match="cocircular"):
            fit_sphere(circle)

    def test_collinear_points_rejected(self, rng):
        s = rng.standard_normal(50)
        with pytest.raises(CalibrationError, match="collinear"):
            fit_sphere(np.column_stack([1 + s, 2 - 3 * s, 4 + 0.5 * s]))

    def test_too_few_points(self):
        with pytest.raises(CalibrationError):
            fit_sphere(np.zeros((3, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_named(self, rng, value):
        pts = random_sphere_points(rng, 50, np.zeros(3), RADIUS_UM)
        pts[[17, 30], 1] = value
        with pytest.raises(CalibrationError, match="row 17 "):
            fit_sphere(pts)

    def test_wrong_shape_named(self):
        with pytest.raises(CalibrationError, match=r"shape \(5, 2\)"):
            fit_sphere(np.ones((5, 2)))

    def test_noisy_recovery_vs_nonlinear_oracle(self, rng):
        center = np.array([10.0, -5.0, 40.0])
        pts = random_sphere_points(rng, 100_000, center, RADIUS_UM, noise=0.01)
        fit = fit_sphere(pts)
        assert abs(fit.radius - RADIUS_UM) / RADIUS_UM <= 1e-4
        c_ref, r_ref = refine_sphere(pts, np.append(fit.center, fit.radius))
        assert abs(fit.radius - r_ref) / RADIUS_UM <= 1e-5
        assert np.linalg.norm(np.array(fit.center) - c_ref) / RADIUS_UM <= 1e-5


def _assert_same_surface(matrix, cloud):
    """The matrix fit's origin, scale and coefficients are the cloud fit's."""
    # c and -c are one surface, and eig may return either; c is compared
    # as a vector, as its entry e (about 2e-3 on a shallow cap) carries the
    # absolute error of the whole solve, some ulps of the unit-sized bz
    sign = np.sign(matrix.coef @ cloud.coef)
    gap = np.linalg.norm(sign * matrix.coef - cloud.coef)
    assert gap <= 1e-12 * np.linalg.norm(cloud.coef)
    np.testing.assert_allclose(matrix.origin, cloud.origin, rtol=1e-12, atol=0)
    assert matrix.scale == pytest.approx(cloud.scale, rel=1e-12, abs=0)


class TestMatrixFit:
    """A ``HeightMatrix`` is fitted from sums over its pixel grid."""

    def test_agrees_with_its_point_cloud(self, rng):
        scan, _ = _textured_scan(rng, 25_000.0)  # 480 x 640
        scan.z[28, 17] = scan.z[34, 600] = scan.z[-1, 5] = np.nan
        scan.z.flat[rng.choice(scan.z.size, 20, replace=False)] = np.nan
        matrix, cloud = fit_sphere(scan), fit_sphere(scan.point_cloud())
        _assert_same_surface(matrix, cloud)
        assert matrix.rms_residual == pytest.approx(cloud.rms_residual, rel=1e-12, abs=0)

    @pytest.mark.parametrize("case", ["nan_at_edges", "nan_row", "no_nan",
                                      "tilted_flat", "from_below", "offset"])
    def test_agrees_with_its_point_cloud_on(self, rng, case):
        scan, _ = _textured_scan(rng, np.inf if case == "tilted_flat" else RADIUS_UM)
        z = scan.z
        if case == "nan_at_edges":  # first and last row and column, corners
            z[0, 7] = z[-1, 100] = z[40, 0] = z[77, -1] = z[0, 0] = z[-1, -1] = np.nan
        elif case == "nan_row":
            z[50] = np.nan
        elif case == "from_below":
            z *= -1.0
        elif case == "offset":
            z += 1e5
        matrix, cloud = fit_sphere(scan), fit_sphere(scan.point_cloud())
        _assert_same_surface(matrix, cloud)
        assert matrix.rms_residual == pytest.approx(cloud.rms_residual, rel=1e-12, abs=0)
        if case == "tilted_flat":
            assert matrix.radius > 1e6

    def test_two_by_two(self):
        # four pixels lie on one sphere, so both residuals are rounding noise
        scan = HeightMatrix(z=np.array([[0.0, 0.3], [0.2, 0.7]]), dx=1.0, dy=1.0)
        matrix, cloud = fit_sphere(scan), fit_sphere(scan.point_cloud())
        _assert_same_surface(matrix, cloud)
        assert max(matrix.rms_residual, cloud.rms_residual) <= 1e-12 * cloud.scale

    def test_one_row_is_vertical(self, rng):
        row = HeightMatrix(z=rng.standard_normal((1, 30)), dx=DX_UM, dy=DY_UM)
        fit = fit_sphere(row)
        assert fit.coef[3] == 0.0
        with pytest.raises(CalibrationError, match="no height"):
            subtract_baseline(row, fit)

    def test_too_few_finite_pixels(self):
        z = np.array([[1.0, 2.0, np.nan], [3.0, np.nan, np.nan]])
        with pytest.raises(CalibrationError, match="at least 4"):
            fit_sphere(HeightMatrix(z=z))


class TestSubtractBaseline:
    def _cap(self, texture=None):
        return sphere_cap(40, 50, 0.359, 0.369, (9.0, 7.5, 100.0), RADIUS_UM,
                          texture=texture)

    def test_self_subtraction_is_zero(self):
        cap = self._cap()
        fit = fit_sphere(cap.point_cloud())
        out = subtract_baseline(cap, fit)
        assert np.max(np.abs(out.z)) <= 1e-9

    def test_shift_invariance(self):
        cap = self._cap()
        fit = fit_sphere(cap.point_cloud())
        shifted = HeightMatrix(z=cap.z + 0.37, dx=cap.dx, dy=cap.dy)
        out = subtract_baseline(shifted, fit)
        assert np.allclose(out.z, 0.37, atol=1e-9)

    def test_sinusoidal_texture_recovered(self):
        xx, yy = np.meshgrid(np.arange(50) * 0.359, np.arange(40) * 0.369)
        texture = 0.05 * np.sin(2 * np.pi * xx / 3.0)
        clean = self._cap()
        fit = fit_sphere(clean.point_cloud())  # the true baseline fit
        out = subtract_baseline(self._cap(texture=texture), fit)
        assert np.max(np.abs(out.z - texture)) <= 1e-9

    def test_upper_branch_selected_automatically(self):
        cap = self._cap()
        flipped = HeightMatrix(z=-cap.z, dx=cap.dx, dy=cap.dy)
        fit = fit_sphere(flipped.point_cloud())
        out = subtract_baseline(flipped, fit)
        assert np.max(np.abs(out.z)) <= 1e-6

    def test_pixel_outside_cap_reported(self, rng):
        cap = self._cap()
        center = np.array([9.0, 7.5, 100.0])
        tiny = fit_sphere(random_sphere_points(rng, 200, center, 1.0))
        assert tiny.radius == pytest.approx(1.0)
        with pytest.raises(CalibrationError, match="outside"):
            subtract_baseline(cap, tiny)

    def test_vertical_plane_has_no_height(self, rng):
        # a one-row scan is fitted by the vertical plane through its row
        row = HeightMatrix(z=rng.standard_normal((1, 30)), dx=DX_UM, dy=DY_UM)
        fit = fit_sphere(row.point_cloud())
        assert fit.coef[3] == 0.0
        with pytest.raises(CalibrationError, match="no height"):
            subtract_baseline(row, fit)


class TestPlaneBypass:
    def test_plane_fit_and_subtract(self, rng):
        # a plane is the a -> 0 limit of the one fit, removed exactly
        xx, yy = np.meshgrid(np.arange(30) * DX_UM, np.arange(20) * DY_UM)
        z = 1.0 + 0.02 * xx - 0.03 * yy
        m = HeightMatrix(z=z, dx=DX_UM, dy=DY_UM)
        out = subtract_baseline(m, fit_sphere(m.point_cloud()))
        assert np.max(np.abs(out.z)) <= 1e-10

    def test_degenerate_plane(self):
        pts = np.tile([1.0, 1.0, 1.0], (10, 1))
        with pytest.raises(CalibrationError, match="identical"):
            fit_sphere(pts)


def _textured_scan(rng, radius, sigma=0.05, rows=480, cols=640):
    """A full-size scan of a cap (or a tilted flat, radius=inf) with iid texture."""
    texture = sigma * rng.standard_normal((rows, cols))
    if np.isinf(radius):
        xx, yy = np.meshgrid(np.arange(cols) * DX_UM, np.arange(rows) * DY_UM)
        z = 1700.0 + 0.02 * xx - 0.03 * yy + texture
        scan = HeightMatrix(z=z, dx=DX_UM, dy=DY_UM)
    else:
        center = (cols * DX_UM / 2 + 3.0, rows * DY_UM / 2 - 2.0, radius + 1700.0)
        scan = sphere_cap(rows, cols, DX_UM, DY_UM, center, radius, texture=texture)
    return scan, compute_sa(HeightMatrix(z=texture))


class TestFormRecovery:
    @pytest.mark.parametrize("source", ["matrix", "cloud"])
    @pytest.mark.parametrize("radius", [25_000.0, 6_350.0, RADIUS_UM])
    def test_rough_cap_radius_and_sa(self, rng, radius, source):
        # the Kasa fit returned R = 19.2 mm and +14% Sa on the shallow cap
        scan, sa_true = _textured_scan(rng, radius)
        fit = fit_sphere(scan if source == "matrix" else scan.point_cloud())
        assert abs(fit.radius - radius) / radius <= 0.005
        out = subtract_baseline(scan, fit)
        assert abs(compute_sa(out) - sa_true) / sa_true <= 0.01


class TestCalibrateStage:
    def test_synthetic_caps_centered(self, rng):
        locs = []
        for i in range(9):
            noise = 0.02 * rng.standard_normal((40, 50))
            cap = sphere_cap(40, 50, 0.359, 0.369, (9.0, 7.5, 100.0 + i),
                             RADIUS_UM, texture=noise)
            cap.location_id = f"loc{i}"
            locs.append(cap)
        rec = StageRecord(stage_id="s", locations=locs)
        out = calibrate_stage(rec)
        assert len(out.locations) == 9
        for m in out.locations:
            assert abs(m.z.mean()) < 0.02  # within the noise scale

    def test_flat_bypass(self, rng):
        # a tilted flat needs no flag: the one fit finds the plane
        scans = [_textured_scan(rng, np.inf) for _ in range(2)]
        locs = [replace(scan, location_id=str(i)) for i, (scan, _) in enumerate(scans)]
        rec = StageRecord(stage_id="s", locations=locs)
        out = calibrate_stage(rec)
        for m, (_, sa_true) in zip(out.locations, scans):
            assert abs(compute_sa(m) - sa_true) / sa_true <= 0.01

    def test_calibrates_its_record_in_place(self, rng):
        locs = [sphere_cap(40, 50, 0.359, 0.369, (9.0, 7.5, 100.0 + i), RADIUS_UM,
                           texture=0.02 * rng.standard_normal((40, 50)))
                for i in range(3)]
        for i, m in enumerate(locs):
            m.location_id, m.dropped_count = f"loc{i}", i
        rec = StageRecord(stage_id="s", locations=list(locs))
        raw = [m.z for m in locs]
        copies = [replace(m, z=m.z.copy()) for m in locs]
        expected = [subtract_baseline(c, fit_sphere(c)).z for c in copies]
        out = calibrate_stage(rec)
        assert out is rec
        assert all(a is b for a, b in zip(out.locations, locs))
        for i, (m, z_raw, z_cal) in enumerate(zip(out.locations, raw, expected)):
            assert m.z is not z_raw
            np.testing.assert_array_equal(m.z, z_cal)
            assert m.dropped_count == i

    def test_empty_stage(self):
        with pytest.raises(CalibrationError):
            calibrate_stage(SimpleNamespace(locations=[]))
