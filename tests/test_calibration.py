"""Tests for single-point alpha recovery and the joint intrinsics fit."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fingersense.calibration import (
    CalibrationError,
    RankDeficiencyError,
    fit_intrinsics,
    load_correspondences,
    reprojection_residuals,
    save_correspondences,
    solve_alpha,
)
from fingersense.geometry import (
    CameraIntrinsics,
    Region,
    SensorGeometry,
    SurfacePoint,
    project,
)


def sample_surface_points(n: int, geometry: SensorGeometry, rng) -> list[SurfacePoint]:
    """Random membrane points, sampled parametrically (no back-projection)."""
    points = []
    for _ in range(n):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        if rng.random() < 0.5:
            theta = rng.uniform(0.05, math.pi / 2)  # keep off the apex
            points.append(
                SurfacePoint(
                    geometry.r * math.sin(theta) * math.cos(phi),
                    geometry.r * math.sin(theta) * math.sin(phi),
                    geometry.d + geometry.r * math.cos(theta),
                    Region.TIP,
                )
            )
        else:
            z = rng.uniform(5.0, geometry.d)
            points.append(
                SurfacePoint(
                    geometry.r * math.cos(phi), geometry.r * math.sin(phi), z, Region.SIDE
                )
            )
    return points


def synthesize(n: int, k: CameraIntrinsics, geometry: SensorGeometry, rng, sigma=0.0):
    """(n, 5) correspondence rows generated with the forward projection as oracle."""
    cs = []
    for p in sample_surface_points(n, geometry, rng):
        px = project(p, k)
        u, v = px.u, px.v
        if sigma > 0:
            u += rng.normal(0.0, sigma)
            v += rng.normal(0.0, sigma)
        cs.append((u, v, p.x, p.y, p.z))
    return np.array(cs).reshape(-1, 5)


# ---------------------------------------------------------------------------
# solve_alpha


def test_solve_alpha_side_example():
    # chi = 200 = alpha * 10 / 15 -> alpha = 300.
    c = np.array([[1160.0, 540.0, 10.0, 0.0, 15.0]])
    assert solve_alpha(c, 960.0, 540.0) == pytest.approx(300.0)


def test_solve_alpha_vertical_example():
    # gamma * z / y = 100 * 15 / 5 = 300.
    c = np.array([[960.0, 640.0, 0.0, 5.0, 15.0]])
    assert solve_alpha(c, 960.0, 540.0) == pytest.approx(300.0)


def test_solve_alpha_apex_unobservable():
    c = np.array([[960.0, 540.0, 0.0, 0.0, 40.0]])
    with pytest.raises(CalibrationError):
        solve_alpha(c, 960.0, 540.0)


def test_solve_alpha_recovers_synthesized(geometry):
    rng = np.random.default_rng(21)
    for _ in range(100):
        alpha = rng.uniform(50.0, 2000.0)
        k = CameraIntrinsics(alpha=alpha, cx=960.0, cy=540.0)
        c = synthesize(1, k, geometry, rng)
        assert solve_alpha(c, k.cx, k.cy) == pytest.approx(alpha, rel=1e-9)


def test_solve_alpha_ray_scale_invariance(geometry):
    rng = np.random.default_rng(22)
    k = CameraIntrinsics()
    c = synthesize(1, k, geometry, rng)
    base = solve_alpha(c, k.cx, k.cy)
    for scale in (0.5, 2.0, 17.0):
        scaled = c * [1.0, 1.0, scale, scale, scale]
        assert solve_alpha(scaled, k.cx, k.cy) == pytest.approx(base, rel=1e-12)


# ---------------------------------------------------------------------------
# fit_intrinsics


def test_fit_recovers_noise_free_intrinsics(geometry):
    rng = np.random.default_rng(1)
    truth = CameraIntrinsics(alpha=300.0, cx=960.0, cy=540.0)
    cs = synthesize(10, truth, geometry, rng)
    initial = CameraIntrinsics(alpha=250.0, cx=900.0, cy=500.0)
    result = fit_intrinsics(cs, initial)
    assert result.intrinsics.alpha == pytest.approx(300.0, rel=1e-6)
    assert result.intrinsics.cx == pytest.approx(960.0, rel=1e-6)
    assert result.intrinsics.cy == pytest.approx(540.0, rel=1e-6)
    assert result.rms_residual < 1e-6
    assert result.intrinsics.width == initial.width


def test_fit_rms_consistent_with_per_point(geometry):
    rng = np.random.default_rng(2)
    cs = synthesize(12, CameraIntrinsics(), geometry, rng, sigma=1.0)
    result = fit_intrinsics(cs, CameraIntrinsics())
    expected = math.sqrt(
        sum(r * r for r in result.per_point_residuals) / len(result.per_point_residuals)
    )
    assert result.rms_residual == pytest.approx(expected, rel=1e-12)
    assert len(result.per_point_residuals) == 12


def test_fit_noisy_median_rms(geometry):
    # sigma = 0.5 px on 10 points: residual RMS concentrates near
    # sigma * sqrt((2n - 3) / 2n) ~ 0.46 px; the median over 100 seeds must
    # land in [0.25, 1.0].
    truth = CameraIntrinsics()
    rms = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        cs = synthesize(10, truth, geometry, rng, sigma=0.5)
        rms.append(fit_intrinsics(cs, CameraIntrinsics(250.0, 900.0, 500.0)).rms_residual)
    assert 0.25 <= float(np.median(rms)) <= 1.0


def test_fit_order_invariance(geometry):
    rng = np.random.default_rng(5)
    cs = synthesize(9, CameraIntrinsics(), geometry, rng, sigma=0.7)
    a = fit_intrinsics(cs, CameraIntrinsics())
    shuffled = cs.copy()
    rng.shuffle(shuffled)
    b = fit_intrinsics(shuffled, CameraIntrinsics())
    assert b.intrinsics.alpha == pytest.approx(a.intrinsics.alpha, rel=1e-9)
    assert b.intrinsics.cx == pytest.approx(a.intrinsics.cx, rel=1e-9)
    assert b.intrinsics.cy == pytest.approx(a.intrinsics.cy, rel=1e-9)


def test_fit_rejects_two_correspondences(geometry):
    rng = np.random.default_rng(6)
    cs = synthesize(2, CameraIntrinsics(), geometry, rng)
    with pytest.raises(RankDeficiencyError):
        fit_intrinsics(cs, CameraIntrinsics())


def test_fit_rejects_single_ray(geometry):
    # All points on one viewing ray: alpha cannot be separated from (cx, cy).
    k = CameraIntrinsics()
    pixel = project((5.0, 0.0, 10.0), k)
    cs = np.array([(pixel.u, pixel.v, 5.0 * s, 0.0, 10.0 * s) for s in (1.0, 1.2, 1.5, 2.0)])
    with pytest.raises(RankDeficiencyError, match="one viewing ray"):
        fit_intrinsics(cs, k)
    # A side point at z = 1e-300 has a ray (x / z ~ 1e301) that dwarfs every
    # other, so the rest are numerically on one ray with it.
    cs = synthesize(10, k, geometry, np.random.default_rng(7))
    cs = np.vstack([cs, (pixel.u, pixel.v, geometry.r, 0.0, 1e-300)])
    with pytest.raises(RankDeficiencyError, match="one viewing ray"):
        fit_intrinsics(cs, k)


def side_correspondences(alpha: float, cx: float, cy: float) -> np.ndarray:
    """Three side points imaged by u = alpha x / z + cx, v = alpha y / z + cy.

    Written out by hand because ``CameraIntrinsics`` refuses such a camera.
    """
    rows = []
    for phi, z in ((0.3, 5.0), (1.7, 12.0), (4.0, 25.0)):
        x, y = 10.0 * math.cos(phi), 10.0 * math.sin(phi)
        rows.append((alpha * x / z + cx, alpha * y / z + cy, x, y, z))
    return np.array(rows)


@pytest.mark.parametrize(
    "alpha, cx, cy, reason",
    [
        (1.0, -1e-9, 0.0, "principal point"),
        (1.0, 0.0, 1080.0 + 1e-6, "principal point"),
        (-1.0, 5.0, 5.0, "alpha must be positive"),
    ],
)
def test_fit_refuses_an_invalid_fitted_camera(alpha, cx, cy, reason):
    # Noise-free points of the corner camera (alpha 1, cx = cy = 0) fit a
    # principal point within rounding of the corner, on either side of it;
    # these cameras lie outside by more than rounding, so the fit always is.
    with pytest.raises(CalibrationError, match=f"^fitted camera is invalid: {reason}"):
        fit_intrinsics(side_correspondences(alpha, cx, cy), CameraIntrinsics())


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(1.0, 1e4),
    cx=st.floats(1.0, 1919.0),  # inside the frame by more than any fitted error
    cy=st.floats(1.0, 1079.0),
    n=st.integers(3, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_is_the_exact_least_squares_solution(alpha, cx, cy, n, seed):
    geometry = SensorGeometry()
    truth = CameraIntrinsics(alpha=alpha, cx=cx, cy=cy)
    rng = np.random.default_rng(seed)
    clean = fit_intrinsics(synthesize(n, truth, geometry, rng), CameraIntrinsics()).intrinsics
    assert (clean.alpha, clean.cx, clean.cy) == pytest.approx((alpha, cx, cy), rel=1e-9, abs=1e-9)

    # Noise this small keeps the fitted camera valid: alpha > 0, principal point in the frame.
    noisy = synthesize(n, truth, geometry, rng, sigma=1e-3)
    fit = fit_intrinsics(noisy, CameraIntrinsics())
    # Where the fit starts cannot matter: there is no start, only one solve.
    assert fit_intrinsics(noisy, CameraIntrinsics(alpha=1.0, cx=0.0, cy=1080.0)) == fit
    # The normal equations give the same minimiser.
    design = np.array(
        [
            row
            for _, _, x, y, z in noisy.tolist()
            for row in ((x / z, 1.0, 0.0), (y / z, 0.0, 1.0))
        ]
    )
    pixels = noisy[:, :2].ravel()
    expected = np.linalg.solve(design.T @ design, design.T @ pixels)
    got = (fit.intrinsics.alpha, fit.intrinsics.cx, fit.intrinsics.cy)
    assert got == pytest.approx(tuple(expected), rel=1e-9, abs=1e-9)


def test_correspondence_requires_positive_depth():
    cs = side_correspondences(300.0, 960.0, 540.0)
    cs[1, 4] = 0.0
    with pytest.raises(ValueError, match="z > 0"):
        fit_intrinsics(cs, CameraIntrinsics())
    with pytest.raises(ValueError, match="z > 0"):
        solve_alpha(cs, 960.0, 540.0)


@pytest.mark.parametrize(
    "cs",
    [
        np.array([[960.0, 540.0, 10.0, 0.0, 15.0]] * 3) * [1, 1, 1, 1, -1],
        np.array([[960.0, 540.0, 10.0, 0.0, 15.0]] * 3) * [1, np.nan, 1, 1, 1],
        np.array([[960.0, 540.0, 10.0, 0.0, 15.0]] * 3) * [1, 1, np.inf, 1, 1],
        np.zeros((3, 4)) + 1.0,
        np.ones(5),
        np.ones((3, 5, 1)),
    ],
    ids=["negative-z", "nan", "inf", "four-columns", "one-dimensional", "three-dimensional"],
)
def test_fit_and_solve_alpha_refuse_invalid_arrays(cs):
    # The one guard that callers bypassing the CSV loader meet, with one message.
    for call in (lambda: fit_intrinsics(cs, CameraIntrinsics()), lambda: solve_alpha(cs, 1.0, 1.0)):
        with pytest.raises(ValueError, match=r"^correspondences must be finite \(n, 5\)"):
            call()


# ---------------------------------------------------------------------------
# reprojection_residuals


def test_residuals_zero_on_exact_data(geometry):
    rng = np.random.default_rng(8)
    k = CameraIntrinsics()
    cs = synthesize(5, k, geometry, rng)
    assert reprojection_residuals(k, cs) == pytest.approx([0.0] * 5, abs=1e-9)


def test_residual_three_four_five(geometry):
    k = CameraIntrinsics()
    px = project((10.0, 0.0, 15.0), k)
    c = (px.u + 3.0, px.v + 4.0, 10.0, 0.0, 15.0)
    assert reprojection_residuals(k, [c]) == pytest.approx([5.0])


def test_residuals_empty_list():
    assert reprojection_residuals(CameraIntrinsics(), np.empty((0, 5))) == []


# ---------------------------------------------------------------------------
# CSV interface


def test_csv_round_trip(tmp_path, geometry):
    rng = np.random.default_rng(9)
    cs = synthesize(6, CameraIntrinsics(), geometry, rng, sigma=0.3)
    path = tmp_path / "corr.csv"
    save_correspondences(path, cs)
    loaded = load_correspondences(path, geometry)
    assert len(loaded) == 6
    np.testing.assert_array_equal(loaded, cs)
    assert loaded.dtype == np.float64 and not loaded.flags.writeable


def test_csv_round_trip_numpy_scalars(tmp_path, geometry):
    # Values stored as NumPy scalars must be written as plain decimals that
    # read back to the same doubles.
    rng = np.random.default_rng(10)
    cs = [
        [np.float64(value) for value in row]
        for row in synthesize(5, CameraIntrinsics(), geometry, rng, sigma=0.3).tolist()
    ]
    path = tmp_path / "corr.csv"
    save_correspondences(path, cs)
    assert "np.float64" not in path.read_text()
    loaded = load_correspondences(path, geometry)
    np.testing.assert_array_equal(loaded, cs)


def test_csv_rejects_header_only_file(tmp_path, geometry):
    path = tmp_path / "empty.csv"
    path.write_text("u,v,x,y,z\n\n")
    with pytest.raises(ValueError, match=f"^{path}: no correspondences$"):
        load_correspondences(path, geometry)


def test_csv_rejects_non_finite_field(tmp_path, geometry):
    path = tmp_path / "bad.csv"
    path.write_text("u,v,x,y,z\n1160,540,10,0,15\nnan,540,10,0,15\n")
    with pytest.raises(ValueError, match=":3: non-finite"):
        load_correspondences(path, geometry)


def test_csv_rejects_wrong_header(tmp_path, geometry):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c,d,e\n1,2,3,4,5\n")
    with pytest.raises(ValueError, match="header"):
        load_correspondences(path, geometry)


def test_csv_reports_malformed_row_line_number(tmp_path, geometry):
    path = tmp_path / "bad.csv"
    path.write_text("u,v,x,y,z\n1160,540,10,0,15\n1160,540,ten,0,15\n")
    with pytest.raises(ValueError, match=":3"):
        load_correspondences(path, geometry)


def test_csv_rejects_off_surface_point(tmp_path, geometry):
    path = tmp_path / "bad.csv"
    path.write_text("u,v,x,y,z\n960,540,1,2,3\n")
    with pytest.raises(ValueError, match=":2"):
        load_correspondences(path, geometry)


def test_csv_reports_first_bad_line(tmp_path, geometry):
    # Line 3 is off the membrane and line 5 is not a number: line 3 is reported.
    path = tmp_path / "bad.csv"
    path.write_text("u,v,x,y,z\n1160,540,10,0,15\n960,540,1,2,3\n1160,540,10,0,15\n1,x,10,0,15\n")
    message = f"{path}:3: point (1.0, 2.0, 3.0) is not on the membrane"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_correspondences(path, geometry)


def _membrane_point(side: bool, phi: float, t: float) -> tuple[float, float, float]:
    """A side point at height t * d, or a tip point at polar angle t * pi / 2."""
    r, d = SensorGeometry().r, SensorGeometry().d
    if side:
        return r * math.cos(phi), r * math.sin(phi), d * t
    theta = t * math.pi / 2
    rho = r * math.sin(theta)
    return rho * math.cos(phi), rho * math.sin(phi), d + r * math.cos(theta)


csv_fields = st.tuples(
    st.floats(-1e4, 1e4, allow_nan=False), st.sampled_from(("{!r}", "{:.17e}", " {:.17g} "))
).map(lambda p: p[1].format(p[0]))
membrane_points = st.tuples(st.booleans(), st.floats(0.0, 2 * math.pi), st.floats(0.01, 1.0)).map(
    lambda p: _membrane_point(*p)
)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.tuples(csv_fields, csv_fields, membrane_points, st.integers(0, 2)),
        min_size=1,
        max_size=20,
    ),
    newline=st.sampled_from(("\n", "\r\n")),
)
def test_csv_rows_are_the_fields_in_file_order(tmp_path_factory, rows, newline):
    lines, expected = ["u,v,x,y,z"], []
    for u, v, point, blanks in rows:
        fields = [u, v, *map(repr, point)]
        lines += [",".join(fields)] + [""] * blanks
        expected.append([float(field) for field in fields])
    path = tmp_path_factory.mktemp("csv") / "corr.csv"
    path.write_bytes((newline.join(lines) + newline).encode())
    loaded = load_correspondences(path, SensorGeometry())
    assert loaded.shape == (len(rows), 5)
    assert loaded.tolist() == expected
