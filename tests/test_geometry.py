"""Tests for the membrane model and the pixel <-> surface mapping."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fingersense.geometry import (
    CameraIntrinsics,
    ContactPose,
    PixelCoord,
    Region,
    SensorGeometry,
    SurfacePoint,
    back_project,
    back_project_pixels,
    classify_surface_point,
    discontinuity_circle_radius_px,
    pose_to_contact_point,
    project_points,
    surface_normal,
)
from oracle import project


def surface_residual(p, g: SensorGeometry) -> float:
    """Distance-equation residual of the region's own surface, in mm^2."""
    if p.region is Region.TIP:
        return abs(p.x**2 + p.y**2 + (p.z - g.d) ** 2 - g.r**2)
    return abs(p.x**2 + p.y**2 - g.r**2)


# ---------------------------------------------------------------------------
# classify_surface_point


def test_classify_side_point(geometry):
    assert classify_surface_point((10.0, 0.0, 15.0), geometry) is Region.SIDE


def test_classify_tip_point(geometry):
    # Apex: spherical residual sqrt(0 + 0 + (40-30)^2) = 10 = r, z > d.
    assert classify_surface_point((0.0, 0.0, 40.0), geometry) is Region.TIP


def test_classify_off_point(geometry):
    assert classify_surface_point((0.0, 0.0, 41.0), geometry) is Region.OFF
    assert classify_surface_point((0.0, 0.0, 0.0), geometry) is Region.OFF


def test_classify_seam_prefers_side(geometry):
    # (10, 0, 30) satisfies both surface equations; the tie-break is SIDE.
    assert classify_surface_point((10.0, 0.0, 30.0), geometry) is Region.SIDE


def test_classify_respects_tolerance(geometry):
    # SURFACE_TOL_MM is 1e-6: half of it off the side is on, twice it is off.
    assert classify_surface_point((10.0 + 5e-7, 0.0, 15.0), geometry) is Region.SIDE
    assert classify_surface_point((10.0 + 2e-6, 0.0, 15.0), geometry) is Region.OFF
    with pytest.raises(ValueError, match=re.escape("is not on the membrane (tol=1e-06 mm)")):
        surface_normal(SurfacePoint(10.0 + 2e-6, 0.0, 15.0, Region.SIDE), geometry)


# ---------------------------------------------------------------------------
# project


def test_project_known_side_point(intrinsics):
    # u = 300 * 10 / 15 + 960 = 1160, v = 300 * 0 / 15 + 540 = 540.
    px = project((10.0, 0.0, 15.0), intrinsics)
    assert px.u == pytest.approx(1160.0)
    assert px.v == pytest.approx(540.0)


def test_project_apex_hits_principal_point(intrinsics):
    px = project((0.0, 0.0, 40.0), intrinsics)
    assert (px.u, px.v) == (960.0, 540.0)


def test_project_rejects_nonpositive_depth(intrinsics):
    with pytest.raises(ValueError):
        project((1.0, 1.0, 0.0), intrinsics)
    with pytest.raises(ValueError):
        project((1.0, 1.0, -5.0), intrinsics)


def test_project_points_is_project_on_each_point(intrinsics):
    x, y, z = np.array([[10.0, 0.0, 15.0], [0.0, 0.0, 40.0], [-3.0, 7.0, 0.5], [1e-3, 2.0, 31.7]]).T
    u, v = project_points(x, y, z, intrinsics)
    each = [project(point, intrinsics) for point in zip(x, y, z)]
    assert list(zip(u.tolist(), v.tolist())) == [(px.u, px.v) for px in each]  # bit for bit
    # An array is refused as a whole, naming its first point behind the camera.
    with pytest.raises(ValueError, match=re.escape("z=-5.0 <= 0")):
        project_points(x, y, np.array([1.0, -5.0, 0.0, 2.0]), intrinsics)


# ---------------------------------------------------------------------------
# back_project


def test_back_project_known_side_pixel(intrinsics, geometry):
    # chi = 200, omega = 40000 >= (10*300/30)^2 = 10000 -> side,
    # z = 10 * 300 / 200 = 15, x = 200/300 * 15 = 10.
    p = back_project(PixelCoord(1160.0, 540.0), intrinsics, geometry)
    assert p.region is Region.SIDE
    np.testing.assert_allclose([p.x, p.y, p.z], [10.0, 0.0, 15.0], atol=1e-12)


def test_back_project_principal_point_is_apex(intrinsics, geometry):
    p = back_project(PixelCoord(960.0, 540.0), intrinsics, geometry)
    assert p.region is Region.TIP
    assert (p.x, p.y, p.z) == (0.0, 0.0, 40.0)


def test_back_project_seam_pixel(intrinsics, geometry):
    # chi = 100 puts omega exactly on the discontinuity circle; the side
    # formula gives z = 3000/100 = 30 and the tip quadratic
    # z^2 - 54 z + 720 = 0 has roots 30 and 24: both branches meet at z = d.
    p = back_project(PixelCoord(1060.0, 540.0), intrinsics, geometry)
    assert p.region is Region.SIDE
    np.testing.assert_allclose([p.x, p.y, p.z], [10.0, 0.0, 30.0], atol=1e-9)


def test_back_project_corner_pixel_lands_on_side(intrinsics, geometry):
    # omega = 960^2 + 540^2 = 1213200, z = 3000 / sqrt(1213200) ~ 2.7237 mm:
    # every pixel of the frame sees the membrane, corners included.
    p = back_project(PixelCoord(0.0, 0.0), intrinsics, geometry)
    assert p.region is Region.SIDE
    z = 3000.0 / math.sqrt(1213200.0)
    np.testing.assert_allclose([p.x, p.y, p.z], [-3.2 * z, -1.8 * z, z], rtol=1e-12)
    # Even an absurdly remote pixel maps to a point near the base rim.
    far = back_project(PixelCoord(1e6, 540.0), intrinsics, geometry)
    assert far.region is Region.SIDE
    assert 0.0 < far.z < 0.01


def test_back_project_round_trip_random_pixels(intrinsics, geometry):
    rng = np.random.default_rng(7)
    for _ in range(500):
        u = rng.uniform(0, intrinsics.width)
        v = rng.uniform(0, intrinsics.height)
        p = back_project(PixelCoord(u, v), intrinsics, geometry)
        assert surface_residual(p, geometry) < 1e-9
        px = project(p, intrinsics)
        assert math.hypot(px.u - u, px.v - v) < 1e-6


def test_back_project_region_matches_circle(intrinsics, geometry):
    circle = discontinuity_circle_radius_px(intrinsics, geometry)
    rng = np.random.default_rng(11)
    for _ in range(200):
        u = rng.uniform(0, intrinsics.width)
        v = rng.uniform(0, intrinsics.height)
        omega = (u - intrinsics.cx) ** 2 + (v - intrinsics.cy) ** 2
        p = back_project(PixelCoord(u, v), intrinsics, geometry)
        expected = Region.TIP if omega < circle**2 else Region.SIDE
        assert p.region is expected


def test_back_project_depth_decreases_with_radius(intrinsics, geometry):
    # Walking outward from the principal point, depth falls monotonically
    # from the apex (z = 40) through the seam (z = 30) towards the base.
    radii = np.linspace(0.0, 1100.0, 223)
    zs = [
        back_project(
            PixelCoord(intrinsics.cx + rad, intrinsics.cy), intrinsics, geometry
        ).z
        for rad in radii
    ]
    assert zs[0] == 40.0
    assert all(a >= b for a, b in zip(zs, zs[1:]))


def test_back_project_hemisphere_geometry():
    # d = 0: no cylinder, every pixel sees the tip.
    g = SensorGeometry(r=10.0, d=0.0)
    k = CameraIntrinsics()
    p = back_project(PixelCoord(0.0, 0.0), k, g)
    assert p.region is Region.TIP
    assert surface_residual(p, g) < 1e-9


def test_back_project_tiny_d_is_the_hemisphere(intrinsics):
    # r * alpha / d overflows to +inf for d = 1e-300: every ray meets the tip,
    # as for d = 0, instead of squaring the ratio raising OverflowError.
    tiny = SensorGeometry(r=10.0, d=1e-300)
    flat = SensorGeometry(r=10.0, d=0.0)
    for pixel in (PixelCoord(0.0, 0.0), PixelCoord(1000.0, 700.0), PixelCoord(1919.0, 0.0)):
        p = back_project(pixel, intrinsics, tiny)
        q = back_project(pixel, intrinsics, flat)
        assert p.region is Region.TIP
        assert (p.x, p.y, p.z) == pytest.approx((q.x, q.y, q.z), abs=1e-12)


def test_back_project_pixels_tiny_d_is_the_hemisphere(intrinsics):
    u = np.array([0.0, 960.0, 1000.0, 1919.0])
    v = np.array([0.0, 540.0, 700.0, 1079.0])
    pts, tip = back_project_pixels(u, v, intrinsics, SensorGeometry(r=10.0, d=1e-300))
    flat_pts, _ = back_project_pixels(u, v, intrinsics, SensorGeometry(r=10.0, d=0.0))
    assert tip.all()
    np.testing.assert_allclose(pts, flat_pts, rtol=0, atol=1e-12)


def test_back_project_pixels_matches_scalar(intrinsics, geometry):
    rng = np.random.default_rng(3)
    u = rng.uniform(0, intrinsics.width, size=64)
    v = rng.uniform(0, intrinsics.height, size=64)
    pts, tip = back_project_pixels(u, v, intrinsics, geometry)
    for i in range(64):
        p = back_project(PixelCoord(u[i], v[i]), intrinsics, geometry)
        np.testing.assert_allclose(pts[i], [p.x, p.y, p.z], rtol=1e-12, atol=1e-12)
        assert tip[i] == (p.region is Region.TIP)


@settings(max_examples=500, deadline=None)
@given(
    st.floats(1.0, 20.0),
    st.one_of(st.floats(0.0, 60.0), st.sampled_from((0.0, 1e-300, 1e200))),
    st.floats(100.0, 500.0),
    st.sampled_from(("seam", "apex", "frame")),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
def test_back_project_seam_pixels_round_trip(r, d, alpha, where, s, t):
    # Seam-circle pixels (omega rounds to either side of the seam and the side
    # depth r alpha / sqrt(omega) may round just above d), the apex and
    # in-frame pixels.  d = 0 is the pure hemisphere; at d = 1e-300 the
    # squared seam radius overflows to +inf, and at d = 1e200 it underflows
    # to 0, so the apex is the only pixel that meets the tip.
    k, g = CameraIntrinsics(alpha=alpha), SensorGeometry(r=r, d=d)
    seam = r * alpha / d if d > 0 else math.inf
    if where == "apex":
        pixel = PixelCoord(k.cx, k.cy)
    elif where == "seam" and seam < 1e6:
        angle = 2 * math.pi * s
        pixel = PixelCoord(k.cx + seam * math.cos(angle), k.cy + seam * math.sin(angle))
    else:
        pixel = PixelCoord(s * k.width, t * k.height)
    p = back_project(pixel, k, g)
    pts, tip = back_project_pixels(np.array([pixel.u]), np.array([pixel.v]), k, g)
    assert (p.x, p.y, p.z) == tuple(pts[0])
    assert tip[0] == (p.region is Region.TIP)
    if pixel == PixelCoord(k.cx, k.cy):
        assert (p.x, p.y, p.z, p.region) == (0.0, 0.0, d + r, Region.TIP)
    # Coordinates resolve the membrane only to a float step of d + r.
    assert surface_residual(p, g) < 1e-9 + 4 * r * math.ulp(d + r)
    assert p.z > 0
    back = project(p, k)
    assert math.hypot(back.u - pixel.u, back.v - pixel.v) < 1e-6


def test_back_project_grid_covers_frame(intrinsics, geometry):
    v, u = np.mgrid[0 : intrinsics.height, 0 : intrinsics.width]
    pts, tip = back_project_pixels(u, v, intrinsics, geometry)
    assert pts.shape == (intrinsics.height, intrinsics.width, 3)
    assert tip.shape == (intrinsics.height, intrinsics.width)
    assert np.all(np.isfinite(pts))
    assert np.all(pts[..., 2] > 0)
    # Row v, column u: spot-check one pixel against the scalar path.
    p = back_project(PixelCoord(1160.0, 540.0), intrinsics, geometry)
    np.testing.assert_allclose(pts[540, 1160], [p.x, p.y, p.z], atol=1e-12)
    # The tip region is exactly the in-circle pixel set.
    circle = discontinuity_circle_radius_px(intrinsics, geometry)
    omega = (u - intrinsics.cx) ** 2 + (v - intrinsics.cy) ** 2
    np.testing.assert_array_equal(tip, omega < circle**2)


# ---------------------------------------------------------------------------
# discontinuity circle


def test_discontinuity_circle_radius(intrinsics, geometry):
    # 10 * 300 / 30 = 100 px.
    assert discontinuity_circle_radius_px(intrinsics, geometry) == pytest.approx(100.0)


def test_discontinuity_circle_undefined_for_hemisphere(intrinsics):
    with pytest.raises(ValueError):
        discontinuity_circle_radius_px(intrinsics, SensorGeometry(r=10.0, d=0.0))


# ---------------------------------------------------------------------------
# surface_normal


def test_normal_at_apex(geometry):
    p = back_project(PixelCoord(960.0, 540.0), CameraIntrinsics(), geometry)
    np.testing.assert_allclose(surface_normal(p, geometry), [0.0, 0.0, 1.0], atol=1e-12)


def test_normal_on_side_is_radial(geometry):
    p = back_project(PixelCoord(1160.0, 540.0), CameraIntrinsics(), geometry)
    np.testing.assert_allclose(surface_normal(p, geometry), [1.0, 0.0, 0.0], atol=1e-12)


def test_normal_is_unit_and_continuous_across_seam(intrinsics, geometry):
    # Sample pixels just inside and outside the discontinuity circle: the
    # normal field must not jump at the seam.
    circle = discontinuity_circle_radius_px(intrinsics, geometry)
    for eps in (1e-3, 1e-6):
        inner = back_project(
            PixelCoord(intrinsics.cx + circle - eps, intrinsics.cy), intrinsics, geometry
        )
        outer = back_project(
            PixelCoord(intrinsics.cx + circle + eps, intrinsics.cy), intrinsics, geometry
        )
        n_in = surface_normal(inner, geometry)
        n_out = surface_normal(outer, geometry)
        assert np.linalg.norm(n_in) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(n_out) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(n_in - n_out) < 0.02


def test_normal_rejects_off_surface_point(geometry):
    from fingersense.geometry import SurfacePoint

    with pytest.raises(ValueError):
        surface_normal(SurfacePoint(0.0, 0.0, 0.0, Region.SIDE), geometry)


# ---------------------------------------------------------------------------
# contact poses


def test_rotation_pose_sweeps_tip(geometry):
    apex = pose_to_contact_point(ContactPose.rotation(0.0), geometry)
    assert (apex.x, apex.y, apex.z) == (0.0, 0.0, 40.0)
    assert apex.region is Region.TIP

    p = pose_to_contact_point(ContactPose.rotation(math.pi / 4), geometry)
    s = 10.0 / math.sqrt(2.0)
    np.testing.assert_allclose([p.x, p.y, p.z], [s, 0.0, 30.0 + s], rtol=1e-12)
    assert classify_surface_point(p, geometry) is Region.TIP


def test_translation_pose_sweeps_side(geometry):
    top = pose_to_contact_point(ContactPose.translation(0.0), geometry)
    np.testing.assert_allclose([top.x, top.y, top.z], [10.0, 0.0, 30.0])
    assert top.region is Region.SIDE

    base = pose_to_contact_point(ContactPose.translation(30.0), geometry)
    np.testing.assert_allclose([base.x, base.y, base.z], [10.0, 0.0, 0.0])
    assert classify_surface_point(base, geometry) is Region.SIDE


def test_pose_range_validation(geometry):
    with pytest.raises(ValueError):
        pose_to_contact_point(ContactPose.rotation(math.pi / 2), geometry)
    with pytest.raises(ValueError):
        pose_to_contact_point(ContactPose.rotation(-0.1), geometry)
    with pytest.raises(ValueError):
        pose_to_contact_point(ContactPose.translation(30.0 + 1e-9), geometry)
    with pytest.raises(ValueError):
        pose_to_contact_point(ContactPose.translation(-1.0), geometry)


# ---------------------------------------------------------------------------
# parameter validation


def test_geometry_validation():
    with pytest.raises(ValueError):
        SensorGeometry(r=0.0)
    with pytest.raises(ValueError):
        SensorGeometry(r=-1.0)
    with pytest.raises(ValueError):
        SensorGeometry(r=10.0, d=-1.0)


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(alpha=0.0)
    with pytest.raises(ValueError):
        CameraIntrinsics(width=0)
    with pytest.raises(ValueError):
        CameraIntrinsics(cx=-5.0)
