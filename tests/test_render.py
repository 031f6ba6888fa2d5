"""Tests for the synthetic imprint renderer and the protocol dataset."""

import bisect
import errno
import hashlib
import io
import json
import math
import os
import re
import sys
import threading
import tracemalloc
import warnings
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fingersense import render, workers
from fingersense.geometry import (
    CameraIntrinsics,
    ContactPose,
    Region,
    SensorGeometry,
    SurfacePoint,
    back_project_pixels,
    pose_to_contact_point,
)
from fingersense.cli import main
from fingersense.config import SessionConfig
from fingersense.imaging import localization_error, localize_frame
from fingersense.pgm import read_pgm
from fingersense.render import (
    DEFAULT_INDENTER_SPECS,
    BACKGROUND_INTENSITY,
    IMPRINT_GAIN,
    K_FALLOFF,
    NOISE_CHUNK_ROWS,
    OBJECT_ORDER,
    Indenter,
    Shape,
    default_indenter,
    footprint_distance_mm,
    generate_protocol_dataset,
    load_manifest,
    protocol_poses,
    render_contact,
)
from oracle import indentation_depth, noise_tables, reference_frame, save_config, subtract_reference


def indenter_at(shape: Shape, pose: ContactPose, geometry, size=6.0, depth=1.0):
    return Indenter(shape, size, pose_to_contact_point(pose, geometry), depth)


# ---------------------------------------------------------------------------
# the reference frame that the render command writes


def rendered_reference(out, contact=("cone", "--rotation", "0"), config: SessionConfig | None = None) -> np.ndarray:
    """The ``reference.pgm`` that ``render --object *contact`` writes into ``out``, on ``config``'s sensor."""
    argv = ["render", "--object", *contact, "--out", str(out)]
    if config is not None:
        out.mkdir(parents=True, exist_ok=True)
        save_config(config, out / "config.json")
        argv += ["--config", str(out / "config.json")]
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return read_pgm(out / "reference.pgm")


def test_reference_is_uniform_background(tmp_path):
    ref = rendered_reference(tmp_path)
    assert ref[540, 960] == BACKGROUND_INTENSITY
    # The membrane wraps around the camera, so even the frame corners see it
    # (their rays strike the side wall close to the base).
    assert ref[0, 0] == BACKGROUND_INTENSITY
    assert np.all(ref == BACKGROUND_INTENSITY)
    assert ref.shape == (1080, 1920)


def test_reference_is_deterministic(tmp_path):
    # The same frame whatever the contact beside it.
    a = rendered_reference(tmp_path / "a")
    b = rendered_reference(tmp_path / "b", ("slab", "--translation", "15"))
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# indentation_depth


@pytest.mark.parametrize("shape", list(Shape))
def test_depth_at_contact_is_delta(shape, geometry):
    # The tube is the one face with a hole: its ring surrounds the contact
    # point at the inner radius (1.8 mm here), so the centre itself is not
    # displaced at depth 0.8.  Every other footprint contains its contact.
    ind = indenter_at(shape, ContactPose.rotation(0.4), geometry, depth=0.8)
    expected = 0.0 if shape is Shape.TUBE else 0.8
    assert indentation_depth(ind.contact_point, ind, geometry) == pytest.approx(expected)


def test_tube_depth_is_delta_on_the_ring(geometry):
    # On the cylindrical side the membrane is flat along the axis, so a ring
    # point offset axially from the contact lies exactly in the tangent
    # plane: mid-wall of the annulus [1.8, 3.0] at a = 2.4 mm gives depth
    # delta with no out-of-plane correction.
    from fingersense.geometry import Region, SurfacePoint

    ind = indenter_at(Shape.TUBE, ContactPose.translation(8.0), geometry, depth=0.8)
    ring_point = SurfacePoint(10.0, 0.0, 22.0 + 2.4, Region.SIDE)
    assert indentation_depth(ring_point, ind, geometry) == pytest.approx(0.8, abs=1e-12)


def test_cone_depth_zero_beyond_delta(geometry):
    ind = indenter_at(Shape.CONE, ContactPose.rotation(0.0), geometry, depth=1.0)
    far = pose_to_contact_point(ContactPose.rotation(0.3), geometry)  # ~3 mm away
    assert indentation_depth(far, ind, geometry) == 0.0


def test_cone_support_is_ball_around_contact(geometry):
    # Point footprint: depth > 0 exactly where the chord distance to the
    # contact is below delta.  Brute-force scan over parametric surface
    # samples as the oracle.
    ind = indenter_at(Shape.CONE, ContactPose.rotation(0.25), geometry, depth=1.0)
    c = ind.contact_point.as_array()
    rng = np.random.default_rng(31)
    for _ in range(400):
        theta = rng.uniform(0.0, math.pi / 2)
        phi = rng.uniform(-math.pi, math.pi)
        p = pose_to_contact_point(ContactPose.rotation(theta), geometry)
        from fingersense.geometry import Region, SurfacePoint

        p = SurfacePoint(
            p.x * math.cos(phi) - p.y * math.sin(phi),
            p.x * math.sin(phi) + p.y * math.cos(phi),
            p.z,
            Region.TIP,
        )
        dist = float(np.linalg.norm(p.as_array() - c))
        depth = indentation_depth(p, ind, geometry)
        if dist < 1.0:
            assert depth == pytest.approx(1.0 - dist, abs=1e-12)
        else:
            assert depth == 0.0


@pytest.mark.parametrize("shape", list(Shape))
def test_depth_is_lipschitz_continuous(shape, geometry):
    # Distance-to-set is 1-Lipschitz, so depth changes by at most the point
    # separation (k_falloff = 1).
    ind = indenter_at(shape, ContactPose.translation(8.0), geometry, depth=1.0)
    rng = np.random.default_rng(37)
    for _ in range(200):
        phi = rng.uniform(-1.0, 1.0)
        z = rng.uniform(15.0, 30.0)
        base = np.array([10.0 * math.cos(phi), 10.0 * math.sin(phi), z])
        d_phi = rng.uniform(-0.05, 0.05)
        d_z = rng.uniform(-0.5, 0.5)
        near = np.array(
            [10.0 * math.cos(phi + d_phi), 10.0 * math.sin(phi + d_phi), z + d_z]
        )
        from fingersense.geometry import Region, SurfacePoint

        p0 = SurfacePoint(*base, Region.SIDE)
        p1 = SurfacePoint(*near, Region.SIDE)
        gap = float(np.linalg.norm(base - near))
        assert abs(
            indentation_depth(p0, ind, geometry) - indentation_depth(p1, ind, geometry)
        ) <= gap + 1e-12


def test_sphere_dome_profile(geometry):
    # Tangent ball of radius 3: at in-plane offset rho the depth falls by
    # sqrt(rho^2 + R^2) - R (parabolic dome, not a 45-degree cone).
    ind = indenter_at(Shape.SPHERE, ContactPose.rotation(0.0), geometry, size=6.0, depth=1.0)
    from fingersense.geometry import Region, SurfacePoint

    # A point 1.2 mm off-axis on the tip sphere (still on the membrane).
    theta = 1.2 / geometry.r
    p = SurfacePoint(
        geometry.r * math.sin(theta), 0.0, geometry.d + geometry.r * math.cos(theta),
        Region.TIP,
    )
    got = indentation_depth(p, ind, geometry)
    centre = ind.contact_point.as_array() + 3.0 * np.array([0.0, 0.0, 1.0])
    expected = max(0.0, 1.0 - (np.linalg.norm(p.as_array() - centre) - 3.0))
    assert got == pytest.approx(expected, abs=1e-12)
    assert 0.5 < got < 1.0  # far shallower than the 45-degree falloff (which gives ~0)


def test_indenter_validation(geometry):
    contact = pose_to_contact_point(ContactPose.rotation(0.0), geometry)
    with pytest.raises(ValueError):
        Indenter(Shape.CONE, 5.0, contact, depth=0.0)
    with pytest.raises(ValueError):
        Indenter(Shape.CONE, 11.0, contact, depth=1.0)  # exceeds the object envelope
    with pytest.raises(ValueError):
        Indenter(Shape.CONE, 0.0, contact, depth=1.0)


def test_render_rejects_depth_reaching_axis():
    # The cone presses 2.0 mm deep; a membrane that thin is refused where the
    # indenter is made, before any command writes an image.
    apex = ContactPose.rotation(0.0)
    for r in (2.0, 1.5):
        message = f"indentation depth 2.0 must stay below the membrane radius {r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            default_indenter("cone", apex, SensorGeometry(r=r, d=30.0))
    assert default_indenter("cone", apex, SensorGeometry(r=2.5, d=30.0)).depth == 2.0


# ---------------------------------------------------------------------------
# render_contact


def test_contact_is_deterministic(geometry, intrinsics):
    ind = indenter_at(Shape.SLAB, ContactPose.translation(10.0), geometry)
    a = render_contact(ind, geometry, intrinsics)
    b = render_contact(ind, geometry, intrinsics)
    np.testing.assert_array_equal(a.pixels, b.pixels)


def test_cone_at_apex_brightest_at_principal_point(geometry, intrinsics):
    ind = indenter_at(Shape.CONE, ContactPose.rotation(0.0), geometry, depth=2.0)
    image = render_contact(ind, geometry, intrinsics)
    v, u = np.unravel_index(np.argmax(image.pixels), image.pixels.shape)
    assert (u, v) == (960, 540)
    assert image.pixels[v, u] == BACKGROUND_INTENSITY + 60


def test_tiny_depth_point_contact_matches_reference(geometry, intrinsics):
    # A vanishing point imprint off any pixel centre renders as no imprint.
    ind = indenter_at(Shape.CONE, ContactPose.rotation(0.3), geometry, depth=0.005)
    image = render_contact(ind, geometry, intrinsics)
    np.testing.assert_array_equal(
        image.pixels, reference_frame(intrinsics).pixels
    )


def test_slab_blob_lies_on_footprint(geometry, intrinsics):
    ind = indenter_at(
        Shape.SLAB, ContactPose.translation(15.0), geometry, size=10.0, depth=1.0
    )
    image = render_contact(ind, geometry, intrinsics)
    config = SessionConfig(geometry, intrinsics)
    est = localize_frame(reference_frame(intrinsics), image, config)
    assert est is not None
    # Within the footprint half-diagonal (5, 2.5) -> 5.59 mm of the contact.
    assert localization_error(est, ind.contact_point) < math.hypot(5.0, 2.5)


def test_imprint_mass_increases_with_depth(geometry, intrinsics):
    ref = reference_frame(intrinsics)
    masses = []
    for depth in (0.5, 1.0, 1.5, 2.0):
        ind = indenter_at(Shape.SPHERE, ContactPose.rotation(0.5), geometry, depth=depth)
        diff = subtract_reference(ref, render_contact(ind, geometry, intrinsics))
        masses.append(diff.values.sum())
    assert all(a < b for a, b in zip(masses, masses[1:]))


def footprint_on_turned_grid(shape, geometry, turn=0.7):
    # Footprint distances on a tangent-plane grid about the contact, as laid
    # out in the tangent frame and turned by ``turn`` about the normal.
    ind = indenter_at(shape, ContactPose.rotation(0.5), geometry)
    t1, t2, n = render._tangent_basis(ind, geometry)
    a, b = (x.ravel() for x in np.meshgrid(np.linspace(-4, 4, 17), np.linspace(-4, 4, 17)))
    c, s = math.cos(turn), math.sin(turn)
    origin = ind.contact_point.as_array() + 0.2 * n

    def distances(a, b):
        return footprint_distance_mm(ind, origin + np.outer(a, t1) + np.outer(b, t2), geometry)

    return distances(a, b), distances(c * a - s * b, s * a + c * b)


@pytest.mark.parametrize("shape", [Shape.CONE, Shape.SPHERE, Shape.CYLINDER, Shape.TUBE])
def test_symmetric_shapes_ignore_orientation(shape, geometry):
    plain, spun = footprint_on_turned_grid(shape, geometry)
    np.testing.assert_allclose(spun, plain, rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [Shape.EDGE, Shape.SLAB])
def test_oriented_shapes_respond_to_orientation(shape, geometry):
    plain, spun = footprint_on_turned_grid(shape, geometry)
    assert np.abs(spun - plain).max() > 0.5


def test_cone_closed_loop_every_protocol_pose(geometry, intrinsics):
    # Sharp indenter: the pipeline must recover every protocol pose within
    # 1 mm on noise-free renders.
    ref = reference_frame(intrinsics)
    config = SessionConfig(geometry, intrinsics)
    for pose in protocol_poses():
        ind = default_indenter("cone", pose, geometry)
        est = localize_frame(ref, render_contact(ind, geometry, intrinsics), config)
        assert est is not None, f"no blob for pose {pose}"
        assert localization_error(est, ind.contact_point) <= 1.0


# ---------------------------------------------------------------------------
# imprint window: render_contact against a full-frame brute-force oracle

SMALL_FRAME = (160, 120)  # width, height


def full_frame_oracle(ind: Indenter, g: SensorGeometry, k: CameraIntrinsics) -> np.ndarray:
    """Shade every pixel of the frame, with no window."""
    v, u = np.mgrid[0 : k.height, 0 : k.width]
    points, _ = back_project_pixels(u, v, k, g)
    depth = np.maximum(0.0, ind.depth - footprint_distance_mm(ind, points, g) * K_FALLOFF)
    intensity = BACKGROUND_INTENSITY + IMPRINT_GAIN * depth / ind.depth
    return np.rint(np.clip(intensity, 0, 255)).astype(np.uint8)


@st.composite
def window_cases(draw):
    # One case in four or so is the pure hemisphere, d = 0.
    d = draw(st.floats(2.0, 60.0)) if draw(st.integers(0, 3)) else 0.0
    g = SensorGeometry(r=draw(st.floats(4.0, 20.0)), d=d)
    width, height = SMALL_FRAME
    k = CameraIntrinsics(
        alpha=draw(st.floats(20.0, 400.0)),
        cx=draw(st.floats(0.0, float(width))),
        cy=draw(st.floats(0.0, float(height))),
        width=width,
        height=height,
    )
    if draw(st.booleans()):
        # Rotation 0 is the apex, on the optical axis.
        pose = ContactPose.rotation(draw(st.one_of(st.just(0.0), st.floats(0.0, 1.55))))
    else:
        # Translation 0 is the tip/side seam; contacts near the base (z = 0)
        # mostly take the full-frame fallback, which has its own test below.
        pose = ContactPose.translation(draw(st.one_of(st.just(0.0), st.floats(0.0, 0.8 * g.d))))
    c = pose_to_contact_point(pose, g)
    phi = draw(st.floats(-math.pi, math.pi))  # spin the contact about the axis
    contact = SurfacePoint(c.x * math.cos(phi), c.x * math.sin(phi), c.z, c.region)
    ind = Indenter(
        draw(st.sampled_from(list(Shape))),
        draw(st.floats(0.1, 10.0)),
        contact,
        draw(st.floats(0.05, 3.0)),  # below the smallest r drawn
    )
    return ind, g, k


@settings(max_examples=150, deadline=None)
@given(window_cases(), st.integers(1, 4 * SMALL_FRAME[0]))
def test_windowed_render_matches_full_frame_oracle(case, band_px):
    # Small band budgets split the window into several bands (one row each
    # below a row's width), as the full-size frames do.
    ind, g, k = case
    default = render.RENDER_BAND_PX
    render.RENDER_BAND_PX = band_px
    try:
        image = render_contact(ind, g, k)
    finally:
        render.RENDER_BAND_PX = default
    np.testing.assert_array_equal(image.pixels, full_frame_oracle(ind, g, k))


@settings(max_examples=20, deadline=None)
@given(window_cases())
def test_reference_is_constant_background(tmp_path_factory, case):
    _, g, k = case
    ref = rendered_reference(tmp_path_factory.mktemp("render"), config=SessionConfig(g, k))
    np.testing.assert_array_equal(ref, np.full((k.height, k.width), BACKGROUND_INTENSITY, dtype=np.uint8))


@pytest.mark.parametrize("shape", list(Shape))
def test_window_falls_back_to_full_frame_near_camera_plane(shape):
    # A contact at the base of a short membrane: the imprint ball reaches
    # z <= 0, so its projection is unbounded and the whole frame is shaded.
    g = SensorGeometry(r=10.0, d=2.0)
    # A wide-angle camera: the frame corners see the side down to z = 0.5.
    k = CameraIntrinsics(alpha=5.0, cx=80.0, cy=60.0, width=160, height=120)
    contact = SurfacePoint(-6.0, 8.0, 1.0, Region.SIDE)
    ind = Indenter(shape, 6.0, contact, 1.5)
    assert contact.z - ind.depth / K_FALLOFF <= 0  # even the cone's ball crosses z = 0
    image = render_contact(ind, g, k)
    np.testing.assert_array_equal(image.pixels, full_frame_oracle(ind, g, k))
    assert image.pixels.max() > BACKGROUND_INTENSITY  # the imprint is visible


@pytest.mark.parametrize(
    "pose", protocol_poses(), ids=[f"{p.kind.value}_{i % 4}" for i, p in enumerate(protocol_poses())]
)
def test_sphere_window_is_tight_and_exact(geometry, intrinsics, pose):
    # The convex membrane keeps the sphere's imprint within
    # sqrt(size * delta + delta^2) of the contact: translation 15 shades 55k
    # pixels, against 810k for a ball of radius size + delta.
    ind = default_indenter("sphere", pose, geometry)
    rows, columns = render._imprint_window(ind, intrinsics)
    assert (rows.stop - rows.start) * (columns.stop - columns.start) <= 56_000
    image = render_contact(ind, geometry, intrinsics)
    np.testing.assert_array_equal(image.pixels, full_frame_oracle(ind, geometry, intrinsics))
    assert image.pixels.max() > BACKGROUND_INTENSITY


# ---------------------------------------------------------------------------
# footprint sanity


def test_footprint_distance_zero_on_footprint_only(geometry):
    ind = indenter_at(Shape.TUBE, ContactPose.rotation(0.0), geometry, size=6.0)
    c = ind.contact_point.as_array()
    # Contact point: on the annulus mid-wall circle?  No: distances measured
    # from the ring [1.8, 3.0]; the centre point is 1.8 mm from the footprint.
    d0 = footprint_distance_mm(ind, c[np.newaxis, :], geometry)[0]
    assert d0 == pytest.approx(1.8, abs=1e-9)


def test_default_specs_cover_all_objects():
    assert set(DEFAULT_INDENTER_SPECS) == {s.value for s in Shape}
    for shape, size, depth in DEFAULT_INDENTER_SPECS.values():
        assert 0 < size <= 10.0
        assert 0 < depth < 10.0


# ---------------------------------------------------------------------------
# protocol dataset


def test_dataset_shape_and_truth(protocol_dataset, geometry):
    out_dir, entries = protocol_dataset
    assert len(entries) == 56
    per_object = {}
    for e in entries:
        per_object.setdefault(e.object_label, []).append(e)
        assert (out_dir / e.frame).exists()
        assert (out_dir / e.reference).exists()
        truth = pose_to_contact_point(e.pose, geometry)
        assert e.truth_mm == pytest.approx((truth.x, truth.y, truth.z))
    assert len(per_object) == 7
    assert all(len(v) == 8 for v in per_object.values())


def test_dataset_manifest_round_trip(protocol_dataset):
    out_dir, entries = protocol_dataset
    assert load_manifest(out_dir / "manifest.json") == entries


def test_dataset_images_read_back(protocol_dataset):
    out_dir, entries = protocol_dataset
    image = read_pgm(out_dir / entries[0].frame)
    assert image.shape == (1080, 1920)
    assert image.max() > BACKGROUND_INTENSITY  # an imprint is present


def digest_dir(out_dir) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def test_dataset_noise_is_reproducible(tmp_path, geometry, intrinsics):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_protocol_dataset(a, geometry, intrinsics, noise_sigma=2.0, seed=11)
    generate_protocol_dataset(b, geometry, intrinsics, noise_sigma=2.0, seed=11)
    assert digest_dir(a) == digest_dir(b)
    # And the noise is there at its scale: rounding adds 1/12 to the variance.
    ref = read_pgm(a / "reference.pgm")
    assert abs(ref.std() - 2.0) <= 0.05 * 2.0


def test_dataset_rejects_negative_noise(tmp_path, geometry, intrinsics):
    with pytest.raises(ValueError):
        generate_protocol_dataset(tmp_path, geometry, intrinsics, noise_sigma=-1.0)


@pytest.mark.parametrize("sigma", [math.nan, math.inf])
def test_dataset_rejects_non_finite_noise(tmp_path, geometry, intrinsics, sigma):
    with pytest.raises(ValueError, match="noise sigma"):
        generate_protocol_dataset(tmp_path, geometry, intrinsics, noise_sigma=sigma)
    assert not any(tmp_path.iterdir())  # nothing written


# A small camera whose height is not a multiple of the noise chunk, so every
# frame ends in a short chunk.
ORACLE_CAMERA = CameraIntrinsics(alpha=40.0, cx=47.5, cy=40.0, width=96, height=NOISE_CHUNK_ROWS + 17)


def reference_noise(pixels: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """The dataset's noise one pixel at a time, from the law and the stream layout.

    K = rint(N(0, sigma)) capped to [-255, 255] has P(K <= k) = Phi((k + 1/2) / sigma).
    Each chunk of NOISE_CHUNK_ROWS rows draws one 16-bit bucket b per pixel; K is the
    inverse CDF at b / 2**16 when no CDF value lies strictly inside the bucket, and
    otherwise at (b + V) / 2**16 with V a 53-bit uniform drawn, in row-major order,
    after the chunk's buckets.
    """
    cdf = [0.5 * math.erfc(-(k + 0.5) / (sigma * math.sqrt(2.0))) for k in range(-255, 255)]
    noisy = np.empty_like(pixels)
    for top in range(0, pixels.shape[0], NOISE_CHUNK_ROWS):
        chunk = pixels[top : top + NOISE_CHUNK_ROWS]
        buckets = rng.integers(0, 2**16, chunk.shape, dtype=np.uint16).tolist()
        for r, (row, row_buckets) in enumerate(zip(chunk.tolist(), buckets)):
            for c, (p, b) in enumerate(zip(row, row_buckets)):
                k = bisect.bisect_right(cdf, b / 2**16)
                if k != bisect.bisect_left(cdf, (b + 1) / 2**16):
                    k = bisect.bisect_right(cdf, (b + rng.random()) / 2**16)
                noisy[top + r, c] = min(max(p + k - 255, 0), 255)
    return noisy


def serial_dataset(g, k, sigma: float, seed: int) -> dict[str, np.ndarray]:
    """The protocol images rendered on full frames and noised by ``reference_noise`` in turn."""
    clean = {"reference.pgm": np.full((k.height, k.width), BACKGROUND_INTENSITY, np.uint8)}
    for label in OBJECT_ORDER:
        for index, pose in enumerate(protocol_poses()):
            name = f"{label}_{pose.kind.value}_{index % 4}.pgm"
            clean[name] = full_frame_oracle(default_indenter(label, pose, g), g, k)
    if sigma == 0:
        return clean
    streams = np.random.SeedSequence(seed).spawn(len(clean))
    return {
        name: reference_noise(pixels, sigma, np.random.default_rng(stream))
        for (name, pixels), stream in zip(clean.items(), streams)
    }


# Frames of 307 KB: far more than the calling process allocates for a whole
# forked run, so its peak shows that no frame's pixels came back to it.
WIDE_CAMERA = CameraIntrinsics(alpha=200.0, cx=319.5, cy=239.5, width=640, height=480)
# The last noise chunk holds 97 * 17 pixels, one more than a multiple of 4.
ODD_CAMERA = CameraIntrinsics(alpha=40.0, cx=48.0, cy=40.0, width=97, height=NOISE_CHUNK_ROWS + 17)


@pytest.mark.parametrize(
    "sigma, cpus, switch_s, camera",
    [
        (0.0, 2, None, WIDE_CAMERA),
        (16.0, 2, None, ORACLE_CAMERA),
        (16.0, 1, None, ORACLE_CAMERA),
        (16.0, 3, 1e-6, ORACLE_CAMERA),
        (16.0, 2, None, ODD_CAMERA),
    ],
    ids=["noise0", "noise16", "noise16-1cpu", "noise16-3cpus-switch1us", "noise16-odd-width"],
)
def test_dataset_matches_serial_oracle(tmp_path, monkeypatch, forks, geometry, sigma, cpus,
                                       switch_s, camera):
    # The bytes depend on neither the worker count nor how often threads in
    # the calling process switch.  One CPU runs every frame inline; more fork
    # one worker process per CPU.
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    if camera is WIDE_CAMERA:
        # A first run made earlier, so the peak below counts only this run's
        # allocations, none of them one-time.
        generate_protocol_dataset(tmp_path / "warm", geometry, camera, sigma, seed=29)
        del forks[:]
    out_dir = tmp_path / "out"
    interval = sys.getswitchinterval()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        if switch_s is not None:
            sys.setswitchinterval(switch_s)
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        entries = generate_protocol_dataset(out_dir, geometry, camera, sigma, seed=29)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        sys.setswitchinterval(interval)
        if not tracing:
            tracemalloc.stop()
    assert len(forks) == (0 if cpus == 1 else cpus)
    assert forks.reaped()
    if camera is WIDE_CAMERA:
        # Each worker writes its own frames: only manifest entries come back.
        assert peak - before < camera.width * camera.height, peak - before
    expected = serial_dataset(geometry, camera, sigma, seed=29)
    assert sorted(p.name for p in out_dir.iterdir()) == sorted([*expected, "manifest.json"])
    assert [e.frame for e in entries] == list(expected)[1:]
    for name, pixels in expected.items():
        np.testing.assert_array_equal(read_pgm(out_dir / name), pixels, err_msg=name)


def test_dataset_write_error_stops_writing_and_ends_threads(tmp_path, monkeypatch, forks, geometry):
    (tmp_path / "cone_rotation_0.pgm").mkdir()
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    threads = threading.active_count()
    with pytest.raises(OSError, match=r"^cannot write image .*cone_rotation_0\.pgm: ") as exc:
        generate_protocol_dataset(tmp_path, geometry, ORACLE_CAMERA, 2.0, seed=3)
    # The message names the frame, not the temporary file renamed onto it.
    path = tmp_path / "cone_rotation_0.pgm"
    assert str(exc.value) == f"cannot write image {path}: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{path}'"
    assert threading.active_count() == threads
    assert len(forks) == 2 and forks.reaped()
    # As in protocol order: nothing after the frame that could not be written,
    # and no temporary file.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cone_rotation_0.pgm", "reference.pgm"]


def test_dataset_render_error_writes_no_frame(tmp_path, monkeypatch, forks, geometry):
    # Frames are renamed into place only once every one is written, so a
    # failing render leaves no frame, and no temporary file, behind.
    failing = default_indenter("cone", protocol_poses()[2], geometry)

    shade_imprint = render._shade_imprint

    def fail_third_frame(ind, g, k, image):
        if ind == failing:
            raise ValueError("cannot render this one")
        shade_imprint(ind, g, k, image)

    monkeypatch.setattr(render, "_shade_imprint", fail_third_frame)
    monkeypatch.setattr(workers, "usable_cpus", lambda: 4)  # other workers' frames are made, then removed
    threads = threading.active_count()
    with pytest.raises(ValueError, match="^cannot render this one$"):
        generate_protocol_dataset(tmp_path, geometry, ORACLE_CAMERA, 2.0, seed=3)
    assert threading.active_count() == threads
    assert len(forks) == 4 and forks.reaped()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sigma", [0.5, 2.0, 16.0])
@pytest.mark.parametrize("p", [0, 128, 255])
def test_noise_pmf_matches_closed_form(sigma, p):
    # Chi-square of 2**18 noised pixels against P(v) = Phi((v - p + 1/2) / sigma)
    # - Phi((v - p - 1/2) / sigma), with the clip edges v = 0 and 255 holding
    # the whole tails; bins expected to hold fewer than 5 are lumped into the
    # tail bins.  Seeded, so the verdict is fixed.
    noisy = np.full((256, 1024), p, np.uint8)
    noise = render._NoiseTable.for_sigma(sigma)
    render._add_noise(noisy, noise, np.random.default_rng(1000 + p))
    observed = np.bincount(noisy.ravel(), minlength=256)
    below = stats.norm.cdf((np.arange(255) - p + 0.5) / sigma)
    expected = np.diff(np.concatenate([[0.0], below, [1.0]])) * noisy.size
    kept = np.flatnonzero(expected >= 5)
    low, high = kept[0], kept[-1]

    def lumped(counts):
        return np.concatenate(
            [[counts[: low + 1].sum()], counts[low + 1 : high], [counts[high:].sum()]]
        )

    assert stats.chisquare(lumped(observed), lumped(expected)).pvalue > 1e-3


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([5e-324, 1e-300, 1e-3, 0.1, 0.5, 1.0, 2.0, 16.0, 100.0, 1e6, 1e300])
    | st.floats(1e-3, 1e3)
    | st.floats(5e-324, 1e308)
)
def test_noise_table_matches_the_search_over_every_bucket_edge(sigma):
    # The tables come from the 510 CDF values alone, bit for bit those of the
    # searches over every bucket edge, and with no temporary of an entry per
    # bucket: the peak stays below two 128 KiB tables.
    want_cdf, want_table = noise_tables(sigma)
    tracemalloc.start()
    try:
        noise = render._NoiseTable.for_sigma(sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(noise.cdf.view(np.uint64), want_cdf.view(np.uint64))
    assert noise.table.dtype == np.int16
    np.testing.assert_array_equal(noise.table, want_table)
    assert peak < 2 * render.NOISE_BUCKETS * 2


def test_noise_reaches_below_a_bare_table():
    # Every 16-bit draw lands in the lowest bucket, [0, 2**-16).  At sigma 2 it
    # spans K = -8 and the whole lower tail, so one table entry cannot stand
    # for it; the 53-bit draws must give the exact inverse CDF inside it.
    class LowestBucket:
        class bit_generator:
            @staticmethod
            def random_raw(n):
                return np.zeros(n, np.uint64)

        def random(self, n):
            return (np.arange(n) + 0.5) / n

    n = 4096
    noisy = np.full((1, n), 128, np.uint8)
    render._add_noise(noisy, render._NoiseTable.for_sigma(2.0), LowestBucket())
    k = noisy[0].astype(int) - 128
    u = (np.arange(n) + 0.5) / n / 2**16
    assert np.all(stats.norm.cdf((k - 0.5) / 2.0) <= u)
    assert np.all(u < stats.norm.cdf((k + 0.5) / 2.0))
    assert set(k.tolist()) >= {-8, -9, -10, -11, -12}


@pytest.mark.parametrize("residue", range(4))
def test_noise_buckets_are_the_integers_stream(residue):
    # _add_noise draws each chunk's buckets, then its step pixels' random()
    # values; every chunk but the last holds a multiple of 4 pixels, and the
    # last may hold any number.
    assert NOISE_CHUNK_ROWS % 4 == 0
    raw, reference = np.random.default_rng(41), np.random.default_rng(41)
    for n in (4, 4 * 1537, 4 * 9 + residue):
        np.testing.assert_array_equal(
            render._buckets(raw, n), reference.integers(0, 2**16, n, dtype=np.uint16)
        )
        np.testing.assert_array_equal(raw.random(n % 7 + 1), reference.random(n % 7 + 1))


@pytest.mark.parametrize("sigma", [5e-324, 1e300])
def test_dataset_extreme_noise_sigma(tmp_path, geometry, sigma):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        generate_protocol_dataset(tmp_path / "noisy", geometry, ORACLE_CAMERA, sigma, seed=5)
    clean = serial_dataset(geometry, ORACLE_CAMERA, 0.0, seed=5)
    for name, pixels in clean.items():
        noisy = read_pgm(tmp_path / "noisy" / name)
        if sigma < 1:  # rounds to no noise at all
            np.testing.assert_array_equal(noisy, pixels, err_msg=name)
        else:  # K is -255 or 255 with probability 1/2 each
            assert set(np.unique(noisy).tolist()) <= {0, 255}, name
            assert abs((noisy == 255).mean() - 0.5) < 0.05, name


def test_full_size_render_is_exact_in_bounded_memory(geometry, intrinsics):
    # A contact 5 mm above the camera plane whose imprint ball reaches it, so
    # the window is all 2.07M pixels: shading it at once would take about 250 MB.
    ind = default_indenter("cylinder", ContactPose.translation(25.0), geometry)
    assert ind.contact_point.z - render._imprint_radius_mm(ind) <= 0
    assert render._imprint_window(ind, intrinsics) == (slice(0, 1080), slice(0, 1920))
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        image = render_contact(ind, geometry, intrinsics)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak - before < 16 * 2**20
    np.testing.assert_array_equal(image.pixels, full_frame_oracle(ind, geometry, intrinsics))


# ---------------------------------------------------------------------------
# manifest validation

GOOD_ENTRY = {
    "object": "cone",
    "pose_kind": "rotation",
    "pose_value": 0.0,
    "reference": "reference.pgm",
    "frame": "cone_rotation_0.pgm",
    "truth_mm": [0.0, 0.0, 40.0],
}


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"entries": []}, "expected a JSON list"),
        ([GOOD_ENTRY, "cone"], "entry 1: expected a JSON object"),
        ([{k: v for k, v in GOOD_ENTRY.items() if k != "frame"}], "entry 0: missing key.*frame"),
        ([{**GOOD_ENTRY, "pose_kind": "twist"}], "entry 0: .*twist"),
        ([{**GOOD_ENTRY, "pose_value": None}], "entry 0: non-numeric"),
        ([{**GOOD_ENTRY, "pose_value": "fast"}], "entry 0: "),
        ([{**GOOD_ENTRY, "truth_mm": [0.0, 40.0]}], "entry 0: truth_mm"),
        ([{**GOOD_ENTRY, "truth_mm": [0.0, None, 40.0]}], "entry 0: non-numeric"),
        ([{**GOOD_ENTRY, "truth_mm": [0.0, math.nan, 40.0]}], "entry 0: .*finite"),
        ([{**GOOD_ENTRY, "frame": 3}], "entry 0: frame must be a string"),
        ([{**GOOD_ENTRY, "pose_value": 10**400}], "entry 0: non-numeric"),
        ([{**GOOD_ENTRY, "frame": "/etc/passwd"}], "entry 0: frame must be a relative path"),
        ([GOOD_ENTRY, {**GOOD_ENTRY, "reference": "../reference.pgm"}], "entry 1: reference must"),
        ([{**GOOD_ENTRY, "frame": "a/../../b.pgm"}], "entry 0: frame must be a relative path"),
        ([{**GOOD_ENTRY, "pose_value": "0.0"}], "entry 0: non-numeric"),
        ([{**GOOD_ENTRY, "pose_value": False}], "entry 0: non-numeric"),
        ([{**GOOD_ENTRY, "truth_mm": [True, "0", 40]}], "entry 0: non-numeric"),
    ],
)
def test_manifest_rejects_malformed_entries(tmp_path, payload, message):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=message) as exc:
        load_manifest(path)
    assert str(exc.value).startswith(f"{path}: ")
