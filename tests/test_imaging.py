"""Tests for the contact detection and localisation pipeline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from fingersense import imaging
from fingersense.geometry import ContactPose, PixelCoord, Region, SurfacePoint
from fingersense.imaging import (
    HARDWARE_ERRORS_BY_OBJECT,
    HARDWARE_ERRORS_BY_POSE,
    ContactBlob,
    ContactEstimate,
    DiffImage,
    ErrorRecord,
    TactileImage,
    aggregate_errors,
    detect_blobs,
    detect_contacts,
    localization_error,
    localize_contact,
    smooth,
    subtract_reference,
)


def gray(value: int, shape=(32, 32)) -> TactileImage:
    return TactileImage(np.full(shape, value, dtype=np.uint8))


# ---------------------------------------------------------------------------
# image types


def test_tactile_image_requires_uint8():
    with pytest.raises(ValueError):
        TactileImage(np.zeros((4, 4), dtype=np.float64))


def test_tactile_image_is_immutable():
    img = gray(7)
    with pytest.raises((ValueError, RuntimeError)):
        img.pixels[0, 0] = 1


def test_diff_image_rejects_negative_values():
    with pytest.raises(ValueError):
        DiffImage(np.full((4, 4), -1.0))


# ---------------------------------------------------------------------------
# subtract_reference


def test_subtract_identity_is_zero():
    img = gray(128)
    diff = subtract_reference(img, img)
    assert diff.values.sum() == 0.0


def test_subtract_single_pixel():
    ref = gray(128)
    frame = np.full((32, 32), 128, dtype=np.uint8)
    frame[10, 20] = 200
    diff = subtract_reference(ref, TactileImage(frame))
    assert diff.values[10, 20] == 72.0
    assert diff.values.sum() == 72.0


def test_subtract_is_symmetric():
    rng = np.random.default_rng(0)
    a = TactileImage(rng.integers(0, 256, (16, 16), dtype=np.uint8))
    b = TactileImage(rng.integers(0, 256, (16, 16), dtype=np.uint8))
    np.testing.assert_array_equal(
        subtract_reference(a, b).values, subtract_reference(b, a).values
    )


def test_subtract_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        subtract_reference(gray(0, (8, 8)), gray(0, (8, 9)))


# ---------------------------------------------------------------------------
# smooth


def test_smooth_sigma_zero_is_identity():
    d = DiffImage(np.arange(64, dtype=np.float64).reshape(8, 8))
    assert smooth(d, 0.0) is d


def test_smooth_conserves_interior_mass():
    values = np.zeros((101, 101))
    values[50, 50] = 1000.0
    blurred = smooth(DiffImage(values), 2.0)
    assert blurred.values.sum() == pytest.approx(1000.0, rel=0.01)
    assert blurred.values[50, 50] < 1000.0


def test_smooth_leaves_uniform_unchanged():
    d = DiffImage(np.full((16, 16), 42.0))
    np.testing.assert_allclose(smooth(d, 3.0).values, 42.0)


def test_smooth_rejects_negative_sigma():
    with pytest.raises(ValueError):
        smooth(DiffImage(np.zeros((4, 4))), -1.0)


# ---------------------------------------------------------------------------
# detect_blobs


def test_detect_nothing_in_zero_diff():
    assert detect_blobs(DiffImage(np.zeros((64, 64))), 25.0, 20) == []


def test_detect_centered_square():
    # 5x5 square at u = 100..104, v = 200..204: symmetric, so the centroid is
    # its centre (102, 202) and the area 25.
    values = np.zeros((300, 300))
    values[200:205, 100:105] = 80.0
    blobs = detect_blobs(DiffImage(values), 25.0, 20)
    assert len(blobs) == 1
    blob = blobs[0]
    assert blob.area == 25
    assert blob.centroid.u == pytest.approx(102.0)
    assert blob.centroid.v == pytest.approx(202.0)
    assert blob.peak == 80.0
    assert blob.total_mass == pytest.approx(25 * 80.0)


def test_detect_orders_by_mass():
    values = np.zeros((100, 100))
    values[10:15, 10:15] = 40.0  # mass 1000
    values[60:70, 60:70] = 30.0  # mass 3000
    blobs = detect_blobs(DiffImage(values), 25.0, 20)
    assert [round(b.total_mass) for b in blobs] == [3000, 1000]
    assert blobs[0].centroid.u == pytest.approx(64.5)


def test_detect_threshold_is_strict():
    values = np.zeros((50, 50))
    values[10:20, 10:20] = 25.0
    assert detect_blobs(DiffImage(values), 25.0, 20) == []
    values[10:20, 10:20] = 25.001
    assert len(detect_blobs(DiffImage(values), 25.0, 20)) == 1


def test_detect_min_area_filters_small_components():
    values = np.zeros((50, 50))
    values[5:10, 5:9] = 100.0  # 20 px: kept
    values[30:34, 30:34] = 100.0  # 16 px: dropped
    blobs = detect_blobs(DiffImage(values), 25.0, 20)
    assert len(blobs) == 1
    assert blobs[0].area == 20


def test_detect_diagonal_pixels_are_connected():
    # 8-connectivity joins corner-touching squares into one blob.
    values = np.zeros((60, 60))
    values[10:15, 10:15] = 50.0
    values[15:20, 15:20] = 50.0
    blobs = detect_blobs(DiffImage(values), 25.0, 20)
    assert len(blobs) == 1
    assert blobs[0].area == 50


def test_detect_translation_equivariance():
    rng = np.random.default_rng(13)
    patch = rng.uniform(30.0, 90.0, size=(9, 7))
    base = np.zeros((200, 200))
    base[40 : 40 + 9, 50 : 50 + 7] = patch
    shifted = np.zeros((200, 200))
    du, dv = 23, 31
    shifted[40 + dv : 49 + dv, 50 + du : 57 + du] = patch
    (b0,) = detect_blobs(DiffImage(base), 25.0, 20)
    (b1,) = detect_blobs(DiffImage(shifted), 25.0, 20)
    assert b1.centroid.u - b0.centroid.u == pytest.approx(du, abs=1e-9)
    assert b1.centroid.v - b0.centroid.v == pytest.approx(dv, abs=1e-9)


def test_detect_rejects_nonpositive_threshold():
    with pytest.raises(ValueError):
        detect_blobs(DiffImage(np.zeros((4, 4))), 0.0, 1)


def oracle_detect_blobs(d: DiffImage, threshold: float, min_area: int) -> list[ContactBlob]:
    """Brute force: one full-frame mask per component, summed in scan order."""
    mask = d.values > threshold
    labels, n_labels = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))
    if n_labels == 0:
        return []
    v, u = np.mgrid[0 : d.height, 0 : d.width]
    blobs = []
    for index in range(1, n_labels + 1):
        member = labels == index
        area = int(np.count_nonzero(member))
        if area < min_area:
            continue
        weights = d.values[member]
        mass = float(weights.sum())
        blobs.append(
            ContactBlob(
                centroid=PixelCoord(
                    float((weights * u[member]).sum() / mass),
                    float((weights * v[member]).sum() / mass),
                ),
                area=area,
                peak=float(weights.max()),
                total_mass=mass,
            )
        )
    blobs.sort(key=lambda b: -b.total_mass)
    return blobs


def assert_matches_oracle(values: np.ndarray, threshold: float, min_area: int) -> list:
    # Dataclass equality is exact float equality on every field, and list
    # equality checks the order.
    d = DiffImage(values)
    blobs = detect_blobs(d, threshold, min_area)
    assert blobs == oracle_detect_blobs(d, threshold, min_area)
    return blobs


@st.composite
def detection_cases(draw):
    shape = (draw(st.integers(1, 48)), draw(st.integers(1, 64)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Arbitrary floats make sums whose last bits depend on the summation
    # order; a share of repeated round values makes ties in mass.
    values = np.where(
        rng.random(shape) < draw(st.floats(0.0, 1.0)),
        rng.choice([0.0, 10.0, 30.0], size=shape),
        rng.uniform(0.0, 100.0, size=shape),
    )
    threshold = draw(st.floats(0.0, 100.0, exclude_min=True))
    return values, threshold, draw(st.integers(1, 30))


@settings(max_examples=300, deadline=None)
@given(detection_cases())
def test_detect_matches_per_label_oracle(case):
    assert_matches_oracle(*case)


def test_detect_oracle_empty_results():
    rng = np.random.default_rng(5)
    values = rng.uniform(0.0, 50.0, size=(48, 64))
    assert assert_matches_oracle(values, 60.0, 1) == []  # nothing above threshold
    assert assert_matches_oracle(values, 45.0, 30) == []  # only small components


def test_detect_oracle_all_foreground_is_one_blob():
    rng = np.random.default_rng(6)
    values = rng.uniform(30.0, 90.0, size=(48, 64))
    (blob,) = assert_matches_oracle(values, 25.0, 1)
    assert blob.area == 48 * 64


def test_detect_oracle_checkerboard_is_one_blob():
    # Diagonal neighbours touch, so 8-connectivity joins the whole board.
    values = 60.0 * (np.add.outer(np.arange(48), np.arange(64)) % 2)
    (blob,) = assert_matches_oracle(values, 25.0, 1)
    assert blob.area == 48 * 64 // 2


def test_detect_oracle_lattice_of_single_pixels():
    rng = np.random.default_rng(7)
    values = np.zeros((48, 64))
    values[::2, ::2] = rng.uniform(30.0, 90.0, size=(24, 32))
    blobs = assert_matches_oracle(values, 25.0, 1)
    assert len(blobs) == 24 * 32
    assert all(b.area == 1 for b in blobs)


def test_detect_oracle_equal_mass_ties_keep_scan_order():
    values = np.zeros((48, 64))
    corners = [(30, 40), (2, 50), (30, 3), (2, 10)]  # (v, u) of each 3x3 blob
    for v, u in corners:
        values[v : v + 3, u : u + 3] = 50.0
    blobs = assert_matches_oracle(values, 25.0, 9)
    assert [(b.centroid.v, b.centroid.u) for b in blobs] == [
        (3.0, 11.0), (3.0, 51.0), (31.0, 4.0), (31.0, 41.0)
    ]


def test_detect_many_components_full_frame():
    # 32,400 isolated 2x2 dots of equal mass on an 8 px lattice, plus a
    # one-pixel speck beside each, which min_area 4 drops: 64,800 components.
    values = np.zeros((1080, 1920))
    values[0::8, 0::8] = 10.0
    values[0::8, 1::8] = 20.0
    values[1::8, 0::8] = 30.0
    values[1::8, 1::8] = 40.0
    values[4::8, 4::8] = 50.0
    d = DiffImage(values)
    assert ndimage.label(d.values > 5.0, structure=np.ones((3, 3)))[1] == 64_800
    blobs = detect_blobs(d, 5.0, 4)
    assert len(blobs) == 135 * 240
    assert all(b.area == 4 and b.total_mass == 100.0 and b.peak == 40.0 for b in blobs)
    # Equal masses keep scan order; each centroid sits (0.6, 0.7) px from the
    # dot's top-left pixel.
    for index, (row, col) in {0: (0, 0), 239: (0, 239), 240: (1, 0), 32_399: (134, 239)}.items():
        assert blobs[index].centroid.u == pytest.approx(8 * col + 0.6, abs=1e-9)
        assert blobs[index].centroid.v == pytest.approx(8 * row + 0.7, abs=1e-9)


# ---------------------------------------------------------------------------
# detect_contacts: the windowed pipeline against the full-frame composition


def full_frame_pipeline(ref, frame, sigma, threshold, min_area) -> list[ContactBlob]:
    return detect_blobs(smooth(subtract_reference(ref, frame), sigma), threshold, min_area)


def assert_pipeline_matches(ref, frame, sigma: float, threshold: float, min_area: int) -> list:
    ref, frame = TactileImage(ref), TactileImage(frame)
    blobs = detect_contacts(ref, frame, sigma, threshold, min_area)
    assert blobs == full_frame_pipeline(ref, frame, sigma, threshold, min_area)
    return blobs


@pytest.fixture
def smoothed_shapes(monkeypatch) -> list:
    """Record the shape of every image ``detect_contacts`` smooths."""
    shapes = []
    original = imaging._smoothed

    def recording(diff, sigma, origin):
        shapes.append(diff.shape)
        return original(diff, sigma, origin)

    monkeypatch.setattr(imaging, "_smoothed", recording)
    return shapes


@st.composite
def contact_frames(draw):
    height, width = draw(st.integers(1, 64)), draw(st.integers(1, 96))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v, u = np.mgrid[0:height, 0:width]
    scene = 100.0 + 40.0 * np.sin(v / 7.0) * np.cos(u / 11.0)
    noise = draw(st.sampled_from([0.0, 1.0, 4.0]))
    reference = np.rint(scene + rng.normal(0.0, 3.0, scene.shape))
    frame = np.rint(scene + rng.normal(0.0, noise, scene.shape))
    # Several imprints, brighter or darker, often on an edge or a corner.
    rows = st.sampled_from([0, height - 1]) | st.integers(0, height - 1)
    cols = st.sampled_from([0, width - 1]) | st.integers(0, width - 1)
    for _ in range(draw(st.integers(0, 4))):
        centre_v, centre_u = draw(rows), draw(cols)
        spread = draw(st.floats(0.5, 6.0))
        amplitude = draw(st.integers(-100, 100))
        frame += np.rint(
            amplitude * np.exp(-((v - centre_v) ** 2 + (u - centre_u) ** 2) / (2 * spread**2))
        )
    threshold = draw(
        st.sampled_from([0.5, 5.5, 25.0, 26.0])
        | st.integers(1, 60).map(float)
        | st.floats(0.01, 80.0)
    )
    if draw(st.booleans()):
        # A plateau whose difference is exactly the integer part of the threshold.
        top, left = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
        size_v, size_u = draw(st.integers(1, 32)), draw(st.integers(1, 32))
        plateau = (slice(top, top + size_v), slice(left, left + size_u))
        frame[plateau] = reference[plateau] + math.floor(threshold)
    sigma = draw(st.sampled_from([0.0, 0.45, 0.5, 1.45, 2.0, 2.5, float(max(height, width) + 3)]))
    return (
        np.clip(reference, 0, 255).astype(np.uint8),
        np.clip(frame, 0, 255).astype(np.uint8),
        sigma,
        threshold,
        draw(st.integers(1, 20)),
    )


@settings(max_examples=300, deadline=None)
@given(contact_frames())
def test_detect_contacts_matches_full_frame_pipeline(case):
    assert_pipeline_matches(*case)


def test_detect_contacts_integer_plateau_rounds_above_threshold():
    # The blurred mean of a plateau at 26 rounds to just above 26 at sigma 2,
    # so the plateau is a blob although no difference exceeds the threshold.
    ref = np.full((48, 64), 100, dtype=np.uint8)
    frame = ref.copy()
    frame[10:30, 20:40] += 26
    (blob,) = assert_pipeline_matches(ref, frame, 2.0, 26.0, 1)
    assert blob.peak > 26.0


def test_detect_contacts_blobs_at_corners_and_edges():
    rng = np.random.default_rng(11)
    ref = rng.integers(90, 110, size=(60, 90), dtype=np.uint8)
    frame = ref.copy()
    for v, u in [(0, 0), (0, 89), (59, 0), (59, 89), (30, 0), (0, 45), (30, 45)]:
        frame[max(v - 3, 0) : v + 4, max(u - 3, 0) : u + 4] = 230
    for sigma in (0.0, 0.45, 0.5, 2.0, 2.5):
        assert len(assert_pipeline_matches(ref, frame, sigma, 25.0, 1)) == 7


def test_detect_contacts_faint_rim_at_small_sigma():
    # At sigma 0.45 (radius 1) a bright seed lifts its neighbours above the
    # threshold, and the blob's mass depends on the noisy pixels one step
    # beyond them: the crop must reach two radii past the seeds.
    rng = np.random.default_rng(12)
    ref = np.full((40, 50), 100, dtype=np.uint8)
    frame = ref + rng.integers(0, 10, size=ref.shape, dtype=np.uint8)
    frame[20, 25] = 255
    (blob,) = assert_pipeline_matches(ref, frame, 0.45, 10.0, 1)
    assert blob.area == 5  # the seed and its four edge neighbours


def test_detect_contacts_threshold_below_one_smooths_whole_frame(smoothed_shapes):
    rng = np.random.default_rng(13)
    ref = rng.integers(90, 110, size=(40, 50), dtype=np.uint8)
    assert_pipeline_matches(ref, ref, 2.0, 0.5, 1)  # every pixel is a seed
    assert smoothed_shapes == [(40, 50)]


def test_detect_contacts_smooths_only_the_window(smoothed_shapes):
    # One imprint on a 1080x1920 frame: smoothing and labelling cover the
    # pixels at or above the threshold's integer part, grown by twice the
    # kernel radius (6 px at sigma 2) on each side.
    ref = np.full((1080, 1920), 128, dtype=np.uint8)
    frame = ref.copy()
    frame[500:520, 1000:1030] = 200
    frame[495:500, 1000:1030] = 153  # exactly 25 above the reference: seeds
    (blob,) = assert_pipeline_matches(ref, frame, 2.0, 25.0, 20)
    assert smoothed_shapes == [(25 + 24, 30 + 24)]
    assert 1000 < blob.centroid.u < 1030 and 495 < blob.centroid.v < 520


def test_detect_contacts_no_seeds_skips_smoothing(smoothed_shapes):
    ref = np.full((30, 40), 128, dtype=np.uint8)
    frame = ref + 24  # one below the threshold everywhere
    assert assert_pipeline_matches(ref, frame, 2.0, 25.0, 1) == []
    assert smoothed_shapes == []


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), 300.0])
def test_detect_contacts_threshold_out_of_range_is_empty(threshold):
    ref = np.zeros((8, 8), dtype=np.uint8)
    assert assert_pipeline_matches(ref, ref + 255, 1.0, threshold, 1) == []


def test_detect_contacts_validates_like_the_stages():
    ref, frame = gray(128), gray(128)
    with pytest.raises(ValueError, match="dimension mismatch"):
        detect_contacts(ref, gray(128, (32, 31)), 2.0, 25.0, 1)
    with pytest.raises(ValueError, match="sigma"):
        detect_contacts(ref, frame, -1.0, 25.0, 1)
    with pytest.raises(ValueError, match="threshold"):
        detect_contacts(ref, frame, 2.0, 0.0, 1)


def test_detect_blobs_adds_origin_before_weighting():
    values = np.zeros((5, 6))
    values[1:3, 2:4] = [[10.0, 20.0], [30.0, 40.0]]
    (at_zero,) = detect_blobs(DiffImage(values), 5.0, 1)
    (moved,) = detect_blobs(DiffImage(values, (100, 1000)), 5.0, 1)
    assert moved.centroid == PixelCoord(at_zero.centroid.u + 1000, at_zero.centroid.v + 100)
    assert smooth(DiffImage(values, (100, 1000)), 1.0).origin == (100, 1000)


# ---------------------------------------------------------------------------
# localisation


def blob_at(u: float, v: float) -> ContactBlob:
    return ContactBlob(PixelCoord(u, v), area=25, peak=90.0, total_mass=2000.0)


def test_localize_apex(intrinsics, geometry):
    est = localize_contact(blob_at(960.0, 540.0), intrinsics, geometry)
    assert (est.point.x, est.point.y, est.point.z) == (0.0, 0.0, 40.0)


def test_localize_side_point(intrinsics, geometry):
    est = localize_contact(blob_at(1160.0, 540.0), intrinsics, geometry)
    np.testing.assert_allclose(
        [est.point.x, est.point.y, est.point.z], [10.0, 0.0, 15.0], atol=1e-12
    )
    assert est.pixel.u == 1160.0


def test_localize_far_pixel_lands_near_base(intrinsics, geometry):
    # The membrane encloses the camera: even absurdly remote centroids map to
    # a point near the base rim rather than failing.
    est = localize_contact(blob_at(1e6, 540.0), intrinsics, geometry)
    assert est.point.region is Region.SIDE
    assert 0.0 < est.point.z < 0.01


def test_error_examples():
    apex = SurfacePoint(0.0, 0.0, 40.0, Region.TIP)
    assert localization_error(ContactEstimate(PixelCoord(0, 0), apex), apex) == 0.0
    low = SurfacePoint(0.0, 0.0, 37.0, Region.TIP)
    assert localization_error(ContactEstimate(PixelCoord(0, 0), apex), low) == 3.0
    a = SurfacePoint(3.0, 4.0, 0.0, Region.SIDE)
    origin = SurfacePoint(0.0, 0.0, 0.0, Region.SIDE)
    assert localization_error(ContactEstimate(PixelCoord(0, 0), a), origin) == 5.0


def test_error_is_a_metric():
    rng = np.random.default_rng(17)
    pts = [
        SurfacePoint(*rng.uniform(-10, 10, size=3), Region.TIP) for _ in range(30)
    ]
    for a, b, c in zip(pts[::3], pts[1::3], pts[2::3]):
        ea = ContactEstimate(PixelCoord(0, 0), a)
        eb = ContactEstimate(PixelCoord(0, 0), b)
        ab = localization_error(ea, b)
        ba = localization_error(eb, a)
        assert ab == pytest.approx(ba, rel=1e-12)  # symmetry
        assert localization_error(ea, a) == 0.0  # identity
        # triangle inequality
        assert ab <= localization_error(ea, c) + localization_error(
            ContactEstimate(PixelCoord(0, 0), c), b
        ) + 1e-12


# ---------------------------------------------------------------------------
# aggregation


def records_for(errors_by_pose) -> list:
    recs = []
    for obj in ("cone", "sphere"):
        for pose, err in errors_by_pose:
            recs.append(ErrorRecord(obj, pose, err))
    return recs


def test_aggregate_constant_errors():
    poses = [
        (ContactPose.rotation(0.0), 2.0),
        (ContactPose.rotation(math.pi / 6), 2.0),
        (ContactPose.translation(5.0), 2.0),
    ]
    by_pose, by_object = aggregate_errors(records_for(poses))
    assert all(g.mean == 2.0 and g.std == 0.0 for g in by_pose)
    assert all(g.mean == 2.0 and g.std == 0.0 for g in by_object)
    assert [g.label for g in by_object] == ["cone", "sphere"]


def test_aggregate_sample_std():
    recs = [
        ErrorRecord("cone", ContactPose.rotation(0.0), 1.0),
        ErrorRecord("cone", ContactPose.rotation(0.0), 3.0),
    ]
    by_pose, by_object = aggregate_errors(recs)
    assert by_pose[0].mean == pytest.approx(2.0)
    assert by_pose[0].std == pytest.approx(math.sqrt(2.0), abs=1e-3)  # 1.414
    assert by_object[0].count == 2


def test_aggregate_orders_rotations_before_translations():
    recs = [
        ErrorRecord("cone", ContactPose.translation(15.0), 1.0),
        ErrorRecord("cone", ContactPose.translation(5.0), 1.0),
        ErrorRecord("cone", ContactPose.rotation(math.pi / 4), 1.0),
        ErrorRecord("cone", ContactPose.rotation(0.0), 1.0),
    ]
    by_pose, _ = aggregate_errors(recs)
    assert [g.label for g in by_pose] == [
        "rotation 0",
        "rotation pi/4",
        "translation 5",
        "translation 15",
    ]


def test_aggregate_permutation_invariance():
    rng = np.random.default_rng(23)
    poses = [(ContactPose.rotation(v), float(e)) for v, e in zip((0.0, 0.5, 1.0), (1, 4, 9))]
    recs = records_for(poses)
    base = aggregate_errors(recs)
    for _ in range(5):
        shuffled = list(recs)
        rng.shuffle(shuffled)
        result = aggregate_errors(shuffled)
        for got, want in zip(result[0], base[0]):
            assert got.label == want.label
            assert got.mean == pytest.approx(want.mean, rel=1e-12)
            assert got.std == pytest.approx(want.std, rel=1e-12)


def test_aggregate_rejects_empty_input():
    with pytest.raises(ValueError):
        aggregate_errors([])


def test_hardware_reference_tables_shape():
    assert len(HARDWARE_ERRORS_BY_POSE) == 8
    assert len(HARDWARE_ERRORS_BY_OBJECT) == 7
    assert HARDWARE_ERRORS_BY_OBJECT["cone"] == (3.63, 3.26)
    assert HARDWARE_ERRORS_BY_POSE["rotation pi/4"] == (1.04, 0.46)
