"""Tests for the contact detection and localisation pipeline."""

import csv
import io
import json
import math
import tracemalloc
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from fingersense import imaging, workers
from fingersense.cli import main
from fingersense.config import SessionConfig
from fingersense.geometry import (
    CameraIntrinsics,
    ContactPose,
    PixelCoord,
    Region,
    SurfacePoint,
    back_project,
)
from fingersense.imaging import (
    HARDWARE_ERRORS_BY_OBJECT,
    HARDWARE_ERRORS_BY_POSE,
    MAX_SIGMA_PX,
    ContactBlob,
    ContactEstimate,
    DiffImage,
    TactileImage,
    detect_contacts,
    localization_error,
    localize_frame,
)
from fingersense.render import (
    OBJECT_ORDER,
    _add_noise,
    _NoiseTable,
    default_indenter,
    protocol_poses,
    render_contact,
)
from oracle import detect_blobs, reference_frame, smooth, subtract_reference


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
    with pytest.raises(ValueError):
        DiffImage(np.full((4, 4), np.nan))


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
    for sigma in (-1.0, 1e5, 1e300):
        with pytest.raises(ValueError, match="sigma"):
            smooth(DiffImage(np.zeros((4, 4))), sigma)


# ---------------------------------------------------------------------------
# detect_blobs


def test_detect_nothing_in_zero_diff():
    assert detect_blobs(np.zeros((64, 64)), 25.0, 20) == []


def test_detect_centered_square():
    # 5x5 square at u = 100..104, v = 200..204: symmetric, so the centroid is
    # its centre (102, 202) and the area 25.
    values = np.zeros((300, 300))
    values[200:205, 100:105] = 80.0
    blobs = detect_blobs(values, 25.0, 20)
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
    blobs = detect_blobs(values, 25.0, 20)
    assert [round(b.total_mass) for b in blobs] == [3000, 1000]
    assert blobs[0].centroid.u == pytest.approx(64.5)


def test_detect_threshold_is_strict():
    values = np.zeros((50, 50))
    values[10:20, 10:20] = 25.0
    assert detect_blobs(values, 25.0, 20) == []
    values[10:20, 10:20] = 25.001
    assert len(detect_blobs(values, 25.0, 20)) == 1


def test_detect_min_area_filters_small_components():
    values = np.zeros((50, 50))
    values[5:10, 5:9] = 100.0  # 20 px: kept
    values[30:34, 30:34] = 100.0  # 16 px: dropped
    blobs = detect_blobs(values, 25.0, 20)
    assert len(blobs) == 1
    assert blobs[0].area == 20


def test_detect_diagonal_pixels_are_connected():
    # 8-connectivity joins corner-touching squares into one blob.
    values = np.zeros((60, 60))
    values[10:15, 10:15] = 50.0
    values[15:20, 15:20] = 50.0
    blobs = detect_blobs(values, 25.0, 20)
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
    (b0,) = detect_blobs(base, 25.0, 20)
    (b1,) = detect_blobs(shifted, 25.0, 20)
    assert b1.centroid.u - b0.centroid.u == pytest.approx(du, abs=1e-9)
    assert b1.centroid.v - b0.centroid.v == pytest.approx(dv, abs=1e-9)


def test_detect_rejects_nonpositive_threshold():
    with pytest.raises(ValueError):
        detect_blobs(np.zeros((4, 4)), 0.0, 1)
    with pytest.raises(ValueError, match=r"2D array, got shape \(5,\)"):
        detect_blobs(np.zeros(5), 1.0, 1)


def oracle_detect_blobs(values: np.ndarray, threshold: float, min_area: int) -> list[ContactBlob]:
    """Brute force: one full-frame mask per component, summed in scan order."""
    mask = values > threshold
    labels, n_labels = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))
    if n_labels == 0:
        return []
    v, u = np.mgrid[0 : values.shape[0], 0 : values.shape[1]]
    blobs = []
    for index in range(1, n_labels + 1):
        member = labels == index
        area = int(np.count_nonzero(member))
        if area < min_area:
            continue
        weights = values[member]
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
    blobs = detect_blobs(values, threshold, min_area)
    assert blobs == oracle_detect_blobs(values, threshold, min_area)
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
    assert ndimage.label(values > 5.0, structure=np.ones((3, 3)))[1] == 64_800
    blobs = detect_blobs(values, 5.0, 4)
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
    return detect_blobs(smooth(subtract_reference(ref, frame), sigma).values, threshold, min_area)


def assert_pipeline_matches(ref, frame, sigma: float, threshold: float, min_area: int) -> list:
    ref, frame = TactileImage(ref), TactileImage(frame)
    blobs = detect_contacts(ref, frame, sigma, threshold, min_area)
    assert blobs == full_frame_pipeline(ref, frame, sigma, threshold, min_area)
    return blobs


def record_shapes(monkeypatch, name: str) -> list:
    """Record, for every band that ``imaging.<name>`` filters, the padded shape it reads and the rows or pixels it filters."""
    shapes = []
    original = getattr(imaging, name)

    def recording(padded, *args):
        filtered = original(padded, *args)
        shapes.append((padded.shape, filtered.shape[0]))
        return filtered

    monkeypatch.setattr(imaging, name, recording)
    return shapes


@pytest.fixture
def read_shapes(monkeypatch) -> list:
    """The shape of each band's difference that ``detect_contacts`` reads, in order."""
    shapes = []
    original = imaging._abs_diff

    def recording(*args):
        diff = original(*args)
        shapes.append(diff.shape)
        return diff

    monkeypatch.setattr(imaging, "_abs_diff", recording)
    return shapes


@pytest.fixture
def smoothed_shapes(monkeypatch) -> list:
    """The bands whose passing pixels ``detect_contacts`` smooths exactly, and how many, as ``record_shapes`` records them."""
    return record_shapes(monkeypatch, "_gaussian_at")


@pytest.fixture
def bounded_shapes(monkeypatch) -> list:
    """The bands ``detect_contacts`` runs the integer bound over, as ``record_shapes`` records them."""
    return record_shapes(monkeypatch, "_bound")


def seed_crops(ref, frame, threshold: float, radius: int, band_rows: int) -> list:
    """``bounded_shapes`` as the per-band rules give it, from the whole difference.

    Each band of ``band_rows`` rows whose rows, with up to ``radius`` rows
    above and below, hold a seed is bounded once, over its seed columns grown
    by ``2 radius`` and clipped to the frame, then padded by ``radius``.
    """
    diff = np.abs(frame.astype(np.int16) - ref)
    height, width = diff.shape
    crops = []
    for start in range(0, height, band_rows):
        stop = min(start + band_rows, height)
        seeds = np.flatnonzero(diff[max(start - radius, 0) : stop + radius].max(axis=0) >= math.floor(threshold))
        if seeds.size:
            left, right = max(seeds[0] - 2 * radius, 0), min(seeds[-1] + 1 + 2 * radius, width)
            crops.append(((stop - start + 2 * radius, right - left + 2 * radius), stop - start))
    return crops


@st.composite
def contact_frames(draw):
    """Frames down to one row or column, with the band height detection is to use."""
    height = draw(st.sampled_from([1, 2]) | st.integers(1, 80))
    width = draw(st.sampled_from([1, 2]) | st.integers(1, 96))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v, u = np.mgrid[0:height, 0:width]
    scene = 100.0 + 40.0 * np.sin(v / 7.0) * np.cos(u / 11.0)
    noise = draw(st.sampled_from([0.0, 1.0, 4.0, 16.0, 64.0]))  # 16 and 64: seeds everywhere
    reference = np.rint(scene + rng.normal(0.0, max(noise, 3.0), scene.shape))
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
        st.sampled_from([0.25, 0.5, 0.99, 5.5, 25.0, 26.0, 255.0, 255.5, 256.0, 300.0])
        | st.integers(1, 60).map(float)
        | st.floats(0.01, 80.0)
    )
    if draw(st.booleans()):
        # A plateau whose difference is exactly the integer part of the threshold.
        top, left = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
        size_v, size_u = draw(st.integers(1, 32)), draw(st.integers(1, 32))
        plateau = (slice(top, top + size_v), slice(left, left + size_u))
        frame[plateau] = reference[plateau] + math.floor(threshold)
    sigma = draw(
        st.sampled_from([0.0, 0.45, 0.5, 1.45, 2.0, 2.5, float(max(height, width) + 3), MAX_SIGMA_PX])
        | st.floats(0.0, MAX_SIGMA_PX)
    )
    return (
        np.clip(reference, 0, 255).astype(np.uint8),
        np.clip(frame, 0, 255).astype(np.uint8),
        sigma,
        threshold,
        draw(st.integers(1, 20)),
        draw(st.integers(1, 4) | st.integers(1, 90)),
    )


@settings(max_examples=300, deadline=None)
@given(contact_frames())
def test_detect_contacts_matches_full_frame_pipeline(case):
    *pipeline_case, band_rows = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(imaging, "DETECT_BAND_ROWS", band_rows)
        assert_pipeline_matches(*pipeline_case)


def test_detect_contacts_smooths_in_bands_with_a_halo(monkeypatch, read_shapes, smoothed_shapes):
    # Every pixel passes, so every pixel of each band is smoothed: at sigma 2
    # the radius is 6, and each band of 8 rows reads its difference once, with
    # up to one radius of the frame above and below it, pads it by one radius
    # and smooths only its own 8 x 50 pixels.
    monkeypatch.setattr(imaging, "DETECT_BAND_ROWS", 8)
    rng = np.random.default_rng(14)
    ref = rng.integers(90, 110, size=(40, 50), dtype=np.uint8)
    assert len(assert_pipeline_matches(ref, ref + 60, 2.0, 25.0, 1)) == 1
    assert read_shapes == [(8 + 6, 50)] + [(6 + 8 + 6, 50)] * 3 + [(6 + 8, 50)]
    assert smoothed_shapes == [((6 + 8 + 6, 6 + 50 + 6), 400)] * 5
    # At sigma 0 there is no halo, each band is cropped to its own seed
    # columns, and the pixels smoothed are just those whose difference
    # reaches the threshold's integer part.
    read_shapes.clear()
    smoothed_shapes.clear()
    monkeypatch.setattr(imaging, "DETECT_BAND_ROWS", 1)
    frame = ref + rng.integers(0, 60, size=ref.shape, dtype=np.uint8)
    assert_pipeline_matches(ref, frame, 0.0, 25.0, 1)
    assert read_shapes == [(1, 50)] * 40
    seeds = [np.flatnonzero(row) for row in frame - ref >= 25]
    assert smoothed_shapes == [((1, cols[-1] + 1 - cols[0]), cols.size) for cols in seeds]


def test_detect_contacts_crops_each_band_to_its_own_seeds(monkeypatch, bounded_shapes):
    # A wedge that widens and leans from band to band: each band is cropped
    # to its own seed columns, so adjacent bands crop differently, yet the
    # wedge labels as one component across them.
    monkeypatch.setattr(imaging, "DETECT_BAND_ROWS", 4)
    rng = np.random.default_rng(18)
    ref = rng.integers(90, 110, size=(60, 80), dtype=np.uint8)
    frame = ref.copy()
    for v in range(8, 48):
        frame[v, 30 - (v - 8) // 2 : 33 + (v - 8)] += 60
    (blob,) = assert_pipeline_matches(ref, frame, 1.0, 25.0, 1)
    crops = seed_crops(ref, frame, 25.0, 3, 4)
    assert bounded_shapes == crops
    assert len({shape for shape, _ in crops}) > 5
    assert 8 < blob.centroid.v < 48


def test_detect_contacts_bounds_a_band_whose_seed_is_only_in_its_halo(monkeypatch, bounded_shapes, smoothed_shapes):
    # One seed in the second band's second row, radius 3 at sigma 1: the
    # first band holds no seed itself but reads the seed in its halo rows, and
    # its last rows lie above the threshold, so the blob spans both bands.
    monkeypatch.setattr(imaging, "DETECT_BAND_ROWS", 8)
    ref = np.full((40, 50), 100, dtype=np.uint8)
    frame = ref.copy()
    frame[9, 20] = 255
    (blob,) = assert_pipeline_matches(ref, frame, 1.0, 2.5, 1)
    assert bounded_shapes == seed_crops(ref, frame, 2.5, 3, 8) == [((8 + 6, 1 + 12 + 6), 8)] * 2
    assert [pixels > 0 for _, pixels in smoothed_shapes] == [True, True]
    assert blob.area == 1 + 3 + 5 + 3 + 1  # rows 7 to 11


def traced_peak(function, *args) -> int:
    """Bytes ``tracemalloc`` sees at the peak of one call."""
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def noisy_pair(seed: int, shape: tuple[int, int] = (1080, 1920)) -> list[np.ndarray]:
    """A reference and a frame of ``shape``, 1920x1080 pixels by default, each with sigma-16 noise around 128."""
    rng = np.random.default_rng(seed)
    return [np.clip(np.rint(128.0 + rng.normal(0.0, 16.0, shape)), 0, 255).astype(np.uint8)
            for _ in range(2)]


def test_detect_contacts_memory_stays_below_a_frame():
    # Worker processes localise frames side by side, so each must stay small:
    # a float64 1920x1080 frame alone is 15.8 MiB.  Each case runs once
    # untraced first, so the measurement sees only the call's own arrays.
    noisy = noisy_pair(15)
    noisy[1][500:520, 1000:1030] = 230
    ref, frame = TactileImage(noisy[0]), TactileImage(noisy[1])
    heaviest = detect_contacts(ref, frame, 2.0, 25.0, 20)[0]
    assert 1000 < heaviest.centroid.u < 1030 and 500 < heaviest.centroid.v < 520
    assert traced_peak(detect_contacts, ref, frame, 2.0, 25.0, 20) <= 12 * 2**20

    config = SessionConfig()
    indenter = default_indenter("cone", ContactPose.rotation(0.0), config.geometry)
    clean = render_contact(indenter, config.geometry, config.intrinsics)
    reference = reference_frame(config.intrinsics)
    assert len(detect_contacts(reference, clean, 2.0, 25.0, 20)) == 1
    assert traced_peak(detect_contacts, reference, clean, 2.0, 25.0, 20) <= 2 * 2**20


def test_detect_contacts_memory_stays_bounded_without_smoothing():
    # Unsmoothed, about a quarter of a sigma-16 frame passes the threshold, in
    # over 100k components, so labelling must hold int32 indices and drop
    # each array once used.
    ref, frame = (TactileImage(pixels) for pixels in noisy_pair(16))
    assert len(detect_contacts(ref, frame, 0.0, 25.0, 20)) > 4000
    assert traced_peak(detect_contacts, ref, frame, 0.0, 25.0, 20) <= 32 * 2**20


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


def test_detect_contacts_threshold_below_one_bounds_whole_frame(read_shapes, bounded_shapes, smoothed_shapes):
    # Every pixel is a seed, so the one band is bounded over the whole frame,
    # padded by the radius of 6.  But the frame equals its reference, so the
    # bound is 0 and no pixel is smoothed.
    rng = np.random.default_rng(13)
    ref = rng.integers(90, 110, size=(40, 50), dtype=np.uint8)
    assert assert_pipeline_matches(ref, ref, 2.0, 0.5, 1) == []
    assert read_shapes == [(40, 50)]
    assert bounded_shapes == [((6 + 40 + 6, 6 + 50 + 6), 40)]
    assert smoothed_shapes == []


def test_detect_contacts_smooths_only_the_window(read_shapes, bounded_shapes, smoothed_shapes):
    # One imprint on a 1080x1920 frame, in rows 495 to 519, which only the
    # 64-row bands at rows 448 and 512 reach with their halo of one kernel
    # radius (6 px at sigma 2).  Every band reads its difference once, but
    # only those two are bounded, each over the seed columns grown by twice
    # the radius, 30 + 24 columns, then padded by the radius.  The pixels
    # smoothed exactly are at most those within one radius of the imprint,
    # and at least the blob's.
    ref = np.full((1080, 1920), 128, dtype=np.uint8)
    frame = ref.copy()
    frame[500:520, 1000:1030] = 200
    frame[495:500, 1000:1030] = 153  # exactly 25 above the reference: seeds
    (blob,) = assert_pipeline_matches(ref, frame, 2.0, 25.0, 20)
    assert len(read_shapes) == 17 and all(width == 1920 for _, width in read_shapes)
    assert bounded_shapes == seed_crops(ref, frame, 25.0, 6, 64) == [((6 + 64 + 6, 6 + 54 + 6), 64)] * 2
    assert [shape for shape, _ in smoothed_shapes] == [(6 + 64 + 6, 6 + 54 + 6)] * 2
    assert blob.area <= sum(pixels for _, pixels in smoothed_shapes) <= (25 + 12) * (30 + 12)
    assert 1000 < blob.centroid.u < 1030 and 495 < blob.centroid.v < 520


def test_detect_contacts_no_seeds_skips_smoothing(bounded_shapes, smoothed_shapes):
    ref = np.full((30, 40), 128, dtype=np.uint8)
    frame = ref + 24  # one below the threshold everywhere
    assert assert_pipeline_matches(ref, frame, 2.0, 25.0, 1) == []
    assert bounded_shapes == [] and smoothed_shapes == []


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), 300.0])
def test_detect_contacts_threshold_out_of_range_is_empty(threshold):
    ref = np.zeros((8, 8), dtype=np.uint8)
    assert assert_pipeline_matches(ref, ref + 255, 1.0, threshold, 1) == []


def test_detect_contacts_validates_like_the_stages():
    ref, frame = gray(128), gray(128)
    with pytest.raises(ValueError, match="dimension mismatch"):
        detect_contacts(ref, gray(128, (32, 31)), 2.0, 25.0, 1)
    for sigma in (-1.0, 1e5, 1e300):
        with pytest.raises(ValueError, match="sigma"):
            detect_contacts(ref, frame, sigma, 25.0, 1)
    with pytest.raises(ValueError, match="threshold"):
        detect_contacts(ref, frame, 2.0, 0.0, 1)


def test_detect_contacts_on_a_whole_noisy_frame_needs_no_scipy(monkeypatch, read_shapes, bounded_shapes,
                                                              smoothed_shapes):
    # Sigma-16 noise puts seeds in every column of every band, so each band
    # reads its difference once and is bounded at full width, padded by the
    # radius of 6, but only the few pixels that can pass are smoothed
    # exactly: at most 1% of the frame (about 0.13%).  Everything runs in
    # NumPy.
    ref, frame = (TactileImage(pixels) for pixels in noisy_pair(16))
    want = full_frame_pipeline(ref, frame, 2.0, 25.0, 20)

    def no_scipy():
        raise AssertionError("detection reached for scipy.ndimage")

    monkeypatch.delitem(vars(imaging), "ndimage", raising=False)
    monkeypatch.setattr(imaging, "_ndimage", no_scipy)
    assert detect_contacts(ref, frame, 2.0, 25.0, 20) == want
    assert len(read_shapes) == 17 and all(width == 1920 for _, width in read_shapes)
    assert sum(rows for _, rows in bounded_shapes) == 1080
    assert all(shape[1] == 6 + 1920 + 6 for shape, _ in bounded_shapes)
    smoothed_px = sum(pixels for _, pixels in smoothed_shapes)
    assert 0 < smoothed_px <= 0.01 * 1080 * 1920


@pytest.mark.parametrize("sigma", [16.0, 24.0, 32.0, 42.0, 43.0])
def test_detect_contacts_smooths_few_noise_pixels_exactly_at_any_sigma(smoothed_shapes, sigma):
    # Axis 0 of the integer bound once summed in uint16 up to 257 taps, where
    # the tail weights rounded up so far that at sigma 24 to 42 the bound
    # passed nearly every pixel of sigma-16 noise, and each was smoothed
    # exactly: 10-30 times the work of sigma 16 or 43.
    ref, frame = (TactileImage(pixels) for pixels in noisy_pair(16, (240, 320)))
    assert detect_contacts(ref, frame, sigma, 25.0, 20) == full_frame_pipeline(ref, frame, sigma, 25.0, 20)
    smoothed_px = sum(pixels for _, pixels in smoothed_shapes)
    assert smoothed_px <= 0.01 * 240 * 320


@pytest.fixture(scope="module")
def protocol_noise():
    """The sigma-16 noise table of ``dataset --noise 16`` and its noisy default-camera reference."""
    noise = _NoiseTable.for_sigma(16.0)
    reference = reference_frame(SessionConfig().intrinsics).pixels.copy()
    _add_noise(reference, noise, np.random.default_rng(0))
    return noise, TactileImage(reference)


@pytest.mark.parametrize("pose_index", range(8))
def test_detect_contacts_matches_full_frame_pipeline_on_noisy_protocol_frames(protocol_noise, pose_index):
    # The real workload's statistics: a rendered protocol frame, one per pose
    # and each of another object, with the dataset's sigma-16 pixel noise, at
    # the default camera and detection settings.
    noise, reference = protocol_noise
    config = SessionConfig()
    pose = protocol_poses()[pose_index]
    indenter = default_indenter(OBJECT_ORDER[pose_index % len(OBJECT_ORDER)], pose, config.geometry)
    pixels = render_contact(indenter, config.geometry, config.intrinsics).pixels.copy()
    _add_noise(pixels, noise, np.random.default_rng(1 + pose_index))
    frame = TactileImage(pixels)
    detection = (config.sigma_px, config.threshold, config.min_area_px)
    blobs = detect_contacts(reference, frame, *detection)
    assert blobs and blobs == full_frame_pipeline(reference, frame, *detection)


# ---------------------------------------------------------------------------
# smoothing and labelling in NumPy, against SciPy


@st.composite
def uint8_images(draw, max_side=40):
    """Images from 1xN to Nx1, often with a side of one or two pixels."""
    height = draw(st.sampled_from([1, 2]) | st.integers(1, max_side))
    width = draw(st.sampled_from([1, 2]) | st.integers(1, max_side))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.integers(0, 256, size=(height, width), dtype=np.uint8)


@st.composite
def pixel_subsets(draw, shape: tuple[int, int], radius: int) -> np.ndarray:
    """Sorted flat indices of some pixels of an array of ``shape``, at least one.

    They mix single pixels, runs, and pairs ``2 r``, ``2 r + 1`` or
    ``2 r + 2`` columns apart, whose ranges grown by ``radius`` overlap,
    touch or part, often at the row ends and in the first and last rows;
    sometimes a random share of every pixel too.
    """
    height, width = shape
    rows = st.sampled_from([0, height - 1]) | st.integers(0, height - 1)
    columns = st.sampled_from([0, width - 1]) | st.integers(0, width - 1)
    chosen = set()
    for _ in range(draw(st.integers(1, 6))):
        row, column = draw(rows), draw(columns)
        kind = draw(st.sampled_from(["pixel", "run", "pair"]))
        if kind == "pixel":
            picked = [column]
        elif kind == "run":
            picked = range(column, column + draw(st.integers(1, width)))
        else:
            picked = [column, column + 2 * radius + draw(st.integers(0, 2))]
        chosen.update(row * width + c for c in picked if c < width)
    share = draw(st.sampled_from([0.0, 0.05, 0.5, 0.95]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    chosen.update(np.flatnonzero(rng.random(height * width) < share).tolist())
    return np.array(sorted(chosen))


def assert_smoothing_matches(image, rows: slice, sigma: float, want: np.ndarray, pixels: np.ndarray) -> None:
    """``_gaussian_at`` at ``pixels`` of ``rows`` of ``image`` has the bits of ``want.flat[pixels]``."""
    kernel = imaging._kernel(sigma)
    start, stop, _ = rows.indices(image.shape[0])
    got = imaging._gaussian_at(imaging._padded(image, kernel.size // 2, start, stop), kernel, pixels)
    assert got.shape == pixels.shape and got.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64), want.ravel()[pixels].view(np.uint64))


@settings(max_examples=300, deadline=None)
@given(
    uint8_images(),
    st.sampled_from([0.0, 1e-15, 1e-14, 0.45, 0.5, 2.0, 7.0, MAX_SIGMA_PX])
    | st.floats(0.0, MAX_SIGMA_PX),
    st.data(),
)
def test_numpy_smoothing_matches_scipy_bits(image, sigma, data):
    # At every pixel, then at some.  At sigma <= 1e-15 the radius is 0, and at
    # sigma >= 7 the radius (22 px or more) can exceed both sides.
    want = ndimage.gaussian_filter(image, sigma, output=np.float64, truncate=3.0, mode="nearest")
    assert_smoothing_matches(image, slice(None), sigma, want, np.arange(image.size))
    radius = int(3.0 * sigma + 0.5) if sigma > 1e-15 else 0
    assert_smoothing_matches(image, slice(None), sigma, want, data.draw(pixel_subsets(image.shape, radius)))


@settings(max_examples=300, deadline=None)
@given(uint8_images(max_side=60), st.data())
def test_numpy_smoothing_of_a_halo_band_matches_scipy_rows(image, data):
    # A band of rows read with up to one radius of the image above and below
    # it, as detect_contacts reads its crop, often at the top or bottom edge;
    # at sigma >= 20 the radius exceeds every band and image.  Smoothed at
    # every pixel of the band, then at some.
    height = image.shape[0]
    sigma = data.draw(
        st.sampled_from([0.0, 1e-15, 0.45, 2.0, 7.0, 20.0, MAX_SIGMA_PX]) | st.floats(0.0, MAX_SIGMA_PX)
    )
    start = data.draw(st.sampled_from([0, height - 1]) | st.integers(0, height - 1))
    stop = data.draw(st.sampled_from([start + 1, height]) | st.integers(start + 1, height))
    radius = int(3.0 * sigma + 0.5) if sigma > 1e-15 else 0
    lo, hi = max(start - radius, 0), min(stop + radius, height)
    want = ndimage.gaussian_filter(image, sigma, output=np.float64, truncate=3.0, mode="nearest")[start:stop]
    band = slice(start - lo, stop - lo)
    assert_smoothing_matches(image[lo:hi], band, sigma, want, np.arange(want.size))
    assert_smoothing_matches(image[lo:hi], band, sigma, want, data.draw(pixel_subsets(want.shape, radius)))


@st.composite
def bound_images(draw):
    """Images as ``uint8_images``, or at the extremes: all 255, all 0, or 0 and 255 mixed."""
    image = draw(uint8_images(max_side=60))
    extreme = draw(st.sampled_from(["none", "all 255", "all 0", "mixed"]))
    if extreme == "all 255":
        image[:] = 255
    elif extreme == "all 0":
        image[:] = 0
    elif extreme == "mixed":
        image = np.where(image < 128, 0, 255).astype(np.uint8)
    return image


@settings(max_examples=300, deadline=None)
@given(
    bound_images(),
    # Axis 0 sums in uint16 up to sigma 17.14 and in uint32 from 17.15.
    # Radius 128 is the most uint16 could hold (2 r + 1 = 257 taps); sigma
    # 42.8 is its last sigma and 42.9 the first of radius 129.
    st.sampled_from([0.0, 1e-15, 0.45, 2.0, 7.0, 17.14, 17.15, 42.5, 42.8, 42.9, 43.2, MAX_SIGMA_PX])
    | st.floats(0.0, MAX_SIGMA_PX),
    st.data(),
)
def test_integer_bound_passes_every_pixel_above_the_threshold(image, sigma, data):
    # Integer thresholds, which a plateau at that difference can round just
    # above; thresholds just below a difference in the image, which an
    # unsmoothed pixel passes by a hair; and any value up to 256.
    kind = data.draw(st.sampled_from(["integer", "below a difference", "any"]))
    if kind == "integer":
        threshold = float(data.draw(st.sampled_from([1, 25, 254, 255]) | st.integers(1, 255)))
    elif kind == "below a difference":
        value = float(data.draw(st.sampled_from(sorted(set(image.ravel().tolist()) - {0}) or [1])))
        threshold = data.draw(st.sampled_from([value * (1 - 1e-6), value - 0.5, value - 1e-9]))
    else:
        threshold = data.draw(st.floats(0.01, 255.99))
    want = ndimage.gaussian_filter(image, sigma, output=np.float64, truncate=3.0, mode="nearest") > threshold
    axis0, axis1, limit = imaging._bound_weights(imaging._kernel(sigma), threshold)
    assert 255 * sum(axis0) * sum(axis1) < 2**32
    bound = imaging._bound(imaging._padded(image, len(axis0) // 2, 0, image.shape[0]), axis0, axis1)
    assert bound.shape == image.shape and bound.dtype == np.uint32
    assert not np.any(want & (bound <= limit))


def assert_labels_match_ndimage(mask: np.ndarray) -> int:
    pixels, owner = imaging._label_runs(np.flatnonzero(mask), mask.shape[1])
    labels = np.zeros(mask.shape, dtype=np.int64)
    labels.ravel()[pixels] = owner
    want, count = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))
    np.testing.assert_array_equal(pixels, np.flatnonzero(mask))
    np.testing.assert_array_equal(labels, want)
    return count


@settings(max_examples=300, deadline=None)
@given(uint8_images(max_side=64), st.integers(0, 256))
def test_numpy_labels_match_ndimage(image, level):
    # Pixels below a uniform level: foreground densities from 0 to 1.
    assert_labels_match_ndimage(image < level)


@pytest.mark.parametrize("sigma, share", [(2.0, (0.0, 0.01)), (0.0, (0.2, 0.3))])
def test_numpy_labels_match_ndimage_on_a_whole_noisy_frame(sigma, share):
    # Thresholded at 25, a sigma-16 difference smoothed at sigma 2 leaves
    # sparse blobs; unsmoothed, it leaves about a quarter of the pixels in
    # short runs.
    ref, frame = (TactileImage(pixels) for pixels in noisy_pair(17))
    mask = smooth(subtract_reference(ref, frame), sigma).values > 25.0
    assert share[0] < np.count_nonzero(mask) / mask.size < share[1]
    assert assert_labels_match_ndimage(mask) > 100


def test_numpy_labels_checkerboard_and_serpentine():
    board = np.add.outer(np.arange(37), np.arange(41)) % 2 == 0
    assert assert_labels_match_ndimage(board) == 1
    assert assert_labels_match_ndimage(~board) == 1
    # Two paths through 20 rows each, every row joined to the next at
    # alternate ends, the second one mirrored.
    snake = np.zeros((39, 61), dtype=bool)
    snake[::2, :30] = True
    snake[1::4, 29] = True
    snake[3::4, 0] = True
    snake[::2, 31:] = True
    snake[1::4, 31] = True
    snake[3::4, 60] = True
    assert assert_labels_match_ndimage(snake) == 2
    assert assert_labels_match_ndimage(snake[::-1]) == 2
    assert assert_labels_match_ndimage(np.zeros((3, 4), dtype=bool)) == 0


# ---------------------------------------------------------------------------
# localisation


def test_localize_frame_back_projects_the_heaviest_blob():
    config = SessionConfig()
    ref = np.full((config.intrinsics.height, config.intrinsics.width), 100, dtype=np.uint8)
    frame = ref.copy()
    frame[530:551, 1150:1171] = 200  # heavier, centred on (1160, 540)
    frame[100:110, 100:110] = 200  # lighter, first in scan order
    ref, frame = TactileImage(ref), TactileImage(frame)
    heaviest, _ = detect_contacts(ref, frame, 2.0, 25.0, 20)
    est = localize_frame(ref, frame, config)
    assert est.pixel == heaviest.centroid
    assert est.point == back_project(heaviest.centroid, config.intrinsics, config.geometry)
    np.testing.assert_allclose(
        [est.point.x, est.point.y, est.point.z], [10.0, 0.0, 15.0], atol=1e-9
    )
    assert localize_frame(ref, ref, config) is None


def _frame_with_blob(config: SessionConfig, u: int, v: int) -> tuple[TactileImage, TactileImage]:
    shape = (config.intrinsics.height, config.intrinsics.width)
    ref = np.full(shape, 100, dtype=np.uint8)
    frame = ref.copy()
    frame[v - 10 : v + 11, u - 10 : u + 11] = 200  # square blob centred on (u, v)
    return TactileImage(ref), TactileImage(frame)


def test_localize_apex():
    config = SessionConfig()
    est = localize_frame(*_frame_with_blob(config, 960, 540), config)
    np.testing.assert_allclose([est.pixel.u, est.pixel.v], [960.0, 540.0], atol=1e-9)
    assert est.point.region is Region.TIP
    np.testing.assert_allclose(
        [est.point.x, est.point.y, est.point.z], [0.0, 0.0, 40.0], atol=1e-9
    )


def test_localize_far_pixel_lands_near_base():
    # The membrane encloses the camera: a centroid far from the principal
    # point in focal units (here the frame edge at alpha = 0.3 px) maps to a
    # point near the base rim rather than failing.
    config = SessionConfig(intrinsics=CameraIntrinsics(alpha=0.3))
    est = localize_frame(*_frame_with_blob(config, 1900, 540), config)
    assert est.point.region is Region.SIDE
    assert 0.0 < est.point.z < 0.01


def test_error_examples():
    apex = SurfacePoint(0.0, 0.0, 40.0, Region.TIP)
    assert localization_error(ContactEstimate(PixelCoord(0, 0), apex), apex) == 0.0
    low = SurfacePoint(0.0, 0.0, 37.0, Region.TIP)
    assert localization_error(ContactEstimate(PixelCoord(0, 0), apex), low) == 3.0
    assert localization_error(ContactEstimate(PixelCoord(0, 0), apex), (0.0, 0.0, 37.0)) == 3.0
    far = ContactEstimate(PixelCoord(0, 0), SurfacePoint(0.0, 0.0, 1e200, Region.TIP))
    assert localization_error(far, (0.0, 0.0, -1e200)) == math.inf  # no OverflowError
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
# hardware tables


def test_hardware_reference_tables_shape():
    assert len(HARDWARE_ERRORS_BY_POSE) == 8
    assert len(HARDWARE_ERRORS_BY_OBJECT) == 7
    assert HARDWARE_ERRORS_BY_OBJECT["cone"] == (3.63, 3.26)
    assert HARDWARE_ERRORS_BY_POSE["rotation pi/4"] == (1.04, 0.46)


# ---------------------------------------------------------------------------
# error tables: localize groups the pipeline's errors by pose and by object


def group_tables(directory, monkeypatch, protocol_dataset, records) -> tuple[list[dict], list[dict]]:
    """The rows of ``by_pose.csv`` and ``by_object.csv`` for ``(object, pose, error_mm)`` records.

    Localisation is stubbed to give each entry's error, carried in its
    ``truth_mm[0]``, so the tables hold exactly the chosen errors.
    """
    out_dir, _ = protocol_dataset
    directory.mkdir()
    (directory / "reference.pgm").symlink_to(out_dir / "reference.pgm")
    manifest = [
        {"object": obj, "pose_kind": pose.kind.value, "pose_value": pose.value, "reference": "reference.pgm",
         "frame": "reference.pgm", "truth_mm": [error, 0.0, 0.0]}
        for obj, pose, error in records
    ]
    (directory / "manifest.json").write_text(json.dumps(manifest))
    monkeypatch.setattr(imaging, "localize_frame", lambda reference, frame, config: object())
    monkeypatch.setattr(imaging, "localization_error", lambda estimate, truth_mm: truth_mm[0])
    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)  # inline, so the stubs hold
    with redirect_stdout(io.StringIO()):
        assert main(["localize", "--manifest", str(directory / "manifest.json")]) == 0

    def table(name: str) -> list[dict]:
        with (directory / name).open(newline="") as fh:
            return [
                {**row, "mean_mm": float(row["mean_mm"]), "std_mm": float(row["std_mm"]), "count": int(row["count"])}
                for row in csv.DictReader(fh)
            ]

    return table("by_pose.csv"), table("by_object.csv")


def records_for(errors_by_pose) -> list:
    return [(obj, pose, err) for obj in ("cone", "sphere") for pose, err in errors_by_pose]


def test_aggregate_constant_errors(tmp_path, monkeypatch, protocol_dataset):
    poses = [
        (ContactPose.rotation(0.0), 2.0),
        (ContactPose.rotation(math.pi / 6), 2.0),
        (ContactPose.translation(5.0), 2.0),
    ]
    by_pose, by_object = group_tables(tmp_path / "run", monkeypatch, protocol_dataset, records_for(poses))
    assert all(g["mean_mm"] == 2.0 and g["std_mm"] == 0.0 for g in by_pose)
    assert all(g["mean_mm"] == 2.0 and g["std_mm"] == 0.0 for g in by_object)
    assert [g["object"] for g in by_object] == ["cone", "sphere"]


def test_aggregate_sample_std(tmp_path, monkeypatch, protocol_dataset):
    recs = [
        ("cone", ContactPose.rotation(0.0), 1.0),
        ("cone", ContactPose.rotation(0.0), 3.0),
    ]
    by_pose, by_object = group_tables(tmp_path / "run", monkeypatch, protocol_dataset, recs)
    assert by_pose[0]["mean_mm"] == pytest.approx(2.0)
    assert by_pose[0]["std_mm"] == pytest.approx(math.sqrt(2.0), abs=1e-3)  # 1.414
    assert by_object[0]["count"] == 2


def test_aggregate_orders_rotations_before_translations(tmp_path, monkeypatch, protocol_dataset):
    recs = [
        ("cone", ContactPose.translation(15.0), 1.0),
        ("cone", ContactPose.translation(5.0), 1.0),
        ("cone", ContactPose.rotation(math.pi / 4), 1.0),
        ("cone", ContactPose.rotation(0.0), 1.0),
    ]
    by_pose, _ = group_tables(tmp_path / "run", monkeypatch, protocol_dataset, recs)
    assert [g["pose"] for g in by_pose] == [
        "rotation 0",
        "rotation pi/4",
        "translation 5",
        "translation 15",
    ]


def test_aggregate_permutation_invariance(tmp_path, monkeypatch, protocol_dataset):
    rng = np.random.default_rng(23)
    poses = [(ContactPose.rotation(v), float(e)) for v, e in zip((0.0, 0.5, 1.0), (1, 4, 9))]
    recs = records_for(poses)
    base = group_tables(tmp_path / "base", monkeypatch, protocol_dataset, recs)
    for run in range(5):
        shuffled = list(recs)
        rng.shuffle(shuffled)
        result = group_tables(tmp_path / f"run{run}", monkeypatch, protocol_dataset, shuffled)
        for got, want in zip(result[0], base[0]):
            assert got["pose"] == want["pose"]
            assert got["mean_mm"] == pytest.approx(want["mean_mm"], rel=1e-12)
            assert got["std_mm"] == pytest.approx(want["std_mm"], rel=1e-12)
