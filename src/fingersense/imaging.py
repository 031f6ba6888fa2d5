"""Contact detection and localisation in tactile images.

Pipeline: difference against a no-contact reference frame, Gaussian smoothing,
thresholding, 8-connected blob extraction, then back-projection of the blob
centroid onto the membrane.  All five tuning values (grayscale averaging,
absolute differencing, sigma, threshold, minimum area) are parameters of the
operations, not hidden constants.

``detect_contacts`` runs the first four stages as one call.  It smooths and
labels only the box that can hold above-threshold pixels, so its cost scales
with the imprint, not the frame; it falls back to the whole frame only when
noise crosses the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .geometry import (
    CameraIntrinsics,
    ContactPose,
    PixelCoord,
    PoseKind,
    SensorGeometry,
    SurfacePoint,
    back_project,
)

# Detection defaults: the simplest pipeline that closes the synthetic loop.
DEFAULT_SIGMA_PX = 2.0
DEFAULT_THRESHOLD = 25.0  # of 255
DEFAULT_MIN_AREA_PX = 20

# Localisation errors measured on the physical sensor (mm, mean and sample
# std), reported alongside synthetic results for comparison.  Hardware
# context, not software targets: they include elastomer flexion and hand
# annotation, which the synthetic pipeline does not model.
HARDWARE_ERRORS_BY_POSE: dict[str, tuple[float, float]] = {
    "rotation 0": (4.71, 0.75),
    "rotation pi/6": (2.01, 0.90),
    "rotation pi/4": (1.04, 0.46),
    "rotation pi/3": (6.96, 4.82),
    "translation 0": (7.87, 5.08),
    "translation 5": (8.03, 1.92),
    "translation 10": (7.55, 5.00),
    "translation 15": (4.86, 8.41),
}
HARDWARE_ERRORS_BY_OBJECT: dict[str, tuple[float, float]] = {
    "cone": (3.63, 3.26),
    "sphere": (6.79, 5.38),
    "irregular": (5.61, 4.08),
    "cylinder": (4.57, 4.30),
    "edge": (7.47, 6.29),
    "tube": (3.33, 1.90),
    "slab": (6.27, 8.17),
}


def _frozen_2d(values: np.ndarray, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype, order="C")  # a private copy, converted once
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"expected a non-empty 2D image, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class TactileImage:
    """8-bit grayscale camera frame; row-major, top-left origin."""

    pixels: np.ndarray  # (height, width) uint8

    def __post_init__(self) -> None:
        if np.asarray(self.pixels).dtype != np.uint8:
            raise ValueError("tactile images are 8-bit grayscale")
        object.__setattr__(self, "pixels", _frozen_2d(self.pixels, np.uint8))

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True, eq=False)
class DiffImage:
    """Non-negative per-pixel deviation from the reference frame."""

    values: np.ndarray  # (height, width) float64, all >= 0
    origin: tuple[int, int] = (0, 0)  # frame (row, column) of values[0, 0]

    def __post_init__(self) -> None:
        arr = _frozen_2d(self.values, np.float64)
        if np.any(arr < 0):
            raise ValueError("difference values must be non-negative")
        object.__setattr__(self, "values", arr)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ContactBlob:
    centroid: PixelCoord  # intensity-weighted mean of member pixels
    area: int  # member pixel count
    peak: float  # maximum difference intensity in the blob
    total_mass: float  # sum of difference intensities over the blob


@dataclass(frozen=True)
class ContactEstimate:
    pixel: PixelCoord
    point: SurfacePoint


@dataclass(frozen=True)
class ErrorRecord:
    """One localisation trial: which object, which pose, what 3D error."""

    object_label: str
    pose: ContactPose
    error_mm: float


@dataclass(frozen=True)
class GroupStats:
    label: str
    mean: float
    std: float  # sample std (ddof 1); 0.0 for singleton groups
    count: int


def _check_same_size(ref: TactileImage, frame: TactileImage) -> None:
    if (ref.height, ref.width) != (frame.height, frame.width):
        raise ValueError(
            f"dimension mismatch: reference {ref.width}x{ref.height}, "
            f"frame {frame.width}x{frame.height}"
        )


def _check_sigma(sigma: float) -> None:
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")


def _check_threshold(threshold: float) -> None:
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")


def subtract_reference(ref: TactileImage, frame: TactileImage) -> DiffImage:
    """Per-pixel absolute difference between a frame and its reference."""
    _check_same_size(ref, frame)
    diff = np.abs(frame.pixels.astype(np.int16) - ref.pixels.astype(np.int16))
    return DiffImage(diff.astype(np.float64))


def smooth(d: DiffImage, sigma: float) -> DiffImage:
    """Gaussian blur (truncated at 3 sigma, replicated edges); sigma 0 is identity."""
    _check_sigma(sigma)
    if sigma == 0:
        return d
    return DiffImage(
        ndimage.gaussian_filter(d.values, sigma, truncate=3.0, mode="nearest"), d.origin
    )


def _smoothed(diff: np.ndarray, sigma: float, origin: tuple[int, int]) -> DiffImage:
    """``smooth(DiffImage(diff, origin), sigma)`` of a uint8 ``diff``, in one float64 array.

    The filter converts each line to float64 as it reads it, so filtering the
    uint8 array gives the same bits as filtering its float64 copy, without
    the copy (sigma 0 gives the float64 copy itself).  Its output is a fresh
    array that nothing else holds, and a mean of non-negative values with
    positive weights is non-negative, so it is wrapped as it is, without
    ``DiffImage``'s private copy and sign scan.
    """
    out = ndimage.gaussian_filter(diff, sigma, output=np.float64, truncate=3.0, mode="nearest")
    out.flags.writeable = False
    image = object.__new__(DiffImage)  # skips __init__, the copy and the scan
    object.__setattr__(image, "values", out)
    object.__setattr__(image, "origin", origin)
    return image


def detect_blobs(d: DiffImage, threshold: float, min_area: int) -> list[ContactBlob]:
    """Extract connected bright regions of the difference image.

    Pixels strictly above ``threshold`` are grouped by 8-connectivity;
    components smaller than ``min_area`` pixels are discarded.  Blobs are
    returned sorted by total mass, heaviest first (ties keep scan order), so
    the dominant imprint is always first.  An empty list is a valid outcome:
    weak imprints may not clear the threshold.  Centroids are in frame
    coordinates: ``d.origin`` is added to each pixel's row and column.

    Cost is one labelling pass over the image, a few passes over its
    foreground pixels and a short loop over the kept blobs, so it does not
    grow with the number of components.  A stable sort groups the foreground
    pixels by label with each blob's pixels still in scan order, and each blob
    is summed as one contiguous array.  These are the same values in the same
    order as summing the blob's own masked pixels, so NumPy's pairwise sum
    gives the same mass and centroid bit for bit.
    """
    _check_threshold(threshold)
    mask = d.values > threshold
    labels, _ = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))

    pixels = np.flatnonzero(mask)
    owner = labels.ravel()[pixels]
    pixels = pixels[np.argsort(owner, kind="stable")]
    areas = np.bincount(owner)[1:]  # areas[i] is the size of label i + 1
    stops = np.cumsum(areas)
    weights = d.values.ravel()[pixels]
    v, u = np.divmod(pixels, d.width)
    weighted_u = weights * (u + d.origin[1])
    weighted_v = weights * (v + d.origin[0])

    kept = areas >= min_area
    blobs = []
    for stop, area in zip(stops[kept].tolist(), areas[kept].tolist()):
        member = slice(stop - area, stop)
        mass = float(weights[member].sum())
        blobs.append(
            ContactBlob(
                centroid=PixelCoord(
                    float(weighted_u[member].sum() / mass),
                    float(weighted_v[member].sum() / mass),
                ),
                area=area,
                peak=float(weights[member].max()),
                total_mass=mass,
            )
        )
    blobs.sort(key=lambda b: -b.total_mass)
    return blobs


def detect_contacts(
    ref: TactileImage, frame: TactileImage, sigma: float, threshold: float, min_area: int
) -> list[ContactBlob]:
    """The detection pipeline: subtract, smooth, then detect blobs.

    Returns exactly ``detect_blobs(smooth(subtract_reference(ref, frame),
    sigma), threshold, min_area)``, every field and the order, but smooths and
    labels only a box around the pixels that can pass ``threshold``.

    The smoothed value is a non-negative weighted mean, normalised to 1, over
    the pixels within ``r = int(3 sigma + 0.5)`` per axis (the radius of
    ``gaussian_filter`` at ``truncate=3``).  Where every difference in reach is
    at most ``floor(threshold) - 1`` the mean stays below ``threshold`` even
    after rounding, while a plateau at an integer ``threshold`` can round just
    above it.  So every smoothed pixel above ``threshold`` lies within ``r`` of
    a seed, a pixel whose difference is at least ``floor(threshold)``.

    The crop that is smoothed and labelled is the seed box grown by ``2 r``,
    clipped to the frame.  Pixels within ``r`` of the seed box see the same
    inputs as in the whole frame (where the crop edge is a frame edge,
    ``mode="nearest"`` replicates the same pixels), so they get the same bits.
    Farther pixels see only non-seeds, real or replicated, so they stay below
    ``threshold`` as they do in the whole frame.  Labelling a crop that holds
    every above-threshold pixel gives the same components in the same scan
    order.  With no seeds the result is empty; when noise puts seeds all over
    the frame the crop is the whole frame.  The crop is filtered straight from
    the uint8 difference, so the only float64 array is the smoothed one.
    """
    _check_same_size(ref, frame)
    _check_sigma(sigma)
    _check_threshold(threshold)
    diff = np.maximum(frame.pixels, ref.pixels)  # |frame - ref| without leaving uint8
    diff -= np.minimum(frame.pixels, ref.pixels)
    # No uint8 difference reaches 256, and a NaN threshold passes no pixel.
    seeds = diff >= (math.floor(threshold) if threshold < 256 else 256)
    rows = np.flatnonzero(seeds.any(axis=1))
    if rows.size == 0:
        return []
    cols = np.flatnonzero(seeds.any(axis=0))
    margin = 2 * int(3.0 * sigma + 0.5)
    top, bottom = max(rows[0] - margin, 0), min(rows[-1] + 1 + margin, frame.height)
    left, right = max(cols[0] - margin, 0), min(cols[-1] + 1 + margin, frame.width)
    crop = diff[top:bottom, left:right]
    return detect_blobs(_smoothed(crop, sigma, (int(top), int(left))), threshold, min_area)


def localize_contact(
    b: ContactBlob, k: CameraIntrinsics, g: SensorGeometry
) -> ContactEstimate:
    """Back-project a blob centroid onto the membrane."""
    return ContactEstimate(b.centroid, back_project(b.centroid, k, g))


def localization_error(e: ContactEstimate, truth: SurfacePoint) -> float:
    """3D Euclidean distance in mm between the estimate and the true contact."""
    return math.sqrt(
        (e.point.x - truth.x) ** 2 + (e.point.y - truth.y) ** 2 + (e.point.z - truth.z) ** 2
    )


def _pose_label(pose: ContactPose) -> str:
    if pose.kind is PoseKind.ROTATION:
        # Protocol angles are simple fractions of pi; label them as such.
        for name, angle in (("0", 0.0), ("pi/6", math.pi / 6), ("pi/4", math.pi / 4),
                            ("pi/3", math.pi / 3)):
            if math.isclose(pose.value, angle, abs_tol=1e-12):
                return f"rotation {name}"
        return f"rotation {pose.value:g}"
    return f"translation {pose.value:g}"


def _group_stats(label: str, errors: list[float]) -> GroupStats:
    mean = float(np.mean(errors))
    std = float(np.std(errors, ddof=1)) if len(errors) > 1 else 0.0
    return GroupStats(label, mean, std, len(errors))


def aggregate_errors(
    records: list[ErrorRecord],
) -> tuple[list[GroupStats], list[GroupStats]]:
    """Mean +/- sample std per pose and per object.

    Returns (by_pose, by_object): poses ordered rotations first then
    translations, each by increasing pose value; objects in first-appearance
    order, which for protocol datasets is the canonical object order.
    """
    if not records:
        raise ValueError("cannot aggregate an empty record list")

    by_pose: dict[tuple[int, float], list[float]] = {}
    by_object: dict[str, list[float]] = {}
    pose_labels: dict[tuple[int, float], str] = {}
    for rec in records:
        pose_key = (0 if rec.pose.kind is PoseKind.ROTATION else 1, rec.pose.value)
        by_pose.setdefault(pose_key, []).append(rec.error_mm)
        pose_labels[pose_key] = _pose_label(rec.pose)
        by_object.setdefault(rec.object_label, []).append(rec.error_mm)

    pose_stats = [
        _group_stats(pose_labels[key], by_pose[key]) for key in sorted(by_pose)
    ]
    object_stats = [_group_stats(label, errs) for label, errs in by_object.items()]
    return pose_stats, object_stats
