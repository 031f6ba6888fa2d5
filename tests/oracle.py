"""Reference code that the tests compare the package against.

No command runs any of this.  It is the plain whole-frame or one-point form
of what the package computes faster, plus writers for the files the package
only reads: the full-frame detection pipeline that ``detect_contacts`` must
match bit for bit, the uniform no-contact frame, the one-point indentation
depth and projection, the noise tables by a search over every bucket edge,
the per-batch spread of small grasp batches, and CSV and JSON writers for
correspondences and configurations.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from fingersense.blocksworld import N_ROWS, PolicyKind, outcome_table
from fingersense.config import SessionConfig
from fingersense.geometry import (
    CameraIntrinsics,
    PixelCoord,
    SensorGeometry,
    SurfacePoint,
    _as_xyz,
    project_points,
)
from fingersense.imaging import (
    ContactBlob,
    DiffImage,
    TactileImage,
    _blobs,
    _check_same_size,
    _check_sigma,
    _check_threshold,
)
from fingersense.render import (
    _CDF_STEP,
    BACKGROUND_INTENSITY,
    K_FALLOFF,
    NOISE_BUCKETS,
    NOISE_CAP,
    Indenter,
    footprint_distance_mm,
)


def subtract_reference(ref: TactileImage, frame: TactileImage) -> DiffImage:
    """Per-pixel absolute difference between a frame and its reference."""
    _check_same_size(ref, frame)
    diff = np.abs(frame.pixels.astype(np.int16) - ref.pixels.astype(np.int16))
    return DiffImage(diff.astype(np.float64))


def smooth(d: DiffImage, sigma: float) -> DiffImage:
    """Gaussian blur (truncated at 3 sigma, replicated edges); sigma 0 is identity."""
    from scipy import ndimage

    _check_sigma(sigma)
    if sigma == 0:
        return d
    return DiffImage(ndimage.gaussian_filter(d.values, sigma, truncate=3.0, mode="nearest"))


def detect_blobs(values: np.ndarray, threshold: float, min_area: int) -> list[ContactBlob]:
    """Extract connected bright regions of a 2D difference array.

    Pixels strictly above ``threshold`` are grouped by 8-connectivity;
    components smaller than ``min_area`` pixels are discarded.  Blobs are
    returned sorted by total mass, heaviest first (ties keep scan order), so
    the dominant imprint is always first.  An empty list is a valid outcome:
    weak imprints may not clear the threshold.  ``values`` is only read, and a
    negative or NaN value never passes the positive threshold.  The blobs are
    those of ``imaging._blobs`` on the thresholded mask's pixels and the
    values there.
    """
    _check_threshold(threshold)
    if values.ndim != 2:
        raise ValueError(f"detect_blobs needs a 2D array, got shape {values.shape}")
    mask = values > threshold
    return _blobs(np.flatnonzero(mask), values[mask], values.shape[1], min_area)


def reference_frame(k: CameraIntrinsics) -> TactileImage:
    """The no-contact frame: the background in every pixel, as ``render`` writes ``reference.pgm``."""
    return TactileImage(np.full((k.height, k.width), BACKGROUND_INTENSITY, dtype=np.uint8))


def indentation_depth(p: SurfacePoint, ind: Indenter, g: SensorGeometry) -> float:
    """Membrane displacement at a single surface point, in mm."""
    dist = footprint_distance_mm(ind, p.as_array()[np.newaxis, :], g)[0]
    return max(0.0, ind.depth - dist * K_FALLOFF)


def noise_tables(sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """``render._NoiseTable.for_sigma(sigma)``'s CDF and table, searched at all 65,537 bucket edges.

    K at a bucket's start is the number of CDF values at or below it, and a
    bucket holds a CDF step where fewer values lie below its end than at or
    below its start.
    """
    scale = sigma * math.sqrt(2.0)
    cdf = np.array([0.5 * math.erfc(-(k + 0.5) / scale) for k in range(-NOISE_CAP, NOISE_CAP)])
    edges = np.arange(NOISE_BUCKETS + 1) / NOISE_BUCKETS
    low = np.searchsorted(cdf, edges[:-1], side="right")  # K at each bucket's start
    high = np.searchsorted(cdf, edges[1:], side="left")  # K just below its end
    return cdf, np.where(low == high, low - NOISE_CAP, _CDF_STEP).astype(np.int16)


def project(point, intrinsics: CameraIntrinsics) -> PixelCoord:
    """Project one 3D point: the one-point case of ``project_points``."""
    u, v = project_points(*_as_xyz(point), intrinsics)
    return PixelCoord(float(u), float(v))


def batch_distribution(
    kind: PolicyKind, n_batches: int, boards_per_batch: int, seed: int = 0
) -> np.ndarray:
    """Per-batch metrics over many small batches; shape (n_batches, 3).

    Columns are (failure_rate, attempts_per_block, collisions_per_block),
    used to place small-sample observations within the sampling distribution.
    Each batch is one multinomial draw of outcome counts, as in ``run_batch``,
    so the cost grows with ``n_batches`` but not with ``boards_per_batch``.
    """
    outcomes, p = outcome_table(kind)
    per_batch = boards_per_batch * N_ROWS
    counts = np.random.default_rng(seed).multinomial(per_batch, p, size=n_batches)
    return counts @ outcomes.astype(np.float64) / per_batch


def save_correspondences(path: str | Path, points) -> None:
    """Write an (n, 5) array of (u, v, x, y, z) rows as CSV with header ``u,v,x,y,z``.

    Values are written as ``repr(float(x))``, the shortest text that reads
    back to the same double, whatever numeric type the caller stored.
    """
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "v", "x", "y", "z"])
        for row in np.asarray(points, dtype=np.float64).tolist():
            writer.writerow([repr(value) for value in row])


def save_config(config: SessionConfig, path: str | Path) -> None:
    """Write a configuration as JSON; load_config(save_config(c)) == c."""
    Path(path).write_text(json.dumps(config.to_json_dict(), indent=2) + "\n")
