"""Contact detection and localisation in tactile images.

Pipeline: difference against a no-contact reference frame, Gaussian smoothing,
thresholding, 8-connected blob extraction, then back-projection of the blob
centroid onto the membrane.  Its three tuning values, the smoothing sigma, the
threshold and the minimum blob area, are parameters of the operations, not
hidden constants.

``localize_frame`` is the one call for the whole pipeline.  Its first four
stages, ``detect_contacts``, work only in the box that can hold
above-threshold pixels, in bands of rows, and smooth exactly only the columns
of a band where an integer upper bound of the smoothed value can pass the
threshold.  So their cost follows the pixels that can pass, not the frame, and
no frame-sized float64 array is ever held.  The tests hold the full-frame
pipeline they are compared against.

Every strip is smoothed and every box labelled in NumPy, with the same bits as
SciPy's ``gaussian_filter`` and the same labels as its ``label``, so no
command imports SciPy.  The ``ndimage`` module attribute (SciPy's, imported on
first read) and ``DiffImage`` are kept only for the benchmark's per-layer
tracer (``perfbench/traced.py``), which wraps both; no package code uses
either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The detection defaults are config's; perfbench/run.py reads DEFAULT_SIGMA_PX
# and DEFAULT_THRESHOLD from this module.
from .config import DEFAULT_SIGMA_PX, DEFAULT_THRESHOLD, MAX_SIGMA_PX, SessionConfig
from .geometry import ContactPose, PixelCoord, PoseKind, SurfacePoint, _as_xyz, back_project

# Frame rows that detection reads, bounds or smooths at once.  Each band costs
# about a hundred short NumPy calls; localize runs each worker in its own
# process, so the band is sized for one CPU's cache and memory, not for GIL
# hand-offs.  96-row bands ran a little faster on threads but raised the peak
# RSS by 6%, and 128-row bands fall out of L2 and ran slower on one thread.
DETECT_BAND_ROWS = 64

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


def __getattr__(name: str):
    if name == "ndimage":
        return _ndimage()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _ndimage():
    """``scipy.ndimage``, imported on first use and stored as ``ndimage``."""
    module = globals().get("ndimage")
    if module is None:
        from scipy import ndimage as module

        globals()["ndimage"] = module
    return module


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

    def __post_init__(self) -> None:
        arr = _frozen_2d(self.values, np.float64)
        if not np.all(arr >= 0):  # also refuses NaN
            raise ValueError("difference values must be non-negative")
        object.__setattr__(self, "values", arr)


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
    if not 0 <= sigma <= MAX_SIGMA_PX:  # NaN fails too
        raise ValueError(f"sigma must be in [0, {MAX_SIGMA_PX:g}], got {sigma}")


def _check_threshold(threshold: float) -> None:
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")


def _blobs(
    mask: np.ndarray, weights: np.ndarray, min_area: int, origin: tuple[int, int]
) -> list[ContactBlob]:
    """The blobs of the 8-connected components of a 2D bool ``mask``.

    ``weights`` holds the value at each pixel of ``mask``, in
    ``np.flatnonzero(mask)`` order.  Cost is one ``_label_runs`` pass over the
    mask, a few passes over its foreground pixels and a short loop over the
    kept blobs, so it does not grow with the number of components.  The
    pixels of components below ``min_area`` are dropped first.  A stable sort
    groups the rest by label with each blob's pixels still in scan order, and
    each blob is summed as one contiguous array.  These are the same values
    in the same order as summing the blob's own masked pixels, so NumPy's
    pairwise sum gives the same mass and centroid bit for bit.
    """
    pixels, owner = _label_runs(mask)
    areas = np.bincount(owner, minlength=1)  # areas[i] is the size of label i
    kept = areas >= min_area
    kept[0] = False  # label 0 is the background
    members = np.flatnonzero(kept[owner])
    order = members[np.argsort(owner[members], kind="stable")]
    weights = weights[order]
    v, u = np.divmod(pixels[order], mask.shape[1])
    weighted_u = weights * (u + origin[1])
    weighted_v = weights * (v + origin[0])
    areas = areas[kept]
    blobs = []
    for stop, area in zip(np.cumsum(areas).tolist(), areas.tolist()):
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


def _label_runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.flatnonzero(mask)`` and each of those pixels' 8-connected ``ndimage.label`` label.

    A run is a maximal horizontal segment of foreground pixels.  Runs are
    placed on a grid one column wider than the mask, so the runs of the row
    above that touch a run, diagonals included, are exactly those that end
    at or after its start and begin at or before its end, one grid row up: a
    contiguous range of runs, found by two ``searchsorted`` calls.  Each run is
    hooked onto the smallest root among its neighbours' and the trees are
    flattened by pointer jumping, until no two touching runs have different
    roots.  A component's root is then its first run in scan order, so
    numbering the roots in order gives ``ndimage.label``'s numbers.  After
    the one ``flatnonzero`` pass over the mask, cost is a few passes over its
    foreground pixels and over the runs.  Every index array is int32
    (MAX_FRAME_PX fits) and is dropped once used, so a mask of many short
    runs holds less.
    """
    width = mask.shape[1]
    pixels = np.flatnonzero(mask).astype(np.int32)
    starts = np.flatnonzero(
        (np.diff(pixels, prepend=np.int32(-1)) != 1) | (pixels % width == 0)
    ).astype(np.int32)
    lengths = np.diff(starts, append=np.int32(pixels.size))
    begin = pixels[starts]
    begin += begin // width  # the run's first pixel on the grid
    end = begin + lengths  # one past the run's last pixel
    del starts
    runs = np.arange(begin.size, dtype=np.int32)
    # One edge from each run to each run of its range, all of which come earlier.
    first = np.searchsorted(end, begin - (width + 1), side="left").astype(np.int32)
    touching = np.searchsorted(begin, end - (width + 1), side="right").astype(np.int32)
    touching -= first
    np.maximum(touching, 0, out=touching)
    del begin, end
    later = np.repeat(runs, touching)
    first -= np.cumsum(touching, dtype=np.int32) - touching  # less the run's first edge
    earlier = np.repeat(first, touching)
    earlier += np.arange(later.size, dtype=np.int32)
    del first, touching
    root = runs.copy()
    while True:
        a, b = root[later], root[earlier]
        apart = a != b
        if not apart.any():
            break
        np.minimum.at(root, np.maximum(a, b)[apart], np.minimum(a, b)[apart])
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    del later, earlier, a, b, apart
    numbers = np.cumsum(root == runs, dtype=np.int32)[root]
    return pixels, np.repeat(numbers, lengths)


def _kernel(sigma: float) -> np.ndarray:
    """SciPy's Gaussian weights at ``truncate=3``, of which there are ``2 r + 1``.

    They are ``w = exp(-0.5 / sigma**2 * x**2)`` over ``x = -r..r`` with
    ``r = int(3 sigma + 0.5)``, divided by their sum.  A sigma of at most
    1e-15, which SciPy does not filter, gives the one weight 1.
    """
    if sigma <= 1e-15:
        return np.ones(1)
    radius = int(3.0 * sigma + 0.5)
    weights = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
    return weights / weights.sum()


def _padded(diff: np.ndarray, radius: int, start: int, stop: int) -> np.ndarray:
    """Rows ``start - r .. stop + r`` and columns ``-r .. width + r`` of ``diff``, flat.

    Rows are taken at clipped indices and the edge columns are copied into
    the margins, so every margin replicates its edge as ``mode="nearest"``
    does, for any radius, even one longer than an axis.
    """
    width = diff.shape[1]
    out = np.empty((stop - start + 2 * radius, width + 2 * radius), dtype=diff.dtype)
    rows = np.arange(start - radius, stop + radius)
    np.take(diff, rows, axis=0, mode="clip", out=out[:, radius : radius + width])
    out[:, :radius] = out[:, radius : radius + 1]
    out[:, radius + width :] = out[:, radius + width - 1 : radius + width]
    return out.ravel()


def _gaussian_numpy(diff: np.ndarray, sigma: float, rows: slice = slice(None)) -> np.ndarray:
    """``rows`` of ``gaussian_filter(diff, sigma, output=float64, truncate=3, mode="nearest")``.

    The bits are SciPy's.  The weights are ``_kernel``'s, which are SciPy's.
    As in SciPy, a sigma of at most 1e-15 filters nothing, and axis 0 is
    filtered before axis 1, each in SciPy's order for a symmetric kernel: the
    centre tap, then for ``j`` from ``r`` down to 1 the sum of the two taps at
    ``-j`` and ``+j``, times their weight.

    Only ``rows`` are filtered; the other rows of the uint8 ``diff`` are only
    read.  The rows and columns in reach are gathered once by ``_padded``.
    That buffer and the axis-0 result are filtered as flat arrays, a row of
    ``width + 2 r`` apart along axis 0 and one element apart along axis 1, so
    every pass is one contiguous ufunc call; the axis-1 values that wrap into
    a neighbouring row land in the padding and are dropped.  The axis-0 tap
    pairs are summed in uint16, which is exact.
    """
    start, stop, _ = rows.indices(diff.shape[0])
    if sigma <= 1e-15:
        return diff[start:stop].astype(np.float64)
    weights = _kernel(sigma)
    radius = weights.size // 2
    width = diff.shape[1]
    pitch = width + 2 * radius
    size = (stop - start) * pitch
    source = _padded(diff, radius, start, stop)
    centre = radius * pitch
    rows_done = np.multiply(source[centre : centre + size], weights[radius])
    pair, term = np.empty(size, dtype=np.uint16), np.empty(size)
    for j in range(radius, 0, -1):
        above, below = centre - j * pitch, centre + j * pitch
        np.add(source[above : above + size], source[below : below + size], out=pair, dtype=np.uint16)
        rows_done += np.multiply(pair, weights[radius + j], out=term)
    out = np.empty(size)
    inner = slice(radius, size - radius)
    out_inner, term = out[inner], term[inner]
    np.multiply(rows_done[inner], weights[radius], out=out_inner)
    for j in range(radius, 0, -1):
        np.add(rows_done[radius - j : size - radius - j], rows_done[radius + j : size - radius + j], out=term)
        out_inner += np.multiply(term, weights[radius + j], out=term)
    return out.reshape(-1, pitch)[:, radius : radius + width]


def _rounded_up(weights: list[float], total: int) -> tuple[list[int], int]:
    """``ceil(w s)`` for each weight, and ``s``: the largest integer scale where they sum to at most ``total``.

    The sum grows with ``s``, and is ``len(weights) <= total`` at ``s = 1``.
    """
    low, high = 1, total
    while low < high:
        scale = (low + high + 1) // 2
        if sum(math.ceil(w * scale) for w in weights) <= total:
            low = scale
        else:
            high = scale - 1
    return [math.ceil(w * low) for w in weights], low


def _bound_weights(kernel: np.ndarray, threshold: float) -> tuple[list[int], list[int], int]:
    """Integer weights per axis for ``_bound``, and the limit their bound must pass.

    Each weight ``w`` of the ``_kernel`` is rounded up to ``q = ceil(w s)``,
    with one scale ``s0`` for axis 0 and one ``s1`` for axis 1.  Axis 0 sums
    in uint16, so ``s0`` is the largest scale with ``255 sum(q0) <= 65535``;
    more than 257 taps cannot fit, and then axis 0 sums in uint32 and
    ``sum(q0)`` is kept to ``sqrt(2**32 / 255)``, so axis 1 has as much room.
    Axis 1 sums in uint32, so ``s1`` is the largest scale with
    ``255 sum(q0) sum(q1) < 2**32``.

    As ``q >= w s``, the integer bound is at least ``s0 s1`` times the exact
    filter value at every pixel.  SciPy's value is within a relative
    ``(5 r + 2) 2**-53`` of the exact one, under 1e-12 for every sigma up to
    MAX_SIGMA_PX, so wherever it exceeds ``threshold`` the bound exceeds
    ``floor(threshold s0 s1 (1 - 1e-9))``, the limit returned.
    """
    weights = kernel.tolist()
    total = 65535 // 255 if len(weights) <= 65535 // 255 else math.isqrt((2**32 - 1) // 255)
    axis0, s0 = _rounded_up(weights, total)
    axis1, s1 = _rounded_up(weights, (2**32 - 1) // (255 * sum(axis0)))
    return axis0, axis1, math.floor(threshold * s0 * s1 * (1 - 1e-9))


def _bound(diff: np.ndarray, rows: slice, axis0: list[int], axis1: list[int]) -> np.ndarray:
    """``rows`` of ``diff`` filtered with the integer weights of ``_bound_weights``, as uint32.

    The filter is ``_gaussian_numpy``'s, in its flat, column-padded layout
    and tap order, but in integers: axis 0 in uint16 (uint32 when
    ``255 sum(axis0)`` does not fit 16 bits) and axis 1 in uint32, neither of
    which can overflow.  Wherever ``gaussian_filter`` exceeds the threshold,
    the result exceeds the limit of ``_bound_weights``.
    """
    start, stop, _ = rows.indices(diff.shape[0])
    radius = len(axis0) // 2
    width = diff.shape[1]
    pitch = width + 2 * radius
    size = (stop - start) * pitch
    wide = np.uint16 if 255 * sum(axis0) <= 65535 else np.uint32
    source = _padded(diff, radius, start, stop).astype(wide)
    centre = radius * pitch
    rows_done = source[centre : centre + size] * axis0[radius]
    pair = np.empty_like(rows_done)
    for j in range(radius, 0, -1):
        above, below = centre - j * pitch, centre + j * pitch
        np.add(source[above : above + size], source[below : below + size], out=pair)
        rows_done += np.multiply(pair, axis0[radius + j], out=pair)
    del source, pair
    rows_done = rows_done.astype(np.uint32, copy=False)
    out = np.empty(size, dtype=np.uint32)
    inner = slice(radius, size - radius)
    out_inner, term = out[inner], np.empty(size - 2 * radius, dtype=np.uint32)
    np.multiply(rows_done[inner], axis1[radius], out=out_inner)
    for j in range(radius, 0, -1):
        np.add(rows_done[radius - j : size - radius - j], rows_done[radius + j : size - radius + j], out=term)
        out_inner += np.multiply(term, axis1[radius + j], out=term)
    return out.reshape(-1, pitch)[:, radius : radius + width]


def _abs_diff(ref: TactileImage, frame: TactileImage, rows: slice, columns: slice) -> np.ndarray:
    """|frame - ref| over a box of the frame, without leaving uint8."""
    a, b = ref.pixels[rows, columns], frame.pixels[rows, columns]
    diff = np.maximum(a, b)
    diff -= np.minimum(a, b)
    return diff


def detect_contacts(
    ref: TactileImage, frame: TactileImage, sigma: float, threshold: float, min_area: int
) -> list[ContactBlob]:
    """The detection pipeline: subtract, smooth, then detect blobs.

    Returns exactly the blobs of the full-frame pipeline, every field and the
    order: |frame - ref| as float64, ``gaussian_filter`` at ``truncate=3`` and
    ``mode="nearest"``, then the 8-connected components of the pixels above
    ``threshold`` with at least ``min_area`` pixels, heaviest first (ties in
    scan order).  But it works only in a box around the pixels that can pass
    ``threshold``, smooths exactly only the columns where an integer bound
    says a pixel can pass, and holds no frame-sized difference or float64
    array.

    The box.  The smoothed value is a non-negative weighted mean, normalised
    to 1, over the pixels within ``r = int(3 sigma + 0.5)`` per axis (the
    radius of ``gaussian_filter`` at ``truncate=3``).  Where every difference
    in reach is at most ``floor(threshold) - 1`` the mean stays below
    ``threshold`` even after rounding, while a plateau at an integer
    ``threshold`` can round just above it.  So every smoothed pixel above
    ``threshold`` lies within ``r`` of a seed, a pixel whose difference is at
    least ``floor(threshold)``.  One pass over the frame in bands of
    DETECT_BAND_ROWS rows keeps the largest difference of each row and of each
    column, which bound the seeds.  The box is the seed box grown by ``2 r``,
    clipped to the frame.  Pixels within ``r`` of the seed box see the same
    inputs as in the whole frame (where the box edge is a frame edge,
    ``mode="nearest"`` replicates the same pixels), so they get the same bits.
    Farther pixels see only non-seeds, real or replicated, so they stay below
    ``threshold`` as they do in the whole frame.  Labelling a box that holds
    every above-threshold pixel gives the same components in the same scan
    order.  With no seeds the result is empty and nothing is bounded or
    smoothed; when noise puts seeds all over the frame the box is the frame.

    The bound.  The box is read in bands of DETECT_BAND_ROWS rows, each with up
    to ``r`` rows of the box above and below it.  ``_bound`` filters a band
    with ``_bound_weights``' integer weights, each rounded up, so it is at
    least ``s0 s1`` times the smoothed value at every pixel, and wherever the
    smoothed value exceeds ``threshold`` it exceeds the integer limit.  A
    candidate column is one where some band pixel's bound exceeds the limit.

    The exact values.  The band's strip is every column of the box within
    ``r`` of a candidate column, side by side, with the band's halo rows.
    ``_gaussian_numpy`` smooths the strip's band rows.  The filter is
    separable, and a candidate column sees the same ``r`` columns on each side
    in the strip as in the box, or the same box edge, which the strip edge
    replicates in the same way; so its values have the same bits as in the
    whole box.  The other strip columns are dropped: they hold no candidate,
    so nothing there passes.  The candidate columns are thresholded into one
    bool mask of the box, and their smoothed values are kept at the foreground
    pixels only, which ``_label_runs`` and ``_blobs`` then label and weigh.
    On a noisy (sigma 16) 1920x1080 frame about a fifth of the pixels are
    smoothed, and detection holds the 1-byte-per-pixel mask and one band's
    buffers, not a float64 frame.
    """
    _check_same_size(ref, frame)
    _check_sigma(sigma)
    _check_threshold(threshold)
    height, width = frame.height, frame.width
    # No uint8 difference reaches 256, and a NaN threshold passes no pixel.
    seed_level = math.floor(threshold) if threshold < 256 else 256
    row_max = np.empty(height, dtype=np.uint8)
    col_max = np.zeros(width, dtype=np.uint8)
    for start in range(0, height, DETECT_BAND_ROWS):
        band = slice(start, start + DETECT_BAND_ROWS)
        diff = _abs_diff(ref, frame, band, slice(None))
        diff.max(axis=1, out=row_max[band])
        np.maximum(col_max, diff.max(axis=0), out=col_max)
    rows = np.flatnonzero(row_max >= seed_level)
    if rows.size == 0:
        return []
    cols = np.flatnonzero(col_max >= seed_level)
    kernel = _kernel(sigma)
    radius = kernel.size // 2
    axis0, axis1, limit = _bound_weights(kernel, threshold)
    top, bottom = max(rows[0] - 2 * radius, 0), min(rows[-1] + 1 + 2 * radius, height)
    left, right = max(cols[0] - 2 * radius, 0), min(cols[-1] + 1 + 2 * radius, width)
    columns = slice(left, right)
    mask = np.zeros((bottom - top, right - left), dtype=bool)
    weights = [np.empty(0)]
    for start in range(top, bottom, DETECT_BAND_ROWS):
        stop = min(start + DETECT_BAND_ROWS, bottom)
        lo, hi = max(start - radius, top), min(stop + radius, bottom)
        diff = _abs_diff(ref, frame, slice(lo, hi), columns)
        band = slice(start - lo, stop - lo)
        candidate = _bound(diff, band, axis0, axis1).max(axis=0) > limit
        # Every column within r of a candidate column, in order: the kernel is positive.
        strip = np.flatnonzero(np.convolve(candidate, kernel, "full")[radius : radius + diff.shape[1]])
        if strip.size == 0:
            continue
        keep = candidate[strip]
        smoothed = _gaussian_numpy(diff[:, strip], sigma, band)[:, keep]
        above = smoothed > threshold
        mask[start - top : stop - top, strip[keep]] = above
        weights.append(smoothed[above])
    weights = np.concatenate(weights)  # and drop the bands' pieces
    return _blobs(mask, weights, min_area, (int(top), int(left)))


def localize_frame(
    reference: TactileImage, frame: TactileImage, config: SessionConfig
) -> ContactEstimate | None:
    """Detect with the config's settings, then back-project the heaviest blob's centroid.

    Returns None when no blob is found.  Raises ValueError when ``frame`` is
    not the size of the config's camera, whose model back-projects it.
    """
    k = config.intrinsics
    if (frame.width, frame.height) != (k.width, k.height):
        raise ValueError(
            f"dimension mismatch: frame {frame.width}x{frame.height}, camera {k.width}x{k.height}"
        )
    blobs = detect_contacts(reference, frame, config.sigma_px, config.threshold, config.min_area_px)
    if not blobs:
        return None
    centroid = blobs[0].centroid
    return ContactEstimate(centroid, back_project(centroid, k, config.geometry))


def localization_error(e: ContactEstimate, truth) -> float:
    """3D Euclidean distance in mm between the estimate and the true contact.

    ``truth`` is a SurfacePoint or an (x, y, z) triple.  Squares are products,
    which overflow to +inf where ``** 2`` raises and agree with it elsewhere.
    """
    x, y, z = _as_xyz(truth)
    dx, dy, dz = e.point.x - x, e.point.y - y, e.point.z - z
    return math.sqrt(dx * dx + dy * dy + dz * dz)


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
