"""Contact detection and localisation in tactile images.

Pipeline: difference against a no-contact reference frame, Gaussian smoothing,
thresholding, 8-connected blob extraction, then back-projection of the blob
centroid onto the membrane.  Its three tuning values, the smoothing sigma, the
threshold and the minimum blob area, are parameters of the operations, not
hidden constants.

``localize_frame`` is the one call for the whole pipeline.  Its first four
stages, ``detect_contacts``, read the frame once, in bands of rows, and
smooth exactly only the pixels that can pass the threshold.  The tests hold
the full-frame pipeline they are compared against.

Every exact value is smoothed and every foreground labelled in NumPy, with
the same bits as SciPy's ``gaussian_filter`` and the same labels as its
``label``, so no command imports SciPy.  The ``ndimage`` module attribute
(SciPy's, imported on first read) and ``DiffImage`` are kept only for the
benchmark's per-layer tracer (``perfbench/traced.py``), which wraps both; no
package code uses either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The detection defaults are config's; perfbench/run.py reads DEFAULT_SIGMA_PX
# and DEFAULT_THRESHOLD from this module.
from .config import DEFAULT_SIGMA_PX, DEFAULT_THRESHOLD, MAX_SIGMA_PX, SessionConfig
from .geometry import PixelCoord, SurfacePoint, _as_xyz, back_project

# Frame rows that detection reads, bounds or smooths at once: taller bands
# make fewer ufunc calls but hold larger buffers.  At noise 16 on 2 vCPUs, 32
# rows took 1.00 s, 64 rows 0.93 s and 96 rows 0.96 s with 0.6 MB more RSS.
DETECT_BAND_ROWS = 64
BOUND_LOOSENESS_U16 = 1.3  # the loosest axis-0 bound kept in uint16 (see _bound_weights)

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


def _blobs(pixels: np.ndarray, weights: np.ndarray, width: int, min_area: int) -> list[ContactBlob]:
    """The blobs of the 8-connected components of the foreground ``pixels`` of a frame ``width`` wide.

    ``pixels`` are the foreground's flat indices in the frame, in increasing
    order, and ``weights`` holds the value at each.  Cost is a few passes
    over the foreground pixels, in ``_label_runs`` and here, and a short loop
    over the kept blobs, so it grows neither with the frame nor with the
    number of components.  The
    pixels of components below ``min_area`` are dropped first.  A stable sort
    groups the rest by label with each blob's pixels still in scan order, and
    each blob is summed as one contiguous array.  These are the same values
    in the same order as summing the blob's own masked pixels, so NumPy's
    pairwise sum gives the same mass and centroid bit for bit.
    """
    pixels, owner = _label_runs(pixels, width)
    areas = np.bincount(owner, minlength=1)  # areas[i] is the size of label i
    kept = areas >= min_area
    kept[0] = False  # label 0 is the background
    members = np.flatnonzero(kept[owner])
    order = members[np.argsort(owner[members], kind="stable")]
    weights = weights[order]
    v, u = np.divmod(pixels[order], width)
    weighted_u = weights * u
    weighted_v = weights * v
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


def _label_runs(pixels: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The foreground ``pixels`` as int32, and each one's 8-connected ``ndimage.label`` label.

    ``pixels`` are the increasing flat indices of a mask ``width`` wide whose
    other pixels are background, as ``np.flatnonzero(mask)`` gives them.  A
    run is a maximal horizontal segment of foreground pixels.  Runs are
    placed on a grid one column wider than the mask, so the runs of the row
    above that touch a run, diagonals included, are exactly those that end
    at or after its start and begin at or before its end, one grid row up: a
    contiguous range of runs, found by two ``searchsorted`` calls.  Each run is
    hooked onto the smallest root among its neighbours' and the trees are
    flattened by pointer jumping, until no two touching runs have different
    roots.  A component's root is then its first run in scan order, so
    numbering the roots in order gives ``ndimage.label``'s numbers.  Cost is
    a few passes over the foreground pixels and over the runs.  Every index
    array is int32 (MAX_FRAME_PX fits) and is dropped once used, so a mask of
    many short runs holds less.
    """
    pixels = pixels.astype(np.int32, copy=False)
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
    """Rows ``start - r .. stop + r`` and columns ``-r .. width + r`` of ``diff``.

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
    return out


def _gaussian_at(padded: np.ndarray, kernel: np.ndarray, pixels: np.ndarray) -> np.ndarray:
    """``gaussian_filter(diff, sigma, output=float64, truncate=3, mode="nearest")[start:stop].flat[pixels]``.

    ``kernel`` is ``_kernel(sigma)``, ``padded`` is ``_padded(diff, r, start,
    stop)`` of a uint8 ``diff``, and ``pixels`` are sorted flat indices, at
    least one, into rows ``start .. stop`` of ``diff``.  The bits are SciPy's:
    as in SciPy, axis 0 is filtered before axis 1, each in SciPy's order for a
    symmetric kernel, the centre tap, then for ``j`` from ``r`` down to 1 the
    sum of the two taps at ``-j`` and ``+j``, times their weight.  A sigma of
    at most 1e-15 has the one weight 1, which leaves every value as it is, as
    SciPy does.

    The padded rows are ``pitch = width + 2 r`` apart.  In that layout a
    pixel's axis-1 taps are the ``2 r + 1`` places around it, all in its own
    padded row, so each run of pixels grown by ``r`` places on each side is
    one contiguous range, and runs that overlap or touch are merged.  Axis 0
    is filtered only at those places, one gather of each tap row, with the
    tap pairs summed in uint16, which is exact; axis 1 only at ``pixels``,
    whose taps are the neighbouring places of their merged range.  So the
    cost follows the pixels, and the index arrays hold one entry per place,
    not one per tap.
    """
    radius = kernel.size // 2
    pitch = padded.shape[1]
    source = padded.ravel()
    row, column = np.divmod(pixels, pitch - 2 * radius)
    place = row * pitch + column + radius  # each pixel's place in its padded row
    # Each merged range's pixels are pixels[bounds[k] : bounds[k + 1]].
    bounds = np.flatnonzero(place[1:] - place[:-1] > 2 * radius + 1) + 1
    bounds = np.concatenate(([0], bounds, [place.size]))
    begin = place[bounds[:-1]] - radius
    lengths = place[bounds[1:] - 1] + radius + 1 - begin
    shift = begin - (lengths.cumsum() - lengths)  # a range's places less their index among all places
    places = shift.repeat(lengths) + np.arange(lengths.sum())
    centre = radius * pitch
    gathered = source[centre:].take(places)
    along = np.multiply(gathered, kernel[radius])
    other, pair, term = np.empty_like(gathered), np.empty(places.size, dtype=np.uint16), np.empty(places.size)
    for j in range(radius, 0, -1):
        source[centre - j * pitch :].take(places, out=gathered)
        source[centre + j * pitch :].take(places, out=other)
        np.add(gathered, other, out=pair, dtype=np.uint16)
        along += np.multiply(pair, kernel[radius + j], out=term)
    del places, gathered, other, pair, term
    left = place - shift.repeat(bounds[1:] - bounds[:-1]) - radius  # each pixel's tap -r in ``along``
    out = np.multiply(along[radius:].take(left), kernel[radius])
    lower, upper = np.empty_like(out), np.empty_like(out)
    for j in range(radius, 0, -1):
        along[radius - j :].take(left, out=lower)
        along[radius + j :].take(left, out=upper)
        out += np.multiply(np.add(lower, upper, out=lower), kernel[radius + j], out=lower)
    return out


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
    in uint16, with ``s0`` the largest scale where ``255 sum(q0) <= 65535``,
    while that is tight, ``sum(q0) <= BOUND_LOOSENESS_U16 s0`` (up to sigma
    17.14); else in uint32, with ``sum(q0)`` kept to ``sqrt(2**32 / 255)`` so
    axis 1 has as much room.  A looser bound passes pixels far below
    ``threshold``, whose exact smoothing costs more than wider sums: on
    sigma-16 noise at threshold 25, uint16 passes every pixel from sigma 24.
    Axis 1 sums in uint32, so ``s1`` is the largest scale with
    ``255 sum(q0) sum(q1) < 2**32``.

    As ``q >= w s``, the integer bound is at least ``s0 s1`` times the exact
    filter value at every pixel.  SciPy's value is within a relative
    ``(5 r + 2) 2**-53`` of the exact one, under 1e-12 for every sigma up to
    MAX_SIGMA_PX, so wherever it exceeds ``threshold`` the bound exceeds
    ``floor(threshold s0 s1 (1 - 1e-9))``, the limit returned.
    """
    weights = kernel.tolist()
    if len(weights) <= 65535 // 255:
        axis0, s0 = _rounded_up(weights, 65535 // 255)
    if len(weights) > 65535 // 255 or sum(axis0) > BOUND_LOOSENESS_U16 * s0:
        axis0, s0 = _rounded_up(weights, math.isqrt((2**32 - 1) // 255))
    axis1, s1 = _rounded_up(weights, (2**32 - 1) // (255 * sum(axis0)))
    return axis0, axis1, math.floor(threshold * s0 * s1 * (1 - 1e-9))


def _bound(padded: np.ndarray, axis0: list[int], axis1: list[int]) -> np.ndarray:
    """The band of ``padded`` filtered with the integer weights of ``_bound_weights``, as uint32.

    ``padded`` is ``_padded(diff, r, start, stop)`` of a uint8 ``diff``, and
    the result is ``stop - start`` rows of ``width`` pixels.  The filter is
    ``_gaussian_at``'s, in its tap order, but at every pixel of the band and
    in integers: axis 0 in uint16 (uint32 when ``255 sum(axis0)`` does not
    fit 16 bits) and axis 1 in uint32, neither of which can overflow.
    Wherever ``gaussian_filter`` exceeds the threshold, the result exceeds the
    limit of ``_bound_weights``.  The padded band, cast once, and the axis-0
    result are filtered as flat arrays, a row of ``width + 2 r`` apart along
    axis 0 and one element apart along axis 1, so every pass is one
    contiguous ufunc call; the axis-1 values that wrap into a neighbouring
    row land in the padding and are dropped.
    """
    radius = len(axis0) // 2
    pitch = padded.shape[1]
    size = (padded.shape[0] - 2 * radius) * pitch
    wide = np.uint16 if 255 * sum(axis0) <= 65535 else np.uint32
    source = padded.ravel().astype(wide)
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
    return out.reshape(-1, pitch)[:, radius : pitch - radius]


def _abs_diff(ref: TactileImage, frame: TactileImage, rows: slice) -> np.ndarray:
    """|frame - ref| over ``rows`` of the frame, without leaving uint8."""
    a, b = ref.pixels[rows], frame.pixels[rows]
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
    scan order).  But it reads the frame once, in bands, smooths exactly only
    the pixels where an integer bound says they can pass, and holds no
    frame-sized difference or float64 array.

    The seeds.  The smoothed value is a non-negative weighted mean, normalised
    to 1, over the pixels within ``r = int(3 sigma + 0.5)`` per axis (the
    radius of ``gaussian_filter`` at ``truncate=3``).  Where every difference
    in reach is at most ``floor(threshold) - 1`` the mean stays below
    ``threshold`` even after rounding, while a plateau at an integer
    ``threshold`` can round just above it.  So every smoothed pixel above
    ``threshold`` lies within ``r`` of a seed, a pixel whose difference is at
    least ``floor(threshold)``.

    The bands.  The frame is read in bands of DETECT_BAND_ROWS rows, each
    difference taken once over the band and up to ``r`` rows above and below
    it, at full width.  A band with no seed in those rows holds no pixel
    above ``threshold`` and is skipped.  Otherwise it is cropped to its seed
    columns grown by ``2 r``, clipped to the frame, and padded once, and the
    bound and the exact values both read that buffer.  Band pixels within
    ``r`` of a seed see the same inputs as in the whole frame (where the crop
    edge is a frame edge, ``mode="nearest"`` replicates the same pixels), so
    they get the same bits.  Farther pixels see only non-seeds, real or
    replicated, so they stay below ``threshold`` as they do in the whole
    frame.

    The bound and the exact values.  A pixel passes when its ``_bound``
    exceeds the limit of ``_bound_weights``, as every pixel whose smoothed
    value exceeds ``threshold`` does, and ``_gaussian_at`` smooths only the
    passing pixels.  Those whose exact value exceeds ``threshold`` are the
    foreground: their flat indices in the frame, in scan order, and their
    values are all that is kept, which ``_label_runs`` and ``_blobs`` then
    label and weigh.  On a noisy (sigma 16) 1920x1080 protocol frame about
    0.3% of the pixels pass the bound, and detection holds the foreground and
    one band's buffers, with no mask and no float64 frame.
    """
    _check_same_size(ref, frame)
    _check_sigma(sigma)
    _check_threshold(threshold)
    if not threshold < 256:  # no uint8 difference reaches 256, and NaN passes no pixel
        return []
    height, width = frame.height, frame.width
    seed_level = math.floor(threshold)
    kernel = _kernel(sigma)
    radius = kernel.size // 2
    axis0, axis1, limit = _bound_weights(kernel, threshold)
    pixels, weights = [np.empty(0, dtype=np.int32)], [np.empty(0)]
    for start in range(0, height, DETECT_BAND_ROWS):
        stop = min(start + DETECT_BAND_ROWS, height)
        lo = max(start - radius, 0)
        diff = _abs_diff(ref, frame, slice(lo, stop + radius))
        seeds = np.flatnonzero(diff.max(axis=0) >= seed_level)
        if seeds.size == 0:
            continue
        left, right = max(seeds[0] - 2 * radius, 0), min(seeds[-1] + 1 + 2 * radius, width)
        padded = _padded(diff[:, left:right], radius, start - lo, stop - lo)
        del diff  # the padded band is all that is read from here on
        passing = np.flatnonzero(_bound(padded, axis0, axis1) > limit)
        if passing.size == 0:
            continue
        smoothed = _gaussian_at(padded, kernel, passing)
        above = smoothed > threshold
        row, column = np.divmod(passing[above], right - left)
        pixels.append(((row + start) * width + column + left).astype(np.int32))
        weights.append(smoothed[above])
    pixels = np.concatenate(pixels)  # and drop the bands' pieces, one list at a time
    weights = np.concatenate(weights)
    return _blobs(pixels, weights, width, min_area)


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
