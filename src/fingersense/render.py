"""Synthetic tactile image renderer.

Presses parametric indenters against the membrane and renders the resulting
imprint as a grayscale intensity bump over a uniform reference frame.  The
intensity model is monotone in indentation depth, not a photometric
simulation: it exists to exercise the detection/localisation pipeline against
known ground truth, and ships with the standard 56-image contact protocol
(7 objects x 4 tip rotations x 4 side translations).

Displacement model: the indenter's footprint — the object face that touches
the membrane — is embedded in the tangent plane at the contact point, and the
membrane displacement at a surface point p is

    depth(p) = max(0, delta - dist(p, footprint) * k_falloff)

with dist the 3D Euclidean distance to the footprint set and k_falloff = 1
(a 45-degree shoulder around the imprint).  In-surface distances are
approximated by 3D chords; for footprints up to ~5 mm on a 10 mm-radius
membrane the error is under 2%.

Imprint window: every displaced membrane point lies within a ball of radius
rho about the contact point (``_imprint_radius_mm``), and each pixel sees
exactly one membrane point, so only pixels inside the projection of that
ball can differ from the background.  The renderer shades just the ball's
pixel bounding box (``_imprint_window``) and fills the rest of the frame with
the background, so render cost scales with the imprint, not the frame: the
56 protocol frames shade about 1.07M pixels in all.  The box is shaded in
bands of whole rows, at most RENDER_BAND_PX pixels each, so the float64
temporaries stay a few MB even when the box is the whole frame; every pixel
is computed on its own, so the bands give the same bytes.

``write_images`` writes the images of ``render`` and ``dataset``, all or none,
and removes the ``manifest.json`` they replace; a reference is the background
alone, since every forward pixel ray strikes the membrane.  Pixels are
integers, so the noise is the rounded Gaussian K, drawn by inverse CDF
(``_NoiseTable``).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import MAX_SCALE
from .geometry import (  # Shape and OBJECT_ORDER are also read from this module
    OBJECT_ORDER,
    CameraIntrinsics,
    ContactPose,
    PoseKind,
    SensorGeometry,
    Shape,
    SurfacePoint,
    back_project_pixels,
    pose_to_contact_point,
    surface_normal,
)
from .imaging import TactileImage
from .pgm import write_pgm
from .workers import map_forked

BACKGROUND_INTENSITY = 128  # membrane at rest
IMPRINT_GAIN = 60  # intensity units at full indentation depth
K_FALLOFF = 1.0  # depth lost per mm of distance from the footprint
WINDOW_PAD_PX = 2  # margin around the projected imprint ball
RENDER_BAND_PX = 1 << 15  # pixels shaded at once, in whole rows of the window
NOISE_CHUNK_ROWS = 64  # frame rows of noise drawn and added at once; a multiple of 4 (see _buckets)
NOISE_BUCKETS = 1 << 16  # noise table entries, one per uint16 draw
NOISE_CAP = 255  # |K| beyond this clips every pixel in 0..255 as the cap does
_CDF_STEP = np.iinfo(np.int16).min  # table entry of a bucket that holds a CDF step

# Irregular footprint lobes (centre a, centre b, radius) in mm at size 8;
# the primary lobe covers the contact point.
IRREGULAR_LOBES = ((0.0, 0.0, 2.5), (2.5, 1.5, 1.5), (-1.0, -2.5, 1.2))

# The contact protocol: every object is pressed at four tip rotations and
# four side translations, eight contacts in total.
PROTOCOL_ROTATIONS_RAD = (0.0, math.pi / 6, math.pi / 4, math.pi / 3)
PROTOCOL_TRANSLATIONS_MM = (0.0, 5.0, 10.0, 15.0)


@dataclass(frozen=True)
class Indenter:
    """A solid pressed ``depth`` mm into the membrane at ``contact_point``.

    ``characteristic_size`` scales the touching face: sphere diameter,
    cylinder/tube outer diameter, edge length, slab long-side length.  The
    footprint of each shape:

      cone      a single point (the apex touches first)
      sphere    a spherical cap tangent at the contact point
      cylinder  a disc of radius size/2 (flat end face)
      tube      an annulus, outer radius size/2, inner radius 0.6 * size/2
      edge      a line segment of length size
      slab      a size x size/2 rectangle
      irregular a fixed composite of three overlapping discs

    Footprints are laid out in the tangent frame of ``_tangent_basis``; the
    edge and the slab's long side run along its t1.
    """

    shape: Shape
    characteristic_size: float  # mm
    contact_point: SurfacePoint
    depth: float  # mm, indentation along the inward normal

    def __post_init__(self) -> None:
        if not self.depth > 0:
            raise ValueError(f"indentation depth must be positive, got {self.depth}")
        if not 0 < self.characteristic_size <= 10.0:
            raise ValueError(
                "characteristic size must be in (0, 10] mm (objects fit a "
                f"1x1x2 cm envelope), got {self.characteristic_size}"
            )


# Per-object renderer defaults: (shape, characteristic_size mm, depth mm).
# Sizes and depths are chosen so that every protocol contact is detectable
# (the seam pose views the side almost edge-on, which shrinks small imprints
# to slivers) and so that the per-object error ordering of the closed loop
# matches the hardware experiments: sharp/small-footprint objects localise
# best, wide flat faces worst.
DEFAULT_INDENTER_SPECS: dict[str, tuple[Shape, float, float]] = {
    "cone": (Shape.CONE, 5.0, 2.0),
    "sphere": (Shape.SPHERE, 10.0, 2.0),
    "irregular": (Shape.IRREGULAR, 8.0, 1.0),
    "cylinder": (Shape.CYLINDER, 10.0, 1.0),
    "edge": (Shape.EDGE, 10.0, 1.0),
    "tube": (Shape.TUBE, 3.0, 0.75),
    "slab": (Shape.SLAB, 10.0, 1.0),
}


def _tangent_basis(
    ind: Indenter, g: SensorGeometry
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal (t1, t2, n) frame of the tangent plane at the contact.

    t1 is the projection of the finger axis onto the tangent plane, falling
    back to x-hat at the apex, where the axis is normal.
    """
    n = surface_normal(ind.contact_point, g)
    axis = np.array([0.0, 0.0, 1.0])
    t1 = axis - (axis @ n) * n
    norm = np.linalg.norm(t1)
    if norm < 1e-9:
        t1 = np.array([1.0, 0.0, 0.0]) - n[0] * n
        norm = np.linalg.norm(t1)
    t1 = t1 / norm
    return t1, np.cross(n, t1), n


def _planar_footprint_distance(ind: Indenter, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """In-plane distance from tangent coordinates (a, b) to the footprint set."""
    half = ind.characteristic_size / 2.0
    if ind.shape is Shape.CONE:
        return np.hypot(a, b)
    if ind.shape is Shape.CYLINDER:
        return np.maximum(np.hypot(a, b) - half, 0.0)
    if ind.shape is Shape.TUBE:
        rho = np.hypot(a, b)
        inner = 0.6 * half
        return np.maximum.reduce([inner - rho, rho - half, np.zeros_like(rho)])
    if ind.shape is Shape.EDGE:
        along = np.clip(a, -half, half)
        return np.hypot(a - along, b)
    if ind.shape is Shape.SLAB:
        dx = np.maximum(np.abs(a) - half, 0.0)
        dy = np.maximum(np.abs(b) - half / 2.0, 0.0)
        return np.hypot(dx, dy)
    if ind.shape is Shape.IRREGULAR:
        scale = ind.characteristic_size / 8.0
        dists = [
            np.maximum(np.hypot(a - ca * scale, b - cb * scale) - radius * scale, 0.0)
            for ca, cb, radius in IRREGULAR_LOBES
        ]
        return np.minimum.reduce(dists)
    raise ValueError(f"unhandled shape {ind.shape}")  # pragma: no cover


def footprint_distance_mm(
    ind: Indenter, points: np.ndarray, g: SensorGeometry
) -> np.ndarray:
    """3D Euclidean distance from surface points (..., 3) to the footprint.

    Planar footprints are embedded in the tangent plane at the contact point;
    the sphere's footprint is the cap of the ball of radius size/2 resting
    tangent on the surface, so its distance field is measured to the ball's
    boundary directly in 3D.
    """
    points = np.asarray(points, dtype=np.float64)
    c = ind.contact_point.as_array()
    t1, t2, n = _tangent_basis(ind, g)
    if ind.shape is Shape.SPHERE:
        radius = ind.characteristic_size / 2.0
        centre = c + radius * n
        return np.maximum(
            np.linalg.norm(points - centre, axis=-1) - radius, 0.0
        )
    q = points - c
    a = q @ t1
    b = q @ t2
    h = q @ n
    return np.hypot(_planar_footprint_distance(ind, a, b), h)


def _footprint_extent_mm(ind: Indenter) -> float:
    """Radius of a ball about the contact point that holds a planar footprint."""
    half = ind.characteristic_size / 2.0
    if ind.shape is Shape.CONE:
        return 0.0
    if ind.shape in (Shape.CYLINDER, Shape.TUBE, Shape.EDGE):
        return half
    if ind.shape is Shape.SLAB:
        return math.hypot(half, half / 2.0)
    if ind.shape is Shape.IRREGULAR:
        scale = ind.characteristic_size / 8.0
        return max((math.hypot(ca, cb) + radius) * scale for ca, cb, radius in IRREGULAR_LOBES)
    raise ValueError(f"unhandled shape {ind.shape}")  # pragma: no cover


def _imprint_radius_mm(ind: Indenter) -> float:
    """Radius rho of a ball about the contact point c that holds every displaced membrane point.

    A displaced point lies within s = delta / k_falloff of the footprint, so
    for a planar footprint rho = E + s, with E its ``_footprint_extent_mm``.
    The sphere's footprint is the tangent ball of radius R = size / 2 about
    c + R n, with n the outward normal at c.  The membrane is convex, so
    n . (p - c) <= 0 at every membrane point p, and then
    |p - c|^2 <= |p - c - R n|^2 - R^2 < (R + s)^2 - R^2 = size * s + s^2.
    """
    reach = ind.depth / K_FALLOFF
    if ind.shape is Shape.SPHERE:
        return math.sqrt(ind.characteristic_size * reach + reach * reach)
    return _footprint_extent_mm(ind) + reach


def _imprint_window(ind: Indenter, k: CameraIntrinsics) -> tuple[slice, slice]:
    """(rows, columns) of the frame that can show the indenter's imprint.

    The box bounds the projection of the ball of radius rho
    (``_imprint_radius_mm``) around the contact point, padded by
    WINDOW_PAD_PX and clipped to the frame.  Along each image axis the bound
    comes from the two rays tangent to the ball's disc in the x-z (for u) or
    y-z (for v) plane.  If the ball reaches z <= 0 or a tangent ray reaches
    90 degrees, its projection is unbounded and the window is the whole frame.
    """
    c = ind.contact_point
    rho = _imprint_radius_mm(ind)
    full = (slice(0, k.height), slice(0, k.width))
    if c.z - rho <= 0:
        return full
    window = []
    for lateral, centre, size in ((c.y, k.cy, k.height), (c.x, k.cx, k.width)):
        theta = math.atan2(lateral, c.z)
        half_angle = math.asin(rho / math.hypot(lateral, c.z))
        if abs(theta) + half_angle >= math.pi / 2:
            return full
        lo = k.alpha * math.tan(theta - half_angle) + centre
        hi = k.alpha * math.tan(theta + half_angle) + centre
        start = min(size, max(0, math.floor(lo) - WINDOW_PAD_PX))
        stop = max(start, min(size, math.ceil(hi) + WINDOW_PAD_PX + 1))
        window.append(slice(start, stop))
    return window[0], window[1]


def render_contact(ind: Indenter, g: SensorGeometry, k: CameraIntrinsics) -> TactileImage:
    """Render the imprint of an indenter over the reference frame (see ``_shade_imprint``)."""
    image = np.full((k.height, k.width), BACKGROUND_INTENSITY, dtype=np.uint8)
    _shade_imprint(ind, g, k, image)
    return TactileImage(image)


def _shade_imprint(ind: Indenter, g: SensorGeometry, k: CameraIntrinsics, image: np.ndarray) -> None:
    """Shade the imprint of an indenter into ``image``, a (k.height, k.width) uint8 frame of background.

    Pixel intensity is BACKGROUND + GAIN * depth / ind.depth, clamped to
    [0, 255]: the deepest point renders at a fixed contrast regardless of
    delta, and the imprint shrinks as delta does.  Only ``_imprint_window``
    is shaded (see the module docstring), in bands of whole rows holding at
    most RENDER_BAND_PX pixels, or one row if a row is wider.
    """
    rows, columns = _imprint_window(ind, k)
    band_rows = max(1, RENDER_BAND_PX // max(1, columns.stop - columns.start))
    for top in range(rows.start, rows.stop, band_rows):
        band = slice(top, min(top + band_rows, rows.stop))
        v, u = np.mgrid[band, columns]
        points, _ = back_project_pixels(u, v, k, g)
        dist = footprint_distance_mm(ind, points, g)
        depth = np.maximum(0.0, ind.depth - dist * K_FALLOFF)
        intensity = BACKGROUND_INTENSITY + IMPRINT_GAIN * depth / ind.depth
        image[band, columns] = np.rint(np.clip(intensity, 0, 255)).astype(np.uint8)


def default_indenter(object_label: str, pose: ContactPose, g: SensorGeometry) -> Indenter:
    """The protocol indenter for an object label at a protocol pose, refused before any image is made."""
    try:
        shape, size, depth = DEFAULT_INDENTER_SPECS[object_label]
    except KeyError:
        raise ValueError(
            f"unknown object {object_label!r}; expected one of {OBJECT_ORDER}"
        ) from None
    if not depth < g.r:
        raise ValueError(f"indentation depth {depth} must stay below the membrane radius {g.r}")
    return Indenter(shape, size, pose_to_contact_point(pose, g), depth)


# ---------------------------------------------------------------------------
# protocol dataset


@dataclass(frozen=True)
class ManifestEntry:
    object_label: str
    pose: ContactPose
    reference: str  # image path, relative to the manifest
    frame: str
    truth_mm: tuple[float, float, float]


def protocol_poses() -> list[ContactPose]:
    """The eight poses of the contact protocol: rotations then translations."""
    return [ContactPose.rotation(t) for t in PROTOCOL_ROTATIONS_RAD] + [
        ContactPose.translation(t) for t in PROTOCOL_TRANSLATIONS_MM
    ]


def save_manifest(path: str | Path, entries: tuple[ManifestEntry, ...]) -> None:
    payload = [
        {
            "object": e.object_label,
            "pose_kind": e.pose.kind.value,
            "pose_value": e.pose.value,
            "reference": e.reference,
            "frame": e.frame,
            "truth_mm": list(e.truth_mm),
        }
        for e in entries
    ]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _manifest_entry(item) -> ManifestEntry:
    """Parse one manifest entry; raises ValueError naming what is wrong."""
    if not isinstance(item, dict):
        raise ValueError(f"expected a JSON object, got {type(item).__name__}")
    keys = ("object", "pose_kind", "pose_value", "reference", "frame", "truth_mm")
    missing = [key for key in keys if key not in item]
    if missing:
        raise ValueError(f"missing key(s) {', '.join(missing)}")
    # The object is a CSV cell and the paths go into one-line warnings.
    for key, refused in (("object", ',"\r\n'), ("reference", "\r\n"), ("frame", "\r\n")):
        value = item[key]
        if not isinstance(value, str):
            raise ValueError(f"{key} must be a string, got {value!r}")
        if any(char in value for char in refused):
            raise ValueError(f"{key} may not hold any of {refused!r}, got {value!r}")
        # A relative path with no '..' part, resolved against the manifest's
        # directory; the check reads the text, so symbolic links are followed.
        if key != "object" and (value.startswith("/") or ".." in value.split("/")):
            raise ValueError(f"{key} must be a relative path without '..', got {value!r}")
        if key != "object" and value.rpartition("/")[2] in ("", "."):  # it would name a directory
            raise ValueError(f"{key} must name a file, got {value!r}")
    truth = item["truth_mm"]
    if not isinstance(truth, list) or len(truth) != 3:
        raise ValueError(f"truth_mm must be a list of 3 numbers, got {truth!r}")
    for value in (item["pose_value"], *truth):
        # bool is an int subclass; exclude it explicitly.
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"non-numeric pose_value or truth_mm item {value!r}")
    try:
        pose = ContactPose(PoseKind(item["pose_kind"]), float(item["pose_value"]))
        truth_mm = tuple(float(v) for v in truth)
    except OverflowError as exc:  # an int no float holds
        raise ValueError(f"non-numeric pose_value or truth_mm ({exc})") from None
    if not all(math.isfinite(v) for v in (pose.value, *truth_mm)):
        raise ValueError("pose_value and truth_mm must be finite")
    # No accepted membrane (r_mm and d_mm at most MAX_SCALE) reaches farther,
    # and within it every localisation error is finite.
    if not all(abs(v) <= 2 * MAX_SCALE for v in truth_mm):
        raise ValueError(f"truth_mm items must lie in [-{2 * MAX_SCALE:g}, {2 * MAX_SCALE:g}], got {truth!r}")
    return ManifestEntry(item["object"], pose, item["reference"], item["frame"], truth_mm)


def load_manifest(path: str | Path) -> tuple[ManifestEntry, ...]:
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read manifest {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, list):
        raise ValueError(f"{path}: expected a JSON list of entries, got {type(payload).__name__}")
    entries = []
    for index, item in enumerate(payload):
        try:
            entries.append(_manifest_entry(item))
        except ValueError as exc:
            raise ValueError(f"{path}: entry {index}: {exc}") from None
    return tuple(entries)


@dataclass(frozen=True)
class _NoiseTable:
    """Inverse-CDF tables of K = rint(N(0, sigma)) capped to [-NOISE_CAP, NOISE_CAP].

    ``cdf[j]`` = P(K <= j - NOISE_CAP) = Phi((j - NOISE_CAP + 1/2) / sigma) for
    j = 0 .. 2 * NOISE_CAP - 1; the lower cap holds the lower tail and
    P(K <= NOISE_CAP) = 1.  For U uniform in [0, 1), K is
    searchsorted(cdf, U, side="right") - NOISE_CAP.  ``table[i]`` is that K for
    every U in the bucket [i, i + 1) / NOISE_BUCKETS, or _CDF_STEP when a CDF
    value lies inside the bucket (at most 2 * NOISE_CAP buckets), so that K
    there depends on more bits of U.
    """

    cdf: np.ndarray  # float64, 2 * NOISE_CAP entries
    table: np.ndarray  # int16, NOISE_BUCKETS entries

    @classmethod
    def for_sigma(cls, sigma: float) -> _NoiseTable:
        """The tables for a finite ``sigma`` > 0, from 510 erfc calls.

        Phi(x) = erfc(-x / sqrt 2) / 2.  For a tiny sigma the argument
        overflows to +-inf, where erfc is exact, and for a huge one it is
        about 0; the work is the same for every sigma.

        The table is built from the 510 CDF values alone, with no array of one
        entry per bucket edge.  Scaled by NOISE_BUCKETS, a power of two, each
        value ``c`` is exact, so ``c <= i / NOISE_BUCKETS`` exactly when
        bucket ``i`` is at or after ``ceil(c NOISE_BUCKETS)``: K at the start
        of bucket ``i`` is the number of such starts at or before ``i``, less
        NOISE_CAP, one run of buckets per K.  ``c`` lies inside a bucket
        exactly when ``c NOISE_BUCKETS`` is not an integer, and then inside
        bucket ``floor(c NOISE_BUCKETS)``.
        """
        scale = sigma * math.sqrt(2.0)
        cdf = np.array([0.5 * math.erfc(-(k + 0.5) / scale) for k in range(-NOISE_CAP, NOISE_CAP)])
        scaled = cdf * NOISE_BUCKETS
        starts = np.ceil(scaled).astype(np.intp)  # the first bucket whose start is at or above each value
        runs = np.diff(starts, prepend=0, append=NOISE_BUCKETS)  # the buckets of each K
        table = np.arange(-NOISE_CAP, NOISE_CAP + 1, dtype=np.int16).repeat(runs)
        table[starts[scaled != starts] - 1] = _CDF_STEP
        return cls(cdf, table)


def _buckets(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniform 16-bit noise buckets: ``rng.integers(0, NOISE_BUCKETS, n, dtype=np.uint16)``, cheaper.

    They are read from ceil(n / 4) raw 64-bit words, four 16-bit values a
    word, low first, at under half the cost of ``integers``.  For PCG64 this
    is the same stream: ``integers`` splits each word into two 32-bit halves,
    low first, and each half into two 16-bit values, low first, and
    ``random()`` reads whole words either way.  The streams can part only
    after a call whose ``n`` is not a multiple of 4: ``integers`` keeps a
    leftover 32-bit half for its next call, where this drops it.
    """
    words = rng.bit_generator.random_raw(-(-n // 4)).astype("<u8", copy=False)
    return words.view("<u2")[:n]


def _add_noise(pixels: np.ndarray, noise: _NoiseTable | None, rng: np.random.Generator) -> None:
    """Add rounded Gaussian noise drawn from ``noise`` to the uint8 frame ``pixels``, in place.

    Nothing is added if ``noise`` is None.

    For an integer pixel p, rint(clip(p + N(0, sigma), 0, 255)) has the law
    of clip(p + K, 0, 255) with K = rint(N(0, sigma)), and capping K to
    [-255, 255] changes no clipped pixel.  Each pixel draws K by inverse CDF:
    one 16-bit bucket picks an entry of ``noise.table``; if that is
    _CDF_STEP, one 53-bit ``rng.random()`` V more gives
    U = (bucket + V) / NOISE_BUCKETS and K is found in ``noise.cdf``.  So the
    law is exact to the CDF's float precision, tails included, and more than
    99% of the pixels cost one 16-bit draw and a look-up.  K is added to the
    pixels in int16, clipped and stored as uint8.

    The noise is drawn and added NOISE_CHUNK_ROWS rows at a time, so the
    temporaries take a chunk's memory, not a frame's: the chunk's buckets
    (``_buckets``), then the 53-bit draws of its step pixels in row-major
    order.  Every chunk but the last holds a multiple of 4 pixels, which
    ``_buckets`` needs to draw the stream of ``rng.integers``.  That order is
    the stream's layout, so a seed gives the same bytes everywhere.  Each
    chunk's rows are read before they are written.  Touches nothing but
    ``pixels`` and ``rng``; ``noise`` is only read.
    """
    if noise is None:
        return
    for top in range(0, pixels.shape[0], NOISE_CHUNK_ROWS):
        rows = slice(top, top + NOISE_CHUNK_ROWS)
        shape = pixels[rows].shape
        index = _buckets(rng, shape[0] * shape[1]).reshape(shape)
        k = np.take(noise.table, index)
        steps = np.flatnonzero(k == _CDF_STEP)
        if steps.size:
            u = (index.flat[steps] + rng.random(steps.size)) / NOISE_BUCKETS
            k.flat[steps] = np.searchsorted(noise.cdf, u, side="right") - NOISE_CAP
        k += pixels[rows]
        np.clip(k, 0, 255, out=k)
        pixels[rows] = k


def _image_error(path: Path, exc: OSError) -> OSError:
    """The error of writing image ``path``, naming ``path`` where ``exc`` named a temporary file."""
    if exc.filename is not None:
        exc = OSError(exc.errno, exc.strerror, str(path))
    return OSError(f"cannot write image {path}: {exc}")


def write_images(
    out_dir: str | Path,
    images: list[tuple[str, Indenter | None]],
    g: SensorGeometry,
    k: CameraIntrinsics,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> None:
    """Write every ``(file name, indenter or None)`` image into ``out_dir``, or none of them.

    An image is the background with the indenter's imprint, if any, plus
    clip(p + K, 0, 255) with K = rint(N(0, noise_sigma)) from one
    ``_NoiseTable`` (none at 0) and the image's own RNG stream split off
    ``seed`` in list order, never depending on the CPU count.  Each image is
    a job of ``workers.map_forked`` that shades, noises and writes it under a
    temporary name, in one frame buffer per process.  Only once all are
    written does the calling process remove ``out_dir``'s ``manifest.json``
    and rename the images into place in list order, so a failed render, write
    or worker renames none and a failed rename leaves no manifest; every
    temporary file is removed first.
    """
    if not (noise_sigma >= 0 and math.isfinite(noise_sigma)):
        raise ValueError(f"noise sigma must be finite and non-negative, got {noise_sigma}")
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create directory {out_dir}: {exc}") from exc
    temps = [out_dir / f".{name}.{os.getpid()}.tmp" for name, _ in images]
    streams = np.random.SeedSequence(seed).spawn(len(images))
    noise = _NoiseTable.for_sigma(noise_sigma) if noise_sigma > 0 else None

    pixels = None  # the frame of the process running the jobs, made at its first job

    def frame(index: int) -> None:
        """Make image ``index`` and write it under its temporary name."""
        nonlocal pixels
        name, ind = images[index]
        if pixels is None:
            pixels = np.empty((k.height, k.width), dtype=np.uint8)
        pixels.fill(BACKGROUND_INTENSITY)
        if ind is not None:
            _shade_imprint(ind, g, k, pixels)
        _add_noise(pixels, noise, np.random.default_rng(streams[index]))
        try:
            write_pgm(temps[index], pixels)
        except OSError as exc:
            raise _image_error(out_dir / name, exc) from exc

    try:
        map_forked(frame, range(len(images)))
        (out_dir / "manifest.json").unlink(missing_ok=True)  # so a failed rename leaves no manifest of mixed frames
        for (name, _), temp in zip(images, temps):
            try:
                os.replace(temp, out_dir / name)
            except OSError as exc:
                raise _image_error(out_dir / name, exc) from exc
    except BaseException:
        for temp in temps:
            with contextlib.suppress(OSError):
                temp.unlink(missing_ok=True)
        raise


def generate_protocol_dataset(
    out_dir: str | Path,
    g: SensorGeometry,
    k: CameraIntrinsics,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> tuple[ManifestEntry, ...]:
    """Render the full 56-image protocol plus one reference frame.

    Plans every image's name, indenter and manifest entry, so a pose the
    geometry cannot hold is refused before ``out_dir`` is made, then writes
    them with ``write_images`` and returns the entries of ``manifest.json``.
    """
    reference_name = "reference.pgm"
    images = [(reference_name, None)]
    entries = []
    for object_label in OBJECT_ORDER:
        for pose_index, pose in enumerate(protocol_poses()):
            name = f"{object_label}_{pose.kind.value}_{pose_index % 4}.pgm"
            ind = default_indenter(object_label, pose, g)
            truth = ind.contact_point
            images.append((name, ind))
            entries.append(ManifestEntry(object_label, pose, reference_name, name, (truth.x, truth.y, truth.z)))

    write_images(out_dir, images, g, k, noise_sigma, seed)
    manifest = tuple(entries)
    save_manifest(Path(out_dir) / "manifest.json", manifest)
    return manifest
