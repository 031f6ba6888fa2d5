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

Imprint window: a surface point farther than delta / k_falloff from the
footprint is not displaced, and every footprint point lies within a
per-shape extent E of the contact point c, so the imprint is confined to the
ball of radius rho = E + delta / k_falloff around c.  Each pixel sees exactly
one membrane point, so only pixels inside the projection of that ball can
differ from the background.  The renderer back-projects and shades just the
ball's pixel bounding box, padded by 2 px against rounding, and fills the
rest of the frame with the background; when the ball reaches the camera
plane (z <= 0) or a tangent ray reaches 90 degrees the box is the whole
frame.  Render cost therefore scales with the imprint, not the frame.  The
box is shaded in bands of whole rows, at most RENDER_BAND_PX pixels each, so
the float64 temporaries stay a few MB even when the box is the whole frame;
every pixel is computed on its own, so the bands give the same bytes.

Protocol dataset: every image adds Gaussian pixel noise from its own random
stream split off the seed.  Pixels are integers, so the noise is drawn as the
rounded Gaussian K by inverse CDF from a 16-bit table (see ``_NoiseTable``).
Each frame is one job on worker threads, one per usable CPU: a worker renders
it, builds its manifest entry and adds its noise.  A frame depends only on its
own pose and stream, so the bytes do not depend on scheduling or on the CPU
count.  Writing and the manifest stay on the calling thread, in protocol
order.  ``_map_in_order``, the bounded map in order that runs the frames,
also runs ``localize`` over a manifest.
"""

from __future__ import annotations

import json
import math
import os
from collections import deque
from collections.abc import Callable, Iterable
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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

BACKGROUND_INTENSITY = 128  # membrane at rest
IMPRINT_GAIN = 60  # intensity units at full indentation depth
K_FALLOFF = 1.0  # depth lost per mm of distance from the footprint
WINDOW_PAD_PX = 2  # margin around the projected imprint ball
RENDER_BAND_PX = 1 << 15  # pixels shaded at once, in whole rows of the window
NOISE_CHUNK_ROWS = 64  # frame rows of noise drawn and added at once
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
    """Radius of a ball about the contact point that holds the whole footprint."""
    half = ind.characteristic_size / 2.0
    if ind.shape is Shape.CONE:
        return 0.0
    if ind.shape is Shape.SPHERE:
        return 2.0 * half  # the far pole of the tangent ball
    if ind.shape in (Shape.CYLINDER, Shape.TUBE, Shape.EDGE):
        return half
    if ind.shape is Shape.SLAB:
        return math.hypot(half, half / 2.0)
    if ind.shape is Shape.IRREGULAR:
        scale = ind.characteristic_size / 8.0
        return max((math.hypot(ca, cb) + radius) * scale for ca, cb, radius in IRREGULAR_LOBES)
    raise ValueError(f"unhandled shape {ind.shape}")  # pragma: no cover


def _imprint_window(ind: Indenter, k: CameraIntrinsics) -> tuple[slice, slice]:
    """(rows, columns) of the frame that can show the indenter's imprint.

    The box bounds the projection of the ball of radius
    rho = E + delta / k_falloff around the contact point, padded by
    WINDOW_PAD_PX and clipped to the frame.  Along each image axis the bound
    comes from the two rays tangent to the ball's disc in the x-z (for u) or
    y-z (for v) plane.  If the ball reaches z <= 0 or a tangent ray reaches
    90 degrees, its projection is unbounded and the window is the whole frame.
    """
    c = ind.contact_point
    rho = _footprint_extent_mm(ind) + ind.depth / K_FALLOFF
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


def render_reference(k: CameraIntrinsics) -> TactileImage:
    """The no-contact frame: uniform background across the membrane silhouette.

    The membrane wraps around the camera, so every forward pixel ray strikes
    it (at z > 0) and the silhouette covers the full frame.
    """
    return TactileImage(np.full((k.height, k.width), BACKGROUND_INTENSITY, dtype=np.uint8))


def render_contact(ind: Indenter, g: SensorGeometry, k: CameraIntrinsics) -> TactileImage:
    """Render the imprint of an indenter over the reference frame.

    Pixel intensity is BACKGROUND + GAIN * depth / ind.depth, clamped to
    [0, 255]: the deepest point renders at a fixed contrast regardless of
    delta, and the imprint shrinks as delta does.

    Only the imprint window is shaded: the pixel box bounding the projection
    of the ball of radius rho = E + delta / k_falloff around the contact
    point (E the footprint's extent), padded by 2 px.  Every other pixel sees
    an undisplaced membrane point and keeps the background.  If the ball
    reaches z <= 0 or a tangent ray reaches 90 degrees the window is the
    whole frame.  The window is shaded in bands of whole rows holding at most
    RENDER_BAND_PX pixels (one row if a row is wider), so memory stays
    bounded when the window is large.
    """
    if not ind.depth < g.r:
        raise ValueError(
            f"indentation depth {ind.depth} must stay below the membrane radius {g.r}"
        )
    rows, columns = _imprint_window(ind, k)
    image = np.full((k.height, k.width), BACKGROUND_INTENSITY, dtype=np.uint8)
    band_rows = max(1, RENDER_BAND_PX // max(1, columns.stop - columns.start))
    for top in range(rows.start, rows.stop, band_rows):
        band = slice(top, min(top + band_rows, rows.stop))
        v, u = np.mgrid[band, columns]
        points, _ = back_project_pixels(u, v, k, g)
        dist = footprint_distance_mm(ind, points, g)
        depth = np.maximum(0.0, ind.depth - dist * K_FALLOFF)
        intensity = BACKGROUND_INTENSITY + IMPRINT_GAIN * depth / ind.depth
        image[band, columns] = np.rint(np.clip(intensity, 0, 255)).astype(np.uint8)
    return TactileImage(image)


def default_indenter(object_label: str, pose: ContactPose, g: SensorGeometry) -> Indenter:
    """The protocol indenter for an object label at a protocol pose."""
    try:
        shape, size, depth = DEFAULT_INDENTER_SPECS[object_label]
    except KeyError:
        raise ValueError(
            f"unknown object {object_label!r}; expected one of {OBJECT_ORDER}"
        ) from None
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
        """The tables for a finite ``sigma`` > 0: 510 erfc calls and two searches.

        Phi(x) = erfc(-x / sqrt 2) / 2.  For a tiny sigma the argument
        overflows to +-inf, where erfc is exact, and for a huge one it is
        about 0; the work is the same for every sigma.
        """
        scale = sigma * math.sqrt(2.0)
        cdf = np.array([0.5 * math.erfc(-(k + 0.5) / scale) for k in range(-NOISE_CAP, NOISE_CAP)])
        edges = np.arange(NOISE_BUCKETS + 1) / NOISE_BUCKETS
        low = np.searchsorted(cdf, edges[:-1], side="right")  # K at each bucket's start
        high = np.searchsorted(cdf, edges[1:], side="left")  # K just below its end
        table = np.where(low == high, low - NOISE_CAP, _CDF_STEP).astype(np.int16)
        return cls(cdf, table)


def _add_noise(
    image: TactileImage, noise: _NoiseTable | None, rng: np.random.Generator
) -> np.ndarray:
    """``image`` with rounded Gaussian noise drawn from ``noise``, or unchanged if it is None.

    For an integer pixel p, rint(clip(p + N(0, sigma), 0, 255)) has the law
    of clip(p + K, 0, 255) with K = rint(N(0, sigma)), and capping K to
    [-255, 255] changes no clipped pixel.  Each pixel draws K by inverse CDF:
    one ``rng.integers(0, NOISE_BUCKETS, dtype=np.uint16)`` picks an entry of
    ``noise.table``; if that is _CDF_STEP, one 53-bit ``rng.random()`` V more
    gives U = (bucket + V) / NOISE_BUCKETS and K is found in ``noise.cdf``.  So
    the law is exact to the CDF's float precision, tails included, and more
    than 99% of the pixels cost one 16-bit draw and a look-up.  K is added to
    the pixels in int16, clipped and stored as uint8.

    The noise is drawn and added NOISE_CHUNK_ROWS rows at a time, so the
    temporaries take a chunk's memory, not a frame's: the chunk's 16-bit
    draws, then the 53-bit draws of its step pixels in row-major order.  That
    order is the stream's layout, so a seed gives the same bytes everywhere.
    Touches nothing but ``image`` and ``rng`` (``noise`` is only read), so
    frames with their own generators can be noised on different threads at
    once.
    """
    pixels = image.pixels
    if noise is None:
        return pixels
    noisy = np.empty_like(pixels)
    for top in range(0, pixels.shape[0], NOISE_CHUNK_ROWS):
        rows = slice(top, top + NOISE_CHUNK_ROWS)
        index = rng.integers(0, NOISE_BUCKETS, pixels[rows].shape, dtype=np.uint16)
        k = np.take(noise.table, index)
        steps = np.flatnonzero(k == _CDF_STEP)
        if steps.size:
            u = (index.flat[steps] + rng.random(steps.size)) / NOISE_BUCKETS
            k.flat[steps] = np.searchsorted(noise.cdf, u, side="right") - NOISE_CAP
        k += pixels[rows]
        np.clip(k, 0, 255, out=k)
        noisy[rows] = k
    return noisy


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity call on this OS
        return os.cpu_count() or 1


def _map_in_order(fn: Callable, items: Iterable, consume: Callable) -> None:
    """``consume(fn(item))`` for every item, in order, with ``fn`` on worker threads.

    There is one worker per usable CPU, each with at most one item in flight.
    ``items`` is iterated and ``consume`` is called on the calling thread, in
    the order of ``items``, so only ``fn`` needs to be safe to run on several
    items at once.  Iterating ``items`` must not raise: a caller turns its
    errors into values, as ``localize`` does with reference reads.  If ``fn``
    or ``consume`` raises, nothing more is consumed, and the error is raised
    once the items in flight have finished, so no worker outlives the call;
    that is the one error path.
    """
    workers = _usable_cpus()
    in_flight: deque[Future] = deque()
    with ThreadPoolExecutor(workers) as pool:
        for item in items:
            in_flight.append(pool.submit(fn, item))
            if len(in_flight) == workers:
                consume(in_flight.popleft().result())
        while in_flight:
            consume(in_flight.popleft().result())


def generate_protocol_dataset(
    out_dir: str | Path,
    g: SensorGeometry,
    k: CameraIntrinsics,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> tuple[ManifestEntry, ...]:
    """Render the full 56-image protocol plus one reference frame.

    Writes PGM images and ``manifest.json`` into ``out_dir`` and returns the
    manifest's entries.  Gaussian pixel noise of standard deviation
    ``noise_sigma`` is added independently to every written frame (reference
    included), with one RNG stream split off the master seed per image, so
    outputs are reproducible for a fixed (seed, noise_sigma) and unchanged by
    rendering order.  Every pixel gets clip(p + K, 0, 255) with
    K = rint(N(0, noise_sigma)), drawn by ``_add_noise`` from one
    ``_NoiseTable`` built per call (about 5 ms; none when ``noise_sigma`` is
    0, which writes the clean frames).

    Each frame is one job of ``_map_in_order``: a worker thread, one per
    usable CPU with at most one frame in flight, renders the frame, builds its
    manifest entry and adds its noise; NumPy's ufuncs and draws release the
    GIL, so the frames are made in parallel.  A frame depends only on its own
    pose and stream, so the bytes do not depend on scheduling or on the number
    of CPUs.  Writing and the manifest stay on the calling thread in protocol
    order, so the frames before a failing render or write are written before
    its error is raised, and none after it.
    """
    if not (noise_sigma >= 0 and math.isfinite(noise_sigma)):
        raise ValueError(f"noise sigma must be finite and non-negative, got {noise_sigma}")
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create dataset directory {out_dir}: {exc}") from exc

    reference_name = "reference.pgm"
    # (file name, object, pose) of every image in stream order; the reference has no object.
    jobs = [(reference_name, None, None)] + [
        (f"{object_label}_{pose.kind.value}_{pose_index % 4}.pgm", object_label, pose)
        for object_label in OBJECT_ORDER
        for pose_index, pose in enumerate(protocol_poses())
    ]
    streams = np.random.SeedSequence(seed).spawn(len(jobs))
    noise = _NoiseTable.for_sigma(noise_sigma) if noise_sigma > 0 else None
    entries = []

    def frame(item):
        """(file name, noisy pixels, manifest entry or None) of one job, on a worker thread."""
        (name, object_label, pose), stream = item
        if object_label is None:
            image, entry = render_reference(k), None
        else:
            ind = default_indenter(object_label, pose, g)
            truth = ind.contact_point
            entry = ManifestEntry(object_label, pose, reference_name, name, (truth.x, truth.y, truth.z))
            image = render_contact(ind, g, k)
        return name, _add_noise(image, noise, np.random.default_rng(stream)), entry

    def write(result) -> None:
        name, pixels, entry = result
        path = out_dir / name
        try:
            write_pgm(path, pixels)
        except OSError as exc:
            raise OSError(f"cannot write image {path}: {exc}") from exc
        if entry is not None:
            entries.append(entry)

    _map_in_order(frame, zip(jobs, streams), write)

    manifest = tuple(entries)
    save_manifest(out_dir / "manifest.json", manifest)
    return manifest
