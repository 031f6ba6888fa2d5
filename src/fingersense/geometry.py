"""Projective model of a finger-shaped optical tactile sensor.

The sensing membrane is a cylinder of radius ``r`` capped by a semi-sphere of
the same radius.  A pinhole camera sits at the centre of the cylinder base and
looks along the finger axis.

Coordinate conventions:

  Sensor frame (right-handed, millimetres):
    - Origin: camera pinhole, at the centre of the membrane base.
    - z-axis: along the finger, towards the tip.
    - Semi-sphere centre at (0, 0, d); apex at (0, 0, d + r).
    - Membrane:  x^2 + y^2 + (z - d)^2 = r^2   for z >  d   (tip)
                 x^2 + y^2 = r^2               for 0 <= z <= d  (side)

  Image frame (pixels):
    - Origin: top-left corner; u along the width, v along the height.
    - Principal point at (cx, cy); centred coordinates are
      chi = u - cx, gamma = v - cy.

A single focal constant ``alpha`` (focal length times pixel pitch, square
pixels) maps both axes:  u = alpha x / z + cx,  v = alpha y / z + cy, written
once, in :func:`project_points`.  Extrinsics are fixed to identity: the camera
never moves within the sensor.

Back-projection intersects a pixel's viewing ray with the membrane.  With
omega = chi^2 + gamma^2, pixels inside the image-space circle of radius
r * alpha / d see the tip and solve

    z^2 (omega + alpha^2) - 2 d alpha^2 z + (d^2 - r^2) alpha^2 = 0

(larger root; the camera is inside the membrane, the near root is the far
side of the sphere behind the visible surface).  Pixels outside the circle
see the side at z = r * alpha / sqrt(omega).  Because the membrane encloses
the camera in every forward direction, any pixel of a physically valid
configuration intersects the membrane; :class:`NoIntersectionError` guards
degenerate parameter combinations only.  This rule is implemented once, in
:func:`back_project_pixels`; :func:`back_project` is its one-pixel case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class Region(Enum):
    """Which part of the membrane a 3D point lies on."""

    TIP = "tip"
    SIDE = "side"
    OFF = "off"


class PoseKind(Enum):
    """How the actuator brings an object into contact with the finger."""

    ROTATION = "rotation"
    TRANSLATION = "translation"


class Shape(Enum):
    """The objects pressed against the finger in the contact protocol."""

    CONE = "cone"
    SPHERE = "sphere"
    IRREGULAR = "irregular"
    CYLINDER = "cylinder"
    EDGE = "edge"
    TUBE = "tube"
    SLAB = "slab"


# Canonical object order for the protocol dataset and the report tables.
OBJECT_ORDER = tuple(shape.value for shape in Shape)

SURFACE_TOL_MM = 1e-6  # how far a point may lie off the membrane and still be on it


class NoIntersectionError(ValueError):
    """A viewing ray does not meet the membrane (degenerate geometry)."""


@dataclass(frozen=True)
class SensorGeometry:
    """Physical dimensions of the membrane, in millimetres."""

    r: float = 10.0  # membrane radius (cylinder and semi-sphere)
    d: float = 30.0  # distance from the base to the semi-sphere centre

    def __post_init__(self) -> None:
        if not self.r > 0:
            raise ValueError(f"membrane radius must be positive, got r={self.r}")
        if self.d < 0:
            raise ValueError(f"cylinder length must be non-negative, got d={self.d}")


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics; square pixels, so one focal constant serves both axes."""

    alpha: float = 300.0  # focal length x pixel pitch (pixels)
    cx: float = 960.0  # principal point offset along u (pixels)
    cy: float = 540.0  # principal point offset along v (pixels)
    width: int = 1920  # frame width (pixels)
    height: int = 1080  # frame height (pixels)

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"frame size must be positive, got {self.width}x{self.height}")
        if not (0 <= self.cx <= self.width and 0 <= self.cy <= self.height):
            raise ValueError(
                f"principal point ({self.cx}, {self.cy}) outside "
                f"{self.width}x{self.height} frame"
            )


@dataclass(frozen=True)
class PixelCoord:
    """Continuous image coordinates, origin at the top-left of the frame."""

    u: float
    v: float


@dataclass(frozen=True)
class SurfacePoint:
    """A 3D point on the membrane, tagged with the region it belongs to."""

    x: float  # mm
    y: float  # mm
    z: float  # mm
    region: Region

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float64)


@dataclass(frozen=True)
class ContactPose:
    """One pose of the contact protocol: a tip rotation or a side translation."""

    kind: PoseKind
    value: float  # radians for rotations, millimetres for translations

    @classmethod
    def rotation(cls, theta: float) -> "ContactPose":
        return cls(PoseKind.ROTATION, float(theta))

    @classmethod
    def translation(cls, tau: float) -> "ContactPose":
        return cls(PoseKind.TRANSLATION, float(tau))


def _as_xyz(point) -> tuple[float, float, float]:
    """Accept a SurfacePoint, a 3-sequence or an ndarray as a 3D point."""
    if isinstance(point, SurfacePoint):
        return point.x, point.y, point.z
    x, y, z = point
    return float(x), float(y), float(z)


def classify_surface_point(point, geometry: SensorGeometry) -> Region:
    """Classify a 3D point as lying on the tip, on the side, or off the membrane.

    A point is on a surface when its radial residual is at most
    SURFACE_TOL_MM.  Points within that distance of the seam circle (z = d,
    x^2 + y^2 = r^2) satisfy both surface equations and classify as SIDE,
    which keeps the answer unique.
    """
    x, y, z = _as_xyz(point)
    r, d, tol = geometry.r, geometry.d, SURFACE_TOL_MM

    radial = math.hypot(x, y)
    if abs(radial - r) <= tol and -tol <= z <= d + tol:
        return Region.SIDE
    spherical = math.sqrt(x * x + y * y + (z - d) * (z - d))
    if abs(spherical - r) <= tol and z > d:
        return Region.TIP
    return Region.OFF


def project_points(x, y, z, intrinsics: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Project 3D points in the sensor frame onto the image plane.

    Returns (u, v) in the broadcast shape of x, y and z.  The camera has the
    identity pose, and points at or behind its plane (z <= 0) are rejected.
    """
    x, y, z = (np.asarray(c, dtype=np.float64) for c in (x, y, z))
    behind = z[z <= 0]
    if behind.size:
        raise ValueError(f"cannot project point with z={float(behind.flat[0])} <= 0 (behind the camera)")
    k = intrinsics
    return k.alpha * x / z + k.cx, k.alpha * y / z + k.cy


def project(point, intrinsics: CameraIntrinsics) -> PixelCoord:
    """Project one 3D point: the one-point case of :func:`project_points`."""
    u, v = project_points(*_as_xyz(point), intrinsics)
    return PixelCoord(float(u), float(v))


def discontinuity_circle_radius_px(
    intrinsics: CameraIntrinsics, geometry: SensorGeometry
) -> float:
    """Image-space radius r * alpha / d of the tip/side discontinuity circle."""
    if geometry.d == 0:
        raise ValueError("discontinuity circle is undefined for d = 0 (pure hemisphere)")
    return geometry.r * intrinsics.alpha / geometry.d


def back_project(
    pixel: PixelCoord, intrinsics: CameraIntrinsics, geometry: SensorGeometry
) -> SurfacePoint:
    """Map an image pixel to the 3D point where its viewing ray meets the membrane.

    The one-pixel case of :func:`back_project_pixels`, which holds the only
    copy of the tip/side, apex and seam rules.
    """
    points, tip = back_project_pixels(pixel.u, pixel.v, intrinsics, geometry)
    return SurfacePoint(*points.tolist(), Region.TIP if tip else Region.SIDE)


def back_project_pixels(
    u: np.ndarray,
    v: np.ndarray,
    intrinsics: CameraIntrinsics,
    geometry: SensorGeometry,
) -> tuple[np.ndarray, np.ndarray]:
    """Back-project pixel coordinates onto the membrane.

    Returns (points, tip_mask): ``points`` has shape u.shape + (3,) and
    ``tip_mask`` is True where the ray meets the semi-spherical tip.  Pixels
    strictly inside the discontinuity circle intersect the tip (larger
    quadratic root), all others the cylindrical side.  omega = 0 is the apex
    (0, 0, d + r), returned exactly and always on the tip.  For d = 0 the
    whole membrane is tip.  Scalar u and v give points of shape (3,):
    :func:`back_project` is this one-pixel case.
    """
    k, g = intrinsics, geometry
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    chi = u - k.cx
    gamma = v - k.cy
    omega = chi * chi + gamma * gamma
    apex = omega == 0.0

    alpha2 = k.alpha * k.alpha
    if g.d == 0:
        tip = np.ones(omega.shape, dtype=bool)
    else:
        # ``seam * seam``: Python's ``seam ** 2`` raises OverflowError for a
        # tiny positive d, while the product gives +inf (every ray meets the
        # tip) and equals ``seam ** 2`` bit for bit whenever that is finite.
        # For d >> r the product underflows to 0, so the apex is added by name.
        seam = discontinuity_circle_radius_px(k, g)
        tip = (omega < seam * seam) | apex

    # Every pixel gets both depths and keeps one.  The discarded one may be
    # +inf (the side depth at omega = 0) or nan (d^2 overflows for d >> r).
    with np.errstate(divide="ignore", invalid="ignore"):
        # z^2 (omega + alpha^2) - 2 d alpha^2 z + (d^2 - r^2) alpha^2 = 0
        a = omega + alpha2
        reduced_disc = g.d * g.d * alpha2 - a * (g.d * g.d - g.r * g.r)
        if np.any(tip & (reduced_disc < 0)):
            raise NoIntersectionError("tip quadratic has negative discriminant")
        z_tip = (g.d * alpha2 + k.alpha * np.sqrt(np.maximum(reduced_disc, 0.0))) / a
        # In (0, d] by construction; on the seam it may round 1 ulp above d.
        z_side = g.r * k.alpha / np.sqrt(omega)
    z = np.where(tip, z_tip, z_side)

    points = np.empty(omega.shape + (3,), dtype=np.float64)
    points[..., 0] = chi / k.alpha * z
    points[..., 1] = gamma / k.alpha * z
    points[..., 2] = z
    if np.any(apex):
        points[apex] = (0.0, 0.0, g.d + g.r)
    return points, tip


def surface_normal(point: SurfacePoint, geometry: SensorGeometry) -> np.ndarray:
    """Outward unit normal of the membrane at a surface point.

    Tip: (x, y, z - d) / r.  Side: (x, y, 0) / r.  Renormalising gives an
    exactly unit vector within SURFACE_TOL_MM of the surface too; the two
    expressions agree on the seam, so the field is continuous.
    """
    region = classify_surface_point(point, geometry)
    if region is Region.OFF:
        raise ValueError(
            f"({point.x}, {point.y}, {point.z}) is not on the membrane "
            f"(tol={SURFACE_TOL_MM} mm)"
        )
    if region is Region.TIP:
        n = np.array([point.x, point.y, point.z - geometry.d], dtype=np.float64)
    else:
        n = np.array([point.x, point.y, 0.0], dtype=np.float64)
    return n / np.linalg.norm(n)


def pose_to_contact_point(pose: ContactPose, geometry: SensorGeometry) -> SurfacePoint:
    """Ground-truth contact point for a protocol pose.

    Rotation(theta) contacts the tip at (r sin theta, 0, d + r cos theta) for
    theta in [0, pi/2); Translation(tau) contacts the side at (r, 0, d - tau)
    for tau in [0, d].  Both curves lie in the y = 0 half-plane x >= 0, which
    mirrors sweeping a fixed obstacle by rotating, then translating, the
    finger.
    """
    r, d = geometry.r, geometry.d
    if pose.kind is PoseKind.ROTATION:
        if not 0.0 <= pose.value < math.pi / 2:
            raise ValueError(f"rotation angle {pose.value} outside [0, pi/2)")
        return SurfacePoint(
            r * math.sin(pose.value), 0.0, d + r * math.cos(pose.value), Region.TIP
        )
    if not 0.0 <= pose.value <= d:
        raise ValueError(f"translation {pose.value} outside [0, {d}] mm")
    return SurfacePoint(r, 0.0, d - pose.value, Region.SIDE)
