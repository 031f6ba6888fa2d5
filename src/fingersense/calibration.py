"""Intrinsic calibration from pixel <-> surface correspondences.

Supports the single-point closed form for the focal constant alpha (principal
point known) and a joint linear least-squares fit of (alpha, cx, cy).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .geometry import (
    CameraIntrinsics,
    PixelCoord,
    Region,
    SensorGeometry,
    SurfacePoint,
    classify_surface_point,
    project,
)


class CalibrationError(ValueError):
    """Base class for calibration failures."""


class RankDeficiencyError(CalibrationError):
    """The correspondences do not constrain all three intrinsics."""


@dataclass(frozen=True)
class Correspondence:
    """An annotated pixel paired with the 3D surface point it observes."""

    pixel: PixelCoord
    point: SurfacePoint

    def __post_init__(self) -> None:
        if self.point.z <= 0:
            raise ValueError(f"correspondence point must have z > 0, got z={self.point.z}")


@dataclass(frozen=True)
class CalibrationResult:
    intrinsics: CameraIntrinsics
    rms_residual: float  # px, root-mean-square of per_point_residuals
    per_point_residuals: tuple[float, ...]  # px, order matches the input list


def solve_alpha(c: Correspondence, cx: float, cy: float) -> float:
    """Focal constant from a single correspondence, principal point known.

    Least squares over the two component equations chi = alpha x / z and
    gamma = alpha y / z gives alpha = (chi z x + gamma z y) / (x^2 + y^2).
    Exact when the correspondence is consistent; undefined on the optical
    axis, where x = y = 0 provides no constraint.
    """
    x, y, z = c.point.x, c.point.y, c.point.z
    if x == 0.0 and y == 0.0:
        raise CalibrationError(
            "correspondence lies on the optical axis (x = y = 0); "
            "alpha is unobservable there"
        )
    chi = c.pixel.u - cx
    gamma = c.pixel.v - cy
    return (chi * z * x + gamma * z * y) / (x * x + y * y)


def reprojection_residuals(
    k: CameraIntrinsics, cs: list[Correspondence]
) -> list[float]:
    """Euclidean pixel distance between each projected point and its pixel."""
    out = []
    for c in cs:
        p = project(c.point, k)
        out.append(math.hypot(p.u - c.pixel.u, p.v - c.pixel.v))
    return out


def fit_intrinsics(cs: list[Correspondence], initial: CameraIntrinsics) -> CalibrationResult:
    """Jointly fit (alpha, cx, cy) by linear least squares.

    The projection u = alpha x / z + cx, v = alpha y / z + cy is linear in the
    three intrinsics, so the sum of squared reprojection residuals has one
    exact minimiser: one solve of the stacked 2n x 3 system with rows
    (x / z, 1, 0) and (y / z, 0, 1) against the stacked pixels.  ``initial``
    supplies only the frame size, which is carried over unchanged.  Raises
    :class:`RankDeficiencyError` when fewer than three correspondences are
    given or when all of them lie on one viewing ray, or numerically close to
    one, and :class:`CalibrationError` when the minimiser is not a valid
    camera (alpha not positive, or the principal point outside the frame).
    """
    if len(cs) < 3:
        raise RankDeficiencyError(
            f"need at least 3 correspondences to fit 3 intrinsics, got {len(cs)}"
        )
    rays = np.array([[c.point.x / c.point.z, c.point.y / c.point.z] for c in cs])
    pixels = np.array([[c.pixel.u, c.pixel.v] for c in cs])
    design = np.zeros((len(cs), 2, 3))  # per point, the u row and the v row
    design[:, :, 0] = rays
    design[:, :, 1:] = np.eye(2)
    # rank counts the singular values above eps * max(2n, 3) times the largest.
    (alpha, cx, cy), _, rank, _ = np.linalg.lstsq(
        design.reshape(-1, 3), pixels.ravel(), rcond=None
    )
    if rank < 3:
        raise RankDeficiencyError(
            "all correspondences lie on one viewing ray, or numerically close to one; "
            "alpha and the principal point cannot be separated"
        )
    try:
        fitted = replace(initial, alpha=float(alpha), cx=float(cx), cy=float(cy))
    except ValueError as exc:
        raise CalibrationError(f"fitted camera is invalid: {exc}") from exc
    per_point = reprojection_residuals(fitted, cs)
    rms = math.sqrt(sum(r * r for r in per_point) / len(per_point))
    return CalibrationResult(fitted, rms, tuple(per_point))


def load_correspondences(
    path: str | Path, geometry: SensorGeometry, tol: float = 1e-6
) -> list[Correspondence]:
    """Read correspondences from CSV with header ``u,v,x,y,z`` (px, mm).

    Every point must lie on the membrane within ``tol`` mm; offending rows
    are reported by line number.
    """
    path = Path(path)
    out: list[Correspondence] = []
    # Bytes that are not UTF-8 decode to lone surrogates, which no header or
    # number contains, so they fail as the row they sit in, by line number.
    with path.open(newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["u", "v", "x", "y", "z"]:
                raise ValueError(f"{path}: expected CSV header 'u,v,x,y,z', got {header}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 5:
                    raise ValueError(f"{path}:{lineno}: expected 5 fields, got {len(row)}")
                try:
                    u, v, x, y, z = (float(field) for field in row)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: non-numeric field ({exc})") from None
                if not all(math.isfinite(value) for value in (u, v, x, y, z)):
                    raise ValueError(f"{path}:{lineno}: non-finite field")
                region = classify_surface_point((x, y, z), geometry, tol)
                if region is Region.OFF:
                    raise ValueError(
                        f"{path}:{lineno}: point ({x}, {y}, {z}) is not on the membrane"
                    )
                try:
                    out.append(Correspondence(PixelCoord(u, v), SurfacePoint(x, y, z, region)))
                except ValueError as exc:  # on the membrane's base ring, z <= 0
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
        except csv.Error as exc:  # e.g. a field longer than the csv module's limit
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    if not out:
        raise ValueError(f"{path}: no correspondences")
    return out


def save_correspondences(path: str | Path, cs: list[Correspondence]) -> None:
    """Write correspondences as CSV with header ``u,v,x,y,z``.

    Values are written as ``repr(float(x))``, the shortest text that reads
    back to the same double, whatever numeric type the caller stored.
    """
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "v", "x", "y", "z"])
        for c in cs:
            values = (c.pixel.u, c.pixel.v, c.point.x, c.point.y, c.point.z)
            writer.writerow([repr(float(value)) for value in values])
