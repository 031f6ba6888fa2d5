"""Intrinsic calibration from pixel <-> surface correspondences.

Correspondences are one (n, 5) float64 array of (u, v, x, y, z) rows: a pixel
(px) and the membrane point (mm) it observes.  Supports the single-point closed
form for the focal constant alpha (principal point known) and a joint linear
least-squares fit of (alpha, cx, cy), whose design rows are the derivatives of
``geometry.project_points``, the forward model that the residuals reproject by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .geometry import CameraIntrinsics, Region, SensorGeometry, classify_surface_point, project_points


class CalibrationError(ValueError):
    """Base class for calibration failures."""


class RankDeficiencyError(CalibrationError):
    """The correspondences do not constrain all three intrinsics."""


@dataclass(frozen=True)
class CalibrationResult:
    intrinsics: CameraIntrinsics
    rms_residual: float  # px, root-mean-square of per_point_residuals
    per_point_residuals: tuple[float, ...]  # px, order matches the input rows


def _as_points(points) -> np.ndarray:
    """``points`` as float64, refused unless (n, 5) with every value finite and z > 0."""
    points = np.asarray(points, dtype=np.float64)
    shape_ok = points.ndim == 2 and points.shape[1] == 5
    if not (shape_ok and np.isfinite(points).all() and (points[:, 4] > 0).all()):
        raise ValueError(
            "correspondences must be finite (n, 5) u, v, x, y, z rows with z > 0, "
            f"got shape {points.shape}"
        )
    return points


def solve_alpha(points, cx: float, cy: float) -> float:
    """Focal constant from the first row off the optical axis, principal point known.

    Least squares over the two component equations chi = alpha x / z and
    gamma = alpha y / z gives alpha = (chi z x + gamma z y) / (x^2 + y^2).
    Exact when the correspondence is consistent.  Rows on the optical axis,
    where x = y = 0 gives no constraint, are skipped; all on it is an error.
    """
    points = _as_points(points)
    off_axis = np.flatnonzero((points[:, 2] != 0) | (points[:, 3] != 0))
    if off_axis.size == 0:
        raise CalibrationError(
            "correspondence lies on the optical axis (x = y = 0); "
            "alpha is unobservable there"
        )
    u, v, x, y, z = points[off_axis[0]].tolist()
    chi = u - cx
    gamma = v - cy
    return (chi * z * x + gamma * z * y) / (x * x + y * y)


def reprojection_residuals(k: CameraIntrinsics, points) -> list[float]:
    """Euclidean pixel distance between each projected point and its pixel."""
    u, v, x, y, z = _as_points(points).T
    pu, pv = project_points(x, y, z, k)
    return list(map(math.hypot, (pu - u).tolist(), (pv - v).tolist()))


def fit_intrinsics(points, initial: CameraIntrinsics) -> CalibrationResult:
    """Jointly fit (alpha, cx, cy) by linear least squares.

    The projection u = alpha x / z + cx, v = alpha y / z + cy is linear in the
    three intrinsics, so the sum of squared reprojection residuals has one
    exact minimiser: one solve of the stacked 2n x 3 system with rows
    (x / z, 1, 0) and (y / z, 0, 1) against the stacked pixels.  ``initial``
    supplies only the frame size, which is carried over unchanged.  Raises
    ``ValueError`` unless ``points`` is (n, 5), finite and has z > 0,
    :class:`RankDeficiencyError` when fewer than three correspondences are
    given or when all of them lie on one viewing ray, or numerically close to
    one, and :class:`CalibrationError` when the minimiser is not a valid
    camera (alpha not positive, or the principal point outside the frame).
    """
    points = _as_points(points)
    if len(points) < 3:
        raise RankDeficiencyError(
            f"need at least 3 correspondences to fit 3 intrinsics, got {len(points)}"
        )
    design = np.zeros((len(points), 2, 3))  # per point, the u row and the v row
    design[:, :, 0] = points[:, 2:4] / points[:, 4:]
    design[:, :, 1:] = np.eye(2)
    # rank counts the singular values above eps * max(2n, 3) times the largest.
    (alpha, cx, cy), _, rank, _ = np.linalg.lstsq(
        design.reshape(-1, 3), points[:, :2].ravel(), rcond=None
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
    per_point = reprojection_residuals(fitted, points)
    rms = math.sqrt(sum(r * r for r in per_point) / len(per_point))
    return CalibrationResult(fitted, rms, tuple(per_point))


def load_correspondences(path: str | Path, geometry: SensorGeometry) -> np.ndarray:
    """Read correspondences from CSV with header ``u,v,x,y,z`` (px, mm).

    Returns a read-only (n, 5) array, one row per non-blank line in file order.
    Every value must be finite and every point on the membrane (within 1e-6
    mm) with z > 0; the first offending row is reported by line number.
    """
    import csv  # here, as the CLI loads this module for every command

    path = Path(path)
    values: list[float] = []
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
                if classify_surface_point((x, y, z), geometry) is Region.OFF:
                    raise ValueError(
                        f"{path}:{lineno}: point ({x}, {y}, {z}) is not on the membrane"
                    )
                if z <= 0:  # on the membrane's base ring
                    raise ValueError(
                        f"{path}:{lineno}: correspondence point must have z > 0, got z={z}"
                    )
                values += (u, v, x, y, z)
        except csv.Error as exc:  # e.g. a field longer than the csv module's limit
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    if not values:
        raise ValueError(f"{path}: no correspondences")
    points = np.array(values).reshape(-1, 5)
    points.flags.writeable = False
    return points

