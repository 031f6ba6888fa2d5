"""JSON-backed session configuration shared by every CLI command.

Keys carry their units in the name (``r_mm``, ``alpha_px``) so a config file
is self-describing.  Every key is optional — omitted keys fall back to the
built-in sensor defaults — but unknown keys are rejected rather than ignored,
so a typo cannot silently leave a setting at its default.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .geometry import CameraIntrinsics, SensorGeometry
from .imaging import DEFAULT_MIN_AREA_PX, DEFAULT_SIGMA_PX, DEFAULT_THRESHOLD, MAX_SIGMA_PX


# Largest accepted frame, 4096 x 4096 pixels (about 8 times 1920 x 1080).  It
# bounds the full-frame arrays that rendering and detection allocate.
MAX_FRAME_PX = 4096 * 4096
# r_mm and alpha_px lie in [1 / MAX_SCALE, MAX_SCALE] and d_mm in [0, MAX_SCALE]
# (a kilometre; 3000 times the default alpha), where nothing back-projection,
# rendering or calibration computes overflows.  sigma_px shares the detection
# stages' bound, imaging.MAX_SIGMA_PX.
MAX_SCALE = 1e6


class ConfigError(ValueError):
    """A configuration file is malformed or violates an invariant."""


@dataclass(frozen=True)
class SessionConfig:
    """Settings for one command invocation."""

    geometry: SensorGeometry = SensorGeometry()
    intrinsics: CameraIntrinsics = CameraIntrinsics()
    sigma_px: float = DEFAULT_SIGMA_PX  # smoothing kernel for detection
    threshold: float = DEFAULT_THRESHOLD  # difference-intensity cut
    min_area_px: int = DEFAULT_MIN_AREA_PX  # smallest accepted blob
    noise_sigma: float = 0.0  # synthetic-dataset pixel noise
    out_dir: str = "out"  # default output directory

    def __post_init__(self) -> None:
        for key, value, low, high in (
            ("r_mm", self.geometry.r, 1 / MAX_SCALE, MAX_SCALE),
            ("d_mm", self.geometry.d, 0, MAX_SCALE),
            ("alpha_px", self.intrinsics.alpha, 1 / MAX_SCALE, MAX_SCALE),
            ("sigma_px", self.sigma_px, 0, MAX_SIGMA_PX),
            ("noise_sigma", self.noise_sigma, 0, math.inf),
        ):
            if not low <= value <= high:  # NaN fails too
                raise ConfigError(f"{key} must be in [{low:g}, {high:g}], got {value}")
        if not self.threshold > 0:
            raise ConfigError(f"threshold must be positive, got {self.threshold}")
        if self.min_area_px < 1:
            raise ConfigError(f"min_area_px must be at least 1, got {self.min_area_px}")
        width, height = self.intrinsics.width, self.intrinsics.height
        if width * height > MAX_FRAME_PX:
            raise ConfigError(
                f"frame {width}x{height} has more than {MAX_FRAME_PX} pixels (4096x4096)"
            )

    def to_json_dict(self) -> dict:
        return {
            "r_mm": self.geometry.r,
            "d_mm": self.geometry.d,
            "alpha_px": self.intrinsics.alpha,
            "cx_px": self.intrinsics.cx,
            "cy_px": self.intrinsics.cy,
            "width_px": self.intrinsics.width,
            "height_px": self.intrinsics.height,
            "sigma_px": self.sigma_px,
            "threshold": self.threshold,
            "min_area_px": self.min_area_px,
            "noise_sigma": self.noise_sigma,
            "out_dir": self.out_dir,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SessionConfig":
        defaults = cls().to_json_dict()
        unknown = sorted(set(data) - set(defaults))
        if unknown:
            raise ConfigError(f"unknown configuration keys: {', '.join(map(repr, unknown))}")
        merged = {**defaults, **data}
        for key, value in merged.items():
            if key == "out_dir":
                if not isinstance(value, str):
                    raise ConfigError(f"{key} must be a string, got {value!r}")
            elif key in ("width_px", "height_px", "min_area_px"):
                # bool is an int subclass; exclude it explicitly.
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ConfigError(f"{key} must be an integer, got {value!r}")
            elif isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{key} must be a number, got {value!r}")
            elif not abs(value) <= sys.float_info.max:  # NaN, infinite, or an int no float holds
                raise ConfigError(f"{key} must be finite, got {value!r}")
        try:
            return cls(
                geometry=SensorGeometry(r=merged["r_mm"], d=merged["d_mm"]),
                intrinsics=CameraIntrinsics(
                    alpha=merged["alpha_px"],
                    cx=merged["cx_px"],
                    cy=merged["cy_px"],
                    width=merged["width_px"],
                    height=merged["height_px"],
                ),
                sigma_px=merged["sigma_px"],
                threshold=merged["threshold"],
                min_area_px=merged["min_area_px"],
                noise_sigma=merged["noise_sigma"],
                out_dir=merged["out_dir"],
            )
        except ValueError as exc:  # constituent invariant violated
            raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> SessionConfig:
    """Read a JSON configuration file, applying defaults for omitted keys."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read configuration {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: configuration must be a JSON object")
    try:
        return SessionConfig.from_json_dict(payload)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

