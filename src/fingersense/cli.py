"""Command-line interface tying the library together.

Five subcommands cover the full workflow:

- ``render``      one synthetic contact image pair plus its ground truth
- ``dataset``     the 56-image contact protocol with manifest
- ``localize``    run the detection pipeline over a dataset and report errors
- ``calibrate``   fit camera intrinsics from a correspondence CSV
- ``blocksworld`` Monte-Carlo grasping statistics for the three policies

Every command but ``blocksworld`` reads ``--config FILE`` (JSON, see config.py).
Each is deterministic given its flags: all randomness flows from ``--seed``
(default 0), never from the clock.  Exit status is 0 exactly when the command
completed with every validation passing.

Rendering, imaging and PGM code is imported inside the subcommands that run
it, so ``blocksworld`` and ``calibrate`` load none of it.  ``dataset`` and
``localize`` run their frames through ``workers.map_forked``, which returns
every frame's result or raises the first frame's error.  ``dataset``
renames the frames its workers wrote only once all are written;
``localize``'s calling process writes every row, warning and table in
manifest order.  The two NumPy-only layers, ``calibration`` and
``blocksworld``, are imported here: the per-layer trace of
``perfbench/traced.py`` looks every layer module up right after importing
this one and ``imaging`` and ``render``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .blocksworld import (
    HARDWARE_TABLE,
    PolicyKind,
    exact_metrics,
    run_batch,
)
from .calibration import fit_intrinsics, load_correspondences, solve_alpha
from .config import SessionConfig, load_config
from .geometry import OBJECT_ORDER, ContactPose, PoseKind


def _session_config(args: argparse.Namespace) -> SessionConfig:
    if args.config is None:
        return SessionConfig()
    return load_config(args.config)


def _seed(args: argparse.Namespace) -> int:
    """``--seed``, refused with a message naming the flag when negative."""
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    return args.seed


def _fmt(value: float) -> str:
    """Full-precision, byte-stable decimal text for CSV cells."""
    return repr(float(value))


# ---------------------------------------------------------------------------
# render


def cmd_render(args: argparse.Namespace) -> int:
    from .pgm import write_pgm
    from .render import default_indenter, render_contact, render_reference

    config = _session_config(args)
    if args.rotation is not None:
        pose = ContactPose.rotation(args.rotation)
    else:
        pose = ContactPose.translation(args.translation)
    indenter = default_indenter(args.object, pose, config.geometry)  # validates the pose
    truth = indenter.contact_point

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_pgm(out_dir / "reference.pgm", render_reference(config.intrinsics).pixels)
    write_pgm(out_dir / "contact.pgm", render_contact(indenter, config.geometry, config.intrinsics).pixels)

    print(
        json.dumps(
            {
                "object": args.object,
                "pose_kind": pose.kind.value,
                "pose_value": pose.value,
                "x_mm": truth.x,
                "y_mm": truth.y,
                "z_mm": truth.z,
            }
        )
    )
    return 0


# ---------------------------------------------------------------------------
# dataset


def cmd_dataset(args: argparse.Namespace) -> int:
    from .render import generate_protocol_dataset

    seed = _seed(args)
    config = _session_config(args)
    out_dir = Path(args.out_dir)
    generate_protocol_dataset(
        out_dir, config.geometry, config.intrinsics, noise_sigma=args.noise, seed=seed
    )
    print(str(out_dir / "manifest.json"))
    return 0


# ---------------------------------------------------------------------------
# localize


def _pose_label(translation: bool, value: float) -> str:
    """A ``by_pose.csv`` label; -0.0 and 0.0 share one, and with it the hardware values."""
    value += 0.0  # -0.0 + 0.0 is 0.0
    if translation:
        return f"translation {value:g}"
    # Protocol angles are simple fractions of pi; label them as such.
    for name, angle in (("0", 0.0), ("pi/6", math.pi / 6), ("pi/4", math.pi / 4), ("pi/3", math.pi / 3)):
        if math.isclose(value, angle, abs_tol=1e-12):
            return f"rotation {name}"
    return f"rotation {value:g}"


def _write_group_csv(
    path: Path, key_column: str, groups, hardware: dict[str, tuple[float, float]]
) -> None:
    """One row per ``(label, errors)`` group: mean, sample std (0.0 for one error) and count."""
    lines = [f"{key_column},mean_mm,std_mm,count,hardware_mean_mm,hardware_std_mm"]
    for label, errors in groups:
        std = float(np.std(errors, ddof=1)) if len(errors) > 1 else 0.0
        hw = hardware.get(label)
        hw_mean, hw_std = (_fmt(hw[0]), _fmt(hw[1])) if hw else ("", "")
        lines.append(f"{label},{_fmt(np.mean(errors))},{_fmt(std)},{len(errors)},{hw_mean},{hw_std}")
    path.write_text("\n".join(lines) + "\n")


def cmd_localize(args: argparse.Namespace) -> int:
    from .imaging import (
        HARDWARE_ERRORS_BY_OBJECT,
        HARDWARE_ERRORS_BY_POSE,
        TactileImage,
        localization_error,
        localize_frame,
    )
    from .pgm import read_pgm
    from .render import load_manifest
    from .workers import map_forked

    config = _session_config(args)
    manifest_path = Path(args.manifest)
    entries = load_manifest(manifest_path)
    if not entries:
        raise ValueError(f"manifest {manifest_path} lists no entries")
    base = manifest_path.parent

    rows = ["object,pose_kind,pose_value,error_mm"]
    reference_path = reference = pixels = None

    def localized(entry) -> float | str:
        """The entry's error in mm, or the message of the error that stopped it.

        Each worker reads references itself and keeps only the last one read,
        however many paths the manifest names.  It reads every image of the
        camera's size into one array of its own, made at its first entry, so
        each image allocates one frame, its ``TactileImage``'s copy.
        """
        nonlocal reference_path, reference, pixels
        if pixels is None:
            pixels = np.empty((config.intrinsics.height, config.intrinsics.width), dtype=np.uint8)
        if entry.reference != reference_path:
            reference_path, reference = entry.reference, None  # the old one goes first
            try:
                reference = TactileImage(read_pgm(base / entry.reference, pixels))
            except (OSError, ValueError) as exc:
                reference = str(exc)
        if isinstance(reference, str):
            return reference
        try:
            frame = TactileImage(read_pgm(base / entry.frame, pixels))
            estimate = localize_frame(reference, frame, config)
            if estimate is None:
                raise ValueError("no contact detected")
            return localization_error(estimate, entry.truth_mm)
        except (OSError, ValueError) as exc:
            return str(exc)

    outcomes = map_forked(localized, entries)  # an error ``localized`` does not return as text ends the command
    # Each group's errors in manifest order; objects in order of first appearance.
    errors: list[float] = []
    by_pose: dict[tuple[bool, float], list[float]] = {}
    by_object: dict[str, list[float]] = {}
    for entry, outcome in zip(entries, outcomes):
        row = f"{entry.object_label},{entry.pose.kind.value},{_fmt(entry.pose.value)}"
        if isinstance(outcome, str):
            print(f"warning: {entry.frame}: {outcome}", file=sys.stderr)
            rows.append(f"{row},nan")
        else:
            errors.append(outcome)
            by_pose.setdefault((entry.pose.kind is not PoseKind.ROTATION, entry.pose.value), []).append(outcome)
            by_object.setdefault(entry.object_label, []).append(outcome)
            rows.append(f"{row},{_fmt(outcome)}")

    (base / "errors.csv").write_text("\n".join(rows) + "\n")
    if not errors:
        print("error: no entry could be localized", file=sys.stderr)
        return 1

    # Rotations, then translations, each by value: one row per key, even where two labels print alike.
    poses = [(_pose_label(*key), by_pose[key]) for key in sorted(by_pose)]
    _write_group_csv(base / "by_pose.csv", "pose", poses, HARDWARE_ERRORS_BY_POSE)
    _write_group_csv(base / "by_object.csv", "object", by_object.items(), HARDWARE_ERRORS_BY_OBJECT)

    print(
        json.dumps(
            {
                "n_entries": len(entries),
                "n_detected": len(errors),
                "mean_error_mm": sum(errors) / len(errors),
            }
        )
    )
    return 0


# ---------------------------------------------------------------------------
# calibrate


def cmd_calibrate(args: argparse.Namespace) -> int:
    config = _session_config(args)
    points = load_correspondences(args.csv, config.geometry)
    alpha_single = solve_alpha(points, config.intrinsics.cx, config.intrinsics.cy)
    result = fit_intrinsics(points, config.intrinsics)
    print(
        json.dumps(
            {
                "alpha_single_point_px": alpha_single,
                "alpha_px": result.intrinsics.alpha,
                "cx_px": result.intrinsics.cx,
                "cy_px": result.intrinsics.cy,
                "rms_residual_px": result.rms_residual,
                "n_correspondences": len(points),
            }
        )
    )
    return 0


# ---------------------------------------------------------------------------
# blocksworld


def cmd_blocksworld(args: argparse.Namespace) -> int:
    kinds = (
        [PolicyKind.CONTROL, PolicyKind.RG, PolicyKind.RGTR]
        if args.policy == "all"
        else [PolicyKind(args.policy)]
    )
    seed = _seed(args)
    simulated = {}
    for kind in kinds:
        metrics = run_batch(kind, args.n_boards, seed=seed)
        simulated[kind] = metrics
        print(
            json.dumps(
                {
                    "policy": kind.value,
                    "n_blocks": metrics.n_blocks,
                    "failure_rate": metrics.failure_rate,
                    "attempts_per_block": metrics.attempts_per_block,
                    "collisions_per_block": metrics.collisions_per_block,
                    "seed": seed,
                }
            )
        )

    if args.policy == "all":
        lines = [
            "policy,failure_rate,attempts_per_block,collisions_per_block,"
            "oracle_failure_rate,oracle_attempts_per_block,oracle_collisions_per_block,"
            "hardware_failure_rate,hardware_attempts_per_block,hardware_collisions_per_block"
        ]
        for kind in kinds:
            sim = simulated[kind]
            oracle = exact_metrics(kind)
            hw = HARDWARE_TABLE[kind.value]
            cells = [
                kind.value,
                _fmt(sim.failure_rate),
                _fmt(sim.attempts_per_block),
                _fmt(sim.collisions_per_block),
                _fmt(oracle.failure_rate),
                _fmt(oracle.attempts_per_block),
                _fmt(oracle.collisions_per_block),
                _fmt(hw[0]),
                _fmt(hw[1]),
                _fmt(hw[2]),
            ]
            lines.append(",".join(cells))
        print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fingersense",
        description="Simulate, calibrate, and evaluate a finger-shaped tactile sensor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, config: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        if config:
            p.add_argument("--config", default=None, help="JSON configuration file")
        p.set_defaults(func=func)
        return p

    p = add("render", cmd_render, "render one contact image pair and print ground truth")
    p.add_argument("--object", required=True, choices=OBJECT_ORDER)
    pose = p.add_mutually_exclusive_group(required=True)
    pose.add_argument("--rotation", type=float, default=None, help="tip rotation (radians)")
    pose.add_argument("--translation", type=float, default=None, help="side offset (mm)")
    p.add_argument("--out", default="out", help="output directory (default: out)")

    p = add("dataset", cmd_dataset, "render the full contact protocol with manifest")
    p.add_argument("--out-dir", default="out", help="output directory (default: out)")
    p.add_argument("--noise", type=float, default=0.0, help="pixel noise sigma (default: 0)")
    p.add_argument("--seed", type=int, default=0)

    p = add("localize", cmd_localize, "localize every manifest entry and tabulate errors")
    p.add_argument("--manifest", required=True, help="dataset manifest JSON")

    p = add("calibrate", cmd_calibrate, "fit intrinsics from a u,v,x,y,z CSV")
    p.add_argument("csv", help="correspondence CSV with header u,v,x,y,z")

    p = add("blocksworld", cmd_blocksworld, "Monte-Carlo grasping statistics", config=False)
    p.add_argument("--policy", required=True, choices=["control", "rg", "rgtr", "all"])
    p.add_argument("-n", "--n-boards", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
