"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Each test prints ``ACCEPTANCE nn PASS/FAIL`` with the measured quantity
before asserting, so a plain ``pytest -s`` run doubles as the acceptance
report.  Expected values are closed forms or independently derived oracles;
tolerances are stated inline.
"""

import hashlib
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from fingersense.blocksworld import (
    PolicyKind,
    batch_distribution,
    exact_metrics,
    run_batch,
)
from fingersense.calibration import fit_intrinsics
from fingersense.cli import main
from fingersense.geometry import (
    CameraIntrinsics,
    PixelCoord,
    Region,
    SensorGeometry,
    SurfacePoint,
    back_project,
    back_project_pixels,
    classify_surface_point,
    project,
)
from fingersense.config import SessionConfig
from fingersense.imaging import TactileImage, localization_error, localize_frame
from fingersense.pgm import read_pgm


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} {'PASS' if ok else 'FAIL'} — {detail}")


# ---------------------------------------------------------------------------
# 1 & 2 & 3: projective geometry


def test_criterion_01_round_trip(geometry, intrinsics):
    rng = np.random.default_rng(0)
    u = rng.uniform(0.0, intrinsics.width, size=10_000)
    v = rng.uniform(0.0, intrinsics.height, size=10_000)

    start = time.perf_counter()
    points, _ = back_project_pixels(u, v, intrinsics, geometry)
    u_back = intrinsics.alpha * points[:, 0] / points[:, 2] + intrinsics.cx
    v_back = intrinsics.alpha * points[:, 1] / points[:, 2] + intrinsics.cy
    elapsed = time.perf_counter() - start

    max_err = max(np.abs(u_back - u).max(), np.abs(v_back - v).max())
    # Spot-check that the scalar API agrees with the vectorised path.
    for i in range(0, 10_000, 500):
        px = project(SurfacePoint(*points[i], Region.TIP), intrinsics)
        assert math.isclose(px.u, u_back[i], abs_tol=1e-9)
        assert math.isclose(px.v, v_back[i], abs_tol=1e-9)

    ok = max_err < 1e-6 and elapsed < 1.0
    _report(1, ok, f"10,000-pixel round-trip max error {max_err:.3e} px in {elapsed:.3f} s")
    assert max_err < 1e-6
    assert elapsed < 1.0


def test_criterion_02_surface_membership(geometry, intrinsics):
    rng = np.random.default_rng(1)
    u = rng.uniform(0.0, intrinsics.width, size=10_000)
    v = rng.uniform(0.0, intrinsics.height, size=10_000)
    points, tip_mask = back_project_pixels(u, v, intrinsics, geometry)

    x, y, z = points.T
    sphere_residual = np.abs(x**2 + y**2 + (z - geometry.d) ** 2 - geometry.r**2)
    cylinder_residual = np.abs(x**2 + y**2 - geometry.r**2)
    residual = np.where(tip_mask, sphere_residual, cylinder_residual)

    omega = (u - intrinsics.cx) ** 2 + (v - intrinsics.cy) ** 2
    circle_sq = (geometry.r * intrinsics.alpha / geometry.d) ** 2
    flags_match = bool(np.array_equal(tip_mask, omega < circle_sq))

    ok = residual.max() < 1e-9 and flags_match
    _report(
        2,
        ok,
        f"max membership residual {residual.max():.3e} mm^2; region flags match: {flags_match}",
    )
    assert residual.max() < 1e-9
    assert flags_match


def test_criterion_03_apex_and_seam(geometry, intrinsics):
    apex = back_project(PixelCoord(intrinsics.cx, intrinsics.cy), intrinsics, geometry)
    apex_exact = (apex.x, apex.y, apex.z) == (0.0, 0.0, geometry.d + geometry.r)

    # The region seam projects to the circle of radius r*alpha/d = 100 px.
    radius = geometry.r * intrinsics.alpha / geometry.d
    seam_pixels = [
        PixelCoord(intrinsics.cx + radius, intrinsics.cy),
        PixelCoord(intrinsics.cx - radius, intrinsics.cy),
        PixelCoord(intrinsics.cx, intrinsics.cy + radius),
        PixelCoord(intrinsics.cx + 0.6 * radius, intrinsics.cy + 0.8 * radius),
    ]
    seam_dz = max(abs(back_project(px, intrinsics, geometry).z - geometry.d) for px in seam_pixels)

    ok = apex_exact and seam_dz < 1e-6
    _report(3, ok, f"apex exact: {apex_exact}; max seam |z - d| = {seam_dz:.3e} mm")
    assert apex_exact
    assert seam_dz < 1e-6


# ---------------------------------------------------------------------------
# 4: calibration


def _calibration_points() -> list[SurfacePoint]:
    geometry = SensorGeometry()
    points = []
    for i in range(10):
        if i % 2 == 0:  # cylinder wall, z in (0, d]
            phi = 0.5 + 0.7 * i
            points.append(
                SurfacePoint(10.0 * math.cos(phi), 10.0 * math.sin(phi), 4.0 + 2.5 * i, Region.SIDE)
            )
        else:  # spherical tip
            theta, phi = 0.15 + 0.12 * i, 2.1 * i
            points.append(
                SurfacePoint(
                    10.0 * math.sin(theta) * math.cos(phi),
                    10.0 * math.sin(theta) * math.sin(phi),
                    30.0 + 10.0 * math.cos(theta),
                    Region.TIP,
                )
            )
    for p in points:  # parametric construction stays on the membrane
        assert classify_surface_point(p, geometry) is p.region
    return points


def test_criterion_04_calibration_recovery(intrinsics):
    points = _calibration_points()
    pixels = [project(p, intrinsics) for p in points]
    clean = np.array([(px.u, px.v, p.x, p.y, p.z) for px, p in zip(pixels, points)])

    initial = CameraIntrinsics(alpha=250.0, cx=900.0, cy=500.0)
    fit = fit_intrinsics(clean, initial)
    alpha_rel_err = abs(fit.intrinsics.alpha - intrinsics.alpha) / intrinsics.alpha

    rms_values = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noisy = clean.copy()
        noisy[:, :2] += rng.normal(0.0, 0.5, (len(clean), 2))
        rms_values.append(fit_intrinsics(noisy, intrinsics).rms_residual)
    median_rms = float(np.median(rms_values))

    ok = alpha_rel_err < 1e-6 and 0.25 <= median_rms <= 1.0
    _report(
        4,
        ok,
        f"noise-free alpha relative error {alpha_rel_err:.3e}; "
        f"median rms over 100 noisy seeds {median_rms:.3f} px",
    )
    assert alpha_rel_err < 1e-6
    assert 0.25 <= median_rms <= 1.0


# ---------------------------------------------------------------------------
# 5: closed-loop localisation


def test_criterion_05_closed_loop(geometry, intrinsics, protocol_dataset):
    out_dir, entries = protocol_dataset
    start = time.perf_counter()
    reference = TactileImage(read_pgm(out_dir / entries[0].reference))
    config = SessionConfig(geometry, intrinsics)  # sigma 2 px, threshold 25, min area 20 px
    errors: dict[str, list[float]] = {}
    detected = 0
    for entry in entries:
        estimate = localize_frame(reference, TactileImage(read_pgm(out_dir / entry.frame)), config)
        if estimate is None:
            errors.setdefault(entry.object_label, []).append(float("inf"))
            continue
        detected += 1
        error = localization_error(estimate, entry.truth_mm)
        errors.setdefault(entry.object_label, []).append(error)
    elapsed = time.perf_counter() - start

    all_errors = [e for errs in errors.values() for e in errs]
    mean_error = float(np.mean(all_errors))
    means = {label: float(np.mean(errs)) for label, errs in errors.items()}
    sharp = max(means["cone"], means["tube"])
    blunt = min(means["slab"], means["sphere"], means["edge"])

    ok = detected == 56 and mean_error <= 1.0 and sharp < blunt and elapsed < 60.0
    _report(
        5,
        ok,
        f"detected {detected}/56, mean error {mean_error:.3f} mm, "
        f"cone/tube max {sharp:.3f} < slab/sphere/edge min {blunt:.3f}, "
        f"pipeline {elapsed:.1f} s",
    )
    assert detected == 56
    assert mean_error <= 1.0
    assert sharp < blunt
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 6–9: blocks world


def test_criterion_06_rg_closed_form():
    start = time.perf_counter()
    metrics = run_batch(PolicyKind.RG, 100_000, seed=0)
    elapsed = time.perf_counter() - start

    d_fail = abs(metrics.failure_rate - 0.2373046875)  # (3/4)^5
    d_att = abs(metrics.attempts_per_block - 3.05078125)
    d_coll = abs(metrics.collisions_per_block - 1.14404296875)

    ok = d_fail < 0.004 and d_att < 0.01 and d_coll < 0.01 and elapsed < 10.0
    _report(
        6,
        ok,
        f"Rg n=100,000 deltas: failure {d_fail:.5f} (<0.004), attempts {d_att:.5f} (<0.01), "
        f"collisions {d_coll:.5f} (<0.01) in {elapsed:.2f} s",
    )
    assert d_fail < 0.004
    assert d_att < 0.01
    assert d_coll < 0.01
    assert elapsed < 10.0


def _rgtr_attempt_moments(cap: int = 5) -> tuple[float, float]:
    """Exact mean and variance of the per-block attempt count, by enumeration.

    Independent of the library oracle: sums over the position of the first
    informative contact for each column type (miss probability m, adjacent
    collision probability a, hit probability 1/4).
    """
    q = Fraction(1, 4)
    mean_total, sq_total = Fraction(0), Fraction(0)
    for n_adj in (1, 2, 2, 1):
        a = Fraction(n_adj, 4)
        m = 1 - q - a
        for k in range(1, cap + 1):
            prefix = m ** (k - 1)
            mean_total += prefix * q * k
            sq_total += prefix * q * k * k
            attempts_after_collision = k + 1 if k < cap else cap
            mean_total += prefix * a * attempts_after_collision
            sq_total += prefix * a * attempts_after_collision**2
        mean_total += m**cap * cap
        sq_total += m**cap * cap * cap
    mean = mean_total / 4
    return float(mean), float(sq_total / 4 - mean * mean)


def test_criterion_07_rgtr_oracle_agreement():
    exact = exact_metrics(PolicyKind.RGTR)
    sim = run_batch(PolicyKind.RGTR, 100_000, seed=0)
    n = sim.n_blocks

    mean_attempts, var_attempts = _rgtr_attempt_moments()
    assert mean_attempts == pytest.approx(exact.attempts_per_block, abs=1e-12)
    # Failure and collision counts are per-block Bernoulli variables (a block
    # collides at most once: the regrasp after a collision always hits).
    se_fail = math.sqrt(exact.failure_rate * (1 - exact.failure_rate) / n)
    se_att = math.sqrt(var_attempts / n)
    c = exact.collisions_per_block
    se_coll = math.sqrt(c * (1 - c) / n)

    d_fail = abs(sim.failure_rate - exact.failure_rate)
    d_att = abs(sim.attempts_per_block - exact.attempts_per_block)
    d_coll = abs(sim.collisions_per_block - exact.collisions_per_block)

    control = run_batch(PolicyKind.CONTROL, 1_000, seed=0)
    control_exact = (
        control.failure_rate,
        control.attempts_per_block,
        control.collisions_per_block,
    ) == (0.0, 1.0, 0.0)

    ok = (
        d_fail <= 3 * se_fail
        and d_att <= 3 * se_att
        and d_coll <= 3 * se_coll
        and control_exact
    )
    _report(
        7,
        ok,
        f"RgTr deltas/3SE: failure {d_fail:.5f}/{3 * se_fail:.5f}, "
        f"attempts {d_att:.5f}/{3 * se_att:.5f}, collisions {d_coll:.5f}/{3 * se_coll:.5f}; "
        f"control exact: {control_exact}",
    )
    assert d_fail <= 3 * se_fail
    assert d_att <= 3 * se_att
    assert d_coll <= 3 * se_coll
    assert control_exact


def test_criterion_08_hardware_plausibility():
    observed = {
        PolicyKind.RG: (0.20, 3.30, 1.45),
        PolicyKind.RGTR: (0.00, 1.85, 0.55),
    }
    details = []
    ok = True
    for policy, tuple_observed in observed.items():
        dist = batch_distribution(policy, 10_000, 5, seed=8)
        for j, value in enumerate(tuple_observed):
            lo, hi = np.quantile(dist[:, j], [0.005, 0.995])
            inside = lo <= value <= hi
            ok = ok and inside
            details.append(f"{policy.value}[{j}]={value} in [{lo:.3f}, {hi:.3f}]: {inside}")
    _report(8, ok, "; ".join(details))
    assert ok


def test_criterion_09_dominance():
    rg = run_batch(PolicyKind.RG, 10_000, seed=1)
    rgtr = run_batch(PolicyKind.RGTR, 10_000, seed=1)
    ok = (
        rgtr.failure_rate < rg.failure_rate
        and rgtr.attempts_per_block < rg.attempts_per_block
        and rgtr.collisions_per_block < rg.collisions_per_block
    )
    _report(
        9,
        ok,
        f"RgTr vs Rg at n=10,000: failure {rgtr.failure_rate:.4f} < {rg.failure_rate:.4f}, "
        f"attempts {rgtr.attempts_per_block:.4f} < {rg.attempts_per_block:.4f}, "
        f"collisions {rgtr.collisions_per_block:.4f} < {rg.collisions_per_block:.4f}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 10: command-level determinism


def _run_cli(capsys, argv: list[str]) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def _digest_dir(directory) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


def test_criterion_10_determinism(tmp_path, capsys):
    # A small frame keeps the image-producing commands fast while still
    # exercising the full render/IO stack; noise makes the seed meaningful.
    config_path = tmp_path / "config.json"
    config_path.write_text(
        '{"width_px": 480, "height_px": 270, "cx_px": 240.0, "cy_px": 135.0, "alpha_px": 75.0}'
    )
    checks = []

    out_a, out_b = tmp_path / "render_a", tmp_path / "render_b"
    render = ["render", "--object", "sphere", "--rotation", "0.5235987755982988"]
    stdout_a = _run_cli(capsys, render + ["--out", str(out_a)])
    stdout_b = _run_cli(capsys, render + ["--out", str(out_b)])
    checks.append(("render", stdout_a == stdout_b and _digest_dir(out_a) == _digest_dir(out_b)))

    ds_a, ds_b = tmp_path / "ds_a", tmp_path / "ds_b"
    dataset = ["dataset", "--config", str(config_path), "--noise", "1.5", "--seed", "7"]
    stdout_a = _run_cli(capsys, dataset + ["--out-dir", str(ds_a)])
    stdout_b = _run_cli(capsys, dataset + ["--out-dir", str(ds_b)])
    manifests_match = (ds_a / "manifest.json").read_text() == (ds_b / "manifest.json").read_text()
    checks.append(("dataset", manifests_match and _digest_dir(ds_a) == _digest_dir(ds_b)))

    def localize_once(ds_dir):
        assert main(["localize", "--config", str(config_path), "--manifest", str(ds_dir / "manifest.json")]) in (0, 1)
        out = capsys.readouterr().out
        return out, (ds_dir / "errors.csv").read_bytes()

    loc_a, csv_a = localize_once(ds_a)
    loc_b, csv_b = localize_once(ds_b)
    checks.append(("localize", loc_a == loc_b and csv_a == csv_b))

    csv_path = tmp_path / "cal.csv"
    intrinsics = CameraIntrinsics()
    rows = ["u,v,x,y,z"]
    for p in _calibration_points():
        px = project(p, intrinsics)
        rows.append(f"{px.u!r},{px.v!r},{p.x!r},{p.y!r},{p.z!r}")
    csv_path.write_text("\n".join(rows) + "\n")
    cal_a = _run_cli(capsys, ["calibrate", str(csv_path)])
    cal_b = _run_cli(capsys, ["calibrate", str(csv_path)])
    checks.append(("calibrate", cal_a == cal_b))

    bw = ["blocksworld", "--policy", "all", "-n", "2000", "--seed", "3"]
    checks.append(("blocksworld", _run_cli(capsys, bw) == _run_cli(capsys, bw)))

    ok = all(same for _, same in checks)
    _report(10, ok, "; ".join(f"{name} identical: {same}" for name, same in checks))
    assert ok
