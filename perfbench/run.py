"""End-to-end benchmark of the ``fingersense`` command-line interface.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload protocol-clean --seed 0 --seconds 20 --trace 0

Each CLI command runs as a fresh process, one at a time, in a closed loop with
a single client, the way a user runs them.  The benchmark repeats the
workload's commands ("passes") until ``--seconds`` have elapsed, checks every
output, prints each metric by name with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced passes with passes run through
``perfbench/traced.py``, which records per-layer spans, and reports the
per-layer metrics; their definitions and the end-to-end metric each should
move are listed in ``perfbench/README.md``.

Workloads (the seed drives pixel noise, correspondences and Monte-Carlo
draws; identical seeds give identical inputs and byte-identical outputs):

- ``protocol-clean``: ``dataset --noise 2`` then ``localize`` on it.  One
  connected component per frame, so rendering and smoothing dominate.
- ``protocol-noisy``: ``localize`` over a ``--noise 16`` dataset generated
  untimed beforehand.  About 255 components per frame, so ``detect_blobs``
  dominates and rendering does no timed work.
- ``grasp-calibrate``: ``blocksworld --policy all -n 1000000`` then
  ``calibrate`` on a seeded 20k-point correspondence CSV.  Touches neither
  rendering, imaging nor PGM I/O.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

RUN_LIMIT_S = 170.0  # every run must end within 180 s
SETUP_REPEATS = 7
CLI_ENTRY = "import sys; from fingersense.cli import main; sys.exit(main())"

N_FRAMES = 56  # contact frames in the protocol; the dataset adds a reference
FRAME_TOL_MM = 5.0  # a frame whose error exceeds this fails (worst seen: 2.5 mm)
MEAN_ERROR_GATE_MM = 1.0  # acceptance criterion 5
N_BOARDS = 1_000_000
MC_MAX_SE = 5.0  # simulated vs exact, in Monte-Carlo standard errors
N_POINTS = 20_000
PIXEL_NOISE_PX = 0.5
CALIB_ALPHA_TOL_PX = 0.05  # about ten standard errors at 20k points
SHAPE_SAMPLE = range(0, N_FRAMES, 7)  # frames re-examined for the shape checks


class Aborted(Exception):
    """The run cannot produce a result."""


def _on_alarm(signum, frame):
    raise Aborted(f"run exceeded {RUN_LIMIT_S:.0f} s")


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


# ---------------------------------------------------------------------------
# processes


@dataclass
class Result:
    label: str
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str
    start: float  # time.perf_counter() around the process
    end: float
    trace: dict | None = None


class Runner:
    """Starts CLI processes one at a time and waits for each to end."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )
        self.started = 0

    def run(self, label: str, argv: list[str], traced: bool = False) -> Result:
        """Run one CLI command, optionally through ``traced.py``."""
        spans_path = self.work / f"{self.started + 1:03d}-{label}.spans.json"
        if traced:
            cmd = [sys.executable, str(HERE / "traced.py"), str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
        result = self.spawn(label, cmd)
        if traced and spans_path.exists():
            result.trace = summarize_trace(json.loads(spans_path.read_text()), result.start, result.end)
        return result

    def import_time(self) -> float:
        """Wall time of a fresh interpreter importing ``fingersense.cli``."""
        result = self.spawn("import", [sys.executable, "-c", "import fingersense.cli"])
        if result.code != 0:
            raise Aborted(f"cannot import fingersense.cli: {result.stderr.strip()}")
        return result.wall_s

    def spawn(self, label: str, cmd: list[str]) -> Result:
        """Start ``cmd``, block in ``wait4`` until it ends, and time it.

        ``wait4`` gives the child's own peak RSS and, unlike
        ``subprocess.run(timeout=...)``, does not poll, so the wall time is
        not rounded up to a polling interval.  The deadline is enforced with
        ``SIGALRM``; the child is killed and reaped if it is reached.
        """
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise Aborted(f"run exceeded {RUN_LIMIT_S:.0f} s")
        self.started += 1
        tag = f"{self.started:03d}-{label}"
        out_path, err_path = self.work / f"{tag}.out", self.work / f"{tag}.err"
        with out_path.open("wb") as out, err_path.open("wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=out, stderr=err)
            try:
                signal.setitimer(signal.ITIMER_REAL, remaining)
                _, status, usage = os.wait4(proc.pid, 0)
                end = time.perf_counter()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Result(
            label,
            proc.returncode,
            end - start,
            usage.ru_maxrss / 1024.0,
            out_path.read_text(),
            err_path.read_text(),
            start,
            end,
        )


# ---------------------------------------------------------------------------
# checks


class Ops:
    """Operations attempted and failed; every failure is printed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAIL {what}: {problem}", flush=True)
        return not problems


class Digests:
    """sha256 of each output; every later pass must reproduce the first."""

    def __init__(self) -> None:
        self.first: dict[str, str] = {}

    def check(self, name: str, digest: str) -> list[str]:
        expected = self.first.setdefault(name, digest)
        if digest != expected:
            return [f"{name} sha256 {digest[:16]} differs from the first pass ({expected[:16]})"]
        return []


def record_command(ops: Ops, result: Result, output_problems, *args) -> None:
    """Count one command: it fails on a non-zero exit or any output problem."""
    if result.code != 0:
        tail = result.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        problems = [f"exit status {result.code}: {tail[0]}"]
    else:
        try:
            problems = output_problems(*args)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    ops.record(result.label, problems)


def stdout_digest(ctx: "Context", result: Result) -> list[str]:
    return ctx.digests.check(f"{result.label}.stdout", hashlib.sha256(result.stdout.encode()).hexdigest())


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Command:
    label: str
    argv: list[str]
    timed: bool  # counts towards cmd_wall_s


@dataclass
class Context:
    seed: int
    runner: Runner
    ops: Ops
    digests: Digests = field(default_factory=Digests)
    values: dict[str, float] = field(default_factory=dict)  # accuracy figures
    shape: dict[str, float] = field(default_factory=dict)


def dataset_problems(ctx: Context, result: Result, data: Path) -> list[str]:
    problems = []
    manifest = json.loads((data / "manifest.json").read_text())
    names = sorted({e["reference"] for e in manifest} | {e["frame"] for e in manifest})
    if len(manifest) != N_FRAMES or len(names) != N_FRAMES + 1:
        problems.append(f"manifest lists {len(manifest)} entries and {len(names)} images")
    h = hashlib.sha256()
    for name in names + ["manifest.json"]:
        h.update(f"{name}\0{sha256_file(data / name)}\n".encode())
    problems += ctx.digests.check(f"{result.label}.pgm+manifest", h.hexdigest())
    return problems + stdout_digest(ctx, result)


def localize_problems(ctx: Context, result: Result, data: Path) -> list[str]:
    """Check the summary and the 56 frames; each frame is an operation too."""
    problems = []
    summary = json.loads(result.stdout)
    rows = list(csv.DictReader((data / "errors.csv").open()))
    errors = [float(row["error_mm"]) for row in rows]
    for row, error in zip(rows, errors):
        where = f"frame {row['object']} {row['pose_kind']} {row['pose_value']}"
        if math.isnan(error):
            ctx.ops.record(where, ["not detected"])
        else:
            ctx.ops.record(where, [f"error {error:.3f} mm above {FRAME_TOL_MM} mm"] if error > FRAME_TOL_MM else [])
    detected = [e for e in errors if not math.isnan(e)]
    if summary["n_entries"] != N_FRAMES or summary["n_detected"] != N_FRAMES or len(errors) != N_FRAMES:
        problems.append(f"detected {summary['n_detected']}/{summary['n_entries']}, expected {N_FRAMES}/{N_FRAMES}")
    if not summary["mean_error_mm"] <= MEAN_ERROR_GATE_MM:
        problems.append(f"mean error {summary['mean_error_mm']} mm above {MEAN_ERROR_GATE_MM} mm")
    if detected:
        ctx.values["mean_error_mm"] = sum(detected) / len(detected)
        ctx.values["max_error_mm"] = max(detected)
    for name in ("errors.csv", "by_pose.csv", "by_object.csv"):
        problems += ctx.digests.check(f"localize.{name}", sha256_file(data / name))
    return problems + stdout_digest(ctx, result)


def frame_components(data: Path) -> list[int]:
    """Connected components above the default threshold, on sampled frames.

    Recomputed here with SciPy and the package's default detection settings,
    outside any timed region, so that the workload's shape is known even in
    an untraced run.
    """
    import numpy as np
    from scipy import ndimage

    from fingersense.imaging import DEFAULT_SIGMA_PX, DEFAULT_THRESHOLD
    from fingersense.pgm import read_pgm

    manifest = json.loads((data / "manifest.json").read_text())
    reference = read_pgm(data / manifest[0]["reference"]).astype(np.float64)
    counts = []
    for index in SHAPE_SAMPLE:
        frame = read_pgm(data / manifest[index]["frame"]).astype(np.float64)
        diff = ndimage.gaussian_filter(np.abs(frame - reference), DEFAULT_SIGMA_PX, truncate=3.0, mode="nearest")
        _, n = ndimage.label(diff > DEFAULT_THRESHOLD, structure=np.ones((3, 3), dtype=bool))
        counts.append(n)
    return counts


class ProtocolClean:
    name = "protocol-clean"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.data = ctx.runner.work / "clean"

    def prepare(self) -> None:
        pass

    def commands(self) -> list[Command]:
        return [
            Command("dataset", ["dataset", "--out-dir", "clean", "--noise", "2", "--seed", str(self.ctx.seed)], True),
            Command("localize", ["localize", "--manifest", "clean/manifest.json"], True),
        ]

    def check(self, result: Result) -> None:
        output_problems = dataset_problems if result.label == "dataset" else localize_problems
        record_command(self.ctx.ops, result, output_problems, self.ctx, result, self.data)

    def check_shape(self) -> None:
        import numpy as np

        from fingersense.config import SessionConfig
        from fingersense.render import BACKGROUND_INTENSITY, OBJECT_ORDER, default_indenter, protocol_poses, render_contact

        components = frame_components(self.data)
        config = SessionConfig()
        poses = [(obj, pose) for obj in OBJECT_ORDER for pose in protocol_poses()]
        imprint = []
        for index in SHAPE_SAMPLE:
            indenter = default_indenter(*poses[index], config.geometry)
            image = render_contact(indenter, config.geometry, config.intrinsics)
            imprint.append(int(np.count_nonzero(image.pixels != BACKGROUND_INTENSITY)))
        self.ctx.shape.update(components_p50=median(components), imprint_px_p50=median(imprint))
        problems = []
        if not 1 <= median(components) <= 3:
            problems.append(f"median {median(components)} components per frame, expected about 1")
        if median(imprint) < 500:
            problems.append(f"median imprint {median(imprint)} px, expected thousands")
        self.ctx.ops.record("shape", problems)


class ProtocolNoisy(ProtocolClean):
    name = "protocol-noisy"

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.data = ctx.runner.work / "noisy"

    def prepare(self) -> None:
        argv = ["dataset", "--out-dir", "noisy", "--noise", "16", "--seed", str(self.ctx.seed)]
        result = self.ctx.runner.run("dataset", argv)
        record_command(self.ctx.ops, result, dataset_problems, self.ctx, result, self.data)

    def commands(self) -> list[Command]:
        return [Command("localize", ["localize", "--manifest", "noisy/manifest.json"], True)]

    def check_shape(self) -> None:
        components = frame_components(self.data)
        self.ctx.shape["components_p50"] = median(components)
        problems = []
        if median(components) < 100:
            problems.append(f"median {median(components)} components per frame, expected about 255")
        self.ctx.ops.record("shape", problems)


def write_correspondences(path: Path, seed: int) -> tuple[float, float, float]:
    """Seeded dense target seen by a perturbed "true" camera, 0.5 px noise.

    Surface points are drawn directly on the membrane (side and tip) and
    projected with the true camera; points outside the frame are redrawn.
    Values are written as plain Python floats: the package's own
    ``save_correspondences`` writes ``np.float64(...)`` under NumPy 2 and
    ``load_correspondences`` then rejects the file.
    """
    import numpy as np

    from fingersense.config import SessionConfig

    config = SessionConfig()
    g, k = config.geometry, config.intrinsics
    rng = np.random.default_rng([seed, 1])
    alpha = k.alpha * (1.0 + rng.uniform(-0.05, 0.05))
    cx = k.cx + rng.uniform(-10.0, 10.0)
    cy = k.cy + rng.uniform(-10.0, 10.0)
    chunks, kept = [], 0
    while kept < N_POINTS:
        m = N_POINTS
        phi = rng.uniform(0.0, 2.0 * math.pi, m)
        on_tip = rng.random(m) < 0.5
        cos_theta = rng.uniform(0.0, 1.0, m)  # area-uniform on the hemisphere
        sin_theta = np.sqrt(1.0 - cos_theta**2)
        radial = np.where(on_tip, g.r * sin_theta, g.r)
        x, y = radial * np.cos(phi), radial * np.sin(phi)
        z = np.where(on_tip, g.d + g.r * cos_theta, rng.uniform(0.0, g.d, m))
        ok = z > 0
        u = alpha * x / np.where(ok, z, 1.0) + cx + rng.normal(0.0, PIXEL_NOISE_PX, m)
        v = alpha * y / np.where(ok, z, 1.0) + cy + rng.normal(0.0, PIXEL_NOISE_PX, m)
        ok &= (u >= 0) & (u < k.width) & (v >= 0) & (v < k.height)
        chunks.append(np.column_stack([u, v, x, y, z])[ok])
        kept += int(ok.sum())
    rows = np.concatenate(chunks)[:N_POINTS]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "v", "x", "y", "z"])
        writer.writerows(rows.tolist())
    return float(alpha), float(cx), float(cy)


def exact_moments() -> dict[str, list[tuple[float, float]]]:
    """Per-block mean and variance of (failure, attempts, collisions).

    Enumerates every block column and every sequence of five draws with the
    package's reference policy semantics; the variance gives the Monte-Carlo
    standard error of the simulated averages.
    """
    from fingersense.blocksworld import DEFAULT_MAX_ATTEMPTS, N_COLUMNS, PolicyKind, replay_policy

    moments = {}
    for kind in PolicyKind:
        samples = [
            replay_policy(kind, block, draws)
            for block in range(N_COLUMNS)
            for draws in product(range(N_COLUMNS), repeat=DEFAULT_MAX_ATTEMPTS)
        ]
        columns = (
            [0.0 if s.success else 1.0 for s in samples],
            [float(s.attempts) for s in samples],
            [float(s.collisions) for s in samples],
        )
        moments[kind.value] = [(statistics.fmean(c), statistics.pvariance(c)) for c in columns]
    return moments


MC_FIELDS = ("failure_rate", "attempts_per_block", "collisions_per_block")


class GraspCalibrate:
    name = "grasp-calibrate"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.csv = ctx.runner.work / "corr.csv"

    def prepare(self) -> None:
        self.alpha, _, _ = write_correspondences(self.csv, self.ctx.seed)
        self.ctx.digests.check("corr.csv", sha256_file(self.csv))
        self.moments = exact_moments()

    def commands(self) -> list[Command]:
        bw = ["blocksworld", "--policy", "all", "-n", str(N_BOARDS), "--seed", str(self.ctx.seed)]
        return [Command("blocksworld", bw, True), Command("calibrate", ["calibrate", "corr.csv"], False)]

    def check(self, result: Result) -> None:
        output_problems = self.blocksworld_problems if result.label == "blocksworld" else self.calibrate_problems
        record_command(self.ctx.ops, result, output_problems, result)

    def blocksworld_problems(self, result: Result) -> list[str]:
        lines = result.stdout.splitlines()
        simulated = [json.loads(line) for line in lines[:3]]
        oracle = {row["policy"]: row for row in csv.DictReader(lines[3:])}
        problems, worst, boards = [], 0.0, 0
        for sim in simulated:
            policy, n = sim["policy"], sim["n_blocks"]
            boards += n // 4
            for name, (mean, var) in zip(MC_FIELDS, self.moments[policy]):
                if not math.isclose(float(oracle[policy][f"oracle_{name}"]), mean, rel_tol=1e-12, abs_tol=1e-12):
                    problems.append(f"{policy} exact {name} {oracle[policy][f'oracle_{name}']} != enumerated {mean}")
                gap = abs(sim[name] - mean)
                se = math.sqrt(var / n)
                dev = gap / se if se > 0 else (0.0 if gap == 0 else math.inf)
                worst = max(worst, dev)
                if dev > MC_MAX_SE:
                    problems.append(f"{policy} {name} {sim[name]} is {dev:.2f} SE from exact {mean}")
        self.ctx.values["mc_max_dev_se"] = worst
        self.ctx.shape["boards"] = boards
        if boards != 3 * N_BOARDS:
            problems.append(f"{boards} boards simulated, expected {3 * N_BOARDS}")
        return problems + stdout_digest(self.ctx, result)

    def calibrate_problems(self, result: Result) -> list[str]:
        report = json.loads(result.stdout)
        err = abs(report["alpha_px"] - self.alpha)
        self.ctx.values["calib_alpha_err_px"] = err
        self.ctx.values["calib_rms_px"] = report["rms_residual_px"]
        self.ctx.shape["points"] = report["n_correspondences"]
        problems = []
        if not err <= CALIB_ALPHA_TOL_PX:
            problems.append(f"alpha {report['alpha_px']} is {err:.4f} px from the true {self.alpha}")
        if report["n_correspondences"] != N_POINTS:
            problems.append(f"{report['n_correspondences']} points fitted, expected {N_POINTS}")
        return problems + stdout_digest(self.ctx, result)

    def check_shape(self) -> None:
        pass  # boards and points are checked with each command's output


WORKLOADS = {w.name: w for w in (ProtocolClean, ProtocolNoisy, GraspCalibrate)}


# ---------------------------------------------------------------------------
# traces


def layer_of(span_name: str) -> str:
    prefix = span_name.partition(".")[0]
    return "cli" if prefix == "config" else prefix


def summarize_trace(dump: dict, wall_start: float, wall_end: float) -> dict:
    """Self times, call records and counts of one traced command.

    A span's self time is its duration minus the time its child spans cover
    (children of one span never overlap: the program is single-threaded).
    """
    spans = dump["spans"]
    child_ns = [0] * len(spans)
    child_counts: list[dict] = [{} for _ in spans]
    for name, start, end, parent, counts in spans:
        if parent >= 0:
            child_ns[parent] += end - start
            for key, value in (counts or {}).items():
                child_counts[parent][key] = child_counts[parent].get(key, 0) + value
    calls: dict[str, list[dict]] = {}
    layer_self_ms: dict[str, float] = {}
    root_ms = 0.0
    for i, (name, start, end, parent, counts) in enumerate(spans):
        dur_ms = (end - start) / 1e6
        self_ms = dur_ms - child_ns[i] / 1e6
        layer = layer_of(name)
        layer_self_ms[layer] = layer_self_ms.get(layer, 0.0) + self_ms
        calls.setdefault(name, []).append(
            {"ms": dur_ms, "self_ms": self_ms, "counts": counts or {}, "child_counts": child_counts[i]}
        )
        if parent < 0:
            root_ms += dur_ms
    import_start, import_end = dump["import_ns"]
    wall_ms = (wall_end - wall_start) * 1e3
    import_ms = (import_end - import_start) / 1e6
    return {
        "wall_ms": wall_ms,
        "import_ms": import_ms,
        "layer_self_ms": layer_self_ms,
        "remainder_ms": wall_ms - import_ms - root_ms,
        "calls": calls,
    }


LAYERS = ("cli", "geometry", "render", "pgm", "imaging", "calibration", "blocksworld")


def per_layer_metrics(traced_passes: list[list[Result]], untraced_pass_walls: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics pooled over every traced pass (see README.md)."""
    calls: dict[str, list[dict]] = {}
    per_pass: list[dict[str, float]] = []
    for results in traced_passes:
        sums: dict[str, float] = {"wall_ms": 0.0, "remainder_ms": 0.0}
        for result in results:
            trace = result.trace
            sums["wall_ms"] += trace["wall_ms"]
            sums["remainder_ms"] += trace["remainder_ms"]
            for layer, ms in trace["layer_self_ms"].items():
                sums[layer] = sums.get(layer, 0.0) + ms
            for name, records in trace["calls"].items():
                calls.setdefault(name, []).extend(records)
                for record in records:
                    for key, value in record["counts"].items():
                        sums[key] = sums.get(key, 0.0) + value
        per_pass.append(sums)
    import_ms = [r.trace["import_ms"] for results in traced_passes for r in results]

    def ms(name: str, q: int = 50, key: str = "ms") -> float:
        return percentile([record[key] for record in calls.get(name, [])], q)

    def count(name: str, key: str, q: int = 50) -> float:
        return percentile([record["counts"][key] for record in calls.get(name, [])], q)

    def pass_sum(key: str) -> float:
        return median([sums.get(key, 0.0) for sums in per_pass])

    blobs = calls.get("imaging.detect_blobs", [])
    components = sum(r["child_counts"].get("components", 0) for r in blobs)
    kept = sum(r["counts"]["blobs_kept"] for r in blobs)
    per_component_us = [
        r["self_ms"] * 1e3 / r["child_counts"]["components"] for r in blobs if r["child_counts"].get("components")
    ]
    traced_wall = median([sums["wall_ms"] for sums in per_pass])
    untraced_wall = median(untraced_pass_walls) * 1e3

    metrics = {
        "cli.import_ms": (median(import_ms), "ms"),
        "cli.cmd_localize.self_ms": (ms("cli.cmd_localize", key="self_ms"), "ms"),
        "geometry.back_project_grid.ms": (ms("geometry.back_project_grid"), "ms"),
        "geometry.back_project.us": (ms("geometry.back_project") * 1e3, "us"),
        "render.render_reference.ms": (ms("render.render_reference"), "ms"),
        "render.render_contact.ms_p50": (ms("render.render_contact"), "ms"),
        "render.render_contact.ms_p80": (ms("render.render_contact", 80), "ms"),
        "render.generate_protocol_dataset.self_ms": (ms("render.generate_protocol_dataset", key="self_ms"), "ms"),
        "render.imprint_px_p50": (count("render.render_contact", "imprint_px"), "px"),
        "pgm.write_pgm.ms_p50": (ms("pgm.write_pgm"), "ms"),
        "pgm.read_pgm.ms_p50": (ms("pgm.read_pgm"), "ms"),
        "pgm.bytes_written": (pass_sum("bytes_written"), "B"),
        "pgm.bytes_read": (pass_sum("bytes_read"), "B"),
        "imaging.TactileImage.ms_p50": (ms("imaging.TactileImage"), "ms"),
        "imaging.DiffImage.ms_p50": (ms("imaging.DiffImage"), "ms"),
        "imaging.subtract_reference.ms_p50": (ms("imaging.subtract_reference"), "ms"),
        "imaging.smooth.ms_p50": (ms("imaging.smooth"), "ms"),
        "imaging.label.ms_p50": (ms("imaging.label"), "ms"),
        "imaging.detect_blobs.ms_p50": (ms("imaging.detect_blobs"), "ms"),
        "imaging.detect_blobs.ms_p80": (ms("imaging.detect_blobs", 80), "ms"),
        "imaging.detect_blobs.us_per_component": (median(per_component_us), "us"),
        "imaging.components_p50": (count("imaging.label", "components"), "count"),
        "imaging.blobs_kept_p50": (count("imaging.detect_blobs", "blobs_kept"), "count"),
        "imaging.blob_keep_frac": (kept / components if components else 0.0, "frac"),
        "imaging.aggregate_errors.ms": (ms("imaging.aggregate_errors"), "ms"),
        "calibration.load_correspondences.ms": (ms("calibration.load_correspondences"), "ms"),
        "calibration.fit_intrinsics.ms": (ms("calibration.fit_intrinsics"), "ms"),
        "calibration.points": (count("calibration.load_correspondences", "points"), "count"),
        "blocksworld.run_batch.ms.control": (ms("blocksworld.run_batch.control"), "ms"),
        "blocksworld.run_batch.ms.rg": (ms("blocksworld.run_batch.rg"), "ms"),
        "blocksworld.run_batch.ms.rgtr": (ms("blocksworld.run_batch.rgtr"), "ms"),
        "blocksworld.exact_metrics.ms": (ms("blocksworld.exact_metrics"), "ms"),
        "blocksworld.boards": (pass_sum("boards"), "count"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (pass_sum(layer), "ms")
    metrics["trace.count_ms"] = (pass_sum("trace"), "ms")
    metrics["trace.remainder_ms"] = (pass_sum("remainder_ms"), "ms")
    metrics["trace.overhead_frac"] = ((traced_wall - untraced_wall) / untraced_wall, "frac")
    return metrics


def print_accounting(results: list[Result]) -> None:
    """Show that import, self times and the remainder add up to each wall time."""
    for result in results:
        t = result.trace
        parts = [f"import {t['import_ms']:.1f}"]
        parts += [f"{layer} {ms:.1f}" for layer, ms in sorted(t["layer_self_ms"].items())]
        parts.append(f"remainder {t['remainder_ms']:.1f}")
        print(f"trace {result.label}: wall {t['wall_ms']:.1f} ms = " + " + ".join(parts) + " (ms)")


# ---------------------------------------------------------------------------
# main


def machine_record() -> dict[str, str]:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": str(os.cpu_count()),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def run(args: argparse.Namespace, work: Path) -> dict:
    start = time.monotonic()
    runner = Runner(work, start + RUN_LIMIT_S)
    ctx = Context(args.seed, runner, Ops())
    workload = WORKLOADS[args.workload](ctx)

    for key, value in machine_record().items():
        print(f"machine {key}: {value}")
    runner.import_time()  # compiles bytecode and warms the file cache
    setup = [] if args.trace else [runner.import_time() for _ in range(SETUP_REPEATS)]
    workload.prepare()

    walls: dict[str, list[float]] = {}
    untraced_walls: list[float] = []  # timed commands of each pass
    untraced_pass_walls: list[float] = []  # every command of each pass
    rss: list[float] = []
    traced_passes: list[list[Result]] = []
    begin, n = time.monotonic(), 0
    while True:
        traced = bool(args.trace) and n % 2 == 1
        results = []
        for command in workload.commands():
            result = runner.run(command.label, command.argv, traced=traced)
            workload.check(result)
            results.append(result)
        n += 1
        if traced:
            traced_passes.append([r for r in results if r.trace is not None])
        else:
            untraced_walls.append(sum(r.wall_s for r, c in zip(results, workload.commands()) if c.timed))
            untraced_pass_walls.append(sum(r.wall_s for r in results))
            for r in results:
                walls.setdefault(r.label, []).append(r.wall_s)
                rss.append(r.rss_mb)
        if time.monotonic() - begin >= args.seconds and (not args.trace or n >= 2):
            break
    workload.check_shape()

    per_s = {
        "dataset_frames_per_s": (N_FRAMES + 1, "dataset", "frames/s"),
        "localize_frames_per_s": (N_FRAMES, "localize", "frames/s"),
        "blocksworld_boards_per_s": (3 * N_BOARDS, "blocksworld", "boards/s"),
    }
    workload_metrics = {
        name: (items / median(walls[label]) if label in walls else 0.0, unit)
        for name, (items, label, unit) in per_s.items()
    }
    for name, unit in (("mean_error_mm", "mm"), ("max_error_mm", "mm"), ("calib_rms_px", "px"),
                       ("calib_alpha_err_px", "px"), ("mc_max_dev_se", "SE")):
        workload_metrics[name] = (ctx.values.get(name, 0.0), unit)
    workload_metrics["ops_failed_frac"] = (ctx.ops.failed / max(ctx.ops.attempted, 1), "frac")

    print(f"workload {workload.name} seed={args.seed}: {n} passes, {runner.started} processes")
    for label, values in walls.items():
        print(f"command {label}: wall_s median {median(values):.4f} over {len(values)} runs: "
              + " ".join(f"{v:.4f}" for v in values))
    for key, value in sorted(ctx.shape.items()):
        print(f"shape {key}: {value}")
    for name, digest in sorted(ctx.digests.first.items()):
        print(f"digest {workload.name} seed={args.seed} {name} {digest}")

    if args.trace:
        for results in traced_passes:
            print_accounting(results)
        metrics = {**per_layer_metrics(traced_passes, untraced_pass_walls), **workload_metrics}
    else:
        for name, (value, unit) in workload_metrics.items():
            print(f"metric {name}: {value} {unit}")
        metrics = {
            "setup_s": (median(setup), "s"),
            "cmd_wall_s": (median(untraced_walls), "s"),
            "peak_rss_mb": (max(rss), "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"metric {name}: {value} {unit}")
    return {
        "correct": ctx.ops.failed == 0,
        "attempted": ctx.ops.attempted,
        "failed": ctx.ops.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "fingersense" / "cli.py").is_file():
        print(f"error: {SRC / 'fingersense'} not found; run from a fingersense source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        report = run(args, work)
    except Aborted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
