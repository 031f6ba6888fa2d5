"""Tests for the JSON configuration and the command-line interface."""

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fingersense
from fingersense.calibration import Correspondence, load_correspondences, save_correspondences
from fingersense.cli import main
from fingersense.config import ConfigError, SessionConfig, load_config, save_config
from fingersense.geometry import CameraIntrinsics, Region, SensorGeometry, SurfacePoint, project
from fingersense.pgm import read_pgm
from fingersense.render import load_manifest


# ---------------------------------------------------------------------------
# configuration


def test_config_round_trip(tmp_path):
    path = tmp_path / "config.json"
    save_config(SessionConfig(), path)
    assert load_config(path) == SessionConfig()
    # load -> save -> load is a fixed point.
    save_config(load_config(path), path)
    assert load_config(path) == SessionConfig()


def test_config_partial_file_uses_defaults(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"r_mm": 5.0, "threshold": 10}')
    config = load_config(path)
    assert config.geometry.r == 5.0
    assert config.geometry.d == 30.0
    assert config.threshold == 10
    assert config.intrinsics.alpha == 300.0


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"r_mm": 5.0, "radius_mm": 5.0}')
    with pytest.raises(ConfigError, match="radius_mm"):
        load_config(path)


def test_config_rejects_invalid_values(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"r_mm": -1.0}')
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text('{"threshold": true}')
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text('{"width_px": 19.5}')
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text('{"out_dir": 3}')
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"noise_sigma": NaN}', "noise_sigma"),
        ('{"d_mm": NaN}', "d_mm"),
        ('{"sigma_px": Infinity}', "sigma_px"),
        ('{"alpha_px": -Infinity}', "alpha_px"),
        pytest.param('{"r_mm": 1' + "0" * 400 + "}", "r_mm", id="int-beyond-float"),
    ],
)
def test_config_rejects_non_finite_numbers(tmp_path, text, key):
    # Python's JSON reader accepts these literals; the config must not.
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"^{path}: {key} must be finite"):
        load_config(path)


def test_config_rejects_malformed_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError, match="object"):
        load_config(path)


def test_config_rejects_oversized_frame(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"width_px": 4096, "height_px": 4097}')
    with pytest.raises(ConfigError, match=f"^{path}: frame 4096x4097 has more than"):
        load_config(path)
    path.write_text('{"width_px": 4096, "height_px": 4096}')  # the largest frame accepted
    assert load_config(path).intrinsics.height == 4096


def test_config_defaults_embed_sensor():
    data = SessionConfig().to_json_dict()
    assert data["r_mm"] == 10.0
    assert data["d_mm"] == 30.0
    assert (data["width_px"], data["height_px"]) == (1920, 1080)


# ---------------------------------------------------------------------------
# render command


def test_render_apex_truth(tmp_path, capsys):
    out = tmp_path / "render"
    code = main(["render", "--object", "cone", "--rotation", "0", "--out", str(out)])
    assert code == 0
    truth = json.loads(capsys.readouterr().out)
    assert (truth["x_mm"], truth["y_mm"], truth["z_mm"]) == (0.0, 0.0, 40.0)
    assert (out / "reference.pgm").exists()
    assert read_pgm(out / "contact.pgm").shape == (1080, 1920)


def test_render_translation_truth(tmp_path, capsys):
    code = main(
        ["render", "--object", "slab", "--translation", "15", "--out", str(tmp_path / "o")]
    )
    assert code == 0
    truth = json.loads(capsys.readouterr().out)
    assert (truth["x_mm"], truth["y_mm"], truth["z_mm"]) == (10.0, 0.0, 15.0)
    assert truth["pose_kind"] == "translation"


def test_render_invalid_pose_fails(tmp_path, capsys):
    code = main(
        ["render", "--object", "cone", "--translation", "99", "--out", str(tmp_path / "o")]
    )
    assert code == 1
    assert "99" in capsys.readouterr().err


def test_render_unknown_object_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["render", "--object", "pyramid", "--rotation", "0", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_render_respects_config(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        '{"width_px": 64, "height_px": 48, "cx_px": 32.0, "cy_px": 24.0, "alpha_px": 30.0}'
    )
    out = tmp_path / "small"
    code = main(
        [
            "render",
            "--config",
            str(config_path),
            "--object",
            "sphere",
            "--rotation",
            "0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    capsys.readouterr()
    assert read_pgm(out / "reference.pgm").shape == (48, 64)


def test_render_oversized_frame_fails_with_one_line(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"width_px": 10**9, "height_px": 10**9}))
    out = tmp_path / "out"
    argv = ["render", "--object", "sphere", "--rotation", "0", "--out", str(out)]
    assert main([*argv, "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: frame 1000000000x1000000000 has more than")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_bad_config_fails_command(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text('{"gain": 2.0}')
    code = main(
        [
            "render",
            "--config",
            str(config_path),
            "--object",
            "cone",
            "--rotation",
            "0",
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == 1
    assert "gain" in capsys.readouterr().err


RENDER = ["render", "--object", "cone", "--rotation", "0", "--out", "unused", "--config"]
CSV_HEADER = b"u,v,x,y,z\n"


@pytest.mark.parametrize(
    "command, content, message",
    [
        (RENDER, b"[" * 200_000, ": invalid JSON: maximum recursion depth"),
        (["localize", "--manifest"], b"[" * 200_000, ": invalid JSON: maximum recursion depth"),
        (RENDER, b'{"r_mm": 10.0}\xff', ": invalid JSON: 'utf-8' codec can't decode"),
        (["localize", "--manifest"], b"[]\xff", ": invalid JSON: 'utf-8' codec can't decode"),
        (["calibrate"], CSV_HEADER + b"1160,540,10,0,15\n1,\xff,3,4,5\n", ":3: non-numeric field"),
        (["calibrate"], CSV_HEADER + b"1,2,3,4," + b"5" * 140_000 + b"\n", ":2: field larger"),
        (["calibrate"], CSV_HEADER + b"960,540,10,0,0\n", ":2: correspondence point must have z > 0"),
    ],
    ids=["deep-config", "deep-manifest", "utf8-config", "utf8-manifest", "utf8-csv",
         "long-csv-field", "csv-base-ring"],
)
def test_unreadable_input_fails_with_one_line(tmp_path, capsys, command, content, message):
    path = tmp_path / "input"
    path.write_bytes(content)
    assert main([*command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}{message}")
    assert captured.err.count("\n") == 1


CONFIG_KEYS = tuple(SessionConfig().to_json_dict())
GOOD_ENTRY = {
    "object": "cone",
    "pose_kind": "rotation",
    "pose_value": 0.0,
    "reference": "reference.pgm",
    "frame": "cone_rotation_0.pgm",
    "truth_mm": [0.0, 0.0, 40.0],
}
short_text = st.text(st.characters() | st.sampled_from('\n\r"\\'), max_size=8)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | short_text,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(short_text, children, max_size=3),
    max_leaves=8,
)


def _dumps(value) -> bytes:
    return json.dumps(value).encode()


loader_inputs = st.one_of(
    st.binary(max_size=200),
    st.tuples(st.sampled_from((b"[", b'{"r_mm":', b"[[1,")), st.integers(1, 3000)).map(
        lambda p: p[0] * p[1]
    ),
    st.dictionaries(st.sampled_from(CONFIG_KEYS) | short_text, json_values).map(_dumps),
    st.lists(
        st.fixed_dictionaries(
            {key: st.just(value) | json_values for key, value in GOOD_ENTRY.items()}
        ),
        max_size=2,
    ).map(_dumps),
    st.tuples(st.binary(max_size=8), st.text(alphabet='0123456789.,-+eEinfa"\r\n ', max_size=80))
    .map(lambda p: CSV_HEADER + p[0] + p[1].encode()),
)


@settings(max_examples=300, deadline=None)
@given(loader_inputs)
def test_loaders_fail_cleanly_on_fuzzed_bytes(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("fuzz") / "input"
    path.write_bytes(content)
    for load in (load_config, load_manifest, lambda p: load_correspondences(p, SensorGeometry())):
        try:
            load(path)
        except (ValueError, OSError) as exc:
            assert str(exc).startswith(f"{path}:")
            assert "\n" not in str(exc)


# ---------------------------------------------------------------------------
# dataset + localize commands


def _digest_dir(directory) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.suffix in (".pgm", ".json")
    }


def test_dataset_matches_library_output(tmp_path, capsys, protocol_dataset):
    fixture_dir, _ = protocol_dataset
    out = tmp_path / "ds"
    code = main(["dataset", "--out-dir", str(out), "--seed", "0"])
    assert code == 0
    assert capsys.readouterr().out.strip() == str(out / "manifest.json")
    manifest = load_manifest(out / "manifest.json")
    assert len(manifest.entries) == 56
    # Byte-identical to the library-generated dataset with the same seed.
    assert _digest_dir(out) == _digest_dir(fixture_dir)


@pytest.mark.parametrize("noise", ["nan", "inf", "-1"])
def test_dataset_rejects_invalid_noise(tmp_path, capsys, noise):
    out = tmp_path / "ds"
    code = main(["dataset", "--out-dir", str(out), "--noise", noise])
    assert code == 1
    assert "noise sigma" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_dataset_rejects_nan_noise_in_config(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text('{"noise_sigma": NaN}')
    code = main(["dataset", "--config", str(config_path), "--out-dir", str(tmp_path / "ds")])
    assert code == 1
    assert "noise_sigma must be finite" in capsys.readouterr().err


def test_dataset_unwritable_image_fails_with_one_line(tmp_path, capsys):
    out = tmp_path / "ds"
    (out / "cone_rotation_0.pgm").mkdir(parents=True)  # a directory where a frame goes
    threads = threading.active_count()
    code = main(["dataset", "--out-dir", str(out), "--noise", "2"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write image {out / 'cone_rotation_0.pgm'}: ")
    assert captured.err.count("\n") == 1
    assert threading.active_count() == threads


@pytest.mark.parametrize(
    "argv",
    [["dataset", "--noise", "2"], ["blocksworld", "--policy", "rg", "-n", "10"]],
    ids=["dataset", "blocksworld"],
)
def test_negative_seed_fails_with_one_line(tmp_path, capsys, argv):
    out = tmp_path / "ds"
    if argv[0] == "dataset":
        argv = [*argv, "--out-dir", str(out)]
    assert main([*argv, "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed must be non-negative, got -1\n"
    assert not out.exists()  # refused before anything is written


def test_localize_closed_loop(capsys, protocol_dataset):
    out_dir, _ = protocol_dataset
    code = main(["localize", "--manifest", str(out_dir / "manifest.json")])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_entries"] == 56
    assert summary["n_detected"] == 56
    assert summary["mean_error_mm"] <= 1.0

    per_entry = (out_dir / "errors.csv").read_text().splitlines()
    assert per_entry[0] == "object,pose_kind,pose_value,error_mm"
    assert len(per_entry) == 57

    by_object = (out_dir / "by_object.csv").read_text().splitlines()
    assert by_object[0] == "object,mean_mm,std_mm,count,hardware_mean_mm,hardware_std_mm"
    assert len(by_object) == 8
    cone_row = next(line for line in by_object if line.startswith("cone,"))
    assert "3.63" in cone_row and "3.26" in cone_row  # hardware comparison values

    by_pose = (out_dir / "by_pose.csv").read_text().splitlines()
    assert len(by_pose) == 9
    assert by_pose[1].startswith("rotation 0,")


def test_localize_empty_manifest_fails(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text("[]\n")
    code = main(["localize", "--manifest", str(manifest)])
    assert code == 1
    assert capsys.readouterr().err


@pytest.mark.parametrize(
    "payload, message",
    [
        ('{"entries": []}', "expected a JSON list"),
        ('[{"object": "cone"}]', "entry 0: missing key"),
        ('[["cone", "rotation", 0.0]]', "entry 0: expected a JSON object"),
    ],
)
def test_localize_malformed_manifest_fails_cleanly(tmp_path, capsys, payload, message):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(payload)
    code = main(["localize", "--manifest", str(manifest)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: ")
    assert message in err
    assert len(err.strip().splitlines()) == 1  # no traceback


def test_localize_missing_frame_writes_nan_row(tmp_path, capsys, protocol_dataset):
    out_dir, manifest = protocol_dataset
    payload = json.loads((out_dir / "manifest.json").read_text())
    payload[0]["frame"] = "missing.pgm"
    broken = tmp_path / "manifest.json"
    broken.write_text(json.dumps(payload))
    # Images resolve relative to the manifest, so link the dataset directory.
    for image in out_dir.glob("*.pgm"):
        (tmp_path / image.name).symlink_to(image)
    code = main(["localize", "--manifest", str(broken)])
    captured = capsys.readouterr()
    assert code == 0  # partial failure is not total failure
    assert "missing.pgm" in captured.err
    rows = (tmp_path / "errors.csv").read_text().splitlines()
    assert rows[1].endswith(",nan")
    assert json.loads(captured.out)["n_detected"] == 55


def test_tiny_d_never_raises_a_traceback(tmp_path, capsys, protocol_dataset):
    # r * alpha / d overflows for d = 1e-300; every command must still end in
    # exit 0 or a one-line error, not an OverflowError.
    config = tmp_path / "config.json"
    config.write_text('{"d_mm": 1e-300}')
    out_dir, _ = protocol_dataset
    for image in out_dir.glob("*.pgm"):
        (tmp_path / image.name).symlink_to(image)
    (tmp_path / "manifest.json").write_text((out_dir / "manifest.json").read_text())

    render = ["render", "--object", "cone", "--rotation", "0", "--out", str(tmp_path / "r")]
    assert main([*render, "--config", str(config)]) == 0
    localize = ["localize", "--manifest", str(tmp_path / "manifest.json")]
    assert main([*localize, "--config", str(config)]) == 0
    capsys.readouterr()

    code = main(["dataset", "--config", str(config), "--out-dir", str(tmp_path / "ds")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: translation 5.0 outside [0, 1e-300] mm\n"


# ---------------------------------------------------------------------------
# calibrate command


def _surface_sample(index: int) -> SurfacePoint:
    # Points spread over both membrane regions, built parametrically.
    if index % 2 == 0:
        phi = 0.3 + 0.4 * index
        return SurfacePoint(
            10.0 * math.cos(phi), 10.0 * math.sin(phi), 5.0 + 2.0 * index, Region.SIDE
        )
    theta = 0.2 + 0.1 * index
    return SurfacePoint(
        10.0 * math.sin(theta) * math.cos(index),
        10.0 * math.sin(theta) * math.sin(index),
        30.0 + 10.0 * math.cos(theta),
        Region.TIP,
    )


def test_calibrate_recovers_alpha(tmp_path, capsys):
    points = [_surface_sample(i) for i in range(8)]
    rows = [Correspondence(project(p, CameraIntrinsics()), p) for p in points]
    csv_path = tmp_path / "cal.csv"
    save_correspondences(csv_path, rows)
    code = main(["calibrate", str(csv_path)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["alpha_px"] == pytest.approx(300.0, rel=1e-6)
    assert report["alpha_single_point_px"] == pytest.approx(300.0, rel=1e-6)
    assert report["cx_px"] == pytest.approx(960.0, abs=1e-3)
    assert report["rms_residual_px"] < 1e-6
    assert report["n_correspondences"] == 8


def test_calibrate_two_rows_reports_rank(tmp_path, capsys):
    points = [_surface_sample(i) for i in range(2)]
    rows = [Correspondence(project(p, CameraIntrinsics()), p) for p in points]
    csv_path = tmp_path / "cal.csv"
    save_correspondences(csv_path, rows)
    code = main(["calibrate", str(csv_path)])
    assert code == 1
    assert "correspondence" in capsys.readouterr().err.lower()


def test_calibrate_on_axis_only_fails(tmp_path, capsys):
    csv_path = tmp_path / "cal.csv"
    csv_path.write_text("u,v,x,y,z\n960.0,540.0,0.0,0.0,40.0\n")
    code = main(["calibrate", str(csv_path)])
    assert code == 1
    assert "axis" in capsys.readouterr().err


def test_calibrate_header_only_csv_fails_cleanly(tmp_path, capsys):
    csv_path = tmp_path / "cal.csv"
    csv_path.write_text("u,v,x,y,z\n")
    code = main(["calibrate", str(csv_path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {csv_path}: no correspondences\n"


def test_calibrate_malformed_row_names_line(tmp_path, capsys):
    csv_path = tmp_path / "cal.csv"
    csv_path.write_text("u,v,x,y,z\n1160.0,540.0,10.0,0.0,15.0\n1,2,3\n")
    code = main(["calibrate", str(csv_path)])
    assert code == 1
    assert ":3:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# blocksworld command


def test_blocksworld_control(capsys):
    code = main(["blocksworld", "--policy", "control", "-n", "50"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["policy"] == "control"
    assert payload["failure_rate"] == 0.0
    assert payload["attempts_per_block"] == 1.0
    assert payload["collisions_per_block"] == 0.0
    assert payload["n_blocks"] == 200


def test_blocksworld_matches_library(capsys):
    from fingersense.blocksworld import PolicyKind, run_batch

    code = main(["blocksworld", "--policy", "rg", "-n", "400", "--seed", "7"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    direct = run_batch(PolicyKind.RG, 400, seed=7)
    assert payload["failure_rate"] == direct.failure_rate
    assert payload["attempts_per_block"] == direct.attempts_per_block
    assert payload["seed"] == 7


def test_blocksworld_all_prints_comparison(capsys):
    code = main(["blocksworld", "--policy", "all", "-n", "200", "--seed", "1"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    # Three JSON metric lines, then the comparison table.
    metrics = [json.loads(line) for line in lines[:3]]
    assert [m["policy"] for m in metrics] == ["control", "rg", "rgtr"]
    header = lines[3].split(",")
    assert "oracle_failure_rate" in header
    assert "hardware_failure_rate" in header
    table = {line.split(",")[0]: line.split(",") for line in lines[4:7]}
    assert set(table) == {"control", "rg", "rgtr"}
    hw_col = header.index("hardware_failure_rate")
    assert table["rg"][hw_col] == "0.2"
    oracle_col = header.index("oracle_failure_rate")
    assert float(table["rg"][oracle_col]) == pytest.approx(0.2373046875)


def test_blocksworld_reads_config(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["blocksworld", "--policy", "rg", "-n", "10", "--config", str(missing)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read configuration {missing}: ")
    assert captured.err.count("\n") == 1


def test_blocksworld_unknown_policy_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["blocksworld", "--policy", "greedy"])
    assert exc.value.code == 2


def test_blocksworld_rerun_identical(capsys):
    assert main(["blocksworld", "--policy", "rgtr", "-n", "300", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["blocksworld", "--policy", "rgtr", "-n", "300", "--seed", "5"]) == 0
    assert capsys.readouterr().out == first


def test_blocksworld_huge_board_count(capsys):
    assert main(["blocksworld", "--policy", "all", "-n", "1000000000000000"]) == 0
    metrics = [json.loads(line) for line in capsys.readouterr().out.splitlines()[:3]]
    assert [m["n_blocks"] for m in metrics] == [4 * 10**15] * 3


def test_blocksworld_board_count_beyond_int64_fails_with_one_line(capsys):
    assert main(["blocksworld", "--policy", "all", "-n", "100000000000000000000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: n_boards 100000000000000000000 gives 400000000000000000000 blocks, "
        "not in 1..9223372036854775807\n"
    )


# ---------------------------------------------------------------------------
# start-up


def test_commands_without_detection_never_import_scipy(tmp_path):
    points = [_surface_sample(i) for i in range(8)]
    csv_path = tmp_path / "cal.csv"
    save_correspondences(csv_path, [Correspondence(project(p, CameraIntrinsics()), p) for p in points])
    code = (
        "import sys\n"
        "from fingersense.cli import main\n"
        "codes = [main(['blocksworld', '--policy', 'all', '-n', '100']),\n"
        f"         main(['calibrate', {str(csv_path)!r}])]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)\n"
    )
    src = str(Path(fingersense.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == "[0, 0] []\n"
