"""Tests for the JSON configuration and the command-line interface."""

import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fingersense
from fingersense import imaging, render, workers
from fingersense.calibration import load_correspondences
from fingersense.cli import HARDWARE_ERRORS_BY_POSE, main
from fingersense.config import ConfigError, SessionConfig, load_config
from fingersense.geometry import (
    CameraIntrinsics,
    Region,
    SensorGeometry,
    SurfacePoint,
)
from fingersense.pgm import read_pgm
from fingersense.render import OBJECT_ORDER, generate_protocol_dataset, load_manifest
from oracle import project, save_config, save_correspondences


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
    # Out of scale: overflows in geometry, or a smoothing kernel of 6e8 taps.
    for text in ('{"r_mm": 1e7}', '{"r_mm": 1e-7}', '{"alpha_px": 1e300, "d_mm": 10.0}',
                 '{"alpha_px": 5e-324}', '{"d_mm": 1e200}', '{"sigma_px": 1e8}'):
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"^{path}: (r_mm|d_mm|alpha_px|sigma_px) must be"):
            load_config(path)
    with pytest.raises(ConfigError, match="sigma_px"):
        SessionConfig(sigma_px=math.nan)


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"threshold": NaN}', "threshold"),
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
    assert len(load_manifest(out / "manifest.json")) == 56
    # Byte-identical to the library-generated dataset with the same seed.
    assert _digest_dir(out) == _digest_dir(fixture_dir)


@pytest.mark.parametrize("noise", ["nan", "inf", "-1"])
def test_dataset_rejects_invalid_noise(tmp_path, capsys, noise):
    out = tmp_path / "ds"
    code = main(["dataset", "--out-dir", str(out), "--noise", noise])
    assert code == 1
    assert "noise sigma" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("key, value", [("noise_sigma", 2.0), ("out_dir", "ds")])
def test_config_refuses_the_settings_that_flags_carry(tmp_path, capsys, key, value):
    # --noise and --out-dir set these; the configuration holds only the
    # sensor and the detector.
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({key: value}))
    out = tmp_path / "ds"
    code = main(["dataset", "--config", str(config_path), "--out-dir", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {config_path}: unknown configuration keys: {key!r}\n"
    assert not out.exists()


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


def test_dataset_worker_death_fails_with_one_line(tmp_path, capsys, monkeypatch, forks):
    # A worker process that dies mid-frame (a signal, os._exit, the OOM
    # killer) stops the map: dataset exits 1 with one line, and leaves no
    # frame, manifest, temporary file or worker behind.
    (tmp_path / "small.json").write_text(json.dumps(SMALL_CAMERA))
    out = tmp_path / "ds"
    geometry = SessionConfig().geometry
    doomed = render.default_indenter("slab", render.protocol_poses()[5], geometry)
    shade_imprint = render._shade_imprint

    def dying(ind, g, k, image):
        if ind == doomed:
            os._exit(3)
        shade_imprint(ind, g, k, image)

    monkeypatch.setattr(render, "_shade_imprint", dying)
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    code = main(["dataset", "--config", str(tmp_path / "small.json"), "--out-dir", str(out), "--noise", "2"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a worker process died: ")
    assert captured.err.count("\n") == 1
    assert list(out.iterdir()) == []
    assert len(forks) == 2 and forks.reaped()


@pytest.mark.parametrize(
    "failure, cpus",
    [("geometry", 1), ("geometry", 2), ("render", 1), ("render", 2), ("worker", 2)],
)
def test_a_failed_rerun_leaves_the_dataset_as_it_was(tmp_path, capsys, monkeypatch, forks, failure, cpus):
    # A rerun into a dataset's directory that fails before every frame is
    # made (a geometry that cannot hold the protocol, a render error, a worker
    # that dies) leaves every file there as it was.  On one CPU the frames
    # run inline, with no worker to die.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CAMERA))
    out = tmp_path / "ds"
    argv = ["dataset", "--config", str(config), "--out-dir", str(out), "--noise", "2"]
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    assert main([*argv, "--seed", "1"]) == 0
    del forks[:]
    before = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    doomed = render.default_indenter("slab", render.protocol_poses()[5], SessionConfig().geometry)
    shade_imprint = render._shade_imprint

    def failing(ind, g, k, image):
        if ind == doomed:
            if failure == "worker":
                os._exit(3)
            raise ValueError("cannot render this one")
        shade_imprint(ind, g, k, image)

    if failure == "geometry":
        config.write_text(json.dumps({**SMALL_CAMERA, "d_mm": 12.0}))
        message = "error: translation 15.0 outside [0, 12.0] mm\n"
    else:
        monkeypatch.setattr(render, "_shade_imprint", failing)
        message = "error: cannot render this one\n" if failure == "render" else "error: a worker process died: exit code 3\n"
    capsys.readouterr()
    assert main([*argv, "--seed", "2"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()} == before
    assert len(forks) == (2 if cpus == 2 and failure != "geometry" else 0)
    assert forks.reaped()


def test_a_failed_rename_leaves_no_manifest(tmp_path, capsys):
    # A frame that cannot be renamed into place stops a rerun after the frames
    # before it.  The old manifest is gone by then, so localize refuses the
    # directory instead of reading a mix of two datasets.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CAMERA))
    out = tmp_path / "ds"
    argv = ["dataset", "--config", str(config), "--out-dir", str(out), "--noise", "2"]
    assert main([*argv, "--seed", "1"]) == 0
    blocked = out / "cone_rotation_1.pgm"
    blocked.unlink()
    blocked.mkdir()  # a directory where a frame goes
    capsys.readouterr()
    assert main([*argv, "--seed", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write image {blocked}: ")
    assert captured.err.count("\n") == 1
    assert not (out / "manifest.json").exists()
    assert not list(out.glob(".*.tmp"))
    assert main(["localize", "--config", str(config), "--manifest", str(out / "manifest.json")]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read manifest {out / 'manifest.json'}: ")


# The 480x270 camera of tests/test_cli_digests.py.
WIDE_CAMERA = {"width_px": 480, "height_px": 270, "cx_px": 240.0, "cy_px": 135.0, "alpha_px": 75.0}


def _digest_all(directory) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in directory.iterdir()}


def _writer_argv(command: str, out) -> list[str]:
    if command == "render":
        return ["render", "--object", "cone", "--rotation", "0", "--out", str(out)]
    return ["dataset", "--out-dir", str(out), "--noise", "2"]


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("command", ["render", "dataset"])
def test_a_too_thin_membrane_is_refused_before_anything_is_written(tmp_path, capsys, command, existing):
    # The cone presses 2.0 mm deep, so r_mm 1.5 cannot hold it.  Both
    # commands refuse it where the indenter is made: they create no directory
    # and leave a noisy dataset already there as it was.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(WIDE_CAMERA))
    out = tmp_path / "out"
    if existing:
        assert main(["dataset", "--config", str(config), "--out-dir", str(out), "--noise", "2", "--seed", "1"]) == 0
        before = _digest_all(out)
    config.write_text(json.dumps({**WIDE_CAMERA, "r_mm": 1.5}))
    capsys.readouterr()
    assert main([*_writer_argv(command, out), "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: indentation depth 2.0 must stay below the membrane radius 1.5\n")
    if existing:
        assert _digest_all(out) == before
    else:
        assert not out.exists()


def test_render_into_a_dataset_leaves_no_manifest(tmp_path, capsys):
    # The dataset's frames were not made against the reference that render
    # writes, so render removes the manifest and localize refuses the directory.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(WIDE_CAMERA))
    out = tmp_path / "ds"
    assert main(["dataset", "--config", str(config), "--out-dir", str(out), "--noise", "2", "--seed", "1"]) == 0
    assert main([*_writer_argv("render", out), "--config", str(config)]) == 0
    assert not (out / "manifest.json").exists()
    capsys.readouterr()
    assert main(["localize", "--config", str(config), "--manifest", str(out / "manifest.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read manifest {out / 'manifest.json'}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failed_render_leaves_the_old_pair(tmp_path, capsys, monkeypatch, forks, cpus):
    # A render for another camera whose contact cannot be shaded writes
    # neither image, so the pair already there stays a pair.
    wide, small = tmp_path / "wide.json", tmp_path / "small.json"
    wide.write_text(json.dumps(WIDE_CAMERA))
    small.write_text(json.dumps(SMALL_CAMERA))
    out = tmp_path / "pair"
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    assert main([*_writer_argv("render", out), "--config", str(wide)]) == 0
    before = _digest_all(out)
    del forks[:]

    def failing(ind, g, k, image):
        raise ValueError("cannot render this one")

    monkeypatch.setattr(render, "_shade_imprint", failing)
    capsys.readouterr()
    assert main([*_writer_argv("render", out), "--config", str(small)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: cannot render this one\n")
    assert sorted(before) == ["contact.pgm", "reference.pgm"]
    assert _digest_all(out) == before  # no temporary file either
    assert len(forks) == (2 if cpus == 2 else 0) and forks.reaped()


@pytest.mark.parametrize("command", ["render", "dataset"])
def test_an_uncreatable_directory_fails_with_one_line(tmp_path, capsys, command):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    assert main(_writer_argv(command, out)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot create directory {out}: ")
    assert captured.err.count("\n") == 1


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
        # An empty path names the manifest's directory.  A truth beyond any
        # membrane's reach makes the mean error infinite, which JSON cannot
        # hold.
        (json.dumps([{**GOOD_ENTRY, "frame": ""}]), "entry 0: frame must name a file"),
        (json.dumps([GOOD_ENTRY, {**GOOD_ENTRY, "reference": ""}]), "entry 1: reference must name a file"),
        (json.dumps([{**GOOD_ENTRY, "truth_mm": [0.0, 0.0, 1e308]}]), "entry 0: truth_mm items must lie in"),
        (json.dumps([{**GOOD_ENTRY, "truth_mm": [-2.000001e6, 0.0, 40.0]}]), "entry 0: truth_mm items must lie in"),
        # A path whose last part is empty or "." names a directory too.
        (json.dumps([{**GOOD_ENTRY, "frame": "."}]), "entry 0: frame must name a file, got '.'\n"),
        (json.dumps([{**GOOD_ENTRY, "frame": "a/."}]), "entry 0: frame must name a file, got 'a/.'\n"),
        (json.dumps([{**GOOD_ENTRY, "reference": "a/"}]), "entry 0: reference must name a file, got 'a/'\n"),
        (json.dumps([GOOD_ENTRY, {**GOOD_ENTRY, "frame": "./"}]), "entry 1: frame must name a file, got './'\n"),
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


def test_localize_group_tables_follow_errors_csv(tmp_path, capsys, protocol_dataset):
    # A shuffled manifest with one frame missing (a nan row) and tube cut to
    # one entry (a group of one).
    out_dir, _ = protocol_dataset
    payload = json.loads((out_dir / "manifest.json").read_text())
    random.Random(5).shuffle(payload)
    tube = next(e for e in payload if e["object"] == "tube")
    payload = [e for e in payload if e["object"] != "tube" or e is tube]
    next(e for e in payload if e["object"] != "tube")["frame"] = "missing.pgm"
    for image in out_dir.glob("*.pgm"):
        (tmp_path / image.name).symlink_to(image)
    (tmp_path / "manifest.json").write_text(json.dumps(payload))
    assert main(["localize", "--manifest", str(tmp_path / "manifest.json")]) == 0
    assert "missing.pgm" in capsys.readouterr().err

    def table(name: str) -> list[dict]:
        with (tmp_path / name).open(newline="") as fh:
            return list(csv.DictReader(fh))

    rows = table("errors.csv")
    assert [row["object"] for row in rows] == [e["object"] for e in payload]
    detected = [row for row in rows if row["error_mm"] != "nan"]
    assert len(detected) == len(rows) - 1
    by_object, by_pose = {}, {}  # each group's errors in manifest order
    for row in detected:
        error = float(row["error_mm"])
        by_object.setdefault(row["object"], []).append(error)
        by_pose.setdefault((row["pose_kind"] == "translation", float(row["pose_value"])), []).append(error)

    def check(group_rows: list[dict], groups: list[list[float]]) -> None:
        assert [int(row["count"]) for row in group_rows] == [len(errors) for errors in groups]
        for row, errors in zip(group_rows, groups):
            assert float(row["mean_mm"]) == np.mean(errors)
            assert float(row["std_mm"]) == (np.std(errors, ddof=1) if len(errors) > 1 else 0.0)

    objects = table("by_object.csv")
    assert [row["object"] for row in objects] == list(by_object)  # by first appearance
    assert by_object["tube"] == [float(next(row for row in rows if row["object"] == "tube")["error_mm"])]
    check(objects, list(by_object.values()))
    poses = table("by_pose.csv")
    # Rotations, then translations, each by value; every protocol pose is a hardware row.
    assert [row["pose"] for row in poses] == list(HARDWARE_ERRORS_BY_POSE)
    check(poses, [by_pose[key] for key in sorted(by_pose)])


def test_localize_labels_minus_zero_as_zero(tmp_path, capsys, protocol_dataset):
    # The label once came from the group's last record: a -0.0 on slab, the
    # last object, gave "translation -0" with blank hardware columns.
    out_dir, _ = protocol_dataset
    payload = json.loads((out_dir / "manifest.json").read_text())
    slab = next(e for e in payload if e["object"] == "slab" and e["pose_kind"] == "translation")
    assert slab["pose_value"] == 0.0
    slab["pose_value"] = -0.0
    for image in out_dir.glob("*.pgm"):
        (tmp_path / image.name).symlink_to(image)
    (tmp_path / "manifest.json").write_text(json.dumps(payload))
    assert main(["localize", "--manifest", str(tmp_path / "manifest.json")]) == 0
    capsys.readouterr()
    assert "slab,translation,-0.0," in (tmp_path / "errors.csv").read_text()  # the manifest's value
    by_pose = (tmp_path / "by_pose.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in by_pose[1:]] == list(HARDWARE_ERRORS_BY_POSE)
    assert next(line for line in by_pose if line.startswith("translation 0,")).endswith(",7,7.87,5.08")


def test_localize_refuses_frames_of_another_camera(tmp_path, capsys, small_dataset):
    # The 64x48 frames back-projected with a 128x96 camera once gave a mean
    # error and exit status 0, without a warning.
    for image in small_dataset.parent.glob("*.pgm"):
        (tmp_path / image.name).symlink_to(image)
    (tmp_path / "manifest.json").write_text(small_dataset.read_text())
    (tmp_path / "config.json").write_text(json.dumps(
        {"width_px": 128, "height_px": 96, "alpha_px": 40.0, "cx_px": 64.0, "cy_px": 48.0}
    ))
    code = main(["localize", "--config", str(tmp_path / "config.json"),
                 "--manifest", str(tmp_path / "manifest.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    *warned, last = captured.err.splitlines()
    assert last == "error: no entry could be localized"
    assert len(warned) == 56
    assert all(w.endswith(": dimension mismatch: frame 64x48, camera 128x96") for w in warned)
    rows = (tmp_path / "errors.csv").read_text().splitlines()[1:]
    assert len(rows) == 56 and all(row.endswith(",nan") for row in rows)


def test_localize_keeps_one_reference_for_any_number_of_spellings(tmp_path, monkeypatch, forks,
                                                                   protocol_dataset):
    # Each spelling of the reference's path once cached its own copy: 20
    # spellings peaked at 22 frames.  The peak is now the reference, the
    # array every image is read into, one frame and detection's temporaries,
    # about 3.4 frames, whatever the spellings.
    out_dir, _ = protocol_dataset
    payload = json.loads((out_dir / "manifest.json").read_text())[:20]
    for spelling, entry in enumerate(payload, start=1):
        entry["reference"] = "./" * spelling + "reference.pgm"
    for image in out_dir.glob("*.pgm"):
        (tmp_path / image.name).symlink_to(image)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(payload))
    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)  # inline: one frame in flight
    tracemalloc.start()
    try:
        with redirect_stdout(io.StringIO()):
            code = main(["localize", "--manifest", str(manifest)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    frame_bytes = CameraIntrinsics().width * CameraIntrinsics().height
    assert peak < 3.5 * frame_bytes, peak / frame_bytes
    assert forks == []  # the peak is this process's own: no worker ran a frame


SMALL_CAMERA = {"width_px": 64, "height_px": 48, "alpha_px": 20.0, "cx_px": 32.0, "cy_px": 24.0}


# A dataset image spelled with a prefix that stays in the manifest's directory
# ("", "./", "././"), or leaves it: absolute, or through "..".  The test fills
# in {dataset}, the dataset's absolute path, and {work}, the manifest's directory.
PATH_PREFIXES = ("", "./", "././", "x/../", "/", "//", "{dataset}/", "../", "./../{work}/")
spelled_images = st.tuples(
    st.sampled_from(PATH_PREFIXES),
    st.sampled_from(["reference.pgm", "cone_rotation_0.pgm", "slab_translation_3.pgm"]),
)
manifest_paths = st.none() | st.text() | spelled_images


def _refused(path: str) -> bool:
    return path == "" or path.startswith("/") or ".." in path.split("/")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.text(), manifest_paths, manifest_paths), min_size=1, max_size=4))
@example([("cone,evil\nrow", None, None)])
@example([('say "cone"', None, None)])
@example([("cone", "a\rb.pgm", None), ("slab", None, None)])
@example([("cone", None, "ref\n.pgm")])
@example([("cône\u2028,", None, None)])
@example([("cone\x00\u2028\x1c\x85", "f\u2028.pgm", None)])
@example([("cone", ("{dataset}/", "cone_rotation_0.pgm"), None)])
@example([("cone", None, None), ("slab", None, ("./../{work}/", "reference.pgm"))])
@example([("cone", ("./", "slab_translation_3.pgm"), ("././", "reference.pgm")),
          ("slab", ("", "slab_translation_3.pgm"), ("./", "reference.pgm"))])
def test_manifest_labels_never_split_a_csv_row(tmp_path_factory, small_dataset, labels):
    """Every manifest is refused in one line or gives one errors.csv row per entry.

    ``labels`` holds, per entry, an object label and, where not None, a frame
    and a reference path in place of the dataset's: free text, or a
    (prefix, image name) pair from ``PATH_PREFIXES``.
    """
    work = tmp_path_factory.mktemp("labels")
    (work / "config.json").write_text(json.dumps(SMALL_CAMERA))
    dataset = small_dataset.parent
    for image in dataset.glob("*.pgm"):
        (work / image.name).symlink_to(image)

    def path(spelling, default: str) -> str:
        if isinstance(spelling, tuple):
            prefix, name = spelling
            return prefix.format(dataset=dataset, work=work.name) + name
        return default if spelling is None else spelling

    payload = json.loads(small_dataset.read_text())[: len(labels)]
    for entry, (label, frame, reference) in zip(payload, labels):
        entry["object"] = label
        entry["frame"] = path(frame, entry["frame"])
        entry["reference"] = path(reference, entry["reference"])
    manifest = work / "manifest.json"
    manifest.write_text(json.dumps(payload))
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(["localize", "--config", str(work / "config.json"), "--manifest", str(manifest)])
    err = stderr.getvalue()

    def breaks(value: str, chars: str) -> bool:
        return any(char in value for char in chars)

    if any(breaks(e["object"], ',"\r\n') or breaks(e["frame"] + e["reference"], "\r\n")
           or _refused(e["frame"]) or _refused(e["reference"]) for e in payload):
        assert code == 1
        assert err.startswith(f"error: {manifest}: entry ") and err.count("\n") == 1, err
        assert not (work / "errors.csv").exists()
        return
    with (work / "errors.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == len(payload) + 1
    assert all(len(row) == len(rows[0]) for row in rows), rows
    assert [row[0] for row in rows[1:]] == [e["object"] for e in payload]
    failed = sum(row[-1] == "nan" for row in rows[1:])
    # One warning line per failed entry, and one error line when all failed.
    assert code == (1 if failed == len(payload) else 0)
    assert err.count("\n") == failed + code, err


BROKEN_CAMERA = CameraIntrinsics(alpha=30.0, cx=96.0, cy=54.0, width=192, height=108)
BROKEN_ENTRIES = {5: ("frame", "missing.pgm"), 20: ("reference", "garbage.pgm"),
                  21: ("reference", "garbage.pgm")}


@pytest.fixture(scope="module")
def broken_dataset(tmp_path_factory):
    """A 192x108 protocol dataset whose manifest names a missing frame and an unreadable reference.

    At this scale about half the imprints are too small to detect, so most
    warnings say that no contact was detected.
    """
    out_dir = tmp_path_factory.mktemp("broken")
    generate_protocol_dataset(out_dir, SensorGeometry(), BROKEN_CAMERA, noise_sigma=4.0, seed=1)
    payload = json.loads((out_dir / "manifest.json").read_text())
    for index, (key, name) in BROKEN_ENTRIES.items():
        payload[index][key] = name
    (out_dir / "manifest.json").write_text(json.dumps(payload))
    (out_dir / "garbage.pgm").write_bytes(b"P5\n192 108\n255\n" + bytes(100))  # truncated
    k = BROKEN_CAMERA
    (out_dir / "config.json").write_text(json.dumps({
        "width_px": k.width, "height_px": k.height, "alpha_px": k.alpha,
        "cx_px": k.cx, "cy_px": k.cy, "min_area_px": 2,
    }))
    return out_dir


def _fresh_copy(dataset: Path, work: Path) -> list[str]:
    """Link the dataset into ``work``, without outputs; return the ``localize`` argv."""
    work.mkdir()
    for path in dataset.iterdir():
        if path.suffix in (".pgm", ".json"):
            (work / path.name).symlink_to(path)
    return ["localize", "--config", str(work / "config.json"),
            "--manifest", str(work / "manifest.json")]


@pytest.mark.parametrize(
    "n_cpus, switch_s", [(2, None), (3, None), (3, 1e-6)], ids=["2cpus", "3cpus", "3cpus-switch1us"]
)
def test_localize_output_does_not_depend_on_threads(tmp_path, capsys, monkeypatch, forks,
                                                    broken_dataset, n_cpus, switch_s):
    # One CPU runs every frame inline; more fork one worker process per CPU.
    # The switch interval would perturb any thread of the calling process.
    work = tmp_path / "work"  # one directory, since messages hold paths
    argv = _fresh_copy(broken_dataset, work)
    outputs = [work / name for name in ("errors.csv", "by_pose.csv", "by_object.csv")]

    def run(cpus: int, interval: float | None) -> tuple:
        for path in outputs:
            path.unlink(missing_ok=True)
        monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
        saved = sys.getswitchinterval()
        try:
            if interval is not None:
                sys.setswitchinterval(interval)
            code = main(argv)
        finally:
            sys.setswitchinterval(saved)
        captured = capsys.readouterr()
        return code, captured.out, captured.err, [path.read_bytes() for path in outputs]

    serial = run(1, None)
    assert forks == []
    assert run(n_cpus, switch_s) == serial
    assert len(forks) == n_cpus
    assert forks.reaped()
    code, out, err, (errors, _, _) = serial
    assert code == 0 and json.loads(out)["n_entries"] == 56
    # One warning per nan row, in manifest order, each naming its frame.
    payload = json.loads((broken_dataset / "manifest.json").read_text())
    rows = errors.decode().splitlines()[1:]
    failed = [entry["frame"] for entry, row in zip(payload, rows) if row.endswith(",nan")]
    lines = err.splitlines()
    assert [line.split(": ")[1] for line in lines] == failed
    assert len(failed) > len(BROKEN_ENTRIES)
    for index, (key, name) in BROKEN_ENTRIES.items():
        line = next(line for line in lines if line.startswith(f"warning: {payload[index]['frame']}: "))
        assert name in line, line
        assert "no contact" not in line


def test_localize_worker_exception_escapes_main(tmp_path, monkeypatch, forks, broken_dataset):
    # main catches only ValueError and OSError: any other error in a worker
    # process leaves main with its type and message, once every worker has
    # ended, and nothing is written.
    argv = _fresh_copy(broken_dataset, tmp_path / "work")
    calls = []
    localize_frame = imaging.localize_frame  # cmd_localize imports it when it runs

    def failing(reference, frame, config):
        calls.append(None)
        if len(calls) == 7:
            raise RuntimeError("worker broke")
        return localize_frame(reference, frame, config)

    monkeypatch.setattr(imaging, "localize_frame", failing)
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    threads = threading.active_count()
    raised = []

    def run() -> None:
        try:
            main(argv)
        except BaseException as exc:  # kept for the asserts below
            raised.append(exc)

    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        runner = threading.Thread(target=run)
        runner.start()
        runner.join(60)
    assert not runner.is_alive()
    assert len(raised) == 1 and isinstance(raised[0], RuntimeError), raised
    assert str(raised[0]) == "worker broke"
    assert not (tmp_path / "work" / "errors.csv").exists()
    assert threading.active_count() == threads
    assert len(forks) == 2 and forks.reaped()


def test_localize_worker_death_fails_with_one_line(tmp_path, capsys, monkeypatch, forks,
                                                   broken_dataset):
    # A worker process that dies mid-frame (a signal, os._exit, the OOM
    # killer) stops the map: localize exits 1 with one line, writes no
    # errors.csv and leaves no worker behind.
    argv = _fresh_copy(broken_dataset, tmp_path / "work")
    payload = json.loads((broken_dataset / "manifest.json").read_text())
    doomed = read_pgm(broken_dataset / payload[9]["frame"])
    localize_frame = imaging.localize_frame  # cmd_localize imports it when it runs

    def dying(reference, frame, config):
        if np.array_equal(frame.pixels, doomed):
            os._exit(3)
        return localize_frame(reference, frame, config)

    monkeypatch.setattr(imaging, "localize_frame", dying)
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a worker process died: ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "work" / "errors.csv").exists()
    assert len(forks) == 2 and forks.reaped()


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
    assert not (tmp_path / "ds").exists()  # refused before anything is made


def test_localize_out_of_scale_radius_fails_with_one_line(tmp_path, capsys, protocol_dataset):
    # r = 1e200 mm once squared its way to an OverflowError traceback in
    # localization_error; such a radius is now refused with the config.
    config = tmp_path / "config.json"
    config.write_text('{"r_mm": 1e200}')
    out_dir, _ = protocol_dataset
    manifest = out_dir / "manifest.json"
    assert main(["localize", "--config", str(config), "--manifest", str(manifest)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {config}: r_mm must be in [1e-06, 1e+06], got 1e+200\n"


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


def _projected(points: list[SurfacePoint]) -> np.ndarray:
    # (u, v, x, y, z) rows imaged by the default camera.
    pixels = [project(p, CameraIntrinsics()) for p in points]
    return np.array([(px.u, px.v, p.x, p.y, p.z) for px, p in zip(pixels, points)])


def test_calibrate_recovers_alpha(tmp_path, capsys):
    points = [_surface_sample(i) for i in range(8)]
    csv_path = tmp_path / "cal.csv"
    save_correspondences(csv_path, _projected(points))
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
    csv_path = tmp_path / "cal.csv"
    save_correspondences(csv_path, _projected(points))
    code = main(["calibrate", str(csv_path)])
    assert code == 1
    assert "correspondence" in capsys.readouterr().err.lower()


def test_calibrate_on_axis_only_fails(tmp_path, capsys):
    csv_path = tmp_path / "cal.csv"
    csv_path.write_text("u,v,x,y,z\n960.0,540.0,0.0,0.0,40.0\n")
    code = main(["calibrate", str(csv_path)])
    assert code == 1
    assert "axis" in capsys.readouterr().err


def test_calibrate_apex_first_row_uses_next_row_for_single_point(tmp_path, capsys):
    # The apex row gives no single-point alpha; the next row off the axis does.
    points = [_surface_sample(i) for i in range(8)]
    csv_path = tmp_path / "cal.csv"
    save_correspondences(csv_path, _projected(points))
    lines = csv_path.read_text().splitlines(keepends=True)
    csv_path.write_text(lines[0] + "960,540,0,0,40\n" + "".join(lines[1:]))
    code = main(["calibrate", str(csv_path)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["alpha_single_point_px"] == pytest.approx(300.0, rel=1e-6)
    assert report["alpha_px"] == pytest.approx(300.0, rel=1e-6)
    assert report["n_correspondences"] == 9


def test_calibrate_invalid_fitted_camera_fails_with_one_line(tmp_path, capsys):
    # Side points seen by a camera whose principal point sits a hair left of
    # the frame: the fit lands there too and is refused, naming the fit.
    points = [
        SurfacePoint(10.0 * math.cos(phi), 10.0 * math.sin(phi), z, Region.SIDE)
        for phi, z in ((0.3, 5.0), (1.7, 12.0), (4.0, 25.0))
    ]
    rows = [(p.x / p.z - 1e-9, p.y / p.z, p.x, p.y, p.z) for p in points]
    csv_path = tmp_path / "cal.csv"
    save_correspondences(csv_path, rows)
    assert main(["calibrate", str(csv_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: fitted camera is invalid: principal point (")
    assert captured.err.count("\n") == 1


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


def test_blocksworld_takes_no_config(tmp_path, capsys):
    # No configuration key affects the simulation, so the flag is a usage error.
    with pytest.raises(SystemExit) as exc:
        main(["blocksworld", "--policy", "rg", "-n", "10", "--config", str(tmp_path / "c.json")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


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
# every command: random configs and argv


@pytest.fixture(scope="session")
def small_dataset(tmp_path_factory):
    """A 64x48 protocol dataset for ``localize`` under random configs."""
    out_dir = tmp_path_factory.mktemp("small")
    intrinsics = CameraIntrinsics(alpha=20.0, cx=32.0, cy=24.0, width=64, height=48)
    generate_protocol_dataset(out_dir, SensorGeometry(), intrinsics, noise_sigma=2.0, seed=0)
    return out_dir / "manifest.json"


extreme_floats = st.sampled_from(
    [0.0, 5e-324, 1e-300, 1e-3, 0.5, 1.0, 2.0, 10.0, 25.0, 30.0, 300.0, 1e6, 1e100, 1e200, 1e300]
) | st.floats()


@st.composite
def small_frame_configs(draw) -> dict:
    """Any value for any key, on a frame of at most 64x48 pixels.

    Half the frames match ``small_dataset``, so ``localize`` gets to detection.
    """
    width, height = draw(st.just((64, 48)) | st.tuples(st.integers(1, 64), st.integers(1, 48)))
    config = {
        "width_px": width,
        "height_px": height,
        "cx_px": draw(st.floats(0.0, 1.0)) * width,
        "cy_px": draw(st.floats(0.0, 1.0)) * height,
    }
    for key in ("r_mm", "d_mm", "alpha_px", "cx_px", "cy_px", "sigma_px", "threshold"):
        if draw(st.booleans()):
            config[key] = draw(extreme_floats)
    if draw(st.booleans()):
        config["min_area_px"] = draw(st.integers(-1, 30) | st.integers())
    return config


def _membrane_csv(config: dict) -> str:
    """Eight side and tip points of the config's membrane, projected with its camera."""
    r, d, alpha = config.get("r_mm", 10.0), config.get("d_mm", 30.0), config.get("alpha_px", 300.0)
    cx, cy = config.get("cx_px", 960.0), config.get("cy_px", 540.0)
    i = np.arange(8.0)
    with np.errstate(all="ignore"):
        side = np.stack([r * np.cos(i), r * np.sin(i), d * (0.1 + 0.1 * i)], axis=1)
        tip = np.stack([r * np.sin(0.1 * i) * np.cos(i), r * np.sin(0.1 * i) * np.sin(i),
                        d + r * np.cos(0.1 * i)], axis=1)
        points = np.where((i % 2 == 0)[:, None], side, tip)
        u = alpha * points[:, 0] / points[:, 2] + cx
        v = alpha * points[:, 1] / points[:, 2] + cy
    rows = np.column_stack([u, v, points])
    return "u,v,x,y,z\n" + "".join(",".join(map(repr, row.tolist())) + "\n" for row in rows)


cli_floats = extreme_floats.map(repr)  # argparse reads nan, inf and exponents
cli_ints = (st.integers(-1, 1000) | st.integers(-1, 2**70)).map(str)
command_args = st.one_of(
    st.tuples(st.just("render"), st.sampled_from(OBJECT_ORDER),
              st.sampled_from(["--rotation", "--translation"]), cli_floats),
    st.tuples(st.just("dataset"), cli_floats, cli_ints),
    st.tuples(st.just("localize")),
    st.tuples(st.just("calibrate")),
    st.tuples(st.just("blocksworld"), st.sampled_from(["control", "rg", "rgtr", "all"]),
              cli_ints, cli_ints),
)


@settings(max_examples=150, deadline=None)
@given(small_frame_configs(), command_args)
@example({"r_mm": 1e100}, ("render", "cone", "--rotation", "0"))
@example({"r_mm": 1e200}, ("render", "cone", "--rotation", "0"))
@example({"alpha_px": 1e300, "d_mm": 10.0}, ("render", "cone", "--rotation", "0"))
def test_every_command_exits_cleanly_on_random_input(tmp_path_factory, small_dataset, config,
                                                     command):
    work = tmp_path_factory.mktemp("cli")
    (work / "config.json").write_text(json.dumps(config))
    name, *rest = command
    argv = {  # "--flag=value", so that argparse reads "-1e+16" as a value
        "render": lambda obj, flag, value: [f"--object={obj}", f"{flag}={value}", f"--out={work}"],
        "dataset": lambda noise, seed: [f"--out-dir={work}", f"--noise={noise}", f"--seed={seed}"],
        "localize": lambda: [f"--manifest={small_dataset}"],
        "calibrate": lambda: [str(work / "cal.csv")],
        "blocksworld": lambda policy, n, seed: [f"--policy={policy}", f"-n={n}", f"--seed={seed}"],
    }[name](*rest)
    (work / "cal.csv").write_text(_membrane_csv(config))
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(stdout), redirect_stderr(stderr):
        warnings.simplefilter("error")  # any warning escapes main as an exception
        config = [] if name == "blocksworld" else ["--config", str(work / "config.json")]
        code = main([name, *config, *argv])
    lines = stderr.getvalue().splitlines()
    assert all(line.startswith(("error: ", "warning: ")) for line in lines), lines
    errors = sum(line.startswith("error: ") for line in lines)
    assert (code, errors) in ((0, 0), (1, 1)), (code, lines)


# ---------------------------------------------------------------------------
# start-up


# What importing the CLI loads: the two NumPy-only layers are imported with it,
# so the per-layer trace finds every layer module (see the next test).
_CLI_MODULES = {"cli", "config", "geometry", "calibration", "blocksworld"}
# Per command, the fingersense modules it loads besides those, and which of
# five other packages that only some commands need it loads.  None loads
# SciPy: detection smooths and labels in NumPy (see the next test too).
# dataset and localize fork their workers with os.fork, on any number of
# CPUs, so neither loads multiprocessing or concurrent.futures.
_DETECTION = {"render", "imaging", "pgm", "workers"}
COMMAND_MODULES = {
    "import": (set(), set()),
    "blocksworld": (set(), {"fractions"}),
    "calibrate": (set(), {"csv"}),
    "render": (_DETECTION, set()),
    "dataset": (_DETECTION, set()),
    "localize": (_DETECTION, set()),
}


def test_each_command_loads_only_its_own_modules(tmp_path):
    points = [_surface_sample(i) for i in range(8)]
    save_correspondences(tmp_path / "cal.csv", _projected(points))
    (tmp_path / "small.json").write_text(json.dumps(SMALL_CAMERA))
    small = ["--config", str(tmp_path / "small.json")]
    argvs = {  # in order: localize reads the dataset
        "import": None,
        "blocksworld": ["blocksworld", "--policy", "all", "-n", "100"],
        "calibrate": ["calibrate", str(tmp_path / "cal.csv")],
        "render": ["render", "--object", "cone", "--rotation", "0", "--out", str(tmp_path), *small],
        "dataset": ["dataset", "--noise", "2", "--out-dir", str(tmp_path / "ds"), *small],
        "localize": ["localize", "--manifest", str(tmp_path / "ds" / "manifest.json"), *small],
    }
    loaded = {command: _modules_loaded_by(argv) for command, argv in argvs.items()}
    assert loaded == COMMAND_MODULES


def test_noisy_localize_loads_no_scipy(tmp_path):
    # Noise 16 puts seeds all over every frame, so each detection crop is the
    # whole 640x480 frame (307k pixels), far larger than a clean imprint's box.
    camera = {"width_px": 640, "height_px": 480, "alpha_px": 200.0, "cx_px": 320.0, "cy_px": 240.0}
    (tmp_path / "vga.json").write_text(json.dumps(camera))
    vga = ["--config", str(tmp_path / "vga.json")]
    with redirect_stdout(io.StringIO()):
        assert main(["dataset", "--noise", "16", "--out-dir", str(tmp_path / "ds"), *vga]) == 0
    argv = ["localize", "--manifest", str(tmp_path / "ds" / "manifest.json"), *vga]
    assert _modules_loaded_by(argv) == COMMAND_MODULES["localize"]


def test_cli_import_loads_no_multiprocessing(tmp_path):
    # The import that every command pays for loads no multiprocessing, and
    # a dataset on one CPU forks nothing and loads none either.
    done = _run_python("-c", "import sys, fingersense.cli\nprint('multiprocessing' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
    (tmp_path / "small.json").write_text(json.dumps(SMALL_CAMERA))
    argv = ["dataset", "--noise", "2", "--out-dir", str(tmp_path / "ds"), "--config", str(tmp_path / "small.json")]
    done = _run_python(
        "-c",
        "import os, sys\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "def fork():\n"
        "    raise AssertionError('forked')\n"
        "os.fork = fork\n"
        "from fingersense.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, 'multiprocessing' in sys.modules, file=sys.stderr)\n",
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == "0 False\n"
    assert len(load_manifest(tmp_path / "ds" / "manifest.json")) == 56


def _modules_loaded_by(argv: list[str] | None) -> tuple[set[str], set[str]]:
    """The fingersense modules beyond the CLI's, and the watched packages, that running ``argv`` loads.

    ``argv`` runs through ``main`` in a fresh interpreter; None only imports the CLI.
    """
    run = "code = 0" if argv is None else f"code = main({argv!r})"
    done = _run_python(
        "-c",
        "import sys\n"
        "from fingersense.cli import main\n"
        f"{run}\n"
        "names = [m for m in sys.modules if m.startswith('fingersense.')]\n"
        "names += [m for m in ('csv', 'concurrent.futures', 'fractions', 'multiprocessing') if m in sys.modules]\n"
        "names += [m for m in sys.modules if m.partition('.')[0] == 'scipy']\n"
        "print(code, *sorted(names), file=sys.stderr)\n"
    )
    assert done.returncode == 0, done.stderr
    code, *names = done.stderr.splitlines()[-1].split()  # after any localize warnings
    assert code == "0", done.stderr
    ours = {name.removeprefix("fingersense.") for name in names if name.startswith("fingersense.")}
    others = {name for name in names if not name.startswith("fingersense.")}
    assert _CLI_MODULES <= ours
    return ours - _CLI_MODULES, others


@pytest.mark.parametrize(
    "argv, layer",
    [
        (["blocksworld", "--policy", "all", "-n", "100"], "blocksworld"),
        (["calibrate", "cal.csv"], "calibration"),
    ],
)
def test_traced_benchmark_runs_the_commands_that_load_no_imaging(tmp_path, argv, layer):
    # perfbench/traced.py wraps every layer module it finds in sys.modules
    # after importing fingersense.cli, imaging and render; a layer missing
    # there stops the traced command with a KeyError.
    save_correspondences(tmp_path / "cal.csv", _projected([_surface_sample(i) for i in range(8)]))
    traced = Path(fingersense.__file__).parents[2] / "perfbench" / "traced.py"
    done = _run_python(str(traced), str(tmp_path / "spans.json"), *argv, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    assert layer in {span[0].partition(".")[0] for span in spans}


def _run_python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """Run Python on ``args`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(fingersense.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
