"""Every CLI output byte, pinned by sha256 on a small camera, on one and on two CPUs.

A change that alters an output on purpose updates ``RECORDED`` and says so in
``CHANGES.md``; any other change leaves every digest as it is.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from fingersense import workers
from fingersense.cli import main

SMALL_CAMERA = {"width_px": 480, "height_px": 270, "cx_px": 240.0, "cy_px": 135.0, "alpha_px": 75.0}

RECORDED = {
    "dataset 0": "675a056b987f611a3c0c3cd8a5ef535e54139cd5f18a9fb519d751a0cdb8b6d8",
    "localize 0": "e4d36418089eb1887deb191cb6c340f594c350d7fa6b7c5c6ca00e3aa49a5a8b",
    "noise0/*.pgm": "302d382901e500e573b0f912b02cafdd60d4d341ec48b877bad5f6b2174898f7",
    "noise0/manifest.json": "cafa8eeb4292fc96e83283fe6a20a7a968722bb3f394ed7871704df1656e58a6",
    "noise0/errors.csv": "fcb8e9a1b98c86d564a46ba54941b38a7d9ba8a87fcd19450d79e3e5ce5009d0",
    "noise0/by_pose.csv": "b0a669adf0f4b1ff50f80eda82699f8fbf1176dba5287f1a4c54e9c036a7c576",
    "noise0/by_object.csv": "2912e62a14ff62816493496a5416c7540838bedf6c4279db827237308a6132c2",
    "dataset 2": "f110de961fd64bf4b766e1e7868b13319b9a7d34f03af19e8d4eb7d33e470ec7",
    "localize 2": "9a65465410a6b99e94a7e286d74ab14ac94d0699b201c2d79f748dc0e1a88fd4",
    "noise2/*.pgm": "8a5fcd009bbb02149635e51c8fa10ef115adb70e15a607db68a693f241cbe535",
    "noise2/manifest.json": "cafa8eeb4292fc96e83283fe6a20a7a968722bb3f394ed7871704df1656e58a6",
    "noise2/errors.csv": "ca7f3f5dabc7c68afd2a82a0dfb2f15f9db524d5cc6de5454d9c27a73b6e7a08",
    "noise2/by_pose.csv": "ed7596df3db33dc71af087ee78d5b344379f4277d5ec82b1b34508c694489425",
    "noise2/by_object.csv": "037ca6ea011eca4a4b6b76fee5086a11b236186c774ac42f5e3e6f59497bbbb6",
    "dataset 16": "32b3a8f4a7fa824a8ef70f7bf08ae8366ce3a5f4de893b78be76f1c6b886c2df",
    "localize 16": "d38488a295f3f16fbebb8090d67c1b9f9408f1fb4d796a07ac75e814383caa51",
    "noise16/*.pgm": "46eef821ba84d26bb321a29f2cb61f7338a126648d77cc8d052bb49bb698a4ca",
    "noise16/manifest.json": "cafa8eeb4292fc96e83283fe6a20a7a968722bb3f394ed7871704df1656e58a6",
    "noise16/errors.csv": "ccfd9b0cc30e6791d11d888164d86fb4e5c21275b01853c904185a1dc47bb5f7",
    "noise16/by_pose.csv": "c8e55d5dae72774b41e769ded5f61acff930e3c57d6042835ac4cb867e8718e5",
    "noise16/by_object.csv": "40ba9361e843ed70ab1e509fd29ec1213c241b887188984e0c8d018bfe0668b4",
    "localize shuffled": "6bcb322b565d3a21f3694fb78fe7b244a8907153aba5beec30843fc5bd47a600",
    "noise2 shuffled/errors.csv": "10de0552cc8d6fcdeb326c934bca911d083350b175f919e256ff81d6fa1deca4",
    "noise2 shuffled/by_pose.csv": "9d49364fb7b06f1c7ad76db6a27c87df513c80dccad003af90752b47d2c95c50",
    "noise2 shuffled/by_object.csv": "f9f97503a6173ff6f7fe3415e7c4916855cbed4362ac42b3dcd7f3cd32c5294d",
    "render": "34430a7e8cdc24c0ed4c2bbab34d945dfe444b87166ff2c099cc008027c1274b",
    "one/reference.pgm": "c07efa189dff31758e26b55a630acce3c9f2285f3c16c7d1f85f5e4a743d181c",
    "one/contact.pgm": "b98c2e749960242b69e190dca939059f4c3f27e48d0ac87900a8858daee7a69b",
    "blocksworld": "ee5d150d17eb72ce386a13bbec8dedf5c3204cb3475f461cecbf3a7438ae461b",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(capsys) -> dict[str, str]:
    """Run each command in the working directory.

    The sha256 of each command's exit status, stdout and stderr, and of each file it writes.
    """
    digests = {}

    def run(name: str, argv: list[str]) -> None:
        code = main(argv)
        captured = capsys.readouterr()
        digests[name] = _sha(f"exit {code}\n{captured.out}\0{captured.err}".encode())

    Path("config.json").write_text(json.dumps(SMALL_CAMERA))
    config = ["--config", "config.json"]
    for noise in ("0", "2", "16"):
        out = Path(f"noise{noise}")
        run(f"dataset {noise}", ["dataset", *config, "--out-dir", str(out), "--noise", noise, "--seed", "3"])
        run(f"localize {noise}", ["localize", *config, "--manifest", str(out / "manifest.json")])
        # One digest over every frame's name and digest keeps the table short.
        frames = sorted(p.name for p in out.glob("*.pgm"))
        digests[f"{out}/*.pgm"] = _sha("".join(f"{n} {_sha((out / n).read_bytes())}\n" for n in frames).encode())
        for name in ("manifest.json", "errors.csv", "by_pose.csv", "by_object.csv"):
            digests[f"{out}/{name}"] = _sha((out / name).read_bytes())
    # The noise-2 manifest shuffled, with one frame missing (a nan row and a
    # warning) and tube cut to one entry (a group of one).
    entries = json.loads(Path("noise2/manifest.json").read_text())
    random.Random(3).shuffle(entries)
    tube = next(e for e in entries if e["object"] == "tube")
    entries = [e for e in entries if e["object"] != "tube" or e is tube]
    next(e for e in entries if e["object"] != "tube")["frame"] = "missing.pgm"
    Path("noise2/shuffled.json").write_text(json.dumps(entries))
    run("localize shuffled", ["localize", *config, "--manifest", "noise2/shuffled.json"])
    for name in ("errors.csv", "by_pose.csv", "by_object.csv"):
        digests[f"noise2 shuffled/{name}"] = _sha(Path("noise2", name).read_bytes())
    run("render", ["render", *config, "--object", "sphere", "--rotation", "0.5235987755982988", "--out", "one"])
    for name in ("reference.pgm", "contact.pgm"):
        digests[f"one/{name}"] = _sha(Path("one", name).read_bytes())
    run("blocksworld", ["blocksworld", "--policy", "all", "-n", "1000", "--seed", "3"])
    return digests


@pytest.mark.parametrize("cpus", [1, 2])
def test_cli_outputs_match_the_recorded_digests(tmp_path, capsys, monkeypatch, cpus):
    monkeypatch.chdir(tmp_path)  # dataset prints its manifest's path
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    assert _digests(capsys) == RECORDED
