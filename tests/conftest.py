import os

import pytest

from fingersense.geometry import CameraIntrinsics, SensorGeometry
from fingersense.render import generate_protocol_dataset


@pytest.fixture
def geometry() -> SensorGeometry:
    """Default membrane: r = 10 mm, d = 30 mm."""
    return SensorGeometry()


@pytest.fixture
def intrinsics() -> CameraIntrinsics:
    """Default camera: alpha = 300 px, principal point at the frame centre."""
    return CameraIntrinsics()


@pytest.fixture(scope="session")
def protocol_dataset(tmp_path_factory):
    """One noise-free protocol dataset, shared across test modules."""
    out_dir = tmp_path_factory.mktemp("protocol")
    entries = generate_protocol_dataset(
        out_dir, SensorGeometry(), CameraIntrinsics(), noise_sigma=0.0, seed=0
    )
    return out_dir, entries


@pytest.fixture
def forks(monkeypatch) -> list[int]:
    """The pid of every process forked during the test, as the parent saw it."""
    pids = []
    fork = os.fork

    def counted() -> int:
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids
