import contextlib
import os
from unittest import mock

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


class Forks(list):
    """The pid of every process forked while counted, as the parent saw it."""

    def reaped(self) -> bool:
        """Whether each of them has been reaped, so ``waitpid`` knows it no longer."""
        for pid in self:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                continue
            return False
        return True


@contextlib.contextmanager
def counted_forks():
    """Count every ``os.fork`` made inside the block into the ``Forks`` it yields."""
    pids = Forks()
    fork = os.fork

    def counted() -> int:
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    with mock.patch.object(os, "fork", counted):
        yield pids


@pytest.fixture
def forks():
    """The pid of every process forked during the test (see ``Forks``)."""
    with counted_forks() as pids:
        yield pids
