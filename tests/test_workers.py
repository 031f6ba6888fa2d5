"""Tests for the fork-and-pipe worker map."""

import os
import signal
import threading
import time
import traceback
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fingersense import imaging, workers
from fingersense.cli import main
from fingersense.geometry import CameraIntrinsics, SensorGeometry
from fingersense.render import generate_protocol_dataset
from fingersense.workers import map_forked

from conftest import counted_forks


def _job(item: int) -> tuple:
    return item, item * item, str(item), os.getpid()


@settings(max_examples=30, deadline=None)
@given(items=st.lists(st.integers(-1000, 1000), max_size=9), cpus=st.integers(1, 4))
def test_map_forked_matches_the_inline_map(items, cpus):
    # Each worker runs its own items, so only the pids may differ from the
    # inline map's; every item runs once, on worker (index mod workers).
    threads = threading.active_count()
    with mock.patch.object(workers, "usable_cpus", lambda: cpus), counted_forks() as forks:
        outcomes = map_forked(_job, items)
    assert [outcome[:3] for outcome in outcomes] == [_job(item)[:3] for item in items]
    n = min(cpus, len(items))
    assert len(forks) == (n if n > 1 else 0)
    assert [outcome[3] for outcome in outcomes] == [
        (forks[index % n] if forks else os.getpid()) for index in range(len(items))
    ]
    assert forks.reaped()
    assert threading.active_count() == threads


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_job_error_is_that_items_outcome(monkeypatch, forks, cpus):
    def job(item: int) -> int:
        if item % 3 == 1:
            raise RuntimeError(f"item {item} broke")
        return item

    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    outcomes = map_forked(job, range(6))
    assert [type(o) for o in outcomes] == [int, RuntimeError, int, int, RuntimeError, int]
    assert [str(o) for o in outcomes] == ["0", "item 1 broke", "2", "3", "item 4 broke", "5"]
    assert len(forks) == (2 if cpus == 2 else 0) and forks.reaped()


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_job_error_keeps_its_traceback(monkeypatch, forks, cpus):
    # From a worker the traceback comes as the text of the error's cause;
    # inline the error keeps its own.  The message and notes stay as raised.
    def broken_job(item: int) -> int:
        exc = RuntimeError(f"item {item} broke")
        if hasattr(exc, "add_note"):  # Python 3.11+
            exc.add_note(f"note {item}")
        raise exc

    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    outcomes = map_forked(broken_job, range(2))
    for item, exc in enumerate(outcomes):
        assert type(exc) is RuntimeError and str(exc) == f"item {item} broke"
        assert getattr(exc, "__notes__", [f"note {item}"]) == [f"note {item}"]
        if cpus == 2:
            assert type(exc.__cause__) is workers.WorkerTraceback
            text = str(exc.__cause__)
            assert ", in broken_job\n" in text and f"\nRuntimeError: item {item} broke\n" in text
            assert exc.__traceback__ is None
        else:
            assert exc.__cause__ is None
            assert traceback.extract_tb(exc.__traceback__)[-1].name == "broken_job"
    assert len(forks) == (2 if cpus == 2 else 0) and forks.reaped()


def test_a_worker_error_main_does_not_catch_keeps_its_traceback(tmp_path, monkeypatch):
    # localize returns a job's ValueError or OSError as text; any other error
    # ends the command and leaves main as raised, with the worker's traceback.
    intrinsics = CameraIntrinsics(alpha=20.0, cx=32.0, cy=24.0, width=64, height=48)
    generate_protocol_dataset(tmp_path, SensorGeometry(), intrinsics, noise_sigma=2.0, seed=0)
    (tmp_path / "small.json").write_text(
        '{"width_px": 64, "height_px": 48, "alpha_px": 20.0, "cx_px": 32.0, "cy_px": 24.0}'
    )

    def failing_localize_frame(reference, frame, config):
        raise RuntimeError("detector bug")

    monkeypatch.setattr(imaging, "localize_frame", failing_localize_frame)
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    argv = ["localize", "--config", str(tmp_path / "small.json"), "--manifest", str(tmp_path / "manifest.json")]
    with pytest.raises(RuntimeError, match="^detector bug$") as exc, counted_forks() as forks:
        main(argv)
    assert type(exc.value.__cause__) is workers.WorkerTraceback
    assert ", in failing_localize_frame\n" in str(exc.value.__cause__)
    assert len(forks) == 2 and forks.reaped()


@pytest.mark.parametrize(
    "die, message",
    [(lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"), (lambda: os._exit(3), "exit code 3")],
    ids=["sigkill", "exit3"],
)
def test_a_dying_worker_raises_and_the_other_is_reaped(monkeypatch, forks, die, message):
    # Worker 0 dies at its first item; worker 1 would sleep far longer than
    # the test takes, so it ends only because the map kills it.
    def job(item: int) -> int:
        if item == 0:
            die()
        time.sleep(60)
        return item

    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    start = time.monotonic()
    with pytest.raises(OSError) as exc:
        map_forked(job, range(2))
    assert str(exc.value) == f"a worker process died: {message}"
    assert time.monotonic() - start < 30
    assert len(forks) == 2 and forks.reaped()


def test_outcomes_larger_than_a_pipe_buffer_do_not_deadlock(monkeypatch, forks):
    # Every worker's message outgrows a 64 KiB pipe buffer; the later ones
    # wait to be read while the parent reads the earlier ones.
    def job(item: int) -> bytes:
        return bytes([item]) * (1 << 18)

    def timeout(signum, frame):
        raise TimeoutError("the map did not return")

    monkeypatch.setattr(workers, "usable_cpus", lambda: 3)
    threads = threading.active_count()
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(60)
    try:
        outcomes = map_forked(job, range(6))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert outcomes == [job(item) for item in range(6)]
    assert len(forks) == 3 and forks.reaped()
    assert threading.active_count() == threads


def test_without_fork_the_jobs_run_inline(monkeypatch):
    monkeypatch.setattr(workers, "usable_cpus", lambda: 4)
    monkeypatch.delattr(os, "fork")
    assert map_forked(_job, range(5)) == [_job(item) for item in range(5)]
