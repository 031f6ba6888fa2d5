"""One map of a job over items, on forked worker processes.

``dataset`` and ``localize`` run their frames through ``map_forked``.  It
forks one worker per usable CPU, at most one per item, each with its own
pipe.  The split is static: worker ``w`` of ``n`` runs items ``w, w + n,
...`` in order, then pickles their outcomes into its pipe in one message.
An outcome is ``job(item)`` or the ``Exception`` it raised, so the caller
decides in item order what an error means; one raised in a worker arrives
with that worker's traceback, as text, in a ``WorkerTraceback`` that is its
``__cause__``.  Forked workers inherit ``job`` with the rest of the parent's
memory: only outcomes are pickled and nothing is imported again.  The map
starts no thread, so a caller with no other thread forks none that could
hold a lock.  With one CPU, one item or no ``os.fork``, the jobs run inline
through the same outcome loop.
"""

from __future__ import annotations

import os
import pickle
import signal


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity call on this OS
        return os.cpu_count() or 1


def _outcomes(job, items) -> list:
    outcomes = []
    for item in items:
        try:
            outcomes.append(job(item))
        except Exception as exc:
            outcomes.append(exc)
    return outcomes


class WorkerTraceback(Exception):
    """The traceback, formatted in a worker process, of an exception its job raised."""


def _caused(exc: Exception, text: str) -> Exception:
    exc.__cause__ = WorkerTraceback(text)
    return exc


class _Raised:
    """A job's exception in a worker, which unpickles with its traceback as its cause."""

    def __init__(self, exc: Exception) -> None:
        import traceback  # only a worker whose job raised needs it

        self.exc = exc
        self.text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))

    def __reduce__(self):
        return _caused, (self.exc, self.text)


def _work(job, items, pipe: int) -> None:
    """Pickle the outcomes into ``pipe``, then leave, with status 0 once all is written."""
    status = 1
    try:
        outcomes = [_Raised(o) if isinstance(o, Exception) else o for o in _outcomes(job, items)]
        with open(pipe, "wb") as out:
            pickle.dump(outcomes, out, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)  # so the inherited stdio buffers and atexit handlers never run twice


def map_forked(job, items) -> list:
    """The outcome of ``job`` on each of ``items``, in item order (see the module docstring).

    A worker that ends with a non-zero status (a signal, ``os._exit``, the
    OOM killer) raises ``OSError``; every worker is reaped before the call
    returns or raises.
    """
    items = tuple(items)
    workers = min(usable_cpus(), len(items))
    if workers < 2 or not hasattr(os, "fork"):
        return _outcomes(job, items)
    outcomes = [None] * len(items)
    pipes, pids = [], []  # the workers not yet reaped, in order
    try:
        for w in range(workers):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _work(job, items[w::workers], write)
            finally:
                os.close(write)  # so the pipe ends when its worker does
            pids.append(pid)
        for w, pipe in enumerate(pipes):
            message = pipe.read()
            status = os.waitpid(pids[0], 0)[1]
            del pids[0]
            if status:
                code = os.waitstatus_to_exitcode(status)
                ending = f"exit code {code}" if code >= 0 else f"killed by signal {-code}"
                raise OSError(f"a worker process died: {ending}")
            outcomes[w::workers] = pickle.loads(message)
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()
    return outcomes
