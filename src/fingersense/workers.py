"""One map of a job over items, on forked worker processes.

``dataset`` and ``localize`` run their frames through ``map_forked``, which
returns ``[job(item) for item in items]`` or raises what that would: the
exception of the first failing item in item order.  It forks one worker per
usable CPU, at most one per item, each with its own pipe.  The split is
static: worker ``w`` of ``n`` runs items ``w, w + n, ...`` in order up to its
first failing item, then pickles their results and that item's exception
into its pipe in one message, so every item before the first failing one
has run.  An exception raised in a worker arrives with that worker's
traceback, as text, in a ``WorkerTraceback`` that is its ``__cause__``.
Forked workers inherit ``job`` with the rest of the parent's memory: only
results are pickled and nothing is imported again.  The map starts no
thread, so a caller with no other thread forks none that could hold a lock.
With one CPU, one item or no ``os.fork``, the comprehension runs inline.
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
    """Pickle into ``pipe`` the results up to the first failing item and its exception or None, then leave."""
    status = 1
    try:
        results, raised = [], None
        try:
            for item in items:
                results.append(job(item))
        except Exception as exc:
            raised = _Raised(exc)
        with open(pipe, "wb") as out:
            pickle.dump((results, raised), out, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)  # so the inherited stdio buffers and atexit handlers never run twice


def map_forked(job, items) -> list:
    """``[job(item) for item in items]``, or the exception it would raise (see the module docstring).

    A worker that ends with a non-zero status (a signal, ``os._exit``, the
    OOM killer) raises ``OSError``; every worker is reaped before the call
    returns or raises.
    """
    items = tuple(items)
    workers = min(usable_cpus(), len(items))
    if workers < 2 or not hasattr(os, "fork"):
        return [job(item) for item in items]
    results = [None] * len(items)
    failed = {}  # item index -> exception, of each worker's first failing item
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
            done, raised = pickle.loads(message)
            if raised is None:
                results[w::workers] = done
            else:
                failed[w + workers * len(done)] = raised
        if failed:
            raise failed[min(failed)]
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()
    return results
