"""A forked helper process that computes a share of a call's tasks.

``map_tasks(fn, tasks)`` returns ``[fn(*task) for task in tasks]``. The BER
functions are pure Python, which threads cannot run in parallel, so when the
process may run on more than one CPU the tasks are dealt out, interleaved, to
the caller and one helper process: the caller computes tasks 0, 2, 4, ...
while the helper computes tasks 1, 3, 5, .... One helper is the only count
measured (on 2 CPUs, where it takes a 41-point sweep to 0.62-0.87 of its
serial time), so a process with more CPUs forks no more. Each result is the
same call of ``fn`` on the same arguments, and floats cross the pipe as
their 8 bytes, so the list is the serial one bit for bit, whatever the CPU
count.

The helper is forked at the first call that can use it and lives as long as
the process: forking costs about as much as a whole sweep. It receives each
``(fn, share)`` pickled on one one-way ``multiprocessing.connection`` pipe
and sends its share's results back on another. ``fn`` is pickled by
reference, so it is a module-level function, and no closure crosses the
pipe. The helper ignores SIGINT, closes every descriptor but 0-2 and its own
two pipe ends, so it holds none of the caller's files, sockets, pipes or
locks, and leaves with ``os._exit`` when its pipe reaches EOF or anything
raises: it never returns into the caller's stack. The parent stops and reaps
its helper at exit; a child forked from the parent forgets it.

The helper is a snapshot of the package at fork time: it computes with the
functions, tables and patches in place when it was forked, and a change made
later in the parent does not reach it. Code that patches the package, as
tests do, calls :func:`close` first, so that the next call forks anew.

The tasks run serially in the calling process when it may run on one CPU,
when there is one task, when the platform has no ``os.fork`` or
``os.sched_getaffinity``, when another thread is running (a forked child
would inherit no thread but any lock one holds), inside the helper, and when
no pipe or process can be had; a call in which the helper is found dead runs
again serially. Each process stops its share at its first task that raises
and returns the results before it. Every task before the earliest such task
succeeded, so the caller calls that one task again, and it raises its own
exception exactly as a serial call does.
"""

from __future__ import annotations

import atexit
import os
import pickle
import signal
import threading
import warnings
from multiprocessing.connection import Connection, Pipe
from typing import NamedTuple


class _Helper(NamedTuple):
    pid: int
    tasks: Connection    # write end of the pipe the helper reads its shares from
    results: Connection  # read end of the pipe the helper writes its results to


_helper: _Helper | None = None
_in_helper = False


def map_tasks(fn, tasks: list[tuple]) -> list:
    """``[fn(*task) for task in tasks]``, the odd-indexed tasks on the helper."""
    helper = _helper_for(len(tasks))
    if helper is None:
        return [fn(*task) for task in tasks]
    try:
        helper.tasks.send_bytes(pickle.dumps((fn, tasks[1::2]), pickle.HIGHEST_PROTOCOL))
        shares = (_compute(fn, tasks[0::2]), pickle.loads(helper.results.recv_bytes()))
    except (OSError, EOFError):
        # the helper died: before the send (BrokenPipeError), with its share
        # (EOFError) or partway through sending its results (OSError)
        close()
        return [fn(*task) for task in tasks]
    except BaseException:
        close()  # the helper may still owe its reply, which the next call would misread
        raise
    failed = [k + 2 * len(share) for k, share in enumerate(shares)
              if len(share) < len(tasks[k::2])]
    if failed:
        # every task before the earliest failure succeeded, so that one task
        # raises here where a serial call would raise
        fn(*tasks[min(failed)])
        return [fn(*task) for task in tasks]  # it raised only in the helper
    results = [None] * len(tasks)
    results[0::2], results[1::2] = shares
    return results


def close() -> None:
    """Stop and reap this process's helper, if it has one; the next call forks
    anew. The helper is this process's unreaped child, so its pid cannot have
    been reused."""
    global _helper
    helper, _helper = _helper, None
    if helper is not None:
        helper.tasks.close()
        helper.results.close()
        os.kill(helper.pid, signal.SIGKILL)
        os.waitpid(helper.pid, 0)


def _helper_for(n_tasks: int) -> _Helper | None:
    """The helper to share ``n_tasks`` tasks with, forked if need be; None
    where the call runs serially."""
    global _helper
    if _in_helper or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return None
    if min(_usable_cpus(), n_tasks) < 2 or threading.active_count() > 1:
        return None
    if _helper is None:
        try:
            _helper = _fork()
        except OSError:  # no process or pipe to be had now: this call runs serially
            return None
    return _helper


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _compute(fn, share: list[tuple]) -> list:
    """A share's results up to its first task that raised, if one did: the
    caller calls that task again, which raises it."""
    results = []
    try:
        for task in share:
            results.append(fn(*task))
    except Exception:
        pass
    return results


def _fork() -> _Helper:
    conns = []
    try:
        conns += Pipe(duplex=False)
        conns += Pipe(duplex=False)
        with warnings.catch_warnings():
            # Python 3.12+ warns that forking a process with other OS threads
            # may deadlock the child; numpy's BLAS pool is such threads. The
            # child takes no lock they could hold: it runs math-module code
            # and leaves by os._exit. Only one Python thread runs here, so
            # the filter change reaches no other thread.
            warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
    except OSError:
        for conn in conns:
            conn.close()
        raise
    tasks_r, tasks_w, results_r, results_w = conns
    if pid == 0:
        _serve(tasks_r, results_w)
    tasks_r.close()
    results_w.close()
    return _Helper(pid, tasks_w, results_r)


def _close_all_but(*keep: int) -> None:
    """In a new helper: close every descriptor above 2 but ``keep``. The helper
    lives as long as the caller, so a file, socket, pipe end or lock the caller
    closes later must not stay open here."""
    low = 3
    for fd in sorted(keep):
        os.closerange(low, fd)
        low = max(low, fd + 1)
    os.closerange(low, os.sysconf("SC_OPEN_MAX"))


def _serve(tasks: Connection, results: Connection) -> None:
    """A helper's life: compute each share it reads until its pipe closes."""
    global _in_helper
    try:
        _in_helper = True
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
        _close_all_but(tasks.fileno(), results.fileno())
        while True:
            fn, share = pickle.loads(tasks.recv_bytes())
            results.send_bytes(pickle.dumps(_compute(fn, share), pickle.HIGHEST_PROTOCOL))
    finally:
        os._exit(0)  # at EOF or on any error: never return into the parent's stack


def _forget() -> None:
    """In a child forked from this process: the helper is the parent's, so
    close this process's copies of its pipes and leave the helper alone."""
    global _helper
    if _helper is not None:
        _helper.tasks.close()
        _helper.results.close()
        _helper = None


atexit.register(close)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)
