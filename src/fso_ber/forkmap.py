"""Forked helper processes that compute a share of a call's tasks.

``map_tasks(fn, tasks)`` returns ``[fn(*task) for task in tasks]``. The BER
functions are pure Python, which threads cannot run in parallel, so when the
process may run on more than one CPU the tasks are dealt out to P processes,
interleaved: the caller computes tasks 0, P, 2P, ... while helper k computes
tasks k, k + P, .... P is the least of the usable CPUs, the task count and
``_MAX_PROCS``. Each result is the same call of ``fn`` on the same arguments,
and floats cross the pipe as their 8 bytes, so the list is the serial one bit
for bit, whatever the CPU count.

Helpers are forked at the first call that can use them and live as long as
the process: forking costs about as much as a whole sweep. Each reads
length-prefixed pickle frames ``(fn, share)`` from one ``os.pipe`` and writes
its share's results to another. ``fn`` is pickled by reference, so it is a
module-level function, and no closure crosses the pipe. A helper closes every
descriptor but 0-2 and its own two pipe ends, so it holds none of the
caller's files, sockets, pipes or locks; it ignores SIGINT and leaves with
``os._exit`` when its pipe reaches EOF. The parent stops and reaps its
helpers at exit; a child forked from the parent forgets them.

A helper is a snapshot of the package at fork time: it computes with the
functions, tables and patches in place when it was forked, and a change made
later in the parent does not reach it. Code that patches the package, as
tests do, calls :func:`close` first, so that the next call forks anew.

The tasks run serially in the calling process when it may run on one CPU,
when there is one task, when the platform has no ``os.fork`` or
``os.sched_getaffinity``, when another thread is running (a forked child
would inherit no thread but any lock one holds), inside a helper, and when
no pipe or process can be had; a call in which a helper is found dead runs
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
import struct
import threading
import warnings
from typing import NamedTuple

from . import montecarlo

_HEAD = struct.Struct("!Q")  # a frame's pickle length, ahead of the pickle
# The caller and at most one helper: the only count measured (on 2 CPUs,
# where it takes a 41-point sweep to 0.62-0.87 of its serial time). More
# helpers on more CPUs are unmeasured, so none are forked.
_MAX_PROCS = 2


class _Helper(NamedTuple):
    pid: int
    tasks: int    # write end of the pipe the helper reads its shares from
    results: int  # read end of the pipe the helper writes its results to


_helpers: list[_Helper] = []
_owner = os.getpid()  # the process whose children the helpers are
_in_helper = False


def map_tasks(fn, tasks: list[tuple]) -> list:
    """``[fn(*task) for task in tasks]``, a share of it on each helper."""
    helpers = _helpers_for(len(tasks))
    if not helpers:
        return [fn(*task) for task in tasks]
    procs = len(helpers) + 1
    asked, shares = [], {}
    try:
        for k, helper in enumerate(helpers, 1):
            try:
                _send(helper.tasks, (fn, tasks[k::procs]))
                asked.append((k, helper))
            except BrokenPipeError:  # the helper died since the last call
                _drop(helper)
        shares[0] = _compute(fn, tasks[0::procs])
        for k, helper in asked:
            try:
                shares[k] = _recv(helper.results)
            except EOFError:
                _drop(helper)
    except BaseException:
        # a helper may still owe its reply, which the next call would misread
        for helper in helpers:
            if helper in _helpers:
                _drop(helper)
        raise
    if len(shares) < procs:  # a helper died with its share
        return [fn(*task) for task in tasks]
    failed = [k + procs * len(share) for k, share in shares.items()
              if len(share) < len(tasks[k::procs])]
    if failed:
        # every task before the earliest failure succeeded, so that one task
        # raises here where a serial call would raise
        fn(*tasks[min(failed)])
        return [fn(*task) for task in tasks]  # it raised only in a helper
    results = [None] * len(tasks)
    for k, share in shares.items():
        results[k::procs] = share
    return results


def close() -> None:
    """Stop and reap every helper of this process; the next call forks anew."""
    if _owner != os.getpid():
        _forget()
    while _helpers:
        _drop(_helpers[-1])


def _helpers_for(n_tasks: int) -> list[_Helper]:
    """The helpers to share ``n_tasks`` tasks with, forked as needed; none
    where the call runs serially."""
    if _in_helper or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return []
    wanted = min(montecarlo._usable_cpus(), n_tasks, _MAX_PROCS) - 1
    if wanted < 1 or threading.active_count() > 1:
        return []
    if _owner != os.getpid():  # forked without the at-fork hook
        _forget()
    while len(_helpers) < wanted:
        try:
            _helpers.append(_fork())
        except OSError:  # no process or pipe to be had now: this call runs serially
            return []
    return _helpers[:wanted]


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
    fds = []
    try:
        fds += os.pipe()
        fds += os.pipe()
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
        for fd in fds:
            os.close(fd)
        raise
    tasks_r, tasks_w, results_r, results_w = fds
    if pid == 0:
        _close_all_but(tasks_r, results_w)
        _serve(tasks_r, results_w)
    os.close(tasks_r)
    os.close(results_w)
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


def _serve(tasks: int, results: int) -> None:
    """A helper's life: compute each share it reads until its pipe closes."""
    global _in_helper
    try:
        _in_helper = True
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
        while True:
            fn, share = _recv(tasks)
            _send(results, _compute(fn, share))
    finally:
        os._exit(0)  # at EOF or on any error: never return into the parent's stack


def _drop(helper: _Helper) -> None:
    """Close a helper's pipes, kill it and reap it. It is this process's
    unreaped child, so its pid cannot have been reused."""
    _helpers.remove(helper)
    os.close(helper.tasks)
    os.close(helper.results)
    os.kill(helper.pid, signal.SIGKILL)
    os.waitpid(helper.pid, 0)


def _forget() -> None:
    """In a child forked from the owner: the helpers are the owner's, so close
    this process's copies of their pipes and leave the helpers alone."""
    global _owner
    for helper in _helpers:
        os.close(helper.tasks)
        os.close(helper.results)
    _helpers.clear()
    _owner = os.getpid()


def _send(fd: int, obj) -> None:
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    view = memoryview(_HEAD.pack(len(data)) + data)
    while view:
        view = view[os.write(fd, view):]


def _recv(fd: int):
    (size,) = _HEAD.unpack(_read(fd, _HEAD.size))
    return pickle.loads(_read(fd, size))


def _read(fd: int, n: int) -> bytearray:
    data = bytearray()
    while len(data) < n:
        chunk = os.read(fd, n - len(data))
        if not chunk:
            raise EOFError("helper pipe closed")
        data += chunk
    return data


atexit.register(close)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)
