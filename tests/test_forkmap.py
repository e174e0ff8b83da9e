"""Analytic sweep points shared with forked helper processes.

Most tests patch ``montecarlo._usable_cpus`` to 2, so that the helper is
forked on any machine; it then shares a CPU with the test where there is
only one. ``conftest.py`` closes the helper before each test.
"""

import math
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from fso_ber import (
    PRESETS,
    BerMethod,
    IntegrandError,
    LinkParams,
    RunConfig,
    dbm_to_watts,
    derive,
    forkmap,
    montecarlo,
    run,
    sweep,
)
from fso_ber.analysis import _ANALYTIC, power_grid
from fso_ber.config import DEFAULT_SWEEP

from test_fingerprint import METHODS, _links

SRC = Path(__file__).resolve().parent.parent / "src"
ANALYTIC = [method for method, _ in METHODS]
TWO = [BerMethod.EXACT, BerMethod.APPROX_NEW]  # approx-prev fails on case1


def _cpus(monkeypatch, n):
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: n)


def _outcome(call):
    """("ok", value hexes) or (exception type, message)."""
    try:
        curves = call()
    except Exception as exc:
        return type(exc), str(exc)
    return "ok", [[pt.ber.hex() for pt in c.points] for c in curves]


def _direct(methods, d, link):
    """What a sweep of ``methods`` should give, from one call per point: the
    values, or the first failing point's exception as the sweep names it."""
    values = []
    for method, ber in METHODS:
        if method not in methods:
            continue
        values.append([])
        for p in power_grid(*DEFAULT_SWEEP):
            try:
                values[-1].append(ber(dbm_to_watts(p), d, link).hex())
            except Exception as exc:
                return type(exc), f"{method.value} failed at P = {p:g} dBm: {exc}"
    return "ok", values


@pytest.mark.parametrize("cpus", [2, 1])
def test_sweep_equals_the_per_point_calls_on_the_fingerprint_links(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    for fields in _links():
        link = LinkParams(**fields)
        d = derive(link)
        for methods in (ANALYTIC, *([m] for m in ANALYTIC)):
            got = _outcome(lambda: sweep(methods, DEFAULT_SWEEP, d, link))
            assert got == _direct(methods, d, link), (fields, methods)
    assert (forkmap._helper is not None) == (cpus == 2)


def _failing_at(bad_dbm, log: Path):
    """A BER method that raises IntegrandError at the powers ``bad_dbm`` and
    logs the pid and the power of each call."""
    bad_watts = {dbm_to_watts(p) for p in bad_dbm}

    def ber(p_watts, d, link, tol=None):
        with log.open("a") as fh:
            fh.write(f"{os.getpid()} {p_watts.hex()}\n")
        if p_watts in bad_watts:
            raise IntegrandError(0.25, math.nan)
        return 0.1

    return ber


def _calls(log: Path) -> dict[int, list[float]]:
    """The powers, in watts, that each pid logged, in its order."""
    calls = {}
    for line in log.read_text().splitlines():
        pid, p_watts = line.split()
        calls.setdefault(int(pid), []).append(float.fromhex(p_watts))
    return calls


# on 9 points and 2 processes the caller computes the even indices and the
# helper the odd ones: -1 dBm (index 3) and 1 dBm (index 5) are the helper's,
# 0 dBm (index 4) and 2 dBm (index 6) the caller's
@pytest.mark.parametrize("bad, first", [
    ((-1.0, 2.0), -1.0),   # the helper's earlier than the caller's
    ((0.0, 1.0), 0.0),     # the caller's earlier than the helper's
    ((-1.0,), -1.0),       # the helper's only
])
def test_the_first_failing_power_raises_as_in_serial(monkeypatch, tmp_path, bad, first):
    _cpus(monkeypatch, 2)
    log = tmp_path / "calls"
    monkeypatch.setitem(_ANALYTIC, BerMethod.APPROX_NEW, _failing_at(bad, log))
    link = LinkParams(**PRESETS["case1"])
    match = rf"^approx-new failed at P = {first:g} dBm: integrand returned nan at x = 0\.25$"
    with pytest.raises(IntegrandError, match=match) as excinfo:
        sweep([BerMethod.APPROX_NEW], (-4.0, 4.0, 1.0), derive(link), link)
    assert excinfo.value.abscissa == 0.25
    helper = forkmap._helper
    calls = _calls(log)
    # each process stops its share at its first failure, and the caller then
    # calls the earliest failing power once more: no point is computed twice
    # but that one, and the call is not run again serially
    expected = {}
    for pid, share in ((os.getpid(), power_grid(-4.0, 4.0, 1.0)[0::2]),
                       (helper.pid, power_grid(-4.0, 4.0, 1.0)[1::2])):
        ends = [i for i, p in enumerate(share) if p in bad]
        expected[pid] = [dbm_to_watts(p) for p in share[:ends[0] + 1 if ends else None]]
    expected[os.getpid()].append(dbm_to_watts(first))
    assert calls == expected


class _Deadline:
    """Fail, rather than hang, a block that takes longer than ``seconds``."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {self.seconds} s")

        self.previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(self.seconds)

    def __exit__(self, *exc):
        signal.alarm(0)
        signal.signal(signal.SIGALRM, self.previous)


def _serial_then_two_cpus(monkeypatch, args):
    """``sweep(*args)`` on one CPU, every point in the caller; then 2 CPUs."""
    _cpus(monkeypatch, 1)
    serial = sweep(*args)
    _cpus(monkeypatch, 2)
    return serial


def _assert_reaped_and_replaced(pid, args, serial):
    with pytest.raises(ChildProcessError):  # reaped, not left a zombie
        os.waitpid(pid, os.WNOHANG)
    assert forkmap._helper is None
    assert sweep(*args) == serial
    assert forkmap._helper.pid != pid  # the next sweep forked a new helper


def test_a_killed_helper_is_reaped_and_the_call_runs_serially(monkeypatch):
    # the helper has exited, unreaped, before the call: sending its share
    # raises BrokenPipeError
    link = LinkParams(**PRESETS["case3"])
    args = (ANALYTIC, DEFAULT_SWEEP, derive(link), link)
    serial = _serial_then_two_cpus(monkeypatch, args)
    assert sweep(*args) == serial
    pid = forkmap._helper.pid
    os.kill(pid, signal.SIGKILL)
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # exited, still unreaped
    with _Deadline(60):
        assert sweep(*args) == serial
    _assert_reaped_and_replaced(pid, args, serial)


def test_a_helper_dying_with_its_share_is_reaped_and_the_call_runs_serially(
        monkeypatch, tmp_path):
    # the helper reads its share and dies computing it: reading its results
    # raises EOFError
    caller, log = os.getpid(), tmp_path / "helper"
    exact = _ANALYTIC[BerMethod.EXACT]

    def dies_in_the_helper(*args):
        if os.getpid() != caller:
            log.write_text(str(os.getpid()))
            os._exit(1)
        return exact(*args)

    monkeypatch.setitem(_ANALYTIC, BerMethod.EXACT, dies_in_the_helper)
    link = LinkParams(**PRESETS["case3"])
    args = (ANALYTIC, DEFAULT_SWEEP, derive(link), link)
    serial = _serial_then_two_cpus(monkeypatch, args)
    with _Deadline(60):
        assert sweep(*args) == serial
    monkeypatch.setitem(_ANALYTIC, BerMethod.EXACT, exact)
    _assert_reaped_and_replaced(int(log.read_text()), args, serial)


def test_every_exit_from_the_helper_goes_through_os_exit(monkeypatch, tmp_path):
    # an exception in the new helper before it serves, as a Ctrl-C landing
    # right after the fork raises, ends it there: it never unwinds into the
    # caller's stack, so only the caller reaches the finally below
    link = LinkParams(**PRESETS["case1"])
    args = (TWO, (-4.0, 0.0, 1.0), derive(link), link)
    serial = _serial_then_two_cpus(monkeypatch, args)

    def interrupted(*keep):
        raise KeyboardInterrupt

    monkeypatch.setattr(forkmap, "_close_all_but", interrupted)
    caller, log = os.getpid(), tmp_path / "pids"
    try:
        with _Deadline(60):
            got = sweep(*args)
    finally:
        with log.open("a") as fh:
            fh.write(f"{os.getpid()}\n")
        if os.getpid() != caller:
            os._exit(0)
    assert got == serial
    assert log.read_text().split() == [str(caller)]


def test_a_forked_child_leaves_the_parents_helper_alone(monkeypatch):
    _cpus(monkeypatch, 2)
    link = LinkParams(**PRESETS["case2"])
    d = derive(link)
    first = sweep(ANALYTIC, DEFAULT_SWEEP, d, link)
    helper = forkmap._helper
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            for fd in (helper.tasks, helper.results):
                try:
                    os.fstat(fd)
                except OSError:
                    continue
                raise AssertionError(f"the child still holds the helper's fd {fd}")
            ok = forkmap._helper is None and sweep(ANALYTIC, DEFAULT_SWEEP, d, link) == first
            ok = ok and forkmap._helper != helper
            forkmap.close()
            status = 0 if ok else 1
        finally:
            os._exit(status)
    with _Deadline(60):
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert forkmap._helper == helper
        assert sweep(ANALYTIC, DEFAULT_SWEEP, d, link) == first
    assert forkmap._helper == helper


SWEEP_THEN_WAIT = """
import sys, time
from fso_ber import PRESETS, BerMethod, LinkParams, derive, forkmap, montecarlo, sweep
montecarlo._usable_cpus = lambda: 2
link = LinkParams(**PRESETS["case1"])
sweep([BerMethod.EXACT], (-4.0, 0.0, 1.0), derive(link), link)
print(forkmap._helper.pid, flush=True)
if sys.argv[1] == "wait":
    time.sleep(60)
"""


@pytest.mark.parametrize("ending", ["exit", "wait"])
def test_no_helper_outlives_its_process(ending):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen([sys.executable, "-W", "always", "-c", SWEEP_THEN_WAIT, ending],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        pids = [int(pid) for pid in proc.stdout.readline().split()]
        if ending == "wait":
            proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert len(pids) == 1
    if ending == "exit":
        assert proc.returncode == 0
        assert err == ""  # no warning about the fork, nor anything else
    else:
        assert "KeyboardInterrupt" in err
    with _Deadline(10):
        for pid in pids:
            while True:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.01)


def _serial_conditions():
    yield "one usable CPU", lambda mp: _cpus(mp, 1)
    yield "inside a helper", lambda mp: mp.setattr(forkmap, "_in_helper", True)
    yield "no os.fork", lambda mp: mp.delattr(os, "fork")
    yield "no os.sched_getaffinity", lambda mp: mp.delattr(os, "sched_getaffinity")
    yield "fork fails", lambda mp: mp.setattr(os, "fork", _no_fork)


def _no_fork():
    raise BlockingIOError(11, "Resource temporarily unavailable")


@pytest.mark.parametrize("name, patch", list(_serial_conditions()),
                         ids=[name for name, _ in _serial_conditions()])
def test_calls_run_serially_where_no_helper_can_be_used(monkeypatch, name, patch):
    link = LinkParams(**PRESETS["case1"])
    d = derive(link)
    _cpus(monkeypatch, 2)
    patch(monkeypatch)
    assert sweep(TWO, (-4.0, 0.0, 1.0), d, link)[0].points[0].ber > 0.0
    assert forkmap._helper is None


def test_one_helper_at_most_and_none_for_one_task(monkeypatch, tmp_path):
    # more helpers than one are unmeasured, so none are forked on more CPUs:
    # the caller computes the even indices and one helper the odd ones
    _cpus(monkeypatch, 8)
    assert forkmap.map_tasks(math.ldexp, [(1.0, 3)]) == [8.0]
    assert forkmap._helper is None
    log = tmp_path / "calls"
    monkeypatch.setitem(_ANALYTIC, BerMethod.APPROX_NEW, _failing_at((), log))
    link = LinkParams(**PRESETS["case1"])
    sweep([BerMethod.APPROX_NEW], (-4.0, 4.0, 1.0), derive(link), link)
    calls = _calls(log)
    watts = [dbm_to_watts(p) for p in power_grid(-4.0, 4.0, 1.0)]
    assert calls.pop(os.getpid()) == watts[0::2]
    assert list(calls.values()) == [watts[1::2]]


def test_a_helper_holds_none_of_the_callers_descriptors(monkeypatch):
    # a pipe open in the caller when the helper is forked: once the caller
    # closes its write end, its read end sees EOF, as without a helper
    _cpus(monkeypatch, 2)
    read_end, write_end = os.pipe()
    try:
        link = LinkParams(**PRESETS["case1"])
        sweep(TWO, (-4.0, 0.0, 1.0), derive(link), link)
        assert forkmap._helper is not None
        os.close(write_end)
        write_end = None
        ready, _, _ = select.select([read_end], [], [], 10)
        assert ready, "the pipe's write end is still open in another process"
        assert os.read(read_end, 1) == b""
    finally:
        os.close(read_end)
        if write_end is not None:
            os.close(write_end)


def test_calls_run_serially_while_another_thread_runs(monkeypatch):
    link = LinkParams(**PRESETS["case1"])
    _cpus(monkeypatch, 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        sweep(TWO, (-4.0, 0.0, 1.0), derive(link), link)
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert forkmap._helper is None


def test_run_crossings_run_in_the_caller_and_match_the_serial_report(monkeypatch, tmp_path):
    # approx-new's BER stays at 0.25, so its crossing raises BracketError: in
    # the calling process, where the sweep's BERs are, as every crossing runs
    log = tmp_path / "pids"

    def flat(p_watts, d, link, tol=None):
        if p_watts > dbm_to_watts(17.0):  # only the crossing search probes above the sweep
            with log.open("a") as fh:
                fh.write(f"{os.getpid()}\n")
        return 0.25

    monkeypatch.setitem(_ANALYTIC, BerMethod.APPROX_NEW, flat)
    reports = {}
    for cpus in (2, 1):
        _cpus(monkeypatch, cpus)
        config = RunConfig(link=LinkParams(**PRESETS["case1"]),
                           methods=(BerMethod.EXACT, BerMethod.APPROX_NEW),
                           output_path=str(tmp_path / f"cpus{cpus}"))
        artifacts = run(config)
        reports[cpus] = (artifacts.report_path.read_text(), artifacts.csv_path.read_text())
        if cpus == 2:
            assert forkmap._helper is not None  # the sweep's points were shared
            assert {int(line) for line in log.read_text().split()} == {os.getpid()}
    assert reports[2] == reports[1]
    assert "p_cross[exact] = " in reports[2][0]
    assert "p_cross[approx-new]" not in reports[2][0]
