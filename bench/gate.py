"""The correctness gate: every op's output against invariants and references.

It runs after the timed loop, on each distinct op's first output; the worker
flags any repeat whose output differed. A failed op is one that raised, or
one with any check below that missed:

* ``range``: an analytic BER outside [0, 0.5].
* ``monotone``: an analytic BER that rises with power across the sweep.
* ``straddle_own`` / ``straddle_ref``: the crossing's bracket ends do not
  straddle the threshold under the method's own BER / under the reference.
* ``tolerance``: a checked value misses its reference by more than
  ``reference.REL_TOL`` (plus ``ABS_TOL``). Each op checks one sweep point,
  picked from the seed, and both bracket ends.
* ``5sigma``: an MC error count is more than 5 sigma from trials * reference
  BER. sigma is the binomial sigma, floored at one count so that a point
  expecting well under one error is not failed for seeing one.
* ``nondeterministic``: a repeat of the op gave a different output.

``approx-prev``'s integral has no finite value, so it has no reference and is
held to the invariants only.
"""

from __future__ import annotations

import math
import random
import re

import reference

REFERENCED = ("exact", "approx-new")
# a report prints p_cross to 1e-4 dB and the bisection stops at a 1e-3 dB
# bracket, so the true bracket lies inside p_cross -/+ CROSS_HALF_WIDTH
CROSS_HALF_WIDTH = 0.00056

_CROSS = re.compile(r"^p_cross\[([\w-]+)\] = (\S+) dBm$", re.M)


def power_grid(lo: float, hi: float, step: float) -> list[float]:
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + i * step for i in range(n)]


def close(got: float, ref: float) -> bool:
    return abs(got - ref) <= reference.REL_TOL * abs(ref) + reference.ABS_TOL


def mc_within(errors: int, trials: int, p: float) -> bool:
    mean = trials * p
    return abs(errors - mean) <= 5.0 * math.sqrt(max(mean * (1.0 - p), 1.0))


def parse_crossings(report: str) -> dict[str, float]:
    return {m: float(p) for m, p in _CROSS.findall(report)}


def parse_csv(text: str) -> dict[str, list]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    cols = {name: [] for name in header}
    for line in lines[1:]:
        for name, cell in zip(header, line.split(",")):
            cols[name].append(float(cell) if cell else None)
    return cols


class Gate:
    """Checks one run's distinct ops and keeps the failure taxonomy."""

    def __init__(self, spec: dict, refs: reference.RefStore):
        self.spec = spec
        self.refs = refs
        self.thr = spec["threshold"]
        self.grid = power_grid(*spec["sweep"])
        self.raised: dict[str, dict[str, int]] = {}
        self.checks: dict[str, dict[str, int]] = {}
        self.failed = 0

    def _pick(self, i: int) -> int:
        """The sweep point op i is checked at, fixed by the seed."""
        return random.Random(f"{self.spec['seed']}:{i}").randrange(len(self.grid))

    def _analytic(self, method: str, link: dict, i: int, ber: list, ends: list,
                  own: list | None) -> set[str]:
        missed = set()
        if any(not 0.0 <= b <= 0.5 for b in ber):
            missed.add("range")
        if any(b2 > b1 for b1, b2 in zip(ber, ber[1:])):
            missed.add("monotone")
        if own is None or not own[0] > self.thr >= own[1]:
            missed.add("straddle_own")
        if method in REFERENCED:
            j = self._pick(i)
            if not close(ber[j], self.refs.get(method, link, self.grid[j])):
                missed.add("tolerance")
            ref_ends = [self.refs.get(method, link, p) for p in ends]
            if not ref_ends[0] > self.thr >= ref_ends[1]:
                missed.add("straddle_ref")
            if own is not None and not all(map(close, own, ref_ends)):
                missed.add("tolerance")
        return missed

    def _op_checks(self, i: int, rec: dict) -> dict[str, set[str]]:
        op = self.spec["ops"][i]
        link = self.spec["links"][op["link"]]
        own = rec.get("own", {})
        if "method" in op:  # scan-analytic: one method, bracket ends returned directly
            ends = rec["out"]["bracket"]
            missed = self._analytic(op["method"], link, i, rec["out"]["ber"], ends,
                                    own.get("bracket"))
            return {op["method"]: missed}
        cols = parse_csv(rec["out"]["csv"])
        crossings = parse_crossings(rec["out"]["report"])
        result = {}
        if not all(map(math.isclose, cols["p_dbm"], self.grid)):
            result["grid"] = {"grid"}
        for method in self.spec["methods"]:
            if method == "mc":
                trials = cols["mc_trials"]
                result["mc"] = {
                    "5sigma"
                    for p, b, n in zip(self.grid, cols["ber_mc"], trials)
                    if not mc_within(round(b * n), int(n), self.refs.get("exact", link, p))
                }
                continue
            if method not in crossings:
                result[method] = {"no_crossing"}
                continue
            p = crossings[method]
            result[method] = self._analytic(
                method, link, i, cols["ber_" + method.replace("-", "_")],
                [p - CROSS_HALF_WIDTH, p + CROSS_HALF_WIDTH], own.get(method))
        return result

    def check(self, ops: dict[str, dict]) -> None:
        for key, rec in sorted(ops.items(), key=lambda kv: int(kv[0])):
            i = int(key)
            runs = rec["runs"]
            if rec["error"] is not None:
                method = self.spec["ops"][i].get("method", "run")
                by_type = self.raised.setdefault(method, {})
                by_type[rec["error"][0]] = by_type.get(rec["error"][0], 0) + runs
            else:
                misses = {m: k for m, k in self._op_checks(i, rec).items() if k}
                if rec["mismatch"]:
                    misses.setdefault("run", set()).add("nondeterministic")
                if not misses:
                    continue
                for method, kinds in misses.items():
                    by_kind = self.checks.setdefault(method, {})
                    for kind in kinds:
                        by_kind[kind] = by_kind.get(kind, 0) + runs
            self.failed += runs

    def taxonomy(self, attempted: int) -> dict:
        return {
            "failed_frac": self.failed / attempted,
            "failed": self.failed,
            "attempted": attempted,
            "attempted_ok": attempted - self.failed,
            "raised": self.raised,
            "check_misses": self.checks,
        }
