"""Span tracing of the package's modules, installed from outside.

``Tracer.install`` replaces each public function listed in ``TARGETS`` at the
sites where the package imports it. The replacement records a span: its name,
start, end and the span that was open on the same thread when it started.
Spans stay in memory; ``aggregate`` turns them into per-module sums once the
traced ops have finished.

A target that no longer exists is skipped and listed in ``missing``. The
metrics that depend on it are then reported as unmeasured, so a refactor of
the package cannot crash the traced run. The untraced run never imports this
module.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name); one span name can have several import sites
TARGETS = (
    ("fso_ber.channel", "derive", "channel.derive"),
    ("fso_ber.runner", "derive", "channel.derive"),
    ("fso_ber.analysis", "sweep", "analysis.sweep"),
    ("fso_ber.runner", "sweep", "analysis.sweep"),
    ("fso_ber.analysis", "fec_crossing", "analysis.fec_crossing"),
    ("fso_ber.runner", "fec_crossing", "analysis.fec_crossing"),
    ("fso_ber.analysis", "mc_ber", "montecarlo.mc_ber"),
    ("fso_ber.montecarlo", "draw_gains", "channel.draw_gains"),
    ("fso_ber.ber", "integrate", "quadrature.integrate"),
    ("fso_ber.runner", "run", "runner.run"),
    ("fso_ber.cli", "run", "runner.run"),
    ("fso_ber.runner", "render_csv", "runner.render_write"),
    ("fso_ber.runner", "render_report", "runner.render_write"),
    ("fso_ber.runner", "_write_atomic", "runner.render_write"),
    ("fso_ber.cli", "main", "cli.main"),
)
# the BER methods are reached through this dispatch table, keyed by BerMethod
BER_TABLE = ("fso_ber.analysis", "_ANALYTIC")
BER_METHODS = ("exact", "approx-new", "approx-prev")

# metric -> span names it needs; a metric whose spans were never installed is
# reported as unmeasured
NEEDS = {
    "quadrature.": ("quadrature.integrate",),
    "ber.integrand_s": ("quadrature.integrate",),
    **{f"ber.{m}.": (f"ber.{m}",) for m in BER_METHODS},
    "analysis.sweep_s": ("analysis.sweep",),
    "analysis.fec_crossing_s": ("analysis.fec_crossing",),
    "analysis.ber_calls_per_crossing": ("analysis.fec_crossing", "ber.exact"),
    "analysis.pool_busy_frac": ("analysis.sweep", "ber.exact", "montecarlo.mc_ber"),
    "montecarlo.": ("montecarlo.mc_ber",),
    "montecarlo.decide_s": ("montecarlo.mc_ber", "channel.draw_gains"),
    "channel.draw_gains": ("channel.draw_gains",),
    "channel.derive_s": ("channel.derive",),
    "runner.run_s": ("runner.run",),
    "runner.crossings_s": ("runner.run", "analysis.fec_crossing"),
    "runner.render_write_s": ("runner.render_write",),
    "cli.parse_s": ("cli.main", "runner.run"),
}


class Span:
    __slots__ = ("name", "parent", "t0", "t1", "error", "extra")

    def __init__(self, name: str, parent: Span | None):
        self.name = name
        self.parent = parent
        self.t0 = self.t1 = 0.0
        self.error = None
        self.extra = None

    def within(self, name: str) -> bool:
        sp = self.parent
        while sp is not None:
            if sp.name == name:
                return True
            sp = sp.parent
        return False


def _arg(fn, args, kwargs, name, default=None):
    try:
        return inspect.signature(fn).bind_partial(*args, **kwargs).arguments.get(name, default)
    except (TypeError, ValueError):
        return default


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self.active = False
        self._local = threading.local()
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            busy = [0.0]
            if name == "quadrature.integrate" and args:
                f = args[0]

                def timed_f(x):  # the integrand's own time, to split off self time
                    t = perf_counter()
                    try:
                        return f(x)
                    finally:
                        busy[0] += perf_counter() - t

                args = (timed_f, *args[1:])
            stack = tracer._stack()
            sp = Span(name, stack[-1] if stack else None)
            if name == "analysis.sweep":
                sp.extra = _arg(fn, args, kwargs, "workers", 1)
            elif name == "channel.draw_gains":
                sp.extra = _arg(fn, args, kwargs, "n", 0)
            stack.append(sp)
            result = None
            sp.t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                sp.error = type(exc).__name__
                raise
            finally:
                sp.t1 = perf_counter()
                stack.pop()
                tracer.spans.append(sp)
                if name == "quadrature.integrate":
                    sp.extra = (busy[0], getattr(result, "evaluations", 0),
                                getattr(result, "converged", True))
            if name == "montecarlo.mc_ber":
                sp.extra = (getattr(result, "trials", 0), getattr(result, "errors", None))
            return result

        return traced

    def install(self) -> None:
        # import every target module before wrapping any: cli binds runner.run
        # by name at import, and must bind the bare function, not a wrapper
        modules = {}
        for module_name, _, _ in TARGETS:
            try:
                modules[module_name] = importlib.import_module(module_name)
            except ImportError:
                modules[module_name] = None
        for module_name, attr, name in TARGETS:
            module = modules[module_name]
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(name, fn))
            self._undo.append((module, attr, fn))
            self.installed.add(name)
        module_name, attr = BER_TABLE
        table = getattr(sys.modules.get(module_name), attr, None)
        if not isinstance(table, dict):
            self.missing.append(f"{module_name}.{attr}")
            return
        for method, fn in list(table.items()):
            name = f"ber.{getattr(method, 'value', method)}"
            table[method] = self._wrap(name, fn)
            self._undo.append((table, method, fn))
            self.installed.add(name)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = fn
            else:
                setattr(owner, attr, fn)
        self._undo.clear()

    def aggregate(self) -> dict:
        """Per-module sums over every recorded span (see ``finish`` for ratios)."""
        s = defaultdict(float)
        for sp in self.spans:
            d = sp.t1 - sp.t0
            name = sp.name
            if name == "quadrature.integrate":
                integrand_s, evaluations, converged = sp.extra
                s["quadrature.integrate_calls"] += 1
                s["quadrature.evaluations"] += evaluations
                s["quadrature.unconverged"] += not converged
                s["quadrature.span_s"] += d
                s["ber.integrand_s"] += integrand_s
            elif name.startswith("ber."):
                s[f"{name}.calls"] += 1
                s[f"{name}.s"] += d
                s[f"{name}.failed"] += sp.error is not None
                if sp.within("analysis.fec_crossing"):
                    s["analysis.crossing_ber_calls"] += 1
            elif name == "analysis.sweep":
                s["analysis.sweep_s"] += d
                s["analysis.sweep_capacity_s"] += d * sp.extra
            elif name == "analysis.fec_crossing":
                s["analysis.fec_crossing_s"] += d
                s["analysis.fec_crossing_calls"] += 1
                if sp.within("runner.run"):
                    s["runner.crossings_s"] += d
            elif name == "montecarlo.mc_ber":
                trials, errors = sp.extra or (0, None)
                s["montecarlo.mc_ber_calls"] += 1
                s["montecarlo.trials"] += trials
                s["montecarlo.mc_ber_s"] += d
                s["montecarlo.zero_error_points"] += errors == 0
            elif name == "channel.draw_gains":
                s["channel.draw_gains_s"] += d
                s["channel.draw_gains_samples"] += sp.extra or 0
                if sp.within("montecarlo.mc_ber"):
                    s["montecarlo.draw_in_mc_s"] += d
            elif name == "channel.derive":
                s["channel.derive_s"] += d
            elif name == "runner.run":
                s["runner.run_s"] += d
                if sp.within("cli.main"):
                    s["cli.run_in_main_s"] += d
            elif name == "runner.render_write":
                s["runner.render_write_s"] += d
            elif name == "cli.main":
                s["cli.main_s"] += d
            # a sweep point is a BER or MC call made for a sweep: directly inside
            # it (one worker) or on a pool thread, where no span is open
            if (name.startswith("ber.") or name == "montecarlo.mc_ber") and (
                sp.parent is None or sp.parent.name == "analysis.sweep"
            ):
                s["analysis.point_s"] += d
        return dict(s)


def finish(sums: dict, passes: int, installed, missing) -> dict:
    """Per-pass metrics from summed aggregates; unmeasured ones map to None."""
    g = lambda k: sums.get(k, 0.0)  # noqa: E731
    per = lambda k: g(k) / passes  # noqa: E731

    def ratio(num, den):
        return g(num) / g(den) if g(den) else None

    out = {
        "quadrature.integrate_calls": per("quadrature.integrate_calls"),
        "quadrature.evaluations": per("quadrature.evaluations"),
        "quadrature.self_s": (g("quadrature.span_s") - g("ber.integrand_s")) / passes,
        "quadrature.unconverged": per("quadrature.unconverged"),
        "ber.integrand_s": per("ber.integrand_s"),
        "analysis.sweep_s": per("analysis.sweep_s"),
        "analysis.fec_crossing_s": per("analysis.fec_crossing_s"),
        "analysis.ber_calls_per_crossing": ratio("analysis.crossing_ber_calls",
                                                 "analysis.fec_crossing_calls"),
        "analysis.pool_busy_frac": ratio("analysis.point_s", "analysis.sweep_capacity_s"),
        "montecarlo.mc_ber_calls": per("montecarlo.mc_ber_calls"),
        "montecarlo.trials": per("montecarlo.trials"),
        "montecarlo.mc_ber_s": per("montecarlo.mc_ber_s"),
        "montecarlo.decide_s": (g("montecarlo.mc_ber_s") - g("montecarlo.draw_in_mc_s")) / passes,
        "montecarlo.zero_error_points": per("montecarlo.zero_error_points"),
        "channel.draw_gains_s": per("channel.draw_gains_s"),
        "channel.draw_gains_samples": per("channel.draw_gains_samples"),
        "channel.derive_s": per("channel.derive_s"),
        "runner.run_s": per("runner.run_s"),
        "runner.crossings_s": per("runner.crossings_s"),
        "runner.render_write_s": per("runner.render_write_s"),
        "cli.parse_s": (g("cli.main_s") - g("cli.run_in_main_s")) / passes,
    }
    for m in BER_METHODS:
        out[f"ber.{m}.calls"] = per(f"ber.{m}.calls")
        out[f"ber.{m}.failed"] = per(f"ber.{m}.failed")
        out[f"ber.{m}.s_per_call"] = ratio(f"ber.{m}.s", f"ber.{m}.calls")
    for metric in out:
        prefix = max((k for k in NEEDS if metric.startswith(k)), key=len, default=None)
        if prefix and not set(NEEDS[prefix]) <= set(installed):
            out[metric] = "unmeasured"
    return out
