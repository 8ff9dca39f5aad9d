"""Span tracing of the delaylattice layers, installed from outside the package.

Each hook replaces a public module attribute with a wrapper that records a
span (name, start, end, parent) and, through an optional callback, counts
taken from the call's arguments and result. The wrapper is installed on
every module attribute the package looks the name up through at call time
(for example ``delaylattice.sl.find_roots_quasipoly``, which ``sl`` imported
by name), so calls made inside the package are seen too.

Spans are kept in memory; ``write_spans`` stores them when the run ends.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

_now = time.perf_counter


class Tracer:
    """In-memory span recorder for one process, single-threaded."""

    def __init__(self):
        self.enabled = False
        self.reset()

    def reset(self):
        self.spans: list = []        # [name, start, end, parent_index]
        self.counts: dict = defaultdict(float)
        self.maxima: dict = {}
        self.minima: dict = {}
        self._stack: list = []

    def add(self, key: str, value: float = 1.0):
        self.counts[key] += value

    def record_max(self, key: str, value: float):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def record_min(self, key: str, value: float):
        self.minima[key] = min(self.minima.get(key, value), value)

    def call(self, name: str, fn: Callable, args, kwargs):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        rec = [name, _now(), math.nan, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.counts[name + ".failed"] += 1
            raise
        finally:
            rec[2] = _now()
            self._stack.pop()


def self_times(spans) -> list:
    """Self time of every span: its duration minus the part of its interval
    that the union of its direct children covers."""
    children = defaultdict(list)
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def span_totals(spans) -> dict:
    """Per span name: calls, busy_s (outermost spans of that name only, so
    recursion is not counted twice) and self_s."""
    selfs = self_times(spans)
    totals = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent) in enumerate(spans):
        t = totals[name]
        t["calls"] += 1
        t["self_s"] += selfs[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            t["busy_s"] += end - start
    return dict(totals)


def write_spans(spans, path) -> None:
    with open(path, "w") as fh:
        fh.write("index,name,start_s,end_s,parent\n")
        t0 = spans[0][1] if spans else 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


# ---------------------------------------------------------------------------
# the hook table

class TracedHistory:
    """Wraps a simulation history so each state/deriv read is a span."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def state(self, t):
        return self._tracer.call("dde.history", self._inner.state, (t,), {})

    def deriv(self, t):
        return self._tracer.call("dde.history", self._inner.deriv, (t,), {})


def _arg(args, kwargs, pos: int, key: str, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _roots_after(tr, args, kwargs, result):
    nx, ny = _arg(args, kwargs, 2, "grid", (40, 40))
    tr.add("roots.seeds", nx * ny)
    tr.add("roots.roots_kept", len(result))


def _stst_after(tr, args, kwargs, result):
    tr.add("sl.stst_roots_kept", len(result))


def _waves_after(tr, args, kwargs, result):
    tr.add("sl.waves_found", len(result))


def _hopf_points_after(tr, args, kwargs, result):
    nv, nw = _arg(args, kwargs, 7, "n_seeds", (50, 50))
    tr.add("fhn.hopf_seeds", nv * nw)
    tr.add("fhn.hopf_points_found", len(result))


def _simulate_before(tr, args, kwargs):
    """Route the history through TracedHistory and count the work that the
    integrator's documented stepping rule implies."""
    args = list(args)
    if "init" in kwargs:
        kwargs["init"] = TracedHistory(kwargs["init"], tr)
    else:
        args[2] = TracedHistory(args[2], tr)
    spec, delays = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "delays")
    t_end = _arg(args, kwargs, 3, "t_end")
    dt = _arg(args, kwargs, 4, "dt")
    if dt is None:
        from delaylattice.dde import DEFAULT_DT_CAP
        dt = min(DEFAULT_DT_CAP, delays.min_delay / 8.0)
    store_full = _arg(args, kwargs, 6, "store_full", False)
    n_steps = int(math.ceil(t_end / dt - 1e-9))
    n_nodes = spec.rows * spec.cols
    H = int(math.ceil(delays.max_delay / dt)) + 2
    slots = H + n_steps + 1 if store_full else H + 4
    # state and derivative rings: complex (16 B) for SL, 3 float64 for FHN
    per_node = 16 if spec.state_dim == 2 else 24
    tr.add("dde.steps", n_steps)
    tr.add("dde.node_steps", n_steps * n_nodes)
    tr.record_max("dde.ring_bytes", 2.0 * slots * n_nodes * per_node)
    return tuple(args), kwargs


def _verify_after(tr, args, kwargs, result):
    if result.correlation is not None:
        tr.record_min("pattern.correlation_min", result.correlation)


@dataclass(frozen=True)
class Hook:
    """One traced public name: the metric name, the attribute that defines
    it, and every module attribute it is looked up through at call time."""
    name: str
    targets: tuple                      # ("delaylattice.sl", "find_roots_quasipoly"), ...
    before: Optional[Callable] = None   # (tracer, args, kwargs) -> (args, kwargs)
    after: Optional[Callable] = None    # (tracer, args, kwargs, result) -> None


HOOKS = (
    Hook("roots.find_roots_quasipoly",
         (("delaylattice.sl", "find_roots_quasipoly"),
          ("delaylattice.fhn", "find_roots_quasipoly")), after=_roots_after),
    Hook("roots.solve_kepler", (("delaylattice.sl", "solve_kepler"),)),
    Hook("lambertw.lambert_w_log", (("delaylattice.sl", "lambert_w_log"),)),
    Hook("sl.sl_floquet_exact", (("delaylattice.sl", "sl_floquet_exact"),)),
    Hook("sl.sl_stst_eigenvalues", (("delaylattice.sl", "sl_stst_eigenvalues"),),
         after=_stst_after),
    Hook("sl.sl_enumerate_plane_waves",
         (("delaylattice.sl", "sl_enumerate_plane_waves"),), after=_waves_after),
    Hook("sl.sl_hopf_threshold", (("delaylattice.sl", "sl_hopf_threshold"),)),
    Hook("fhn.fhn_hopf_points", (("delaylattice.fhn", "fhn_hopf_points"),),
         after=_hopf_points_after),
    Hook("fhn.fhn_char_roots", (("delaylattice.fhn", "fhn_char_roots"),)),
    Hook("fhn.fhn_steady_states", (("delaylattice.fhn", "fhn_steady_states"),)),
    Hook("dde.simulate", (("delaylattice.dde", "simulate"),),
         before=_simulate_before),
    Hook("dde.detect_spikes", (("delaylattice.dde", "detect_spikes"),
                               ("delaylattice.pattern", "detect_spikes"))),
    Hook("dde.estimate_orbit_period",
         (("delaylattice.dde", "estimate_orbit_period"),)),
    Hook("pattern.eta_from_image", (("delaylattice.pattern", "eta_from_image"),)),
    Hook("pattern.delays_from_timeshifts",
         (("delaylattice.pattern", "delays_from_timeshifts"),)),
    Hook("pattern.verify_pattern", (("delaylattice.pattern", "verify_pattern"),),
         after=_verify_after),
    Hook("pattern.read_pgm", (("delaylattice.pattern", "read_pgm"),)),
    Hook("pattern.write_pgm", (("delaylattice.pattern", "write_pgm"),)),
    Hook("cli.encode", (("delaylattice.cli", "cmd_encode"),)),
    Hook("cli.simulate", (("delaylattice.cli", "cmd_simulate"),)),
    Hook("cli.verify", (("delaylattice.cli", "cmd_verify"),)),
    Hook("core.parse_config", (("delaylattice.core", "parse_config"),)),
)


def _make_wrapper(hook: Hook, fn: Callable, tracer: Tracer) -> Callable:
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if hook.before is not None:
            args, kwargs = hook.before(tracer, args, kwargs)
        result = tracer.call(hook.name, fn, args, kwargs)
        if hook.after is not None:
            hook.after(tracer, args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", hook.name)
    return wrapper


def install(tracer: Tracer, hooks=HOOKS) -> Callable:
    """Install every hook and return a function that removes them.

    Raises RuntimeError naming each hooked attribute that no longer exists,
    or that is bound to a different object than the other targets of its
    hook, since the trace would otherwise silently miss that layer."""
    problems = []
    originals = []
    for hook in hooks:
        fns = []
        for mod_name, attr in hook.targets:
            mod = importlib.import_module(mod_name)
            if not hasattr(mod, attr):
                problems.append(f"{mod_name}.{attr} (hook {hook.name}) is gone")
                continue
            fns.append((mod, attr, getattr(mod, attr)))
        if len({id(f) for _, _, f in fns}) > 1:
            problems.append(f"targets of hook {hook.name} are different objects")
        originals.append((hook, fns))
    if problems:
        raise RuntimeError("cannot trace: " + "; ".join(problems))
    for hook, fns in originals:
        wrapper = _make_wrapper(hook, fns[0][2], tracer)
        for mod, attr, _ in fns:
            setattr(mod, attr, wrapper)

    def uninstall():
        for _, fns in originals:
            for mod, attr, fn in fns:
                setattr(mod, attr, fn)

    return uninstall


# ---------------------------------------------------------------------------
# per-layer metrics of one traced repetition

def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, extra_counts: dict) -> dict:
    """Per-layer metric values (no units) for one traced repetition."""
    totals = span_totals(tracer.spans)
    c = dict(tracer.counts)
    c.update(extra_counts)

    def tot(name, field):
        return totals.get(name, {}).get(field, 0.0)

    m = {}
    m["roots.find_roots_quasipoly.calls"] = tot("roots.find_roots_quasipoly", "calls")
    m["roots.find_roots_quasipoly.busy_s"] = tot("roots.find_roots_quasipoly", "busy_s")
    m["roots.seeds"] = c.get("roots.seeds", 0.0)
    m["roots.roots_kept"] = c.get("roots.roots_kept", 0.0)
    m["roots.roots_per_seed"] = _ratio(m["roots.roots_kept"], m["roots.seeds"])
    m["roots.solve_kepler.calls"] = tot("roots.solve_kepler", "calls")
    m["roots.solve_kepler.busy_s"] = tot("roots.solve_kepler", "busy_s")

    m["lambertw.lambert_w_log.calls"] = tot("lambertw.lambert_w_log", "calls")
    m["lambertw.lambert_w_log.busy_s"] = tot("lambertw.lambert_w_log", "busy_s")
    m["lambertw.lambert_w_log.failed"] = c.get("lambertw.lambert_w_log.failed", 0.0)

    for fn in ("sl_floquet_exact", "sl_stst_eigenvalues",
               "sl_enumerate_plane_waves", "sl_hopf_threshold"):
        for field in ("calls", "busy_s", "self_s"):
            m[f"sl.{fn}.{field}"] = tot(f"sl.{fn}", field)
    m["sl.stst_roots_kept_per_branch"] = _ratio(
        c.get("sl.stst_roots_kept", 0.0), m["lambertw.lambert_w_log.calls"])
    m["sl.waves_found"] = c.get("sl.waves_found", 0.0)
    m["sl.verdicts_per_s"] = _ratio(m["sl.sl_floquet_exact.calls"],
                                    m["sl.sl_floquet_exact.busy_s"])

    for fn in ("fhn_hopf_points", "fhn_char_roots", "fhn_steady_states"):
        for field in ("calls", "busy_s", "self_s"):
            m[f"fhn.{fn}.{field}"] = tot(f"fhn.{fn}", field)
    m["fhn.hopf_points_found"] = c.get("fhn.hopf_points_found", 0.0)
    m["fhn.hopf_seed_yield"] = _ratio(m["fhn.hopf_points_found"],
                                      c.get("fhn.hopf_seeds", 0.0))

    for field in ("calls", "busy_s", "self_s"):
        m[f"dde.simulate.{field}"] = tot("dde.simulate", field)
    m["dde.steps"] = c.get("dde.steps", 0.0)
    m["dde.node_steps"] = c.get("dde.node_steps", 0.0)
    m["dde.node_steps_per_s"] = _ratio(m["dde.node_steps"], m["dde.simulate.busy_s"])
    m["dde.ring_bytes"] = tracer.maxima.get("dde.ring_bytes", 0.0)
    m["dde.history.calls"] = tot("dde.history", "calls")
    m["dde.history.busy_s"] = tot("dde.history", "busy_s")
    m["dde.detect_spikes.busy_s"] = tot("dde.detect_spikes", "busy_s")
    m["dde.estimate_orbit_period.busy_s"] = tot("dde.estimate_orbit_period", "busy_s")

    for fn in ("eta_from_image", "delays_from_timeshifts", "verify_pattern",
               "read_pgm", "write_pgm"):
        m[f"pattern.{fn}.busy_s"] = tot(f"pattern.{fn}", "busy_s")
    m["pattern.correlation_min"] = tracer.minima.get("pattern.correlation_min", 0.0)

    for cmd in ("encode", "simulate", "verify"):
        m[f"cli.{cmd}.busy_s"] = tot(f"cli.{cmd}", "busy_s")
        m[f"cli.{cmd}.self_s"] = tot(f"cli.{cmd}", "self_s")
    m["cli.bytes_written"] = c.get("cli.bytes_written", 0.0)
    cli_self = sum(m[f"cli.{cmd}.self_s"] for cmd in ("encode", "simulate", "verify"))
    m["cli.write_MBps"] = _ratio(m["cli.bytes_written"] / 1e6, cli_self)
    m["core.parse_config.calls"] = tot("core.parse_config", "calls")
    m["core.parse_config.busy_s"] = tot("core.parse_config", "busy_s")

    m["trace.self_coverage"] = _ratio(sum(t["self_s"] for t in totals.values()),
                                      wall_s)
    return m


UNITS = {"busy_s": "s", "self_s": "s"}


def unit_of(metric: str) -> str:
    leaf = metric.rsplit(".", 1)[-1]
    if leaf in UNITS:
        return UNITS[leaf]
    return {
        "roots.roots_per_seed": "ratio",
        "sl.stst_roots_kept_per_branch": "ratio",
        "sl.verdicts_per_s": "1/s",
        "fhn.hopf_seed_yield": "ratio",
        "dde.node_steps_per_s": "1/s",
        "dde.ring_bytes": "bytes_computed",
        "pattern.correlation_min": "ratio",
        "cli.bytes_written": "bytes",
        "cli.write_MBps": "MB/s",
        "trace.overhead_ratio": "ratio",
        "trace.self_coverage": "ratio",
    }.get(metric, "count")
