"""Span tracing of tspec from outside the package.

:class:`Tracer` replaces every public function of each layer module (and the
two public methods the pipeline calls, ``DEvaluator.__call__`` and
``Potential.from_dict``) with a wrapper that records a span: name, parent
span, start and end. A name imported into another module is replaced there
too (``tspec.charfun.jost_at_zero_many``, ``tspec.pipeline.find_zeros``,
``tspec.cli.run_spectrum``, ...), so every call path is seen. Hooks attach
the counters that belong at a boundary (k values per Jost call, points per
winding round, converged Newton seeds, ...). :func:`layer_metrics` folds the
spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("jost", "charfun", "rootfind", "pipeline", "asymptotics", "gamma_recovery",
          "spectrumfile", "potential", "cli")
BANDS = 7           # b0..b6; b6 also holds every |k| >= 63
K_SMALL = 1e-3      # tspec.charfun.K_SMALL_DEFAULT: below it D takes the small-k path


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "info", "error")

    def __init__(self, sid, parent, name):
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = self.end = 0
        self.info = {}
        self.error = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * 1e-9


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _band(ks) -> str:
    bands = np.minimum(np.floor(np.log2(1.0 + np.abs(ks))), BANDS - 1).astype(int)
    return f"b{bands[0]}" if bands.size and np.all(bands == bands[0]) else "mixed"


# --- hooks: before(span, args, kwargs) -> (args, kwargs); after(span, args, kwargs, result)

def _jost_before(span, args, kwargs):
    ks = np.atleast_1d(np.asarray(_arg(args, kwargs, 1, "ks"), dtype=complex))
    span.info["k"] = ks.size
    span.info["band"] = _band(ks)
    return args, kwargs


def _points_before(span, args, kwargs):
    ks = np.atleast_1d(np.asarray(_arg(args, kwargs, 1, "ks"), dtype=complex))
    span.info["points"] = ks.size
    span.info["small"] = int(np.count_nonzero(np.abs(ks) < kwargs.get("k_small", K_SMALL)))
    return args, kwargs


def _counting_f(span, args, kwargs):
    """Swap the evaluated function for one that counts rounds and points."""
    f = args[0]
    span.info["rounds"] = span.info["points"] = 0

    def counted(ks):
        span.info["rounds"] += 1
        span.info["points"] += int(np.size(ks))
        return f(ks)

    return (counted,) + tuple(args[1:]), kwargs


def _newton_after(span, args, kwargs, result):
    if span.name.endswith("newton_refine_many"):
        mask = np.asarray(result[1], dtype=bool)
        span.info["seeds"], span.info["converged"] = mask.size, int(mask.sum())
    else:
        span.info["seeds"], span.info["converged"] = 1, int(bool(result[1]))


def _unresolved_after(span, args, kwargs, result):
    span.info["unresolved"] = len(result.unresolved)


def _unrefined_after(span, args, kwargs, result):
    zeros = result.zeros if hasattr(result, "zeros") else result
    span.info["unrefined"] = sum(1 for ev in zeros if not ev.refined)


def _truncation_after(span, args, kwargs, result):
    if hasattr(result, "truncation"):
        span.info["truncation"] = int(result.truncation)


def _bytes_after(span, args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    span.info["bytes"] = os.path.getsize(path)


HOOKS = {
    "jost.jost_at_zero_many": (_jost_before, None),
    "charfun.DEvaluator.__call__": (_points_before, None),
    "charfun.eval_D_many": (_points_before, None),
    "rootfind.winding_count": (_counting_f, None),
    "rootfind.newton_refine": (_counting_f, _newton_after),
    "rootfind.newton_refine_many": (_counting_f, _newton_after),
    "rootfind.find_zeros": (None, _unresolved_after),
    "pipeline.targeted_spectrum": (None, _unrefined_after),
    "pipeline.scan_spectrum": (None, _unrefined_after),
    "spectrumfile.write_spectrum": (None, _bytes_after),
    "spectrumfile.write_spectrum_csv": (None, _bytes_after),
    "spectrumfile.read_spectrum": (None, _bytes_after),
}


class Tracer:
    """Records spans in memory while installed; single-threaded by design."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        before, after = HOOKS.get(name, (None, None))
        spans, stack = self.spans, self._stack
        if name.startswith("gamma_recovery."):
            after = _truncation_after

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1].id if stack else None, name)
            spans.append(span)
            stack.append(span)
            if before is not None:
                args, kwargs = before(span, args, kwargs)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import tspec.cli  # noqa: F401 - loads every layer module

        modules = [m for name, m in sys.modules.items()
                   if (name == "tspec" or name.startswith("tspec.")) and m is not None]
        for layer in LAYERS:
            mod = sys.modules["tspec." + layer]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for other in modules:
                    for name, value in list(vars(other).items()):
                        if value is fn:
                            self._set(other, name, traced)
        from tspec.charfun import DEvaluator
        from tspec.potential import Potential

        self._set(DEvaluator, "__call__",
                  self._wrap("charfun.DEvaluator.__call__", DEvaluator.__dict__["__call__"]))
        self._set(Potential, "from_dict", classmethod(
            self._wrap("potential.Potential.from_dict", Potential.__dict__["from_dict"].__func__)))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics (value, unit) from the spans of one traced pass.

    ``<layer>.s`` is the time inside the layer's outermost spans; ``.self_s``
    subtracts the time covered by child spans of any layer.
    """
    child = defaultdict(int)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    for s in spans:
        self_s[s.layer] += (s.end - s.start - child[s.id]) * 1e-9
        anc = s.parent
        while anc is not None and spans[anc].layer != s.layer:
            anc = spans[anc].parent
        if anc is None:
            incl_s[s.layer] += s.seconds

    def named(suffix):
        return [s for s in spans if s.name.endswith(suffix)]

    m = {}
    jost = named("jost.jost_at_zero_many")
    jk = sum(s.info["k"] for s in jost)
    jt = sum(s.seconds for s in jost)
    m["jost.calls"] = (len(jost), "count")
    m["jost.k"] = (jk, "count")
    m["jost.k_per_call"] = (_ratio(jk, len(jost)), "k/call")
    m["jost.s"] = (incl_s["jost"], "s")
    m["jost.us_per_k"] = (1e6 * _ratio(jt, jk), "us/k")
    for band in [f"b{b}" for b in range(BANDS)] + ["mixed"]:
        sel = [s for s in jost if s.info["band"] == band]
        m[f"jost.us_per_k.{band}"] = (1e6 * _ratio(sum(s.seconds for s in sel),
                                                   sum(s.info["k"] for s in sel)), "us/k")
    m["jost.errors"] = (sum(1 for s in jost if s.error), "count")

    dcalls = named("DEvaluator.__call__")
    points = sum(s.info["points"] for s in dcalls)
    dcall_ids = {s.id for s in dcalls}
    evals = named("charfun.eval_D_many")
    misses = sum(s.info["points"] for s in evals if s.parent in dcall_ids)
    m["charfun.calls"] = (len(dcalls), "count")
    m["charfun.points"] = (points, "count")
    m["charfun.points_per_call"] = (_ratio(points, len(dcalls)), "pt/call")
    m["charfun.cache_hit_ratio"] = (_ratio(points - misses, points), "ratio")
    m["charfun.small_k_points"] = (sum(s.info["small"] for s in evals), "count")
    m["charfun.self_s"] = (self_s["charfun"], "s")

    wind = named("rootfind.winding_count")
    m["rootfind.winding.calls"] = (len(wind), "count")
    m["rootfind.winding.points"] = (sum(s.info["points"] for s in wind), "count")
    m["rootfind.winding.rounds"] = (sum(s.info["rounds"] for s in wind), "count")
    m["rootfind.winding.errors"] = (sum(1 for s in wind if s.error), "count")
    m["rootfind.winding.s"] = (sum(s.seconds for s in wind), "s")
    newton = named("rootfind.newton_refine") + named("rootfind.newton_refine_many")
    m["rootfind.newton.calls"] = (len(newton), "count")
    m["rootfind.newton.sweeps"] = (sum(s.info["rounds"] for s in newton), "count")
    m["rootfind.newton.points"] = (sum(s.info["points"] for s in newton), "count")
    m["rootfind.newton.converged_ratio"] = (
        _ratio(sum(s.info.get("converged", 0) for s in newton),
               sum(s.info.get("seeds", 0) for s in newton)), "ratio")
    fz = named("rootfind.find_zeros")
    m["rootfind.find_zeros.calls"] = (len(fz), "count")
    m["rootfind.find_zeros.unresolved"] = (sum(s.info.get("unresolved", 0) for s in fz), "count")
    m["rootfind.self_s"] = (self_s["rootfind"], "s")

    m["pipeline.fallbacks"] = (sum(1 for s in fz if s.parent is not None
                                   and spans[s.parent].name == "pipeline.targeted_spectrum"),
                               "count")
    m["pipeline.unrefined"] = (sum(s.info.get("unrefined", 0) for s in spans
                                   if s.layer == "pipeline"), "count")
    for key, fn in (("symmetry", "audit_symmetry"), ("contours", "audit_contours"),
                    ("residual", "audit_residual_decay"), ("gamma", "audit_gamma")):
        m[f"pipeline.audit.{key}.s"] = (sum(s.seconds for s in named("pipeline." + fn)), "s")
    m["pipeline.self_s"] = (self_s["pipeline"], "s")

    gamma = [s for s in spans if s.layer == "gamma_recovery"]
    m["asymptotics.s"] = (incl_s["asymptotics"], "s")
    m["gamma_recovery.s"] = (incl_s["gamma_recovery"], "s")
    m["gamma_recovery.truncation"] = (max((s.info.get("truncation", 0) for s in gamma),
                                          default=0), "count")
    m["gamma_recovery.unstable"] = (sum(1 for s in gamma if s.error == "UnstableLimitError"),
                                    "count")
    m["spectrumfile.s"] = (incl_s["spectrumfile"], "s")
    m["spectrumfile.bytes"] = (sum(s.info.get("bytes", 0) for s in spans
                                   if s.layer == "spectrumfile"), "B")
    m["potential.s"] = (incl_s["potential"], "s")
    m["cli.self_s"] = (self_s["cli"], "s")
    m["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    return m
