"""Outside-in spans around calls into kaclab's layers.

A ``Tracer`` rebinds, for the life of one process, every name under which
kaclab's modules hold a traced function to a wrapper that records a span:
name, start, end and the span that was open when it began. Work counts are
recorded at the same boundaries. Spans stay in memory; ``layer_metrics``
reduces them to the per-layer metrics the benchmark declares.

Nothing in kaclab is edited: the wrappers are installed from here, around
calls into each module's public functions.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import workloads as wl


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self._open = []
        self._undo = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self._open.append(idx)
        self.spans.append([name, time.perf_counter(), None, parent])
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def innermost(self) -> str | None:
        return self.spans[self._open[-1]][0] if self._open else None

    def children(self, idx: int) -> list:
        """Names of the direct children of a span that has closed."""
        return [s[0] for s in self.spans[idx + 1:] if s[3] == idx]

    def wrap(self, layer: Layer, fn):
        """``fn`` inside a span named ``layer.span``, counting its work."""
        name = layer.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer.only_inside is not None \
                    and self.innermost() != layer.only_inside:
                return fn(*args, **kwargs)
            for suffix, hook in layer.during.items():
                args, kwargs = hook(self, f"{name}.{suffix}", args, kwargs)
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            for suffix, count in layer.counts.items():
                self.counts[f"{name}.{suffix}"] += count(
                    self, idx, args, kwargs, result)
            return result
        return traced

    def rebind(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind_everywhere(self, orig, wrapper, owners=()):
        """Replace ``orig`` wherever ``owners`` or a kaclab module binds
        it."""
        scan = {id(o): o for o in owners}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "kaclab" or mod_name.startswith("kaclab."):
                scan.setdefault(id(mod), mod)
        for owner in scan.values():
            for attr, value in list(vars(owner).items()):
                if value is orig:
                    self.rebind(owner, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# the kaclab layers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Layer:
    """One traced boundary and the metrics it reports.

    ``owners`` are dotted paths (a kaclab module name without its package,
    a class under one, or a numpy/scipy module) whose attribute ``attr``
    is wrapped; kaclab modules that imported the same function are
    rewrapped too. Each metric suffix is declared here once:
    ``counts`` maps a suffix to ``fn(tracer, idx, args, kwargs, result)``,
    added up after each call; ``during`` maps a suffix to a hook
    ``(tracer, key, args, kwargs) -> (args, kwargs)`` that counts work
    inside the call under ``key``; ``shares`` maps a suffix to
    ``fn(total)``, where ``total(suffix)`` is this span's summed count
    (or ``"calls"``).
    """
    span: str
    owners: tuple
    attr: str
    counts: dict = field(default_factory=dict)
    during: dict = field(default_factory=dict)
    shares: dict = field(default_factory=dict)
    self_timed: bool = False
    # trace only calls made directly inside this span
    only_inside: str | None = None


def _size(pos):
    return lambda t, i, a, k, r: np.size(a[pos])


def _count_integrand(tracer, key, args, kwargs):
    f = args[0]

    def counted(*a):
        tracer.counts[key] += 1
        return f(*a)
    return (counted,) + tuple(args[1:]), kwargs


def _table_source(tracer, idx):
    kids = tracer.children(idx)
    if "kacsphere.build_partition_table" in kids:
        return "build"
    return "disk" if "kacsphere.load_table" in kids else "memo"


def _outermost(fn):
    """Count only the outermost call; the sampler calls itself for
    resampled rows."""
    def count(tracer, idx, args, kwargs, result):
        parent = tracer.spans[idx][3]
        if parent >= 0 and tracer.spans[parent][0] == tracer.spans[idx][0]:
            return 0
        return fn(result)
    return count


def _ratio(num, den):
    return num / den if den else 0.0


def _plain(mod, fns):
    return [Layer(f"{mod}.{fn}", (mod,), fn) for fn in fns]


LAYERS = [
    Layer("transport.lp", ("transport",), "linprog",
          counts={"edges": _size(0)}),
    # chaos imports linear_sum_assignment from scipy.optimize at call time
    Layer("transport.assignment", ("transport", "scipy.optimize"),
          "linear_sum_assignment", counts={"cells": _size(0)}),
    Layer("transport.w1_discrete", ("transport",), "w1_discrete",
          self_timed=True),
    Layer("transport.w1_config", ("transport",), "w1_config"),
    Layer("core.gauss_quadrature", ("core",), "gauss_quadrature",
          during={"integrand_evals": _count_integrand}),
    Layer("kacsphere.marginal_gauss_l1", ("kacsphere",), "marginal_gauss_l1"),
    Layer("kacsphere.build_partition_table", ("kacsphere",),
          "build_partition_table", self_timed=True),
    Layer("kacsphere.save_table", ("kacsphere",), "save_table",
          counts={"bytes": lambda t, i, a, k, r: os.path.getsize(a[1])}),
    Layer("kacsphere.load_table", ("kacsphere",), "load_table",
          counts={"bytes": lambda t, i, a, k, r: os.path.getsize(a[0])}),
    Layer("kacsphere.theta", ("kacsphere",), "theta"),
    Layer("kacsphere.sample_conditioned", ("kacsphere",),
          "sample_conditioned", self_timed=True,
          counts={"rows": _outermost(lambda r: len(r.samples)),
                  "resampled_rows": _outermost(lambda r: r.n_resampled)},
          shares={"useful_share": lambda c: _ratio(
              c("rows"), c("rows") + c("resampled_rows"))}),
    Layer("experiments.sphere_table", ("experiments",), "sphere_table",
          counts={"memo_hits":
                  lambda t, i, a, k, r: _table_source(t, i) == "memo",
                  "disk_loads":
                  lambda t, i, a, k, r: _table_source(t, i) == "disk",
                  "builds":
                  lambda t, i, a, k, r: _table_source(t, i) == "build"},
          shares={"no_build_share": lambda c: _ratio(
              c("calls") - c("builds"), c("calls"))}),
    Layer("sobolev.phi_s", ("sobolev",), "phi_s",
          counts={"points": _size(0)}),
    *_plain("sobolev", ("make_hs_kernel", "hs_dist_sq",
                        "hs_dist_sq_fourier_oracle")),
    Layer("mixtures.definetti_cauchy_probe", ("mixtures",),
          "definetti_cauchy_probe", self_timed=True),
    *_plain("mixtures", ("marginal_entropy_curve", "level3_entropy")),
    *_plain("information", ("entropy", "relative_entropy", "fisher",
                            "relative_fisher", "entropy_knn", "hwi_check",
                            "superadditivity_check",
                            "fisher_superadditivity_grid")),
    *_plain("clt", ("iterate_clt", "iterate_clt_realspace")),
    Layer("chaos.omega_n", ("chaos",), "omega_n"),
    Layer("chaos.omega_inf", ("chaos",), "omega_inf", self_timed=True),
    *_plain("chaos", ("grunbaum_exact", "pushforward_identity_exact",
                      "omega1_counterexample")),
    # self is args[0], so the points are args[2]
    Layer("kacsphere.conv_density", ("kacsphere.PartitionTable",),
          "conv_density", counts={"points": _size(2)}),
    Layer("kacsphere.irfft", ("numpy.fft",), "irfft",
          only_inside="kacsphere.build_partition_table",
          counts={"points": lambda t, i, a, k, r: r.shape[-1]}),
]

# every suite the workloads run, in first-run order
SUITES = tuple(dict.fromkeys(
    suite for w in wl.WORKLOADS.values() for phase in w.phases
    for suite in phase.suites))


def _resolve(path: str):
    head, *rest = path.split(".")
    if head in ("numpy", "scipy"):
        return importlib.import_module(path)
    obj = sys.modules[f"kaclab.{head}"]
    for part in rest:
        obj = getattr(obj, part)
    return obj


def install(tracer: Tracer):
    """Trace every kaclab layer boundary; kaclab must already be imported."""
    for layer in LAYERS:
        owners = [_resolve(p) for p in layer.owners]
        orig = getattr(owners[0], layer.attr)
        tracer.rebind_everywhere(orig, tracer.wrap(layer, orig), owners)


def metric_names() -> list:
    """Every per-layer metric name ``layer_metrics`` reports, in order."""
    names = []
    for layer in LAYERS:
        names += [f"{layer.span}.calls", f"{layer.span}.s"]
        if layer.self_timed:
            names.append(f"{layer.span}.self_s")
        names += [f"{layer.span}.{c}"
                  for c in (*layer.counts, *layer.during, *layer.shares)]
    for suite in SUITES:
        names += [f"experiments.{suite}.s", f"experiments.{suite}.self_s"]
    return names


def span_totals(spans) -> tuple[dict, dict, dict]:
    """Per span name: call count, busy time and self time.

    Busy time sums the outermost spans of a name, so recursion is counted
    once; self time is a span's duration minus the part its direct children
    cover, so self times over all names add up to the root spans' total.
    """
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    for name, t0, t1, parent in spans:
        calls[name] += 1
        self_s[name] += t1 - t0
        if parent >= 0:
            self_s[spans[parent][0]] -= t1 - t0
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            busy[name] += t1 - t0
    return calls, busy, self_s


def totals(tracer: Tracer) -> dict:
    """What one process contributes to the layer metrics (JSON-able)."""
    calls, busy, self_s = span_totals(tracer.spans)
    return {"calls": calls, "s": busy, "self_s": self_s,
            "counts": tracer.counts, "root_s": root_total(tracer.spans),
            "n_spans": len(tracer.spans)}


def layer_metrics(parts: list) -> dict:
    """Every per-layer metric, summed over the processes of one pass."""
    def total(kind, key):
        return float(sum(p[kind].get(key, 0.0) for p in parts))

    def count(span, suffix):
        if suffix == "calls":
            return total("calls", span)
        return total("counts", f"{span}.{suffix}")

    out = {}
    for metric in metric_names():
        span, kind = metric.rsplit(".", 1)
        out[metric] = total(kind, span) if kind in ("calls", "s", "self_s") \
            else total("counts", metric)
    for layer in LAYERS:
        for suffix, fn in layer.shares.items():
            out[f"{layer.span}.{suffix}"] = fn(
                lambda c, span=layer.span: count(span, c))
    return out


def root_total(spans) -> float:
    return sum(t1 - t0 for _, t0, t1, parent in spans if parent < 0)
