"""One fresh benchmark process: a set-up or a workload body.

Usage (from run.py, never by hand):
    python3 perfbench/child.py setup <workload> <suite_seed> <out.json>
    python3 perfbench/child.py body <workload> <suite_seed> <out.json> \
        <phase> [--trace]

The caller sets KACLAB_CACHE_DIR, HOME, PYTHONPATH and the BLAS thread
pins. The result is written as JSON to <out.json>.
"""
from __future__ import annotations

import time

_T_START = time.perf_counter()

import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from kaclab import chaos, experiments, kacsphere  # noqa: E402
from kaclab.core import bimodal_density, gaussian_density  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402

IMPORT_S = time.perf_counter() - _T_START


def _openblas_threads() -> dict:
    """Threads each loaded OpenBLAS reports, keyed by library file."""
    out = {}
    libs = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower() \
                        and ".so" in path:
                    libs.add(path)
    except OSError:   # no /proc: record the pins only
        return out
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "thread_pins": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")},
    }


def _step(name, kind, fn):
    """Run one step; an exception becomes the step's recorded error."""
    t0 = time.perf_counter()
    rec = {"name": name, "kind": kind, "error": None}
    try:
        rec.update(fn())
    except Exception:  # one failed operation; the workload goes on
        rec["error"] = traceback.format_exc(limit=4)
    rec["s"] = time.perf_counter() - t0
    return rec


def run_suite(name, seed, tracer):
    cfg = experiments.ExperimentConfig(experiment=name, seed=seed)
    if tracer is None:
        result = experiments.run_experiment(cfg)
    else:
        idx = tracer.begin(f"experiments.{name}")
        try:
            result = experiments.run_experiment(cfg)
        finally:
            tracer.end(idx)
    return {"verdicts": [[a.name, a.passed] for a in result.assertions]}


def _sphere_rows_check(rows, N):
    drift = float(np.max(np.abs(np.sum(rows ** 2, axis=1) - N)))
    return [["rows on the sphere: max |sum v^2 - N| <= 1e-9", drift <= 1e-9,
             f"{drift:.2e}"],
            ["shape and finiteness", rows.shape[1] == N
             and bool(np.all(np.isfinite(rows))), str(rows.shape)]]


def _estimate_check(est):
    return [["ChaosEstimate value in [0, 1]", 0.0 <= est.value <= 1.0,
             f"{est.value:.6g}"]]


def library_steps(seed):
    """The warm phase's library calls, each one operation."""
    f = bimodal_density()
    state = {}

    def load():
        table = experiments.sphere_table(f, wl.SAMPLER_N,
                                         range(1, wl.SAMPLER_N + 1))
        state["table"] = table
        ok = table.max_N == wl.SAMPLER_N and \
            tuple(table.ks) == tuple(range(1, wl.SAMPLER_N + 1))
        return {"checks": [["all-k table loaded", ok, str(table.max_N)]],
                "values": {}}

    rng = np.random.default_rng(np.random.SeedSequence([seed, 1001]))
    state["rows"] = []

    def sample(i):
        def go():
            draw = kacsphere.sample_conditioned(
                f, wl.SAMPLER_N, wl.SAMPLER_BATCH_ROWS, state["table"], rng)
            rows = draw.samples
            state["rows"].append(rows)
            return {"checks": _sphere_rows_check(rows, wl.SAMPLER_N),
                    "values": {
                        f"sample{i}.mean_abs": float(np.mean(np.abs(rows))),
                        f"sample{i}.mean_v4": float(np.mean(rows ** 4))},
                    "rows": len(rows)}
        return go

    def omega_rows():
        rows = iter(np.concatenate(state["rows"]))
        est = chaos.omega_inf(lambda N, r: next(rows), f, wl.SAMPLER_N,
                              wl.OMEGA_ROWS_REPS,
                              rng=np.random.default_rng([seed, 1002]))
        return {"checks": _estimate_check(est),
                "values": {"omega_inf_rows": est.value}}

    def omega_sphere():
        est = chaos.omega_inf(chaos.sigma_sampler(), gaussian_density(),
                              wl.OMEGA_SPHERE_N, wl.OMEGA_SPHERE_REPS,
                              rng=np.random.default_rng([seed, 1003]))
        return {"checks": _estimate_check(est),
                "values": {"omega_inf_sphere": est.value}}

    return ([("load-table", load)]
            + [(f"sample-conditioned-{i}", sample(i))
               for i in range(wl.SAMPLER_BATCHES)]
            + [("omega-inf-rows", omega_rows),
               ("omega-inf-sphere", omega_sphere)])


def run_body(phase, seed, trace):
    tracer = None
    if trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    steps = [(s, "suite", lambda s=s: run_suite(s, seed, tracer))
             for s in phase.suites]
    if phase.library_calls:
        steps += [(n, "call", fn) for n, fn in library_steps(seed)]
    t0 = time.perf_counter()
    records = [_step(name, kind, fn) for name, kind, fn in steps]
    wall = time.perf_counter() - t0
    for rec in records:
        rec["phase"] = phase.name
    out = {"wall_s": wall, "steps": records}
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = spans.totals(tracer)
    return out


def run_setup(workload):
    """Import, and for a primed workload build the table the body loads."""
    if workload.prime:
        experiments.sphere_table(bimodal_density(), wl.SAMPLER_N,
                                 range(1, wl.SAMPLER_N + 1))
    return {}


def main(argv):
    mode, name, seed, out_path = argv[:4]
    workload = wl.WORKLOADS[name]
    if mode == "setup":
        result = run_setup(workload)
    else:
        phase = workload.phases[int(argv[4])]
        result = run_body(phase, int(seed), "--trace" in argv[5:])
    result["import_s"] = IMPORT_S
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    with open(out_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
