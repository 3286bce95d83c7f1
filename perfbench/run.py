"""kaclab benchmark: suite wall times, a verdict gate and a layer trace.

    python3 perfbench/run.py --workload oracles --seed 1 --seconds 20 --trace 0

Run from any directory; the program is taken from ``src/`` next to this
directory. Every set-up and every phase of a body pass runs in a fresh
single-threaded child process (perfbench/child.py); each set-up and each
pass gets its own KACLAB_CACHE_DIR and HOME under ``.perfbench-work/``,
which is removed at the end. Body passes repeat until they have measured
``--seconds``.

``--trace 0`` prints the end-to-end metrics: setup_s, wall_s, peak_rss_mb
(medians over set-ups and over body passes). ``--trace 1`` prints the
per-layer metrics of one traced body pass, the untraced step times, and the
tracing overhead (traced wall minus the untraced median wall).

Every suite assertion is one operation and must give its pinned verdict
(pinned.json, written by pin.py); every library call is one operation and
must pass its output checks; every phase of a body pass has one cache
check. The last stdout line is the result JSON; the line before it records
the environment.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
PINNED = HERE / "pinned.json"
RUN_BUDGET_S = 170.0
# set-up samples per untraced run; their median is setup_s
SETUPS = 3


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class Runner:
    def __init__(self, workload: wl.Workload, seed: int, tmp: Path):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env_record = None

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.tmp))

    def child(self, mode: str, cache: Path, home: Path, extra=()) -> dict:
        out = self.fresh_dir("out") / "result.json"
        env = dict(os.environ)
        env.update({
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONDONTWRITEBYTECODE": "1",
            "PYTHONHASHSEED": "0",
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
            "KACLAB_CACHE_DIR": str(cache),
            "HOME": str(home),
        })
        cmd = [sys.executable, str(HERE / "child.py"), mode,
               self.workload.name, str(self.seed), str(out), *extra]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run budget exhausted")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} child exceeded the run budget") from exc
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
        with open(out) as fh:
            result = json.load(fh)
        result["process_s"] = elapsed
        self.env_record = result["env"]
        return result

    def setup(self) -> tuple[float, Path]:
        """One set-up sample: its process wall time and its cache dir."""
        cache = self.fresh_dir("cache")
        result = self.child("setup", cache, self.fresh_dir("home"))
        return result["process_s"], cache

    def body(self, primed: Path, trace=False) -> dict:
        """One body pass: every phase in order, on a copy of ``primed``."""
        cache = self.fresh_dir("cache")
        for path in primed.iterdir():
            shutil.copy2(path, cache)
        home = self.fresh_dir("home")
        snaps = [snapshot(cache)]
        flags = ["--trace"] if trace else []
        phases = []
        for i in range(len(self.workload.phases)):
            phases.append(self.child("body", cache, home, [str(i), *flags]))
            snaps.append(snapshot(cache))
        checks = cache_checks(self.workload.phases, snaps, home)
        shutil.rmtree(cache)
        out = {"wall_s": sum(p["wall_s"] for p in phases),
               "peak_rss_mb": max(p["peak_rss_mb"] for p in phases),
               "steps": [rec for p in phases for rec in p["steps"]],
               "cache_checks": checks}
        if trace:
            out["trace"] = [p["trace"] for p in phases]
        return out


def snapshot(cache: Path) -> dict:
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns)
            for p in cache.iterdir()}


def cache_checks(phases, snaps: list, home: Path) -> list:
    """(ok, detail) for each phase, from the cache snapshots taken before
    the first phase and after each one."""
    return [cache_check(phase, before, after, home)
            for phase, before, after in zip(phases, snaps, snaps[1:])]


def cache_check(phase: wl.Phase, before: dict, after: dict, home: Path):
    """(ok, detail) for the cache state one phase left behind."""
    if (home / ".cache").exists():
        return False, f"{phase.name}: wrote under HOME/.cache"
    changed = [n for n, stat in before.items() if after.get(n) != stat]
    if changed:
        return False, f"{phase.name}: rewrote or removed {changed}"
    added = len(after) - len(before)
    return (added == phase.new_tables,
            f"{phase.name}: {added} new files, expected {phase.new_tables}")


def score(body: dict, pinned: dict) -> tuple[int, int, list]:
    """Operations attempted and failed in one body pass, with reasons.

    A suite contributes one operation per pinned assertion; an assertion
    fails if the suite raised or its verdict differs from the pinned one.
    A library call is one operation that fails if it raised, if an output
    check failed or if a recorded value moved beyond VALUE_RTOL. The cache
    check of each phase is one more operation.
    """
    attempted = failed = 0
    problems = []
    for rec in body["steps"]:
        name = rec["name"]
        if rec["kind"] == "suite":
            want = pinned["verdicts"][name]
            got = rec.get("verdicts") or []
            attempted += max(len(want), len(got))
            for i in range(max(len(want), len(got))):
                if rec["error"] or i >= len(want) or i >= len(got) \
                        or list(got[i]) != list(want[i]):
                    failed += 1
                    problems.append(f"{name}: assertion {i} "
                                    f"{got[i] if i < len(got) else 'missing'}"
                                    f" != pinned "
                                    f"{want[i] if i < len(want) else 'none'}")
            if rec["error"]:
                problems.append(f"{name} raised:\n{rec['error']}")
            continue
        attempted += 1
        bad = [rec["error"]] if rec["error"] else []
        bad += [f"check {c[0]} ({c[2]})" for c in rec.get("checks", [])
                if not c[1]]
        for key, value in rec.get("values", {}).items():
            ref = pinned["values"].get(key)
            if ref is None or not math.isclose(value, ref,
                                               rel_tol=wl.VALUE_RTOL):
                bad.append(f"{key} = {value!r}, recorded {ref!r}")
        if bad:
            failed += 1
            problems.append(f"{name}: " + "; ".join(bad))
    for ok, detail in body["cache_checks"]:
        attempted += 1
        if not ok:
            failed += 1
            problems.append(f"cache check: {detail}")
    return attempted, failed, problems


def step_times(body: dict) -> dict:
    """untraced.<metric> values of one body pass (0 for absent steps)."""
    out = {f"untraced.{m}": 0.0 for m in wl.STEP_METRICS.values()}
    rows = sampler_s = omega_s = 0.0
    for rec in body["steps"]:
        metric = wl.STEP_METRICS.get((rec["phase"], rec["name"]))
        if metric:
            out[f"untraced.{metric}"] = rec["s"]
        elif rec["name"].startswith("sample-conditioned"):
            rows += rec.get("rows", 0)
            sampler_s += rec["s"]
        elif rec["name"].startswith("omega-inf"):
            omega_s += rec["s"]
    out["untraced.sampler_rows_per_s"] = rows / sampler_s if sampler_s else 0.0
    out["untraced.omega_inf_s"] = omega_s
    out["untraced.wall_s"] = body["wall_s"]
    return out


def untraced_passes(runner: Runner, primed: Path, seconds: float):
    passes = []
    while not passes or sum(p["wall_s"] for p in passes) < seconds:
        passes.append(runner.body(primed))
    return passes


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def end_to_end(setups: list, passes: list) -> dict:
    return {"setup_s": statistics.median(setups),
            "wall_s": median_of(passes, "wall_s"),
            "peak_rss_mb": median_of(passes, "peak_rss_mb")}


def per_layer(untraced: list, traced: dict) -> dict:
    """Layer metrics of the traced pass, untraced step medians, overhead."""
    out = spans.layer_metrics(traced["trace"])
    steps = [step_times(p) for p in untraced]
    for key in steps[0]:
        out[key] = statistics.median(s[key] for s in steps)
    out["trace.wall_s"] = traced["wall_s"]
    out["trace.overhead_s"] = traced["wall_s"] - out["untraced.wall_s"]
    out["trace.self_sum_s"] = sum(t["root_s"] for t in traced["trace"])
    out["trace.spans"] = float(sum(t["n_spans"] for t in traced["trace"]))
    return out


def run(workload: wl.Workload, seed: int, seconds: float, trace: bool,
        tmp: Path, pinned: dict) -> dict:
    runner = Runner(workload, wl.suite_seed(seed), tmp)
    # a traced run reports no setup_s but its body still needs a set-up
    setups = [runner.setup() for _ in range(1 if trace else SETUPS)]
    primed = setups[0][1]
    passes = untraced_passes(runner, primed, seconds)
    if trace:
        passes.append(runner.body(primed, trace=True))

    attempted = failed = 0
    for body in passes:
        a, f, problems = score(body, pinned)
        attempted += a
        failed += f
        for line in problems:
            print(line, file=sys.stderr)

    if trace:
        section, metrics = "per_layer", per_layer(passes[:-1], passes[-1])
    else:
        section, metrics = "end_to_end", end_to_end(
            [s for s, _ in setups], passes)
    units = declared_units(section)
    print(json.dumps({"env": runner.env_record, "workload": workload.name,
                      "seed": seed, "suite_seed": runner.seed,
                      "passes": len(passes), "setups": len(setups)}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }


def declared_units(section: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "kaclab" / "__init__.py").is_file():
        print(f"no kaclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(PINNED) as fh:
        pinned = json.load(fh)[str(wl.suite_seed(args.seed))]
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        result = run(wl.WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), tmp, pinned)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:   # another run is using it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
