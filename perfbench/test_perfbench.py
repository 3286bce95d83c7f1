"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def declared(section):
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return {m["name"] for m in json.load(fh)[section]}


def fake_body(steps, wall=1.0):
    for rec in steps:
        rec.setdefault("phase", "main")
    return {"steps": steps, "wall_s": wall, "peak_rss_mb": 100.0,
            "cache_checks": [(True, "")]}


def suite_rec(name, verdicts, error=None):
    return {"name": name, "kind": "suite", "s": 0.5, "error": error,
            "verdicts": verdicts}


PINNED = {"verdicts": {"clt-rate": [["a", True], ["b", False]]},
          "values": {"omega_inf_rows": 0.25}}


# --- every printed metric is declared ---------------------------------------

def test_end_to_end_metrics_are_declared():
    passes = [fake_body([])]
    assert set(run.end_to_end([1.0, 2.0, 3.0], passes)) == declared("end_to_end")


def test_benchmark_file_lists_workloads_and_names_once():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))


@pytest.fixture()
def traced(tmp_path, monkeypatch):
    """A real traced call sequence on small tables: cold, memo, disk."""
    monkeypatch.setenv("KACLAB_CACHE_DIR", str(tmp_path))
    import numpy as np
    from kaclab import chaos, experiments, kacsphere
    from kaclab.core import bimodal_density, gaussian_density

    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        f = bimodal_density()
        root = tracer.begin("experiments.entropy-chaos")
        table = experiments.sphere_table(f, 12, range(1, 13))
        experiments.sphere_table(f, 12, range(1, 13))
        tracer.end(root)
        experiments._TABLE_MEMO.clear()
        table = experiments.sphere_table(f, 12, range(1, 13))
        kacsphere.sample_conditioned(f, 12, 20, table,
                                     np.random.default_rng(0))
        chaos.omega_inf(chaos.sigma_sampler(), gaussian_density(), 8, 3)
    finally:
        tracer.uninstall()
        experiments._TABLE_MEMO.clear()
    return tracer


def test_per_layer_metrics_are_declared(traced):
    parts = [spans.totals(traced)] * 2
    untraced = fake_body([suite_rec("identities", [])])
    traced_pass = dict(fake_body([]), trace=parts)
    assert set(run.per_layer([untraced], traced_pass)) == declared("per_layer")


def test_layer_metrics_sum_over_processes(traced):
    one = spans.layer_metrics([spans.totals(traced)])
    two = spans.layer_metrics([spans.totals(traced)] * 2)
    for key, value in one.items():
        want = value if key.endswith("_share") else 2 * value
        assert two[key] == pytest.approx(want), key


def test_trace_counts_where_work_happens(traced):
    m = spans.layer_metrics([spans.totals(traced)])
    assert m["experiments.sphere_table.calls"] == 3
    assert (m["experiments.sphere_table.builds"],
            m["experiments.sphere_table.memo_hits"],
            m["experiments.sphere_table.disk_loads"]) == (1, 1, 1)
    assert m["kacsphere.save_table.calls"] == m["kacsphere.load_table.calls"] == 1
    assert m["kacsphere.save_table.bytes"] == m["kacsphere.load_table.bytes"] > 0
    assert m["kacsphere.irfft.calls"] == 12 and m["kacsphere.irfft.points"] > 0
    assert m["kacsphere.sample_conditioned.rows"] == 20
    assert m["transport.assignment.calls"] == 3
    assert m["core.gauss_quadrature.integrand_evals"] > 0


def bindings():
    import numpy as np
    import scipy.optimize
    from kaclab import chaos, experiments, kacsphere, transport
    return [experiments.sphere_table, chaos.marginal_gauss_l1,
            transport.linear_sum_assignment,
            scipy.optimize.linear_sum_assignment,
            kacsphere.PartitionTable.conv_density, np.fft.irfft]


def test_uninstall_restores_every_binding():
    before = bindings()
    tracer = spans.Tracer()
    spans.install(tracer)
    assert all(a is not b for a, b in zip(before, bindings()))
    tracer.uninstall()
    assert all(a is b for a, b in zip(before, bindings()))


# --- self times add up to the span totals -----------------------------------

def test_self_times_sum_to_root_spans(traced):
    calls, busy, self_s = spans.span_totals(traced.spans)
    assert sum(self_s.values()) == pytest.approx(
        spans.root_total(traced.spans), rel=1e-9, abs=1e-12)
    for name, s in self_s.items():
        assert s >= -1e-9, name
        assert s <= busy[name] + 1e-9, name


def test_recursive_spans_count_busy_time_once():
    spans_ = [["a", 0.0, 10.0, -1], ["b", 1.0, 9.0, 0], ["b", 2.0, 5.0, 1],
              ["c", 5.0, 6.0, 1], ["d", 11.0, 12.0, -1]]
    calls, busy, self_s = spans.span_totals(spans_)
    assert calls["b"] == 2 and busy["b"] == 8.0
    assert self_s == {"a": 2.0, "b": 7.0, "c": 1.0, "d": 1.0}
    assert sum(self_s.values()) == spans.root_total(spans_) == 11.0


# --- failed operations -------------------------------------------------------

def test_pinned_verdicts_pass():
    body = fake_body([suite_rec("clt-rate", [["a", True], ["b", False]])])
    assert run.score(body, PINNED)[:2] == (3, 0)


def test_flipped_verdict_is_a_failed_operation():
    # a check turning green counts as much as one turning red
    body = fake_body([suite_rec("clt-rate", [["a", True], ["b", True]])])
    attempted, failed, problems = run.score(body, PINNED)
    assert (attempted, failed) == (3, 1)
    assert "assertion 1" in problems[0]


def test_raised_suite_fails_each_pinned_assertion():
    body = fake_body([suite_rec("clt-rate", None, error="Traceback ...")])
    assert run.score(body, PINNED)[:2] == (3, 2)


def test_library_call_failures():
    def call(**kw):
        rec = {"name": "omega-inf-rows", "kind": "call", "s": 0.1,
               "error": None, "checks": [["in [0, 1]", True, ""]],
               "values": {"omega_inf_rows": 0.25}}
        rec.update(kw)
        return run.score(fake_body([rec]), PINNED)[:2]

    assert call() == (2, 0)
    assert call(error="Traceback ...") == (2, 1)
    assert call(checks=[["in [0, 1]", False, "1.5"]]) == (2, 1)
    assert call(values={"omega_inf_rows": 0.25 * (1 + 10 * wl.VALUE_RTOL)}) \
        == (2, 1)


def test_cache_violation_is_a_failed_operation(tmp_path):
    none, cold = wl.Phase("p", ()), wl.Phase("cold", (), new_tables=2)
    (tmp_path / ".cache").mkdir()
    assert not run.cache_check(none, {}, {}, tmp_path)[0]
    home = tmp_path / "clean"
    home.mkdir()
    primed = {"k.bin": (1, 1)}
    assert run.cache_check(none, {}, {}, home)[0]
    assert not run.cache_check(none, {}, {"t.bin": (1, 1)}, home)[0]
    assert run.cache_check(cold, primed, dict(primed, a=(1, 1), b=(1, 1)),
                           home)[0]
    assert not run.cache_check(cold, primed, dict(primed, a=(1, 1)), home)[0]
    assert not run.cache_check(cold, primed, {"k.bin": (1, 2), "a": (1, 1),
                                              "b": (1, 1)}, home)[0]
    assert not run.cache_check(none, primed, {}, home)[0]
    # the pass as a whole adds exactly the cold phase's two tables, but a
    # warm phase that rebuilds one of them fails its own check
    phases = wl.WORKLOADS["sphere"].phases
    cold_done = dict(primed, a=(5, 10), b=(5, 10))
    checks = run.cache_checks(phases, [primed, cold_done, cold_done], home)
    assert [ok for ok, _ in checks] == [True, True]
    rebuilt = dict(cold_done, a=(5, 20))
    checks = run.cache_checks(phases, [primed, cold_done, rebuilt], home)
    assert [ok for ok, _ in checks] == [True, False]
    assert "warm" in checks[1][1]
    body = fake_body([])
    body["cache_checks"] = checks
    assert run.score(body, PINNED)[:2] == (2, 1)
