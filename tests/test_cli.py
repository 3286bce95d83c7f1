import csv
import json
import os
import subprocess
import sys

import pytest

import kaclab
from kaclab import chaos, cli
from kaclab.cli import main
from kaclab.core import QuadratureError, SizeError
from kaclab.experiments import EXPERIMENTS

# the directory that holds the imported kaclab package, for the children
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(
    kaclab.__file__)))


def run_cli(args, env=None):
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, full_env.get("PYTHONPATH")]))
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "kaclab.cli", *args],
                          capture_output=True, text=True, env=full_env)


def test_list_contains_every_experiment(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out
    assert f"{len(EXPERIMENTS)} experiments" in out
    assert len(EXPERIMENTS) == 9


def test_unknown_experiment_is_usage_error(tmp_path):
    res = run_cli(["run", "no-such-thing",
                   "--output", str(tmp_path / "x")])
    assert res.returncode == 2


def test_bad_config_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    # threads was removed; foo is no density; 5 is no JSON object; then
    # one value of the wrong type or out of range per checked key
    for bad in ({"not_a_key": 1}, {"threads": 2}, {"density": "foo"}, 5,
                {"seed": "x"}, {"seed": 1.5}, {"mc_reps": "10"}, {"mc_reps": 1},
                {"mc_reps": 2.0}, {"mc_reps": -5}, {"seed": True},
                {"s": "1"}, {"s": 0.3}, {"k": True},
                {"k": 0}, {"k": 2}, {"ns": 5}, {"ns": [16, "32"]},
                {"ns": [8, 4, 16, 32, 64, 128]}, {"output": 3},
                {"format": "xml"}):
        cfg.write_text(json.dumps(bad))
        assert main(["run", "identities", "--config", str(cfg),
                     "--output", str(tmp_path / "x")]) == 2, bad
    # an N below the smallest each suite that reads ns can run
    for name, ns in (("clt-rate", "1,2,3,4,5,6"),
                     ("poincare-rate", "0,16,32,64"),
                     ("poincare-rate", "4,16,32,64"),
                     ("conditioned-products", "2,8,16,32"),
                     ("entropy-chaos", "2,8,16,32"),
                     ("omega1-counterexample", "1,8"),
                     ("mixtures", "0,8,16,32")):
        assert main(["run", name, "--ns", ns,
                     "--output", str(tmp_path / "x")]) == 2, (name, ns)


def test_run_writes_csv_and_json(tmp_path):
    stem = tmp_path / "kernels"
    assert main(["run", "kernel-oracles", "--output", str(stem)]) == 0
    csv_text = (tmp_path / "kernels.csv").read_text()
    assert csv_text.splitlines()[0] == \
        "experiment,N,quantity,value,stderr,meta"
    summary = json.loads((tmp_path / "kernels.json").read_text())
    assert summary["passed"] is True
    assert summary["experiment"] == "kernel-oracles"
    assert summary["assertions"]
    assert summary["wall_clock_seconds"] > 0


def test_kernel_oracles_names_the_checked_k(tmp_path):
    stem = tmp_path / "k6"
    assert main(["run", "kernel-oracles", "--k", "6", "--output",
                 str(stem)]) == 0
    names = [a["name"] for a in
             json.loads((tmp_path / "k6.json").read_text())["assertions"]]
    assert "W2 <= 2^{3/2} M_k^{1/k} W1^{1/2 - 1/k} (k = 6) over 500 pairs" \
        in names


def test_cli_import_skips_scipy_stats_and_signal():
    # stats, signal and integrate are not used, and importing stats or
    # signal costs about half a second of every run's start-up and of
    # perfbench's import-only setup_s
    code = ("import sys, kaclab.cli, kaclab.experiments; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.signal', "
            "'scipy.integrate') if m in sys.modules))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_suites_never_load_scipy_integrate():
    # the six suites that build no partition table, run in one child: no
    # suite path, the Fourier oracle's tail included, reaches an adaptive
    # quadrature
    code = ("import sys; from kaclab.experiments import ExperimentConfig, "
            "run_experiment\n"
            "for name in ('identities', 'kernel-oracles', 'clt-rate', "
            "'information-suite', 'omega1-counterexample', 'mixtures'):\n"
            "    run_experiment(ExperimentConfig(experiment=name))\n"
            "print('scipy.integrate' in sys.modules)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


# a small poincare-rate run: it draws its replicas from the seed
SEEDED_RUN = ["run", "poincare-rate", "--ns", "16,32,64,128",
              "--mc-reps", "50"]


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "mc_reps": 50}))
    stem = tmp_path / "pr"
    code = main(["run", "poincare-rate", "--config", str(cfg),
                 "--seed", "7", "--ns", "16,32,64,128", "--output", str(stem)])
    assert code == 0
    summary = json.loads((tmp_path / "pr.json").read_text())
    assert summary["config"]["seed"] == 7
    assert summary["config"]["mc_reps"] == 50
    assert summary["config"]["ns"] == [16, 32, 64, 128]


def test_seeded_runs_are_byte_identical(tmp_path):
    for stem, seed in (("a", "7"), ("b", "7"), ("c", "8")):
        assert main([*SEEDED_RUN, "--seed", seed,
                     "--output", str(tmp_path / stem)]) == 0
    a, b, c = ((tmp_path / f"{stem}.csv").read_bytes() for stem in "abc")
    assert a == b
    assert a != c


def test_removed_reference_size_is_usage_error(tmp_path, capsys):
    # omega1-counterexample draws nothing, so it has no reference sample
    # whose size could be set
    with pytest.raises(SystemExit) as exc:
        main(["run", "omega1-counterexample", "--reference-size", "8",
              "--output", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --reference-size" in \
        capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"reference_size": 8}))
    assert main(["run", "omega1-counterexample", "--config", str(cfg),
                 "--output", str(tmp_path / "x")]) == 2
    assert "unknown config keys: ['reference_size']" in \
        capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_cache_subcommand_is_a_usage_error(tmp_path):
    # suites build and save their tables on first use; there is no
    # ``kaclab cache`` command to build or clear them
    env = {"KACLAB_CACHE_DIR": str(tmp_path / "cache")}
    for args in (["cache", "build"], ["cache", "clear"]):
        res = run_cli(args, env=env)
        assert res.returncode == 2, res.stderr
        assert "invalid choice: 'cache'" in res.stderr
        assert "Traceback" not in res.stderr
    assert not (tmp_path / "cache").exists()


def test_uniform_conditioned_density_is_usage_error(tmp_path, capsys):
    # the uniform density breaks the partition table's hypotheses
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"density": "uniform"}))
    for args in (["--density", "uniform"], ["--config", str(cfg)]):
        code = main(["run", "conditioned-products", *args,
                     "--output", str(tmp_path / "cp")])
        assert code == 2
        assert "sixth moment" in capsys.readouterr().err
    assert not (tmp_path / "cp.csv").exists()


def test_too_few_replicas_or_ns_is_usage_error(tmp_path, capsys):
    # one replica gives no standard error; a rate fit needs four N values,
    # and clt-rate fits its skew tail from the third N on
    for name, args, message in (
            ("poincare-rate", ["--mc-reps", "1", "--ns", "16,32,64,128"],
             "mc_reps must be an int >= 2, got 1"),
            ("mixtures", ["--mc-reps", "0"], "mc_reps"),
            ("poincare-rate", ["--ns", "16,32"], "at least 4 ns values"),
            ("clt-rate", ["--ns", "4,8,16,32,64"], "at least 6 ns values"),
            ("clt-rate", ["--ns", "8,4,16,32,64,128"], "strictly increasing")):
        code = main(["run", name, *args, "--output", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2, args
        assert err.startswith("config error: ") and message in err
        assert not (tmp_path / "x.csv").exists()


def test_s_stops_at_the_largest_value_the_mixtures_suite_completes(
        tmp_path, capsys):
    # bisected on the mixtures suite: it completes up to s = 885.94, and
    # from 885.95 its pair expectation's quadrature raises QuadratureError;
    # s = inf and 1e300 ended in OverflowError, and s = 1e6 ran for minutes
    out = str(tmp_path / "x")
    assert main(["run", "mixtures", "--s", "885", "--output", out]) == 0
    capsys.readouterr()
    cfg = tmp_path / "cfg.json"
    for flag in ("885.5", "886", "1000", "1e300", "inf", "-inf", "nan"):
        assert main(["run", "mixtures", f"--s={flag}", "--output", out]) == 2
        assert "s must be a number in [1, 885]" in capsys.readouterr().err
    for bad in (1000, 1e300, 1e6, float("inf")):
        cfg.write_text(json.dumps({"s": bad}))
        assert main(["run", "mixtures", "--config", str(cfg),
                     "--output", out]) == 2, bad
        assert "s must be a number in [1, 885]" in capsys.readouterr().err


def test_mc_reps_follows_the_library_replica_rule(tmp_path, capsys,
                                                 monkeypatch):
    # the CLI refuses a replica count exactly when core.check_reps does
    seen = []

    def three_or_more(count):
        seen.append(count)
        if count < 3:
            raise SizeError(f"need 3 draws, got {count}")
    monkeypatch.setattr(cli, "check_reps", three_or_more)
    code = main(["run", "poincare-rate", "--mc-reps", "2",
                 "--output", str(tmp_path / "x")])
    assert code == 2 and seen == [2]
    assert "mc_reps must be an int >= 2, got 2" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_poincare_rate_projection_rows_are_exact_and_mc_reps_is_unclamped(
        tmp_path, monkeypatch):
    # the radial-projection rows draw nothing; --mc-reps is the replica
    # count of the coupled omega_N rows, passed on as given
    seen = []
    omega_n = chaos.omega_n

    def recording(sampler, f, N, mc_reps, rng):
        seen.append(mc_reps)
        return omega_n(sampler, f, N, 2, rng)
    monkeypatch.setattr(chaos, "omega_n", recording)
    rows = []
    for seed in ("424242", "4518"):
        stem = tmp_path / seed
        main(["run", "poincare-rate", "--ns", "16,32,64,128", "--mc-reps",
              "500", "--seed", seed, "--output", str(stem)])
        with open(f"{stem}.csv", newline="") as fh:
            rows.append([r for r in csv.DictReader(fh)
                         if r["quantity"] == "radial_projection_l1"])
    assert seen == [500] * 8
    assert rows[0] == rows[1] and len(rows[0]) == 4
    assert all(r["stderr"] == "0" for r in rows[0])


def test_mixtures_entropy_rows_are_exact_at_every_seed(tmp_path):
    # the mixtures suite draws nothing, so neither the seed nor the
    # replica count can move a byte of its CSV
    rows, csvs = [], []
    for i, args in enumerate((["--seed", "424242"], ["--seed", "4518"],
                              ["--seed", "424242", "--mc-reps", "50"])):
        stem = tmp_path / f"mx{i}"
        assert main(["run", "mixtures", *args, "--output", str(stem)]) == 0
        with open(f"{stem}.csv", newline="") as fh:
            rows.append([r for r in csv.DictReader(fh)
                         if r["quantity"] == "marginal_entropy"])
        csvs.append((tmp_path / f"mx{i}.csv").read_bytes())
    assert len(rows[0]) == 12
    assert all(float(r["stderr"]) == 0.0 for r in rows[0])
    assert csvs[1] == csvs[0] and csvs[2] == csvs[0]


def test_internal_library_error_is_not_usage_error(tmp_path, monkeypatch):
    # a fault detected inside the library is no bad input: it must not be
    # reported as exit 2 but surface with its traceback
    def broken(cfg):
        raise QuadratureError("did not converge", 0.0, 1.0)
    monkeypatch.setattr(cli, "run_experiment", broken)
    with pytest.raises(QuadratureError):
        main(["run", "identities", "--output", str(tmp_path / "x")])


def test_failing_experiment_exits_one(tmp_path, monkeypatch):
    # the entropy-chaos window assertion is an expected red: the measured
    # decay is faster than the asserted two-sided window
    stem = tmp_path / "ec"
    code = main(["run", "entropy-chaos", "--output", str(stem)])
    summary = json.loads((tmp_path / "ec.json").read_text())
    failing = [a for a in summary["assertions"] if not a["passed"]]
    assert code == (1 if failing else 0)
    if failing:
        assert "slope" in failing[0]["detail"]


def test_seeded_runs_are_byte_identical_across_processes(tmp_path):
    for stem, seed in (("p1", "4518"), ("p2", "4518"), ("p3", "4519")):
        res = run_cli([*SEEDED_RUN, "--seed", seed,
                       "--output", str(tmp_path / stem)])
        assert res.returncode == 0, res.stderr
    p1, p2, p3 = ((tmp_path / f"p{i}.csv").read_bytes() for i in (1, 2, 3))
    assert p1 == p2
    assert p1 != p3
