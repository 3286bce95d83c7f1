"""Experiment runner CLI.

Subcommands: ``run <name>`` executes one named experiment and writes a CSV
of rows plus a JSON summary; ``list`` prints the registry. Configuration
comes from an optional JSON config file with command-line flags winning
over file values. Exit codes: 0 all assertions passed, 1 an assertion
failed, 2 usage error (including a config value out of range, such as too
few replicas, or N values out of order or too small) or input that breaks
a hypothesis of the experiment (``HypothesisError``).
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys

from .core import HypothesisError, KaclabError, check_reps, is_int
from .experiments import (DENSITIES, EXPERIMENTS, ExperimentConfig,
                          ExperimentResult, run_experiment)
from .sobolev import S_MAX, _check_exponent

_USAGE_ERROR = 2


def _is_number(v) -> bool:
    return is_int(v) or isinstance(v, float)


def _passes(check, v) -> bool:
    """True unless the library check refuses v with a ``KaclabError``."""
    try:
        check(v)
    except KaclabError:
        return False
    return True


# what each config value must be; None is the default of the optional ones
_CONFIG_VALUES = {
    "density": (f"one of {', '.join(DENSITIES)}", lambda v: v in DENSITIES),
    "seed": ("an int", is_int),
    # a Monte Carlo standard error needs two replicas
    "mc_reps": ("an int >= 2", lambda v: v is None or _passes(check_reps, v)),
    # the mixtures suite's H^{-s} probe is run for s >= 1 only, and the
    # library takes s up to S_MAX, where every kernel route is checked
    "s": (f"a number in [1, {S_MAX:g}]", lambda v: _is_number(v) and v >= 1
          and _passes(_check_exponent, v)),
    # the interpolation exponent 1/2 - 1/k must be positive
    "k": ("a number > 2", lambda v: _is_number(v) and v > 2),
    # rate fits need their N values in order
    "ns": ("a strictly increasing list of ints", lambda v: v is None or (
        isinstance(v, list) and all(map(is_int, v))
        and all(a < b for a, b in zip(v, v[1:])))),
    "output": ("a string", lambda v: v is None or isinstance(v, str)),
    "format": ("csv or json", lambda v: v in ("csv", "json")),
}

# per suite that reads ns: the fewest N values its rate fits need (clt-rate
# also fits its skew tail from the third N on), and the smallest N it runs;
# the sphere suites start at N = 3, where the first marginal of sigma^N,
# proportional to (1 - v^2/N)^((N-3)/2), becomes bounded
_NS_LIMITS = {"poincare-rate": (4, 5), "clt-rate": (6, 2),
              "conditioned-products": (4, 3), "entropy-chaos": (4, 3),
              "omega1-counterexample": (0, 2), "mixtures": (4, 1)}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="kaclab",
                                description="chaos-quantifier experiment runner")
    sub = p.add_subparsers(dest="command")

    run = sub.add_parser("run", help="run one named experiment")
    run.add_argument("name", help="experiment name (see: kaclab list)")
    run.add_argument("--config", help="JSON config file; flags override it")
    run.add_argument("--density", choices=DENSITIES)
    run.add_argument("--ns", help="comma-separated N values")
    run.add_argument("--mc-reps", type=int, dest="mc_reps")
    run.add_argument("--seed", type=int)
    run.add_argument("--s", type=float)
    run.add_argument("--k", type=float)
    run.add_argument("--output", help="output path stem")
    run.add_argument("--format", choices=["csv", "json"])

    sub.add_parser("list", help="list experiments and the claims they probe")
    return p


def _load_config(args) -> ExperimentConfig:
    base = {}
    if args.config:
        with open(args.config) as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise ValueError("the config file must hold a JSON object")
        unknown = set(base) - {f.name for f in
                               dataclasses.fields(ExperimentConfig)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    cfg = ExperimentConfig(**base)
    cfg.experiment = args.name
    # a bad value in the file is an error even where a flag overrides it
    _check_values(cfg)
    for key in ("density", "mc_reps", "seed", "s", "k", "output", "format"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    if getattr(args, "ns", None):
        cfg.ns = [int(x) for x in args.ns.split(",")]
    _check_values(cfg)
    return cfg


def _check_values(cfg: ExperimentConfig):
    for key, (what, ok) in _CONFIG_VALUES.items():
        if not ok(getattr(cfg, key)):
            raise ValueError(f"config value {key} must be {what}, "
                             f"got {getattr(cfg, key)!r}")
    fewest, smallest = _NS_LIMITS.get(cfg.experiment, (0, -math.inf))
    if cfg.ns is not None and len(cfg.ns) < fewest:
        raise ValueError(f"{cfg.experiment} fits a rate and needs at least "
                         f"{fewest} ns values, got {cfg.ns}")
    if cfg.ns and cfg.ns[0] < smallest:
        raise ValueError(f"{cfg.experiment} needs every N >= {smallest}, "
                         f"got {cfg.ns}")


def _write_outputs(result: ExperimentResult, cfg: ExperimentConfig):
    stem = cfg.output or f"kaclab_{result.name}"
    csv_path = stem + ".csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "N", "quantity", "value", "stderr",
                         "meta"])
        for row in result.rows:
            writer.writerow([row["experiment"], row["N"], row["quantity"],
                             f"{row['value']:.12g}", f"{row['stderr']:.6g}",
                             row["meta"]])
    summary = {
        "experiment": result.name,
        "claim": EXPERIMENTS[result.name][1],
        "passed": result.passed,
        "fits": {k: (None if isinstance(v, float) and math.isnan(v) else v)
                 for k, v in result.fits.items()},
        "assertions": [dataclasses.asdict(a) for a in result.assertions],
        "wall_clock_seconds": result.elapsed,
        "config": result.config,
        "rows": result.rows if cfg.format == "json" else csv_path,
    }
    json_path = stem + ".json"
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=2)
    return csv_path, json_path


def _cmd_run(args) -> int:
    try:
        cfg = _load_config(args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    if cfg.experiment not in EXPERIMENTS:
        print(f"unknown experiment {cfg.experiment!r}; run `kaclab list`",
              file=sys.stderr)
        return _USAGE_ERROR
    try:
        result = run_experiment(cfg)
    except HypothesisError as exc:
        print(f"{cfg.experiment}: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    csv_path, json_path = _write_outputs(result, cfg)
    for a in result.assertions:
        mark = "PASS" if a.passed else "FAIL"
        detail = f"  [{a.detail}]" if a.detail else ""
        print(f"{mark}  {result.name}: {a.name}{detail}")
    print(f"wrote {csv_path} and {json_path} "
          f"({result.elapsed:.1f}s)")
    if not result.passed:
        failing = [a.name for a in result.assertions if not a.passed]
        print(f"FAILED criteria: {'; '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def _cmd_list() -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name, (_, claim) in EXPERIMENTS.items():
        print(f"{name:<{width}}  ->  {claim}")
    print(f"\n{len(EXPERIMENTS)} experiments, one per acceptance criterion.")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "list":
        return _cmd_list()
    parser.print_help()
    return _USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
