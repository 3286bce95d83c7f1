"""Workload definitions shared by the runner and the child processes.

Each workload is closed-loop with one caller: its phases run one after the
other, each in a fresh single-threaded child process, and each step waits
for the previous one. Nothing here imports kaclab, so the runner stays
light.
"""
from __future__ import annotations

from dataclasses import dataclass

# Suite seeds whose assertion verdicts are pinned in pinned.json: the
# library default and one held-out seed. ``--seed n`` selects one of them,
# so the same ``n`` always gives the same inputs and every input set has a
# pinned verdict vector to check against.
PINNED_SEEDS = (424242, 4518)

# Relative tolerance for library outputs of the sphere workload (sampler
# moments, omega_inf values) against the values recorded at the commit that
# pinned them. The calls are deterministic given the seed, so the slack
# only admits changes of summation order or exact closed forms.
VALUE_RTOL = 1e-6

# Library calls of the sphere workload's warm phase.
SAMPLER_N = 128
SAMPLER_BATCHES = 4
SAMPLER_BATCH_ROWS = 500
OMEGA_ROWS_REPS = 100
OMEGA_SPHERE_N = 512
OMEGA_SPHERE_REPS = 6

# untraced.<metric> names for the (phase, suite) steps whose own wall time
# is reported.
STEP_METRICS = {
    ("main", "identities"): "identities_s",
    ("main", "kernel-oracles"): "kernel_oracles_s",
    ("main", "information-suite"): "information_suite_s",
    ("main", "mixtures"): "mixtures_s",
    ("cold", "poincare-rate"): "poincare_rate_s",
    ("cold", "conditioned-products"): "conditioned_products_s",
}


@dataclass(frozen=True)
class Phase:
    name: str
    suites: tuple
    library_calls: bool = False
    # table files the phase must add to the cache dir; files present before
    # it must keep their names, sizes and mtimes
    new_tables: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    phases: tuple
    # set-up builds the all-k table that the warm phase loads from disk
    prime: bool = False


# Two workloads. A third, sphere-warm on its own, was measured and dropped:
# its body is ~11 s of memory-bound numpy work whose run-to-run spread here
# (IQR/median 0.16-0.22 over ten runs) came too close to the largest bound,
# and its ~15 s of table priming per run left no time budget for longer
# runs. Its steps now form the warm phase of `sphere`.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            "oracles",
            "six suites that never touch the sphere tables: LP, kernel sums, "
            "einsums, spectrum powers; the bypass side for table work",
            (Phase("main", ("identities", "kernel-oracles", "clt-rate",
                            "information-suite", "omega1-counterexample",
                            "mixtures")),)),
        Workload(
            "sphere",
            "sphere suites on an empty cache, then a fresh process reading "
            "those tables: quadrature, builds, loads, sampler, omega_inf",
            (Phase("cold", ("poincare-rate", "conditioned-products",
                            "entropy-chaos"), new_tables=2),
             Phase("warm", ("conditioned-products", "entropy-chaos"),
                   library_calls=True)),
            prime=True),
    )
}


def suite_seed(seed: int) -> int:
    """The pinned suite seed that a benchmark ``--seed`` selects."""
    return PINNED_SEEDS[seed % len(PINNED_SEEDS)]
