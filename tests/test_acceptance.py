"""Acceptance gate: one test per criterion, at the pinned tolerances.

Each test runs the matching experiment suite with its default (full-size)
parameters, prints one verdict line per suite check, and requires every
suite check to pass, except the three listed in ``RATE_CHECKS``. Those are
two-sided windows around -1/2 that criteria 4 and 6 take from one-sided
O(N^-1/2) upper bounds; the suites keep reporting them (they FAIL, and
``kaclab run`` exits 1 on them), and this test checks each in their place
against the rate and coefficient that the next-order expansion predicts:

- ``uniform`` / ``bimodal base sup-error slope in (-0.65, -0.35)``
  (clt-rate): both bases are symmetric, so kappa_3 = 0 and the N^-1/2 term
  of the Edgeworth expansion of the local CLT (Petrov, *Sums of Independent
  Random Variables*, 1975, ch. VI) vanishes. The leading error is
  (kappa_4 / 24N) He_4 phi, so the test asks for a slope in (-1.15, -0.85)
  and N * sup error at the largest N within 1 % of |kappa_4| / (8 sqrt(2 pi)).
  The -1/2 regime the windows describe is checked where it occurs, on the
  suite's skew control (kappa_3 != 0): its tail slope in (-0.65, -0.35) and
  sqrt(N) * sup error at the largest N within 3 % of
  |kappa_3| sup|He_3 phi| / 6.
- ``entropy gap slope in (-0.65, -0.35)`` (entropy-chaos): the local CLT
  for the law of v^2 under f expands theta_{N,1} and (1/N) log Z'_N to first
  order in 1/N, and the two N^-1/2-bounded terms of the gap cancel, so the
  gap is c / N + O(N^-2) (see ``entropy_gap_coefficient``). The test asks for
  a slope in (-1.15, -0.85) and N * gap within 2 % of c at every N.

The cumulants come from the analytic bases the suite convolves: the
uniform on [-sqrt 3, sqrt 3] has kappa_3 = 0 and kappa_4 = -6/5 exactly,
and a Gaussian mixture's come from its components; c comes by quadrature
of the reference density. The measured values are read from the suite's
rows and fits.
"""
import math

import numpy as np
import pytest

from kaclab.core import SQRT_2PI, gauss_quadrature
from kaclab.experiments import (ExperimentConfig, _clt_density,
                                resolve_density, run_experiment)

CRITERIA = [
    ("criterion-1-exact-identities", "identities"),
    ("criterion-2-kernel-metric-oracles", "kernel-oracles"),
    ("criterion-3-sphere-marginal-rates", "poincare-rate"),
    ("criterion-4-local-clt-rates", "clt-rate"),
    ("criterion-5-conditioned-products", "conditioned-products"),
    ("criterion-6-entropy-chaos-rate", "entropy-chaos"),
    ("criterion-7-information-suite", "information-suite"),
    ("criterion-8-first-marginal-counterexample", "omega1-counterexample"),
    ("criterion-9-mixtures", "mixtures"),
]

_X3 = math.sqrt(3.0 - math.sqrt(6.0))      # argmax of |He_3 phi|
SUP_HE3_PHI = abs(_X3 ** 3 - 3.0 * _X3) * math.exp(-_X3 ** 2 / 2.0) / SQRT_2PI


def _series(result, quantity):
    """(ns, values) of one row quantity of a suite result, in row order."""
    rows = [r for r in result.rows if r["quantity"] == quantity]
    return [r["N"] for r in rows], [r["value"] for r in rows]


def _rel_gap(measured, predicted):
    return abs(measured / predicted - 1.0)


def clt_cumulants(name):
    """(kappa_3, kappa_4) of the standardized analytic base clt-rate uses.

    For sum_c w_c N(m_c, v) with mean 0, E x^3 = sum_c w_c (m_c^3 + 3 m_c v)
    and E x^4 = sum_c w_c (m_c^4 + 6 m_c^2 v + 3 v^2).
    """
    if name == "uniform":
        return 0.0, -1.2
    w, m, v = (np.asarray(c, dtype=float)
               for c in _clt_density(name).components)
    m2 = float(np.sum(w * (m ** 2 + v)))
    m3 = float(np.sum(w * (m ** 3 + 3.0 * m * v)))
    m4 = float(np.sum(w * (m ** 4 + 6.0 * m ** 2 * v + 3.0 * v ** 2)))
    return m3, m4 - 3.0 * m2 ** 2


def entropy_gap_coefficient(f):
    """c = lim N * entropy gap for the reference density f (E v^2 = 1).

    With h the law of v^2 under f, Sigma^2 = E(v^2-1)^2 and
    mu_3 = E(v^2-1)^3, the local CLT for h gives
    theta_{N,1}(v) = 1 + b(v)/N + O(N^-2) with
    b(v) = 1/2 - (1-v^2)^2 / (2 Sigma^2) - mu_3 (1-v^2) / (2 Sigma^4), and
    (1/N) log Z'_N = log(2/Sigma^2) / (2N) + O(N^-2); hence
    c = |int log(f/gamma) f b dv - log(2/Sigma^2) / 2|, which is 0 for the
    Gaussian.
    """
    lo, hi = f.quad_bounds()

    def mean(fn):
        return gauss_quadrature(lambda v: fn(v) * f.pdf(v), lo, hi)

    s2 = mean(lambda v: (v * v - 1.0) ** 2)
    mu3 = mean(lambda v: (v * v - 1.0) ** 3)

    def b(v):
        return (0.5 - (1.0 - v * v) ** 2 / (2.0 * s2)
                - mu3 * (1.0 - v * v) / (2.0 * s2 ** 2))

    def log_ratio(v):
        return f.log_pdf(v) + v * v / 2.0 + math.log(SQRT_2PI)

    return abs(mean(lambda v: log_ratio(v) * b(v)) - 0.5 * math.log(2.0 / s2))


def symmetric_clt_check(base):
    """Rate check of one symmetric clt-rate base (kappa_3 = 0)."""
    def check(result):
        ns, errs = _series(result, f"sup_error_{base}")
        slope = result.fits[f"{base}_slope"]
        # Edgeworth, kappa_3 = 0: N sup|g_N - phi| -> |kappa_4| He_4(0) phi(0)/24
        pred = abs(clt_cumulants(base)[1]) / (8.0 * SQRT_2PI)
        coef = ns[-1] * errs[-1]
        return [
            (f"{base} base sup-error slope in (-1.15, -0.85)",
             -1.15 < slope < -0.85, f"slope = {slope:.3f}"),
            (f"{base} base N * sup error within 1% of |kappa_4|/(8 sqrt(2 pi))",
             _rel_gap(coef, pred) <= 0.01,
             f"N = {ns[-1]}: {coef:.6f} vs {pred:.6f}"),
        ]
    return check


def skew_control_check(result):
    """Rate check of the clt-rate skew control (kappa_3 != 0)."""
    ns, errs = _series(result, "sup_error_skew-bimodal")
    slope = result.fits["skew_tail_slope"]
    # Edgeworth: sqrt(N) sup|g_N - phi| -> |kappa_3| sup|He_3 phi| / 6
    pred = abs(clt_cumulants("skew-bimodal")[0]) * SUP_HE3_PHI / 6.0
    coef = math.sqrt(ns[-1]) * errs[-1]
    return [
        ("skew control tail slope in (-0.65, -0.35)",
         -0.65 < slope < -0.35, f"slope = {slope:.3f}"),
        ("skew control sqrt(N) * sup error within 3% of "
         "|kappa_3| sup|He_3 phi| / 6",
         _rel_gap(coef, pred) <= 0.03,
         f"N = {ns[-1]}: {coef:.5f} vs {pred:.5f}"),
    ]


def entropy_gap_check(result):
    """Rate check of the entropy-chaos gap for the bimodal reference."""
    ns, gaps = _series(result, "entropy_gap")
    slope = result.fits["entropy_gap_slope"]
    # first order in 1/N: N * gap -> c, see entropy_gap_coefficient
    c = entropy_gap_coefficient(resolve_density("bimodal"))
    coefs = [n * gap for n, gap in zip(ns, gaps)]
    worst = max(_rel_gap(x, c) for x in coefs)
    return [
        ("entropy gap slope in (-1.15, -0.85)",
         -1.15 < slope < -0.85, f"slope = {slope:.3f}"),
        ("N * entropy gap within 2% of the first-order coefficient at every N",
         worst <= 0.02,
         f"c = {c:.5f}, N * gap = " + ", ".join(f"{x:.5f}" for x in coefs)
         + f", worst rel gap = {worst:.4f}"),
    ]


# suite window check -> the rate checks that take its place in this test
RATE_CHECKS = {
    ("clt-rate", "uniform base sup-error slope in (-0.65, -0.35)"):
        (symmetric_clt_check("uniform"), skew_control_check),
    ("clt-rate", "bimodal base sup-error slope in (-0.65, -0.35)"):
        (symmetric_clt_check("bimodal"), skew_control_check),
    ("entropy-chaos", "entropy gap slope in (-0.65, -0.35)"):
        (entropy_gap_check,),
}


def gate(experiment, result):
    """(rate checks, failures) of one suite result.

    The rate checks are the (name, passed, detail) triples of the checks
    that replace this suite's entries in RATE_CHECKS. The failures describe
    every failed suite check not in RATE_CHECKS, every failed rate check,
    and every RATE_CHECKS name the suite no longer reports.
    """
    replaced = {name: fns for (suite, name), fns in RATE_CHECKS.items()
                if suite == experiment}
    names = {a.name for a in result.assertions}
    failures = [f"{name} (replaced check missing from the suite)"
                for name in replaced if name not in names]
    failures += [f"{a.name} ({a.detail})" for a in result.assertions
                 if not a.passed and a.name not in replaced]
    checks = [check for fn in dict.fromkeys(
        fn for fns in replaced.values() for fn in fns) for check in fn(result)]
    failures += [f"rate check {name} ({detail})"
                 for name, passed, detail in checks if not passed]
    return checks, failures


_results = {}


def _run(name):
    if name not in _results:
        _results[name] = run_experiment(ExperimentConfig(experiment=name))
    return _results[name]


@pytest.mark.parametrize("label,experiment", CRITERIA,
                         ids=[c[0] for c in CRITERIA])
def test_acceptance_criterion(label, experiment, capsys):
    result = _run(experiment)
    lines = []
    for a in result.assertions:
        mark = "PASS" if a.passed else "FAIL"
        detail = f" [{a.detail}]" if a.detail else ""
        lines.append(f"{mark} {label} :: {a.name}{detail}")
    checks, failures = gate(experiment, result)
    for name, passed, detail in checks:
        mark = "PASS" if passed else "FAIL"
        lines.append(f"{mark} {label} :: rate check: {name} [{detail}]")
    with capsys.disabled():
        print()
        for line in lines:
            print(line)
    assert not failures, (
        f"{label}: {len(failures)} checks failed: " + "; ".join(failures))
