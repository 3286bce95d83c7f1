"""Finite mixtures of densities and their level-3 functionals.

A mixture is a finite convex combination of density atoms, the computable
stand-in for a probability measure on the space of probability measures.
Its j-variable marginal is the alpha-average of tensor powers; the level-3
entropy and Fisher information are the corresponding alpha-averages of the
one-body functionals, and the normalized marginal entropies increase to
the level-3 entropy as the block size grows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .core import (QUAD_SIGMA_CUTOFF, DimensionError, Grid, GridDensity,
                   HypothesisError, ProductGridDensity, RateReport,
                   gauss_quadrature, gaussian_components, is_int, loglog_fit,
                   normal_pdf)
from .information import entropy, fisher
from .sobolev import HsKernel, hs_pair_expectation

__all__ = [
    "Mixture",
    "mixture_marginal",
    "mixture_log_marginal",
    "level3_entropy",
    "level3_fisher",
    "marginal_entropy_curve",
    "MarginalEntropyCurve",
    "definetti_cauchy_probe",
    "DeFinettiProbe",
]


@dataclass(frozen=True)
class Mixture:
    """Finite convex combination of density atoms."""

    atoms: tuple   # of (alpha, Density)

    def __post_init__(self):
        alphas = [a for a, _ in self.atoms]
        if not all(math.isfinite(a) and a > 0 for a in alphas):
            raise DimensionError("mixture weights must be finite and positive")
        if abs(sum(alphas) - 1.0) > 1e-12:
            raise DimensionError("mixture weights must sum to 1")
        # an atom is known by its Gaussian components, or else by its name
        keys = [f.components or f.name for _, f in self.atoms]
        if len(set(keys)) != len(keys):
            raise DimensionError("mixture atoms must be distinct")

    @property
    def count(self) -> int:
        return len(self.atoms)


def mixture_marginal(pi: Mixture, j: int):
    """The j-variable marginal: gridded for j <= 2, a sampler for j >= 3.

    The grids sample the atom pdfs, clamped at 0, on 4096 points over the
    atoms' quadrature bounds widened by 2; j = 2 is the dense M x M carrier.
    The sampler draws an atom per row and then j i.i.d. coordinates from it.
    These are the oracles of ``marginal_entropy_curve``'s exact route,
    which uses none of them.
    """
    if not is_int(j) or j < 1:
        raise DimensionError(f"j must be a positive integer, got {j!r}")
    if j <= 2:
        L = max(max(abs(b) for b in f.quad_bounds()) for _, f in pi.atoms) + 2
        M = 2 ** 12
        xs = Grid(L, M).xs
        P = [(a, np.maximum(f.pdf(xs), 0.0)) for a, f in pi.atoms]
        if j == 1:
            return GridDensity(L, M, sum(a * p for a, p in P))
        return ProductGridDensity(L, M, sum(a * np.outer(p, p) for a, p in P))

    def sampler(count: int, rng: np.random.Generator) -> np.ndarray:
        which = rng.choice(pi.count, size=count, p=[a for a, _ in pi.atoms])
        out = np.empty((count, j))
        for i, (_, f) in enumerate(pi.atoms):
            rows = which == i
            if np.any(rows):
                out[rows] = f.sampler(rng, (int(rows.sum()), j))
        return out

    return sampler


def mixture_log_marginal(pi: Mixture, V: np.ndarray) -> np.ndarray:
    """log of the j-marginal density at rows of V, by stable log-sum-exp."""
    V = np.atleast_2d(np.asarray(V, dtype=float))
    terms = np.stack([math.log(a) + np.sum(f.log_pdf(V), axis=1)
                      for a, f in pi.atoms], axis=0)
    return logsumexp(terms, axis=0)


def _level3(pi: Mixture, functional) -> float:
    """Mixture average of a one-body functional; an infinite atom value
    makes it infinite."""
    total = 0.0
    for a, f in pi.atoms:
        val = functional(f).value
        if math.isinf(val):
            return math.inf
        total += a * val
    return total


def level3_entropy(pi: Mixture) -> float:
    """Mixture average of the one-body entropy (affine by construction)."""
    return _level3(pi, entropy)


def level3_fisher(pi: Mixture) -> float:
    """Mixture average of the one-body Fisher information."""
    return _level3(pi, fisher)


@dataclass(frozen=True)
class MarginalEntropyCurve:
    js: tuple
    values: tuple
    tolerance: float
    level3: float
    monotone: bool
    below_level3: bool
    gap_report: RateReport | None


# The relative tolerance of the curve's quadratures; ``information.entropy``,
# behind ``level3_entropy``, integrates at the same one.
_QUAD_TOL = 1e-10


def _check_positive_ints(values, name: str) -> list:
    values = list(values)
    for v in values:
        if not is_int(v) or v < 1:
            raise DimensionError(
                f"{name} must hold positive integers, got {v!r}")
    return values


def _check_js(js) -> list:
    js = _check_positive_ints(js, "js")
    if len(set(js)) != len(js):
        raise DimensionError(f"js must not repeat a value, got {js}")
    return sorted(int(j) for j in js)


def marginal_entropy_curve(pi: Mixture, js) -> MarginalEntropyCurve:
    """Normalized marginal entropies H(pi_j)/j along js, with the gap fit.

    The atoms must be Gaussians N(m_a, v) of one variance v. Then log pi_j
    depends on x only through |x|^2 and S = sum_i x_i, and

      H(pi_j)/j = -log(2 pi v)/2 - sum_a alpha_a (v + m_a^2)/(2 v)
                  + (1/j) E LSE_c(log alpha_c + (m_c S - j m_c^2/2)/v),

    with S ~ N(j m_a, j v) under atom a. The expectation is one
    ``gauss_quadrature`` in z = (S - j m_a)/sqrt(j v) over
    +/- QUAD_SIGMA_CUTOFF. That quadrature and the one of each atom's
    entropy in ``level3_entropy`` (all atoms share that entropy) accept an
    error estimate of at most 10 max(tol, |I| tol), I the integral, so
    neither a value nor level3 is estimated off by more than half of
    ``tolerance`` = 20 tol max(1, |level3|, max_j |E LSE|/j). The
    monotonicity, the level-3 bound and the choice of the gaps that enter
    the power-law fit in j are all judged against it. js must be distinct
    positive integers; ``mixture_marginal`` holds the oracles.
    """
    js = _check_js(js)
    atoms = [f for _, f in pi.atoms]
    comps, var = gaussian_components(*atoms)
    if any(len(w) != 1 for w, _ in comps):
        raise HypothesisError("the marginal entropies need one Gaussian per "
                              f"atom, got {', '.join(f.name for f in atoms)}")
    means = np.array([m for _, (m,) in comps])
    alphas = np.array([a for a, _ in pi.atoms])
    h3 = level3_entropy(pi)
    base = (-0.5 * math.log(2.0 * math.pi * var)
            - float(np.dot(alphas, var + means ** 2)) / (2.0 * var))
    log_w = np.log(alphas)[:, None, None]
    m = means[:, None, None]
    values, scale = [], max(1.0, abs(h3))
    for j in js:
        def integrand(z):   # sum_a alpha_a LSE(j m_a + sqrt(j v) z) phi(z)
            S = j * means[:, None] + math.sqrt(j * var) * z
            lse = logsumexp(log_w + (m * S - j * m ** 2 / 2.0) / var, axis=0)
            return (alphas @ lse) * normal_pdf(z)

        expected = gauss_quadrature(integrand, -QUAD_SIGMA_CUTOFF,
                                    QUAD_SIGMA_CUTOFF, _QUAD_TOL)
        values.append(base + expected / j)
        scale = max(scale, abs(expected) / j)
    tolerance = 20.0 * _QUAD_TOL * scale
    values = np.array(values)
    monotone = bool(np.all(np.diff(values) >= -tolerance))
    below = bool(np.all(values <= h3 + tolerance))
    gaps = h3 - values
    sel = np.nonzero(gaps > tolerance)[0]
    report = None
    if len(sel) >= 4:
        report = loglog_fit([js[i] for i in sel], gaps[sel])
    return MarginalEntropyCurve(tuple(js), tuple(values.tolist()), tolerance,
                                h3, monotone, below, report)


@dataclass(frozen=True)
class DeFinettiProbe:
    ns: tuple
    values: tuple
    bound_violations: int
    report: RateReport


def definetti_cauchy_probe(pi: Mixture, Ns,
                           kernel: HsKernel) -> DeFinettiProbe:
    """Expected squared H^{-s} distance of empirical measures to their atom.

    For X of N i.i.d. coordinates from the atom f_a, drawn with weight
    alpha_a, the squared kernel distance between X's empirical measure and
    f_a (the diagonal coupling) bounds the lifted one to the mixture. Its
    expectation is (Phi(0) - p_a) / N, p_a = E Phi(Y - Y') for Y, Y' i.i.d.
    f_a from ``hs_pair_expectation``: Gaussian-mixture atoms only. The
    values are exact; Ns must hold positive integers.
    """
    Ns = _check_positive_ints(Ns, "Ns")
    gap = sum(a * (kernel.phi0 - hs_pair_expectation(f, kernel))
              for a, f in pi.atoms)
    values = [gap / N for N in Ns]
    violations = sum(v > 2.0 * kernel.phi0 / N for v, N in zip(values, Ns))
    return DeFinettiProbe(tuple(int(n) for n in Ns), tuple(values),
                          violations, loglog_fit(Ns, values))
