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

from .core import (DimensionError, Grid, GridDensity, ProductGridDensity,
                   RateReport, check_reps, is_int, loglog_fit)
from .information import _xlogx, entropy, fisher
from .sobolev import HsKernel, phi_s

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
        if any(a <= 0 for a in alphas):
            raise DimensionError("mixture weights must be positive")
        if abs(sum(alphas) - 1.0) > 1e-12:
            raise DimensionError("mixture weights must sum to 1")
        names = [f.name for _, f in self.atoms]
        if len(set(names)) != len(names):
            raise DimensionError("mixture atoms must be distinct")

    @property
    def count(self) -> int:
        return len(self.atoms)

    def atom_sampler(self, rng: np.random.Generator, count: int) -> np.ndarray:
        alphas = np.array([a for a, _ in self.atoms])
        return rng.choice(self.count, size=count, p=alphas)


# Rows of the j = 2 marginal summed per block; 256 rows of 4096 doubles is
# 8 MB, so the blocked entropy never holds the dense M x M grid.
_PAIR_BLOCK_ROWS = 256


def _marginal_grid(pi: Mixture):
    """Half-width L and size M of the marginals' grid, and the atom pdf
    rows P (shape atoms x M) on its points xs, clamped at 0."""
    L = max(max(abs(b) for b in f.quad_bounds()) for _, f in pi.atoms) + 2.0
    M = 2 ** 12
    xs = Grid(L, M).xs
    P = np.maximum(np.stack([f.pdf(xs) for _, f in pi.atoms]), 0.0)
    return L, M, P


def mixture_marginal(pi: Mixture, j: int):
    """The j-variable marginal: gridded for j <= 2, a sampler for j >= 3.

    The j = 2 grid is the dense M x M carrier; it is the test oracle of the
    blocked entropy in ``marginal_entropy_curve`` and is not used there.
    The sampler draws an atom per row and then j i.i.d. coordinates from it.
    """
    if not is_int(j) or j < 1:
        raise DimensionError(f"j must be a positive integer, got {j!r}")
    if j <= 2:
        L, M, P = _marginal_grid(pi)
        alphas = [a for a, _ in pi.atoms]
        if j == 1:
            return GridDensity(L, M, sum(a * p for a, p in zip(alphas, P)))
        return ProductGridDensity(L, M, sum(a * np.outer(p, p)
                                            for a, p in zip(alphas, P)))

    def sampler(count: int, rng: np.random.Generator) -> np.ndarray:
        which = pi.atom_sampler(rng, count)
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
    stderrs: tuple
    level3: float
    monotone_within_3se: bool
    below_level3_within_3se: bool
    gap_report: RateReport | None


def _pair_marginal_entropy(pi: Mixture) -> float:
    """H(pi_2)/2 on the j = 2 grid, from the rank-r factorisation.

    The marginal sum_a alpha_a p_a p_a^T is P^T (alpha P) / mass with mass
    h^2 sum_a alpha_a (sum_x p_a(x))^2, so x log x is summed over blocks of
    its rows and the M x M grid is never built.
    """
    L, M, P = _marginal_grid(pi)
    h2 = Grid(L, M).spacing ** 2
    alphas = np.array([a for a, _ in pi.atoms])
    mass = h2 * float(np.sum(alphas * P.sum(axis=1) ** 2))
    if mass <= 0:
        raise DimensionError("grid density has no mass")
    W = alphas[:, None] * P / mass
    total = 0.0
    for start in range(0, M, _PAIR_BLOCK_ROWS):
        block = P[:, start:start + _PAIR_BLOCK_ROWS].T @ W
        total += float(np.sum(_xlogx(block)))
    return total * h2 / 2.0


def _check_js(js) -> list:
    js = list(js)
    for j in js:
        if not is_int(j) or j < 1:
            raise DimensionError(f"js must hold positive integers, got {j!r}")
    if len(set(js)) != len(js):
        raise DimensionError(f"js must not repeat a value, got {js}")
    return sorted(int(j) for j in js)


def marginal_entropy_curve(pi: Mixture, js, rng: np.random.Generator,
                           mc_count: int = 20000) -> MarginalEntropyCurve:
    """Normalized marginal entropies H(pi_j) along js, with the gap fit.

    j = 1 is an exact grid quadrature. j = 2 is the same quadrature on the
    M x M grid, summed over row blocks of its rank-r factorisation (r the
    number of atoms) in O(M) memory; ``mixture_marginal(pi, 2)`` is its
    dense oracle. Larger blocks use the unbiased plug-in (1/j) E log
    pi_j(V) over draws of the marginal itself, with batch stderr. The gap
    to the level-3 entropy is fit as a power law in j over the blocks where
    it clears 3 standard errors. js must be distinct positive integers.
    """
    js = _check_js(js)
    n_batches = 20
    check_reps(mc_count, n_batches)
    h3 = level3_entropy(pi)
    values, stderrs = [], []
    for j in js:
        if j <= 2:
            values.append(entropy(mixture_marginal(pi, 1)).value if j == 1
                          else _pair_marginal_entropy(pi))
            stderrs.append(0.0)
            continue
        sampler = mixture_marginal(pi, j)
        V = sampler(mc_count, rng)
        logs = mixture_log_marginal(pi, V) / j
        batches = np.array_split(logs, n_batches)
        bmeans = np.array([b.mean() for b in batches])
        values.append(float(logs.mean()))
        stderrs.append(float(bmeans.std(ddof=1) / math.sqrt(n_batches)))
    values = np.array(values)
    stderrs = np.array(stderrs)
    tol = 3.0 * np.sqrt(stderrs[1:] ** 2 + stderrs[:-1] ** 2) + 1e-12
    monotone = bool(np.all(np.diff(values) >= -tol))
    below = bool(np.all(values <= h3 + 3.0 * stderrs + 1e-12))
    gaps = h3 - values
    usable = gaps > 3.0 * stderrs + 1e-12
    report = None
    if usable.sum() >= 4:
        sel = np.nonzero(usable)[0]
        report = loglog_fit([js[i] for i in sel], gaps[sel],
                            [stderrs[i] for i in sel])
    return MarginalEntropyCurve(tuple(js), tuple(values.tolist()),
                                tuple(stderrs.tolist()), h3, monotone, below,
                                report)


@dataclass(frozen=True)
class DeFinettiProbe:
    ns: tuple
    values: tuple
    stderrs: tuple
    exact_one_atom: tuple | None
    bound_violations: int
    report: RateReport


def definetti_cauchy_probe(pi: Mixture, Ns, kernel: HsKernel,
                           rng: np.random.Generator,
                           mc_reps: int = 200) -> DeFinettiProbe:
    """Monte Carlo negative-Sobolev convergence of empirical mixtures.

    Draws an atom, then N i.i.d. coordinates, and measures the squared
    kernel distance between the empirical measure and the drawn atom: the
    diagonal coupling, an upper bound for the lifted squared distance to
    the mixture. The exact one-atom law (kernel at zero minus the expected
    kernel of an independent pair, divided by N) is returned alongside for
    single-atom mixtures, and the uniform bound 2 Phi(0)/N is checked.
    """
    check_reps(mc_reps)
    xs_by_atom = []
    cross_by_atom = []
    expect_pair = []
    for _, f in pi.atoms:
        lo, hi = f.quad_bounds()
        ys = np.linspace(lo, hi, 4001)
        fy = f.pdf(ys)
        fy = fy / np.trapezoid(fy, ys)
        xq = np.linspace(lo - 2, hi + 2, 2001)
        conv = np.array([np.trapezoid(phi_s(np.abs(x - ys), kernel) * fy, ys)
                         for x in xq])
        xs_by_atom.append(xq)
        cross_by_atom.append(conv)
        expect_pair.append(float(np.trapezoid(conv * np.interp(
            xq, ys, fy, left=0.0, right=0.0), xq)))

    values, stderrs = [], []
    violations = 0
    phi0 = kernel.phi0
    for N in Ns:
        which = pi.atom_sampler(rng, mc_reps)
        vals = np.empty(mc_reps)
        for r in range(mc_reps):
            i = int(which[r])
            _, f = pi.atoms[i]
            x = f.sampler(rng, N)
            diffs = np.abs(x[:, None] - x[None, :])
            quad = float(np.sum(phi_s(diffs, kernel))) / N ** 2
            cross = float(np.mean(np.interp(x, xs_by_atom[i],
                                            cross_by_atom[i])))
            vals[r] = quad - 2.0 * cross + expect_pair[i]
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(mc_reps))
        if mean > 2.0 * phi0 / N + 3.0 * se:
            violations += 1
        values.append(max(mean, 1e-300))
        stderrs.append(se)
    exact = None
    if pi.count == 1:
        exact = tuple((phi0 - expect_pair[0]) / N for N in Ns)
    report = loglog_fit(Ns, values, stderrs)
    return DeFinettiProbe(tuple(int(n) for n in Ns), tuple(values),
                          tuple(stderrs), exact, violations, report)
