"""Local central limit theorem harness.

The N-fold self-convolution of a standardized density, rescaled back to
unit variance, is computed entirely in the frequency domain: the
characteristic function is taken on the dual lattice of the grid as its
scaled DFT (the lattice spectrum), raised to the N-th power by binary
exponentiation in complex arithmetic, and inverted on the original grid.
The characteristic-function bound checks read the same lattice spectrum.
Small negative lobes of the inverse transform are kept signed; the
sup-norm comparison against the Gaussian is on the signed difference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (DimensionError, GridDensity, GridFunction, KaclabError,
                   RateReport, loglog_fit, normal_pdf, spectrum_power)

__all__ = [
    "CltIterate",
    "CltRun",
    "standardize",
    "iterate_clt",
    "iterate_clt_realspace",
    "sup_error",
    "char_fn_bounds_check",
    "clt_rate_run",
]

DEFAULT_HALF_WIDTH = 12.0
DEFAULT_N_POINTS = 2 ** 14
_ALIAS_TOL = 1e-6
_CF_NOISE_FLOOR = 1e-12


@dataclass(frozen=True)
class CltIterate(GridFunction):
    """Signed renormalized density values of one convolution iterate.

    h * sum(values) = 1; negative lobes are kept.
    """


@dataclass(frozen=True)
class CltRun:
    base_name: str
    ns: tuple
    sup_errors: tuple
    report: RateReport
    bend: float   # slope(first half) - slope(second half), pre-asymptotic bend


def standardize(g: GridDensity) -> GridDensity:
    out = g.standardized()
    if abs(out.mean()) > 1e-8 or abs(out.variance() - 1.0) > 1e-6:
        out = out.standardized()
    if abs(out.mean()) > 1e-8 or abs(out.variance() - 1.0) > 1e-6:
        raise DimensionError("grid density cannot be standardized on this grid")
    return out


def _rescaled(conv: np.ndarray, xs_conv: np.ndarray, g: GridDensity,
              N: int) -> CltIterate:
    """Resample sqrt(N) g^{*N}(sqrt(N) x) onto the base grid; shared by the
    frequency and real-space routes so they differ only in the convolution."""
    root = math.sqrt(N)
    vals = root * np.interp(root * g.xs, xs_conv, conv, left=0.0, right=0.0)
    vals = vals / (vals.sum() * g.spacing)
    return CltIterate(g.half_width, g.n_points, vals)


def iterate_clt(g: GridDensity, N: int) -> CltIterate:
    """The N-fold renormalized self-convolution, by spectrum powers.

    The lattice spectrum (the characteristic function on the dual lattice
    of a grid padded to hold the unscaled convolution support) is raised
    to the N-th power by binary exponentiation and inverted; the rescale
    back to unit variance happens on the real axis. An aliasing check
    rejects grids whose dual range no longer contains the spectrum.
    """
    if N < 2:
        raise DimensionError("need N >= 2")
    m = g.n_points
    h = g.spacing
    span = int(m * (math.sqrt(N) * 1.4 + 2.0))
    p = 2 ** math.ceil(math.log2(span))
    buf = np.zeros(p)
    buf[(np.arange(m) - m // 2) % p] = g.values   # value of x = j h at j mod p
    spec = np.fft.rfft(buf)
    cf = h * spec                                  # cf on xi_k = 2 pi k/(p h)
    n_edge = max(4, len(cf) // 50)
    edge = float(np.max(np.abs(spectrum_power(cf[-n_edge:], N))))
    if edge > _ALIAS_TOL:
        raise KaclabError(
            f"aliasing check failed at N={N}: powered spectrum level "
            f"{edge:.2e} at the Nyquist edge exceeds {_ALIAS_TOL}; use a "
            f"finer grid")
    conv = np.fft.irfft(spec * spectrum_power(cf, N - 1), n=p)
    conv = np.concatenate([conv[p // 2:], conv[:p // 2]])
    xs_conv = h * (np.arange(p) - p // 2)
    return _rescaled(conv, xs_conv, g, N)


def iterate_clt_realspace(g: GridDensity, N: int) -> CltIterate:
    """Direct real-space convolution oracle (quadratic cost, small N only)."""
    if N > 4:
        raise DimensionError("real-space oracle is for N <= 4")
    h = g.spacing
    conv = g.values.copy()
    for _ in range(N - 1):
        conv = np.convolve(conv, g.values) * h
    xs_conv = -N * g.half_width + h * np.arange(len(conv))
    return _rescaled(conv, xs_conv, g, N)


def sup_error(gN: GridFunction) -> float:
    """Max absolute (signed) deviation from the standard Gaussian."""
    return float(np.max(np.abs(gN.values - normal_pdf(gN.xs))))


def _cf_modulus(g: GridDensity) -> tuple[np.ndarray, np.ndarray]:
    """|cf| on the dual lattice xi_j = j pi / L, 0 <= j < m/2.

    On this lattice e^{-i xi_j x_k} = (-1)^j e^{-2 pi i jk/m}, so the
    characteristic function is h times the m-point DFT up to a sign.
    """
    m = g.n_points
    xi = math.pi / g.half_width * np.arange(m // 2)
    return xi, g.spacing * np.abs(np.fft.rfft(g.values))[:m // 2]


def char_fn_bounds_check(g: GridDensity) -> tuple[float, float]:
    """Largest small-frequency gaussian-domination radius and tail sup.

    Returns (delta, kappa): the bound |cf(xi)| <= e^{-xi^2/4} holds on the
    lattice up to delta, and kappa = sup of |cf| beyond delta (must stay
    below 1, otherwise the density is lattice-like and the harness rejects
    it). Magnitudes below a noise floor count as satisfying the bound.
    """
    xi, cf = _cf_modulus(g)
    bound = np.exp(-xi ** 2 / 4.0)
    ok = (cf <= bound + 1e-12) | (cf <= _CF_NOISE_FLOOR)
    ok[0] = True
    if np.all(ok):
        delta_idx = len(xi) - 1
    else:
        delta_idx = int(np.argmin(ok)) - 1
    delta = float(xi[max(delta_idx, 1)])
    kappa = float(np.max(cf[max(delta_idx, 1):]))
    if kappa >= 1.0 - 1e-9:
        raise KaclabError(
            f"sup |cf| = {kappa} beyond delta: the density is too close to "
            f"lattice-supported for the local limit hypotheses")
    return delta, kappa


def clt_rate_run(g: GridDensity, ns, name: str = "base") -> CltRun:
    """Sup-error curve over the given N values with its power-law fit."""
    g = standardize(g)
    errs = [sup_error(iterate_clt(g, n)) for n in ns]
    report = loglog_fit(ns, errs)
    half = len(ns) // 2
    bend = 0.0
    if half >= 2 and len(ns) - half >= 2:
        s1 = np.polyfit(np.log(ns[:half + 1]), np.log(errs[:half + 1]), 1)[0]
        s2 = np.polyfit(np.log(ns[half:]), np.log(errs[half:]), 1)[0]
        bend = float(s1 - s2)
    return CltRun(name, tuple(ns), tuple(errs), report, bend)
