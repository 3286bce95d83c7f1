"""Local central limit theorem harness.

The rate curves read the N-fold self-convolution of a standardized
density, rescaled back to unit variance, straight from the density's
characteristic function in closed form (``Density.cf``). On the grid
x_k = -L + k h, h = 2L/m, the powered cf(xi/sqrt N)^N is sampled on the
dual lattice xi_j = pi j / L, 0 <= j <= m/2, and inverted with one m-point
FFT; by Poisson summation that is the rescaled density at the grid
points, up to aliasing from |x| > L and the powered cf beyond the Nyquist
frequency, which is checked. The j = 0 term is cf(0) = 1, so the unit
mass is exact. The characteristic-function bound checks read the same cf
on the same lattice.

Two grid routes stay as independent oracles of the convolution: the
lattice spectrum of a gridded density, padded to hold the unscaled
convolution and interpolated back onto the grid (``iterate_clt``), and
the direct real-space convolution over the base's support
(``iterate_clt_realspace``).
Small negative lobes of an inverse transform are kept signed; the
sup-norm comparison against the Gaussian is on the signed difference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (Density, DimensionError, Grid, GridDensity, GridFunction,
                   HypothesisError, KaclabError, RateReport, is_int,
                   loglog_fit, normal_pdf, spectrum_power)

__all__ = [
    "CltRun",
    "standardize",
    "iterate_clt_cf",
    "iterate_clt",
    "iterate_clt_realspace",
    "sup_error",
    "char_fn_bounds_check",
    "clt_rate_run",
]

# the grid of the rate curves: x_k = -12 + k h, m = 2^14
CLT_GRID = Grid(12.0, 2 ** 14)
# its dual lattice xi_j = pi j / L, 0 <= j <= m/2
_XI = math.pi / CLT_GRID.half_width * np.arange(CLT_GRID.n_points // 2 + 1)
_ALIAS_TOL = 1e-6
_CF_NOISE_FLOOR = 1e-12
# largest |E v| and |E v^2 - 1| of a base the cf route accepts, and of a
# grid base after ``standardize``
_STANDARD_TOL = 1e-12


@dataclass(frozen=True)
class CltRun:
    base_name: str
    ns: tuple
    sup_errors: tuple
    report: RateReport
    bend: float   # slope(first half) - slope(second half), pre-asymptotic bend


def _standard_cf(f: Density):
    """The cf of a standardized base; HypothesisError otherwise."""
    if f.cf is None:
        raise HypothesisError(f"{f.name}: the local CLT harness needs a "
                              f"characteristic function in closed form")
    mean = f.raw_moments.get(1, math.nan)
    second = f.raw_moments.get(2, math.nan)
    if not (abs(mean) <= _STANDARD_TOL
            and abs(second - 1.0) <= _STANDARD_TOL):
        raise HypothesisError(f"{f.name}: the local CLT harness needs mean 0 "
                              f"and variance 1, got E v = {mean!r}, "
                              f"E v^2 = {second!r}")
    return f.cf


def _check_N(N: int, most: float = math.inf):
    """Raise DimensionError unless N is an int in [2, most]."""
    if not (is_int(N) and 2 <= N <= most):
        raise DimensionError(f"need an int N in [2, {most}], got N = {N!r}")


def _check_nyquist_edge(cf: np.ndarray, N: int):
    """Raise KaclabError when cf^N, cf a spectrum up to its Nyquist
    frequency, exceeds ``_ALIAS_TOL`` on its last max(4, len/50) entries."""
    tail = cf[-max(4, len(cf) // 50):]
    edge = float(np.max(np.abs(spectrum_power(tail, N))))
    if edge > _ALIAS_TOL:
        raise KaclabError(
            f"aliasing check failed at N={N}: powered spectrum level "
            f"{edge:.2e} at the Nyquist edge exceeds {_ALIAS_TOL}; use a "
            f"finer grid")


def iterate_clt_cf(f: Density, N: int) -> GridFunction:
    """sqrt(N) f^{*N}(sqrt(N) x) on ``CLT_GRID``, from f's closed-form cf.

    cf(-xi_j/sqrt N)^N = conj(cf(xi_j/sqrt N)^N) on the dual lattice is
    the spectrum of the rescaled convolution; since e^{-i xi_j x_k} =
    (-1)^j e^{-2 pi i jk/m}, its inverse is irfft((-1)^j spectrum) / h.
    The j = 0 term is cf(0) = 1, so the values have unit mass exactly;
    negative lobes of the inverse stay signed. The base must be
    standardized and have a cf (HypothesisError); a powered cf above
    ``_ALIAS_TOL`` at the Nyquist edge raises KaclabError.
    """
    cf = _standard_cf(f)
    _check_N(N)
    base = cf(-_XI / math.sqrt(N))
    _check_nyquist_edge(base, N)
    spec = spectrum_power(base, N)
    spec = np.where(np.arange(len(spec)) % 2, -spec, spec)
    vals = np.fft.irfft(spec, n=CLT_GRID.n_points) / CLT_GRID.spacing
    return GridFunction(CLT_GRID.half_width, CLT_GRID.n_points, vals)


def standardize(g: GridDensity) -> GridDensity:
    """g rescaled to mean 0 and variance 1 by repeated
    ``GridDensity.standardized`` passes, until |mean| and |variance - 1|
    are at most ``_STANDARD_TOL``; DimensionError if 8 passes do not get
    there."""
    for _ in range(8):
        g = g.standardized()
        if (abs(g.mean()) <= _STANDARD_TOL
                and abs(g.variance() - 1.0) <= _STANDARD_TOL):
            return g
    raise DimensionError("grid density cannot be standardized on this grid")


def _rescaled(conv: np.ndarray, xs_conv: np.ndarray, g: GridDensity,
              N: int) -> GridFunction:
    """Resample sqrt(N) g^{*N}(sqrt(N) x) onto the base grid and scale it
    to unit mass, negative lobes kept signed; shared by the frequency and
    real-space routes so they differ only in the convolution."""
    root = math.sqrt(N)
    vals = root * np.interp(root * g.xs, xs_conv, conv, left=0.0, right=0.0)
    vals = vals / (vals.sum() * g.spacing)
    return GridFunction(g.half_width, g.n_points, vals)


def iterate_clt(g: GridDensity, N: int) -> GridFunction:
    """The N-fold renormalized self-convolution of a gridded base, by
    spectrum powers: the grid oracle of ``iterate_clt_cf``.

    The lattice spectrum (the characteristic function on the dual lattice
    of a grid padded to hold the unscaled convolution support) is raised
    to the N-th power by binary exponentiation and inverted; the rescale
    back to unit variance happens on the real axis, by ``_rescaled``: unit
    mass, negative lobes kept signed. An aliasing check rejects grids
    whose dual range no longer contains the spectrum.
    """
    _check_N(N)
    m = g.n_points
    h = g.spacing
    span = int(m * (math.sqrt(N) * 1.4 + 2.0))
    p = 2 ** math.ceil(math.log2(span))
    buf = np.zeros(p)
    buf[(np.arange(m) - m // 2) % p] = g.values   # value of x = j h at j mod p
    spec = np.fft.rfft(buf)
    cf = h * spec                                  # cf on xi_k = 2 pi k/(p h)
    _check_nyquist_edge(cf, N)
    conv = np.fft.irfft(spec * spectrum_power(cf, N - 1), n=p)
    conv = np.concatenate([conv[p // 2:], conv[:p // 2]])
    xs_conv = h * (np.arange(p) - p // 2)
    return _rescaled(conv, xs_conv, g, N)


def iterate_clt_realspace(g: GridDensity, N: int) -> GridFunction:
    """Direct real-space convolution oracle, N <= 4 only, rescaled by
    ``_rescaled``: unit mass, negative lobes kept signed.

    ``np.convolve`` runs over the base's support, values[a:b] from its
    first to its last nonzero entry, interior zeros kept, at a cost
    quadratic in b - a. Every product it skips has an exact zero factor,
    so the N-fold convolution of the whole grid is the support's, placed
    at index N a of N (m - 1) + 1 zeros.
    """
    _check_N(N, most=4)
    h = g.spacing
    nonzero = np.flatnonzero(g.values)
    a, b = nonzero[0], nonzero[-1] + 1
    support = part = g.values[a:b]
    for _ in range(N - 1):
        part = np.convolve(part, support) * h
    conv = np.zeros(N * (g.n_points - 1) + 1)
    conv[N * a:N * a + len(part)] = part
    xs_conv = -N * g.half_width + h * np.arange(len(conv))
    return _rescaled(conv, xs_conv, g, N)


def sup_error(gN: GridFunction) -> float:
    """Max absolute (signed) deviation from the standard Gaussian."""
    return float(np.max(np.abs(gN.values - normal_pdf(gN.xs))))


def char_fn_bounds_check(f: Density) -> tuple[float, float]:
    """Largest small-frequency gaussian-domination radius and tail sup.

    Returns (delta, kappa): the bound |cf(xi)| <= e^{-xi^2/4} holds on the
    dual lattice xi_j = pi j / L, 0 <= j < m/2, of ``CLT_GRID`` up to
    delta, and kappa = sup of |cf| beyond delta (must stay below 1,
    otherwise the density is lattice-like and the harness rejects it).
    Magnitudes below a noise floor count as satisfying the bound.
    """
    xi = _XI[:-1]
    cf = np.abs(_standard_cf(f)(xi))
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


def clt_rate_run(f: Density, ns, name: str = "base") -> CltRun:
    """Sup-error curve of the cf route over the given N values with its
    power-law fit."""
    errs = [sup_error(iterate_clt_cf(f, n)) for n in ns]
    report = loglog_fit(ns, errs)
    half = len(ns) // 2
    bend = 0.0
    if half >= 2 and len(ns) - half >= 2:
        s1 = np.polyfit(np.log(ns[:half + 1]), np.log(errs[:half + 1]), 1)[0]
        s2 = np.polyfit(np.log(ns[half:]), np.log(errs[half:]), 1)[0]
        bend = float(s1 - s2)
    return CltRun(name, tuple(ns), tuple(errs), report, bend)
