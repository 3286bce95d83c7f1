"""Negative-Sobolev metric between measures via its two-point kernel.

The squared H^{-s} distance between two measures is a double sum of a
radial kernel over the signed atom differences, which makes it a monomial
of order two on measures. The kernel is evaluated in closed form (an
exponential times a polynomial for integer s, the Bessel form otherwise)
and every distance admits an independent Fourier-quadrature oracle.
Only d = 1 is supported; every consumer in this package lives on the line.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import gammaln, kv, kve, poch

from .core import (QUAD_SIGMA_CUTOFF, Density, DimensionError,
                   DiscreteMeasure, HypothesisError, KaclabError,
                   gauss_quadrature, gl_panels)

__all__ = [
    "HsKernel",
    "make_hs_kernel",
    "phi_s",
    "hs_dist_sq",
    "hs_dist_sq_fourier_oracle",
    "hs_pair_expectation",
    "hs_w1_bridge_check",
]

_NEG_CLAMP = 1e-9
_XI_HEAD = 60.0   # end of the Fourier oracle's Gauss-Legendre head
PAIR_QUAD_TOL = 1e-12   # relative tolerance of hs_pair_expectation


def _log_kv(nu: float, r: np.ndarray) -> np.ndarray:
    """log K_nu(r), r > 0, by the stable upward recurrence K_{mu+k+1} =
    K_{mu+k-1} + 2 (mu + k) K_{mu+k} / r in ratios from mu = nu mod 1,
    whose orders (and 1 - mu) are too low for kve to overflow."""
    mu = nu - math.floor(nu)
    base = kve(mu, r)
    out = np.log(base) - r
    rho = kve(1.0 - mu, r) / base + 2.0 * mu / r   # K_{mu+1} / K_mu
    for k in range(1, math.floor(nu) + 1):
        out += np.log(rho)
        rho = 1.0 / rho + 2.0 * (mu + k) / r
    return out


def _phi_closed(s: float, r):
    """Closed form of the kernel in d = 1: inverse transform of <xi>^{-2s}.

    This is the Matern form (2 sqrt(pi) / Gamma(s)) (r/2)^{s-1/2}
    K_{s-1/2}(r). For integer s = n + 1 the Bessel order is a half-integer
    and the kernel is e^{-r} times a polynomial of degree n (DLMF 10.49.12).
    Otherwise the product is taken where it and its factors are normal
    floats, and summed in logs elsewhere: in the far tail, for r far below
    the order, and above s = 171.6, where Gamma(s) overflows.
    """
    r = np.asarray(r, dtype=float)
    if float(s).is_integer():
        n = int(s) - 1
        f = math.factorial
        # exact integer ratios, so the coefficients stay finite for large n
        coef = [f(n + k) / (f(n) * f(k) * f(n - k) * 2 ** (n + k))
                for k in range(n + 1)]
        return math.pi * np.exp(-r) * np.polyval(coef, r)
    nu = s - 0.5
    with np.errstate(all="ignore"):
        scale, bessel = (r / 2.0) ** nu, kv(nu, r)
        out = (2.0 * math.sqrt(math.pi) / gamma_fn(s)) * scale * bessel
    tiny = np.finfo(float).tiny
    logs = (r > 0) & ~((np.minimum(scale, bessel) >= tiny)
                       & (tiny <= out) & (out < math.inf))
    out = np.where(r == 0, math.sqrt(math.pi) / poch(nu, 0.5), out)
    rl = r[logs]
    out[logs] = np.exp(math.log(2.0 * math.sqrt(math.pi)) - gammaln(s)
                       + nu * np.log(rl / 2.0) + _log_kv(nu, rl))
    return out


@dataclass(frozen=True)
class HsKernel:
    """Radial kernel of the H^{-s} norm on measures, d = 1."""

    s: float
    phi0: float
    lipschitz_bound: float


def make_hs_kernel(s: float) -> HsKernel:
    """The kernel for exponent s > 1/2, with its value at 0 and Lipschitz
    bound; every evaluation goes through the closed form."""
    if s <= 0.5:
        raise DimensionError(f"need s > 1/2, got s={s}")
    # |Phi(z) - Phi(z')| <= |z - z'| * int |xi| <xi>^{-2s} dxi = |z-z'|/(s-1)
    lip = 1.0 / (s - 1.0) if s > 1.0 else math.inf
    return HsKernel(s, float(_phi_closed(s, 0.0)), lip)


def phi_s(z, kernel: HsKernel):
    """Kernel value at |z|; a scalar input gives a float."""
    out = _phi_closed(kernel.s, np.abs(z))
    return float(out) if np.ndim(out) == 0 else out


def _signed_atoms(mu: DiscreteMeasure, nu: DiscreteMeasure):
    if mu.dim != 1 or nu.dim != 1:
        raise DimensionError("H^{-s} distances are computed on E = R")
    pts = np.concatenate([mu.points[:, 0], nu.points[:, 0]])
    wts = np.concatenate([mu.weights, -nu.weights])
    return pts, wts


def hs_dist_sq(mu: DiscreteMeasure, nu: DiscreteMeasure,
               kernel: HsKernel) -> float:
    """Squared H^{-s} distance as the kernel double sum over mu - nu."""
    pts, wts = _signed_atoms(mu, nu)
    diffs = np.abs(pts[:, None] - pts[None, :])
    val = float(wts @ phi_s(diffs, kernel) @ wts)
    if val < -_NEG_CLAMP:
        raise KaclabError(
            f"squared distance {val:.3e} below -{_NEG_CLAMP}; the kernel is "
            f"not positive definite")
    return max(val, 0.0)


def hs_dist_sq_fourier_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure,
                              s: float) -> float:
    """Independent oracle: int |mu_hat - nu_hat|^2 <xi>^{-2s} d xi.

    The head [0, _XI_HEAD] integrates the assembled Fourier-side integrand
    on oscillation-resolving Gauss-Legendre panels; the tail is summed
    pairwise with adaptive oscillatory quadrature on [_XI_HEAD, inf).
    """
    from scipy import integrate
    pts, wts = _signed_atoms(mu, nu)
    span = float(pts.max() - pts.min()) if len(pts) > 1 else 1.0
    panel = min(0.25, math.pi / (2.0 * max(span, 1.0)))
    xs, ws = gl_panels(0.0, _XI_HEAD, math.ceil(_XI_HEAD / panel))
    phase = np.exp(-1j * np.outer(xs, pts))
    hat = phase @ wts
    head = 2.0 * float(np.sum(ws * np.abs(hat) ** 2 * (1 + xs ** 2) ** (-s)))

    dens = lambda xi: (1.0 + xi ** 2) ** (-s)
    tail0, _ = integrate.quad(dens, _XI_HEAD, np.inf)
    diffs = np.abs(pts[:, None] - pts[None, :])
    prods = wts[:, None] * wts[None, :]
    tail = 0.0
    cache: dict[float, float] = {0.0: tail0}
    for dv, pv in zip(diffs.ravel(), prods.ravel()):
        key = round(float(dv), 12)
        if key not in cache:
            val, _ = integrate.quad(dens, _XI_HEAD, np.inf,
                                    weight="cos", wvar=float(dv), limit=200)
            cache[key] = val
        tail += pv * cache[key]
    return head + 2.0 * tail


def hs_pair_expectation(f: Density, kernel: HsKernel) -> float:
    """E Phi(Y - Y') for Y, Y' i.i.d. from a Gaussian-mixture density f.

    On the Fourier side this is 2 int_0^Xi |cf(xi)|^2 <xi>^{-2s} d xi, cf
    the characteristic function ``f.cf``; for f = sum_c w_c N(m_c, v),
    |cf|^2 carries the factor e^{-v xi^2}, so Xi = QUAD_SIGMA_CUTOFF /
    sqrt(2 v) ends the integral: one ``gauss_quadrature``.
    """
    if f.components is None:
        raise HypothesisError("the pair expectation needs a "
                              f"Gaussian-mixture atom, got {f.name}")
    v = f.components[2]

    def integrand(xi):
        return np.abs(f.cf(xi)) ** 2 * (1.0 + xi ** 2) ** -kernel.s

    return 2.0 * gauss_quadrature(integrand, 0.0, QUAD_SIGMA_CUTOFF
                                  / math.sqrt(2.0 * v), PAIR_QUAD_TOL)


def hs_w1_bridge_check(mu: DiscreteMeasure, nu: DiscreteMeasure,
                       k: float, s: float):
    """Measured W1 against its explicit H^{-s}-moment upper bound.

    Returns (w1, bound) and raises if the bound fails. The explicit
    constant follows the truncate-mollify-dualize argument in d = 1;
    it is generous but concrete.
    """
    from .transport import w1_discrete
    if s < 1 or k <= 0:
        raise DimensionError("bridge check needs s >= 1 and k > 0")
    w1 = w1_discrete(mu, nu)
    hs = math.sqrt(hs_dist_sq(mu, nu, make_hs_kernel(s)))
    mk = mu.moment(k) + nu.moment(k)
    c_d = 6.0 * math.sqrt(10.0)
    const = c_d * (1.0 + ((s - 1.0) / 2.0) ** ((s - 1.0) / 2.0))
    expo = 2.0 * k / (1.0 + 2.0 * k * s)
    bound = const * mk ** (1.0 / (1.0 + 2.0 * k * s)) * hs ** expo
    if w1 > bound + 1e-9:
        raise KaclabError(f"W1 = {w1} exceeds its H^-s bound {bound}")
    return w1, bound
