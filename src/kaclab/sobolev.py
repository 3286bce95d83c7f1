"""Negative-Sobolev metric between measures via its two-point kernel.

The squared H^{-s} distance between two measures is a double sum of a
radial kernel over the signed atom differences, which makes it a monomial
of order two on measures. The kernel is tabulated from its closed Bessel
form and every distance admits an independent Fourier-quadrature oracle.
Only d = 1 is supported; every consumer in this package lives on the line.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.interpolate import CubicSpline
from scipy.special import gamma as gamma_fn
from scipy.special import kv

from .core import DimensionError, DiscreteMeasure, KaclabError

__all__ = [
    "HsKernel",
    "make_hs_kernel",
    "phi_s",
    "hs_dist_sq",
    "hs_dist_sq_fourier_oracle",
    "hs_w1_bridge_check",
]

_TABLE_RMAX = 64.0
_TABLE_SIZE = 4096
_NEG_CLAMP = 1e-9
_XI_HEAD = 60.0   # end of the Fourier oracle's Gauss-Legendre head


def _phi_closed(s: float, r: np.ndarray) -> np.ndarray:
    """Closed form of the kernel in d = 1: inverse transform of <xi>^{-2s}."""
    r = np.asarray(r, dtype=float)
    nu = s - 0.5
    phi0 = math.sqrt(math.pi) * gamma_fn(s - 0.5) / gamma_fn(s)
    with np.errstate(invalid="ignore", over="ignore"):
        vals = (2.0 * math.sqrt(math.pi) / gamma_fn(s)) \
            * (r / 2.0) ** nu * kv(nu, r)
    return np.where(r < 1e-12, phi0, np.nan_to_num(vals, nan=phi0))


@dataclass(frozen=True)
class HsKernel:
    """Tabulated radial kernel of the H^{-s} norm on measures, d = 1."""

    s: float
    radii: np.ndarray
    table: np.ndarray
    phi0: float
    lipschitz_bound: float
    _spline: CubicSpline
    _tail_log_slope: float
    _tail_log_intercept: float

    def __call__(self, z):
        return phi_s(z, self)


def make_hs_kernel(s: float) -> HsKernel:
    """Build the kernel table for exponent s > 1/2.

    The 4096 radial nodes on [0, 64] are quadratically graded toward 0
    where the kernel bends fastest; beyond the table the kernel follows an
    exponential-decay fit of the last tabulated decade.
    """
    if s <= 0.5:
        raise DimensionError(f"need s > 1/2, got s={s}")
    radii = _TABLE_RMAX * (np.arange(_TABLE_SIZE) / (_TABLE_SIZE - 1)) ** 2
    table = _phi_closed(s, radii)
    phi0 = float(table[0])
    # |Phi(z) - Phi(z')| <= |z - z'| * int |xi| <xi>^{-2s} dxi = |z-z'|/(s-1)
    lip = 1.0 / (s - 1.0) if s > 1.0 else math.inf
    spline = CubicSpline(radii, table, bc_type=((1, 0.0) if s > 1 else "not-a-knot",
                                                "not-a-knot"))
    # log-linear tail fit over the last decade of the table
    mask = radii > 0.9 * _TABLE_RMAX
    with np.errstate(divide="ignore"):
        logs = np.log(np.maximum(table[mask], 1e-320))
    A = np.vstack([radii[mask], np.ones(mask.sum())]).T
    slope, intercept = np.linalg.lstsq(A, logs, rcond=None)[0]
    return HsKernel(s, radii, table, phi0, lip, spline,
                    float(slope), float(intercept))


def phi_s(z, kernel: HsKernel):
    """Kernel value by radial table lookup with cubic interpolation.

    The tail beyond the table uses the exponential decay fit and errors
    out once the fitted value underflows the validity floor.
    """
    r = np.abs(np.asarray(z, dtype=float))
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    out = np.empty_like(r)
    inside = r <= _TABLE_RMAX
    out[inside] = kernel._spline(r[inside])
    if np.any(~inside):
        far = r[~inside]
        logv = kernel._tail_log_intercept + kernel._tail_log_slope * far
        if np.any(logv < -700.0):
            raise KaclabError(
                f"kernel queried at |z| = {far.max():g}, beyond the decay-fit "
                f"validity range")
        out[~inside] = np.exp(logv)
    return float(out[0]) if scalar else out


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
            f"squared distance {val:.3e} below -{_NEG_CLAMP}; kernel table "
            f"is corrupt")
    return max(val, 0.0)


def _gl_panels(a: float, b: float, panel: float):
    nodes, weights = np.polynomial.legendre.leggauss(12)
    n_panels = max(1, int(math.ceil((b - a) / panel)))
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    xs = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    ws = (half[:, None] * weights[None, :]).ravel()
    return xs, ws


def hs_dist_sq_fourier_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure,
                              s: float) -> float:
    """Independent oracle: int |mu_hat - nu_hat|^2 <xi>^{-2s} d xi.

    The head [0, _XI_HEAD] integrates the assembled Fourier-side integrand
    on oscillation-resolving Gauss-Legendre panels; the tail is summed
    pairwise with adaptive oscillatory quadrature on [_XI_HEAD, inf).
    """
    pts, wts = _signed_atoms(mu, nu)
    span = float(pts.max() - pts.min()) if len(pts) > 1 else 1.0
    panel = min(0.25, math.pi / (2.0 * max(span, 1.0)))
    xs, ws = _gl_panels(0.0, _XI_HEAD, panel)
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


def hs_w1_bridge_check(mu: DiscreteMeasure, nu: DiscreteMeasure,
                       k: float, s: float,
                       kernel: HsKernel | None = None):
    """Measured W1 against its explicit H^{-s}-moment upper bound.

    Returns (w1, bound) and raises if the bound fails. The explicit
    constant follows the truncate-mollify-dualize argument in d = 1;
    it is generous but concrete.
    """
    from .transport import BOUNDED_L1, w1_discrete
    if s < 1 or k <= 0:
        raise DimensionError("bridge check needs s >= 1 and k > 0")
    kern = kernel if kernel is not None else make_hs_kernel(s)
    w1 = w1_discrete(mu, nu, BOUNDED_L1).cost
    hs = math.sqrt(hs_dist_sq(mu, nu, kern))
    mk = mu.moment(k) + nu.moment(k)
    c_d = 6.0 * math.sqrt(10.0)
    const = c_d * (1.0 + ((s - 1.0) / 2.0) ** ((s - 1.0) / 2.0))
    expo = 2.0 * k / (1.0 + 2.0 * k * s)
    bound = const * mk ** (1.0 / (1.0 + 2.0 * k * s)) * hs ** expo
    if w1 > bound + 1e-9:
        raise KaclabError(f"W1 = {w1} exceeds its H^-s bound {bound}")
    return w1, bound
