"""Entropy and Fisher information functionals, absolute and relative.

Sign convention: H(F) = (1/j) int F log F, the negative of physical
entropy, so every cited inequality applies without sign gymnastics. All
functionals are normalized by the number of variables, which makes
H(f tensor j) = H(f) and I(f tensor j) = I(f) identities rather than
scalings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma

from . import core
from .core import (Density, DimensionError, GridDensity, ProductGridDensity,
                   SupportError)

__all__ = [
    "InfoValue",
    "entropy",
    "relative_entropy",
    "fisher",
    "relative_fisher",
    "entropy_knn",
    "hwi_check",
    "HWI_C_E",
    "superadditivity_check",
    "fisher_superadditivity_grid",
    "w2_quantile",
]

_DENSITY_FLOOR = 1e-14
_EPS = np.finfo(float).eps

# w2_quantile brackets each quantile between two of this many + 1
# equispaced points of g.quad_bounds(), then takes at most 64 safeguarded
# Newton steps; 64 bisections alone would shrink a bracket of width W to
# about 5e-20 W, well below what a float64 cdf can resolve.
_QUANTILE_CELLS = 256
_QUANTILE_STEPS = 64

# The flat-space constant C_E of the transport-information inequality.
HWI_C_E = 1.0


@dataclass(frozen=True)
class InfoValue:
    """A normalized information functional value (nats per variable)."""

    value: float
    method: str
    stderr: float | None = None
    n_warnings: int = 0


def _expect(f: Density, g, tol: float) -> float:
    """int g f over f.quad_bounds(), zero where f is below the floor; g is
    called on the arrays of nodes where f is above it."""
    lo, hi = f.quad_bounds()

    def integrand(v):
        p = f.pdf(v)
        keep = p > _DENSITY_FLOOR
        out = np.zeros_like(p)
        out[keep] = g(v[keep]) * p[keep]
        return out

    return core.gauss_quadrature(integrand, lo, hi, tol)


def _xlogx(v):
    """v log v where v > 0 and 0 elsewhere, in one output array."""
    v = np.asarray(v, dtype=float)
    pos = v > 0
    out = np.log(v, out=np.zeros_like(v), where=pos)
    return np.multiply(out, v, out=out, where=pos)


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def entropy(f) -> InfoValue:
    """H(f) = int f log f, by quadrature on the support."""
    if isinstance(f, Density):
        return InfoValue(_expect(f, f.log_pdf, 1e-10), "quadrature")
    if isinstance(f, (GridDensity, ProductGridDensity)):
        j = 2 if isinstance(f, ProductGridDensity) else 1
        return InfoValue(float(np.sum(_xlogx(f.values)) * f.spacing ** j) / j,
                         "quadrature")
    raise DimensionError(f"cannot compute entropy of {type(f).__name__}")


def relative_entropy(f, g) -> InfoValue:
    """H(f|g) = int f log(f/g) >= 0, zero only at f = g, for two analytic
    densities; any other pair raises ``DimensionError``."""
    if isinstance(f, Density) and isinstance(g, Density):
        # g must be positive wherever f is above the floor; a violation is
        # looked for on the quadrature's own nodes, before integrating
        lo, hi = f.quad_bounds()
        xs = np.concatenate([core.gl_panels(lo, hi, n)[0]
                             for n in core.QUAD_PANELS])
        if np.any((f.pdf(xs) > _DENSITY_FLOOR) & (g.pdf(xs) <= 0.0)):
            return InfoValue(math.inf, "quadrature")
        log_ratio = lambda v: np.log(f.pdf(v)) - np.log(g.pdf(v))
        return InfoValue(_expect(f, log_ratio, 1e-10), "quadrature")
    raise DimensionError("relative_entropy needs a matching pair of carriers")


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------

def _central_diff(values: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Central difference of grid values along one axis, the values taken
    as 0 outside the grid."""
    v = np.moveaxis(values, axis, 0)
    zero = np.zeros_like(v[:1])
    padded = np.concatenate([zero, v, zero])
    return np.moveaxis((padded[2:] - padded[:-2]) / (2.0 * h), 0, axis)


def _grid_fisher_raw(values: np.ndarray, h: float) -> float:
    """Non-normalized int (f')^2 / f with central differences."""
    deriv = _central_diff(values, h)
    mask = values > _DENSITY_FLOOR
    return float(np.sum(deriv[mask] ** 2 / values[mask]) * h)


def fisher(f) -> InfoValue:
    """I(f) = int (f')^2 / f; flags +inf when f escapes W^{1,1}.

    For grid carriers the W^{1,1} dichotomy is decided by a dyadic
    refinement ratio: a density whose difference-quotient integral keeps
    growing roughly like 1/h (boundary jumps) is flagged infinite.
    """
    if isinstance(f, Density):
        if f.boundary_positive:
            return InfoValue(math.inf, "analytic")
        return InfoValue(_expect(f, lambda v: f.score(v) ** 2, 1e-9),
                         "quadrature")
    if isinstance(f, GridDensity):
        vals = f.values
        i_fine = _grid_fisher_raw(vals, f.spacing)
        i_mid = _grid_fisher_raw(vals[::2], 2 * f.spacing)
        i_coarse = _grid_fisher_raw(vals[::4], 4 * f.spacing)
        # 1/h divergence doubles per dyadic step; 3.5 leaves margin for the
        # exact-4 asymptote of a pure boundary jump while smooth densities
        # stay near ratio 1
        if i_coarse > 0 and i_fine / i_coarse >= 3.5 and i_fine > i_mid > i_coarse:
            return InfoValue(math.inf, "grid_refinement")
        return InfoValue(i_fine, "quadrature")
    raise DimensionError(f"cannot compute fisher of {type(f).__name__}")


def relative_fisher(f: Density, g: Density) -> InfoValue:
    """I(f|g) = int |(log f/g)'|^2 f, by quadrature."""
    return InfoValue(_expect(f, lambda v: (f.score(v) - g.score(v)) ** 2,
                             1e-9), "quadrature")


# ---------------------------------------------------------------------------
# sample-based entropy
# ---------------------------------------------------------------------------

def _kl_estimate(x: np.ndarray, order: np.ndarray, keep: np.ndarray) -> float:
    """Kozachenko-Leonenko estimate of int f log f from the kept draws.

    ``order`` sorts ``x`` and ``keep`` masks it. On the line a point's
    nearest neighbour is one of its two neighbours in sorted order, so its
    distance is the smaller adjacent gap among the kept points. The
    distances go back to sample order before their logs are averaged.
    """
    idx = order[keep[order]]
    gaps = np.diff(x[idx])
    eps = np.empty(len(x))
    eps[idx] = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))
    h_diff = (np.mean(np.log(eps[keep])) + math.log(2.0)
              + digamma(len(idx)) - digamma(1))
    return -float(h_diff)   # package sign convention: int f log f


def entropy_knn(samples: np.ndarray) -> InfoValue:
    """Nearest-neighbour estimate of int f log f from 1-D draws, with stderr.

    One stable sort of the draws gives every nearest-neighbour distance,
    for the whole sample and for each of the 10 jackknife blocks, which
    are taken in sample order. Duplicate draws are dropped (each first
    occurrence stays, and the drops are counted as warnings) since the
    estimator needs positive distances. Samples with more than one
    column, or a non-finite draw, raise ``DimensionError``.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 2 and 1 in x.shape:
        x = x.ravel()
    if x.ndim != 1:
        raise DimensionError(
            f"entropy_knn takes 1-D samples, got shape {x.shape}")
    if len(x) < 50:
        raise DimensionError("need at least 50 samples")
    if not np.all(np.isfinite(x)):
        raise DimensionError("samples must be finite")
    order = np.argsort(x, kind="stable")
    xs = x[order]
    first = np.ones(len(x), dtype=bool)
    first[1:] = xs[1:] != xs[:-1]
    n_dup = len(x) - int(first.sum())
    if n_dup:
        kept = np.zeros(len(x), dtype=bool)
        kept[order[first]] = True
        x, order = x[kept], (np.cumsum(kept) - 1)[order[first]]
        if len(x) < 50:
            raise DimensionError("too few distinct samples after dedup")
    n = len(x)
    full = _kl_estimate(x, order, np.ones(n, dtype=bool))
    m = 10   # jackknife blocks
    loo = []
    for b in np.array_split(np.arange(n), m):
        keep = np.ones(n, dtype=bool)
        keep[b] = False
        loo.append(_kl_estimate(x, order, keep))
    loo = np.array(loo)
    se = math.sqrt((m - 1) / m * float(np.sum((loo - loo.mean()) ** 2)))
    return InfoValue(full, "knn_estimator", stderr=se, n_warnings=n_dup)


# ---------------------------------------------------------------------------
# coupled functional inequalities
# ---------------------------------------------------------------------------

def _quantile(g: Density, u: np.ndarray, t: np.ndarray,
              gt: np.ndarray) -> np.ndarray:
    """min{x in [t_0, t_-1] : g.cdf(x) >= u} to the cdf's rounding level,
    where ``gt`` = g.cdf(t) on the sorted table ``t``.

    The table brackets each u with g.cdf(lo) < u <= g.cdf(hi). Newton
    steps on g.pdf, started by linear interpolation across the bracket,
    shrink it; a step that leaves the bracket, or meets an underflowed
    pdf, is replaced by bisection. A node stops after a Newton step from a
    residual within 4 eps in absolute terms, or once its bracket is a few
    ulps wide. So a quantile x lands within about 4 eps / g.pdf(x) of the
    exact one: float precision where the pdf is of order one, coarser in
    the tails. Below u = 4 eps every start passes the residual test, and
    x is one Newton step from the interpolated start, off by up to about
    a tenth of a table cell; only |g.cdf(x) - u| <= 4 eps holds there.
    u at most g.cdf(t_0) gives t_0, u above g.cdf(t_-1) gives t_-1.
    """
    i = np.searchsorted(gt, u, side="left")
    out = np.where(i == 0, t[0], t[-1])
    inner = np.flatnonzero((i > 0) & (i < len(t)))
    u, i = u[inner], i[inner]
    lo, hi = t[i - 1], t[i]
    x = lo + (u - gt[i - 1]) / (gt[i] - gt[i - 1]) * (hi - lo)
    act = np.arange(len(x))
    for _ in range(_QUANTILE_STEPS):
        xa, ua = x[act], u[act]
        res = g.cdf(xa) - ua
        below = res < 0
        lo[act[below]] = xa[below]
        hi[act[~below]] = xa[~below]
        la, ha = lo[act], hi[act]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = xa - res / g.pdf(xa)
        newton = (step >= la) & (step <= ha)
        x[act] = np.where(newton, step, 0.5 * (la + ha))
        done = ((newton & (np.abs(res) <= 4.0 * _EPS))
                | (ha - la <= 4.0 * _EPS * np.maximum(np.abs(xa), 1.0)))
        act = act[~done]
        if not act.size:
            break
    out[inner] = x
    return out


def w2_quantile(f: Density, g: Density) -> float:
    """1-D quadratic Wasserstein distance via the monotone coupling.

    W2^2 = int (x - G^{-1}(F(x)))^2 f(x) dx, with G^{-1} found to the
    cdf's rounding level at every node from one cdf table on
    g.quad_bounds() by safeguarded Newton steps (``_quantile``).
    """
    t = np.linspace(*g.quad_bounds(), _QUANTILE_CELLS + 1)
    gt = g.cdf(t)

    def sq_shift(x):
        u = np.clip(f.cdf(x), 0.0, 1.0)
        return (x - _quantile(g, u, t, gt)) ** 2

    return math.sqrt(max(_expect(f, sq_shift, 1e-8), 0.0))


def hwi_check(f: Density, g: Density):
    """Both sides of H(f) <= H(g) + C_E W2(f, g) sqrt(I(f)) on E = R, with
    C_E = ``HWI_C_E``.

    Returns (lhs, rhs, vacuous); interval supports are rejected since the
    flat-space transport inequality is what is being exercised.
    """
    for dens in (f, g):
        if math.isfinite(dens.support[0]) or math.isfinite(dens.support[1]):
            raise SupportError("hwi_check is restricted to densities on all of R")
    lhs = entropy(f).value - entropy(g).value
    i_f = fisher(f).value
    if math.isinf(i_f):
        return lhs, math.inf, True
    rhs = HWI_C_E * w2_quantile(f, g) * math.sqrt(i_f)
    return lhs, rhs, False


# ---------------------------------------------------------------------------
# superadditivity on pmf tensors and gridded carriers
# ---------------------------------------------------------------------------

def superadditivity_check(pmf: np.ndarray, i: int, j: int):
    """Non-normalized entropy superadditivity on a symmetric law on the
    alphabet {0..S-1}, given as its pmf tensor on {0..S-1}^{i+j}, which
    must pass ``core.check_symmetric_pmf``.

    Returns (lhs, rhs) = (H_{i+j}(F), H_i(F_i) + H_j(F_j)), F_i and F_j
    the marginals on the first i and the last j axes; the defining
    inequality is lhs >= rhs.
    """
    if not (core.is_int(i) and core.is_int(j) and i >= 1 and j >= 1):
        raise DimensionError(
            f"block sizes must be positive integers, got {i!r} and {j!r}")
    pmf = core.check_symmetric_pmf(pmf)
    n = i + j
    if pmf.ndim != n:
        raise DimensionError(f"pmf lives on E^{pmf.ndim}, expected E^{n}")
    lhs = float(np.sum(_xlogx(pmf)))
    rhs = sum(float(np.sum(_xlogx(pmf.sum(axis=tuple(other)))))
              for other in (range(i, n), range(i)))
    return lhs, rhs


def fisher_superadditivity_grid(F: ProductGridDensity):
    """Non-normalized Fisher superadditivity on a two-variable grid density.

    Returns (lhs, rhs) = (I_2(F), I_1(F_1) + I_1(F_2)). Both sides take
    the same central differences, with F taken as 0 outside the grid, so
    a product F gives lhs = rhs.
    """
    h = F.spacing
    vals = F.values
    gx = _central_diff(vals, h, 0)
    gy = _central_diff(vals, h, 1)
    mask = vals > _DENSITY_FLOOR
    lhs = float(np.sum((gx[mask] ** 2 + gy[mask] ** 2) / vals[mask]) * h * h)
    rhs = (_grid_fisher_raw(F.marginal(0).values, h)
           + _grid_fisher_raw(F.marginal(1).values, h))
    return lhs, rhs
