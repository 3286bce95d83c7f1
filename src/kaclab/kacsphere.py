"""Uniform and conditioned-product laws on the sphere of squared radius N.

The sphere carries the uniform law (sampled by Gaussian projection, with
exact marginals through log-gamma area ratios) and, for a centered
unit-variance density f, the conditioned product law: the tensor power
restricted and renormalized to the sphere. All partition-function work
happens through the iterated convolution of the law of v^2, computed once
on a fine grid in the Fourier domain and queried in the log domain, since
the gamma-function prefactors overflow long before N reaches 300. The
masses are folded onto a period that covers the widest window, and each
window is inverted at its own shorter period, so the transforms are as
short as the windows rather than the whole grid. Only the cells below the
CDF's saturation edge carry mass, so no grid-long array is ever built.
Each window is one zero-padded float64 buffer, the only form in which the
table holds it, from the build through the cache file, which stores those
buffers as they are, to the lookup: a loaded table maps the file
read-only, so a lookup pages in only the cells it reads. A table built for
a file is written to it window by window as it is built, so the build
holds one window at a time, never the whole table.

Key identities used below, with h the law of v^2 under f:

* h^{*k}(r^2) recovers the sphere partition function Z'_k(r) after
  dividing by the chi-square-type density alpha_k(r^2)/(Gamma(k/2) 2^{k/2}).
* The first marginal of the conditioned product law is
  f(v) h^{*(N-1)}(N - v^2) / h^{*N}(N), which equals f * theta_{N,1};
  the correction factor theta is also computed through its sphere-area
  form as a cross-check.
* Under the conditioned law, a coordinate given remaining squared radius
  u on k coordinates has density proportional to f(v) h^{*(k-1)}(u - v^2).
  The sequential sampler draws each coordinate from this density on the
  table's grid, so its rows follow the grid law conditioned on no
  overshoot rather than the conditioned law exactly.
"""
from __future__ import annotations

import json
import math
import mmap
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.special import betainc, gammainc, gammaln

from .core import (Density, DimensionError, HypothesisError, KaclabError,
                   gauss_quadrature, gaussian_density, is_int,
                   spectrum_power)
from .information import relative_entropy

__all__ = [
    "PartitionTable",
    "ConditionedSample",
    "sample_sigma",
    "sigma_marginal_log_pdf",
    "sigma_marginal_pdf",
    "marginal_gauss_l1",
    "radial_projection_cost",
    "build_partition_table",
    "theta",
    "theta_h_ratio",
    "theta_l1_distance",
    "sample_conditioned",
    "entropy_chaos_gap",
    "fisher_chaos_terms",
    "save_table",
    "load_table",
    "cache_path",
    "CACHE_ENV_VAR",
]

CACHE_ENV_VAR = "KACLAB_CACHE_DIR"
_MAGIC = b"KLPT2\x00"

# Partition-table u-grid spacing before rounding to a power-of-two size.
_DU = 0.004
# cells of the sampler's per-coordinate inverse CDF, searched in blocks
_SAMPLER_GRID = 384
_SAMPLER_BLOCK = 16
# cell i's index in the grid's positive half, and its block
_CELL_HALF = np.abs(2 * np.arange(_SAMPLER_GRID) - (_SAMPLER_GRID - 1)) // 2
_CELL_BLOCK = np.arange(_SAMPLER_GRID) // _SAMPLER_BLOCK
# angles phi_i = 2 pi i / _CIRCLE_GRID of the sampler's final circle, whose
# block masses are summed _CIRCLE_ROWS rows at a time
_CIRCLE_GRID = 1024
_CIRCLE_ROWS = 64
# resamples of rows that met a zero-mass conditional density
_MAX_RESAMPLES = 50
# Query points per block of a table lookup: its four reused 128 kB buffers
# stay in cache, where whole-query temporaries do not.
_LOOKUP_BLOCK = 1 << 14


def sample_sigma(N: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw count i.i.d. points of the uniform sphere law, shape (count, N).

    Gaussian vectors are radially projected to radius sqrt(N); rows satisfy
    the sphere constraint to relative 1e-12.
    """
    if not (is_int(N) and N >= 5):
        raise DimensionError(f"need an int N >= 5, got {N!r}")
    if not (is_int(count) and count >= 0):
        raise DimensionError(f"count must be a nonnegative integer, "
                             f"got {count!r}")
    z = rng.standard_normal((count, N))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    return z * (math.sqrt(N) / norms)


def _log_sphere_area(k: int) -> float:
    # surface of the unit sphere S^{k-1} in R^k
    return math.log(2.0) + (k / 2.0) * math.log(math.pi) - gammaln(k / 2.0)


def sigma_marginal_log_pdf(N: int, ell: int, V: np.ndarray) -> np.ndarray:
    """log of the ell-variable marginal density of the uniform sphere law."""
    if not (is_int(N) and is_int(ell) and 1 <= ell <= N - 1):
        raise DimensionError(f"need int 1 <= ell <= N-1, got ell={ell}, N={N}")
    V = np.atleast_2d(np.asarray(V, dtype=float))
    if V.shape[1] != ell:
        raise DimensionError(f"V must have {ell} columns")
    sq = np.sum(V ** 2, axis=1)
    t = 1.0 - sq / N
    const = (_log_sphere_area(N - ell) - _log_sphere_area(N)
             - 0.5 * ell * math.log(N))
    with np.errstate(divide="ignore"):
        out = np.where(t > 0.0,
                       0.5 * (N - ell - 2) * np.log(np.maximum(t, 1e-300)) + const,
                       -np.inf)
    return out


def sigma_marginal_pdf(N: int, ell: int, V: np.ndarray) -> np.ndarray:
    """Exact marginal density; zero outside the ball of squared radius N."""
    return np.exp(sigma_marginal_log_pdf(N, ell, V))


def marginal_gauss_l1(N: int, ell: int = 1) -> float:
    """Exact L1 distance between the sphere's ell-marginal and the Gaussian.

    Both laws are radial, so the distance equals the one between the laws
    of u = |v|^2: N times a Beta(ell/2, (N-ell)/2) variable against the
    chi-square law with ell degrees of freedom. Their log-density ratio is
    concave in u with its peak at u = ell + 2, so the sphere law is the
    heavier one exactly on an interval (u1, u2), and the distance is twice
    the difference of the two masses there, read off the regularized
    incomplete beta and gamma functions. Needs 1 <= ell <= N - 3; at
    ell = N - 2 the ratio is no longer concave.
    """
    if not (is_int(N) and is_int(ell) and 1 <= ell <= N - 3):
        raise DimensionError(f"need int 1 <= ell <= N-3, got ell={ell}, N={N}")
    a, b = ell / 2.0, (N - ell) / 2.0
    log_c = gammaln(N / 2.0) - gammaln(b) - a * math.log(N / 2.0)

    def log_ratio(u):
        log_t = math.log1p(-u / N) if u < N else -math.inf
        return log_c + (b - 1.0) * log_t + u / 2.0

    peak = ell + 2.0
    u1 = 0.0 if log_ratio(0.0) >= 0.0 else brentq(log_ratio, 0.0, peak)
    u2 = brentq(log_ratio, peak, N)
    sphere = betainc(a, b, u2 / N) - betainc(a, b, u1 / N)
    gauss = gammainc(a, u2 / 2.0) - gammainc(a, u1 / 2.0)
    return float(2.0 * (sphere - gauss))


def radial_projection_cost(N: int) -> float:
    """Exact mean of the normalized l1 displacement of P(V) = sqrt(N) V/|V|
    from iid Gaussian V: an upper bound on the transport distance between
    the uniform sphere law and the Gaussian tensor power. R = |V|/sqrt(N)
    is independent of u = V/|V|, so the mean is E|1 - R| E A with
    A = sum_i |u_i|/sqrt(N), E R E A = E|V_1| = sqrt(2/pi) and
    E|1 - R| = E R - 1 + 2 (P(chi2_N < N) - E R P(chi2_{N+1} < N)).
    """
    if not (is_int(N) and N >= 1):
        raise DimensionError(f"need a positive integer N, got {N!r}")
    mean_r = math.sqrt(2.0 / N) * math.exp(gammaln((N + 1) / 2.0)
                                           - gammaln(N / 2.0))
    mean_gap = (mean_r - 1.0 + 2.0 * (gammainc(N / 2.0, N / 2.0)
                - mean_r * gammainc((N + 1) / 2.0, N / 2.0)))
    return float(mean_gap * math.sqrt(2.0 / math.pi) / mean_r)


# ---------------------------------------------------------------------------
# partition table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionTable:
    """Windows of h^{*k} on a fine u-grid plus the scalars they imply.

    ``windows[k]`` is (start, padded), padded the window's one float64
    buffer: a zero, the values at cells start, start + 1, ..., two zeros.
    The sentinels absorb out-of-window queries without masking, so a lookup
    only reads. Built buffers are filled in place and loaded ones are
    read-only views of the file mapping; no window is copied. A buffer
    whose three sentinels are not all exactly 0 raises ``KaclabError``.
    """

    density_name: str
    max_N: int
    du: float
    u_max: float
    E: float
    Sigma: float
    ks: tuple
    windows: dict = field(repr=False)   # k -> (start_index, padded)

    def __post_init__(self):
        for k, (_, padded) in self.windows.items():
            if len(padded) < 3 or np.any(padded[[0, -2, -1]] != 0.0):
                raise KaclabError(f"{self.density_name} window k={k}: a "
                                  f"zero sentinel is not zero")

    def conv_density(self, k: int, u) -> np.ndarray:
        """h^{*k}(u) by linear interpolation, zero outside the stored window.

        The u-grid is uniform, so the lookup is direct index arithmetic
        rather than a binary search. The flattened query is walked in
        blocks of ``_LOOKUP_BLOCK`` points through reused buffers; each
        block runs the one-shot interpolation's float operations in the
        same order, so the values are bitwise those of
        ``lo + frac * (hi - lo)`` on the whole query. ±inf and far queries
        give 0; a NaN query raises ``KaclabError``.
        """
        if k not in self.windows:
            raise KaclabError(f"table holds no convolution for k={k}; "
                              f"rebuild with this k included")
        start, padded = self.windows[k]
        u = np.asarray(u, dtype=float)
        flat = u.ravel()
        # min propagates NaN, so one reduction finds any NaN query
        if np.isnan(flat.min(initial=0.0)):
            raise KaclabError(f"conv_density(k={k}) got "
                              f"{int(np.isnan(flat).sum())} NaN queries")
        out = np.empty(flat.size)
        width = min(flat.size, _LOOKUP_BLOCK)
        pos_buf, fl_buf, lo_buf = (np.empty(width) for _ in range(3))
        base_buf = np.empty(width, dtype=np.intp)
        for i in range(0, flat.size, _LOOKUP_BLOCK):
            hi = out[i:i + _LOOKUP_BLOCK]
            n = len(hi)
            pos, fl, lo = pos_buf[:n], fl_buf[:n], lo_buf[:n]
            base = base_buf[:n]
            np.multiply(flat[i:i + n], 1.0 / self.du, out=pos)
            pos -= start
            np.clip(pos, -1.0, len(padded) - 3, out=pos)
            np.floor(pos, out=fl)
            np.copyto(base, fl, casting="unsafe")
            # padded[base] is the cell's left value and padded[1:][base] its
            # right one; base >= 0 after the clip, so mode "clip" never clips
            # and only spares take its bounds check
            base += 1
            pos -= fl
            padded.take(base, out=lo, mode="clip")
            padded[1:].take(base, out=hi, mode="clip")
            hi -= lo
            hi *= pos
            hi += lo
        return out.reshape(u.shape) if u.ndim else float(out[0])

    def log_zprime(self, k: int, rsq) -> np.ndarray:
        """log Z'_k(sqrt(rsq)), the Gaussian-normalized partition function."""
        rsq = np.asarray(rsq, dtype=float)
        hk = self.conv_density(k, rsq)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (np.log(hk) + gammaln(k / 2.0) + (k / 2.0) * math.log(2.0)
                   - (k / 2.0 - 1.0) * np.log(rsq) + rsq / 2.0)
        return np.where(hk > 0.0, out, -np.inf)


def _u_cell_masses(f: Density, du: float, m: int) -> np.ndarray:
    """Exact masses of the law of v^2 under f in the u-grid's cells, via the
    CDF, up to the last cell that can hold mass.

    The m cells have edges 0 and du (i + 1/2), i < m. Cell i holds
    (cdf(r_{i+1}) - cdf(r_i)) + (cdf(-r_i) - cdf(-r_{i+1})), r = sqrt(edges).
    For a monotone cdf bounded by 1, every mass past the first edge with
    cdf(r) == 1 and cdf(-r) == 0 is exactly 0, so that edge is found by
    bisection and the cdf is evaluated once at +r and once at -r, on the
    edges up to it only. The masses end at that edge (all m of them if no
    edge saturates): bitwise the first masses of the formula on the whole
    grid, whose later masses are exactly 0. Raises HypothesisError if an
    evaluated cdf value leaves [0, 1] or a mass comes out negative.
    """
    cdf = f.cdf

    def radii(lo, hi):
        # sqrt of edges lo .. hi - 1, each computed as on the whole grid
        edges = du * (np.arange(lo - 1, hi - 1) + 0.5)
        if lo == 0:
            edges[0] = 0.0
        return np.sqrt(edges)

    def saturated(i):
        r = radii(i, i + 1)
        return cdf(r)[0] == 1.0 and cdf(-r)[0] == 0.0

    lo, cut = 0, m
    if saturated(cut):
        while lo < cut:     # the first saturated edge lies in [lo, cut]
            mid = (lo + cut) // 2
            if saturated(mid):
                cut = mid
            else:
                lo = mid + 1
    r = radii(0, cut + 1)
    right, left = cdf(r), cdf(-r)
    masses = (right[1:] - right[:-1]) + (left[:-1] - left[1:])
    if not (min(right.min(), left.min()) >= 0.0
            and max(right.max(), left.max()) <= 1.0):
        raise HypothesisError(f"{f.name}: cdf leaves [0, 1] on the u-grid")
    if not masses.min(initial=0.0) >= 0.0:
        i = int(np.argmin(masses))
        raise HypothesisError(f"{f.name}: cdf is not monotone: cell {i} of "
                              f"the u-grid has mass {masses[i]:.3g}")
    return masses


def _fold(masses: np.ndarray, P: int) -> np.ndarray:
    """The masses folded modulo P, sum_j masses[t + j P], added in order of
    j as on the zero-padded grid, whose later cells add exact zeros."""
    out = np.zeros(P)
    for j in range(0, len(masses), P):
        chunk = masses[j:j + P]
        out[:len(chunk)] += chunk
    return out


def _window_bounds(k: int, E: float, Sigma: float,
                   du: float) -> tuple[int, int]:
    """Index range [i0, i1) outside which h^{*k} has negligible mass.

    The stored window is this range cut at the end of the u-grid.
    """
    width = max(24.0 * math.sqrt(k) * Sigma, 120.0) + 60.0
    lo = max(0.0, k * E - width)
    return int(lo / du), int((k * E + width) / du) + 1


def build_partition_table(f: Density, max_N: int, ks=None,
                          path: str | None = None) -> PartitionTable:
    """Tabulate h^{*k} for the requested k values (default: all k <= max_N).

    Hypotheses enforced: centered, unit variance, finite sixth moment, a
    bounded density and a monotone cdf valued in [0, 1]. Cell masses of the
    law of v^2 come from the CDF, so the inverse-square-root singularity at
    zero costs no accuracy; powers of the spectrum are exact up to floating
    point, and the grid is kept fine enough that the gaussian reference
    reproduces Z' = 1 to about 2e-5. The cdf is evaluated only up to the
    first edge where it saturates (cdf(r) == 1 and cdf(-r) == 0 in floating
    point); every later mass is exactly 0 (see ``_u_cell_masses``), so only
    the masses before it are folded, and no m-long array is built.

    The m cell masses are folded modulo P, the smallest power of two that
    covers the widest window's mass range (at most 2m), so every spectrum
    power has length P rather than 2m. Each window is then inverted at its
    own period P_k, the smallest power of two covering its range, capped at
    P: the inverse FFT of every (P/P_k)-th bin of the k-th power. This is
    exact: every (2m/P)-th bin of the 2m-point spectrum is the spectrum of
    the masses folded mod P, and so on down to P_k, so the inverse at t is
    sum_j h^{*k}(t + j P_k), which differs from h^{*k}(t) on the window
    only by mass outside that window's range, the mass the table already
    treats as zero.

    With a ``path``, the table is written window by window as it is built:
    the header first, to a temporary file next to ``path`` (every window's
    start and length follow from ``_window_bounds`` before any transform),
    then each window's padded buffer as soon as it is built, after which
    the build drops it; the file is renamed into place and the table
    returned maps it read-only, as ``load_table`` does. A failed write
    leaves no temporary file and any old file at ``path`` untouched.
    Without a path the windows are kept in memory.
    """
    failures = []
    mean = f.raw_moments.get(1)
    var_raw = f.raw_moments.get(2)
    if mean is None or abs(mean) > 1e-8:
        failures.append(f"mean {mean!r} != 0")
    if var_raw is None or abs(var_raw - (mean or 0.0) ** 2 - 1.0) > 1e-6:
        failures.append(f"variance {var_raw!r} != 1")
    if 6 not in f.raw_moments:
        failures.append("sixth moment not declared finite")
    probe = np.linspace(*f.quad_bounds(), 4001)
    if not np.all(np.isfinite(f.pdf(probe))) or np.max(f.pdf(probe)) > 1e6:
        failures.append("density is not essentially bounded")
    if failures:
        raise HypothesisError("; ".join(failures))

    lo, hi = f.quad_bounds()
    E = gauss_quadrature(lambda v: v * v * f.pdf(v), lo, hi, 1e-10)
    Sigma = math.sqrt(gauss_quadrature(
        lambda v: (v * v - E) ** 2 * f.pdf(v), lo, hi, 1e-10))

    if ks is None:
        ks = list(range(1, max_N + 1))
    ks = tuple(sorted(set(int(k) for k in ks)))
    if ks[0] < 1 or ks[-1] > max_N:
        raise DimensionError("requested k values must lie in [1, max_N]")

    u_max = 8.0 * max_N
    m = int(2 ** math.ceil(math.log2(u_max / _DU)))
    du = u_max / m
    bounds = [_window_bounds(k, E, Sigma, du) for k in ks]
    starts = [i0 for i0, _ in bounds]
    lengths = [min(i1, m) - i0 for i0, i1 in bounds]
    windows = _built_windows(f, du, m, ks, bounds, lengths)
    meta = (f.name, max_N, du, u_max, E, Sigma, ks)
    if path is None:
        return PartitionTable(*meta, {k: (i0, padded) for k, i0, padded
                                      in zip(ks, starts, windows)})
    _write_table(path, meta, starts, lengths, windows)
    return _map_table(path)


def _built_windows(f: Density, du: float, m: int, ks, bounds, lengths):
    """Yield each k's padded window in ks order, holding no window once it
    is yielded.

    The cell masses and their spectrum are made at the first window, so a
    caller can write the header before any transform. The running power is
    multiplied in place, by ``spectrum`` itself for a step of one, and
    every inverse FFT writes into one reused P-point buffer.
    """
    widest = max(i1 - i0 for i0, i1 in bounds)
    P = min(2 * m, 1 << (widest - 1).bit_length())
    spectrum = np.fft.rfft(_fold(_u_cell_masses(f, du, m), P))
    inverse = np.empty(P)
    cur, cur_k = None, 0
    for k, (i0, i1), n in zip(ks, bounds, lengths):
        if cur is None:
            cur = spectrum_power(spectrum, k)
        else:
            cur *= (spectrum if k - cur_k == 1
                    else spectrum_power(spectrum, k - cur_k))
        cur_k = k
        P_k = min(P, 1 << (i1 - i0 - 1).bit_length())
        yield _padded_window(np.fft.irfft(cur[::P // P_k], n=P_k,
                                          out=inverse[:P_k]), i0, n, du)


def _padded_window(dens: np.ndarray, i0: int, n: int,
                   du: float) -> np.ndarray:
    """The padded buffer of cells i0 .. i0 + n - 1 of h^{*k}, read from the
    inverse transform dens of period P_k = len(dens): a zero, the values
    clipped at 0 and divided by du, two zeros. The cells wrap at most
    once, as n <= P_k."""
    P_k = len(dens)
    buf = np.zeros(n + 3)
    vals = buf[1:-2]
    a = i0 % P_k
    head = min(n, P_k - a)
    vals[:head] = dens[a:a + head]
    vals[head:] = dens[:n - head]
    np.maximum(vals, 0.0, out=vals)
    vals /= du
    return buf


# ---------------------------------------------------------------------------
# the correction factor theta and the conditioned sampler
# ---------------------------------------------------------------------------

def theta(N: int, ell: int, V, table: PartitionTable) -> np.ndarray:
    """Correction factor of the conditioned-product ell-marginal.

    The ell-marginal equals f tensor ell times this factor. Computed in the
    log domain from the partition-function ratio and the sphere marginal;
    zero outside the ball of squared radius N.
    """
    if ell not in (1, 2):
        raise DimensionError("theta is shipped for ell in {1, 2}")
    if not (is_int(N) and N > ell):
        raise DimensionError(f"need an int N > {ell}, got {N!r}")
    V = np.atleast_2d(np.asarray(V, dtype=float))
    if V.shape[1] != ell:
        raise DimensionError(f"V must have {ell} columns")
    sq = np.sum(V ** 2, axis=1)
    inside = sq < N
    out = np.zeros(len(V))
    if np.any(inside):
        vi = V[inside]
        sqi = sq[inside]
        log_th = (0.5 * ell * math.log(2.0 * math.pi) + 0.5 * sqi
                  + table.log_zprime(N - ell, N - sqi)
                  - table.log_zprime(N, float(N))
                  + sigma_marginal_log_pdf(N, ell, vi))
        out[inside] = np.exp(log_th)
    return out


def theta_h_ratio(N: int, v, table: PartitionTable) -> np.ndarray:
    """theta_{N,1} through the bare convolution ratio h*(N-1)/h*N.

    Independent of the sphere-area and gamma-prefactor bookkeeping; used to
    cross-check the log-domain route.
    """
    if not (is_int(N) and N > 1):
        raise DimensionError(f"need an int N > 1, got {N!r}")
    v = np.atleast_1d(np.asarray(v, dtype=float))
    num = table.conv_density(N - 1, N - v ** 2)
    den = table.conv_density(N, float(N))
    return np.where(v ** 2 < N, num / den, 0.0)


@dataclass(frozen=True)
class ConditionedSample:
    """Output of the sequential conditioned sampler."""

    samples: np.ndarray         # (count, N), rows on the sphere
    n_resampled: int


def _require_table_of(f: Density, table: PartitionTable):
    """Refuse a table built for another density.

    ``Density.name`` formats parameters with ``:g`` (six significant
    digits), so this catches a wrong density but not a parameter change
    below the sixth digit.
    """
    if table.density_name != f.name:
        raise KaclabError(f"table was built for {table.density_name!r}, "
                          f"not for {f.name!r}")


def _block_search(cum: np.ndarray, u: np.ndarray, cell_mass):
    """Inverse-CDF search of each row's u over cells in blocks of
    ``_SAMPLER_BLOCK``: cum holds the rows' cumulative block masses, and
    cell_mass(cells) the masses at an array of cell indices, one row per
    row of cum. Only the block holding u is read cell by cell.

    Returns (cell, below, mass, u): the drawn cell, the mass before it, its
    mass, and u clamped to its block's recomputed end, which keeps rounding
    from drawing past the block's last cell of nonzero mass.
    """
    B = _SAMPLER_BLOCK
    blk = np.minimum((cum < u[:, None]).sum(axis=1), cum.shape[1] - 1)
    sel = np.arange(len(u))
    cells = blk[:, None] * B + np.arange(B)
    dens = cell_mass(cells)
    # ends[:, c] is the mass up to the block's cell c, from the mass
    # before the block
    ends = np.cumsum(np.column_stack(
        (np.where(blk > 0, cum[sel, blk - 1], 0.0), dens)), axis=1)
    u = np.minimum(u, ends[:, -1])
    idx = (ends[:, 1:] < u[:, None]).sum(axis=1)
    return cells[sel, idx], ends[sel, idx], dens[sel, idx], u


def _sequential_draw(f: Density, N: int, count: int, table: PartitionTable,
                     rng: np.random.Generator):
    """One pass of the sequential sampler: (rows, failed), where a failed
    row met a zero-mass conditional density and holds no draw."""
    G, B = _SAMPLER_GRID, _SAMPLER_BLOCK
    out = np.empty((count, N))
    usq = np.full(count, float(N))
    failed = np.zeros(count, dtype=bool)
    lo, hi = f.quad_bounds()
    vcap = max(abs(lo), abs(hi))
    rows = np.arange(count)

    for j in range(N - 2):
        k = N - j
        act = rows[~failed]
        if len(act) == 0:
            break
        # one symmetric grid per step, shared across rows: cells i and
        # G - 1 - i have the same v^2, so the table is read at G/2 points;
        # infeasible cells get zero density through the convolution window
        vmax = min(vcap, math.sqrt(max(float(usq[act].max()), 1e-12)))
        step = 2.0 * vmax / (G - 1)
        half = (np.arange(G // 2) + 0.5) * step
        grid = np.concatenate((-half[::-1], half))
        pdf = f.pdf(grid)
        conv = table.conv_density(k - 1, usq[act, None] - half ** 2)
        # the masses of the G/B blocks of B cells as one product: weights
        # holds f at cell i's slot (_CELL_HALF[i], i // B), a slot of its
        # own since mirror cells lie in mirror blocks
        weights = np.zeros((G // 2, G // B))
        weights[_CELL_HALF, _CELL_BLOCK] = pdf
        cum = np.cumsum(conv @ weights, axis=1)
        tot = cum[:, -1]
        bad = tot <= 0.0
        if np.any(bad):
            failed[act[bad]] = True
            act, conv, cum, tot = act[~bad], conv[~bad], cum[~bad], tot[~bad]
        if len(act) == 0:
            continue
        u = rng.random(len(act)) * tot
        sel = np.arange(len(act))[:, None]
        cell, below, mass, u = _block_search(
            cum, u, lambda cells: conv[sel, _CELL_HALF[cells]] * pdf[cells])
        frac = np.where(mass > 0,
                        (u - below) / np.maximum(mass, 1e-300), 0.5)
        v = grid[cell] + (frac - 0.5) * step
        out[act, j] = v
        usq[act] = usq[act] - v ** 2

    act = rows[~failed]
    if len(act):
        r = np.sqrt(np.maximum(usq[act], 0.0))
        phi, bad = _circle_draw(f, r, rng)
        failed[act[bad]] = True
        act, r = act[~bad], r[~bad]
        out[act, N - 2] = r * np.cos(phi)
        out[act, N - 1] = r * np.sin(phi)
    return out, failed


def _circle_draw(f: Density, r: np.ndarray, rng: np.random.Generator):
    """The sampler's final two coordinates: an angle phi on each circle of
    radius r, from the density f(r cos phi) f(r sin phi) on M =
    ``_CIRCLE_GRID`` cells. Returns (phi, bad): bad marks the circles
    with no mass, and phi holds the other rows' angles, in order.

    At the angles phi_i = i step, cos phi_i = cos phi_{M - i} takes its
    distinct values at i <= M / 2, and sin phi_i = cos phi_{i - M / 4}, so
    f(r cos) is evaluated once, at M / 2 + 1 angles, and f(r sin) is its
    roll by M / 4. The block masses are summed ``_CIRCLE_ROWS`` rows at a
    time, and the search evaluates the density only at the cells of each
    row's chosen block, with the same operations, so no (rows x M) array
    is built.
    """
    B, M = _SAMPLER_BLOCK, _CIRCLE_GRID
    step = 2.0 * math.pi / M
    cosines = np.cos(np.arange(M // 2 + 1) * step)
    mirror = M // 2 - np.abs(np.arange(M) - M // 2)
    cum = np.empty((len(r), M // B))
    for i in range(0, len(r), _CIRCLE_ROWS):
        fcos = f.pdf(r[i:i + _CIRCLE_ROWS, None] * cosines)[:, mirror]
        dens = fcos * np.roll(fcos, M // 4, axis=1)
        np.cumsum(dens.reshape(len(dens), -1, B).sum(axis=2), axis=1,
                  out=cum[i:i + _CIRCLE_ROWS])
    bad = cum[:, -1] <= 0.0
    r, cum = r[~bad, None], cum[~bad]
    if len(r) == 0:
        return np.empty(0), bad

    def cell_mass(cells):
        return (f.pdf(r * cosines[mirror[cells]])
                * f.pdf(r * cosines[mirror[(cells - M // 4) % M]]))
    cell, _, _, _ = _block_search(cum, rng.random(len(r)) * cum[:, -1],
                                  cell_mass)
    return cell * step + rng.random(len(r)) * step, bad


def sample_conditioned(f: Density, N: int, count: int, table: PartitionTable,
                       rng: np.random.Generator) -> ConditionedSample:
    """Sequential sampler of the conditioned product law, on its grid and
    conditioned on no overshoot (see below).

    Coordinate by coordinate, v is drawn by inverse CDF on a grid of
    ``_SAMPLER_GRID`` cells from the conditional density
    f(v) h^{*(k-1)}(u - v^2) given the remaining squared radius u over k
    coordinates; the last two coordinates are drawn on the remaining circle
    from the angle density f(r cos) f(r sin). The grid is symmetric about
    0, so h^{*(k-1)} is looked up at half its cells; the draw finds its
    block of ``_SAMPLER_BLOCK`` cells from the block masses, one matrix
    product (through BLAS, so draws repeat for a fixed seed and thread
    count), and searches only that block. Within its cell a draw is
    placed uniformly, so one from the outermost feasible cell can overshoot
    the remaining radius; such a row then meets zero mass and is drawn
    again rather than clamped, which would bias the final circle. The rows
    thus follow the grid law conditioned on no overshoot, not the
    conditioned law exactly. Rows still failing after ``_MAX_RESAMPLES``
    resamples raise ``KaclabError``.
    """
    if not (is_int(N) and N >= 5):
        raise DimensionError(f"need an int N >= 5, got {N!r}")
    if not is_int(count) or count < 0:
        raise DimensionError(f"count must be a nonnegative integer, "
                             f"got {count!r}")
    _require_table_of(f, table)
    missing = [k for k in range(2, N) if k not in table.windows]
    if missing:
        raise KaclabError(f"table is missing convolutions {missing[:5]}...; "
                          f"build it with all k < N")
    out, failed = _sequential_draw(f, N, count, table, rng)
    n_resampled = 0
    for _ in range(_MAX_RESAMPLES):
        redo = np.flatnonzero(failed)
        if len(redo) == 0:
            break
        n_resampled += len(redo)
        out[redo], failed[redo] = _sequential_draw(f, N, len(redo), table,
                                                   rng)
    if np.any(failed):
        raise KaclabError("conditioned sampler could not complete; "
                          "table windows are too narrow")
    # exact renormalization onto the sphere (floating drift only)
    norms = np.sqrt(np.sum(out ** 2, axis=1))
    out *= (math.sqrt(N) / norms)[:, None]
    return ConditionedSample(out, n_resampled)


# ---------------------------------------------------------------------------
# entropy and Fisher chaos quantities
# ---------------------------------------------------------------------------

def _theta1_on_grid(f: Density, N: int, table: PartitionTable):
    _require_table_of(f, table)
    vmax = min(math.sqrt(N) * 0.999, max(abs(b) for b in f.quad_bounds()))
    v = np.linspace(-vmax, vmax, 20001)
    return v, theta(N, 1, v[:, None], table)


def theta_l1_distance(f: Density, N: int, table: PartitionTable) -> float:
    """L1 norm of (theta_{N,1} - 1) f: the marginal distance to f."""
    v, th = _theta1_on_grid(f, N, table)
    return float(np.trapezoid(np.abs(th - 1.0) * f.pdf(v), v))


def entropy_chaos_gap(f: Density, N: int, table: PartitionTable) -> float:
    """|H(F^N | sigma^N) - H(f | gamma)| via the partition-function identity.

    The sphere relative entropy of the conditioned law equals
    int log(f/gamma) dF^N_1 - (1/N) log Z'_N, with F^N_1 = f theta_{N,1};
    everything is quadrature plus one table lookup.
    """
    gauss = gaussian_density()
    v, th = _theta1_on_grid(f, N, table)
    fv = f.pdf(v)
    log_ratio = np.where(fv > 1e-300,
                         np.log(np.maximum(fv, 1e-300)) - gauss.log_pdf(v), 0.0)
    term = float(np.trapezoid(log_ratio * fv * th, v))
    log_zn = float(table.log_zprime(N, float(N)))
    return abs(term - log_zn / N - relative_entropy(f, gauss).value)


def fisher_chaos_terms(f: Density, N: int, table: PartitionTable,
                       samples: np.ndarray | None = None):
    """Main and correction terms of the sphere relative Fisher information.

    main = int |score_f(v) + v|^2 f theta_{N,1} (quadrature), the flat-space
    part; correction = (1/N^2) E |sum_i v_i (score_f(v_i) + v_i)|^2 over
    conditioned samples, the radial projection part. The sphere information
    is main - correction.
    """
    if f.boundary_positive:
        raise HypothesisError("f is not weakly differentiable on R")
    lo, hi = f.quad_bounds()
    weight = gauss_quadrature(
        lambda v: (f.score(v) + v) ** 2 * f.pdf(v) * (1 + v * v), lo, hi, 1e-8)
    if not math.isfinite(weight):
        raise HypothesisError("f fails the weighted Fisher hypothesis")
    v, th = _theta1_on_grid(f, N, table)
    fv = f.pdf(v)
    main = float(np.trapezoid((f.score(v) + v) ** 2 * fv * th, v))
    correction = math.nan
    if samples is not None:
        s = (f.score(samples) + samples)
        tot = np.sum(samples * s, axis=1)
        correction = float(np.mean(tot ** 2)) / N ** 2
    return main, correction


# ---------------------------------------------------------------------------
# binary cache
# ---------------------------------------------------------------------------
# Layout: magic "KLPT2\0", uint32 little-endian header length n, n bytes of
# UTF-8 JSON header {density_name, max_N, du, u_max, E, Sigma, ks, starts,
# lengths}, space-padded to end at an 8-byte-aligned offset; then each
# window's padded buffer (a zero, its values, two zeros) as float64
# little-endian, concatenated in ks order. A file is written under a
# temporary name in its directory and renamed into place, so no writer ever
# truncates a file that a reader has mapped. ``save_table`` and the streamed
# build of ``build_partition_table`` both write through ``_write_table``.

def save_table(table: PartitionTable, path: str):
    """Write a table to ``path`` in the layout above."""
    ks = table.ks
    _write_table(path, (table.density_name, table.max_N, table.du,
                        table.u_max, table.E, table.Sigma, ks),
                 [table.windows[k][0] for k in ks],
                 [len(table.windows[k][1]) - 3 for k in ks],
                 (table.windows[k][1] for k in ks))


def _write_table(path: str, meta, starts, lengths, windows):
    """Write the header of meta = (density_name, max_N, du, u_max, E,
    Sigma, ks) with every window's start and length, then each padded
    buffer that the iterable ``windows`` yields, in ks order, as it comes.
    On any failure the temporary file is removed and ``path`` is left as
    it was."""
    name, max_N, du, u_max, E, Sigma, ks = meta
    header = {"density_name": name, "max_N": max_N, "du": du,
              "u_max": u_max, "E": E, "Sigma": Sigma, "ks": list(ks),
              "starts": [int(i0) for i0 in starts],
              "lengths": [int(n) for n in lengths]}
    blob = json.dumps(header).encode()
    blob += b" " * (-(len(_MAGIC) + 4 + len(blob)) % 8)
    tmp = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(_MAGIC)
            fh.write(len(blob).to_bytes(4, "little"))
            fh.write(blob)
            for padded in windows:
                fh.write(padded.astype("<f8", copy=False))
                # a streamed window is freed before the next one is built
                del padded
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_table(path: str) -> PartitionTable:
    """Map a table written by ``save_table``, read-only: its windows are
    views of the file mapping, so a lookup pages in only the cells it reads.

    Raises ``KaclabError`` when the file is not a complete table: a wrong
    magic (that of an older layout included), a malformed header, a size
    other than the header implies or a nonzero sentinel.
    """
    return _map_table(path)


def _map_table(path: str) -> PartitionTable:
    # load_table's body; build_partition_table maps the file it has just
    # written through here, which is no load from the cache
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise KaclabError(f"{path} is not a partition table cache "
                              f"of this layout")
        n = int.from_bytes(fh.read(4), "little")
        try:
            header = json.loads(fh.read(n).decode())
            ks = [int(k) for k in header["ks"]]
            starts = [int(s) for s in header["starts"]]
            lengths = [int(m) for m in header["lengths"]]
            scalars = [float(header[key])
                       for key in ("du", "u_max", "E", "Sigma")]
            name, max_N = str(header["density_name"]), int(header["max_N"])
        except (ValueError, KeyError, TypeError) as exc:
            raise KaclabError(f"{path}: malformed header ({exc!r})") from exc
        offset = len(_MAGIC) + 4 + n
        if not (len(ks) == len(starts) == len(lengths) > 0
                and min(lengths) >= 0 and offset % 8 == 0):
            raise KaclabError(f"{path}: malformed header (window lists)")
        sizes = np.asarray(lengths) + 3
        ends = np.cumsum(sizes)
        begins = ends - sizes
        size, want = os.fstat(fh.fileno()).st_size, offset + 8 * int(ends[-1])
        if size != want:
            raise KaclabError(f"{path}: {size} bytes, its header implies "
                              f"{want}")
        mapping = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    data = np.frombuffer(mapping, dtype="<f8", offset=offset)
    windows = {k: (start, data[lo:hi])
               for k, start, lo, hi in zip(ks, starts, begins, ends)}
    return PartitionTable(name, max_N, *scalars, tuple(ks), windows)


def cache_path(density_name: str, max_N: int, ks) -> str:
    """The table's cache file under ``$KACLAB_CACHE_DIR``, else under
    ``~/.cache/kaclab``; the directory is made if missing."""
    import hashlib
    root = os.environ.get(CACHE_ENV_VAR,
                          os.path.join(os.path.expanduser("~"), ".cache",
                                       "kaclab"))
    os.makedirs(root, exist_ok=True)
    # the key holds the requested spacing _DU, not the table's rounded du
    key = hashlib.sha256(
        f"{density_name}|{max_N}|{_DU}|{sorted(set(int(k) for k in ks))}"
        .encode()).hexdigest()[:16]
    return os.path.join(root, f"ptable_{key}.bin")
