"""Shared domain types, seeded randomness contract, grids and quadrature.

Conventions used throughout the package:

* A configuration is a flat vector of N*d reals, one block of d per particle.
* Discrete measures carry finitely many weighted atoms; empirical measures
  are the uniform-weight special case.
* All stochastic operations take an explicit ``numpy.random.Generator``.
  Identical seeds give bit-identical outputs; callers split seeds with
  ``rng.spawn`` when they need independent streams.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf, stdtrit

__all__ = [
    "KaclabError",
    "DimensionError",
    "QuadratureError",
    "SizeError",
    "is_int",
    "check_reps",
    "HypothesisError",
    "SupportError",
    "Configuration",
    "DiscreteMeasure",
    "Density",
    "Grid",
    "GridFunction",
    "GridDensity",
    "ProductGridDensity",
    "RateReport",
    "make_empirical",
    "check_symmetric_pmf",
    "loglog_fit",
    "gl_rule",
    "gl_panels",
    "gauss_quadrature",
    "spectrum_power",
    "normal_pdf",
    "gaussian_mixture",
    "gaussian_components",
    "gaussian_density",
    "uniform_density",
    "bimodal_density",
    "QUAD_SIGMA_CUTOFF",
    "QUAD_PANELS",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)

# Sub-gaussian densities are integrated on mean +/- this many standard
# deviations; the discarded tail mass is below 1e-30.
QUAD_SIGMA_CUTOFF = 12.0

# Panel counts of the coarse and the fine pass of ``gauss_quadrature``.
QUAD_PANELS = (64, 128)

# The 12-node Gauss-Legendre rule on [-1, 1] that ``gl_rule`` composes.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


class KaclabError(Exception):
    """Base class for structured errors raised by this package."""


class DimensionError(KaclabError):
    """Shape or dimension mismatch between operands."""


class QuadratureError(KaclabError):
    """Adaptive quadrature failed to converge; carries the best estimate."""

    def __init__(self, message, best_estimate, error_estimate):
        super().__init__(f"{message} (best estimate {best_estimate!r}, "
                         f"error estimate {error_estimate!r})")
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


class SizeError(KaclabError):
    """An exact computation would blow past its size budget."""


def is_int(v) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def check_reps(count: int):
    """Refuse a Monte Carlo draw count that is no int or below 2."""
    if not is_int(count):
        raise DimensionError(f"a Monte Carlo draw count must be an int, "
                             f"got {count!r}")
    if count < 2:
        raise SizeError(f"a standard error needs at least 2 Monte Carlo "
                        f"draws, got {count}")


class HypothesisError(KaclabError):
    """Input violates a moment/integrability hypothesis of an operation."""


class SupportError(KaclabError):
    """Input violates a support or absolute-continuity requirement."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Configuration:
    """One N-particle state: a flat vector of N*d reals."""

    d: int
    n_particles: int
    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        object.__setattr__(self, "coords", coords)
        if self.d < 1 or self.n_particles < 1:
            raise DimensionError("d and n_particles must be positive")
        if coords.shape != (self.n_particles * self.d,):
            raise DimensionError(
                f"coords has shape {coords.shape}, expected "
                f"({self.n_particles * self.d},)")
        if not np.all(np.isfinite(coords)):
            raise DimensionError("coords must be finite")

    @property
    def particles(self) -> np.ndarray:
        """Coordinates reshaped to (N, d)."""
        return self.coords.reshape(self.n_particles, self.d)


def _check_masses(w: np.ndarray, what: str):
    """Raise ``DimensionError`` unless the masses w are finite, at least
    -1e-15 each and sum to 1 within 1e-12."""
    if not np.all(np.isfinite(w)):
        raise DimensionError(f"{what} must be finite")
    if np.any(w < -1e-15):
        raise DimensionError(f"{what} must be nonnegative")
    if abs(w.sum() - 1.0) > 1e-12:
        raise DimensionError(f"{what} sum to {w.sum()!r}, not 1")


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely many weighted atoms in R^dim, dim = j * particle_dim."""

    dim: int
    points: np.ndarray          # (n_atoms, dim)
    weights: np.ndarray         # (n_atoms,), nonnegative, sums to 1
    particle_dim: int = 1       # d; j = dim // particle_dim

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        if points.shape != (len(weights), self.dim):
            raise DimensionError(
                f"points shape {points.shape} inconsistent with dim={self.dim} "
                f"and {len(weights)} weights")
        if self.dim % self.particle_dim != 0:
            raise DimensionError("dim must be a multiple of particle_dim")
        if not np.all(np.isfinite(points)):
            raise DimensionError("atom points must be finite")
        _check_masses(weights, "weights")

    @property
    def j(self) -> int:
        return self.dim // self.particle_dim

    @property
    def n_atoms(self) -> int:
        return len(self.weights)

    def moment(self, k: float) -> float:
        """M_k = sum_a w_a <z_a>^k with <z> = sqrt(1 + |z|^2)."""
        sq = 1.0 + np.sum(self.points ** 2, axis=1)
        return float(np.sum(self.weights * sq ** (k / 2.0)))


@dataclass(frozen=True)
class Density:
    """Analytic 1-D probability density.

    ``score`` is (log pdf)'; ``sampler`` maps (rng, size) to draws.
    ``raw_moments`` maps order k to E v^k when known in closed form; an
    order it holds is promised finite. ``cf``, when known in closed form,
    is the characteristic function xi -> E e^{i xi v} on real arrays.
    """

    name: str
    pdf: Callable[[np.ndarray], np.ndarray]
    log_pdf: Callable[[np.ndarray], np.ndarray]
    score: Callable[[np.ndarray], np.ndarray]
    sampler: Callable[[np.random.Generator, int], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float] = (-math.inf, math.inf)
    raw_moments: dict = field(default_factory=dict)
    boundary_positive: bool = False   # pdf > 0 at a finite support edge
    components: tuple | None = None   # gaussian_mixture's (w, means, var)
    cf: Callable[[np.ndarray], np.ndarray] | None = None

    def quad_bounds(self) -> tuple[float, float]:
        """Effective integration bounds (truncated for unbounded support)."""
        lo, hi = self.support
        mean = self.raw_moments.get(1, 0.0)
        var = self.raw_moments.get(2, 1.0) - mean ** 2
        sd = math.sqrt(max(var, 1e-12))
        if not math.isfinite(lo):
            lo = mean - QUAD_SIGMA_CUTOFF * sd
        if not math.isfinite(hi):
            hi = mean + QUAD_SIGMA_CUTOFF * sd
        return lo, hi


@dataclass(frozen=True)
class Grid:
    """The uniform grid x_j = -L + j h, h = 2L/M, j = 0 .. M-1."""

    half_width: float
    n_points: int

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.n_points

    @property
    def xs(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.n_points)


@dataclass(frozen=True)
class GridFunction(Grid):
    """Signed values of a 1-D function on a ``Grid``."""

    values: np.ndarray

    def mean(self) -> float:
        return float(np.sum(self.xs * self.values) * self.spacing)

    def variance(self) -> float:
        m = self.mean()
        return float(np.sum((self.xs - m) ** 2 * self.values) * self.spacing)


def _check_power_of_two(n_points: int) -> None:
    if n_points & (n_points - 1) or n_points <= 0:
        raise DimensionError("n_points must be a power of two")


def _unit_mass(vals: np.ndarray, cell: float) -> np.ndarray:
    """Grid density values clamped at 0 and scaled to unit mass.

    ``cell`` is the length or area of one grid cell. Non-finite values,
    and values below -1e-12 times max(1, largest value), raise
    ``DimensionError``. Returns a new array; ``vals`` is kept.
    """
    if not np.all(np.isfinite(vals)):
        raise DimensionError("grid values must be finite")
    if np.any(vals < -1e-12 * max(1.0, vals.max(initial=0.0))):
        raise DimensionError("grid values must be nonnegative")
    vals = np.maximum(vals, 0.0)
    mass = vals.sum() * cell
    if mass <= 0:
        raise DimensionError("grid density has no mass")
    vals /= mass
    return vals


@dataclass(frozen=True)
class GridDensity(GridFunction):
    """Density values on a ``Grid``; M must be a power of two.

    Values are renormalized to unit mass on construction; ``h *
    sum(values)`` is then 1 to machine precision.
    """

    def __post_init__(self):
        _check_power_of_two(self.n_points)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.n_points,):
            raise DimensionError("values must have shape (n_points,)")
        object.__setattr__(self, "values", _unit_mass(vals, self.spacing))

    def standardized(self) -> "GridDensity":
        """Rescale to mean 0, variance 1 (resampled on the same grid)."""
        m, sd = self.mean(), math.sqrt(self.variance())
        new = np.interp(self.xs * sd + m, self.xs, self.values,
                        left=0.0, right=0.0) * sd
        return GridDensity(self.half_width, self.n_points, new)

    @classmethod
    def from_density(cls, f: Density, half_width: float,
                     n_points: int) -> "GridDensity":
        xs = Grid(half_width, n_points).xs
        return cls(half_width, n_points, np.maximum(f.pdf(xs), 0.0))


@dataclass(frozen=True)
class ProductGridDensity(Grid):
    """Two-variable density on the product of a ``Grid`` with itself; M
    must be a power of two."""

    values: np.ndarray          # (M, M)

    def __post_init__(self):
        _check_power_of_two(self.n_points)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.n_points, self.n_points):
            raise DimensionError("values must be (n_points, n_points)")
        object.__setattr__(self, "values",
                           _unit_mass(vals, self.spacing ** 2))

    def marginal(self, axis: int = 0) -> GridDensity:
        vals = self.values.sum(axis=1 - axis) * self.spacing
        return GridDensity(self.half_width, self.n_points, vals)


@dataclass(frozen=True)
class RateReport:
    """Least-squares power-law fit of values against sample sizes."""

    ns: tuple
    values: tuple
    fitted_slope: float
    fitted_intercept: float
    slope_ci: tuple[float, float]

    def __post_init__(self):
        ns = tuple(int(n) for n in self.ns)
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise DimensionError("ns must be strictly increasing")
        if not all(math.isfinite(v) for v in self.values):
            raise DimensionError("fit values must be finite")
        lo, hi = self.slope_ci
        if not (lo - 1e-12 <= self.fitted_slope <= hi + 1e-12):
            raise DimensionError("slope_ci must contain fitted_slope")
        object.__setattr__(self, "ns", ns)
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def check_symmetric_pmf(pmf) -> np.ndarray:
    """pmf as a float array; raise ``DimensionError`` unless it is a
    permutation-symmetric pmf on {0..S-1}^n: every axis of length S,
    entries that pass the mass rules of ``DiscreteMeasure``, and every
    entry unchanged, to 1e-12, under the transposition (0 1) and the cycle
    (0 1 ... n-1), which generate S_n."""
    pmf = np.asarray(pmf, dtype=float)
    n = pmf.ndim
    if n == 0 or len(set(pmf.shape)) > 1:
        raise DimensionError(f"pmf shape {pmf.shape} is not a cube")
    _check_masses(pmf, "pmf entries")
    # at n = 2 the two generators coincide, at n = 1 there are none
    for perm in [[1, 0, *range(2, n)], [*range(1, n), 0]][:n - 1]:
        if np.max(np.abs(pmf - pmf.transpose(perm))) > 1e-12:
            raise DimensionError("pmf is not permutation symmetric")
    return pmf


def make_empirical(X: Configuration, group: int = 1) -> DiscreteMeasure:
    """Empirical measure of a configuration on E^group.

    ``group=1`` gives the usual uniform measure on the N particle positions.
    For larger ``group`` the particles are split into floor(N/group)
    consecutive disjoint blocks, each block one atom of mass 1/n_blocks on
    E^group; repeated blocks stay separate atoms, which is the same law.
    """
    if not (is_int(group) and 1 <= group <= X.n_particles):
        raise DimensionError(f"group must be an int in [1, "
                             f"{X.n_particles}], got {group!r}")
    n_blocks = X.n_particles // group
    pts = X.coords[: n_blocks * group * X.d].reshape(n_blocks, group * X.d)
    w = np.full(n_blocks, 1.0 / n_blocks)
    return DiscreteMeasure(group * X.d, pts, w, particle_dim=X.d)


def loglog_fit(ns: Sequence[int], values: Sequence[float]) -> RateReport:
    """Fit log(value) = slope * log(n) + intercept by least squares.

    The 95% confidence interval uses the standard normal-theory formula
    with a Student t quantile on len(ns) - 2 degrees of freedom.
    """
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(ns) < 4:
        raise DimensionError("need at least 4 points for a rate fit")
    if np.any(values <= 0):
        raise DimensionError("values must be positive to fit in log scale")
    x = np.log(ns)
    y = np.log(values)
    A = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), res, *_ = np.linalg.lstsq(A, y, rcond=None)
    dof = len(ns) - 2
    resid = y - A @ [slope, intercept]
    s2 = float(resid @ resid) / dof
    se = math.sqrt(s2 / float(np.sum((x - x.mean()) ** 2)))
    tq = stdtrit(dof, 0.975)
    return RateReport(tuple(int(n) for n in ns), tuple(values),
                      float(slope), float(intercept),
                      (float(slope - tq * se), float(slope + tq * se)))


def gl_rule(edges: np.ndarray):
    """Nodes and weights of the composite 12-node Gauss-Legendre rule on
    the panels between consecutive ``edges``, an increasing array.

    The integral of f is ``np.sum(ws * f(xs))``: one call of f on the
    array of all nodes.
    """
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    xs = (mid[:, None] + half[:, None] * _GL_NODES).ravel()
    ws = (half[:, None] * _GL_WEIGHTS).ravel()
    return xs, ws


def gl_panels(a: float, b: float, n_panels: int):
    """``gl_rule`` on ``n_panels`` equal panels of [a, b]."""
    return gl_rule(np.linspace(a, b, n_panels + 1))


def gauss_quadrature(f: Callable, a: float, b: float,
                     tol: float = 1e-10) -> float:
    """Integral of f over [a, b] by the composite rule of ``gl_panels``.

    f is called on arrays of nodes, once for each panel count in
    ``QUAD_PANELS``. The fine pass's value is returned; its distance from
    the coarse pass is the error estimate. ``QuadratureError`` is raised,
    carrying both, unless that estimate is at most max(tol, |value| tol)
    times 10; a NaN value or estimate raises too.
    """
    coarse, fine = (float(np.sum(ws * f(xs)))
                    for xs, ws in (gl_panels(a, b, n) for n in QUAD_PANELS))
    err = abs(fine - coarse)
    if not err <= max(tol, abs(fine) * tol) * 10:
        raise QuadratureError("quadrature did not reach tolerance", fine, err)
    return fine


def spectrum_power(base: np.ndarray, n: int) -> np.ndarray:
    """base ** n for an int n >= 1 by binary exponentiation, elementwise, as
    a new array that the caller owns; ``base`` is never written, and every
    squaring after the first runs in place."""
    if not (is_int(n) and n >= 1):
        raise DimensionError(f"spectrum_power needs an int n >= 1, got {n!r}")
    result, square = None, base
    while True:
        if n & 1:
            result = (square.copy() if result is None
                      else np.multiply(result, square, out=result))
        n >>= 1
        if not n:
            return result
        square = (base * base if square is base
                  else np.multiply(square, square, out=square))


# ---------------------------------------------------------------------------
# shipped analytic densities
# ---------------------------------------------------------------------------

def normal_pdf(v):
    """The standard normal density."""
    return np.exp(-np.asarray(v, dtype=float) ** 2 / 2.0) / SQRT_2PI


def _Phi(v):
    return 0.5 * (1.0 + erf(np.asarray(v, dtype=float) / math.sqrt(2.0)))


def _gauss_raw_moment(k: int, m: float, s: float) -> float:
    """E v^k for v ~ N(m, s^2)."""
    return sum(math.comb(k, i) * m ** (k - i) * s ** i
               * math.prod(range(1, i, 2)) for i in range(0, k + 1, 2))


def _check_weights(weights, name: str):
    """Raise HypothesisError unless the mixture weights are positive and
    sum to 1 (within 1e-12)."""
    if not (weights and all(w > 0 for w in weights)
            and abs(sum(weights) - 1) <= 1e-12):
        raise HypothesisError(f"{name}: need positive weights summing to 1, "
                              f"got {tuple(weights)}")


def gaussian_mixture(weights, means, var: float, name: str) -> Density:
    """The Gaussian mixture sum_c w_c N(m_c, var), one variance for all.

    log_pdf is a log-sum-exp over the components and the score is
    -(v - sum_c r_c m_c) / var, r_c the responsibilities, so both stay
    exact in the tails, where the pdf underflows. The characteristic
    function is sum_c w_c e^{i xi m_c - var xi^2 / 2}. One component runs
    the plain Gaussian formulas float for float; labels are drawn only for
    two or more.
    """
    weights, means = tuple(map(float, weights)), tuple(map(float, means))
    _check_weights(weights, name)
    if not (len(weights) == len(means)
            and all(map(math.isfinite, means)) and 0 < var < math.inf):
        raise HypothesisError(
            f"{name}: need as many finite means as weights and "
            f"0 < var < inf; got {means}, {var!r}")
    sd = math.sqrt(var)
    comps = tuple(zip(weights, means))
    log_w = [math.log(w) for w in weights]
    locs, cum = np.array(means), np.cumsum(weights)[:-1]

    def log_terms(v):   # log w_c - (v - m_c)^2 / (2 var), and their logsumexp
        terms = [-((v - m) ** 2) / (2 * var) + lw
                 for m, lw in zip(means, log_w)]
        lse = terms[0]
        for t in terms[1:]:
            lse = np.logaddexp(lse, t)
        return terms, lse

    def score(v):
        v = np.asarray(v, dtype=float)
        terms, lse = log_terms(v)
        return -(v - sum(np.exp(t - lse) * m
                         for t, m in zip(terms, means))) / var

    def sampler(rng, size):
        label = (np.searchsorted(cum, rng.random(size), side="right")
                 if len(comps) > 1 else 0)
        return locs[label] + sd * rng.standard_normal(size)

    def cf(xi):
        xi = np.asarray(xi, dtype=float)
        return (np.exp(-var * xi ** 2 / 2)
                * sum(w * np.exp(1j * m * xi) for w, m in comps))

    return Density(
        name=name,
        pdf=lambda v: sum(w * normal_pdf((np.asarray(v, dtype=float) - m) / sd)
                          for w, m in comps) / sd,
        log_pdf=lambda v: (log_terms(np.asarray(v, dtype=float))[1]
                           - math.log(sd * SQRT_2PI)),
        score=score,
        sampler=sampler,
        cdf=lambda v: sum(w * _Phi((np.asarray(v, dtype=float) - m) / sd)
                          for w, m in comps),
        raw_moments={k: sum(w * _gauss_raw_moment(k, m, sd) for w, m in comps)
                     for k in range(1, 9)},
        components=(weights, means, float(var)),
        cf=cf,
    )


def gaussian_components(*densities: Density):
    """Each density's mixture (weights, means), and the variance they share.

    The one reader of ``Density.components`` for closed forms (``Mixture``
    also keys its atoms by them): returns ([(weights, means), ...], var)
    in the order given, or raises HypothesisError, naming the densities,
    unless every one is a ``gaussian_mixture`` and all share one variance.
    """
    comps = [f.components for f in densities]
    if (not comps or None in comps
            or len({var for _, _, var in comps}) != 1):
        raise HypothesisError(
            "need Gaussian-mixture densities of one variance, got "
            + ", ".join(f.name for f in densities))
    return [(w, m) for w, m, _ in comps], comps[0][2]


def gaussian_density(mean: float = 0.0, var: float = 1.0) -> Density:
    """Gaussian with the given mean and variance: one mixture component."""
    return gaussian_mixture((1.0,), (mean,), var,
                            f"gaussian(m={mean:g},var={var:g})")


def uniform_density(a: float = 0.0, b: float = 1.0) -> Density:
    """Uniform on [a, b]; its characteristic function is
    e^{i xi (a + b) / 2} sin(xi w / 2) / (xi w / 2), w = b - a."""
    w = b - a

    def pdf(v):
        v = np.asarray(v, dtype=float)
        return np.where((v >= a) & (v <= b), 1.0 / w, 0.0)

    def log_pdf(v):
        v = np.asarray(v, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where((v >= a) & (v <= b), -math.log(w), -np.inf)

    def cf(xi):   # np.sinc(t) = sin(pi t) / (pi t)
        xi = np.asarray(xi, dtype=float)
        return np.exp(0.5j * (a + b) * xi) * np.sinc(xi * w / (2.0 * math.pi))

    mid, var = (a + b) / 2.0, w * w / 12.0
    return Density(
        name=f"uniform[{a:g},{b:g}]",
        pdf=pdf,
        log_pdf=log_pdf,
        score=lambda v: np.zeros_like(np.asarray(v, dtype=float)),
        sampler=lambda rng, size: rng.uniform(a, b, size),
        support=(a, b),
        raw_moments={1: mid, 2: var + mid ** 2},
        cdf=lambda v: np.clip((np.asarray(v, dtype=float) - a) / w, 0.0, 1.0),
        boundary_positive=True,
        cf=cf,
    )


def bimodal_density(separation: float = 1.0, width: float = 0.5,
                    weights: tuple[float, float] = (0.5, 0.5)) -> Density:
    """Two-Gaussian mixture rescaled to mean 0, variance 1.

    The pre-scaling mixture is w1 N(-a, s^2) + w2 N(+a', s^2) with a' chosen
    so the mixture is centered; the default (a=1, s=0.5, equal weights) is
    visibly non-gaussian while keeping every polynomial moment finite.
    """
    w1, w2 = weights
    name = f"bimodal(sep={separation:g},w={width:g},p={w1:g})"
    # before the arithmetic below divides by w2 and takes a square root
    _check_weights(weights, name)
    a1 = -separation
    a2 = separation * w1 / w2
    mean = w1 * a1 + w2 * a2
    var = w1 * (width ** 2 + a1 ** 2) + w2 * (width ** 2 + a2 ** 2) - mean ** 2
    sc = math.sqrt(var)
    s = width / sc
    return gaussian_mixture(
        weights, ((a1 - mean) / sc, (a2 - mean) / sc), s * s, name)
