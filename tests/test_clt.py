import dataclasses
import math

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermeval

from kaclab import clt
from kaclab.core import (DimensionError, GridDensity, HypothesisError,
                         KaclabError, bimodal_density, gaussian_density,
                         normal_pdf, uniform_density)
from kaclab.clt import (CLT_GRID, char_fn_bounds_check, clt_rate_run,
                        iterate_clt, iterate_clt_cf, iterate_clt_realspace,
                        standardize, sup_error)
from kaclab.experiments import _clt_density

SUITE_NS = (4, 8, 16, 32, 64, 128, 256, 512)
EPS = np.finfo(float).eps
UNIFORM = uniform_density(-math.sqrt(3), math.sqrt(3))


def _gridded(f):
    """The standardized grid base of f on the suite's grid, for the grid
    routes."""
    return standardize(GridDensity.from_density(
        f, CLT_GRID.half_width, CLT_GRID.n_points))


@pytest.fixture(scope="module")
def ugrid():
    return _gridded(UNIFORM)


@pytest.fixture(scope="module")
def ggrid():
    return _gridded(gaussian_density())


def test_gaussian_fixed_point(ggrid):
    for n in (2, 16, 128, 512):
        assert sup_error(iterate_clt_cf(gaussian_density(), n)) < 1e-13
    for n in (2, 16, 128):
        assert sup_error(iterate_clt(ggrid, n)) < 1e-6


def test_iterate_mass_and_variance(ugrid):
    for n in (2, 8, 64):
        it = iterate_clt(ugrid, n)
        assert abs(it.values.sum() * it.spacing - 1.0) < 1e-9
        assert abs(it.variance() - 1.0) < 1e-4


@pytest.mark.parametrize("n_points", [8192, CLT_GRID.n_points])
def test_standardize_meets_the_cf_route_tolerance(n_points):
    # the suite's gridded uniform and the tests' grid base
    g = standardize(GridDensity.from_density(UNIFORM, 12.0, n_points))
    assert abs(g.mean()) <= 1e-12
    assert abs(g.variance() - 1.0) <= 1e-12


def test_triangle_matches_realspace_oracle():
    base = standardize(GridDensity.from_density(
        uniform_density(-math.sqrt(3), math.sqrt(3)), 12.0, 8192))
    for n in (2, 3):
        freq = iterate_clt(base, n)
        real = iterate_clt_realspace(base, n)
        assert np.max(np.abs(freq.values - real.values)) < 1e-6


def _full_grid_realspace(g, N):
    """The real-space oracle convolving the whole grid, zeros included:
    the reference of the convolution over the base's support."""
    h = g.spacing
    conv = g.values.copy()
    for _ in range(N - 1):
        conv = np.convolve(conv, g.values) * h
    xs_conv = -N * g.half_width + h * np.arange(len(conv))
    return clt._rescaled(conv, xs_conv, g, N)


def _realspace_bases():
    """The suite's real-space grid with four bases: the standardized
    uniform (zero tails), the Gaussian (no exact zero), two separated
    uniform bumps (interior zeros) and a base whose support reaches both
    ends of the grid, interior zeros too."""
    grid = (12.0, 8192)
    xs = GridDensity(*grid, np.ones(grid[1])).xs
    return {"uniform": standardize(GridDensity.from_density(UNIFORM, *grid)),
            "gaussian": GridDensity.from_density(gaussian_density(), *grid),
            "two-bumps": GridDensity(*grid, ((-5 < xs) & (xs < -3))
                                     | ((2 < xs) & (xs < 3))),
            "both-ends": GridDensity(*grid, (np.abs(xs) > 10.5)
                                     | (np.abs(xs) < 1.0))}


@pytest.mark.parametrize("name", ["uniform", "two-bumps"])
@pytest.mark.parametrize("N", [2, 3, 4])
def test_realspace_over_the_support_matches_the_full_grid(name, N):
    # Both routes add the same products v_i v_j h >= 0, the full grid's
    # plus exact zeros, in different orders. A sum of at most m = 8192
    # nonnegative terms is within (m + 1) eps / 2 of the exact one, factor
    # h included, relatively; over N - 1 rounds each route's convolution
    # is within (N - 1)(m + 1) eps / 2 of the exact, entry by entry, so
    # the two within (N - 1)(m + 1) eps. The rescale interpolates with
    # nonnegative weights and divides by the sum, which moves by as much
    # again: the values differ by at most 2 (N - 1)(m + 1) eps max|v|.
    g = _realspace_bases()[name]
    ref = _full_grid_realspace(g, N).values
    tol = 2.0 * (N - 1) * (g.n_points + 1) * EPS * np.max(ref)
    assert g.values[0] == 0.0 == g.values[-1]
    assert np.max(np.abs(iterate_clt_realspace(g, N).values - ref)) <= tol


@pytest.mark.parametrize("name", ["gaussian", "both-ends"])
@pytest.mark.parametrize("N", [2, 3, 4])
def test_realspace_trims_nothing_from_a_base_that_fills_the_grid(name, N):
    # the first and last entries are nonzero, so the support is the whole
    # grid: the same sums in the same order, bit for bit
    g = _realspace_bases()[name]
    assert g.values[0] > 0.0 and g.values[-1] > 0.0
    np.testing.assert_array_equal(iterate_clt_realspace(g, N).values,
                                  _full_grid_realspace(g, N).values)


@pytest.mark.parametrize("route", ["cf", "grid", "realspace"])
def test_each_route_refuses_a_count_that_is_no_int_at_least_2(ugrid, route):
    run = {"cf": lambda N: iterate_clt_cf(UNIFORM, N),
           "grid": lambda N: iterate_clt(ugrid, N),
           "realspace": lambda N: iterate_clt_realspace(ugrid, N)}[route]
    for N in (2.5, 3.0, True, 1, -2):
        with pytest.raises(DimensionError, match=f"got N = {N!r}$"):
            run(N)
    if route == "realspace":    # quadratic cost
        with pytest.raises(DimensionError, match=r"in \[2, 4\], got N = 5"):
            run(5)


def test_triangle_shape(ugrid):
    # twofold convolution of the centered uniform is the centered triangle,
    # rescaled to unit variance: peak 1/sqrt(6), slope 1/6 near the apex
    it = iterate_clt(ugrid, 2)
    peak = 1.0 / math.sqrt(6.0)
    xs = it.xs
    mask = np.abs(xs) < 0.05
    assert np.max(np.abs(it.values[mask]
                         - (peak - np.abs(xs[mask]) / 6.0))) < 1e-3
    assert it.values[np.argmin(np.abs(xs))] == pytest.approx(peak, abs=1e-3)


def test_sup_error_monotone_uniform(ugrid):
    errs = [sup_error(iterate_clt(ugrid, n)) for n in (4, 8, 16, 32, 64)]
    assert all(b <= a + 1e-5 for a, b in zip(errs, errs[1:]))


def test_aliasing_check_fires_on_coarse_grid():
    coarse = GridDensity.from_density(
        uniform_density(-math.sqrt(3), math.sqrt(3)), 12.0, 1024)
    with pytest.raises(KaclabError):
        iterate_clt(coarse, 2)


def test_negative_lobes_kept_signed(ugrid):
    it = iterate_clt(ugrid, 4)
    clamped = np.maximum(it.values, 0.0)
    assert np.all(clamped >= 0.0)
    # the signed values are what sup_error sees
    assert sup_error(it) >= np.max(
        np.abs(clamped - normal_pdf(it.xs))) - 1e-12


def test_char_fn_bounds_gaussian():
    delta, kappa = char_fn_bounds_check(gaussian_density())
    # e^{-xi^2/2} <= e^{-xi^2/4} everywhere: delta reaches the lattice end
    assert delta > 0.9 * math.pi / CLT_GRID.spacing / 2
    assert kappa < 1e-6


def test_char_fn_bounds_uniform():
    delta, kappa = char_fn_bounds_check(UNIFORM)
    assert 0.0 < delta < 10.0
    assert 0.0 < kappa < 1.0


def _half_cell_uniform():
    """A uniform whose edges are half-cell points of the suite's grid, off
    centre: the grid nodes inside sample it by the midpoint rule."""
    xs, h = CLT_GRID.xs, CLT_GRID.spacing
    return uniform_density(xs[6000] + h / 2, xs[9000] + h / 2)


@pytest.mark.parametrize("name", ["uniform", "bimodal", "skew-bimodal"])
def test_cf_matches_direct_sum(name):
    """The closed-form cf against h sum_k g(x_k) e^{-i xi x_k} on the
    gridded density, summed directly at a dozen lattice points from xi = 0
    to the Nyquist one.

    For a mixture the sum is cf(-xi) up to rounding: its aliases sit 2 pi/h
    away, where the Gaussian factor underflows. For the uniform the sum is
    the midpoint rule, exactly cf(-xi) (xi h/2) / sin(xi h/2). The m
    products of size h g(x_k) <= 1 round to at most m eps in all.
    """
    f = _half_cell_uniform() if name == "uniform" else _clt_density(name)
    g = GridDensity.from_density(f, CLT_GRID.half_width, CLT_GRID.n_points)
    xi = math.pi / g.half_width * np.arange(g.n_points // 2 + 1)
    xi = xi[[0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, len(xi) - 1]]
    direct = g.spacing * np.exp(-1j * np.outer(xi, g.xs)) @ g.values
    want = f.cf(-xi)
    if name == "uniform":
        half = xi * g.spacing / 2
        want = want * np.divide(half, np.sin(half), out=np.ones_like(half),
                                where=half > 0)
    assert np.max(np.abs(direct - want)) <= g.n_points * EPS


def test_char_fn_bounds_near_lattice():
    delta, kappa = char_fn_bounds_check(
        bimodal_density(separation=1.0, width=0.05))
    assert 0.9 < kappa < 1.0


def test_rate_run_report():
    run = clt_rate_run(UNIFORM, [4, 8, 16, 32], "uniform")
    assert run.report.fitted_slope < -0.6
    assert len(run.sup_errors) == 4


def _binomial_iterate(f, N, xs):
    """The exact rescaled N-fold self-convolution of a two-component
    Gaussian mixture f: sum_j Binom(j; N, w1) N(mu_j, var) at xs, with
    mu_j = (j m1 + (N - j) m2) / sqrt(N), and its second derivative."""
    (w1, w2), (m1, m2), var = f.components
    sd = math.sqrt(var)
    value, second = np.zeros_like(xs), np.zeros_like(xs)
    for j in range(N + 1):
        z = (xs - (j * m1 + (N - j) * m2) / math.sqrt(N)) / sd
        term = math.comb(N, j) * w1 ** j * w2 ** (N - j) * normal_pdf(z) / sd
        value += term
        second += (z * z - 1.0) * term / var
    return value, second


@pytest.mark.parametrize("name, f", [
    ("bimodal", bimodal_density()),
    ("skew-bimodal", bimodal_density(weights=(0.7, 0.3)))])
def test_iterate_matches_the_binomial_mixture_at_every_suite_n(name, f):
    """iterate_clt against the closed form, on the suite's own grid.

    The spectrum power is exact up to rounding; the one approximation is
    the linear interpolation in ``_rescaled``, which reads the unscaled
    convolution c(y) = g_N(y / sqrt N) / sqrt N between nodes h apart at
    y = sqrt(N) x. Its error is at most h^2/8 sup|c''|, so in the rescaled
    values at most h^2/(8N) sup|g_N''|. The renormalisation to unit mass
    divides by 1 + d, with |d| <= h^2/(8N) int|g_N''|, adding up to
    |d| sup g_N. Rounding: each of the N spectrum factors carries the
    forward FFT's relative error of about log2(p) eps near the peak, and
    the inverse FFT adds as much, so it stays below
    (N + 1) log2(p) eps sup g_N, p the padded length.
    """
    g = _gridded(f)
    h, eps = g.spacing, EPS
    for N in SUITE_NS:
        exact, second = _binomial_iterate(f, N, g.xs)
        p = 2 ** math.ceil(math.log2(g.n_points * (math.sqrt(N) * 1.4 + 2)))
        interp = h * h / (8 * N) * (np.max(np.abs(second))
                                    + np.sum(np.abs(second)) * h
                                    * np.max(exact))
        rounding = (N + 1) * math.log2(p) * eps * np.max(exact)
        gap = np.max(np.abs(iterate_clt(g, N).values - exact))
        assert gap <= interp + rounding, (N, gap, interp, rounding)
        if math.isqrt(N) ** 2 == N:
            # sqrt(N) x_i lands on a node: no interpolation error at all
            assert gap <= rounding, (N, gap, rounding)


@pytest.mark.parametrize("name", ["bimodal", "skew-bimodal"])
def test_cf_route_matches_the_binomial_mixture_at_every_suite_n(name):
    """The cf route against the closed form: no interpolation, so only
    rounding is left. The cf carries a few eps of relative error, which
    the N-th power multiplies by N, and the inverse FFT adds about
    log2(m) eps, so the gap stays below (N + log2 m) eps sup g_N."""
    f = _clt_density(name)
    for N in SUITE_NS:
        exact, _ = _binomial_iterate(f, N, CLT_GRID.xs)
        rounding = (N + math.log2(CLT_GRID.n_points)) * EPS * np.max(exact)
        gap = np.max(np.abs(iterate_clt_cf(f, N).values - exact))
        assert gap <= rounding, (N, gap, rounding)


def _irwin_hall_iterate(N, xs):
    """sqrt(N) f^{*N}(sqrt(N) x) for f uniform on [-sqrt 3, sqrt 3]: the
    sum is 2 sqrt(3) T - N sqrt(3), T ~ Irwin-Hall(N)."""
    r3 = math.sqrt(3.0)
    t = (math.sqrt(N) * xs + N * r3) / (2.0 * r3)
    dens = sum((-1) ** k * math.comb(N, k) * np.maximum(t - k, 0.0) ** (N - 1)
               for k in range(N + 1)) / math.factorial(N - 1)
    return math.sqrt(N) * np.where((t > 0) & (t < N), dens, 0.0) / (2.0 * r3)


@pytest.mark.parametrize("N", [4, 8])
def test_cf_route_matches_irwin_hall(N):
    exact = _irwin_hall_iterate(N, CLT_GRID.xs)
    assert np.max(np.abs(iterate_clt_cf(UNIFORM, N).values - exact)) <= 1e-10


def test_cf_route_against_the_grid_route_on_the_uniform(ugrid):
    """The grid route on the gridded uniform against the cf route on the
    analytic one, at every suite N.

    The grid base's first cumulants differ from the uniform's (mean 0,
    variance 1, kappa_3 = 0, kappa_4 = -6/5) by dm, dv, dk3, dk4. To first
    order, the rescaled N-fold convolution then moves by
    sum_r d_r He_r phi / r! with d_1 = sqrt(N) dm, d_2 = dv,
    d_3 = dk3 / sqrt(N) and d_4 = dk4 / N: the grid floor, whose variance
    term does not shrink with N. The grid route adds its interpolation
    error, bounded as in the binomial test with g_N'' from second
    differences of the cf route, and both routes add rounding.
    """
    x, w = ugrid.xs, ugrid.values * ugrid.spacing
    dm = float(np.sum(x * w))
    c2, c3, c4 = (float(np.sum((x - dm) ** k * w)) for k in (2, 3, 4))
    defects = (dm, c2 - 1.0, c3, c4 - 3.0 * c2 ** 2 + 1.2)
    sup_he = [np.max(np.abs(hermeval(x, [0] * r + [1]) * normal_pdf(x)))
              / math.factorial(r) for r in (1, 2, 3, 4)]
    h = ugrid.spacing
    for N in SUITE_NS:
        cf = iterate_clt_cf(UNIFORM, N).values
        floor = sum(abs(d) * N ** ((2 - r) / 2) * s
                    for r, d, s in zip((1, 2, 3, 4), defects, sup_he))
        second = np.diff(cf, 2) / h ** 2
        interp = h * h / (8 * N) * (np.max(np.abs(second))
                                    + np.sum(np.abs(second)) * h * np.max(cf))
        p = 2 ** math.ceil(math.log2(ugrid.n_points
                                     * (math.sqrt(N) * 1.4 + 2)))
        rounding = ((N + 1) * math.log2(p) + N + math.log2(ugrid.n_points)
                    ) * EPS * np.max(cf)
        gap = np.max(np.abs(iterate_clt(ugrid, N).values - cf))
        assert gap <= floor + interp + rounding, (N, gap, floor, interp)


def test_cf_route_needs_a_standardized_cf():
    with pytest.raises(HypothesisError):
        iterate_clt_cf(dataclasses.replace(gaussian_density(), cf=None), 4)
    with pytest.raises(HypothesisError):
        iterate_clt_cf(gaussian_density(0.0, 2.0), 4)
    with pytest.raises(HypothesisError):
        char_fn_bounds_check(gaussian_density(0.5))


def test_cf_route_nyquist_check_fires_on_a_cf_that_does_not_decay():
    # the Rademacher law (mean 0, variance 1): |cos(xi / sqrt 2)|^2 does not
    # decay, so the powered cf stays near 1 at the Nyquist edge
    rademacher = dataclasses.replace(gaussian_density(), cf=np.cos)
    with pytest.raises(KaclabError, match="aliasing"):
        iterate_clt_cf(rademacher, 2)
    iterate_clt_cf(UNIFORM, 2)
