import math

import numpy as np
import pytest

from kaclab.core import (GridDensity, KaclabError, bimodal_density,
                         gaussian_density, normal_pdf, uniform_density)
from kaclab.clt import (_cf_modulus, char_fn_bounds_check, clt_rate_run,
                        iterate_clt, iterate_clt_realspace, standardize,
                        sup_error)
from kaclab.experiments import _clt_base


@pytest.fixture(scope="module")
def ugrid():
    return standardize(GridDensity.from_density(
        uniform_density(-math.sqrt(3), math.sqrt(3)), 12.0, 2 ** 14))


@pytest.fixture(scope="module")
def ggrid():
    return standardize(GridDensity.from_density(gaussian_density(), 12.0,
                                                2 ** 14))


def test_gaussian_fixed_point(ggrid):
    for n in (2, 16, 128):
        assert sup_error(iterate_clt(ggrid, n)) < 1e-6


def test_iterate_mass_and_variance(ugrid):
    for n in (2, 8, 64):
        it = iterate_clt(ugrid, n)
        assert abs(it.values.sum() * it.spacing - 1.0) < 1e-9
        assert abs(it.variance() - 1.0) < 1e-4


def test_triangle_matches_realspace_oracle():
    base = standardize(GridDensity.from_density(
        uniform_density(-math.sqrt(3), math.sqrt(3)), 12.0, 8192))
    for n in (2, 3):
        freq = iterate_clt(base, n)
        real = iterate_clt_realspace(base, n)
        assert np.max(np.abs(freq.values - real.values)) < 1e-6


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


def test_char_fn_bounds_gaussian(ggrid):
    delta, kappa = char_fn_bounds_check(ggrid)
    # e^{-xi^2/2} <= e^{-xi^2/4} everywhere: delta reaches the lattice end
    assert delta > 0.9 * math.pi / ggrid.spacing / 2
    assert kappa < 1e-6


def test_char_fn_bounds_uniform(ugrid):
    delta, kappa = char_fn_bounds_check(ugrid)
    assert 0.0 < delta < 10.0
    assert 0.0 < kappa < 1.0


@pytest.mark.parametrize("name", ["uniform", "bimodal"])
def test_cf_modulus_matches_direct_sum(name):
    # the FFT lattice spectrum against h sum_k g(x_k) e^{-i xi x_k}, summed
    # directly at a dozen lattice points from xi = 0 to the last one
    g = standardize(_clt_base(name))
    xi, cf = _cf_modulus(g)
    idx = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, len(xi) - 1]
    direct = g.spacing * np.exp(-1j * np.outer(xi[idx], g.xs)) @ g.values
    assert np.max(np.abs(cf[idx] - np.abs(direct))) < 1e-12


def test_char_fn_bounds_near_lattice():
    base = bimodal_density(separation=1.0, width=0.05)
    g = standardize(GridDensity.from_density(base, 12.0, 2 ** 14))
    delta, kappa = char_fn_bounds_check(g)
    assert 0.9 < kappa < 1.0


def test_rate_run_report(ugrid):
    run = clt_rate_run(ugrid, [4, 8, 16, 32], "uniform")
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
    g = standardize(_clt_base(name))
    h, eps = g.spacing, np.finfo(float).eps
    for N in (4, 8, 16, 32, 64, 128, 256, 512):
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
