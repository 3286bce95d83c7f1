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
    clamped = it.to_grid_density()
    assert np.all(clamped.values >= 0.0)
    # the signed values are what sup_error sees
    assert sup_error(it) >= np.max(
        np.abs(clamped.values - normal_pdf(it.xs))) - 1e-12


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
