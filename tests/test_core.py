import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaclab.core import (SQRT_2PI, Configuration,
                         DimensionError, DiscreteMeasure, GridDensity,
                         HypothesisError, ProductGridDensity, QuadratureError,
                         _Phi, _gauss_raw_moment, bimodal_density,
                         check_reps, check_symmetric_pmf, gauss_quadrature,
                         gaussian_components, gaussian_density,
                         gaussian_mixture,
                         loglog_fit, make_empirical,
                         normal_pdf, spectrum_power, uniform_density)


def test_configuration_invariants():
    Configuration(1, 3, np.array([0.0, 1.0, 2.0]))
    with pytest.raises(DimensionError):
        Configuration(1, 3, np.array([0.0, 1.0]))
    with pytest.raises(DimensionError):
        Configuration(1, 2, np.array([0.0, np.inf]))


def test_discrete_measure_invariants():
    DiscreteMeasure(1, np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    with pytest.raises(DimensionError):
        DiscreteMeasure(1, np.array([[0.0], [1.0]]), np.array([0.5, 0.6]))
    with pytest.raises(DimensionError):
        DiscreteMeasure(1, np.array([[0.0], [1.0]]), np.array([1.5, -0.5]))
    for bad in ([np.nan, 1.0], [np.inf, 1.0], [0.5, np.nan]):
        with pytest.raises(DimensionError, match="finite"):
            DiscreteMeasure(1, np.array([[0.0], [1.0]]), np.array(bad))


def test_symmetric_pmf_check_in_one_variable():
    # no generators: any pmf on {0..S-1} is symmetric
    check_symmetric_pmf(np.array([0.2, 0.8]))
    check_symmetric_pmf(np.array([0.1, 0.0, 0.9]))
    with pytest.raises(DimensionError, match="sum to"):
        check_symmetric_pmf(np.array([0.5, 0.6]))


def test_symmetric_pmf_check_in_two_variables():
    check_symmetric_pmf(np.array([[0.1, 0.3], [0.3, 0.3]]))
    with pytest.raises(DimensionError, match="not permutation symmetric"):
        check_symmetric_pmf(np.array([[0.1, 0.6], [0.1, 0.2]]))
    # an entry gap of 8e-13 passes, of 2e-11 does not
    check_symmetric_pmf(np.array([[0.1, 0.3 + 4e-13], [0.3 - 4e-13, 0.3]]))
    with pytest.raises(DimensionError, match="not permutation symmetric"):
        check_symmetric_pmf(np.array([[0.1, 0.3 + 1e-11],
                                      [0.3 - 1e-11, 0.3]]))


def test_symmetric_pmf_check_in_five_variables():
    # mass by the number of ones is symmetric
    ones = np.indices((2,) * 5).sum(axis=0)
    pmf = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])[ones]
    check_symmetric_pmf(pmf / pmf.sum())
    # a point mass off the diagonal: the cycle moves it wherever its 1 is
    for k in range(5):
        point = np.zeros((2,) * 5)
        point[tuple(int(i == k) for i in range(5))] = 1.0
        with pytest.raises(DimensionError, match="not permutation symmetric"):
            check_symmetric_pmf(point)


# test_chaos refuses a non-cubic pmf, a negative mass and a total of 2
# through grunbaum_exact and pushforward_identity_exact
@pytest.mark.parametrize("pmf, match", [
    (np.array(1.0), "not a cube"),
    (np.array([[np.nan, 0.3], [0.3, 0.4]]), "finite"),
])
def test_symmetric_pmf_check_refuses_what_is_no_pmf(pmf, match):
    with pytest.raises(DimensionError, match=match):
        check_symmetric_pmf(pmf)


def test_make_empirical_basic():
    m = make_empirical(Configuration(1, 3, np.array([0.0, 1.0, 2.0])))
    assert m.n_atoms == 3
    np.testing.assert_allclose(m.weights, 1.0 / 3.0)
    assert m.weights.sum() == 1.0


def test_make_empirical_single_particle():
    m = make_empirical(Configuration(1, 1, np.array([5.0])))
    assert m.n_atoms == 1 and m.points[0, 0] == 5.0


def test_make_empirical_keeps_one_atom_per_block():
    # repeated blocks stay separate atoms of mass 1/n_blocks, in block order
    m = make_empirical(Configuration(1, 4, np.array([0.0, 0.0, 1.0, 1.0])))
    np.testing.assert_array_equal(m.points[:, 0], [0.0, 0.0, 1.0, 1.0])
    np.testing.assert_array_equal(m.weights, np.full(4, 0.25))
    m = make_empirical(Configuration(1, 5, np.array([1.0, 2.0] * 2 + [7.0])),
                       group=2)
    np.testing.assert_array_equal(m.points, [[1.0, 2.0], [1.0, 2.0]])
    np.testing.assert_array_equal(m.weights, [0.5, 0.5])


@pytest.mark.parametrize("group", [1.5, 2.0, True, "2", None], ids=repr)
def test_make_empirical_refuses_a_group_that_is_no_int(group):
    with pytest.raises(DimensionError, match="group must be an int"):
        make_empirical(Configuration(1, 4, np.arange(4.0)), group=group)


@pytest.mark.parametrize("count", [2.5, 3.0, True, "3", None], ids=repr)
def test_check_reps_refuses_a_count_that_is_no_int(count):
    with pytest.raises(DimensionError, match="must be an int"):
        check_reps(count)


def test_make_empirical_blocks():
    m = make_empirical(Configuration(1, 4, np.array([0.0, 1.0, 2.0, 3.0])),
                       group=2)
    assert m.dim == 2 and m.n_atoms == 2
    assert make_empirical(Configuration(1, 4, np.arange(4.0)),
                          group=np.int64(2)).n_atoms == 2
    with pytest.raises(DimensionError):
        make_empirical(Configuration(1, 4, np.zeros(4)), group=5)


def test_make_empirical_blocks_multidimensional():
    coords = np.arange(8.0)   # two particles per block, two components each
    m = make_empirical(Configuration(2, 4, coords), group=2)
    assert m.dim == 4 and m.particle_dim == 2 and m.n_atoms == 2
    np.testing.assert_allclose(sorted(m.points[:, 0]), [0.0, 4.0])


def test_loglog_fit_exact_inverse():
    ns = [10, 20, 40, 80, 160]
    rep = loglog_fit(ns, [1.0 / n for n in ns])
    assert abs(rep.fitted_slope + 1.0) < 1e-10
    assert rep.slope_ci[0] <= rep.fitted_slope <= rep.slope_ci[1]


def test_loglog_fit_exact_half():
    ns = [4, 8, 16, 32]
    rep = loglog_fit(ns, [3.0 / math.sqrt(n) for n in ns])
    assert abs(rep.fitted_slope + 0.5) < 1e-12
    assert abs(rep.fitted_intercept - math.log(3.0)) < 1e-12


def test_loglog_fit_noisy_slope_window():
    rng = np.random.default_rng(4)
    ns = [16, 32, 64, 128, 256, 512]
    vals = [n ** -0.5 * (1.0 + 0.1 * rng.standard_normal()) for n in ns]
    rep = loglog_fit(ns, vals)
    assert -0.6 < rep.fitted_slope < -0.4


def test_loglog_fit_rejects_bad_input():
    with pytest.raises(DimensionError):
        loglog_fit([1, 2, 3], [1.0, 0.5, 0.25])
    with pytest.raises(DimensionError):
        loglog_fit([1, 2, 3, 4], [1.0, 0.5, -0.25, 0.1])


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-3.0, max_value=-0.1),
       st.floats(min_value=0.1, max_value=5.0))
def test_loglog_fit_recovers_pure_power_laws(slope, scale):
    ns = [8, 16, 32, 64, 128]
    rep = loglog_fit(ns, [scale * n ** slope for n in ns])
    assert abs(rep.fitted_slope - slope) < 1e-8
    assert abs(rep.fitted_intercept - math.log(scale)) < 1e-8


def test_gauss_quadrature_basics():
    assert abs(gauss_quadrature(lambda x: 1.0, 0.0, 1.0) - 1.0) < 1e-12
    g = gaussian_density()
    assert abs(gauss_quadrature(g.pdf, -12.0, 12.0, 1e-10) - 1.0) < 1e-10
    second = gauss_quadrature(lambda v: v * v * g.pdf(v), -12.0, 12.0, 1e-9)
    assert abs(second - 1.0) < 1e-8
    # monte carlo cross-check of the same moment
    mc = np.mean(g.sampler(np.random.default_rng(0), 200_000) ** 2)
    assert abs(second - mc) < 3.0 * math.sqrt(2.0 / 200_000)


def test_gauss_quadrature_failure_carries_estimate():
    tol = 1e-13
    with pytest.raises(QuadratureError) as err:
        gauss_quadrature(lambda x: np.sin(1.0 / (np.abs(x) + 1e-12)), 0.0,
                         1.0, tol)
    assert err.value.best_estimate is not None
    assert err.value.error_estimate > tol


def test_gauss_quadrature_nan_integrand_raises():
    with pytest.raises(QuadratureError):
        gauss_quadrature(lambda x: x * math.nan, 0.0, 1.0)


def validate(f):
    """Check a density's normalization and its score/log-pdf consistency."""
    lo, hi = f.quad_bounds()
    mass = gauss_quadrature(f.pdf, lo, hi, 1e-8)
    if abs(mass - 1.0) > 1e-7:
        raise HypothesisError(f"{f.name}: pdf mass {mass} is not 1")
    vs = np.linspace(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo), 211)
    vs = vs[f.pdf(vs) > 1e-10]
    h = 1e-6
    fd = (f.log_pdf(vs + h) - f.log_pdf(vs - h)) / (2 * h)
    sc = f.score(vs)
    rel = np.abs(fd - sc) / np.maximum(1.0, np.abs(sc))
    if np.max(rel) > 1e-5:
        raise HypothesisError(
            f"{f.name}: score deviates from d/dv log pdf by "
            f"{np.max(rel):.2e}")
    return True


@pytest.mark.parametrize("density", [
    gaussian_density(),
    gaussian_density(1.5, 4.0),
    uniform_density(0.0, 1.0),
    uniform_density(-math.sqrt(3.0), math.sqrt(3.0)),
    bimodal_density(),
    bimodal_density(weights=(0.7, 0.3)),
])
def test_shipped_densities_validate(density):
    assert validate(density)


def test_density_moments_match_quadrature():
    f = bimodal_density()
    for k in (2, 4, 6):
        quad = gauss_quadrature(lambda v: v ** k * f.pdf(v), -12, 12, 1e-10)
        assert abs(quad - f.raw_moments[k]) < 1e-8


# ---------------------------------------------------------------------------
# the Gaussian-mixture carrier against independent closed forms
# ---------------------------------------------------------------------------

def _reference_gaussian(mean, var):
    """N(mean, var) written out term by term."""
    sd = math.sqrt(var)
    return dict(
        pdf=lambda v: normal_pdf((np.asarray(v) - mean) / sd) / sd,
        log_pdf=lambda v: (-((np.asarray(v) - mean) ** 2) / (2 * var)
                           - math.log(sd * SQRT_2PI)),
        score=lambda v: -(np.asarray(v, dtype=float) - mean) / var,
        sampler=lambda rng, size: mean + sd * rng.standard_normal(size),
        raw_moments={k: _gauss_raw_moment(k, mean, sd) for k in range(1, 9)},
        cdf=lambda v: _Phi((np.asarray(v) - mean) / sd))


def _reference_bimodal(separation=1.0, width=0.5, weights=(0.5, 0.5)):
    """The standardised two-component mixture of ``bimodal_density``, with
    the pdf, cdf, moments and sampler written out for two components."""
    w1, w2 = weights
    a1, a2 = -separation, separation * w1 / w2
    mean = w1 * a1 + w2 * a2
    var = w1 * (width ** 2 + a1 ** 2) + w2 * (width ** 2 + a2 ** 2) - mean ** 2
    sc = math.sqrt(var)
    m1, m2, s = (a1 - mean) / sc, (a2 - mean) / sc, width / sc

    def pdf(v):
        v = np.asarray(v, dtype=float)
        return (w1 * normal_pdf((v - m1) / s)
                + w2 * normal_pdf((v - m2) / s)) / s

    def sampler(rng, size):
        comp = rng.random(size) < w1
        z = rng.standard_normal(size)
        return np.where(comp, m1, m2) + s * z

    return dict(
        pdf=pdf, sampler=sampler, means=(m1, m2), sd=s,
        raw_moments={k: w1 * _gauss_raw_moment(k, m1, s)
                     + w2 * _gauss_raw_moment(k, m2, s) for k in range(1, 9)},
        cdf=lambda v: (w1 * _Phi((np.asarray(v) - m1) / s)
                       + w2 * _Phi((np.asarray(v) - m2) / s)))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("mean, var", [
    (0.0, 1.0), (0, 1), (1.5, 4.0), (-0.7, 0.25), (2.0, 1.0), (0.3, 1.7),
    (-3.0, 1e-2)])
def test_one_component_carrier_is_bitwise_the_gaussian(mean, var):
    f, ref = gaussian_density(mean, var), _reference_gaussian(mean, var)
    vs = np.linspace(-40.0, 40.0, 8001)
    for fn in ("pdf", "log_pdf", "score", "cdf"):
        assert np.array_equal(_bits(getattr(f, fn)(vs)), _bits(ref[fn](vs)))
        for v in (0.0, mean, -12.5):   # scalars, and the sign of a zero score
            assert _bits(getattr(f, fn)(v)) == _bits(ref[fn](v))
    assert f.raw_moments == ref["raw_moments"]
    draws = [fn(np.random.default_rng(5), 1000)
             for fn in (f.sampler, ref["sampler"])]
    assert np.array_equal(_bits(draws[0]), _bits(draws[1]))
    assert f.components == ((1.0,), (float(mean),), float(var))


@pytest.mark.parametrize("weights", [(0.5, 0.5), (0.7, 0.3)])
def test_bimodal_carrier_is_bitwise_the_two_component_forms(weights):
    f, ref = bimodal_density(weights=weights), _reference_bimodal(
        weights=weights)
    assert f.components[:2] == (weights, ref["means"])
    assert math.sqrt(f.components[2]) == ref["sd"]
    vs = np.linspace(-40.0, 40.0, 8001)
    for fn in ("pdf", "cdf"):
        assert np.array_equal(_bits(getattr(f, fn)(vs)), _bits(ref[fn](vs)))
    assert f.raw_moments == ref["raw_moments"]
    for size in (1000, (50, 7)):
        assert np.array_equal(
            _bits(f.sampler(np.random.default_rng(5), size)),
            _bits(ref["sampler"](np.random.default_rng(5), size)))


@pytest.mark.parametrize("weights", [(0.5, 0.5), (0.7, 0.3)])
def test_bimodal_score_and_log_pdf_are_exact_in_the_tails(weights):
    # far out the pdf underflows; the log-sum-exp forms must not
    f = bimodal_density(weights=weights)
    (w1, w2), (m1, m2), var = f.components
    for v in (15.0, 20.0, 30.0, -15.0, -20.0, -30.0):
        a = np.array([math.log(w1) - (v - m1) ** 2 / (2 * var),
                      math.log(w2) - (v - m2) ** 2 / (2 * var)])
        top = a.max()
        log_pdf = (top + math.log(np.exp(a - top).sum())
                   - 0.5 * math.log(2 * math.pi * var))
        r = np.exp(a - top) / np.exp(a - top).sum()
        score = -(r[0] * (v - m1) + r[1] * (v - m2)) / var
        assert f.log_pdf(v) == pytest.approx(log_pdf, rel=1e-12)
        assert f.score(v) == pytest.approx(score, rel=1e-12)


def test_mixture_carrier_rejects_invalid_components():
    ok = dict(weights=(0.5, 0.5), means=(-1.0, 1.0), var=0.5, name="m")
    gaussian_mixture(**ok)
    for bad in (dict(weights=(1.2, -0.2)), dict(weights=(1.0, 0.0)),
                dict(weights=(0.5, 0.6)), dict(weights=(0.5, np.nan)),
                dict(weights=()), dict(means=(-1.0, 1.0, 2.0)),
                dict(var=0.0), dict(var=-1.0), dict(var=np.inf),
                dict(var=np.nan), dict(means=(np.nan, 1.0)),
                dict(means=(-np.inf, 1.0))):
        with pytest.raises(HypothesisError):
            gaussian_mixture(**{**ok, **bad})
    with pytest.raises(HypothesisError):
        gaussian_density(0.0, 0.0)
    # the bimodal checks its weights before its own arithmetic, which
    # divides by w2 and takes the square root of a variance
    for weights in ((1.0, 0.0), (0.0, 1.0), (1.2, -0.2), (0.5, 0.6)):
        with pytest.raises(HypothesisError,
                           match="need positive weights summing to 1"):
            bimodal_density(weights=weights)


def test_gaussian_components_reads_mixtures_of_one_variance():
    three = gaussian_mixture((0.2, 0.5, 0.3), (-2.0, 0.0, 1.5), 0.4, "three")
    assert gaussian_components(three) == (
        [((0.2, 0.5, 0.3), (-2.0, 0.0, 1.5))], 0.4)
    two = gaussian_mixture((0.25, 0.75), (1.0, 3.0), 0.4, "two")
    assert gaussian_components(three, gaussian_density(-1.0, 0.4), two) == (
        [((0.2, 0.5, 0.3), (-2.0, 0.0, 1.5)), ((1.0,), (-1.0,)),
         ((0.25, 0.75), (1.0, 3.0))], 0.4)


@pytest.mark.parametrize("densities", [
    (uniform_density(-1.0, 1.0),),
    (gaussian_density(0.0, 1.0), gaussian_density(2.0, 4.0)),
    (gaussian_density(0.0, 1.0), uniform_density(-1.0, 1.0),
     gaussian_density(2.0, 4.0)),
], ids=["uniform", "unequal-variances", "both"])
def test_gaussian_components_refuses_and_names_the_densities(densities):
    with pytest.raises(HypothesisError,
                       match="Gaussian-mixture.*one variance") as err:
        gaussian_components(*densities)
    for f in densities:
        assert f.name in str(err.value)


def test_three_component_mixture_matches_its_components():
    w, m, var = (0.2, 0.5, 0.3), (-2.0, 0.0, 1.5), 0.4
    f = gaussian_mixture(w, m, var, "three")
    parts = [gaussian_density(mc, var) for mc in m]
    vs = np.linspace(-6.0, 6.0, 241)
    mix = sum(wc * p.pdf(vs) for wc, p in zip(w, parts))
    assert np.allclose(f.pdf(vs), mix, rtol=1e-14, atol=0.0)
    assert np.allclose(f.cdf(vs), sum(wc * p.cdf(vs) for wc, p in
                                      zip(w, parts)), rtol=1e-14, atol=0.0)
    assert np.allclose(f.log_pdf(vs), np.log(mix), rtol=1e-13, atol=0.0)
    dmix = sum(wc * p.pdf(vs) * p.score(vs) for wc, p in zip(w, parts))
    assert np.allclose(f.score(vs), dmix / mix, rtol=1e-12, atol=1e-13)
    for k in range(1, 9):
        assert f.raw_moments[k] == pytest.approx(
            sum(wc * p.raw_moments[k] for wc, p in zip(w, parts)), rel=1e-14)
    draws = f.sampler(np.random.default_rng(2), 200_000)
    assert abs(draws.mean() - f.raw_moments[1]) < 4 * math.sqrt(
        (f.raw_moments[2] - f.raw_moments[1] ** 2) / 200_000)
    assert validate(f)


def test_grid_density_invariants():
    g = GridDensity.from_density(gaussian_density(), 10.0, 1024)
    assert abs(g.values.sum() * g.spacing - 1.0) < 1e-12
    with pytest.raises(DimensionError):
        GridDensity(10.0, 1000, np.ones(1000))    # not a power of two
    st = g.standardized()
    assert abs(st.mean()) < 1e-9 and abs(st.variance() - 1.0) < 1e-6


@pytest.mark.parametrize("carrier, shape, power", [
    (GridDensity, (64,), 1), (ProductGridDensity, (64, 64), 2)])
def test_grid_carriers_normalize_a_copy(carrier, shape, power):
    # the clamped copy is divided in place: bitwise the clamp-then-divide
    # values, and the caller's array (negative rounding noise included)
    # is left as it was
    vals = np.random.default_rng(7).uniform(0.0, 2.0, size=shape)
    vals.flat[::5] = -1e-15
    given = vals.copy()
    g = carrier(4.0, 64, vals)
    np.testing.assert_array_equal(vals, given)
    clamped = np.maximum(given, 0.0)
    expected = clamped / (clamped.sum() * g.spacing ** power)
    np.testing.assert_array_equal(g.values, expected)
    assert g.values is not vals


@pytest.mark.parametrize("n", [0, 3, 6, 12])
@pytest.mark.parametrize("carrier, ndim", [
    (GridDensity, 1), (ProductGridDensity, 2)])
def test_grid_carriers_need_a_power_of_two(carrier, ndim, n):
    with pytest.raises(DimensionError, match="power of two"):
        carrier(1.0, n, np.ones((n,) * ndim))


@pytest.mark.parametrize("carrier, shape", [
    (GridDensity, (64,)), (ProductGridDensity, (64, 64))])
def test_grid_carriers_reject_bad_values(carrier, shape):
    # both carriers share one rule: non-finite values and values below
    # -1e-12 max(1, largest value) raise, and no mass raises
    for bad, message in ((np.nan, "finite"), (np.inf, "finite"),
                         (-np.inf, "finite"), (-5.0, "nonnegative"),
                         (-1e-11, "nonnegative")):
        vals = np.ones(shape)
        vals.flat[3] = bad
        with pytest.raises(DimensionError, match=message):
            carrier(4.0, 64, vals)
    with pytest.raises(DimensionError, match="no mass"):
        carrier(4.0, 64, np.zeros(shape))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 37])
def test_spectrum_power_matches_repeated_products(n):
    rng = np.random.default_rng(5)
    base = rng.normal(size=64) + 1j * rng.normal(size=64)
    base /= np.abs(base).max()
    direct = np.ones_like(base)
    for _ in range(n):
        direct = direct * base
    np.testing.assert_allclose(spectrum_power(base, n), direct,
                               rtol=1e-12, atol=1e-300)


def _spectrum_power_by_products(base, n):
    """Binary exponentiation with a new array for every product and
    squaring: the multiplication order that ``spectrum_power`` keeps."""
    result = None
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return result


@pytest.mark.parametrize("n", range(1, 10))
def test_spectrum_power_owns_its_result_and_keeps_the_product_order(n):
    rng = np.random.default_rng(n)
    base = rng.normal(size=257) + 1j * rng.normal(size=257)
    before = base.copy()
    power = spectrum_power(base, n)
    assert not np.shares_memory(power, base)
    assert base.tobytes() == before.tobytes()
    assert power.tobytes() == _spectrum_power_by_products(before, n).tobytes()
    power *= 2.0     # the caller may write into its result
    assert base.tobytes() == before.tobytes()


@pytest.mark.parametrize("n", [0, -1, 2.5, True])
def test_spectrum_power_refuses_a_power_that_is_no_int_at_least_one(n):
    with pytest.raises(DimensionError, match="int n >= 1"):
        spectrum_power(np.ones(3), n)
