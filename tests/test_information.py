import math

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.special import digamma

from kaclab.core import (DimensionError, DiscreteMeasure, GridDensity,
                         ProductGridDensity, SupportError, bimodal_density,
                         gaussian_density, uniform_density)
from kaclab.information import (_xlogx, entropy, entropy_knn, fisher,
                                fisher_dual_lower_bound,
                                fisher_superadditivity_grid, hwi_check,
                                relative_entropy, relative_fisher,
                                superadditivity_check, w2_quantile)
from kaclab.chaos import enumerate_configs, symmetric_pmf

GAUSS_ENTROPY = -0.5 * math.log(2 * math.pi * math.e)


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_entropy_gaussian_closed_form():
    assert entropy(gaussian_density()).value == pytest.approx(GAUSS_ENTROPY,
                                                              abs=1e-8)


def test_entropy_uniforms():
    assert entropy(uniform_density(0, 1)).value == pytest.approx(0.0, abs=1e-10)
    v = entropy(uniform_density(-math.sqrt(3), math.sqrt(3))).value
    assert v == pytest.approx(-math.log(2 * math.sqrt(3)), abs=1e-8)


def test_entropy_lower_bound_second_moment():
    # H(f) >= log c_2 - M_2(f) with c_2 the normalizer of exp(-v^2)
    c2 = 1.0 / math.sqrt(math.pi)
    for f in (gaussian_density(), bimodal_density(), uniform_density(0, 1)):
        m2 = 1.0 + f.raw_moments[2]
        assert entropy(f).value >= math.log(c2) - m2


def _xlogx_gathered(v):
    """The masked-gather form of x log x that ``_xlogx`` replaced."""
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    pos = v > 0
    out[pos] = v[pos] * np.log(v[pos])
    return out


def test_xlogx_matches_the_gathered_form_bitwise(rng):
    special = np.array([0.0, -0.0, -1.0, -1e-300, 5e-324, 1e-300, 1.0, 2.0,
                        np.inf, -np.inf, np.nan])
    for v in (special, rng.standard_normal((64, 33)) * 5.0,
              rng.random(4096) ** 12, 0.0, -2.0, 3.5):
        got, want = _xlogx(v), _xlogx_gathered(v)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(np.asarray(got).view(np.int64),
                              np.asarray(want).view(np.int64))


def test_relative_entropy_basics():
    g = gaussian_density()
    assert relative_entropy(g, g).value == pytest.approx(0.0, abs=1e-9)
    for m in (0.5, 1.0, 2.0):
        val = relative_entropy(gaussian_density(m), g).value
        assert val == pytest.approx(m * m / 2.0, abs=1e-7)
        assert val >= 0.0


def test_relative_entropy_support_violation_is_infinite():
    assert math.isinf(relative_entropy(gaussian_density(),
                                       uniform_density(0, 1)).value)


def test_relative_entropy_mixture_matches_monte_carlo(rng):
    f = bimodal_density()
    g = gaussian_density()
    quad = relative_entropy(f, g).value
    assert quad > 0.0
    x = f.sampler(rng, 200_000)
    logs = f.log_pdf(x) - g.log_pdf(x)
    mc, se = logs.mean(), logs.std(ddof=1) / math.sqrt(len(x))
    assert abs(quad - mc) <= 3.0 * se


def test_relative_entropy_discrete():
    pts = np.array([[0.0], [1.0]])
    f = DiscreteMeasure(1, pts, np.array([0.5, 0.5]))
    g = DiscreteMeasure(1, pts, np.array([0.25, 0.75]))
    expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert relative_entropy(f, g).value == pytest.approx(expected)
    h = DiscreteMeasure(1, np.array([[0.0]]), np.array([1.0]))
    assert math.isinf(relative_entropy(f, h).value)


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------

def test_fisher_gaussians():
    assert fisher(gaussian_density()).value == pytest.approx(1.0, abs=1e-8)
    assert fisher(gaussian_density(0, 4.0)).value == pytest.approx(0.25,
                                                                   abs=1e-8)


def test_fisher_uniform_is_infinite():
    assert math.isinf(fisher(uniform_density(0, 1)).value)
    grid = GridDensity.from_density(uniform_density(0, 1), 4.0, 2048)
    out = fisher(grid)
    assert math.isinf(out.value) and out.method == "grid_refinement"


def test_fisher_grid_matches_analytic():
    grid = GridDensity.from_density(gaussian_density(), 10.0, 4096)
    assert fisher(grid).value == pytest.approx(1.0, abs=1e-5)


def test_relative_fisher_gaussian_shift():
    # I(gamma(.-m) | gamma) = m^2
    val = relative_fisher(gaussian_density(0.7), gaussian_density()).value
    assert val == pytest.approx(0.49, abs=1e-8)


def test_fisher_dual_bounds():
    g = gaussian_density()
    assert fisher_dual_lower_bound(g, lambda v: 0.0 * v, lambda v: 0.0 * v) \
        == pytest.approx(0.0, abs=1e-12)
    # near-optimal field psi = 2 (log g)' with a smooth far cutoff
    psi = lambda v: -2.0 * v * np.exp(-(v / 8.0) ** 8)
    h = 1e-6
    dpsi = lambda v: (psi(v + h) - psi(v - h)) / (2 * h)
    val = fisher_dual_lower_bound(g, psi, dpsi)
    assert 0.999 <= val <= 1.0 + 1e-8


def test_fisher_dual_random_fields_stay_below(rng):
    g = bimodal_density()
    target = fisher(g).value
    for _ in range(20):
        a, b, c = rng.uniform(-1.5, 1.5, 3)
        psi = lambda v, a=a, b=b, c=c: (a * v + b * np.sin(c * v)) \
            * np.exp(-(v / 9.0) ** 8)
        h = 1e-6
        dpsi = lambda v, psi=psi: (psi(v + h) - psi(v - h)) / (2 * h)
        assert fisher_dual_lower_bound(g, psi, dpsi) <= target + 1e-8


# ---------------------------------------------------------------------------
# sample-based entropy
# ---------------------------------------------------------------------------

def test_entropy_knn_gaussian(rng):
    est = entropy_knn(gaussian_density().sampler(rng, 30_000))
    assert abs(est.value - GAUSS_ENTROPY) <= 0.05
    assert est.stderr is not None and est.stderr > 0


def test_entropy_knn_uniform(rng):
    est = entropy_knn(uniform_density(0, 1).sampler(rng, 30_000))
    assert abs(est.value) <= 0.05


def test_entropy_knn_duplicates_warn(rng):
    x = gaussian_density().sampler(rng, 500)
    x[100:200] = x[0]
    est = entropy_knn(x)
    assert est.n_warnings == 100


def _kl_tree(pts):
    n = len(pts)
    dist, _ = cKDTree(pts).query(pts, k=2)
    return -float(np.mean(np.log(dist[:, 1])) + math.log(2.0)
                  + digamma(n) - digamma(1))


def _entropy_knn_tree(x):
    """Oracle: one KD-tree for the sample and one for each jackknife block."""
    pts = np.asarray(x, dtype=float).reshape(-1, 1)
    m = 10
    loo = []
    for b in np.array_split(np.arange(len(pts)), m):
        mask = np.ones(len(pts), dtype=bool)
        mask[b] = False
        loo.append(_kl_tree(pts[mask]))
    loo = np.array(loo)
    se = math.sqrt((m - 1) / m * float(np.sum((loo - loo.mean()) ** 2)))
    return _kl_tree(pts), se


@pytest.mark.parametrize("dens", [gaussian_density(), uniform_density(0, 1)],
                         ids=["gaussian", "uniform"])
def test_entropy_knn_equals_kdtree_oracle(dens):
    x = dens.sampler(np.random.default_rng(31), 30_000)
    est = entropy_knn(x)
    assert (est.value, est.stderr) == _entropy_knn_tree(x)
    row = entropy_knn(x.reshape(1, -1))
    assert (row.value, row.stderr) == (est.value, est.stderr)


def test_entropy_knn_duplicates_equal_oracle_on_first_occurrences(rng):
    x = gaussian_density().sampler(rng, 2_000)
    x[[50, 700, 1999]] = x[[10, 10, 1500]]
    est = entropy_knn(x)
    _, first = np.unique(x, return_index=True)
    assert est.n_warnings == 3
    assert (est.value, est.stderr) == _entropy_knn_tree(x[np.sort(first)])


def test_entropy_knn_one_duplicate_keeps_stderr():
    # the jackknife blocks stay in sample order when a duplicate is dropped
    x = gaussian_density().sampler(np.random.default_rng(5), 30_000)
    clean = entropy_knn(x)
    x[1] = x[0]
    dup = entropy_knn(x)
    assert dup.n_warnings == 1
    assert abs(dup.stderr - clean.stderr) <= 0.1 * clean.stderr


def test_entropy_knn_rejects_two_columns_and_nan(rng):
    with pytest.raises(DimensionError):
        entropy_knn(rng.normal(size=(500, 2)))
    x = rng.normal(size=500)
    x[7] = np.nan
    with pytest.raises(DimensionError):
        entropy_knn(x)


def test_entropy_knn_needs_samples():
    with pytest.raises(DimensionError):
        entropy_knn(np.arange(10.0))


def test_entropy_knn_consistency():
    errs = []
    for i, n in enumerate((1_000, 10_000, 100_000)):
        x = gaussian_density().sampler(np.random.default_rng(1000 + i), n)
        est = entropy_knn(x)
        errs.append((abs(est.value - GAUSS_ENTROPY), est.stderr))
    assert errs[2][0] <= errs[0][0] + 2.0 * (errs[0][1] + errs[2][1])


# ---------------------------------------------------------------------------
# transport-information inequality
# ---------------------------------------------------------------------------

def test_w2_quantile_gaussians():
    assert w2_quantile(gaussian_density(0.5), gaussian_density()) \
        == pytest.approx(0.5, abs=1e-4)
    assert w2_quantile(gaussian_density(0, 0.25), gaussian_density(0, 4.0)) \
        == pytest.approx(1.5, abs=1e-3)


def test_hwi_trivial_and_shift():
    g = gaussian_density()
    lhs, rhs, vac = hwi_check(g, g)
    assert lhs == pytest.approx(0.0, abs=1e-10) and rhs < 1e-4 and not vac
    lhs, rhs, vac = hwi_check(g, gaussian_density(0.5))
    assert lhs == pytest.approx(0.0, abs=1e-10)
    assert rhs == pytest.approx(0.5, abs=1e-3)


def test_hwi_rejects_interval_support():
    with pytest.raises(SupportError):
        hwi_check(uniform_density(0, 1), gaussian_density())


def test_hwi_sweep(rng):
    for _ in range(10):
        f = gaussian_density(float(rng.uniform(-1, 1)),
                             float(rng.uniform(0.5, 2)))
        g = gaussian_density(float(rng.uniform(-1, 1)),
                             float(rng.uniform(0.5, 2)))
        lhs, rhs, vac = hwi_check(f, g)
        assert vac or lhs <= rhs + 1e-6


# ---------------------------------------------------------------------------
# superadditivity and tensorization
# ---------------------------------------------------------------------------

def test_superadditivity_product_is_equality():
    p = np.array([0.3, 0.7])
    pts = enumerate_configs(2, 2).astype(float)
    F = DiscreteMeasure(2, pts, np.outer(p, p).ravel())
    lhs, rhs = superadditivity_check(F, 1, 1)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_superadditivity_correlated_pair():
    # mass only on the diagonal of {0,1}^2
    pts = enumerate_configs(2, 2).astype(float)
    F = DiscreteMeasure(2, pts, np.array([0.5, 0.0, 0.0, 0.5]))
    lhs, rhs = superadditivity_check(F, 1, 1)
    assert lhs == pytest.approx(-math.log(2.0))
    assert rhs == pytest.approx(-2.0 * math.log(2.0))
    assert lhs >= rhs


def test_superadditivity_sweep(rng):
    for _ in range(100):
        S = int(rng.integers(2, 4))
        raw = rng.dirichlet(np.ones(S * S)).reshape(S, S)
        sym = 0.5 * (raw + raw.T)
        pts = enumerate_configs(S, 2).astype(float)
        F = DiscreteMeasure(2, pts, sym.ravel())
        lhs, rhs = superadditivity_check(F, 1, 1)
        assert lhs >= rhs - 1e-10


def test_superadditivity_rejects_asymmetric():
    pts = enumerate_configs(2, 2).astype(float)
    F = DiscreteMeasure(2, pts, np.array([0.1, 0.6, 0.1, 0.2]))
    with pytest.raises(DimensionError):
        superadditivity_check(F, 1, 1)


def test_superadditivity_three_variables(rng):
    pmf = symmetric_pmf(2, 3, rng)
    pts = enumerate_configs(2, 3).astype(float)
    F = DiscreteMeasure(3, pts, pmf.ravel())
    lhs, rhs = superadditivity_check(F, 1, 2)
    assert lhs >= rhs - 1e-10


def test_tensorization_identities_on_grids():
    g = GridDensity.from_density(gaussian_density(), 10.0, 1024)
    prod = ProductGridDensity(10.0, 1024, np.outer(g.values, g.values))
    assert entropy(prod).value == pytest.approx(entropy(g).value, abs=1e-9)
    lhs, rhs = fisher_superadditivity_grid(prod)
    assert lhs == pytest.approx(rhs, abs=1e-6)
    assert lhs / 2.0 == pytest.approx(fisher(g).value, abs=1e-6)


def test_fisher_superadditivity_on_correlated_grid():
    g = GridDensity.from_density(gaussian_density(), 10.0, 512)
    xs = g.xs
    joint = np.exp(-(xs[:, None] ** 2 + xs[None, :] ** 2
                     + 1.2 * xs[:, None] * xs[None, :]) / 2.0)
    prod = ProductGridDensity(10.0, 512, joint)
    lhs, rhs = fisher_superadditivity_grid(prod)
    assert lhs >= rhs - 1e-8
