import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate
from scipy.spatial import cKDTree
from scipy.special import digamma

from kaclab import information
from kaclab.core import (DimensionError, DiscreteMeasure, Grid, GridDensity,
                         ProductGridDensity, SupportError, bimodal_density,
                         gaussian_density, uniform_density)
from kaclab.experiments import ExperimentConfig
from kaclab.information import (_EPS, _QUANTILE_CELLS, _central_diff,
                                _expect, _quantile,
                                _xlogx, entropy,
                                entropy_knn, fisher,
                                fisher_superadditivity_grid, hwi_check,
                                relative_entropy, relative_fisher,
                                superadditivity_check, w2_quantile)
from kaclab.chaos import enumerate_configs, symmetric_pmf

from conftest import _merged_loop

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
    # the violation lies inside f's support, not only in its tails
    assert math.isinf(relative_entropy(uniform_density(0, 1),
                                       uniform_density(0, 0.5)).value)


def test_relative_entropy_inside_the_reference_support_is_finite():
    val = relative_entropy(uniform_density(0, 0.5), uniform_density(0, 1))
    assert val.value == pytest.approx(math.log(2.0), abs=1e-12)


def test_relative_entropy_mixture_matches_monte_carlo(rng):
    f = bimodal_density()
    g = gaussian_density()
    quad = relative_entropy(f, g).value
    assert quad > 0.0
    x = f.sampler(rng, 200_000)
    logs = f.log_pdf(x) - g.log_pdf(x)
    mc, se = logs.mean(), logs.std(ddof=1) / math.sqrt(len(x))
    assert abs(quad - mc) <= 3.0 * se


def test_relative_entropy_discrete_value_type_and_spaces():
    # relative entropy is taken between two analytic densities only: a
    # discrete law on either side, or on both, is refused
    pts = np.array([[0.0], [1.0]])
    f = DiscreteMeasure(1, pts, [0.5, 0.5])
    g = DiscreteMeasure(1, pts, [0.25, 0.75])
    gauss = gaussian_density()
    for a, b in ((f, g), (gauss, f), (f, gauss)):
        with pytest.raises(DimensionError, match="matching pair of carriers"):
            relative_entropy(a, b)
    assert type(relative_entropy(bimodal_density(), gauss).value) is float


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


def fisher_dual_lower_bound(f, psi, dpsi) -> float:
    """Dual value int (-psi^2/4 - psi') f, a lower bound on I(f): the
    oracle the two tests below hold fisher against."""
    return _expect(f, lambda v: -psi(v) ** 2 / 4.0 - dpsi(v), 1e-9)


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
# the Gauss-Legendre functionals against QUADPACK
# ---------------------------------------------------------------------------

# the densities that test_core's test_shipped_densities_validate covers
SHIPPED = [
    gaussian_density(),
    gaussian_density(1.5, 4.0),
    uniform_density(0.0, 1.0),
    uniform_density(-math.sqrt(3.0), math.sqrt(3.0)),
    bimodal_density(),
    bimodal_density(weights=(0.7, 0.3)),
]


def quadpack_expect(f, g):
    """int g f over f.quad_bounds() by adaptive QUADPACK on scalar calls,
    zero where f is below the floor: the oracle of the fixed rule."""
    lo, hi = f.quad_bounds()

    def integrand(v):
        p = float(f.pdf(v))
        return float(g(v)) * p if p > 1e-14 else 0.0

    val, _ = integrate.quad(integrand, lo, hi, epsabs=1e-12, epsrel=1e-12,
                            limit=400)
    return val


def assert_within(got, want, tol):
    """The bound gauss_quadrature's callers ask for, without its factor 10."""
    assert abs(got - want) <= max(tol, abs(want) * tol)


@pytest.mark.parametrize("f", SHIPPED, ids=lambda f: f.name)
def test_functionals_match_quadpack(f):
    gauss = gaussian_density()
    assert_within(entropy(f).value, quadpack_expect(f, f.log_pdf), 1e-10)
    assert_within(relative_entropy(f, gauss).value,
                  quadpack_expect(f, lambda v: math.log(f.pdf(v))
                                  - math.log(gauss.pdf(v))), 1e-10)
    if f.boundary_positive:
        return
    assert_within(fisher(f).value,
                  quadpack_expect(f, lambda v: f.score(v) ** 2), 1e-9)
    assert_within(relative_fisher(f, gauss).value,
                  quadpack_expect(f, lambda v: (f.score(v)
                                                - gauss.score(v)) ** 2), 1e-9)


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


@pytest.mark.parametrize("seed", range(20))
def test_w2_quantile_matches_the_gaussian_closed_form(seed):
    m1, m2, v1, v2 = np.random.default_rng(seed).uniform(
        [-2.0, -2.0, 0.25, 0.25], [2.0, 2.0, 4.0, 4.0])
    want = math.hypot(m1 - m2, math.sqrt(v1) - math.sqrt(v2))
    got = w2_quantile(gaussian_density(m1, v1), gaussian_density(m2, v2))
    assert got == pytest.approx(want, rel=1e-10)


def _bisection_quantile(g, u):
    """min{x : g.cdf(x) >= u} by 64 bisection steps of g.cdf on
    g.quad_bounds(), to float precision: the oracle of the Newton
    quantiles."""
    lo, hi = (np.full_like(u, b) for b in g.quad_bounds())
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = g.cdf(mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _w2_bisection(f, g):
    """W2 with G^{-1} from ``_bisection_quantile`` at every node."""
    def sq_shift(x):
        return (x - _bisection_quantile(g, np.clip(f.cdf(x), 0.0, 1.0))) ** 2

    return math.sqrt(max(_expect(f, sq_shift, 1e-8), 0.0))


@pytest.mark.parametrize("f, g", [
    (bimodal_density(), gaussian_density()),
    (gaussian_density(), bimodal_density()),
    (bimodal_density(weights=(0.7, 0.3)), gaussian_density(0.3, 2.0))])
def test_w2_quantile_matches_the_bisection_oracle(f, g):
    assert w2_quantile(f, g) == pytest.approx(_w2_bisection(f, g), rel=1e-12)


@pytest.mark.parametrize("g", [gaussian_density(), bimodal_density(),
                               gaussian_density(0.3, 2.0)])
def test_quantile_to_the_cdf_rounding_level(g):
    """From u = 4 eps to 1 - 4 eps the Newton quantile is within the cdf's
    resolution 4 eps / g.pdf of the bisection one; below 4 eps only the
    absolute cdf residual is held to 4 eps."""
    eps = np.finfo(float).eps
    t = np.linspace(*g.quad_bounds(), _QUANTILE_CELLS + 1)
    gt = g.cdf(t)
    u = np.concatenate([np.logspace(math.log10(4 * eps), -1, 200),
                        np.linspace(0.1, 0.9, 200),
                        1.0 - np.logspace(-1, math.log10(4 * eps), 200)])
    got, want = _quantile(g, u, t, gt), _bisection_quantile(g, u)
    resolution = 4 * eps / g.pdf(want) + 4 * eps * np.maximum(abs(want), 1.0)
    assert np.all(np.abs(got - want) <= resolution)
    deep = np.logspace(-17, math.log10(4 * eps), 50)
    assert np.all(np.abs(g.cdf(_quantile(g, deep, t, gt)) - deep) <= 4 * eps)


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
    lhs, rhs = superadditivity_check(np.outer(p, p), 1, 1)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_superadditivity_correlated_pair():
    # mass only on the diagonal of {0,1}^2
    lhs, rhs = superadditivity_check([[0.5, 0.0], [0.0, 0.5]], 1, 1)
    assert lhs == pytest.approx(-math.log(2.0))
    assert rhs == pytest.approx(-2.0 * math.log(2.0))
    assert lhs >= rhs


def test_superadditivity_sweep(rng):
    for _ in range(100):
        S = int(rng.integers(2, 4))
        raw = rng.dirichlet(np.ones(S * S)).reshape(S, S)
        lhs, rhs = superadditivity_check(0.5 * (raw + raw.T), 1, 1)
        assert lhs >= rhs - 1e-10


def test_superadditivity_rejects_asymmetric():
    with pytest.raises(DimensionError, match="not permutation symmetric"):
        superadditivity_check(np.array([[0.1, 0.6], [0.1, 0.2]]), 1, 1)


def test_superadditivity_three_variables(rng):
    lhs, rhs = superadditivity_check(symmetric_pmf(2, 3, rng), 1, 2)
    assert lhs >= rhs - 1e-10


def test_superadditivity_rejects_a_pmf_on_the_wrong_space():
    with pytest.raises(DimensionError, match="expected E\\^2"):
        superadditivity_check(np.full((2, 2, 2), 0.125), 1, 1)


def _as_measure(pmf):
    """The law of pmf as atoms at the configurations of {0..S-1}^n."""
    pts = enumerate_configs(pmf.shape[0], pmf.ndim).astype(float)
    return DiscreteMeasure(pmf.ndim, pts, pmf.ravel())


def _check_symmetric_spot(F):
    """Oracle: the symmetry spot check of 4 random transpositions."""
    j, d = F.j, F.particle_dim
    if j < 2:
        return
    rng = np.random.default_rng(0)
    base_pts, base_w = _merged_loop(F.points, F.weights)
    for _ in range(4):
        a, b = rng.choice(j, size=2, replace=False)
        perm = list(range(j))
        perm[a], perm[b] = perm[b], perm[a]
        cols = np.concatenate([np.arange(c * d, (c + 1) * d) for c in perm])
        pts, w = _merged_loop(F.points[:, cols], F.weights)
        if (len(w) != len(base_w)
                or not np.allclose(pts, base_pts, atol=1e-9)
                or not np.allclose(w, base_w, atol=1e-9)):
            raise DimensionError("measure is not permutation symmetric")


def _discrete_h(F):
    return float(np.sum(_xlogx(_merged_loop(F.points, F.weights)[1])))


def _superadditivity_oracle(F, i, j):
    """Oracle: the spot-checked, merge-per-use route on a DiscreteMeasure."""
    _check_symmetric_spot(F)
    d = F.particle_dim

    def marginal(coords):
        cols = np.concatenate([np.arange(c * d, (c + 1) * d) for c in coords])
        return DiscreteMeasure(len(cols), F.points[:, cols], F.weights,
                               particle_dim=d)

    return _discrete_h(F), (_discrete_h(marginal(range(i)))
                            + _discrete_h(marginal(range(i, i + j))))


def _suite_laws(seed):
    """The information suite's 1000 symmetric laws, drawn as it draws them."""
    rng = ExperimentConfig(seed=seed).rng(7)
    for t in range(1000):
        if t % 5 == 4:
            yield symmetric_pmf(2, 3, rng), 1, 2
        else:
            S = int(rng.integers(2, 4))
            raw = rng.dirichlet(np.ones(S * S)).reshape(S, S)
            yield 0.5 * (raw + raw.T), 1, 1


@pytest.mark.parametrize("seed", [424242, 4518])
def test_superadditivity_matches_the_spot_check_route_on_suite_laws(seed):
    # the two routes sum in different orders, so they agree to rounding
    for pmf, i, j in _suite_laws(seed):
        lhs, rhs = superadditivity_check(pmf, i, j)
        want_lhs, want_rhs = _superadditivity_oracle(_as_measure(pmf), i, j)
        assert abs(lhs - want_lhs) <= 1e-12
        assert abs(rhs - want_rhs) <= 1e-12


def test_superadditivity_checks_every_permutation():
    # all mass on (0, 0, 1, 0, 0): no transposition of coordinates 0, 1, 3
    # or 4 moves it, and the 4 random transpositions of the spot check
    # never touch coordinate 2
    pmf = np.zeros((2,) * 5)
    pmf[0, 0, 1, 0, 0] = 1.0
    assert _superadditivity_oracle(_as_measure(pmf), 2, 3) == (0.0, 0.0)
    with pytest.raises(DimensionError, match="not permutation symmetric"):
        superadditivity_check(pmf, 2, 3)
    # the uniform law on the configurations with one 1 is symmetric
    pmf = np.zeros((2,) * 5)
    for k in range(5):
        pmf[tuple(int(i == k) for i in range(5))] = 0.2
    lhs, rhs = superadditivity_check(pmf, 2, 3)
    assert lhs == pytest.approx(-math.log(5.0))
    assert lhs >= rhs


@pytest.mark.parametrize("i, j", [(0, 2), (2, 0), (-1, 3), (1.0, 1),
                                  (1, 1.5), (True, 1)])
def test_superadditivity_rejects_bad_block_sizes(i, j):
    with pytest.raises(DimensionError, match="positive integers"):
        superadditivity_check(np.full((2, 2), 0.25), i, j)


def test_tensorization_identities_on_grids():
    g = GridDensity.from_density(gaussian_density(), 10.0, 1024)
    prod = ProductGridDensity(10.0, 1024, np.outer(g.values, g.values))
    assert entropy(prod).value == pytest.approx(entropy(g).value, abs=1e-9)
    lhs, rhs = fisher_superadditivity_grid(prod)
    assert lhs == pytest.approx(rhs, abs=1e-6)
    assert lhs / 2.0 == pytest.approx(fisher(g).value, abs=1e-6)


def _edge_mass_grid():
    # f = 1 + cos(pi x) / 2 on [-1, 1) is 1/2 at the grid's edges
    f = 1.0 + 0.5 * np.cos(np.pi * Grid(1.0, 256).xs)
    return ProductGridDensity(1.0, 256, np.outer(f, f))


def _correlated_grid():
    xs = Grid(10.0, 512).xs
    joint = np.exp(-(xs[:, None] ** 2 + xs[None, :] ** 2
                     + 1.2 * xs[:, None] * xs[None, :]) / 2.0)
    return ProductGridDensity(10.0, 512, joint)


def _gaussian_grid():
    # the information suite's product grid
    g = GridDensity.from_density(gaussian_density(), 10.0, 1024)
    return ProductGridDensity(10.0, 1024, np.outer(g.values, g.values))


def test_fisher_tensorizes_on_a_product_grid_with_mass_at_the_edges():
    # the edge rows carry Fisher information; both sides take the same
    # zero-padded central differences, and the product law gives lhs = rhs
    lhs, rhs = fisher_superadditivity_grid(_edge_mass_grid())
    assert rhs > 30.0
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_fisher_superadditivity_on_correlated_grid():
    lhs, rhs = fisher_superadditivity_grid(_correlated_grid())
    assert lhs >= rhs - 1e-8


def _whole_grid_fisher_lhs(F: ProductGridDensity):
    """lhs of fisher_superadditivity_grid from whole-grid arrays, F taken
    as 0 outside the grid, and the number of terms it adds: the oracle for
    the row-blocked sum."""
    h, v = F.spacing, F.values
    p = np.pad(v, 1)
    gx = (p[2:, 1:-1] - p[:-2, 1:-1]) / (2.0 * h)
    gy = (p[1:-1, 2:] - p[1:-1, :-2]) / (2.0 * h)
    mask = v > information._DENSITY_FLOOR
    terms = (gx[mask] ** 2 + gy[mask] ** 2) / v[mask]
    return float(np.sum(terms) * h * h), terms.size


@pytest.mark.parametrize("rows", [1, 7, None])
@pytest.mark.parametrize("grid", [_gaussian_grid, _edge_mass_grid,
                                  _correlated_grid])
def test_blocked_fisher_lhs_matches_whole_grid_formula(grid, rows,
                                                       monkeypatch):
    # blocks of 1 row make the first and last rows blocks of their own;
    # blocks of 7 leave a ragged last block of 2, 4 and 1 rows at
    # M = 1024, 256 and 512; None keeps the module's block height
    if rows is not None:
        monkeypatch.setattr(information, "_FISHER_ROWS", rows)
    F = grid()
    want, n = _whole_grid_fisher_lhs(F)
    lhs, _ = fisher_superadditivity_grid(F)
    # both sides form the same n nonnegative terms bit for bit and add
    # them in different orders; in any order every partial sum stays
    # below the total S, so each sum is within (n - 1) eps S of the exact
    # one, and the two products with h add 2 eps S more to each side
    assert abs(lhs - want) <= 2 * (n + 1) * _EPS * want


def test_fisher_superadditivity_memory_is_blocked():
    # whole-grid differences and their masked copies peaked at 25.8 MB
    # traced above the 8.4 MB grid
    F = _gaussian_grid()
    tracemalloc.start()
    try:
        fisher_superadditivity_grid(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < F.values.nbytes / 4


@pytest.mark.parametrize("n", [1, 2, 3, 1024])
def test_central_diff_matches_the_zero_padded_formula(n, rng):
    # bitwise, zeros included; fisher's coarsest refinement of a 2-point
    # grid passes a vector of length 1
    v = rng.normal(size=n)
    v[::3] = 0.0
    padded = np.concatenate([[0.0], v, [0.0]])
    want = (padded[2:] - padded[:-2]) / (2.0 * 0.3)
    assert _central_diff(v, 0.3).tobytes() == want.tobytes()
