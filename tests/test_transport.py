import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaclab.core import Configuration, DimensionError, DiscreteMeasure
from kaclab.transport import (BOUNDED_L1, NORMALIZED_L2_SQ, TRUNCATION,
                              CostSpec, cost_config, cost_matrix,
                              pair_tensorization_check, product_measure,
                              tensorization_check, w1_config,
                              w1_config_bruteforce, w1_discrete,
                              w1_dual_lower_bound, w1_line_batch)
from kaclab.chaos import enumerate_configs, symmetric_pmf
from kaclab.transport import _transport_lp


def conf(*xs):
    xs = np.asarray(xs, dtype=float)
    return Configuration(1, len(xs), xs)


def uniform_atoms(rng, n, spread=2.0):
    return DiscreteMeasure(1, rng.uniform(-spread, spread, (n, 1)),
                           np.full(n, 1.0 / n))


def random_measure(rng, n, spread=2.0):
    return DiscreteMeasure(1, rng.uniform(-spread, spread, (n, 1)),
                           rng.dirichlet(np.ones(n)))


# ---------------------------------------------------------------------------
# cost_config
# ---------------------------------------------------------------------------

def test_cost_config_zero_on_equal():
    X = conf(0.3, -1.2, 4.0)
    assert cost_config(X, X) == 0.0


def test_cost_config_hand_values():
    assert cost_config(conf(0.0, 0.0), conf(0.5, 3.0)) == pytest.approx(0.75)
    assert cost_config(conf(0.0), conf(2.0),
                       NORMALIZED_L2_SQ) == pytest.approx(4.0)


def test_cost_spec_validation():
    with pytest.raises(DimensionError):
        CostSpec("unknown")


# ---------------------------------------------------------------------------
# w1_config
# ---------------------------------------------------------------------------

def test_w1_config_relabeling_gives_zero():
    cost, perm = w1_config(conf(0.0, 1.0), conf(1.0, 0.0))
    assert cost == 0.0
    assert list(perm) == [1, 0]


def test_w1_config_hand_value():
    cost, _ = w1_config(conf(0.0, 0.0), conf(1.0, 2.0))
    assert cost == pytest.approx(1.0)


def test_w1_config_single_particle_degenerate():
    cost, perm = w1_config(conf(0.0), conf(0.4))
    assert cost == pytest.approx(0.4) and list(perm) == [0]


def test_w1_config_matches_bruteforce():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        X = Configuration(1, n, rng.normal(size=n))
        Y = Configuration(1, n, rng.normal(size=n))
        fast, _ = w1_config(X, Y)
        assert fast == pytest.approx(w1_config_bruteforce(X, Y), abs=1e-12)


def test_w1_config_below_identity_coupling():
    rng = np.random.default_rng(4)
    for _ in range(20):
        X = Configuration(1, 5, rng.normal(size=5))
        Y = Configuration(1, 5, rng.normal(size=5))
        assert w1_config(X, Y)[0] <= cost_config(X, Y) + 1e-12


# ---------------------------------------------------------------------------
# w1_line_batch
# ---------------------------------------------------------------------------

def _line_instance(rng, case):
    """One random pair of line configurations of the given kind."""
    n = int(rng.integers(1, 61))
    scale = rng.uniform(0.2, 4.0)
    x, y = scale * rng.normal(size=n), scale * rng.normal(size=n)
    if case == "ties":
        x, y = np.round(x, 1), np.round(y, 1)
    elif case == "replicated":
        # omega_inf's layout: each drawn atom four times against 4n atoms
        x, y = np.repeat(x, 4), scale * rng.normal(size=4 * n)
    elif case == "single":
        x, y = x[:1], y[:1]
    return x, y


@pytest.mark.parametrize("seed,case", enumerate(
    ["plain", "ties", "replicated", "single"]))
def test_w1_line_batch_matches_assignment(seed, case):
    rng = np.random.default_rng(seed)
    for _ in range(80):
        x, y = _line_instance(rng, case)
        n = len(x)
        oracle, _ = w1_config(Configuration(1, n, x), Configuration(1, n, y))
        assert w1_line_batch(x[None], y[None])[0] == \
            pytest.approx(oracle, abs=1e-12)


def test_w1_line_batch_matches_bruteforce():
    rng = np.random.default_rng(15)
    for n in range(1, 8):
        for _ in range(6):
            x, y = rng.normal(size=n), rng.normal(size=n)
            brute = w1_config_bruteforce(conf(*x), conf(*y))
            assert w1_line_batch(x[None], y[None])[0] == \
                pytest.approx(brute, abs=1e-12)


def test_w1_line_batch_far_apart_is_the_truncation():
    x = np.array([[0.0, 0.4, 0.9]])
    assert w1_line_batch(x, x + 5.0)[0] == TRUNCATION
    assert w1_line_batch(x, x[:, ::-1])[0] == 0.0


def test_w1_line_batch_rows_are_independent():
    rng = np.random.default_rng(16)
    xs, ys = rng.normal(size=(9, 25)), rng.normal(size=(9, 25))
    batched = w1_line_batch(xs, ys)
    single = [w1_line_batch(x[None], y[None])[0] for x, y in zip(xs, ys)]
    np.testing.assert_array_equal(batched, single)


def test_w1_line_batch_rejects_bad_input():
    good = np.zeros((2, 3))
    for xs, ys in ((good, np.zeros((2, 4))), (good, np.zeros((3, 3))),
                   (good[0], good[0]), (np.zeros((2, 0)), np.zeros((2, 0))),
                   (good, np.array([[0.0, np.nan, 0.0], [0.0, 0.0, 0.0]])),
                   (np.full((2, 3), np.inf), good)):
        with pytest.raises(DimensionError):
            w1_line_batch(xs, ys)


# ---------------------------------------------------------------------------
# w1_discrete
# ---------------------------------------------------------------------------

def test_w1_discrete_identity():
    rng = np.random.default_rng(5)
    mu = random_measure(rng, 4)
    assert w1_discrete(mu, mu).cost == pytest.approx(0.0, abs=1e-12)


def test_w1_discrete_two_diracs():
    for a in (0.4, 2.5):
        mu = DiscreteMeasure(1, np.array([[0.0]]), np.array([1.0]))
        nu = DiscreteMeasure(1, np.array([[a]]), np.array([1.0]))
        assert w1_discrete(mu, nu).cost == pytest.approx(min(a, 1.0))


def test_w1_discrete_matches_w1_config_on_empirical():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        plan = w1_discrete(
            DiscreteMeasure(1, x[:, None], np.full(n, 1.0 / n)),
            DiscreteMeasure(1, y[:, None], np.full(n, 1.0 / n)))
        cost, _ = w1_config(Configuration(1, n, x), Configuration(1, n, y))
        assert plan.cost == pytest.approx(cost, abs=1e-9)


def test_transport_plan_marginals_validate():
    rng = np.random.default_rng(7)
    mu = random_measure(rng, 5)
    nu = random_measure(rng, 3)
    plan = w1_discrete(mu, nu)
    costs = cost_matrix(mu.merged(), nu.merged(), BOUNDED_L1)
    assert plan.validate(costs)


def test_quantile_plan_matches_lp():
    # half the pairs sit on a half-integer grid, so atoms tie across the
    # two measures and repeated points merge within one
    rng = np.random.default_rng(17)
    for k in range(240):
        n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        if k % 2:
            p = rng.integers(-3, 4, size=(n, 1)) * 0.5
            q = rng.integers(-3, 4, size=(m, 1)) * 0.5
        else:
            p = rng.normal(size=(n, 1))
            q = rng.normal(size=(m, 1))
        mu = DiscreteMeasure(1, p, rng.dirichlet(np.ones(n)))
        nu = DiscreteMeasure(1, q, rng.dirichlet(np.ones(m)))
        plan = w1_discrete(mu, nu, NORMALIZED_L2_SQ)
        mu, nu = mu.merged(), nu.merged()
        costs = cost_matrix(mu, nu, NORMALIZED_L2_SQ)
        assert plan.validate(costs)
        lp = _transport_lp(costs, mu.weights, nu.weights).cost
        assert plan.cost == pytest.approx(lp, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10_000))
def test_w1_discrete_metric_axioms(n, seed):
    rng = np.random.default_rng(seed)
    mu = random_measure(rng, n)
    nu = random_measure(rng, n)
    rho = random_measure(rng, n)
    dxy = w1_discrete(mu, nu).cost
    dyx = w1_discrete(nu, mu).cost
    assert abs(dxy - dyx) < 1e-10
    dxz = w1_discrete(mu, rho).cost
    dzy = w1_discrete(rho, nu).cost
    assert dxy <= dxz + dzy + 1e-9
    assert w1_discrete(mu, mu.merged()).cost < 1e-12


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def test_dual_zero_witness():
    rng = np.random.default_rng(8)
    mu, nu = random_measure(rng, 3), random_measure(rng, 4)
    assert w1_dual_lower_bound(mu, nu, lambda p: np.zeros(len(p))) == 0.0


def test_dual_tight_witness_two_diracs():
    mu = DiscreteMeasure(1, np.array([[0.0]]), np.array([1.0]))
    nu = DiscreteMeasure(1, np.array([[0.5]]), np.array([1.0]))
    val = w1_dual_lower_bound(mu, nu, lambda p: -np.minimum(p[:, 0], 1.0))
    assert val == pytest.approx(0.5)
    assert val == pytest.approx(w1_discrete(mu, nu).cost)


def test_dual_is_lower_bound():
    rng = np.random.default_rng(9)
    for _ in range(25):
        mu, nu = random_measure(rng, 4), random_measure(rng, 5)
        a = rng.uniform(-1, 1)
        witness = lambda p, a=a: a * np.clip(p[:, 0], -1.0, 1.0) / 2.0
        val = w1_dual_lower_bound(mu, nu, witness)
        assert val <= w1_discrete(mu, nu).cost + 1e-9


def test_dual_rejects_steep_witness():
    rng = np.random.default_rng(10)
    mu, nu = random_measure(rng, 3), random_measure(rng, 3)
    with pytest.raises(DimensionError):
        w1_dual_lower_bound(mu, nu, lambda p: 5.0 * p[:, 0])


# ---------------------------------------------------------------------------
# tensorization
# ---------------------------------------------------------------------------

def test_tensorization_equal_measures():
    rng = np.random.default_rng(11)
    f = random_measure(rng, 3)
    lhs, rhs = tensorization_check(f, f, 3)
    assert lhs == pytest.approx(0.0, abs=1e-10)
    assert rhs == pytest.approx(0.0, abs=1e-12)


def test_tensorization_diracs():
    f = DiscreteMeasure(1, np.array([[0.0]]), np.array([1.0]))
    g = DiscreteMeasure(1, np.array([[0.3]]), np.array([1.0]))
    lhs, rhs = tensorization_check(f, g, 3)
    assert lhs == pytest.approx(0.3) and rhs == pytest.approx(0.3)


def test_tensorization_random_pairs():
    rng = np.random.default_rng(12)
    for _ in range(5):
        f = random_measure(rng, 3)
        g = random_measure(rng, 3)
        lhs, rhs = tensorization_check(f, g, 2)
        assert abs(lhs - rhs) <= 1e-9
        lhs, rhs = pair_tensorization_check(f, g, random_measure(rng, 2))
        assert abs(lhs - rhs) <= 1e-9


def test_product_measure_budget():
    rng = np.random.default_rng(13)
    f = random_measure(rng, 10)
    from kaclab.core import SizeError
    with pytest.raises(SizeError):
        product_measure(*([f] * 8))


# ---------------------------------------------------------------------------
# marginal contraction on symmetric finite-alphabet laws
# ---------------------------------------------------------------------------

def _pmf_marginal_measure(pmf, j, symbols):
    marg = pmf.copy()
    for _ in range(pmf.ndim - j):
        marg = marg.sum(axis=-1)
    pts = np.stack(np.meshgrid(*([symbols] * j), indexing="ij"),
                   axis=-1).reshape(-1, j)
    return DiscreteMeasure(j, pts, marg.ravel() / marg.sum())


@pytest.mark.parametrize("N,j", [(4, 2), (6, 3), (5, 2)])
def test_marginal_contraction(N, j):
    rng = np.random.default_rng(100 + N + j)
    symbols = np.array([0.0, 1.0])
    F = symmetric_pmf(2, N, rng)
    G = symmetric_pmf(2, N, rng)
    configs = enumerate_configs(2, N).astype(float)
    costs = np.minimum(np.abs(configs[:, None, :] - configs[None, :, :]),
                       1.0).mean(axis=2)
    full = _transport_lp(costs, F.ravel(), G.ravel()).cost
    marg = w1_discrete(_pmf_marginal_measure(F, j, symbols),
                       _pmf_marginal_measure(G, j, symbols)).cost
    assert marg <= 2.0 * full + 1e-9


# ---------------------------------------------------------------------------
# W1 <= W2 and moment interpolation
# ---------------------------------------------------------------------------

def test_w1_le_w2_and_interpolation():
    rng = np.random.default_rng(14)
    k = 4.0
    for _ in range(60):
        mu = random_measure(rng, int(rng.integers(2, 6)), spread=3.0)
        nu = random_measure(rng, int(rng.integers(2, 6)), spread=3.0)
        w1 = w1_discrete(mu, nu, BOUNDED_L1).cost
        w2 = math.sqrt(w1_discrete(mu, nu, NORMALIZED_L2_SQ).cost)
        assert w1 <= w2 + 1e-10
        mk = mu.moment(k) + nu.moment(k)
        assert w2 <= 2 ** 1.5 * mk ** (1 / k) * w1 ** (0.5 - 1 / k) + 1e-10
