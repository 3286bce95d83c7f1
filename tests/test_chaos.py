import math
import tracemalloc

import numpy as np
import pytest

from kaclab.core import (Configuration, DimensionError, DiscreteMeasure,
                         HypothesisError, SizeError, gaussian_density,
                         gaussian_mixture, uniform_density)
from kaclab.chaos import (ChaosEstimate, enumerate_configs, grunbaum_exact,
                          omega1_counterexample,
                          omega_inf, omega_j, omega_j_sigma_quadrature,
                          omega_n, pushforward_identity_exact, sigma_sampler,
                          symmetric_pmf)
from kaclab import chaos, transport
from kaclab.chaos import (_clip_mean, _empirical_moment, _hamming_arcs,
                          _occupation_classes)
from kaclab.transport import (_PLAN_TOL, TRUNCATION, _graph_w1,
                              _transport_lps, cost_matrix, w1_config,
                              w1_discrete_batch, w1_line)


def test_estimate_value_range_enforced():
    with pytest.raises(DimensionError):
        ChaosEstimate("omega_1", 4, 10, 1.5, 0.0, 10)
    with pytest.raises(DimensionError):
        ChaosEstimate("omega_1", 4, 10, 0.5, -1.0, 10)


# ---------------------------------------------------------------------------
# Monte Carlo quantifiers
# ---------------------------------------------------------------------------

def test_omega_n_same_law_same_stream_is_zero(gauss, rng):
    est = omega_n(lambda N, r: gauss.sampler(r, N), gauss, 32, 10, rng)
    assert est.value == 0.0
    assert est.upper_bound


def test_omega_n_sigma_decays(gauss, rng):
    vals = [omega_n(sigma_sampler(), gauss, n, 80, rng).value
            for n in (16, 64, 256)]
    slope = np.polyfit(np.log([16, 64, 256]), np.log(vals), 1)[0]
    assert slope <= -0.35


def test_omega_n_independent_draws_scale(gauss, rng):
    # independent tensor-power draws: nonzero, within a factor 3 of twice
    # the empirical-measure quantifier
    def fresh(n, r):
        return gauss.sampler(np.random.default_rng(r.integers(2 ** 62)), n)

    est = omega_n(fresh, gauss, 64, 60, rng)
    oinf = omega_inf(lambda N, r: gauss.sampler(r, N), gauss, 64, 60,
                     rng=rng)
    assert est.value > 0.0
    assert est.value <= 3.0 * 2.0 * oinf.value
    assert est.value >= 2.0 * oinf.value / 3.0


def _w1(x, y):
    return w1_config(Configuration(1, len(x), x), Configuration(1, len(y), y))[0]


def test_omega_inf_matches_per_replica_assignment(gauss):
    N, reps = 24, 12
    est = omega_inf(sigma_sampler(), gauss, N, reps,
                    rng=np.random.default_rng(5))
    ref = gauss.sampler(np.random.default_rng(990011), 4 * N)
    rng = np.random.default_rng(5)
    vals = [_w1(np.repeat(sigma_sampler()(N, rng), 4), ref)
            for _ in range(reps)]
    assert est.value == pytest.approx(np.mean(vals), abs=1e-12)
    assert est.stderr == pytest.approx(
        np.std(vals, ddof=1) / math.sqrt(reps), abs=1e-12)


def test_omega_n_matches_per_replica_assignment(gauss):
    N, reps = 40, 15
    est = omega_n(sigma_sampler(), gauss, N, reps, np.random.default_rng(6))
    rng = np.random.default_rng(6)
    vals = []
    for _ in range(reps):
        seed = int(rng.integers(0, 2 ** 62))
        vals.append(_w1(sigma_sampler()(N, np.random.default_rng(seed)),
                        gauss.sampler(np.random.default_rng(seed), N)))
    assert est.value == pytest.approx(np.mean(vals), abs=1e-12)
    assert est.stderr == pytest.approx(
        np.std(vals, ddof=1) / math.sqrt(reps), abs=1e-12)


def test_monte_carlo_quantifiers_need_two_replicas(gauss, rng):
    for reps in (0, 1):
        with pytest.raises(SizeError):
            omega_inf(lambda N, r: gauss.sampler(r, N), gauss, 8, reps,
                      rng=rng)
        with pytest.raises(SizeError):
            omega_n(lambda N, r: gauss.sampler(r, N), gauss, 8, reps, rng)
        with pytest.raises(SizeError):
            omega_j(lambda N, r: gauss.sampler(r, N), gauss, 1, 8, reps,
                    rng=rng)


def test_monte_carlo_quantifiers_need_an_int_replica_count(gauss, rng):
    sampler = lambda N, r: gauss.sampler(r, N)
    for reps in (3.5, 4.0, True):
        with pytest.raises(DimensionError, match="must be an int"):
            omega_inf(sampler, gauss, 8, reps, rng=rng)
        with pytest.raises(DimensionError, match="must be an int"):
            omega_n(sampler, gauss, 8, reps, rng)
        with pytest.raises(DimensionError, match="must be an int"):
            omega_j(sampler, gauss, 1, 8, reps, rng=rng)


def _gauss_rows(N, r):
    return gaussian_density().sampler(r, N)


@pytest.mark.parametrize("call", [
    lambda rng: omega_inf(_gauss_rows, gaussian_density(), 8.5, 4, rng=rng),
    lambda rng: omega_n(_gauss_rows, gaussian_density(), 8.5, 4, rng),
    lambda rng: omega_j(_gauss_rows, gaussian_density(), 2, 8.5, 4, rng=rng),
], ids=["omega_inf", "omega_n", "omega_j"])
def test_monte_carlo_quantifiers_need_an_int_N(rng, call):
    with pytest.raises(DimensionError, match="need an int N >= 1, got 8.5"):
        call(rng)


def test_omega_inf_reports_reference_budget(gauss, rng):
    est = omega_inf(lambda N, r: gauss.sampler(r, N), gauss, 16, 20, rng=rng)
    assert est.reference_size == 64
    assert est.meta["reference_bias_scale"] == pytest.approx(0.125)
    assert 0.0 <= est.value <= 1.0


def test_omega_inf_iid_rate(gauss, rng):
    ns = [16, 32, 64, 128, 256]
    vals = [omega_inf(lambda N, r: gauss.sampler(r, N), gauss, n, 40,
                      rng=rng).value for n in ns]
    slope = np.polyfit(np.log(ns), np.log(vals), 1)[0]
    assert -0.6 < slope < -0.35


def test_omega_inf_sigma_log_normalized_bounded(gauss, rng):
    for n in (16, 128, 512):
        est = omega_inf(sigma_sampler(), gauss, n, 32, rng=rng)
        assert est.value * math.sqrt(n) / math.sqrt(math.log(n)) < 0.7


def test_omega_inf_deterministic_quantile_sampler(gauss, rng):
    from scipy.special import erfinv

    def quantiles(n, r):
        u = (np.arange(n) + 0.5) / n
        return math.sqrt(2.0) * erfinv(2 * u - 1)

    est = omega_inf(quantiles, gauss, 64, 8, rng=rng)
    assert est.stderr == 0.0
    assert est.value < 0.1


def test_omega_j_pooled_and_quadrature(gauss, rng):
    est = omega_j(sigma_sampler(), gauss, 2, 64, 256, rng=rng)
    assert est.method == "pooled_blocks"
    quad = omega_j_sigma_quadrature(64, 2)
    assert quad.method == "sigma_quadrature"
    # the exact upper bound sits below the pooled estimate's floor here
    assert quad.value <= est.value
    with pytest.raises(DimensionError):
        omega_j(sigma_sampler(), gauss, 5, 4, 16, rng=rng)


@pytest.mark.parametrize("j", [0, -1, 1.5, 9])
def test_omega_j_needs_an_integer_block_size_up_to_N(gauss, rng, j):
    with pytest.raises(DimensionError, match="1 <= j <= N = 8"):
        omega_j(lambda N, r: gauss.sampler(r, N), gauss, j, 8, 16, rng=rng)


def test_omega_1_is_exact_on_its_pool(gauss, w1_line_batch):
    N, reps = 32, 300
    est = omega_j(sigma_sampler(), gauss, 1, N, reps,
                  rng=np.random.default_rng(22))
    assert not est.upper_bound
    rng = np.random.default_rng(22)
    pool = [sigma_sampler()(N, rng)[0] for _ in range(reps)]
    ref = gauss.sampler(np.random.default_rng(990022), (reps, 1))[:, 0]
    assert est.value == pytest.approx(
        w1_line_batch(np.array([pool]), ref[None])[0], abs=1e-12)


def test_omega_2_quadrature_rate():
    ns = [16, 32, 64, 128, 256]
    vals = [omega_j_sigma_quadrature(n, 2).value for n in ns]
    for n, v in zip(ns, vals):
        assert v <= 5.0 / (n - 5) + 1e-9
    slope = np.polyfit(np.log(ns), np.log(vals), 1)[0]
    assert slope < -0.8


# ---------------------------------------------------------------------------
# equivalence probes
# ---------------------------------------------------------------------------

def test_probe_monotone_chain(gauss, rng):
    N = 64
    ests = {j: omega_j(sigma_sampler(), gauss, j, N, 640, rng=rng)
            for j in (1, 2, 3)}
    for j in (1, 2):
        for ell in range(j + 1, 4):
            slack = 3.0 * (ests[j].stderr + ests[ell].stderr)
            assert ests[j].value <= 2.0 * ests[ell].value + slack


def test_probe_marginal_vs_empirical(gauss, rng):
    # the pooled-block estimator carries a same-law floor that the stated
    # inequality between the true quantifiers does not see; the measured
    # floor joins the right-hand side through the triangle inequality
    for N in (64, 256):
        oinf = omega_inf(sigma_sampler(), gauss, N, 48, rng=rng)
        for j in (2, 3):
            oj = omega_j(sigma_sampler(), gauss, j, N, 512, rng=rng)
            floor = omega_j(lambda N, r: gauss.sampler(r, N), gauss, j, N,
                            512, rng=rng)
            slack = 3.0 * (oj.stderr + oinf.stderr + floor.stderr)
            assert oj.value <= oinf.value + j * j / N + floor.value + slack


def test_probe_affine_dominance(gauss, rng):
    ns = [16, 32, 64, 128, 256, 512]
    xs, ys = [], []
    for n in ns:
        xs.append(math.log(omega_j_sigma_quadrature(n, 2).value + 1.0 / n))
        ys.append(math.log(
            omega_inf(sigma_sampler(), gauss, n, 40, rng=rng).value))
    slope = np.polyfit(xs, ys, 1)[0]
    assert slope >= 0.4


# ---------------------------------------------------------------------------
# exact finite-alphabet oracles
# ---------------------------------------------------------------------------

def test_enumerate_configs_budget():
    assert enumerate_configs(2, 3).shape == (8, 3)
    with pytest.raises(SizeError):
        enumerate_configs(10, 10)


@pytest.mark.parametrize("S, N", [(2, 2.5), (2.0, 3), (2, 3.0), (0, 3)])
def test_alphabet_sizes_must_be_positive_ints(rng, S, N):
    symmetric_pmf(2, 3, rng)     # a cached (2, 3) must not serve (2, 3.0)
    for call in (lambda: enumerate_configs(S, N),
                 lambda: symmetric_pmf(S, N, rng)):
        with pytest.raises(DimensionError, match="need an int"):
            call()


def test_symmetric_pmf_is_symmetric(rng):
    pmf = symmetric_pmf(3, 4, rng)
    assert pmf.sum() == pytest.approx(1.0)
    for a, b in ((0, 1), (1, 3)):
        np.testing.assert_allclose(pmf, np.swapaxes(pmf, a, b))


def test_grunbaum_first_marginal_exact(rng):
    for _ in range(5):
        pmf = symmetric_pmf(2, int(rng.integers(4, 9)), rng)
        [(tv, _, w1, _)] = grunbaum_exact([(pmf, (1,))])
        assert tv <= 1e-12
        assert w1 <= 1e-9


def test_grunbaum_bound_random_pmfs(rng):
    for _ in range(25):
        S = int(rng.integers(2, 4))
        N = int(rng.integers(4, 9))
        pmf = symmetric_pmf(S, N, rng)
        j = 2 if N < 6 else int(rng.integers(2, 4))
        [(tv, bound, w1, w1_bound)] = grunbaum_exact([(pmf, (j,))])
        assert tv <= bound + 1e-12
        assert w1 <= w1_bound + 1e-9


def test_grunbaum_product_measure(rng):
    p = np.array([0.3, 0.7])
    N = 6
    pmf = np.ones((2,) * N)
    for axis in range(N):
        shape = [1] * N
        shape[axis] = 2
        pmf = pmf * p.reshape(shape)
    [(tv, bound, _, _)] = grunbaum_exact([(pmf, (2,))])
    assert 0.0 < tv <= bound


def test_grunbaum_rejects_asymmetric():
    pmf = np.zeros((2, 2, 2))
    pmf[1, 0, 0] = 1.0
    with pytest.raises(DimensionError):
        grunbaum_exact([(pmf, (2,))])


def test_non_cubic_pmfs_are_refused():
    # this ended in numpy's broadcast error
    pmf = np.full((2, 3), 1 / 6)
    with pytest.raises(DimensionError, match="not a cube"):
        grunbaum_exact([(pmf, (1,))])
    with pytest.raises(DimensionError, match="not a cube"):
        pushforward_identity_exact(pmf, pmf)


def test_negative_masses_are_refused():
    # grunbaum_exact clipped the -0.1 and returned zeros at j = 1
    pmf = np.array([[-0.1, 0.3], [0.3, 0.5]])
    with pytest.raises(DimensionError, match="nonnegative"):
        grunbaum_exact([(pmf, (1,))])
    with pytest.raises(DimensionError, match="nonnegative"):
        pushforward_identity_exact(pmf, np.full((2, 2), 0.25))


def test_nested_lists_are_read_as_pmfs():
    # these ended in AttributeError on list.ndim
    pmf = [[0.5, 0.0], [0.0, 0.5]]
    assert (grunbaum_exact([(pmf, (1,))])
            == grunbaum_exact([(np.array(pmf), (1,))]))
    assert pushforward_identity_exact(pmf, pmf) == (0.0, 0.0)


def test_pmfs_of_mass_two_are_refused():
    # this returned tv = 1.0
    with pytest.raises(DimensionError, match="sum to"):
        grunbaum_exact([(np.full((2, 2), 0.5), (2,))])


@pytest.mark.parametrize("N", [2, 3, 5, 6])
def test_point_masses_off_the_diagonal_are_asymmetric(N):
    # all mass on one configuration with a single 1: at N = 5 with the
    # 1 in place 2, four random transpositions drawn from default_rng(0)
    # all missed the asymmetry; the generators of S_N move every place
    for k in range(N):
        pmf = np.zeros((2,) * N)
        pmf[tuple(int(i == k) for i in range(N))] = 1.0
        with pytest.raises(DimensionError):
            grunbaum_exact([(pmf, (1,))])
        with pytest.raises(DimensionError):
            grunbaum_exact([(pmf, (2,))])
        with pytest.raises(DimensionError):
            pushforward_identity_exact(pmf, pmf)
    pmf = np.zeros((2,) * N)
    pmf[(0,) * N] = 1.0
    assert grunbaum_exact([(pmf, (2,))])[0][0] == 0.0


@pytest.mark.parametrize("S,N", [(2, 4), (3, 5), (2, 7)])
def test_relative_asymmetry_of_1e_8_is_rejected(S, N, rng):
    # np.allclose's default rtol = 1e-5 let this through: bend by 1e-8 the
    # largest mass on a configuration whose first two symbols differ
    pmf = symmetric_pmf(S, N, rng)
    configs = enumerate_configs(S, N)
    flat = pmf.ravel().copy()
    flat[np.argmax(np.where(configs[:, 0] != configs[:, 1], flat, 0.0))] \
        *= 1.0 + 1e-8
    bent = flat.reshape(pmf.shape)
    with pytest.raises(DimensionError):
        grunbaum_exact([(bent, (2,))])
    with pytest.raises(DimensionError):
        pushforward_identity_exact(bent, pmf)
    grunbaum_exact([(pmf, (2,))])


def test_grunbaum_rejects_bad_block_size(rng):
    pmf = symmetric_pmf(2, 4, rng)
    for j in (0, 5, 2.0):
        with pytest.raises(DimensionError):
            grunbaum_exact([(pmf, (j,))])


def _dense_empirical_moment(pmf, j):
    """The j-th moment of the empirical measure summed over all S^N
    configurations: the oracle for the occupation-class sum."""
    S, N = pmf.shape[0], pmf.ndim
    configs = enumerate_configs(S, N)
    q = np.stack([(configs == s).sum(axis=1) for s in range(S)],
                 axis=1) / float(N)
    p = pmf.ravel()
    if j == 1:
        return p @ q
    if j == 2:
        return np.einsum("x,xs,xt->st", p, q, q)
    return np.einsum("x,xs,xt,xu->stu", p, q, q, q)


@pytest.mark.parametrize("S", [2, 3])
def test_class_moments_match_dense_einsum(S, rng):
    for N in range(4, 11):
        pmf = symmetric_pmf(S, N, rng)
        for j in (1, 2, 3):
            np.testing.assert_allclose(_empirical_moment(pmf, j),
                                       _dense_empirical_moment(pmf, j),
                                       rtol=0, atol=1e-13)


@pytest.mark.parametrize("S", [2, 3])
def test_class_keys_match_the_row_unique(S):
    # the base-(N + 1) keys against np.unique's sort of the count rows
    for N in range(4, 11):
        configs = enumerate_configs(S, N)
        occ = np.stack([(configs == s).sum(axis=1) for s in range(S)],
                       axis=1)
        want_counts, want_inverse = np.unique(occ, axis=0,
                                              return_inverse=True)
        counts, inverse = _occupation_classes(S, N)
        for got, want in ((counts, want_counts),
                          (inverse, want_inverse.ravel())):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def test_grunbaum_batch_matches_one_at_a_time(rng):
    cases = []
    for _ in range(12):
        S, N = int(rng.integers(2, 4)), int(rng.integers(4, 9))
        cases.append((symmetric_pmf(S, N, rng), (1, 2, 3)))
    batched = grunbaum_exact(cases)
    singles = [(pmf, (j,)) for pmf, js in cases for j in js]
    assert len(batched) == len(singles)
    for case, got in zip(singles, batched):
        [one] = grunbaum_exact([case])
        assert got[:2] == one[:2] and got[3] == one[3]
        assert got[2] == pytest.approx(one[2], abs=1e-12)


def test_grunbaum_checks_each_pmf_once(monkeypatch, rng):
    # a pmf with several block sizes is validated once, and its results
    # are those of its (pmf, j) cases one by one, in order
    cases = [(symmetric_pmf(S, N, rng), js)
             for S, N, js in ((2, 6, (1, 2, 3)), (3, 5, (2,)), (3, 4, (1, 2)),
                              (2, 5, ()))]
    singles = [grunbaum_exact([(pmf, (j,))]) for pmf, js in cases
               for j in js]
    seen = []
    real = chaos.check_symmetric_pmf

    def spy(pmf):
        seen.append(pmf)
        return real(pmf)

    monkeypatch.setattr(chaos, "check_symmetric_pmf", spy)
    got = grunbaum_exact(cases)
    assert len(seen) == len(cases)
    assert all(x is pmf for x, (pmf, _) in zip(seen, cases))
    assert len(got) == len(singles)
    for row, [one] in zip(got, singles):
        assert row[:2] == one[:2] and row[3] == one[3]
        assert row[2] == pytest.approx(one[2], abs=1e-12)


def _grunbaum_full_space_w1(cases):
    """The transport distances of ``grunbaum_exact`` on the full space
    {0..S-1}^j: both laws as ``DiscreteMeasure`` pairs through
    ``w1_discrete_batch``, the oracle for the occupation-class LP."""
    pairs = []
    for pmf, j in cases:
        S, N = pmf.shape[0], pmf.ndim
        marg = pmf.copy()
        for _ in range(N - j):
            marg = marg.sum(axis=-1)
        hat = _empirical_moment(pmf, j)
        symbols = np.arange(S, dtype=float)
        pts = np.stack(np.meshgrid(*([symbols] * j), indexing="ij"),
                       axis=-1).reshape(-1, j)
        pairs.append(tuple(DiscreteMeasure(j, pts, np.maximum(m.ravel(), 0.0)
                                           / m.sum()) for m in (marg, hat)))
    return w1_discrete_batch(pairs)


def test_grunbaum_quotient_matches_the_full_space_route(rng):
    cases = []
    for _ in range(48):
        S, N = int(rng.integers(2, 4)), int(rng.integers(4, 10))
        j = int(rng.integers(2, min(N, 4) + 1))
        cases.append((symmetric_pmf(S, N, rng), j))
    got = [w1 for _, _, w1, _ in grunbaum_exact(
        [(pmf, (j,)) for pmf, j in cases])]
    want = _grunbaum_full_space_w1(cases)
    assert len({(pmf.shape[0], pmf.ndim, j) for pmf, j in cases}) >= 20
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def _dense_full_space_w1(S, N, p, q):
    """The transport distance between masses p and q on {0..S-1}^N, flat in
    ``enumerate_configs`` order, as the dense transportation LP over all
    S^2N pairs: the oracle for the Hamming-graph flow."""
    configs = enumerate_configs(S, N)
    mu = DiscreteMeasure(N, configs, p)
    nu = DiscreteMeasure(N, configs, q)
    return _transport_lps([(cost_matrix(mu, nu), mu.weights, nu.weights)])[0]


def _product_law(rng, S, N):
    """A product law on {0..S-1}^N whose factors differ by coordinate."""
    law = np.ones(1)
    for _ in range(N):
        law = np.multiply.outer(law, rng.dirichlet(np.ones(S))).ravel()
    return law


def test_hamming_arcs_are_the_one_coordinate_moves():
    # every ordered pair of configurations at Hamming distance 1, once, of
    # length min(|a - b|, TRUNCATION) / N in the coordinate that moves
    for S, N in ((2, 3), (3, 2), (3, 3), (4, 2)):
        configs = enumerate_configs(S, N)
        tails, heads, lengths = _hamming_arcs(configs, S)
        assert len(lengths) == S ** N * N * (S - 1)
        moves = configs[tails] != configs[heads]
        assert np.all(moves.sum(axis=1) == 1)
        a, b = configs[tails][moves], configs[heads][moves]
        np.testing.assert_array_equal(
            lengths, np.minimum(np.abs(a - b), TRUNCATION) / N)
        assert len(set(zip(tails.tolist(), heads.tolist()))) == len(tails)


def test_hamming_flow_matches_the_dense_lp(rng):
    # symmetric, non-symmetric and product laws; each of the S^N
    # divergences of the flow and the 2 S^N marginals of the dense plan is
    # checked to _PLAN_TOL, and misplaced mass costs at most TRUNCATION <= 1
    # per unit to move, so the two optima differ by at most this bound
    for S, N in ((2, 5), (3, 3), (3, 4), (4, 3), (2, 7)):
        n = S ** N
        tol = 3 * n * _PLAN_TOL
        arcs = _hamming_arcs(enumerate_configs(S, N), S)
        laws = [(symmetric_pmf(S, N, rng).ravel(),
                 symmetric_pmf(S, N, rng).ravel()),
                (rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))),
                (_product_law(rng, S, N), _product_law(rng, S, N))]
        for p, q in laws:
            assert _graph_w1(*arcs, p, q) == pytest.approx(
                _dense_full_space_w1(S, N, p, q), abs=tol)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_hamming_flow_truncates_the_symbol_distance(N):
    # symbols 0 and 2 are 2 apart on the line but cost TRUNCATION, as one
    # step 0 -> 2 and as two steps 0 -> 1 -> 2
    configs = enumerate_configs(3, N)
    p, q = np.zeros(3 ** N), np.zeros(3 ** N)
    p[0] = q[-1] = 1.0      # all zeros against all twos
    w1 = _graph_w1(*_hamming_arcs(configs, 3), p, q)
    assert w1 == pytest.approx(TRUNCATION, abs=3 ** N * _PLAN_TOL)
    assert _dense_full_space_w1(3, N, p, q) == pytest.approx(
        TRUNCATION, abs=3 ** N * _PLAN_TOL)


def test_pushforward_full_space_lp_has_one_column_per_arc(rng, monkeypatch):
    sizes = []
    real = transport.linprog

    def spy(c, **kwargs):
        sizes.append((len(c), kwargs["A_eq"].shape))
        return real(c, **kwargs)

    monkeypatch.setattr(transport, "linprog", spy)
    pushforward_identity_exact(symmetric_pmf(3, 5, rng),
                               symmetric_pmf(3, 5, rng))
    # the flow on 243 nodes and 2 430 arcs, then the 21 x 21 class LP
    assert sizes == [(2430, (242, 2430)), (441, (41, 441))]


def test_pushforward_one_symbol_is_zero():
    pmf = np.ones((1,) * 3)
    assert pushforward_identity_exact(pmf, pmf) == (0.0, 0.0)


def test_pushforward_equal_laws(rng):
    F = symmetric_pmf(2, 5, rng)
    lhs, rhs = pushforward_identity_exact(F, F)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(0.0, abs=1e-12)


def test_pushforward_refuses_a_large_alphabet_before_any_cost(rng):
    # 2^11 configurations exceed the budget isqrt(1.2M) = 1095; the
    # refusal comes before any configuration, arc or cost is built
    F = symmetric_pmf(2, 11, rng)
    tracemalloc.start()
    try:
        with pytest.raises(SizeError, match="2048 configurations"):
            pushforward_identity_exact(F, F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_pushforward_random_pairs(rng):
    for S, N in ((2, 5), (3, 4), (2, 7)):
        F = symmetric_pmf(S, N, rng)
        G = symmetric_pmf(S, N, rng)
        lhs, rhs = pushforward_identity_exact(F, G)
        assert abs(lhs - rhs) <= 1e-9


@pytest.mark.parametrize("S, N", [(2, 5), (3, 4), (2, 7), (3, 5), (2, 6)])
def test_pushforward_quotient_cost_matches_w1_line(S, N, rng, monkeypatch):
    # the closed-form class cost against one exact w1_line solve per pair
    # of class representatives; the full-space flow is not a
    # transportation LP
    costs = []
    solve = chaos._transport_lps

    def spy(problems):
        costs.extend(c for c, _, _ in problems)
        return solve(problems)

    monkeypatch.setattr(chaos, "_transport_lps", spy)
    F, G = symmetric_pmf(S, N, rng), symmetric_pmf(S, N, rng)
    lhs, rhs = pushforward_identity_exact(F, G)
    counts, _ = _occupation_classes(S, N)
    reps = [np.repeat(np.arange(S, dtype=float), c) for c in counts]
    ones = np.ones(N)
    oracle = np.array([[w1_line(a, ones, b, ones) for b in reps]
                       for a in reps])
    assert np.max(np.abs(costs[0] - oracle)) <= 1e-15
    assert abs(lhs - rhs) <= 1e-9


def test_pushforward_tensor_powers_give_base_distance(rng):
    p, q = np.array([0.2, 0.8]), np.array([0.5, 0.5])
    N = 4
    F = np.ones((2,) * N)
    G = np.ones((2,) * N)
    for axis in range(N):
        shape = [1] * N
        shape[axis] = 2
        F = F * p.reshape(shape)
        G = G * q.reshape(shape)
    lhs, rhs = pushforward_identity_exact(F, G)
    base = 0.3   # total mass moved between the point masses at 0 and 1
    assert lhs == pytest.approx(base, abs=1e-9)
    assert rhs == pytest.approx(base, abs=1e-9)


# ---------------------------------------------------------------------------
# first-marginal counterexample
# ---------------------------------------------------------------------------

def test_counterexample_identical_components_vanish(gauss):
    rep = omega1_counterexample(gauss, gaussian_density(0.0, 1.0), [32])
    assert rep["estimates"] == {32: (0.0, 0.0)}
    assert rep["reference_gap"] <= 1e-15


def test_counterexample_separated_components(gauss):
    h = gaussian_density(2.0)
    rep = omega1_counterexample(gauss, h, [32, 256])
    # t = clip(2 (x - 1), -1, 1) is odd about the midpoint 1, so a_g = -a_h
    assert _clip_mean(h, 1.0) == pytest.approx(0.663020, abs=1e-6)
    assert _clip_mean(gauss, 1.0) == pytest.approx(-_clip_mean(h, 1.0),
                                                   abs=1e-15)
    bound = rep["estimates"][32][1]
    assert bound == pytest.approx(0.109899036812, abs=1e-12)
    assert rep["estimates"] == {32: (0.0, bound), 256: (0.0, bound)}
    assert rep["reference_gap"] <= 1e-15


def test_clip_mean_matches_quadrature():
    f = gaussian_mixture((0.3, 0.7), (-0.4, 1.9), 0.6, "two")
    xs = np.linspace(-12.0, 14.0, 200001)
    for c in (-1.0, 0.75, 3.0):
        t = np.clip(2.0 * (xs - c), -1.0, 1.0)
        assert _clip_mean(f, c) == pytest.approx(
            np.trapezoid(t * f.pdf(xs), xs), abs=1e-9)


def test_counterexample_test_function_is_one_lipschitz(rng):
    # |phi(x) - phi(y)| <= the omega_2 cost for phi = t(x1) t(x2) / 4,
    # t = clip(2 (x - c), -1, 1): the Kantorovich-Rubinstein certificate
    c = 1.0

    def phi(p):
        t = np.clip(2.0 * (p - c), -1.0, 1.0)
        return t[:, 0] * t[:, 1] / 4.0
    x = rng.normal(c, 1.0, size=(400, 2))
    y = np.concatenate([rng.normal(c, 1.0, size=(200, 2)),
                        x[:200] + rng.normal(0.0, 0.05, size=(200, 2))])
    w = np.full(400, 1.0 / 400)
    cost = cost_matrix(DiscreteMeasure(2, x, w), DiscreteMeasure(2, y, w))
    assert np.all(np.abs(phi(x)[:, None] - phi(y)[None, :]) <= cost + 1e-15)


@pytest.mark.parametrize("N", [32, 256])
def test_counterexample_bound_below_monte_carlo(gauss, N):
    # the pooled-block estimate of omega_2 for the half-half mixture of
    # tensor powers sits at or above the certified lower bound
    h = gaussian_density(2.0)
    rep = omega1_counterexample(gauss, h, [N])
    ref = gaussian_mixture((0.5, 0.5), (0.0, 2.0), 1.0, "half-half")

    def mixture_of_powers(n, r):
        return (gauss, h)[r.integers(2)].sampler(r, n)
    est = omega_j(mixture_of_powers, ref, 2, N, 1024,
                  rng=np.random.default_rng(N))
    assert est.value >= rep["estimates"][N][1] - 3.0 * est.stderr


def test_counterexample_needs_gaussian_mixtures_of_one_variance(gauss):
    for g, h in ((uniform_density(), gauss), (gauss, uniform_density()),
                 (gauss, gaussian_density(2.0, 4.0))):
        with pytest.raises(HypothesisError, match="one variance"):
            omega1_counterexample(g, h, [32])


@pytest.mark.parametrize("N", [1, 2.0])
def test_counterexample_needs_two_coordinates(gauss, N):
    with pytest.raises(DimensionError, match="N >= 2"):
        omega1_counterexample(gauss, gaussian_density(2.0), [32, N])
