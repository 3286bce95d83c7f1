import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaclab.core import (Configuration, DimensionError, DiscreteMeasure,
                         SizeError)
from kaclab.transport import (TRUNCATION, cost_matrix, product_measure,
                              tensorization_check, w1_config,
                              w1_config_bruteforce, w1_discrete,
                              w1_discrete_batch, w1_line, w2_line)
from kaclab import experiments, transport
from kaclab.chaos import (_hamming_arcs, enumerate_configs, grunbaum_exact,
                          omega_inf, omega_j, omega_n,
                          pushforward_identity_exact, sigma_sampler,
                          symmetric_pmf)
from kaclab.transport import _graph_w1, _min_cost_flows, _transport_lps

from conftest import _merged_loop


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
        aligned = np.mean(np.minimum(np.abs(X.particles - Y.particles),
                                     TRUNCATION))
        assert w1_config(X, Y)[0] <= aligned + 1e-12


def _w1_config_bruteforce_looped(X, Y):
    """One relabeling at a time: the oracle for the one-gather brute force."""
    n = X.n_particles
    costs = transport._ground_cost(X.particles[:, None] - Y.particles[None])
    best = math.inf
    idx = np.arange(n)
    for perm in itertools.permutations(range(n)):
        best = min(best, float(costs[idx, perm].mean()))
    return best


@pytest.mark.parametrize("d", [1, 2])
def test_w1_config_bruteforce_equals_looped_oracle(d):
    rng = np.random.default_rng(30 + d)
    for n in range(2, 8):
        for _ in range(4):
            X = Configuration(d, n, rng.normal(size=n * d))
            Y = Configuration(d, n, rng.normal(size=n * d))
            assert w1_config_bruteforce(X, Y) == \
                _w1_config_bruteforce_looped(X, Y)


def test_w1_config_and_bruteforce_reject_mismatched_configurations():
    pairs = [(Configuration(1, 3, [0.0, 1.0, 2.0]),
              Configuration(1, 4, [0.0, 1.0, 2.0, 3.0])),
             (Configuration(1, 2, [0.0, 1.0]),
              Configuration(2, 2, [0.0, 0.0, 1.0, 1.0]))]
    for X, Y in pairs:
        for a, b in ((X, Y), (Y, X)):
            with pytest.raises(DimensionError, match="share d and N"):
                w1_config(a, b)
            with pytest.raises(DimensionError, match="share d and N"):
                w1_config_bruteforce(a, b)


# ---------------------------------------------------------------------------
# w1_line and its oracles: the assignment, the brute force, the LP, and the
# O(n^2) dynamic program (the conftest fixture w1_line_batch) for large n
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


def line(x, y):
    """w1_line between two equal-size configurations, unit masses."""
    return w1_line(x, np.ones(len(x)), y, np.ones(len(y)))


@pytest.mark.parametrize("seed,case", enumerate(
    ["plain", "ties", "replicated", "single"]))
def test_w1_line_batch_matches_assignment(seed, case, w1_line_batch):
    rng = np.random.default_rng(seed)
    for _ in range(80):
        x, y = _line_instance(rng, case)
        n = len(x)
        oracle, _ = w1_config(Configuration(1, n, x), Configuration(1, n, y))
        assert w1_line_batch(x[None], y[None])[0] == \
            pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("seed,case", enumerate(
    ["plain", "ties", "replicated", "single"]))
def test_w1_line_matches_assignment(seed, case):
    rng = np.random.default_rng(seed)
    for _ in range(80):
        x, y = _line_instance(rng, case)
        n = len(x)
        oracle, _ = w1_config(Configuration(1, n, x), Configuration(1, n, y))
        assert line(x, y) == pytest.approx(oracle, abs=1e-12)
        if case == "replicated":
            # omega_inf's call: the drawn atoms once, each of mass 4
            assert w1_line(x[::4], np.full(n // 4, 4.0), y, np.ones(n)) == \
                pytest.approx(oracle, abs=1e-12)


def test_w1_line_batch_matches_bruteforce(w1_line_batch):
    rng = np.random.default_rng(15)
    for n in range(1, 8):
        for _ in range(6):
            x, y = rng.normal(size=n), rng.normal(size=n)
            brute = w1_config_bruteforce(conf(*x), conf(*y))
            assert w1_line_batch(x[None], y[None])[0] == \
                pytest.approx(brute, abs=1e-12)


def test_w1_line_matches_bruteforce():
    rng = np.random.default_rng(15)
    for n in range(1, 8):
        for _ in range(6):
            x, y = rng.normal(size=n), rng.normal(size=n)
            brute = w1_config_bruteforce(conf(*x), conf(*y))
            assert line(x, y) == pytest.approx(brute, abs=1e-12)


def test_w1_line_matches_lp_on_weighted_pairs():
    # a fifth of the pairs sit on the integers {-2..2}, so atoms tie within
    # and across the two measures; the last pair, 200 against 207 atoms,
    # has hundreds of distinct slopes
    rng = np.random.default_rng(19)
    for k in range(252):
        n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        if k == 251:
            n, m = 200, 207
        if k % 5 == 0:
            p = rng.integers(-2, 3, size=(n, 1)).astype(float)
            q = rng.integers(-2, 3, size=(m, 1)).astype(float)
        else:
            p, q = rng.uniform(-3, 3, (n, 1)), rng.uniform(-3, 3, (m, 1))
        wa, wb = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
        lp = _transport_lps([(cost_matrix(DiscreteMeasure(1, p, wa),
                                          DiscreteMeasure(1, q, wb)),
                              wa, wb)])[0]
        assert w1_line(p[:, 0], wa, q[:, 0], wb) == pytest.approx(lp, abs=1e-12)


@pytest.mark.parametrize("n", [1024, 4096, 1 << 14])
def test_w1_line_matches_dp_at_large_n(n, w1_line_batch):
    rng = np.random.default_rng(n)
    x, y = rng.normal(size=n), 1.2 * rng.normal(size=n)
    ties = np.round(x, 2), np.round(y, 2)
    for a, b in ((x, y), ties):
        assert line(a, b) == pytest.approx(w1_line_batch(a[None], b[None])[0],
                                           abs=1e-12)


def test_w1_line_below_sorted_coupling_at_2_17():
    # a large bimodal instance: two pools of 2^17 draws from the half-half
    # N(0, 1) / N(2, 1) mixture; their monotone coupling is only an upper
    # bound on the truncated-cost distance
    rng = np.random.default_rng(20)
    n = 1 << 17
    x, y = rng.normal(size=(2, n)) + rng.choice([0.0, 2.0], size=(2, n))
    sorted_coupling = float(np.minimum(np.abs(np.sort(x) - np.sort(y)),
                                       TRUNCATION).mean())
    assert 0.0 < line(x, y) <= sorted_coupling


def test_w1_line_batch_far_apart_is_the_truncation(w1_line_batch):
    x = np.array([[0.0, 0.4, 0.9]])
    assert w1_line_batch(x, x + 5.0)[0] == TRUNCATION
    assert w1_line_batch(x, x[:, ::-1])[0] == 0.0


def test_w1_line_far_apart_is_the_truncation():
    x = np.array([0.0, 0.4, 0.9])
    assert line(x, x + 5.0) == TRUNCATION
    assert line(x, x[::-1]) == 0.0
    assert w1_line(x, [1.0, 2.0, 1.0], x - 3.0, [2.0, 1.0, 1.0]) == TRUNCATION


def test_w1_line_batch_rows_are_independent(w1_line_batch):
    rng = np.random.default_rng(16)
    xs, ys = rng.normal(size=(9, 25)), rng.normal(size=(9, 25))
    batched = w1_line_batch(xs, ys)
    single = [w1_line_batch(x[None], y[None])[0] for x, y in zip(xs, ys)]
    np.testing.assert_array_equal(batched, single)


def test_w1_line_rejects_bad_input():
    x, w = np.zeros(3), np.ones(3)
    for xa, wa, xb, wb in ((x, w, x, np.ones(4)), (x, np.ones(2), x, w),
                           (x[None], w[None], x[None], w[None]),
                           (x[:0], w[:0], x[:0], w[:0]), (x, w, x[:0], w[:0]),
                           (np.array([0.0, np.nan, 0.0]), w, x, w),
                           (x, w, np.full(3, np.inf), w),
                           (x, np.array([1.0, np.inf, 1.0]), x, w),
                           (x, np.array([2.0, -1.0, 2.0]), x, w),
                           (x, w, x, 2.0 * w), (x, 0.0 * w, x, 0.0 * w)):
        with pytest.raises(DimensionError):
            w1_line(xa, wa, xb, wb)


# ---------------------------------------------------------------------------
# w1_discrete
# ---------------------------------------------------------------------------

def test_w1_discrete_identity():
    rng = np.random.default_rng(5)
    mu = random_measure(rng, 4)
    assert w1_discrete(mu, mu) == pytest.approx(0.0, abs=1e-12)


def test_w1_discrete_two_diracs():
    for a in (0.4, 2.5):
        mu = DiscreteMeasure(1, np.array([[0.0]]), np.array([1.0]))
        nu = DiscreteMeasure(1, np.array([[a]]), np.array([1.0]))
        assert w1_discrete(mu, nu) == pytest.approx(min(a, 1.0))


def test_w1_discrete_matches_w1_config_on_empirical():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        val = w1_discrete(
            DiscreteMeasure(1, x[:, None], np.full(n, 1.0 / n)),
            DiscreteMeasure(1, y[:, None], np.full(n, 1.0 / n)))
        cost, _ = w1_config(Configuration(1, n, x), Configuration(1, n, y))
        assert val == pytest.approx(cost, abs=1e-9)


def _refuse_broken_answers(monkeypatch, solve, edits):
    """Edit each solver answer after linprog returns it; every edit must
    make `solve` raise a DimensionError matching its text."""
    real = transport.linprog
    for edit, what in edits:
        def broken(c, edit=edit, **kwargs):
            res = real(c, **kwargs)
            edit(res)
            return res

        monkeypatch.setattr(transport, "linprog", broken)
        with pytest.raises(DimensionError, match=what):
            solve()
    monkeypatch.setattr(transport, "linprog", real)


def _plan_and_hamming_blocks(rng):
    """A transportation block between two random measures, as a flow on
    the bipartite graph of sources and targets, and a Hamming-graph block
    on the configurations of 3 particles over 3 letters."""
    mu, nu = (DiscreteMeasure(1, *_merged_loop(m.points, m.weights))
              for m in (random_measure(rng, 5), random_measure(rng, 3)))
    costs = cost_matrix(mu, nu)
    n, m = costs.shape
    assert min(n, m) >= 2
    plan_graph = (np.repeat(np.arange(n), m), np.tile(n + np.arange(m), n),
                  costs.ravel(), np.concatenate([mu.weights, -nu.weights]))
    arcs = _hamming_arcs(enumerate_configs(3, 3), 3)
    p, q = rng.dirichlet(np.ones(27)), rng.dirichlet(np.ones(27))
    return mu, nu, costs, [plan_graph, (*arcs, p - q)], (arcs, p, q)


def test_transport_plan_marginals_validate(monkeypatch):
    # a solver answer for the transportation LP is refused when it has a
    # negative flow (mass moved around a cycle of the plan, every marginal
    # kept), a source out of balance (mass moved down a plan column) or a
    # target out of balance (mass moved along a plan row)
    rng = np.random.default_rng(7)
    mu, nu, costs, _, _ = _plan_and_hamming_blocks(rng)
    n, m = costs.shape
    problem = [(costs, mu.weights, nu.weights)]
    [plan_cost] = _transport_lps(problem)
    assert w1_discrete(mu, nu) == pytest.approx(plan_cost, abs=1e-12)

    def negative(res):
        plan = res.x.reshape(n, m)
        plan[:2, :2] -= (plan[0, 0] + 1e-6) * np.array([[1.0, -1.0],
                                                        [-1.0, 1.0]])

    def source(res):
        plan = res.x.reshape(n, m)
        i = int(np.argmax(plan[:, 0]))
        plan[i, 0] -= 1e-6
        plan[(i + 1) % n, 0] += 1e-6

    def target(res):
        plan = res.x.reshape(n, m)
        j = int(np.argmax(plan[0]))
        plan[0, j] -= 1e-6
        plan[0, (j + 1) % m] += 1e-6

    _refuse_broken_answers(
        monkeypatch, lambda: _transport_lps(problem),
        ((negative, "negative"), (source, "divergence"),
         (target, "divergence")))


def test_block_costs_must_sum_to_the_lp_objective(monkeypatch):
    # one LP holding a transportation block and a Hamming-graph block
    # gives each block's own value; an answer whose objective is off the
    # blocks' summed costs is refused
    rng = np.random.default_rng(7)
    mu, nu, costs, graphs, (arcs, p, q) = _plan_and_hamming_blocks(rng)
    [plan_cost] = _transport_lps([(costs, mu.weights, nu.weights)])
    assert _min_cost_flows(graphs) == pytest.approx(
        [plan_cost, _graph_w1(*arcs, p, q)], abs=1e-12)

    def shifted(res):
        res.fun += 1e-6

    _refuse_broken_answers(monkeypatch, lambda: _min_cost_flows(graphs),
                           ((shifted, "objective"),))


def test_graph_flow_checks_its_solution(monkeypatch):
    # the path 0 - 1 - 2, unit arcs both ways, all mass from 0 to 2; a
    # solver answer with a flow below zero, a node out of balance or an
    # objective off the flow's cost is refused, and so is a node out of
    # balance in the graph block of a two-block LP
    arcs = (np.array([0, 1, 1, 2]), np.array([1, 0, 2, 1]), np.ones(4))
    p, q = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
    assert _graph_w1(*arcs, p, q) == pytest.approx(2.0, abs=1e-9)

    def negative(res):
        res.x[1] = -1e-6

    def unbalanced(res):
        res.x[0] += 1e-6

    def shifted(res):
        res.fun += 1e-6

    _refuse_broken_answers(
        monkeypatch, lambda: _graph_w1(*arcs, p, q),
        ((negative, "negative"), (unbalanced, "divergence"),
         (shifted, "objective")))
    rng = np.random.default_rng(7)
    _, _, costs, graphs, _ = _plan_and_hamming_blocks(rng)

    def node(res):
        res.x[costs.size] += 1e-6

    _refuse_broken_answers(monkeypatch, lambda: _min_cost_flows(graphs),
                           ((node, "divergence"),))


def test_quantile_plan_matches_lp():
    # w2_line's quantile coupling against the LP on the squared-distance
    # matrix; half the pairs sit on a half-integer grid, so atoms tie
    # across the two measures and repeat within one
    rng = np.random.default_rng(17)
    for k in range(240):
        n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        if k % 2:
            p = rng.integers(-3, 4, size=n) * 0.5
            q = rng.integers(-3, 4, size=m) * 0.5
        else:
            p = rng.normal(size=n)
            q = rng.normal(size=m)
        wa, wb = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
        lp = _transport_lps([((p[:, None] - q[None, :]) ** 2, wa, wb)])[0]
        assert w2_line(p, wa, q, wb) ** 2 == pytest.approx(lp, abs=1e-12)


def test_w2_line_hand_values():
    # a shift moves every atom by its length; one atom splits over two
    assert w2_line([0.0, 1.0], [1.0, 1.0], [2.5, 3.5], [1.0, 1.0]) == 2.5
    assert w2_line([0.0], [1.0], [-1.0, 1.0], [0.5, 0.5]) == 1.0
    # repeated and massless atoms change nothing
    assert w2_line([0.0, 0.0, 5.0], [0.25, 0.75, 0.0], [2.0], [1.0]) == 2.0


def test_w2_line_rejects_bad_input():
    x, w = np.zeros(3), np.ones(3)
    for xa, wa, xb, wb in ((x[:0], w[:0], x, w), (x, w, x[:0], w[:0]),
                           (np.array([0.0, np.nan, 0.0]), w, x, w),
                           (x, w, x, np.array([1.0, np.nan, 1.0])),
                           (x, np.array([2.0, -1.0, 2.0]), x, w),
                           (x, w, x, 2.0 * w)):
        with pytest.raises(DimensionError):
            w2_line(xa, wa, xb, wb)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10_000))
def test_w1_discrete_metric_axioms(n, seed):
    rng = np.random.default_rng(seed)
    mu = random_measure(rng, n)
    nu = random_measure(rng, n)
    rho = random_measure(rng, n)
    dxy = w1_discrete(mu, nu)
    dyx = w1_discrete(nu, mu)
    assert abs(dxy - dyx) < 1e-10
    dxz = w1_discrete(mu, rho)
    dzy = w1_discrete(rho, nu)
    assert dxy <= dxz + dzy + 1e-9
    assert w1_discrete(mu, DiscreteMeasure(
        1, *_merged_loop(mu.points, mu.weights))) < 1e-12


def test_line_solves_reach_neither_lp_nor_assignment(monkeypatch, gauss):
    def forbidden(*args, **kwargs):
        raise AssertionError("a 1-D bounded-cost solve called an oracle")

    rng = np.random.default_rng(21)
    # the quotient's costs are line solves; its two outer LPs stay
    monkeypatch.setattr(transport, "linear_sum_assignment", forbidden)
    pushforward_identity_exact(symmetric_pmf(2, 5, rng),
                               symmetric_pmf(2, 5, rng))
    monkeypatch.setattr(transport, "linprog", forbidden)
    for n in (1, 4, 9):
        w1_discrete(random_measure(rng, n), random_measure(rng, n + 2))
        w1_discrete(uniform_atoms(rng, n), uniform_atoms(rng, n))
    grunbaum_exact([(symmetric_pmf(3, 5, rng), (1,))])
    sampler = sigma_sampler()
    omega_inf(sampler, gauss, 16, 4, rng=rng)
    omega_n(sampler, gauss, 16, 4, rng)
    omega_j(sampler, gauss, 1, 16, 64, rng=rng)


def _split_first_atom(m):
    """The law of m with its first atom split into two halves at the same
    point."""
    pts = np.vstack([m.points, m.points[:1]])
    w = np.append(m.weights, m.weights[0] / 2.0)
    w[0] /= 2.0
    return DiscreteMeasure(m.dim, pts, w)


def test_a_split_atom_changes_no_route(monkeypatch):
    # W1 reads the law, not its list of atoms: a split atom, or a repeated
    # atom of a uniform measure, gives the distance of the merged measure
    # on each route, and the route is the one the measures' shapes choose
    rng = np.random.default_rng(34)
    routes = []
    for name in ("w1_line", "linear_sum_assignment", "linprog"):
        real = getattr(transport, name)
        monkeypatch.setattr(transport, name, lambda *a, _f=real, _n=name,
                            **kw: routes.append(_n) or _f(*a, **kw))

    def w1(mu, nu, route):
        routes.clear()
        value = w1_discrete(mu, nu)
        assert routes == [route]
        return value

    for _ in range(5):
        mu, nu = random_measure(rng, 4), random_measure(rng, 3)
        assert w1(_split_first_atom(mu), nu, "w1_line") == pytest.approx(
            w1(mu, nu, "w1_line"), abs=1e-12)
        mu = DiscreteMeasure(2, rng.normal(size=(4, 2)),
                             rng.dirichlet(np.ones(4)))
        nu = DiscreteMeasure(2, rng.normal(size=(3, 2)),
                             rng.dirichlet(np.ones(3)))
        assert w1(_split_first_atom(mu), nu, "linprog") == pytest.approx(
            w1(mu, nu, "linprog"), abs=1e-12)
        # four uniform atoms, the first repeated: the assignment route,
        # against the merged three-atom law on the LP route
        pts = rng.normal(size=(3, 2))
        repeated = DiscreteMeasure(2, pts[[0, 0, 1, 2]], np.full(4, 0.25))
        merged = DiscreteMeasure(2, pts, [0.5, 0.25, 0.25])
        nu = DiscreteMeasure(2, rng.normal(size=(4, 2)), np.full(4, 0.25))
        assert w1(repeated, nu, "linear_sum_assignment") == pytest.approx(
            w1(merged, nu, "linprog"), abs=1e-12)


# ---------------------------------------------------------------------------
# the block-diagonal LP: one HiGHS solve for many transport problems
# ---------------------------------------------------------------------------

def _lp_blocks(rng):
    """Random transport problems, among them 1 x m and n x 1 blocks,
    zero-cost blocks and blocks with equal marginals under a metric cost,
    whose optimum is 0."""
    blocks = []
    for k in range(40):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        if k % 8 == 1:
            n = 1
        elif k % 8 == 2:
            m = 1
        costs = rng.uniform(0.0, 1.0, (n, m))
        if k % 8 == 3:
            costs[:] = 0.0
        w_src, w_tgt = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
        if k % 8 == 4:
            x = rng.uniform(0.0, 1.0, n)
            costs = np.abs(x[:, None] - x[None, :])
            w_tgt = w_src.copy()
        blocks.append((costs, w_src, w_tgt))
    return blocks


def test_batched_lp_matches_one_block_solves():
    rng = np.random.default_rng(40)
    blocks = _lp_blocks(rng)
    values = _transport_lps(blocks)
    assert len(values) == len(blocks)
    for (costs, w_src, w_tgt), value in zip(blocks, values):
        one = _transport_lps([(costs, w_src, w_tgt)])[0]
        assert value == pytest.approx(one, abs=1e-12)
        if 1 in costs.shape:
            # the product plan is the only feasible one
            assert value == pytest.approx(
                float(np.sum(np.outer(w_src, w_tgt) * costs)), abs=1e-12)
        if not costs.any():
            assert value == 0.0
        if np.array_equal(w_src, w_tgt) and not np.diag(costs).any():
            assert value == pytest.approx(0.0, abs=1e-12)


def _one_block_matrix(n, m):
    """The transportation LP's constraint matrix as one problem per call
    built it: n row sums, then the first m - 1 column sums, negated, as
    the divergence of the flow at the targets."""
    from scipy.sparse import csr_matrix
    flows = np.arange(n * m).reshape(n, m)
    cols = np.concatenate([flows.ravel(), flows[:, :-1].T.ravel()])
    indptr = np.concatenate([m * np.arange(n + 1),
                             n * m + n * np.arange(1, m)])
    signs = np.repeat([1.0, -1.0], [n * m, n * (m - 1)])
    return csr_matrix((signs, cols, indptr), shape=(n + m - 1, n * m))


def test_one_block_builds_the_single_problem_lp(monkeypatch):
    seen = []
    real = transport.linprog

    def spy(c, **kwargs):
        seen.append((c, kwargs))
        return real(c, **kwargs)

    monkeypatch.setattr(transport, "linprog", spy)
    rng = np.random.default_rng(41)
    for n, m in ((1, 1), (1, 5), (4, 1), (3, 7), (6, 6)):
        costs = rng.uniform(size=(n, m))
        w_src, w_tgt = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
        _transport_lps([(costs, w_src, w_tgt)])
        c, kwargs = seen[-1]
        A, ref = kwargs["A_eq"], _one_block_matrix(n, m)
        assert A.shape == ref.shape
        assert np.array_equal(A.indptr, ref.indptr)
        assert np.array_equal(A.indices, ref.indices)
        assert np.array_equal(A.data, ref.data)
        assert np.array_equal(c, costs.ravel())
        assert np.array_equal(kwargs["b_eq"],
                              np.concatenate([w_src, -w_tgt[:-1]]))


def test_batched_lp_edge_budget_is_for_the_whole_lp(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an LP over budget reached the solver")

    monkeypatch.setattr(transport, "linprog", forbidden)
    n = 400
    block = (np.zeros((n, n)), np.full(n, 1.0 / n), np.full(n, 1.0 / n))
    count = transport._LP_EDGE_BUDGET // (n * n) + 1
    with pytest.raises(SizeError):
        _transport_lps([block] * count)
    assert _transport_lps([]) == []


def test_w1_discrete_batch_routes_like_single_pairs():
    rng = np.random.default_rng(42)
    pairs = []
    for k in range(30):
        if k % 3 == 0:      # the line: w1_line
            pairs.append((random_measure(rng, 4), random_measure(rng, 3)))
        elif k % 3 == 1:    # uniform equal size in 2-D: the assignment
            pairs.append(tuple(DiscreteMeasure(2, rng.normal(size=(5, 2)),
                                               np.full(5, 0.2))
                               for _ in range(2)))
        else:               # weighted in 2-D: the batched LP
            pairs.append(tuple(DiscreteMeasure(2, rng.normal(size=(n, 2)),
                                               rng.dirichlet(np.ones(n)))
                               for n in (3, 4)))
    batched = w1_discrete_batch(pairs)
    for k, ((mu, nu), val) in enumerate(zip(pairs, batched)):
        single = w1_discrete(mu, nu)
        if k % 3 == 2:
            assert val == pytest.approx(single, abs=1e-12)
        else:
            assert val == single


def test_identities_make_ten_lp_solves(monkeypatch):
    calls = []
    real = transport.linprog

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(transport, "linprog", counted)
    res = experiments.run_identities(experiments.ExperimentConfig())
    assert all(a.passed for a in res.assertions)
    # one tensorization LP, eight pushforward LPs, one Grunbaum LP
    assert len(calls) <= 10


def test_every_identities_lp_is_a_flow_lp(monkeypatch):
    # each LP the suite solves is a min-cost flow: every column, an arc,
    # has at most one +1 (its tail) and one -1 (its head) and nothing
    # else, and no arc has a negative length; a second LP builder shows up
    # here
    calls = []
    real = transport.linprog

    def spy(c, **kwargs):
        calls.append((c, kwargs["A_eq"].tocsc()))
        return real(c, **kwargs)

    monkeypatch.setattr(transport, "linprog", spy)
    experiments.run_identities(experiments.ExperimentConfig())
    assert calls
    for c, A in calls:
        assert np.all(c >= 0)
        assert np.all(np.isin(A.data, [1.0, -1.0]))
        column = np.repeat(np.arange(A.shape[1]), np.diff(A.indptr))
        for sign in (1.0, -1.0):
            assert np.bincount(column[A.data == sign]).max() <= 1


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def w1_dual_lower_bound(mu, nu, witness):
    """Kantorovich dual value of a 1-Lipschitz witness, a lower bound on W1.

    The Lipschitz constraint is validated pairwise on the atom set against
    the truncated ground distance.
    """
    pts = np.vstack([mu.points, nu.points])
    vals = np.asarray(witness(pts), dtype=float)
    atoms = DiscreteMeasure(mu.dim, pts, np.full(len(pts), 1.0 / len(pts)),
                            mu.particle_dim)
    dmat = cost_matrix(atoms, atoms)
    gap = np.abs(vals[:, None] - vals[None, :]) - dmat
    if np.max(gap) > 1e-9:
        raise DimensionError(
            f"witness violates the Lipschitz bound by {np.max(gap):.3e}")
    nmu = mu.n_atoms
    return float(np.sum(vals[:nmu] * mu.weights)
                 - np.sum(vals[nmu:] * nu.weights))


def test_dual_zero_witness():
    rng = np.random.default_rng(8)
    mu, nu = random_measure(rng, 3), random_measure(rng, 4)
    assert w1_dual_lower_bound(mu, nu, lambda p: np.zeros(len(p))) == 0.0


def test_dual_tight_witness_two_diracs():
    mu = DiscreteMeasure(1, np.array([[0.0]]), np.array([1.0]))
    nu = DiscreteMeasure(1, np.array([[0.5]]), np.array([1.0]))
    val = w1_dual_lower_bound(mu, nu, lambda p: -np.minimum(p[:, 0], 1.0))
    assert val == pytest.approx(0.5)
    assert val == pytest.approx(w1_discrete(mu, nu))


def test_dual_is_lower_bound():
    rng = np.random.default_rng(9)
    for _ in range(25):
        mu, nu = random_measure(rng, 4), random_measure(rng, 5)
        a = rng.uniform(-1, 1)
        witness = lambda p, a=a: a * np.clip(p[:, 0], -1.0, 1.0) / 2.0
        val = w1_dual_lower_bound(mu, nu, witness)
        assert val <= w1_discrete(mu, nu) + 1e-9


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
    [sides] = tensorization_check([(f, f, random_measure(rng, 2))])
    np.testing.assert_allclose(sides[:, 0], 0.0, atol=1e-10)
    np.testing.assert_allclose(sides[:, 1], 0.0, atol=1e-12)


def test_tensorization_diracs():
    f = DiscreteMeasure(1, np.array([[0.0]]), np.array([1.0]))
    g = DiscreteMeasure(1, np.array([[0.3]]), np.array([1.0]))
    [sides] = tensorization_check([(f, g, f)])
    np.testing.assert_allclose(sides, 0.3)


def test_tensorization_random_pairs():
    rng = np.random.default_rng(12)
    draws = [(random_measure(rng, 3), random_measure(rng, 3),
              random_measure(rng, 2)) for _ in range(5)]
    sides = tensorization_check(draws)
    assert sides.shape == (5, 3, 2)
    assert np.max(np.abs(sides[..., 0] - sides[..., 1])) <= 1e-9
    for (f, g, h), row in zip(draws, sides):
        assert row[0, 0] == pytest.approx(
            w1_discrete(product_measure(f, f), product_measure(g, g)),
            abs=1e-12)
        assert row[2, 0] == pytest.approx(
            2.0 * w1_discrete(product_measure(f, h), product_measure(g, h)),
            abs=1e-12)
        assert row[0, 1] == w1_discrete(f, g)


def test_product_measure_budget():
    rng = np.random.default_rng(13)
    f = random_measure(rng, 10)
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
    full = _transport_lps([(costs, F.ravel(), G.ravel())])[0]
    marg = w1_discrete(_pmf_marginal_measure(F, j, symbols),
                       _pmf_marginal_measure(G, j, symbols))
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
        w1 = w1_discrete(mu, nu)
        w2 = w2_line(mu.points[:, 0], mu.weights, nu.points[:, 0], nu.weights)
        assert w1 <= w2 + 1e-10
        mk = mu.moment(k) + nu.moment(k)
        assert w2 <= 2 ** 1.5 * mk ** (1 / k) * w1 ** (0.5 - 1 / k) + 1e-10
