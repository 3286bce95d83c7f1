import functools
import math
import tracemalloc

import numpy as np
import pytest

from kaclab.core import (DimensionError, HypothesisError, bimodal_density,
                         gaussian_density, gaussian_mixture, uniform_density)
from kaclab import mixtures
from kaclab.information import entropy, fisher, _grid_fisher_raw
from kaclab.mixtures import (DeFinettiProbe, Mixture, definetti_cauchy_probe,
                             level3_entropy, level3_fisher,
                             marginal_entropy_curve, mixture_log_marginal,
                             mixture_marginal)
from kaclab.sobolev import hs_pair_expectation, make_hs_kernel, phi_s

GAUSS_ENTROPY = -0.5 * math.log(2 * math.pi * math.e)


@pytest.fixture(scope="module")
def two_atoms():
    return Mixture(((0.5, gaussian_density(-3.0)),
                    (0.5, gaussian_density(3.0))))


@pytest.fixture(scope="module")
def kern():
    return make_hs_kernel(1.0)


def test_mixture_invariants():
    with pytest.raises(DimensionError):
        Mixture(((0.5, gaussian_density()), (0.6, gaussian_density(1.0))))
    with pytest.raises(DimensionError):
        Mixture(((0.5, gaussian_density()), (0.5, gaussian_density())))
    # one law under two names
    with pytest.raises(DimensionError, match="distinct"):
        Mixture(((0.5, gaussian_density(0.0)),
                 (0.5, gaussian_mixture((1.0,), (0.0,), 1.0, "other"))))


def test_mixture_tells_atoms_apart_beyond_their_names():
    # the names print the means to 6 digits; the components keep them
    pi = Mixture(((0.5, gaussian_density(3.0)),
                  (0.5, gaussian_density(3.0000001))))
    assert pi.count == 2


def test_mixture_rejects_a_nan_weight():
    # a NaN fails neither "a <= 0" nor "|sum - 1| > 1e-12"
    with pytest.raises(DimensionError, match="finite"):
        Mixture(((math.nan, gaussian_density(-3.0)),
                 (0.5, gaussian_density(3.0))))


def test_single_atom_marginal_is_tensor_power():
    pi = Mixture(((1.0, gaussian_density()),))
    m2 = mixture_marginal(pi, 2)
    outer = np.outer(m2.marginal(0).values, m2.marginal(1).values)
    assert np.max(np.abs(m2.values - outer)) < 1e-10


def test_marginal_mass_and_compatibility(two_atoms):
    m1 = mixture_marginal(two_atoms, 1)
    assert abs(m1.values.sum() * m1.spacing - 1.0) < 1e-9
    m2 = mixture_marginal(two_atoms, 2)
    np.testing.assert_allclose(m2.marginal(0).values, m1.values, atol=1e-6)


def test_marginal_sampler_for_large_blocks(two_atoms, rng):
    sampler = mixture_marginal(two_atoms, 5)
    x = sampler(2000, rng)
    assert x.shape == (2000, 5)
    # block sign coherence: all coordinates of a row share the atom
    assert np.all(np.abs(x.mean(axis=1)) > 0.5)


def test_level3_entropy_translation_invariance(two_atoms):
    assert level3_entropy(two_atoms) == pytest.approx(GAUSS_ENTROPY, abs=1e-8)


def test_level3_fisher_translation_invariance(two_atoms):
    assert level3_fisher(two_atoms) == pytest.approx(1.0, abs=1e-8)


def test_level3_infinite_atom_propagates():
    pi = Mixture(((0.5, gaussian_density()), (0.5, uniform_density(0, 1))))
    assert math.isinf(level3_fisher(pi))


def test_level3_affinity():
    a = Mixture(((0.25, gaussian_density(-3.0)), (0.75, gaussian_density(3.0))))
    b = Mixture(((0.75, gaussian_density(-3.0)), (0.25, gaussian_density(3.0))))
    mixed = Mixture(((0.5, gaussian_density(-3.0)), (0.5, gaussian_density(3.0))))
    lhs = level3_entropy(mixed)
    rhs = 0.5 * level3_entropy(a) + 0.5 * level3_entropy(b)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_jensen_direction(two_atoms):
    h3 = level3_entropy(two_atoms)
    for j in (1, 2):
        assert entropy(mixture_marginal(two_atoms, j)).value <= h3 + 1e-9


def test_fisher_monotone_chain(two_atoms):
    m1 = mixture_marginal(two_atoms, 1)
    m2 = mixture_marginal(two_atoms, 2)
    i1 = fisher(m1).value
    gx = _grid_fisher_raw(m2.marginal(0).values, m2.spacing)
    # normalized two-variable information of the gridded marginal
    h = m2.spacing
    vals = m2.values
    gxx = np.zeros_like(vals)
    gyy = np.zeros_like(vals)
    gxx[1:-1, :] = (vals[2:, :] - vals[:-2, :]) / (2 * h)
    gyy[:, 1:-1] = (vals[:, 2:] - vals[:, :-2]) / (2 * h)
    mask = vals > 1e-14
    i2 = float(np.sum((gxx[mask] ** 2 + gyy[mask] ** 2) / vals[mask]) * h * h) / 2.0
    i3 = level3_fisher(two_atoms)
    assert i1 <= i2 + 1e-6 <= i3 + 1e-5


def test_level3_fisher_dominates_marginal_information(two_atoms):
    assert fisher(mixture_marginal(two_atoms, 1)).value \
        <= level3_fisher(two_atoms) + 1e-9


def label_entropy_bound(pi, j):
    """An upper bound on H(C | X), C the atom label of a draw X of pi_j.

    j (level3 - H(pi_j)/j) = H(C) - H(C | X) for any mixture. For two
    Gaussian atoms of one variance v the label is misread with probability
    at most sqrt(alpha_1 alpha_2) rho^j, rho = exp(-(m_1 - m_2)^2 / (8 v))
    the Bhattacharyya coefficient of the atoms, and Fano's inequality for a
    binary label bounds H(C | X) by the binary entropy of that probability.
    """
    (a1, f1), (a2, f2) = pi.atoms
    (_, (m1,), v), (_, (m2,), _) = f1.components, f2.components
    p = min(0.5, math.sqrt(a1 * a2) * math.exp(-j * (m1 - m2) ** 2 / (8 * v)))
    return -p * math.log(p) - (1 - p) * math.log1p(-p)


def plugin_entropy(pi, j, rng, count=20000, batches=20):
    """The plug-in Monte Carlo (1/j) E log pi_j(V) over draws V of the
    marginal itself, and its batch standard error."""
    logs = mixture_log_marginal(pi, mixture_marginal(pi, j)(count, rng)) / j
    means = np.array([b.mean() for b in np.array_split(logs, batches)])
    return float(logs.mean()), float(means.std(ddof=1) / math.sqrt(batches))


def test_single_atom_curve_is_flat():
    # pi_j is the tensor power, so H(pi_j)/j is the atom's entropy for all j
    pi = Mixture(((1.0, gaussian_density()),))
    js = [1, 2, 3, 4, 8, 16, 32, 64]
    curve = marginal_entropy_curve(pi, js)
    assert curve.js == tuple(js)
    for v in curve.values:
        assert abs(v - curve.level3) <= curve.tolerance
    assert curve.monotone and curve.below_level3
    assert curve.gap_report is None


def test_two_atom_curve(two_atoms):
    js = [1, 2, 3, 4, 8, 16, 32]
    curve = marginal_entropy_curve(two_atoms, js)
    assert curve.monotone
    assert curve.below_level3
    gap16 = curve.level3 - curve.values[js.index(16)]
    assert gap16 * 16 == pytest.approx(math.log(2.0), abs=16 * curve.tolerance
                                       + label_entropy_bound(two_atoms, 16))
    assert -1.2 < curve.gap_report.fitted_slope < -0.8


def test_separated_atoms_gap_tends_to_the_weights_entropy():
    pi = Mixture(((0.25, gaussian_density(-3.0)),
                  (0.75, gaussian_density(3.0))))
    shannon = -sum(a * math.log(a) for a, _ in pi.atoms)
    js = [1, 2, 4, 8, 16, 32, 64]
    curve = marginal_entropy_curve(pi, js)
    for j, v in zip(js, curve.values):
        # j gap = H(C) - H(C | X), with 0 <= H(C | X) <= the bound
        jgap = j * (curve.level3 - v)
        assert jgap <= shannon + j * curve.tolerance
        if j >= 8:
            assert jgap >= (shannon - label_entropy_bound(pi, j)
                            - j * curve.tolerance)


def test_exact_curve_matches_the_plugin_oracle(two_atoms, rng):
    curve = marginal_entropy_curve(two_atoms, [3, 8, 32])
    for j, exact in zip(curve.js, curve.values):
        value, se = plugin_entropy(two_atoms, j, rng)
        assert abs(value - exact) <= 4.0 * se, j


ORACLE_MIXTURES = {
    "pm3-equal": ((0.5, gaussian_density(-3.0)), (0.5, gaussian_density(3.0))),
    "quarter": ((0.25, gaussian_density(-3.0)),
                (0.75, gaussian_density(3.0))),
    # the uniform atom is no Gaussian
    "three-with-uniform": ((0.2, gaussian_density(-2.0)),
                           (0.5, uniform_density(-1.0, 1.5)),
                           (0.3, gaussian_density(4.0))),
}


@pytest.mark.parametrize("name", list(ORACLE_MIXTURES))
def test_pair_entropy_matches_dense_oracle(name):
    pi = Mixture(ORACLE_MIXTURES[name])
    if name == "three-with-uniform":
        with pytest.raises(HypothesisError):
            marginal_entropy_curve(pi, [2])
        return
    curve = marginal_entropy_curve(pi, [1, 2])
    # The grids are Riemann sums of integrands that have decayed to nothing
    # well before the grid's edges, so by Poisson summation their aliasing
    # error is of order exp(-2 pi^2 v / h^2), negligible next to the
    # rounding of the sum. Its M^j terms x log x share one sign where the
    # density is below 1, so that rounding is at most M^j eps |value|.
    for j, exact in zip(curve.js, curve.values):
        grid = mixture_marginal(pi, j)
        assert grid.values.max() < 1.0
        dense = entropy(grid).value
        rounding = grid.n_points ** j * np.finfo(float).eps * abs(dense)
        assert abs(exact - dense) <= curve.tolerance + rounding


@pytest.mark.parametrize("atoms", [
    ((0.5, bimodal_density()), (0.5, gaussian_density(3.0))),
    ((0.5, gaussian_density(0.0, 1.0)), (0.5, gaussian_density(2.0, 4.0))),
    ((0.5, gaussian_density()), (0.5, uniform_density(-1.0, 1.0))),
], ids=["two-component-atom", "unequal-variances", "uniform-atom"])
def test_curve_refuses_atoms_outside_its_hypothesis(atoms):
    with pytest.raises(HypothesisError, match="one variance"):
        marginal_entropy_curve(Mixture(atoms), [1, 2, 3])


def test_single_atom_pair_entropy_tensorizes():
    pi = Mixture(((1.0, gaussian_density(0.5)),))
    curve = marginal_entropy_curve(pi, [1, 2])
    assert abs(curve.values[1] - curve.values[0]) < 1e-9


def test_pair_entropy_builds_no_dense_grid(two_atoms, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the j = 2 entropy built the dense M x M grid")

    monkeypatch.setattr(mixtures, "ProductGridDensity", refuse)
    curve = marginal_entropy_curve(two_atoms, [1, 2, 3])
    assert curve.js == (1, 2, 3)


def test_pair_entropy_memory_is_blocked(two_atoms):
    # the dense 4096 x 4096 path peaked at 656 MB traced
    tracemalloc.start()
    try:
        marginal_entropy_curve(two_atoms, [1, 2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


@pytest.mark.parametrize("js", [[3, 3, 4], [1, 3, 3, 4, 8, 16], [1, 2.5],
                                [0, 1], [-2, 1], [1, True], [1, "2"]])
def test_curve_rejects_bad_js(two_atoms, js):
    with pytest.raises(DimensionError, match="js"):
        marginal_entropy_curve(two_atoms, js)


@pytest.mark.parametrize("j", [2.5, 2.0, True, 0, -1, "3"])
def test_marginal_rejects_bad_j(two_atoms, j):
    with pytest.raises(DimensionError, match="j must be a positive integer"):
        mixture_marginal(two_atoms, j)


def test_log_marginal_matches_direct(two_atoms, rng):
    V = rng.normal(size=(50, 3))
    direct = np.log(sum(a * np.prod(f.pdf(V), axis=1)
                        for a, f in two_atoms.atoms))
    np.testing.assert_allclose(mixture_log_marginal(two_atoms, V), direct,
                               atol=1e-10)


def test_definetti_single_atom_exact_law(kern):
    pi = Mixture(((1.0, gaussian_density()),))
    probe = definetti_cauchy_probe(pi, [16, 32, 64, 128], kern)
    assert isinstance(probe, DeFinettiProbe)
    # at s = 1, Phi(z) = pi e^{-|z|} and Y - Y' ~ N(0, 2), so
    # E Phi(Y - Y') = pi e erfc(1)
    gap = math.pi * (1.0 - math.e * math.erfc(1.0))
    for N, v in zip(probe.ns, probe.values):
        assert v == pytest.approx(gap / N, rel=1e-13)
    # the law is a clean inverse-N decay
    ratios = [probe.values[i] / probe.values[i + 1] for i in range(3)]
    np.testing.assert_allclose(ratios, 2.0, rtol=1e-14)


@pytest.mark.parametrize("Ns", [[0, 16, 32, 64], [16, 32, 64, 128.5]])
def test_definetti_probe_checks_ns_before_any_draw(two_atoms, kern, Ns,
                                                   monkeypatch):
    # the probe draws nothing; its Ns are checked before any quadrature
    def refuse(*args, **kwargs):
        raise AssertionError("a quadrature ran before the Ns were checked")

    monkeypatch.setattr(mixtures, "hs_pair_expectation", refuse)
    with pytest.raises(DimensionError, match="Ns must hold positive"):
        definetti_cauchy_probe(two_atoms, Ns, kern)


def test_definetti_two_atoms(two_atoms, kern):
    probe = definetti_cauchy_probe(two_atoms, [16, 32, 64, 128], kern)
    assert probe.report.fitted_slope == pytest.approx(-1.0, abs=1e-12)
    assert probe.bound_violations == 0


def test_definetti_probe_refuses_a_non_gaussian_atom(kern):
    pi = Mixture(((0.5, gaussian_density()), (0.5, uniform_density(-1, 1))))
    with pytest.raises(HypothesisError, match="Gaussian-mixture"):
        definetti_cauchy_probe(pi, [16, 32, 64, 128], kern)


def trapezoid_cross_table(f, kernel, n_ys=4001, n_xq=2001):
    """The cross term E Phi(x - Y), Y ~ f, on a grid of x, and the pair
    term E Phi(Y - Y') from it, both by trapezoids: the tables of the
    probe's earlier Monte Carlo route."""
    lo, hi = f.quad_bounds()
    ys = np.linspace(lo, hi, n_ys)
    fy = f.pdf(ys)
    fy = fy / np.trapezoid(fy, ys)
    xq = np.linspace(lo - 2, hi + 2, n_xq)
    conv = np.array([np.trapezoid(phi_s(np.abs(x - ys), kernel) * fy, ys)
                     for x in xq])
    pair = float(np.trapezoid(conv * np.interp(
        xq, ys, fy, left=0.0, right=0.0), xq))
    return xq, conv, pair


@functools.lru_cache(maxsize=None)
def unit_gaussian_cross_table(kernel):
    """The trapezoid table of N(0, 1), built once per kernel."""
    return trapezoid_cross_table(gaussian_density(), kernel)


def translated_cross_table(f, kernel):
    """The trapezoid table of f = N(m, 1): the table of N(0, 1) with its
    x-grid shifted by m, since f's grids are those of N(0, 1) shifted."""
    (_,), (m,), var = f.components
    assert var == 1.0, f.name
    xq, conv, pair = unit_gaussian_cross_table(kernel)
    return xq + m, conv, pair


def monte_carlo_probe(pi, Ns, kernel, rng, mc_reps=200):
    """Means and standard errors of the squared H^{-s} distance between
    the empirical measure of X ~ f_a^N and f_a, a drawn from pi, for
    atoms N(m_a, 1): the probe's earlier Monte Carlo estimator."""
    tables = [translated_cross_table(f, kernel) for _, f in pi.atoms]
    means, stderrs = [], []
    for N in Ns:
        which = rng.choice(pi.count, size=mc_reps,
                           p=[a for a, _ in pi.atoms])
        vals = np.empty(mc_reps)
        for r in range(mc_reps):
            i = int(which[r])
            xq, conv, pair = tables[i]
            x = pi.atoms[i][1].sampler(rng, N)
            diffs = np.abs(x[:, None] - x[None, :])
            quad = float(np.sum(phi_s(diffs, kernel))) / N ** 2
            cross = float(np.mean(np.interp(x, xq, conv)))
            vals[r] = quad - 2.0 * cross + pair
        means.append(float(vals.mean()))
        stderrs.append(float(vals.std(ddof=1) / math.sqrt(mc_reps)))
    return means, stderrs


@pytest.mark.parametrize("s", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("atoms", [
    ((0.5, gaussian_density(-3.0)), (0.5, gaussian_density(3.0))),
    ((1.0, gaussian_density()),),
], ids=["two-atoms", "single-atom"])
def test_probe_is_the_mean_of_the_monte_carlo_oracle(atoms, s, rng):
    pi, kernel, Ns = Mixture(atoms), make_hs_kernel(s), [16, 32, 64, 128]
    exact = definetti_cauchy_probe(pi, Ns, kernel).values
    means, stderrs = monte_carlo_probe(pi, Ns, kernel, rng)
    for N, e, m, se in zip(Ns, exact, means, stderrs):
        assert abs(m - e) <= 4.0 * se, N


def test_pair_expectation_matches_the_trapezoid_table(kern):
    f = gaussian_mixture((0.3, 0.7), (-1.0, 2.0), 0.5, "two-component")
    fine = trapezoid_cross_table(f, kern)[2]
    coarse = trapezoid_cross_table(f, kern, 2001, 1001)[2]
    # the table's error is O(h^2), about 3e-6 here: halving its grids
    # moves it by three times that error
    err = abs(fine - coarse) / 3.0
    assert abs(hs_pair_expectation(f, kern) - fine) <= 2.0 * err
