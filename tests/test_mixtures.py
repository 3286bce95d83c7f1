import math
import tracemalloc

import numpy as np
import pytest

from kaclab.core import (DimensionError, SizeError, gaussian_density,
                         uniform_density)
from kaclab import mixtures
from kaclab.information import entropy, fisher, _grid_fisher_raw
from kaclab.mixtures import (DeFinettiProbe, Mixture, definetti_cauchy_probe,
                             level3_entropy, level3_fisher,
                             marginal_entropy_curve, mixture_log_marginal,
                             mixture_marginal)
from kaclab.sobolev import make_hs_kernel

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


def test_single_atom_curve_is_flat(rng):
    pi = Mixture(((1.0, gaussian_density()),))
    curve = marginal_entropy_curve(pi, [1, 2, 4, 8], rng, mc_count=4000)
    assert np.max(np.abs(np.array(curve.values) - GAUSS_ENTROPY)) < 0.02
    assert curve.gap_report is None


def test_two_atom_curve(two_atoms, rng):
    js = [1, 2, 3, 4, 8, 16, 32]
    curve = marginal_entropy_curve(two_atoms, js, rng, mc_count=8000)
    assert curve.monotone_within_3se
    assert curve.below_level3_within_3se
    gap16 = curve.level3 - curve.values[js.index(16)]
    assert gap16 * 16 == pytest.approx(math.log(2.0), rel=0.15)
    assert -1.2 < curve.gap_report.fitted_slope < -0.8


ORACLE_MIXTURES = {
    "pm3-equal": ((0.5, gaussian_density(-3.0)), (0.5, gaussian_density(3.0))),
    "quarter": ((0.25, gaussian_density(-3.0)),
                (0.75, gaussian_density(3.0))),
    # the uniform atom puts pdf zeros and jumps on the grid
    "three-with-uniform": ((0.2, gaussian_density(-2.0)),
                           (0.5, uniform_density(-1.0, 1.5)),
                           (0.3, gaussian_density(4.0))),
}


@pytest.mark.parametrize("name", list(ORACLE_MIXTURES))
def test_pair_entropy_matches_dense_oracle(name, rng):
    pi = Mixture(ORACLE_MIXTURES[name])
    curve = marginal_entropy_curve(pi, [2], rng, mc_count=20)
    dense = entropy(mixture_marginal(pi, 2)).value
    assert curve.values[0] == pytest.approx(dense, rel=1e-12, abs=0.0)


def test_single_atom_pair_entropy_tensorizes(rng):
    pi = Mixture(((1.0, gaussian_density(0.5)),))
    curve = marginal_entropy_curve(pi, [1, 2], rng, mc_count=20)
    assert abs(curve.values[1] - curve.values[0]) < 1e-9


def test_pair_entropy_builds_no_dense_grid(two_atoms, rng, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the j = 2 entropy built the dense M x M grid")

    monkeypatch.setattr(mixtures, "ProductGridDensity", refuse)
    curve = marginal_entropy_curve(two_atoms, [1, 2, 3], rng, mc_count=200)
    assert curve.js == (1, 2, 3)


def test_pair_entropy_memory_is_blocked(two_atoms, rng):
    # the dense 4096 x 4096 path peaked at 656 MB traced
    tracemalloc.start()
    try:
        marginal_entropy_curve(two_atoms, [1, 2], rng, mc_count=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


@pytest.mark.parametrize("js", [[3, 3, 4], [1, 3, 3, 4, 8, 16], [1, 2.5],
                                [0, 1], [-2, 1], [1, True], [1, "2"]])
def test_curve_rejects_bad_js(two_atoms, rng, js):
    with pytest.raises(DimensionError, match="js"):
        marginal_entropy_curve(two_atoms, js, rng, mc_count=20)


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


def test_definetti_single_atom_exact_law(kern, rng):
    pi = Mixture(((1.0, gaussian_density()),))
    probe = definetti_cauchy_probe(pi, [16, 32, 64, 128], kern, rng,
                                   mc_reps=200)
    assert isinstance(probe, DeFinettiProbe)
    for v, e, se in zip(probe.values, probe.exact_one_atom, probe.stderrs):
        assert abs(v - e) <= 4.0 * se
    # exact law is a clean inverse-N decay
    ratios = [probe.exact_one_atom[i] / probe.exact_one_atom[i + 1]
              for i in range(3)]
    np.testing.assert_allclose(ratios, 2.0, rtol=1e-10)


def test_mixture_estimators_refuse_too_few_draws(two_atoms, kern, rng):
    # one replica has no standard error; fewer draws than the 20 entropy
    # batches leave a batch empty
    with pytest.raises(SizeError):
        definetti_cauchy_probe(two_atoms, [16], kern, rng, mc_reps=1)
    with pytest.raises(SizeError):
        marginal_entropy_curve(two_atoms, [4], rng, mc_count=19)


def test_definetti_two_atoms(two_atoms, kern, rng):
    probe = definetti_cauchy_probe(two_atoms, [16, 32, 64, 128], kern, rng,
                                   mc_reps=150)
    assert -1.1 < probe.report.fitted_slope < -0.9
    assert probe.bound_violations == 0
