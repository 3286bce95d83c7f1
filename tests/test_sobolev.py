import math

import numpy as np
import pytest

from scipy.special import beta, gamma, kv, kve

from kaclab import sobolev
from kaclab.core import (DimensionError, DiscreteMeasure, HypothesisError,
                         KaclabError, gauss_quadrature, gaussian_density,
                         gl_panels, uniform_density)
from kaclab.experiments import (ExperimentConfig,
                                _gauss_pair_expectation_by_distance)
from kaclab.sobolev import (hs_dist_sq, hs_dist_sq_fourier_oracle,
                            hs_pair_expectation, hs_w1_bridge_check,
                            make_hs_kernel, phi_s)

EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def kern1():
    return make_hs_kernel(1.0)


@pytest.fixture(scope="module")
def kern2():
    return make_hs_kernel(2.0)


def empirical(rng, n, spread=4.0):
    pts = rng.uniform(-spread, spread, (n, 1))
    return DiscreteMeasure(1, pts, np.full(n, 1.0 / n))


def test_kernel_requires_valid_exponent():
    with pytest.raises(DimensionError):
        make_hs_kernel(0.4)


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, 0.5, 0.3])
@pytest.mark.parametrize("route", ["kernel", "fourier-oracle"])
def test_both_routes_refuse_an_exponent_that_is_no_finite_number_above_half(
        s, route):
    # the oracle used to loop forever at nan, divide by zero at 0.5 and
    # return -8.33 at 0.3; the kernel raised ValueError at nan and
    # OverflowError at inf
    mu = DiscreteMeasure(1, np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    nu = DiscreteMeasure(1, np.array([[0.3]]), np.array([1.0]))
    run = {"kernel": make_hs_kernel,
           "fourier-oracle": lambda s: hs_dist_sq_fourier_oracle(mu, nu, s)}
    with pytest.raises(DimensionError, match=f"got s={s}$"):
        run[route](s)


def test_phi1_closed_form(kern1):
    zs = np.linspace(0.0, 20.0, 801)
    assert np.max(np.abs(phi_s(zs, kern1) - math.pi * np.exp(-zs))) < 1e-6
    assert kern1.phi0 == pytest.approx(math.pi)


def test_phi2_zero_value(kern2):
    assert kern2.phi0 == pytest.approx(math.pi / 2.0, abs=1e-6)


def test_phi_is_even(kern1):
    zs = np.linspace(0.1, 30.0, 57)
    np.testing.assert_allclose(phi_s(zs, kern1), phi_s(-zs, kern1))


def test_phi_zero_is_quadrature_of_weight(kern2):
    from scipy import integrate
    direct, _ = integrate.quad(lambda x: (1 + x * x) ** -2.0, -np.inf, np.inf)
    assert abs(kern2.phi0 - direct) < 1e-6


def _gap_drop_bound(s, r):
    # Phi(0) - Phi(r) = int (1 - cos xi r) <xi>^{-2s} d xi, and
    # 1 - cos x = 2 sin^2(x/2) <= 2 |x/2|^{2a} for a in [0, 1], so with
    # int |xi|^{2a} <xi>^{-2s} d xi = B(a + 1/2, s - a - 1/2) the drop is at
    # most 2 (r/2)^{2a} B(a + 1/2, s - a - 1/2) for every a < s - 1/2
    a = np.linspace(0.0, 1.0, 1001)
    a = a[a < s - 0.5]
    return float(np.min(2.0 * 4.0 ** -a * r ** (2.0 * a)
                        * beta(a + 0.5, s - a - 0.5)))


def test_phi_bounded_by_phi0(kern1, kern2):
    zs = np.linspace(0.0, 64.0, 4001)
    for k in (kern1, kern2):
        assert np.all(np.abs(phi_s(zs, k)) <= k.phi0 + 1e-12)
    # subnormal gaps, where K_{s-1/2} overflows: phi_s at s = 0.75 was inf
    # and at s = 1.5 NaN
    tiny = np.array([5e-324, 1e-320, 1e-310, 2e-308])
    for s in (0.55, 0.75, 1.5, 19.5, 20.0):
        k = make_hs_kernel(s)
        vals = phi_s(tiny, k)
        assert np.all(np.isfinite(vals)) and np.all(vals <= k.phi0), s
        for r, v in zip(tiny, vals):
            assert k.phi0 - v <= _gap_drop_bound(s, r), (s, r)


@pytest.mark.parametrize("s", range(1, 21))
def test_integer_s_matches_bessel_form(s):
    # the Matern form (2 sqrt(pi) / Gamma(s)) (r/2)^{s-1/2} K_{s-1/2}(r)
    r = np.linspace(0.0, 60.0, 6001)[1:]
    bessel = 2.0 * math.sqrt(math.pi) / gamma(s) * (r / 2.0) ** (s - 0.5) \
        * kv(s - 0.5, r)
    kern = make_hs_kernel(float(s))
    assert np.max(np.abs(phi_s(r, kern) - bessel)) <= 1e-14
    np.testing.assert_allclose(phi_s(r, kern), bessel, rtol=1e-14, atol=0.0)
    phi0 = math.sqrt(math.pi) * gamma(s - 0.5) / gamma(s)
    assert abs(phi_s(0.0, kern) - phi0) <= 1e-14


def test_far_tail_is_the_closed_form(kern1):
    assert phi_s(70.0, kern1) == pytest.approx(math.pi * math.exp(-70.0),
                                               rel=1e-14)
    assert phi_s(5000.0, kern1) == 0.0


def test_far_tail_at_non_integer_s_is_zero():
    # (r/2)^nu overflows and K_nu(r) underflows; the kernel is 0, not phi0
    assert phi_s(1e17, make_hs_kernel(19.5)) == 0.0


def test_far_tail_of_the_polynomial_is_zero():
    # r^19 overflows and e^{-r} underflows; the kernel is 0, not NaN
    assert phi_s(1e20, make_hs_kernel(20.0)) == 0.0
    assert phi_s(math.inf, make_hs_kernel(2.0)) == 0.0


def test_far_tail_of_the_matern_product_is_within_its_stated_bound():
    # past r = 697.9 scipy's kv returns 0; the kernel there, summed in logs
    # from the scaled kve (a relative few 1e-13 off), stays below 6e-272,
    # Phi_20(697.87), for every s up to the cap of 20
    assert sobolev.S_MAX == 20.0
    r = np.linspace(690.0, 760.0, 701)
    for s in (0.75, 5.5, 19.5, 19.99):
        nu = s - 0.5
        ref = np.exp(math.log(2.0 * math.sqrt(math.pi)) - math.lgamma(s)
                     + nu * np.log(r / 2.0) + np.log(kve(nu, r)) - r)
        err = np.abs(phi_s(r, make_hs_kernel(s)) - ref)
        assert np.max(err) < 6e-272, s


@pytest.mark.parametrize("s", [sobolev.S_MAX - 0.5, sobolev.S_MAX])
def test_kernel_at_the_cap_matches_its_fourier_integral(s):
    # Phi(r) = 2 int_0^inf cos(xi r) (1 + xi^2)^{-s} d xi; beyond xi = 4 the
    # integrand is below 4^{-2s}, and the omitted tail below
    # 2 * 4^{1-2s} / (2s - 1) < 1e-23. The quadrature is accepted within
    # 10 tol max(1, |value|) = 1e-12 at tol = 1e-13 (gauss_quadrature), and
    # the closed form's own rounding is a relative 1e-14 at most
    # (test_integer_s_matches_bessel_form).
    kern = make_hs_kernel(s)
    for r in (1e-5, 1e-3, 0.5, 4.0, 30.0):
        direct = gauss_quadrature(
            lambda xi: 2.0 * np.cos(xi * r) * (1.0 + xi * xi) ** -s, 0.0, 4.0,
            1e-13)
        assert abs(phi_s(r, kern) - direct) <= 1e-12 + 1e-23 \
            + 1e-14 * kern.phi0, r


def _exact_ratio_coefficients(n):
    f = math.factorial
    return [f(n + k) / (f(n) * f(k) * f(n - k) * 2 ** (n + k))
            for k in range(n + 1)]


def test_polynomial_coefficients_are_the_exact_integer_ratios():
    for n in range(151):
        assert sobolev._poly_coefficients(n) == _exact_ratio_coefficients(n)


@pytest.mark.parametrize("s", [sobolev.S_MAX - 0.5, sobolev.S_MAX])
@pytest.mark.parametrize("v", [0.25, 1.0, 4.0])
def test_pair_expectation_at_the_cap_matches_the_by_distance_oracle(s, v):
    # either route's p = E Phi(Y - Y') is off by at most its accepted
    # quadrature error 10 tol max(1, |p|), |p| <= Phi(0) (as in the
    # mixtures suite), and the by-distance route averages kernel values
    # within 1e-12 + 1e-14 Phi(0) of the kernel
    # (test_kernel_at_the_cap_matches_its_fourier_integral)
    kern = make_hs_kernel(s)
    got = hs_pair_expectation(gaussian_density(0.0, v), kern)
    want = _gauss_pair_expectation_by_distance(v, kern)
    tol = 20.0 * sobolev.PAIR_QUAD_TOL * max(1.0, kern.phi0) + 1e-12 \
        + 1e-14 * kern.phi0
    assert abs(got - want) <= tol


@pytest.mark.parametrize("v", [0.25, 1.0, 4.0])
def test_pair_expectation_closed_form_at_s1(kern1, v):
    # Phi(z) = pi e^{-|z|} and Y - Y' ~ N(0, 2 v), so
    # E Phi(Y - Y') = pi e^v erfc(sqrt(v))
    p = hs_pair_expectation(gaussian_density(0.0, v), kern1)
    assert abs(p - math.pi * math.exp(v) * math.erfc(math.sqrt(v))) <= 1e-13


def test_pair_expectation_needs_a_gaussian_mixture(kern1):
    with pytest.raises(HypothesisError, match="Gaussian-mixture"):
        hs_pair_expectation(uniform_density(), kern1)


def test_lipschitz_bound(kern2):
    zs = np.linspace(0.0, 10.0, 2001)
    vals = phi_s(zs, kern2)
    slopes = np.abs(np.diff(vals)) / np.diff(zs)
    assert np.max(slopes) <= kern2.lipschitz_bound + 1e-9
    assert kern2.lipschitz_bound == pytest.approx(1.0)   # 1/(s-1)
    assert math.isinf(make_hs_kernel(1.0).lipschitz_bound)
    assert math.isinf(make_hs_kernel(0.75).lipschitz_bound)


def test_hs_dist_zero_and_symmetry(kern1, rng):
    mu = empirical(rng, 6)
    assert hs_dist_sq(mu, mu, kern1) == pytest.approx(0.0, abs=1e-12)
    nu = empirical(rng, 4)
    assert hs_dist_sq(mu, nu, kern1) == pytest.approx(
        hs_dist_sq(nu, mu, kern1), abs=1e-12)


def test_hs_dist_two_diracs(kern1):
    for z in (0.3, 2.0, 11.0):
        mu = DiscreteMeasure(1, np.array([[0.0]]), np.array([1.0]))
        nu = DiscreteMeasure(1, np.array([[z]]), np.array([1.0]))
        expected = 2.0 * (kern1.phi0 - phi_s(z, kern1))
        assert hs_dist_sq(mu, nu, kern1) == pytest.approx(expected, rel=1e-10)


def test_hs_matches_fourier_oracle(rng):
    kernels = {s: make_hs_kernel(s) for s in (1.0, 1.5, 2.0)}
    for t in range(12):
        s = (1.0, 1.5, 2.0)[t % 3]
        mu = empirical(rng, int(rng.integers(3, 12)))
        nu = empirical(rng, int(rng.integers(3, 12)))
        direct = hs_dist_sq(mu, nu, kernels[s])
        oracle = hs_dist_sq_fourier_oracle(mu, nu, s)
        assert abs(direct - oracle) <= 1e-4 * max(abs(oracle), 1e-12)


def _oracle_tolerance(pts, kern):
    # The oracle is off by at most its head's rounding (_head_tolerance);
    # its quadrature and tail truncation errors are far below eps. The
    # double sum weighs each kernel value, within 1e-12 + 1e-14 Phi(0) of
    # the kernel (test_kernel_at_the_cap_matches_its_fourier_integral), by
    # |w_i w_j|, and sum |w_i w_j| = 4; its m^2 products and sums add at
    # most 2 m eps of 4 Phi(0) for m atoms.
    kernel_err = 1e-12 + 1e-14 * kern.phi0
    return (_head_tolerance(pts, kern.s) + 4.0 * kernel_err
            + 8.0 * len(pts) * EPS * kern.phi0)


@pytest.mark.parametrize("s", [sobolev.S_MAX - 0.5, sobolev.S_MAX])
def test_hs_matches_fourier_oracle_at_the_cap(s, rng):
    kern = make_hs_kernel(s)
    for t in range(10):
        mu = empirical(rng, int(rng.integers(3, 12)))
        nu = empirical(rng, int(rng.integers(3, 12)))
        pts, _ = sobolev._signed_atoms(mu, nu)
        assert abs(hs_dist_sq(mu, nu, kern)
                   - hs_dist_sq_fourier_oracle(mu, nu, s)) \
            <= _oracle_tolerance(pts, kern), t


@pytest.mark.parametrize("s", [0.75, 1.0, 1.5, 20.0])
@pytest.mark.parametrize("gap", [1e-200, 1e-310])
def test_fourier_oracle_at_a_tiny_gap(s, gap):
    # {0, 1} against {gap, 1}: the rotated path raised OverflowError at
    # gap = 1e-310 and returned NaN at s = 1, gap = 1e-200. A gap below
    # _TAIL_GAP_MIN takes the tail at 0, off by at most half the kernel's
    # drop Phi(0) - Phi(gap) per unit of its mass, 1/2 here
    mu = DiscreteMeasure(1, np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    nu = DiscreteMeasure(1, np.array([[gap], [1.0]]), np.array([0.5, 0.5]))
    kern = make_hs_kernel(s)
    oracle = hs_dist_sq_fourier_oracle(mu, nu, s)
    pts, _ = sobolev._signed_atoms(mu, nu)
    assert math.isfinite(oracle)
    assert abs(oracle - hs_dist_sq(mu, nu, kern)) \
        <= _oracle_tolerance(pts, kern) + 0.5 * _gap_drop_bound(s, gap)


@pytest.mark.parametrize("s", [0.75, 1.0, 1.5, 2.0])
def test_fourier_oracle_on_near_coincident_atoms(s):
    # gaps of 1e-7 and 1e-9 and a shared atom: an adaptive oscillatory
    # quadrature of the tail returns about 0 for a gap this small, and so
    # lost 1.7e-2 of the tail at s = 1, d = 1e-8
    mu = DiscreteMeasure(1, np.array([[0.0], [1e-7], [1.3], [2.5]]),
                         np.array([0.4, 0.1, 0.3, 0.2]))
    nu = DiscreteMeasure(1, np.array([[1e-9], [1.3 + 1e-9], [2.5], [-0.6]]),
                         np.array([0.25, 0.25, 0.35, 0.15]))
    direct = hs_dist_sq(mu, nu, make_hs_kernel(s))
    oracle = hs_dist_sq_fourier_oracle(mu, nu, s)
    assert abs(direct - oracle) <= 1e-12 * direct


@pytest.mark.parametrize("s", [0.75, 1.0, 1.5, 2.0])
def test_oracle_tail_matches_adaptive_oscillatory_quadrature(s):
    # the oracle's oracle: each gap's tail by QAWFE, which resolves gaps
    # down to about 1e-3, and the gap-0 tail by plain adaptive quadrature;
    # no gap's tail exceeds the gap-0 tail, the scale of the tolerances
    from scipy import integrate
    dens = lambda xi: (1.0 + xi ** 2) ** (-s)
    gaps = np.array([1e-3, 0.02, 0.5, 1.0, 3.7, 8.0, 15.0])
    zero, _ = integrate.quad(dens, sobolev._XI_HEAD, np.inf)
    want = [integrate.quad(dens, sobolev._XI_HEAD, np.inf, weight="cos",
                           wvar=float(d), limit=200, epsabs=1e-12 * zero)[0]
            for d in gaps]
    assert abs(sobolev._tail_at_zero(s) - zero) <= 1e-9 * zero
    assert np.max(np.abs(sobolev._rotated_tail(gaps, s) - want)) \
        <= 1e-9 * zero


def _dense_head(pts, wts, s):
    """The oracle's head with one cos and one sin per (node, atom) pair,
    on the same panels: the reference of the separable head."""
    span = float(pts.max() - pts.min()) if len(pts) > 1 else 1.0
    panel = min(0.25, math.pi / (2.0 * max(span, 1.0)))
    xs, ws = gl_panels(0.0, sobolev._XI_HEAD,
                       math.ceil(sobolev._XI_HEAD / panel))
    arg = np.outer(xs, pts)
    power = (np.cos(arg) @ wts) ** 2 + (np.sin(arg) @ wts) ** 2
    return 2.0 * float(np.sum(ws * power * (1 + xs ** 2) ** (-s)))


def _head_tolerance(pts, s):
    # Both heads sum the same weights at the same nodes; they differ in
    # how a phase xi p, xi <= Xi = _XI_HEAD, |p| <= P, is rounded: the
    # product xi p, the node m + h t, the separate factors e^{imp} and
    # e^{ihtp}. Each route's phasor is off by at most about 2 eps Xi P
    # plus a few eps, so with sum |w| = 2 (and P >= 1 to cover the few eps
    # and the atom sums) the transforms differ by at most 8 eps Xi P. Both
    # transforms are at most 2, so the powers differ by at most 4 times
    # that, and 2 int_0^Xi <xi>^{-2s} d xi <= Phi(0) bounds the head's
    # change by 32 eps Xi P Phi(0).
    P = max(float(np.abs(pts).max()), 1.0)
    return 32.0 * EPS * sobolev._XI_HEAD * P * make_hs_kernel(s).phi0


@pytest.mark.parametrize("seed", [424242, 4518])
def test_separable_head_matches_the_dense_head_on_the_suite_pairs(seed):
    # the kernel-oracles suite's 50 pairs, drawn as the suite draws them
    rng = ExperimentConfig(seed=seed).rng(2)
    for t in range(50):
        s = [1.0, 1.5, 2.0][t % 3]
        na, nb = int(rng.integers(3, 16)), int(rng.integers(3, 16))
        mu = DiscreteMeasure(1, rng.uniform(-4, 4, (na, 1)),
                             np.full(na, 1.0 / na))
        nu = DiscreteMeasure(1, rng.uniform(-4, 4, (nb, 1)),
                             np.full(nb, 1.0 / nb))
        pts, wts = sobolev._signed_atoms(mu, nu)
        assert abs(sobolev._head(pts, wts, s) - _dense_head(pts, wts, s)) \
            <= _head_tolerance(pts, s), t


@pytest.mark.parametrize("span", [100.0, 1000.0])
@pytest.mark.parametrize("s", [0.75, 2.0])
def test_separable_head_matches_the_dense_head_at_large_spans(span, s):
    # 3 820 and 38 198 panels, phases xi p up to 6e4
    rng = np.random.default_rng(int(span))
    pts = np.concatenate([[0.0, span], rng.uniform(0.0, span, 6)])
    wts = np.concatenate([np.full(4, 0.25), np.full(4, -0.25)])
    head = sobolev._head(pts, wts, s)
    assert head > 0.1
    assert abs(head - _dense_head(pts, wts, s)) <= _head_tolerance(pts, s)


def test_fourier_oracle_touches_no_closed_form_and_no_bessel_function(
        monkeypatch):
    mu = DiscreteMeasure(1, np.array([[-1.2], [0.4], [2.9]]),
                         np.array([0.5, 0.3, 0.2]))
    nu = DiscreteMeasure(1, np.array([[0.0], [1.7]]), np.array([0.6, 0.4]))
    want = {s: hs_dist_sq(mu, nu, make_hs_kernel(s)) for s in (1.0, 1.5)}

    def refuse(*args):
        raise AssertionError("the oracle reached the closed-form kernel")
    for name in ("_phi_closed", "kv"):
        monkeypatch.setattr(sobolev, name, refuse)
    for s, direct in want.items():
        assert hs_dist_sq_fourier_oracle(mu, nu, s) \
            == pytest.approx(direct, rel=1e-12)


def test_gram_matrix_positive_semidefinite(kern1, rng):
    pts = rng.uniform(-6, 6, 30)
    gram = phi_s(np.abs(pts[:, None] - pts[None, :]), kern1)
    eigs = np.linalg.eigvalsh(gram)
    assert eigs.min() >= -1e-8


def test_sqrt_triangle_inequality(kern2, rng):
    for _ in range(15):
        a, b, c = (empirical(rng, 5) for _ in range(3))
        dab = math.sqrt(hs_dist_sq(a, b, kern2))
        dac = math.sqrt(hs_dist_sq(a, c, kern2))
        dcb = math.sqrt(hs_dist_sq(c, b, kern2))
        assert dab <= dac + dcb + 1e-6


def test_negative_clamp_raises_on_corrupt_kernel(kern1, monkeypatch):
    closed = sobolev._phi_closed
    monkeypatch.setattr(sobolev, "_phi_closed",
                        lambda s, r: -closed(s, r))
    mu = DiscreteMeasure(1, np.array([[0.0]]), np.array([1.0]))
    nu = DiscreteMeasure(1, np.array([[0.5]]), np.array([1.0]))
    with pytest.raises(KaclabError):
        hs_dist_sq(mu, nu, kern1)


def test_a_non_finite_distance_raises(kern1, monkeypatch):
    # max(nan, 0.0) is nan: the sum used to pass through unchecked
    monkeypatch.setattr(sobolev, "_phi_closed",
                        lambda s, r: np.full(np.shape(r), np.nan))
    mu = DiscreteMeasure(1, np.array([[0.0]]), np.array([1.0]))
    nu = DiscreteMeasure(1, np.array([[0.5]]), np.array([1.0]))
    with pytest.raises(KaclabError, match="not finite"):
        hs_dist_sq(mu, nu, kern1)


def test_bridge_check_identical_measures(rng):
    mu = empirical(rng, 5)
    w1, bound = hs_w1_bridge_check(mu, mu, 2.0, 1.0)
    assert w1 == pytest.approx(0.0, abs=1e-12)
    assert bound >= 0.0


def test_bridge_check_two_diracs():
    mu = DiscreteMeasure(1, np.array([[0.0]]), np.array([1.0]))
    nu = DiscreteMeasure(1, np.array([[0.1]]), np.array([1.0]))
    w1, bound = hs_w1_bridge_check(mu, nu, 2.0, 1.0)
    assert w1 == pytest.approx(0.1)
    assert w1 <= bound


def test_bridge_check_sweep(rng):
    for _ in range(100):
        mu = empirical(rng, int(rng.integers(2, 9)))
        nu = empirical(rng, int(rng.integers(2, 9)))
        w1, bound = hs_w1_bridge_check(mu, nu, 2.0, 1.5)
        assert w1 <= bound + 1e-9
