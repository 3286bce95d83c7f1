"""Negative-Sobolev metric between measures via its two-point kernel.

The squared H^{-s} distance between two measures is a double sum of a
radial kernel over the signed atom differences, which makes it a monomial
of order two on measures. The kernel is evaluated in closed form (an
exponential times a polynomial for integer s, the Bessel form otherwise)
and every distance admits an independent Fourier-quadrature oracle.
Only d = 1 is supported; every consumer in this package lives on the line.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import kv, poch

from .core import (_GL_NODES, QUAD_SIGMA_CUTOFF, Density, DimensionError,
                   DiscreteMeasure, KaclabError, gauss_quadrature,
                   gaussian_components, gl_rule)

__all__ = [
    "HsKernel",
    "make_hs_kernel",
    "phi_s",
    "hs_dist_sq",
    "hs_dist_sq_fourier_oracle",
    "hs_pair_expectation",
    "hs_w1_bridge_check",
]

_NEG_CLAMP = 1e-9
_XI_HEAD = 60.0   # end of the Fourier oracle's Gauss-Legendre head
# the rotated tail's rule: first panel [0, a] with a * max gap <= _TAIL_FIRST,
# panels doubling until t * min gap >= _TAIL_FAR (e^{-40} < 5e-18)
_TAIL_FIRST = 4.0
_TAIL_FAR = 40.0
# the least gap on the rotated path: its last edge, below 2 _TAIL_FAR / gap,
# must keep (Xi + i t)^2 finite, so t < 1.3e154
_TAIL_GAP_MIN = 1e-150
PAIR_QUAD_TOL = 1e-12   # relative tolerance of hs_pair_expectation
# the largest exponent accepted: every route is checked at it in the tests,
# and up to it the Matern product leaves the float range only at tiny gaps
# and in the far tail, where _phi_closed bounds its error
S_MAX = 20.0


def _phi_closed(s: float, r):
    """Closed form of the kernel in d = 1: inverse transform of <xi>^{-2s}.

    This is the Matern form (2 sqrt(pi) / Gamma(s)) (r/2)^{s-1/2}
    K_{s-1/2}(r). For integer s = n + 1 the Bessel order is a
    half-integer and the kernel is e^{-r} times a polynomial of degree n
    (DLMF 10.49.12, ``_phi_polynomial``); every other s takes the Matern
    product (``_phi_matern``).

    Where the product is not finite it is 0 * inf or inf. At a tiny gap
    (r = 0, r < 2.2e-305 for s <= 1.5 and r < 3.4e-15 for s < 20) the
    Bessel factor overflows, and Phi(0) is returned, off by
    Phi(0) - Phi(r) = int (1 - cos xi r) <xi>^{-2s} d xi
                    <= 2 (r/2)^{2a} B(a + 1/2, s - a - 1/2)
    for every a in [0, 1] with a < s - 1/2, since 1 - cos x = 2 sin^2(x/2)
    <= 2 |x/2|^{2a}: below 2e-28 Phi(0) wherever s >= 0.55. Far out
    (r > 1.3e16 for s <= 20) (r/2)^{s-1/2} or r^n overflows while the
    other factor is 0, and 0 is returned, off by Phi(r) < 1e-300. From
    r = 697.9 on, scipy's kv returns 0 (its underflow guard), so the Matern
    product is 0, off by at most Phi_20(697.87) < 6e-272: Phi_s(r) falls
    in r and, at these r, rises in s.
    """
    r = np.asarray(r, dtype=float)
    with np.errstate(all="ignore"):
        out = (_phi_polynomial(int(s) - 1, r) if float(s).is_integer()
               else _phi_matern(s, r))
    phi0 = math.sqrt(math.pi) / poch(s - 0.5, 0.5)
    return np.where(np.isfinite(out), out, np.where(r < 1.0, phi0, 0.0))


def _poly_coefficients(n: int) -> list:
    """c_k = (n + k)! / (n! k! (n - k)! 2^{n + k}), k = 0 .. n, each the
    correctly rounded float of the exact ratio.

    c_k is a_k / (n! 2^{n+k}) with the integer a_k = (n + k)! / (k! (n - k)!),
    which the ratio recurrence a_{k+1} = a_k (n + k + 1)(n - k) / (k + 1)
    gives exactly from a_0 = 1: O(n) integer operations, where the ratios
    of factorials cost O(n^2).
    """
    a, den = 1, math.factorial(n) << n
    coef = []
    for k in range(n + 1):
        coef.append(a / (den << k))
        a = a * (n + k + 1) * (n - k) // (k + 1)
    return coef


def _phi_polynomial(n: int, r: np.ndarray) -> np.ndarray:
    """pi e^{-r} sum_k c_k r^{n-k}, the kernel at s = n + 1."""
    return math.pi * np.exp(-r) * np.polyval(_poly_coefficients(n), r)


def _phi_matern(s: float, r: np.ndarray) -> np.ndarray:
    """(2 sqrt(pi) / Gamma(s)) (r/2)^{s-1/2} K_{s-1/2}(r), a plain product."""
    nu = s - 0.5
    return (2.0 * math.sqrt(math.pi) / gamma_fn(s)) * (r / 2.0) ** nu \
        * kv(nu, r)


@dataclass(frozen=True)
class HsKernel:
    """Radial kernel of the H^{-s} norm on measures, d = 1."""

    s: float
    phi0: float
    lipschitz_bound: float


def _check_exponent(s: float) -> None:
    """Raise DimensionError unless 1/2 < s <= S_MAX: int <xi>^{-2s} d xi
    converges from s > 1/2 on, and S_MAX is where every route is checked."""
    if not 0.5 < s <= S_MAX:
        raise DimensionError(f"need 1/2 < s <= {S_MAX:g}, got s={s}")


def make_hs_kernel(s: float) -> HsKernel:
    """The kernel for an exponent 1/2 < s <= S_MAX, with its value at 0 and
    Lipschitz bound; every evaluation goes through the closed form."""
    _check_exponent(s)
    # |Phi(z) - Phi(z')| <= |z - z'| * int |xi| <xi>^{-2s} dxi = |z-z'|/(s-1)
    lip = 1.0 / (s - 1.0) if s > 1.0 else math.inf
    return HsKernel(s, float(_phi_closed(s, 0.0)), lip)


def phi_s(z, kernel: HsKernel):
    """Kernel value at |z|; a scalar input gives a float."""
    out = _phi_closed(kernel.s, np.abs(z))
    return float(out) if np.ndim(out) == 0 else out


def _signed_atoms(mu: DiscreteMeasure, nu: DiscreteMeasure):
    if mu.dim != 1 or nu.dim != 1:
        raise DimensionError("H^{-s} distances are computed on E = R")
    pts = np.concatenate([mu.points[:, 0], nu.points[:, 0]])
    wts = np.concatenate([mu.weights, -nu.weights])
    return pts, wts


def hs_dist_sq(mu: DiscreteMeasure, nu: DiscreteMeasure,
               kernel: HsKernel) -> float:
    """Squared H^{-s} distance as the kernel double sum over mu - nu."""
    pts, wts = _signed_atoms(mu, nu)
    diffs = np.abs(pts[:, None] - pts[None, :])
    val = float(wts @ phi_s(diffs, kernel) @ wts)
    if not math.isfinite(val):
        raise KaclabError(f"squared distance {val}; the kernel is not finite")
    if val < -_NEG_CLAMP:
        raise KaclabError(
            f"squared distance {val:.3e} below -{_NEG_CLAMP}; the kernel is "
            f"not positive definite")
    return max(val, 0.0)


def _tail_at_zero(s: float) -> float:
    """int_Xi^inf <xi>^{-2s} d xi, Xi = _XI_HEAD, by the binomial series of
    xi^{-2s} (1 + xi^{-2})^{-s}: sum_k binom(-s, k) Xi^{1-2s-2k} / (2s-1+2k).
    Its terms alternate in sign, each at most (s + k) / ((k + 1) Xi^2)
    times the one before, so the first term below 1e-17 of the sum ends
    it."""
    scale = _XI_HEAD ** (1.0 - 2.0 * s)
    total, coef, k = 0.0, 1.0, 0
    while True:
        term = coef / (2.0 * s - 1.0 + 2.0 * k)
        total += term
        if abs(term) <= 1e-17 * abs(total):
            return scale * total
        k += 1
        coef *= -(s + k - 1.0) / (k * _XI_HEAD ** 2)


def _rotated_tail(gaps: np.ndarray, s: float) -> np.ndarray:
    """T(d) = int_Xi^inf <xi>^{-2s} cos(xi d) d xi for each gap d > 0.

    On the quadrant Re xi >= Xi, Im xi >= 0, Im(1 + xi^2) >= 0, so the
    principal power is analytic there, and the arc term vanishes like
    R^{1-2s} / d; by Cauchy's theorem the path xi = Xi + i t gives
    T(d) = Re[i e^{i Xi d} int_0^inf (1 + (Xi + i t)^2)^{-s} e^{-t d} dt].
    That integrand does not oscillate, so one ``gl_rule`` in t serves
    every gap, through one matrix e^{-t d}: a first panel [0, a] with
    a max(d) <= _TAIL_FIRST, then panels doubling in length up to the
    first edge T with T min(d) >= _TAIL_FAR. Beyond T, |integrand| <=
    t^{-2s} e^{-t d}, so no gap omits more than e^{-40} T^{1-2s} / 40.
    """
    a = min(_XI_HEAD, _TAIL_FIRST / float(gaps.max()))
    n = math.ceil(math.log2(_TAIL_FAR / (a * float(gaps.min()))))
    t, w = gl_rule(np.concatenate([[0.0], a * 2.0 ** np.arange(n + 1)]))
    rot = np.exp(-np.outer(gaps, t)) @ (w * (1.0 + (_XI_HEAD + 1j * t) ** 2)
                                        ** -s)
    # Re[i (cos + i sin)(re + i im)] = -(cos im + sin re)
    return -(np.cos(_XI_HEAD * gaps) * rot.imag
             + np.sin(_XI_HEAD * gaps) * rot.real)


def _head(pts: np.ndarray, wts: np.ndarray, s: float) -> float:
    """2 int_0^Xi |sum_j w_j e^{i xi p_j}|^2 <xi>^{-2s} d xi, Xi = _XI_HEAD.

    Equal Gauss-Legendre panels, none wider than a quarter period of the
    fastest phase. Every node is its panel's midpoint m plus one of the
    12 offsets h t_i that all panels share, so e^{i xi p} = e^{i m p}
    e^{i h t_i p}, and the transform at all nodes is one product of a
    (panels x atoms) and an (atoms x 12) matrix: (panels + 12) x atoms
    complex exponentials, not a cos and a sin per (node, atom) pair.
    """
    span = float(pts.max() - pts.min()) if len(pts) > 1 else 1.0
    panel = min(0.25, math.pi / (2.0 * max(span, 1.0)))
    edges = np.linspace(0.0, _XI_HEAD, math.ceil(_XI_HEAD / panel) + 1)
    xs, ws = gl_rule(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    h = 0.5 * (edges[1] - edges[0])
    hat = ((np.exp(1j * np.outer(mid, pts)) * wts)
           @ np.exp(1j * np.outer(h * _GL_NODES, pts)).T).ravel()
    power = hat.real ** 2 + hat.imag ** 2
    return 2.0 * float(np.sum(ws * power * (1 + xs ** 2) ** (-s)))


def hs_dist_sq_fourier_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure,
                              s: float) -> float:
    """Independent oracle: int |mu_hat - nu_hat|^2 <xi>^{-2s} d xi.

    The head [0, _XI_HEAD] integrates the assembled Fourier-side integrand
    on oscillation-resolving Gauss-Legendre panels, its phases separated
    into panel midpoints and node offsets (``_head``). The tail is the
    sum, over the distinct atom gaps d with their summed mass products, of
    int_Xi^inf <xi>^{-2s} cos(xi d) d xi: by its binomial series at d = 0
    (``_tail_at_zero``) and along the contour-rotated path otherwise
    (``_rotated_tail``). A gap below _TAIL_GAP_MIN takes the tail at 0, off
    by int_Xi^inf (1 - cos xi d) <xi>^{-2s} d xi <= (Phi(0) - Phi(d)) / 2,
    which ``_phi_closed`` bounds. None of them touches the closed-form
    kernel. s must lie in (1/2, S_MAX] (DimensionError).
    """
    _check_exponent(s)
    pts, wts = _signed_atoms(mu, nu)
    gaps, at = np.unique(np.abs(pts[:, None] - pts[None, :]).ravel(),
                         return_inverse=True)
    mass = np.bincount(at, np.outer(wts, wts).ravel(), len(gaps))
    tail = np.full(len(gaps), _tail_at_zero(s))   # gaps[0] = 0, the diagonal
    far = gaps >= _TAIL_GAP_MIN
    if far.any():
        tail[far] = _rotated_tail(gaps[far], s)
    return _head(pts, wts, s) + 2.0 * float(mass @ tail)


def hs_pair_expectation(f: Density, kernel: HsKernel) -> float:
    """E Phi(Y - Y') for Y, Y' i.i.d. from a Gaussian-mixture density f.

    On the Fourier side this is 2 int_0^Xi |cf(xi)|^2 <xi>^{-2s} d xi, cf
    the characteristic function ``f.cf``; for f = sum_c w_c N(m_c, v),
    |cf|^2 carries the factor e^{-v xi^2}, so Xi = QUAD_SIGMA_CUTOFF /
    sqrt(2 v) ends the integral: one ``gauss_quadrature``.
    """
    _, v = gaussian_components(f)

    def integrand(xi):
        return np.abs(f.cf(xi)) ** 2 * (1.0 + xi ** 2) ** -kernel.s

    return 2.0 * gauss_quadrature(integrand, 0.0, QUAD_SIGMA_CUTOFF
                                  / math.sqrt(2.0 * v), PAIR_QUAD_TOL)


def hs_w1_bridge_check(mu: DiscreteMeasure, nu: DiscreteMeasure,
                       k: float, s: float):
    """Measured W1 against its explicit H^{-s}-moment upper bound.

    Returns (w1, bound) and raises if the bound fails. The explicit
    constant follows the truncate-mollify-dualize argument in d = 1;
    it is generous but concrete.
    """
    from .transport import w1_discrete
    if s < 1 or k <= 0:
        raise DimensionError("bridge check needs s >= 1 and k > 0")
    w1 = w1_discrete(mu, nu)
    hs = math.sqrt(hs_dist_sq(mu, nu, make_hs_kernel(s)))
    mk = mu.moment(k) + nu.moment(k)
    c_d = 6.0 * math.sqrt(10.0)
    const = c_d * (1.0 + ((s - 1.0) / 2.0) ** ((s - 1.0) / 2.0))
    expo = 2.0 * k / (1.0 + 2.0 * k * s)
    bound = const * mk ** (1.0 / (1.0 + 2.0 * k * s)) * hs ** expo
    if w1 > bound + 1e-9:
        raise KaclabError(f"W1 = {w1} exceeds its H^-s bound {bound}")
    return w1, bound
