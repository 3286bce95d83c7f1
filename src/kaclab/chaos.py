"""Chaos quantifiers and their exact finite-alphabet oracles.

Three ways to measure how close a symmetric N-particle law is to a tensor
power: marginal transport distance for fixed block size, full-space
transport distance with normalized cost, and the expected empirical-
measure distance. Monte Carlo estimators are flagged as the bounds they
are; the finite-alphabet identities are computed exactly by enumeration
and linear programming, and the first-marginal counterexample (a half-half
mixture of two Gaussian tensor powers) in closed form: omega_1 = 0 by an
identity of densities, omega_2 by a certified Kantorovich-Rubinstein
lower bound.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (Density, DimensionError, DiscreteMeasure, SizeError, _Phi,
                   check_reps, check_symmetric_pmf, gaussian_components,
                   gaussian_mixture, is_int, normal_pdf)
from .transport import (_LP_EDGE_BUDGET, TRUNCATION, _graph_w1,
                        _transport_lps, w1_discrete, w1_line)
from .kacsphere import marginal_gauss_l1, sample_sigma

__all__ = [
    "ChaosEstimate",
    "sigma_sampler",
    "omega_inf",
    "omega_n",
    "omega_j",
    "omega_j_sigma_quadrature",
    "enumerate_configs",
    "symmetric_pmf",
    "grunbaum_exact",
    "pushforward_identity_exact",
    "omega1_counterexample",
]


@dataclass(frozen=True)
class ChaosEstimate:
    """One chaos-quantifier estimate with its estimator semantics."""

    quantifier: str
    N: int
    mc_reps: int
    value: float
    stderr: float
    reference_size: int
    upper_bound: bool = False
    method: str = "mc"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (-1e-12 <= self.value <= 1.0 + 1e-9):
            raise DimensionError(f"normalized chaos value {self.value} "
                                 f"outside [0, 1]")
        if self.stderr < 0:
            raise DimensionError("stderr must be nonnegative")


def _check_sizes(**sizes):
    """Raise DimensionError unless each named size is an int >= 1."""
    for name, v in sizes.items():
        if not (is_int(v) and v >= 1):
            raise DimensionError(f"need an int {name} >= 1, got {v!r}")


# ---------------------------------------------------------------------------
# samplers: (N, rng) -> one configuration as a length-N vector
# ---------------------------------------------------------------------------

def sigma_sampler():
    """Uniform sphere law, one row of ``kacsphere.sample_sigma``."""
    return lambda N, rng: sample_sigma(N, 1, rng)[0]


def omega_inf(sampler, f: Density, N: int, mc_reps: int,
              rng: np.random.Generator | None = None) -> ChaosEstimate:
    """Expected transport distance of the empirical measure to f.

    Each replica compares the drawn configuration's empirical measure to a
    fixed seeded discretization of f of size M = 4 N; M is reported so the
    discretization bias, which scales like M^{-1/2} on the line, can be
    budgeted by the caller. Each replica is solved exactly by
    ``w1_line``, its drawn atoms weighing M / N = 4 against the
    reference's unit atoms.
    """
    _check_sizes(N=N)
    check_reps(mc_reps)
    rng = rng if rng is not None else np.random.default_rng(0)
    M = 4 * N
    ref = f.sampler(np.random.default_rng(990011), M)
    vals = np.array([w1_line(sampler(N, rng), np.full(N, 4.0), ref,
                             np.ones(M)) for _ in range(mc_reps)])
    return ChaosEstimate("omega_inf", N, mc_reps, float(vals.mean()),
                         float(vals.std(ddof=1) / math.sqrt(mc_reps)), M,
                         upper_bound=False, method="mc_reference",
                         meta={"reference_bias_scale": M ** -0.5})


def omega_n(sampler, f: Density, N: int, mc_reps: int,
            rng: np.random.Generator) -> ChaosEstimate:
    """Coupled upper bound on the full-space transport distance.

    Per replica the sampler and the tensor-power reference consume child
    generators seeded identically, so samplers built from the same base
    noise realize their natural coupling (iid-vs-iid gives exactly zero,
    the sphere law meets the Gaussian through the radial projection); any
    coupling upper-bounds the distance, so the estimate is always valid.
    Each replica's exact relabeling optimum comes from ``w1_line``.
    """
    _check_sizes(N=N)
    check_reps(mc_reps)
    ones = np.ones(N)
    vals = np.empty(mc_reps)
    for r in range(mc_reps):
        seed = int(rng.integers(0, 2 ** 62))
        vals[r] = w1_line(sampler(N, np.random.default_rng(seed)), ones,
                          f.sampler(np.random.default_rng(seed), N), ones)
    return ChaosEstimate("omega_N", N, mc_reps, float(vals.mean()),
                         float(vals.std(ddof=1) / math.sqrt(mc_reps)), N,
                         upper_bound=True, method="coupled_pairs")


def omega_j(sampler, f: Density, j: int, N: int, mc_reps: int,
            rng: np.random.Generator | None = None) -> ChaosEstimate:
    """Marginal chaos quantifier from pooled first-j blocks.

    The first j coordinates of each replica form one atom on E^j; the pool
    is compared to an equal-size tensor-power reference sample by its
    exact transport distance, ``w1_discrete``: ``w1_line`` for j = 1, the
    exact assignment otherwise.
    """
    _check_sizes(N=N)
    if not (is_int(j) and 1 <= j <= N):
        raise DimensionError(f"need an integer 1 <= j <= N = {N}, got {j!r}")
    check_reps(mc_reps)
    rng = rng if rng is not None else np.random.default_rng(0)
    n_batches = max(2, min(4, mc_reps // 8))
    pool = np.array([sampler(N, rng)[:j] for _ in range(mc_reps)])
    ref = f.sampler(np.random.default_rng(990022), (mc_reps, j))

    def value_of(a, b):
        mu, nu = (DiscreteMeasure(j, x, np.full(len(x), 1.0 / len(x)))
                  for x in (a, b))
        return w1_discrete(mu, nu)

    val = value_of(pool, ref)
    batches = np.array_split(np.arange(mc_reps), n_batches)
    bvals = [value_of(pool[b], ref[b]) for b in batches]
    se = float(np.std(bvals, ddof=1) / math.sqrt(n_batches))
    return ChaosEstimate(f"omega_{j}", N, mc_reps, val, se, mc_reps,
                         method="pooled_blocks")


def omega_j_sigma_quadrature(N: int, j: int) -> ChaosEstimate:
    """Deterministic upper bound on the sphere law's marginal quantifier.

    Half the exact L1 distance between the sphere marginal and the Gaussian
    tensor power (``marginal_gauss_l1``, 1 <= j <= N - 3) bounds the
    transport distance since the cost is capped at one.
    """
    val = 0.5 * marginal_gauss_l1(N, j)
    return ChaosEstimate(f"omega_{j}", N, 0, min(val, 1.0), 0.0, 0,
                         upper_bound=True, method="sigma_quadrature")


# ---------------------------------------------------------------------------
# finite-alphabet exact oracles
# ---------------------------------------------------------------------------

def enumerate_configs(n_symbols: int, N: int,
                      budget: int = 1_000_000) -> np.ndarray:
    """All configurations of N coordinates over {0..n_symbols-1}."""
    _check_sizes(n_symbols=n_symbols, N=N)
    total = n_symbols ** N
    if total > budget:
        raise SizeError(f"{total} configurations exceed the budget {budget}")
    idx = np.arange(total)
    out = np.empty((total, N), dtype=np.int64)
    for pos in range(N - 1, -1, -1):
        out[:, pos] = idx % n_symbols
        idx //= n_symbols
    return out


@functools.lru_cache(maxsize=None)
def _occupation_classes(n_symbols: int, N: int):
    """The occupation classes: counts[c, s], the number of coordinates
    equal to s in each configuration of class c, and for each
    configuration x (in ``enumerate_configs`` order) the index of its
    class. Both arrays are cached and read-only."""
    configs = enumerate_configs(n_symbols, N)
    occ = np.stack([(configs == s).sum(axis=1) for s in range(n_symbols)],
                   axis=1)
    # counts are at most N, so the base-(N + 1) key orders the count
    # vectors as np.unique(occ, axis=0) does, without its row sort
    key = occ @ (N + 1) ** np.arange(n_symbols - 1, -1, -1)
    _, first, inverse = np.unique(key, return_index=True,
                                  return_inverse=True)
    counts = occ[first]
    counts.flags.writeable = False
    inverse.flags.writeable = False
    return counts, inverse


def symmetric_pmf(n_symbols: int, N: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Random permutation-symmetric pmf: one weight per occupation multiset."""
    _check_sizes(n_symbols=n_symbols, N=N)
    _, inverse = _occupation_classes(n_symbols, N)
    class_vals = rng.exponential(size=inverse.max() + 1)
    p = class_vals[inverse]
    return (p / p.sum()).reshape((n_symbols,) * N)


def _empirical_moment(pmf: np.ndarray, j: int) -> np.ndarray:
    """E[mu_X^{tensor j}] for X of law pmf, mu_X its empirical measure:
    the sum over occupation classes c of the class mass m_c times
    q_c^{tensor j}, q_c the class's empirical law."""
    S, N = pmf.shape[0], pmf.ndim
    counts, inverse = _occupation_classes(S, N)
    mass = np.bincount(inverse, pmf.ravel(), len(counts))
    q = counts / float(N)
    # label 0 is the class, labels 1..j the j coordinates
    return np.einsum(mass, [0], *[x for a in range(1, j + 1)
                                  for x in (q, [0, a])],
                     list(range(1, j + 1)))


def _quotient_problem(S: int, n: int, p: np.ndarray, q: np.ndarray):
    """The transportation problem (costs, masses of p, masses of q) between
    two symmetric laws on {0..S-1}^n, flat in ``enumerate_configs`` order,
    pushed to the occupation classes with the relabeling-minimal cost.

    Distinct integer symbols cost TRUNCATION <= 1 each, so a best
    relabeling pairs equal symbols, and classes with counts c_a, c_b cost
    T (n - sum_s min(c_a, c_b)(s)) / n. For symmetric laws its optimum is
    the full-space one, the identity ``pushforward_identity_exact`` checks.
    """
    counts, inverse = _occupation_classes(S, n)
    costs = TRUNCATION * (
        n - np.minimum(counts[:, None], counts).sum(axis=2)) / n
    return (costs, np.bincount(inverse, p, len(counts)),
            np.bincount(inverse, q, len(counts)))


def grunbaum_exact(cases) -> list[tuple[float, float, float, float]]:
    """Exact marginal-vs-empirical comparison on the alphabet {0..S-1}, for
    each (pmf, js) in cases, an iterable read once, and each block size j
    in js; no pmf is kept past its own case.

    Returns one tuple (tv, bound, w1, w1_bound) per (pmf, j), in order:
    the total-variation mass between the j-th marginal and the j-th moment
    of the empirical measure, its combinatorial bound 2 j (j-1)/N, and the
    transport distance with its bound j (j-1)/N. Both laws are symmetric
    on {0..S-1}^j, so for j >= 2 the distance is the transportation
    problem on their occupation classes (``_quotient_problem``), all
    cases' problems solved as one min-cost flow LP; j = 1 takes
    ``w1_line``. Each pmf must pass ``check_symmetric_pmf``, checked once
    for all its block sizes.
    """
    problems, parts = [], []
    for pmf, js in cases:
        pmf = check_symmetric_pmf(pmf)
        N = pmf.ndim
        S = pmf.shape[0]
        for j in js:
            if not (is_int(j) and 1 <= j <= N):
                raise DimensionError(f"need an integer 1 <= j <= N = {N}, "
                                     f"got {j!r}")
            marg = pmf.copy()
            for _ in range(N - j):
                marg = marg.sum(axis=-1)
            hat = _empirical_moment(pmf, j)
            p = np.maximum(marg.ravel(), 0.0) / marg.sum()
            q = np.maximum(hat.ravel(), 0.0) / hat.sum()
            w1 = None
            if j == 1:
                symbols = np.arange(S, dtype=float)
                w1 = w1_line(symbols, p, symbols, q)
            else:
                problems.append(_quotient_problem(S, j, p, q))
            parts.append((float(np.abs(marg - hat).sum()),
                          2.0 * j * (j - 1) / N, w1, j * (j - 1) / N))
    lps = iter(_transport_lps(problems))
    return [(tv, bound, next(lps) if w1 is None else w1, w1_bound)
            for tv, bound, w1, w1_bound in parts]


def _hamming_arcs(configs: np.ndarray, S: int):
    """The Hamming graph on configurations over {0..S-1}, given in
    ``enumerate_configs`` order: one arc from each configuration x to each
    configuration that differs from it in one coordinate i, from old to new
    symbol, of length min(|new - old|, TRUNCATION) / N. Returns (tails,
    heads, lengths), S^N N (S - 1) arcs; the head index is
    x + (new - old) S^(N-1-i)."""
    n, N = configs.shape
    old = configs[:, :, None]
    new = (old + np.arange(1, S)) % S
    place = S ** np.arange(N - 1, -1, -1)[:, None]
    tails = np.broadcast_to(np.arange(n)[:, None, None], new.shape)
    heads = tails + (new - old) * place
    lengths = np.minimum(np.abs(new - old), TRUNCATION) / N
    return tails.ravel(), heads.ravel(), lengths.ravel()


def pushforward_identity_exact(F: np.ndarray, G: np.ndarray):
    """Full-space vs permutation-quotient transport on the alphabet {0..S-1}.

    lhs is the transport distance between the two laws on the full
    configuration space with the normalized truncated cost. Each
    coordinate's truncated cost is a metric on symbols, so their average is
    the shortest-path metric of the Hamming graph (``_hamming_arcs``), and
    lhs is its min-cost flow (``_graph_w1``): S^N N (S - 1) LP columns, 2430
    at (S, N) = (3, 5), where the dense transportation LP has S^2N, 59 049;
    that LP stays in the tests as the flow's oracle. rhs solves
    ``_quotient_problem``, the transportation problem between the induced
    laws on the occupation classes with the relabeling-minimal cost, which
    is the min-cost flow on the complete bipartite graph of the classes.
    Each side is its own LP, solved and checked by
    ``transport._min_cost_flows``. The Hamming flow never uses the
    symmetry, so the two optima agree by the identity, not by
    construction. Both pmfs must pass ``check_symmetric_pmf``. Past
    isqrt(``_LP_EDGE_BUDGET``) configurations, ``SizeError`` comes before
    any arc is built.
    """
    F, G = check_symmetric_pmf(F), check_symmetric_pmf(G)
    if F.shape != G.shape:
        raise DimensionError("pmfs must share their shape")
    N = F.ndim
    S = F.shape[0]
    configs = enumerate_configs(S, N, budget=math.isqrt(_LP_EDGE_BUDGET))
    lhs = _graph_w1(*_hamming_arcs(configs, S), F.ravel(), G.ravel())
    [rhs] = _transport_lps([_quotient_problem(S, N, F.ravel(), G.ravel())])
    return lhs, rhs


def _clip_mean(f: Density, c: float) -> float:
    """E_f clip(2 (x - c), -1, 1) in closed form over the Gaussian
    components of f: the two tails plus twice the mean of x - c on the
    ramp |x - c| <= 1/2."""
    ((weights, means),), var = gaussian_components(f)
    sd, m = math.sqrt(var), np.asarray(means)
    lo, hi = (c - 0.5 - m) / sd, (c + 0.5 - m) / sd
    P_lo, P_hi = _Phi(lo), _Phi(hi)
    ramp = (m - c) * (P_hi - P_lo) + sd * (normal_pdf(lo) - normal_pdf(hi))
    return float(np.dot(weights, 1.0 - P_hi - P_lo + 2.0 * ramp))


def omega1_counterexample(g: Density, h: Density, Ns) -> dict:
    """First-marginal blindness of the chaos measurement, in closed form.

    Every j-marginal of F^N = (g^{(x)N} + h^{(x)N}) / 2 is
    (g^{(x)j} + h^{(x)j}) / 2, whatever N >= j. The first is the reference
    f = (g + h) / 2, so omega_1 = 0 exactly; "reference_gap" is the largest
    distance between the pdf of the Gaussian mixture carrying f and
    (g.pdf + h.pdf) / 2 on a grid. With c the mean of f and
    t = clip(2 (x - c), -1, 1), the Kantorovich-Rubinstein test function
    t(x1) t(x2) / 4 is 1-Lipschitz for the cost sum_i min(|x_i - y_i|, 1) / 2
    and certifies omega_2 >= (E_g t - E_h t)^2 / 16. "estimates" maps each
    N to (omega_1, that bound). g and h must be Gaussian mixtures of one
    variance.
    """
    ((wg, mg), (wh, mh)), var = gaussian_components(g, h)
    if not all(is_int(N) and N >= 2 for N in Ns):
        raise DimensionError(f"omega_2 needs integers N >= 2, got {Ns!r}")
    f = gaussian_mixture([w / 2 for w in wg + wh], mg + mh, var, "half-half")
    xs = np.linspace(*f.quad_bounds(), 4001)
    gap = float(np.max(np.abs(f.pdf(xs) - (g.pdf(xs) + h.pdf(xs)) / 2)))
    c = f.raw_moments[1]
    bound = (_clip_mean(g, c) - _clip_mean(h, c)) ** 2 / 16.0
    return {"reference_gap": gap, "estimates": {N: (0.0, bound) for N in Ns}}
