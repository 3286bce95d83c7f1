"""Exact optimal transport on configurations and discrete measures.

Costs are the normalized bounded distance (average over particles of the
truncated euclidean distance) and the normalized squared distance. On the
line, equal-size configurations under the bounded cost take an exact
O(n^2) dynamic program batched over replicas, and weighted measures under
the quadratic cost take the quantile (north-west corner) coupling. The
assignment solver is exact for equal-size uniform empirical measures and
is the oracle for the dynamic program; the general transportation LP
(HiGHS) covers everything else and is the oracle for the quantile
coupling. Entropic or otherwise regularized solvers are deliberately
absent from all correctness paths.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import csr_matrix

from .core import (Configuration, DimensionError, DiscreteMeasure, SizeError)

__all__ = [
    "CostSpec",
    "TransportPlan",
    "BOUNDED_L1",
    "NORMALIZED_L2_SQ",
    "cost_config",
    "cost_matrix",
    "w1_config",
    "w1_config_bruteforce",
    "w1_line_batch",
    "w1_discrete",
    "w1_dual_lower_bound",
    "tensorization_check",
    "pair_tensorization_check",
    "product_measure",
    "TRUNCATION",
]

_LP_EDGE_BUDGET = 1_200_000
_PRODUCT_ATOM_BUDGET = 100_000
# absolute slack of TransportPlan.validate (flows, marginals and cost)
_PLAN_TOL = 1e-10

# The bounded cost caps each particle's distance at this value.
TRUNCATION = 1.0


@dataclass(frozen=True)
class CostSpec:
    """Ground cost on E^j: truncated-l1 average or squared-l2 average."""

    kind: str = "bounded_l1"

    def __post_init__(self):
        if self.kind not in ("bounded_l1", "normalized_l2_sq"):
            raise DimensionError(f"unknown cost kind {self.kind!r}")


BOUNDED_L1 = CostSpec("bounded_l1")
NORMALIZED_L2_SQ = CostSpec("normalized_l2_sq")


@dataclass(frozen=True)
class TransportPlan:
    """An exact optimal plan between two discrete measures."""

    flows: np.ndarray           # (k, 3) rows (i, j, mass)
    cost: float
    source_weights: np.ndarray
    target_weights: np.ndarray

    def validate(self, costs: np.ndarray):
        i = self.flows[:, 0].astype(int)
        j = self.flows[:, 1].astype(int)
        m = self.flows[:, 2]
        if np.any(m < -_PLAN_TOL):
            raise DimensionError("plan has negative flow")
        row = np.zeros_like(self.source_weights)
        col = np.zeros_like(self.target_weights)
        np.add.at(row, i, m)
        np.add.at(col, j, m)
        if np.max(np.abs(row - self.source_weights)) > _PLAN_TOL:
            raise DimensionError("plan row sums differ from source weights")
        if np.max(np.abs(col - self.target_weights)) > _PLAN_TOL:
            raise DimensionError("plan column sums differ from target weights")
        if abs(float(np.sum(m * costs[i, j])) - self.cost) \
                > _PLAN_TOL * max(1.0, abs(self.cost)):
            raise DimensionError("plan cost inconsistent with flows")
        return True


def _particle_costs(px: np.ndarray, py: np.ndarray, d: int,
                    spec: CostSpec) -> np.ndarray:
    """Per-particle ground costs between two (n, d)-blocks, broadcast (n, m)."""
    if d == 1:
        dist = np.abs(px[:, 0, None] - py[None, :, 0])
    else:
        dist = np.sqrt(np.sum((px[:, None, :] - py[None, :, :]) ** 2, axis=-1))
    if spec.kind == "bounded_l1":
        return np.minimum(dist, TRUNCATION)
    return dist ** 2


def cost_config(X: Configuration, Y: Configuration,
                spec: CostSpec = BOUNDED_L1) -> float:
    """Normalized cost between two aligned configurations."""
    if (X.d, X.n_particles) != (Y.d, Y.n_particles):
        raise DimensionError("configurations must share d and N")
    diff = X.particles - Y.particles
    dist = np.abs(diff[:, 0]) if X.d == 1 else np.sqrt(np.sum(diff ** 2, axis=1))
    if spec.kind == "bounded_l1":
        return float(np.mean(np.minimum(dist, TRUNCATION)))
    return float(np.mean(dist ** 2))


def cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure,
                spec: CostSpec = BOUNDED_L1) -> np.ndarray:
    """Pairwise normalized cost between atoms of mu and nu."""
    if mu.dim != nu.dim or mu.particle_dim != nu.particle_dim:
        raise DimensionError("measures must share dim and particle_dim")
    j, d = mu.j, mu.particle_dim
    total = np.zeros((mu.n_atoms, nu.n_atoms))
    for b in range(j):
        sl = slice(b * d, (b + 1) * d)
        total += _particle_costs(mu.points[:, sl], nu.points[:, sl], d, spec)
    return total / j


def w1_config(X: Configuration, Y: Configuration,
              spec: CostSpec = BOUNDED_L1) -> tuple[float, np.ndarray]:
    """Minimum over particle relabelings of the normalized cost.

    Solved exactly by min-cost assignment; equals the transport distance
    between the two empirical measures. Returns (cost, permutation) with
    Y reindexed by the permutation matching X order.
    """
    if (X.d, X.n_particles) != (Y.d, Y.n_particles):
        raise DimensionError("configurations must share d and N")
    n = X.n_particles
    if n == 1:
        return cost_config(X, Y, spec), np.array([0])
    costs = _particle_costs(X.particles, Y.particles, X.d, spec)
    rows, cols = linear_sum_assignment(costs)
    perm = cols[np.argsort(rows)]
    return float(costs[np.arange(n), perm].mean()), perm


def w1_line_batch(xs, ys) -> np.ndarray:
    """Bounded-cost transport distance between R pairs of configurations
    on the line, exactly: row r of the result is the minimum over
    relabelings of mean min(|xs[r] - ys[r]_perm|, TRUNCATION).

    An optimum leaves pairs farther apart than TRUNCATION unmatched at cost
    TRUNCATION each, and its matched pairs can be taken monotone, so an
    edit-distance recursion over the sorted rows solves it. Written for the
    gain G[i][j] = D[i][j] - (i + j) TRUNCATION / 2 over the partial
    optimum D, the gap moves cost nothing and only the match move adds
    |x_i - y_j| - TRUNCATION; each particle i is one vectorised step over
    all rows, its left moves resolved by a running minimum.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 2 or xs.shape != ys.shape or xs.shape[1] == 0:
        raise DimensionError(f"need two equal (R, n) arrays with n >= 1, "
                             f"got shapes {xs.shape} and {ys.shape}")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise DimensionError("configurations must be finite")
    xs = np.sort(xs, axis=1)
    ys = np.sort(ys, axis=1)
    n = xs.shape[1]
    gain = np.zeros((len(xs), n + 1))   # column 0: no y used, gain 0
    for i in range(n):
        step = np.abs(xs[:, i, None] - ys) - TRUNCATION
        step += gain[:, :-1]
        np.minimum(step, gain[:, 1:], out=step)
        np.minimum.accumulate(step, axis=1, out=gain[:, 1:])
    return TRUNCATION + gain[:, -1] / n


def w1_config_bruteforce(X: Configuration, Y: Configuration,
                         spec: CostSpec = BOUNDED_L1) -> float:
    """Exhaustive minimum over all N! relabelings (oracle, N <= 9)."""
    n = X.n_particles
    if n > 9:
        raise SizeError(f"factorial oracle limited to N <= 9, got {n}")
    costs = _particle_costs(X.particles, Y.particles, X.d, spec)
    best = math.inf
    idx = np.arange(n)
    for perm in itertools.permutations(range(n)):
        best = min(best, float(costs[idx, perm].mean()))
    return best


def _transport_lp(costs: np.ndarray, w_src: np.ndarray,
                  w_tgt: np.ndarray) -> TransportPlan:
    """Exact transportation LP via HiGHS."""
    n, m = costs.shape
    if n * m > _LP_EDGE_BUDGET:
        raise SizeError(f"LP would have {n * m} edges "
                        f"(budget {_LP_EDGE_BUDGET}); reduce the instance")
    # equality constraints: row sums = w_src, col sums = w_tgt (drop one,
    # it is implied by total mass 1); flow (i, jj) is variable i*m + jj
    flows = np.arange(n * m).reshape(n, m)
    cols = np.concatenate([flows.ravel(), flows[:, :-1].T.ravel()])
    indptr = np.concatenate([m * np.arange(n + 1),
                             n * m + n * np.arange(1, m)])
    A = csr_matrix((np.ones(len(cols)), cols, indptr),
                   shape=(n + m - 1, n * m))
    b = np.concatenate([w_src, w_tgt[:-1]])
    res = linprog(costs.ravel(), A_eq=A, b_eq=b,
                  bounds=(0, None), method="highs-ds",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if not res.success:
        raise SizeError(f"transport LP failed: {res.message}")
    flow = res.x.reshape(n, m)
    i, jj = np.nonzero(flow > 1e-15)
    flows = np.column_stack([i, jj, flow[i, jj]])
    return TransportPlan(flows, float(res.fun), w_src.copy(), w_tgt.copy())


def _quantile_plan(costs: np.ndarray, mu: DiscreteMeasure,
                   nu: DiscreteMeasure) -> TransportPlan:
    """North-west corner coupling of two measures on the line: the sorted
    atoms' cumulative weights are merged and each interval between
    consecutive breakpoints is one flow. It is optimal for every convex
    cost of x - y, the quadratic one included."""
    a = np.argsort(mu.points[:, 0], kind="stable")
    b = np.argsort(nu.points[:, 0], kind="stable")
    ca = np.clip(np.cumsum(mu.weights[a])[:-1], 0.0, 1.0)
    cb = np.clip(np.cumsum(nu.weights[b])[:-1], 0.0, 1.0)
    cuts = np.unique(np.concatenate([[0.0, 1.0], ca, cb]))
    lo = cuts[:-1]
    i = a[np.searchsorted(ca, lo, side="right")]
    j = b[np.searchsorted(cb, lo, side="right")]
    mass = np.diff(cuts)
    flows = np.column_stack([i, j, mass])
    return TransportPlan(flows, float(np.sum(mass * costs[i, j])),
                         mu.weights.copy(), nu.weights.copy())


def w1_discrete(mu: DiscreteMeasure, nu: DiscreteMeasure,
                spec: CostSpec = BOUNDED_L1) -> TransportPlan:
    """Exact optimum of the transportation problem between mu and nu.

    The cost field is W1 for the bounded cost and the squared normalized
    W2 for the quadratic cost. Measures on the line under the quadratic
    cost take the quantile coupling, other equal-size uniform inputs the
    exact assignment fast path, everything else the LP.
    """
    mu = mu.merged()
    nu = nu.merged()
    costs = cost_matrix(mu, nu, spec)
    if mu.dim == 1 and spec.kind == "normalized_l2_sq":
        return _quantile_plan(costs, mu, nu)
    n, m = costs.shape
    uniform = (n == m
               and np.allclose(mu.weights, 1.0 / n, atol=1e-12)
               and np.allclose(nu.weights, 1.0 / m, atol=1e-12))
    if uniform:
        rows, cols = linear_sum_assignment(costs)
        flows = np.column_stack([rows, cols, np.full(n, 1.0 / n)])
        cost = float(costs[rows, cols].mean())
        return TransportPlan(flows, cost, mu.weights.copy(), nu.weights.copy())
    return _transport_lp(costs, mu.weights, nu.weights)


def w1_dual_lower_bound(mu: DiscreteMeasure, nu: DiscreteMeasure, witness,
                        spec: CostSpec = BOUNDED_L1) -> float:
    """Kantorovich dual value of a 1-Lipschitz witness, a lower bound on W1.

    The Lipschitz constraint is validated pairwise on the atom set against
    the truncated ground distance.
    """
    pts = np.vstack([mu.points, nu.points])
    vals = np.asarray(witness(pts), dtype=float)
    dmat = cost_matrix(
        DiscreteMeasure(mu.dim, pts, np.full(len(pts), 1.0 / len(pts)),
                        mu.particle_dim),
        DiscreteMeasure(mu.dim, pts, np.full(len(pts), 1.0 / len(pts)),
                        mu.particle_dim),
        spec)
    gap = np.abs(vals[:, None] - vals[None, :]) - dmat
    if np.max(gap) > 1e-9:
        raise DimensionError(
            f"witness violates the Lipschitz bound by {np.max(gap):.3e}")
    nmu = mu.n_atoms
    return float(np.sum(vals[:nmu] * mu.weights)
                 - np.sum(vals[nmu:] * nu.weights))


def product_measure(*measures: DiscreteMeasure) -> DiscreteMeasure:
    """Tensor product of discrete measures on the concatenated space."""
    total_atoms = math.prod(m.n_atoms for m in measures)
    if total_atoms > _PRODUCT_ATOM_BUDGET:
        raise SizeError(f"product measure would have {total_atoms} atoms "
                        f"(budget {_PRODUCT_ATOM_BUDGET})")
    d = measures[0].particle_dim
    pts = measures[0].points
    wts = measures[0].weights
    for m in measures[1:]:
        if m.particle_dim != d:
            raise DimensionError("particle_dim mismatch in product")
        pts = np.hstack([np.repeat(pts, m.n_atoms, axis=0),
                         np.tile(m.points, (len(pts), 1))])
        wts = (wts[:, None] * m.weights[None, :]).ravel()
    dim = sum(m.dim for m in measures)
    return DiscreteMeasure(dim, pts, wts / wts.sum(), particle_dim=d)


def tensorization_check(f: DiscreteMeasure, g: DiscreteMeasure,
                        N: int) -> tuple[float, float]:
    """Both sides of W1(f tensor N, g tensor N) = W1(f, g), independently.

    The left side is the LP on the materialized product space with the
    normalized cost; the right side is the LP on the base space.
    """
    fN = product_measure(*([f] * N))
    gN = product_measure(*([g] * N))
    lhs = w1_discrete(fN, gN, BOUNDED_L1).cost
    rhs = w1_discrete(f, g, BOUNDED_L1).cost
    return lhs, rhs


def pair_tensorization_check(f: DiscreteMeasure, g: DiscreteMeasure,
                             h: DiscreteMeasure) -> tuple[float, float]:
    """Both sides of 2 W1(f tensor h, g tensor h) = W1(f, g)."""
    lhs = 2.0 * w1_discrete(product_measure(f, h), product_measure(g, h),
                            BOUNDED_L1).cost
    rhs = w1_discrete(f, g, BOUNDED_L1).cost
    return lhs, rhs
