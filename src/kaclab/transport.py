"""Exact optimal transport on configurations and discrete measures.

Costs are the normalized bounded distance (average over particles of the
truncated euclidean distance) and the normalized squared distance. On the
line, weighted measures under the bounded cost take one exact routine,
``w1_line``, a sorted scan over the Kantorovich-Rubinstein dual, and
under the quadratic cost the quantile (north-west corner) coupling. The
assignment solver, exact for equal-size uniform empirical measures and
the path for d > 1, and the general transportation LP (HiGHS), which
covers everything else, are the oracles for both line routines.
Entropic or otherwise regularized solvers are deliberately absent from
all correctness paths.
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
    "cost_matrix",
    "w1_config",
    "w1_config_bruteforce",
    "w1_line",
    "w1_discrete",
    "w1_discrete_batch",
    "tensorization_check",
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


def _ground_cost(diff: np.ndarray, spec: CostSpec) -> np.ndarray:
    """Per-particle ground cost of displacements diff of shape (..., d)."""
    dist = (np.abs(diff[..., 0]) if diff.shape[-1] == 1
            else np.sqrt(np.sum(diff ** 2, axis=-1)))
    if spec.kind == "bounded_l1":
        return np.minimum(dist, TRUNCATION)
    return dist ** 2


def cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure,
                spec: CostSpec = BOUNDED_L1) -> np.ndarray:
    """Pairwise normalized cost between atoms of mu and nu."""
    if mu.dim != nu.dim or mu.particle_dim != nu.particle_dim:
        raise DimensionError("measures must share dim and particle_dim")
    j, d = mu.j, mu.particle_dim
    total = np.zeros((mu.n_atoms, nu.n_atoms))
    for b in range(j):
        sl = slice(b * d, (b + 1) * d)
        total += _ground_cost(mu.points[:, None, sl] - nu.points[None, :, sl],
                              spec)
    return total / j


def _relabeling_costs(X: Configuration, Y: Configuration,
                      spec: CostSpec) -> np.ndarray:
    """Ground cost of every particle pair (X_i, Y_k); X and Y must share
    d and N."""
    if (X.d, X.n_particles) != (Y.d, Y.n_particles):
        raise DimensionError("configurations must share d and N")
    return _ground_cost(X.particles[:, None] - Y.particles[None], spec)


def w1_config(X: Configuration, Y: Configuration,
              spec: CostSpec = BOUNDED_L1) -> tuple[float, np.ndarray]:
    """Minimum over particle relabelings of the normalized cost.

    Solved exactly by min-cost assignment; equals the transport distance
    between the two empirical measures. Returns (cost, permutation) with
    Y reindexed by the permutation matching X order.
    """
    n = X.n_particles
    costs = _relabeling_costs(X, Y, spec)
    rows, cols = linear_sum_assignment(costs)
    perm = cols[np.argsort(rows)]
    return float(costs[np.arange(n), perm].mean()), perm


def w1_line(xa, wa, xb, wb) -> float:
    """Exact transport distance under min(|x - y|, TRUNCATION), per unit
    mass, between atoms xa of masses wa and xb of masses wb on the line
    (nonnegative masses, equal totals).

    By Kantorovich-Rubinstein duality it is the best integral of f against
    the mass difference over 1-Lipschitz f valued in [0, TRUNCATION]:
    over the merged sorted atoms, with running mass difference F_k and gap
    L_k, the best path of steps |d_k| <= L_k inside [0, TRUNCATION] with
    gain -F_k d_k. Its value at the end point is concave, held as the
    value at 0 and the length at each slope; each gap adds slope -F_k over
    2 L_k and trims L_k off both ends (the "slope trick"), in an array over
    the sorted distinct slopes. Integer masses keep equal slopes equal.
    """
    arrays = [np.asarray(v, dtype=float) for v in (xa, wa, xb, wb)]
    xa, wa, xb, wb = arrays
    if not (xa.ndim == xb.ndim == 1 and xa.shape == wa.shape
            and xb.shape == wb.shape and len(xa) and len(xb)):
        raise DimensionError(f"need two nonempty atom sets with one mass "
                             f"per atom, got shapes {[v.shape for v in arrays]}")
    total = float(wa.sum())
    if not (all(np.all(np.isfinite(v)) for v in arrays)
            and min(wa.min(), wb.min()) >= 0
            and total > 0 and abs(total - wb.sum()) <= 1e-9 * total):
        raise DimensionError("atoms and masses must be finite and the masses "
                             "nonnegative with equal positive totals")
    z = np.concatenate([xa, xb])
    order = np.argsort(z, kind="stable")
    F = np.cumsum(np.concatenate([wa, -wb])[order])[:-1]
    # a step longer than TRUNCATION cannot be taken inside [0, TRUNCATION]
    L = np.minimum(np.diff(z[order]), TRUNCATION)
    moves = L > 0
    # slope 0 over the whole range is the start, V = 0 on [0, TRUNCATION]
    slopes, rank = (a.tolist() for a in np.unique(
        np.concatenate([[0.0], -F[moves]]), return_inverse=True))
    lens = [0.0] * len(slopes)
    lo = hi = rank[0]
    lens[hi], v0 = TRUNCATION, 0.0
    for k, gap in zip(rank[1:], L[moves].tolist()):
        lens[k] += 2.0 * gap
        if k > hi:
            hi = k
        elif k < lo:
            lo = k
        v0 -= slopes[k] * gap       # the left end moved out to -gap
        r = gap                     # trim the left end, the largest slopes
        while lens[hi] <= r:
            v0 += slopes[hi] * lens[hi]
            r -= lens[hi]
            lens[hi] = 0.0
            hi -= 1
        lens[hi] -= r
        v0 += slopes[hi] * r
        r = gap                     # trim the right end, the smallest slopes
        while lens[lo] <= r:
            r -= lens[lo]
            lens[lo] = 0.0
            lo += 1
        lens[lo] -= r
    return (v0 + sum(s * ln for s, ln in zip(slopes, lens) if s > 0)) / total


def w1_config_bruteforce(X: Configuration, Y: Configuration,
                         spec: CostSpec = BOUNDED_L1) -> float:
    """Exhaustive minimum over all N! relabelings (oracle, N <= 9), every
    relabeling's mean cost taken in one gather."""
    n = X.n_particles
    if n > 9:
        raise SizeError(f"factorial oracle limited to N <= 9, got {n}")
    costs = _relabeling_costs(X, Y, spec)
    perms = np.fromiter(itertools.chain.from_iterable(
        itertools.permutations(range(n))), dtype=np.intp,
        count=n * math.factorial(n)).reshape(-1, n)
    return float(costs[np.arange(n), perms].mean(axis=1).min())


def _transport_lps(problems) -> list[TransportPlan]:
    """Exact transportation LPs (costs, w_src, w_tgt), all solved as one
    block-diagonal LP via HiGHS.

    The blocks share no variable and no constraint, so the joint optimum
    is optimal in every block. Each block's cost is read as c_b . x_b (with
    one block, the LP's objective) and its plan is validated. The edge
    budget holds for the whole LP.
    """
    if not problems:
        return []
    edges = sum(costs.size for costs, _, _ in problems)
    if edges > _LP_EDGE_BUDGET:
        raise SizeError(f"LP would have {edges} edges "
                        f"(budget {_LP_EDGE_BUDGET}); reduce the instance")
    # per block, equality constraints: row sums = w_src, col sums = w_tgt
    # (drop one, it is implied by equal totals); flow (i, jj) of a block at
    # offset off is variable off + i*m + jj
    cols, lens, b, off = [], [], [], 0
    for costs, w_src, w_tgt in problems:
        n, m = costs.shape
        flows = off + np.arange(n * m).reshape(n, m)
        cols += [flows.ravel(), flows[:, :-1].T.ravel()]
        lens += [np.full(n, m), np.full(m - 1, n)]
        b += [w_src, w_tgt[:-1]]
        off += n * m
    lens = np.concatenate(lens)
    cols = np.concatenate(cols)
    A = csr_matrix((np.ones(len(cols)), cols,
                    np.concatenate([[0], np.cumsum(lens)])),
                   shape=(len(lens), off))
    res = linprog(np.concatenate([c.ravel() for c, _, _ in problems]),
                  A_eq=A, b_eq=np.concatenate(b),
                  bounds=(0, None), method="highs-ds",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if not res.success:
        raise SizeError(f"transport LP failed: {res.message}")
    plans, off = [], 0
    for costs, w_src, w_tgt in problems:
        x = res.x[off:off + costs.size]
        off += costs.size
        cost = (float(res.fun) if len(problems) == 1
                else float(costs.ravel() @ x))
        flow = x.reshape(costs.shape)
        i, jj = np.nonzero(flow > 1e-15)
        plan = TransportPlan(np.column_stack([i, jj, flow[i, jj]]), cost,
                             w_src.copy(), w_tgt.copy())
        plan.validate(costs)
        plans.append(plan)
    return plans


def _transport_lp(costs: np.ndarray, w_src: np.ndarray,
                  w_tgt: np.ndarray) -> TransportPlan:
    """Exact transportation LP via HiGHS: one block of ``_transport_lps``."""
    return _transport_lps([(costs, w_src, w_tgt)])[0]


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


def w1_discrete_batch(pairs, spec: CostSpec = BOUNDED_L1) -> list[float]:
    """Exact optimal cost of the transportation problem of each pair
    (mu, nu).

    The cost is W1 for the bounded cost and the squared normalized W2 for
    the quadratic cost. Measures on the line take ``w1_line`` under the
    bounded cost and the quantile coupling under the quadratic cost, other
    equal-size uniform pairs the exact assignment, and all the rest one
    block-diagonal LP.
    """
    out, lps, at = [0.0] * len(pairs), [], []
    for k, (mu, nu) in enumerate(pairs):
        mu = mu.merged()
        nu = nu.merged()
        if mu.dim == nu.dim == 1 and spec.kind == "bounded_l1":
            out[k] = w1_line(mu.points[:, 0], mu.weights,
                             nu.points[:, 0], nu.weights)
            continue
        costs = cost_matrix(mu, nu, spec)
        n, m = costs.shape
        if mu.dim == 1:
            out[k] = _quantile_plan(costs, mu, nu).cost
        elif (n == m and np.allclose(mu.weights, 1.0 / n, atol=1e-12)
              and np.allclose(nu.weights, 1.0 / m, atol=1e-12)):
            rows, cols = linear_sum_assignment(costs)
            out[k] = float(costs[rows, cols].mean())
        else:
            lps.append((costs, mu.weights, nu.weights))
            at.append(k)
    for k, plan in zip(at, _transport_lps(lps)):
        out[k] = plan.cost
    return out


def w1_discrete(mu: DiscreteMeasure, nu: DiscreteMeasure,
                spec: CostSpec = BOUNDED_L1) -> float:
    """``w1_discrete_batch`` of the one pair (mu, nu)."""
    return w1_discrete_batch([(mu, nu)], spec)[0]


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


def tensorization_check(draws) -> np.ndarray:
    """Both sides of three identities for each draw (f, g, h), independently:

        W1(f^2, g^2) = W1(f, g),  W1(f^3, g^3) = W1(f, g)  and
        2 W1(f x h, g x h) = W1(f, g),

    powers and x being tensor products. Returns shape (len(draws), 3, 2):
    per draw and identity, (lhs, rhs). The left sides are the distances on
    the materialized product spaces with the normalized cost, the right
    side the distance on the base space; all are solved in one
    ``w1_discrete_batch`` call, so the product-space LPs are one LP.
    """
    pairs = []
    for f, g, h in draws:
        pairs += [(product_measure(f, f), product_measure(g, g)),
                  (product_measure(f, f, f), product_measure(g, g, g)),
                  (product_measure(f, h), product_measure(g, h)), (f, g)]
    w = np.array(w1_discrete_batch(pairs, BOUNDED_L1)).reshape(-1, 4)
    lhs = w[:, :3] * [1.0, 1.0, 2.0]
    return np.stack([lhs, np.repeat(w[:, 3:], 3, axis=1)], axis=-1)
