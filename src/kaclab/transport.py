"""Exact optimal transport on configurations and discrete measures.

There is one cost: the normalized bounded distance, the average over
particles of the euclidean distance truncated at ``TRUNCATION``. On the
line, weighted measures take one exact routine, ``w1_line``, a sorted
scan over the Kantorovich-Rubinstein dual. The assignment solver, exact
for equal-size uniform empirical measures and the path for d > 1, and the
general transportation LP, which covers everything else, are its
oracles. Every LP is a min-cost flow, solved and checked by one routine,
``_min_cost_flows`` (HiGHS): a transportation problem is the flow on the
complete bipartite graph between the two atom sets. Where the cost is a
graph's shortest-path metric, as on a product of finite alphabets, W1 is
the min-cost flow over the graph's own arcs (``_graph_w1``), one column
per arc instead of one per pair of atoms. The quadratic cost enters only
on the line, where ``w2_line`` gives the exact W2 from the quantile
(north-west corner) coupling, for the moment interpolation between W1
and W2; configurations and measures off the line have no quadratic cost.
Entropic or otherwise regularized
solvers are deliberately absent from all correctness paths.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import csr_matrix

from .core import (Configuration, DimensionError, DiscreteMeasure, SizeError)

__all__ = [
    "cost_matrix",
    "w1_config",
    "w1_config_bruteforce",
    "w1_line",
    "w2_line",
    "w1_discrete",
    "w1_discrete_batch",
    "tensorization_check",
    "product_measure",
    "TRUNCATION",
]

_LP_EDGE_BUDGET = 1_200_000
_PRODUCT_ATOM_BUDGET = 100_000
# absolute slack of a flow's arc values and node divergences, and of the
# summed block costs against the LP objective (relative to
# max(1, |objective|))
_PLAN_TOL = 1e-10

# The bounded cost caps each particle's distance at this value.
TRUNCATION = 1.0


def _ground_cost(diff: np.ndarray) -> np.ndarray:
    """Per-particle bounded cost of displacements diff of shape (..., d)."""
    dist = (np.abs(diff[..., 0]) if diff.shape[-1] == 1
            else np.sqrt(np.sum(diff ** 2, axis=-1)))
    return np.minimum(dist, TRUNCATION)


def cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    """Pairwise normalized bounded cost between atoms of mu and nu."""
    if mu.dim != nu.dim or mu.particle_dim != nu.particle_dim:
        raise DimensionError("measures must share dim and particle_dim")
    j, d = mu.j, mu.particle_dim
    total = np.zeros((mu.n_atoms, nu.n_atoms))
    for b in range(j):
        sl = slice(b * d, (b + 1) * d)
        total += _ground_cost(mu.points[:, None, sl] - nu.points[None, :, sl])
    return total / j


def _relabeling_costs(X: Configuration, Y: Configuration) -> np.ndarray:
    """Ground cost of every particle pair (X_i, Y_k); X and Y must share
    d and N."""
    if (X.d, X.n_particles) != (Y.d, Y.n_particles):
        raise DimensionError("configurations must share d and N")
    return _ground_cost(X.particles[:, None] - Y.particles[None])


def w1_config(X: Configuration, Y: Configuration) -> tuple[float, np.ndarray]:
    """Minimum over particle relabelings of the normalized cost.

    Solved exactly by min-cost assignment; equals the transport distance
    between the two empirical measures. Returns (cost, permutation) with
    Y reindexed by the permutation matching X order.
    """
    n = X.n_particles
    costs = _relabeling_costs(X, Y)
    rows, cols = linear_sum_assignment(costs)
    perm = cols[np.argsort(rows)]
    return float(costs[np.arange(n), perm].mean()), perm


def _line_atoms(xa, wa, xb, wb):
    """The atoms and masses of a transport problem on the line as float
    arrays, and the total mass; raises unless both atom sets are nonempty
    with one mass per atom, all finite, the masses nonnegative and the
    totals equal and positive."""
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
    return xa, wa, xb, wb, total


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
    xa, wa, xb, wb, total = _line_atoms(xa, wa, xb, wb)
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


def w2_line(xa, wa, xb, wb) -> float:
    """Exact W2 under the quadratic cost (x - y)^2, per unit mass, between
    atoms xa of masses wa and xb of masses wb on the line (the input of
    ``w1_line``).

    The quantile (north-west corner) coupling is optimal for every convex
    cost of x - y: the sorted atoms' cumulative masses are merged, and
    each interval between consecutive breakpoints carries its mass from
    the atom of xa to the atom of xb whose cumulative mass first exceeds
    the interval's left end. Repeated and massless atoms need no merge.
    """
    xa, wa, xb, wb, total = _line_atoms(xa, wa, xb, wb)
    a = np.argsort(xa, kind="stable")
    b = np.argsort(xb, kind="stable")
    ca = np.clip(np.cumsum(wa[a])[:-1] / total, 0.0, 1.0)
    cb = np.clip(np.cumsum(wb[b])[:-1] / float(wb.sum()), 0.0, 1.0)
    cuts = np.unique(np.concatenate([[0.0, 1.0], ca, cb]))
    i = a[np.searchsorted(ca, cuts[:-1], side="right")]
    j = b[np.searchsorted(cb, cuts[:-1], side="right")]
    return math.sqrt(float(np.sum(np.diff(cuts) * (xa[i] - xb[j]) ** 2)))


def w1_config_bruteforce(X: Configuration, Y: Configuration) -> float:
    """Exhaustive minimum over all N! relabelings (oracle, N <= 9), every
    relabeling's mean cost taken in one gather."""
    n = X.n_particles
    if n > 9:
        raise SizeError(f"factorial oracle limited to N <= 9, got {n}")
    costs = _relabeling_costs(X, Y)
    perms = np.fromiter(itertools.chain.from_iterable(
        itertools.permutations(range(n))), dtype=np.intp,
        count=n * math.factorial(n)).reshape(-1, n)
    return float(costs[np.arange(n), perms].mean(axis=1).min())


def _min_cost_flows(graphs) -> list[float]:
    """Exact least costs of min-cost flow problems (tails, heads, lengths,
    supply), one per connected graph, all solved as one block-diagonal LP
    via HiGHS.

    A graph's problem is the least lengths . x over flows x >= 0 on its
    arcs, the arc k running from node tails[k] to heads[k], whose
    divergence (outflow minus inflow) at each node equals supply, whose
    total is 0. Blocks share no variable and no constraint, so the joint
    optimum is optimal in every block. One LP column per arc, one row per
    node but each graph's last, which the zero total implies. The flow is
    checked once for all blocks: no flow below -``_PLAN_TOL``, every
    node's divergence within ``_PLAN_TOL`` of its supply, and the blocks'
    costs summing to the LP objective within ``_PLAN_TOL`` max(1,
    |objective|). The edge budget holds for the whole LP.

    HiGHS runs the dual simplex at 1e-10 feasibility tolerances; presolve
    is off, as on these LPs it only costs time and memory and the optimum
    does not depend on it. ``SizeError`` unless it succeeds.
    """
    if not graphs:
        return []
    edges = sum(len(lengths) for _, _, lengths, _ in graphs)
    if edges > _LP_EDGE_BUDGET:
        raise SizeError(f"LP would have {edges} edges "
                        f"(budget {_LP_EDGE_BUDGET}); reduce the instance")
    # node v of a graph whose nodes start at offset off is node off + v of
    # the stacked graphs; the LP keeps every node's row but each graph's
    # last
    tails, heads, last, off = [], [], [], 0
    for t, h, _, b in graphs:
        tails.append(t + off)
        heads.append(h + off)
        off += len(b)
        last.append(off - 1)
    tails, heads = np.concatenate(tails), np.concatenate(heads)
    supply = np.concatenate([b for _, _, _, b in graphs])
    keep = np.ones(off, dtype=bool)
    keep[last] = False
    A = csr_matrix((np.repeat([1.0, -1.0], edges),
                    (np.concatenate([tails, heads]),
                     np.tile(np.arange(edges), 2))), shape=(off, edges))
    lengths = np.concatenate([c for _, _, c, _ in graphs])
    res = linprog(lengths, A_eq=A[keep], b_eq=supply[keep],
                  bounds=(0, None), method="highs-ds",
                  options={"presolve": False,
                           "primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if not res.success:
        raise SizeError(f"transport LP failed: {res.message}")
    x = res.x
    if np.any(x < -_PLAN_TOL):
        raise DimensionError("flow is negative on an arc")
    divergence = np.bincount(tails, x, off) - np.bincount(heads, x, off)
    if np.max(np.abs(divergence - supply)) > _PLAN_TOL:
        raise DimensionError("flow divergence differs from the supply")
    cuts = np.cumsum([0] + [len(c) for _, _, c, _ in graphs])
    out = [float(lengths[a:b] @ x[a:b]) for a, b in zip(cuts, cuts[1:])]
    if abs(sum(out) - res.fun) > _PLAN_TOL * max(1.0, abs(res.fun)):
        raise DimensionError("flow costs inconsistent with the LP objective")
    return out


def _transport_lps(problems) -> list[float]:
    """Exact optimal costs of transportation problems (costs, w_src,
    w_tgt), as min-cost flows on complete bipartite graphs: source i of
    an n x m block is node i with supply w_src[i], target j node n + j
    with supply -w_tgt[j], and the arc i -> n + j has length costs[i, j],
    so its flow is the plan's cell (i, j)."""
    graphs = []
    for costs, w_src, w_tgt in problems:
        n, m = costs.shape
        graphs.append((np.repeat(np.arange(n), m),
                       np.tile(n + np.arange(m), n), costs.ravel(),
                       np.concatenate([w_src, -w_tgt])))
    return _min_cost_flows(graphs)


def _graph_w1(tails: np.ndarray, heads: np.ndarray, lengths: np.ndarray,
              p: np.ndarray, q: np.ndarray) -> float:
    """Exact W1 between masses p and q on the nodes 0..n-1 of a connected
    graph under its shortest-path metric, the arc from tails[k] to
    heads[k] having length lengths[k] >= 0.

    By Beckmann's formulation this is the min-cost flow with supply p - q
    (``_min_cost_flows``). A graph with no arcs has one node, and no mass
    moves.
    """
    if not len(lengths):
        return 0.0
    [cost] = _min_cost_flows([(tails, heads, lengths, p - q)])
    return cost


def w1_discrete_batch(pairs) -> list[float]:
    """Exact W1 between the measures of each pair (mu, nu).

    Measures on the line take ``w1_line``, other equal-size uniform pairs
    the exact assignment, and all the rest one block-diagonal LP. The
    measures are taken as given: an atom split in two, or repeated, is the
    same law and changes no route's value, so nothing is merged.
    """
    out, lps, at = [0.0] * len(pairs), [], []
    for k, (mu, nu) in enumerate(pairs):
        if mu.dim == nu.dim == 1:
            out[k] = w1_line(mu.points[:, 0], mu.weights,
                             nu.points[:, 0], nu.weights)
            continue
        costs = cost_matrix(mu, nu)
        n, m = costs.shape
        if (n == m and np.allclose(mu.weights, 1.0 / n, atol=1e-12)
                and np.allclose(nu.weights, 1.0 / m, atol=1e-12)):
            rows, cols = linear_sum_assignment(costs)
            out[k] = float(costs[rows, cols].mean())
        else:
            lps.append((costs, mu.weights, nu.weights))
            at.append(k)
    for k, cost in zip(at, _transport_lps(lps)):
        out[k] = cost
    return out


def w1_discrete(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """``w1_discrete_batch`` of the one pair (mu, nu)."""
    return w1_discrete_batch([(mu, nu)])[0]


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
    w = np.array(w1_discrete_batch(pairs)).reshape(-1, 4)
    lhs = w[:, :3] * [1.0, 1.0, 2.0]
    return np.stack([lhs, np.repeat(w[:, 3:], 3, axis=1)], axis=-1)
