"""Named experiment suites, one per acceptance criterion.

Each experiment draws everything from one seed, emits tabular rows plus
power-law fits, and evaluates its assertions at the tolerances pinned
below. The CLI and the acceptance test suite both run these functions; the
CLI only adds argument parsing and serialization on top.
"""
from __future__ import annotations

import functools
import math
import os
import time
import warnings
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy.special import kv

from . import chaos, clt, information, kacsphere, mixtures, sobolev, transport
from .core import (QUAD_SIGMA_CUTOFF, Configuration, Density,
                   DiscreteMeasure, GridDensity, KaclabError,
                   ProductGridDensity, bimodal_density, gauss_quadrature,
                   gaussian_density, loglog_fit, normal_pdf, uniform_density)

__all__ = [
    "ExperimentConfig",
    "Assertion",
    "ExperimentResult",
    "EXPERIMENTS",
    "run_experiment",
    "resolve_density",
    "DENSITIES",
    "sphere_table",
]

GAUSS_ENTROPY = -0.5 * math.log(2.0 * math.pi * math.e)   # int g log g


@dataclass
class ExperimentConfig:
    experiment: str = ""
    density: str = "bimodal"
    ns: list | None = None
    mc_reps: int | None = None
    seed: int = 424242
    s: float = 1.0
    k: float = 4.0
    output: str | None = None
    format: str = "csv"

    def rng(self, salt: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, salt]))


@dataclass(frozen=True)
class Assertion:
    name: str
    passed: bool
    detail: str


@dataclass
class ExperimentResult:
    name: str
    rows: list = field(default_factory=list)
    fits: dict = field(default_factory=dict)
    assertions: list = field(default_factory=list)
    elapsed: float = 0.0
    config: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def add_row(self, N, quantity, value, stderr=0.0, meta=""):
        self.rows.append({"experiment": self.name, "N": N,
                          "quantity": quantity, "value": float(value),
                          "stderr": float(stderr), "meta": meta})

    def check(self, name, passed, detail=""):
        self.assertions.append(Assertion(name, bool(passed), detail))


# the names resolve_density accepts
DENSITIES = ("gaussian", "uniform", "bimodal")


def resolve_density(name: str) -> Density:
    if name == "gaussian":
        return gaussian_density()
    if name == "uniform":
        return uniform_density(-math.sqrt(3.0), math.sqrt(3.0))
    if name == "bimodal":
        return bimodal_density()
    raise ValueError(f"unknown density {name!r}")


# ---------------------------------------------------------------------------
# partition-table cache (in-process memo plus binary disk cache)
# ---------------------------------------------------------------------------

_TABLE_MEMO: dict = {}


def sphere_table(f: Density, max_N: int, ks) -> kacsphere.PartitionTable:
    """The table for (f, max_N, ks): from memory, else from the disk cache,
    else built and saved. A cache file that is unreadable or holds another
    table is rebuilt, and a failed save is skipped, each with a
    RuntimeWarning that names the file."""
    key = (f.name, max_N, tuple(sorted(set(int(k) for k in ks))))
    if key in _TABLE_MEMO:
        return _TABLE_MEMO[key]
    path = kacsphere.cache_path(f.name, max_N, ks)
    if os.path.exists(path):
        try:
            table = kacsphere.load_table(path)
        except (OSError, KaclabError) as exc:
            warnings.warn(f"rebuilding unreadable cache file {path}: {exc}",
                          RuntimeWarning, stacklevel=2)
        else:
            if (table.density_name, table.max_N) == (f.name, max_N):
                _TABLE_MEMO[key] = table
                return table
            warnings.warn(
                f"rebuilding cache file {path}: its header names "
                f"{table.density_name} with max_N = {table.max_N}, not "
                f"{f.name} with max_N = {max_N}", RuntimeWarning, stacklevel=2)
    table = kacsphere.build_partition_table(f, max_N, ks=key[2])
    try:
        kacsphere.save_table(table, path)
    except OSError as exc:
        warnings.warn(f"could not save cache file {path}: {exc}",
                      RuntimeWarning, stacklevel=2)
    _TABLE_MEMO[key] = table
    return table


def _rate_ks(ns):
    # theta_{N,1} and Z'_N(sqrt(N)) read only h^{*(N-1)} and h^{*N}
    return sorted({k for n in ns for k in (n - 1, n)})


# ---------------------------------------------------------------------------
# random discrete instances
# ---------------------------------------------------------------------------

def _random_discrete(rng, n_atoms, spread=2.0):
    pts = rng.uniform(-spread, spread, size=(n_atoms, 1))
    w = rng.dirichlet(np.ones(n_atoms))
    return DiscreteMeasure(1, pts, w)


# ---------------------------------------------------------------------------
# 1. exact identities
# ---------------------------------------------------------------------------

def run_identities(cfg: ExperimentConfig) -> ExperimentResult:
    res = ExperimentResult("identities")
    rng = cfg.rng(1)
    tol = 1e-9

    draws = []
    for _ in range(12):
        f = _random_discrete(rng, int(rng.integers(2, 4)))
        g = _random_discrete(rng, int(rng.integers(2, 4)))
        draws.append((f, g, _random_discrete(rng, 2)))
    sides = transport.tensorization_check(draws)
    worst = float(np.max(np.abs(sides[..., 0] - sides[..., 1])))
    res.add_row(0, "tensorization_max_abs_err", worst)
    res.check("tensor power and pair-tensor identities (<= 1e-9)",
              worst <= tol, f"max |lhs - rhs| = {worst:.2e}")

    worst = 0.0
    cases = [(2, 7), (3, 5), (2, 6)]
    for S, N in cases:
        F = chaos.symmetric_pmf(S, N, rng)
        G = chaos.symmetric_pmf(S, N, rng)
        lhs, rhs = chaos.pushforward_identity_exact(F, G)
        worst = max(worst, abs(lhs - rhs))
        res.add_row(N, f"pushforward_gap_S{S}", abs(lhs - rhs))
    # product laws: both routes must land on the base distance
    p = np.array([0.3, 0.7])
    q = np.array([0.6, 0.4])
    N = 5
    F = functools.reduce(np.multiply.outer, [p] * N)
    G = functools.reduce(np.multiply.outer, [q] * N)
    lhs, rhs = chaos.pushforward_identity_exact(F, G)
    base = transport.w1_discrete(
        DiscreteMeasure(1, np.array([[0.0], [1.0]]), p),
        DiscreteMeasure(1, np.array([[0.0], [1.0]]), q))
    worst = max(worst, abs(lhs - rhs), abs(lhs - base))
    res.add_row(N, "pushforward_product_gap", max(abs(lhs - rhs),
                                                  abs(lhs - base)))
    res.check("full-space vs quotient transport equality (<= 1e-9)",
              worst <= tol, f"max gap = {worst:.2e}")

    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(2, 8))
        d = 1 if rng.random() < 0.8 else 2
        X = Configuration(d, n, rng.normal(size=n * d))
        Y = Configuration(d, n, rng.normal(size=n * d))
        fast, _ = transport.w1_config(X, Y)
        brute = transport.w1_config_bruteforce(X, Y)
        worst = max(worst, abs(fast - brute))
    res.add_row(0, "assignment_vs_bruteforce_max_err", worst)
    res.check("assignment equals factorial brute force, N <= 7 (<= 1e-9)",
              worst <= tol, f"max gap = {worst:.2e}")

    def grunbaum_cases():
        # drawn as grunbaum_exact takes them (it draws nothing itself), so
        # one pmf is held at a time, not all 200
        for _ in range(200):
            S = int(rng.integers(2, 4))
            N = int(rng.integers(4, 11))
            pmf = chaos.symmetric_pmf(S, N, rng)
            j = int(rng.integers(2, 4)) if N >= 6 else 2
            yield pmf, 1
            yield pmf, j
    results = chaos.grunbaum_exact(grunbaum_cases())
    worst_j1 = max(0.0, *(tv1 for tv1, _, _, _ in results[0::2]))
    n_tv_viol = 0
    n_w1_viol = 0
    worst_ratio = 0.0
    for tv, bound, w1, w1_bound in results[1::2]:
        if tv > bound + tol:
            n_tv_viol += 1
        if w1 > w1_bound + tol:
            n_w1_viol += 1
        worst_ratio = max(worst_ratio, w1 / w1_bound if w1_bound else 0.0)
    res.add_row(0, "grunbaum_j1_tv_max", worst_j1)
    res.add_row(0, "grunbaum_w1_over_bound_max", worst_ratio)
    res.check("first marginals equal exactly (j = 1)", worst_j1 <= tol,
              f"max tv = {worst_j1:.2e}")
    res.check("tv <= 2 j (j-1) / N over 200 symmetric pmfs", n_tv_viol == 0,
              f"{n_tv_viol} violations")
    res.check("transport <= j (j-1) / N over the same pmfs", n_w1_viol == 0,
              f"{n_w1_viol} violations; observed max ratio "
              f"{worst_ratio:.3f} of the displayed equality")
    return res


# ---------------------------------------------------------------------------
# 2. kernel and metric oracles
# ---------------------------------------------------------------------------

def run_kernel_oracles(cfg: ExperimentConfig) -> ExperimentResult:
    res = ExperimentResult("kernel-oracles")
    rng = cfg.rng(2)

    # independent of sobolev's closed forms: the Matern form through kv,
    # and the value at 0 through gamma functions
    kern1 = sobolev.make_hs_kernel(1.0)
    zs = np.linspace(0.0, 20.0, 2001)[1:]
    matern = 2.0 * math.sqrt(math.pi) * np.sqrt(zs / 2.0) * kv(0.5, zs)
    err = float(np.max(np.abs(sobolev.phi_s(zs, kern1) - matern)))
    res.add_row(0, "phi1_vs_closed_form_sup", err)
    res.check("s = 1 kernel matches pi e^{-|z|} on |z| <= 20 (1e-6)",
              err <= 1e-6, f"sup err = {err:.2e}")
    kern2 = sobolev.make_hs_kernel(2.0)
    err0 = abs(kern2.phi0 - math.sqrt(math.pi) * math.gamma(1.5)
               / math.gamma(2.0))
    res.add_row(0, "phi2_zero_value_err", err0)
    res.check("s = 2 kernel value at 0 equals pi/2 (1e-6)", err0 <= 1e-6,
              f"err = {err0:.2e}")

    kernels = {1.0: kern1, 1.5: sobolev.make_hs_kernel(1.5), 2.0: kern2}
    worst_rel = 0.0
    for t in range(50):
        s = [1.0, 1.5, 2.0][t % 3]
        na, nb = int(rng.integers(3, 16)), int(rng.integers(3, 16))
        mu = DiscreteMeasure(1, rng.uniform(-4, 4, (na, 1)),
                             np.full(na, 1.0 / na))
        nu = DiscreteMeasure(1, rng.uniform(-4, 4, (nb, 1)),
                             np.full(nb, 1.0 / nb))
        direct = sobolev.hs_dist_sq(mu, nu, kernels[s])
        oracle = sobolev.hs_dist_sq_fourier_oracle(mu, nu, s)
        rel = abs(direct - oracle) / max(abs(oracle), 1e-12)
        worst_rel = max(worst_rel, rel)
    res.add_row(0, "hs_vs_fourier_oracle_max_rel", worst_rel)
    res.check("kernel double sum matches Fourier quadrature (1e-4 rel, 50 pairs)",
              worst_rel <= 1e-4, f"max rel err = {worst_rel:.2e}")

    k = cfg.k
    n_order = 0
    n_interp = 0
    for _ in range(500):
        mu = _random_discrete(rng, int(rng.integers(2, 7)), spread=3.0)
        nu = _random_discrete(rng, int(rng.integers(2, 7)), spread=3.0)
        w1 = transport.w1_discrete(mu, nu)
        w2 = transport.w2_line(mu.points[:, 0], mu.weights,
                               nu.points[:, 0], nu.weights)
        if w1 > w2 + 1e-10:
            n_order += 1
        mk = mu.moment(k) + nu.moment(k)
        bound = 2.0 ** 1.5 * mk ** (1.0 / k) * w1 ** (0.5 - 1.0 / k)
        if w2 > bound + 1e-10:
            n_interp += 1
    res.add_row(0, "w1_le_w2_violations", n_order)
    res.add_row(0, "moment_interpolation_violations", n_interp)
    res.check("W1 <= W2 over 500 random pairs", n_order == 0,
              f"{n_order} violations")
    res.check(f"W2 <= 2^{{3/2}} M_k^{{1/k}} W1^{{1/2 - 1/k}} (k = {k:g}) over "
              "500 pairs",
              n_interp == 0, f"{n_interp} violations")
    return res


# ---------------------------------------------------------------------------
# 3. sphere marginal and projection rates
# ---------------------------------------------------------------------------

def run_poincare(cfg: ExperimentConfig) -> ExperimentResult:
    res = ExperimentResult("poincare-rate")
    t_start = time.perf_counter()
    ns = cfg.ns or [16, 32, 64, 128, 256, 512]

    viol = []
    for N in range(8, 257):
        l1 = kacsphere.marginal_gauss_l1(N, 1)
        if l1 > 8.0 / (N - 4) + 1e-9:
            viol.append(N)
        if N in (8, 16, 32, 64, 128, 256):
            res.add_row(N, "sigma1_gauss_l1", l1, 0.0, f"bound={8/(N-4):.4f}")
    res.check("marginal L1 distance <= 8/(N-4) for N in 8..256",
              not viol, f"violations at N = {viol[:8]}")

    vals = [kacsphere.radial_projection_cost(N) for N in ns]
    for N, v in zip(ns, vals):
        res.add_row(N, "radial_projection_l1", v)
    fit = loglog_fit(ns, vals)
    res.fits["radial_projection_slope"] = fit.fitted_slope
    res.check("radial projection cost slope in (-0.65, -0.35)",
              -0.65 < fit.fitted_slope < -0.35,
              f"slope = {fit.fitted_slope:.3f}")

    gauss = gaussian_density()
    sampler = chaos.sigma_sampler()
    coupled = []
    for N in ns:
        est = chaos.omega_n(sampler, gauss, N, cfg.mc_reps or 120,
                            cfg.rng(500 + N))
        coupled.append(est.value)
        res.add_row(N, "omega_N_coupled_upper", est.value, est.stderr)
    cfit = loglog_fit(ns, coupled)
    res.fits["omega_N_coupled_slope"] = cfit.fitted_slope
    res.check("coupled full-space bound decays with slope <= -0.35",
              cfit.fitted_slope <= -0.35, f"slope = {cfit.fitted_slope:.3f}")
    elapsed = time.perf_counter() - t_start
    res.check("suite runtime within the three-minute budget",
              elapsed <= 180.0, f"{elapsed:.1f}s")
    return res


# ---------------------------------------------------------------------------
# 4. local CLT rates
# ---------------------------------------------------------------------------

def _clt_density(name: str) -> Density:
    """A clt-rate base: a standardized density with a closed-form cf."""
    return (bimodal_density(weights=(0.7, 0.3)) if name == "skew-bimodal"
            else resolve_density(name))


def run_clt(cfg: ExperimentConfig) -> ExperimentResult:
    res = ExperimentResult("clt-rate")
    ns = cfg.ns or [4, 8, 16, 32, 64, 128, 256, 512]

    g = _clt_density("gaussian")
    worst = max(clt.sup_error(clt.iterate_clt_cf(g, n)) for n in ns)
    res.add_row(0, "gaussian_fixed_point_sup", worst)
    res.check("gaussian base sup error <= 1e-5 at all N", worst <= 1e-5,
              f"max sup err = {worst:.2e}")

    base_small = clt.standardize(GridDensity.from_density(
        _clt_density("uniform"), 12.0, 8192))
    agree = 0.0
    for n in (2, 3):
        freq = clt.iterate_clt(base_small, n)
        real = clt.iterate_clt_realspace(base_small, n)
        agree = max(agree, float(np.max(np.abs(freq.values - real.values))))
    res.add_row(0, "real_vs_frequency_sup", agree)
    res.check("real-space and frequency-space convolutions agree (1e-6)",
              agree <= 1e-6, f"sup gap = {agree:.2e}")

    for name in ("uniform", "bimodal", "skew-bimodal"):
        run = clt.clt_rate_run(_clt_density(name), ns, name)
        for N, e in zip(run.ns, run.sup_errors):
            res.add_row(N, f"sup_error_{name}", e)
        res.fits[f"{name}_slope"] = run.report.fitted_slope
        res.fits[f"{name}_bend"] = run.bend
        if name in ("uniform", "bimodal"):
            sl = run.report.fitted_slope
            res.check(f"{name} base sup-error slope in (-0.65, -0.35)",
                      -0.65 < sl < -0.35,
                      f"slope = {sl:.3f} (bend {run.bend:+.2f}); symmetric "
                      f"bases cancel the leading skew correction and decay "
                      f"one full order faster, see the skew control")
        else:
            tail = loglog_fit(run.ns[2:], run.sup_errors[2:])
            res.fits["skew_tail_slope"] = tail.fitted_slope
            res.add_row(0, "skew_tail_slope", tail.fitted_slope)

    du, kappa = clt.char_fn_bounds_check(_clt_density("uniform"))
    res.add_row(0, "uniform_cf_delta", du)
    res.add_row(0, "uniform_cf_kappa", kappa)
    res.check("uniform base cf bounds: delta > 0 and kappa < 1",
              du > 0 and kappa < 1, f"delta = {du:.3f}, kappa = {kappa:.3f}")
    return res


# ---------------------------------------------------------------------------
# 5. conditioned tensor products
# ---------------------------------------------------------------------------

def run_conditioned(cfg: ExperimentConfig) -> ExperimentResult:
    res = ExperimentResult("conditioned-products")
    ns = cfg.ns or [32, 64, 128, 256, 512, 1024]
    f = resolve_density(cfg.density)
    table = sphere_table(f, max(ns), _rate_ks(ns))

    l1s = []
    for N in ns:
        l1 = kacsphere.theta_l1_distance(f, N, table)
        l1s.append(l1)
        res.add_row(N, "theta_minus_one_l1", l1)
    fit = loglog_fit(ns, l1s)
    res.fits["theta_l1_slope"] = fit.fitted_slope
    res.check("marginal L1 distance slope <= -0.4", fit.fitted_slope <= -0.4,
              f"slope = {fit.fitted_slope:.3f}")

    gauss = gaussian_density()
    gtable = sphere_table(gauss, max(ns), _rate_ks(ns))
    worst = 0.0
    for N in (ns[0], ns[len(ns) // 2]):
        v = np.linspace(-6.0, 6.0, 1201)
        th = kacsphere.theta(N, 1, v[:, None], gtable)
        exact = kacsphere.sigma_marginal_pdf(N, 1, v[:, None]) / normal_pdf(v)
        worst = max(worst, float(np.max(np.abs(th - exact))))
        res.add_row(N, "gaussian_theta_consistency", worst)
    res.check("gaussian reference theta matches the sphere marginal (1e-3)",
              worst <= 1e-3, f"max gap = {worst:.2e}")

    # route cross-check: partition-ratio form vs convolution-ratio form
    N = ns[0]
    v = np.linspace(-5.0, 5.0, 801)
    a = kacsphere.theta(N, 1, v[:, None], table)
    b = kacsphere.theta_h_ratio(N, v, table)
    gap = float(np.max(np.abs(a - b)))
    res.add_row(N, "theta_route_crosscheck", gap)
    res.check("sphere-area route equals convolution-ratio route (1e-6)",
              gap <= 1e-6, f"max gap = {gap:.2e}")
    return res


# ---------------------------------------------------------------------------
# 6. entropy chaos rate
# ---------------------------------------------------------------------------

def run_entropy_chaos(cfg: ExperimentConfig) -> ExperimentResult:
    res = ExperimentResult("entropy-chaos")
    ns = cfg.ns or [32, 64, 128, 256, 512, 1024]
    gauss = gaussian_density()
    gtable = sphere_table(gauss, max(ns), _rate_ks(ns))
    ggap = max(kacsphere.entropy_chaos_gap(gauss, N, gtable)
               for N in (ns[0], ns[-1]))
    res.add_row(0, "gaussian_gap_max", ggap)
    res.check("gaussian reference gap vanishes (<= 1e-6)", ggap <= 1e-6,
              f"max gap = {ggap:.2e}")

    f = resolve_density("bimodal")
    table = sphere_table(f, max(ns), _rate_ks(ns))
    gaps = []
    for N in ns:
        gap = kacsphere.entropy_chaos_gap(f, N, table)
        gaps.append(gap)
        res.add_row(N, "entropy_gap", gap)
    fit = loglog_fit(ns, gaps)
    res.fits["entropy_gap_slope"] = fit.fitted_slope
    res.check("entropy gap slope in (-0.65, -0.35)",
              -0.65 < fit.fitted_slope < -0.35,
              f"slope = {fit.fitted_slope:.3f}; the partition-function "
              f"identity makes both 1/sqrt(N)-bounded terms cancel to "
              f"first order for smooth references, leaving a clean 1/N law")

    main0, _ = kacsphere.fisher_chaos_terms(f, ns[0], table)
    mainN, _ = kacsphere.fisher_chaos_terms(f, ns[-1], table)
    i_rel = information.relative_fisher(f, gauss).value
    res.add_row(ns[0], "fisher_main_term", main0, 0.0, f"target={i_rel:.6f}")
    res.add_row(ns[-1], "fisher_main_term", mainN, 0.0, f"target={i_rel:.6f}")
    res.check("fisher main term approaches the flat relative information",
              abs(mainN - i_rel) < abs(main0 - i_rel) + 1e-12
              and abs(mainN - i_rel) < 0.05,
              f"|main - target|: {abs(main0 - i_rel):.2e} -> "
              f"{abs(mainN - i_rel):.2e}")
    return res


# ---------------------------------------------------------------------------
# 7. information functional suite
# ---------------------------------------------------------------------------

def run_information(cfg: ExperimentConfig) -> ExperimentResult:
    res = ExperimentResult("information-suite")
    rng = cfg.rng(7)
    gauss = gaussian_density()

    h_g = information.entropy(gauss).value
    i_g = information.fisher(gauss).value
    res.add_row(0, "gaussian_entropy", h_g, 0.0, f"closed={GAUSS_ENTROPY:.7f}")
    res.add_row(0, "gaussian_fisher", i_g, 0.0, "closed=1")
    ok = abs(h_g - GAUSS_ENTROPY) <= 1e-6 and abs(i_g - 1.0) <= 1e-6
    res.check("gaussian closed forms to 1e-6", ok,
              f"entropy err {abs(h_g - GAUSS_ENTROPY):.2e}, fisher err "
              f"{abs(i_g - 1.0):.2e}")
    u01 = information.entropy(uniform_density(0.0, 1.0)).value
    usym = information.entropy(
        uniform_density(-math.sqrt(3.0), math.sqrt(3.0))).value
    g4 = information.fisher(gaussian_density(0.0, 4.0)).value
    rel = information.relative_entropy(gaussian_density(0.5), gauss).value
    ok = (abs(u01) <= 1e-8 and abs(usym + math.log(2 * math.sqrt(3.0))) <= 1e-8
          and abs(g4 - 0.25) <= 1e-8 and abs(rel - 0.125) <= 1e-7)
    res.check("uniform / scaled / relative closed forms", ok,
              f"u01={u01:.2e}, usym={usym:.6f}, fisher(var 4)={g4:.6f}, "
              f"rel={rel:.6f}")

    L, M = 10.0, 1024
    gf = GridDensity.from_density(gauss, L, M)
    pg = ProductGridDensity(L, M, np.outer(gf.values, gf.values))
    e1 = information.entropy(gf).value
    e2 = information.entropy(pg).value
    lhs2, _ = information.fisher_superadditivity_grid(pg)
    i1 = information.fisher(gf).value
    tens_err = max(abs(e2 - e1), abs(lhs2 / 2.0 - i1))
    # H(f x f x f) / 3 for the third tensor power, as a product of sums
    p = gf.values
    e3 = float(np.sum(information._xlogx(p)) * np.sum(p) ** 2
               * gf.spacing ** 3)
    tens_err = max(tens_err, abs(e3 - e1))
    res.add_row(0, "tensorization_max_err", tens_err)
    res.check("entropy/fisher tensorization equalities (1e-6)",
              tens_err <= 1e-6, f"max err = {tens_err:.2e}")

    n_viol = 0
    for t in range(1000):
        if t % 5 == 4:
            S, j_tot = 2, 3
            pmf = chaos.symmetric_pmf(S, j_tot, rng)
            pts = chaos.enumerate_configs(S, j_tot).astype(float)
            F = DiscreteMeasure(j_tot, pts, pmf.ravel())
            lhs, rhs = information.superadditivity_check(F, 1, 2)
        else:
            S = int(rng.integers(2, 4))
            raw = rng.dirichlet(np.ones(S * S)).reshape(S, S)
            sym = 0.5 * (raw + raw.T)
            pts = chaos.enumerate_configs(S, 2).astype(float)
            F = DiscreteMeasure(2, pts, sym.ravel())
            lhs, rhs = information.superadditivity_check(F, 1, 1)
        if lhs < rhs - 1e-10:
            n_viol += 1
    res.add_row(0, "superadditivity_violations", n_viol)
    res.check("entropy superadditivity, 1000 random symmetric laws",
              n_viol == 0, f"{n_viol} violations")

    n_viol = 0
    c_e = information.HWI_C_E
    for _ in range(50):
        f = gaussian_density(float(rng.uniform(-1, 1)),
                             float(rng.uniform(0.5, 2.0)))
        g = gaussian_density(float(rng.uniform(-1, 1)),
                             float(rng.uniform(0.5, 2.0)))
        lhs, rhs, vac = information.hwi_check(f, g)
        if not vac and lhs > rhs + 1e-6:
            n_viol += 1
    res.add_row(0, "hwi_violations", n_viol, 0.0, f"C_E={c_e}")
    res.check("transport-information inequality, 50 gaussian pairs",
              n_viol == 0, f"{n_viol} violations at C_E = {c_e}")

    est = information.entropy_knn(gauss.sampler(cfg.rng(71), 100_000))
    res.add_row(0, "knn_entropy_gaussian", est.value, est.stderr or 0.0)
    res.check("nearest-neighbor entropy within 0.05 of closed form",
              abs(est.value - GAUSS_ENTROPY) <= 0.05,
              f"err = {abs(est.value - GAUSS_ENTROPY):.3f}")
    return res


# ---------------------------------------------------------------------------
# 8. first-marginal counterexample
# ---------------------------------------------------------------------------

def run_counterexample(cfg: ExperimentConfig) -> ExperimentResult:
    res = ExperimentResult("omega1-counterexample")
    ns = cfg.ns or [32, 64, 128, 256, 512]
    report = chaos.omega1_counterexample(gaussian_density(),
                                         gaussian_density(2.0), ns)
    worst1, worst2 = 0.0, 1.0
    for N, (om1, om2) in report["estimates"].items():
        res.add_row(N, "omega_1", om1, meta="exact; independent of N")
        res.add_row(N, "omega_2", om2,
                    meta="exact lower bound; independent of N")
        worst1 = max(worst1, om1)
        worst2 = min(worst2, om2)
    res.check("one-variable quantifier stays at its floor (<= 0.02)",
              worst1 <= 0.02, f"max = {worst1:.4f}")
    res.check("two-variable quantifier stays separated (>= 0.05)",
              worst2 >= 0.05, f"min = {worst2:.4f}")
    res.check("reference is the half-half average density",
              report["reference_gap"] <= 1e-12,
              f"max pdf gap = {report['reference_gap']:.1e}")
    res.check("separation factor exceeds 5 at the largest N",
              worst2 > 5.0 * worst1, f"{worst2:.3f} vs 5 x {worst1:.3f}")
    return res


# ---------------------------------------------------------------------------
# 9. mixtures
# ---------------------------------------------------------------------------

def _gauss_pair_expectation_by_distance(var: float, kernel) -> float:
    """E Phi(|Y - Y'|), Y, Y' i.i.d. N(m, var): Phi against the half-normal
    law of variance 2 var, in t = sqrt(r) so that Phi's r^{2s-1} term at 0
    is smooth; the oracle of ``sobolev.hs_pair_expectation``."""
    sd = math.sqrt(2.0 * var)
    return gauss_quadrature(
        lambda t: (sobolev.phi_s(t * t, kernel) * 4.0 * t
                   * normal_pdf(t * t / sd) / sd),
        0.0, math.sqrt(QUAD_SIGMA_CUTOFF * sd), sobolev.PAIR_QUAD_TOL)


def run_mixtures(cfg: ExperimentConfig) -> ExperimentResult:
    res = ExperimentResult("mixtures")
    two = mixtures.Mixture(((0.5, gaussian_density(-3.0)),
                            (0.5, gaussian_density(3.0))))

    h3 = mixtures.level3_entropy(two)
    aff_err = abs(h3 - GAUSS_ENTROPY)
    pi_a = mixtures.Mixture(((0.25, gaussian_density(-3.0)),
                             (0.75, gaussian_density(3.0))))
    h3a = mixtures.level3_entropy(pi_a)
    aff_err = max(aff_err, abs(
        0.5 * h3a + 0.5 * mixtures.level3_entropy(mixtures.Mixture((
            (0.75, gaussian_density(-3.0)), (0.25, gaussian_density(3.0)))))
        - h3))
    res.add_row(0, "level3_affinity_err", aff_err)
    res.check("level-3 entropy is affine in the weights (1e-9)",
              aff_err <= 1e-9, f"err = {aff_err:.2e}")

    js = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64]
    # the values are exact; the checks keep their pinned names and are
    # judged within the curve's quadrature tolerance
    curve = mixtures.marginal_entropy_curve(two, js)
    for j, v in zip(curve.js, curve.values):
        res.add_row(j, "marginal_entropy", v)
    res.check("marginal entropies nondecreasing within 3 stderr",
              curve.monotone, f"tolerance = {curve.tolerance:.1e}")
    res.check("marginal entropies below the level-3 value within 3 stderr",
              curve.below_level3, f"level3 = {curve.level3:.6f}, "
              f"tolerance = {curve.tolerance:.1e}")
    sl = curve.gap_report.fitted_slope if curve.gap_report else math.nan
    res.fits["entropy_gap_vs_j_slope"] = sl
    res.check("two-atom gap exponent in (-1.2, -0.8)",
              curve.gap_report is not None and -1.2 < sl < -0.8,
              f"slope = {sl:.3f}")

    kern = sobolev.make_hs_kernel(cfg.s)
    # the probe's values are exact expectations; the checks keep their
    # pinned names
    probe = mixtures.definetti_cauchy_probe(
        two, cfg.ns or [16, 32, 64, 128, 256], kern)
    for N, v in zip(probe.ns, probe.values):
        res.add_row(N, "empirical_hs_sq", v, meta="exact expectation")
    res.fits["definetti_slope"] = probe.report.fitted_slope
    res.check("empirical squared-distance slope in (-1.1, -0.9)",
              -1.1 < probe.report.fitted_slope < -0.9,
              f"slope = {probe.report.fitted_slope:.3f}")
    res.check("uniform kernel bound 2 Phi(0)/N never violated",
              probe.bound_violations == 0,
              f"{probe.bound_violations} violations")

    single = mixtures.Mixture(((1.0, gaussian_density()),))
    ns = [16, 32, 64, 128]
    sp = mixtures.definetti_cauchy_probe(single, ns, kern)
    pair = _gauss_pair_expectation_by_distance(1.0, kern)
    gap = max(abs(v * N / (kern.phi0 - pair) - 1.0)
              for v, N in zip(sp.values, ns))
    # either route's p = E Phi(Y - Y') is off by at most its accepted
    # quadrature error 10 tol max(1, |p|), and |p| <= Phi(0)
    tol = (20.0 * sobolev.PAIR_QUAD_TOL * max(1.0, kern.phi0)
           / (kern.phi0 - pair))
    res.add_row(0, "single_atom_exact_rel_gap", gap)
    res.check("single atom matches the exact 1/N law within MC noise",
              gap <= tol, f"max rel gap = {gap:.1e}, tolerance = {tol:.1e}")
    return res


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

EXPERIMENTS = {
    "identities": (
        run_identities,
        "exact transport identities: tensor powers keep the base distance, "
        "pairing with a common factor halves it, the full-space and "
        "permutation-quotient optima agree, assignment equals brute force, "
        "and the marginal-vs-empirical gap obeys its combinatorial bound"),
    "kernel-oracles": (
        run_kernel_oracles,
        "negative-Sobolev kernel against closed forms and Fourier "
        "quadrature; distance ordering and moment interpolation between "
        "the truncated and quadratic transport costs"),
    "poincare-rate": (
        run_poincare,
        "uniform sphere marginals approach the gaussian in L1 like 1/N "
        "and the radial-projection coupling bounds the full transport "
        "distance by about 1/sqrt(N)"),
    "clt-rate": (
        run_clt,
        "sup-norm convergence of rescaled self-convolutions to the "
        "gaussian: fixed point to 1e-5, two independent convolution "
        "routes to 1e-6, decay rates fitted per base density"),
    "conditioned-products": (
        run_conditioned,
        "the first marginal of the sphere-conditioned tensor power "
        "approaches its base density in L1 at a fitted power rate; the "
        "gaussian case collapses to the bare sphere marginal"),
    "entropy-chaos": (
        run_entropy_chaos,
        "sphere relative entropy of conditioned tensor powers approaches "
        "the flat relative entropy via the partition-function identity"),
    "information-suite": (
        run_information,
        "entropy and Fisher functionals: closed forms, tensorization, "
        "superadditivity, the transport-information inequality, and the "
        "nearest-neighbor estimator"),
    "omega1-counterexample": (
        run_counterexample,
        "a half-half mixture of tensor powers fools the one-variable "
        "quantifier but not the two-variable one"),
    "mixtures": (
        run_mixtures,
        "level-3 functionals of finite mixtures: affinity, monotone "
        "marginal entropies with a 1/j gap, and the empirical "
        "negative-Sobolev Cauchy rate"),
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    if cfg.experiment not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {cfg.experiment!r}")
    fn, _ = EXPERIMENTS[cfg.experiment]
    t0 = time.perf_counter()
    result = fn(cfg)
    result.elapsed = time.perf_counter() - t0
    result.config = asdict(cfg)
    return result
