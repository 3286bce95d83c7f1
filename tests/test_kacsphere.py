import dataclasses
import math
import mmap
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate, optimize, stats

from kaclab import experiments, kacsphere
from kaclab.chaos import omega_j_sigma_quadrature, omega_n, sigma_sampler
from kaclab.core import (DimensionError, HypothesisError, KaclabError,
                         bimodal_density, gauss_quadrature,
                         gaussian_density, gaussian_mixture, uniform_density)
from kaclab.experiments import _rate_ks
from kaclab.kacsphere import (CACHE_ENV_VAR, PartitionTable,
                              build_partition_table, cache_path,
                              marginal_gauss_l1, entropy_chaos_gap,
                              fisher_chaos_terms, load_table,
                              radial_projection_cost, sample_conditioned,
                              sample_sigma, save_table,
                              sigma_marginal_log_pdf, sigma_marginal_pdf,
                              theta, theta_h_ratio, theta_l1_distance)


# ---------------------------------------------------------------------------
# uniform sphere law
# ---------------------------------------------------------------------------

def test_sample_sigma_on_sphere(rng):
    s = sample_sigma(12, 2000, rng)
    assert np.max(np.abs((s ** 2).sum(axis=1) - 12.0)) < 1e-9 * 12


def test_sample_sigma_second_moment(rng):
    s = sample_sigma(10, 100_000, rng)
    assert abs((s[:, 0] ** 2).mean() - 1.0) < 0.02


def test_sample_sigma_exponential_moment(rng):
    s = sample_sigma(10, 100_000, rng)
    assert np.exp(s[:, 0] ** 2 / 4.0).mean() <= 6.0


def test_marginal_pdf_disk_case():
    # two variables out of four: uniform on the radius-2 disk
    val = sigma_marginal_pdf(4, 2, np.array([[0.3, 0.4]]))[0]
    assert val == pytest.approx(1.0 / (4.0 * math.pi))
    mass, _ = integrate.quad(
        lambda r: sigma_marginal_pdf(4, 2, np.array([[r, 0.0]]))[0]
        * 2 * math.pi * r, 0, 2)
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_marginal_pdf_outside_ball_is_zero():
    assert sigma_marginal_pdf(6, 1, np.array([[2.5]]))[0] == 0.0


def test_marginal_pdf_rejects_bad_ell():
    with pytest.raises(DimensionError):
        sigma_marginal_pdf(4, 4, np.array([[0.0] * 4]))


@pytest.mark.parametrize("N,ell", [(10, 1), (10, 2), (50, 1)])
def test_marginal_mass_one(N, ell):
    if ell == 1:
        mass, _ = integrate.quad(
            lambda v: sigma_marginal_pdf(N, 1, np.array([[v]]))[0],
            -math.sqrt(N), math.sqrt(N), limit=200)
    else:
        mass, _ = integrate.quad(
            lambda r: sigma_marginal_pdf(N, 2, np.array([[r, 0.0]]))[0]
            * 2 * math.pi * r, 0, math.sqrt(N), limit=200)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_disintegration_consistency():
    N, v1 = 10, 0.7
    inner, _ = integrate.quad(
        lambda v2: sigma_marginal_pdf(N, 2, np.array([[v1, v2]]))[0],
        -math.sqrt(N - v1 ** 2), math.sqrt(N - v1 ** 2), limit=200)
    assert inner == pytest.approx(
        sigma_marginal_pdf(N, 1, np.array([[v1]]))[0], abs=1e-6)


@pytest.mark.parametrize("N", [8, 16, 64, 256])
def test_marginal_l1_bound(N):
    assert marginal_gauss_l1(N, 1) <= 8.0 / (N - 4) + 1e-9


def _marginal_l1_oracle(N, ell):
    """Quadrature of |Beta - chi^2| in u = |v|^2 over [0, N], split where
    the two densities cross, plus the chi^2 mass beyond N."""
    def diff(u):
        return (stats.beta.pdf(u / N, ell / 2, (N - ell) / 2) / N
                - stats.chi2.pdf(u, ell))

    grid = np.linspace(0.0, N, 4097)[1:-1]
    sign = np.sign(diff(grid))
    cuts = [optimize.brentq(diff, grid[i], grid[i + 1])
            for i in np.nonzero(sign[:-1] != sign[1:])[0]]
    pts = [0.0, *cuts, float(N)]
    inside = sum(abs(integrate.quad(diff, a, b, limit=200, epsabs=1e-13,
                                    epsrel=1e-13)[0])
                 for a, b in zip(pts, pts[1:]))
    return inside + stats.chi2.sf(N, ell)


@pytest.mark.parametrize("ell,expected", [(1, 0.10288690), (2, 0.19935323)])
def test_marginal_l1_counts_the_gaussian_tail(ell, expected):
    # the Gaussian mass outside the ball |v|^2 < N is part of the distance
    assert marginal_gauss_l1(8, ell) == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("ell", [1, 2])
def test_marginal_l1_matches_quadrature_oracle(ell):
    for N in [*range(8, 41), 64, 128, 256, 512, 1024]:
        assert marginal_gauss_l1(N, ell) == pytest.approx(
            _marginal_l1_oracle(N, ell), abs=1e-9), N


def test_marginal_l1_rejects_bad_ell():
    # at ell = N - 2 the log-density ratio is no longer concave
    for ell in (0, 6, 8):
        with pytest.raises(DimensionError):
            marginal_gauss_l1(8, ell)


def test_marginal_l1_converges_to_gaussian():
    vals = [marginal_gauss_l1(N, 1) for N in (16, 32, 64, 128)]
    slope = np.polyfit(np.log([16, 32, 64, 128]), np.log(vals), 1)[0]
    assert slope < -0.8    # observed rate is one over N


def test_radial_projection_rate():
    ns = [16, 32, 64, 128, 256]
    vals = [radial_projection_cost(n) for n in ns]
    slope = np.polyfit(np.log(ns), np.log(vals), 1)[0]
    assert -0.65 < slope < -0.35


def radial_projection_draws(N, count, rng):
    """(1/N) sum_i |P(V)_i - V_i| for count Gaussian draws V, unclipped:
    the projection cost's earlier Monte Carlo estimator."""
    z = rng.standard_normal((count, N))
    norm2 = np.sqrt(np.mean(z ** 2, axis=1))
    return np.abs(1.0 / norm2 - 1.0) * np.mean(np.abs(z), axis=1)


def _mean_and_stderr(vals):
    return vals.mean(), vals.std(ddof=1) / math.sqrt(len(vals))


@pytest.mark.parametrize("N", [5, 16, 128, 512])
def test_radial_projection_cost_is_the_monte_carlo_mean(N, rng):
    mean, se = _mean_and_stderr(radial_projection_draws(N, 4000, rng))
    assert abs(mean - radial_projection_cost(N)) <= 4.0 * se


@pytest.mark.parametrize("N", [5, 16])
def test_clipped_projection_cost_sits_below_the_exact_mean(N, rng):
    # min(x, 1) <= x: clipping each draw at the cost's cap only lowers it
    vals = np.minimum(radial_projection_draws(N, 4000, rng), 1.0)
    mean, se = _mean_and_stderr(vals)
    assert mean <= radial_projection_cost(N) + 3.0 * se


@pytest.mark.parametrize("N", [16, 64, 256])
def test_coupled_omega_n_sits_below_the_projection_cost(N, gauss, rng):
    # each replica's best relabeling costs at most the identity matching
    # of P(V) with V, untruncated, whose mean is the projection cost
    est = omega_n(sigma_sampler(), gauss, N, 200, rng)
    assert est.value <= radial_projection_cost(N) + 3.0 * est.stderr


@pytest.mark.parametrize("N", [10 ** 3, 10 ** 4])
def test_radial_projection_cost_large_n_expansion(N):
    # sqrt(N) E|1 - R| E A = sqrt(2) / pi (1 + 1/(4N) + O(1/N^2))
    value = radial_projection_cost(N)
    assert abs(math.sqrt(N) * value * math.pi / math.sqrt(2.0) - 1.0
               - 0.25 / N) <= 1.0 / N ** 2


@pytest.mark.parametrize("N", [0, 2.5, True])
def test_radial_projection_cost_rejects_bad_n(N):
    with pytest.raises(DimensionError):
        radial_projection_cost(N)


@pytest.mark.parametrize("call", [
    lambda: marginal_gauss_l1(10.5, 1),
    lambda: marginal_gauss_l1(10, 1.5),
    lambda: marginal_gauss_l1(10, True),
    lambda: sigma_marginal_log_pdf(10.5, 1, [[0.1]]),
    lambda: sigma_marginal_log_pdf(10, True, [[0.1]]),
    lambda: omega_j_sigma_quadrature(10.5, 1),
    lambda: sample_sigma(6.5, 2, np.random.default_rng(0)),
    lambda: sample_sigma(6, 2.0, np.random.default_rng(0)),
    lambda: sample_sigma(6, -1, np.random.default_rng(0)),
    lambda: sample_sigma(6, True, np.random.default_rng(0)),
    # no table: the size is refused before any table access
    lambda: sample_conditioned(gaussian_density(), 6.5, 3, None,
                               np.random.default_rng(0)),
    lambda: theta(10.5, 1, [[0.1]], None),
    lambda: theta_h_ratio(10.5, [0.1], None),
], ids=["l1_N", "l1_ell", "l1_ell_bool", "log_pdf_N",
        "log_pdf_ell_bool", "omega_j_sigma", "sample_N", "sample_count",
        "sample_negative_count", "sample_count_bool", "conditioned_N",
        "theta_N", "theta_h_ratio_N"])
def test_sphere_laws_refuse_sizes_that_are_no_int(call):
    with pytest.raises(DimensionError):
        call()


# ---------------------------------------------------------------------------
# partition table
# ---------------------------------------------------------------------------

def test_table_rejects_bad_hypotheses():
    with pytest.raises(HypothesisError):
        build_partition_table(uniform_density(0.0, 1.0), 16)
    with pytest.raises(HypothesisError):
        build_partition_table(gaussian_density(0.0, 2.0), 16)


def test_table_gaussian_zprime_is_one(gauss_table_32):
    t = gauss_table_32
    assert t.E == pytest.approx(1.0, abs=1e-9)
    assert t.Sigma == pytest.approx(math.sqrt(2.0), abs=1e-9)
    # bulk: two standard deviations of the squared-radius law, clipped away
    # from the steep left tail where tiny location bias is amplified
    for k in (8, 16, 32):
        sd = math.sqrt(2.0 * k)
        rs = np.linspace(max(k - 2 * sd, k / 3.0), k + 2 * sd, 41)
        zp = np.exp(t.log_zprime(k, rs))
        assert np.max(np.abs(zp - 1.0)) < 1e-3


def test_table_bimodal_zprime_trend(bimodal_rate_table):
    t = bimodal_rate_table
    target = math.sqrt(2.0) / t.Sigma
    devs = [abs(float(np.exp(t.log_zprime(N, float(N)))) / target - 1.0)
            for N in (32, 128, 1024)]
    assert devs[0] < 0.01
    assert devs[-1] < devs[0]


def _grid_edges(max_N):
    """The table's u-grid for max_N: the spacing and the m + 1 cell edges."""
    u_max = 8.0 * max_N
    m = int(2 ** math.ceil(math.log2(u_max / kacsphere._DU)))
    du = u_max / m
    return du, np.concatenate([[0.0], du * (np.arange(m) + 0.5)])


def _full_grid_masses(f, edges):
    """The cell masses of the law of v^2 from four cdf calls on every edge."""
    r = np.sqrt(edges)
    return (f.cdf(r[1:]) - f.cdf(r[:-1])) + (f.cdf(-r[:-1]) - f.cdf(-r[1:]))


@pytest.mark.parametrize("density, max_N, saturates", [
    (gaussian_density, 1024, True),
    (bimodal_density, 1024, True),
    (lambda: uniform_density(-math.sqrt(3.0), math.sqrt(3.0)), 1024, True),
    # u_max = 64: the gaussian cdf never reaches 1 on the grid, so every
    # edge is evaluated
    (gaussian_density, 8, False)])
def test_cell_masses_are_bitwise_the_full_grid_formula(density, max_N,
                                                       saturates):
    f = density()
    du, edges = _grid_edges(max_N)
    m = len(edges) - 1
    masses = kacsphere._u_cell_masses(f, du, m)
    ref = _full_grid_masses(f, edges)
    n = len(masses)
    # the masses are the formula's first n, bitwise, and the formula's
    # later masses are exactly 0
    assert masses.dtype == ref.dtype and masses.shape == (n,)
    assert masses.tobytes() == ref[:n].tobytes()
    assert np.all(ref[n:] == 0.0)
    assert (n < m) == saturates
    r_max = np.sqrt(edges[-1:])
    assert (f.cdf(r_max) == 1.0 and f.cdf(-r_max) == 0.0) == saturates


@pytest.mark.parametrize("cdf", [
    # in [0, 1] but decreasing on stretches
    lambda v: 0.5 + 0.4 * np.sin(np.asarray(v, dtype=float)),
    # monotone but above 1
    lambda v: 1.5 * np.clip(0.5 + np.asarray(v, dtype=float) / 4.0, 0.0, 1.0),
    lambda v: np.full(np.shape(v), np.nan)])
def test_cell_masses_reject_a_broken_cdf(cdf):
    f = dataclasses.replace(gaussian_density(), cdf=cdf)
    with pytest.raises(HypothesisError, match="cdf"):
        du, edges = _grid_edges(8)
        kacsphere._u_cell_masses(f, du, len(edges) - 1)
    with pytest.raises(HypothesisError, match="cdf"):
        build_partition_table(f, 8, [2])


@pytest.mark.parametrize("rows, P", [(1, 8), (3, 16), (40, 1 << 10),
                                     (9, 1 << 16)])
def test_fold_is_bitwise_the_zero_padded_grid_summed(rows, P):
    masses = np.random.default_rng(rows).random(rows * P - 5) ** 8
    grid = np.zeros(2 * rows * P)     # zero cells past the masses
    grid[:len(masses)] = masses
    folded = kacsphere._fold(masses, P)
    assert folded.tobytes() == grid.reshape(-1, P).sum(axis=0).tobytes()


def _unfolded_table(f, max_N, ks):
    """The table by the unfolded transform: the cell masses zero-padded to
    2m, one 2m-point inverse FFT per k, then the window slice. Also returns
    each window's unclipped index range."""
    lo, hi = f.quad_bounds()
    E = gauss_quadrature(lambda v: v * v * f.pdf(v), lo, hi, 1e-10)
    Sigma = math.sqrt(gauss_quadrature(
        lambda v: (v * v - E) ** 2 * f.pdf(v), lo, hi, 1e-10))
    u_max = 8.0 * max_N
    du, edges = _grid_edges(max_N)
    m = len(edges) - 1
    p = np.zeros(2 * m)
    p[:m] = _full_grid_masses(f, edges)
    spectrum = np.fft.rfft(p)
    windows, ranges = {}, {}
    for k in ks:
        dens = np.fft.irfft(spectrum ** k, n=2 * m)[:m]
        width = max(24.0 * math.sqrt(k) * Sigma, 120.0) + 60.0
        i0 = int(max(0.0, k * E - width) / du)
        i1 = int(min(u_max, k * E + width) / du) + 1
        windows[k] = (i0, np.maximum(dens[i0:i1], 0.0) / du)
        ranges[k] = (i0, int((k * E + width) / du) + 1)
    return du, u_max, E, Sigma, windows, ranges


@pytest.mark.parametrize("density", [gaussian_density, bimodal_density])
@pytest.mark.parametrize("max_N, ks, folded", [
    (256, _rate_ks([32, 64, 128, 256]), True),
    (64, range(1, 65), True),
    # windows cut at u_max: the mass past u_max is not negligible, so the
    # period stays 2m
    (8, range(1, 9), False)])
def test_table_fold_matches_unfolded_transform(density, max_N, ks, folded,
                                               monkeypatch):
    f = density()
    periods = []
    irfft = np.fft.irfft

    def recording_irfft(a, n=None, **kw):
        periods.append(n)
        return irfft(a, n=n, **kw)
    with monkeypatch.context() as mp:
        mp.setattr(np.fft, "irfft", recording_irfft)
        table = build_partition_table(f, max_N, ks)
    du, u_max, E, Sigma, windows, ranges = _unfolded_table(f, max_N, ks)
    assert table.ks == tuple(ks)
    assert (table.du, table.u_max, table.E, table.Sigma) == (du, u_max, E,
                                                             Sigma)
    for k in ks:
        start, padded = table.windows[k]
        vals = padded[1:-2]
        ref_start, ref = windows[k]
        assert (start, len(vals)) == (ref_start, len(ref))
        np.testing.assert_allclose(vals, ref, rtol=0, atol=1e-12 * ref.max())
    # one inverse FFT per k, each at the smallest power of two covering the
    # window's range, capped at the table period: that of the widest range,
    # itself capped at 2m
    pow2 = [1 << (i1 - i0 - 1).bit_length() for i0, i1 in ranges.values()]
    period = min(max(pow2), 2 * round(u_max / du))
    assert periods == [min(n, period) for n in pow2]
    assert (max(periods) < 2 * round(u_max / du)) == folded


@pytest.mark.parametrize("max_N, ks", [(256, _rate_ks([32, 64, 128, 256])),
                                       (64, range(2, 65))])
def test_table_gaussian_windows_are_chi_square(max_N, ks):
    # h^{*k} of the gaussian is the chi-square density with k degrees of
    # freedom; each cell holds its mass average over [u - du/2, u + du/2]
    table = build_partition_table(gaussian_density(), max_N, ks)
    du = table.du
    for k in ks:
        start, padded = table.windows[k]
        vals = padded[1:-2]
        u = du * np.arange(start, start + len(vals))
        exact = np.diff(stats.chi2.cdf(
            np.stack([np.maximum(u - du / 2, 0.0), u + du / 2]), k),
            axis=0)[0] / du
        # Z'_k(k) is read at the centre; off it, the discrete masses' mean
        # bias of about 1.2e-5 per coordinate shifts the law by 1.2e-5 k,
        # a relative error of about 1.2e-5 sqrt(k / 2) one sd away
        centre = np.argmin(np.abs(u - k))
        assert abs(vals[centre] / exact[centre] - 1.0) < 3e-5
        bulk = (np.abs(u - k) <= math.sqrt(2.0 * k)) & (u >= k / 3.0)
        assert np.max(np.abs(vals[bulk] / exact[bulk] - 1.0)) \
            < 2e-5 + 1.5e-5 * math.sqrt(k / 2.0)


def _assert_tables_equal(a, b):
    assert (a.density_name, a.max_N, a.du, a.u_max, a.E, a.Sigma, a.ks) == \
        (b.density_name, b.max_N, b.du, b.u_max, b.E, b.Sigma, b.ks)
    for k in a.ks:
        assert a.windows[k][0] == b.windows[k][0]
        np.testing.assert_array_equal(a.windows[k][1], b.windows[k][1])


def test_table_cache_roundtrip(tmp_path, gauss_table_32):
    path = os.path.join(tmp_path, "t.bin")
    save_table(gauss_table_32, path)
    loaded = load_table(path)
    _assert_tables_equal(loaded, gauss_table_32)
    # each window is stored once: the zero-padded buffer in windows, which
    # is the only dict the table holds
    for table in (gauss_table_32, loaded):
        assert [name for name, v in vars(table).items()
                if isinstance(v, dict)] == ["windows"]
        for k in table.ks:
            padded = table.windows[k][1]
            assert padded.dtype == np.float64 and padded.ndim == 1
            assert padded[0] == padded[-2] == padded[-1] == 0.0


def _mapping_of(arr):
    """The buffer at the end of an array's chain of bases."""
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return arr.obj if isinstance(arr, memoryview) else arr


def test_loaded_windows_are_read_only_views_of_the_file_mapping(
        tmp_path, gauss_table_32):
    path = os.path.join(tmp_path, "t.bin")
    save_table(gauss_table_32, path)
    loaded = load_table(path)
    mapping = _mapping_of(loaded.windows[1][1])
    assert isinstance(mapping, mmap.mmap) and len(mapping) == \
        os.path.getsize(path)
    for k in loaded.ks:
        padded = loaded.windows[k][1]
        # a view of the one mapping of the whole file: no copy
        assert _mapping_of(padded) is mapping
        assert not padded.flags.writeable
        assert padded[0] == padded[-2] == padded[-1] == 0.0


def test_saving_over_a_mapped_file_keeps_the_mapped_values(
        tmp_path, gauss_table_32, bimodal_table_32):
    path = os.path.join(tmp_path, "t.bin")
    save_table(gauss_table_32, path)
    mapped = load_table(path)
    before = {k: mapped.windows[k][1].copy() for k in mapped.ks}
    save_table(bimodal_table_32, path)
    for k in mapped.ks:
        assert mapped.windows[k][1].tobytes() == before[k].tobytes()
    _assert_tables_equal(load_table(path), bimodal_table_32)
    assert os.listdir(tmp_path) == ["t.bin"]     # no temp file is left


def test_a_failed_save_leaves_no_temp_file(tmp_path, monkeypatch,
                                           gauss_table_32):
    path = os.path.join(tmp_path, "t.bin")
    save_table(gauss_table_32, path)
    with open(path, "rb") as fh:
        blob = fh.read()

    def refuse(src, dst):
        raise PermissionError(f"read-only: {dst}")
    with monkeypatch.context() as mp:
        mp.setattr(os, "replace", refuse)
        with pytest.raises(PermissionError):
            save_table(gauss_table_32, path)
    # a write that fails half-way: the second window cannot be cast
    broken = PartitionTable(gauss_table_32.density_name, 32, 0.5, 1.0, 1.0,
                            1.0, (1, 2), {1: (0, np.zeros(6)),
                                          2: (0, np.zeros(6))})
    broken.windows[2] = (0, np.array(["not a number"]))
    with pytest.raises(ValueError):
        save_table(broken, path)
    assert os.listdir(tmp_path) == ["t.bin"]
    with open(path, "rb") as fh:
        assert fh.read() == blob


@pytest.mark.parametrize("cell, value", [(0, 1.0), (-2, -1e-300),
                                         (-1, np.nan)])
def test_the_constructor_refuses_a_nonzero_sentinel(cell, value):
    padded = np.zeros(8)
    padded[cell] = value
    with pytest.raises(KaclabError, match="k=3: a zero sentinel"):
        PartitionTable("g", 8, 0.5, 4.0, 1.0, 1.0, (2, 3),
                       {2: (0, np.zeros(8)), 3: (1, padded)})
    # a buffer too short to hold the three sentinels
    with pytest.raises(KaclabError, match="k=2: a zero sentinel"):
        PartitionTable("g", 8, 0.5, 4.0, 1.0, 1.0, (2,), {2: (0, np.zeros(2))})


def _corrupt_cache_file(blob, kind):
    """A saved table file with one defect that load_table must refuse."""
    data = len(kacsphere._MAGIC) + 4 + int.from_bytes(blob[6:10], "little")
    one = np.float64(1.0).tobytes()
    return {"first_sentinel": blob[:data] + one + blob[data + 8:],
            "last_sentinel": blob[:-8] + one,
            "short": blob[:-8],
            "long": blob + bytes(8),
            "old_magic": b"KLPT1\x00" + blob[6:]}[kind]


@pytest.mark.parametrize("kind", ["first_sentinel", "last_sentinel", "short",
                                  "long", "old_magic"])
def test_a_defective_cache_file_is_refused_and_rebuilt(tmp_path, monkeypatch,
                                                       gauss, kind):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    monkeypatch.setattr(experiments, "_TABLE_MEMO", {})
    ks = range(1, 17)
    built = experiments.sphere_table(gauss, 16, ks)
    # the memo holds the saved file's mapping, not the built windows
    assert isinstance(_mapping_of(built.windows[16][1]), mmap.mmap)
    path = cache_path(gauss.name, 16, ks)
    with open(path, "rb") as fh:
        blob = fh.read()
    # a new file, so the mapping that built holds keeps the saved bytes
    os.unlink(path)
    with open(path, "wb") as fh:
        fh.write(_corrupt_cache_file(blob, kind))
    with pytest.raises(KaclabError):
        load_table(path)
    experiments._TABLE_MEMO.clear()
    with pytest.warns(RuntimeWarning, match="unreadable cache file"):
        rebuilt = experiments.sphere_table(gauss, 16, ks)
    _assert_tables_equal(rebuilt, built)
    with open(path, "rb") as fh:
        assert fh.read() == blob


def test_incomplete_table_file_raises(tmp_path, gauss_table_32):
    path = os.path.join(tmp_path, "t.bin")
    save_table(gauss_table_32, path)
    with open(path, "rb") as fh:
        blob = fh.read()
    json_start = 10   # after the magic and the header length
    corrupt = [blob[:-400],                 # last window cut short
               blob + bytes(8),             # bytes after the last window
               blob[:json_start] + b"#" + blob[json_start + 1:]]
    for bad in corrupt:
        with open(path, "wb") as fh:
            fh.write(bad)
        with pytest.raises(KaclabError):
            load_table(path)


def test_cache_path_is_under_the_env_dir_else_home(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env"))
    path = cache_path("g", 16, [2, 1, 2])
    assert os.path.dirname(path) == str(tmp_path / "env")
    assert os.path.isdir(tmp_path / "env")
    assert os.path.basename(path).startswith("ptable_")
    assert path == cache_path("g", 16, (1, 2))
    monkeypatch.delenv(CACHE_ENV_VAR)
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    assert cache_path("g", 16, [1, 2]) == os.path.join(
        tmp_path, "home", ".cache", "kaclab", os.path.basename(path))


def test_sphere_table_rebuilds_a_truncated_cache_file(tmp_path, monkeypatch,
                                                       gauss):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    monkeypatch.setattr(experiments, "_TABLE_MEMO", {})
    ks = range(1, 17)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a missing file is built silently
        experiments.sphere_table(gauss, 16, ks)
    path = cache_path(gauss.name, 16, ks)
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[:-400])
    experiments._TABLE_MEMO.clear()
    with pytest.warns(RuntimeWarning, match="unreadable cache file") as rec:
        rebuilt = experiments.sphere_table(gauss, 16, ks)
    assert path in str(rec[0].message)
    fresh = build_partition_table(gauss, 16, ks=ks)
    _assert_tables_equal(rebuilt, fresh)
    _assert_tables_equal(load_table(path), fresh)


def test_sphere_table_rebuilds_a_cache_file_of_another_table(tmp_path,
                                                              monkeypatch,
                                                              gauss):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    monkeypatch.setattr(experiments, "_TABLE_MEMO", {})
    ks = range(1, 17)
    path = cache_path(gauss.name, 16, ks)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    save_table(build_partition_table(gauss, 12, ks=range(1, 13)), path)
    with pytest.warns(RuntimeWarning, match="max_N = 12, not"):
        rebuilt = experiments.sphere_table(gauss, 16, ks)
    assert rebuilt.max_N == 16 and load_table(path).max_N == 16


def test_sphere_table_warns_when_the_save_fails(tmp_path, monkeypatch, gauss):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    monkeypatch.setattr(experiments, "_TABLE_MEMO", {})

    def refuse(path, *args):
        raise PermissionError(f"read-only: {path}")
    # the streamed build writes through _write_table, not save_table
    monkeypatch.setattr(kacsphere, "_write_table", refuse)
    with pytest.warns(RuntimeWarning, match="could not save cache file"):
        table = experiments.sphere_table(gauss, 16, range(1, 17))
    assert table.max_N == 16
    # the in-memory build that stands in for the file
    assert not os.listdir(tmp_path)
    _assert_tables_equal(table, build_partition_table(gauss, 16, range(1, 17)))


# ---------------------------------------------------------------------------
# streamed build
# ---------------------------------------------------------------------------

STREAMED_TABLES = [(density, max_N, ks)
                   for density in (gaussian_density, bimodal_density)
                   for max_N, ks in [(8, None), (12, None), (32, None),
                                     (128, None),
                                     (256, _rate_ks([32, 64, 128, 256])),
                                     (1024, _rate_ks([32, 64, 128, 256, 512,
                                                      1024]))]]


@pytest.mark.parametrize("density, max_N, ks", STREAMED_TABLES,
                         ids=lambda v: getattr(v, "__name__", None))
def test_streamed_file_is_save_table_of_the_in_memory_build(tmp_path,
                                                            density, max_N,
                                                            ks):
    f = density()
    streamed_path = str(tmp_path / "streamed.bin")
    saved_path = str(tmp_path / "saved.bin")
    streamed = build_partition_table(f, max_N, ks, path=streamed_path)
    in_memory = build_partition_table(f, max_N, ks)
    save_table(in_memory, saved_path)
    _assert_tables_equal(streamed, in_memory)
    with open(streamed_path, "rb") as a, open(saved_path, "rb") as b:
        assert a.read() == b.read()
    # the returned table is the file's read-only mapping
    assert isinstance(_mapping_of(streamed.windows[max_N][1]), mmap.mmap)
    assert sorted(os.listdir(tmp_path)) == ["saved.bin", "streamed.bin"]
    # the all-k N = 128 files hold about 100 MB each
    os.unlink(streamed_path)
    os.unlink(saved_path)


def test_both_builds_invert_at_the_same_lengths_into_one_buffer(
        tmp_path, monkeypatch, bimodal):
    irfft = np.fft.irfft
    calls = []

    def recording_irfft(a, n=None, **kw):
        out = kw["out"]
        calls.append((n, len(out), id(out.base)))
        return irfft(a, n=n, **kw)
    monkeypatch.setattr(np.fft, "irfft", recording_irfft)
    ks = _rate_ks([32, 64, 128, 256])
    build_partition_table(bimodal, 256, ks)
    in_memory, calls[:] = calls[:], []
    build_partition_table(bimodal, 256, ks, path=str(tmp_path / "t.bin"))
    assert len(calls) == len(ks)
    for build in (in_memory, calls):
        assert [n for n, _, _ in build] == [n for n, _, _ in calls]
        # every inverse writes into a view of the build's one buffer
        assert all(n == length for n, length, _ in build)
        assert len({buf for _, _, buf in build}) == 1


def test_streamed_build_holds_one_window_at_a_time(tmp_path, gauss):
    # What the build's loop can hold at once, in bytes, with S the size of
    # a spectrum of P/2 + 1 complex bins: the spectrum, the running power
    # and, while a step of more than one is taken, spectrum_power's square
    # and result (4 S); the P-point inverse buffer (8 P); one window (8 per
    # cell of the longest padded buffer); and 1 MB for the cell masses and
    # Python objects. The in-memory build holds every window on top of it.
    ks = _rate_ks([32, 64, 128, 256, 512, 1024])
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        table = build_partition_table(gauss, 1024, ks,
                                      path=str(tmp_path / "t.bin"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bounds = [kacsphere._window_bounds(k, table.E, table.Sigma, table.du)
              for k in ks]
    m = round(table.u_max / table.du)
    P = min(2 * m, 1 << (max(i1 - i0 for i0, i1 in bounds) - 1).bit_length())
    S = 16 * (P // 2 + 1)
    longest = max(len(padded) for _, padded in table.windows.values())
    bound = 4 * S + 8 * P + 8 * longest + 2 ** 20
    all_windows = 8 * sum(len(padded) for _, padded in table.windows.values())
    assert all_windows > 2 * 8 * longest     # the bound tells the two apart
    assert peak <= bound, (peak, bound)


def _window_that_cannot_be_cast(monkeypatch):
    """Make the streamed build's second window a string array."""
    built = kacsphere._padded_window
    count = []

    def padded_window(*args):
        count.append(1)
        return (np.array(["not a number"]) if len(count) == 2
                else built(*args))
    monkeypatch.setattr(kacsphere, "_padded_window", padded_window)


def _refuse_replace(monkeypatch):
    def refuse(src, dst):
        raise PermissionError(f"read-only: {dst}")
    monkeypatch.setattr(os, "replace", refuse)


@pytest.mark.parametrize("fault, error", [
    (_window_that_cannot_be_cast, ValueError),
    (_refuse_replace, PermissionError)])
def test_a_failed_streamed_build_leaves_no_temp_file(tmp_path, monkeypatch,
                                                     gauss, fault, error):
    path = str(tmp_path / "t.bin")
    build_partition_table(gauss, 12, path=path)
    with open(path, "rb") as fh:
        blob = fh.read()
    with monkeypatch.context() as mp:
        fault(mp)
        with pytest.raises(error):
            build_partition_table(gauss, 16, path=path)
    assert os.listdir(tmp_path) == ["t.bin"]
    with open(path, "rb") as fh:
        assert fh.read() == blob


# ---------------------------------------------------------------------------
# blocked table lookup
# ---------------------------------------------------------------------------

BLOCK = kacsphere._LOOKUP_BLOCK


def _one_shot_conv_density(table, k, u):
    """The whole-query interpolation that the blocked lookup replaced; its
    bitwise oracle."""
    start, padded = table.windows[k]
    pos = np.atleast_1d(np.asarray(u, dtype=float)) * (1.0 / table.du) - start
    np.clip(pos, -1.0, len(padded) - 3, out=pos)
    base = np.floor(pos).astype(np.intp)
    frac = pos - base
    lo = padded[base + 1]
    out = lo + frac * (padded[base + 2] - lo)
    return out if np.ndim(u) else float(out[0])


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.fixture(scope="module")
def ramp_table():
    """One window whose first and last values are far from 0, so a query
    within one cell outside the window reads a steep ramp to the sentinel.
    The spacing is a power of two, so whole cell positions are exact."""
    vals = 0.5 + np.random.default_rng(7).random(1000)
    return PartitionTable("ramp", 8, 2.0 ** -7, 30.0, 1.0, 1.0, (7,),
                          {7: (250, np.pad(vals, (1, 2)))})


def _cells(table, k, cells):
    """u at the given positions in grid cells from the window start."""
    return (table.windows[k][0] + np.asarray(cells, dtype=float)) * table.du


@pytest.mark.parametrize("size", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                                  3 * BLOCK + 7])
def test_blocked_lookup_matches_one_shot_bitwise(ramp_table, size):
    n = len(ramp_table.windows[7][1]) - 3
    u = _cells(ramp_table, 7,
               np.random.default_rng(size).uniform(-3.0, n + 3.0, size))
    got = ramp_table.conv_density(7, u)
    assert got.shape == (size,)
    assert np.array_equal(_bits(got),
                          _bits(_one_shot_conv_density(ramp_table, 7, u)))


def test_blocked_lookup_keeps_the_query_shape(ramp_table, gauss_table_32):
    rng = np.random.default_rng(3)
    n = len(ramp_table.windows[7][1]) - 3
    u2 = _cells(ramp_table, 7, rng.uniform(-3.0, n + 3.0, (40, 1000)))
    for u in (u2, u2.T, u2[:, ::3]):    # 2-D over several blocks, strided
        got = ramp_table.conv_density(7, u)
        assert got.shape == u.shape
        assert np.array_equal(_bits(got),
                              _bits(_one_shot_conv_density(ramp_table, 7, u)))
    for u in (float(u2[0, 0]), u2[0, 0], np.float64(2.5)):   # scalars
        got = ramp_table.conv_density(7, u)
        assert isinstance(got, float)
        assert _bits(got) == _bits(_one_shot_conv_density(ramp_table, 7, u))
    # a real table at the sampler's query size
    u = (16.0 + np.linspace(0.0, 8.0, 100)[:, None]
         - np.linspace(-4.0, 4.0, 384) ** 2)
    assert np.array_equal(
        _bits(gauss_table_32.conv_density(15, u)),
        _bits(_one_shot_conv_density(gauss_table_32, 15, u)))


def test_blocked_lookup_edges_of_the_window(ramp_table):
    vals = ramp_table.windows[7][1][1:-2]
    n = len(vals)
    below = np.linspace(-1.0, 0.0, 9)[:-1]          # [-1, 0): ramp up
    past = n - 1 + np.linspace(0.0, 2.0, 9)         # last cell, ramp, beyond
    u = np.concatenate([_cells(ramp_table, 7, np.r_[below, 0.0, past, -1.5]),
                        [np.inf, -np.inf, 1e300, -1e300]])
    got = ramp_table.conv_density(7, u)
    assert np.array_equal(_bits(got),
                          _bits(_one_shot_conv_density(ramp_table, 7, u)))
    # the ramp below the start rises from 0 to the first value
    ramp = got[:len(below) + 1]
    assert ramp[0] == 0.0 and np.all(np.diff(ramp) > 0)
    assert ramp[-1] == vals[0]
    assert got[len(below) + 1] == vals[-1]
    assert np.all(got[-7:] == 0.0)     # past the end, -1.5 cells, ±inf, far


def test_lookup_rejects_nan_queries(ramp_table):
    u = _cells(ramp_table, 7, np.linspace(0.0, 10.0, 3 * BLOCK))
    u[[5, BLOCK + 2]] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no numpy cast warning on the way
        with pytest.raises(KaclabError, match=r"k=7\) got 2 NaN"):
            ramp_table.conv_density(7, u)
        with pytest.raises(KaclabError, match="1 NaN"):
            ramp_table.conv_density(7, float("nan"))
    assert ramp_table.conv_density(7, np.empty((0, 3))).shape == (0, 3)


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------

def test_theta_gaussian_is_sigma_over_gauss(gauss_table_32):
    v = np.linspace(-5.0, 5.0, 401)
    th = theta(32, 1, v[:, None], gauss_table_32)
    gauss = np.exp(-v * v / 2) / math.sqrt(2 * math.pi)
    exact = sigma_marginal_pdf(32, 1, v[:, None]) / gauss
    assert np.max(np.abs(th - exact)) < 1e-3


def test_theta_two_routes_agree(bimodal_table_32):
    v = np.linspace(-4.5, 4.5, 301)
    a = theta(32, 1, v[:, None], bimodal_table_32)
    b = theta_h_ratio(32, v, bimodal_table_32)
    assert np.max(np.abs(a - b)) < 1e-10


def test_theta_outside_support_is_zero(gauss_table_32):
    assert theta(32, 1, np.array([[6.0]]), gauss_table_32)[0] == 0.0
    assert theta(32, 2, np.array([[4.5, 4.5]]), gauss_table_32)[0] == 0.0


def test_theta_uniformly_bounded(bimodal_rate_table):
    sups = []
    for N in (32, 128, 1024):
        v = np.linspace(-min(math.sqrt(N) * 0.999, 12.0),
                        min(math.sqrt(N) * 0.999, 12.0), 2001)
        sups.append(np.max(theta(N, 1, v[:, None], bimodal_rate_table)))
    assert max(sups) < 1.2


def test_theta_bulk_sup_consistent_with_root_n_bound(bimodal_rate_table):
    # sup over |v| <= N^{1/8} of |theta - 1|, scaled by sqrt(N), stays bounded
    for N in (32, 128, 1024):
        v = np.linspace(-N ** 0.125, N ** 0.125, 301)
        sup = np.max(np.abs(theta(N, 1, v[:, None], bimodal_rate_table) - 1))
        assert sup * math.sqrt(N) < 0.5


def test_theta_l1_rate(bimodal_rate_table, bimodal):
    ns = [32, 128, 1024]
    vals = [theta_l1_distance(bimodal, n, bimodal_rate_table) for n in ns]
    slope = np.polyfit(np.log(ns), np.log(vals), 1)[0]
    assert slope <= -0.4


# ---------------------------------------------------------------------------
# conditioned sampler
# ---------------------------------------------------------------------------

def _full_grid_draw(f, N, count, table, rng):
    """One pass of the sampler before the half-grid lookup and the block
    search, its oracle: each step reads the table on the whole linspace
    grid, takes the full cumsum of the densities and finds each row's cell
    by a whole-array compare. Same rng calls and the same (rows, failed)
    result as ``kacsphere._sequential_draw``."""
    out = np.empty((count, N))
    usq = np.full(count, float(N))
    failed = np.zeros(count, dtype=bool)
    vcap = max(abs(b) for b in f.quad_bounds())
    for j in range(N - 2):
        act = np.flatnonzero(~failed)
        vmax = min(vcap, math.sqrt(max(float(usq[act].max()), 1e-12)))
        grid = np.linspace(-vmax, vmax, kacsphere._SAMPLER_GRID)
        step = grid[1] - grid[0]
        dens = table.conv_density(N - j - 1, usq[act, None] - grid ** 2)
        dens *= f.pdf(grid)
        cum = np.cumsum(dens, axis=1)
        bad = cum[:, -1] <= 0.0
        failed[act[bad]] = True
        act, cum, dens = act[~bad], cum[~bad], dens[~bad]
        u = rng.random(len(act)) * cum[:, -1]
        idx = np.minimum((cum < u[:, None]).sum(axis=1), len(grid) - 1)
        sel = np.arange(len(act))
        prev = np.where(idx > 0, cum[sel, np.maximum(idx - 1, 0)], 0.0)
        cell = dens[sel, idx]
        frac = np.where(cell > 0, (u - prev) / np.maximum(cell, 1e-300), 0.5)
        out[act, j] = grid[idx] + (frac - 0.5) * step
        usq[act] -= out[act, j] ** 2
    act = np.flatnonzero(~failed)
    r = np.sqrt(np.maximum(usq[act], 0.0))
    phi_grid = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
    cum = np.cumsum(f.pdf(r[:, None] * np.cos(phi_grid))
                    * f.pdf(r[:, None] * np.sin(phi_grid)), axis=1)
    u = rng.random(len(act)) * cum[:, -1]
    idx = np.minimum((cum < u[:, None]).sum(axis=1), len(phi_grid) - 1)
    phi = phi_grid[idx] + rng.random(len(act)) * (phi_grid[1] - phi_grid[0])
    out[act, N - 2], out[act, N - 1] = r * np.cos(phi), r * np.sin(phi)
    return out, failed


SKEWED = gaussian_mixture((0.3, 0.7), (-1.4, 0.6), 0.16, "skewed")


@pytest.mark.parametrize("density", [bimodal_density(), gaussian_density(),
                                     SKEWED], ids=lambda f: f.name)
def test_conditioned_draws_match_the_full_grid_oracle(density):
    # The two passes make the same rng calls and invert the same 384-cell
    # CDF; they differ only in the rounding of the grid (±(m + 1/2) step
    # against linspace) and of the partial sums (block masses through BLAS
    # against one long cumsum). Measured at seed 5: 1.2e-12 to 2.6e-12;
    # over seeds 0-24 and the three densities, at most 2.3e-11. The bound
    # leaves a factor of about 40 over that for other BLAS kernels and
    # hosts, and is under 1e-7 of a grid cell (about 0.03 wide here), so a
    # draw from a wrong cell or a wrong in-cell fraction cannot pass.
    table = experiments.sphere_table(density, 32, range(1, 33))
    got, got_failed = kacsphere._sequential_draw(
        density, 32, 500, table, np.random.default_rng(5))
    want, want_failed = _full_grid_draw(density, 32, 500, table,
                                        np.random.default_rng(5))
    assert np.array_equal(got_failed, want_failed)
    done = ~got_failed
    assert np.max(np.abs(got[done] - want[done])) < 1e-9


def test_conditioned_gaussian_matches_sigma(gauss, gauss_table_32, rng):
    out = sample_conditioned(gauss, 32, 12_000, gauss_table_32, rng)
    assert np.max(np.abs((out.samples ** 2).sum(axis=1) - 32.0)) < 1e-8
    ref = sample_sigma(32, 12_000, rng)
    res = stats.ks_2samp(out.samples[:, 0], ref[:, 0])
    assert res.pvalue > 0.001


def test_conditioned_draws_equal_the_one_shot_lookup(bimodal,
                                                     bimodal_table_32,
                                                     monkeypatch):
    # each step's query, count × half the grid, spans three lookup blocks
    count = 3 * BLOCK // (kacsphere._SAMPLER_GRID // 2)
    fast = sample_conditioned(bimodal, 32, count, bimodal_table_32,
                              np.random.default_rng(11))
    monkeypatch.setattr(PartitionTable, "conv_density",
                        _one_shot_conv_density)
    slow = sample_conditioned(bimodal, 32, count, bimodal_table_32,
                              np.random.default_rng(11))
    assert fast.samples.shape == (count, 32)
    assert np.array_equal(_bits(fast.samples), _bits(slow.samples))
    assert fast.n_resampled == slow.n_resampled


def test_conditioned_resamples_rows_of_zero_mass(bimodal, bimodal_table_32,
                                                 monkeypatch):
    lookup = PartitionTable.conv_density
    calls = []

    def zero_rows_once(table, k, u):
        out = lookup(table, k, u)
        if not calls:
            out[[0, 3]] = 0.0     # rows 0 and 3 meet a zero-mass density
        calls.append(k)
        return out
    monkeypatch.setattr(PartitionTable, "conv_density", zero_rows_once)
    out = sample_conditioned(bimodal, 16, 8, bimodal_table_32,
                             np.random.default_rng(2))
    assert out.n_resampled == 2
    assert np.all(np.isfinite(out.samples))
    assert np.max(np.abs((out.samples ** 2).sum(axis=1) - 16.0)) < 1e-8
    assert len(calls) == 2 * (16 - 2)    # the first pass and one resample


def _unblocked_circle_draw(f, r, rng):
    """``kacsphere._circle_draw`` before its row blocks, its oracle: the
    angle density of every row at all M cells at once, one (rows x M)
    array searched through ``_block_search``."""
    B, M = kacsphere._SAMPLER_BLOCK, kacsphere._CIRCLE_GRID
    step = 2.0 * math.pi / M
    mirror = M // 2 - np.abs(np.arange(M) - M // 2)
    fcos = f.pdf(r[:, None] * np.cos(np.arange(M // 2 + 1) * step))
    fcos = fcos[:, mirror]
    dens = fcos * np.roll(fcos, M // 4, axis=1)
    cum = np.cumsum(dens.reshape(len(r), -1, B).sum(axis=2), axis=1)
    bad = cum[:, -1] <= 0.0
    dens, cum = dens[~bad], cum[~bad]
    if len(cum) == 0:
        return np.empty(0), bad
    u = rng.random(len(cum)) * cum[:, -1]
    sel = np.arange(len(cum))[:, None]
    cell, _, _, _ = kacsphere._block_search(cum, u,
                                            lambda cells: dens[sel, cells])
    return cell * step + rng.random(len(cum)) * step, bad


CIRCLE_COUNTS = [1, kacsphere._CIRCLE_ROWS, kacsphere._CIRCLE_ROWS + 1, 500]


@pytest.mark.parametrize("density", [bimodal_density(), gaussian_density(),
                                     SKEWED], ids=lambda f: f.name)
@pytest.mark.parametrize("count", CIRCLE_COUNTS)
def test_circle_draw_is_bitwise_the_unblocked_circle(density, count):
    rng = np.random.default_rng(count)
    r = np.sqrt(rng.uniform(0.0, 12.0, count))
    # a circle of radius 100 has no mass in floating point: f underflows
    # wherever |r cos| or |r sin| is at least 100 / sqrt(2)
    r[count // 2] = 100.0
    got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
    got, got_bad = kacsphere._circle_draw(density, r, got_rng)
    want, want_bad = _unblocked_circle_draw(density, r, want_rng)
    assert np.array_equal(got_bad, want_bad) and got_bad[count // 2]
    assert np.array_equal(_bits(got), _bits(want))
    assert got_rng.random() == want_rng.random()


@pytest.mark.parametrize("count", CIRCLE_COUNTS)
def test_conditioned_draws_equal_the_unblocked_circle(bimodal,
                                                      bimodal_table_32,
                                                      monkeypatch, count):
    lookup = PartitionTable.conv_density
    zeroed = []

    def zero_a_row_once(table, k, u):
        out = lookup(table, k, u)
        if not zeroed:
            out[[count // 2]] = 0.0   # that row meets a zero-mass density
            zeroed.append(k)
        return out

    def draw():
        zeroed.clear()
        return sample_conditioned(bimodal, 16, count, bimodal_table_32,
                                  np.random.default_rng(count))
    monkeypatch.setattr(PartitionTable, "conv_density", zero_a_row_once)
    blocked = draw()
    monkeypatch.setattr(kacsphere, "_circle_draw", _unblocked_circle_draw)
    unblocked = draw()
    assert blocked.n_resampled == unblocked.n_resampled == 1
    assert np.array_equal(_bits(blocked.samples), _bits(unblocked.samples))


def test_the_final_circle_holds_no_rows_by_cells_array(bimodal):
    # the unblocked circle builds about five (rows x M) float64 arrays at
    # once, 20 MB at 500 rows; in row blocks the largest is 64 rows x M
    r = np.sqrt(np.random.default_rng(0).uniform(0.0, 12.0, 500))
    one = 8 * len(r) * kacsphere._CIRCLE_GRID
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        kacsphere._circle_draw(bimodal, r, np.random.default_rng(1))
        _, blocked = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        _unblocked_circle_draw(bimodal, r, np.random.default_rng(1))
        _, unblocked = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert unblocked > 3 * one
    assert blocked < one


def test_conditioned_gives_up_on_an_all_zero_table(gauss, rng):
    ks = tuple(range(1, 9))
    table = PartitionTable(gauss.name, 8, 0.01, 64.0, 1.0, math.sqrt(2.0),
                           ks, {k: (0, np.zeros(103)) for k in ks})
    with pytest.raises(KaclabError, match="could not complete"):
        sample_conditioned(gauss, 8, 5, table, rng)


@pytest.mark.parametrize("count", [-1, 2.5, True, "3"])
def test_conditioned_rejects_bad_count(gauss, gauss_table_32, rng, count):
    with pytest.raises(DimensionError, match="count"):
        sample_conditioned(gauss, 32, count, gauss_table_32, rng)


def test_conditioned_zero_count(gauss, gauss_table_32, rng):
    out = sample_conditioned(gauss, 32, 0, gauss_table_32, rng)
    assert out.samples.shape == (0, 32) and out.n_resampled == 0


def test_conditioned_bimodal_marginal(bimodal, bimodal_table_32, rng):
    out = sample_conditioned(bimodal, 32, 12_000, bimodal_table_32, rng)
    edges = np.linspace(-5, 5, 101)
    mid = 0.5 * (edges[:-1] + edges[1:])
    target = bimodal.pdf(mid) * theta(32, 1, mid[:, None], bimodal_table_32)
    hist, _ = np.histogram(out.samples.ravel(), bins=edges, density=True)
    l1 = np.sum(np.abs(hist - target)) * (edges[1] - edges[0])
    assert l1 <= 0.02


@pytest.mark.parametrize("call", [
    lambda f, t: sample_conditioned(f, 16, 4, t, np.random.default_rng(0)),
    lambda f, t: theta_l1_distance(f, 16, t),
    lambda f, t: entropy_chaos_gap(f, 16, t),
    lambda f, t: fisher_chaos_terms(f, 16, t),
], ids=["sample_conditioned", "theta_l1_distance", "entropy_chaos_gap",
        "fisher_chaos_terms"])
def test_a_table_of_another_density_is_refused(gauss, bimodal_table_32,
                                               call):
    with pytest.raises(KaclabError, match="built for") as err:
        call(gauss, bimodal_table_32)
    assert bimodal_table_32.density_name in str(err.value)
    assert gauss.name in str(err.value)


# ---------------------------------------------------------------------------
# entropy and Fisher chaos
# ---------------------------------------------------------------------------

def test_entropy_gap_gaussian_vanishes(gauss, gauss_rate_table):
    assert entropy_chaos_gap(gauss, 32, gauss_rate_table) <= 1e-6


def test_entropy_gap_bimodal_decays(bimodal, bimodal_rate_table):
    g32 = entropy_chaos_gap(bimodal, 32, bimodal_rate_table)
    g1024 = entropy_chaos_gap(bimodal, 1024, bimodal_rate_table)
    assert 0 < g1024 < g32 / 16.0


def test_fisher_terms_gaussian_vanish(gauss, gauss_table_32, rng):
    out = sample_conditioned(gauss, 32, 400, gauss_table_32, rng)
    main, corr = fisher_chaos_terms(gauss, 32, gauss_table_32, out.samples)
    assert abs(main) < 1e-6 and abs(corr) < 1e-12


def test_fisher_terms_bimodal(bimodal, bimodal_rate_table):
    from kaclab.information import relative_fisher
    target = relative_fisher(bimodal, gaussian_density()).value
    m32, _ = fisher_chaos_terms(bimodal, 32, bimodal_rate_table)
    m1024, _ = fisher_chaos_terms(bimodal, 1024, bimodal_rate_table)
    assert abs(m1024 - target) < abs(m32 - target)
    assert abs(m1024 - target) < 5e-3


def test_fisher_correction_term_decays(bimodal, bimodal_table_32, rng):
    from kaclab.experiments import sphere_table
    t64 = sphere_table(bimodal, 64, range(1, 65))
    corr = {}
    for N, table in ((32, bimodal_table_32), (64, t64)):
        out = sample_conditioned(bimodal, N, 1500, table, rng)
        corr[N] = fisher_chaos_terms(bimodal, N, table, out.samples)[1]
    assert 0.0 < corr[64] < corr[32]
    # roughly an inverse-N law: the scaled values stay within a band
    assert 0.1 < corr[32] * 32 < 1.0
    assert 0.1 < corr[64] * 64 < 1.0


def test_fisher_hypothesis_rejected():
    with pytest.raises(HypothesisError):
        fisher_chaos_terms(uniform_density(-math.sqrt(3), math.sqrt(3)), 32,
                           None)
