import numpy as np
import pytest

from kaclab.core import bimodal_density, gaussian_density
from kaclab.experiments import _rate_ks, sphere_table
from kaclab.kacsphere import CACHE_ENV_VAR
from kaclab.transport import TRUNCATION


RATE_NS = [32, 64, 128, 256, 512, 1024]

# the max-norm distance within which ``_merged_loop`` takes two points as one
MERGE_TOL = 1e-12


@pytest.fixture(scope="session", autouse=True)
def fresh_table_cache(tmp_path_factory):
    """Point the partition-table disk cache at an empty session directory.

    Cache files are keyed on the density's name, N, du and the k set, not
    on the code that built them, so tables left by an earlier run must not
    be read.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(CACHE_ENV_VAR, str(tmp_path_factory.mktemp("kaclab-cache")))
        yield


@pytest.fixture(scope="session")
def gauss():
    return gaussian_density()


@pytest.fixture(scope="session")
def bimodal():
    return bimodal_density()


@pytest.fixture(scope="session")
def gauss_table_32(gauss):
    return sphere_table(gauss, 32, range(1, 33))


@pytest.fixture(scope="session")
def bimodal_table_32(bimodal):
    return sphere_table(bimodal, 32, range(1, 33))


@pytest.fixture(scope="session")
def gauss_rate_table(gauss):
    return sphere_table(gauss, max(RATE_NS), _rate_ks(RATE_NS))


@pytest.fixture(scope="session")
def bimodal_rate_table(bimodal):
    return sphere_table(bimodal, max(RATE_NS), _rate_ks(RATE_NS))


def _w1_line_dp(xs, ys) -> np.ndarray:
    """Bounded-cost transport distance between R pairs of equal-size
    configurations on the line by an O(n^2) dynamic program, the large-n
    oracle for ``transport.w1_line``: row r is the minimum over relabelings
    of mean min(|xs[r] - ys[r]_perm|, TRUNCATION).

    An optimum leaves pairs farther apart than TRUNCATION unmatched at cost
    TRUNCATION each, and its matched pairs can be taken monotone, so an
    edit-distance recursion over the sorted rows solves it. Written for the
    gain G[i][j] = D[i][j] - (i + j) TRUNCATION / 2 over the partial
    optimum D, the gap moves cost nothing and only the match move adds
    |x_i - y_j| - TRUNCATION; each particle i is one vectorised step over
    all rows, its left moves resolved by a running minimum.
    """
    xs = np.sort(np.asarray(xs, dtype=float), axis=1)
    ys = np.sort(np.asarray(ys, dtype=float), axis=1)
    n = xs.shape[1]
    gain = np.zeros((len(xs), n + 1))   # column 0: no y used, gain 0
    for i in range(n):
        step = np.abs(xs[:, i, None] - ys) - TRUNCATION
        step += gain[:, :-1]
        np.minimum(step, gain[:, 1:], out=step)
        np.minimum.accumulate(step, axis=1, out=gain[:, 1:])
    return TRUNCATION + gain[:, -1] / n


def _merged_loop(points, weights):
    """Oracle of the atom rule: the sequential merge, one atom at a time in
    lexicographic order, each joining the current atom when it lies within
    MERGE_TOL (max norm) of that atom's first point. Returns the
    atoms' first points and their masses, normalised to sum 1."""
    order = np.lexsort(points.T[::-1])
    pts = points[order]
    wts = weights[order]
    keep_pts = [pts[0]]
    keep_wts = [wts[0]]
    for p, w in zip(pts[1:], wts[1:]):
        if np.max(np.abs(p - keep_pts[-1])) <= MERGE_TOL:
            keep_wts[-1] += w
        else:
            keep_pts.append(p)
            keep_wts.append(w)
    w = np.array(keep_wts)
    return np.array(keep_pts), w / w.sum()


@pytest.fixture(scope="session")
def w1_line_batch():
    return _w1_line_dp


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
