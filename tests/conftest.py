import numpy as np
import pytest

from kaclab.core import bimodal_density, gaussian_density
from kaclab.experiments import _rate_ks, sphere_table
from kaclab.kacsphere import CACHE_ENV_VAR
from kaclab.transport import TRUNCATION


RATE_NS = [32, 64, 128, 256, 512, 1024]


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


@pytest.fixture(scope="session")
def w1_line_batch():
    return _w1_line_dp


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
