"""kaclab: a numerical laboratory for chaos quantifiers of exchangeable
N-particle systems.

Modules:

* ``core``        shared domain types, densities, grids, quadrature
* ``transport``   exact transport distances and their LP oracle
* ``sobolev``     the negative-Sobolev kernel metric
* ``information`` entropy and Fisher functionals
* ``kacsphere``   uniform and conditioned laws on the sphere sum v_i^2 = N
* ``clt``         local central limit theorem harness
* ``chaos``       chaos quantifiers and finite-alphabet oracles
* ``mixtures``    finite density mixtures and level-3 functionals
* ``experiments`` named experiment suites behind the CLI and acceptance
"""
from .core import (Configuration, Density, DiscreteMeasure, GridDensity,
                   ProductGridDensity, RateReport, bimodal_density,
                   gaussian_density, gaussian_mixture, gauss_quadrature,
                   loglog_fit, make_empirical, uniform_density)

__version__ = "0.1.0"

__all__ = [
    "Configuration",
    "Density",
    "DiscreteMeasure",
    "GridDensity",
    "ProductGridDensity",
    "RateReport",
    "bimodal_density",
    "gaussian_density",
    "gaussian_mixture",
    "gauss_quadrature",
    "loglog_fit",
    "make_empirical",
    "uniform_density",
    "__version__",
]
