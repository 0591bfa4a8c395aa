"""Normalizing flows with generalized Pareto tails.

Submodules:

- ``special``: erfc-family scalar kernels and the deterministic RNG.
- ``autodiff``: append-only reverse-mode tape over numpy values.
- ``tailtransform``: the elementwise tail transform and its inverse.
- ``flows``: autoregressive flow layers, base distributions, assembly.
- ``tailest``: Hill/double-bootstrap and GPD maximum likelihood.
- ``training``: Adam, density-estimation and ELBO fitting loops.
- ``experiments``: synthetic benchmarks, copula baseline, diagnostics.
- ``cli``: command-line entry point, not imported with the package, so that
  ``python -m tailflow.cli`` runs it as a fresh module.
"""

from . import (
    autodiff,
    experiments,
    flows,
    special,
    tailest,
    tailtransform,
    training,
)
from .flows import build_architecture, flow_log_prob, flow_sample, load_model, save_model
from .tailest import (
    TailEstimate,
    estimate_marginal_tails,
    gpd_fit_ml,
    gpd_fit_scale,
    hill_estimator,
)
from .training import TrainConfig, TrainResult, fit_density, fit_vi

__version__ = "0.1.0"

__all__ = [
    "autodiff",
    "build_architecture",
    "estimate_marginal_tails",
    "experiments",
    "fit_density",
    "fit_vi",
    "flow_log_prob",
    "flow_sample",
    "flows",
    "gpd_fit_ml",
    "gpd_fit_scale",
    "hill_estimator",
    "load_model",
    "save_model",
    "special",
    "TailEstimate",
    "tailest",
    "tailtransform",
    "TrainConfig",
    "training",
    "TrainResult",
    "__version__",
]
