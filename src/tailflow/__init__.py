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

import ctypes

# glibc's malloc serves a block above its mmap threshold (128 KiB at start)
# with a fresh mmap, whose pages fault in on first write.  Freeing such a
# block raises the threshold to the block's size and the trim threshold to
# twice that, and heap past the trim threshold goes back to the kernel, so
# which of a step's large arrays fault again depends on the order of earlier
# frees.  A 10-epoch d=20 density fit took 24k-80k minor faults that way
# (getrusage, 9 fits) and takes about none with the thresholds pinned at
# 32 MiB (mmap) and 1 GiB (trim).  The setting holds for the whole process;
# every submodule import runs this once.  A libc without ``mallopt`` is left
# as it is.
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):
    pass
else:
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD

from . import (
    autodiff,
    experiments,
    flows,
    special,
    tailest,
    tailtransform,
    training,
)

__version__ = "0.1.0"

__all__ = [
    "autodiff",
    "experiments",
    "flows",
    "special",
    "tailest",
    "tailtransform",
    "training",
    "__version__",
]
