"""Numerically stable special functions and random sampling primitives.

Everything downstream leans on two properties established here:

* ``erfc`` keeps full *relative* accuracy arbitrarily far into the tail,
  because tail probabilities get raised to negative powers later on and
  absolute accuracy is worthless there.
* samplers are deterministic given an :class:`Rng` and differentiable where
  training requires it (``sample_gamma`` / ``sample_student_t`` expose a
  pathwise derivative with respect to their shape parameter).
"""

from __future__ import annotations

import numpy as np
from scipy import special as sp

__all__ = [
    "Rng",
    "erfc",
    "log_erfc",
    "dlog_erfc",
    "erfc_inv",
    "std_normal_quantile",
    "sample_gamma",
    "gamma_dsample_dshape",
    "sample_student_t",
]

_SQRT2 = np.sqrt(2.0)
_TWO_OVER_SQRT_PI = 2.0 / np.sqrt(np.pi)
_LOG_SQRT_PI = 0.5 * np.log(np.pi)
# Smallest positive subnormal double: the floor that keeps extreme-tail
# erfc values positive instead of flushing to zero.
_TINY = 5e-324
# Beyond this point scipy's erfc result is subnormal-adjacent; switch to the
# log-space asymptotic series, which stays fully accurate.
_TAIL_SWITCH = 26.0


class Rng:
    """Deterministic random stream: equal seeds give identical sequences.

    A thin wrapper over a PCG64 generator.  ``child(key)`` derives an
    independent stream from (seed, key), so substreams are reproducible
    without sharing state.
    """

    def __init__(self, seed: int, _entropy: tuple | None = None):
        self.seed = int(seed)
        self._entropy = _entropy if _entropy is not None else (self.seed,)
        self.gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self._entropy)))

    def child(self, key: int) -> "Rng":
        return Rng(self.seed, _entropy=self._entropy + (int(key),))

    def normal(self, size=None) -> np.ndarray:
        return self.gen.standard_normal(size)

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        return self.gen.uniform(low, high, size)

    def integers(self, low, high=None, size=None) -> np.ndarray:
        return self.gen.integers(low, high, size)

    def student_t(self, nu: float, size=None) -> np.ndarray:
        return self.gen.standard_t(nu, size)

    def permutation(self, n: int) -> np.ndarray:
        return self.gen.permutation(n)


def _log_erfc_asymptotic(z: np.ndarray) -> np.ndarray:
    # log erfc(z) = -z^2 - log(z sqrt(pi)) + log(1 - 1/(2z^2) + 3/(4z^4) - ...)
    # Six correction terms give ~1e-16 relative accuracy for z >= 26.
    z2 = z * z
    inv = 1.0 / (2.0 * z2)
    corr = np.zeros_like(z)
    term = np.ones_like(z)
    for n in range(1, 7):
        term = term * (-(2 * n - 1)) * inv
        corr = corr + term
    return -z2 - np.log(z) - _LOG_SQRT_PI + np.log1p(corr)


def erfc(z, out=None):
    """Complementary error function with subnormal-safe deep tails.

    Returns values in (0, 2); for z up to 30 the result is a small positive
    number rather than exactly zero.  ``out``, a float array of z's shape,
    receives the result and may be z itself.
    """
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("erfc: non-finite input")
    far = z > _TAIL_SWITCH
    zf = z[far]  # read before ``out``, which may be z, is written
    if out is None:
        out = np.empty_like(z)
    sp.erfc(np.minimum(z, _TAIL_SWITCH, out=out), out=out)
    if zf.size:
        with np.errstate(under="ignore"):
            tail = np.exp(_log_erfc_asymptotic(zf))
        out[far] = np.maximum(tail, _TINY)
    return out if out.ndim else float(out)


def log_erfc(z):
    """log(erfc(z)), exact in relative terms across the whole tail."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("log_erfc: non-finite input")
    near = np.minimum(z, _TAIL_SWITCH)
    with np.errstate(divide="ignore"):
        out = np.log(sp.erfc(near))
    far = z > _TAIL_SWITCH
    if np.any(far):
        zf = np.where(far, z, _TAIL_SWITCH)
        out = np.where(far, _log_erfc_asymptotic(zf), out)
    return out if out.ndim else float(out)


def dlog_erfc(z):
    """Derivative of log(erfc(z)): -(2/sqrt(pi)) exp(-z^2 - log erfc(z)).

    Stable for any magnitude of z (tends to -2z for large z).
    """
    z = np.asarray(z, dtype=float)
    out = _dlog_erfc_at(z, log_erfc(z))
    return out if out.ndim else float(out)


def _dlog_erfc_at(z, log_erfc_z):
    """``dlog_erfc(z)`` from log_erfc(z) already in hand; z an array."""
    return -_TWO_OVER_SQRT_PI * np.exp(-z * z - log_erfc_z)


def erfc_inv(p):
    """Inverse of erfc on (0, 2).

    Uses the standard normal quantile for the initial value and one Newton
    polish step in log space, so the round trip through ``erfc`` holds to
    ~1e-10 relative accuracy down to p = 1e-280.
    """
    p = np.asarray(p, dtype=float)
    if np.any(~np.isfinite(p)) or np.any(p <= 0.0) or np.any(p >= 2.0):
        raise ValueError("erfc_inv: argument must lie in (0, 2)")
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    # Reflect p > 1 onto (0, 1]: 2 - p is exact in floating point on [1, 2].
    hi = p > 1.0
    q = np.where(hi, 2.0 - p, p)
    # q / 2 underflows to 0 at q = 5e-324, whose Newton step then starts at inf
    z = -sp.ndtri(np.maximum(q / 2.0, _TINY)) / _SQRT2
    # Newton step on f(z) = log erfc(z) - log q.
    lz = log_erfc(z)
    z = z - (lz - np.log(q)) / _dlog_erfc_at(z, lz)
    z = np.where(hi, -z, z)
    return float(z[0]) if scalar else z


def std_normal_quantile(p):
    """Standard normal quantile, accurate in both tails down to p = 1e-300."""
    p = np.asarray(p, dtype=float)
    if np.any(~np.isfinite(p)) or np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("std_normal_quantile: argument must lie in (0, 1)")
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    hi = p > 0.5
    q = np.where(hi, 1.0 - p, p)
    # Phi(z) = erfc(-z / sqrt 2) / 2, so Phi^{-1}(q) = -sqrt(2) erfc_inv(2q).
    z = -_SQRT2 * erfc_inv(2.0 * q)
    z = np.where(hi, -z, z)
    return float(z[0]) if scalar else z


def _sample_gamma_ge1(shape: float, rng: Rng, size: int) -> np.ndarray:
    # Marsaglia-Tsang squeeze sampler for shape >= 1.
    d = shape - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    out = np.empty(size)
    filled = 0
    while filled < size:
        m = max(size - filled, 16)
        x = rng.normal(m)
        v = (1.0 + c * x) ** 3
        u = rng.uniform(size=m)
        ok = v > 0
        x2 = x * x
        with np.errstate(divide="ignore", invalid="ignore"):
            accept = ok & (
                (u < 1.0 - 0.0331 * x2 * x2)
                | (np.log(u) < 0.5 * x2 + d * (1.0 - v + np.log(np.where(ok, v, 1.0))))
            )
        cand = d * v[accept]
        take = min(cand.size, size - filled)
        out[filled : filled + take] = cand[:take]
        filled += take
    return out


def sample_gamma(shape: float, rng: Rng, size=None):
    """Gamma(shape, 1) draws, reparameterizable in ``shape``.

    The pathwise derivative of a draw with respect to ``shape`` comes from
    :func:`gamma_dsample_dshape` (implicit differentiation of the CDF).
    """
    shape = float(shape)
    if not np.isfinite(shape) or shape <= 0.0:
        raise ValueError("sample_gamma: shape must be positive")
    n = 1 if size is None else int(size)
    if shape >= 1.0:
        out = _sample_gamma_ge1(shape, rng, n)
    else:
        # Shape augmentation: G_a = G_{a+1} * U^{1/a}.
        boost = _sample_gamma_ge1(shape + 1.0, rng, n)
        u = rng.uniform(size=n)
        with np.errstate(under="ignore"):
            out = boost * u ** (1.0 / shape)
    return float(out[0]) if size is None else out


def gamma_dsample_dshape(shape: float, value):
    """d(draw)/d(shape) for a Gamma(shape, 1) draw, holding its CDF level fixed.

    Implicit differentiation of P(shape, z) = u gives
    dz/dshape = -dP/dshape / pdf(z; shape); dP/dshape has no closed form and
    is computed by central differencing of the regularized incomplete gamma.
    Above the median, P is close to 1 and its differences cancel, so there
    the upper incomplete gamma Q = 1 - P is differenced instead.
    """
    shape = float(shape)
    value = np.asarray(value, dtype=float)
    h = 1e-6 * max(1.0, shape)
    dP = np.where(
        sp.gammainc(shape, value) > 0.5,
        sp.gammaincc(shape - h, value) - sp.gammaincc(shape + h, value),
        sp.gammainc(shape + h, value) - sp.gammainc(shape - h, value),
    ) / (2.0 * h)
    log_pdf = (shape - 1.0) * np.log(value) - value - sp.gammaln(shape)
    out = -dP * np.exp(-log_pdf)
    return out if out.ndim else float(out)


def sample_student_t(nu: float, rng: Rng, eps: float = 1e-24, size=None):
    """Student-T draws via z * sqrt(nu / (2 max(g, eps))), g ~ Gamma(nu/2, 1).

    The gamma route keeps the draw differentiable in ``nu``; the clamp keeps
    the reciprocal finite when g underflows.
    """
    nu = float(nu)
    if not np.isfinite(nu) or nu <= 0.0:
        raise ValueError("sample_student_t: nu must be positive")
    if eps < 0.0:
        raise ValueError("sample_student_t: eps must be nonnegative")
    n = 1 if size is None else int(size)
    g = np.asarray(sample_gamma(nu / 2.0, rng, size=n))
    g = np.maximum(g, eps)
    z = rng.normal(n)
    out = z * np.sqrt(nu / (2.0 * g))
    return float(out[0]) if size is None else out
