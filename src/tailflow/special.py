"""Numerically stable special functions and the package's random stream.

Everything downstream leans on ``erfc`` keeping full *relative* accuracy
arbitrarily far into the tail, because tail probabilities get raised to
negative powers later on and absolute accuracy is worthless there.
:class:`Rng` makes every draw deterministic given a seed; the samplers that
draw from it live in ``autodiff``, since on a tape their draws are
differentiable, and ``gamma_dsample_dshape`` here is the derivative they use.
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
    "gamma_dsample_dshape",
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


def _asymptotic_corr(z2: np.ndarray) -> np.ndarray:
    """corr, given z^2, in log erfc(z) = -z^2 - log(z sqrt(pi)) + log1p(corr):
    the six terms -1/(2z^2) + 3/(2z^2)^2 - ... of the asymptotic series.  The
    first omitted term, 13!!/(2z^2)^7, is below 1.6e-17 beyond the tail
    switch, so corr is good to ~1e-16 relative there, and 0 once 2z^2 overflows."""
    with np.errstate(over="ignore"):
        inv = 1.0 / (2.0 * z2)
    corr = np.zeros_like(z2)
    term = np.ones_like(z2)
    for n in range(1, 7):
        term = term * (-(2 * n - 1)) * inv
        corr = corr + term
    return corr


def _log_erfc_asymptotic(z: np.ndarray) -> np.ndarray:
    # Above ~1.3e154 z^2 overflows to inf and the result is its limit, -inf.
    with np.errstate(over="ignore"):
        z2 = z * z
    return -z2 - np.log(z) - _LOG_SQRT_PI + np.log1p(_asymptotic_corr(z2))


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
    """``dlog_erfc(z)`` from log_erfc(z) already in hand; z an array.  Beyond
    the tail switch, where -z^2 - log erfc(z) cancels, it is the exact
    -2z / (1 + corr) of the series that ``log_erfc`` sums there."""
    with np.errstate(over="ignore", invalid="ignore"):  # far lanes are replaced
        out = -_TWO_OVER_SQRT_PI * np.exp(-z * z - log_erfc_z)
    if np.max(z, initial=-np.inf) > _TAIL_SWITCH:  # no lane mask unless it is needed
        far = z > _TAIL_SWITCH
        zf = np.where(far, z, _TAIL_SWITCH)
        with np.errstate(over="ignore"):  # z^2 and 2z overflow to their limits
            out = np.where(far, -2.0 * zf / (1.0 + _asymptotic_corr(zf * zf)), out)
    return out


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
