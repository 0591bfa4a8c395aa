"""Tail-index estimation from samples.

Three estimators cooperate here.  The Hill estimator is the mean log
spacing of the top order statistics above the k-th largest value; it is
consistent for the tail index of a regularly varying distribution but
needs k chosen well.  The double bootstrap of Danielsson et al. picks k
by matching the bootstrap mean squared error of an auxiliary statistic
Q(k) = M2(k) - 2*M1(k)^2 across two subsample sizes, where M1 is the
Hill statistic and M2 the second moment of the log spacings.  For
threshold excesses we also fit a generalized Pareto by profile maximum
likelihood over theta = shape/scale (Grimshaw's reduction).

Light-tail detection: a genuine power tail places the bootstrap MSE
minimum at an order-statistic count growing like a power of n, in the
right half of the log-k grid.  When the smoothed MSE curve never leaves
the left half (it rises once past the small-k noise floor, i.e. has no
interior minimum at tail scale) the marginal is declared light tailed
and mapped to the 1/1000 shape convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import special

# Shape assigned to dimensions flagged light tailed (degree of freedom 1000).
LIGHT_TAIL_SHAPE = 1e-3

_BOOTSTRAP_REPS = 500
# Resampled values per block of the bootstrap (about 0.2 MB per temporary);
# larger blocks page-fault more than they save in loop overhead.
_BOOTSTRAP_BLOCK_VALUES = 25_000
_SUBSAMPLE_EXPONENT = 0.955
_FALLBACK_EXPONENT = 0.6
_SMOOTH_BINS = 40
_LIGHT_SHAPE_THRESHOLD = 0.02
_SHAPE_LO = -0.5
_SHAPE_HI = 10.0
# log1p values per chunk of the GPD profile grid (about 0.5 MB per temporary).
_GRID_CHUNK_VALUES = 65_536


class DoubleBootstrapResult(NamedTuple):
    shape: float
    k: int
    light_tailed: bool
    fallback: bool


@dataclass
class TailEstimate:
    """Per-dimension tail shapes with the order-statistic counts used.

    ``shape[j]`` is 1/1000 wherever ``light_tailed[j]`` is set.
    """

    shape: np.ndarray
    k: np.ndarray
    light_tailed: np.ndarray

    def __post_init__(self) -> None:
        self.shape = np.asarray(self.shape, dtype=float)
        self.k = np.asarray(self.k, dtype=int)
        self.light_tailed = np.asarray(self.light_tailed, dtype=bool)
        if np.any(self.shape < 0.0):
            raise ValueError("tail shapes must be nonnegative")

    @property
    def dim(self) -> int:
        return self.shape.size


class GpdFitError(RuntimeError):
    """Profile-likelihood failure; carries the evaluated (theta, loglik) trace."""

    def __init__(self, message: str, trace: np.ndarray | None = None):
        super().__init__(message)
        self.trace = trace


def hill_estimator(samples: np.ndarray, k: int) -> float:
    """Mean log spacing of the k largest samples over the (k+1)-th largest.

    All values from the (k+1)-th largest up must be strictly positive.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if k < 2:
        raise ValueError("hill estimator needs k >= 2")
    if k >= n:
        raise ValueError(f"k={k} must be below the sample count n={n}")
    window = x[n - k - 1:]
    if window[0] <= 0.0 or not np.all(np.isfinite(window)):
        raise ValueError("top-k window must be strictly positive and finite")
    return float(np.mean(np.log(window[1:])) - np.log(window[0]))


def _bootstrap_mse_curve(
    x: np.ndarray, n1: int, rng: special.Rng, reps: int = _BOOTSTRAP_REPS
) -> tuple[np.ndarray, np.ndarray]:
    """Bootstrap-averaged Q(k)^2 over resamples of size n1.

    Returns (k grid, mse) restricted to k valid in every resample.
    Nonpositive draws sort to the end as NaN and poison only the k
    values that would reach them.

    Resamples are drawn and reduced in blocks of about
    ``_BOOTSTRAP_BLOCK_VALUES`` values, so memory is bounded by about ten
    temporaries of that size whatever ``n1`` and ``reps`` are.  The curve
    does not depend on the block size: the index stream is drawn value by
    value, and each resample's Q(k)^2 is added to the running sum in
    resample order (an axis-0 sum adds rows in order).
    """
    n = x.size
    logx = np.log(np.where(x > 0.0, x, np.nan))
    ks = np.arange(2, n1)
    acc = np.zeros(ks.size)
    cnt = np.zeros(ks.size, dtype=np.int64)
    rows = max(1, _BOOTSTRAP_BLOCK_VALUES // n1)
    done = 0
    while done < reps:
        b = min(rows, reps - done)
        logs = logx[rng.integers(0, n, size=(b, n1))]
        logs = -np.sort(-logs, axis=1)  # descending, NaN last
        c1 = np.cumsum(logs, axis=1)
        c2 = np.cumsum(logs * logs, axis=1)
        s1 = c1[:, 1:-1]  # sums of the top k, k = 2 .. n1-1
        t = logs[:, 2:]  # the (k+1)-th largest
        m1 = s1 / ks - t
        m2 = c2[:, 1:-1] / ks - 2.0 * t * s1 / ks + t * t
        q2 = (m2 - 2.0 * m1 * m1) ** 2
        ok = np.isfinite(q2)
        q2 = np.where(ok, q2, 0.0)
        q2[0] += acc
        acc = q2.sum(axis=0)
        cnt += ok.sum(axis=0)
        done += b
    full = np.nonzero(cnt == reps)[0]
    return ks[full], acc[full] / reps


def _smoothed_argmin(grid: np.ndarray, mse: np.ndarray) -> tuple[int, int, int]:
    """Argmin of the bin-averaged curve on a geometric k grid.

    Returns (winning bin, raw argmin k within it, bin count).  Bin means
    suppress the spiky per-k noise of the squared statistic so the
    minimum reflects the curve's actual trough.
    """
    nbins = min(_SMOOTH_BINS, grid.size)
    edges = np.exp(np.linspace(np.log(grid[0]), np.log(grid[-1]), nbins + 1))
    which = np.clip(np.searchsorted(edges, grid, side="right") - 1, 0, nbins - 1)
    means = np.full(nbins, np.inf)
    for b in range(nbins):
        sel = which == b
        if sel.any():
            means[b] = float(np.mean(mse[sel]))
    best = int(np.argmin(means))
    sel = which == best
    k_at = int(grid[sel][np.argmin(mse[sel])])
    return best, k_at, nbins


def hill_double_bootstrap(
    samples: np.ndarray, rng: special.Rng | None = None
) -> DoubleBootstrapResult:
    """Hill estimate at a bootstrap-selected order-statistic count.

    Two bootstrap MSE curves at subsample sizes n1 = floor(n^0.955) and
    n2 = floor(n1^2/n) are minimised; their argmins combine into

        k* = (k1^2/k2) * ((log k1)^2 / (2 log n1 - log k1)^2)
                          ** ((log n1 - log k1) / log n1).

    A k* outside [2, n) falls back to floor(n^0.6) with the fallback
    flag set.  The light_tailed flag fires when the smoothed n1 curve
    has its minimum in the left half of the log-k grid or the resulting
    shape estimate is below 0.02.
    """
    x = np.asarray(samples, dtype=float).ravel()
    n = x.size
    if n < 500:
        raise ValueError(f"double bootstrap needs n >= 500, got {n}")
    if rng is None:
        rng = special.Rng(0)
    n1 = int(n ** _SUBSAMPLE_EXPONENT)
    n2 = int(n1 * n1 / n)
    g1, mse1 = _bootstrap_mse_curve(x, n1, rng)
    g2, mse2 = _bootstrap_mse_curve(x, n2, rng)

    fallback = g1.size < 8 or g2.size < 8
    monotone = False
    k_star = 0.0
    if not fallback:
        b1, k1, nb = _smoothed_argmin(g1, mse1)
        _, k2, _ = _smoothed_argmin(g2, mse2)
        monotone = b1 <= nb // 2
        ln1, lk1 = np.log(n1), np.log(k1)
        k_star = (k1 * k1 / k2) * (
            (lk1 * lk1) / (2.0 * ln1 - lk1) ** 2
        ) ** ((ln1 - lk1) / ln1)
        fallback = not (np.isfinite(k_star) and 2 <= round(k_star) < n)
    k = int(n ** _FALLBACK_EXPONENT) if fallback else int(round(k_star))
    k = max(2, min(k, n - 1))
    shape = hill_estimator(x, k)
    light = monotone or shape < _LIGHT_SHAPE_THRESHOLD
    return DoubleBootstrapResult(shape, k, light, fallback)


def _gpd_profile_negloglik(theta: float, x: np.ndarray) -> float:
    """Negative profile log likelihood of a GPD over theta = shape/scale."""
    n = x.size
    if theta == 0.0:
        return n * (np.log(np.mean(x)) + 1.0)
    lam = float(np.mean(np.log1p(theta * x)))
    if not np.isfinite(lam) or lam / theta <= 0.0:
        return np.inf
    return n * (np.log(lam / theta) + lam + 1.0)


def gpd_fit_ml(excesses: np.ndarray) -> tuple[float, float]:
    """Maximum-likelihood GPD (shape, scale) for positive threshold excesses.

    Profiles over theta = shape/scale on a dense grid spanning
    (-1/max(x), 0) and several decades of positive values, then refines
    the best bracket; the shape is constrained to (-0.5, 10).
    """
    x = np.asarray(excesses, dtype=float).ravel()
    if x.size < 30:
        raise ValueError(f"GPD fit needs at least 30 excesses, got {x.size}")
    return _profile_fit(x)


def gpd_fit_scale(excesses: np.ndarray, shape: float) -> float:
    """Maximum-likelihood GPD scale for threshold excesses at a fixed shape.

    Solves mean(log1p(theta x)) = shape for theta = shape/scale; the
    left side is increasing in theta so bisection is safe.  Falls back to
    the mean excess (the exponential's scale) when no root is bracketed.
    """
    if shape == 0.0:
        return float(np.mean(excesses))
    lo, hi = 1e-12, 1e12
    f = lambda t: float(np.mean(np.log1p(t * excesses))) - shape
    if f(lo) > 0.0 or f(hi) < 0.0:
        return float(np.mean(excesses))
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    theta = math.sqrt(lo * hi)
    return shape / theta


def _fminbound(func, lo: float, hi: float, x: np.ndarray) -> tuple[float, float]:
    """Bounded Brent minimisation of func(theta, x) over [lo, hi]; returns (theta, value).

    The Forsythe-Malcolm-Moler fminbound (golden sections with parabolic
    steps), as scipy.optimize.minimize_scalar(method="bounded") runs it,
    copied op for op with its defaults (absolute x tolerance 1e-5, at most
    500 evaluations), so the minimiser's output is the same bits; loading
    scipy.optimize for this one call would cost ~20 MB of resident memory.
    """
    xatol, maxfun = 1e-5, 500
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf, x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if np.abs(e) > tol1:  # try a parabolic step
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if np.abs(p) < np.abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                u = xf + rat
                if (u - a) < tol2 or (b - u) < tol2:
                    rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        u = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
        fu = func(u, x)
        num += 1
        if fu <= fx:
            if u >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = u, fu
        else:
            if u < xf:
                a = u
            else:
                b = u
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = u, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = u, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return float(xf), float(fx)


def _profile_grid(thetas: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(negative profile log likelihood, mean log1p(theta x)) at every theta.

    The same values as ``_gpd_profile_negloglik`` theta by theta: each row
    of a contiguous log1p matrix is averaged with the same pairwise sum as
    a 1-D mean.  Rows go in chunks of about ``_GRID_CHUNK_VALUES`` values.
    """
    n = x.size
    lams = np.empty(thetas.size)
    rows = max(1, _GRID_CHUNK_VALUES // n)
    for s in range(0, thetas.size, rows):
        t = thetas[s:s + rows]
        lams[s:s + rows] = np.mean(np.log1p(t[:, None] * x[None, :]), axis=1)
    zero = thetas == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = lams / thetas
        nll = np.where(np.isfinite(lams) & (ratio > 0.0),
                       n * (np.log(ratio) + lams + 1.0), np.inf)
    nll[zero] = n * (np.log(np.mean(x)) + 1.0)
    return nll, lams


def _profile_fit(x: np.ndarray) -> tuple[float, float]:
    """Grid-plus-refine profile maximum likelihood; no sample-count gate."""
    if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
        raise ValueError("excesses must be strictly positive and finite")
    xmax = float(np.max(x))
    xbar = float(np.mean(x))
    if np.min(x) == xmax:
        raise GpdFitError("degenerate sample: all excesses equal")

    neg = -np.linspace(1e-6, 1.0 - 1e-6, 160) / xmax
    pos = np.logspace(np.log10(1e-6 / xbar), np.log10(1e4 / xbar), 320)
    thetas = np.concatenate([neg[::-1], [0.0], pos])
    nll, lams = _profile_grid(thetas, x)
    feasible = np.isfinite(nll) & (lams > _SHAPE_LO) & (lams < _SHAPE_HI)
    if not feasible.any():
        raise GpdFitError(
            "no feasible point in the shape window",
            trace=np.column_stack([thetas, -nll]),
        )
    masked = np.where(feasible, nll, np.inf)
    i = int(np.argmin(masked))
    lo = thetas[max(i - 1, 0)]
    hi = thetas[min(i + 1, thetas.size - 1)]
    if lo < hi:
        t_min, f_min = _fminbound(_gpd_profile_negloglik, lo, hi, x)
        theta = t_min if f_min <= masked[i] else float(thetas[i])
    else:
        theta = float(thetas[i])

    if theta == 0.0:
        return 0.0, xbar
    lam = float(np.mean(np.log1p(theta * x)))
    if not (_SHAPE_LO < lam < _SHAPE_HI):
        lam = float(np.clip(lam, _SHAPE_LO + 1e-9, _SHAPE_HI - 1e-9))
    return lam, lam / theta if lam != 0.0 else xbar


def gpd_log_density(x: np.ndarray, shape: float, scale: float) -> np.ndarray:
    """Log density of the GPD with location 0; shape 0 is the exponential."""
    x = np.asarray(x, dtype=float)
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    if shape == 0.0:
        return -x / scale - np.log(scale)
    arg = 1.0 + shape * x / scale
    out = np.where(arg > 0.0, arg, np.nan)
    return (-1.0 / shape - 1.0) * np.log(out) - np.log(scale)


def gpd_log_survivor(e: np.ndarray, shape: float, scale: float) -> np.ndarray:
    """log(1 - cdf) of the GPD with location 0 at excess e >= 0.

    Returns -inf beyond the bounded support of a negative shape.
    """
    e = np.asarray(e, dtype=float)
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    if shape == 0.0:
        return -e / scale
    t = shape * e / scale
    # log1p keeps small excesses accurate in relative terms
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(t > -1.0, -np.log1p(t) / shape, -np.inf)


def gpd_excess_at_log_survivor(log_s: np.ndarray, shape: float, scale: float) -> np.ndarray:
    """Inverse of ``gpd_log_survivor``: the excess whose log survivor is log_s <= 0.

    expm1 keeps the small-shape limit -scale * log_s accurate.
    """
    log_s = np.asarray(log_s, dtype=float)
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    if np.any(log_s > 0.0):
        raise ValueError("log survivor must be nonpositive")
    if shape == 0.0:
        return -scale * log_s
    return scale * (np.expm1(-shape * log_s) / shape)


def estimate_marginal_tails(
    data: np.ndarray, rng: special.Rng | None = None
) -> TailEstimate:
    """Per-dimension double-bootstrap tail shapes of |x - median|.

    Pooling both tails around the median enforces a common shape for
    the lower and upper tail of each marginal.  Light-tailed dimensions
    get the 1/1000 convention.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise ValueError("expected an n x d data matrix")
    n, d = x.shape
    if n < 500:
        raise ValueError(f"double bootstrap needs n >= 500, got {n}")
    if rng is None:
        rng = special.Rng(0)
    shapes = np.empty(d)
    ks = np.empty(d, dtype=int)
    light = np.empty(d, dtype=bool)
    for j in range(d):
        centered = np.abs(x[:, j] - np.median(x[:, j]))
        res = hill_double_bootstrap(centered, rng.child(j))
        light[j] = res.light_tailed
        ks[j] = res.k
        shapes[j] = LIGHT_TAIL_SHAPE if res.light_tailed else max(res.shape, 0.0)
    return TailEstimate(shape=shapes, k=ks, light_tailed=light)
