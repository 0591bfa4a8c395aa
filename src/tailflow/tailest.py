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
# The fewest samples the double bootstrap runs on.
MIN_BOOTSTRAP_ROWS = 500

_BOOTSTRAP_REPS = 500
# Resampled values per block of the bootstrap (about 0.2 MB per temporary).
# No block size page-faults with the package's malloc thresholds, but larger
# temporaries fall out of cache and smaller blocks add loop overhead: the
# n=5000, d=5 ``estimate_marginal_tails`` took a median 345-367 ms at 25k
# values, 359-416 at 100k, 400-456 at 400k and 372-415 at 12k.
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
    neg_logx = -np.log(np.where(x > 0.0, x, np.nan))
    # Every finite log of a double has |log x| <= 745, so the means below
    # are bounded and each Q(k)^2 is finite (< 1e14) whatever n1 is: only
    # a sample with a nonpositive or infinite value needs the mask.
    all_finite = np.isfinite(neg_logx).all()
    ks = np.arange(2, n1)
    acc = np.zeros(ks.size)
    cnt = np.zeros(ks.size, dtype=np.int64)
    rows = max(1, _BOOTSTRAP_BLOCK_VALUES // n1)
    done = 0
    while done < reps:
        b = min(rows, reps - done)
        logs = neg_logx[rng.integers(0, n, size=(b, n1))]
        logs.sort(axis=1)
        np.negative(logs, out=logs)  # descending, NaN last
        c1 = np.cumsum(logs, axis=1)
        c2 = logs * logs
        np.cumsum(c2, axis=1, out=c2)
        s1 = c1[:, 1:-1]  # sums of the top k, k = 2 .. n1-1
        t = logs[:, 2:]  # the (k+1)-th largest
        # q2 = (m2 - 2 m1 m1)^2 with m1 = s1/k - t and
        # m2 = c2/k - 2 t s1/k + t t, in place, in the same op order
        m1 = s1 / ks
        m1 -= t
        q2 = c2[:, 1:-1] / ks
        tmp = 2.0 * t
        tmp *= s1
        tmp /= ks
        q2 -= tmp
        np.multiply(t, t, out=tmp)
        q2 += tmp
        np.multiply(2.0, m1, out=tmp)
        tmp *= m1
        q2 -= tmp
        np.multiply(q2, q2, out=q2)
        if all_finite:
            cnt += b
        else:
            ok = np.isfinite(q2)
            q2[~ok] = 0.0
            cnt += ok.sum(axis=0)
        q2[0] += acc
        acc = q2.sum(axis=0)
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


def hill_double_bootstrap(samples: np.ndarray, rng: special.Rng) -> DoubleBootstrapResult:
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
    if n < MIN_BOOTSTRAP_ROWS:
        raise ValueError(f"double bootstrap needs n >= {MIN_BOOTSTRAP_ROWS}, got {n}")
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
    """Maximum-likelihood GPD scale for positive threshold excesses x at a
    fixed shape.

    Solves the score equation (1 + shape) mean(x / (scale + shape x)) = 1
    by bisection on the scale.  For shape > -1 its left side falls strictly
    from above 1, as the scale falls to max(0, -shape max x), to 0 as the
    scale grows, so the root is unique.  Shape 0 gives the mean excess.
    Raises ValueError for shape <= -1, where the likelihood grows without
    bound as the support's end falls to max x: there is no interior ML scale.
    """
    x = np.asarray(excesses, dtype=float).ravel()
    if not (x.size and np.all(x > 0.0) and np.all(np.isfinite(x))):
        raise ValueError("GPD scale fit needs finite positive excesses")
    if shape <= -1.0:
        raise ValueError(f"GPD shape {shape} <= -1 has no interior ML scale")
    if shape == 0.0:
        return float(np.mean(x))

    def score(scale: float) -> float:
        den = scale + shape * x
        if np.any(den <= 0.0):  # the support ends before max x: too small
            return math.inf
        return (1.0 + shape) * float(np.mean(x / den)) - 1.0

    lo = max(0.0, -shape * float(np.max(x)))
    hi = max(2.0 * lo, float(np.mean(x)))
    while score(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if score(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def _fminbound(func, lo: float, hi: float) -> tuple[float, float]:
    """Bounded Brent minimisation of func(theta) over [lo, hi]; returns (theta, value).

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
    fx = func(xf)
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
        fu = func(u)
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

    The likelihood is a GPD's over theta = shape/scale, with the scale
    profiled out; it is infinite where no scale is positive.  Each row of a
    contiguous log1p matrix is averaged with the same pairwise sum as a 1-D
    mean, so a theta's values do not depend on the grid around it.  Rows go
    in chunks of about ``_GRID_CHUNK_VALUES`` values.
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
        t_min, f_min = _fminbound(lambda t: float(_profile_grid(np.array([t]), x)[0][0]),
                                  lo, hi)
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


def estimate_marginal_tails(data: np.ndarray, rng: special.Rng) -> TailEstimate:
    """Per-dimension double-bootstrap tail shapes of |x - median|.

    Pooling both tails around the median enforces a common shape for
    the lower and upper tail of each marginal.  Light-tailed dimensions
    get the 1/1000 convention.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise ValueError("expected an n x d data matrix")
    n, d = x.shape
    if n < MIN_BOOTSTRAP_ROWS:
        raise ValueError(f"double bootstrap needs n >= {MIN_BOOTSTRAP_ROWS}, got {n}")
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
