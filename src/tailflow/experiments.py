"""Synthetic benchmarks, the copula-marginal baseline, and VI diagnostics.

The synthetic density-estimation task draws d-1 independent Student-T
coordinates and one conditionally Gaussian coordinate, so the only
dependency a model has to learn sits between the last two dimensions
while every marginal is heavy tailed.  The same density doubles as the
variational-inference target, where it is available in normalized form;
that makes importance-weight diagnostics (effective-sample-size
efficiency and the Pareto shape of the largest weights) exact.

The copula-style baseline, COMET, transforms each marginal through a
fitted cdf (kernel-density body, generalized Pareto tails spliced at the
5% and 95% empirical quantiles) followed by a logit, and trains the
``normal`` flow on the transformed data; its likelihoods are reported
back in data space through the accumulated Jacobian terms, and its draws
are ``comet_push`` of the flow's.  It is a protocol, not an architecture.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.special as sp
from scipy.special import expit, gammaln

from . import autodiff as ad
from . import flows, special, tailest, training

logger = logging.getLogger(__name__)

# Correctly rounded literals; computing them from the rounded 2 pi is 1 ulp low.
_LOG_2PI = 1.8378770664093456
_SQRT_2PI = 2.5066282746310007
_SQRT2 = math.sqrt(2.0)

# Marginal mass split of the copula baseline: 5% per tail, 90% body.
_TAIL_MASS = 0.05
_BODY_MASS = 1.0 - 2.0 * _TAIL_MASS
# Queries per block of the kernel body: each of its two buffers holds this
# many rows of (body point - query) values, which bounds the body's working
# memory (0.7 MB for a 2700-point body, as one buffer of 32 rows did; 32
# rows measured as fast, 8 slower).
_KERNEL_ROWS = 16
# erfc values the kernel writes instead of computing: sp.erfc(z) is exactly
# 2.0 for z <= _ERFC_TWO (erfc(5.87) < 2^-53), and special.erfc(z) is exactly
# special._TINY for z >= _ERFC_TINY (erfc(27.3) underflows to 0, which
# special.erfc raises to _TINY).  Tests pin both premises.
_ERFC_TWO = -6.0
_ERFC_TINY = 28.0
# The fewest samples a COMET marginal is fit on.
COMET_MIN_ROWS = 100


# -- synthetic generator --------------------------------------------------------------


# The train and validation shares of a DE split; the test split is the rest.
_TRAIN_FRACTION, _VALID_FRACTION = 0.4, 0.2


def split_sizes(n: int) -> tuple[int, int, int]:
    """Train, validation and test rows of the 40/20/40 split of n rows, the
    first two shares truncated; ``gen_synthetic_de`` and ``de-csv`` split so."""
    n_train, n_valid = int(_TRAIN_FRACTION * n), int(_VALID_FRACTION * n)
    return n_train, n_valid, n - n_train - n_valid


@dataclass
class SyntheticDeSpec:
    """Settings of the synthetic heavy-tailed estimation task."""

    d: int
    nu: float
    n: int = 5000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("synthetic task needs d >= 2")
        if not 0.0 < self.nu < math.inf:
            raise ValueError("degrees of freedom must be positive and finite")
        if self.n < 10:
            raise ValueError("sample count too small to split")


def _log_student_t(z, nu: float):
    """Log density of the standard Student-T; z may be a Var or array."""
    c = (
        float(gammaln((nu + 1.0) / 2.0) - gammaln(nu / 2.0))
        - 0.5 * math.log(nu * math.pi)
    )
    return ad.log1p(z * z / nu) * (-(nu + 1.0) / 2.0) + c


def vi_target_log_density(x, d: int, nu: float):
    """Normalized log density of the synthetic model.

    The first d-1 coordinates are iid Student-T with nu degrees of
    freedom; the last is Gaussian around coordinate d-1.  Takes an (n, d)
    matrix (Var or array).  Raises ValueError for d < 2, where the model
    has no Gaussian coordinate, and for any other shape of x.
    """
    if d < 2:
        raise ValueError("synthetic task needs d >= 2")
    if len(x.shape) != 2 or x.shape[1] != d:
        raise ValueError(f"expected an (n, {d}) matrix, got shape {x.shape}")
    gap = x[:, d - 1] - x[:, d - 2]
    return _log_student_t(x[:, :d - 1], nu).sum(axis=1) + (gap * gap) * (-0.5) \
        - 0.5 * _LOG_2PI


def gen_synthetic_de(spec: SyntheticDeSpec):
    """Sample the synthetic task and split it 40/20/40.

    The Student-T columns come on purpose from numpy's ``standard_t``
    (``special.Rng.student_t``), not ``autodiff.sample_student_t``: the
    data are an oracle sharing no code with the model under test.

    Returns (train, valid, test, log_density) where log_density is the
    exact joint density of the generator, usable as an oracle.
    """
    rng = special.Rng(spec.seed)
    x = np.empty((spec.n, spec.d))
    x[:, : spec.d - 1] = rng.student_t(spec.nu, size=(spec.n, spec.d - 1))
    x[:, spec.d - 1] = x[:, spec.d - 2] + rng.normal(size=spec.n)
    n_train, n_valid, _ = split_sizes(spec.n)

    def log_density(pts):
        return vi_target_log_density(pts, spec.d, spec.nu)

    return (
        x[:n_train],
        x[n_train: n_train + n_valid],
        x[n_train + n_valid:],
        log_density,
    )


# -- copula-marginal baseline ---------------------------------------------------------


@dataclass
class CometMarginal:
    """One marginal of the copula baseline: KDE body, GPD tails.

    The cdf pieces meet exactly at the junction quantiles (t_lo, t_hi)
    with masses 0.05 / 0.90 / 0.05, so the assembled cdf is continuous
    and strictly increasing.
    """

    t_lo: float
    t_hi: float
    points: np.ndarray  # sorted body subsample carrying the KDE
    bandwidth: float
    shape_lo: float
    scale_lo: float
    shape_hi: float
    scale_hi: float
    k_lo: float = field(default=0.0)  # raw kernel cdf at the junctions
    k_hi: float = field(default=1.0)
    tail_fallback: bool = False


def _body_kernel(m: CometMarginal, x: np.ndarray,
                 cdf: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
    """The body's raw kernel cdf (None unless ``cdf``) and density at x.

    Over the body points p they are 0.5 mean erfc((p - x_i) / (h sqrt 2))
    and mean exp(-((p - x_i) / h)^2 / 2) / (h sqrt(2 pi)).  Sorted queries go
    _KERNEL_ROWS at a time, so memory stays O(body points); a row's mean has
    the same bits in any block, and each query reads its row back through
    np.searchsorted, since equal queries give equal rows.  (np.argsort would
    fault in ~128 KB of numpy code that nothing else in a COMET fit runs.)
    A block forms p - x_i once: IEEE subtraction and division are
    sign-symmetric, so (p - x_i) / width has the bits of -(x_i - p) / width.
    With p and the queries sorted, an argument grows along its row and
    shrinks down its column, so the first row bounds the leading columns
    where all arguments are <= _ERFC_TWO and the last row the trailing ones
    where all are >= _ERFC_TINY.  Those get erfc's exact value (2 or _TINY),
    and erfc runs only on the columns between, on a contiguous copy in the
    second buffer.  Over the body lanes of a 2000 x 5 test split this took
    368-390 ms against 444-479 ms for the former separate cdf and density
    passes at nu = 2, and 439-450 against 559-624 ms at nu = 0.5 (CPU time
    scaled by the benchmark's reference kernel; 3 alternated runs).  A NaN
    query raises ValueError: it would sort last and void the fills.
    """
    x = np.asarray(x, dtype=float)
    xs = np.sort(x)
    if xs.size and np.isnan(xs[-1]):
        raise ValueError("body kernel: NaN query")
    n, h, w = xs.size, m.bandwidth, m.bandwidth * _SQRT2
    k, g = np.empty(n), np.empty(n)
    buf, aux = np.empty((2, min(_KERNEL_ROWS, n), m.points.size))
    for s in range(0, n, _KERNEL_ROWS):
        xb = xs[s:s + _KERNEL_ROWS, None]
        rows = len(xb)
        diff, q = buf[:rows], aux[:rows]
        np.subtract(m.points, xb, out=diff)
        np.divide(diff, h, out=q)
        # exp(-q^2 / 2), the same bits as np.exp(-0.5 * q * q): halving is
        # exact unless q^2 underflows or overflows, where both give 1 or 0
        np.square(q, out=q)
        q *= -0.5
        np.exp(q, out=q)
        np.mean(q, axis=1, out=g[s:s + rows])
        if cdf:
            lo = np.searchsorted(diff[0] / w, _ERFC_TWO, side="right")
            hi = np.searchsorted(diff[-1] / w, _ERFC_TINY)
            z = aux.reshape(-1)[:rows * (hi - lo)].reshape(rows, hi - lo)
            np.divide(diff[:, lo:hi], w, out=z)
            # special.erfc is scipy's erfc up to special._TAIL_SWITCH: a block
            # whose largest argument (first row, last column) stays there
            # skips the wrapper's finiteness and asymptotic-branch passes
            if hi == lo or z[0, -1] <= special._TAIL_SWITCH:
                sp.erfc(z, out=z)
            else:
                special.erfc(z, out=z)
            diff[:, :lo] = 2.0
            diff[:, lo:hi] = z
            diff[:, hi:] = special._TINY
            np.mean(diff, axis=1, out=k[s:s + rows])
    at = np.searchsorted(xs, x)  # each query's sorted row; tied rows agree
    return (0.5 * k[at] if cdf else None), g[at] / (h * _SQRT_2PI)


def comet_marginal_fit(
    samples: np.ndarray, tail_shape: float | None = None
) -> CometMarginal:
    """Fit one marginal: Silverman-bandwidth KDE body, ML-GPD tails.

    ``tail_shape`` pins both tail shapes, and each scale is then the ML
    scale at that shape (``tailest.gpd_fit_scale``); without it the shapes
    and scales come from the joint ML fit ``gpd_fit_ml``, falling back to
    exponential tails with a warning when a tail has fewer than 30 excesses
    or the fit is infeasible.  Samples must be finite.
    """
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    n = x.size
    if n < COMET_MIN_ROWS:
        raise ValueError(f"marginal fit needs n >= {COMET_MIN_ROWS}, got {n}")
    if not np.isfinite(x).all():
        raise ValueError("marginal fit needs finite samples")
    t_lo, t_hi = np.quantile(x, [_TAIL_MASS, 1.0 - _TAIL_MASS])
    body = x[(x >= t_lo) & (x <= t_hi)]
    sd = float(np.std(body))
    iqr = float(np.subtract(*np.percentile(body, [75, 25])))
    h = 0.9 * min(sd, iqr / 1.34 if iqr > 0 else np.inf) * body.size ** -0.2
    if not h > 0.0:
        h = max(1e-6, 1e-3 * (abs(float(np.mean(body))) + 1.0))

    def fit_tail(exc: np.ndarray) -> tuple[float, float, bool]:
        exc = exc[exc > 0.0]
        if tail_shape is not None and exc.size >= 5:
            return tail_shape, tailest.gpd_fit_scale(exc, tail_shape), False
        if exc.size >= 30:
            try:
                return (*tailest.gpd_fit_ml(exc), False)
            except tailest.GpdFitError:
                pass
        mean = float(np.mean(exc)) if exc.size else 1.0
        logger.warning("marginal tail fit fell back to an exponential tail")
        return 0.0, max(mean, 1e-12), True

    lam_lo, sig_lo, fb_lo = fit_tail(t_lo - x[x < t_lo])
    lam_hi, sig_hi, fb_hi = fit_tail(x[x > t_hi] - t_hi)
    m = CometMarginal(
        t_lo=float(t_lo),
        t_hi=float(t_hi),
        points=body,
        bandwidth=float(h),
        shape_lo=lam_lo,
        scale_lo=sig_lo,
        shape_hi=lam_hi,
        scale_hi=sig_hi,
        tail_fallback=fb_lo or fb_hi,
    )
    k, _ = _body_kernel(m, np.array([m.t_lo, m.t_hi]))
    m.k_lo, m.k_hi = float(k[0]), float(k[1])
    if m.k_hi <= m.k_lo:
        raise ValueError("degenerate body: kernel cdf is flat across the junctions")
    return m


def _body_cdf(m: CometMarginal, x: np.ndarray,
              cdf: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
    """The marginal's cdf (None unless ``cdf``) and log density at body
    points x: the kernel's, rescaled to carry mass 0.90 up from 0.05 at t_lo."""
    k, g = _body_kernel(m, x, cdf)
    with np.errstate(divide="ignore"):
        lp = math.log(_BODY_MASS) + np.log(g) - math.log(m.k_hi - m.k_lo)
    if cdf:
        # at t_hi, 0.05 + 0.90 r can round one ulp above the 0.95 that the
        # upper tail starts from; the cap keeps the cdf monotone there
        k = np.minimum(_TAIL_MASS + _BODY_MASS * (k - m.k_lo) / (m.k_hi - m.k_lo),
                       1.0 - _TAIL_MASS)
    return k, lp


def comet_marginal(m: CometMarginal, x: np.ndarray, cdf: bool = True
                   ) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray]:
    """The marginal's log cdf and log survivor (both None unless ``cdf``) and
    log density at x, with one kernel pass over the body lanes.  A tail's near
    side is log 0.05 + the GPD log survivor, its far side log1p(-exp(near))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    log_cdf, log_sf, lp = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    lo, hi = x < m.t_lo, x > m.t_hi
    for tail, e, shape, scale, near, far in (
            (lo, m.t_lo - x[lo], m.shape_lo, m.scale_lo, log_cdf, log_sf),
            (hi, x[hi] - m.t_hi, m.shape_hi, m.scale_hi, log_sf, log_cdf)):
        lp[tail] = math.log(_TAIL_MASS) + tailest.gpd_log_density(e, shape, scale)
        if cdf:
            near[tail] = math.log(_TAIL_MASS) + tailest.gpd_log_survivor(e, shape, scale)
            far[tail] = np.log1p(-np.exp(near[tail]))
    mid = ~(lo | hi)
    f, lp[mid] = _body_cdf(m, x[mid], cdf)
    lp = np.where(np.isnan(lp), -np.inf, lp)
    if not cdf:
        return None, None, lp
    log_cdf[mid] = np.log(f)
    log_sf[mid] = np.log(1.0 - f)
    return log_cdf, log_sf, lp


def _body_quantile(m: CometMarginal, u: np.ndarray) -> np.ndarray:
    """The marginal's quantile at body levels u, by bracketed Newton.

    All lanes are solved at once, each starting at the empirical quantile
    of the body points; a step that leaves its lane's bracket (t_lo, t_hi)
    bisects.  A lane stops at an exact root or once its step falls below
    1e-13 relative (at most 100 steps).  A level that rounds a hair outside
    [0.05, 0.95], as ``comet_push``'s logistic can, lands at the junction.
    """
    out = np.empty_like(u)
    lane = np.arange(u.size)  # lanes still running; the arrays below hold only those
    a, b = np.full(u.size, m.t_lo), np.full(u.size, m.t_hi)
    x = np.clip(np.quantile(m.points, np.clip((u - _TAIL_MASS) / _BODY_MASS, 0.0, 1.0)),
                np.nextafter(m.t_lo, m.t_hi), np.nextafter(m.t_hi, m.t_lo))
    for _ in range(100):
        f, lp = _body_cdf(m, x)
        fx = f - u
        # an exact root moves neither edge, so its zero step ends the lane
        b = np.where(fx > 0.0, x, b)
        a = np.where(fx < 0.0, x, a)
        pdf = np.exp(lp)
        nxt = x - fx / np.maximum(pdf, np.finfo(float).tiny)
        nxt = np.where((a < nxt) & (nxt < b), nxt, 0.5 * (a + b))  # else bisect
        done = np.abs(nxt - x) < 1e-13 * np.maximum(1.0, np.abs(x))
        out[lane[done]] = nxt[done]
        run = ~done
        lane, u, a, b, x = lane[run], u[run], a[run], b[run], nxt[run]
        if not lane.size:
            break
    out[lane] = x
    return out


def comet_logit(x: np.ndarray, marginals: list) -> tuple[np.ndarray, np.ndarray]:
    """Map data to the flow scale: u_j = log F_j(x_j) - log(1 - F_j(x_j)), the
    log cdf minus the log survivor of ``comet_marginal``.

    Returns (u, log_det) with log_det the per-row log Jacobian of the
    map, accumulated over dimensions.
    """
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    u = np.empty_like(x)
    ld = np.zeros(n)
    for j, m in enumerate(marginals):
        log_f, log_1mf, log_pdf = comet_marginal(m, x[:, j])
        u[:, j] = log_f - log_1mf
        # d u / d x = pdf / (F (1-F)).  Beyond a bounded tail u is +-inf and
        # the density is 0, so the log-det is -inf there by construction.
        beyond = np.isinf(u[:, j])
        ld[beyond] = -np.inf
        ok = ~beyond
        ld[ok] += log_pdf[ok] - log_f[ok] - log_1mf[ok]
    return u, ld


def comet_push(u: np.ndarray, marginals: list) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of comet_logit: logistic, then marginal quantiles.

    At u = +-inf, x is the tail's limit and the log-det each such entry adds
    is its limit: +inf for a tail shape above 0, -inf below, log scale at 0.
    A row whose infinite entries add limits of both signs has no joint
    limit (+inf - inf); its log-det is NaN, without a RuntimeWarning.
    """
    u = np.asarray(u, dtype=float)
    if np.isnan(u).any():
        raise ValueError("comet_push: u holds NaN")
    n, d = u.shape
    x = np.empty_like(u)
    ld = np.zeros(n)
    for j, m in enumerate(marginals):
        uj = u[:, j]
        s = expit(uj)
        xj = np.empty(n)
        log_s = -np.logaddexp(0.0, -uj)
        log_1ms = -np.logaddexp(0.0, uj)
        lo = log_s < math.log(_TAIL_MASS)
        hi = log_1ms < math.log(_TAIL_MASS)
        mid = ~(lo | hi)
        if lo.any():
            e = tailest.gpd_excess_at_log_survivor(
                log_s[lo] - math.log(_TAIL_MASS), m.shape_lo, m.scale_lo
            )
            xj[lo] = m.t_lo - e
        if hi.any():
            e = tailest.gpd_excess_at_log_survivor(
                log_1ms[hi] - math.log(_TAIL_MASS), m.shape_hi, m.scale_hi
            )
            xj[hi] = m.t_hi + e
        if mid.any():
            xj[mid] = _body_quantile(m, s[mid])
        x[:, j] = xj
        fin = np.isfinite(uj)
        ld[fin] += log_s[fin] + log_1ms[fin] - comet_marginal(m, xj[fin], cdf=False)[2]
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, see the docstring
            ld[uj == np.inf] += _tail_log_det_limit(m.shape_hi, m.scale_hi)
            ld[uj == -np.inf] += _tail_log_det_limit(m.shape_lo, m.scale_lo)
    return x, ld


def _tail_log_det_limit(shape: float, scale: float) -> float:
    """log |dx/du| in a GPD tail as its survivor S goes to 0: log scale -
    shape * log S (plus a vanishing term) tends to +inf, log scale or -inf as
    the shape is above, at or below 0."""
    return math.log(scale) if shape == 0.0 else math.copysign(math.inf, shape)


# -- importance-weight diagnostics ----------------------------------------------------


@dataclass
class VIDiagnostics:
    """Importance-weight summary of a variational fit."""

    weights: np.ndarray
    n: int
    ess_e: float
    k_hat: float


def ess_efficiency(weights: np.ndarray) -> float:
    """Effective-sample-size efficiency (sum w)^2 / (n sum w^2) in (0, 1]."""
    w = np.asarray(weights, dtype=float).ravel()
    if w.size == 0 or np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and nonnegative")
    top = float(np.max(w))
    if top == 0.0:
        raise ValueError("weights must not all be zero")
    w = w / top  # scale invariant; keeps the sums exact for degenerate inputs
    # Rounding can push the ratio past its Cauchy-Schwarz bound of 1.
    return min(float(np.sum(w)) ** 2 / (w.size * float(np.sum(w * w))), 1.0)


def khat(weights: np.ndarray) -> float:
    """GPD shape of the largest importance weights above their threshold.

    Uses the ceil(min(0.2 n, 3 sqrt(n))) largest weights, PSIS's threshold
    (Vehtari et al., arXiv:1507.02646); excesses are normalized by their
    maximum, making the estimate exactly scale invariant.  The GPD is fitted
    by profile maximum likelihood (``tailest.gpd_fit_ml``), not by PSIS's
    Zhang & Stephens (2009) estimator: on VI weights they differed by
    0.004-0.020 on average, against a spread of 0.07-0.12.  Returns NaN
    when the top weights are all ties.
    """
    w = np.asarray(weights, dtype=float).ravel()
    n = w.size
    if n < 100:
        raise ValueError(f"khat needs at least 100 weights, got {n}")
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and nonnegative")
    m = int(np.ceil(min(0.2 * n, 3.0 * np.sqrt(n))))
    # Normalize before differencing so scaling the weights cannot move the fit.
    ws = np.sort(w)
    ws = ws / ws[-1]
    thresh = ws[n - m - 1]
    exc = ws[n - m:] - thresh
    exc = exc[exc > 0.0]
    if exc.size < 5:
        return float("nan")
    try:
        return tailest.gpd_fit_ml(exc)[0]
    except tailest.GpdFitError:  # equal excesses, or no feasible shape
        return float("nan")


def compute_vi_diagnostics(
    model: flows.FlowModel,
    log_norm_target: Callable,
    n: int,
    rng: special.Rng,
) -> VIDiagnostics:
    """Draw n samples from the flow and summarize their importance weights.

    The target must be normalized so that the weights carry Table-style
    semantics.  log q comes from the sampling pass itself (base density of
    the draw minus the forward log-det), not from pulling x back through
    the inverse.  Samples where the flow density or target is non-finite
    contribute zero weight; the target runs under ``np.errstate(all="ignore")``,
    as the flow's passes do, so such draws raise no warning.
    """
    x, logq = flows.flow_sample_with_log_prob(model, model.params, rng, n)
    with np.errstate(all="ignore"):
        logp = np.asarray(log_norm_target(x), dtype=float)
    logw = np.where(
        np.isfinite(logq) & np.isfinite(logp) & np.all(np.isfinite(x), axis=1),
        logp - logq,
        -np.inf,
    )
    top = float(np.max(logw))
    if not np.isfinite(top):
        return VIDiagnostics(np.zeros(n), n, float("nan"), float("nan"))
    w = np.exp(logw - top)
    return VIDiagnostics(w, n, ess_efficiency(w), khat(w))


# -- heavy-input regression demo ------------------------------------------------------


def gen_regression(d: int, nu: float, n: int, rng: special.Rng):
    """Inputs iid Student-T, response y = x_d plus unit Gaussian noise."""
    x = rng.student_t(nu, size=(n, d))
    y = x[:, d - 1] + rng.normal(size=n)
    return x, y


_MLP_WIDTH = 50


def _mlp_init(d: int, rng: special.Rng) -> dict:
    return {
        "w1": flows.glorot_uniform(rng.child(1), (d, _MLP_WIDTH)),
        "b1": np.zeros(_MLP_WIDTH),
        "w2": flows.glorot_uniform(rng.child(2), (_MLP_WIDTH, _MLP_WIDTH)),
        "b2": np.zeros(_MLP_WIDTH),
        "w3": flows.glorot_uniform(rng.child(3), (_MLP_WIDTH, 1)),
        "b3": np.zeros(1),
    }


def _mlp_predict(params: dict, x: np.ndarray, activation: str):
    """Forward pass; params may hold Vars (training) or arrays (eval)."""
    act = ad.sigmoid if activation == "sigmoid" else ad.relu
    h = act(x @ params["w1"] + params["b1"])
    h = act(h @ params["w2"] + params["b2"])
    return (h @ params["w3"] + params["b3"])[:, 0]


def fit_mlp_regressor(
    activation: str,
    data: tuple,
    seed: int = 0,
    max_epochs: int = 200,
) -> float:
    """Train the two-hidden-layer regressor; returns best-validation test MSE.

    Adam at lr 1e-3 on batches of 100 rows, early-stopped after 20 epochs
    without a better validation MSE; a failed step is retried by
    ``training.fit``'s policy.  A diverged fit (huge or non-finite MSE) is a
    legitimate, reported outcome on heavy-tailed inputs, not an error.
    """
    if activation not in ("sigmoid", "relu"):
        raise ValueError("activation must be 'sigmoid' or 'relu'")
    (xtr, ytr), (xva, yva), (xte, yte) = data
    params = _mlp_init(xtr.shape[1], special.Rng(seed))
    cfg = training.TrainConfig(lr=1e-3, batch_size=100, max_epochs=max_epochs,
                               patience=20, seed=seed)

    def step(idx: np.ndarray):
        tape = ad.Tape()
        pred = _mlp_predict({k: tape.param(v, k) for k, v in params.items()}, xtr[idx],
                            activation)
        diff = pred - ytr[idx]
        return training.gradient((diff * diff).sum() / idx.size)

    def mse(x: np.ndarray, y: np.ndarray) -> float:
        return float(np.mean((_mlp_predict(params, x, activation) - y) ** 2))

    training.fit(params, set(), step, training.shuffled_batches(xtr.shape[0], cfg),
                 lambda: mse(xva, yva), cfg)
    return mse(xte, yte)


def run_nnreg(
    d: int, nu: float, activation: str, seed: int, n_per_split: int = 5000
) -> float:
    """One regression repeat: generate three splits, train, test MSE."""
    rng = special.Rng(seed)
    splits = []
    for part in range(3):
        x, y = gen_regression(d, nu, n_per_split, rng.child(part))
        splits.append((x, y))
    return fit_mlp_regressor(activation, tuple(splits), seed=seed)


# -- table protocols ------------------------------------------------------------------

DE_FLOWS = (
    "normal", "m_normal", "g_normal", "mTAF", "gTAF", "COMET", "TTF", "TTFfix",
)
VI_FLOWS = ("mTAF", "gTAF", "TTF", "TTFfix")

_VI_DIAG_DRAWS = 10_000


def true_tail_shape(nu: float) -> float:
    """Tail shape of every synthetic marginal (the last one asymptotically)."""
    return 1.0 / nu


def de_train_config(seed: int, max_epochs: int = 2000) -> training.TrainConfig:
    return training.TrainConfig(lr=5e-3, batch_size=training.FULL_PASS,
                                max_epochs=max_epochs, patience=100, clip_norm=None, seed=seed)


def vi_train_config(seed: int, nu: float, iterations: int = 10_000) -> training.TrainConfig:
    # Gradient clipping is only needed at the heaviest target.
    return training.TrainConfig(lr=1e-3, batch_size=100, max_epochs=iterations, patience=1,
                                clip_norm=5.0 if nu <= 0.5 else None, seed=seed)


def _lambda_rows(model: flows.FlowModel, head: dict) -> list[dict]:
    """Rows of the TTF layer's λ± per dimension: the softplus of its raw
    parameters, not tail shapes.  The affine layer before it scales the TTF
    input by a = exp(logscale), so the tail shape of dimension 0, whose a0
    is a constant, is λ±·a0²; a later dimension's a varies with x_<i.
    """
    if "tails.lp_raw" not in model.params:
        return []
    lp = ad.softplus(model.params["tails.lp_raw"])
    ln = ad.softplus(model.params["tails.ln_raw"])
    return [dict(head, metric_name=f"lambda_{side}[{j}]", value=float(lam[j]))
            for j in range(model.d) for side, lam in (("pos", lp), ("neg", ln))]


def _require_comet_support(u: np.ndarray, marginals: list) -> None:
    """Raise when a logit is infinite: its row lies beyond a bounded tail."""
    for j, m in enumerate(marginals):
        for side, sign, t, shape, scale in (
            ("lower", -1.0, m.t_lo, m.shape_lo, m.scale_lo),
            ("upper", 1.0, m.t_hi, m.shape_hi, m.scale_hi),
        ):
            beyond = int(np.sum(u[:, j] == sign * np.inf))
            if beyond:
                end = t - sign * scale / shape if shape < 0.0 else sign * np.inf
                raise ValueError(
                    f"COMET dimension {j}: {beyond} test rows lie at or beyond the "
                    f"{side} tail's endpoint {end:.6g} (GPD shape {shape:.3g})"
                )


# The architectures whose tails two-stage fitting freezes: TTFfix and mTAF.
_TWO_STAGE = tuple(name for name, (_, _, frozen) in flows.ARCHITECTURE_TABLE.items() if frozen)


def _two_stage_model(flow: str, d: int, seed: int, nu: float | None,
                     fit_data: np.ndarray | None = None) -> flows.FlowModel:
    """``flow``'s architecture, with TTFfix's and mTAF's tails frozen under
    ``fit_de_cell``'s tail protocol for ``nu`` (estimated from ``fit_data``)."""
    model = flows.build_architecture(flow, d, seed=seed)
    if flow not in _TWO_STAGE:
        return model
    if nu is not None:
        lam, nus = np.full(d, true_tail_shape(nu)), np.full(d, nu)
    else:
        lam = tailest.estimate_marginal_tails(fit_data, special.Rng(seed).child(7)).shape
        nus = np.where(lam > tailest.LIGHT_TAIL_SHAPE, 1.0 / lam, 30.0)
    if flow == "TTFfix":
        flows.set_frozen_tails(model, lam)
    else:
        flows.set_frozen_nu(model, nus)
    return model


def min_de_rows(flow: str) -> int:
    """The fewest rows whose 40/20/40 split ``fit_de_cell`` fits ``flow`` on
    with estimated tails: every split nonempty, and train+valid rows enough
    for the tail estimate (TTFfix, mTAF) or marginal fit (COMET)."""
    fit_rows = tailest.MIN_BOOTSTRAP_ROWS if flow in _TWO_STAGE \
        else COMET_MIN_ROWS if flow == "COMET" else 0
    return next(n for n in itertools.count(1)
                if min(split_sizes(n)) >= 1 and sum(split_sizes(n)[:2]) >= fit_rows)


def fit_de_cell(flow: str, train: np.ndarray, valid: np.ndarray, test: np.ndarray, seed: int,
                cfg: training.TrainConfig, trace_path: str | None = None,
                nu: float | None = None) -> list[dict]:
    """Build ``flow``, fit it on train/valid and return its rows: test
    ``nll_per_dim``, ``epochs`` and the TTF layer's λ± (schema flow, d, nu,
    seed, metric_name, value, diverged; ``d`` from the data, ``nu`` NaN when
    not given).  The two-stage tails follow one of two protocols.  With
    ``nu`` (oracle) they are the true ones: TTFfix frozen at 1/ν, mTAF at ν,
    COMET's GPD shapes pinned at 1/ν.  With ``nu=None`` (estimated, as mTAF
    is published) they come from train+valid: TTFfix at the Hill shapes λ̂ of
    ``tailest.estimate_marginal_tails`` (``Rng(seed).child(7)``), mTAF at
    ν̂ = 1/λ̂ (30 where a marginal is flagged light), COMET's shapes by ML.

    COMET is a data protocol, not an architecture: it fits the ``normal``
    flow on the logits of marginals fit to train+valid, and its test density
    carries the marginal Jacobian back to data space.  Test rows beyond the
    finite end of an ML-fit tail with negative shape have no COMET density,
    so they raise ``ValueError`` rather than a NaN NLL.
    """
    d = train.shape[1]
    fit_data = np.concatenate([train, valid])
    model = _two_stage_model("normal" if flow == "COMET" else flow, d, seed, nu, fit_data)
    jac_te = 0.0
    if flow == "COMET":
        shape = None if nu is None else true_tail_shape(nu)
        marg = [comet_marginal_fit(fit_data[:, j], tail_shape=shape) for j in range(d)]
        test, jac_te = comet_logit(test, marg)
        _require_comet_support(test, marg)
        train, _ = comet_logit(train, marg)
        valid, _ = comet_logit(valid, marg)
    result = training.fit_density(model, train, valid, cfg, trace_path=trace_path)
    nll = float(-np.mean(flows.flow_log_prob(test, model) + jac_te)) / d
    head = dict(flow=flow, d=d, nu=float("nan") if nu is None else nu, seed=seed,
                diverged=result.diverged)
    return [dict(head, metric_name="nll_per_dim", value=nll),
            dict(head, metric_name="epochs", value=float(result.epochs)),
            *_lambda_rows(model, head)]


def run_de_cell(flow: str, d: int, nu: float, seed: int, cfg: training.TrainConfig,
                trace_path: str | None = None) -> list[dict]:
    """``fit_de_cell`` on one synthetic draw under the oracle tail protocol,
    with the generator's own ``true_nll_per_dim`` as the second row."""
    train, valid, test, log_density = gen_synthetic_de(SyntheticDeSpec(d=d, nu=nu, seed=seed))
    rows = fit_de_cell(flow, train, valid, test, seed, cfg, trace_path, nu=nu)
    rows.insert(1, dict(rows[0], metric_name="true_nll_per_dim",
                        value=float(-np.mean(log_density(test))) / d))
    return rows


def run_vi_cell(flow: str, d: int, nu: float, seed: int, cfg: training.TrainConfig,
                trace_path: str | None = None) -> list[dict]:
    """Fit one variational flow, its two-stage tails frozen at the true ones,
    against the synthetic target; returns rows."""
    target = lambda x: vi_target_log_density(x, d, nu)
    model = _two_stage_model(flow, d, seed, nu)
    result = training.fit_vi(model, target, cfg, trace_path=trace_path)
    diag = compute_vi_diagnostics(model, target, _VI_DIAG_DRAWS, special.Rng(seed).child(991))
    head = dict(flow=flow, d=d, nu=nu, seed=seed, diverged=result.diverged)
    return [dict(head, metric_name="ess_e", value=diag.ess_e),
            dict(head, metric_name="khat", value=diag.k_hat), *_lambda_rows(model, head)]


def aggregate_results(rows: list[dict], metric_name: str) -> dict:
    """Per-cell mean and standard error with the dash convention.

    Returns {(flow, d, nu): {"mean", "se", "n", "diverged", "display"}};
    n counts every run that reports the metric.  Cells with any diverged run
    display as a dash, and so do cells with any non-finite value, whose mean
    and se are NaN rather than those of the remaining runs.
    """
    cells: dict = {}
    for r in rows:
        key = (r["flow"], r["d"], r["nu"])
        cells.setdefault(key, {"values": [], "diverged": False})
        if r.get("diverged"):
            cells[key]["diverged"] = True
        if r["metric_name"] == metric_name:
            cells[key]["values"].append(r["value"])
    out = {}
    for key, cell in cells.items():
        vals = np.asarray(cell["values"], dtype=float)
        n = vals.size
        finite = n > 0 and bool(np.all(np.isfinite(vals)))
        mean = float(np.mean(vals)) if finite else float("nan")
        se = float(np.std(vals, ddof=1) / np.sqrt(n)) if finite and n > 1 else float("nan")
        display = "-" if cell["diverged"] or not finite else f"{mean:.2f} ({se:.2f})"
        out[key] = {
            "mean": mean, "se": se, "n": n,
            "diverged": cell["diverged"], "display": display,
        }
    return out
