"""Invertible layers, base distributions, and full flow assembly.

Layers are stored in generative order: ``forward`` maps base-space z toward
data and ``inverse`` maps data back to the base.  Autoregressive layers
condition on the data-side variable, so the inverse (the density-estimation
direction) is a single vectorized pass while the forward direction fills one
dimension at a time (``MaskedConditioner.sequential``): ``_put_col`` writes
each new column into an (n, d) matrix that starts as plain zeros, by
``where_mask``, on arrays and on a tape alike, as a trainable Student-T base
writes its per-dimension draws.  The spline layer's inverse evaluates all d
splines in one pass on raw knot values with one column per entry, (n*d)
columns in all.  They are knot-major, (K, m) for m entries, so every
softmax, cumulative sum and reduction over an entry's knots runs along the
long contiguous axis; with one row per entry, numpy would make one
inner-loop call per entry for each of them.  An entry's
spline reads only the two knots around it, so the knot arithmetic after the
cumulative sums runs on those alone, gathered as (2, m) blocks.  Formulas
use numpy syntax (broadcasting, ``@``, slices and gathers) and the
elementwise functions of ``autodiff``; a tape ``Var`` follows the same
syntax, so plain numpy arrays and tape variables flow through the same code
path, and a numpy ``flow_log_prob`` or ``flow_sample_with_log_prob`` holds
the tape's values bit for bit.  On a tape, frozen parameters and the draws
of a base that is not reparameterized stay numpy arrays: constants to every
op, not nodes.

Without a tape, ``flow_log_prob`` and ``flow_sample_with_log_prob`` (so
also ``flow_sample``) push at most ``_FLOW_ROWS`` rows at a time, which
bounds a pass's working memory: a spline pass holds knot values with d
columns per input row (10k TTF draws at d=5 traced 20.7 MB in one pass,
2.9 MB in blocks).  Rows do not interact, so a block gives each row the
same bits as one pass, with one exception: a 1-row matrix product takes
numpy's matrix-vector path, which rounds differently (1-row passes moved
TTF draws at d=20 by up to 4e-11).  Blocks are therefore evenly sized, and
never one row unless the whole input is.  Both run under
``np.errstate(all="ignore")``: a diverged flow's non-finite values are its
result, which callers check, not a warning.  COMET is no architecture: it
fits ``normal`` on marginal logits (``experiments.fit_de_cell``).

Parameters live in one flat name -> array dict owned by the model; layer
objects hold only structure (masks, sizes, key prefixes).  Positivity is
enforced by softplus everywhere a parameter must stay positive.  Models are
not persisted: an experiment cell computes every row it reports before it
ends.
"""

from __future__ import annotations

import zlib

import numpy as np

from . import autodiff as ad
from . import special
from . import tailtransform as tt
from .autodiff import Tape, Var, value_of

# log(2 pi), correctly rounded; np.log(2 * np.pi) is 1 ulp low.
_LOG_2PI = 1.8378770664093456
# Rows per block of a numpy flow pass (see the module docstring).
_FLOW_ROWS = 1024


def softplus_inv(y):
    """Inverse of log(1 + e^x); y must be positive."""
    y = np.asarray(y, dtype=float)
    # log(e^y - 1) = y + log(1 - e^-y)
    return y + np.log(-np.expm1(-y))


# -- tape helpers ----------------------------------------------------------------


def _tape(*xs) -> Tape | None:
    for x in xs:
        if isinstance(x, Var):
            return x.tape
    return None


def _softmax_cols(m):
    """Softmax down each column of a knot-major (K, m) matrix."""
    e = ad.exp(m - value_of(m).max(axis=0))
    return e / e.sum(axis=0, keepdims=True)


def _put_col(x, i: int, col):
    """x with column i replaced by the (n,) col, by ``where_mask``: on
    arrays and on a tape alike, where it adds two nodes."""
    return ad.where_mask(np.eye(x.shape[1], dtype=bool)[i], col[:, None], x)


# -- masked autoregressive conditioner -----------------------------------------


def glorot_uniform(rng: special.Rng, shape: tuple) -> np.ndarray:
    """Glorot-uniform weights of a 2-d shape, drawn from an already-keyed rng."""
    lim = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-lim, lim, shape)


class MaskedConditioner:
    """Two-hidden-layer masked MLP emitting n_out parameters per dimension.

    Output columns are laid out parameter-major: column b*d + i carries
    parameter b for dimension i, so the block for dimension i is the strided
    slice [i::d] and parameter b across all dimensions is the contiguous
    slice [b*d:(b+1)*d].  Degrees are assigned so the block for dimension i
    depends only on inputs strictly before i; dimension 0 sees biases alone.
    """

    def __init__(self, d: int, n_out: int, prefix: str):
        self.d = d
        self.n_out = n_out
        self.prefix = prefix
        h = d + 10
        self.hidden = h
        m_in = np.arange(d)
        m_h = np.arange(h) % max(d - 1, 1)
        out_deg = np.arange(d * n_out) % d
        self.mask1 = (m_h[:, None] >= m_in[None, :]).astype(float)
        self.mask2 = (m_h[:, None] >= m_h[None, :]).astype(float)
        self.mask3 = (out_deg[:, None] > m_h[None, :]).astype(float)

    def _keys(self):
        p = self.prefix
        return (f"{p}.w1", f"{p}.b1", f"{p}.w2", f"{p}.b2", f"{p}.w3", f"{p}.b3")

    def init_params(self, rng: special.Rng, out_bias: np.ndarray | None = None) -> dict:
        h, d = self.hidden, self.d
        k1, b1, k2, b2, k3, b3 = self._keys()

        def glorot(shape, key):
            return glorot_uniform(rng.child(zlib.crc32(key.encode())), shape)

        bias3 = np.zeros(d * self.n_out) if out_bias is None else np.asarray(out_bias, float)
        return {
            k1: glorot((h, d), k1), b1: np.zeros(h),
            k2: glorot((h, h), k2), b2: np.zeros(h),
            k3: np.zeros((d * self.n_out, h)), b3: bias3,
        }

    def weights(self, params):
        """The masked, transposed weights and the biases that ``apply`` takes;
        a sequential pass computes them once for all its d conditioner calls."""
        k1, b1, k2, b2, k3, b3 = self._keys()
        return ((params[k1] * self.mask1).T, params[b1],
                (params[k2] * self.mask2).T, params[b2],
                (params[k3] * self.mask3).T, params[b3])

    def apply(self, w, x):
        """(n, d) -> (n, d*n_out) under the weights w of ``weights``."""
        w1, b1, w2, b2, w3, b3 = w
        h1 = ad.relu(x @ w1 + b1)
        h2 = ad.relu(h1 @ w2 + b2)
        return h2 @ w3 + b3

    def forward(self, params, x):
        """(n, d) -> (n, d*n_out) respecting the autoregressive masks."""
        return self.apply(self.weights(params), x)

    def sequential(self, params, z, column):
        """(x, log-det) of an autoregressive layer's forward from base z, one
        dimension at a time: ``column(out, i)`` gives x_i and its log-det from
        the conditioner output of the x built so far (plain zeros at first)."""
        n, d = value_of(z).shape
        w = self.weights(params)
        x, ld = np.zeros((n, d)), 0.0
        for i in range(d):
            out = self.apply(w, x)
            col, ldi = column(out, i)
            ld = ldi + ld
            x = _put_col(x, i, col)
        return x, ld

    def dim_block(self, out, i: int):
        """All n_out parameters for dimension i, in parameter order."""
        return out[:, i::self.d]

    def param_block(self, out, b: int):
        """Parameter b for every dimension, in dimension order."""
        return out[:, b * self.d:(b + 1) * self.d]

    def entry_rows(self, out):
        """All n_out parameters of every entry, one column each, knot-major:
        (n, d*n_out) -> (n_out, n*d), where column r*d + i equals
        dim_block(out, i)[r]."""
        n = out.shape[0]
        return out.reshape(n, self.n_out, self.d).swapaxes(0, 1).reshape(self.n_out, n * self.d)


# -- rational quadratic spline --------------------------------------------------

_MIN_BIN_WIDTH = 1e-3
_MIN_BIN_HEIGHT = 1e-3
_MIN_DERIVATIVE = 1e-3
# Raw value whose softplus, plus the derivative floor, is exactly 1: boundary
# knots get slope 1 so the spline meets its linear tails smoothly.
_BOUNDARY_DERIV_RAW = float(softplus_inv(1.0 - _MIN_DERIVATIVE))


def _cum_sizes(raw, min_size: float):
    """Knot-major (K, m) raw widths or heights -> a min-floored softmax down
    each column, summed cumulatively: row j * 2 bound - bound is knot j + 1
    (the last row, about 1, is never read, as the last knot is pinned)."""
    k_bins = value_of(raw).shape[0]
    return ad.cumsum(_softmax_cols(raw) * (1.0 - min_size * k_bins) + min_size, 0)


def _locate_bin(x, cumw, cumh, d_raw, bound: float, inverse: bool):
    """Each entry's bin and the two knots around it.

    x is (m,); cumw and cumh are (K, m) from ``_cum_sizes``, K >= 2 (one bin
    has no inner knot), and d_raw the raw (K-1, m) inner-knot slopes, one
    column per entry.  The bin search counts the searched coordinate's inner
    knots at or below x, as plain numbers.  Each matrix is then gathered
    once, at rows (idx-1, idx) (row -1 wraps to the last row, so each entry
    is reached at most once), and only these (2, m) blocks are scaled and
    floored, with the end knots pinned to the box corners and slope 1.
    Returns the in-box mask, x with out-of-box entries zeroed, and the x
    knot, y knot and slope blocks.
    """
    xv = value_of(x)
    inside = (xv >= -bound) & (xv <= bound)
    x_safe = ad.where_mask(inside, x, 0.0)
    k_bins = value_of(cumw).shape[0]
    searched = value_of(cumh if inverse else cumw)[:k_bins - 1] * (2.0 * bound) - bound
    idx = np.add.reduce(value_of(x_safe) >= searched, axis=0)
    rows, cols = idx + np.array([[-1], [0]]), np.arange(xv.shape[0])
    inner = idx != np.array([[0], [k_bins - 1]])  # the ends that are not pinned

    def knots(cum):
        return ad.where_mask(inner, cum[rows, cols] * (2.0 * bound) - bound,
                             np.array([[-bound], [bound]]))

    # d_raw has K-1 rows: row idx is row idx-(K-1) counted from the end, and
    # idx = K-1, one past its last row, wraps to row 0, as idx % (K-1) would
    ds = ad.where_mask(inner, ad.softplus(d_raw[idx + np.array([[-1], [1 - k_bins]]), cols])
                       + _MIN_DERIVATIVE, 1.0)
    return inside, x_safe, knots(cumw), knots(cumh), ds


def _spline_arith(x, inside, x_safe, xs, ys, ds, inverse: bool):
    """The spline at each entry of x, given its bin's knots from ``_locate_bin``.

    Both directions are written relative to the identity: y is x plus terms
    that each vanish when a bin lies on the diagonal with unit slope and unit
    knot derivatives, and the log-det numerator is the bin slope plus the
    deviations of the knot derivatives from it.  This is the same spline,
    but it returns x and a log-det of 0 bit for bit at the identity.
    """
    xk, yk, dk, dk1 = xs[0], ys[0], ds[0], ds[1]
    wk = xs[1] - xk
    hk = ys[1] - yk
    sk = hk / wk
    ddk = dk - sk
    ddk1 = dk1 - sk
    if not inverse:
        dx = x_safe - xk
        th = dx / wk
        om = 1.0 - th
        q = th * om
        den = sk + (ddk + ddk1) * q
        y = x_safe + (yk - xk) + (sk - 1.0) * dx + hk * q * (ddk * om - ddk1 * th) / den
    else:
        # theta is the root of a theta^2 + b theta + c = 0 that lies in the
        # bin, taken in the form that does not cancel.
        dlt = x_safe - yk
        r = ddk + ddk1
        a = dlt * r + hk * (sk - dk)
        b = hk * dk - dlt * r
        c = -(sk * dlt)
        root = b + ad.sqrt(ad.maximum(b * b - 4.0 * a * c, 0.0))
        th = 2.0 * sk * dlt / root
        om = 1.0 - th
        q = th * om
        # th * wk + xk, with wk * sk = hk
        y = x_safe + (xk - yk) + dlt * (2.0 * hk - root) / root
        den = sk + r * q
    ld = 2.0 * ad.log(sk) + ad.log(sk + ddk1 * th * th + ddk * om * om) - 2.0 * ad.log(den)
    if inverse:
        ld = -ld

    y = ad.where_mask(inside, y, x)
    ld = ad.where_mask(inside, ld, 0.0)
    return y, ld


# -- autoregressive layers -------------------------------------------------------


class RqsArLayer:
    """Autoregressive rational quadratic spline layer.

    The inverse makes one conditioner pass and then evaluates all d splines
    at once: every entry x[r, i] gets its own column of raw knot values, so
    the cumulative sizes, the bin search and the spline run on
    (n*d)-column arrays and the tape nodes the layer adds do not depend on
    d; ``_locate_bin`` gathers each entry's two knots before any knot
    arithmetic.  The forward stays sequential, one conditioner pass and one
    dimension's spline at a time, because dimension i needs x_<i; both
    directions share ``_spline``.
    """

    bins = 5
    bound = 2.5

    def __init__(self, d: int, prefix: str):
        self.d = d
        self.prefix = prefix
        self.cond = MaskedConditioner(d, 3 * self.bins - 1, prefix + ".cond")

    def init_params(self, rng: special.Rng) -> dict:
        # Derivative-block biases make the initial map the exact identity.
        bias = np.zeros(self.d * self.cond.n_out)
        bias[2 * self.bins * self.d:] = _BOUNDARY_DERIV_RAW
        return self.cond.init_params(rng, out_bias=bias)

    def _spline(self, raw, x, inverse: bool):
        """Spline each entry of the (m,) x under the knots set by its own
        column of the knot-major (3K-1, m) raw conditioner values: K widths,
        K heights and K-1 inner slopes.  Returns (y, log |dy/dx|)."""
        k = self.bins
        if not isinstance(raw, Var):
            # The forward's block is a strided view with the short axis
            # innermost: numpy would give every result computed from it that
            # order, and the knot reductions would run per entry.
            raw = np.ascontiguousarray(raw)
        located = _locate_bin(x, _cum_sizes(raw[:k], _MIN_BIN_WIDTH),
                              _cum_sizes(raw[k:2 * k], _MIN_BIN_HEIGHT), raw[2 * k:],
                              self.bound, inverse)
        del raw  # the largest array here, freed before the arithmetic's temporaries
        return _spline_arith(x, *located, inverse)

    def inverse(self, params, x):
        n, d = x.shape
        z, ld = self._spline(self.cond.entry_rows(self.cond.forward(params, x)),
                             x.reshape(n * d), inverse=True)
        return z.reshape(n, d), ld.reshape(n, d).sum(axis=1)

    def forward(self, params, z):
        return self.cond.sequential(params, z, lambda out, i: self._spline(
            self.cond.dim_block(out, i).T, z[:, i], inverse=False))


class AffineArLayer:
    """Autoregressive affine layer: x_i = shift_i(x_<i) + exp(logscale_i(x_<i)) z_i."""

    def __init__(self, d: int, prefix: str):
        self.d = d
        self.prefix = prefix
        self.cond = MaskedConditioner(d, 2, prefix + ".cond")

    def init_params(self, rng: special.Rng) -> dict:
        return self.cond.init_params(rng)

    def inverse(self, params, x):
        out = self.cond.forward(params, x)
        shift = self.cond.param_block(out, 0)
        logs = self.cond.param_block(out, 1)
        z = (x - shift) * ad.exp(-logs)
        return z, -logs.sum(axis=1)

    def forward(self, params, z):
        def column(out, i):
            shift_i, logs_i = out[:, i], out[:, self.d + i]
            return shift_i + ad.exp(logs_i) * z[:, i], logs_i

        return self.cond.sequential(params, z, column)


class MarginalTtfLayer:
    """Elementwise tail transform layer; one (mu, sigma, lambda+-) per dimension."""

    def __init__(self, d: int, prefix: str):
        self.d = d
        self.prefix = prefix

    def init_params(self, rng: special.Rng) -> dict:
        p = self.prefix
        r = rng.child(zlib.crc32(p.encode()))
        lam_p = r.uniform(0.05, 1.0, self.d)
        lam_n = r.uniform(0.05, 1.0, self.d)
        return {
            f"{p}.mu": np.zeros(self.d),
            f"{p}.sigma_raw": np.full(self.d, softplus_inv(1.0)),
            f"{p}.lp_raw": softplus_inv(lam_p),
            f"{p}.ln_raw": softplus_inv(lam_n),
        }

    def _row_params(self, params):
        """The (d,) rows of mu, sigma, lambda+ and lambda-."""
        p = self.prefix
        mu = params[f"{p}.mu"]
        sigma = ad.softplus(params[f"{p}.sigma_raw"])
        lam_p = ad.softplus(params[f"{p}.lp_raw"])
        lam_n = ad.softplus(params[f"{p}.ln_raw"])
        return mu, sigma, lam_p, lam_n

    def forward(self, params, z):
        mu, sigma, lam_p, lam_n = self._row_params(params)
        x = tt.ttf_forward(z, mu=mu, sigma=sigma, lambda_pos=lam_p, lambda_neg=lam_n)
        ld = tt.ttf_log_deriv(z, mu=mu, sigma=sigma, lambda_pos=lam_p, lambda_neg=lam_n)
        return x, ld.sum(axis=1)

    def inverse(self, params, x):
        mu, sigma, lam_p, lam_n = self._row_params(params)
        z, ld = tt.ttf_inverse_with_log_deriv(
            x, mu=mu, sigma=sigma, lambda_pos=lam_p, lambda_neg=lam_n
        )
        return z, ld.sum(axis=1)


# -- base distributions -----------------------------------------------------------


class StdNormalBase:
    reparameterized = True  # every base says if ELBO gradients reach its params

    def __init__(self, d: int):
        self.d = d

    def init_params(self, rng: special.Rng) -> dict:
        return {}

    def log_prob(self, params, z):
        return -0.5 * (z * z).sum(axis=1) - 0.5 * self.d * _LOG_2PI

    def sample(self, params, rng: special.Rng, n: int) -> np.ndarray:
        return rng.normal((n, self.d))


class StudentTBase:
    """Independent per-dimension Student-T; nu trainable via softplus or frozen."""

    NU_INIT = 30.0
    reparameterized = True

    def __init__(self, d: int):
        self.d = d

    def init_params(self, rng: special.Rng) -> dict:
        return {"base.nu_raw": np.full(self.d, softplus_inv(self.NU_INIT))}

    def nu(self, params):
        return ad.softplus(params["base.nu_raw"])

    def log_prob(self, params, z):
        nu = self.nu(params)
        const = (
            ad.lgamma((nu + 1.0) * 0.5) - ad.lgamma(nu * 0.5)
            - 0.5 * (ad.log(nu) + np.log(np.pi))
        )
        e = ad.log1p(z * z / nu)
        tail = (e * ((nu + 1.0) * 0.5)).sum(axis=1)
        return -tail + const.sum()

    def sample(self, params, rng: special.Rng, n: int):
        """Column j from rng.child(j) by the gamma route; on a tape exactly
        when nu is a Var (trainable), and then reparameterized in nu."""
        nu = self.nu(params)
        x = np.zeros((n, self.d))
        for j in range(self.d):
            x = _put_col(x, j, ad.sample_student_t(nu[j], rng.child(j), n))
        return x


class GaussianMixtureBase:
    """Mixture of diagonal Gaussians (density-estimation base only)."""

    COMPONENTS = 5
    reparameterized = False  # the component draw is discrete

    def __init__(self, d: int):
        self.d = d

    def init_params(self, rng: special.Rng) -> dict:
        r = rng.child(zlib.crc32(b"base.mixture"))
        return {
            "base.logits": np.zeros(self.COMPONENTS),
            "base.means": 0.5 * r.normal((self.d, self.COMPONENTS)),
            "base.logstd": np.zeros((self.d, self.COMPONENTS)),
        }

    def log_prob(self, params, z):
        logits, means, logstd = params["base.logits"], params["base.means"], params["base.logstd"]
        c = float(np.max(value_of(logits)))
        lse = ad.log(ad.exp(logits - c).sum()) + c
        logw = logits - lse
        # (n, d, k): every point against every component
        scaled = (z[:, :, None] - means) / ad.exp(logstd)
        comps = -0.5 * (scaled * scaled).sum(axis=1) - logstd.sum(axis=0) \
            - 0.5 * self.d * _LOG_2PI
        mat = comps + logw
        rowmax = np.max(value_of(mat), axis=1)
        return ad.log(ad.exp(mat - rowmax[:, None]).sum(axis=1)) + rowmax

    def sample(self, params, rng: special.Rng, n: int) -> np.ndarray:
        logits = value_of(params["base.logits"])
        means = value_of(params["base.means"])
        std = np.exp(value_of(params["base.logstd"]))
        w = np.exp(logits - np.max(logits))
        w /= w.sum()
        ks = np.searchsorted(np.cumsum(w), rng.uniform(size=n))
        return means[:, ks].T + rng.normal((n, self.d)) * std[:, ks].T


class GenNormalBase:
    """Independent generalized normals; location, scale, and shape trainable.

    The shape carries a 0.1 softplus floor: unconstrained shapes approaching
    zero develop density cusps that destabilize gradients.
    """

    SHAPE_FLOOR = 0.1
    reparameterized = False  # the gamma draws are numpy, off the tape

    def __init__(self, d: int):
        self.d = d

    def init_params(self, rng: special.Rng) -> dict:
        # beta = 2, alpha = sqrt 2 makes the initial base exactly N(0, 1).
        return {
            "base.loc": np.zeros(self.d),
            "base.scale_raw": np.full(self.d, softplus_inv(np.sqrt(2.0))),
            "base.shape_raw": np.full(self.d, softplus_inv(2.0 - self.SHAPE_FLOOR)),
        }

    def _beta_alpha(self, params):
        beta = ad.softplus(params["base.shape_raw"]) + self.SHAPE_FLOOR
        alpha = ad.softplus(params["base.scale_raw"])
        return beta, alpha

    def log_prob(self, params, z):
        beta, alpha = self._beta_alpha(params)
        const = ad.log(beta) - np.log(2.0) - ad.log(alpha) - ad.lgamma(1.0 / beta)
        a = ad.absolute(z - params["base.loc"]) / alpha
        # a^beta via exp(beta log a); a is floored away from 0 to keep logs finite
        powed = ad.exp(ad.log(ad.maximum(a, 1e-300)) * beta)
        return -powed.sum(axis=1) + const.sum()

    def sample(self, params, rng: special.Rng, n: int) -> np.ndarray:
        beta, alpha = map(value_of, self._beta_alpha(params))
        loc = value_of(params["base.loc"])
        out = np.empty((n, self.d))
        for j in range(self.d):
            g = ad.sample_gamma(1.0 / beta[j], rng.child(j), n)
            mag = alpha[j] * g ** (1.0 / beta[j])
            sign = np.where(rng.child(1000 + j).uniform(size=n) < 0.5, -1.0, 1.0)
            out[:, j] = loc[j] + sign * mag
        return out


# -- the flow model ----------------------------------------------------------------


class FlowModel:
    """A base distribution plus layers in generative order, with flat params."""

    def __init__(self, name: str, d: int, base, layers, params: dict,
                 frozen: set | None = None):
        self.name = name
        self.d = d
        self.base = base
        self.layers = layers
        self.params = params
        self.frozen = set(frozen or ())

    def tape_params(self, tape: Tape) -> dict:
        """Trainable entries as params of ``tape``; frozen entries stay arrays."""
        return {k: v if k in self.frozen else tape.param(v, k) for k, v in self.params.items()}

    def copy_params(self) -> dict:
        return {k: v.copy() for k, v in self.params.items()}


def flow_log_prob(x, model: FlowModel, params: dict | None = None):
    """log q(x): pull x back through the layers and add the base density.

    Without a tape the pass runs in row blocks (see the module docstring).
    """
    params = model.params if params is None else params
    with np.errstate(all="ignore"):
        if _tape(x, *params.values()) is None:
            return np.concatenate([_log_prob_pass(x[b], model, params)
                                   for b in _row_blocks(len(x))])
        return _log_prob_pass(x, model, params)


def _log_prob_pass(x, model: FlowModel, params: dict):
    cur, acc = x, 0.0
    for layer in reversed(model.layers):
        cur, ld = layer.inverse(params, cur)
        acc = ld + acc
    return model.base.log_prob(params, cur) + acc


def flow_forward(z, model: FlowModel, params: dict | None = None):
    """Push base-space z through the layers; returns (x, total forward log-det)."""
    params = model.params if params is None else params
    cur, acc = z, 0.0
    for layer in model.layers:
        cur, ld = layer.forward(params, cur)
        acc = ld + acc
    return cur, acc


def flow_sample(model: FlowModel, rng: special.Rng, n: int) -> np.ndarray:
    return flow_sample_with_log_prob(model, model.params, rng, n)[0]


def flow_sample_with_log_prob(model: FlowModel, params: dict, rng: special.Rng, n: int):
    """Draws with their own log density, log q0(z) minus the forward log-det.

    With params on a tape (ELBO training) the pass runs on that tape, and
    the draws are reparameterized where the base's are.  Without one they
    are plain numpy and the same draws as ``flow_sample``, pushed in row
    blocks after all of z is drawn, so the random stream is one pass's.
    """
    with np.errstate(all="ignore"):
        z = model.base.sample(params, rng, n)
        if _tape(*params.values()) is not None:
            return _sample_pass(z, model, params)
        parts = [_sample_pass(z[b], model, params) for b in _row_blocks(n)]
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def _sample_pass(z, model: FlowModel, params: dict):
    log_q0 = model.base.log_prob(params, z)
    x, fwd_ld = flow_forward(z, model, params)
    return x, log_q0 - fwd_ld


def _row_blocks(n: int) -> list[slice]:
    """ceil(n / _FLOW_ROWS) row blocks (one for n = 0) whose sizes differ by
    at most one, so above _FLOW_ROWS no block is narrower than half of it."""
    k = max(1, -(-n // _FLOW_ROWS))
    return [slice(n * i // k, n * (i + 1) // k) for i in range(k)]


# -- architecture assembly ----------------------------------------------------------


# Each architecture's base class, whether the TTF layer ends its RQS-then-
# affine core, and the parameters that two-stage fitting freezes.
ARCHITECTURE_TABLE = {
    "normal": (StdNormalBase, False, ()),
    "m_normal": (GaussianMixtureBase, False, ()),
    "g_normal": (GenNormalBase, False, ()),
    "mTAF": (StudentTBase, False, ("base.nu_raw",)),
    "gTAF": (StudentTBase, False, ()),
    "TTF": (StdNormalBase, True, ()),
    "TTFfix": (StdNormalBase, True, ("tails.lp_raw", "tails.ln_raw")),
    "TTF_tBase": (StudentTBase, True, ()),
}
ARCHITECTURES = tuple(ARCHITECTURE_TABLE)


def build_architecture(name: str, d: int, seed: int = 0) -> FlowModel:
    """Assemble the architecture ``name`` of ``ARCHITECTURE_TABLE`` at
    dimension d; the base's parameters are drawn first, then the layers'."""
    if name not in ARCHITECTURE_TABLE:
        raise ValueError(f"unknown architecture {name!r}; expected one of {ARCHITECTURES}")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    base_class, tails, frozen = ARCHITECTURE_TABLE[name]
    base = base_class(d)
    layers = [RqsArLayer(d, "rqs"), AffineArLayer(d, "affine")]
    if tails:
        layers.append(MarginalTtfLayer(d, "tails"))
    rng = special.Rng(seed)
    params = base.init_params(rng)
    for layer in layers:
        params.update(layer.init_params(rng))
    return FlowModel(name, d, base, layers, params, frozen)


def set_frozen_tails(model: FlowModel, lam) -> None:
    """Write estimated tail shapes, one per dimension for both tails, into
    the tail layer (two-stage fitting)."""
    raw = softplus_inv(np.asarray(lam, dtype=float))
    model.params["tails.lp_raw"], model.params["tails.ln_raw"] = raw, raw.copy()


def set_frozen_nu(model: FlowModel, nu) -> None:
    """Write estimated degrees of freedom into a Student-T base."""
    model.params["base.nu_raw"] = softplus_inv(np.asarray(nu, dtype=float))
