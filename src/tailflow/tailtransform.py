"""The tail transform (TTF): the elementwise final layer of a tail transform flow.

The forward map sends a Gaussian-tailed variable z to

    x = mu + sigma * (s / lambda_s) * [erfc(|z|/sqrt 2)^(-lambda_s) - 1],

with s = sign(z) and lambda_s selecting the upper or lower tail shape.  All
powers of erfc are taken as exp(-lambda * log erfc), never by direct
powering: the tail probability itself underflows long before its logarithm
loses accuracy.  Every function here is written against dispatch helpers so
the same formula serves plain numpy arrays and tape variables.

Three functions make up the API, each taking keyword-only ``mu, sigma,
lambda_pos, lambda_neg`` that broadcast against the input:

- ``ttf_forward``: z -> x;
- ``ttf_log_deriv``: log dx/dz at z;
- ``ttf_inverse_with_log_deriv``: x -> (z, log |dz/dx|) in one pass.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import special
from .autodiff import value_of

__all__ = ["ttf_forward", "ttf_log_deriv", "ttf_inverse_with_log_deriv"]

_SQRT2 = np.sqrt(2.0)
# Correctly rounded literals; the np.log(2.0 / np.pi) forms are 1 ulp off.
_HALF_LOG_2_OVER_PI = -0.22579135264472744
_LOG_2_OVER_PI = -0.4515827052894549
# Switch to the asymptotic inverse once y^(-1/lambda) drops below this.
_INV_BRANCH_EPS = 1e-6
_LOG_INV_BRANCH_EPS = np.log(_INV_BRANCH_EPS)
# Saturation bounds for the forward map: the exponent and the assembled output
# are clamped so extreme z with large lambda yields a huge finite value
# instead of overflowing.
_MAX_EXPONENT = 690.0
_MAX_VALUE = 1e300


def ttf_forward(z, *, mu, sigma, lambda_pos, lambda_neg):
    """Map base-space z to data space; strictly increasing, C1 at z = 0.

    Extreme inputs saturate to a large finite value rather than overflowing.
    """
    zv = value_of(z)
    pos = zv >= 0.0
    s = np.where(pos, 1.0, -1.0)
    lam = ad.where_mask(pos, lambda_pos, lambda_neg)
    log_tail = ad.log_erfc(ad.absolute(z) * (1.0 / _SQRT2))
    bracket = ad.expm1(ad.minimum(-lam * log_tail, _MAX_EXPONENT))
    x = mu + sigma * ((bracket / lam) * s)
    # scale/shape can push the saturated bracket past the float range; keep the
    # output a large finite value rather than letting inf poison downstream
    return ad.maximum(ad.minimum(x, _MAX_VALUE), -_MAX_VALUE)


def ttf_log_deriv(z, *, mu, sigma, lambda_pos, lambda_neg):
    """log dx/dz, computed entirely in log space.

    Equals log sigma + (1/2) log(2/pi) - z^2/2 - (lambda_s + 1) log erfc(|z|/sqrt 2);
    at z = 0 this is log(sigma sqrt(2/pi)) with no dependence on the shapes.
    """
    zv = value_of(z)
    pos = zv >= 0.0
    lam = ad.where_mask(pos, lambda_pos, lambda_neg)
    log_tail = ad.log_erfc(ad.absolute(z) * (1.0 / _SQRT2))
    return ad.log(sigma) + _HALF_LOG_2_OVER_PI - (z * z) * 0.5 - (lam + 1.0) * log_tail


def _stable_inverse_branch(log_p, stable):
    """Deep-tail inverse of log erfc(w) = -L, L = (log y)/lambda_s.

    Seeds with w0 = [eta - log eta]^(1/2) / sqrt 2, eta = 2L + log(2/pi),
    then Newton-polishes in log space to machine precision; the seed alone
    carries O(1e-3) error right where the branch takes over.  The solved
    root enters through one more, implicit Newton step, on arrays and on the
    tape alike, so both give the same bits: the step is affine in L, and on
    the tape it carries the exact implicit-function derivative dw/dL =
    -1 / dlogerfc(w).

    The Newton runs only on the deep-tail lanes, where ``stable`` is set.
    The other lanes of the result hold 0, for the caller's ``where_mask``
    to drop; their implicit step has slope 0 and constant 0, so the step
    adds the same nodes whatever the number of deep-tail lanes.
    """
    l_num = -value_of(log_p)[stable]
    eta = 2.0 * l_num + _LOG_2_OVER_PI
    w = np.sqrt(eta - np.log(eta)) / _SQRT2
    for _ in range(3):
        log_erfc_w = special.log_erfc(w)
        w = w - (log_erfc_w + l_num) / special._dlog_erfc_at(w, log_erfc_w)
    log_erfc_w = special.log_erfc(w)
    inv_deriv = 1.0 / special._dlog_erfc_at(w, log_erfc_w)
    # w_new = w - (log_erfc(w) + L) / dlogerfc(w), constants frozen at the root
    slope = np.zeros(stable.shape)
    slope[stable] = -inv_deriv
    root = np.zeros(stable.shape)
    root[stable] = w - log_erfc_w * inv_deriv
    w_var = (-log_p) * slope + root
    return w_var * _SQRT2


def ttf_inverse_with_log_deriv(x, *, mu, sigma, lambda_pos, lambda_neg):
    """Map data space back to base space; returns (z, log |dz/dx|).

    Uses z = s sqrt(2) erfc_inv(y^(-1/lambda_s)) with y = lambda_s |(x-mu)/sigma| + 1,
    switching to the asymptotic branch z = s [eta - log eta]^(1/2),
    eta = (2/lambda_s) log y + log(2/pi), once y^(-1/lambda_s) < 1e-6.  The
    log-derivative is the negated forward one, written as
    -log sigma + (1/2) log(pi/2) + z^2/2 - (1 + 1/lambda_s) log y, which is
    exact because log erfc(|z|/sqrt 2) = -(log y)/lambda_s on the inverse path.
    """
    t = (x - mu) / sigma
    tv = value_of(t)
    pos = tv >= 0.0
    s = np.where(pos, 1.0, -1.0)
    lam = ad.where_mask(pos, lambda_pos, lambda_neg)
    log_y = ad.log1p(lam * ad.absolute(t))
    log_p = -log_y / lam
    stable = value_of(log_p) < _LOG_INV_BRANCH_EPS

    z_abs = ad.erfc_inv(ad.exp(ad.where_mask(~stable, log_p, -1.0))) * _SQRT2
    if stable.any():
        z_abs = ad.where_mask(stable, _stable_inverse_branch(log_p, stable), z_abs)
    z = z_abs * s
    ld = -ad.log(sigma) - _HALF_LOG_2_OVER_PI + (z * z) * 0.5 - (1.0 + 1.0 / lam) * log_y
    return z, ld
