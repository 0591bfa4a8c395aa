"""Training: one Adam loop for density estimation, variational inference
and the heavy-input regression demo.

``fit`` runs Adam on a parameter dict, epoch by epoch, over the batches and
the step function its caller gives it.  It has three callers:

* ``fit_density`` minimises the negative log likelihood, full-pass or
  minibatched, early-stopped on a full-batch validation loss;
* ``fit_vi`` maximises a reparameterized ELBO estimate against an
  unnormalized target density, one step per epoch for a fixed count;
* ``experiments.fit_mlp_regressor`` fits the regression MLP on minibatches,
  early-stopped on its validation MSE.

Each step's loss and gradients come from ``gradient``, which gives no
gradients for a non-finite loss, a poisoned tape or a non-finite gradient.
``fit`` answers such a step with one policy: it restores the last good
parameters together with Adam's moments and step count, halves the learning
rate for the rest of the fit, so that a full-pass retry is a different step
and not a replay of the failed one, and halves a retry budget of 5.  An
exhausted budget ends the fit, and diverged runs are reported rather than
crashed.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad
from . import flows, special

logger = logging.getLogger(__name__)

# Batch-size sentinel: one full-pass gradient step per epoch.
FULL_PASS = None

DIVERGENCE_LOSS = 1e5
_RETRY_BUDGET = 5
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    lr: float = 5e-3
    batch_size: int | None = FULL_PASS
    max_epochs: int = 2000
    patience: int = 100
    clip_norm: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.lr <= 0.0:
            raise ValueError("learning rate must be positive")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch size must be positive or the full-pass sentinel")
        if self.clip_norm is not None and not self.clip_norm > 0.0:
            raise ValueError("clip_norm must be positive or None")


@dataclass
class TrainResult:
    """Outcome of one training run.

    ``trace`` has one row per epoch: (train loss, validation loss), both
    mean negative log likelihood per observation; the validation column
    is NaN for VI runs.
    """

    trace: np.ndarray
    diverged: bool
    epochs: int


def de_loss(model: flows.FlowModel, batch: np.ndarray, params: dict | None = None):
    """Negative log likelihood summed over the batch; Var under a tape."""
    if batch.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    lp = flows.flow_log_prob(batch, model, params)
    if isinstance(lp, ad.Var):
        return -lp.sum()
    return -float(np.sum(lp))


def adam_init(params: dict) -> dict:
    """Fresh first/second moment state for the given parameter dict."""
    return {
        "m": {k: np.zeros_like(v) for k, v in params.items()},
        "v": {k: np.zeros_like(v) for k, v in params.items()},
        "t": 0,
    }


def clip_gradient_norm(grads: dict, max_norm: float) -> dict:
    """Scale the whole (finite) gradient dict so its global L2 norm is at most max_norm."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if np.isinf(total):  # the squares overflow: take the norm of g / max|g|
        big = max(float(np.max(np.abs(g))) for g in grads.values() if np.size(g))
        total = big * np.sqrt(sum(float(np.sum((g / big) ** 2)) for g in grads.values()))
    if total <= max_norm or total == 0.0:
        return grads
    scale = max_norm / total
    return {k: g * scale for k, g in grads.items()}


def adam_step(
    params: dict,
    grads: dict,
    state: dict,
    lr: float,
    clip_norm: float | None = None,
) -> dict:
    """One Adam update on finite gradients; returns new parameter arrays,
    mutating state.

    Clipping happens before the moment update so a pathological batch cannot
    contaminate the running moments.  The update runs once over the entries
    of every parameter with a gradient (of the parameter's shape, as
    ``gradient`` gives), laid end to end; each op is elementwise, so every
    entry gets the bits of a per-array update.  The new moments are views of
    the joined ones; each new parameter is its old array minus its part of
    the joined step, an array of its own.
    """
    if clip_norm is not None:
        grads = clip_gradient_norm(grads, clip_norm)
    state["t"] += 1
    t = state["t"]
    c1 = 1.0 - _ADAM_BETA1 ** t
    c2 = 1.0 - _ADAM_BETA2 ** t
    out = dict(params)
    keys = [k for k in params if grads.get(k) is not None]
    if not keys:
        return out

    def joined(arrays: dict) -> np.ndarray:
        return np.concatenate([arrays[k].ravel() for k in keys])

    g = joined(grads)
    m = _ADAM_BETA1 * joined(state["m"]) + (1.0 - _ADAM_BETA1) * g
    v = _ADAM_BETA2 * joined(state["v"]) + (1.0 - _ADAM_BETA2) * (g * g)
    step = lr * (m / c1) / (np.sqrt(v / c2) + _ADAM_EPS)
    end = 0
    for k in keys:
        p = params[k]
        start, end = end, end + p.size
        state["m"][k] = m[start:end].reshape(p.shape)
        state["v"][k] = v[start:end].reshape(p.shape)
        out[k] = p - step[start:end].reshape(p.shape)
    return out


def gradient(loss) -> tuple[float, dict | None]:
    """(value, parameter gradients) of a scalar loss built on a tape.

    The gradients are None when the value or any gradient is non-finite or
    the tape is poisoned, and empty when the loss is a plain number: with
    every parameter frozen no tape is built.
    """
    value = float(ad.value_of(loss))
    if not np.isfinite(value):
        return value, None
    if not isinstance(loss, ad.Var):
        return value, {}
    try:
        grads = ad.backward(loss)
    except ad.PoisonedTapeError:
        return value, None
    return value, grads if all(np.isfinite(g).all() for g in grads.values()) else None


class ElboStep(NamedTuple):
    """One stochastic ELBO gradient; grads is None on a diverged step."""

    grads: dict | None
    elbo: float
    dropped: int


def elbo_gradient_step(
    model: flows.FlowModel,
    log_unnorm_target: Callable,
    M: int,
    rng: special.Rng,
) -> ElboStep:
    """Reparameterized gradient of the negative-ELBO loss over M samples.

    The loss is mean(log q(x) - log p~(x)) over samples x drawn through
    the flow, so minimising it maximises the ELBO.  Samples at which the
    target (or the flow's own log density) is non-finite are dropped
    from the average; their tape lanes get a zero substitute before the
    target evaluation so no NaN can leak into the backward pass.
    """
    if M < 1:
        raise ValueError("M must be at least 1")
    x, logq = flows.flow_sample_with_log_prob(model, model.tape_params(ad.Tape()), rng, M)
    xv = ad.value_of(x)
    lqv = ad.value_of(logq)
    target_vals = np.asarray(log_unnorm_target(xv), dtype=float)
    good = np.all(np.isfinite(xv), axis=1) & np.isfinite(lqv) & np.isfinite(target_vals)
    n_good = int(good.sum())
    if n_good < M:
        logger.warning("elbo step: dropped %d of %d samples", M - n_good, M)
    if n_good == 0:
        return ElboStep(None, float("nan"), M)
    if n_good < M:
        x = ad.where_mask(good[:, None], x, 0.0)
    lp = log_unnorm_target(x)
    gap = logq - lp
    if n_good < M:
        gap = ad.where_mask(good, gap, 0.0)
    value, grads = gradient(gap.sum() / n_good)
    if grads is None:
        return ElboStep(None, float("nan"), M)
    return ElboStep(grads, -value, M - n_good)


def _write_trace(path: str, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "train_loss", "valid_loss"])
        for i, (tr, va) in enumerate(rows, start=1):
            w.writerow([i, repr(tr), repr(va)])


def _moments(state: dict) -> dict:
    """Adam's moments and step count in ``state``, in dicts of their own
    (``adam_step`` replaces the arrays, never writes into them)."""
    return {"m": dict(state["m"]), "v": dict(state["v"]), "t": state["t"]}


def shuffled_batches(n: int, cfg: TrainConfig) -> Callable:
    """Each call gives one epoch's batches of row indices: a fresh permutation
    of range(n) from ``Rng(cfg.seed)``, cut into ``cfg.batch_size`` rows, or
    whole at ``FULL_PASS``."""
    rng = special.Rng(cfg.seed)
    size = n if cfg.batch_size is FULL_PASS else cfg.batch_size

    def batches() -> list:
        perm = rng.permutation(n)
        return [perm[i: i + size] for i in range(0, n, size)]

    return batches


def fit(
    params: dict,
    frozen: set,
    step: Callable,
    batches: Callable,
    valid: Callable | None,
    cfg: TrainConfig,
    trace_path: str | None = None,
) -> TrainResult:
    """Adam on the ``params`` dict, in place, leaving the ``frozen`` keys alone.

    Each epoch runs ``step(batch) -> (mean loss, gradients or None)`` over
    ``batches()``, then ``valid() -> validation loss`` if given.  With
    ``valid`` the fit stops after ``cfg.patience`` epochs without a better
    validation loss and ends at the parameters of the best one; without, it
    runs ``cfg.max_epochs`` epochs and keeps the last parameters.  A step
    without gradients is handled as the module docstring says.  The run is
    diverged if the budget ran out, or if the last epoch's loss (and its
    validation loss, where there is one) is non-finite or above 1e5.
    """
    trainable = [k for k in params if k not in frozen]
    state = adam_init({k: params[k] for k in trainable})
    lr = cfg.lr
    budget = _RETRY_BUDGET
    # shallow copies suffice: adam_step replaces arrays, never writes into them
    last_good = dict(params), _moments(state)
    best, best_valid, stale = dict(params), float("inf"), 0
    rows: list = []
    exhausted = False
    # NaN poisoning is the designed failure mode; keep the console clear of
    # the float warnings it necessarily raises.
    with np.errstate(all="ignore"):
        for _epoch in range(cfg.max_epochs):
            losses = []
            for batch in batches():
                loss, grads = step(batch)
                if grads is None:
                    params.update(last_good[0])
                    state.update(_moments(last_good[1]))
                    lr *= 0.5
                    budget //= 2
                    exhausted = budget == 0
                    if exhausted:
                        break
                    continue
                losses.append(loss)
                last_good = dict(params), _moments(state)
                trained = {k: params[k] for k in trainable}
                params.update(adam_step(trained, grads, state, lr, cfg.clip_norm))
            train_loss = float(np.mean(losses)) if losses else float("nan")
            valid_loss = valid() if valid is not None else float("nan")
            rows.append((train_loss, valid_loss))
            if exhausted:
                break
            if np.isfinite(valid_loss) and valid_loss < best_valid:
                best, best_valid, stale = dict(params), valid_loss, 0
            elif valid is not None:
                stale += 1
                if stale >= cfg.patience:
                    break
    if valid is not None:
        params.update(best)
    if trace_path is not None:
        _write_trace(trace_path, rows)
    final = rows[-1] if valid is not None else rows[-1][:1]
    return TrainResult(
        trace=np.asarray(rows, dtype=float),
        diverged=exhausted or not all(np.isfinite(x) and x <= DIVERGENCE_LOSS for x in final),
        epochs=len(rows),
    )


def _de_gradient(model: flows.FlowModel, batch: np.ndarray):
    """``gradient`` of the summed NLL of one DE batch, on a fresh tape."""
    return gradient(de_loss(model, batch, model.tape_params(ad.Tape())))


def fit_density(
    model: flows.FlowModel,
    train: np.ndarray,
    valid: np.ndarray,
    cfg: TrainConfig,
    trace_path: str | None = None,
) -> TrainResult:
    """Maximum-likelihood fit with early stopping on the validation loss.

    The model is left at the parameters of the best validation epoch.
    """

    def step(idx: np.ndarray):
        loss, grads = _de_gradient(model, train[idx])
        return loss / idx.size, grads

    def valid_loss() -> float:
        return float(de_loss(model, valid)) / valid.shape[0]

    return fit(model.params, model.frozen, step, shuffled_batches(train.shape[0], cfg),
               valid_loss, cfg, trace_path)


def fit_vi(
    model: flows.FlowModel,
    log_unnorm_target: Callable,
    cfg: TrainConfig,
    trace_path: str | None = None,
) -> TrainResult:
    """Stochastic ELBO maximisation, one step of ``cfg.batch_size`` draws per
    epoch for ``cfg.max_epochs`` epochs.

    Leaves the model at its final parameters (no validation selection);
    the trace's train column holds the per-iteration negative-ELBO estimate.
    """
    if cfg.batch_size is FULL_PASS:
        raise ValueError("VI draws batch_size samples per step; it has no full pass")
    rng = special.Rng(cfg.seed)

    def step(_batch):
        st = elbo_gradient_step(model, log_unnorm_target, cfg.batch_size, rng)
        return -st.elbo, st.grads

    return fit(model.params, model.frozen, step, lambda: [None], None, cfg, trace_path)
