"""Training harnesses for density estimation and variational inference.

Density estimation minimises the negative log likelihood with Adam,
full-pass or minibatched, early-stopped on a full-batch validation loss.
Variational fits maximise a reparameterized ELBO estimate against an
unnormalized target density.  Both survive unstable runs: a step whose
loss comes back non-finite restores the last good parameters and burns
retry budget instead of aborting, so diverged runs are reported rather
than crashed.
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
        "skipped": 0,
    }


def clip_gradient_norm(grads: dict, max_norm: float) -> dict:
    """Scale the whole gradient dict so its global L2 norm is at most max_norm."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
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
    """One Adam update; returns new parameter arrays, mutating state.

    A non-finite gradient anywhere skips the step entirely and bumps the
    divergence counter.  Clipping happens before the moment update so a
    pathological batch cannot contaminate the running moments.
    """
    for g in grads.values():
        if not np.all(np.isfinite(g)):
            state["skipped"] += 1
            return {k: v for k, v in params.items()}
    if clip_norm is not None:
        grads = clip_gradient_norm(grads, clip_norm)
    state["t"] += 1
    t = state["t"]
    c1 = 1.0 - _ADAM_BETA1 ** t
    c2 = 1.0 - _ADAM_BETA2 ** t
    out = {}
    for k, p in params.items():
        g = grads.get(k)
        if g is None:
            out[k] = p
            continue
        m = state["m"][k] = _ADAM_BETA1 * state["m"][k] + (1.0 - _ADAM_BETA1) * g
        v = state["v"][k] = _ADAM_BETA2 * state["v"][k] + (1.0 - _ADAM_BETA2) * (g * g)
        out[k] = p - lr * (m / c1) / (np.sqrt(v / c2) + _ADAM_EPS)
    return out


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
    try:
        x, logq = flows.flow_sample_with_log_prob(model, model.tape_params(ad.Tape()), rng, M)
        xv = ad.value_of(x)
        lqv = ad.value_of(logq)
        target_vals = np.asarray(log_unnorm_target(xv), dtype=float)
        good = (
            np.all(np.isfinite(xv), axis=1)
            & np.isfinite(lqv)
            & np.isfinite(target_vals)
        )
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
        loss = gap.sum() / n_good
        value = float(ad.value_of(loss))
        if not np.isfinite(value):
            return ElboStep(None, float("nan"), M)
        # with every param frozen no tape is built, and there is nothing to differentiate
        grads = ad.backward(loss) if isinstance(loss, ad.Var) else {}
    except ad.PoisonedTapeError:
        return ElboStep(None, float("nan"), M)
    return ElboStep(grads, -value, M - n_good)


def _write_trace(path: str, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "train_loss", "valid_loss"])
        for i, (tr, va) in enumerate(rows, start=1):
            w.writerow([i, repr(tr), repr(va)])


def _snapshot(model: flows.FlowModel) -> dict:
    return {k: v.copy() for k, v in model.trainable_params().items()}


def _moments(state: dict) -> dict:
    """Adam's moments and step count in ``state``, in dicts of their own
    (``adam_step`` replaces the arrays, never writes into them)."""
    return {"m": dict(state["m"]), "v": dict(state["v"]), "t": state["t"]}


def _de_gradient(model: flows.FlowModel, batch: np.ndarray):
    """(loss, parameter gradients) of one DE batch, built on a fresh tape.

    The gradients are None when the loss is non-finite or the tape is
    poisoned, and empty when every parameter is frozen, as no tape is built
    then.
    """
    # NaN poisoning is the designed failure mode here; keep the console
    # clear of the float warnings it necessarily raises.
    with np.errstate(all="ignore"):
        loss = de_loss(model, batch, model.tape_params(ad.Tape()))
        if not isinstance(loss, ad.Var):
            return loss, {}
        value = float(loss.value)
        if not np.isfinite(value):
            return value, None
        try:
            return value, ad.backward(loss)
        except ad.PoisonedTapeError:
            return value, None


def fit_density(
    model: flows.FlowModel,
    train: np.ndarray,
    valid: np.ndarray,
    cfg: TrainConfig,
    trace_path: str | None = None,
) -> TrainResult:
    """Maximum-likelihood fit with early stopping on validation loss.

    The model is left at the parameters of the best validation epoch.
    Divergence: a non-finite training step restores the last good
    parameters together with Adam's moments and step count, halves the
    learning rate for the rest of the fit, so that a full-pass retry is a
    different step and not a replay of the failed one, and halves a retry
    budget of 5; an exhausted budget, or a final loss above 1e5, flags the
    run as diverged.
    """
    rng = special.Rng(cfg.seed)
    n = train.shape[0]
    state = adam_init(model.trainable_params())
    lr = cfg.lr
    budget = _RETRY_BUDGET
    last_good = _snapshot(model), _moments(state)
    best_params = _snapshot(model)
    best_valid = float("inf")
    stale = 0
    rows: list = []
    exhausted = False

    for _epoch in range(1, cfg.max_epochs + 1):
        perm = rng.permutation(n)
        if cfg.batch_size is FULL_PASS or cfg.batch_size >= n:
            batches = [perm]
        else:
            batches = [
                perm[i: i + cfg.batch_size] for i in range(0, n, cfg.batch_size)
            ]
        losses = []
        for idx in batches:
            loss, grads = _de_gradient(model, train[idx])
            if grads is None:
                params, moments = last_good
                model.params.update({k: v.copy() for k, v in params.items()})
                state.update(_moments(moments))
                lr *= 0.5
                budget //= 2
                if budget == 0:
                    exhausted = True
                    break
                continue
            losses.append(loss / idx.size)
            last_good = _snapshot(model), _moments(state)
            model.params.update(
                adam_step(model.trainable_params(), grads, state, lr, cfg.clip_norm)
            )
        train_loss = float(np.mean(losses)) if losses else float("nan")
        with np.errstate(all="ignore"):
            vl = de_loss(model, valid)
        valid_loss = float(vl) / valid.shape[0]
        rows.append((train_loss, valid_loss))
        if exhausted:
            break
        if np.isfinite(valid_loss) and valid_loss < best_valid:
            best_valid = valid_loss
            best_params = _snapshot(model)
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    model.params.update(best_params)
    if trace_path is not None:
        _write_trace(trace_path, rows)
    final_train, final_valid = rows[-1] if rows else (float("nan"), float("nan"))
    diverged = (
        exhausted
        or not np.isfinite(final_train)
        or not np.isfinite(final_valid)
        or final_train > DIVERGENCE_LOSS
        or final_valid > DIVERGENCE_LOSS
    )
    return TrainResult(
        trace=np.asarray(rows, dtype=float).reshape(len(rows), 2),
        diverged=diverged,
        epochs=len(rows),
    )


def fit_vi(
    model: flows.FlowModel,
    log_unnorm_target: Callable,
    cfg: TrainConfig,
    trace_path: str | None = None,
) -> TrainResult:
    """Stochastic ELBO maximisation for a fixed iteration count.

    Leaves the model at its final parameters (no validation selection);
    the trace's train column holds the per-iteration negative-ELBO estimate.
    """
    rng = special.Rng(cfg.seed)
    M = cfg.batch_size if cfg.batch_size is not FULL_PASS else 100
    state = adam_init(model.trainable_params())
    budget = _RETRY_BUDGET
    last_good = _snapshot(model)
    rows: list = []
    exhausted = False

    for _it in range(1, cfg.max_epochs + 1):
        with np.errstate(all="ignore"):
            step = elbo_gradient_step(model, log_unnorm_target, M, rng)
        if step.grads is None:
            model.params.update({k: v.copy() for k, v in last_good.items()})
            budget //= 2
            rows.append((float("nan"), float("nan")))
            if budget == 0:
                exhausted = True
                break
            continue
        last_good = _snapshot(model)
        model.params.update(
            adam_step(model.trainable_params(), step.grads, state, cfg.lr, cfg.clip_norm)
        )
        rows.append((-step.elbo, float("nan")))

    if trace_path is not None:
        _write_trace(trace_path, rows)
    finite = [r[0] for r in rows if np.isfinite(r[0])]
    final = finite[-1] if finite else float("nan")
    diverged = exhausted or not finite or final > DIVERGENCE_LOSS
    return TrainResult(
        trace=np.asarray(rows, dtype=float).reshape(len(rows), 2),
        diverged=diverged,
        epochs=len(rows),
    )
