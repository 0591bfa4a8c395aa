"""The benchmark's three workloads: setup, one repetition, correctness gates.

Times are CPU seconds of this process (``time.process_time``): the
benchmark is single-threaded, so they equal wall time on an idle machine,
but unlike wall time they do not grow when the host takes the CPU away
from the VM.  Each repetition records its wall time as well.

Each workload is a class with three parts:

* ``__init__(seed, size)`` is the set-up: data generation from the seed
  and the model build.  ``setup_s`` times it together with the imports.
* ``rep()`` does a fixed amount of work and returns a ``Rep``.  The
  benchmark repeats it, from the same initial state, for the run length.
* ``check(reps)`` raises ``GateError`` when an output is wrong.

Why each workload was chosen is in README.md next to this file.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np

from tailflow import experiments, flows, special, tailest, training


class GateError(RuntimeError):
    """A correctness gate failed; the run is not valid."""


@dataclass
class Rep:
    """Outcome of one repetition of a workload's fixed work."""

    cpu_s: float
    wall_s: float
    step_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    quality: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    losses: np.ndarray | None = None


@dataclass(frozen=True)
class Size:
    """Work per repetition.  ``full`` is the benchmark's; ``tiny`` is the smoke test's."""

    n: int              # synthetic rows before the 40/20/40 split
    epochs: int         # DE epochs (full pass) per repetition
    iterations: int     # ELBO iterations per repetition
    diag_draws: int     # draws for the VI importance diagnostics
    push_rows: int      # test rows pushed back through comet_push
    flow_draws: int     # TTFfix draws sampled and scored
    min_steps: int      # DE or VI steps per run at least: ten beyond p90


SIZES = {
    "full": Size(n=5000, epochs=10, iterations=100, diag_draws=10_000, push_rows=100,
                 flow_draws=10_000, min_steps=100),
    "tiny": Size(n=1000, epochs=2, iterations=5, diag_draws=1000, push_rows=5,
                 flow_draws=500, min_steps=0),
}

NU = 2.0
# Units of the quality metrics each workload reports next to its timings.
QUALITY_UNITS = {
    "test_nll_per_dim": "nats",
    "neg_elbo": "nats",
    "ess_e": "ratio",
    "k_hat": "1",
    "tail_shape_err": "1",
    "light_tailed": "count",
    "comet_out_of_support": "count",
}
# numpy x -> z -> x round trip of the fitted DE model, relative to 1 + |x|;
# it is about 4e-15 today.
ROUND_TRIP_TOL = 1e-12
# comet_push(comet_logit(x)) recovers x to about 8e-14, relative to 1 + |x|,
# wherever x lies inside the support of the fitted marginals.
COMET_TOL = 1e-11


def _reset(model: flows.FlowModel, init: dict) -> None:
    model.params = {k: v.copy() for k, v in init.items()}


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


def _same_quality(reps: list[Rep]) -> None:
    """Every repetition starts from the same state, so results and failures repeat exactly."""
    first = (reps[0].quality, reps[0].attempted, reps[0].failed)
    for r in reps[1:]:
        got = (r.quality, r.attempted, r.failed)
        _require(got == first, f"repetitions disagree: {got} vs {first}")


class DeTtfD20:
    """Full-pass ``fit_density`` of TTF at d=20 on t(2) data, then the test NLL."""

    name = "de_ttf_d20"
    d = 20
    step_name = "DE epoch including validation"

    def __init__(self, seed: int, size: Size):
        spec = experiments.SyntheticDeSpec(d=self.d, nu=NU, n=size.n, seed=seed)
        self.train, self.valid, self.test, _ = experiments.gen_synthetic_de(spec)
        self.model = flows.build_architecture("TTF", self.d, seed=seed)
        self.init = self.model.copy_params()
        # patience above the epoch count: early stopping never fires
        self.cfg = dataclasses.replace(
            experiments.de_train_config(seed, max_epochs=size.epochs),
            patience=size.epochs + 1,
        )

    def rep(self, acc) -> Rep:
        _reset(self.model, self.init)
        acc.reset()
        w0, t0 = time.perf_counter(), time.process_time()
        result = training.fit_density(self.model, self.train, self.valid, self.cfg)
        nll = float(-np.mean(flows.flow_log_prob(self.test, self.model))) / self.d
        cpu, wall = time.process_time() - t0, time.perf_counter() - w0
        # a discarded full-pass step leaves a NaN training loss in its epoch row
        failed = int(np.sum(~np.isfinite(result.trace[:, 0])))
        return Rep(
            cpu_s=cpu,
            wall_s=wall,
            step_s=list(np.diff([t0] + acc.valid_ends)),
            attempted=result.epochs,
            failed=failed,
            quality={"test_nll_per_dim": nll},
            counts={"training.failed_steps": failed},
            losses=result.trace,
        )

    def check(self, reps: list[Rep]) -> None:
        for r in reps:
            _require(r.attempted == self.cfg.max_epochs,
                     f"fit stopped after {r.attempted} of {self.cfg.max_epochs} epochs")
            _require(len(r.step_s) == r.attempted, "epoch clock missed an epoch")
            _require(bool(np.all(np.isfinite(r.losses))), "non-finite DE loss")
            _require(math.isfinite(r.quality["test_nll_per_dim"]), "non-finite test NLL")
        _same_quality(reps)
        # numpy x -> z -> x round trip of the fitted model on the test split
        z = self.test
        for layer in reversed(self.model.layers):
            z, _ = layer.inverse(self.model.params, z)
        x, _ = flows.flow_forward(z, self.model)
        err = float(np.max(np.abs(x - self.test) / (1.0 + np.abs(self.test))))
        _require(err <= ROUND_TRIP_TOL, f"round trip error {err:.3g} above {ROUND_TRIP_TOL}")


class ViTtfD5:
    """``fit_vi`` of TTF at d=5 against the t(2) target, then importance diagnostics."""

    name = "vi_ttf_d5"
    d = 5
    step_name = "ELBO iteration including Adam"

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.size = size
        self.model = flows.build_architecture("TTF", self.d, seed=seed)
        self.init = self.model.copy_params()
        self.cfg = experiments.vi_train_config(seed, NU, iterations=size.iterations)

    def target(self, x):
        return experiments.vi_target_log_density(x, self.d, NU)

    def rep(self, acc) -> Rep:
        _reset(self.model, self.init)
        acc.reset()
        w0, t0 = time.perf_counter(), time.process_time()
        result = training.fit_vi(self.model, self.target, self.cfg)
        t_fit = time.process_time()
        diag = experiments.compute_vi_diagnostics(
            self.model, self.target, self.size.diag_draws, special.Rng(self.seed).child(991)
        )
        cpu, wall = time.process_time() - t0, time.perf_counter() - w0
        tail = result.trace[-max(1, result.epochs // 5):, 0]
        return Rep(
            cpu_s=cpu,
            wall_s=wall,
            step_s=list(np.diff(acc.elbo_starts + [t_fit])),
            attempted=acc.elbo_samples,
            failed=acc.elbo_dropped,
            quality={"neg_elbo": float(np.mean(tail)), "ess_e": diag.ess_e, "k_hat": diag.k_hat},
            counts={"training.failed_steps": acc.elbo_failed,
                    "training.elbo.dropped": acc.elbo_dropped},
            losses=result.trace[:, 0],
        )

    def check(self, reps: list[Rep]) -> None:
        for r in reps:
            _require(r.losses.size == self.cfg.max_epochs, "fit_vi stopped early")
            _require(len(r.step_s) == r.losses.size, "step clock missed an iteration")
            _require(bool(np.all(np.isfinite(r.losses))), "non-finite ELBO loss")
            _require(0.0 < r.quality["ess_e"] <= 1.0, f"ess_e {r.quality['ess_e']} outside (0, 1]")
            _require(math.isfinite(r.quality["k_hat"]), "k_hat is not finite")
        _same_quality(reps)


class TailsCometD5:
    """numpy-only tail pipeline at n=5000, d=5: Hill, COMET marginals, TTFfix draws."""

    name = "tails_comet_d5"
    d = 5
    step_name = None

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.size = size
        spec = experiments.SyntheticDeSpec(d=self.d, nu=NU, n=size.n, seed=seed)
        train, valid, self.test, _ = experiments.gen_synthetic_de(spec)
        self.fit_rows = np.concatenate([train, valid], axis=0)
        self.all_rows = np.concatenate([self.fit_rows, self.test], axis=0)
        self.push_rows = self.test[: size.push_rows]
        self.model = flows.build_architecture("TTFfix", self.d, seed=seed)
        self.last = None

    def rep(self, acc) -> Rep:
        acc.reset()
        w0, t0 = time.perf_counter(), time.process_time()
        est = tailest.estimate_marginal_tails(self.all_rows, special.Rng(self.seed).child(7))
        marginals = [experiments.comet_marginal_fit(self.fit_rows[:, j]) for j in range(self.d)]
        u, _ = experiments.comet_logit(self.test, marginals)
        pushed, _ = experiments.comet_push(u[: self.size.push_rows], marginals)
        flows.set_frozen_tails(self.model, est.shape)
        draws = flows.flow_sample(self.model, special.Rng(self.seed).child(3), self.size.flow_draws)
        log_q = flows.flow_log_prob(draws, self.model)
        cpu, wall = time.process_time() - t0, time.perf_counter() - w0
        fallbacks = sum(m.tail_fallback for m in marginals)
        self.last = (est, u, pushed, log_q)
        return Rep(
            cpu_s=cpu,
            wall_s=wall,
            attempted=acc.hill_calls + len(marginals),
            failed=acc.hill_fallbacks + fallbacks,
            quality={
                "tail_shape_err": float(np.mean(np.abs(est.shape - 1.0 / NU))),
                "light_tailed": int(np.sum(est.light_tailed)),
                # An ML GPD tail with negative shape has a finite endpoint; heavy
                # test values beyond it get cdf 1 and an infinite logit.
                "comet_out_of_support": int(np.sum(~np.isfinite(u))),
            },
            counts={"tailest.fallbacks": acc.hill_fallbacks + acc.gpd_errors},
        )

    def check(self, reps: list[Rep]) -> None:
        _same_quality(reps)
        est, u, pushed, log_q = self.last
        _require(bool(np.all(np.isfinite(est.shape))), "non-finite tail shape")
        # outside the fitted support the logit is infinite and has no inverse
        inside = np.all(np.isfinite(u[: len(pushed)]), axis=1)
        x = self.push_rows[inside]
        err = float(np.max(np.abs(pushed[inside] - x) / (1.0 + np.abs(x))))
        _require(err <= COMET_TOL, f"comet_push(comet_logit(x)) error {err:.3g} above {COMET_TOL}")
        _require(bool(np.all(np.isfinite(log_q))), "non-finite log density of a TTFfix draw")


WORKLOADS = {w.name: w for w in (DeTtfD20, ViTtfD5, TailsCometD5)}
