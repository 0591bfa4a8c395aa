"""Spans and counters recorded around calls into tailflow's public API.

Nothing under ``src/`` knows about this module.  The benchmark replaces
public functions and methods with wrappers for the duration of a run and
puts the originals back afterwards:

* ``install_accounting`` adds the few cheap hooks every run needs (the
  epoch clock of a DE fit, ELBO step outcomes, tail-fit fallbacks).  They
  record a timestamp or a count per call and stay on in untraced runs.
* ``install_tracing`` adds one span per wrapped call (name, start, end,
  parent span) and the tape node counts.  It is only on in traced runs.
"""

from __future__ import annotations

import csv
import time
from collections import Counter

from tailflow import autodiff, experiments, flows, special, tailest, tailtransform, training

# Layers of the TTF architectures and the short names their spans carry.
LAYERS = {
    flows.RqsArLayer: "rqs",
    flows.AffineArLayer: "affine",
    flows.MarginalTtfLayer: "ttf",
}

# Public functions timed as plain spans, by module.  ``autodiff.backward``
# and the ``flows`` entry points get wrappers of their own below.
PLAIN_SPANS = {
    tailtransform: ("ttf_inverse_with_log_deriv", "ttf_log_deriv"),
    special: ("erfc", "log_erfc", "erfc_inv"),
    training: ("de_loss", "adam_step", "elbo_gradient_step"),
    tailest: ("hill_double_bootstrap", "gpd_fit_ml"),
    experiments: (
        "comet_marginal_fit", "comet_logit", "comet_push",
        "compute_vi_diagnostics", "vi_target_log_density",
    ),
}
# Tape ops whose node counts are reported on their own: the column
# plumbing that a broadcasting tape would remove.
COUNTED_OPS = ("slice_cols", "stack_cols", "select_cols")


def _tape_of(*candidates):
    """The tape of the first Var among the arguments or a params dict's values."""
    for c in candidates:
        if isinstance(c, autodiff.Var):
            return c.tape
        if isinstance(c, dict):
            for v in c.values():
                if isinstance(v, autodiff.Var):
                    return v.tape
    return None


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list = []

    def wrap(self, owner, attr: str, make) -> None:
        orig = vars(owner)[attr]
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def undo(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


class Accounting:
    """Per-call counts and timestamps that untraced runs also need.

    The DE epoch clock is the end (process CPU time) of each numpy ``de_loss`` call,
    which ``fit_density`` makes once per epoch for the validation loss.
    ELBO outcomes come from the public ``ElboStep`` result; tail-fit
    failures from ``DoubleBootstrapResult.fallback`` and ``GpdFitError``.
    """

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.valid_ends: list[float] = []
        self.elbo_starts: list[float] = []
        self.elbo_samples = 0
        self.elbo_dropped = 0
        self.elbo_failed = 0
        self.hill_calls = 0
        self.hill_fallbacks = 0
        self.gpd_errors = 0


def install_accounting(patches: Patches, acc: Accounting) -> None:
    def de_loss(orig):
        def wrapper(model, batch, params=None):
            out = orig(model, batch, params)
            if not isinstance(out, autodiff.Var):
                acc.valid_ends.append(time.process_time())
            return out
        return wrapper

    def elbo_gradient_step(orig):
        def wrapper(model, log_unnorm_target, M, rng):
            acc.elbo_starts.append(time.process_time())
            step = orig(model, log_unnorm_target, M, rng)
            acc.elbo_samples += M
            acc.elbo_dropped += step.dropped
            acc.elbo_failed += step.grads is None
            return step
        return wrapper

    def hill_double_bootstrap(orig):
        def wrapper(samples, rng=None):
            res = orig(samples, rng)
            acc.hill_calls += 1
            acc.hill_fallbacks += bool(res.fallback)
            return res
        return wrapper

    def gpd_fit_ml(orig):
        def wrapper(excesses):
            try:
                return orig(excesses)
            except (tailest.GpdFitError, ValueError):
                acc.gpd_errors += 1
                raise
        return wrapper

    patches.wrap(training, "de_loss", de_loss)
    patches.wrap(training, "elbo_gradient_step", elbo_gradient_step)
    patches.wrap(tailest, "hill_double_bootstrap", hill_double_bootstrap)
    patches.wrap(tailest, "gpd_fit_ml", gpd_fit_ml)


class Recorder:
    """Spans kept in memory, plus tape node counts; written out at the end.

    A span is [name, start_ns, end_ns, parent index or -1], on the process
    CPU clock like every other time the benchmark reports.  Spans of one
    traced run share the recorder, so a span's parent is the innermost
    wrapped call that was open when it started.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.tapes = 0

    def span(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.process_time_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.process_time_ns()
            self._stack.pop()

    def record_tape(self, tape) -> None:
        """Node count, per-op counts and computed value bytes of one tape."""
        self.tapes += 1
        ops = Counter(tape.ops)
        self.counts["autodiff.tape.nodes"] += len(tape.ops)
        for op in COUNTED_OPS:
            self.counts[f"autodiff.tape.nodes.{op}"] += ops[op]
        self.counts["autodiff.tape.bytes"] += sum(v.nbytes for v in tape.values)

    def self_times(self) -> dict[str, tuple[int, int]]:
        """name -> (self time in ns, call count); self = span minus child spans."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, list[int]] = {}
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            slot = out.setdefault(name, [0, 0])
            slot[0] += end - start - inner
            slot[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "name", "start_ns", "end_ns", "parent"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                w.writerow([i, name, start, end, parent])


def install_tracing(patches: Patches, rec: Recorder) -> None:
    def plain(name):
        def make(orig):
            def wrapper(*args, **kwargs):
                return rec.span(name, orig, *args, **kwargs)
            return wrapper
        return make

    def backward(orig):
        def wrapper(out):
            rec.record_tape(out.tape)
            try:
                return rec.span("autodiff.backward", orig, out)
            except autodiff.PoisonedTapeError:
                rec.counts["autodiff.poisoned"] += 1
                raise
        return wrapper

    def layer(short, direction):
        def make(orig):
            def wrapper(self, params, x):
                tape = _tape_of(x, params)
                if tape is None:
                    return rec.span(f"flows.{short}.{direction}.np", orig, self, params, x)
                before = len(tape.ops)
                try:
                    return rec.span(f"flows.{short}.{direction}.tape", orig, self, params, x)
                finally:
                    rec.counts[f"flows.{short}.nodes"] += len(tape.ops) - before
                    rec.counts[f"flows.{short}.tape_calls"] += 1
            return wrapper
        return make

    def base_log_prob(orig):
        def wrapper(self, params, z):
            mode = "np" if _tape_of(z, params) is None else "tape"
            return rec.span(f"flows.base.log_prob.{mode}", orig, self, params, z)
        return wrapper

    def flow_log_prob(orig):
        def wrapper(x, model, params=None):
            mode = "np" if _tape_of(x, params) is None else "tape"
            return rec.span(f"flows.flow_log_prob.{mode}", orig, x, model, params)
        return wrapper

    for module, names in PLAIN_SPANS.items():
        for name in names:
            patches.wrap(module, name, plain(f"{module.__name__.rsplit('.', 1)[-1]}.{name}"))
    patches.wrap(autodiff, "backward", backward)
    for cls, short in LAYERS.items():
        patches.wrap(cls, "inverse", layer(short, "inverse"))
        patches.wrap(cls, "forward", layer(short, "forward"))
    patches.wrap(flows.StdNormalBase, "log_prob", base_log_prob)  # the base of TTF and TTFfix
    patches.wrap(flows, "flow_log_prob", flow_log_prob)
    patches.wrap(flows, "flow_sample", plain("flows.flow_sample.np"))
