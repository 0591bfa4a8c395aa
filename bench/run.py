"""Benchmark of tailflow's DE fit, VI fit and numpy tail pipeline.

    python3 bench/run.py --workload de_ttf_d20 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0

Run it from the root of a checkout; it imports ``tailflow`` from ``src/``
there and fails (exit code 2, no result line) when that is missing.

With ``--trace 0`` the last line of standard output is one JSON object
whose metrics are the end-to-end metrics of BENCHMARK.json; the line
before it is the full report, which adds the step-time percentiles, the
failure fraction, the quality metrics and the run record.  With
``--trace 1`` the metrics are the per-layer ones, from spans recorded
around calls into each module.  Results go to ``bench/out/``.
README.md next to this file says what each metric means.
"""

import os
import time

# One BLAS thread: the machine has 2 cores and the runs must not depend on
# how busy the other one is.  Set before numpy loads its BLAS.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Set-up is timed in this process and in this many fresh child processes,
# spread evenly over the timed repetitions: the speed of the machine drifts
# over tens of seconds, and the median should see the whole run.
SETUP_PROBES = {"full": 6, "tiny": 1}
# Repetitions per run at least, besides the untimed warm-up.
MIN_REPS = 2
PROBE_TIMEOUT_S = 120

# CPU seconds the reference kernel takes on the machine the baseline was
# measured on, in its fast phase.  Gated times are scaled by
# REFERENCE_S / (the run's mean reference time).
REFERENCE_S = 0.1

# Per-layer spans reported with self time (ms) and call count, per traced repetition.
LAYER_SPANS = (
    "autodiff.backward",
    "flows.rqs.inverse.tape", "flows.affine.inverse.tape", "flows.ttf.inverse.tape",
    "flows.base.log_prob.tape",
    "flows.rqs.forward.tape", "flows.affine.forward.tape", "flows.ttf.forward.tape",
    "flows.flow_sample.np", "flows.flow_log_prob.np",
    "tailtransform.ttf_inverse_with_log_deriv", "tailtransform.ttf_log_deriv",
    "special.erfc", "special.log_erfc", "special.erfc_inv",
    "training.de_loss", "training.adam_step", "training.elbo_gradient_step",
    "tailest.hill_double_bootstrap", "tailest.gpd_fit_ml",
    "experiments.comet_marginal_fit", "experiments.comet_logit", "experiments.comet_push",
    "experiments.compute_vi_diagnostics", "experiments.vi_target_log_density",
)
FLOW_LAYERS = ("rqs", "affine", "ttf")
REP_COUNTS = ("training.failed_steps", "training.elbo.dropped", "tailest.fallbacks")


def _import_tailflow():
    if not (SRC / "tailflow" / "__init__.py").is_file():
        print(f"bench: no tailflow package under {SRC}; run from a checkout root",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import spans
    import workloads
    return spans, workloads


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "tailflow").glob("*.py")))


def _git(*args):
    res = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                         timeout=30)
    return res.stdout.strip() if res.returncode == 0 else None


def run_record(workload: str, seed: int, size: str) -> dict:
    """Metadata written with every result: what ran, where, on which code."""
    import numpy
    import scipy

    sha = dirty = None
    # Only ask git inside the checkout: without a .git here it would search the parents.
    if (ROOT / ".git").exists():
        sha = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "workload": workload, "seed": seed, "size": size,
        "git_sha": sha, "git_dirty": dirty,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS, "src_lines": _src_lines(),
    }


def _probe_setup(workload: str, seed: int, size: str) -> float:
    """Set-up time of a fresh interpreter: imports, data generation, model build."""
    res = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed), "--size", size],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True, cwd=ROOT,
    )
    return float(res.stdout.strip().splitlines()[-1])


def _reference_kernel():
    """Fixed numpy and scipy work that shares no code with tailflow.

    Returns a function that runs it and returns its CPU seconds.  It mixes
    what the workloads spend their time on: small-array Python overhead,
    BLAS, vectorised special functions and sorting.
    """
    import numpy as np
    from scipy import special as sp

    rng = np.random.default_rng(0)
    a, v, s = rng.standard_normal((200, 200)), rng.standard_normal(20_000), rng.standard_normal(64)

    def run() -> float:
        t = time.process_time()
        for _ in range(6000):
            np.sum(np.exp(s) * 0.5 + s)
        for _ in range(90):
            a @ a
        for _ in range(75):
            np.sum(sp.erfc(v))
        for _ in range(250):
            np.sort(v)
        return time.process_time() - t
    return run


def _setup(name, seed, size, import_s, workloads):
    """Build a workload; its set-up time is the imports' plus data generation and model build."""
    t = time.process_time()
    wl = workloads.WORKLOADS[name](seed, workloads.SIZES[size])
    return wl, import_s + time.process_time() - t


def _step_report(reps, step_name) -> dict:
    steps_ms = [float(s) * 1e3 for r in reps for s in r.step_s]
    p90 = statistics.quantiles(steps_ms, n=10)[-1]
    return {
        "step": step_name,
        "step_ms.p50": _metric(statistics.median(steps_ms), "ms"),
        "step_ms.p90": _metric(p90, "ms"),
        "step_samples": len(steps_ms),
        "step_samples_beyond_p90": sum(s > p90 for s in steps_ms),
    }


def _layer_metrics(rec, traced, overhead_s: float) -> dict:
    n = len(traced)
    times = rec.self_times()
    out = {}
    for name in LAYER_SPANS:
        ns, calls = times.get(name, (0, 0))
        out[f"{name}.ms"] = _metric(ns / 1e6 / n, "ms")
        out[f"{name}.calls"] = _metric(calls / n, "count")
    tapes = max(rec.tapes, 1)
    out["autodiff.tape.nodes"] = _metric(rec.counts["autodiff.tape.nodes"] / tapes, "count")
    for op in ("slice_cols", "stack_cols", "select_cols"):
        key = f"autodiff.tape.nodes.{op}"
        out[key] = _metric(rec.counts[key] / tapes, "count")
    out["autodiff.tape.mb"] = _metric(rec.counts["autodiff.tape.bytes"] / 1e6 / tapes, "MB")
    for short in FLOW_LAYERS:
        calls = max(rec.counts[f"flows.{short}.tape_calls"], 1)
        out[f"flows.{short}.nodes"] = _metric(rec.counts[f"flows.{short}.nodes"] / calls, "count")
    for key in REP_COUNTS:
        out[key] = _metric(sum(r.counts.get(key, 0) for r in traced) / n, "count")
    out["trace.overhead_s"] = _metric(overhead_s, "s")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str,
                 import_s: float, spans, workloads) -> tuple[dict, dict, bool]:
    """One workload: set-up, timed repetitions, gates.  Returns (metrics, report, correct)."""
    wl, setup_s = _setup(name, seed, size, import_s, workloads)
    setup = [setup_s]
    probes = SETUP_PROBES[size]

    acc = spans.Accounting()
    hooks = spans.Patches()
    spans.install_accounting(hooks, acc)
    rec = spans.Recorder()
    reference = _reference_kernel()
    plain, traced, refs = [], [], []
    try:
        start = time.perf_counter()
        i = 0
        while True:
            # rep 0 warms caches and is not counted; traced runs alternate
            # untraced and traced repetitions so both see the same conditions
            tracing = trace and i % 2 == 1
            ref_s = reference()
            if tracing:
                tracer = spans.Patches()
                spans.install_tracing(tracer, rec)
            try:
                r = wl.rep(acc)
            finally:
                if tracing:
                    tracer.undo()
            if i > 0 and tracing:
                traced.append(r)
            elif i > 0:
                plain.append(r)
                refs.append(ref_s)
            i += 1
            elapsed = time.perf_counter() - start
            if len(setup) <= probes and elapsed >= (len(setup) - 1) * seconds / probes:
                setup.append(_probe_setup(name, seed, size))
            # untraced runs report step percentiles, so they need the step count
            steps = sum(len(r.step_s) for r in plain)
            enough = (len(traced) >= MIN_REPS if trace else
                      wl.step_name is None or steps >= workloads.SIZES[size].min_steps)
            if elapsed >= seconds and len(setup) > probes and len(plain) >= MIN_REPS and enough:
                break
        gate_error = None
        try:
            wl.check(plain + traced)
        except workloads.GateError as exc:
            gate_error = str(exc)
    finally:
        hooks.undo()

    # The host's speed changes by up to 1.5x, in phases of tens of seconds and
    # over hours.  The reference kernel runs before every repetition and sees
    # the same phases, so scaling by it takes the speed of the host out.  Both
    # are means, which weigh fast and slow phases by their share of the run;
    # a median would flip between them.
    scale = REFERENCE_S / statistics.fmean(refs)
    run_cpu_s = statistics.fmean(r.cpu_s for r in plain)
    run_s = run_cpu_s * scale
    # Every repetition replays the same operations on the same inputs, and the
    # gates require their outcomes to repeat, so the operations a run attempts
    # are those of one repetition.  Counting every repetition would make the
    # counts depend on how many fit in the run, that is on the host's speed.
    attempted, failed = plain[0].attempted, plain[0].failed
    report = {
        "run": run_record(name, seed, size),
        "correct": gate_error is None,
        "gate_error": gate_error,
        "reps": len(plain),
        "rep_cpu_s": [r.cpu_s for r in plain],
        "rep_wall_s": [r.wall_s for r in plain],
        "setup_samples_s": setup,
        "reference_s": _metric(statistics.fmean(refs), "s"),
        "setup_s": _metric(statistics.median(setup) * scale, "s"),
        "setup_cpu_s": _metric(statistics.median(setup), "s"),
        "run_s": _metric(run_s, "s"),
        "run_cpu_s": _metric(run_cpu_s, "s"),
        "run_wall_s": _metric(statistics.fmean(r.wall_s for r in plain), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "failed_frac": _metric(failed / attempted, "ratio"),
        "attempted": attempted,
        "failed": failed,
    }
    report.update({k: _metric(v, workloads.QUALITY_UNITS[k]) for k, v in plain[0].quality.items()})
    if wl.step_name is not None:
        report.update(_step_report(plain, wl.step_name))
    if trace:
        # each traced repetition runs just before an untraced one, so their
        # difference is taken at the same machine speed
        overhead = statistics.median(t.cpu_s - p.cpu_s for t, p in zip(traced, plain))
        report["traced_reps"] = len(traced)
        report["traced_run_cpu_s"] = _metric(statistics.fmean(r.cpu_s for r in traced), "s")
        report["spans"] = len(rec.spans)
        report["poisoned_tapes"] = rec.counts["autodiff.poisoned"]
        metrics = _layer_metrics(rec, traced, overhead)
        rec.write_csv(OUT / f"spans-{name}-seed{seed}.csv")
    else:
        metrics = {k: report[k] for k in ("setup_s", "run_s", "peak_rss_mb")}
    return metrics, report, gate_error is None


def main(argv=None) -> int:
    names = ("de_ttf_d20", "vi_ttf_d5", "tails_comet_d5")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="how long the timed repetitions run, per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is the smoke test's size")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    spans, workloads = _import_tailflow()
    # CPU time since the interpreter started: start-up plus every import
    import_s = time.process_time()
    if args.setup_probe:
        print(_setup(args.workload, args.seed, args.size, import_s, workloads)[1])
        return 0

    OUT.mkdir(exist_ok=True)
    selected = names if args.workload == "all" else (args.workload,)
    metrics, correct, attempted, failed = {}, True, 0, 0
    for name in selected:
        m, report, ok = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                     args.size, import_s, spans, workloads)
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        (OUT / f"{stem}.json").write_text(json.dumps({"report": report, "metrics": m}, indent=1))
        print(json.dumps({"workload": name, "report": report}))
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        correct &= ok
        attempted += report["attempted"]
        failed += report["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
