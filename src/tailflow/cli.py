"""Command-line entry point: config parsing, table execution, CSV emission.

Config files are flat ``key = value`` text with one section per command::

    [de-synth]
    flow = TTF
    d = 5
    nu = 2.0
    seeds = 0..9

Flags override file values.  Every run directory gets a metadata record
holding the resolved settings, so a run can be reproduced bit-exactly by
pointing --config at the metadata itself.  The last bits of a d=20 fit
depend on the BLAS thread count, so its rows reproduce bit for bit only at
the same count; the record notes ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` ("unset" when absent) in a
comment line, which --config skips.  ``table`` runs nothing: it prints the
per-cell mean (se) and run count of every metric in the results files of
--out-dir, and writes no metadata.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import functools
import glob
import logging
import os
import sys
from dataclasses import dataclass
from importlib import metadata as importlib_metadata

import numpy as np

from . import experiments as ex
from . import flows, special, tailest, training

logger = logging.getLogger(__name__)

COMMANDS = ("de-synth", "vi-synth", "de-csv", "nnreg", "tail-est", "table")

CSV_FIELDS = ("flow", "d", "nu", "seed", "metric_name", "value", "diverged")


class UsageError(Exception):
    """Bad configuration; the message names the offending key."""


@dataclass
class ExperimentConfig:
    """Fully resolved settings of one CLI invocation."""

    command: str
    flow: str = "TTF"
    d: int = 5
    nu: float = 2.0
    seeds: tuple[int, ...] = (0,)
    lr: float | None = None
    batch: int | str | None = None   # None -> command default, "full" -> full pass
    epochs: int | None = None
    patience: int | None = None
    clip_norm: float | None = None
    jobs: int = 1
    out_dir: str = "runs"
    trace: bool = False
    data_path: str | None = None     # de-csv / tail-est input
    activation: str = "sigmoid"      # nnreg
    n: int | None = None             # sample-count override where meaningful

    def resolved_train_config(self, seed: int) -> training.TrainConfig:
        if self.command == "vi-synth":
            base = ex.vi_train_config(seed, self.nu)
        else:
            base = ex.de_train_config(seed)
        lr = self.lr if self.lr is not None else base.lr
        if self.batch == "full":
            batch = training.FULL_PASS
        elif self.batch is not None:
            batch = self.batch
        else:
            batch = base.batch_size
        return training.TrainConfig(
            lr=lr,
            batch_size=batch,
            max_epochs=self.epochs if self.epochs is not None else base.max_epochs,
            patience=self.patience if self.patience is not None else base.patience,
            clip_norm=self.clip_norm if self.clip_norm is not None else base.clip_norm,
            seed=seed,
        )


_INT_KEYS = {"d", "jobs", "n"}
_FLOAT_KEYS = {"nu", "lr", "clip_norm"}
_BOOL_KEYS = {"trace"}
_STR_KEYS = {"flow", "out_dir", "data_path", "activation", "command"}

# epochs/patience/batch parse as int but accept the full-pass token for batch
_KNOWN_KEYS = (
    _INT_KEYS | _FLOAT_KEYS | _BOOL_KEYS | _STR_KEYS
    | {"seeds", "epochs", "patience", "batch"}
)


def _parse_seeds(text: str) -> tuple[int, ...]:
    text = text.strip()
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo, hi = part.split("..", 1)
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    if not out:
        raise UsageError("seeds: empty list")
    return tuple(out)


def _coerce(key: str, raw: str):
    raw = raw.strip()
    try:
        if key == "seeds":
            return _parse_seeds(raw)
        if key == "batch":
            if raw.lower() in ("none", "full", "full-pass", "full_pass"):
                return "full"
            return int(raw)
        if key in _INT_KEYS or key in ("epochs", "patience"):
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _BOOL_KEYS:
            if raw.lower() in ("1", "true", "yes", "on"):
                return True
            if raw.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return raw
    except UsageError:
        raise
    except ValueError as e:
        raise UsageError(f"{key}: cannot parse value {raw!r}") from e


def read_config_file(path: str, command: str) -> dict:
    """Key=value pairs of the section matching the command (plus unsectioned)."""
    values: dict = {}
    section = None
    try:
        lines = open(path, encoding="utf-8").read().splitlines()
    except OSError as e:
        raise UsageError(f"config: cannot read {path!r} ({e})") from e
    for ln, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in COMMANDS:
                raise UsageError(f"config line {ln}: unknown section {section!r}")
            continue
        if "=" not in line:
            raise UsageError(f"config line {ln}: expected key = value, got {line!r}")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise UsageError(f"config line {ln}: unknown key {key!r}")
        if section in (None, command):
            values[key] = _coerce(key, raw)
    return values


def parse_config(argv: list[str]) -> ExperimentConfig:
    """Merge defaults, config file and flags (flags win)."""
    parser = argparse.ArgumentParser(
        prog="tailflow",
        description="Heavy-tailed flow experiments",
        add_help=True,
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config")
    parser.add_argument("--flow")
    parser.add_argument("--d", type=int)
    parser.add_argument("--nu", type=float)
    parser.add_argument("--seeds")
    parser.add_argument("--lr", type=float)
    parser.add_argument("--batch")
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--patience", type=int)
    parser.add_argument("--clip-norm", dest="clip_norm", type=float)
    parser.add_argument("--jobs", type=int)
    parser.add_argument("--out-dir", dest="out_dir")
    parser.add_argument("--trace", action="store_true", default=None)
    parser.add_argument("--data", dest="data_path")
    parser.add_argument("--activation", choices=("sigmoid", "relu"))
    parser.add_argument("--n", type=int)
    ns = parser.parse_args(argv)

    merged: dict = {}
    if ns.config:
        merged.update(read_config_file(ns.config, ns.command))
    for key in (
        "flow", "d", "nu", "seeds", "lr", "batch", "epochs", "patience",
        "clip_norm", "jobs", "out_dir", "trace", "data_path", "activation", "n",
    ):
        val = getattr(ns, key)
        if val is None:
            continue
        merged[key] = _coerce(key, str(val)) if isinstance(val, str) else val

    cfg = ExperimentConfig(command=ns.command)
    for key, val in merged.items():
        if key == "command":
            continue
        if not hasattr(cfg, key):
            raise UsageError(f"unknown key {key!r}")
        setattr(cfg, key, val)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.command in ("de-csv", "tail-est") and not cfg.data_path:
        raise UsageError("data_path: required for this command (--data)")
    if cfg.data_path and not os.path.exists(cfg.data_path):
        raise UsageError(f"data_path: {cfg.data_path!r} does not exist")
    if cfg.command in ("de-synth", "vi-synth", "de-csv"):
        # VI cannot train a COMET model (a normal flow on logits), nor the
        # mixture and generalized-normal bases, whose draws carry no
        # reparameterised gradient.
        known = ex.VI_FLOWS + ("normal", "TTF_tBase") if cfg.command == "vi-synth" \
            else ex.DE_FLOWS + ("TTF_tBase",)
        if cfg.flow not in known:
            raise UsageError(f"flow: {cfg.command} cannot fit flow {cfg.flow!r}; "
                             f"expected one of {known}")
    if cfg.jobs < 1:
        raise UsageError("jobs: must be at least 1")
    if cfg.d < 1:
        raise UsageError("d: must be at least 1")


def _build_version() -> str:
    try:
        return importlib_metadata.version("tailflow")
    except importlib_metadata.PackageNotFoundError:
        return "unversioned"


def write_metadata(cfg: ExperimentConfig, path: str) -> None:
    """Self-reproducing record: feed it back through --config to re-run."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# tailflow {_build_version()} run record\n")
        fh.write("# " + " ".join(f"{v}={os.environ.get(v, 'unset')}" for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")) + "\n")
        fh.write(f"[{cfg.command}]\n")
        fh.write(f"flow = {cfg.flow}\n")
        fh.write(f"d = {cfg.d}\n")
        fh.write(f"nu = {cfg.nu!r}\n")
        fh.write(f"seeds = {','.join(str(s) for s in cfg.seeds)}\n")
        tc = cfg.resolved_train_config(cfg.seeds[0])
        fh.write(f"lr = {tc.lr!r}\n")
        batch = "full" if tc.batch_size is training.FULL_PASS else tc.batch_size
        fh.write(f"batch = {batch}\n")
        fh.write(f"epochs = {tc.max_epochs}\n")
        fh.write(f"patience = {tc.patience}\n")
        if tc.clip_norm is not None:
            fh.write(f"clip_norm = {tc.clip_norm!r}\n")
        fh.write(f"jobs = {cfg.jobs}\n")
        fh.write(f"trace = {str(cfg.trace).lower()}\n")
        if cfg.data_path:
            fh.write(f"data_path = {cfg.data_path}\n")
        if cfg.command == "nnreg":
            fh.write(f"activation = {cfg.activation}\n")
        if cfg.n is not None:
            fh.write(f"n = {cfg.n}\n")


def _append_rows(path: str, rows: list[dict], write_header: bool) -> None:
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        if write_header:
            writer.writeheader()
        for r in rows:
            writer.writerow({k: r.get(k, "") for k in CSV_FIELDS})


def _run_one_seed(cfg: ExperimentConfig, seed: int) -> list[dict]:
    trace_path = (
        os.path.join(cfg.out_dir, f"trace_{cfg.command}_{cfg.flow}_{seed}.csv")
        if cfg.trace
        else None
    )
    tc = cfg.resolved_train_config(seed)
    if cfg.command == "de-synth":
        return ex.run_de_cell(cfg.flow, cfg.d, cfg.nu, seed, tc, trace_path)
    if cfg.command == "vi-synth":
        return ex.run_vi_cell(cfg.flow, cfg.d, cfg.nu, seed, tc, trace_path)
    if cfg.command == "nnreg":
        mse = ex.run_nnreg(cfg.d, cfg.nu, cfg.activation, seed,
                           n_per_split=cfg.n or 5000)
        return [dict(flow=f"mlp-{cfg.activation}", d=cfg.d, nu=cfg.nu, seed=seed,
                     metric_name="test_mse", value=mse,
                     diverged=not np.isfinite(mse) or mse > training.DIVERGENCE_LOSS)]
    if cfg.command == "de-csv":
        return _run_de_csv_seed(cfg, seed, tc, trace_path)
    raise UsageError(f"command {cfg.command!r} does not run per-seed jobs")


def load_csv_dataset(path: str) -> np.ndarray:
    """Headered numeric CSV, one observation per row."""
    try:
        data = np.genfromtxt(path, delimiter=",", skip_header=1, dtype=float)
    except OSError as e:
        raise UsageError(f"data_path: cannot read {path!r} ({e})") from e
    if data.ndim == 1:
        data = data[:, None]
    if data.size == 0 or not np.all(np.isfinite(data)):
        raise UsageError(f"data_path: {path!r} must be all-numeric with no gaps")
    return data


def _run_de_csv_seed(cfg, seed, tc, trace_path) -> list[dict]:
    data = load_csv_dataset(cfg.data_path)
    rng = special.Rng(seed)
    order = rng.permutation(data.shape[0])
    data = data[order]
    n = data.shape[0]
    n_tr, n_va = int(0.4 * n), int(0.2 * n)
    train, valid, test = (
        data[:n_tr], data[n_tr: n_tr + n_va], data[n_tr + n_va:],
    )
    d = data.shape[1]
    # standardize with train+valid statistics only
    fit_part = np.concatenate([train, valid])
    mean, std = fit_part.mean(axis=0), fit_part.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    train, valid, test = ((s - mean) / std for s in (train, valid, test))
    model = flows.build_architecture(cfg.flow, d, seed=seed)
    if cfg.flow in ("TTFfix", "mTAF"):
        est = tailest.estimate_marginal_tails(np.concatenate([train, valid]), rng.child(7))
        lam = est.shape
        if cfg.flow == "TTFfix":
            flows.set_frozen_tails(model, lam)
        else:
            nu_est = np.where(lam > tailest.LIGHT_TAIL_SHAPE, 1.0 / lam, 30.0)
            flows.set_frozen_nu(model, nu_est)
    result, nll = ex.fit_de_on_splits(model, train, valid, test, tc, trace_path)
    head = dict(flow=cfg.flow, d=d, nu=float("nan"), seed=seed,
                diverged=result.diverged)
    rows = [dict(head, metric_name="nll_per_dim", value=nll),
            dict(head, metric_name="epochs", value=float(result.epochs))]
    rows.extend(ex._lambda_rows(model, head))
    return rows


def _run_tail_est(cfg: ExperimentConfig) -> list[dict]:
    data = load_csv_dataset(cfg.data_path)
    rng = special.Rng(cfg.seeds[0])
    est = tailest.estimate_marginal_tails(data, rng)
    head = dict(flow="tail-est", d=data.shape[1], nu=float("nan"),
                seed=cfg.seeds[0], diverged=False)
    rows = []
    for j in range(est.dim):
        rows.append(dict(head, metric_name=f"shape[{j}]", value=float(est.shape[j])))
        rows.append(dict(head, metric_name=f"k[{j}]", value=float(est.k[j])))
        rows.append(dict(head, metric_name=f"light_tailed[{j}]",
                         value=float(est.light_tailed[j])))
    return rows


def _read_results(path: str) -> list[dict]:
    """The rows of a results CSV, with d, seed, value and diverged parsed; nu
    stays text (checked to be a number), so nan-nu rows share their cell."""
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if tuple(header or ()) != CSV_FIELDS:
                raise ValueError(f"header {header}, expected {list(CSV_FIELDS)}")
            for line in reader:
                if len(line) != len(CSV_FIELDS) or line[6] not in ("True", "False"):
                    raise ValueError(f"line {reader.line_num}: {line}")
                r = dict(zip(CSV_FIELDS, line))
                float(r["nu"])
                rows.append(dict(r, d=int(r["d"]), seed=int(r["seed"]),
                                 value=float(r["value"]), diverged=r["diverged"] == "True"))
    except (OSError, ValueError) as e:
        raise UsageError(f"table: malformed results file {path!r} ({e})") from e
    return rows


def _print_tables(out_dir: str) -> int:
    """For each results file and metric, one line per (flow, d, nu) cell
    with its ``aggregate_results`` display and n; a failed seed wrote no
    rows, so it shows as a smaller n."""
    paths = sorted(glob.glob(os.path.join(glob.escape(out_dir), "results_*.csv")))
    if not paths:
        raise UsageError(f"out_dir: no results_*.csv in {out_dir!r}")
    for path in paths:
        rows = _read_results(path)
        for metric in dict.fromkeys(r["metric_name"] for r in rows):
            print(f"{os.path.basename(path)}: {metric}")
            print(f"{'flow':<12}{'d':>4}{'nu':>8}  {'mean (se)':<20}{'n':>3}")
            cells = ex.aggregate_results(rows, metric)
            for flow, d, nu in sorted(cells, key=lambda k: (k[0], k[1], float(k[2]))):
                c = cells[flow, d, nu]
                if c["n"]:
                    print(f"{flow:<12}{d:>4}{nu:>8}  {c['display']:<20}{c['n']:>3}")
            print()
    return 0


def run(cfg: ExperimentConfig) -> int:
    """Execute one command; returns the process exit code."""
    if cfg.command == "table":
        return _print_tables(cfg.out_dir)
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_metadata(cfg, os.path.join(cfg.out_dir, f"metadata_{cfg.command}.cfg"))
    results_path = os.path.join(cfg.out_dir, f"results_{cfg.command}.csv")
    header_needed = not os.path.exists(results_path)

    if cfg.command == "tail-est":
        rows = _run_tail_est(cfg)
        _append_rows(results_path, rows, header_needed)
        return 0

    failures = 0
    with contextlib.ExitStack() as stack:
        # rows go out in seed order whatever the job count, so the results
        # file does not depend on which worker finishes first
        if cfg.jobs == 1:
            runs = [functools.partial(_run_one_seed, cfg, s) for s in cfg.seeds]
        else:
            pool = stack.enter_context(
                concurrent.futures.ProcessPoolExecutor(max_workers=cfg.jobs)
            )
            runs = [pool.submit(_run_one_seed, cfg, s).result for s in cfg.seeds]
        for seed, get_rows in zip(cfg.seeds, runs):
            try:
                rows = get_rows()
            except Exception:
                logger.exception("seed %d failed", seed)
                failures += 1
                continue
            _append_rows(results_path, rows, header_needed)
            header_needed = False
    if failures == len(cfg.seeds):
        logger.error("all %d seeds failed", failures)
        return 1
    if failures:
        logger.warning("%d of %d seeds failed; partial results written",
                       failures, len(cfg.seeds))
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_config(argv)
        return run(cfg)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
