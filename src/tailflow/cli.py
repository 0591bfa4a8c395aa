"""Command-line entry point: config parsing, table execution, CSV emission.

Config files are flat ``key = value`` text with one section per command::

    [de-synth]
    flow = TTF
    d = 5
    nu = 2.0
    seeds = 0..9

Flags override file values.  Each setting is declared once, as a field of
``ExperimentConfig`` carrying the parser that reads a flag's text and a file
value alike.  Each command reads only the settings that ``READS`` lists for
it; any other setting, given as a flag or as a file key that applies to the
run (one in the command's section or in no section), is a usage error.
Every run directory gets a metadata record holding the resolved value of
each setting the command reads, so a run can be reproduced bit-exactly by
pointing --config at the metadata itself.  The last bits of a d=20 fit
depend on the BLAS thread count, so its rows reproduce bit for bit only at
the same count; the record notes ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` ("unset" when absent) in a
comment line, which --config skips.  ``table`` runs nothing: it prints the
per-cell mean (se) and run count of every metric in the results files of
--out-dir, and writes no metadata.

``de-csv`` differs from ``de-synth`` only in data prep and tail protocol: it
permutes the CSV's rows, splits them 40/20/40, standardises them by the mean
and std of train+valid, and estimates the two-stage tails from train+valid,
where ``de-synth`` gives the true ones; both fit through
``experiments.fit_de_cell``.
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
from dataclasses import dataclass, field, fields, replace
from importlib import metadata as importlib_metadata

import numpy as np

from . import experiments as ex
from . import flows, special, tailest, training

logger = logging.getLogger(__name__)

CSV_FIELDS = ("flow", "d", "nu", "seed", "metric_name", "value", "diverged")


class UsageError(Exception):
    """Bad configuration; the message names the offending key."""


def _number(kind, ok, want: str):
    """Parser of an int or float setting whose value must pass ``ok``."""
    def parse(raw: str):
        try:
            value = kind(raw)
        except ValueError:
            raise ValueError(f"cannot parse value {raw!r}") from None
        if not ok(value):
            raise ValueError(f"must be {want}, got {value}")
        return value
    return parse


_count = _number(int, lambda v: v >= 1, "at least 1")
_positive = _number(float, lambda v: 0.0 < v < np.inf, "positive and finite")


def _seeds(raw: str) -> tuple[int, ...]:
    """Comma-separated seeds and inclusive ``lo..hi`` ranges."""
    try:
        parts = [p.strip().partition("..") for p in raw.split(",") if p.strip()]
        seeds = tuple(s for lo, dots, hi in parts
                      for s in range(int(lo), int(hi if dots else lo) + 1))
    except ValueError:
        raise ValueError(f"cannot parse value {raw!r}") from None
    if not seeds:
        raise ValueError("empty list")
    if min(seeds) < 0:
        raise ValueError(f"must be non-negative, got {min(seeds)}")
    return seeds


def _batch(raw: str):
    return "full" if raw.lower() in ("none", "full", "full-pass", "full_pass") else _count(raw)


def _choice(table: dict):
    """Parser of a setting whose text is one of the words in ``table``."""
    def parse(raw: str):
        if raw.lower() not in table:
            raise ValueError(f"expected one of {', '.join(table)}, got {raw!r}")
        return table[raw.lower()]
    return parse


_bool = _choice({**dict.fromkeys(("1", "true", "yes", "on"), True),
                 **dict.fromkeys(("0", "false", "no", "off"), False)})


def _existing_path(raw: str) -> str:
    if not os.path.exists(raw):
        raise ValueError(f"{raw!r} does not exist")
    return raw


def _setting(default, parse, flag: str | None = None, const: str | None = None):
    """A CLI setting: ``parse`` turns the text of its flag or config value
    into its value, raising ValueError.  The flag is ``--name`` with dashes
    unless ``flag`` says otherwise; with ``const`` it takes no argument and
    stands for that text."""
    return field(default=default, metadata={"parse": parse, "flag": flag, "const": const})


# The training settings and the TrainConfig fields they override.
_TRAIN_FIELDS = {"lr": "lr", "batch": "batch_size", "epochs": "max_epochs",
                 "patience": "patience", "clip_norm": "clip_norm"}


@dataclass
class ExperimentConfig:
    """Fully resolved settings of one CLI invocation.

    A training setting (lr, batch, epochs, patience, clip_norm) left at None
    takes the command's default; batch "full" asks for full-pass DE steps.
    ``activation`` and ``n`` are nnreg's MLP and its rows per split.
    """

    command: str
    flow: str = _setting("TTF", str)
    d: int = _setting(5, _count)
    nu: float = _setting(2.0, _positive)
    seeds: tuple[int, ...] = _setting((0,), _seeds)
    lr: float | None = _setting(None, _positive)
    batch: int | str | None = _setting(None, _batch)
    epochs: int | None = _setting(None, _count)
    patience: int | None = _setting(None, _count)
    clip_norm: float | None = _setting(None, _positive)
    jobs: int = _setting(1, _count)
    out_dir: str = _setting("runs", str)
    trace: bool = _setting(False, _bool, const="true")
    data_path: str | None = _setting(None, _existing_path, flag="--data")
    activation: str = _setting("sigmoid", _choice({"sigmoid": "sigmoid", "relu": "relu"}))
    n: int = _setting(5000, _count)

    def resolved_train_config(self, seed: int) -> training.TrainConfig:
        base = ex.vi_train_config(seed, self.nu) if self.command == "vi-synth" \
            else ex.de_train_config(seed)
        given = {t: getattr(self, k) for k, t in _TRAIN_FIELDS.items()
                 if getattr(self, k) is not None}
        if given.get("batch_size") == "full":
            given["batch_size"] = training.FULL_PASS
        return replace(base, **given)


SETTINGS = {f.name: f for f in fields(ExperimentConfig) if f.metadata}

_FIT = ("flow", "d", "nu", "seeds", "lr", "batch", "epochs", "patience", "clip_norm",
        "jobs", "out_dir", "trace")
# The settings each command reads, in the order its metadata records them.
READS = {
    "de-synth": _FIT,
    "vi-synth": tuple(k for k in _FIT if k != "patience"),
    "de-csv": tuple(k for k in _FIT if k not in ("d", "nu")) + ("data_path",),
    "nnreg": ("d", "nu", "seeds", "jobs", "out_dir", "activation", "n"),
    "tail-est": ("seeds", "out_dir", "data_path"),
    "table": ("out_dir",),
}
COMMANDS = tuple(READS)


def _flag(setting) -> str:
    return setting.metadata["flag"] or "--" + setting.name.replace("_", "-")


def read_config_file(path: str, command: str) -> dict:
    """Raw text of the keys in the section matching the command (plus unsectioned)."""
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
        if key not in SETTINGS:
            raise UsageError(f"config line {ln}: unknown key {key!r}")
        if section in (None, command):
            values[key] = raw
    return values


def parse_config(argv: list[str]) -> ExperimentConfig:
    """Merge defaults, config file and flags (flags win)."""
    parser = argparse.ArgumentParser(prog="tailflow", description="Heavy-tailed flow experiments")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config")
    for key, setting in SETTINGS.items():
        const = setting.metadata["const"]
        parser.add_argument(_flag(setting), dest=key,
                            **({"action": "store_const", "const": const} if const else {}))
    ns = parser.parse_args(argv)

    raw = read_config_file(ns.config, ns.command) if ns.config else {}
    raw.update((k, v) for k, v in vars(ns).items() if k in SETTINGS and v is not None)
    values = {}
    for key, text in raw.items():
        if key not in READS[ns.command]:
            raise UsageError(f"{key}: {ns.command} does not read this setting")
        try:
            values[key] = SETTINGS[key].metadata["parse"](text.strip())
        except ValueError as e:
            raise UsageError(f"{key}: {e}") from e
    cfg = ExperimentConfig(ns.command, **values)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    """The checks that depend on the command, not on one setting alone."""
    reads = READS[cfg.command]
    if "data_path" in reads and cfg.data_path is None:
        raise UsageError("data_path: required for this command (--data)")
    if "flow" in reads:
        # the command's table, then the other architectures it can fit
        vi = cfg.command == "vi-synth"
        table = ex.VI_FLOWS if vi else ex.DE_FLOWS
        known = table + tuple(
            name for name, (base, _, _) in flows.ARCHITECTURE_TABLE.items()
            if name not in table and (base.reparameterized or not vi))
        if cfg.flow not in known:
            raise UsageError(f"flow: {cfg.command} cannot fit flow {cfg.flow!r}; "
                             f"expected one of {known}")
    if cfg.command == "vi-synth" and cfg.batch == "full":
        raise UsageError("batch: vi-synth draws a number of samples per step; "
                         "it has no full pass")
    if cfg.command in ("de-synth", "vi-synth") and cfg.d < 2:
        raise UsageError(f"d: the synthetic task needs at least 2, got {cfg.d}")
    if cfg.command == "tail-est" and len(cfg.seeds) > 1:
        raise UsageError(f"seeds: tail-est reads one seed, got {len(cfg.seeds)}")


def _build_version() -> str:
    try:
        return importlib_metadata.version("tailflow")
    except importlib_metadata.PackageNotFoundError:
        return "unversioned"


def _text(value) -> str:
    """A setting's value as its parser reads it back."""
    return ",".join(map(str, value)) if isinstance(value, tuple) \
        else str(value).lower() if isinstance(value, bool) else str(value)


def write_metadata(cfg: ExperimentConfig, path: str) -> None:
    """Self-reproducing record: feed it back through --config to re-run.

    It holds each setting the command reads, in ``READS`` order, at its
    resolved value; a training setting whose value is None (no clipping)
    is left out."""
    values = {k: getattr(cfg, k) for k in READS[cfg.command]}
    if "lr" in values:
        tc = cfg.resolved_train_config(cfg.seeds[0])
        values.update((k, getattr(tc, t)) for k, t in _TRAIN_FIELDS.items() if k in values)
        if tc.batch_size is training.FULL_PASS:
            values["batch"] = "full"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# tailflow {_build_version()} run record\n")
        fh.write("# " + " ".join(f"{v}={os.environ.get(v, 'unset')}" for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")) + "\n")
        fh.write(f"[{cfg.command}]\n")
        for key, value in values.items():
            if value is not None:
                fh.write(f"{key} = {_text(value)}\n")


def _append_rows(path: str, rows: list[dict], write_header: bool) -> None:
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        if write_header:
            writer.writeheader()
        for r in rows:
            writer.writerow({k: r.get(k, "") for k in CSV_FIELDS})


def _run_one_seed(cfg: ExperimentConfig, seed: int, data: np.ndarray | None) -> list[dict]:
    if cfg.command == "nnreg":
        mse = ex.run_nnreg(cfg.d, cfg.nu, cfg.activation, seed, n_per_split=cfg.n)
        return [dict(flow=f"mlp-{cfg.activation}", d=cfg.d, nu=cfg.nu, seed=seed,
                     metric_name="test_mse", value=mse,
                     diverged=not np.isfinite(mse) or mse > training.DIVERGENCE_LOSS)]
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
    return _run_de_csv_seed(cfg, seed, tc, trace_path, data)


def load_csv_dataset(path: str) -> np.ndarray:
    """Headered numeric CSV, one observation per row, as an (n, d) matrix."""
    try:
        data = np.genfromtxt(path, delimiter=",", skip_header=1, dtype=float, ndmin=2)
    except (OSError, ValueError) as e:  # ValueError: rows of different lengths
        raise UsageError(f"data_path: cannot read {path!r} ({e})") from e
    if data.size == 0 or not np.all(np.isfinite(data)):
        raise UsageError(f"data_path: {path!r} must be all-numeric with no gaps")
    return data


def _run_de_csv_seed(cfg, seed, tc, trace_path, data) -> list[dict]:
    data = data[special.Rng(seed).permutation(data.shape[0])]
    n_tr, n_va, _ = ex.split_sizes(data.shape[0])
    fit_part = data[:n_tr + n_va]  # standardize with train+valid statistics only
    mean, std = fit_part.mean(axis=0), fit_part.std(axis=0)
    data = (data - mean) / np.where(std > 0, std, 1.0)
    train, valid, test = np.split(data, [n_tr, n_tr + n_va])
    return ex.fit_de_cell(cfg.flow, train, valid, test, seed, tc, trace_path)


def _run_tail_est(cfg: ExperimentConfig, data: np.ndarray) -> list[dict]:
    try:
        est = tailest.estimate_marginal_tails(data, special.Rng(cfg.seeds[0]))
    except ValueError as e:  # a column the estimator cannot read
        raise UsageError(f"data_path: {cfg.data_path!r}: {e}") from e
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
    data = None
    if cfg.data_path is not None:  # parsed once, here; every seed fits this array
        data = load_csv_dataset(cfg.data_path)
        need = tailest.MIN_BOOTSTRAP_ROWS if cfg.command == "tail-est" \
            else ex.min_de_rows(cfg.flow)
        if data.shape[0] < need:
            flow = f" --flow {cfg.flow}" if cfg.command == "de-csv" else ""
            raise UsageError(f"data_path: {cfg.data_path!r} has {data.shape[0]} rows; "
                             f"{cfg.command}{flow} needs at least {need}")
    # a refused estimate writes nothing, as a refused CSV does
    tail_rows = _run_tail_est(cfg, data) if cfg.command == "tail-est" else None
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_metadata(cfg, os.path.join(cfg.out_dir, f"metadata_{cfg.command}.cfg"))
    results_path = os.path.join(cfg.out_dir, f"results_{cfg.command}.csv")
    header_needed = not os.path.exists(results_path)

    if tail_rows is not None:
        _append_rows(results_path, tail_rows, header_needed)
        return 0

    failures = 0
    with contextlib.ExitStack() as stack:
        # rows go out in seed order whatever the job count, so the results
        # file does not depend on which worker finishes first
        if cfg.jobs == 1:
            runs = [functools.partial(_run_one_seed, cfg, s, data) for s in cfg.seeds]
        else:
            pool = stack.enter_context(
                concurrent.futures.ProcessPoolExecutor(max_workers=cfg.jobs)
            )
            runs = [pool.submit(_run_one_seed, cfg, s, data).result for s in cfg.seeds]
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
