"""Smoke test of the benchmark itself, kept out of the repository's test suite.

    python3 bench/smoke.py

Runs every workload at the tiny size, untraced once and traced twice, and
checks that:

* every metric the benchmark promises is printed by name with its unit;
* the traced runs report every per-layer metric of BENCHMARK.json and have
  spans in each tailflow module;
* tape node and call counts repeat exactly between the two traced runs;
* without ``src/`` the benchmark exits non-zero and prints no result.

It takes about half a minute on a 2-core machine.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("de_ttf_d20", "vi_ttf_d5", "tails_comet_d5")
MODULES = ("autodiff", "flows", "tailtransform", "special", "training", "tailest", "experiments")

# Report metrics beyond BENCHMARK.json's end-to-end ones, by workload, with their units.
REPORTED = {
    "de_ttf_d20": {"step_ms.p50": "ms", "step_ms.p90": "ms", "test_nll_per_dim": "nats"},
    "vi_ttf_d5": {"step_ms.p50": "ms", "step_ms.p90": "ms", "neg_elbo": "nats", "ess_e": "ratio"},
    "tails_comet_d5": {"tail_shape_err": "1"},
}
COMMON = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio"}


def run(trace: int) -> tuple[dict, dict]:
    """Per-workload reports and the result line of one tiny run of every workload."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seed", "0",
         "--seconds", "0", "--size", "tiny", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise AssertionError(f"benchmark failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    reports = {line["workload"]: line["report"] for line in lines[:-1]}
    return reports, lines[-1]


def check_units(metrics: dict, expected: dict, where: str) -> None:
    for name, unit in expected.items():
        m = metrics.get(name)
        assert m is not None, f"{where}: metric {name} missing"
        assert m["unit"] == unit, f"{where}: {name} has unit {m['unit']}, expected {unit}"
        assert isinstance(m["value"], (int, float)), f"{where}: {name} is not a number"


def check_untraced(spec: dict) -> None:
    reports, result = run(trace=0)
    assert result["correct"] is True and result["attempted"] >= 1
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for w in WORKLOADS:
        check_units(reports[w], {**COMMON, **REPORTED[w]}, w)
        check_units({k.split(".", 1)[1]: v for k, v in result["metrics"].items()
                     if k.startswith(w + ".")}, e2e, f"{w} result line")
        if "step_ms.p90" in REPORTED[w]:
            assert reports[w]["step_samples"] >= 1
        for key in ("git_sha", "git_dirty", "nproc", "python", "numpy", "scipy",
                    "blas_threads", "seed", "src_lines"):
            assert key in reports[w]["run"], f"{w}: run record lacks {key}"


def counts(result: dict) -> dict:
    """Node, call and failure counts: deterministic, unlike the times."""
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def check_traced(spec: dict) -> None:
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    first = None
    for _ in range(2):
        reports, result = run(trace=1)
        assert result["correct"] is True
        for w in WORKLOADS:
            check_units({k.split(".", 1)[1]: v for k, v in result["metrics"].items()
                         if k.startswith(w + ".")}, per_layer, f"{w} traced")
            assert reports[w]["traced_reps"] >= 1
        seen = set()
        for w in WORKLOADS:
            with open(BENCH / "out" / f"spans-{w}-seed0.csv") as fh:
                next(fh)
                seen |= {line.split(",")[1].split(".")[0] for line in fh}
        missing = set(MODULES) - seen
        assert not missing, f"no spans for modules {sorted(missing)}"
        now = counts(result)
        assert now["de_ttf_d20.autodiff.tape.nodes"] > 0
        if first is None:
            first = now
        else:
            diff = {k: (first[k], v) for k, v in now.items() if first[k] != v}
            assert not diff, f"counts differ between runs: {diff}"


def check_without_src() -> None:
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        tmp = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, tmp / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "de_ttf_d20", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=tmp, timeout=180,
        )
    assert proc.returncode != 0, "benchmark succeeded without src/"
    assert proc.stdout.strip() == "", f"benchmark printed output without src/: {proc.stdout}"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_untraced(spec)
    check_traced(spec)
    check_without_src()
    print("bench smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
