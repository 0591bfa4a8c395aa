"""Command-line tests: pinned de-csv result rows, usage errors, output order."""

import os
import subprocess
import sys

import numpy as np
import pytest

import tailflow
from tailflow import cli

HEADER = "flow,d,nu,seed,metric_name,value,diverged"

# Rows of `de-csv --epochs 3 --seeds 0,1` on the data of `_write_csv`; the
# values are pinned bit for bit, so any change to the fit path shows here.
EXPECTED = {
    "TTF": """\
TTF,2,nan,0,nll_per_dim,1.497360819609496,False
TTF,2,nan,0,epochs,3.0,False
TTF,2,nan,0,lambda_pos[0],0.4726162431903774,False
TTF,2,nan,0,lambda_neg[0],0.687369518297916,False
TTF,2,nan,0,lambda_pos[1],0.8128403437230238,False
TTF,2,nan,0,lambda_neg[1],0.35565508371379206,False
TTF,2,nan,1,nll_per_dim,1.4715139061002862,False
TTF,2,nan,1,epochs,3.0,False
TTF,2,nan,1,lambda_pos[0],0.8129677721276318,False
TTF,2,nan,1,lambda_neg[0],0.7168067249414047,False
TTF,2,nan,1,lambda_pos[1],0.38571002558896345,False
TTF,2,nan,1,lambda_neg[1],0.6211113279238616,False
""",
    "TTFfix": """\
TTFfix,2,nan,0,nll_per_dim,1.4028942902704105,False
TTFfix,2,nan,0,epochs,3.0,False
TTFfix,2,nan,0,lambda_pos[0],0.37268606084964623,False
TTFfix,2,nan,0,lambda_neg[0],0.37268606084964623,False
TTFfix,2,nan,0,lambda_pos[1],0.0010000000000000002,False
TTFfix,2,nan,0,lambda_neg[1],0.0010000000000000002,False
TTFfix,2,nan,1,nll_per_dim,1.354563468644067,False
TTFfix,2,nan,1,epochs,3.0,False
TTFfix,2,nan,1,lambda_pos[0],0.0010000000000000002,False
TTFfix,2,nan,1,lambda_neg[0],0.0010000000000000002,False
TTFfix,2,nan,1,lambda_pos[1],0.2475072114318462,False
TTFfix,2,nan,1,lambda_neg[1],0.2475072114318462,False
""",
    "mTAF": """\
mTAF,2,nan,0,nll_per_dim,1.35431550203519,False
mTAF,2,nan,0,epochs,3.0,False
mTAF,2,nan,1,nll_per_dim,1.3285856492650043,False
mTAF,2,nan,1,epochs,3.0,False
""",
    "COMET": """\
COMET,2,nan,0,nll_per_dim,1.7163959610209663,False
COMET,2,nan,0,epochs,3.0,False
COMET,2,nan,1,nll_per_dim,1.5858709514427196,False
COMET,2,nan,1,epochs,3.0,False
""",
}


def _write_csv(path, n=1000):
    """Two heavy-tailed, dependent columns; 60% of the rows (the fit part)
    clear the 500-row minimum of the double bootstrap."""
    rng = np.random.default_rng(20240624)
    a = rng.standard_t(3.0, n)
    b = a + rng.normal(size=n)
    np.savetxt(path, np.column_stack([a, b]), delimiter=",", header="a,b",
               comments="", fmt="%.17g")


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "data.csv"
    _write_csv(path)
    return str(path)


def _de_csv(out_dir, data, *flags, seeds="0,1"):
    argv = ["de-csv", "--data", data, "--epochs", "3", "--seeds", seeds,
            "--out-dir", str(out_dir), *flags]
    assert cli.main(argv) == 0
    return (out_dir / "results_de-csv.csv").read_text()


class TestDeCsv:
    @pytest.mark.parametrize("flow", sorted(EXPECTED))
    def test_rows_pinned(self, tmp_path, data_csv, flow):
        got = _de_csv(tmp_path, data_csv, "--flow", flow)
        assert got.replace("\r\n", "\n") == HEADER + "\n" + EXPECTED[flow]

    def test_parallel_rows_in_seed_order(self, tmp_path, data_csv):
        serial = _de_csv(tmp_path / "serial", data_csv, seeds="1,0")
        parallel = _de_csv(tmp_path / "parallel", data_csv, "--jobs", "2", seeds="1,0")
        assert parallel == serial
        seeds = [line.split(",")[3] for line in serial.splitlines()[1:]]
        assert seeds == ["1"] * 6 + ["0"] * 6


class TestUsageErrors:
    def test_unknown_config_key(self, tmp_path, data_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[de-csv]\nflow = TTF\nlearning_rate = 0.1\n")
        with pytest.raises(cli.UsageError, match="learning_rate"):
            cli.parse_config(["de-csv", "--config", str(cfg), "--data", data_csv])

    def test_missing_data(self):
        with pytest.raises(cli.UsageError, match="data_path"):
            cli.parse_config(["de-csv", "--flow", "TTF"])


class TestImportCost:
    @staticmethod
    def _env():
        src = os.path.dirname(os.path.dirname(tailflow.__file__))
        return dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def test_scipy_optimize_and_linalg_not_loaded(self):
        # together they cost ~22 MB RSS and ~260 modules; only the LU
        # layer's solves use scipy.linalg, and import it where they call it
        code = ("import sys, tailflow; print([m for m in ('scipy.optimize', "
                "'scipy.linalg') if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code], env=self._env(),
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_gpd_fits_do_not_load_scipy_optimize(self):
        # the profile fit refines with its own bounded Brent search
        code = ("import sys, numpy as np; from tailflow import experiments, tailest; "
                "x = np.random.default_rng(0).pareto(2.0, 2000); "
                "tailest.gpd_fit_ml(x); experiments.khat(x); "
                "print('scipy.optimize' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=self._env(),
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"
