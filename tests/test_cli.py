"""Command-line tests: pinned de-csv result rows, usage errors, output order,
the results table."""

import os
import subprocess
import sys

import numpy as np
import pytest

import tailflow
from tailflow import cli, training
from tailflow import experiments as ex

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


class TestMetadata:
    def test_records_blas_threads_and_reads_back(self, tmp_path, monkeypatch):
        # the thread counts go in a comment line, so --config reads the
        # record back to the same settings
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "2")
        cfg = cli.parse_config(["de-synth", "--flow", "TTF", "--d", "20", "--seeds", "0..2",
                                "--epochs", "7"])
        first, second = tmp_path / "first.cfg", tmp_path / "second.cfg"
        cli.write_metadata(cfg, str(first))
        assert first.read_text().splitlines()[1] \
            == "# OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=unset MKL_NUM_THREADS=2"
        again = cli.parse_config(["de-synth", "--config", str(first)])
        assert (again.flow, again.d, again.seeds) == ("TTF", 20, (0, 1, 2))
        assert again.resolved_train_config(0) == cfg.resolved_train_config(0)
        cli.write_metadata(again, str(second))
        assert second.read_text() == first.read_text()


class TestUsageErrors:
    def test_unknown_config_key(self, tmp_path, data_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[de-csv]\nflow = TTF\nlearning_rate = 0.1\n")
        with pytest.raises(cli.UsageError, match="learning_rate"):
            cli.parse_config(["de-csv", "--config", str(cfg), "--data", data_csv])

    def test_full_pass_key_is_gone(self, tmp_path):
        # "batch = full" is the one way to ask for full-pass steps
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[de-synth]\nfull_pass = true\nbatch = 50\n")
        with pytest.raises(cli.UsageError, match="'full_pass'"):
            cli.parse_config(["de-synth", "--config", str(cfg)])

    def test_batch_full_gives_full_pass_steps(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[vi-synth]\nbatch = full\n")
        parsed = cli.parse_config(["vi-synth", "--config", str(cfg)])
        assert parsed.resolved_train_config(0).batch_size is training.FULL_PASS
        assert cli.parse_config(["vi-synth", "--batch", "50"]).resolved_train_config(0) \
            .batch_size == 50

    def test_missing_data(self):
        with pytest.raises(cli.UsageError, match="data_path"):
            cli.parse_config(["de-csv", "--flow", "TTF"])

    @pytest.mark.parametrize("flow", ["COMET", "m_normal", "g_normal"])
    def test_vi_synth_rejects_flows_vi_cannot_train(self, flow):
        # COMET's flow lives on logits, and the mixture and generalized-normal
        # bases give their parameters no reparameterised gradient
        with pytest.raises(cli.UsageError, match=f"vi-synth cannot fit flow '{flow}'"):
            cli.parse_config(["vi-synth", "--flow", flow])

    @pytest.mark.parametrize("flow", ex.VI_FLOWS + ("normal", "TTF_tBase"))
    def test_vi_synth_accepts_its_flows(self, flow):
        assert cli.parse_config(["vi-synth", "--flow", flow]).flow == flow


class TestTable:
    @staticmethod
    def _table(out_dir, capsys):
        capsys.readouterr()
        assert cli.main(["table", "--out-dir", str(out_dir)]) == 0
        return capsys.readouterr().out

    @staticmethod
    def _line(out, metric, cell):
        """The line of a (flow, d, nu) cell in the table of one metric."""
        block = out.split(f"results_de-synth.csv: {metric}\n", 1)[1].split("\n\n", 1)[0]
        return next(ln for ln in block.splitlines() if ln.split()[:3] == cell).split()

    def test_de_synth_seeds_then_table(self, tmp_path, capsys):
        argv = ["de-synth", "--flow", "normal", "--d", "2", "--nu", "30", "--seeds", "0..1",
                "--epochs", "3", "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 0
        out = self._table(tmp_path, capsys)
        rows = cli._read_results(str(tmp_path / "results_de-synth.csv"))
        assert {r["seed"] for r in rows} == {0, 1}
        for metric in ("nll_per_dim", "true_nll_per_dim", "epochs"):
            cell = ex.aggregate_results(rows, metric)[("normal", 2, "30.0")]
            assert cell["n"] == 2 and np.isfinite(cell["se"])
            assert self._line(out, metric, ["normal", "2", "30.0"]) \
                == ["normal", "2", "30.0", *cell["display"].split(), "2"]
        # table reads; it writes no metadata or results of its own
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "metadata_de-synth.cfg", "results_de-synth.csv"]

    def test_failed_seed_shows_as_smaller_n(self, tmp_path, capsys, monkeypatch):
        run_de_cell = ex.run_de_cell

        def fail_seed_1(flow, d, nu, seed, *args):
            if seed == 1:
                raise FloatingPointError("diverged")
            return run_de_cell(flow, d, nu, seed, *args)

        monkeypatch.setattr(ex, "run_de_cell", fail_seed_1)
        argv = ["de-synth", "--flow", "normal", "--d", "2", "--nu", "30", "--seeds", "0..2",
                "--epochs", "2", "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 0
        out = self._table(tmp_path, capsys)
        assert self._line(out, "nll_per_dim", ["normal", "2", "30.0"])[-1] == "2"

    @pytest.mark.parametrize("text", [
        "flow,d,nu,seed,metric,value,diverged\n",
        HEADER + "\nnormal,2,30.0,0,nll_per_dim,1.5\n",
        HEADER + "\nnormal,two,30.0,0,nll_per_dim,1.5,False\n",
        HEADER + "\nnormal,2,30.0,0,nll_per_dim,1.5,maybe\n",
    ], ids=["header", "short_row", "bad_d", "bad_diverged"])
    def test_malformed_csv_names_the_file(self, tmp_path, text):
        (tmp_path / "results_de-synth.csv").write_text(HEADER + "\n")
        (tmp_path / "results_bad.csv").write_text(text)
        with pytest.raises(cli.UsageError, match="results_bad.csv"):
            cli.run(cli.parse_config(["table", "--out-dir", str(tmp_path)]))

    def test_no_results_is_a_usage_error(self, tmp_path):
        with pytest.raises(cli.UsageError, match="no results"):
            cli.run(cli.parse_config(["table", "--out-dir", str(tmp_path)]))


class TestImportCost:
    @staticmethod
    def _env():
        src = os.path.dirname(os.path.dirname(tailflow.__file__))
        return dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def test_scipy_optimize_and_linalg_not_loaded(self):
        # together they cost ~22 MB RSS and ~260 modules, and no module of
        # the package uses either
        code = ("import sys, tailflow, tailflow.cli; print([m for m in ('scipy.optimize', "
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

    def test_run_as_module_without_runpy_warning(self):
        # the package does not import cli, so runpy finds it not yet loaded
        out = subprocess.run([sys.executable, "-m", "tailflow.cli", "--help"],
                             env=self._env(), capture_output=True, text=True)
        assert out.returncode == 0
        assert "RuntimeWarning" not in out.stderr
        assert "table" in out.stdout
