"""Command-line tests: pinned result rows, usage errors, output order,
the results table."""

import os
import platform
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import tailflow
from tailflow import cli, special, training
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


# Rows of the other fitting commands, pinned bit for bit in the same way.
RUNS = {
    "nnreg_relu": (["nnreg", "--d", "3", "--nu", "2", "--n", "500", "--seeds", "0,1",
                    "--activation", "relu"], """\
mlp-relu,3,2.0,0,test_mse,0.9296341704455255,False
mlp-relu,3,2.0,1,test_mse,1.0711214550255663,False
"""),
    "nnreg_sigmoid": (["nnreg", "--d", "3", "--nu", "2", "--n", "500", "--seeds", "0",
                       "--activation", "sigmoid"], """\
mlp-sigmoid,3,2.0,0,test_mse,1.2755938370866529,False
"""),
    "vi_synth": (["vi-synth", "--flow", "TTF", "--d", "2", "--nu", "2", "--epochs", "20",
                  "--seeds", "0,1"], """\
TTF,2,2.0,0,ess_e,0.14889916792025895,False
TTF,2,2.0,0,khat,0.4070217998075076,False
TTF,2,2.0,0,lambda_pos[0],0.4718746618255346,False
TTF,2,2.0,0,lambda_neg[0],0.6916413121905078,False
TTF,2,2.0,0,lambda_pos[1],0.8157563294008943,False
TTF,2,2.0,0,lambda_neg[1],0.3578896810355145,False
TTF,2,2.0,1,ess_e,0.22236770739703215,False
TTF,2,2.0,1,khat,0.32997122191308914,False
TTF,2,2.0,1,lambda_pos[0],0.8165361347850405,False
TTF,2,2.0,1,lambda_neg[0],0.7205657102510293,False
TTF,2,2.0,1,lambda_pos[1],0.38633507478066276,False
TTF,2,2.0,1,lambda_neg[1],0.6218468434806692,False
"""),
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


class TestDeCsvFit:
    @pytest.mark.parametrize("flow", ["TTFfix", "mTAF", "COMET"])
    def test_rows_are_the_shared_fit_with_estimated_tails(self, tmp_path, flow):
        # de-csv on one synthetic draw: its data prep, done here by hand,
        # then the de-synth fit with tails estimated from train+valid
        tr, va, te, _ = ex.gen_synthetic_de(ex.SyntheticDeSpec(2, 2.0, seed=0))
        path = tmp_path / "draw.csv"
        np.savetxt(path, np.vstack([tr, va, te]), delimiter=",", header="a,b",
                   comments="", fmt="%.17g")
        got = _de_csv(tmp_path, str(path), "--flow", flow)
        expected = tmp_path / "expected.csv"
        draw = np.loadtxt(path, delimiter=",", skiprows=1)
        n_tr, n_va = int(0.4 * len(draw)), int(0.2 * len(draw))
        for seed in (0, 1):
            data = draw[special.Rng(seed).permutation(len(draw))]
            fit = data[:n_tr + n_va]
            z = (data - fit.mean(axis=0)) / fit.std(axis=0)
            cfg = replace(ex.de_train_config(seed), max_epochs=3)
            rows = ex.fit_de_cell(flow, z[:n_tr], z[n_tr:n_tr + n_va], z[n_tr + n_va:],
                                  seed, cfg)
            cli._append_rows(str(expected), rows, write_header=seed == 0)
        assert got == expected.read_text()


class TestDeCsvSplit:
    def test_csv_is_parsed_once(self, tmp_path, data_csv, monkeypatch):
        # the row-minimum check's array is the one every seed fits
        parsed = []
        genfromtxt = np.genfromtxt
        monkeypatch.setattr(np, "genfromtxt",
                            lambda path, *a, **k: parsed.append(path) or genfromtxt(path, *a, **k))
        got = _de_csv(tmp_path, data_csv, "--flow", "TTF")
        assert parsed == [data_csv]
        assert got.replace("\r\n", "\n") == HEADER + "\n" + EXPECTED["TTF"]

    def test_split_is_de_synths_at_every_n(self, tmp_path, data_csv, monkeypatch):
        # de-csv splits a CSV of n rows as gen_synthetic_de splits n draws,
        # both truncating 0.4 n and 0.2 n (at n=1003: 401, 200 and 402 rows)
        sizes = []
        monkeypatch.setattr(ex, "fit_de_cell", lambda flow, train, valid, test, *rest:
                            sizes.append((len(train), len(valid), len(test))) or [])
        cfg = cli.parse_config(["de-csv", "--data", data_csv, "--out-dir", str(tmp_path)])
        for n in range(10, 1504):
            tr, va, te, _ = ex.gen_synthetic_de(ex.SyntheticDeSpec(2, 2.0, n=n, seed=0))
            cli._run_de_csv_seed(cfg, 0, None, None, np.vstack([tr, va, te]))
            assert sizes[-1] == (len(tr), len(va), len(te)) == ex.split_sizes(n), n
        assert ex.split_sizes(1003) == (401, 200, 402)


class TestCsvData:
    def test_one_row_is_one_observation(self, tmp_path):
        path = tmp_path / "one_row.csv"
        path.write_text("a,b\n1.5,2.5\n")
        data = cli.load_csv_dataset(str(path))
        assert data.shape == (1, 2)
        np.testing.assert_array_equal(data, [[1.5, 2.5]])

    def test_one_column_stays_a_column(self, tmp_path):
        path = tmp_path / "one_column.csv"
        path.write_text("a\n1.5\n2.5\n3\n")
        assert cli.load_csv_dataset(str(path)).shape == (3, 1)

    @pytest.mark.parametrize("argv,need", [
        (["tail-est"], 500),  # the double bootstrap on every row
        (["de-csv", "--flow", "TTFfix"], 835),  # ... on the 501 train+valid rows
        (["de-csv", "--flow", "mTAF"], 835),
        (["de-csv", "--flow", "COMET"], 168),  # 100 train+valid rows per marginal
        (["de-csv", "--flow", "TTF"], 5),  # every split nonempty
    ], ids=["tail-est", "TTFfix", "mTAF", "COMET", "TTF"])
    @pytest.mark.parametrize("short", [0, 1], ids=["at_minimum", "one_below"])
    def test_row_minimum(self, tmp_path, capsys, argv, need, short):
        data, out_dir = tmp_path / "data.csv", tmp_path / "out"
        _write_csv(data, n=need - short)
        epochs = ["--epochs", "1"] if argv[0] == "de-csv" else []
        code = cli.main(argv + epochs + ["--data", str(data), "--out-dir", str(out_dir)])
        if not short:
            assert code == 0
            return
        assert code == 2 and not out_dir.exists()
        assert capsys.readouterr().err.strip() == (
            f"usage error: data_path: {str(data)!r} has {need - 1} rows; "
            f"{' '.join(argv)} needs at least {need}")


class TestRowsPinned:
    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_rows_pinned(self, tmp_path, run):
        argv, expected = RUNS[run]
        assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 0
        got = (tmp_path / f"results_{argv[0]}.csv").read_text()
        assert got.replace("\r\n", "\n") == HEADER + "\n" + expected


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
        cfg.write_text("[de-synth]\nbatch = full\n")
        parsed = cli.parse_config(["de-synth", "--config", str(cfg)])
        assert parsed.resolved_train_config(0).batch_size is training.FULL_PASS
        assert cli.parse_config(["vi-synth", "--batch", "50"]).resolved_train_config(0) \
            .batch_size == 50

    def test_missing_data(self):
        with pytest.raises(cli.UsageError, match="data_path"):
            cli.parse_config(["de-csv", "--flow", "TTF"])

    @pytest.mark.parametrize("flow", ["COMET", "m_normal", "g_normal"])
    def test_vi_synth_rejects_flows_vi_cannot_train(self, flow):
        # COMET is a density-estimation protocol, and the mixture and
        # generalized-normal bases give their parameters no reparameterised
        # gradient
        with pytest.raises(cli.UsageError, match=f"vi-synth cannot fit flow '{flow}'"):
            cli.parse_config(["vi-synth", "--flow", flow])

    @pytest.mark.parametrize("flow", ex.VI_FLOWS + ("normal", "TTF_tBase"))
    def test_vi_synth_accepts_its_flows(self, flow):
        assert cli.parse_config(["vi-synth", "--flow", flow]).flow == flow

    @pytest.mark.parametrize("flow", ex.DE_FLOWS + ("TTF_tBase",))
    def test_de_synth_accepts_its_flows(self, flow):
        assert cli.parse_config(["de-synth", "--flow", flow]).flow == flow

    @pytest.mark.parametrize("command,known", [
        ("vi-synth", "('mTAF', 'gTAF', 'TTF', 'TTFfix', 'normal', 'TTF_tBase')"),
        ("de-synth", "('normal', 'm_normal', 'g_normal', 'mTAF', 'gTAF', 'COMET', 'TTF', "
                     "'TTFfix', 'TTF_tBase')"),
    ])
    def test_unknown_flow_message_lists_the_flows(self, capsys, command, known):
        assert cli.main([command, "--flow", "resnet"]) == 2
        assert capsys.readouterr().err == (f"usage error: flow: {command} cannot fit flow "
                                           f"'resnet'; expected one of {known}\n")

    @pytest.mark.parametrize("argv,key", [
        (["nnreg", "--n", "0"], "n"),
        (["de-synth", "--epochs", "0"], "epochs"),
        (["de-synth", "--epochs", "-3"], "epochs"),
        (["vi-synth", "--patience", "0"], "patience"),
        (["vi-synth", "--nu", "-1"], "nu"),
        (["de-synth", "--nu", "0"], "nu"),
        (["de-synth", "--nu", "nan"], "nu"),
        (["de-synth", "--seeds", "-1"], "seeds"),
        (["de-synth", "--seeds", "0,-2..1"], "seeds"),
        (["de-synth", "--jobs", "0"], "jobs"),
        (["de-synth", "--d", "0"], "d"),
        (["de-synth", "--batch", "0"], "batch"),
        (["vi-synth", "--batch", "full"], "batch"),
        (["de-synth", "--lr", "-1"], "lr"),
        (["vi-synth", "--clip-norm", "-1"], "clip_norm"),
        (["de-synth", "--d", "1"], "d"),
        (["vi-synth", "--d", "1"], "d"),
        (["de-synth", "--patience", "0"], "patience"),
        (["nnreg", "--activation", "tanh"], "activation"),
        (["de-synth", "--trace", "--seeds", "3.."], "seeds"),
        (["de-synth", "--d", "five"], "d"),
        (["de-synth", "--lr", "fast"], "lr"),
        (["de-synth", "--seeds", " , "], "seeds"),
        (["de-csv", "--data", os.path.join("no", "such", "data.csv")], "data_path"),
    ])
    def test_bad_values_are_rejected_naming_the_key(self, capsys, argv, key):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(f"usage error: {key}: ")

    @pytest.mark.parametrize("text,message", [
        (None, "config: cannot read"),
        ("[de-synth]\nd = 3\n[fit]\n", "config line 3: unknown section 'fit'"),
        ("[de-synth]\nd 3\n", "config line 2: expected key = value, got 'd 3'"),
    ], ids=["unreadable", "unknown_section", "no_equals"])
    def test_bad_config_file_is_rejected_naming_the_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "run.cfg"
        if text is not None:
            path.write_text(text)
        assert cli.main(["de-synth", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"usage error: {message}")

    @pytest.mark.parametrize("text,message", [
        (None, "cannot read"),  # a directory
        ("a,b\n1.0\n2.0,3.0\n", "cannot read"),
        ("a,b\n1.0,x\n2.0,3.0\n", "must be all-numeric with no gaps"),
        ("a,b\n1.0,\n2.0,3.0\n", "must be all-numeric with no gaps"),
    ], ids=["unreadable", "ragged", "non_numeric", "gap"])
    def test_bad_csv_is_rejected_before_any_output(self, tmp_path, capsys, text, message):
        path, out_dir = tmp_path / "data.csv", tmp_path / "out"
        if text is None:
            path.mkdir()
        else:
            path.write_text(text)
        assert cli.main(["tail-est", "--data", str(path), "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: data_path: ") and message in err
        assert not out_dir.exists()

    def test_nnreg_fits_one_dimension(self):
        assert cli.parse_config(["nnreg", "--d", "1"]).d == 1

    def test_tail_est_takes_one_seed(self, data_csv):
        with pytest.raises(cli.UsageError, match="^seeds: tail-est reads one seed, got 4"):
            cli.parse_config(["tail-est", "--data", data_csv, "--seeds", "0..3"])

    def test_command_is_no_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command = de-synth\n")
        with pytest.raises(cli.UsageError, match="unknown key 'command'"):
            cli.parse_config(["de-synth", "--config", str(cfg)])


RUN_COMMANDS = [c for c in cli.COMMANDS if c != "table"]


class TestSettingsTable:
    """Generated from ``READS`` and ``SETTINGS``, so a new setting or command
    is covered without a new test."""

    @pytest.mark.parametrize("command", RUN_COMMANDS)
    def test_metadata_reads_back_to_the_same_record(self, tmp_path, data_csv, command):
        # the record holds every setting the command reads, in table order,
        # and nothing else; only an unset clip_norm (no clipping) is left out
        argv = [command] + (["--data", data_csv] if "data_path" in cli.READS[command] else [])
        first, second = tmp_path / "first.cfg", tmp_path / "second.cfg"
        cli.write_metadata(cli.parse_config(argv), str(first))
        keys = [line.split(" = ")[0] for line in first.read_text().splitlines()[3:]]
        assert keys == [k for k in cli.READS[command] if k in keys]
        assert set(cli.READS[command]) - set(keys) <= {"clip_norm"}
        cli.write_metadata(cli.parse_config([command, "--config", str(first)]), str(second))
        assert second.read_text() == first.read_text()

    @pytest.mark.parametrize("command,key", [
        (c, k) for c in cli.COMMANDS for k in cli.SETTINGS if k not in cli.READS[c]])
    def test_unread_flag_is_rejected(self, command, key):
        setting = cli.SETTINGS[key]
        argv = [command, cli._flag(setting)] + ([] if setting.metadata["const"] else ["1"])
        with pytest.raises(cli.UsageError, match=f"^{key}: {command} does not read"):
            cli.parse_config(argv)

    def test_unread_config_key_is_rejected_where_it_applies(self, tmp_path):
        # a key in another command's section does not apply to the run
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[de-synth]\nlr = 0.1\n[nnreg]\nd = 3\n")
        assert cli.parse_config(["nnreg", "--config", str(cfg)]).d == 3
        for text in ("lr = 0.1\n[nnreg]\nd = 3\n", "[nnreg]\nd = 3\nlr = 0.1\n"):
            cfg.write_text(text)
            with pytest.raises(cli.UsageError, match="^lr: nnreg does not read"):
                cli.parse_config(["nnreg", "--config", str(cfg)])


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

    def test_every_seed_failing_exits_1(self, tmp_path, caplog, monkeypatch):
        def fail(*args):
            raise FloatingPointError("diverged")

        monkeypatch.setattr(ex, "run_de_cell", fail)
        argv = ["de-synth", "--flow", "normal", "--d", "2", "--seeds", "0..1",
                "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 1
        assert "all 2 seeds failed" in caplog.text
        assert not (tmp_path / "results_de-synth.csv").exists()

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

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
    def test_freed_large_arrays_are_reused_without_page_faults(self):
        # Six rounds each write and free twenty 2 MB arrays.  Under glibc's
        # default thresholds every round faults its 40 MB in again (~10.2k
        # minor faults); with the thresholds the import pins, the rounds
        # after the first reuse the freed heap.
        code = ("import resource, numpy as np, tailflow\n"
                "for _ in range(6):\n"
                "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "    arrays = [np.ones(2**18) for _ in range(20)]\n"
                "    del arrays\n"
                "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        out = subprocess.run([sys.executable, "-c", code], env=self._env(),
                             capture_output=True, text=True, check=True)
        faults = [int(f) for f in out.stdout.split()]
        assert len(faults) == 6 and max(faults[1:]) <= 100, faults
