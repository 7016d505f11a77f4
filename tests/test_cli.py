"""End-to-end command behavior: exit codes, files, determinism, manifests."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import sparseflr
from sparseflr import save_sample
from sparseflr.cli import main


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory, sparse_pair):
    x_sample, y_sample, _ = sparse_pair
    d = tmp_path_factory.mktemp("data")
    save_sample(x_sample, str(d / "x.csv"))
    save_sample(y_sample, str(d / "y.csv"))
    return d


@pytest.fixture(scope="module")
def fit_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("fit")
    code = main(
        [
            "fit",
            "--x", str(data_dir / "x.csv"),
            "--y", str(data_dir / "y.csv"),
            "--domain-x", "0", "10",
            "--domain-y", "0", "10",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


class TestFit:
    def test_outputs_exist(self, fit_dir):
        for name in ("model.json", "diagnostics.json", "r2_pointwise.csv", "run_manifest.json"):
            assert (fit_dir / name).exists()

    def test_diagnostics_content(self, fit_dir):
        diag = json.loads((fit_dir / "diagnostics.json").read_text())
        assert diag["n_subjects_x"] == 60
        assert diag["n_shared_subjects"] == 60
        assert diag["n_components_x"] >= 1
        assert 0.0 <= diag["r2"] <= 1.0
        assert set(diag["bandwidths"]) >= {"mean_x", "mean_y", "cov_x", "cov_y"}

    def test_manifest_records_invocation(self, fit_dir, data_dir):
        man = json.loads((fit_dir / "run_manifest.json").read_text())
        assert man["command"] == "fit"
        assert man["x_path"] == str(data_dir / "x.csv")
        assert man["grid_points"] == 51
        assert man["package_version"]

    def test_refit_is_byte_identical(self, data_dir, tmp_path):
        args = [
            "fit",
            "--x", str(data_dir / "x.csv"),
            "--y", str(data_dir / "y.csv"),
            "--domain-x", "0", "10",
            "--domain-y", "0", "10",
        ]
        out1, out2 = tmp_path / "f1", tmp_path / "f2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()

    def test_missing_file_exits_with_data_code(self, tmp_path):
        code = main(
            ["fit", "--x", "/no/such.csv", "--y", "/no/such2.csv", "--out", str(tmp_path / "o")]
        )
        assert code == 3

    def test_bad_schema_exits_with_data_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,when,what\na,1,2\n")
        code = main(
            ["fit", "--x", str(bad), "--y", str(bad), "--out", str(tmp_path / "o")]
        )
        assert code == 3

    def test_undersized_cohort_exits_with_numerical_code(self, tmp_path):
        # every subject has a single observation: no covariance information
        tiny = tmp_path / "tiny.csv"
        tiny.write_text(
            "subject_id,time,value\n" +
            "".join(f"s{i},{float(i)},1.0\n" for i in range(1, 9))
        )
        code = main(
            ["fit", "--x", str(tiny), "--y", str(tiny), "--out", str(tmp_path / "o")]
        )
        assert code == 4

    def test_usage_errors(self, data_dir, tmp_path):
        base = [
            "fit",
            "--x", str(data_dir / "x.csv"),
            "--y", str(data_dir / "y.csv"),
            "--out", str(tmp_path / "o"),
        ]
        assert main(base + ["--grid-points", "1"]) == 2
        assert main(base + ["--level", "1.5"]) == 2
        assert main(base + ["--bandwidth", "-1"]) == 2
        assert main(base + ["--max-components", "0"]) == 2
        assert main(base + ["--bandwidth-grid", "0.1,-0.3"]) == 2

    def test_removed_ncomp_method_flag_is_usage_error(self, data_dir, tmp_path):
        args = ["fit", "--x", str(data_dir / "x.csv"), "--y", str(data_dir / "y.csv")]
        assert main(args + ["--ncomp-method", "aic", "--out", str(tmp_path / "o")]) == 2


class TestPredict:
    def run_predict(self, fit_dir, data_dir, out, extra=()):
        return main(
            [
                "predict",
                "--model", str(fit_dir / "model.json"),
                "--x", str(data_dir / "x.csv"),
                "--out", str(out),
                *extra,
            ]
        )

    def test_all_subjects_predicted(self, fit_dir, data_dir, tmp_path):
        out = tmp_path / "pred"
        assert self.run_predict(fit_dir, data_dir, out) == 0
        rows = (out / "subjects.csv").read_text().splitlines()
        assert rows[0] == "subject_id,n_obs,flag,file"
        assert len(rows) == 1 + 60

    def test_band_uses_gaussian_quantile(self, fit_dir, data_dir, tmp_path):
        out = tmp_path / "pred"
        assert self.run_predict(fit_dir, data_dir, out, ["--subjects", "s00000"]) == 0
        body = (out / "predictions" / "s00000.csv").read_text().splitlines()
        assert body[0] == "t,yhat,lo,hi,variance"
        data = np.array([[float(c) for c in line.split(",")] for line in body[1:]])
        t, yhat, lo, hi, var = data.T
        pos = var > 1e-12
        z = (hi - yhat)[pos] / np.sqrt(var[pos])
        assert np.max(np.abs(z - 1.959964)) < 1e-5
        assert np.max(np.abs((yhat - lo) - (hi - yhat))) < 1e-9

    def test_level_flag_changes_width(self, fit_dir, data_dir, tmp_path):
        narrow, wide = tmp_path / "n", tmp_path / "w"
        assert self.run_predict(fit_dir, data_dir, narrow, ["--subjects", "s00000", "--level", "0.5"]) == 0
        assert self.run_predict(fit_dir, data_dir, wide, ["--subjects", "s00000", "--level", "0.99"]) == 0

        def width(d):
            body = (d / "predictions" / "s00000.csv").read_text().splitlines()[1:]
            data = np.array([[float(c) for c in line.split(",")] for line in body])
            return (data[:, 3] - data[:, 2]).mean()

        assert width(wide) > width(narrow)

    def test_unknown_subject_gets_mean_fallback(self, fit_dir, data_dir, tmp_path):
        out = tmp_path / "pred"
        assert self.run_predict(fit_dir, data_dir, out, ["--subjects", "ghost"]) == 0
        rows = (out / "subjects.csv").read_text().splitlines()
        assert rows[1].startswith("ghost,0,no-data,")
        assert (out / "predictions" / "ghost.csv").exists()

    def test_subject_id_sanitized_for_filesystem(self, fit_dir, tmp_path):
        weird = tmp_path / "weird.csv"
        weird.write_text("subject_id,time,value\na/b,1,0.5\na/b,5,0.2\na/b,9,-0.1\n")
        out = tmp_path / "pred"
        code = main(
            [
                "predict",
                "--model", str(fit_dir / "model.json"),
                "--x", str(weird),
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "predictions" / "a_b.csv").exists()

    def test_missing_model_is_data_error(self, data_dir, tmp_path):
        code = main(
            [
                "predict",
                "--model", str(tmp_path / "nope.json"),
                "--x", str(data_dir / "x.csv"),
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 3

    def test_bad_level_is_usage_error(self, fit_dir, data_dir, tmp_path):
        assert self.run_predict(fit_dir, data_dir, tmp_path / "o", ["--level", "0"]) == 2

    def predict_with_edited_model(self, fit_dir, data_dir, tmp_path, edit):
        doc = json.loads((fit_dir / "model.json").read_text())
        edit(doc)
        bad = tmp_path / "bad_model"
        bad.mkdir()
        (bad / "model.json").write_text(json.dumps(doc))
        return self.run_predict(bad, data_dir, tmp_path / "o")

    def test_short_eigenfunctions_are_data_error(self, fit_dir, data_dir, tmp_path, capsys):
        def drop_last_grid_point(doc):
            for row in doc["x"]["eigenfunctions"]:
                row.pop()

        code = self.predict_with_edited_model(fit_dir, data_dir, tmp_path, drop_last_grid_point)
        assert code == 3
        assert "x.eigenfunctions has shape" in capsys.readouterr().err

    def test_dropped_sigma_km_column_is_data_error(self, fit_dir, data_dir, tmp_path, capsys):
        def drop_last_column(doc):
            for row in doc["sigma_km"]:
                row.pop()

        code = self.predict_with_edited_model(fit_dir, data_dir, tmp_path, drop_last_column)
        assert code == 3
        assert "sigma_km has shape" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["x", "cross", "r2", "flags"])
    def test_unknown_key_is_data_error(self, fit_dir, data_dir, tmp_path, capsys, section):
        def add_key(doc):
            doc[section]["surprise"] = 1

        code = self.predict_with_edited_model(fit_dir, data_dir, tmp_path, add_key)
        assert code == 3
        assert "surprise" in capsys.readouterr().err


class TestSimulate:
    def test_reruns_byte_identical(self, tmp_path):
        args = ["simulate", "--runs", "2", "--n", "30", "--new", "10", "--seed", "5"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert (a / "runs.csv").read_bytes() == (b / "runs.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_summary_content(self, tmp_path):
        out = tmp_path / "sim"
        code = main(
            ["simulate", "--runs", "2", "--n", "30", "--new", "10",
             "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        summ = json.loads((out / "summary.json").read_text())
        assert summ["n_runs"] == 2
        assert summ["n_failures"] == 0
        assert summ["median_rmspe_ce"] > 0

    def test_emit_data_writes_training_cohort(self, tmp_path):
        out = tmp_path / "sim"
        code = main(
            ["simulate", "--runs", "1", "--n", "25", "--new", "5",
             "--seed", "4", "--emit-data", "--out", str(out)]
        )
        assert code == 0
        from sparseflr import load_sample

        x_sample = load_sample(str(out / "x.csv"), domain=None)
        assert x_sample.n_subjects == 25

    def test_zero_runs_is_usage_error(self, tmp_path):
        assert main(["simulate", "--runs", "0", "--out", str(tmp_path / "o")]) == 2

    def test_bad_sparsity_is_usage_error(self, tmp_path):
        # argparse rejects values outside the declared choices
        assert (
            main(["simulate", "--sparsity", "medium", "--out", str(tmp_path / "o")]) == 2
        )


class TestReport:
    def test_outputs_and_shapes(self, fit_dir, tmp_path):
        out = tmp_path / "rep"
        code = main(
            ["report", "--model", str(fit_dir / "model.json"), "--out", str(out)]
        )
        assert code == 0
        diag = json.loads((fit_dir / "diagnostics.json").read_text())

        scree = (out / "scree_x.csv").read_text().splitlines()
        fractions = [float(r.split(",")[2]) for r in scree[1:]]
        assert all(0.0 <= f <= 1.0 for f in fractions)
        assert abs(sum(fractions) - 1.0) < 1e-9

        eig = (out / "eigenfunctions_x.csv").read_text().splitlines()
        assert len(eig[0].split(",")) == 1 + diag["n_components_x"]
        assert len(eig) == 1 + 51

        beta = (out / "beta.csv").read_text().splitlines()
        assert beta[0] == "s,t,value"
        assert len(beta) == 1 + 51 * 51

        for name in ("mean_x.csv", "mean_y.csv", "r2_pointwise.csv"):
            assert (out / name).exists()


class TestTopLevel:
    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip()

    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats costs about half a second of start-up on every command
        src = os.path.dirname(os.path.dirname(sparseflr.__file__))
        code = "import sys, sparseflr, sparseflr.cli; print('scipy.stats' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert out.stdout.strip() == "False"

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert main(["simulate", "--frobnicate", "--out", str(tmp_path / "o")]) == 2
