"""Model persistence: byte-stable saves, faithful loads, hard schema checks."""

import json
from pathlib import Path

import numpy as np
import pytest

from sparseflr import (
    DataError,
    FlrConfig,
    FpcaConfig,
    fit_flr,
    load_model,
    model_document,
    predict_response,
    save_model,
)
from sparseflr.serialize import SCHEMA_VERSION
from sparseflr.smoothing import SmoothFlags


class TestRoundTrip:
    def test_document_survives_save_and_load(self, fitted, tmp_path):
        path = str(tmp_path / "model.json")
        save_model(fitted, path)
        loaded = load_model(path)
        assert model_document(loaded) == model_document(fitted)

    def test_loaded_model_predicts_identically(self, fitted, tmp_path):
        path = str(tmp_path / "model.json")
        save_model(fitted, path)
        loaded = load_model(path)
        times = np.array([1.0, 5.5, 9.0])
        values = np.array([0.3, -0.7, 1.1])
        a = predict_response(fitted, times, values)
        b = predict_response(loaded, times, values)
        # memory layout of the reloaded arrays differs, so BLAS sums may
        # round differently in the last bit; equality is numerical, not bitwise
        assert np.max(np.abs(a.values - b.values)) < 1e-12
        assert np.max(np.abs(a.variance - b.variance)) < 1e-12

    def test_saves_are_byte_identical(self, fitted, tmp_path):
        p1 = str(tmp_path / "a.json")
        p2 = str(tmp_path / "b.json")
        save_model(fitted, p1)
        save_model(load_model(p1), p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_file_ends_with_newline(self, fitted, tmp_path):
        path = str(tmp_path / "model.json")
        save_model(fitted, path)
        assert Path(path).read_bytes().endswith(b"\n")


class TestLoadErrors:
    def write(self, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(payload)
        return str(path)

    def test_invalid_json(self, tmp_path):
        with pytest.raises(DataError):
            load_model(self.write(tmp_path, "{not json"))

    def test_document_that_is_not_an_object(self, tmp_path):
        with pytest.raises(DataError):
            load_model(self.write(tmp_path, "[1, 2]"))

    def test_wrong_schema_version(self, fitted, tmp_path):
        doc = model_document(fitted)
        doc["schema_version"] = SCHEMA_VERSION + 999
        with pytest.raises(DataError):
            load_model(self.write(tmp_path, json.dumps(doc)))

    def test_wrong_kind(self, fitted, tmp_path):
        doc = model_document(fitted)
        doc["kind"] = "mean_curve"
        with pytest.raises(DataError):
            load_model(self.write(tmp_path, json.dumps(doc)))

    def test_missing_section(self, fitted, tmp_path):
        doc = model_document(fitted)
        del doc["x"]
        with pytest.raises(DataError):
            load_model(self.write(tmp_path, json.dumps(doc)))

    @pytest.mark.parametrize("section", ["x", "cross", "r2", "flags"])
    def test_unknown_key_is_rejected(self, fitted, tmp_path, section):
        doc = model_document(fitted)
        doc[section]["surprise"] = 1
        with pytest.raises(DataError, match="surprise"):
            load_model(self.write(tmp_path, json.dumps(doc)))

    def test_unknown_marginal_config_key_is_rejected(self, fitted, tmp_path):
        doc = model_document(fitted)
        doc["config"]["marginal"]["surprise"] = 1
        with pytest.raises(DataError, match="surprise"):
            load_model(self.write(tmp_path, json.dumps(doc)))


class TestOptionalKeys:
    OPTIONAL = {
        "x": ("selection", "n_subjects"),
        "cross": ("n_pairs", "n_shared_subjects", "binned"),
        None: ("flags", "n_shared_subjects"),
    }

    def test_v1_document_without_optional_keys_loads_with_defaults(self, fitted, tmp_path):
        doc = model_document(fitted)
        for section, keys in self.OPTIONAL.items():
            for key in keys:
                del (doc if section is None else doc[section])[key]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        loaded = load_model(str(path))
        assert loaded.x.selection == {} and loaded.x.n_subjects == 0
        assert loaded.y.n_subjects == fitted.y.n_subjects
        assert (loaded.cross.n_pairs, loaded.cross.n_shared_subjects) == (0, 0)
        assert loaded.cross.binned is False
        assert loaded.n_shared_subjects == 0
        assert loaded.flags == SmoothFlags()
        assert np.array_equal(loaded.beta, fitted.beta)


V1_FIXTURE = Path(__file__).parent / "data" / "model_v1.json"


class TestSchemaV1:
    """A v1 document: the sparse_pair cohort fitted with n_grid=11 and saved
    before the marginal settings were nested under ``config.marginal``."""

    @pytest.fixture(scope="class")
    def v1_doc(self):
        return json.loads(V1_FIXTURE.read_text())

    def test_fixture_is_a_flat_v1_document(self, v1_doc):
        assert v1_doc["schema_version"] == 1 < SCHEMA_VERSION
        assert v1_doc["config"]["ncomp_method"] == "aic"
        assert "marginal" not in v1_doc["config"]

    def test_v1_document_loads_as_the_current_fit(self, sparse_pair):
        x_sample, y_sample, _ = sparse_pair
        current = fit_flr(x_sample, y_sample, FlrConfig(FpcaConfig(n_grid=11)))
        loaded = load_model(str(V1_FIXTURE))
        assert json.dumps(model_document(loaded)) == json.dumps(model_document(current))

    def test_cv_selection_record_still_loads(self, v1_doc, tmp_path):
        doc = json.loads(json.dumps(v1_doc))
        doc["config"]["ncomp_method"] = "cv"
        doc["x"]["selection"]["method"] = "cv"
        path = tmp_path / "cv.json"
        path.write_text(json.dumps(doc))
        loaded = load_model(str(path))
        assert loaded.x.selection == doc["x"]["selection"]
        assert loaded.config == load_model(str(V1_FIXTURE)).config

    @pytest.mark.parametrize("key, value", [("surprise", 1), ("ncomp_method", "bic")])
    def test_unknown_flat_config_entry_is_rejected(self, v1_doc, tmp_path, key, value):
        doc = json.loads(json.dumps(v1_doc))
        doc["config"][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=key):
            load_model(str(path))
