"""Model persistence: byte-stable saves, faithful loads, hard schema checks."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparseflr
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


# Fits the dense n=100 cohort, whose three surfaces are binned, and prints
# the sha256 of its model document.
FIT_DIGEST = """
import hashlib, json
import numpy as np
from sparseflr import SimConfig, fit_flr, gen_pair, model_document
x, y, _ = gen_pair(SimConfig(n_subjects=100, sparsity="dense", seed=0), np.random.default_rng(0))
doc = json.dumps(model_document(fit_flr(x, y)), sort_keys=True)
print(hashlib.sha256(doc.encode()).hexdigest())
"""


def test_binned_fit_document_does_not_depend_on_blas_threads():
    src = os.path.dirname(os.path.dirname(sparseflr.__file__))
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        out = subprocess.run(
            [sys.executable, "-c", FIT_DIGEST], capture_output=True, text=True, env=env,
            check=True, timeout=300,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1


# Fits an unbinned cohort at the default grid and a binned one at 101 nodes,
# and prints the sha256 of every leaf of their model documents.
THREAD_DIGESTS = """
import hashlib, json
import numpy as np
from sparseflr import FlrConfig, FpcaConfig, SimConfig, fit_flr, gen_pair, model_document

def leaves(doc, path):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from leaves(value, f"{path}.{key}")
    else:
        yield path, hashlib.sha256(json.dumps(doc).encode()).hexdigest()

cohorts = {
    "sparse n=400, rng 102": (SimConfig(n_subjects=400), 102, FlrConfig()),
    "dense n=400 seed 0, 101 nodes": (
        SimConfig(n_subjects=400, sparsity="dense"), 0, FlrConfig(FpcaConfig(n_grid=101))
    ),
}
out = {}
for name, (sim, seed, config) in cohorts.items():
    x, y, _ = gen_pair(sim, np.random.default_rng(seed))
    out[name] = dict(leaves(model_document(fit_flr(x, y, config)), "doc"))
print(json.dumps(out))
"""


# Known failure, kept visible: the moment products of the 2-d smoother go
# through threaded BLAS, whose reduction order depends on the thread count,
# so both documents differ in their last bits between one and two threads.
# The xfail reason names the entries that differ; equal documents fail the
# test, and so does any other failure.
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two BLAS threads need two cores")
@pytest.mark.xfail(strict=True, raises=pytest.xfail.Exception,
                   reason="fitted bytes depend on the BLAS thread count")
def test_fit_documents_do_not_depend_on_blas_threads():
    src = os.path.dirname(os.path.dirname(sparseflr.__file__))
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        out = subprocess.run(
            [sys.executable, "-c", THREAD_DIGESTS], capture_output=True, text=True, env=env,
            check=True, timeout=300,
        )
        runs.append(json.loads(out.stdout))
    one, two = runs
    differ = [
        f"{cohort}: {', '.join(k for k in one[cohort] if one[cohort][k] != two[cohort][k])}"
        for cohort in one if one[cohort] != two[cohort]
    ]
    if differ:
        pytest.xfail("documents differ at 1 and 2 threads in " + "; ".join(differ))


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

    @pytest.mark.parametrize("entry, value", [
        ("cross.binned", "no"),
        ("cross.binned", 0),
        ("cross.n_pairs", "12"),
        ("cross.n_pairs", 12.0),
        ("cross.n_pairs", True),
        ("cross.bandwidths", "1.2"),
        # a (float, float) pair takes two numbers, not one or three
        ("cross.bandwidths", [0.5]),
        ("cross.bandwidths", [0.5, 0.6, 0.7]),
        ("config.marginal.max_components", "10"),
        ("config.marginal.n_grid", 51.0),
        ("config.ncomp_x", 2.0),
        ("x.noise_var", "0.3"),
        ("x.noise_var", False),
        ("x.selection", []),
        ("x.grid.n_points", 51.0),
        ("x.grid.lo", "0"),
        ("flags.notes", [1]),
        # a bool among numbers, made a number by np.asarray: applied to the
        # written array so that only its first value changes
        ("x.eigenvalues", lambda values: [True] + values[1:]),
    ])
    def test_value_of_the_wrong_json_type_is_rejected(self, fitted, tmp_path, entry, value):
        # each once loaded by conversion: "no" as True, "12" as 12, 51.0 as 51
        *path, key = entry.split(".")
        doc = model_document(fitted)
        section = section_of(doc, path)
        section[key] = value(section[key]) if callable(value) else value
        with pytest.raises(DataError, match=key):
            load_model(self.write(tmp_path, json.dumps(doc)))

    # the report writes one row per response-grid node: a number there once
    # raised TypeError, and a short array wrote a short r2_pointwise.csv
    @pytest.mark.parametrize("edit", [lambda values: 0.5, lambda values: values[:-1]],
                             ids=["number", "one short"])
    def test_pointwise_r2_needs_one_entry_per_response_node(self, fitted, tmp_path, edit):
        doc = model_document(fitted)
        doc["r2"]["pointwise"] = edit(doc["r2"]["pointwise"])
        with pytest.raises(DataError, match="r2.pointwise"):
            load_model(self.write(tmp_path, json.dumps(doc)))

    def test_array_of_strings_is_rejected(self, fitted, tmp_path):
        doc = model_document(fitted)
        doc["x"]["eigenvalues"] = [repr(v) for v in doc["x"]["eigenvalues"]]
        with pytest.raises(DataError, match="eigenvalues"):
            load_model(self.write(tmp_path, json.dumps(doc)))

    def test_integer_in_a_float_field_loads_as_float(self, fitted, tmp_path):
        doc = model_document(fitted)
        doc["x"]["noise_var"] = 0
        noise_var = load_model(self.write(tmp_path, json.dumps(doc))).x.noise_var
        assert type(noise_var) is float and noise_var == 0.0

    def test_unknown_marginal_config_key_is_rejected(self, fitted, tmp_path):
        doc = model_document(fitted)
        doc["config"]["marginal"]["surprise"] = 1
        with pytest.raises(DataError, match="surprise"):
            load_model(self.write(tmp_path, json.dumps(doc)))


class TestOptionalKeys:
    OPTIONAL = {
        "x": ("selection", "n_subjects"),
        "cross": ("n_pairs", "n_shared_subjects", "binned"),
        None: ("flags",),
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


def assert_documents_close(got, want, rtol: float, path: str = "doc") -> None:
    """Decoded model documents agree: numbers to within ``rtol`` of the
    largest magnitude in their array (or of the scalar itself), everything
    else exactly."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            assert_documents_close(got[key], want[key], rtol, f"{path}.{key}")
        return
    w = np.asarray(want)
    if isinstance(want, (float, list)) and w.dtype.kind == "f":
        g = np.asarray(got, dtype=float)
        assert g.shape == w.shape, path
        assert np.max(np.abs(g - w), initial=0.0) <= rtol * np.max(np.abs(w), initial=0.0), path
    else:
        assert got == want, path


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

    def test_v1_document_reencodes_as_itself(self, v1_doc):
        """The reader changes only the schema version and the config's
        nesting; every other entry is written back exactly as saved."""
        loaded = load_model(str(V1_FIXTURE))
        assert loaded.config == FlrConfig(FpcaConfig(n_grid=11))
        doc = json.loads(json.dumps(model_document(loaded)))
        assert doc.pop("schema_version") == SCHEMA_VERSION
        del doc["config"]
        dropped = ("schema_version", "config", "n_shared_subjects")
        assert doc == {k: v for k, v in v1_doc.items() if k not in dropped}

    def test_v1_document_loads_as_the_current_fit(self, sparse_pair):
        """Refitting the saved cohort makes the same choices (bandwidths,
        component counts, flags) and reproduces every saved number to within
        1e-10 of its array's magnitude, the estimator's stated drift bound."""
        x_sample, y_sample, _ = sparse_pair
        current = fit_flr(x_sample, y_sample, FlrConfig(FpcaConfig(n_grid=11)))
        loaded = load_model(str(V1_FIXTURE))
        assert_documents_close(
            json.loads(json.dumps(model_document(loaded))),
            json.loads(json.dumps(model_document(current))),
            1e-10,
        )

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


V2_FIXTURE = Path(__file__).parent / "data" / "model_v2.json"

# Keys of settings and fields that are no longer declared, as (section path, key).
RETIRED = [
    (("config", "marginal"), "eigen_floor"),
    (("config", "marginal"), "bin_threshold"),
    (("config",), "cross_bandwidth"),
    (("config",), "cross_bandwidth_fractions"),
    ((), "n_shared_subjects"),
]


def section_of(doc: dict, path: tuple) -> dict:
    for name in path:
        doc = doc[name]
    return doc


class TestRetiredKeys:
    """A v2 document written before five settings and fields were retired:
    the v1 fixture's cohort and settings, saved in the v2 nesting."""

    @pytest.fixture(scope="class")
    def v2_doc(self):
        return json.loads(V2_FIXTURE.read_text())

    def write(self, tmp_path, doc):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_loads(self, v2_doc):
        assert v2_doc["schema_version"] == SCHEMA_VERSION
        loaded = load_model(str(V2_FIXTURE))
        assert loaded.config == FlrConfig(FpcaConfig(n_grid=11))
        assert loaded.n_shared_subjects == loaded.cross.n_shared_subjects == 60

    def test_reencodes_as_itself_less_the_retired_keys(self, v2_doc):
        want = json.loads(json.dumps(v2_doc))
        for section, key in RETIRED:
            del section_of(want, section)[key]
        assert json.loads(json.dumps(model_document(load_model(str(V2_FIXTURE))))) == want

    def test_retired_key_loads_whatever_its_value(self, v2_doc, tmp_path):
        doc = json.loads(json.dumps(v2_doc))
        doc["config"]["marginal"]["bin_threshold"] = 5000
        loaded = load_model(self.write(tmp_path, doc))
        assert model_document(loaded) == model_document(load_model(str(V2_FIXTURE)))

    @pytest.mark.parametrize("section, key", [
        ((), "surprise"),
        (("config",), "surprise"),
        (("config", "marginal"), "surprise"),
        # a retired key is dropped only from the section that held it
        (("config",), "eigen_floor"),
        (("config", "marginal"), "cross_bandwidth"),
    ], ids=["top", "config", "marginal", "config.eigen_floor", "marginal.cross_bandwidth"])
    def test_unknown_key_is_still_rejected(self, v2_doc, tmp_path, section, key):
        doc = json.loads(json.dumps(v2_doc))
        section_of(doc, section)[key] = 1
        with pytest.raises(DataError, match=key):
            load_model(self.write(tmp_path, doc))

    def test_loaded_model_predicts_as_the_fixture_fit(self, sparse_pair):
        x_sample, y_sample, _ = sparse_pair
        current = fit_flr(x_sample, y_sample, FlrConfig(FpcaConfig(n_grid=11)))
        loaded = load_model(str(V2_FIXTURE))
        times = np.array([1.0, 5.5, 9.0])
        values = np.array([0.3, -0.7, 1.1])
        a = predict_response(current, times, values)
        b = predict_response(loaded, times, values)
        assert np.max(np.abs(a.values - b.values)) < 1e-10 * np.max(np.abs(a.values))
