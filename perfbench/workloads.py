"""The four benchmark workloads: inputs, one closed-loop iteration, checks.

Importing this module imports numpy and sparseflr, so ``run.py`` imports it
inside the timed set-up. Every library call goes through a module attribute
(``sparseflr.fit_flr``, ``cli.main``) so the tracer's wrappers are seen.

Why each workload exists (see README.md for the layer mapping):

sparse-n2000
    Per-subject PACE scoring inside AIC component selection dominates the
    fit; 2-D smoothing runs on the binned scatter. Exercises the scoring
    path a batched PACE change would replace.
dense-n400
    20-30 observations per curve; the smoothers over ~246k raw pairs
    dominate and PACE is minor. A scoring change should leave it unchanged,
    a smoother change should move it.
mc-sparse-n100
    The paper's Monte Carlo study: many small fits on unbinned scatters,
    where per-call fixed costs dominate.
cli-sparse-n400
    The only path through ``data.load_sample``, ``serialize`` and the CLI's
    per-subject CSV writing.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import tempfile
import time

import numpy as np

import sparseflr
import sparseflr.simulation
from sparseflr import cli

N_NEW = 100  # evaluation subjects per Monte Carlo run, as in the paper's study
REFERENCE_SEED = 0  # quality metrics and fingerprints come from this fixed cohort
WARMUP_N = 100  # subjects in the untimed warm-up call of the fit workloads


class OutputCheckError(Exception):
    """An operation returned an output that fails the benchmark's checks."""


def require(ok, what: str) -> None:
    if not ok:
        raise OutputCheckError(what)


class Ledger:
    """Operations attempted and failed; a failure is a raise or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    def timed(self, what: str, fn, check=None):
        """Run one operation; return (output or None, seconds spent in ``fn``).

        The check runs outside the timed interval. A raising operation is
        counted and the run goes on, so one bad input cannot hide the rest.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # counted as a failed operation, run continues
            elapsed = time.perf_counter() - start
            self.fail(what, exc)
            return None, elapsed
        elapsed = time.perf_counter() - start
        if check is not None:
            try:
                check(out)
            except OutputCheckError as exc:
                self.fail(what, exc)
                return None, elapsed
        return out, elapsed


# ---------------------------------------------------------------- checks

def check_model(model) -> None:
    """Finite outputs of the expected grid shapes, positive eigenvalues."""
    ns, nt = model.grid_s.n_points, model.grid_t.n_points
    require(model.beta.shape == (ns, nt) and np.isfinite(model.beta).all(), "beta shape/finite")
    for label, m in (("x", model.x), ("y", model.y)):
        n = m.grid.n_points
        require(m.mean.shape == (n,) and np.isfinite(m.mean).all(), f"{label} mean")
        require(m.surface.shape == (n, n) and np.isfinite(m.surface).all(), f"{label} surface")
        require(
            m.eigenfunctions.ndim == 2
            and m.eigenfunctions.shape[1] == n
            and np.isfinite(m.eigenfunctions).all(),
            f"{label} eigenfunctions",
        )
        require(
            m.eigenvalues.size >= m.n_components >= 1
            and np.isfinite(m.eigenvalues).all()
            and (m.eigenvalues > 0).all(),
            f"{label} eigenvalues",
        )
        require(np.isfinite(m.noise_var) and m.noise_var >= 0, f"{label} noise variance")
    require(
        model.sigma_km.shape == (model.y.n_components, model.x.n_components)
        and np.isfinite(model.sigma_km).all(),
        "sigma_km",
    )
    require(0.0 <= model.r2.value <= 1.0, "r2 in [0, 1]")


def check_band(values, lower, upper, n: int) -> None:
    values, lower, upper = (np.asarray(a, dtype=float) for a in (values, lower, upper))
    require(values.shape == lower.shape == upper.shape == (n,), "prediction shape")
    require(np.isfinite(values).all() and np.isfinite(lower).all(), "prediction finite")
    require(((lower <= values) & (values <= upper)).all(), "lower <= values <= upper")


def check_prediction(pred) -> None:
    check_band(pred.values, pred.lower, pred.upper, pred.grid.n_points)


def check_trajectory(pred) -> None:
    """A band-less prediction, as run_monte_carlo makes them."""
    n = pred.grid.n_points
    require(pred.values.shape == (n,) and np.isfinite(pred.values).all(), "prediction finite")
    require((pred.variance >= 0).all(), "prediction variance >= 0")


def check_report(report) -> None:
    limit = report.config.max_failure_rate * len(report.runs)
    require(report.n_failures <= limit, "Monte Carlo failures within max_failure_rate")
    require(np.isfinite(report.median_ce) and np.isfinite(report.median_in), "finite medians")


def check_files(out_dir: str, names) -> None:
    for name in names:
        require(os.path.isfile(os.path.join(out_dir, name)), f"{name} written")


# ---------------------------------------------------------------- quality

def beta_rel_err(model, design) -> float:
    """Integrated squared error of beta over the integrated square of the truth."""
    s, t = model.grid_s, model.grid_t
    truth = design.beta(s.points, t.points)
    diff = model.beta - truth
    return float(
        (s.trapezoid_weights @ (diff * diff) @ t.trapezoid_weights)
        / (s.trapezoid_weights @ (truth * truth) @ t.trapezoid_weights)
    )


def canonical_document(model) -> str:
    return json.dumps(sparseflr.model_document(model), sort_keys=True)


def fingerprint(model, reference: dict | None, work_dir: str) -> dict:
    """Round-trip check plus informational drift figures against the seed commit.

    ``load_model(save_model(m))`` must reproduce ``model_document(m)``
    exactly (a failed check raises). The sha256 and max |delta beta| are
    recorded, not gated, so a later correctness fix is not scored as a
    regression.
    """
    doc = canonical_document(model)
    path = os.path.join(work_dir, "roundtrip.json")
    sparseflr.save_model(model, path)
    require(canonical_document(sparseflr.load_model(path)) == doc, "load_model(save_model(m))")
    sha = hashlib.sha256(doc.encode()).hexdigest()
    out = {
        "model_sha256": sha,
        "ncomp_x": model.x.n_components,
        "ncomp_y": model.y.n_components,
        "r2": model.r2.value,
    }
    if reference is not None:
        ref_beta = np.asarray(reference["beta"], dtype=float)
        out["model_sha256_matches_reference"] = sha == reference["model_sha256"]
        out["beta_max_abs_diff_vs_reference"] = (
            float(np.max(np.abs(model.beta - ref_beta)))
            if ref_beta.shape == model.beta.shape
            else None
        )
    return out


class McClock:
    """Times the fit and CE-prediction calls run_monte_carlo makes, keeping results.

    Wraps ``fit_flr`` and ``predict_response`` in ``sparseflr.simulation``
    only, where ``run_monte_carlo`` looks them up, for the duration of a
    ``with`` block.
    """

    def __init__(self):
        self.fits: list = []  # (seconds, model)
        self.predictions: list = []  # (seconds, prediction)
        self._saved: dict = {}

    def _timing(self, fn, sink):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            sink.append((time.perf_counter() - start, out))
            return out

        return timed

    def __enter__(self) -> "McClock":
        sim = sparseflr.simulation
        self._saved = {"fit_flr": sim.fit_flr, "predict_response": sim.predict_response}
        sim.fit_flr = self._timing(sim.fit_flr, self.fits)
        sim.predict_response = self._timing(sim.predict_response, self.predictions)
        return self

    def __exit__(self, *exc) -> None:
        for name, fn in self._saved.items():
            setattr(sparseflr.simulation, name, fn)


def _mc_reference(config, n_runs: int, ledger: Ledger, work_dir: str, reference) -> dict:
    """Quality and fingerprint of a fixed-seed Monte Carlo study."""
    with McClock() as clock:
        report, _ = ledger.timed(
            "run_monte_carlo (reference)",
            lambda: sparseflr.run_monte_carlo(config, n_runs=n_runs),
            check_report,
        )
    if report is None:
        return {}
    design = sparseflr.SimDesign(sparseflr.Interval(*config.domain))
    models = [m for _, m in clock.fits]
    for m in models:
        check_model(m)
    return {
        "beta_rel_err": float(np.median([beta_rel_err(m, design) for m in models])),
        "rmspe_ce": report.median_ce,
        "rmspe_in": report.median_in,
        "fingerprint": fingerprint(models[0], reference, work_dir),
        "model": models[0],
    }


# ---------------------------------------------------------------- workloads

class Workload:
    """One closed-loop workload: one caller, the next call after the last returns."""

    def __init__(self, n: int, n_new: int = N_NEW, reference_runs: int = 1):
        self.n = n
        self.n_new = n_new
        self.reference_runs = reference_runs

    def setup(self, seed: int, ledger: Ledger, work_dir: str):
        """Generate the inputs from ``seed`` and make one untimed warm-up call."""
        raise NotImplementedError

    def iterate(self, state, ledger: Ledger, i: int) -> dict:
        """One closed-loop iteration; returns timing samples by metric name."""
        raise NotImplementedError

    def reference(self, ledger: Ledger, work_dir: str, reference) -> dict:
        """Quality metrics and fingerprint from the fixed reference cohort."""
        raise NotImplementedError


class FitPredict(Workload):
    """``fit_flr`` on one cohort, then ``predict_subject`` for every subject."""

    def __init__(self, sparsity: str, n: int, **kw):
        super().__init__(n, **kw)
        self.sparsity = sparsity

    def config(self, **kw):
        return sparseflr.SimConfig(n_subjects=self.n, sparsity=self.sparsity, n_new=self.n_new, **kw)

    def setup(self, seed, ledger, work_dir):
        rng = np.random.default_rng(seed)
        x, y, _ = sparseflr.gen_pair(self.config(), rng)
        wx, wy, _ = sparseflr.gen_pair(self.config(), rng, n=min(WARMUP_N, self.n))
        self.run_once(wx, wy, ledger)
        return x, y

    def iterate(self, state, ledger, i):
        x, y = state
        return self.run_once(x, y, ledger)

    def run_once(self, x, y, ledger) -> dict:
        model, fit_s = ledger.timed("fit_flr", lambda: sparseflr.fit_flr(x, y), check_model)
        latencies = []
        if model is not None:
            for subj in x.subjects:
                _, dt = ledger.timed(
                    "predict_subject",
                    lambda: sparseflr.predict_subject(model, subj, level=0.95),
                    check_prediction,
                )
                latencies.append(dt)
        return {"iteration_s": fit_s + sum(latencies), "fit_s": fit_s, "predict_subject_s": latencies}

    def reference(self, ledger, work_dir, reference):
        return _mc_reference(
            self.config(seed=REFERENCE_SEED), self.reference_runs, ledger, work_dir, reference
        )


class MonteCarlo(Workload):
    """``run_monte_carlo`` one run per call; iteration i uses seed ``seed*10**6 + i``."""

    def config(self, seed):
        return sparseflr.SimConfig(n_subjects=self.n, n_new=self.n_new, seed=seed)

    def setup(self, seed, ledger, work_dir):
        base = seed * 10**6
        self.iterate(base, ledger, 10**6 - 1)  # warm-up: the last seed of the block
        return base

    def iterate(self, state, ledger, i):
        with McClock() as clock:
            report, run_s = ledger.timed(
                "run_monte_carlo",
                lambda: sparseflr.run_monte_carlo(self.config(state + i), n_runs=1),
                check_report,
            )
        out = {"iteration_s": run_s}
        if report is None:
            return out
        try:
            for _, model in clock.fits:
                check_model(model)
            for _, pred in clock.predictions:
                check_trajectory(pred)
        except OutputCheckError as exc:
            ledger.fail("run_monte_carlo", exc)
            return out
        out["fit_s"] = [dt for dt, _ in clock.fits]
        out["predict_subject_s"] = [dt for dt, _ in clock.predictions]
        return out

    def reference(self, ledger, work_dir, reference):
        return _mc_reference(
            self.config(REFERENCE_SEED), self.reference_runs, ledger, work_dir, reference
        )


FIT_FILES = ("model.json", "diagnostics.json", "r2_pointwise.csv", "run_manifest.json")
PREDICT_FILES = ("subjects.csv", "run_manifest.json")


def _cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class CliFitPredict(Workload):
    """CLI ``fit`` on emitted CSVs, then CLI ``predict`` for every subject."""

    def config(self):
        return sparseflr.SimConfig(n_subjects=self.n, n_new=self.n_new)

    def emit(self, x, y, directory):
        os.makedirs(directory, exist_ok=True)
        paths = os.path.join(directory, "x.csv"), os.path.join(directory, "y.csv")
        sparseflr.save_sample(x, paths[0])
        if y is not None:
            sparseflr.save_sample(y, paths[1])
        return paths

    def setup(self, seed, ledger, work_dir):
        rng = np.random.default_rng(seed)
        x, y, _ = sparseflr.gen_pair(self.config(), rng)
        wx, wy, _ = sparseflr.gen_pair(self.config(), rng, n=min(WARMUP_N, self.n))
        warm = self.emit(wx, wy, os.path.join(work_dir, "warmup"))
        self.run_once(warm, wx.n_subjects, os.path.join(work_dir, "warmup"), ledger)
        return self.emit(x, y, os.path.join(work_dir, "inputs")), x.n_subjects, work_dir

    def iterate(self, state, ledger, i):
        paths, n_subjects, work_dir = state
        return self.run_once(paths, n_subjects, work_dir, ledger)

    def fit(self, x_csv, y_csv, out_dir, ledger):
        def check(rc):
            require(rc == 0, f"cli fit exit code {rc}")
            check_files(out_dir, FIT_FILES)

        return ledger.timed(
            "cli fit", lambda: _cli(["fit", "--x", x_csv, "--y", y_csv, "--out", out_dir]), check
        )

    def predict(self, model_json, x_csv, out_dir, n_subjects, ledger):
        def check(rc):
            require(rc == 0, f"cli predict exit code {rc}")
            check_files(out_dir, PREDICT_FILES)
            written = os.listdir(os.path.join(out_dir, "predictions"))
            require(len(written) == n_subjects, "one predictions/<subject>.csv per subject")

        return ledger.timed(
            "cli predict",
            lambda: _cli(["predict", "--model", model_json, "--x", x_csv, "--out", out_dir]),
            check,
        )

    def run_once(self, paths, n_subjects, work_dir, ledger) -> dict:
        fit_dir, pred_dir = os.path.join(work_dir, "fit"), os.path.join(work_dir, "predict")
        # Fresh output directories, as a user's new run would have: on ext4,
        # rewriting a truncated file forces writeback on close, which adds
        # disk waits the commands themselves do not cause.
        remove_directory(fit_dir)
        remove_directory(pred_dir)
        rc, fit_s = self.fit(paths[0], paths[1], fit_dir, ledger)
        out = {"iteration_s": fit_s, "fit_s": fit_s, "cli_fit_s": fit_s}
        if rc is None:
            return out
        model_json = os.path.join(fit_dir, "model.json")
        rc, predict_s = self.predict(model_json, paths[0], pred_dir, n_subjects, ledger)
        out["iteration_s"] += predict_s
        out["cli_predict_s"] = predict_s
        if rc is not None:
            out["predict_subject_s"] = predict_s / n_subjects
        return out

    def reference(self, ledger, work_dir, reference):
        """The CLI path on run 0 of the fixed-seed study, scored like ``_run_once``."""
        cfg = self.config()
        rng = np.random.default_rng(REFERENCE_SEED)
        x, y, _ = sparseflr.gen_pair(cfg, rng)
        x_new, _, truth = sparseflr.gen_pair(cfg, rng, n=cfg.n_new, id_prefix="new")
        ref_dir = os.path.join(work_dir, "reference")
        x_csv, y_csv = self.emit(x, y, ref_dir)
        fit_dir, pred_dir = os.path.join(ref_dir, "fit"), os.path.join(ref_dir, "predict")
        rc, _ = self.fit(x_csv, y_csv, fit_dir, ledger)
        if rc is None:
            return {}
        model = sparseflr.load_model(os.path.join(fit_dir, "model.json"))
        check_model(model)
        new_csv, _ = self.emit(x_new, None, os.path.join(ref_dir, "new"))
        model_json = os.path.join(fit_dir, "model.json")
        rc, _ = self.predict(model_json, new_csv, pred_dir, x_new.n_subjects, ledger)
        if rc is None:
            return {}

        grid_t = model.grid_t
        pred_ce = np.empty((x_new.n_subjects, grid_t.n_points))
        pred_in = np.empty_like(pred_ce)
        truths = np.empty_like(pred_ce)
        files = _roster(os.path.join(pred_dir, "subjects.csv"))
        for i, subj in enumerate(x_new.subjects):
            t, yhat, lo, hi = _prediction_csv(os.path.join(pred_dir, files[subj.subject_id]))
            require(np.array_equal(t, grid_t.points), "prediction grid")
            check_band(yhat, lo, hi, grid_t.n_points)
            pred_ce[i] = yhat
            zeta = sparseflr.in_scores(model.x, subj.times, subj.values)
            pred_in[i] = sparseflr.predict_from_scores(model, zeta)
            truths[i] = truth.conditional_mean(i, grid_t.points)
        return {
            "beta_rel_err": beta_rel_err(model, truth.design),
            "rmspe_ce": sparseflr.rmspe(pred_ce, truths, grid_t),
            "rmspe_in": sparseflr.rmspe(pred_in, truths, grid_t),
            "fingerprint": fingerprint(model, reference, ref_dir),
            "model": model,
        }


def _roster(path: str) -> dict[str, str]:
    with open(path, newline="") as fh:
        return {row["subject_id"]: row["file"] for row in csv.DictReader(fh)}


def _prediction_csv(path: str):
    with open(path, newline="") as fh:
        rows = [(float(r["t"]), float(r["yhat"]), float(r["lo"]), float(r["hi"])) for r in csv.DictReader(fh)]
    return tuple(np.array(col) for col in zip(*rows))


def make(name: str, smoke: bool = False) -> Workload:
    """The workload called ``name``; ``smoke`` shrinks every size for self-tests."""
    if smoke:
        small = {"n_new": 10, "reference_runs": 2}
        table = {
            "sparse-n2000": FitPredict("sparse", 40, **small),
            "dense-n400": FitPredict("dense", 40, **small),
            "mc-sparse-n100": MonteCarlo(40, **small),
            "cli-sparse-n400": CliFitPredict(40, **small),
        }
    else:
        table = {
            "sparse-n2000": FitPredict("sparse", 2000),
            "dense-n400": FitPredict("dense", 400),
            "mc-sparse-n100": MonteCarlo(100, reference_runs=10),
            "cli-sparse-n400": CliFitPredict(400),
        }
    return table[name]


WORKLOADS = ("sparse-n2000", "dense-n400", "mc-sparse-n100", "cli-sparse-n400")


def work_directory(root: str) -> str:
    os.makedirs(root, exist_ok=True)
    return tempfile.mkdtemp(prefix="work-", dir=root)


def remove_directory(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
