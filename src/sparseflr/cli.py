"""Command-line interface: fit, predict, simulate, report.

Every command materializes its full effective configuration (defaults
included) into ``run_manifest.json`` in the output directory, so a result
can be reproduced from the manifest alone. Outputs carry no timestamps;
rerunning a command with the same inputs and seed produces byte-identical
files.

Exit codes: 0 success, 2 usage error, 3 unusable input data, 4 numerical
failure during fitting.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from dataclasses import asdict, dataclass
from importlib.metadata import PackageNotFoundError, version as _pkg_version

import numpy as np

from .data import Interval, SubjectRecord, load_sample, save_sample, summarize
from .errors import DataError, FitError
from .flr import FlrConfig, fit_flr, prediction_band, trajectory_from_scores
from .fpca import FpcaConfig, pace_scores_batch
from .serialize import load_model, save_model
from .simulation import SimConfig, gen_pair, run_monte_carlo, save_run_results

try:
    _VERSION = _pkg_version("sparseflr")
except PackageNotFoundError:  # running from a source tree
    _VERSION = "0.0.0+src"

USAGE_ERROR = 2
DATA_ERROR = 3
NUMERICAL_ERROR = 4


# The fit flags' defaults are the library's.
_FIT_DEFAULTS = FpcaConfig()


class UsageError(Exception):
    """A flag value that cannot be acted on; exits with the usage code."""


@dataclass(frozen=True)
class RunConfig:
    """Effective settings of one CLI invocation, defaults materialized."""

    command: str
    out_dir: str
    x_path: str | None = None
    y_path: str | None = None
    model_path: str | None = None
    x_columns: tuple[str, str, str] = ("subject_id", "time", "value")
    y_columns: tuple[str, str, str] = ("subject_id", "time", "value")
    domain_x: tuple[float, float] | None = None
    domain_y: tuple[float, float] | None = None
    grid_points: int = _FIT_DEFAULTS.n_grid
    kernel: str = _FIT_DEFAULTS.kernel
    bandwidth: float | None = None
    bandwidth_grid: tuple[float, ...] | None = None
    bandwidth_objective: str = _FIT_DEFAULTS.bandwidth_objective
    ncomp: int | None = None
    max_components: int = _FIT_DEFAULTS.max_components
    level: float = 0.95
    subjects: tuple[str, ...] | None = None
    sparsity: str = "sparse"
    score_dist: str = "normal"
    n_runs: int = 100
    n_subjects: int = 100
    n_new: int = 100
    seed: int = 0
    max_failure_rate: float = 0.2
    emit_data: bool = False
    package_version: str = _VERSION


def _write_manifest(cfg: RunConfig) -> None:
    path = os.path.join(cfg.out_dir, "run_manifest.json")
    with open(path, "w") as fh:
        json.dump(asdict(cfg), fh, indent=1)
        fh.write("\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _parse_columns(spec: str) -> tuple[str, str, str]:
    parts = tuple(p.strip() for p in spec.split(","))
    if len(parts) != 3 or not all(parts):
        raise DataError(
            f"column spec must be three comma-separated names, got {spec!r}"
        )
    return parts  # type: ignore[return-value]


def _flr_config(cfg: RunConfig, length_x: float) -> FlrConfig:
    marginal: dict = {
        "n_grid": cfg.grid_points,
        "kernel": cfg.kernel,
        "bandwidth_objective": cfg.bandwidth_objective,
        "max_components": cfg.max_components,
    }
    joint: dict = {"ncomp_x": cfg.ncomp, "ncomp_y": cfg.ncomp}
    if cfg.bandwidth is not None:
        marginal["mean_bandwidth"] = marginal["cov_bandwidth"] = cfg.bandwidth
        joint["cross_bandwidth"] = (cfg.bandwidth, cfg.bandwidth)
    elif cfg.bandwidth_grid is not None:
        # Absolute candidates, expressed on the predictor axis; the response
        # and cross searches scale them proportionally to their axis length.
        fractions = tuple(b / length_x for b in cfg.bandwidth_grid)
        marginal["mean_bandwidth_fractions"] = marginal["cov_bandwidth_fractions"] = fractions
        joint["cross_bandwidth_fractions"] = fractions
    return FlrConfig(FpcaConfig(**marginal), **joint)


def _interval(pair: tuple[float, float] | None) -> Interval | None:
    return Interval(pair[0], pair[1]) if pair is not None else None


_SAFE_ID = re.compile(r"[^A-Za-z0-9._-]")


def _subject_filename(subject_id: str, used: set[str]) -> str:
    base = _SAFE_ID.sub("_", subject_id) or "subject"
    name = f"{base}.csv"
    k = 1
    while name in used:
        name = f"{base}_{k}.csv"
        k += 1
    used.add(name)
    return name


def cmd_fit(cfg: RunConfig) -> int:
    x_sample = load_sample(cfg.x_path, cfg.x_columns, _interval(cfg.domain_x))
    y_sample = load_sample(cfg.y_path, cfg.y_columns, _interval(cfg.domain_y))
    model = fit_flr(x_sample, y_sample, _flr_config(cfg, x_sample.domain.length))
    save_model(model, os.path.join(cfg.out_dir, "model.json"))

    sx, sy = summarize(x_sample), summarize(y_sample)
    diagnostics = {
        "n_subjects_x": sx.n_subjects,
        "n_subjects_y": sy.n_subjects,
        "n_obs_x": sx.n_obs_total,
        "n_obs_y": sy.n_obs_total,
        "n_excluded_rows_x": x_sample.n_excluded,
        "n_excluded_rows_y": y_sample.n_excluded,
        "n_shared_subjects": model.n_shared_subjects,
        "bandwidths": {
            "mean_x": model.x.mean_bandwidth,
            "cov_x": model.x.cov_bandwidth,
            "mean_y": model.y.mean_bandwidth,
            "cov_y": model.y.cov_bandwidth,
            "cross": list(model.cross.bandwidths),
        },
        "n_components_x": model.x.n_components,
        "n_components_y": model.y.n_components,
        "selection_x": model.x.selection,
        "selection_y": model.y.selection,
        "eigenvalues_x": model.x.eigenvalues.tolist(),
        "eigenvalues_y": model.y.eigenvalues.tolist(),
        "noise_var_x": model.x.noise_var,
        "noise_var_y": model.y.noise_var,
        "r2": model.r2.value,
        "r2_integrated": model.r2.integrated,
        "flags": {
            "widened_windows": model.flags.widened_windows,
            "constant_fallbacks": model.flags.constant_fallbacks,
            "notes": model.flags.notes,
        },
    }
    with open(os.path.join(cfg.out_dir, "diagnostics.json"), "w") as fh:
        json.dump(diagnostics, fh, indent=1)
        fh.write("\n")
    _write_csv(
        os.path.join(cfg.out_dir, "r2_pointwise.csv"),
        ["t", "r2"],
        zip(
            (float(v) for v in model.grid_t.points),
            (float(v) for v in model.r2.pointwise),
        ),
    )
    _write_manifest(cfg)
    print(
        f"fit: {model.n_shared_subjects} shared subjects, "
        f"{model.x.n_components} predictor / {model.y.n_components} response "
        f"components, R2 {model.r2.value:.3f}"
    )
    return 0


def cmd_predict(cfg: RunConfig) -> int:
    model = load_model(cfg.model_path)
    sample = load_sample(
        cfg.x_path, cfg.x_columns, model.grid_s.interval
    )
    by_id = sample.by_id()
    requested = list(cfg.subjects) if cfg.subjects else [s.subject_id for s in sample.subjects]
    subjects = [
        by_id.get(sid) or SubjectRecord(sid, np.empty(0), np.empty(0)) for sid in requested
    ]
    batch = pace_scores_batch(model.x, subjects, model.sigma_km.shape[1])
    pred_dir = os.path.join(cfg.out_dir, "predictions")
    os.makedirs(pred_dir, exist_ok=True)
    used: set[str] = set()
    roster_rows = []
    t_grid = model.grid_t.points
    for i, (sid, subj) in enumerate(zip(requested, subjects)):
        pred = prediction_band(
            trajectory_from_scores(model, batch.scores[i], batch.omega[i]), cfg.level
        )
        flag = "no-data" if batch.no_data[i] else "ok"
        fname = _subject_filename(sid, used)
        _write_csv(
            os.path.join(pred_dir, fname),
            ["t", "yhat", "lo", "hi", "variance"],
            zip(
                (float(v) for v in t_grid),
                (float(v) for v in pred.values),
                (float(v) for v in pred.lower),
                (float(v) for v in pred.upper),
                (float(v) for v in pred.variance),
            ),
        )
        roster_rows.append([sid, subj.n_obs, flag, f"predictions/{fname}"])
    _write_csv(
        os.path.join(cfg.out_dir, "subjects.csv"),
        ["subject_id", "n_obs", "flag", "file"],
        roster_rows,
    )
    _write_manifest(cfg)
    n_fallback = sum(1 for r in roster_rows if r[2] == "no-data")
    print(
        f"predict: {len(roster_rows)} subjects at level {cfg.level}"
        + (f", {n_fallback} mean-curve fallback(s)" if n_fallback else "")
    )
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    domain = (0.0, 10.0)
    sim = SimConfig(
        n_subjects=cfg.n_subjects,
        n_new=cfg.n_new,
        sparsity=cfg.sparsity,
        score_dist=cfg.score_dist,
        seed=cfg.seed,
        domain=domain,
        n_runs=cfg.n_runs,
        max_failure_rate=cfg.max_failure_rate,
        fit=_flr_config(cfg, domain[1] - domain[0]),
    )
    if cfg.emit_data:
        rng = np.random.default_rng(cfg.seed)  # matches run 0's stream
        x_sample, y_sample, _ = gen_pair(sim, rng)
        save_sample(x_sample, os.path.join(cfg.out_dir, "x.csv"))
        save_sample(y_sample, os.path.join(cfg.out_dir, "y.csv"))
    report = run_monte_carlo(sim)
    save_run_results(report, os.path.join(cfg.out_dir, "runs.csv"))
    with open(os.path.join(cfg.out_dir, "summary.json"), "w") as fh:
        json.dump(report.summary(), fh, indent=1)
        fh.write("\n")
    _write_manifest(cfg)
    s = report.summary()
    print(
        f"simulate: {cfg.sparsity}/{cfg.score_dist}, {s['n_runs']} runs, "
        f"median relative error CE {s['median_rmspe_ce']:.4f} "
        f"vs IN {s['median_rmspe_in']:.4f}"
    )
    return 0


def cmd_report(cfg: RunConfig) -> int:
    model = load_model(cfg.model_path)
    s_grid = model.grid_s.points
    t_grid = model.grid_t.points
    _write_csv(
        os.path.join(cfg.out_dir, "mean_x.csv"),
        ["t", "value"],
        zip((float(v) for v in s_grid), (float(v) for v in model.x.mean)),
    )
    _write_csv(
        os.path.join(cfg.out_dir, "mean_y.csv"),
        ["t", "value"],
        zip((float(v) for v in t_grid), (float(v) for v in model.y.mean)),
    )
    for name, marginal, grid in (("x", model.x, s_grid), ("y", model.y, t_grid)):
        k = marginal.n_components
        fractions = marginal.eigensystem.variance_fractions()
        _write_csv(
            os.path.join(cfg.out_dir, f"scree_{name}.csv"),
            ["component", "eigenvalue", "variance_fraction"],
            (
                [i + 1, float(ev), float(fraction)]
                for i, (ev, fraction) in enumerate(zip(marginal.eigenvalues, fractions))
            ),
        )
        header = ["t"] + [f"pc{i + 1}" for i in range(k)]
        rows = (
            [float(t)] + [float(marginal.eigenfunctions[i, j]) for i in range(k)]
            for j, t in enumerate(grid)
        )
        _write_csv(os.path.join(cfg.out_dir, f"eigenfunctions_{name}.csv"), header, rows)
    _write_csv(
        os.path.join(cfg.out_dir, "beta.csv"),
        ["s", "t", "value"],
        (
            [float(s_grid[i]), float(t_grid[j]), float(model.beta[i, j])]
            for i in range(s_grid.size)
            for j in range(t_grid.size)
        ),
    )
    _write_csv(
        os.path.join(cfg.out_dir, "r2_pointwise.csv"),
        ["t", "r2"],
        zip((float(v) for v in t_grid), (float(v) for v in model.r2.pointwise)),
    )
    _write_manifest(cfg)
    print(f"report: wrote curves and surfaces for model {cfg.model_path}")
    return 0


def _add_fit_controls(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--grid-points", type=int, default=_FIT_DEFAULTS.n_grid, help="evaluation grid size"
    )
    p.add_argument(
        "--kernel",
        choices=["epanechnikov", "quartic"],
        default=_FIT_DEFAULTS.kernel,
        help="smoothing kernel",
    )
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--bandwidth", type=float, default=None, help="fixed bandwidth for all smoothers"
    )
    group.add_argument(
        "--bandwidth-grid",
        type=str,
        default=None,
        help="comma-separated candidate bandwidths (predictor-axis units)",
    )
    p.add_argument(
        "--bandwidth-objective",
        choices=["gcv", "loso-cv"],
        default=_FIT_DEFAULTS.bandwidth_objective,
        help="bandwidth selection objective",
    )
    p.add_argument("--ncomp", type=int, default=None, help="fixed component count")
    p.add_argument("--max-components", type=int, default=_FIT_DEFAULTS.max_components)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparseflr",
        description="Functional linear regression for sparse longitudinal data",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a regression from two long CSVs")
    p_fit.add_argument("--x", required=True, help="predictor observations CSV")
    p_fit.add_argument("--y", required=True, help="response observations CSV")
    p_fit.add_argument("--x-columns", default="subject_id,time,value")
    p_fit.add_argument("--y-columns", default="subject_id,time,value")
    p_fit.add_argument("--domain-x", type=float, nargs=2, metavar=("LO", "HI"))
    p_fit.add_argument("--domain-y", type=float, nargs=2, metavar=("LO", "HI"))
    _add_fit_controls(p_fit)
    p_fit.add_argument("--out", required=True, help="output directory")

    p_pred = sub.add_parser("predict", help="predict response curves for new subjects")
    p_pred.add_argument("--model", required=True, help="model.json from fit")
    p_pred.add_argument("--x", required=True, help="new predictor observations CSV")
    p_pred.add_argument("--x-columns", default="subject_id,time,value")
    p_pred.add_argument(
        "--subjects",
        default=None,
        help="comma-separated subject ids (default: all ids in the CSV); "
        "ids without data get the mean-curve fallback",
    )
    p_pred.add_argument("--level", type=float, default=0.95, help="band level in (0,1)")
    p_pred.add_argument("--out", required=True)

    p_sim = sub.add_parser("simulate", help="run the seeded Monte Carlo comparison")
    p_sim.add_argument("--sparsity", choices=["sparse", "dense"], default="sparse")
    p_sim.add_argument("--score-dist", choices=["normal", "mixture"], default="normal")
    p_sim.add_argument("--runs", type=int, default=100)
    p_sim.add_argument("--n", type=int, default=100, help="training subjects per run")
    p_sim.add_argument("--new", type=int, default=100, help="evaluation subjects per run")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--max-failure-rate", type=float, default=0.2)
    p_sim.add_argument(
        "--emit-data",
        action="store_true",
        help="also write run 0's training pair as x.csv / y.csv",
    )
    _add_fit_controls(p_sim)
    p_sim.add_argument("--out", required=True)

    p_rep = sub.add_parser("report", help="export a fitted model's curves as CSVs")
    p_rep.add_argument("--model", required=True)
    p_rep.add_argument("--out", required=True)
    return parser


def _run_config(args: argparse.Namespace) -> RunConfig:
    get = lambda name, default=None: getattr(args, name, default)
    bandwidth_grid = None
    if get("bandwidth_grid") is not None:
        try:
            bandwidth_grid = tuple(float(v) for v in args.bandwidth_grid.split(","))
        except ValueError:
            raise UsageError(f"cannot parse --bandwidth-grid {args.bandwidth_grid!r}")
        if not bandwidth_grid or any(b <= 0 for b in bandwidth_grid):
            raise UsageError("--bandwidth-grid needs positive values")
    if get("bandwidth") is not None and args.bandwidth <= 0:
        raise UsageError("--bandwidth must be positive")
    level = get("level", 0.95)
    if not 0.0 < level < 1.0:
        raise UsageError(f"--level must be in (0, 1), got {level}")
    seed = get("seed", 0)
    if seed is not None and seed < 0:
        raise UsageError("--seed must be nonnegative")
    grid_points = get("grid_points", _FIT_DEFAULTS.n_grid)
    max_components = get("max_components", _FIT_DEFAULTS.max_components)
    if grid_points < 2:
        raise UsageError("--grid-points must be at least 2")
    if max_components < 1:
        raise UsageError("--max-components must be at least 1")
    if get("ncomp") is not None and args.ncomp < 1:
        raise UsageError("--ncomp must be at least 1")
    if args.command == "simulate":
        if get("runs", 100) < 1:
            raise UsageError("--runs must be at least 1")
        if get("n", 100) < 2:
            raise UsageError("--n must be at least 2")
        if get("new", 100) < 1:
            raise UsageError("--new must be at least 1")
        if not 0.0 <= get("max_failure_rate", 0.2) < 1.0:
            raise UsageError("--max-failure-rate must be in [0, 1)")
    subjects = get("subjects")
    return RunConfig(
        command=args.command,
        out_dir=args.out,
        x_path=get("x"),
        y_path=get("y"),
        model_path=get("model"),
        x_columns=_parse_columns(get("x_columns", "subject_id,time,value")),
        y_columns=_parse_columns(get("y_columns", "subject_id,time,value")),
        domain_x=tuple(args.domain_x) if get("domain_x") else None,
        domain_y=tuple(args.domain_y) if get("domain_y") else None,
        grid_points=grid_points,
        kernel=get("kernel", _FIT_DEFAULTS.kernel),
        bandwidth=get("bandwidth"),
        bandwidth_grid=bandwidth_grid,
        bandwidth_objective=get("bandwidth_objective", _FIT_DEFAULTS.bandwidth_objective),
        ncomp=get("ncomp"),
        max_components=max_components,
        level=level,
        subjects=tuple(s.strip() for s in subjects.split(",")) if subjects else None,
        sparsity=get("sparsity", "sparse"),
        score_dist=get("score_dist", "normal"),
        n_runs=get("runs", 100),
        n_subjects=get("n", 100),
        n_new=get("new", 100),
        seed=seed if seed is not None else 0,
        max_failure_rate=get("max_failure_rate", 0.2),
        emit_data=get("emit_data", False),
    )


_COMMANDS = {
    "fit": cmd_fit,
    "predict": cmd_predict,
    "simulate": cmd_simulate,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        cfg = _run_config(args)
        os.makedirs(cfg.out_dir, exist_ok=True)
        return _COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except np.linalg.LinAlgError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
