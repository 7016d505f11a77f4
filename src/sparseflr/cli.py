"""Command-line interface: fit, predict, simulate, report.

The argparse parser is the one declaration of every flag, and a command
reads the parsed namespace. A flag's default, choices and range check are
those of the library type or constant that owns the setting. Every
command writes that namespace, its full effective configuration (defaults
included) keyed by flag destination, with the package version into
``run_manifest.json`` in the output directory, so a result can be
reproduced from the manifest alone. Outputs carry no timestamps; rerunning
a command with the same inputs and seed produces byte-identical files.

Exit codes: 0 success, 2 usage error (flag misuse, a malformed column spec
included), 3 unusable input data, 4 numerical failure during fitting.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

import numpy as np

from .data import (
    DEFAULT_COLUMNS,
    Interval,
    SubjectRecord,
    _write_csv,
    load_sample,
    save_sample,
    summarize,
)
from .errors import DataError, FitError
from .flr import (
    BAND_LEVEL,
    FlrConfig,
    _band_quantile,
    fit_flr,
    prediction_band,
    trajectory_from_scores,
)
from .fpca import FpcaConfig, pace_scores_batch
from .serialize import load_model, save_model
from .simulation import (
    SCORE_DISTS,
    SPARSITIES,
    SimConfig,
    gen_pair,
    run_monte_carlo,
    save_run_results,
)
from .smoothing import BANDWIDTH_OBJECTIVES, KERNEL_NAMES

USAGE_ERROR = 2
DATA_ERROR = 3
NUMERICAL_ERROR = 4


@functools.cache
def _version() -> str:
    """The installed package version, looked up on first use: importing
    ``importlib.metadata`` costs more than the rest of ``import
    sparseflr.cli``."""
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("sparseflr")
    except PackageNotFoundError:  # running from a source tree
        return "0.0.0+src"


class _VersionAction(argparse.Action):
    """``--version``, printing the package version, which it looks up only
    when given."""

    def __init__(self, option_strings, dest=argparse.SUPPRESS,
                 help="show program's version number and exit"):
        super().__init__(option_strings, dest, nargs=0, default=argparse.SUPPRESS, help=help)

    def __call__(self, parser, namespace, values, option_string=None):
        print(f"{parser.prog} {_version()}")
        parser.exit()


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def _write_columns(path: str, header: list[str], *columns) -> None:
    """A CSV whose rows run along equal-length columns of floats."""
    _write_csv(path, header, zip(*(map(float, c) for c in columns)))


def _names(spec: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in spec.split(","))


def _floats(spec: str) -> tuple[float, ...]:
    return tuple(float(v) for v in spec.split(","))


def _columns(spec: str) -> tuple[str, ...]:
    names = _names(spec)
    if len(names) != 3 or not all(names):
        raise argparse.ArgumentTypeError(f"{spec!r} is not three comma-separated column names")
    return names


def _flr_config(args: argparse.Namespace, length_x: float) -> FlrConfig:
    marginal: dict = {
        "n_grid": args.grid_points,
        "kernel": args.kernel,
        "bandwidth_objective": args.bandwidth_objective,
        "max_components": args.max_components,
    }
    if args.bandwidth is not None:
        marginal["mean_bandwidth"] = marginal["cov_bandwidth"] = args.bandwidth
    elif args.bandwidth_grid is not None:
        # Absolute candidates, expressed on the predictor axis; the response
        # and cross searches scale them proportionally to their axis length.
        fractions = tuple(b / length_x for b in args.bandwidth_grid)
        marginal["mean_bandwidth_fractions"] = marginal["cov_bandwidth_fractions"] = fractions
    return FlrConfig(FpcaConfig(**marginal), ncomp_x=args.ncomp, ncomp_y=args.ncomp)


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


def cmd_fit(args: argparse.Namespace) -> int:
    x_sample = load_sample(args.x_path, args.x_columns, _interval(args.domain_x))
    y_sample = load_sample(args.y_path, args.y_columns, _interval(args.domain_y))
    model = fit_flr(x_sample, y_sample, _flr_config(args, x_sample.domain.length))
    save_model(model, os.path.join(args.out_dir, "model.json"))

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
    _write_json(os.path.join(args.out_dir, "diagnostics.json"), diagnostics)
    _write_columns(
        os.path.join(args.out_dir, "r2_pointwise.csv"),
        ["t", "r2"],
        model.grid_t.points,
        model.r2.pointwise,
    )
    print(
        f"fit: {model.n_shared_subjects} shared subjects, "
        f"{model.x.n_components} predictor / {model.y.n_components} response "
        f"components, R2 {model.r2.value:.3f}"
    )
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(args.model_path)
    sample = load_sample(args.x_path, args.x_columns, model.grid_s.interval)
    by_id = sample.by_id()
    requested = list(args.subjects) if args.subjects else [s.subject_id for s in sample.subjects]
    subjects = [
        by_id.get(sid) or SubjectRecord(sid, np.empty(0), np.empty(0)) for sid in requested
    ]
    batch = pace_scores_batch(model.x, subjects, model.sigma_km.shape[1])
    pred_dir = os.path.join(args.out_dir, "predictions")
    os.makedirs(pred_dir, exist_ok=True)
    used: set[str] = set()
    roster_rows = []
    for i, (sid, subj) in enumerate(zip(requested, subjects)):
        pred = prediction_band(
            trajectory_from_scores(model, batch.scores[i], batch.omega[i]), args.level
        )
        flag = "no-data" if batch.no_data[i] else "ok"
        fname = _subject_filename(sid, used)
        _write_columns(
            os.path.join(pred_dir, fname),
            ["t", "yhat", "lo", "hi", "variance"],
            model.grid_t.points, pred.values, pred.lower, pred.upper, pred.variance,
        )
        roster_rows.append([sid, subj.n_obs, flag, f"predictions/{fname}"])
    _write_csv(
        os.path.join(args.out_dir, "subjects.csv"),
        ["subject_id", "n_obs", "flag", "file"],
        roster_rows,
    )
    n_fallback = sum(1 for r in roster_rows if r[2] == "no-data")
    print(
        f"predict: {len(roster_rows)} subjects at level {args.level}"
        + (f", {n_fallback} mean-curve fallback(s)" if n_fallback else "")
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    lo, hi = SimConfig().domain
    sim = SimConfig(
        n_subjects=args.n_subjects,
        n_new=args.n_new,
        sparsity=args.sparsity,
        score_dist=args.score_dist,
        seed=args.seed,
        n_runs=args.n_runs,
        max_failure_rate=args.max_failure_rate,
        fit=_flr_config(args, hi - lo),
    )
    if args.emit_data:
        rng = np.random.default_rng(args.seed)  # matches run 0's stream
        x_sample, y_sample, _ = gen_pair(sim, rng)
        save_sample(x_sample, os.path.join(args.out_dir, "x.csv"))
        save_sample(y_sample, os.path.join(args.out_dir, "y.csv"))
    report = run_monte_carlo(sim)
    save_run_results(report, os.path.join(args.out_dir, "runs.csv"))
    s = report.summary()
    _write_json(os.path.join(args.out_dir, "summary.json"), s)
    print(
        f"simulate: {args.sparsity}/{args.score_dist}, {s['n_runs']} runs, "
        f"median relative error CE {s['median_rmspe_ce']:.4f} "
        f"vs IN {s['median_rmspe_in']:.4f}"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    model = load_model(args.model_path)
    s_grid = model.grid_s.points
    t_grid = model.grid_t.points
    for name, marginal, grid in (("x", model.x, s_grid), ("y", model.y, t_grid)):
        _write_columns(
            os.path.join(args.out_dir, f"mean_{name}.csv"), ["t", "value"], grid, marginal.mean
        )
        k = marginal.n_components
        fractions = marginal.eigensystem.variance_fractions()
        _write_csv(
            os.path.join(args.out_dir, f"scree_{name}.csv"),
            ["component", "eigenvalue", "variance_fraction"],
            (
                [i + 1, ev, fraction]
                for i, (ev, fraction) in enumerate(zip(marginal.eigenvalues, fractions))
            ),
        )
        _write_columns(
            os.path.join(args.out_dir, f"eigenfunctions_{name}.csv"),
            ["t"] + [f"pc{i + 1}" for i in range(k)],
            grid,
            *marginal.eigenfunctions[:k],
        )
    _write_columns(
        os.path.join(args.out_dir, "beta.csv"),
        ["s", "t", "value"],
        np.repeat(s_grid, t_grid.size),
        np.tile(t_grid, s_grid.size),
        model.beta.ravel(),
    )
    _write_columns(
        os.path.join(args.out_dir, "r2_pointwise.csv"), ["t", "r2"], t_grid, model.r2.pointwise
    )
    print(f"report: wrote curves and surfaces for model {args.model_path}")
    return 0


def _add_setting(p: argparse.ArgumentParser, flag: str, owner, name: str, convert=float, **kw):
    """Add ``flag`` for the argument ``name`` of ``owner``, a config or a
    function. Its text goes through ``convert``, then ``owner(name=value)``,
    whose DataError is a usage error. Unless given, the default is the
    config field's."""

    def parse(text: str):
        try:
            value = convert(text)
            owner(**{name: value})
        except DataError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        except ValueError:
            raise argparse.ArgumentTypeError(f"cannot parse {text!r}") from None
        return value

    if "default" not in kw:
        kw["default"] = getattr(owner(), name)
    p.add_argument(flag, type=parse, **kw)


def _add_fit_controls(p: argparse.ArgumentParser) -> None:
    _add_setting(p, "--grid-points", FpcaConfig, "n_grid", int, help="evaluation grid size")
    _add_setting(
        p, "--kernel", FpcaConfig, "kernel", str, choices=KERNEL_NAMES, help="smoothing kernel"
    )
    group = p.add_mutually_exclusive_group()
    _add_setting(
        group, "--bandwidth", FpcaConfig, "cov_bandwidth", help="fixed bandwidth for all smoothers"
    )
    _add_setting(
        group, "--bandwidth-grid", FpcaConfig, "cov_bandwidth_fractions", _floats, default=None,
        help="comma-separated candidate bandwidths (predictor-axis units)",
    )
    _add_setting(
        p, "--bandwidth-objective", FpcaConfig, "bandwidth_objective", str,
        choices=BANDWIDTH_OBJECTIVES, help="bandwidth selection objective",
    )
    _add_setting(p, "--ncomp", FlrConfig, "ncomp_x", int, help="fixed component count")
    _add_setting(p, "--max-components", FpcaConfig, "max_components", int)


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; each command reads its parsed flags, whose
    destinations are also the keys of its ``run_manifest.json``."""
    parser = argparse.ArgumentParser(
        prog="sparseflr",
        description="Functional linear regression for sparse longitudinal data",
    )
    parser.add_argument("--version", action=_VersionAction)
    sub = parser.add_subparsers(dest="command", required=True)
    columns = {"type": _columns, "default": DEFAULT_COLUMNS}

    p_fit = sub.add_parser("fit", help="fit a regression from two long CSVs")
    p_fit.add_argument("--x", dest="x_path", required=True, help="predictor observations CSV")
    p_fit.add_argument("--y", dest="y_path", required=True, help="response observations CSV")
    p_fit.add_argument("--x-columns", **columns)
    p_fit.add_argument("--y-columns", **columns)
    p_fit.add_argument("--domain-x", type=float, nargs=2, metavar=("LO", "HI"))
    p_fit.add_argument("--domain-y", type=float, nargs=2, metavar=("LO", "HI"))
    _add_fit_controls(p_fit)
    p_fit.add_argument("--out", dest="out_dir", required=True, help="output directory")

    p_pred = sub.add_parser("predict", help="predict response curves for new subjects")
    p_pred.add_argument("--model", dest="model_path", required=True, help="model.json from fit")
    p_pred.add_argument("--x", dest="x_path", required=True, help="new predictor observations CSV")
    p_pred.add_argument("--x-columns", **columns)
    p_pred.add_argument(
        "--subjects",
        type=lambda spec: _names(spec) if spec else None,
        default=None,
        help="comma-separated subject ids (default: all ids in the CSV); "
        "ids without data get the mean-curve fallback",
    )
    _add_setting(p_pred, "--level", _band_quantile, "level", default=BAND_LEVEL, help="band level")
    p_pred.add_argument("--out", dest="out_dir", required=True)

    p_sim = sub.add_parser("simulate", help="run the seeded Monte Carlo comparison")
    _add_setting(p_sim, "--sparsity", SimConfig, "sparsity", str, choices=SPARSITIES)
    _add_setting(p_sim, "--score-dist", SimConfig, "score_dist", str, choices=SCORE_DISTS)
    _add_setting(p_sim, "--runs", SimConfig, "n_runs", int, dest="n_runs")
    _add_setting(
        p_sim, "--n", SimConfig, "n_subjects", int, dest="n_subjects",
        help="training subjects per run",
    )
    _add_setting(
        p_sim, "--new", SimConfig, "n_new", int, dest="n_new", help="evaluation subjects per run"
    )
    _add_setting(p_sim, "--seed", SimConfig, "seed", int)
    _add_setting(p_sim, "--max-failure-rate", SimConfig, "max_failure_rate")
    p_sim.add_argument(
        "--emit-data",
        action="store_true",
        help="also write run 0's training pair as x.csv / y.csv",
    )
    _add_fit_controls(p_sim)
    p_sim.add_argument("--out", dest="out_dir", required=True)

    p_rep = sub.add_parser("report", help="export a fitted model's curves as CSVs")
    p_rep.add_argument("--model", dest="model_path", required=True)
    p_rep.add_argument("--out", dest="out_dir", required=True)
    return parser


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
        os.makedirs(args.out_dir, exist_ok=True)
        code = _COMMANDS[args.command](args)
        manifest = {**vars(args), "package_version": _version()}
        _write_json(os.path.join(args.out_dir, "run_manifest.json"), manifest)
        return code
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
