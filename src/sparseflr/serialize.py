"""Versioned JSON documents for fitted models.

Floats serialize through Python's shortest-repr encoding, so a document
written and re-read reproduces every array bit for bit. Documents carry a
``schema_version``; loading an unknown version fails rather than guessing.
NaN values (possible in the pointwise R-squared curve) use JSON's
non-strict NaN literal, which the standard library reads back symmetrically.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .data import Interval, RegularGrid
from .errors import DataError
from .flr import CrossCovarianceEstimate, FlrConfig, FlrModel, R2Summary
from .fpca import FpcaModel
from .smoothing import SmoothFlags

__all__ = ["SCHEMA_VERSION", "save_model", "load_model", "model_document"]

SCHEMA_VERSION = 1


def _grid_doc(grid: RegularGrid) -> dict:
    return {"lo": grid.interval.lo, "hi": grid.interval.hi, "n_points": grid.n_points}


def _grid_from(doc: dict) -> RegularGrid:
    return RegularGrid(Interval(float(doc["lo"]), float(doc["hi"])), int(doc["n_points"]))


def _marginal_doc(m: FpcaModel) -> dict:
    return {
        "grid": _grid_doc(m.grid),
        "mean": m.mean.tolist(),
        "surface": m.surface.tolist(),
        "noise_var": m.noise_var,
        "eigenvalues": m.eigenvalues.tolist(),
        "eigenfunctions": m.eigenfunctions.tolist(),
        "n_components": m.n_components,
        "mean_bandwidth": m.mean_bandwidth,
        "cov_bandwidth": m.cov_bandwidth,
        "selection": m.selection,
        "n_subjects": m.n_subjects,
    }


def _marginal_from(doc: dict) -> FpcaModel:
    return FpcaModel(
        grid=_grid_from(doc["grid"]),
        mean=np.asarray(doc["mean"], dtype=float),
        surface=np.asarray(doc["surface"], dtype=float),
        noise_var=float(doc["noise_var"]),
        eigenvalues=np.asarray(doc["eigenvalues"], dtype=float),
        eigenfunctions=np.asarray(doc["eigenfunctions"], dtype=float),
        n_components=int(doc["n_components"]),
        mean_bandwidth=float(doc["mean_bandwidth"]),
        cov_bandwidth=float(doc["cov_bandwidth"]),
        selection=dict(doc.get("selection", {})),
        n_subjects=int(doc.get("n_subjects", 0)),
    )


def _check_shapes(
    x: FpcaModel,
    y: FpcaModel,
    cross: CrossCovarianceEstimate,
    sigma_km: np.ndarray,
    beta: np.ndarray,
) -> None:
    """Raise ValueError unless every array agrees with the grids and counts."""
    n_s, n_t = x.grid.n_points, y.grid.n_points
    cross_grids = (cross.grid_s.n_points, cross.grid_t.n_points)
    expected = {
        "cross.surface": (cross.surface, (n_s, n_t)),
        "cross.surface on its own grids": (cross.surface, cross_grids),
        "sigma_km": (sigma_km, (y.n_components, x.n_components)),
        "beta": (beta, (n_s, n_t)),
    }
    for name, m in (("x", x), ("y", y)):
        n, r = m.grid.n_points, m.eigenvalues.size
        if not 1 <= m.n_components <= r:
            raise ValueError(f"{name}.n_components {m.n_components} is not in [1, {r}]")
        expected[f"{name}.mean"] = (m.mean, (n,))
        expected[f"{name}.surface"] = (m.surface, (n, n))
        expected[f"{name}.eigenvalues"] = (m.eigenvalues, (r,))
        expected[f"{name}.eigenfunctions"] = (m.eigenfunctions, (r, n))
    for name, (array, shape) in expected.items():
        if array.shape != shape:
            raise ValueError(f"{name} has shape {array.shape}, expected {shape}")


def _config_doc(c: FlrConfig) -> dict:
    return asdict(c)


def _config_from(doc: dict) -> FlrConfig:
    kwargs = dict(doc)
    for key in (
        "mean_bandwidth_fractions",
        "cov_bandwidth_fractions",
        "cross_bandwidth_fractions",
    ):
        if key in kwargs and kwargs[key] is not None:
            kwargs[key] = tuple(float(v) for v in kwargs[key])
    if kwargs.get("cross_bandwidth") is not None:
        kwargs["cross_bandwidth"] = tuple(float(v) for v in kwargs["cross_bandwidth"])
    return FlrConfig(**kwargs)


def model_document(model: FlrModel) -> dict:
    """Plain-dict form of a fitted regression model."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "flr_model",
        "x": _marginal_doc(model.x),
        "y": _marginal_doc(model.y),
        "cross": {
            "grid_s": _grid_doc(model.cross.grid_s),
            "grid_t": _grid_doc(model.cross.grid_t),
            "surface": model.cross.surface.tolist(),
            "bandwidths": list(model.cross.bandwidths),
            "n_pairs": model.cross.n_pairs,
            "n_shared_subjects": model.cross.n_shared_subjects,
            "binned": model.cross.binned,
        },
        "sigma_km": model.sigma_km.tolist(),
        "beta": model.beta.tolist(),
        "r2": {
            "value": model.r2.value,
            "value_raw": model.r2.value_raw,
            "pointwise": model.r2.pointwise.tolist(),
            "integrated": model.r2.integrated,
            "by_component": model.r2.by_component.tolist(),
            "by_pair": model.r2.by_pair.tolist(),
            "clip_excess": model.r2.clip_excess,
        },
        "config": _config_doc(model.config),
        "n_shared_subjects": model.n_shared_subjects,
        "flags": {
            "widened_windows": model.flags.widened_windows,
            "constant_fallbacks": model.flags.constant_fallbacks,
            "notes": list(model.flags.notes),
        },
    }


def save_model(model: FlrModel, path: str) -> None:
    """Write the model document; identical models produce identical bytes."""
    with open(path, "w") as fh:
        json.dump(model_document(model), fh, indent=1)
        fh.write("\n")


def load_model(path: str) -> FlrModel:
    """Read a model document back into a fitted-model object.

    Raises DataError on a missing/unknown schema version or a structurally
    broken document, including arrays whose shapes disagree with the grids
    and component counts.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path!r} is not valid JSON: {exc}") from exc
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DataError(
            f"unsupported model schema version {version!r} (expected {SCHEMA_VERSION})"
        )
    if doc.get("kind") != "flr_model":
        raise DataError(f"unsupported document kind {doc.get('kind')!r}")
    try:
        cross_doc = doc["cross"]
        cross = CrossCovarianceEstimate(
            grid_s=_grid_from(cross_doc["grid_s"]),
            grid_t=_grid_from(cross_doc["grid_t"]),
            surface=np.asarray(cross_doc["surface"], dtype=float),
            bandwidths=tuple(float(v) for v in cross_doc["bandwidths"]),
            n_pairs=int(cross_doc.get("n_pairs", 0)),
            n_shared_subjects=int(cross_doc.get("n_shared_subjects", 0)),
            binned=bool(cross_doc.get("binned", False)),
        )
        r2_doc = doc["r2"]
        r2 = R2Summary(
            value=float(r2_doc["value"]),
            value_raw=float(r2_doc["value_raw"]),
            pointwise=np.asarray(r2_doc["pointwise"], dtype=float),
            integrated=float(r2_doc["integrated"]),
            by_component=np.asarray(r2_doc["by_component"], dtype=float),
            by_pair=np.asarray(r2_doc["by_pair"], dtype=float),
            clip_excess=float(r2_doc["clip_excess"]),
        )
        flags_doc = doc.get("flags", {})
        flags = SmoothFlags(
            widened_windows=int(flags_doc.get("widened_windows", 0)),
            constant_fallbacks=int(flags_doc.get("constant_fallbacks", 0)),
            notes=list(flags_doc.get("notes", [])),
        )
        x = _marginal_from(doc["x"])
        y = _marginal_from(doc["y"])
        sigma_km = np.asarray(doc["sigma_km"], dtype=float)
        beta = np.asarray(doc["beta"], dtype=float)
        _check_shapes(x, y, cross, sigma_km, beta)
        return FlrModel(
            x=x,
            y=y,
            cross=cross,
            sigma_km=sigma_km,
            beta=beta,
            r2=r2,
            config=_config_from(doc["config"]),
            n_shared_subjects=int(doc.get("n_shared_subjects", 0)),
            flags=flags,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"model document {path!r} is malformed: {exc}") from exc
