"""Versioned JSON documents for fitted models.

One codec serves every section: a dataclass becomes an object with one key
per field, in declaration order, with arrays as nested lists and tuples as
lists; a ``RegularGrid`` is written flat as ``{lo, hi, n_points}``. Reading
goes by each field's type hint. A missing key takes the field's default, a
key the dataclass does not declare is rejected, and ``FpcaModel.flags`` is
not stored (the joint model's flags are), so loaded marginals get fresh
flags.

Floats serialize through Python's shortest-repr encoding, so a document
written and re-read reproduces every array bit for bit. Documents carry a
``schema_version``; loading an unknown version fails rather than guessing.
Version 2 is written. Version 1 documents still load: their flat ``config``
is nested into the v2 form (the marginal settings under ``marginal``) and
its ``ncomp_method``, always AIC or the retired in-sample CV, is dropped.
NaN values (possible in the pointwise R-squared curve) use JSON's
non-strict NaN literal, which the standard library reads back symmetrically.
"""

from __future__ import annotations

import json
import types
import typing
from dataclasses import fields, is_dataclass

import numpy as np

from .data import Interval, RegularGrid
from .errors import DataError
from .flr import FlrConfig, FlrModel
from .fpca import FpcaModel

__all__ = ["SCHEMA_VERSION", "save_model", "load_model", "model_document"]

SCHEMA_VERSION = 2

# Fields a document leaves out; decoding gives them their defaults.
_NOT_STORED = {FpcaModel: ("flags",)}


def _stored_fields(cls: type) -> list[str]:
    skip = _NOT_STORED.get(cls, ())
    return [f.name for f in fields(cls) if f.name not in skip]


def _encode(obj):
    if isinstance(obj, RegularGrid):
        return {"lo": obj.interval.lo, "hi": obj.interval.hi, "n_points": obj.n_points}
    if is_dataclass(obj):
        return {name: _encode(getattr(obj, name)) for name in _stored_fields(type(obj))}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (tuple, list)):
        return [_encode(v) for v in obj]
    return obj


def _section(cls: type, doc, names) -> dict:
    if not isinstance(doc, dict):
        raise TypeError(f"{cls.__name__} section is not an object")
    unknown = sorted(set(doc) - set(names))
    if unknown:
        raise ValueError(f"unknown {cls.__name__} key(s) {unknown}")
    return doc


def _decode(hint, doc):
    """The value of type ``hint`` that ``_encode`` wrote as ``doc``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # X | None
        return None if doc is None else _decode(args[0], doc)
    if hint is RegularGrid:
        doc = _section(hint, doc, ("lo", "hi", "n_points"))
        return RegularGrid(Interval(float(doc["lo"]), float(doc["hi"])), int(doc["n_points"]))
    if is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        doc = _section(hint, doc, _stored_fields(hint))
        return hint(**{k: _decode(hints[k], v) for k, v in doc.items()})
    if hint is np.ndarray:
        return np.asarray(doc, dtype=float)
    if origin in (tuple, list):  # homogeneous: tuple[float, ...], list[str]
        return origin(_decode(args[0], v) for v in doc)
    return (origin or hint)(doc)


def _check_shapes(model: FlrModel) -> None:
    """Raise ValueError unless every array agrees with the grids and counts."""
    x, y, cross, sigma_km, beta = model.x, model.y, model.cross, model.sigma_km, model.beta
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


def _nest_v1_config(doc: dict) -> None:
    """Rewrite a v1 document's flat ``config`` section in the v2 nesting."""
    config = doc.get("config")
    if not isinstance(config, dict):
        return
    if config.get("ncomp_method") in ("aic", "cv"):
        del config["ncomp_method"]
    own = [f.name for f in fields(FlrConfig) if f.name != "marginal"]
    marginal = {k: v for k, v in config.items() if k not in own}
    doc["config"] = {"marginal": marginal, **{k: config[k] for k in own if k in config}}


def model_document(model: FlrModel) -> dict:
    """Plain-dict form of a fitted regression model."""
    return {"schema_version": SCHEMA_VERSION, "kind": "flr_model", **_encode(model)}


def save_model(model: FlrModel, path: str) -> None:
    """Write the model document; identical models produce identical bytes."""
    with open(path, "w") as fh:
        json.dump(model_document(model), fh, indent=1)
        fh.write("\n")


def load_model(path: str) -> FlrModel:
    """Read a model document back into a fitted-model object.

    Raises DataError on a missing/unknown schema version or a structurally
    broken document: a missing required key, an unknown key, or arrays
    whose shapes disagree with the grids and component counts.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"model document {path!r} is not a JSON object")
    version = doc.pop("schema_version", None)
    if version not in (1, SCHEMA_VERSION):
        raise DataError(
            f"unsupported model schema version {version!r} (expected 1 or {SCHEMA_VERSION})"
        )
    if version == 1:
        _nest_v1_config(doc)
    kind = doc.pop("kind", None)
    if kind != "flr_model":
        raise DataError(f"unsupported document kind {kind!r}")
    try:
        model = _decode(FlrModel, doc)
        _check_shapes(model)
        return model
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"model document {path!r} is malformed: {exc}") from exc
