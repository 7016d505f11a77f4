"""Versioned JSON documents for fitted models.

One codec serves every section: a dataclass becomes an object with one key
per field, in declaration order, with arrays as nested lists and tuples as
lists; a ``RegularGrid`` is written flat as ``{lo, hi, n_points}``. Reading
goes by each field's type hint and checks each value's JSON type rather than
converting it: an ``int`` field takes a JSON integer, a ``float`` field any
JSON number, a ``bool`` field a JSON bool (never a number), a ``str`` field a
JSON string, a fixed-length tuple a JSON array of that length, and an array
only numbers. A missing key takes the field's default, and a key the
dataclass does not declare is rejected.

Floats serialize through Python's shortest-repr encoding, so a document
written and re-read reproduces every array bit for bit. Documents carry a
``schema_version``; loading an unknown version fails rather than guessing.
Version 2 is written. Version 1 documents still load: their flat ``config``
is nested into the v2 form (the marginal settings under ``marginal``) and
its ``ncomp_method``, always AIC or the retired in-sample CV, is dropped.
Keys of retired settings and fields are dropped from documents of either
version, whatever their values: ``config.marginal.eigen_floor`` and
``bin_threshold`` (now module constants of ``fpca``), ``config.cross_bandwidth``
and ``cross_bandwidth_fractions`` (the cross surface takes the marginal
covariance settings), and the top-level ``n_shared_subjects`` (a copy of
``cross.n_shared_subjects``); v1 held the four settings flat in ``config``.
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

__all__ = ["SCHEMA_VERSION", "save_model", "load_model", "model_document"]

SCHEMA_VERSION = 2

# Keys of retired settings, by the section that held them in v2.
_RETIRED_JOINT = ("cross_bandwidth", "cross_bandwidth_fractions")
_RETIRED_MARGINAL = ("eigen_floor", "bin_threshold")


def _encode(obj):
    if isinstance(obj, RegularGrid):
        return {"lo": obj.interval.lo, "hi": obj.interval.hi, "n_points": obj.n_points}
    if is_dataclass(obj):
        return {f.name: _encode(getattr(obj, f.name)) for f in fields(obj)}
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


def _holds_bool(doc, array: np.ndarray) -> bool:
    """Whether the nested JSON array ``doc`` holds a bool; ``array`` is
    ``np.asarray(doc)``, where a bool beside numbers became 0 or 1, so only
    the entries equal to 0 or 1 are looked up."""
    if array.ndim == 0:
        return False
    for index in zip(*np.nonzero((array == 0) | (array == 1))):
        item = doc
        for i in index:
            item = item[i]
        if type(item) is bool:
            return True
    return False


def _decode(hint, doc, name: str = "document"):
    """The value of type ``hint`` that ``_encode`` wrote as ``doc``, the
    entry ``name``; TypeError when its JSON type is not the one written."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # X | None
        return None if doc is None else _decode(args[0], doc, name)
    if hint is RegularGrid:
        doc = _section(hint, doc, ("lo", "hi", "n_points"))
        lo, hi = (_decode(float, doc[k], k) for k in ("lo", "hi"))
        return RegularGrid(Interval(lo, hi), _decode(int, doc["n_points"], "n_points"))
    if is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        doc = _section(hint, doc, [f.name for f in fields(hint)])
        return hint(**{k: _decode(hints[k], v, k) for k, v in doc.items()})
    if hint is np.ndarray:
        array = np.asarray(doc)
        if array.dtype.kind not in "fi" or _holds_bool(doc, array):
            raise TypeError(f"{name} is not an array of numbers")
        return np.asarray(array, dtype=float)
    if origin in (tuple, list):  # tuple[float, ...], tuple[float, float], list[str]
        if not isinstance(doc, list):
            raise TypeError(f"{name} is {doc!r}, not a JSON array")
        if origin is tuple and args[-1] is not Ellipsis:
            if len(doc) != len(args):
                raise TypeError(f"{name} has {len(doc)} entries, not {len(args)}")
            return tuple(_decode(a, v, name) for a, v in zip(args, doc))
        return origin(_decode(args[0], v, name) for v in doc)
    # A bool is no number, and an integer is also a float.
    accepted = (int, float) if hint is float else hint
    if isinstance(doc, bool) != (hint is bool) or not isinstance(doc, accepted):
        raise TypeError(f"{name} is {doc!r}, not a JSON {hint.__name__}")
    return float(doc) if hint is float else doc


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


def _drop_retired(doc: dict, version: int) -> None:
    """Delete the keys of retired settings and fields, whatever their values."""
    doc.pop("n_shared_subjects", None)
    config = doc.get("config")
    if not isinstance(config, dict):
        return
    marginal = config if version == 1 else config.get("marginal")
    for section, keys in ((config, _RETIRED_JOINT), (marginal, _RETIRED_MARGINAL)):
        if isinstance(section, dict):
            for key in keys:
                section.pop(key, None)


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
    broken document: a missing required key, an unknown key, a value of the
    wrong JSON type, or arrays whose shapes disagree with the grids and
    component counts.
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
    _drop_retired(doc, version)
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
