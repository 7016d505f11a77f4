"""Containers and I/O for sparse longitudinal samples.

A sample is a collection of subjects, each carrying an irregular set of
(time, value) observations on a common closed interval. Nothing here assumes
a minimum number of observations per subject: subjects with zero points are
legal and are kept, because downstream prediction falls back to the
population mean curve for them.

The on-disk format is long CSV, one observation per row, with configurable
column names (default ``subject_id, time, value``).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DataError, ParseError, SchemaError

__all__ = [
    "Interval",
    "RegularGrid",
    "SubjectRecord",
    "SparseFunctionalSample",
    "PooledPoints",
    "SampleSummary",
    "load_sample",
    "save_sample",
    "pooled_points",
    "summarize",
]


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with lo strictly below hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DataError(f"interval endpoints must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise DataError(f"interval requires lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, t: np.ndarray | float) -> np.ndarray | bool:
        return (np.asarray(t) >= self.lo) & (np.asarray(t) <= self.hi)


@dataclass(frozen=True)
class RegularGrid:
    """Equispaced evaluation grid on an interval, endpoints included.

    Carries its trapezoid quadrature weights; every integral in the package
    is a dot product against these weights, so quadrature conventions cannot
    drift between estimation and evaluation code.
    """

    interval: Interval
    n_points: int

    def __post_init__(self):
        if self.n_points < 2:
            raise DataError(f"grid needs at least 2 points, got {self.n_points}")

    @property
    def spacing(self) -> float:
        return self.interval.length / (self.n_points - 1)

    @cached_property
    def points(self) -> np.ndarray:
        return np.linspace(self.interval.lo, self.interval.hi, self.n_points)

    @cached_property
    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.n_points, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def integrate(self, values: np.ndarray) -> float:
        """Trapezoid integral of values sampled on this grid (last axis)."""
        return float(np.asarray(values) @ self.trapezoid_weights)


@dataclass(frozen=True)
class SubjectRecord:
    """One subject's observations, sorted by time (ties kept, stable order)."""

    subject_id: str
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.ndim != 1 or t.shape != v.shape:
            raise DataError(
                f"subject {self.subject_id!r}: times and values must be equal-length "
                f"1-d arrays, got shapes {t.shape} and {v.shape}"
            )
        if t.size and not (np.isfinite(t).all() and np.isfinite(v).all()):
            raise DataError(f"subject {self.subject_id!r}: non-finite time or value")
        order = np.argsort(t, kind="stable")
        object.__setattr__(self, "times", t[order])
        object.__setattr__(self, "values", v[order])

    @property
    def n_obs(self) -> int:
        return int(self.times.size)


class PooledPoints(NamedTuple):
    """All observations of a sample flattened into parallel arrays."""

    times: np.ndarray
    values: np.ndarray
    subject_index: np.ndarray


@dataclass(frozen=True)
class SampleSummary:
    n_subjects: int
    n_obs_total: int
    min_obs: int | None
    median_obs: float | None
    max_obs: int | None
    time_min: float | None
    time_max: float | None


@dataclass(frozen=True)
class SparseFunctionalSample:
    """A roster of subjects observed on a shared domain.

    Attributes
    ----------
    domain : Interval
        Closed interval containing every observation time.
    subjects : tuple of SubjectRecord
        Roster order is preserved from construction. Subject ids are unique.
    n_excluded : int
        Rows dropped at load time because their time fell outside the domain
        (0 for samples built in memory).
    """

    domain: Interval
    subjects: tuple[SubjectRecord, ...]
    n_excluded: int = 0

    def __post_init__(self):
        subjects = tuple(self.subjects)
        object.__setattr__(self, "subjects", subjects)
        ids = [s.subject_id for s in subjects]
        if len(set(ids)) != len(ids):
            seen, dups = set(), set()
            for i in ids:
                (dups if i in seen else seen).add(i)
            raise DataError(f"duplicate subject ids: {sorted(dups)!r}")
        for s in subjects:
            if s.n_obs and not (
                self.domain.contains(s.times[0]) and self.domain.contains(s.times[-1])
            ):
                raise DataError(
                    f"subject {s.subject_id!r} has observation times outside "
                    f"[{self.domain.lo}, {self.domain.hi}]"
                )

    @property
    def n_subjects(self) -> int:
        return len(self.subjects)

    def by_id(self) -> dict[str, SubjectRecord]:
        return {s.subject_id: s for s in self.subjects}


def pooled_points(sample: SparseFunctionalSample) -> PooledPoints:
    """Flatten a sample into (times, values, subject_index) arrays.

    ``subject_index`` maps each observation back to its position in
    ``sample.subjects``. Zero-observation subjects contribute nothing but
    keep their roster slot, so indices stay aligned with the roster.
    """
    subjects = sample.subjects
    counts = np.array([s.n_obs for s in subjects], dtype=np.intp)
    return PooledPoints(
        np.concatenate([np.empty(0)] + [s.times for s in subjects]),
        np.concatenate([np.empty(0)] + [s.values for s in subjects]),
        np.repeat(np.arange(len(subjects), dtype=np.intp), counts),
    )


def summarize(sample: SparseFunctionalSample) -> SampleSummary:
    """Roster-level counts; count fields are None for an empty roster."""
    counts = [s.n_obs for s in sample.subjects]
    pooled = pooled_points(sample)
    if not counts:
        return SampleSummary(0, 0, None, None, None, None, None)
    have_any = pooled.times.size > 0
    return SampleSummary(
        n_subjects=len(counts),
        n_obs_total=int(sum(counts)),
        min_obs=int(min(counts)),
        median_obs=float(np.median(counts)),
        max_obs=int(max(counts)),
        time_min=float(pooled.times.min()) if have_any else None,
        time_max=float(pooled.times.max()) if have_any else None,
    )


DEFAULT_COLUMNS = ("subject_id", "time", "value")


def _parse_cell(raw: str, column: str, row_number: int) -> float:
    try:
        x = float(raw)
    except (TypeError, ValueError):
        raise ParseError(
            f"row {row_number}: column {column!r} has non-numeric value {raw!r}"
        ) from None
    if not math.isfinite(x):
        raise ParseError(f"row {row_number}: column {column!r} has non-finite value {raw!r}")
    return x


def load_sample(
    path: str,
    columns: Sequence[str] = DEFAULT_COLUMNS,
    domain: Interval | None = None,
) -> SparseFunctionalSample:
    """Read a long-format CSV into a sample.

    Parameters
    ----------
    path : str
        CSV file with a header row. Extra columns are ignored.
    columns : sequence of 3 str
        Names of the (id, time, value) columns.
    domain : Interval, optional
        Rows with times outside the domain are dropped and counted in the
        result's ``n_excluded``; subjects whose rows are all dropped stay on
        the roster with zero observations. When omitted, the domain is
        inferred as [min time, max time] over the file.

    Raises
    ------
    SchemaError
        A named column is missing from the header.
    ParseError
        A time or value cell is not a finite number (row number reported).
    DataError
        The file holds no data rows, or an inferred domain would be
        degenerate (all times equal).
    """
    id_col, time_col, value_col = columns
    per_subject: dict[str, list[tuple[float, float]]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in (id_col, time_col, value_col) if c not in header]
        if missing:
            raise SchemaError(f"missing column(s) {missing!r} in {path!r} (header: {header!r})")
        n_rows = 0
        for row_number, row in enumerate(reader, start=2):
            n_rows += 1
            sid = row[id_col]
            if sid is None or sid == "":
                raise ParseError(f"row {row_number}: empty subject id")
            t = _parse_cell(row[time_col], time_col, row_number)
            v = _parse_cell(row[value_col], value_col, row_number)
            per_subject.setdefault(sid, []).append((t, v))
    if n_rows == 0:
        raise DataError(f"no data rows in {path!r}")

    if domain is None:
        all_times = [t for obs in per_subject.values() for t, _ in obs]
        lo, hi = min(all_times), max(all_times)
        if not lo < hi:
            raise DataError(f"cannot infer a domain: all times equal {lo}")
        domain = Interval(lo, hi)

    n_excluded = 0
    subjects = []
    for sid, obs in per_subject.items():
        kept = [(t, v) for t, v in obs if domain.lo <= t <= domain.hi]
        n_excluded += len(obs) - len(kept)
        times = np.array([t for t, _ in kept], dtype=float)
        values = np.array([v for _, v in kept], dtype=float)
        subjects.append(SubjectRecord(sid, times, values))
    return SparseFunctionalSample(domain, tuple(subjects), n_excluded=n_excluded)


def save_sample(
    sample: SparseFunctionalSample,
    path: str,
    columns: Sequence[str] = DEFAULT_COLUMNS,
) -> None:
    """Write a sample back to long CSV.

    Floats are written with ``repr`` so a load/save/load cycle reproduces
    times and values bit for bit. Zero-observation subjects leave no rows;
    their ids are not representable in long format.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(columns))
        for s in sample.subjects:
            for t, v in zip(s.times, s.values):
                writer.writerow([s.subject_id, repr(float(t)), repr(float(v))])
