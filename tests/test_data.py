"""Containers, pooling, summaries, and CSV round trips."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparseflr import (
    DataError,
    Interval,
    ParseError,
    RegularGrid,
    SchemaError,
    SparseFunctionalSample,
    SubjectRecord,
    load_sample,
    pooled_points,
    save_sample,
    summarize,
)

times_strategy = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    min_size=1,
    max_size=8,
)


def make_sample(rosters, domain=Interval(0.0, 10.0)):
    subjects = tuple(
        SubjectRecord(sid, np.asarray(t, float), np.asarray(v, float))
        for sid, t, v in rosters
    )
    return SparseFunctionalSample(domain, subjects)


class TestInterval:
    def test_rejects_degenerate_and_reversed(self):
        with pytest.raises(DataError):
            Interval(1.0, 1.0)
        with pytest.raises(DataError):
            Interval(2.0, 1.0)
        with pytest.raises(DataError):
            Interval(0.0, float("inf"))

    def test_contains_is_closed(self):
        iv = Interval(0.0, 10.0)
        assert iv.contains(0.0) and iv.contains(10.0)
        assert not iv.contains(-1e-9)
        assert iv.length == 10.0


class TestRegularGrid:
    def test_endpoints_and_spacing(self):
        g = RegularGrid(Interval(0.0, 10.0), 51)
        assert g.points[0] == 0.0 and g.points[-1] == 10.0
        assert np.allclose(np.diff(g.points), g.spacing)

    def test_needs_two_points(self):
        with pytest.raises(DataError):
            RegularGrid(Interval(0.0, 1.0), 1)

    def test_trapezoid_weights_sum_to_length(self):
        g = RegularGrid(Interval(2.0, 7.0), 13)
        assert abs(g.trapezoid_weights.sum() - 5.0) < 1e-12

    def test_integrate_exact_for_affine(self):
        g = RegularGrid(Interval(0.0, 10.0), 26)
        vals = 3.0 + 2.0 * g.points
        # trapezoid rule is exact on affine integrands
        assert abs(g.integrate(vals) - (30.0 + 100.0)) < 1e-9


class TestSubjectRecord:
    def test_sorts_by_time(self):
        r = SubjectRecord("a", np.array([3.0, 1.0, 2.0]), np.array([30.0, 10.0, 20.0]))
        assert np.array_equal(r.times, [1.0, 2.0, 3.0])
        assert np.array_equal(r.values, [10.0, 20.0, 30.0])
        assert r.n_obs == 3

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError):
            SubjectRecord("a", np.array([1.0, 2.0]), np.array([1.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            SubjectRecord("a", np.array([1.0]), np.array([np.nan]))
        with pytest.raises(DataError):
            SubjectRecord("a", np.array([np.inf]), np.array([1.0]))

    def test_empty_subject_allowed(self):
        r = SubjectRecord("a", np.array([]), np.array([]))
        assert r.n_obs == 0


class TestSample:
    def test_rejects_duplicate_ids(self):
        with pytest.raises(DataError):
            make_sample([("a", [1.0], [1.0]), ("a", [2.0], [2.0])])

    def test_rejects_out_of_domain(self):
        with pytest.raises(DataError):
            make_sample([("a", [11.0], [1.0])])

    def test_by_id(self):
        s = make_sample([("a", [1.0], [1.0]), ("b", [2.0], [2.0])])
        assert s.by_id()["b"].values[0] == 2.0

    @given(
        st.lists(
            st.tuples(st.integers(0, 10_000), times_strategy),
            min_size=0,
            max_size=6,
            unique_by=lambda pair: pair[0],
        )
    )
    def test_pooled_length_matches_roster(self, raw):
        rosters = [(f"s{k}", t, [0.0] * len(t)) for k, t in raw]
        pooled = pooled_points(make_sample(rosters))
        total = sum(len(t) for _, t, _ in rosters)
        assert pooled.times.size == total
        assert pooled.values.size == total
        assert pooled.subject_index.size == total

    def test_pooled_subject_index_alignment(self):
        s = make_sample([("a", [1.0, 2.0], [1.0, 4.0]), ("b", [3.0], [9.0])])
        pooled = pooled_points(s)
        assert np.array_equal(pooled.subject_index, [0, 0, 1])
        assert np.array_equal(pooled.values, [1.0, 4.0, 9.0])

    @staticmethod
    def looped_pooled_points(sample):
        """Reference: the per-subject loop the vectorized build replaces."""
        times, values, idx = [], [], []
        for i, s in enumerate(sample.subjects):
            times.append(s.times)
            values.append(s.values)
            idx.append(np.full(s.n_obs, i, dtype=np.intp))
        if not times:
            return np.empty(0), np.empty(0), np.empty(0, dtype=np.intp)
        return np.concatenate(times), np.concatenate(values), np.concatenate(idx)

    def test_pooled_matches_the_loop_bit_for_bit(self, sparse_pair):
        x_sample, y_sample, _ = sparse_pair
        ragged = make_sample([("a", [], []), ("b", [2.0, 2.0], [1.0, -1.0]), ("c", [], [])])
        empty = make_sample([])
        for sample in (x_sample, y_sample, ragged, empty):
            pooled = pooled_points(sample)
            for got, want in zip(
                (pooled.times, pooled.values, pooled.subject_index),
                self.looped_pooled_points(sample),
            ):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)


class TestSummarize:
    def test_counts(self):
        s = make_sample(
            [
                ("a", [1.0, 2.0, 3.0], [0.0, 0.0, 0.0]),
                ("b", [1.0, 2.0, 3.0, 4.0], [0.0] * 4),
                ("c", [1.0] * 5, [0.0] * 5),
            ]
        )
        summ = summarize(s)
        assert summ.n_subjects == 3
        assert summ.n_obs_total == 12
        assert summ.min_obs == 3
        assert summ.median_obs == 4
        assert summ.max_obs == 5

    def test_empty(self):
        summ = summarize(make_sample([]))
        assert summ.n_subjects == 0
        assert summ.min_obs is None


class TestCsv:
    def write(self, tmp_path, text, name="d.csv"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_groups_and_sorts(self, tmp_path):
        path = self.write(
            tmp_path,
            "subject_id,time,value\na,2,20\nb,1,10\na,1,10\na,3,30\n",
        )
        sample = load_sample(path, domain=Interval(0.0, 10.0))
        by_id = sample.by_id()
        assert by_id["a"].n_obs == 3
        assert np.array_equal(by_id["a"].times, [1.0, 2.0, 3.0])
        assert by_id["b"].n_obs == 1
        assert sample.n_excluded == 0

    def test_out_of_domain_rows_dropped_and_counted(self, tmp_path):
        path = self.write(tmp_path, "subject_id,time,value\na,1,1\na,99,2\n")
        sample = load_sample(path, domain=Interval(0.0, 10.0))
        assert sample.n_excluded == 1
        assert sample.by_id()["a"].n_obs == 1

    def test_subject_with_all_rows_excluded_stays_on_roster(self, tmp_path):
        path = self.write(tmp_path, "subject_id,time,value\na,1,1\nb,99,2\n")
        sample = load_sample(path, domain=Interval(0.0, 10.0))
        assert sample.by_id()["b"].n_obs == 0

    def test_missing_column_is_schema_error(self, tmp_path):
        path = self.write(tmp_path, "subject_id,when,value\na,1,1\n")
        with pytest.raises(SchemaError):
            load_sample(path)

    def test_non_numeric_cell_reports_row_number(self, tmp_path):
        path = self.write(tmp_path, "subject_id,time,value\na,1,1\na,oops,2\n")
        with pytest.raises(ParseError, match="row 3"):
            load_sample(path)

    def test_non_finite_cell_rejected(self, tmp_path):
        path = self.write(tmp_path, "subject_id,time,value\na,1,nan\n")
        with pytest.raises(ParseError):
            load_sample(path)

    def test_empty_subject_id_rejected(self, tmp_path):
        path = self.write(tmp_path, "subject_id,time,value\n,1,1\n")
        with pytest.raises(ParseError):
            load_sample(path)

    def test_header_only_is_data_error(self, tmp_path):
        path = self.write(tmp_path, "subject_id,time,value\n")
        with pytest.raises(DataError):
            load_sample(path)

    def test_inferred_domain_spans_observed_times(self, tmp_path):
        path = self.write(tmp_path, "subject_id,time,value\na,2,1\na,8,1\n")
        sample = load_sample(path)
        assert sample.domain.lo == 2.0 and sample.domain.hi == 8.0

    def test_degenerate_inferred_domain_rejected(self, tmp_path):
        path = self.write(tmp_path, "subject_id,time,value\na,5,1\nb,5,2\n")
        with pytest.raises(DataError):
            load_sample(path)

    def test_custom_column_names(self, tmp_path):
        path = self.write(tmp_path, "id,t,y\na,1,7\na,2,8\n")
        sample = load_sample(path, columns=("id", "t", "y"))
        assert sample.by_id()["a"].values[0] == 7.0

    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=10,
        )
    )
    def test_save_load_round_trip_is_exact(self, values, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("rt")
        times = np.linspace(0.0, 10.0, len(values))
        if len(values) == 1:
            times = np.array([5.0])
        original = make_sample([("s", times, values)])
        path = str(tmp / "s.csv")
        save_sample(original, path)
        loaded = load_sample(path, domain=original.domain)
        rec = loaded.by_id()["s"]
        # repr-based serialization must reproduce every float bit for bit
        assert np.array_equal(rec.times, np.sort(times))
        assert np.array_equal(rec.values, np.asarray(values, float)[np.argsort(times, kind="stable")])
