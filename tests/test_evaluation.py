"""Identification rate, Student's t, confusion matrices, mode comparisons."""

import numpy as np
import pytest

from emosid.errors import ValidationError
from emosid.pipeline import PipelineConfig, evaluation_report
from emosid.evaluation import (
    PerformanceTable,
    TrialRecord,
    compare_two,
    confusion_matrix,
    sid_performance,
    students_t,
)


def make_records(n_correct, n_total, emotion="neutral", mode="gmm",
                 condition="normal"):
    recs = []
    for k in range(n_total):
        predicted = "spk0" if k < n_correct else "spk1"
        recs.append(TrialRecord(utterance_id=f"u{k}", true_speaker="spk0",
                                predicted_speaker=predicted, emotion=emotion,
                                condition=condition, classifier_mode=mode))
    return recs


class TestSidPerformance:
    def test_46_of_50_is_92(self):
        table = sid_performance(make_records(46, 50))
        assert table.cells[("neutral", "gmm", "normal")]["rate"] == 92.0

    def test_all_correct(self):
        table = sid_performance(make_records(10, 10))
        assert table.cells[("neutral", "gmm", "normal")]["rate"] == 100.0

    def test_none_correct(self):
        table = sid_performance(make_records(0, 7))
        assert table.cells[("neutral", "gmm", "normal")]["rate"] == 0.0

    def test_empty_cells_absent(self):
        table = sid_performance(make_records(3, 4, emotion="angry"))
        assert ("neutral", "gmm", "normal") not in table.cells
        assert ("angry", "gmm", "normal") in table.cells

    def test_average_is_trial_weighted(self):
        recs = make_records(10, 10, emotion="neutral") + make_records(0, 30, emotion="angry")
        table = sid_performance(recs)
        assert abs(table.averages[("gmm", "normal")] - 25.0) < 1e-9

    def test_concatenation_combines_by_weight(self):
        r1 = make_records(8, 10)
        r2 = make_records(1, 30)
        combined = sid_performance(r1 + r2).averages[("gmm", "normal")]
        a = sid_performance(r1).averages[("gmm", "normal")]
        b = sid_performance(r2).averages[("gmm", "normal")]
        assert abs(combined - (a * 10 + b * 30) / 40) < 1e-9

    def test_empty_records(self):
        with pytest.raises(ValidationError):
            sid_performance([])


class TestStudentsT:
    def test_identical_samples(self):
        r = students_t([80, 82, 84], [80, 82, 84])
        assert r.t_value == 0.0 and not r.significant_at_0_05

    def test_derived_fixture_t_equals_5(self):
        r = students_t([80, 82, 84], [70, 72, 74])
        assert abs(r.mean1 - 82.0) < 1e-12
        assert abs(r.mean2 - 72.0) < 1e-12
        assert abs(r.sd1 - 2.0) < 1e-12 and abs(r.sd2 - 2.0) < 1e-12
        assert abs(r.sd_pooled - 2.0) < 1e-12
        assert abs(r.t_value - 5.0) < 1e-9
        assert r.significant_at_0_05

    def test_below_critical_value_insignificant(self):
        # t just under the one-sided 1.645 threshold (the report-shape case)
        r = students_t([80.0, 81.0, 82.0], [79.8, 80.8, 81.8])
        assert 0 < r.t_value < 1.645
        assert not r.significant_at_0_05

    def test_antisymmetric(self):
        a, b = [80, 85, 90], [70, 72, 74]
        assert students_t(a, b).t_value == -students_t(b, a).t_value

    def test_shift_invariant(self):
        a, b = [80.0, 85.0, 90.0], [70.0, 72.0, 74.0]
        t0 = students_t(a, b).t_value
        t1 = students_t([x + 3.5 for x in a], [x + 3.5 for x in b]).t_value
        assert abs(t0 - t1) < 1e-12

    def test_zero_sd_equal_means(self):
        r = students_t([5, 5, 5], [5, 5, 5])
        assert r.t_value == 0.0 and not r.infinite

    def test_zero_sd_unequal_means_infinite(self):
        r = students_t([5, 5, 5], [4, 4, 4])
        assert r.infinite and np.isinf(r.t_value) and r.t_value > 0

    def test_unequal_sizes_rejected(self):
        with pytest.raises(ValidationError):
            students_t([1, 2, 3], [1, 2])


class TestConfusionMatrix:
    def _recs(self, pairs, emotion="neutral"):
        return [TrialRecord(f"u{i}", t, p, emotion) for i, (t, p) in enumerate(pairs)]

    def test_perfect_classifier_diagonal(self):
        recs = self._recs([("a", "a"), ("b", "b"), ("a", "a")])
        out = confusion_matrix(recs)
        np.testing.assert_array_equal(out["matrices"]["neutral"], [[2, 0], [0, 1]])

    def test_total_mass_equals_record_count(self):
        recs = self._recs([("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")])
        out = confusion_matrix(recs)
        assert out["matrices"]["neutral"].sum() == 4

    def test_always_predicts_first_column(self):
        recs = self._recs([("a", "a"), ("b", "a"), ("c", "a")])
        mat = confusion_matrix(recs)["matrices"]["neutral"]
        assert mat[:, 0].sum() == 3 and mat[:, 1:].sum() == 0

    def test_row_sums_are_per_speaker_trials(self):
        recs = self._recs([("a", "b")] * 5 + [("b", "b")] * 3)
        mat = confusion_matrix(recs)["matrices"]["neutral"]
        np.testing.assert_array_equal(mat.sum(axis=1), [5, 3])

    def test_split_by_emotion(self):
        recs = (self._recs([("a", "a")], emotion="happy")
                + self._recs([("a", "b")], emotion="sad"))
        out = confusion_matrix(recs)
        assert set(out["matrices"]) == {"happy", "sad"}


def _fixture_table(rate, mode):
    """Single-cell PerformanceTable carrying a published average as fixture."""
    return PerformanceTable(
        cells={("all", mode, "normal"): {"rate": rate, "correct": 0, "trials": 0}},
        averages={(mode, "normal"): rate})


class TestCompareModes:
    def test_identical_tables_zero_delta(self):
        t = _fixture_table(80.0, "gmm")
        out = compare_two(t, t, "gmm", "gmm")
        assert out["average"]["absolute_delta"] == 0.0
        assert out["average"]["relative_improvement_pct"] == 0.0

    def test_published_17_9_percent(self):
        # cascade 81.7 vs GMM-alone 69.3: the relative convention
        out = compare_two(_fixture_table(81.7, "cascade"), _fixture_table(69.3, "gmm"))
        assert abs(out["average"]["relative_improvement_pct"] - 17.9) < 0.05

    def test_published_7_2_percent(self):
        # cascade 81.7 vs DNN-alone 76.2
        out = compare_two(_fixture_table(81.7, "cascade"), _fixture_table(76.2, "dnn"))
        assert abs(out["average"]["relative_improvement_pct"] - 7.2) < 0.05

    def test_absolute_delta_also_reported(self):
        out = compare_two(_fixture_table(81.7, "cascade"), _fixture_table(69.3, "gmm"))
        assert abs(out["average"]["absolute_delta"] - 12.4) < 1e-9

    def test_pairwise_report(self):
        records = [rec for mode, n in (("cascade", 9), ("gmm", 7), ("dnn", 8))
                   for rec in make_records(n, 10, mode=mode)]
        out = evaluation_report(records, PipelineConfig())
        assert len(out["comparisons"]) == 3
        assert {tuple(c["modes"]) for c in out["comparisons"]} == {
            ("cascade", "dnn"), ("cascade", "gmm"), ("dnn", "gmm")}

    def test_roster_mismatch(self):
        a = _fixture_table(80.0, "gmm")
        b = PerformanceTable(
            cells={("sad", "dnn", "normal"): {"rate": 70.0, "correct": 7, "trials": 10}},
            averages={("dnn", "normal"): 70.0})
        with pytest.raises(ValidationError):
            compare_two(a, b)
