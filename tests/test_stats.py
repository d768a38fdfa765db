"""Tests for the statistics substrate (t-tests, FDR, flags)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.stats import (
    Flag,
    PairedTTestResult,
    benjamini_hochberg,
    benjamini_yekutieli,
    bonferroni,
    decide_flag,
    flag_distribution,
    flags_with_fdr,
    paired_t_test,
    reject,
    t_sf,
)


class TestTSF:
    @pytest.mark.parametrize("t,df", [(0.0, 5), (1.5, 10), (-2.0, 19), (3.3, 7)])
    def test_matches_scipy(self, t, df):
        assert t_sf(t, df) == pytest.approx(scipy_stats.t.sf(t, df), abs=1e-12)

    def test_infinite_statistic(self):
        assert t_sf(np.inf, 5) == 0.0
        assert t_sf(-np.inf, 5) == 1.0

    def test_invalid_df(self):
        with pytest.raises(ValueError):
            t_sf(1.0, 0)


class TestPairedTTest:
    def test_matches_scipy_two_sided(self):
        rng = np.random.default_rng(0)
        before = rng.normal(0.8, 0.02, 20)
        after = before + rng.normal(0.01, 0.02, 20)
        ours = paired_t_test(before, after)
        scipys = scipy_stats.ttest_rel(after, before)
        assert ours.statistic == pytest.approx(scipys.statistic)
        assert ours.p_two_sided == pytest.approx(scipys.pvalue)

    def test_matches_scipy_one_sided(self):
        rng = np.random.default_rng(1)
        before = rng.normal(0.8, 0.02, 20)
        after = before + 0.01 + rng.normal(0.0, 0.02, 20)
        ours = paired_t_test(before, after)
        upper = scipy_stats.ttest_rel(after, before, alternative="greater")
        lower = scipy_stats.ttest_rel(after, before, alternative="less")
        assert ours.p_upper == pytest.approx(upper.pvalue)
        assert ours.p_lower == pytest.approx(lower.pvalue)

    def test_clear_improvement_significant(self):
        before = np.full(20, 0.63) + np.linspace(0, 0.004, 20)
        after = np.full(20, 0.67) + np.linspace(0.004, 0, 20)
        result = paired_t_test(before, after)
        assert result.p_two_sided < 1e-6
        assert result.p_upper < 1e-6
        assert result.p_lower > 0.99

    def test_identical_pairs_insignificant(self):
        result = paired_t_test([0.8] * 10, [0.8] * 10)
        assert result.p_two_sided == 1.0
        assert result.statistic == 0.0

    def test_constant_nonzero_difference(self):
        result = paired_t_test([0.8] * 10, [0.9] * 10)
        assert np.isinf(result.statistic)
        assert result.p_upper == 0.0
        assert result.p_lower == 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            paired_t_test([0.5], [0.6])
        with pytest.raises(ValueError):
            paired_t_test([0.5, 0.6], [0.6])

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=3, max_size=30),
        st.floats(-0.2, 0.2),
    )
    @settings(max_examples=50, deadline=None)
    def test_pvalue_symmetry(self, metrics, shift):
        """Swapping before/after must mirror the one-sided p-values."""
        before = np.array(metrics)
        rng = np.random.default_rng(0)
        after = np.clip(before + shift + rng.normal(0, 0.01, len(before)), 0, 1)
        forward = paired_t_test(before, after)
        backward = paired_t_test(after, before)
        assert forward.p_upper == pytest.approx(backward.p_lower, abs=1e-9)
        assert forward.p_two_sided == pytest.approx(
            backward.p_two_sided, abs=1e-9
        )


class TestFDR:
    def test_bonferroni_known_case(self):
        rejected = bonferroni(np.array([0.001, 0.02, 0.04]), alpha=0.05)
        assert rejected.tolist() == [True, False, False]

    def test_bh_rejects_more_than_bonferroni(self):
        rng = np.random.default_rng(0)
        pvalues = np.concatenate([rng.uniform(0, 0.01, 20), rng.uniform(0, 1, 80)])
        assert benjamini_hochberg(pvalues).sum() >= bonferroni(pvalues).sum()

    def test_by_more_conservative_than_bh(self):
        rng = np.random.default_rng(1)
        pvalues = np.concatenate([rng.uniform(0, 0.02, 30), rng.uniform(0, 1, 70)])
        assert benjamini_yekutieli(pvalues).sum() <= benjamini_hochberg(pvalues).sum()

    def test_by_step_up_shape(self):
        # classic example: only the smallest p-values survive
        pvalues = np.array([0.001, 0.008, 0.039, 0.041, 0.042, 0.06, 0.074, 0.205])
        by = benjamini_yekutieli(pvalues, alpha=0.05)
        assert by[0] and not by[-1]

    def test_rejection_sets_are_prefixes_in_sorted_order(self):
        rng = np.random.default_rng(2)
        pvalues = rng.uniform(0, 1, 50)
        for procedure in ("bonferroni", "bh", "by"):
            rejected = reject(pvalues, procedure=procedure)
            order = np.argsort(pvalues)
            flags_sorted = rejected[order]
            if flags_sorted.any():
                last_true = np.nonzero(flags_sorted)[0][-1]
                assert flags_sorted[: last_true + 1].all()

    @pytest.mark.parametrize(
        "method, procedure", (("bh", benjamini_hochberg), ("by", benjamini_yekutieli))
    )
    def test_rejections_match_scipy_false_discovery_control(self, method, procedure):
        # scipy adjusts the p-values; a test is rejected iff its adjusted
        # p-value is at most alpha.  Powers of uniform draws skew towards
        # small p-values, so draws range from no to nearly full rejection.
        rng = np.random.default_rng(0)
        rejected = kept = 0
        for _ in range(500):
            pvalues = rng.uniform(size=int(rng.integers(1, 80))) ** rng.uniform(1, 8)
            alpha = float(rng.choice([0.01, 0.05, 0.1, 0.2]))
            adjusted = scipy_stats.false_discovery_control(pvalues, method=method)
            ours = procedure(pvalues, alpha=alpha)
            assert np.array_equal(ours, adjusted <= alpha)
            rejected += int(ours.sum())
            kept += int((~ours).sum())
        assert rejected > 1000 and kept > 1000

    def test_none_procedure_is_raw_alpha(self):
        pvalues = np.array([0.01, 0.04, 0.06])
        assert reject(pvalues, alpha=0.05, procedure="none").tolist() == [
            True, True, False,
        ]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            reject(np.array([1.5]), procedure="by")
        with pytest.raises(ValueError):
            reject(np.array([0.5]), procedure="holm")
        with pytest.raises(ValueError):
            bonferroni(np.array([]))


def _result(p0, p1, p2):
    return PairedTTestResult(
        statistic=0.0, p_two_sided=p0, p_upper=p1, p_lower=p2, n=20,
        mean_difference=0.0,
    )


class TestFlags:
    def test_paper_rules(self):
        assert decide_flag(_result(0.2, 0.1, 0.9)) is Flag.INSIGNIFICANT
        assert decide_flag(_result(0.01, 0.005, 0.995)) is Flag.POSITIVE
        assert decide_flag(_result(0.01, 0.995, 0.005)) is Flag.NEGATIVE

    def test_paper_example_4_2(self):
        # p0 = 3.82e-17, p1 = 1.91e-17, p2 = 1 -> "P"
        assert decide_flag(_result(3.82e-17, 1.91e-17, 1.0)) is Flag.POSITIVE

    def test_flags_with_fdr_by(self):
        strong_p = [_result(1e-8, 5e-9, 1.0)] * 3
        strong_n = [_result(1e-8, 1.0, 5e-9)] * 2
        nulls = [_result(0.5, 0.25, 0.75)] * 10
        flags = flags_with_fdr(strong_p + strong_n + nulls)
        counts = flag_distribution(flags)
        assert counts == {"P": 3, "N": 2, "S": 10}

    def test_fdr_makes_borderline_insignificant(self):
        # 0.04 survives raw alpha but not BY among many nulls
        borderline = [_result(0.04, 0.02, 0.98)]
        nulls = [_result(0.9, 0.45, 0.55)] * 30
        flags = flags_with_fdr(borderline + nulls, procedure="by")
        assert flags[0] is Flag.INSIGNIFICANT
        raw = flags_with_fdr(borderline + nulls, procedure="none")
        assert raw[0] is Flag.POSITIVE

    def test_empty_input(self):
        assert flags_with_fdr([]) == []

    def test_distribution_order(self):
        counts = flag_distribution([Flag.POSITIVE, Flag.NEGATIVE, Flag.POSITIVE])
        assert list(counts) == ["P", "S", "N"]
        assert counts["P"] == 2
