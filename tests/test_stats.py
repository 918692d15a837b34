"""Paired t-test against hand formulas and the quadrature oracle."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mibci.stats import TTestResult, paired_ttest, student_t_two_tailed_p

from helpers import student_t_tail_quadrature

# per-subject accuracies of the no-transform cells, augmented vs not,
# across all four datasets (5 + 3 + 9 + 9 = 26 subjects)
NTS_A = [
    98.1, 100.0, 87.2, 98.2, 98.2,
    98.3, 94.3, 96.9,
    95.0, 79.5, 82.9, 98.0, 91.4, 93.5, 90.6, 86.3, 80.5,
    90.0, 65.4, 91.6, 71.4, 60.7, 65.1, 88.9, 91.5, 89.0,
]
NTS_NA = [
    85.4, 60.0, 65.4, 83.6, 72.7,
    67.7, 54.2, 45.4,
    67.5, 69.2, 65.7, 87.7, 63.8, 65.6, 60.4, 70.4, 66.6,
    60.9, 34.5, 67.5, 41.8, 36.4, 44.1, 41.3, 59.8, 56.0,
]


class TestPairedTTest:
    def test_identical_inputs(self):
        r = paired_ttest([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert r.t == 0.0
        assert r.p == 1.0
        assert r.df == 2
        assert not r.degenerate

    def test_hand_case_1112(self):
        # d = [1,1,1,2]: mean 1.25, sample sd 0.5, t = 1.25 / (0.5/2) = 5
        r = paired_ttest([2.0, 2.0, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0])
        assert r.t == pytest.approx(5.0, rel=1e-12)
        assert r.df == 3
        assert r.p == pytest.approx(student_t_tail_quadrature(5.0, 3), abs=1e-10)

    def test_antisymmetry(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        fwd = paired_ttest(a, b)
        rev = paired_ttest(b, a)
        assert fwd.t == pytest.approx(-rev.t, rel=1e-12)
        assert fwd.p == pytest.approx(rev.p, rel=1e-12)

    def test_twenty_random_fixtures_match_quadrature(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(3, 30))
            a = rng.normal(size=n)
            b = rng.normal(loc=rng.normal() * 0.3, size=n)
            r = paired_ttest(a, b)
            assert r.p == pytest.approx(student_t_tail_quadrature(r.t, r.df), abs=1e-10)

    def test_subject_fixture_reaches_reported_significance(self):
        r = paired_ttest(NTS_A, NTS_NA)
        assert r.df == 25
        assert r.p < 1e-10
        # within one order of magnitude of the reported 2.33e-12
        assert 2.33e-13 <= r.p <= 2.33e-11

    def test_zero_variance_nonzero_mean(self):
        r = paired_ttest([2.0, 2.0, 2.0], [1.0, 1.0, 1.0])
        assert r.p == 0.0
        assert r.degenerate
        assert np.isinf(r.t)

    def test_too_short(self):
        with pytest.raises(ValueError, match="two pairs"):
            paired_ttest([1.0], [2.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal-length"):
            paired_ttest([1.0, 2.0], [1.0, 2.0, 3.0])


class TestStudentTTail:
    def test_symmetric_center(self):
        assert student_t_two_tailed_p(0.0, 10) == 1.0

    def test_monotone_in_statistic(self):
        ps = [student_t_two_tailed_p(t, 7) for t in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_matches_quadrature_on_grid(self):
        for df in (1, 2, 5, 25, 100):
            for t in (0.3, 1.1, 2.7, 6.0):
                assert student_t_two_tailed_p(t, df) == pytest.approx(
                    student_t_tail_quadrature(t, df), abs=1e-10
                )

    def test_infinite_statistic(self):
        assert student_t_two_tailed_p(float("inf"), 3) == 0.0

    @given(
        t=st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300),
        df=st.integers(min_value=1, max_value=10_000),
    )
    def test_symmetric_in_t_and_a_probability(self, t, df):
        p = student_t_two_tailed_p(t, df)
        assert p == student_t_two_tailed_p(-t, df)
        assert 0.0 <= p <= 1.0

    def test_df_below_one_rejected(self):
        with pytest.raises(ValueError, match="degrees of freedom"):
            student_t_two_tailed_p(1.0, 0)


def test_result_to_dict():
    r = TTestResult(t=1.0, df=3, p=0.39)
    assert r.to_dict() == {"t": 1.0, "df": 3, "p": 0.39, "degenerate": False}
