"""Batch (lane-based) recurrence engine vs the scalar Corollary 3.1 oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch_recurrence import (
    BatchRecurrenceResult,
    batch_expected_work,
    generate_schedules_batch,
)
from repro.core.life_functions import (
    GeometricDecreasingLifespan,
    GeometricIncreasingRisk,
    PolynomialRisk,
    UniformRisk,
    WeibullLife,
)
from repro.core.recurrence import Termination, generate_schedule
from repro.core.testing import (
    assert_recurrence_parity,
    canonical_recurrence_cases,
    default_t0_grid,
    recurrence_parity_check,
    recurrence_parity_matrix,
)
from repro.exceptions import InvalidScheduleError
from repro.simulation.testing import DeterministicLife


class TestValidation:
    def test_negative_overhead(self):
        with pytest.raises(InvalidScheduleError):
            generate_schedules_batch(UniformRisk(100.0), -1.0, np.array([10.0]))

    def test_non_1d_grid(self):
        with pytest.raises(InvalidScheduleError):
            generate_schedules_batch(UniformRisk(100.0), 1.0, np.ones((2, 2)))

    def test_empty_grid(self):
        with pytest.raises(InvalidScheduleError):
            generate_schedules_batch(UniformRisk(100.0), 1.0, np.array([]))

    def test_non_finite_t0(self):
        with pytest.raises(InvalidScheduleError):
            generate_schedules_batch(UniformRisk(100.0), 1.0, np.array([10.0, np.nan]))

    def test_unproductive_t0(self):
        with pytest.raises(InvalidScheduleError):
            generate_schedules_batch(UniformRisk(100.0), 2.0, np.array([10.0, 2.0]))


class TestResultStructure:
    def test_shapes_and_padding(self):
        p, c = UniformRisk(100.0), 2.0
        res = generate_schedules_batch(p, c, np.array([10.0, 30.0, 60.0]))
        assert isinstance(res, BatchRecurrenceResult)
        assert res.n_lanes == 3
        m = res.periods.shape[1]
        assert res.targets.shape == (3, max(m - 1, 0))
        for i in range(3):
            k = int(res.num_periods[i])
            assert np.all(np.isfinite(res.periods[i, :k]))
            assert np.all(np.isnan(res.periods[i, k:]))
        assert res.expected_work.shape == (3,)
        assert res.best == int(np.argmax(res.expected_work))

    def test_boundaries_are_masked_cumsum(self):
        p, c = UniformRisk(100.0), 2.0
        res = generate_schedules_batch(p, c, np.array([15.0, 40.0]))
        for i in range(2):
            k = int(res.num_periods[i])
            np.testing.assert_allclose(
                res.boundaries[i, :k], np.cumsum(res.periods[i, :k]), rtol=0, atol=0
            )
            assert np.all(np.isnan(res.boundaries[i, k:]))

    def test_t0_at_or_beyond_lifespan_clamps(self):
        """t0 >= L mirrors the scalar single-clamped-period outcome."""
        p, c = UniformRisk(50.0), 1.0
        res = generate_schedules_batch(p, c, np.array([10.0, 50.0, 80.0]))
        scalar = generate_schedule(p, c, 80.0)
        assert res.termination(1) is Termination.LIFESPAN_EXHAUSTED
        assert res.termination(2) is Termination.LIFESPAN_EXHAUSTED
        assert int(res.num_periods[2]) == scalar.schedule.num_periods == 1
        assert float(res.periods[2, 0]) == float(scalar.schedule.periods[0])
        assert res.outcome(2).targets.size == 0


class TestBatchExpectedWork:
    def test_matches_schedule_expected_work(self):
        p, c = PolynomialRisk(2, 100.0), 2.0
        res = generate_schedules_batch(p, c, default_t0_grid(p, c))
        for i in range(res.n_lanes):
            assert float(res.expected_work[i]) == pytest.approx(
                res.schedule(i).expected_work(p, c), rel=1e-12, abs=1e-12
            )

    def test_standalone_scorer(self):
        periods = np.array([[20.0, 15.0, np.nan], [30.0, np.nan, np.nan]])
        p, c = UniformRisk(100.0), 2.0
        ew = batch_expected_work(periods, p, c)
        s0 = (20.0 - c) * p(20.0) + (15.0 - c) * p(35.0)
        s1 = (30.0 - c) * p(30.0)
        np.testing.assert_allclose(ew, [s0, s1], rtol=1e-12)


class TestFastParity:
    """One cell per Section 4 family (test_full_parity_matrix covers every family)."""

    @pytest.mark.parametrize(
        "p,c",
        [
            (UniformRisk(100.0), 2.0),
            (PolynomialRisk(3, 80.0), 1.5),
            (GeometricDecreasingLifespan(1.2), 0.5),
            (GeometricIncreasingRisk(30.0), 1.0),
        ],
        ids=["uniform", "poly3", "geomdec", "geominc"],
    )
    def test_section4_family(self, p, c):
        assert_recurrence_parity(recurrence_parity_check(p, c, label=repr(p)))

    def test_generic_path_parity(self):
        """use_closed_form=False forces the p/derivative/inverse lane path."""
        p, c = UniformRisk(100.0), 2.0
        assert_recurrence_parity(
            recurrence_parity_check(p, c, use_closed_form=False, label="generic")
        )

    def test_deterministic_step_function(self):
        """The degenerate step life function (GENERAL shape, derivative 0)."""
        p, c = DeterministicLife(40.0), 1.0
        grid = np.array([5.0, 15.0, 39.0, 40.0, 55.0])
        assert_recurrence_parity(recurrence_parity_check(p, c, grid, label="step"))


@settings(max_examples=25, deadline=None)
@given(
    family=st.sampled_from(["uniform", "poly2", "geomdec", "geominc", "weibull"]),
    c=st.floats(0.25, 4.0),
    frac=st.floats(0.02, 0.98),
    use_closed_form=st.booleans(),
)
def test_parity_property(family, c, frac, use_closed_form):
    """Random (family, c, t0): batch lane == scalar oracle."""
    p = {
        "uniform": UniformRisk(120.0),
        "poly2": PolynomialRisk(2, 100.0),
        "geomdec": GeometricDecreasingLifespan(1.3),
        "geominc": GeometricIncreasingRisk(25.0),
        "weibull": WeibullLife(k=1.5, scale=30.0),
    }[family]
    horizon = p.lifespan if math.isfinite(p.lifespan) else float(p.inverse(1e-6))
    t0 = c + frac * (horizon - c)
    if t0 <= c * (1 + 1e-9):
        return
    report = recurrence_parity_check(
        p, c, np.array([t0]), use_closed_form=use_closed_form,
        max_periods=300, label=f"{family} t0={t0:.4g}",
    )
    assert_recurrence_parity(report)


@pytest.mark.parametrize("use_closed_form", [True, False])
def test_full_parity_matrix(use_closed_form):
    """Every canonical family, 17-lane grid, both recurrence step paths."""
    reports = recurrence_parity_matrix(use_closed_form=use_closed_form)
    assert len(reports) == len(canonical_recurrence_cases())
    for report in reports:
        assert_recurrence_parity(report)
