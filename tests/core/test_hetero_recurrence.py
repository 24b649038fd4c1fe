"""Mixed-lane recurrence engine vs the scalar Corollary 3.1 oracle.

Every lane of :func:`generate_schedules_hetero` must reproduce
``generate_schedule(make_family_life(family, θ), c, t0)``: period count and
termination exactly, periods and expected work within the recurrence
harness's ``DEFAULT_RTOL``.  Both engines are checked; without numba the
``"jit"`` leg runs the NumPy fallback, which must satisfy the same contract.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.tables_precompute import make_family_life
from repro.core.batch_recurrence import generate_schedules_batch
from repro.core.hetero_recurrence import generate_schedules_hetero
from repro.core.life_functions import UniformRisk
from repro.core.recurrence import Termination, generate_schedule
from repro.core.testing import DEFAULT_ATOL, DEFAULT_RTOL
from repro.exceptions import InvalidScheduleError

ENGINES = ["numpy", "jit"]

#: (family, d, θ range): θ is L, or a for the geometric-decreasing family.
CASES = [
    ("uniform", 1, (40.0, 400.0)),
    ("poly", 2, (40.0, 400.0)),
    ("poly", 3, (40.0, 400.0)),
    ("geomdec", 1, (1.05, 2.5)),
    ("geominc", 1, (10.0, 120.0)),
]
CASE_IDS = ["uniform", "poly2", "poly3", "geomdec", "geominc"]


def _lanes(family, theta_range, n, seed):
    """Random productive lanes; finite-lifespan families get clamped lanes too."""
    rng = np.random.default_rng(seed)
    cs = rng.uniform(0.1, 3.0, n)
    params = rng.uniform(*theta_range, n)
    if family == "geomdec":
        # t0 - c beyond 1/ln a ends the schedule after one period (eq. 4.6).
        t0s = cs + rng.uniform(0.01, 1.5, n) / np.log(params)
    else:
        t0s = cs + rng.uniform(0.01, 1.0, n) * (params - cs)
        t0s[:2] = params[:2] * np.array([1.0, 1.5])  # t0 >= L: clamped
    return cs, params, t0s


def _assert_lane_matches_scalar(res, i, family, d, max_periods):
    p = make_family_life(family, float(res.params[i]), {"d": d})
    c, t0 = float(res.cs[i]), float(res.t0s[i])
    scalar = generate_schedule(p, c, t0, max_periods=max_periods)
    lane = res.schedule(i)
    label = f"{family} d={d} lane {i} (c={c}, θ={res.params[i]}, t0={t0})"
    assert lane.num_periods == scalar.schedule.num_periods, label
    assert res.termination(i) is scalar.termination, label
    np.testing.assert_allclose(
        lane.periods, scalar.schedule.periods,
        rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, err_msg=label,
    )
    assert float(res.expected_work[i]) == pytest.approx(
        scalar.schedule.expected_work(p, c), rel=DEFAULT_RTOL, abs=DEFAULT_ATOL
    ), label


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("family,d,theta_range", CASES, ids=CASE_IDS)
def test_lanes_match_scalar_oracle(engine, family, d, theta_range):
    cs, params, t0s = _lanes(family, theta_range, 24, seed=7)
    res = generate_schedules_hetero(family, cs, params, t0s, d=d, engine=engine)
    for i in range(res.n_lanes):
        _assert_lane_matches_scalar(res, i, family, d, 10_000)
    if family != "geomdec":
        assert res.termination(0) is Termination.LIFESPAN_EXHAUSTED
        assert res.termination(1) is Termination.LIFESPAN_EXHAUSTED
        assert res.periods[1, 0] == params[1]  # clamped to L
        assert res.num_periods[1] == 1


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("family,d,theta_range", CASES, ids=CASE_IDS)
def test_max_periods_cut_matches_scalar_oracle(engine, family, d, theta_range):
    cs, params, t0s = _lanes(family, theta_range, 12, seed=11)
    res = generate_schedules_hetero(
        family, cs, params, t0s, d=d, max_periods=3, engine=engine
    )
    assert res.num_periods.max() <= 3
    assert any(res.termination(i) is Termination.MAX_PERIODS for i in range(res.n_lanes))
    for i in range(res.n_lanes):
        _assert_lane_matches_scalar(res, i, family, d, 3)


@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=30, deadline=None)
@given(
    case=st.sampled_from(CASES),
    n=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
    pick=st.integers(0, 10**6),
)
def test_single_lane_call_is_bit_identical_to_its_lane(engine, case, n, seed, pick):
    """Serving's invariant: an n = 1 call equals that lane of an n = N call."""
    family, d, theta_range = case
    cs, params, t0s = _lanes(family, theta_range, n, seed)
    full = generate_schedules_hetero(family, cs, params, t0s, d=d, engine=engine)
    i = pick % n
    one = generate_schedules_hetero(
        family, cs[i:i + 1], params[i:i + 1], t0s[i:i + 1], d=d, engine=engine
    )
    m = int(full.num_periods[i])
    assert int(one.num_periods[0]) == m
    assert one.termination_codes[0] == full.termination_codes[i]
    assert one.periods[0, :m].tobytes() == full.periods[i, :m].tobytes()
    assert np.all(np.isnan(one.periods[0, m:]))
    assert one.expected_work[:1].tobytes() == full.expected_work[i:i + 1].tobytes()


class TestValidation:
    """Inputs outside every family's domain raise instead of planning."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "family,theta",
        [
            ("geomdec", 0.9),
            ("geomdec", 1.0),
            ("uniform", -10.0),
            ("poly", 0.0),
            ("geominc", -5.0),
            ("uniform", math.nan),
            ("geomdec", math.inf),
        ],
    )
    def test_parameter_outside_family_domain(self, engine, family, theta):
        with pytest.raises(InvalidScheduleError, match="domain"):
            generate_schedules_hetero(family, [0.5], [theta], [2.0], d=2, engine=engine)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("c", [math.nan, math.inf, -1.0])
    def test_overhead_not_finite_and_nonnegative(self, engine, c):
        with pytest.raises(InvalidScheduleError, match="overhead c"):
            generate_schedules_hetero("uniform", [1.0, c], [100.0, 100.0], [5.0, 5.0],
                                      engine=engine)
        with pytest.raises(InvalidScheduleError, match="overhead c"):
            generate_schedules_batch(UniformRisk(100.0), c, [5.0], engine=engine)

    @pytest.mark.parametrize("d", [0, -1, 2.5, math.nan])
    def test_degree_not_a_positive_integer(self, d):
        with pytest.raises(InvalidScheduleError, match="positive integer"):
            generate_schedules_hetero("poly", [1.0], [100.0], [5.0], d=d)

    def test_integral_float_degree_is_accepted(self):
        a = generate_schedules_hetero("poly", [1.0], [100.0], [20.0], d=3.0)
        b = generate_schedules_hetero("poly", [1.0], [100.0], [20.0], d=3)
        assert a.periods.tobytes() == b.periods.tobytes()

    @pytest.mark.parametrize(
        "t0s,match",
        [([], "at least one"), ([math.nan], "finite"), ([0.5], "must exceed")],
    )
    def test_t0_checks(self, t0s, match):
        n = len(t0s)
        with pytest.raises(InvalidScheduleError, match=match):
            generate_schedules_hetero("uniform", [1.0] * n, [100.0] * n, t0s)

    def test_mismatched_lane_vectors(self):
        with pytest.raises(InvalidScheduleError, match="equal-length"):
            generate_schedules_hetero("uniform", [1.0, 1.0], [100.0], [5.0])
