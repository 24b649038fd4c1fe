"""Differential tests: the block-drawn crash schedule against the
one-draw-at-a-time loop it replaced.

:func:`_per_draw_oracle` is the reference: for each workstation in sorted
order it draws one ``exponential(mtbf)`` at a time from the shared crash
stream until its clock reaches the horizon.  The block-drawn
:class:`~repro.faults.FaultRuntime` must plan the identical outages *and*
leave the crash stream in the identical state.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import CrashFault, FaultPlan, MessageLossFault
from repro.faults.plan import _MAX_CRASH_BLOCK


def _per_draw_oracle(seed, ws_ids, horizon, mtbf, restart_time):
    """Per-workstation schedules and the crash stream's final state."""
    rng = np.random.default_rng([int(seed), 0])  # the "crash" sub-stream
    schedule = {}
    for ws in sorted(int(w) for w in ws_ids):
        pairs = []
        t = 0.0
        while True:
            t += float(rng.exponential(mtbf))
            if t >= horizon:
                break
            if pairs and t < pairs[-1][1]:
                continue
            pairs.append((t, t + restart_time))
        schedule[ws] = pairs
    return schedule, rng.bit_generator.state


def _oracle_arrays(schedule):
    rows = [(ws, c, r) for ws in sorted(schedule) for c, r in schedule[ws]]
    return (
        np.asarray([w for w, _, _ in rows], dtype=np.int64),
        np.asarray([c for _, c, _ in rows], dtype=float),
        np.asarray([r for _, _, r in rows], dtype=float),
    )


def _check(seed, ws_ids, horizon, mtbf, restart_time):
    plan = FaultPlan(seed=seed, injectors=(CrashFault(mtbf, restart_time),))
    rt = plan.start(ws_ids, horizon)
    want, want_state = _per_draw_oracle(seed, ws_ids, horizon, mtbf, restart_time)
    for ws in want:
        assert rt.crash_schedule(ws) == want[ws], ws
    for got, ref in zip(rt.crash_arrays(), _oracle_arrays(want)):
        assert got.dtype == ref.dtype
        np.testing.assert_array_equal(got, ref)
    assert rt._rngs["crash"].bit_generator.state == want_state
    return sum(len(v) for v in want.values())


@pytest.mark.parametrize("seed", [0, 1, 20261017])
@pytest.mark.parametrize(
    "n_ws, horizon, mtbf, restart",
    [
        (1, 10.0, 3.0, 1.0),       # a handful of draws, ends in the first blocks
        (7, 100.0, 5.0, 2.0),      # many hosts, several crashes each
        (200, 160.0, 50.0, 2.0),   # fleet-churn's shape, scaled down
        (3, 1000.0, 0.1, 0.0),     # > _MAX_CRASH_BLOCK draws per host
        (50, 5.0, 1e6, 1.0),       # almost no crashes: one draw per host
        (40, 30.0, 1.0, 5.0),      # long outages swallow later crashes
    ],
)
def test_matches_per_draw_loop(seed, n_ws, horizon, mtbf, restart):
    _check(seed, range(n_ws), horizon, mtbf, restart)


def test_crosses_the_block_cap():
    # The capped blocks are in play, and the horizon ends mid-block.
    n = _check(5, range(6), 2000.0, 0.25, 0.0)
    assert n > 2 * _MAX_CRASH_BLOCK


@pytest.mark.parametrize("horizon", [0.5, 1.0, 2.0, 4.0, 17.3])
def test_horizons_ending_mid_block(horizon):
    _check(9, [3, 1, 4, 15, 92, 6], horizon, 1.0, 0.25)


def test_unsorted_and_sparse_ids():
    _check(2, [2**40, 7, 0, 123456], 60.0, 4.0, 1.0)


def test_duplicate_ids_keep_the_later_draws():
    _check(6, [3, 1, 3, 8, 1], 40.0, 3.0, 1.0)


def test_no_crash_plan_draws_nothing():
    plan = FaultPlan(seed=4, injectors=(MessageLossFault(0.5),))
    rt = plan.start(range(10), 100.0)
    assert all(rt.crash_schedule(ws) == [] for ws in range(10))
    ids, crashes, restarts = rt.crash_arrays()
    assert ids.size == crashes.size == restarts.size == 0
    assert ids.dtype == np.int64 and crashes.dtype == float
    untouched = np.random.default_rng([4, 0]).bit_generator.state
    assert rt._rngs["crash"].bit_generator.state == untouched


def test_null_plan_has_empty_schedules():
    rt = FaultPlan(seed=1).start([0, 1], 10.0)
    assert rt.crash_schedule(0) == [] and rt.crash_arrays()[0].size == 0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n_ws=st.integers(1, 30),
    horizon=st.floats(0.1, 300.0),
    mtbf=st.floats(0.05, 200.0),
    restart=st.floats(0.0, 10.0),
)
def test_random_plans_match_per_draw_loop(seed, n_ws, horizon, mtbf, restart):
    _check(seed, range(n_ws), horizon, mtbf, restart)
