"""Differential tests: the block-drawn checkpoint simulator against the
one-draw-per-epoch loop it replaced.

:func:`_per_epoch_oracle` is the reference: it draws one failure time per
epoch and walks the schedule period by period.  The block-drawn
:func:`~repro.now.checkpointing.simulate_fault_prone_job` must return the
identical :class:`~repro.now.checkpointing.CheckpointRun` *and* leave the
caller's generator in the identical state, so code that shares one
generator across jobs sees an unchanged stream.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.life_functions import (
    GeometricDecreasingLifespan,
    GeometricIncreasingRisk,
    ParetoLife,
    PolynomialRisk,
    UniformRisk,
    WeibullLife,
)
from repro.core.schedule import Schedule
from repro.exceptions import SimulationError
from repro.now.checkpointing import (
    CheckpointRun,
    save_schedule,
    simulate_fault_prone_job,
)
from repro.simulation.testing import DeterministicLife

SEEDS = (1, 2, 20261017)


def _per_epoch_oracle(p_failure, c_save, total_work, schedule, rng, max_epochs=1_000_000):
    """The one-draw-per-epoch renewal loop (the reference semantics)."""
    if total_work <= 0:
        raise SimulationError(f"total_work must be positive, got {total_work}")
    work_per_period = schedule.work_per_period(c_save)
    if float(work_per_period.sum()) <= 0.0:
        raise SimulationError("schedule banks no work per epoch; job cannot finish")
    boundaries = schedule.boundaries
    clock = 0.0
    banked = 0.0
    failures = 0
    saves = 0
    lost = 0.0
    for _ in range(max_epochs):
        failure_at = float(p_failure.sample_reclaim_times(rng, 1)[0])
        epoch_elapsed = 0.0
        for i in range(schedule.num_periods):
            end = float(boundaries[i])
            if end >= failure_at:
                failures += 1
                lost += failure_at - epoch_elapsed
                clock += failure_at - epoch_elapsed
                break
            clock += end - epoch_elapsed
            epoch_elapsed = end
            banked += float(work_per_period[i])
            saves += 1
            if banked >= total_work:
                return CheckpointRun(clock, failures, saves, lost)
        else:
            clock += max(0.0, failure_at - epoch_elapsed)
            failures += 1
    raise SimulationError(f"job did not finish within {max_epochs} epochs")


def _outcome(fn, p, c, work, schedule, seed, **kwargs):
    """``(run or error message, final generator state)`` of one job."""
    rng = np.random.default_rng(seed)
    try:
        result = fn(p, c, work, schedule=schedule, rng=rng, **kwargs)
    except SimulationError as exc:
        result = f"SimulationError: {exc}"
    return result, rng.bit_generator.state


def _assert_same(p, c, work, schedule, seed, **kwargs):
    got = _outcome(simulate_fault_prone_job, p, c, work, schedule, seed, **kwargs)
    want = _outcome(_per_epoch_oracle, p, c, work, schedule, seed, **kwargs)
    assert got[0] == want[0]
    assert got[1] == want[1]
    return want[0]


class _ZeroedUniform:
    """Inverse-transform sampler that maps ``u < 0.3`` to ``u = 0``.

    Elementwise in ``u``, so it keeps the block-draw contract while making
    ``p^{-1}(0)`` (``inf`` for an infinite lifespan) a common failure time.
    """

    def __init__(self, p):
        self.p = p

    def sample_reclaim_times(self, rng, size):
        u = rng.uniform(0.0, 1.0, size=size)
        return np.asarray(self.p.inverse(np.where(u < 0.3, 0.0, u)), dtype=float)


#: (life function, save cost, total work): the four Section 4 families plus
#: Weibull and Pareto, each at a job size of a few hundred epochs or fewer.
FAMILY_JOBS = {
    "uniform": (UniformRisk(100.0), 1.0, 120.0),
    "poly3": (PolynomialRisk(3, 80.0), 1.0, 100.0),
    "geomdec": (GeometricDecreasingLifespan(1.15), 0.5, 120.0),
    "geominc": (GeometricIncreasingRisk(30.0), 0.5, 60.0),
    "weibull": (WeibullLife(k=1.8, scale=20.0), 0.5, 80.0),
    "pareto": (ParetoLife(d=2.0), 0.5, 40.0),
}


class TestAgainstPerEpochLoop:
    @pytest.mark.parametrize("family", sorted(FAMILY_JOBS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_guideline_schedule(self, family, seed):
        p, c, work = FAMILY_JOBS[family]
        run = _assert_same(p, c, work, save_schedule(p, c), seed)
        assert isinstance(run, CheckpointRun)

    @pytest.mark.parametrize("family", sorted(FAMILY_JOBS))
    def test_fine_schedule(self, family):
        p, c, work = FAMILY_JOBS[family]
        _assert_same(p, 0.5, work, Schedule([0.6] * 4000), SEEDS[0])

    def test_coarse_schedule(self):
        # The tier-1 save-interval job: ~78k epochs, nearly all dying in
        # period 0, so every block size up to the cap is exercised.
        p = GeometricDecreasingLifespan(1.15)
        run = _assert_same(p, 0.5, 120.0, Schedule([80.0] * 200), SEEDS[0])
        assert run.failures > 2 * 4096

    @pytest.mark.parametrize("seed", SEEDS)
    def test_schedule_exhaustion(self, seed):
        # Failures mostly land after the 20-unit schedule ends: the idle
        # branch, interleaved with mid-schedule failures.
        run = _assert_same(UniformRisk(100.0), 1.0, 200.0, Schedule([12.0, 8.0]), seed)
        assert run.completion_time > run.saves_committed * 10.0

    def test_shared_generator_across_jobs(self):
        p = GeometricDecreasingLifespan(1.15)
        schedule = save_schedule(p, 0.5)
        got_rng = np.random.default_rng(SEEDS[2])
        want_rng = np.random.default_rng(SEEDS[2])
        for _ in range(20):
            got = simulate_fault_prone_job(p, 0.5, 120.0, schedule=schedule, rng=got_rng)
            want = _per_epoch_oracle(p, 0.5, 120.0, schedule, want_rng)
            assert got == want
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_failure_exactly_on_boundary(self):
        # Every failure lands at t = 40, exactly the second save point: that
        # period dies every epoch and only the first one ever banks.
        p = DeterministicLife(40.0)
        run = _assert_same(p, 1.0, 95.0, Schedule([20.0, 20.0, 10.0]), SEEDS[0])
        assert run.saves_committed == 5
        assert run.failures == 4
        assert run.work_lost == 4 * 20.0

    def test_infinite_failure_time(self):
        # u = 0 -> p^{-1}(0) = inf for an infinite lifespan: the epoch banks
        # every period, then idles forever.
        p = _ZeroedUniform(GeometricDecreasingLifespan(1.15))
        run = _assert_same(p, 0.5, 120.0, Schedule([2.0] * 5), SEEDS[0])
        assert run.completion_time == float("inf")

    def test_max_epochs_hit_exactly(self):
        p, c, work = FAMILY_JOBS["geomdec"]
        schedule = Schedule([10.0] * 20)
        run = _assert_same(p, c, work, schedule, SEEDS[0])
        epochs = run.failures + 1
        # Finishing in the last allowed epoch is a finish ...
        assert _assert_same(p, c, work, schedule, SEEDS[0], max_epochs=epochs) == run
        # ... one epoch fewer is an error, with the same message and the
        # generator advanced by exactly the epochs that ran.
        message = _assert_same(p, c, work, schedule, SEEDS[0], max_epochs=epochs - 1)
        assert message == f"SimulationError: job did not finish within {epochs - 1} epochs"
        assert _assert_same(p, c, work, schedule, SEEDS[0], max_epochs=0) == (
            "SimulationError: job did not finish within 0 epochs"
        )

    def test_sampler_calls_grow_logarithmically(self):
        calls = []

        class Counting:
            def __init__(self, p):
                self.p = p

            def sample_reclaim_times(self, rng, size):
                calls.append(size)
                return self.p.sample_reclaim_times(rng, size)

        p = GeometricDecreasingLifespan(1.15)
        run = simulate_fault_prone_job(
            Counting(p), 0.5, 120.0, schedule=Schedule([80.0] * 200),
            rng=np.random.default_rng(SEEDS[0]),
        )
        epochs = run.failures + 1
        assert calls[:4] == [1, 1, 2, 4]
        assert max(calls) == 4096
        # Doubling to the cap, one call per full block after it, plus the
        # rewind's re-draw.
        assert len(calls) <= 13 + epochs // 4096 + 2


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    periods=st.lists(st.floats(0.05, 30.0), min_size=1, max_size=40),
    c=st.floats(0.0, 2.0),
    a=st.floats(1.02, 1.6),
    work=st.floats(0.5, 150.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_law_block_draws_match_per_epoch_loop(periods, c, a, work, seed):
    """Any schedule, save cost, failure rate and seed: same run or the same
    error, and the same final generator state."""
    _assert_same(
        GeometricDecreasingLifespan(a), c, work, Schedule(periods), seed, max_epochs=3000
    )
