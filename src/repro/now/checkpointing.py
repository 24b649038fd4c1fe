"""The fault-tolerant checkpointing analogue (Section 1 Remark, ref. [7]).

The paper notes its model "has applications ... other than scheduling single
episodes of cycle-stealing.  One important example is scheduling saves in a
fault-prone computing system, as studied in [7]" (Coffman, Flatto, Krenin,
*Scheduling saves in fault-tolerant computations*).

The mapping: a *save* costs ``c`` (the period-bracketing overhead); a failure
(the owner's "return") destroys all work since the last save; the failure
survival function is the life function.  One cycle-stealing episode = one
inter-failure epoch, and the expected work banked per epoch is exactly
``E(S; p)`` — so the paper's guidelines choose save intervals.

:func:`simulate_fault_prone_job` runs the full renewal process: epochs repeat
(fresh failure clock each time) until a job of ``total_work`` units has been
banked, measuring wall-clock completion time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.guidelines import guideline_schedule
from ..core.life_functions import LifeFunction
from ..core.schedule import Schedule
from ..exceptions import SimulationError

__all__ = ["save_schedule", "CheckpointRun", "simulate_fault_prone_job"]


def save_schedule(p_failure: LifeFunction, c_save: float, **kwargs) -> Schedule:
    """Guideline save intervals for failure-survival ``p_failure``.

    Thin wrapper over :func:`repro.core.guidelines.guideline_schedule`; each
    returned period is the compute time between consecutive saves (the save
    cost ``c_save`` is inside the period, per the episode model).
    """
    return guideline_schedule(p_failure, c_save, **kwargs).schedule


@dataclass(frozen=True)
class CheckpointRun:
    """Outcome of one simulated fault-prone job execution."""

    completion_time: float
    failures: int
    saves_committed: int
    work_lost: float


#: Largest block of failure times drawn in one ``sample_reclaim_times`` call.
#: Blocks grow 1, 1, 2, 4, ... up to this cap, so a short job draws little
#: past its last epoch and a long one pays the per-call overhead about
#: ``log2(epochs)`` times plus once per 4096 epochs.
_MAX_FAILURE_BLOCK = 4096


def simulate_fault_prone_job(
    p_failure: LifeFunction,
    c_save: float,
    total_work: float,
    schedule: Optional[Schedule] = None,
    rng: Optional[np.random.Generator] = None,
    max_epochs: int = 1_000_000,
) -> CheckpointRun:
    """Run a job of ``total_work`` units to completion under random failures.

    Each inter-failure epoch replays the (save-interval) schedule from its
    start — the renewal assumption: after a failure and restart the failure
    clock resets, so the same schedule is optimal again.  Within an epoch,
    work banks at each save point; a failure loses the work since the last
    save and costs the time actually elapsed.  A failure exactly on a save
    boundary kills that period ("reclaimed *by* time T_k", eq. 2.1); a
    schedule exhausted before the failure idles until it.

    RNG contract: the job consumes exactly one failure time per epoch, in
    epoch order.  Failure times are drawn in blocks of ``1, 1, 2, 4, ...``
    (capped at :data:`_MAX_FAILURE_BLOCK`) through
    ``p_failure.sample_reclaim_times(rng, size)``; when the job finishes with
    draws left in a block, the generator is rewound to the block's start and
    re-drawn for the consumed count only.  So for a sampler whose size-``k``
    draw equals ``k`` size-1 draws — every in-tree
    :class:`~repro.core.life_functions.LifeFunction`, which all sample by
    inverse transform — the run and the generator's final state are
    identical to drawing one failure time per epoch.  Each epoch's periods
    bank in order with the same float additions as a period-by-period walk.

    Raises
    ------
    SimulationError
        If the schedule banks no work per epoch (the job can never finish)
        or ``max_epochs`` is exceeded.
    """
    if total_work <= 0:
        raise SimulationError(f"total_work must be positive, got {total_work}")
    if rng is None:
        rng = np.random.default_rng(0)
    if schedule is None:
        schedule = save_schedule(p_failure, c_save)

    work_per_period = schedule.work_per_period(c_save)
    if float(work_per_period.sum()) <= 0.0:
        raise SimulationError("schedule banks no work per epoch; job cannot finish")
    boundaries = schedule.boundaries
    ends = boundaries.tolist()
    works = work_per_period.tolist()
    num_periods = schedule.num_periods

    clock = 0.0
    banked = 0.0
    failures = 0
    saves = 0
    lost = 0.0
    epochs = 0
    while epochs < max_epochs:
        # 1, 1, 2, 4, ...: each block doubles the epochs drawn so far.
        size = min(max(epochs, 1), _MAX_FAILURE_BLOCK, max_epochs - epochs)
        snapshot = rng.bit_generator.state
        block = np.asarray(p_failure.sample_reclaim_times(rng, size), dtype=float)
        # Period each failure hits: the first boundary at or after it.
        hits = np.searchsorted(boundaries, block, side="left").tolist()
        for j, (failure_at, hit) in enumerate(zip(block.tolist(), hits)):
            epoch_elapsed = 0.0
            for i in range(hit):  # periods saved before the failure
                end = ends[i]
                clock += end - epoch_elapsed
                epoch_elapsed = end
                banked += works[i]
                saves += 1
                if banked >= total_work:
                    if j + 1 < size:
                        # Hand back the unused draws of this block.
                        rng.bit_generator.state = snapshot
                        p_failure.sample_reclaim_times(rng, j + 1)
                    return CheckpointRun(
                        completion_time=clock,
                        failures=failures,
                        saves_committed=saves,
                        work_lost=lost,
                    )
            failures += 1
            if hit < num_periods:
                # Everything since the last save is lost (including the
                # partially-paid save overhead of the interrupted period).
                lost += failure_at - epoch_elapsed
                clock += failure_at - epoch_elapsed
            else:
                # Schedule exhausted before the failure: idle until the
                # failure resets the epoch (a conservative policy that never
                # improvises beyond its schedule).
                clock += max(0.0, failure_at - epoch_elapsed)
        epochs += size
    raise SimulationError(f"job did not finish within {max_epochs} epochs")
