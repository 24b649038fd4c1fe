"""Batch schedule-search engine: the Corollary 3.1 recurrence over t0 *vectors*.

The scalar engine (:func:`repro.core.recurrence.generate_schedule`) iterates
system (3.6) for one initial period ``t_0`` at a time — ``O(grid × periods)``
Python-level steps for a ``t_0`` sweep, which is the dominant cost of the
paper's search recipe (grid the Theorem 3.2/3.3 bracket, score ``E(S; p)``,
refine).  This module iterates the same system for an **entire vector of
``t_0`` candidates simultaneously**:

* each candidate occupies one *lane* of a NumPy state block
  ``(T_{k-1}, t_{k-1}, p(T_{k-1}), E_{so far})``;
* every recurrence step issues one vectorized ``p(...)`` /
  ``p.derivative(...)`` / ``p.inverse(...)`` call over the still-alive lanes,
  or, for the Section 4 families, the mixed-lane engine's closed-form step
  with constant ``c``/θ lanes;
* lanes terminate independently, with the same rules and priority order as
  the scalar engine (``LIFESPAN_EXHAUSTED``, ``TARGET_NONPOSITIVE``,
  ``UNPRODUCTIVE``, ``TAIL_NEGLIGIBLE``, ``MAX_PERIODS``), so a whole grid
  costs ``O(max periods)`` vector operations.

The lane loop itself is the one in :mod:`repro.core.hetero_recurrence`; this
module supplies the per-family step and survival callables, then rebuilds
the recurrence targets and rescores ``E`` from the emitted periods.

The scalar engine remains the specification: for every lane the batch engine
must reproduce its periods, boundaries, recurrence targets, and termination
reason (up to ULP-scale float noise from ``numpy`` vs ``math`` transcendental
kernels).  :mod:`repro.core.testing` packages that cross-validation in the
style of the simulation engines' differential harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ..exceptions import InvalidScheduleError
from ..types import FloatArray
from .hetero_recurrence import (
    _TERMINATION_BY_CODE,
    StepFn,
    _check_lanes,
    _closed_form,
    _iterate_lanes,
)
from .life_functions import (
    GeometricDecreasingLifespan,
    GeometricIncreasingRisk,
    LifeFunction,
    PolynomialRisk,
)
from .recurrence import RecurrenceOutcome, Termination
from .schedule import Schedule

__all__ = [
    "BatchRecurrenceResult",
    "generate_schedules_batch",
    "batch_expected_work",
]


@dataclass(frozen=True)
class BatchRecurrenceResult:
    """Guideline schedules for a vector of ``t_0`` candidates, plus diagnostics.

    Lane ``i`` holds the schedule the Corollary 3.1 recurrence generates from
    ``t0s[i]``.  Ragged per-lane data is stored as NaN-padded rectangular
    arrays; :meth:`schedule` / :meth:`outcome` materialize single lanes in the
    scalar engine's types.
    """

    #: The initial period candidates, one per lane.
    t0s: FloatArray
    #: Period lengths, shape ``(n_lanes, max_m)``; NaN beyond a lane's end.
    periods: FloatArray
    #: Number of periods per lane.
    num_periods: np.ndarray
    #: Per-lane termination codes (indices into ``_TERMINATION_BY_CODE``).
    termination_codes: np.ndarray
    #: Recurrence targets, shape ``(n_lanes, max_m - 1)``; NaN-padded.
    targets: FloatArray
    #: ``E(S(t_0); p)`` per lane (eq. 2.1, scored over the emitted periods).
    expected_work: FloatArray

    @property
    def n_lanes(self) -> int:
        return int(self.t0s.size)

    @property
    def boundaries(self) -> FloatArray:
        """Cumulative period boundaries ``T_k`` per lane (NaN-padded)."""
        out = np.cumsum(np.where(np.isnan(self.periods), 0.0, self.periods), axis=1)
        out[np.isnan(self.periods)] = np.nan
        return out

    @property
    def best(self) -> int:
        """Index of the lane with the largest expected work."""
        return int(np.argmax(self.expected_work))

    def termination(self, i: int) -> Termination:
        """The termination reason of lane ``i``."""
        return _TERMINATION_BY_CODE[int(self.termination_codes[i])]

    @property
    def terminations(self) -> tuple[Termination, ...]:
        """Per-lane termination reasons, in lane order."""
        return tuple(_TERMINATION_BY_CODE[int(code)] for code in self.termination_codes)

    def schedule(self, i: int) -> Schedule:
        """Materialize lane ``i`` as a :class:`Schedule`."""
        m = int(self.num_periods[i])
        return Schedule(self.periods[i, :m])

    def outcome(self, i: int) -> RecurrenceOutcome:
        """Materialize lane ``i`` in the scalar engine's result type."""
        m = int(self.num_periods[i])
        targets = self.targets[i, : m - 1] if m > 1 else np.array([])
        return RecurrenceOutcome(
            self.schedule(i), self.termination(i), np.asarray(targets, dtype=float).copy()
        )


# ----------------------------------------------------------------------
# The lane engine: an adapter over the shared hetero lane loop
# ----------------------------------------------------------------------


def _closed_form_family(p: LifeFunction) -> Optional[tuple[str, int, float]]:
    """``(family, d, ln a)`` of a Section 4 closed form; ``None`` if ``p`` has none."""
    if isinstance(p, PolynomialRisk):
        return "poly", p.d, math.nan
    if isinstance(p, GeometricDecreasingLifespan):
        return "geomdec", 1, p.ln_a
    if isinstance(p, GeometricIncreasingRisk):
        return "geominc", 1, math.nan
    return None


def _generic_step(p: LifeFunction, c: float) -> StepFn:
    """The ``p``/``p'``/``p^{-1}`` lane step of system (3.6) for any family."""

    def step(idx: np.ndarray, tp: FloatArray, b: FloatArray, ph: FloatArray) -> FloatArray:
        target = ph + (tp - c) * np.asarray(p.derivative(b), dtype=float)
        t_next = np.full(idx.size, np.nan)
        # target >= p(T_{k-1}) would move the boundary backwards (only for
        # t_prev < c); emit a zero-length period so the UNPRODUCTIVE rule
        # fires, exactly as the scalar engine does.
        t_next[target >= ph] = 0.0
        inside = (target > 0.0) & (target < ph)
        if np.any(inside):
            t_next[inside] = np.asarray(p.inverse(target[inside]), dtype=float) - b[inside]
        return t_next

    return step


def generate_schedules_batch(
    p: LifeFunction,
    c: float,
    t0s: Union[Sequence[float], FloatArray],
    max_periods: int = 10_000,
    tail_tol: float = 1e-12,
    use_closed_form: bool = True,
    engine: str = "numpy",
) -> BatchRecurrenceResult:
    """Iterate system (3.6) from every ``t_0`` in ``t0s`` simultaneously.

    Lane-for-lane equivalent to calling
    :func:`repro.core.recurrence.generate_schedule` on each candidate — same
    termination rules in the same priority order, same recurrence targets,
    same lifespan clamping (``t_0 >= L`` collapses to a single clamped period
    with ``LIFESPAN_EXHAUSTED``) — but each recurrence step costs a constant
    number of vector operations over the still-alive lanes instead of one
    Python iteration per lane.

    ``engine="jit"`` runs the compiled lane loop from
    :mod:`repro.jitkernels` when (a) numba is importable and enabled and
    (b) ``p`` is one of the Section 4 closed-form families; in every other
    case it silently runs this NumPy path, so callers may request ``"jit"``
    unconditionally.  Expected work is rescored with
    :func:`batch_expected_work` either way, and periods agree with the NumPy
    engine bit-for-bit except at the transcendental sites documented in
    :mod:`repro.jitkernels.kernels` (``<= a`` few ULP).

    Raises
    ------
    InvalidScheduleError
        If ``c`` is not finite and nonnegative, ``t0s`` is empty or not
        one-dimensional, or any lane has a non-finite ``t0`` or ``t0 <= c``
        (every initial period must be productive, exactly as the scalar
        engine requires).
    """
    if engine not in ("numpy", "jit"):
        raise InvalidScheduleError(
            f"unknown engine {engine!r}; expected 'numpy' or 'jit'"
        )
    t0_arr = np.asarray(t0s, dtype=float)
    if t0_arr.ndim != 1:
        raise InvalidScheduleError(f"t0s must be one-dimensional, got shape {t0_arr.shape}")
    n = t0_arr.size
    cs = np.full(n, float(c))
    _check_lanes(cs, t0_arr)

    lanes = _batch_jit_lanes(p, c, t0_arr, max_periods, tail_tol) if engine == "jit" else None
    if lanes is None:
        # engine="numpy", an unmapped family, or no usable numba.
        closed = _closed_form_family(p) if use_closed_form else None
        if closed is None:
            step = _generic_step(p, c)
        else:
            family, d, ln_a = closed
            step = _closed_form(family, d, cs, np.full(n, ln_a))
        lanes = _iterate_lanes(
            t0_arr, cs, np.full(n, p.lifespan), step,
            lambda idx, b: np.asarray(p(b), dtype=float), max_periods, tail_tol,
        )
    periods, num_periods, term, _ = lanes
    return BatchRecurrenceResult(
        t0s=t0_arr,
        periods=periods,
        num_periods=num_periods,
        termination_codes=term,
        targets=_targets_from_periods(p, c, periods),
        expected_work=batch_expected_work(periods, p, c),
    )


def _targets_from_periods(
    p: LifeFunction, c: float, periods: FloatArray
) -> FloatArray:
    """Reconstruct the recurrence targets from an emitted period block.

    Column ``k`` of the result is ``p(T_k) + (t_k - c) p'(T_k)`` wherever
    period ``k + 1`` was emitted — exactly the target the generic step
    computes in the lane loop, because boundary accumulation is sequential in
    both places and ``p`` / ``p.derivative`` are elementwise.  Lets both
    engines return full diagnostics without the lane loop (or the compiled
    kernel) carrying a targets buffer.
    """
    n, width = periods.shape
    if width <= 1:
        return np.empty((n, 0))
    boundaries = np.cumsum(np.where(np.isnan(periods), 0.0, periods), axis=1)
    emitted = ~np.isnan(periods[:, 1:])
    targets = np.full((n, width - 1), np.nan)
    prev_b = boundaries[:, :-1][emitted]
    prev_t = periods[:, :-1][emitted]
    targets[emitted] = np.asarray(p(prev_b), dtype=float) + (prev_t - c) * np.asarray(
        p.derivative(prev_b), dtype=float
    )
    return targets


def _batch_jit_lanes(
    p: LifeFunction, c: float, t0_arr: FloatArray, max_periods: int, tail_tol: float
) -> Optional[tuple[FloatArray, np.ndarray, np.ndarray, FloatArray]]:
    """The compiled homogeneous sweep's lanes, or ``None`` when it cannot apply.

    A single-``(p, c)`` sweep is the heterogeneous kernel with constant
    ``c``/θ lanes, so the one compiled loop serves both engines.  Expected
    work is rescored with :func:`batch_expected_work` (NumPy's pairwise row
    reduction) by the caller, so the jit path is score-identical with the
    NumPy engine rather than only period-identical.
    """
    from .. import jitkernels

    if not jitkernels.available():
        return None
    mapped = jitkernels.life_family_of(p)
    if mapped is None:
        return None
    fam, d, theta = mapped
    n = t0_arr.size
    return jitkernels.kernels().hetero_recurrence(
        fam, int(d), np.full(n, float(c)), np.full(n, float(theta)),
        np.ascontiguousarray(t0_arr), int(max_periods), float(tail_tol),
    )


def batch_expected_work(
    periods: FloatArray, p: LifeFunction, c: float, engine: str = "numpy"
) -> FloatArray:
    """Row-wise eq. (2.1) over a NaN-padded ``(n_lanes, max_m)`` period block.

    One vectorized life-function evaluation over the full boundary block; NaN
    padding contributes nothing (its work term is zeroed).  Matches
    :meth:`repro.core.schedule.Schedule.expected_work` lane-wise up to
    summation-order float noise.

    ``engine="jit"`` uses the compiled row scorer when numba is usable and
    ``p`` is a Section 4 family (NumPy fallback otherwise).  The compiled
    scorer accumulates each row left to right like the scalar engine, so its
    values may differ from the NumPy path's pairwise row reduction by
    summation-order float noise — the same relationship the scalar and NumPy
    engines already have with each other.
    """
    if engine not in ("numpy", "jit"):
        raise InvalidScheduleError(
            f"unknown engine {engine!r}; expected 'numpy' or 'jit'"
        )
    if c < 0:
        raise InvalidScheduleError(f"overhead c must be nonnegative, got {c}")
    if engine == "jit":
        from .. import jitkernels

        if jitkernels.available():
            mapped = jitkernels.life_family_of(p)
            if mapped is not None:
                fam, d, theta = mapped
                n = np.asarray(periods).shape[0]
                return jitkernels.kernels().expected_work_rows(
                    np.ascontiguousarray(periods, dtype=np.float64),
                    fam,
                    int(d),
                    np.full(n, float(c)),
                    np.full(n, float(theta)),
                )
    filled = np.where(np.isnan(periods), 0.0, periods)
    boundaries = np.cumsum(filled, axis=1)
    survival = np.asarray(p(boundaries), dtype=float)
    work = np.maximum(0.0, filled - c)
    # "+ 0.0" normalizes IEEE -0.0 (from p values of -0.0 at the lifespan).
    return np.sum(work * survival, axis=1) + 0.0
