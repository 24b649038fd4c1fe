"""The NumPy lane loop for system (3.6), and its mixed ``(c, θ, t0)`` engine.

:func:`_iterate_lanes` is the one NumPy loop that advances Corollary 3.1's
system (3.6) over a vector of lanes: lifespan clamping, live-lane
compaction, the scalar engine's five termination rules in its priority
order, and the left-to-right ``E`` the tail rule reads.  Callers supply the
per-lane step and survival: :mod:`repro.core.batch_recurrence` runs a
``t_0`` sweep through it with constant ``c``/θ lanes, and
:func:`generate_schedules_hetero` runs the transpose batched serving needs
(:meth:`repro.analysis.tables_precompute.TableServer.query_batch`) —
thousands of queries, each with its **own** overhead ``c`` and family
parameter ``θ``, inside one Section 4 closed-form family.  Because the
closed-form steps of eqs. (4.1), (4.6), (4.7) and the general ``p_{d,L}``
form are arithmetic in ``(c, θ)``, the mixed batch still advances with one
vector operation per recurrence step.

Each lane ``i`` of :func:`generate_schedules_hetero` reproduces
:func:`repro.core.recurrence.generate_schedule` for
``(make_family_life(family, θ_i), c_i, t0_i)``, periods and expected work
alike.  Relative to the scalar engine the periods may drift by an ulp where
``libm`` and NumPy's ufunc kernels round ``pow`` differently, but every
operation is elementwise per lane, so an ``n = 1`` call is
**bit-identical** to the corresponding lane of an ``n = N`` call — the
invariant the batched serving parity tests rely on (scalar serving entry
points are thin ``n = 1`` wrappers over this engine, never a separate code
path).  Only the four table families are supported.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..exceptions import InvalidScheduleError
from ..types import FloatArray
from .recurrence import Termination
from .schedule import Schedule

__all__ = [
    "HETERO_FAMILIES",
    "HeteroBatchResult",
    "generate_schedules_hetero",
]

#: Families with per-lane vectorized kernels (the Section 4 table families).
HETERO_FAMILIES = ("uniform", "poly", "geomdec", "geominc")

#: Stable integer codes for per-lane termination bookkeeping, shared by both
#: lane engines and the compiled kernels.
_TERMINATION_BY_CODE: tuple[Termination, ...] = (
    Termination.TARGET_NONPOSITIVE,
    Termination.UNPRODUCTIVE,
    Termination.LIFESPAN_EXHAUSTED,
    Termination.TAIL_NEGLIGIBLE,
    Termination.MAX_PERIODS,
)
_CODE: dict[Termination, int] = {t: i for i, t in enumerate(_TERMINATION_BY_CODE)}

_LN2 = math.log(2.0)

#: ``step(idx, t_prev, T_prev, p(T_prev)) -> t_next`` over the live lanes
#: ``idx``; NaN means "no next period".
StepFn = Callable[[np.ndarray, FloatArray, FloatArray, FloatArray], FloatArray]
#: ``survival(idx, T) -> p(T)`` over the live lanes ``idx``.
SurvivalFn = Callable[[np.ndarray, FloatArray], FloatArray]


@dataclass(frozen=True)
class HeteroBatchResult:
    """Per-lane schedules for a mixed ``(c, θ, t0)`` batch, NaN-padded."""

    family: str
    #: Per-lane overheads / family parameters / initial periods.
    cs: FloatArray
    params: FloatArray
    t0s: FloatArray
    #: Period lengths, shape ``(n_lanes, max_m)``; NaN beyond a lane's end.
    periods: FloatArray
    num_periods: np.ndarray
    termination_codes: np.ndarray
    #: ``E(S; p)`` per lane, accumulated exactly as the scalar engine does.
    expected_work: FloatArray

    @property
    def n_lanes(self) -> int:
        return int(self.t0s.size)

    def termination(self, i: int) -> Termination:
        return _TERMINATION_BY_CODE[int(self.termination_codes[i])]

    def schedule(self, i: int) -> Schedule:
        """Materialize lane ``i`` as a :class:`Schedule`."""
        m = int(self.num_periods[i])
        return Schedule(self.periods[i, :m])


# ----------------------------------------------------------------------
# Per-family vectorized kernels (survival + closed-form step)
# ----------------------------------------------------------------------


def _survival(family: str, d: int, params: FloatArray, t: FloatArray) -> FloatArray:
    """Lane-wise ``p(t; θ)``, matching ``LifeFunction.__call__``'s clamping."""
    if family in ("uniform", "poly"):
        out = 1.0 - (t / params) ** d
    elif family == "geomdec":
        out = np.exp(-np.log(params) * t)
    else:  # geominc
        denom = -np.expm1(-params * _LN2)
        out = -np.expm1((t - params) * _LN2) / denom
    return np.clip(out, 0.0, 1.0)


def _step(
    family: str,
    d: int,
    cs: FloatArray,
    ln_a: FloatArray,
    t_prev: FloatArray,
    boundary_prev: FloatArray,
) -> FloatArray:
    """One lane-wise closed-form recurrence step; NaN means "no next period".

    Mirrors :func:`repro.core.recurrence._closed_form_step` per family, with
    the scalar parameters ``c`` and ``ln a`` (read by the
    geometric-decreasing family only) promoted to per-lane vectors.
    """
    if family == "uniform" or (family == "poly" and d == 1):
        return t_prev - cs  # eq. (4.1)
    if family == "poly":
        ratio = 1.0 + d * (t_prev - cs) / boundary_prev
        ok = ratio > 0.0
        out = np.full_like(t_prev, np.nan)
        out[ok] = (ratio[ok] ** (1.0 / d) - 1.0) * boundary_prev[ok]
        return out
    if family == "geomdec":
        arg = 1.0 + (cs - t_prev) * ln_a
        ok = arg > 0.0
        out = np.full_like(t_prev, np.nan)
        out[ok] = -np.log(arg[ok]) / ln_a[ok]
        return out
    # geominc
    arg = (t_prev - cs) * _LN2 + 1.0
    ok = arg > 0.0
    out = np.full_like(t_prev, np.nan)
    out[ok] = np.log2(arg[ok])
    return out


def _closed_form(family: str, d: int, cs: FloatArray, ln_a: FloatArray) -> StepFn:
    """The lane-loop step for a Section 4 family over per-lane ``c``/``ln a``."""
    return lambda idx, tp, b, ph: _step(family, d, cs[idx], ln_a[idx], tp, b)


# ----------------------------------------------------------------------
# The shared lane loop
# ----------------------------------------------------------------------


def _check_lanes(cs: FloatArray, t0s: FloatArray) -> None:
    """Reject lanes no schedule exists for, before any engine runs."""
    if t0s.size == 0:
        raise InvalidScheduleError("need at least one lane")
    bad_c = ~(np.isfinite(cs) & (cs >= 0))
    if np.any(bad_c):
        bad = int(np.argmax(bad_c))
        raise InvalidScheduleError(
            f"overhead c must be finite and nonnegative, got {cs[bad]} (lane {bad})"
        )
    if not np.all(np.isfinite(t0s)):
        raise InvalidScheduleError("t0 candidates must be finite")
    if np.any(t0s <= cs):
        bad = int(np.argmax(t0s <= cs))
        raise InvalidScheduleError(
            f"initial period t0 = {t0s[bad]} must exceed the overhead "
            f"c = {cs[bad]} (lane {bad})"
        )


def _iterate_lanes(
    t0s: FloatArray,
    cs: FloatArray,
    lifespans: FloatArray,
    step: StepFn,
    survival: SurvivalFn,
    max_periods: int,
    tail_tol: float,
) -> tuple[FloatArray, np.ndarray, np.ndarray, FloatArray]:
    """Iterate system (3.6) over validated lanes; the one NumPy lane loop.

    Returns ``(periods, num_periods, termination_codes, expected_work)``:
    periods NaN-padded to the longest lane, and ``E`` accumulated left to
    right per lane, exactly as the scalar engine's tail rule reads it.
    """
    n = t0s.size
    finite_life = bool(np.any(np.isfinite(lifespans)))

    term = np.full(n, _CODE[Termination.MAX_PERIODS], dtype=np.int8)
    alive = np.ones(n, dtype=bool)
    first = t0s.copy()
    if finite_life:
        # A t0 spanning the whole lifespan earns p(L) = 0; clamp rather than
        # reject so t0 sweeps stay total (scalar engine's pre-loop rule).
        clamped = t0s >= lifespans
        if np.any(clamped):
            first[clamped] = np.minimum(t0s[clamped], lifespans[clamped])
            term[clamped] = _CODE[Termination.LIFESPAN_EXHAUSTED]
            alive[clamped] = False

    sqrt_tail = math.sqrt(tail_tol)

    # Compacted live-lane state: ``idx`` maps the compact rows back to lanes;
    # everything else (previous period, boundary T_{k-1}, p(T_{k-1}), banked
    # E, and the lane's c and L) lives in dense arrays the vector ops run
    # over directly.  Dead lanes are dropped by boolean compaction instead of
    # masked out, so per-step cost tracks the number of *surviving* lanes.
    idx = np.nonzero(alive)[0]
    tp = first[idx]
    b = first[idx]
    lc = cs[idx]
    ll = lifespans[idx]
    ph = survival(idx, b) if idx.size else np.empty(0)
    e_full = np.zeros(n)
    e_full[idx] = np.maximum(0.0, tp - lc) * ph
    e = e_full[idx]

    # NaN-padded output buffer, grown geometrically; column k holds period
    # k+1 for the lanes that reached it.
    cap = 32
    periods_buf = np.full((n, cap), np.nan)
    k = 0

    for _ in range(max_periods - 1):
        if idx.size == 0:
            break
        if finite_life:
            hit = b >= ll - 1e-15 * ll
            if np.any(hit):
                term[idx[hit]] = _CODE[Termination.LIFESPAN_EXHAUSTED]
                keep = ~hit
                idx, tp, b, lc, ll, ph, e = (
                    idx[keep], tp[keep], b[keep], lc[keep], ll[keep], ph[keep], e[keep],
                )
                if idx.size == 0:
                    break

        t_next = step(idx, tp, b, ph)
        nonpositive = np.isnan(t_next)
        unproductive = ~nonpositive & (t_next <= lc)
        if finite_life:
            overshoot = ~nonpositive & ~unproductive & (b + t_next > ll)
            surviving = ~(nonpositive | unproductive | overshoot)
            term[idx[overshoot]] = _CODE[Termination.LIFESPAN_EXHAUSTED]
        else:
            surviving = ~(nonpositive | unproductive)
        term[idx[nonpositive]] = _CODE[Termination.TARGET_NONPOSITIVE]
        term[idx[unproductive]] = _CODE[Termination.UNPRODUCTIVE]
        if not np.any(surviving):
            break

        sidx = idx[surviving]
        tn = t_next[surviving]
        if k == cap:
            cap *= 2
            grown = np.full((n, cap), np.nan)
            grown[:, : periods_buf.shape[1]] = periods_buf
            periods_buf = grown
        periods_buf[sidx, k] = tn
        k += 1

        b = b[surviving] + tn
        tp = tn
        lc = lc[surviving]
        ll = ll[surviving]
        ph = survival(sidx, b)
        contribution = (tn - lc) * ph
        e = e[surviving] + contribution
        e_full[sidx] = e
        negligible = (contribution < tail_tol * np.maximum(1.0, e)) & (ph < sqrt_tail)
        if np.any(negligible):
            term[sidx[negligible]] = _CODE[Termination.TAIL_NEGLIGIBLE]
            keep = ~negligible
            idx, tp, b, lc, ll, ph, e = (
                sidx[keep], tp[keep], b[keep], lc[keep], ll[keep], ph[keep], e[keep],
            )
        else:
            idx = sidx

    periods = np.concatenate([first[:, None], periods_buf[:, :k]], axis=1)
    num_periods = 1 + np.sum(~np.isnan(periods[:, 1:]), axis=1)
    return periods, num_periods, term, e_full


# ----------------------------------------------------------------------
# The mixed-lane engine
# ----------------------------------------------------------------------


def generate_schedules_hetero(
    family: str,
    cs: FloatArray,
    params: FloatArray,
    t0s: FloatArray,
    d: int = 1,
    max_periods: int = 10_000,
    tail_tol: float = 1e-12,
    engine: str = "numpy",
) -> HeteroBatchResult:
    """Iterate system (3.6) over lanes with per-lane ``(c, θ, t0)``.

    ``d`` is the polynomial degree (only read for ``family="poly"``;
    ``"uniform"`` is the ``d = 1`` special case).  Lane ``i`` reproduces
    ``generate_schedule(make_family_life(family, params[i]), cs[i], t0s[i])``
    period-for-period, with the engine-internal expected work accumulated in
    the scalar engine's left-to-right order.

    ``engine="jit"`` runs the compiled per-lane loop from
    :mod:`repro.jitkernels` when numba is importable and enabled, silently
    falling back to this NumPy path otherwise; the compiled loop replays the
    same operations per lane, so results agree bit-for-bit except at the
    transcendental sites documented in :mod:`repro.jitkernels.kernels`.

    Raises
    ------
    InvalidScheduleError
        On an unsupported family, mismatched lane vectors, an unknown
        ``engine``, a ``d`` that is not a positive integer, any ``c`` that
        is not finite and nonnegative, any ``θ`` outside the family's domain
        (``L > 0``; ``a > 1`` for ``"geomdec"``), or any non-finite /
        unproductive (``t0 <= c``) initial period.
    """
    if engine not in ("numpy", "jit"):
        raise InvalidScheduleError(
            f"unknown engine {engine!r}; expected 'numpy' or 'jit'"
        )
    if family not in HETERO_FAMILIES:
        raise InvalidScheduleError(
            f"family {family!r} has no heterogeneous batch kernel; "
            f"expected one of {HETERO_FAMILIES}"
        )
    if not (isinstance(d, numbers.Real) and float(d).is_integer() and d >= 1):
        raise InvalidScheduleError(f"degree d must be a positive integer, got {d!r}")
    cs = np.asarray(cs, dtype=float)
    params = np.asarray(params, dtype=float)
    t0_arr = np.asarray(t0s, dtype=float)
    if not (cs.shape == params.shape == t0_arr.shape) or cs.ndim != 1:
        raise InvalidScheduleError(
            f"cs/params/t0s must be equal-length vectors, got shapes "
            f"{cs.shape}/{params.shape}/{t0_arr.shape}"
        )
    _check_lanes(cs, t0_arr)
    floor, name = (1.0, "a > 1") if family == "geomdec" else (0.0, "L > 0")
    bad_theta = ~(np.isfinite(params) & (params > floor))
    if np.any(bad_theta):
        bad = int(np.argmax(bad_theta))
        raise InvalidScheduleError(
            f"family parameter {params[bad]} is outside the {family!r} domain "
            f"{name} (lane {bad})"
        )
    d = int(d) if family == "poly" else 1

    from .. import jitkernels

    if engine == "jit" and jitkernels.available():
        periods, num_periods, term, e_full = jitkernels.kernels().hetero_recurrence(
            jitkernels.family_code(family), d, np.ascontiguousarray(cs),
            np.ascontiguousarray(params), np.ascontiguousarray(t0_arr),
            int(max_periods), float(tail_tol),
        )
    else:
        # No usable numba (or engine="numpy"): the NumPy lane loop.
        lifespans = np.full_like(params, np.inf) if family == "geomdec" else params
        periods, num_periods, term, e_full = _iterate_lanes(
            t0_arr, cs, lifespans, _closed_form(family, d, cs, np.log(params)),
            lambda idx, b: _survival(family, d, params[idx], b), max_periods, tail_tol,
        )
        e_full = e_full + 0.0
    return HeteroBatchResult(
        family=family, cs=cs, params=params, t0s=t0_arr, periods=periods,
        num_periods=num_periods, termination_codes=term, expected_work=e_full,
    )
