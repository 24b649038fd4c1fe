"""Fleet-scale farm engine: one shared event core for 100–100k hosts.

:func:`repro.now.farm.run_farm` simulates borrowed workstations faithfully
but pays O(tasks) of Python per period event — `Task` objects are popped,
re-summed, and re-appended one at a time, and every workstation carries its
own policy object.  That is fine for one host and hopeless for a fleet.
This module rebuilds the same simulation for *N* hosts around three ideas:

1. **Struct-of-arrays planning and accounting.**  A :class:`FleetSpec` holds
   the per-host life-function family parameters, overheads ``c``, relative
   speeds, and owner presence means as NumPy vectors.  Schedules for all
   hosts come from *one* lane-batched call into the heterogeneous recurrence
   engine (:func:`repro.core.hetero_recurrence.generate_schedules_hetero`,
   ``engine="jit"`` supported): a ``grid``-point ``t_0`` search window per
   host (closed-form Section 4 brackets, vectorized in
   :func:`repro.core.t0_bounds.family_bracket_batch`) is evaluated as
   ``N × grid`` lanes and argmax-reduced per host — not 10k optimizer
   invocations.  Results come back as SoA arrays (:class:`FleetResult`).

2. **Range-based task pools.**  The workload is one global durations array
   with a prefix-sum; a pool is a deque of ``(lo, hi)`` index ranges.
   Packing a period is a binary search into the prefix sum plus an exact
   fix-up loop that applies the scalar :meth:`TaskPool.checkout` admission
   test literally — O(log n) instead of O(bundle).  Kills restore ranges to
   the front, steals split ranges off the tail.

3. **Batched owner draws on per-host substreams.**  Each host draws its
   presence/absence durations from ``default_rng([seed, 0, host_key])`` in
   256-wide blocks consumed from the end — the exact
   :class:`~repro.now.owner.OwnerProcess` buffering discipline, so a run is
   bit-reproducible from ``(seed, n_hosts, policy)`` and an ``n = 1`` fleet
   is **bit-identical** to ``run_farm`` fed the same substream (dispatch
   log, stats, goodput, and fault digest — differentially tested).
   The streams are not built with one ``default_rng`` call per host:
   :func:`_host_generators` runs SeedSequence's entropy hash for every host
   key at once in NumPy uint32 arithmetic and seeds each ``PCG64`` from the
   precomputed words.  The contract is unchanged: host ``key`` gets exactly
   the state of ``default_rng([seed, 0|1, key])`` (tested state for state
   against that oracle, which :func:`host_rng` still builds the plain way).

4. **A calendar-queue batched event core** (``run_fleet(core="batched")``,
   the default).  Every owner leave/return is precomputed in bulk up front
   (:func:`_plan_owner_timelines` extends the ``FaultRuntime.crash_arrays``
   planning idea to owner draws: whole 256-wide blocks per host, the family
   inverse transform vectorized across hosts, one ``np.cumsum`` per chunk —
   the same left-to-right float additions the lazy scalar path performs).
   Together with the fault runtime's crash/restart arrays these static
   events are sorted once (``np.lexsort`` or the ``fleet_event_order`` JIT
   kernel) and partitioned into fixed-width time buckets; the drain loop
   walks one bucket's cohort at a time as a presorted list — no per-event
   ``heappush``/``heappop`` — and only period-end events born inside the
   current bucket pay a ``bisect.insort``.  Within a bucket events are
   processed in exact ``(time, prio, seq)`` order, so the core is
   bit-identical to the heap loop (``core="heap"``, retained as the
   differential oracle): stats, events processed, completion time, policy
   trace, committed task order, and fault digest all match across all
   three policies and every fault class — the cross-core gate in
   ``repro fleet --quick`` and the hypothesis suites enforce it.  Both
   cores share one int64 event sequence ``(idx << 32) | epoch`` (checked
   against overflow) so even exact time/priority ties order identically.

Dispatch policies
-----------------
* ``"sharing"`` — centralized: every host packs from one master-held pool.
* ``"stealing"`` — randomized work stealing: the workload is split evenly
  into per-host pools; a host whose pool drains picks one uniformly random
  victim (stream ``default_rng([seed, 1, host_key])``) and steals the back
  half of its pending ranges.  A failed attempt idles until the next owner
  event.
* ``"stealing-latency"`` — identical, but a successful steal charges a
  round-trip of the thief's own overhead ``c`` as extra wall-clock on the
  period that ships the stolen work (the steal-latency regime of
  Gast/Khatiri/Trystram, arXiv:1805.00857, mapped onto the paper's single
  overhead parameter).

Host churn reuses the PR 4 fault runtime unchanged (crash/restart kills
in-flight work exactly like an owner reclaim; loss, delay, jitter,
corruption, and drift hook in at the same event-loop points as
``run_farm``).  The resilient retry path is deliberately not supported here
— a lost dispatch idles until the next owner event, matching
``run_farm(retry=None)``.

:func:`mean_field_fleet` computes a fixed-point approximation of fleet
makespan/goodput (availability × per-episode expected work over the owner
renewal cycle, with an iterated steal-RTT correction for the latency
policy) in the spirit of Van Houdt's mean-field analyses of stealing
(arXiv:1810.13186); ``bench_fleet.py`` records its error against
simulation.

Exact-parity caveat: the per-range admission test reproduces the scalar
per-task loop bit-for-bit when partial prefix sums are exact in binary
floating point (e.g. the dyadic task durations the benchmarks use); for
general durations the packing may differ from the scalar loop only at the
``1e-12`` admission tolerance boundary.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from ..core.hetero_recurrence import HETERO_FAMILIES, generate_schedules_hetero
from ..core.life_functions import (
    GeometricDecreasingLifespan,
    GeometricIncreasingRisk,
    LifeFunction,
    PolynomialRisk,
    UniformRisk,
)
from ..core.schedule import Schedule
from ..core.t0_bounds import family_bracket_batch
from ..exceptions import SimulationError
from ..faults import CrashFault, FaultLog, FaultPlan, FaultRuntime
from .farm import (
    _OWNER_LEAVES,
    _OWNER_RETURNS,
    _PERIOD_ENDS,
    _WS_CRASH,
    _WS_RESTART,
    WorkstationStats,
)
from .network import Network, Workstation
from .owner import OwnerProcess

__all__ = [
    "FLEET_POLICIES",
    "FLEET_CORES",
    "FleetSpec",
    "FleetPlan",
    "FleetResult",
    "plan_fleet_schedules",
    "run_fleet",
    "host_network",
    "host_rng",
    "mean_field_fleet",
]

FLEET_POLICIES = ("sharing", "stealing", "stealing-latency")
FLEET_CORES = ("batched", "heap")

_LN2 = math.log(2.0)
_BLOCK = 256  # OwnerProcess's draw-buffer width; must match for bit parity.

# One int64 orders every event: seq = (host idx << 32) | dispatch epoch.
# Both cores break exact (time, prio) ties with this same key, so their
# event orders are identical by construction; pushes check the epoch field
# against overflow instead of trusting an unbounded counter.
_SEQ_EPOCH_BITS = 32
_SEQ_EPOCH_MASK = (1 << _SEQ_EPOCH_BITS) - 1
_MAX_HOSTS = 1 << 30  # keeps seq inside a signed int64 for the JIT kernels
_TIMELINE_CHUNK = 4096  # hosts per vectorized owner-timeline batch

#: Default heterogeneity ranges per family: (param range, c range).
_HETERO_RANGES = {
    "uniform": ((50.0, 400.0), (0.5, 3.0)),
    "poly": ((50.0, 400.0), (0.5, 3.0)),
    "geomdec": ((1.02, 1.5), (0.1, 1.0)),
    "geominc": ((10.0, 120.0), (0.25, 2.0)),
}


def _make_life(family: str, value: float, d: int) -> LifeFunction:
    if family == "uniform":
        return UniformRisk(value)
    if family == "poly":
        return PolynomialRisk(d, value)
    if family == "geomdec":
        return GeometricDecreasingLifespan(value)
    return GeometricIncreasingRisk(value)


# ----------------------------------------------------------------------
# The fleet specification (SoA per-host parameters)
# ----------------------------------------------------------------------


def _check_seed(seed: int) -> None:
    # SeedSequence only takes non-negative entropy; reject at the boundary
    # instead of deep inside run_fleet's host seeding.
    if seed < 0:
        raise SimulationError(f"fleet seed must be non-negative, got {seed}")


@dataclass(frozen=True)
class FleetSpec:
    """Per-host parameters for one fleet, as struct-of-arrays vectors.

    ``host_keys`` are the stable identities used for RNG substreams, fault
    streams, and log records; permuting hosts *with* their keys leaves every
    host's owner timeline unchanged (tested).  Defaults to ``0..n-1``.
    """

    family: str
    cs: np.ndarray
    params: np.ndarray
    speeds: np.ndarray
    present_means: np.ndarray
    d: int = 1
    seed: int = 0
    host_keys: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.family not in HETERO_FAMILIES:
            raise SimulationError(
                f"fleet family {self.family!r} must be one of {HETERO_FAMILIES}"
            )
        for name in ("cs", "params", "speeds", "present_means"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.ndim != 1 or arr.shape != self.cs.shape:
                raise SimulationError(
                    f"{name} must be a vector matching cs, got shape {arr.shape}"
                )
        if self.cs.size == 0:
            raise SimulationError("a fleet needs at least one host")
        if np.any(self.cs < 0):
            raise SimulationError("overheads c must be nonnegative")
        if np.any(self.params <= 0) or not np.all(np.isfinite(self.params)):
            raise SimulationError(
                "life-function params must be positive and finite"
            )
        if np.any(self.speeds <= 0) or not np.all(np.isfinite(self.speeds)):
            raise SimulationError("host speeds must be positive and finite")
        if np.any(self.present_means <= 0):
            raise SimulationError("present means must be positive")
        keys = self.host_keys
        if keys is None:
            keys = np.arange(self.n_hosts)
        keys = np.asarray(keys, dtype=np.int64)
        if keys.shape != self.cs.shape or len(set(keys.tolist())) != keys.size:
            raise SimulationError("host_keys must be unique, one per host")
        if keys.min() < 0:
            raise SimulationError(
                f"host_keys must be non-negative, got {int(keys.min())}"
            )
        _check_seed(self.seed)
        object.__setattr__(self, "host_keys", keys)
        object.__setattr__(self, "d", int(self.d) if self.family == "poly" else 1)

    @property
    def n_hosts(self) -> int:
        return int(self.cs.size)

    @classmethod
    def homogeneous(
        cls,
        n_hosts: int,
        family: str = "uniform",
        param: float = 64.0,
        c: float = 1.0,
        present_mean: float = 8.0,
        speed: float = 1.0,
        d: int = 1,
        seed: int = 0,
    ) -> "FleetSpec":
        """``n_hosts`` identical hosts (each still on its own RNG substream)."""
        full = lambda v: np.full(int(n_hosts), float(v))
        return cls(family, full(c), full(param), full(speed),
                   full(present_mean), d=d, seed=seed)

    @classmethod
    def heterogeneous(
        cls,
        n_hosts: int,
        family: str = "uniform",
        param_range: Optional[tuple[float, float]] = None,
        c_range: Optional[tuple[float, float]] = None,
        speed_range: tuple[float, float] = (0.5, 2.0),
        present_mean_range: tuple[float, float] = (4.0, 16.0),
        d: int = 1,
        seed: int = 0,
    ) -> "FleetSpec":
        """Draw per-host parameters from seeded log-uniform ranges.

        The draws come from the dedicated spec substream
        ``default_rng([seed, 2])`` so they never interact with the owner
        (``[seed, 0, key]``) or steal (``[seed, 1, key]``) streams.
        """
        if int(n_hosts) < 1:
            raise SimulationError(
                f"a heterogeneous fleet needs at least one host, got {n_hosts}"
            )
        default_p, default_c = _HETERO_RANGES[family] if family in _HETERO_RANGES \
            else _HETERO_RANGES["uniform"]
        p_lo, p_hi = param_range or default_p
        c_lo, c_hi = c_range or default_c
        for name, (lo, hi) in (
            ("param_range", (p_lo, p_hi)),
            ("c_range", (c_lo, c_hi)),
            ("speed_range", tuple(speed_range)),
            ("present_mean_range", tuple(present_mean_range)),
        ):
            if not (math.isfinite(lo) and math.isfinite(hi)) \
                    or lo <= 0 or hi < lo:
                raise SimulationError(
                    f"heterogeneous {name} must satisfy 0 < lo <= hi with "
                    f"finite bounds (log-uniform draws), got ({lo}, {hi})"
                )
        _check_seed(seed)
        rng = np.random.default_rng([int(seed), 2])
        logu = lambda lo, hi: np.exp(rng.uniform(math.log(lo), math.log(hi),
                                                 int(n_hosts)))
        return cls(family, logu(c_lo, c_hi), logu(p_lo, p_hi),
                   logu(*speed_range), logu(*present_mean_range), d=d, seed=seed)


def host_rng(spec: FleetSpec, i: int) -> np.random.Generator:
    """Host ``i``'s owner-draw substream: ``default_rng([seed, 0, key_i])``.

    Built the plain way on purpose: it is the independent oracle that the
    n = 1 parity harness and the seeding tests check :func:`run_fleet`'s
    vectorized :func:`_host_generators` against.
    """
    return np.random.default_rng([int(spec.seed), 0, int(spec.host_keys[i])])


# ----------------------------------------------------------------------
# Vectorized host seeding
# ----------------------------------------------------------------------

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_SS_POOL = 4
_SS_INIT_A = 0x43B0D7E5
_SS_MULT_A = 0x931E8875
_SS_INIT_B = 0x8B51F9DD
_SS_MULT_B = 0x58F38DED
_SS_MIX_L = np.uint32(0xCA01F9DD)
_SS_MIX_R = np.uint32(0x4973F715)
_SS_SHIFT = np.uint32(16)
_U32 = 0xFFFFFFFF


def _uint32_words(n: int) -> list[int]:
    """SeedSequence's split of one non-negative int into uint32 words."""
    n = int(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _U32]
    n >>= 32
    while n:
        words.append(n & _U32)
        n >>= 32
    return words


def _seed_state(entropy: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for many rows.

    ``entropy`` holds one uint32 column per entropy word (all rows share the
    word count).  The hash constants evolve independently of the data, so
    SeedSequence's scalar loops become column operations in wrapping uint32
    arithmetic.  Entropy shorter than the pool is zero-padded, which is what
    the scalar ``hashmix(0)`` fill computes; longer entropy runs the extra
    mixing loop.  Returns an ``(rows, 4)`` uint64 array.
    """
    hash_const = _SS_INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _SS_MULT_A) & _U32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _SS_SHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _SS_MIX_L * x - _SS_MIX_R * y
        return result ^ (result >> _SS_SHIFT)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_SS_POOL)]
    for i_src in range(_SS_POOL):
        for i_dst in range(_SS_POOL):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_SS_POOL, len(entropy)):
        for i_dst in range(_SS_POOL):
            pool[i_dst] = mix(pool[i_dst], hashmix(entropy[i_src]))

    # generate_state(4, uint64): 8 uint32 words cycled off the pool, paired
    # little-end first into 4 uint64 words.
    hash_const = _SS_INIT_B
    state = np.empty((zero.size, 8), dtype=np.uint32)
    for i in range(8):
        value = pool[i % _SS_POOL] ^ np.uint32(hash_const)
        hash_const = (hash_const * _SS_MULT_B) & _U32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> _SS_SHIFT)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """A precomputed PCG64 seed: the 4 uint64 words of one SeedSequence."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(
                f"precomputed seed holds 4 uint64 words, asked for "
                f"{n_words} {np.dtype(dtype)}"
            )
        return self._words


def _host_generators(
    seed: int, stream: int, keys: Sequence[int]
) -> list[np.random.Generator]:
    """One generator per host key, each equal to
    ``default_rng([seed, stream, key])``.

    SeedSequence hashing runs once for all keys (:func:`_seed_state`),
    grouped by entropy word count (a key ``>= 2**32`` is two words), and
    each ``PCG64`` is seeded from its precomputed words — same states, about
    a fifth of the per-host cost of ``default_rng``.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size and int(keys.min()) < 0:
        raise ValueError("expected non-negative integer")
    head = [np.full(keys.size, w, dtype=np.uint32)
            for w in _uint32_words(seed) + _uint32_words(stream)]
    low = (keys & _U32).astype(np.uint32)
    high = (keys >> 32).astype(np.uint32)
    wide = high != 0
    words = np.empty((keys.size, 4), dtype=np.uint64)
    for rows, extra in ((np.flatnonzero(~wide), []),
                        (np.flatnonzero(wide), [high])):
        if rows.size:
            words[rows] = _seed_state(
                [col[rows] for col in head + [low] + extra]
            )
    return [np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in words]


def host_life(spec: FleetSpec, i: int) -> LifeFunction:
    """Host ``i``'s life function, materialized from the SoA parameters."""
    return _make_life(spec.family, float(spec.params[i]), spec.d)


def host_network(spec: FleetSpec, i: int) -> Network:
    """A single-host :class:`Network` equivalent to fleet host ``i``.

    Feeding this (plus :func:`host_rng` and the host's planned schedule) to
    ``run_farm`` reproduces the fleet host bit-for-bit — the differential
    contract the parity tests enforce.
    """
    owner = OwnerProcess.from_life_function(
        host_life(spec, i), float(spec.present_means[i])
    )
    ws = Workstation(int(spec.host_keys[i]), owner, speed=float(spec.speeds[i]))
    return Network([ws], c=float(spec.cs[i]))


# ----------------------------------------------------------------------
# Batched schedule planning
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FleetPlan:
    """Per-host schedules chosen by one lane-batched ``t_0`` grid search."""

    family: str
    d: int
    t0s: np.ndarray
    #: Period lengths, shape ``(n_hosts, max_m)``, NaN-padded per host.
    periods: np.ndarray
    num_periods: np.ndarray
    #: Engine ``E(S; p)`` per host (unit speed; multiply by speed for rate).
    expected_work: np.ndarray
    grid: int
    engine: str

    @property
    def n_hosts(self) -> int:
        return int(self.t0s.size)

    def schedule(self, i: int) -> Schedule:
        m = int(self.num_periods[i])
        return Schedule(self.periods[i, :m])


def plan_fleet_schedules(
    spec: FleetSpec, grid: int = 9, engine: str = "numpy"
) -> FleetPlan:
    """Plan every host's schedule in one heterogeneous-engine call.

    Builds a ``grid``-point ``t_0`` window per host from the vectorized
    Section 4 closed-form brackets, evaluates all ``n_hosts × grid`` lanes
    through :func:`generate_schedules_hetero` (``engine="jit"`` uses the
    compiled lane loop when numba is available), and keeps each host's
    argmax-``E`` lane.
    """
    if grid < 1:
        raise SimulationError(f"t0 grid must have at least 1 point, got {grid}")
    n = spec.n_hosts
    lo, hi = family_bracket_batch(spec.family, spec.cs, spec.params, spec.d)
    # Clamp into the engine's validity window: c < t0 (< L for finite life).
    lo = np.maximum(lo, spec.cs * (1.0 + 1e-9) + 1e-12)
    if spec.family != "geomdec":
        hi = np.minimum(hi, spec.params * (1.0 - 1e-12))
    hi = np.maximum(hi, lo)
    fracs = np.linspace(0.0, 1.0, grid)
    t0_grid = lo[:, None] + fracs[None, :] * (hi - lo)[:, None]
    result = generate_schedules_hetero(
        spec.family,
        np.repeat(spec.cs, grid),
        np.repeat(spec.params, grid),
        t0_grid.ravel(),
        d=spec.d,
        engine=engine,
    )
    ew = result.expected_work.reshape(n, grid)
    best = np.argmax(ew, axis=1)
    rows = np.arange(n) * grid + best
    return FleetPlan(
        family=spec.family,
        d=spec.d,
        t0s=t0_grid[np.arange(n), best],
        periods=result.periods[rows],
        num_periods=result.num_periods[rows].astype(np.int64),
        expected_work=ew[np.arange(n), best],
        grid=grid,
        engine=engine,
    )


# ----------------------------------------------------------------------
# Range pools: the O(log) replacement for per-Task checkout
# ----------------------------------------------------------------------


class _RangePool:
    """A FIFO pool of ``(lo, hi)`` index ranges over the global durations.

    ``cum`` is the shared prefix sum (``cum[k]`` = total duration of tasks
    ``0..k-1``), so any range's work is one subtraction.  ``checkout``
    reproduces :meth:`TaskPool.checkout`'s sequential admission test
    (``used + d <= budget + 1e-12``) range-by-range: a binary search (or a
    mean-duration hint) lands near the cut, then an exact fix-up loop
    applies the literal scalar condition, so dyadic-duration workloads pack
    bit-identically.  ``fixup`` optionally routes the clamp + scan loops
    through the ``fleet_checkout_fixup`` JIT kernel (``engine="jit"``).
    """

    __slots__ = ("ranges", "cum", "count", "fixup")

    def __init__(
        self,
        ranges: Sequence[tuple[int, int]],
        cum: np.ndarray,
        fixup=None,
    ) -> None:
        self.ranges: deque[tuple[int, int]] = deque(ranges)
        self.cum = cum
        self.count = sum(hi - lo for lo, hi in self.ranges)
        self.fixup = fixup

    def checkout(
        self, budget: float, inv_mean: float = 0.0
    ) -> tuple[list[tuple[int, int]], float, int]:
        """Take a FIFO prefix fitting ``budget``: (ranges, work, n_tasks).

        ``inv_mean > 0`` (tasks per unit duration, usually the workload's
        global mean) seeds the cut with ``remaining budget × inv_mean``
        instead of a binary search.  The fix-up loops converge to the same
        unique cut from *any* starting index, so the result is identical —
        the batched core passes the hint to drop ``searchsorted`` from its
        hot path (worst case for wildly mixed durations is a longer linear
        fix-up walk, never a different answer).
        """
        limit = budget + 1e-12
        cum = self.cum
        item = cum.item
        queue = self.ranges
        used = 0.0
        n_taken = 0
        taken: list[tuple[int, int]] = []
        while queue:
            lo, hi = queue[0]
            base = item(lo)
            whole = item(hi) - base
            if used + whole <= limit:
                # The whole front range fits.  IEEE addition is monotone, so
                # every per-task prefix also passes the scalar admission test.
                used += whole
                taken.append((lo, hi))
                n_taken += hi - lo
                queue.popleft()
                continue
            if inv_mean > 0.0:
                j = lo + int((limit - used) * inv_mean)
            else:
                j = int(cum.searchsorted(limit - used + base, side="right")) - 1
            if self.fixup is not None:
                j = int(self.fixup(cum, base, used, limit, lo, hi, j))
            else:
                if j < lo:
                    j = lo
                elif j > hi:
                    j = hi
                # Exact fix-up: the scalar pool admits task k iff
                # used + (cum[k+1] - base) <= budget + 1e-12.
                while j < hi and used + (item(j + 1) - base) <= limit:
                    j += 1
                while j > lo and used + (item(j) - base) > limit:
                    j -= 1
            if j > lo:
                used += item(j) - base
                taken.append((lo, j))
                n_taken += j - lo
                queue.popleft()
                queue.appendleft((j, hi))
            break  # partial range: the next task does not fit
        self.count -= n_taken
        return taken, float(used), n_taken

    def restore_front(self, ranges: Sequence[tuple[int, int]]) -> None:
        """Return checked-out ranges to the front, preserving FIFO order."""
        self.ranges.extendleft(reversed(ranges))
        self.count += sum(hi - lo for lo, hi in ranges)

    def extend_back(self, ranges: Sequence[tuple[int, int]]) -> None:
        self.ranges.extend(ranges)
        self.count += sum(hi - lo for lo, hi in ranges)

    def steal_tail(self, target: int) -> tuple[list[tuple[int, int]], int]:
        """Remove ~``target`` tasks from the back (the victim's coldest work)."""
        queue = self.ranges
        stolen: list[tuple[int, int]] = []
        got = 0
        while queue and got < target:
            lo, hi = queue.pop()
            need = target - got
            if hi - lo > need:
                queue.append((lo, hi - need))
                stolen.append((hi - need, hi))
                got = target
            else:
                stolen.append((lo, hi))
                got += hi - lo
        stolen.reverse()
        self.count -= got
        return stolen, got


# ----------------------------------------------------------------------
# Per-host event-loop state
# ----------------------------------------------------------------------


class _Host:
    """Hot per-host cursor state for the shared event loop."""

    __slots__ = (
        "idx", "key", "c", "speed", "present_mean", "life", "rng", "steal_rng",
        "periods", "n_periods", "sched_idx", "pool",
        "pres_buf", "pres_n", "abs_buf", "abs_n",
        "returns", "ep_cursor",
        "absent", "crashed", "reclaim_at", "episode_started", "epoch",
        "inflight", "pending_rtt",
        "episodes", "committed", "killed", "tasks_done",
        "work_done", "work_lost", "overhead_paid", "idle_absent",
        "crashes", "lost", "delayed", "delay_time", "corrupted",
        "steals_attempted", "steals_succeeded", "steal_wait",
    )

    def __init__(self, idx: int, key: int, c: float, speed: float,
                 present_mean: float, life: LifeFunction,
                 rng: np.random.Generator,
                 steal_rng: Optional[np.random.Generator],
                 periods: list, pool: _RangePool) -> None:
        self.idx = idx
        self.key = key
        self.c = c
        self.speed = speed
        self.present_mean = present_mean
        self.life = life
        self.rng = rng
        self.steal_rng = steal_rng
        self.periods = periods
        self.n_periods = len(periods)
        self.sched_idx = 0
        self.pool = pool
        self.pres_buf = None
        self.pres_n = 0
        self.abs_buf = None
        self.abs_n = 0
        # Batched core: precomputed per-leave reclaim times + cursor.
        self.returns = None
        self.ep_cursor = 0
        self.absent = False
        self.crashed = False
        self.reclaim_at = math.inf
        self.episode_started = 0.0
        self.epoch = 0
        self.inflight = None  # (ranges, work, overhead, n_tasks)
        self.pending_rtt = 0.0
        self.episodes = 0
        self.committed = 0
        self.killed = 0
        self.tasks_done = 0
        self.work_done = 0.0
        self.work_lost = 0.0
        self.overhead_paid = 0.0
        self.idle_absent = 0.0
        self.crashes = 0
        self.lost = 0
        self.delayed = 0
        self.delay_time = 0.0
        self.corrupted = 0
        self.steals_attempted = 0
        self.steals_succeeded = 0
        self.steal_wait = 0.0

    # OwnerProcess's exact buffering discipline: 256-wide blocks, consumed
    # from the end, each draw floored at 1e-12 — so the substream is
    # bit-compatible with run_farm driving an OwnerProcess off the same rng.
    def next_present(self) -> float:
        n = self.pres_n
        if n == 0:
            self.pres_buf = self.rng.exponential(self.present_mean, size=_BLOCK)
            n = _BLOCK
        n -= 1
        self.pres_n = n
        v = float(self.pres_buf[n])
        return v if v > 1e-12 else 1e-12

    def next_absent(self) -> float:
        n = self.abs_n
        if n == 0:
            self.abs_buf = self.life.sample_reclaim_times(self.rng, _BLOCK)
            n = _BLOCK
        n -= 1
        self.abs_n = n
        v = float(self.abs_buf[n])
        return v if v > 1e-12 else 1e-12


# ----------------------------------------------------------------------
# Results (struct-of-arrays)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FleetResult:
    """Outcome of one fleet run, with per-host accounting as SoA arrays."""

    policy: str
    host_keys: np.ndarray
    episodes: np.ndarray
    periods_committed: np.ndarray
    periods_killed: np.ndarray
    tasks_completed_per_host: np.ndarray
    work_done: np.ndarray
    work_lost: np.ndarray
    overhead_paid: np.ndarray
    idle_absent_time: np.ndarray
    crashes: np.ndarray
    dispatches_lost: np.ndarray
    dispatches_delayed: np.ndarray
    delay_time: np.ndarray
    periods_corrupted: np.ndarray
    steals_attempted: np.ndarray
    steals_succeeded: np.ndarray
    steal_wait: np.ndarray
    tasks_total: int
    tasks_completed: int
    completion_time: float
    horizon: float
    events_processed: int
    #: Which event core produced this result ("batched" or "heap"); the two
    #: are bit-identical on every other field — the cross-core gate.
    core: str = "batched"
    fault_log: Optional[FaultLog] = None
    #: Structured event trace (``record_log=True`` only): tuples headed by
    #: "plan" / "dispatch" / "commit" / "kill" / "steal".
    dispatch_log: Optional[list] = None

    @property
    def n_hosts(self) -> int:
        return int(self.host_keys.size)

    @property
    def finished(self) -> bool:
        return self.tasks_completed == self.tasks_total

    @property
    def makespan(self) -> float:
        """Completion time if the workload finished, else NaN."""
        return self.completion_time

    @property
    def total_work_done(self) -> float:
        return float(np.sum(self.work_done))

    @property
    def total_work_lost(self) -> float:
        return float(np.sum(self.work_lost))

    @property
    def total_overhead(self) -> float:
        return float(np.sum(self.overhead_paid))

    @property
    def goodput(self) -> float:
        """Committed work per unit horizon time, summed over hosts."""
        return self.total_work_done / self.horizon if self.horizon > 0 else 0.0

    @property
    def total_steals(self) -> int:
        return int(np.sum(self.steals_succeeded))

    @property
    def steal_rate(self) -> float:
        """Successful steals per episode across the fleet (0 for sharing)."""
        eps = int(np.sum(self.episodes))
        return self.total_steals / eps if eps else 0.0

    def stats_for(self, i: int) -> WorkstationStats:
        """Host ``i``'s accounting as a scalar-farm :class:`WorkstationStats`."""
        return WorkstationStats(
            ws_id=int(self.host_keys[i]),
            episodes=int(self.episodes[i]),
            periods_committed=int(self.periods_committed[i]),
            periods_killed=int(self.periods_killed[i]),
            tasks_completed=int(self.tasks_completed_per_host[i]),
            work_done=float(self.work_done[i]),
            work_lost=float(self.work_lost[i]),
            overhead_paid=float(self.overhead_paid[i]),
            idle_absent_time=float(self.idle_absent_time[i]),
            crashes=int(self.crashes[i]),
            dispatches_lost=int(self.dispatches_lost[i]),
            dispatches_delayed=int(self.dispatches_delayed[i]),
            delay_time=float(self.delay_time[i]),
            periods_corrupted=int(self.periods_corrupted[i]),
            retries=0,
        )


# ----------------------------------------------------------------------
# The shared event core
# ----------------------------------------------------------------------


def _partition(n_tasks: int, n_hosts: int) -> list[tuple[int, int]]:
    """Even contiguous split of ``0..n_tasks`` into ``n_hosts`` blocks."""
    base, rem = divmod(n_tasks, n_hosts)
    bounds = [0]
    for i in range(n_hosts):
        bounds.append(bounds[-1] + base + (1 if i < rem else 0))
    return [(bounds[i], bounds[i + 1]) for i in range(n_hosts)]


def _fleet_kernels():
    """The compiled ``(checkout_fixup, event_order)`` pair, or ``(None, None)``.

    Resolved lazily so ``engine="numpy"`` runs never import the probe and
    numba-less installs transparently fall back to the Python/NumPy paths.
    """
    from .. import jitkernels

    if not jitkernels.available():
        return None, None
    k = jitkernels.kernels()
    return k.fleet_checkout_fixup, k.fleet_event_order


def _absence_inverse(
    family: str, d: int, lives: list, u: np.ndarray
) -> np.ndarray:
    """Vectorized ``LifeFunction.inverse`` across one chunk of hosts.

    ``u`` has shape ``(hosts, draws)``; row ``i`` holds host ``i``'s uniform
    block.  Applies the family's closed-form inverse transform with per-host
    parameters broadcast down the rows — the identical elementwise ufunc
    chain each :meth:`LifeFunction.inverse` performs, so every value is
    bit-equal to the per-host scalar path (the cross-core suite pins this).
    """
    m = u.shape[0]
    if family in ("uniform", "poly"):
        L = np.empty((m, 1))
        for r in range(m):
            L[r, 0] = lives[r].lifespan
        return L * (1.0 - u) ** (1.0 / d)
    if family == "geomdec":
        ln_a = np.empty((m, 1))
        for r in range(m):
            ln_a[r, 0] = lives[r].ln_a
        with np.errstate(divide="ignore"):
            return np.where(u > 0, -np.log(np.where(u > 0, u, 1.0)) / ln_a,
                            np.inf)
    # geominc: t = L + log2(1 - u * (1 - 2^{-L})), clipped into [0, L].
    L = np.empty((m, 1))
    for r in range(m):
        L[r, 0] = lives[r].lifespan
    denom = -np.expm1(-L * _LN2)
    inner = 1.0 - u * denom
    out = L + np.log(np.maximum(inner, np.finfo(float).tiny)) / _LN2
    return np.clip(out, 0.0, L)


def _plan_owner_timelines(
    spec: FleetSpec,
    hosts: list,
    horizon: float,
    start_absent: bool,
    runtime,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bulk-precompute every host's owner leave/return events.

    Extends the ``FaultRuntime.crash_arrays`` planning idea to owner draws.
    Per chunk of hosts: presence blocks (``rng.exponential``) and absence
    uniform blocks are drawn per host in the exact lazy refill order
    ``OwnerProcess`` uses (presence block first unless ``start_absent``,
    strict alternation, 256 wide, consumed from the end, floored at
    ``1e-12``), the family inverse transform runs once vectorized across
    the chunk, and the alternating presence/absence durations collapse to a
    timeline with one ``np.cumsum`` per chunk — the same left-to-right IEEE
    additions the scalar event loop performs, so every event time is
    bit-identical to the heap core's ``time + draw`` chain.

    Life drift is baked in exactly: an absence is scaled iff its *leave*
    time crossed the drift threshold, and since scaling never moves an
    already-crossed leave back below the threshold, the crossing computed on
    the unscaled timeline is the true one.  (The drain loop still calls
    ``absence_scale`` per leave for its drift-log side effect.)

    Hosts whose drawn timeline does not yet cover ``horizon`` simply draw
    further block pairs — the extra draws a lazy host would never have made
    are unobservable (generator state is not an output).

    Returns ``(times, prios, seqs)`` for every owner event with
    ``time <= horizon`` (unsorted), and fills ``h.returns`` /
    ``h.ep_cursor`` on each host with the per-leave reclaim lookup.
    """
    if runtime is not None:
        drift_at, drift_scale = runtime.drift_params()
    else:
        drift_at, drift_scale = math.inf, 1.0
    family, d = spec.family, spec.d
    out_t: list[np.ndarray] = []
    out_p: list[np.ndarray] = []
    out_s: list[np.ndarray] = []
    for c0 in range(0, len(hosts), _TIMELINE_CHUNK):
        act = hosts[c0:c0 + _TIMELINE_CHUNK]
        durs = None
        while act:
            k = len(act)
            P = np.empty((k, _BLOCK))
            U = np.empty((k, _BLOCK))
            # Exact per-generator call order: the stream that refills first
            # under lazy consumption is drawn first here.
            if start_absent:
                for r in range(k):
                    h = act[r]
                    U[r] = h.rng.uniform(0.0, 1.0, _BLOCK)
                    P[r] = h.rng.exponential(h.present_mean, _BLOCK)
            else:
                for r in range(k):
                    h = act[r]
                    P[r] = h.rng.exponential(h.present_mean, _BLOCK)
                    U[r] = h.rng.uniform(0.0, 1.0, _BLOCK)
            A = _absence_inverse(family, d, [h.life for h in act], U)
            # Blocks are consumed from the end, each value floored at 1e-12.
            P = P[:, ::-1]
            A = A[:, ::-1]
            P = np.where(P > 1e-12, P, 1e-12)
            A = np.where(A > 1e-12, A, 1e-12)
            seg = np.empty((k, 2 * _BLOCK))
            if start_absent:
                seg[:, 0::2] = A
                seg[:, 1::2] = P
            else:
                seg[:, 0::2] = P
                seg[:, 1::2] = A
            durs = seg if durs is None else np.concatenate([durs, seg], axis=1)
            if drift_at != math.inf and drift_scale != 1.0:
                cum0 = np.cumsum(durs, axis=1)
                if start_absent:
                    leaves0 = np.concatenate(
                        [np.zeros((k, 1)), cum0[:, 1::2][:, :-1]], axis=1
                    )
                    a_sl = slice(0, None, 2)
                else:
                    leaves0 = cum0[:, 0::2]
                    a_sl = slice(1, None, 2)
                crossed = leaves0 >= drift_at
                scaled = durs.copy()
                a_part = scaled[:, a_sl]
                scaled[:, a_sl] = np.where(crossed, a_part * drift_scale,
                                           a_part)
                cum = np.cumsum(scaled, axis=1)
            else:
                cum = np.cumsum(durs, axis=1)
            # Covered once the last in-matrix leave passes the horizon (its
            # return, if needed, is then guaranteed to be in-matrix too).
            last_leave = cum[:, -1] if start_absent else cum[:, -2]
            covered = last_leave > horizon
            if not covered.any():
                continue
            rows = np.flatnonzero(covered)
            cum_r = cum[rows]
            if start_absent:
                ret_m = cum_r[:, 0::2]
                leave_m = np.concatenate(
                    [np.zeros((rows.size, 1)), cum_r[:, 1::2][:, :-1]], axis=1
                )
            else:
                leave_m = cum_r[:, 0::2]
                ret_m = cum_r[:, 1::2]
            mask_lv = leave_m <= horizon
            mask_rt = ret_m <= horizon
            idxs = np.empty(rows.size, dtype=np.int64)
            for j, r in enumerate(rows):
                idxs[j] = act[r].idx
            base = (idxs << _SEQ_EPOCH_BITS)[:, None]
            n_lv = mask_lv.sum(axis=1)
            # One capped-and-contiguous matrix tolist beats 100k per-row
            # conversions; the cursor only reads the first n_lv entries per
            # row (one per leave <= horizon), extra columns are inert.
            ncap = int(n_lv.max())
            ret_rows = np.ascontiguousarray(ret_m[:, :ncap]).tolist()
            for j, r in enumerate(rows):
                h = act[r]
                h.returns = ret_rows[j]
                h.ep_cursor = 0
            out_t.append(leave_m[mask_lv])
            out_p.append(np.full(int(n_lv.sum()), _OWNER_LEAVES, np.int64))
            out_s.append(np.broadcast_to(base, leave_m.shape)[mask_lv])
            n_rt = int(mask_rt.sum())
            out_t.append(ret_m[mask_rt])
            out_p.append(np.full(n_rt, _OWNER_RETURNS, np.int64))
            out_s.append(np.broadcast_to(base, ret_m.shape)[mask_rt])
            if covered.all():
                break
            keep = ~covered
            act = [act[r] for r in np.flatnonzero(keep)]
            durs = durs[keep]
    if out_t:
        return (
            np.ascontiguousarray(np.concatenate(out_t)),
            np.concatenate(out_p),
            np.concatenate(out_s),
        )
    empty = np.zeros(0)
    return empty, empty.astype(np.int64), empty.astype(np.int64)


def run_fleet(
    spec: FleetSpec,
    durations: np.ndarray,
    horizon: float,
    policy: str = "sharing",
    plan: Optional[FleetPlan] = None,
    grid: int = 9,
    engine: str = "numpy",
    faults: Optional[FaultPlan] = None,
    start_absent: bool = False,
    record_log: bool = False,
    steal_fraction: float = 0.5,
    core: str = "batched",
    bucket_width: Optional[float] = None,
) -> FleetResult:
    """Advance every host of the fleet through one shared event loop.

    Parameters mirror :func:`repro.now.farm.run_farm` where they overlap;
    ``durations`` is the global task-duration array (FIFO order), ``policy``
    one of :data:`FLEET_POLICIES`, and ``plan`` an optional precomputed
    :class:`FleetPlan` (planned via :func:`plan_fleet_schedules` otherwise).
    ``steal_fraction`` is the fraction of a victim's pending tasks taken per
    successful steal (rounded up; default half).

    ``core`` selects the event core: ``"batched"`` (default) drains
    precomputed calendar-queue buckets, ``"heap"`` is the scalar ``heapq``
    loop kept as the differential oracle — the two are bit-identical (see
    the module docstring).  ``bucket_width`` overrides the batched core's
    bucket span in simulation-time units (default: auto-sized so static
    events average ~8 per bucket); it is a pure performance knob — results
    are identical for every width.
    """
    if not (horizon > 0 and math.isfinite(horizon)):
        raise SimulationError(
            f"horizon must be positive and finite, got {horizon}"
        )
    if policy not in FLEET_POLICIES:
        raise SimulationError(
            f"unknown fleet policy {policy!r}; expected one of {FLEET_POLICIES}"
        )
    if core not in FLEET_CORES:
        raise SimulationError(
            f"unknown fleet core {core!r}; expected one of {FLEET_CORES}"
        )
    if not 0.0 < steal_fraction <= 1.0:
        raise SimulationError(
            f"steal_fraction must lie in (0, 1], got {steal_fraction}"
        )
    if bucket_width is not None and not (
        bucket_width > 0 and math.isfinite(bucket_width)
    ):
        raise SimulationError(
            f"bucket_width must be positive and finite, got {bucket_width}"
        )
    durations = np.asarray(durations, dtype=float)
    if durations.ndim != 1 or durations.size == 0:
        raise SimulationError("durations must be a non-empty vector")
    if np.any(durations <= 0):
        raise SimulationError("task durations must be positive")
    if plan is None:
        plan = plan_fleet_schedules(spec, grid=grid, engine=engine)
    if plan.n_hosts != spec.n_hosts:
        raise SimulationError(
            f"plan covers {plan.n_hosts} hosts, spec has {spec.n_hosts}"
        )

    n_hosts = spec.n_hosts
    if n_hosts >= _MAX_HOSTS:
        raise SimulationError(
            f"fleet is capped at {_MAX_HOSTS - 1} hosts (int64 event seq)"
        )
    n_tasks = int(durations.size)
    cum = np.concatenate(([0.0], np.cumsum(durations)))
    stealing = policy != "sharing"
    latency = policy == "stealing-latency"

    checkout_fixup = event_order = None
    if engine == "jit":
        checkout_fixup, event_order = _fleet_kernels()

    if stealing:
        pools = [_RangePool([r] if r[1] > r[0] else [], cum, checkout_fixup)
                 for r in _partition(n_tasks, n_hosts)]
    else:
        shared = _RangePool([(0, n_tasks)], cum, checkout_fixup)
        pools = [shared] * n_hosts

    keys = spec.host_keys
    # Bulk scalar conversion + life-function interning: at 100k hosts the
    # per-host float()/tolist()/constructor churn is a visible slice of the
    # wall clock, and life functions are stateless so equal params share one.
    keys_l = [int(k) for k in keys.tolist()]
    cs_l = spec.cs.tolist()
    speeds_l = spec.speeds.tolist()
    pm_l = spec.present_means.tolist()
    periods_l = plan.periods.tolist()
    nper_l = plan.num_periods.tolist()
    seed = int(spec.seed)
    life_cache: dict[float, LifeFunction] = {}
    lives = []
    for p in spec.params.tolist():
        lf = life_cache.get(p)
        if lf is None:
            lf = life_cache[p] = _make_life(spec.family, p, spec.d)
        lives.append(lf)
    owner_rngs = _host_generators(seed, 0, keys)
    steal_rngs = (_host_generators(seed, 1, keys) if stealing and n_hosts > 1
                  else [None] * n_hosts)
    hosts = [
        _Host(
            i, keys_l[i], cs_l[i], speeds_l[i], pm_l[i], lives[i],
            owner_rngs[i], steal_rngs[i],
            periods_l[i][: int(nper_l[i])],
            pools[i],
        )
        for i in range(n_hosts)
    ]
    key_to_idx = {h.key: h.idx for h in hosts}

    runtime: Optional[FaultRuntime] = None
    if faults is not None:
        runtime = faults.start((h.key for h in hosts), horizon)

    pending_total = n_tasks
    inflight_count = 0
    completion_time = math.nan
    events = 0
    log: Optional[list] = [] if record_log else None

    if core == "heap":
        # --------------------------------------------------------------
        # Heap core: the scalar heapq loop — the differential oracle.
        # --------------------------------------------------------------
        heap_q: list[tuple[float, int, int]] = []

        def push(time: float, prio: int, idx: int, epoch: int = 0) -> None:
            if epoch > _SEQ_EPOCH_MASK:
                raise SimulationError(
                    "host dispatch epoch exceeded the 32-bit event-seq field"
                )
            heapq.heappush(
                heap_q, (time, prio, (idx << _SEQ_EPOCH_BITS) | epoch)
            )

        for h in hosts:
            if start_absent:
                push(0.0, _OWNER_LEAVES, h.idx)
            else:
                push(h.next_present(), _OWNER_LEAVES, h.idx)
        if runtime is not None:
            # Bulk-seed the churn timeline: crash_arrays flattens every
            # outage in the exact (sorted host, chronological) order
            # run_farm pushes in.
            churn_ws, churn_crash, churn_restart = runtime.crash_arrays()
            for k in range(churn_ws.size):
                idx = key_to_idx[int(churn_ws[k])]
                push(float(churn_crash[k]), _WS_CRASH, idx)
                push(float(churn_restart[k]), _WS_RESTART, idx)

        def idle_until_reclaim(h: _Host, now: float) -> None:
            h.idle_absent += max(0.0, min(h.reclaim_at, horizon) - now)

        def kill_in_flight(h: _Host) -> None:
            nonlocal pending_total, inflight_count
            bundle = h.inflight
            if bundle is None:
                return
            ranges, work, overhead, n_taken = bundle
            h.pool.restore_front(ranges)
            pending_total += n_taken
            h.killed += 1
            h.work_lost += work
            h.overhead_paid += overhead
            h.inflight = None
            h.epoch += 1
            inflight_count -= 1
            if log is not None:
                log.append(("kill", h.key, ranges))

        def dispatch(h: _Host, now: float) -> None:
            nonlocal pending_total, inflight_count
            if h.crashed:
                return
            pool = h.pool
            if pool.count == 0:
                # Steal before consulting the schedule: the schedule cursor
                # must not advance on an episode the empty pool would have
                # idled, so an n = 1 fleet consumes exactly run_farm's
                # policy calls.
                if h.steal_rng is not None:
                    h.steals_attempted += 1
                    victim_pos = int(h.steal_rng.integers(n_hosts - 1))
                    if victim_pos >= h.idx:
                        victim_pos += 1
                    victim = hosts[victim_pos]
                    if victim.pool.count > 0:
                        target = math.ceil(victim.pool.count * steal_fraction)
                        stolen, got = victim.pool.steal_tail(int(target))
                        pool.extend_back(stolen)
                        h.steals_succeeded += 1
                        if latency:
                            h.pending_rtt = h.c
                            h.steal_wait += h.c
                        if log is not None:
                            log.append(("steal", now, h.key, victim.key, got))
                    else:
                        idle_until_reclaim(h, now)
                        return
                else:
                    idle_until_reclaim(h, now)
                    return
            sched_idx = h.sched_idx
            if sched_idx >= h.n_periods:
                if log is not None:
                    log.append(("plan", h.key, now - h.episode_started, None))
                idle_until_reclaim(h, now)
                return
            planned = h.periods[sched_idx]
            h.sched_idx = sched_idx + 1
            if log is not None:
                log.append(("plan", h.key, now - h.episode_started, planned))
            if planned <= h.c:
                idle_until_reclaim(h, now)
                return
            budget = (planned - h.c) * h.speed
            # run_farm routes the budget through pack_period's planned-length
            # arithmetic; replay it literally so the floats agree to the bit.
            taken, work, n_taken = pool.checkout((h.c + budget) - h.c)
            if not taken:
                idle_until_reclaim(h, now)
                return
            c_eff = h.c
            extra_delay = 0.0
            if runtime is not None:
                fate = runtime.dispatch_fate(h.key, now, h.c)
                if fate.lost:
                    pool.restore_front(taken)
                    h.lost += 1
                    idle_until_reclaim(h, now)
                    return
                c_eff = fate.c_effective
                extra_delay = fate.delay
                if extra_delay > 0.0:
                    h.delayed += 1
                    h.delay_time += extra_delay
            pending_total -= n_taken
            rtt = h.pending_rtt
            h.pending_rtt = 0.0
            wall = c_eff + extra_delay + rtt + work / h.speed
            h.inflight = (taken, work, c_eff, n_taken)
            h.epoch += 1
            inflight_count += 1
            push(now + wall, _PERIOD_ENDS, h.idx, h.epoch)
            if log is not None:
                log.append(("dispatch", now, h.key, work, c_eff, n_taken))

        while heap_q:
            time, prio, seq = heapq.heappop(heap_q)
            if time > horizon:
                break
            events += 1
            idx = seq >> _SEQ_EPOCH_BITS
            h = hosts[idx]

            if prio == _WS_CRASH:
                kill_in_flight(h)
                h.crashed = True
                h.crashes += 1
                assert runtime is not None
                runtime.log.record(time, "crash", h.key)

            elif prio == _WS_RESTART:
                h.crashed = False
                assert runtime is not None
                runtime.log.record(time, "restart", h.key)
                if h.absent and time < h.reclaim_at and h.inflight is None:
                    dispatch(h, time)

            elif prio == _OWNER_LEAVES:
                absence = h.next_absent()
                if runtime is not None:
                    absence *= runtime.absence_scale(h.key, time)
                h.absent = True
                h.reclaim_at = time + absence
                h.episode_started = time
                h.sched_idx = 0
                h.pending_rtt = 0.0
                h.episodes += 1
                push(h.reclaim_at, _OWNER_RETURNS, idx)
                dispatch(h, time)

            elif prio == _OWNER_RETURNS:
                kill_in_flight(h)
                h.absent = False
                h.reclaim_at = math.inf
                push(time + h.next_present(), _OWNER_LEAVES, idx)

            else:  # _PERIOD_ENDS
                if (seq & _SEQ_EPOCH_MASK) != h.epoch or h.inflight is None:
                    continue
                ranges, work, overhead, n_taken = h.inflight
                h.inflight = None
                inflight_count -= 1
                if runtime is not None and runtime.commit_corrupted(h.key, time):
                    h.pool.restore_front(ranges)
                    pending_total += n_taken
                    h.corrupted += 1
                    h.work_lost += work
                    h.overhead_paid += overhead
                    dispatch(h, time)
                    continue
                h.committed += 1
                h.tasks_done += n_taken
                h.work_done += work
                h.overhead_paid += overhead
                if log is not None:
                    log.append(("commit", time, h.key, ranges))
                if pending_total == 0 and math.isnan(completion_time):
                    if inflight_count == 0:
                        completion_time = time
                        break
                dispatch(h, time)

    else:
        # --------------------------------------------------------------
        # Batched core: precomputed static events drained through a
        # calendar queue of fixed-width time buckets.  Every handler is
        # inlined — no closure calls, no heap — but processes events in
        # exactly the heap core's (time, prio, seq) order, so the two
        # cores are bit-identical (the cross-core differential gate).
        # --------------------------------------------------------------
        st_t, st_p, st_s = _plan_owner_timelines(
            spec, hosts, horizon, start_absent, runtime
        )
        if runtime is not None:
            churn_ws, churn_crash, churn_restart = runtime.crash_arrays()
            if churn_ws.size:
                cidx = np.array(
                    [key_to_idx[int(w)] for w in churn_ws], dtype=np.int64
                )
                alive = churn_restart <= horizon
                st_t = np.concatenate(
                    [st_t, churn_crash, churn_restart[alive]]
                )
                st_p = np.concatenate([
                    st_p,
                    np.full(cidx.size, _WS_CRASH, np.int64),
                    np.full(int(alive.sum()), _WS_RESTART, np.int64),
                ])
                st_s = np.concatenate([
                    st_s,
                    cidx << _SEQ_EPOCH_BITS,
                    cidx[alive] << _SEQ_EPOCH_BITS,
                ])
        if event_order is not None:
            order = event_order(st_t, st_p, st_s)
        else:
            order = np.lexsort((st_s, st_p, st_t))
        st_t = st_t[order]
        st_p = st_p[order]
        st_s = st_s[order]

        n_static = int(st_t.size)
        if bucket_width is None:
            nb = min(max(n_static // 8, 1), 1 << 16)
        else:
            nb = min(max(int(math.ceil(horizon / bucket_width)), 1), 1 << 20)
        inv_w = nb / horizon
        if n_static:
            st_b = np.minimum((st_t * inv_w).astype(np.int64), nb - 1)
            bounds = np.searchsorted(st_b, np.arange(nb + 1)).tolist()
        else:
            bounds = [0] * (nb + 1)
        dyn: list[list] = [[] for _ in range(nb)]

        inv_mean = n_tasks / float(cum[-1])
        # Exact empty-checkout guard: checkout admits its first task iff some
        # adjacent prefix-sum gap fits the limit, so a budget below the
        # smallest gap can never take work — skip the call, same result.
        min_gap = float(np.min(np.diff(cum)))
        inf = math.inf
        MASK = _SEQ_EPOCH_MASK
        stop = False
        for cur in range(nb):
            lo_b = bounds[cur]
            hi_b = bounds[cur + 1]
            evs = dyn[cur]
            if hi_b > lo_b:
                # Materialize this bucket's static cohort only now — keeping
                # the whole schedule as live tuples would tax every GC pass.
                merged = list(zip(
                    st_t[lo_b:hi_b].tolist(),
                    st_p[lo_b:hi_b].tolist(),
                    st_s[lo_b:hi_b].tolist(),
                ))
                if evs:
                    merged.extend(evs)
                    merged.sort()
                evs = merged
            elif evs:
                evs.sort()
            else:
                continue
            pos = 0
            n_evs = len(evs)
            while pos < n_evs:
                time, prio, seq = evs[pos]
                pos += 1
                idx = seq >> 32
                h = hosts[idx]

                if prio == 2:  # _PERIOD_ENDS (hot path)
                    bundle = h.inflight
                    if (seq & MASK) != h.epoch or bundle is None:
                        continue  # stale epoch: superseded by a kill
                    work = bundle[1]
                    n_taken = bundle[3]
                    h.inflight = None
                    inflight_count -= 1
                    if runtime is not None and runtime.commit_corrupted(
                        h.key, time
                    ):
                        h.pool.restore_front(bundle[0])
                        pending_total += n_taken
                        h.corrupted += 1
                        h.work_lost += work
                        h.overhead_paid += bundle[2]
                    else:
                        h.committed += 1
                        h.tasks_done += n_taken
                        h.work_done += work
                        h.overhead_paid += bundle[2]
                        if log is not None:
                            log.append(("commit", time, h.key, bundle[0]))
                        if pending_total == 0 \
                                and completion_time != completion_time:
                            if inflight_count == 0:
                                completion_time = time
                                stop = True
                                break
                elif prio == 1:  # _OWNER_LEAVES
                    if runtime is not None:
                        # Drift scaling is baked into h.returns; the call
                        # remains for its drift-log side effect.
                        runtime.absence_scale(h.key, time)
                    k = h.ep_cursor
                    h.ep_cursor = k + 1
                    h.absent = True
                    h.reclaim_at = h.returns[k]
                    h.episode_started = time
                    h.sched_idx = 0
                    h.pending_rtt = 0.0
                    h.episodes += 1
                elif prio == 0:  # _OWNER_RETURNS
                    bundle = h.inflight
                    if bundle is not None:
                        h.pool.restore_front(bundle[0])
                        pending_total += bundle[3]
                        h.killed += 1
                        h.work_lost += bundle[1]
                        h.overhead_paid += bundle[2]
                        h.inflight = None
                        h.epoch += 1
                        inflight_count -= 1
                        if log is not None:
                            log.append(("kill", h.key, bundle[0]))
                    h.absent = False
                    h.reclaim_at = inf
                    continue
                elif prio == -1:  # _WS_CRASH
                    bundle = h.inflight
                    if bundle is not None:
                        h.pool.restore_front(bundle[0])
                        pending_total += bundle[3]
                        h.killed += 1
                        h.work_lost += bundle[1]
                        h.overhead_paid += bundle[2]
                        h.inflight = None
                        h.epoch += 1
                        inflight_count -= 1
                        if log is not None:
                            log.append(("kill", h.key, bundle[0]))
                    h.crashed = True
                    h.crashes += 1
                    runtime.log.record(time, "crash", h.key)
                    continue
                else:  # _WS_RESTART
                    h.crashed = False
                    runtime.log.record(time, "restart", h.key)
                    if not (h.absent and time < h.reclaim_at
                            and h.inflight is None):
                        continue

                # ---- dispatch, inlined (falls through from period-end
                # commit/corruption, owner leave, and eligible restart) ----
                if h.crashed:
                    continue
                pool = h.pool
                if pool.count == 0:
                    srng = h.steal_rng
                    if srng is None:
                        ra = h.reclaim_at
                        if ra > horizon:
                            ra = horizon
                        if ra > time:
                            h.idle_absent += ra - time
                        continue
                    h.steals_attempted += 1
                    victim_pos = int(srng.integers(n_hosts - 1))
                    if victim_pos >= idx:
                        victim_pos += 1
                    victim = hosts[victim_pos]
                    vpool = victim.pool
                    if vpool.count > 0:
                        stolen, got = vpool.steal_tail(
                            int(math.ceil(vpool.count * steal_fraction))
                        )
                        pool.extend_back(stolen)
                        h.steals_succeeded += 1
                        if latency:
                            h.pending_rtt = h.c
                            h.steal_wait += h.c
                        if log is not None:
                            log.append(("steal", time, h.key, victim.key, got))
                    else:
                        ra = h.reclaim_at
                        if ra > horizon:
                            ra = horizon
                        if ra > time:
                            h.idle_absent += ra - time
                        continue
                sched_idx = h.sched_idx
                if sched_idx >= h.n_periods:
                    if log is not None:
                        log.append(("plan", h.key, time - h.episode_started,
                                    None))
                    ra = h.reclaim_at
                    if ra > horizon:
                        ra = horizon
                    if ra > time:
                        h.idle_absent += ra - time
                    continue
                planned = h.periods[sched_idx]
                h.sched_idx = sched_idx + 1
                if log is not None:
                    log.append(("plan", h.key, time - h.episode_started,
                                planned))
                c = h.c
                if planned <= c:
                    ra = h.reclaim_at
                    if ra > horizon:
                        ra = horizon
                    if ra > time:
                        h.idle_absent += ra - time
                    continue
                speed = h.speed
                budget = (planned - c) * speed
                budget = (c + budget) - c
                if budget + 1e-12 < min_gap:
                    ra = h.reclaim_at
                    if ra > horizon:
                        ra = horizon
                    if ra > time:
                        h.idle_absent += ra - time
                    continue
                taken, work, n_taken = pool.checkout(budget, inv_mean)
                if not taken:
                    ra = h.reclaim_at
                    if ra > horizon:
                        ra = horizon
                    if ra > time:
                        h.idle_absent += ra - time
                    continue
                c_eff = c
                extra_delay = 0.0
                if runtime is not None:
                    fate = runtime.dispatch_fate(h.key, time, c)
                    if fate.lost:
                        pool.restore_front(taken)
                        h.lost += 1
                        ra = h.reclaim_at
                        if ra > horizon:
                            ra = horizon
                        if ra > time:
                            h.idle_absent += ra - time
                        continue
                    c_eff = fate.c_effective
                    extra_delay = fate.delay
                    if extra_delay > 0.0:
                        h.delayed += 1
                        h.delay_time += extra_delay
                pending_total -= n_taken
                rtt = h.pending_rtt
                h.pending_rtt = 0.0
                wall = c_eff + extra_delay + rtt + work / speed
                h.inflight = (taken, work, c_eff, n_taken)
                epoch = h.epoch + 1
                h.epoch = epoch
                inflight_count += 1
                t_end = time + wall
                if t_end <= horizon:
                    if epoch > MASK:
                        raise SimulationError(
                            "host dispatch epoch exceeded the 32-bit "
                            "event-seq field"
                        )
                    b = int(t_end * inv_w)
                    if b > cur:
                        if b >= nb:
                            b = nb - 1
                        dyn[b].append((t_end, 2, (idx << 32) | epoch))
                    else:
                        # Same bucket: keep exact order via a sorted insert
                        # past the current position (t_end > time).
                        insort(evs, (t_end, 2, (idx << 32) | epoch), pos)
                        n_evs += 1
                if log is not None:
                    log.append(("dispatch", time, h.key, work, c_eff,
                                n_taken))
            events += pos
            if stop:
                break

    # Teardown: in-flight bundles at the cut return without stats.
    for h in hosts:
        if h.inflight is not None:
            ranges, _w, _o, n_taken = h.inflight
            h.pool.restore_front(ranges)
            pending_total += n_taken
            h.inflight = None
            h.epoch += 1

    gather = lambda name, dtype: np.array([getattr(h, name) for h in hosts],
                                          dtype=dtype)
    return FleetResult(
        policy=policy,
        host_keys=keys.copy(),
        episodes=gather("episodes", np.int64),
        periods_committed=gather("committed", np.int64),
        periods_killed=gather("killed", np.int64),
        tasks_completed_per_host=gather("tasks_done", np.int64),
        work_done=gather("work_done", float),
        work_lost=gather("work_lost", float),
        overhead_paid=gather("overhead_paid", float),
        idle_absent_time=gather("idle_absent", float),
        crashes=gather("crashes", np.int64),
        dispatches_lost=gather("lost", np.int64),
        dispatches_delayed=gather("delayed", np.int64),
        delay_time=gather("delay_time", float),
        periods_corrupted=gather("corrupted", np.int64),
        steals_attempted=gather("steals_attempted", np.int64),
        steals_succeeded=gather("steals_succeeded", np.int64),
        steal_wait=gather("steal_wait", float),
        tasks_total=n_tasks,
        tasks_completed=int(sum(h.tasks_done for h in hosts)),
        completion_time=completion_time,
        horizon=horizon,
        events_processed=events,
        core=core,
        fault_log=None if runtime is None else runtime.log,
        dispatch_log=log,
    )


# ----------------------------------------------------------------------
# Mean-field fixed-point approximation
# ----------------------------------------------------------------------


def _mean_absence(family: str, params: np.ndarray, d: int) -> np.ndarray:
    """``E[R] = ∫ p(t) dt`` per host, in closed form per Section 4 family."""
    if family == "uniform":
        return params / 2.0
    if family == "poly":
        return params * d / (d + 1.0)
    if family == "geomdec":
        return 1.0 / np.log(params)
    # geominc: ∫0^L (2^{L-t} - 1) / (2^L - 1) dt = 1/ln2 - L / (2^L - 1).
    return 1.0 / _LN2 - params / np.expm1(params * _LN2)


def mean_field_fleet(
    spec: FleetSpec,
    plan: FleetPlan,
    total_work: float,
    policy: str = "sharing",
    faults: Optional[FaultPlan] = None,
    max_iter: int = 64,
) -> dict:
    """Fixed-point makespan/goodput prediction for one fleet configuration.

    Each host is approximated as an independent renewal process: per owner
    cycle (``present_mean + E[absence]``) it banks its schedule's expected
    work ``E(S; p) × speed``, thinned by crash availability
    ``mtbf / (mtbf + restart)``.  The fleet drains ``total_work`` at the
    summed rate; for ``"stealing-latency"`` the steal RTT consumes wall
    clock once per refill episode after a host's initial share drains, which
    feeds back into the makespan — iterated to a fixed point.  Returns a
    dict with ``makespan``, ``goodput``, ``per_host_goodput``, and the
    predicted ``steals`` (0 for sharing).
    """
    if policy not in FLEET_POLICIES:
        raise SimulationError(
            f"unknown fleet policy {policy!r}; expected one of {FLEET_POLICIES}"
        )
    cycle = spec.present_means + _mean_absence(spec.family, spec.params, spec.d)
    availability = 1.0
    if faults is not None:
        crash = faults.get(CrashFault)
        if crash is not None and crash.restart_time > 0:
            availability = crash.mtbf / (crash.mtbf + crash.restart_time)
    per_host = availability * plan.expected_work * spec.speeds / cycle
    rate = float(np.sum(per_host))
    if rate <= 0:
        return {"makespan": math.inf, "goodput": 0.0,
                "per_host_goodput": per_host, "steals": 0.0}
    makespan = total_work / rate
    steals = 0.0
    if policy != "sharing" and spec.n_hosts > 1:
        share = total_work / spec.n_hosts
        for _ in range(max_iter):
            drain = np.minimum(share / per_host, makespan)
            refill_episodes = np.maximum(makespan - drain, 0.0) / cycle
            steals = float(np.sum(refill_episodes))
            overhead_work = 0.0
            if policy == "stealing-latency":
                # Each refill's RTT forfeits c × speed × availability of work.
                overhead_work = float(np.sum(
                    refill_episodes * spec.cs * spec.speeds * availability
                ))
            new_makespan = (total_work + overhead_work) / rate
            if abs(new_makespan - makespan) <= 1e-9 * makespan:
                makespan = new_makespan
                break
            makespan = 0.5 * (makespan + new_makespan)
    return {
        "makespan": makespan,
        "goodput": rate,
        "per_host_goodput": per_host,
        "steals": steals,
    }
