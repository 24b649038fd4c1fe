"""Batched serving: serve_batch parity, coalescing, and the batching front door."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.tables_precompute import TableServer
from repro.core.plancache import PlanCache
from repro.core.serving import BatchingPlanServer, PlanServer, TierChaos
from repro.exceptions import PlanServingError

FAMILY_PARAMS = {
    "uniform": (60.0, 200.0),
    "poly": (80.0, 300.0),
    "geomdec": (1.1, 2.5),
    "geominc": (3.0, 30.0),
}


def _plans_equal(a, b) -> bool:
    return (
        a.t0 == b.t0
        and a.expected_work == b.expected_work
        and a.termination == b.termination
        and a.source == b.source
        and np.array_equal(a.schedule.periods, b.schedule.periods)
    )


@st.composite
def query_batches(draw):
    """Duplicate-free mixed-family query batches."""
    n = draw(st.integers(min_value=1, max_value=6))
    queries = []
    seen = set()
    for _ in range(n):
        fam = draw(st.sampled_from(sorted(FAMILY_PARAMS)))
        lo, hi = FAMILY_PARAMS[fam]
        v = draw(st.floats(min_value=lo, max_value=hi, allow_nan=False))
        c = draw(st.floats(min_value=0.05, max_value=2.0, allow_nan=False))
        key = (fam, c, v)
        if key in seen:
            continue
        seen.add(key)
        queries.append(key)
    return queries


class TestServeBatchParity:
    @settings(max_examples=15, deadline=None)
    @given(queries=query_batches())
    def test_batch_matches_scalar_loop(self, queries):
        """serve_batch == a loop of scalar serves, bit for bit."""
        fams = [q[0] for q in queries]
        cs = [q[1] for q in queries]
        vs = [q[2] for q in queries]
        batch = PlanServer().serve_batch(fams, cs, vs)
        scalar_server = PlanServer()
        scalar = [scalar_server.serve(f, c, v) for f, c, v in queries]
        assert len(batch) == len(scalar)
        for a, b in zip(batch, scalar):
            assert _plans_equal(a, b)

    @settings(max_examples=10, deadline=None)
    @given(
        queries=query_batches(),
        rate=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_batch_matches_scalar_loop_under_chaos(self, queries, rate, seed):
        """Per-tier chaos substreams keep batch and scalar draws aligned."""
        fams = [q[0] for q in queries]
        cs = [q[1] for q in queries]
        vs = [q[2] for q in queries]
        a_server = PlanServer(chaos=TierChaos({"optimizer": rate}, seed=seed))
        b_server = PlanServer(chaos=TierChaos({"optimizer": rate}, seed=seed))
        batch = a_server.serve_batch(fams, cs, vs)
        scalar = [b_server.serve(f, c, v) for f, c, v in queries]
        for x, y in zip(batch, scalar):
            assert _plans_equal(x, y)
        for tier in PlanServer.TIERS:
            assert a_server.tier_stats[tier].errors == b_server.tier_stats[tier].errors
            assert a_server.tier_stats[tier].hits == b_server.tier_stats[tier].hits

    def test_batch_matches_scalar_with_warm_tables(self, warmed_table_dir):
        """Mixed in-grid / off-grid / out-of-bounds through the table tier."""
        c_grid, param_grid = warmed_table_dir["grids"]["uniform"]
        queries = [
            ("uniform", float(c_grid[1]), float(param_grid[2])),  # on-grid
            ("uniform", 2.3, 199.0),                              # off-grid
            ("uniform", float(c_grid[-1]) * 4, float(param_grid[-1]) * 4),  # out of bounds
            ("uniform", 1.7, 333.3),
        ]

        def build():
            ts = TableServer(cache_dir=warmed_table_dir["dir"], cache=PlanCache())
            return PlanServer(table_server=ts, cache=ts.cache)

        batch = build().serve_batch(*map(list, zip(*queries)))
        scalar_server = build()
        scalar = [scalar_server.serve(f, c, v) for f, c, v in queries]
        for a, b in zip(batch, scalar):
            assert _plans_equal(a, b)
        assert batch[0].source == "table"
        assert batch[2].source in ("cache", "optimizer")

    def test_empty_batch(self):
        assert PlanServer().serve_batch([], [], []) == []

    def test_length_mismatch_rejected(self):
        with pytest.raises(PlanServingError):
            PlanServer().serve_batch(["uniform"], [0.1, 0.2], [60.0])

    def test_all_tiers_down_raises_aggregate(self):
        chaos = TierChaos(
            {"optimizer": 1.0, "guideline": 1.0, "cache": 1.0, "table": 1.0}, seed=0
        )
        server = PlanServer(chaos=chaos)
        with pytest.raises(PlanServingError, match="exhausted every serving tier"):
            server.serve_batch(["uniform", "uniform"], [0.1, 0.2], [60.0, 80.0])
        assert server.exhausted == 2


class TestServeBatchCoalescing:
    def test_duplicates_coalesce_to_identical_plans(self):
        fams = ["uniform", "poly", "uniform", "uniform"]
        cs = [0.1, 0.2, 0.1, 0.1]
        vs = [60.0, 80.0, 60.0, 60.0]
        server = PlanServer()
        plans = server.serve_batch(fams, cs, vs)
        assert server.coalesced == 2
        assert server.served == 4
        assert _plans_equal(plans[0], plans[2])
        assert _plans_equal(plans[0], plans[3])

    def test_duplicate_source_rewritten_to_cache_when_cached(self):
        # Scalar loop: the first serve warms the cache, duplicates hit it.
        # The coalesced batch mirrors that by relabeling duplicate lanes.
        server = PlanServer(cache=PlanCache())
        plans = server.serve_batch(
            ["uniform", "uniform"], [0.1, 0.1], [60.0, 60.0]
        )
        assert plans[0].source == "optimizer"
        assert plans[1].source == "cache"
        scalar_server = PlanServer(cache=PlanCache())
        scalar = [scalar_server.serve("uniform", 0.1, 60.0) for _ in range(2)]
        assert [p.source for p in scalar] == ["optimizer", "cache"]
        assert plans[1].t0 == scalar[1].t0
        assert np.array_equal(plans[1].schedule.periods, scalar[1].schedule.periods)

    def test_duplicate_of_failed_lane_shares_the_error(self):
        chaos = TierChaos(
            {"optimizer": 1.0, "guideline": 1.0, "cache": 1.0, "table": 1.0}, seed=1
        )
        server = PlanServer(chaos=chaos)
        with pytest.raises(PlanServingError):
            server.serve_batch(["uniform", "uniform"], [0.1, 0.1], [60.0, 60.0])
        assert server.exhausted == 2
        assert server.coalesced == 1


#: Overheads no tier may serve: ``E`` is meaningless unless ``c`` is finite
#: and positive.
BAD_OVERHEADS = (float("nan"), float("inf"), float("-inf"), 0.0, -0.0, -1.0)


class TestInvalidOverhead:
    """A non-finite or non-positive ``c`` fails its own lane before any tier
    runs: no breaker moves, no tier counter moves, nothing is "exhausted"."""

    @staticmethod
    def _server() -> PlanServer:
        # Threshold 1: a single tier error on a bad lane would open a breaker.
        return PlanServer(cache=PlanCache(), breaker_threshold=1)

    @staticmethod
    def _assert_untouched(server: PlanServer) -> None:
        for tier in PlanServer.TIERS:
            breaker = server.breakers[tier].as_dict()
            assert breaker["state"] == "closed", tier
            assert breaker["consecutive_failures"] == 0, tier
            assert breaker["opens"] == 0, tier
        assert server.exhausted == 0

    @pytest.mark.parametrize("c", BAD_OVERHEADS)
    @pytest.mark.parametrize("family", ["uniform", "geominc"])
    def test_serve_rejects(self, family, c):
        server = self._server()
        with pytest.raises(PlanServingError, match="overhead c must be finite and positive"):
            server.serve(family, c, 30.0)
        self._assert_untouched(server)
        assert server.served == 0
        for tier in PlanServer.TIERS:
            stats = server.tier_stats[tier]
            assert stats.hits == stats.misses == stats.errors == 0, tier

    @pytest.mark.parametrize("c", BAD_OVERHEADS)
    def test_serve_batch_serves_the_valid_lanes(self, c):
        server = self._server()
        fams, cs, vs = ["uniform", "geominc", "uniform"], [0.1, c, 0.2], [60.0, 30.0, 80.0]
        with pytest.raises(PlanServingError, match="1 of 3") as info:
            server.serve_batch(fams, cs, vs)
        assert "overhead c" in str(info.value.__cause__)
        self._assert_untouched(server)
        assert server.served == 2
        # Per lane: the valid lanes get exactly the plans a scalar loop gets.
        fresh = self._server()
        plans, errors = fresh._serve_batch_impl(fams, cs, vs)
        assert list(errors) == [1] and plans[1] is None
        reference = PlanServer(cache=PlanCache())
        for i in (0, 2):
            assert _plans_equal(plans[i], reference.serve(fams[i], cs[i], vs[i]))
        self._assert_untouched(fresh)

    def test_duplicate_bad_lanes_share_the_error(self):
        server = self._server()
        nan = float("nan")
        with pytest.raises(PlanServingError, match="2 of 3"):
            server.serve_batch(["geominc"] * 3, [nan, 0.5, nan], [30.0] * 3)
        self._assert_untouched(server)
        assert server.coalesced == 1 and server.served == 1

    def test_batching_front_door_delivers_per_future(self):
        server = self._server()
        with BatchingPlanServer(server, max_batch=3, max_delay_ms=60_000) as front:
            bad = [front.submit("geominc", float("nan"), 30.0),
                   front.submit("uniform", 0.0, 60.0)]
            good = front.submit("uniform", 0.1, 60.0)
            assert good.result(timeout=30).schedule.num_periods >= 1
            for fut in bad:
                with pytest.raises(PlanServingError, match="overhead c"):
                    fut.result(timeout=30)
        self._assert_untouched(server)


class TestBatchingPlanServer:
    def test_validates_max_batch(self):
        for bad in (0, -3, True, 1.5, "8"):
            with pytest.raises(ValueError, match="max_batch"):
                BatchingPlanServer(PlanServer(), max_batch=bad)

    def test_validates_max_delay(self):
        for bad in (-0.001, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="max_delay_ms"):
                BatchingPlanServer(PlanServer(), max_delay_ms=bad)

    def test_size_trigger_flushes_one_batch(self):
        server = PlanServer()
        with BatchingPlanServer(server, max_batch=2, max_delay_ms=60_000) as front:
            f1 = front.submit("uniform", 0.1, 60.0)
            f2 = front.submit("poly", 0.2, 80.0)
            a, b = f1.result(timeout=30), f2.result(timeout=30)
        assert a.schedule.num_periods >= 1 and b.schedule.num_periods >= 1
        assert front.batches == 1
        assert front.stats_dict()["queued"] == 0

    def test_deadline_flush_uses_monotonic_clock(self):
        server = PlanServer()
        with BatchingPlanServer(server, max_batch=1000, max_delay_ms=20.0) as front:
            start = time.monotonic()
            fut = front.submit("uniform", 0.1, 60.0)
            plan = fut.result(timeout=30)
            waited = time.monotonic() - start
        assert plan.source in ("optimizer", "guideline")
        # Served without reaching max_batch, i.e. the deadline fired.
        assert front.batches == 1
        assert waited >= 0.015

    def test_inflight_duplicates_coalesce(self):
        server = PlanServer()
        front = BatchingPlanServer(server, max_batch=1000, max_delay_ms=60_000)
        futs = [front.submit("uniform", 0.1, 60.0) for _ in range(5)]
        assert front.coalesced == 4
        assert front.flush() == 1  # one distinct flight
        plans = [f.result(timeout=30) for f in futs]
        assert all(_plans_equal(p, plans[0]) for p in plans)
        assert server.served == 1  # singleflight: one serve for five callers
        front.close()

    def test_per_future_errors(self):
        with BatchingPlanServer(PlanServer(), max_batch=2, max_delay_ms=5.0) as front:
            bad = front.submit("nosuchfamily", 0.1, 60.0)
            good = front.submit("uniform", 0.1, 60.0)
            assert good.result(timeout=30).schedule.num_periods >= 1
            with pytest.raises(Exception, match="nosuchfamily"):
                bad.result(timeout=30)

    def test_closed_front_rejects_submissions(self):
        front = BatchingPlanServer(PlanServer())
        front.close()
        with pytest.raises(PlanServingError, match="closed"):
            front.submit("uniform", 0.1, 60.0)

    def test_concurrent_submitters(self):
        server = PlanServer()
        front = BatchingPlanServer(server, max_batch=8, max_delay_ms=5.0)
        results = [None] * 16
        queries = [("uniform", 0.1 + 0.01 * (i % 4), 60.0) for i in range(16)]

        def worker(i):
            results[i] = front.submit(*queries[i]).result(timeout=30)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        front.close()
        assert all(r is not None for r in results)
        baseline = PlanServer()
        for i, (fam, c, v) in enumerate(queries):
            assert _plans_equal(results[i], baseline.serve(fam, c, v))
