"""The vectorized fleet engine: bit-parity with run_farm + policy semantics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.fleetbench import (
    cross_core_check,
    fleet_workload,
    parity_check,
    run_policy_comparison,
    scalar_baseline,
)
from repro.exceptions import SimulationError
from repro.faults import CrashFault, FaultPlan, MessageLossFault
from repro.now.fleet import (
    FLEET_CORES,
    FLEET_POLICIES,
    FleetSpec,
    host_network,
    host_rng,
    mean_field_fleet,
    plan_fleet_schedules,
    run_fleet,
)


class TestParity:
    """n = 1 fleets must be bit-identical to run_farm — the tentpole gate."""

    def test_clean_parity_all_policies(self):
        report = parity_check(seed=3, with_faults=False,
                              n_tasks=512, horizon=600.0)
        assert report["ok"], report["mismatches"]

    def test_faulted_parity_all_policies(self):
        report = parity_check(seed=7, with_faults=True)
        assert report["ok"], report["mismatches"]

    @pytest.mark.parametrize("family", ["poly", "geomdec", "geominc"])
    def test_parity_other_families(self, family):
        report = parity_check(seed=11, family=family, with_faults=False,
                              policies=("sharing",), n_tasks=512,
                              horizon=600.0)
        assert report["ok"], report["mismatches"]


class TestCrossCore:
    """The batched calendar-queue core must be bit-identical to the heap
    oracle — all policies, clean and under every fault class."""

    def test_all_policies_all_fault_classes(self):
        report = cross_core_check(seed=5)
        assert report["ok"], report["mismatches"]

    def test_start_absent(self):
        report = cross_core_check(seed=9, start_absent=True)
        assert report["ok"], report["mismatches"]

    @pytest.mark.parametrize("family", ["poly", "geomdec", "geominc"])
    def test_other_families(self, family):
        report = cross_core_check(seed=11, family=family,
                                  policies=("sharing", "stealing"))
        assert report["ok"], report["mismatches"]

    def test_heap_n1_matches_run_farm(self):
        report = parity_check(seed=13, core="heap", n_tasks=512,
                              horizon=600.0)
        assert report["ok"], report["mismatches"]

    def test_bucket_width_is_pure_performance_knob(self):
        """Any bucket width gives the same results — width only moves work
        between the bucket partition and the in-bucket sort."""
        spec = FleetSpec.heterogeneous(12, seed=4)
        durations = fleet_workload(12, 8.0, 0.25)
        ref = run_fleet(spec, durations, 200.0, policy="stealing",
                        core="heap")
        for width in (0.37, 5.0, 10_000.0):
            got = run_fleet(spec, durations, 200.0, policy="stealing",
                            core="batched", bucket_width=width)
            assert got.events_processed == ref.events_processed
            assert got.completion_time == ref.completion_time
            assert np.array_equal(got.work_done, ref.work_done)
            assert np.array_equal(got.steals_succeeded, ref.steals_succeeded)

    def test_result_records_core(self):
        spec = FleetSpec.homogeneous(2, seed=1)
        durations = np.full(8, 0.25)
        for core in FLEET_CORES:
            result = run_fleet(spec, durations, 50.0, core=core)
            assert result.core == core


class TestFleetSpec:
    def test_homogeneous_shape(self):
        spec = FleetSpec.homogeneous(5)
        assert spec.n_hosts == 5
        assert spec.cs.shape == (5,)
        assert np.array_equal(spec.host_keys, np.arange(5))

    def test_heterogeneous_deterministic(self):
        a = FleetSpec.heterogeneous(8, seed=3)
        b = FleetSpec.heterogeneous(8, seed=3)
        assert np.array_equal(a.cs, b.cs)
        assert np.array_equal(a.speeds, b.speeds)
        assert not np.array_equal(
            a.cs, FleetSpec.heterogeneous(8, seed=4).cs
        )

    def test_bad_family_rejected(self):
        with pytest.raises(SimulationError):
            FleetSpec.homogeneous(2, family="weibull")

    def test_bad_speed_rejected(self):
        with pytest.raises(SimulationError):
            FleetSpec(
                family="uniform",
                cs=np.ones(2),
                params=np.full(2, 64.0),
                speeds=np.array([1.0, 0.0]),
                present_means=np.full(2, 8.0),
            )

    def test_nonfinite_speed_rejected(self):
        with pytest.raises(SimulationError):
            FleetSpec(
                family="uniform",
                cs=np.ones(2),
                params=np.full(2, 64.0),
                speeds=np.array([1.0, math.inf]),
                present_means=np.full(2, 8.0),
            )

    def test_duplicate_keys_rejected(self):
        with pytest.raises(SimulationError):
            FleetSpec(
                family="uniform",
                cs=np.ones(2),
                params=np.full(2, 64.0),
                speeds=np.ones(2),
                present_means=np.full(2, 8.0),
                host_keys=np.array([3, 3]),
            )

    def test_negative_key_rejected(self):
        # Used to pass and then fail inside run_fleet's RNG seeding with a
        # raw "expected non-negative integer" ValueError.
        with pytest.raises(SimulationError,
                           match="host_keys must be non-negative, got -5"):
            FleetSpec(
                family="uniform",
                cs=np.ones(2),
                params=np.full(2, 64.0),
                speeds=np.ones(2),
                present_means=np.full(2, 8.0),
                host_keys=np.array([0, -5]),
            )

    @pytest.mark.parametrize("build", [
        lambda: FleetSpec.homogeneous(3, seed=-1),
        lambda: FleetSpec.heterogeneous(3, seed=-1),
    ])
    def test_negative_seed_rejected(self, build):
        with pytest.raises(SimulationError,
                           match="fleet seed must be non-negative, got -1"):
            build()

    def test_large_keys_and_seed_accepted(self):
        spec = FleetSpec(
            family="uniform",
            cs=np.ones(2),
            params=np.full(2, 64.0),
            speeds=np.ones(2),
            present_means=np.full(2, 8.0),
            seed=2**32 + 5,
            host_keys=np.array([0, 2**63 - 1]),
        )
        res = run_fleet(spec, np.full(8, 1.0), 200.0, policy="stealing")
        assert res.finished


class TestPlan:
    def test_periods_exceed_overhead(self):
        spec = FleetSpec.heterogeneous(16, seed=5)
        plan = plan_fleet_schedules(spec, grid=5)
        for i in range(16):
            schedule = plan.schedule(i)
            assert schedule.num_periods >= 1
            assert all(t > spec.cs[i] for t in schedule.periods)

    def test_expected_work_positive(self):
        spec = FleetSpec.homogeneous(4)
        plan = plan_fleet_schedules(spec, grid=5)
        assert np.all(plan.expected_work > 0)


class TestPolicySemantics:
    def _run(self, policy, n_hosts=24, seed=2, **kw):
        spec = FleetSpec.homogeneous(n_hosts, seed=seed)
        durations = fleet_workload(n_hosts, 16.0, 0.25)
        return run_fleet(spec, durations, 600.0, policy=policy, **kw)

    def test_sharing_never_steals(self):
        result = self._run("sharing")
        assert result.total_steals == 0
        assert result.finished

    def test_stealing_steals_under_imbalance(self):
        result = self._run("stealing")
        assert result.finished
        assert np.sum(result.steals_attempted) > 0

    def test_latency_charges_rtt(self):
        plain = self._run("stealing")
        latency = self._run("stealing-latency")
        assert float(np.sum(plain.steal_wait)) == 0.0
        assert float(np.sum(latency.steal_wait)) > 0.0
        assert np.sum(latency.steal_wait) == pytest.approx(
            np.sum(latency.steals_succeeded) * 1.0  # homogeneous c = 1
        )

    def test_policies_complete_same_work(self):
        results = {p: self._run(p) for p in FLEET_POLICIES}
        for result in results.values():
            assert result.finished
            assert result.tasks_completed == result.tasks_total

    def test_faster_hosts_do_more_work(self):
        n = 12
        speeds = np.where(np.arange(n) < n // 2, 4.0, 1.0)
        spec = FleetSpec(
            family="uniform",
            cs=np.ones(n),
            params=np.full(n, 64.0),
            speeds=speeds.astype(float),
            present_means=np.full(n, 8.0),
            seed=9,
        )
        durations = fleet_workload(n, 24.0, 0.25)
        result = run_fleet(spec, durations, 600.0, policy="sharing")
        fast = float(np.sum(result.work_done[: n // 2]))
        slow = float(np.sum(result.work_done[n // 2:]))
        assert fast > slow

    def test_churn_kills_and_restores(self):
        spec = FleetSpec.homogeneous(16, seed=4)
        durations = fleet_workload(16, 16.0, 0.25)
        faults = FaultPlan(seed=5, injectors=(
            CrashFault(mtbf=30.0, restart_time=2.0),
            MessageLossFault(0.2),
        ))
        result = run_fleet(spec, durations, 400.0, policy="sharing",
                           faults=faults)
        assert int(np.sum(result.crashes)) > 0
        assert result.fault_log is not None
        assert result.fault_log.digest()
        # Conservation still holds under churn.
        assert result.tasks_completed <= result.tasks_total


class TestValidation:
    def test_bad_policy(self):
        spec = FleetSpec.homogeneous(2)
        with pytest.raises(SimulationError):
            run_fleet(spec, np.ones(4), 10.0, policy="gossip")

    @pytest.mark.parametrize("horizon", [0.0, -5.0, math.inf, math.nan])
    def test_bad_horizon(self, horizon):
        spec = FleetSpec.homogeneous(2)
        with pytest.raises(SimulationError,
                           match="horizon must be positive and finite"):
            run_fleet(spec, np.ones(4), horizon)

    @pytest.mark.parametrize("fraction", [0.0, -0.25, 1.5, math.nan])
    def test_bad_steal_fraction(self, fraction):
        spec = FleetSpec.homogeneous(2)
        with pytest.raises(SimulationError,
                           match=r"steal_fraction must lie in \(0, 1\]"):
            run_fleet(spec, np.ones(4), 10.0, steal_fraction=fraction)

    def test_bad_core(self):
        spec = FleetSpec.homogeneous(2)
        with pytest.raises(SimulationError, match="unknown fleet core"):
            run_fleet(spec, np.ones(4), 10.0, core="quantum")

    @pytest.mark.parametrize("width", [0.0, -1.0, math.inf])
    def test_bad_bucket_width(self, width):
        spec = FleetSpec.homogeneous(2)
        with pytest.raises(SimulationError,
                           match="bucket_width must be positive and finite"):
            run_fleet(spec, np.ones(4), 10.0, bucket_width=width)

    def test_heterogeneous_rejects_empty_fleet(self):
        with pytest.raises(SimulationError, match="at least one host"):
            FleetSpec.heterogeneous(0)

    @pytest.mark.parametrize("kwargs", [
        {"c_range": (0.0, 1.0)},
        {"c_range": (2.0, 1.0)},
        {"param_range": (-3.0, 5.0)},
        {"speed_range": (0.5, math.inf)},
        {"present_mean_range": (math.nan, 4.0)},
    ])
    def test_heterogeneous_rejects_bad_ranges(self, kwargs):
        with pytest.raises(SimulationError, match="0 < lo <= hi"):
            FleetSpec.heterogeneous(4, **kwargs)

    def test_empty_durations(self):
        spec = FleetSpec.homogeneous(2)
        with pytest.raises(SimulationError):
            run_fleet(spec, np.array([]), 10.0)

    def test_nonpositive_duration(self):
        spec = FleetSpec.homogeneous(2)
        with pytest.raises(SimulationError):
            run_fleet(spec, np.array([1.0, 0.0]), 10.0)


class TestMeanField:
    def test_prediction_in_range(self):
        spec = FleetSpec.homogeneous(100, seed=7)
        plan = plan_fleet_schedules(spec, grid=9)
        durations = fleet_workload(100, 32.0, 0.25)
        result = run_fleet(spec, durations, 800.0, plan=plan)
        mf = mean_field_fleet(spec, plan, float(durations.sum()))
        assert result.finished
        assert 0.25 <= mf["makespan"] / result.completion_time <= 4.0
        assert mf["goodput"] > 0
        assert mf["per_host_goodput"].shape == (100,)

    def test_latency_policy_predicts_slower(self):
        spec = FleetSpec.homogeneous(50, seed=7)
        plan = plan_fleet_schedules(spec, grid=9)
        base = mean_field_fleet(spec, plan, 1000.0, policy="stealing")
        slow = mean_field_fleet(spec, plan, 1000.0,
                                policy="stealing-latency")
        assert slow["makespan"] >= base["makespan"]


class TestHarness:
    def test_policy_comparison_record(self):
        spec = FleetSpec.homogeneous(8, seed=1)
        durations = fleet_workload(8, 8.0, 0.25)
        record = run_policy_comparison(spec, durations, 300.0)
        assert set(record["policies"]) == set(FLEET_POLICIES)
        for r in record["policies"].values():
            assert r["events_per_sec"] > 0
            assert r["mean_field"]["makespan"] > 0

    def test_scalar_baseline_matches_contract(self):
        spec = FleetSpec.homogeneous(4, seed=1)
        plan = plan_fleet_schedules(spec, grid=5)
        durations = fleet_workload(4, 8.0, 0.25)
        base = scalar_baseline(spec, durations, 300.0, plan=plan)
        assert base["events"] > 0
        assert base["tasks_completed"] == durations.size

    def test_host_helpers_agree_with_spec(self):
        spec = FleetSpec.heterogeneous(3, seed=2)
        net = host_network(spec, 1)
        assert len(net) == 1
        assert net.c == spec.cs[1]
        assert net.workstations[0].speed == spec.speeds[1]
        # Substreams differ per host but are reproducible.
        a = host_rng(spec, 0).random(4)
        b = host_rng(spec, 0).random(4)
        other = host_rng(spec, 1).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, other)
