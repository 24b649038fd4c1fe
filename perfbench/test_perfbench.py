"""Self-tests for the benchmark harness.

Run from the checkout root with ``python3 -m pytest perfbench -q``.  They
need NumPy but not the package under ``src/``.
"""

from __future__ import annotations

import math
import time

import pytest

from harness import load_spec, median, rank, tail, tail_percentile
from tracing import Target, Tracer, self_times, uncovered_share
from workloads import (
    E2E_METRICS, LAYER_METRICS, LAYER_SPANS, REF_NOMINAL_S, WORKLOADS, Speedometer,
)

TIME_UNITS = {"s", "ms", "us", "ns"}


# ----------------------------------------------------------------------
# Span self-time arithmetic
# ----------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > child [1, 4] > grandchild [2, 3]; root > child [5, 9]
    names = ["root", "a", "b", "a"]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    own = self_times(names, starts, ends, parents)
    assert own == {"root": 3.0, "a": 2.0 + 4.0, "b": 1.0}
    assert sum(own.values()) == 10.0


def test_recursive_spans_are_not_counted_twice():
    names = ["f", "f", "f"]
    starts, ends, parents = [0.0, 1.0, 2.0], [8.0, 6.0, 3.0], [-1, 0, 1]
    assert self_times(names, starts, ends, parents) == {"f": 8.0}


def test_uncovered_share_counts_only_root_spans():
    starts, ends, parents = [1.0, 2.0, 6.0], [5.0, 3.0, 7.0], [-1, 0, -1]
    assert uncovered_share(starts, ends, parents, window=10.0) == pytest.approx(0.5)


class _Box:
    def method(self, x):
        return inner(x) + 1


def inner(x):
    return x * 2


def outer(x):
    return inner(x) + _Box().method(x)


def test_tracer_records_parents_and_restores_originals():
    import sys

    module = sys.modules[__name__]
    original_inner, original_method = inner, _Box.method
    tracer = Tracer()
    tracer.install([
        Target(module, "outer", "outer", package=__name__),
        Target(module, "inner", "inner", package=__name__),
        Target(_Box, "method", "method"),
    ])
    try:
        assert module.outer(3) == 13  # inactive: no spans
        assert tracer.names == []
        tracer.active = True
        assert module.outer(3) == 13
        tracer.active = False
    finally:
        tracer.uninstall()
    assert tracer.names == ["outer", "inner", "method", "inner"]
    assert tracer.parents == [-1, 0, 0, 2]
    assert all(e >= s for s, e in zip(tracer.starts, tracer.ends))
    assert module.inner is original_inner and _Box.method is original_method
    own = self_times(tracer.names, tracer.starts, tracer.ends, tracer.parents)
    total = tracer.ends[0] - tracer.starts[0]
    assert sum(own.values()) == pytest.approx(total)


def test_tracer_span_name_from_arguments():
    import sys

    module = sys.modules[__name__]
    tracer = Tracer()
    tracer.install([Target(module, "inner", lambda a, kw: f"inner.{a[0]}",
                           package=__name__)])
    try:
        tracer.active = True
        module.inner(4)
        module.inner(5)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert tracer.names == ["inner.4", "inner.5"]


# ----------------------------------------------------------------------
# Tail percentile rule
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (10, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    q = tail_percentile(n)
    assert q == expected
    if q is not None:
        assert n - rank(q, n) >= 10
        assert n - rank(q, n) == n - math.ceil(q * n / 100 - 1e-9)


def test_tail_value_and_counts():
    values = list(range(1, 201))  # nearest-rank p90 of 1..200 is 180
    t = tail(values[::-1])
    assert t == {"value": 180.0, "percentile": 90.0, "samples": 200, "beyond": 20}
    assert tail([1.0] * 5)["value"] is None
    assert median([3.0, 1.0, 2.0]) == 2.0


# ----------------------------------------------------------------------
# Host-speed normalization
# ----------------------------------------------------------------------


def test_speedometer_factor_is_nominal_over_mean_tick():
    meter = Speedometer()
    meter.ticks = [1e-3, 2e-3, 3e-3]
    assert meter.factor() == pytest.approx(REF_NOMINAL_S / 2e-3)


def test_speedometer_ticks_the_reference_kernel():
    meter = Speedometer()
    for _ in range(3):
        meter.tick()
    assert len(meter.ticks) == 3
    assert all(0.0 < t < 1.0 for t in meter.ticks)
    assert meter.factor() > 0.0


# ----------------------------------------------------------------------
# Declared metrics match BENCHMARK.json
# ----------------------------------------------------------------------


def test_metric_names_and_units_match_benchmark_json():
    spec = load_spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_layer_span_has_a_metric_and_zero_defaults_are_not_times():
    for name in LAYER_SPANS:
        assert f"{name}.self_frac" in LAYER_METRICS
    # A layer a workload does not use reads 0; only non-time units may.
    assert {u for u in LAYER_METRICS.values()} & TIME_UNITS == set()


def test_layer_spans_cover_every_trace_target_name():
    import sys

    from harness import ROOT

    sys.path.insert(0, str(ROOT / "src"))
    pytest.importorskip("repro")
    for cls in WORKLOADS.values():
        for target in cls().trace_targets():
            if isinstance(target.name, str):
                assert target.name in LAYER_SPANS, target.name


def test_tracer_overhead_per_span_is_small():
    import sys

    module = sys.modules[__name__]
    tracer = Tracer()
    tracer.install([Target(module, "inner", "inner", package=__name__)])
    try:
        tracer.active = True
        start = time.perf_counter()
        for i in range(20000):
            module.inner(i)
        per_call = (time.perf_counter() - start) / 20000
    finally:
        tracer.active = False
        tracer.uninstall()
    assert len(tracer.names) == 20000
    assert per_call < 50e-6


def test_printed_names_are_checked_against_benchmark_json():
    from run import check_names

    spec = load_spec()
    printed = {name: {"value": 1.0, "unit": unit} for name, unit in E2E_METRICS.items()}
    check_names(printed, spec["end_to_end"])
    for broken in (
        {**printed, "extra_s": {"value": 1.0, "unit": "s"}},
        {k: v for k, v in printed.items() if k != "setup_s"},
        {**printed, "setup_s": {"value": 1.0, "unit": "ms"}},
    ):
        with pytest.raises(RuntimeError, match="do not match BENCHMARK.json"):
            check_names(broken, spec["end_to_end"])
