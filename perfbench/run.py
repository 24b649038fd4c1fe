"""The repository benchmark: one workload, one seed, metrics as JSON.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload fleet-churn --seed 1 --seconds 30 --trace 0

``--trace 0`` times rounds of the workload untraced and reports the
end-to-end metrics of ``BENCHMARK.json``, its times at the nominal host
speed of ``workloads.Speedometer``.  ``--trace 1`` spends half the time
untraced and half with span wrappers installed, and reports the per-layer
metrics: layer self-time shares, the share no span covers, the tracing
overhead and the layer counts.

Standard output: human-readable lines, then one JSON report line (provenance,
the workload's named metrics, checks, the malformed-query probe and the
layer self times in seconds), and last the result line
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every output check passed; it is 2 when the package cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

from harness import (
    ROOT,
    import_seconds,
    load_spec,
    median,
    peak_rss_bytes,
    provenance,
)

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def parse_args(argv: Optional[list[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def measure(workload, budget: float, meter, tracer=None) -> list:
    """Repeat rounds until another round would overrun ``budget`` seconds,
    and at least ``workload.min_rounds`` times."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(workload.round(tracer, len(rounds), meter))
        elapsed = time.perf_counter() - start
        if len(rounds) >= workload.min_rounds and \
                elapsed + elapsed / len(rounds) > budget:
            return rounds


def layer_metrics(
    workload, untraced: list, traced: list, tracer, speeds: tuple[float, float]
) -> tuple[dict, dict]:
    """Per-layer metrics from the traced rounds, and self seconds per layer.
    ``speeds`` are the untraced and traced halves' host-speed factors."""
    from tracing import self_times, uncovered_share
    from workloads import LAYER_METRICS, LAYER_SPANS

    window = sum(r.seconds for r in traced)
    names, starts, ends, parents = tracer.names, tracer.starts, tracer.ends, tracer.parents
    own = self_times(names, starts, ends, parents)
    unknown = set(own) - set(LAYER_SPANS)
    if unknown:
        raise RuntimeError(f"spans without a declared layer metric: {sorted(unknown)}")
    metrics = {name: 0.0 for name in LAYER_METRICS}
    for name in LAYER_SPANS:
        metrics[f"{name}.self_frac"] = own.get(name, 0.0) / window
    metrics["trace.uncovered_frac"] = uncovered_share(starts, ends, parents, window)
    metrics["trace.overhead_frac"] = (
        median([r.seconds for r in traced]) * speeds[1]
        / (median([r.seconds for r in untraced]) * speeds[0]) - 1.0
    )
    n_traced = len(traced)
    metrics["trace.spans_per_round"] = len(names) / n_traced
    for name in ("optimizer.optimize_fixed_m", "life_functions.sample_reclaim_times"):
        metrics[f"{name}.calls"] = names.count(name) / n_traced
    metrics.update(workload.layer_counts(untraced))
    seconds = {name: own[name] / n_traced for name in sorted(own)}
    seconds["uncovered"] = (window * metrics["trace.uncovered_frac"]) / n_traced
    return metrics, seconds


def check_names(metrics: dict, declared: list[dict]) -> None:
    """The printed metrics must be exactly the declared ones, unit for unit."""
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        raise RuntimeError(
            f"metrics do not match BENCHMARK.json: missing "
            f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
            f"unit mismatches {sorted(k for k in want if k in got and got[k] != want[k])}"
        )


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
        from workloads import E2E_METRICS, LAYER_METRICS, WORKLOADS, Speedometer
        from tracing import Tracer
    except ImportError as exc:
        print(f"perfbench: cannot import the package from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        print(f"perfbench: imported {repro.__file__}, not the checkout's src/",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()

    setups = []
    for _ in range(SETUP_REPEATS):
        imports = import_seconds(workload.modules)
        start = time.perf_counter()
        workload.setup(args.seed)
        setups.append(imports + time.perf_counter() - start)

    budget = args.seconds / 2 if args.trace else args.seconds
    meter = Speedometer()
    untraced = measure(workload, budget, meter)
    traced = []
    tracer = None
    traced_meter = Speedometer()
    if args.trace:
        tracer = Tracer()
        tracer.install(workload.trace_targets())
        try:
            traced = measure(workload, budget, traced_meter, tracer)
        finally:
            tracer.uninstall()
    rounds = untraced + traced

    # Times at the nominal host speed, set-up included: the host drifts over
    # minutes, so the measured phase's ticks also hold for the set-up just
    # before it.  The report keeps the raw times.
    leg1, leg2, named = workload.end_to_end(untraced)
    speed = meter.factor()
    if args.trace:
        values, layer_seconds = layer_metrics(
            workload, untraced, traced, tracer, (speed, traced_meter.factor()))
        units = LAYER_METRICS
    else:
        values = {
            "setup_s": median(setups) * speed,
            "peak_rss_mb": peak_rss_bytes() / 1e6,
            "leg1_s": leg1 * speed,
            "leg2_s": leg2 * speed,
        }
        layer_seconds = None
        units = E2E_METRICS
    metrics = {name: {"value": float(values[name]), "unit": units[name]}
               for name in units}
    check_names(metrics, spec["per_layer" if args.trace else "end_to_end"])

    failures = [f for r in rounds for f in r.failures]
    failed = sum(max(r.failed, 1 if r.failures else 0) for r in rounds)
    attempted = sum(r.attempted for r in rounds)
    workload.probe()  # informational; its outcome lands in workload.notes
    report = {
        "workload": workload.name,
        "provenance": provenance(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": {"untraced": len(untraced), "traced": len(traced)},
        "setup_samples_s": setups,
        "host_speed": speed,
        "raw": {"setup_s": median(setups), "leg1_s": leg1, "leg2_s": leg2},
        "named": named,
        "failures": failures[:20],
        "notes": workload.notes,
        "layer_self_s_per_round": layer_seconds,
    }
    for name, m in named.items():
        print(f"# {name:<28} {m['value']:.6g} {m['unit']}")
    for name, m in metrics.items():
        print(f"# {name:<48} {m['value']:.6g} {m['unit']}")
    if layer_seconds:
        for name, sec in layer_seconds.items():
            print(f"# self {name:<46} {sec:.6g} s/round")
    print(json.dumps(report, default=repr))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
