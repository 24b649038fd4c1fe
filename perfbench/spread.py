"""Run one workload over several seeds and print each metric's spread.

Usage (from the checkout root)::

    python3 perfbench/spread.py --workload serve-zipf --seeds 1-10 [--trace 0]

The spread of a metric is the distance between the first and third
quartiles of its per-seed values (``statistics.quantiles(values, n=4)``) as a
share of their median; ``BENCHMARK.json`` bounds it for end-to-end metrics.
Each run's result line is appended to ``--out`` (JSON lines) when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from harness import ROOT, load_spec


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = load_spec()
    values: dict[str, list[float]] = {}
    for seed in seed_list(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        report = json.loads(lines[-2])
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                     "trace": args.trace, **result,
                                     "raw": report.get("raw"),
                                     "host_speed": report.get("host_speed")}) + "\n")
        row = {k: m["value"] for k, m in result["metrics"].items()}
        for k, m in report["named"].items():
            row[f"named.{k}"] = m["value"]
        for k, v in (report.get("raw") or {}).items():
            row[f"raw.{k}"] = v
        row["host_speed"] = report["host_speed"]
        for k, v in row.items():
            values.setdefault(k, []).append(v)
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v:.4g}" for k, v in row.items() if k in result["metrics"]
            and args.trace == 0), flush=True)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for name, vals in values.items():
        if len(vals) < 2 or statistics.median(vals) == 0:
            continue
        line = f"{name:<48} median {statistics.median(vals):.6g}  spread {spread(vals):.4f}"
        if bounds.get(name) is not None:
            line += f"  bound {bounds[name]}  (third {bounds[name] / 3:.4f})"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
