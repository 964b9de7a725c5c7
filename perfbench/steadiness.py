"""Measure how steady the end-to-end metrics are across seeds.

Usage, from the repository root::

    python3 perfbench/steadiness.py --workload serve_towns --seeds 1-10 --label A \
        [--out perfbench/steadiness.json]
    python3 perfbench/steadiness.py --compare A B --out perfbench/steadiness.json

The first form runs ``run.py --trace 0`` once per seed, one run at a time,
with ``run_seconds`` from ``BENCHMARK.json``, and prints every run's values
and, per metric, the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread: the distance between the quartiles as a share of the
median.  With ``--out`` the summary is stored under ``<label>/<workload>``.
The second form compares two stored sets: each metric's spread in both, and
how much worse the second set's median is than the first's, next to the
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"1,4,9"``."""
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(part) for part in text.split(",")]


def summarise(values: list[float]) -> dict:
    first, middle, third = statistics.quantiles(values, n=4)
    return {
        "median": middle,
        "q1": first,
        "q3": third,
        "spread": (third - first) / middle,
        "values": values,
    }


def measure(workload: str, seeds: list[int], seconds: int) -> dict:
    per_metric: dict[str, list[float]] = {}
    walls, incorrect = [], 0
    for seed in seeds:
        command = [
            sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ]
        began = time.perf_counter()
        completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        walls.append(time.perf_counter() - began)
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        incorrect += 0 if result["correct"] and result["failed"] == 0 else 1
        values = {name: metric["value"] for name, metric in result["metrics"].items()}
        print(workload, seed, f"{walls[-1]:.1f}s", result["correct"], json.dumps(values), flush=True)
        for name, value in values.items():
            per_metric.setdefault(name, []).append(value)
    return {
        "seeds": seeds,
        "incorrect_runs": incorrect,
        "run_wall_s": summarise(walls),
        "metrics": {name: summarise(values) for name, values in per_metric.items()},
    }


def compare(stored: dict, first: str, second: str, declaration: dict) -> None:
    for workload, summary in stored[first].items():
        if workload not in stored[second]:
            continue
        for metric in declaration["end_to_end"]:
            a = summary["metrics"][metric["name"]]
            b = stored[second][workload]["metrics"][metric["name"]]
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (b["median"] / a["median"] - 1)
            print(
                f"{workload:15} {metric['name']:17} spread {a['spread']:.3f} / "
                f"{b['spread']:.3f}  second median worse by {worse:+.3f}  "
                f"bound {metric['bound']}"
            )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--label", default="A")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    parser.add_argument("--out", type=Path)
    arguments = parser.parse_args(argv)
    declaration = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    stored = (
        json.loads(arguments.out.read_text(encoding="utf-8"))
        if arguments.out is not None and arguments.out.exists()
        else {}
    )
    if arguments.compare:
        compare(stored, *arguments.compare, declaration)
        return 0
    workloads = arguments.workload or [w["name"] for w in declaration["workloads"]]
    for workload in workloads:
        summary = measure(workload, parse_seeds(arguments.seeds), declaration["run_seconds"])
        for name, metric in summary["metrics"].items():
            print(
                f"  {name:17} median {metric['median']:.6g}  q1 {metric['q1']:.6g}  "
                f"q3 {metric['q3']:.6g}  spread {metric['spread']:.3f}",
                flush=True,
            )
        stored.setdefault(arguments.label, {})[workload] = summary
        if arguments.out is not None:
            arguments.out.write_text(json.dumps(stored, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
