"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload campaign_town --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` first repeats the
untraced run in a child process, then runs again with spans recorded around
each layer and prints the per-layer metrics, including the tracing overhead
(the traced run's end-to-end metrics as a share of the untraced run's).
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; earlier lines are a human-readable summary.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CAMPAIGNS = ("campaign_town", "campaign_mixed")
SERVING = ("serve_towns", "serve_fresh")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=CAMPAIGNS + SERVING)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if arguments.seed < 0 or arguments.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return arguments


def measure_campaign(arguments: argparse.Namespace, traced: bool):
    from perfbench import campaigns
    from perfbench.tracing import SpanRecorder

    recorder = SpanRecorder() if traced else None
    hooks = {}
    if recorder is not None:
        recorder.install()
        hooks = {
            "on_start": lambda: setattr(recorder, "active", True),
            "on_end": lambda: setattr(recorder, "active", False),
        }
    try:
        measurement = campaigns.measure(
            arguments.workload, arguments.seed, arguments.seconds, **hooks
        )
    finally:
        if recorder is not None:
            recorder.uninstall()
    correct = measurement.failed == 0
    notes = [
        f"{len(measurement.runs)} campaign(s) x {campaigns.CAMPAIGN_DAYS} days, "
        f"{measurement.households} households, set-ups "
        + ", ".join(f"{s:.3f}s" for s in measurement.setup_seconds),
        "campaign walls " + ", ".join(f"{run.wall_seconds:.3f}s" for run in measurement.runs),
    ]
    if measurement.expected is None:
        notes.append("no pinned digest for this seed: run perfbench/pin_digests.py")
    for run in measurement.runs:
        if run.digest != measurement.expected:
            notes.append(f"digest mismatch: {run.digest} != {measurement.expected}")
    layer = {}
    if recorder is not None:
        from perfbench.tracing import call_count, span_metrics

        rows = recorder.export()
        layer = span_metrics(rows)
        layer.update(campaigns.layer_counts(measurement))
        layer["grid.predict_calls"] = (call_count(rows, "grid.predict"), "count")
    return correct, measurement.attempted, measurement.failed, measurement.end_to_end(), layer, notes


def measure_serving(arguments: argparse.Namespace, traced: bool):
    from perfbench import serving

    measurement = serving.measure(
        arguments.workload, arguments.seed, arguments.seconds, ROOT, traced
    )
    correct = measurement.failed == 0 and measurement.valid
    outside = measurement.outside_metrics()
    notes = [
        f"{measurement.attempted} requests, {measurement.failed} failed, set-ups "
        + ", ".join(f"{s:.3f}s" for s in measurement.setup_seconds),
    ]
    notes += [f"{name}: {value:.6g} {unit}" for name, (value, unit) in outside.items()]
    if not measurement.valid:
        notes.append(
            f"invalid run: the generator fell {measurement.window.generator_lag_max:.3f}s "
            f"behind its schedule (limit {serving.MAX_GENERATOR_LAG_SECONDS}s)"
        )
    layer = {}
    if traced:
        from perfbench.tracing import call_count, span_metrics

        layer = span_metrics(measurement.spans)
        layer.update(outside)
        layer["serve.population_builds"] = (
            call_count(measurement.spans, "serve.population_build"), "count"
        )
        layer["serve.population_cache_entries"] = (
            measurement.population_cache_entries, "count"
        )
    return correct, measurement.attempted, measurement.failed, measurement.end_to_end(), layer, notes


def untraced_baseline(arguments: argparse.Namespace) -> dict:
    """The same run without tracing, in a child process (its own peak RSS)."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", arguments.workload, "--seed", str(arguments.seed),
        "--seconds", str(arguments.seconds), "--trace", "0",
    ]
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    *summary, result = completed.stdout.strip().splitlines()
    for line in summary:
        print(f"untraced: {line}")
    return json.loads(result)


def declared(kind: str) -> dict[str, str]:
    """Name -> unit of every ``end_to_end`` or ``per_layer`` metric in BENCHMARK.json."""
    declaration = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in declaration[kind]}


def as_declared(measured: dict, kind: str) -> tuple[dict, list[str]]:
    """Exactly the declared metrics: a metric the workload does not exercise reads 0.

    Also returns the names measured but not declared, so drift between the
    code and BENCHMARK.json is reported instead of silently dropped.
    """
    units = declared(kind)
    metrics = {}
    for name, unit in units.items():
        value, measured_unit = measured.get(name, (0.0, unit))
        if measured_unit != unit:
            raise ValueError(f"{name} measured in {measured_unit}, declared in {unit}")
        metrics[name] = (value, unit)
    return metrics, sorted(set(measured) - set(units))


def main(argv: list[str]) -> int:
    arguments = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import stats

    traced = arguments.trace == 1
    baseline = untraced_baseline(arguments) if traced else None
    measure = measure_campaign if arguments.workload in CAMPAIGNS else measure_serving
    correct, attempted, failed, end_to_end, layer, notes = measure(arguments, traced)
    for note in notes:
        print(note)
    for name, (value, unit) in end_to_end.items():
        print(f"{name}: {value:.6g} {unit}{' (traced)' if traced else ''}")
    if traced:
        for name, (value, _unit) in end_to_end.items():
            change = stats.share_change(value, baseline["metrics"][name]["value"])
            layer[f"overhead.{name}"] = (0.0 if change is None else change, "ratio")
        correct = correct and baseline["correct"]
    metrics, undeclared = as_declared(layer if traced else end_to_end,
                                      "per_layer" if traced else "end_to_end")
    if undeclared:
        print("measured but not declared in BENCHMARK.json: " + ", ".join(undeclared))
    print(stats.result_line(correct, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
