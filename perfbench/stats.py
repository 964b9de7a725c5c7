"""Sample statistics and the result line shared by every workload."""

from __future__ import annotations

import json
import math
import resource
import statistics
from typing import Iterable, Mapping, Optional

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank ``q``-quantile, refusing a percentile the sample cannot support.

    Failed operations enter as ``math.inf`` so they miss every latency limit.
    Raises :class:`ValueError` when fewer than :data:`MIN_TAIL_SAMPLES` samples
    lie beyond the requested rank (21 samples support the median, 100 the p90).
    """
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q * 100:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"at least {MIN_TAIL_SAMPLES} are needed"
        )
    return ordered[rank - 1]


def median(values: Iterable[float]) -> float:
    """Plain median of a small fixed set of repeats (set-up time)."""
    return statistics.median(list(values))


def own_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (10^6 bytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a running child process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError(f"no VmHWM for process {pid}")


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Mapping[str, tuple[float, str]],
) -> str:
    """The benchmark's final stdout line: one JSON object."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        },
        sort_keys=True,
    )


def share_change(traced: float, untraced: float) -> Optional[float]:
    """``traced / untraced - 1``; ``None`` when the baseline is zero."""
    if untraced == 0:
        return None
    return traced / untraced - 1.0
