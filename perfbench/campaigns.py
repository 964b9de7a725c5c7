"""Campaign workloads: the day-ahead plan → negotiate → account → observe loop.

Each run generates its town from the seed (never timed), then repeats
"set up a planner, run a 21-day campaign through ``repro.api.campaign``"
a fixed number of times sized from ``--seconds``.  Set-up is timed at least
:data:`SETUP_REPEATS` times; the extra set-ups build a planner and drop it.
Every campaign's rows must hash to the digest pinned for its input seed in
``digests.json`` (regenerate with ``python3 perfbench/pin_digests.py``).
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.api import EngineConfig, campaign
from repro.core.planning import CampaignResult, DayAheadPlanner
from repro.experiments.campaign_bench import CONDITION_CYCLE, _retrofit_appliance_library
from repro.grid.appliances import standard_appliance_library
from repro.grid.demand import DemandModel
from repro.grid.household import Household, HouseholdProfile
from repro.runtime.rng import RandomSource

from perfbench import stats

#: Campaign days after the predictor warm-up; 21 day samples support a median.
CAMPAIGN_DAYS = 21
WARMUP_DAYS = 2
#: Set-up time is the median of at least this many set-ups per run, and of
#: enough set-ups to fill about SETUP_MIN_SECONDS when one set-up is quick.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
#: Input seeds are ``--seed`` modulo this; ``digests.json`` pins every residue.
SEED_RESIDUES = 8
#: Seed of the weather and of each day's negotiation.  The input seed picks
#: the town; every town sees the same season, so seeds differ in the
#: population, not in how many cold days they happen to draw.
SEASON_SEED = 7

DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: Backends whose day counts the traced run reports.
BACKENDS = ("sharded", "vectorized", "object")


@dataclass(frozen=True)
class CampaignWorkload:
    town: str
    households: int
    config: Callable[[], EngineConfig]
    #: Nominal seconds of one set-up plus one campaign; ``--seconds`` divided
    #: by this, rounded, is the number of campaigns per run (2 and 3 at 20 s).
    cycle_seconds: float


WORKLOADS: dict[str, CampaignWorkload] = {
    "campaign_town": CampaignWorkload(
        town="standard",
        households=100_000,
        config=lambda: EngineConfig(
            materialise="lazy",
            rounds="array",
            history_window=7,
            retain_message_log=False,
        ),
        cycle_seconds=9.0,
    ),
    "campaign_mixed": CampaignWorkload(
        town="mixed",
        households=10_000,
        # The library defaults, on one shard: with two shards on two cores a
        # replayed day's wall time varied by up to 40% (the GIL shared by the
        # caller and both shard threads); on one shard by 5-10%.
        config=lambda: EngineConfig(shards=1),
        cycle_seconds=6.9,
    ),
}


def input_seed(seed: int) -> int:
    """The seed the town and the digest are keyed on."""
    return seed % SEED_RESIDUES


def generate_households(town: str, count: int, seed: int) -> list[Household]:
    """The town's households (workload preparation, never timed).

    ``"standard"`` samples every household from the standard catalogue;
    ``"mixed"`` interleaves standard homes, standard homes listing their
    appliances in reverse order and retrofit homes on a second catalogue, so
    planning packs three appliance-signature buckets.
    """
    random = RandomSource(seed, f"perfbench_{town}")
    standard = standard_appliance_library()
    if town == "standard":
        return [Household.generate(f"h{i}", random.spawn(f"h{i}"), standard) for i in range(count)]
    if town != "mixed":
        raise ValueError(f"unknown town {town!r}")
    retrofit = _retrofit_appliance_library()
    households = []
    for i in range(count):
        rng = random.spawn(f"h{i}")
        kind = i % 3
        if kind == 0:
            households.append(Household.generate(f"h{i}", rng, standard))
        elif kind == 1:
            base = Household.generate(f"h{i}", rng, standard).profile
            reordered = HouseholdProfile(
                household_id=base.household_id,
                size=base.size,
                ownership=dict(reversed(list(base.ownership.items()))),
                comfort_weight=base.comfort_weight,
                flexibility_scale=base.flexibility_scale,
            )
            households.append(Household(reordered, standard))
        else:
            households.append(Household.generate(f"h{i}", rng, retrofit))
    return households


def build_planner(households: Sequence[Household], seed: int) -> DayAheadPlanner:
    """Set-up: demand model, capacity target and planner (with fleet packing)."""
    random = RandomSource(seed, "perfbench_setup")
    demand_model = DemandModel(households, random.spawn("demand"))
    capacity = demand_model.normal_capacity_for_target(quantile=0.8)
    return DayAheadPlanner(households, capacity, random=random.spawn("planner"))


def rows_digest(result: CampaignResult) -> dict[str, object]:
    """What a campaign must reproduce exactly: the sha256 of its rows and a summary."""
    rows = result.rows()
    encoded = json.dumps(rows, sort_keys=True).encode("utf-8")
    return {
        "sha256": hashlib.sha256(encoded).hexdigest(),
        "days": len(rows),
        "days_negotiated": result.days_negotiated,
        "total_reward_paid": repr(result.total_reward_paid),
        "max_peak_after_kw": repr(
            max((row.get("peak_after_kw", 0.0) for row in rows), default=0.0)
        ),
    }


def day_latencies(plan_starts: Sequence[float], end: float) -> list[float]:
    """Wall time of each campaign day from the timestamps taken at ``plan`` entry.

    A day runs from its ``plan`` call to the next day's (plan → negotiate →
    account → observe); the last day ends when the campaign returns.
    """
    bounds = list(plan_starts) + [end]
    return [later - earlier for earlier, later in zip(bounds, bounds[1:])]


def stamp_plan_calls(planner: DayAheadPlanner, starts: list[float]) -> None:
    """Record one ``perf_counter`` timestamp at each ``planner.plan`` entry."""
    plan = planner.plan

    def stamped(*args, **kwargs):
        starts.append(time.perf_counter())
        return plan(*args, **kwargs)

    planner.plan = stamped


@dataclass
class CampaignRun:
    """Everything one campaign contributes to the workload's figures."""

    wall_seconds: float
    day_seconds: list[float]
    digest: dict[str, object]
    lost_days: int
    kernel_cache: dict[str, int] = field(default_factory=dict)
    backend_days: dict[str, int] = field(default_factory=dict)
    rounds: int = 0
    days_negotiated: int = 0
    predictor_bytes: int = 0


def run_campaign(
    planner: DayAheadPlanner,
    config: EngineConfig,
    days: int = CAMPAIGN_DAYS,
    on_start: Optional[Callable[[], None]] = None,
    on_end: Optional[Callable[[], None]] = None,
) -> CampaignRun:
    """One timed campaign on a freshly set-up planner."""
    starts: list[float] = []
    stamp_plan_calls(planner, starts)
    gc.collect()
    if on_start is not None:
        on_start()
    began = time.perf_counter()
    result = campaign(
        planner,
        days,
        conditions=CONDITION_CYCLE,
        backend="auto",
        config=config,
        warmup_days=WARMUP_DAYS,
        seed=SEASON_SEED,
    )
    ended = time.perf_counter()
    if on_end is not None:
        on_end()
    kernel_cache = {"hits": 0, "misses": 0}
    backend_days: dict[str, int] = {}
    rounds = 0
    for day in result.days:
        cache = day.metadata.get("kernel_cache") or {}
        for counter in kernel_cache:
            kernel_cache[counter] += int(cache.get(counter, 0))
        if day.backend is not None:
            backend_days[day.backend] = backend_days.get(day.backend, 0) + 1
        if day.outcome is not None and day.outcome.negotiation is not None:
            rounds += day.outcome.negotiation.rounds
    return CampaignRun(
        wall_seconds=ended - began,
        day_seconds=day_latencies(starts, ended)[: len(result.days)],
        digest=rows_digest(result),
        lost_days=days - len(result.days),
        kernel_cache=kernel_cache,
        backend_days=backend_days,
        rounds=rounds,
        days_negotiated=result.days_negotiated,
        predictor_bytes=planner.predictor.history_nbytes(),
    )


def pinned_digest(workload: str, seed: int) -> Optional[dict]:
    """The digest ``digests.json`` pins for this workload and input seed."""
    if not DIGESTS_PATH.exists():
        return None
    pinned = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    return pinned.get(workload, {}).get(str(input_seed(seed)))


def campaign_count(workload: str, seconds: float) -> int:
    """Campaigns per run: the measured window divided by one cycle, at least one."""
    return max(1, round(seconds / WORKLOADS[workload].cycle_seconds))


@dataclass
class CampaignMeasurement:
    """A workload run's raw figures, before they become metrics."""

    households: int
    setup_seconds: list[float]
    runs: list[CampaignRun]
    expected: Optional[dict]
    peak_rss_mb: float

    @property
    def attempted(self) -> int:
        return CAMPAIGN_DAYS * len(self.runs)

    @property
    def failed(self) -> int:
        """Days lost to a failed day, plus every day of a campaign off its digest."""
        failed = 0
        for run in self.runs:
            if self.expected is None or run.digest != self.expected:
                failed += CAMPAIGN_DAYS
            else:
                failed += run.lost_days
        return failed

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        # A lost day misses every latency limit.
        days = [
            latency
            for run in self.runs
            for latency in run.day_seconds + [math.inf] * run.lost_days
        ]
        wall = sum(run.wall_seconds for run in self.runs)
        return {
            "setup_s": (stats.median(self.setup_seconds), "s"),
            "latency_p50_s": (stats.percentile(days, 0.5), "s"),
            "households_per_s": (self.households * self.attempted / wall, "1/s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }


def measure(
    workload: str,
    seed: int,
    seconds: float,
    on_start: Optional[Callable[[], None]] = None,
    on_end: Optional[Callable[[], None]] = None,
) -> CampaignMeasurement:
    """Run one campaign workload; ``on_start``/``on_end`` bracket each campaign call."""
    spec = WORKLOADS[workload]
    seed = input_seed(seed)
    households = generate_households(spec.town, spec.households, seed)
    campaigns = campaign_count(workload, seconds)
    setup_seconds: list[float] = []
    # Each campaign needs its own set-up; extra ones (built and dropped) make
    # the median steady: at least SETUP_REPEATS, and SETUP_MIN_SECONDS in all.
    def enough_setups() -> bool:
        total = len(setup_seconds) + campaigns
        if total < SETUP_REPEATS or not setup_seconds:
            return False
        return stats.median(setup_seconds) * total >= SETUP_MIN_SECONDS

    while not enough_setups():
        gc.collect()
        began = time.perf_counter()
        planner = build_planner(households, seed)
        setup_seconds.append(time.perf_counter() - began)
        del planner
    runs = []
    for _ in range(campaigns):
        gc.collect()
        began = time.perf_counter()
        planner = build_planner(households, seed)
        setup_seconds.append(time.perf_counter() - began)
        runs.append(run_campaign(planner, spec.config(), on_start=on_start, on_end=on_end))
        del planner
    return CampaignMeasurement(
        households=spec.households,
        setup_seconds=setup_seconds,
        runs=runs,
        expected=pinned_digest(workload, seed),
        peak_rss_mb=stats.own_peak_rss_mb(),
    )


def layer_counts(measurement: CampaignMeasurement) -> dict[str, tuple[float, str]]:
    """Per-layer counters read off the campaign results (not from spans)."""
    runs = measurement.runs
    hits = sum(run.kernel_cache["hits"] for run in runs)
    lookups = hits + sum(run.kernel_cache["misses"] for run in runs)
    backend_days: dict[str, int] = {}
    for run in runs:
        for backend, count in run.backend_days.items():
            backend_days[backend] = backend_days.get(backend, 0) + count
    metrics = {
        "grid.predictor_mb": (runs[-1].predictor_bytes / 1e6, "MB"),
        "agents.kernel_cache_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "core.rounds": (sum(run.rounds for run in runs), "count"),
        "core.days_negotiated": (sum(run.days_negotiated for run in runs), "count"),
    }
    for backend in BACKENDS:
        metrics[f"api.backend_days.{backend}"] = (backend_days.get(backend, 0), "count")
    return metrics