"""Campaign benchmark — the 10k-household multi-week planning pipeline.

The ROADMAP's "multi-negotiation campaigns at scale" item measured campaign
wall-clock as dominated by the *planning* layer (per-household preference
modelling in :meth:`~repro.core.planning.DayAheadPlanner.plan`), not by the
negotiations.  This experiment tracks that split: it runs the full
observe → predict → negotiate → apply → account loop through
:func:`repro.api.campaign` and records the planning-phase and
negotiation-phase wall-clock separately, for both the columnar
(:class:`~repro.grid.fleet.HouseholdFleet`) and the scalar (per-household
oracle) planning paths.

:func:`write_campaign_json` emits the machine-readable trajectory
(``benchmarks/BENCH_campaign.json``) that CI replays via
``benchmarks/run_bench.py --check``; the recorded ``planning_speedup`` is
the scalar-versus-columnar planning wall-clock ratio at the benchmark scale.

On top of the 10k eager/scalar oracle pair the sweep now carries the
*zero-materialisation* path: a 10k ``materialise="lazy"`` run (asserted
row-identical to the eager entry at emission) and the 100k-household
``lazy_large`` point — lazy hand-off, a bounded predictor
``history_window`` and no per-round bid retention — each with its
tracemalloc'd peak (``peak_traced_mb``), which ``--check`` guards with a
tolerance band.

The heterogeneous point (:func:`build_hetero_campaign_planner`) runs the
same pipeline on a mixed town — two appliance catalogues, permuted ownership
orderings — that planning buckets into per-signature
:class:`~repro.grid.fleet.HouseholdFleet` kernels, against the scalar
per-household loop every such town fell back to before the bucketed fleet
existed.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.api import EngineConfig, campaign
from repro.core.planning import CampaignResult, DayAheadPlanner
from repro.grid.appliances import (
    Appliance,
    ApplianceCategory,
    ApplianceLibrary,
    _evening_morning_pattern,
    standard_appliance_library,
)
from repro.grid.demand import DemandModel
from repro.grid.household import Household, HouseholdProfile
from repro.grid.weather import WeatherCondition
from repro.runtime.rng import RandomSource

#: Benchmark scale: the ROADMAP's 10k-household two-week campaign.
CAMPAIGN_HOUSEHOLDS = 10_000
CAMPAIGN_DAYS = 14
CAMPAIGN_SEED = 7
CAMPAIGN_WARMUP_DAYS = 2

#: The utility-scale point of the lazy campaign sweep: 100k households, a
#: bounded observation window, no per-round bid retention.  The eager oracle
#: never runs at this size (its per-day object materialisation is exactly
#: what the lazy path removes); equivalence is pinned at 10k and below.
LARGE_CAMPAIGN_HOUSEHOLDS = 100_000
LARGE_CAMPAIGN_WINDOW = 7

#: The million-household point: array-native rounds, lazy hand-off, bounded
#: window, no bid retention.  Only reachable because no layer of the pipeline
#: holds a per-household Python object for the round loop any more.
XLARGE_CAMPAIGN_HOUSEHOLDS = 1_000_000

#: The heterogeneous-town point: same 10k scale, but the population mixes
#: appliance catalogues and ownership orderings so no single
#: :class:`~repro.grid.fleet.HouseholdFleet` can pack it.  Shorter than the
#: homogeneous campaign because its scalar-planning reference (the pre-PR
#: fallback behaviour this point exists to beat) pays the per-household loop
#: on every planned day.
HETERO_CAMPAIGN_DAYS = 7

#: Acceptance floor for the bucketed-fleet planning speedup over the scalar
#: fallback at the heterogeneous benchmark scale.
HETERO_MIN_PLANNING_SPEEDUP = 5.0

#: One cold snap per three-day cycle keeps a steady stream of negotiated days.
CONDITION_CYCLE = (
    WeatherCondition.MILD,
    WeatherCondition.SEVERE_COLD,
    WeatherCondition.COLD,
)


def build_campaign_planner(
    num_households: int, seed: int = CAMPAIGN_SEED, planning: str = "columnar"
) -> DayAheadPlanner:
    """The benchmark's standard planner: generated town, 0.8-quantile capacity."""
    random = RandomSource(seed, "campaign_scale")
    households = [
        Household.generate(f"h{i}", random.spawn(f"h{i}"))
        for i in range(num_households)
    ]
    demand_model = DemandModel(households, random.spawn("demand"))
    capacity = demand_model.normal_capacity_for_target(quantile=0.8)
    return DayAheadPlanner(
        households, capacity, random=random.spawn("planner"), planning=planning
    )


def _retrofit_appliance_library() -> ApplianceLibrary:
    """A second appliance catalogue: district-heating retrofit homes.

    Value-distinct from :func:`standard_appliance_library` (heat pump instead
    of resistive heating, LED lighting, induction cooking), so fleets built
    from it can never share columns with standard-town fleets — the packer
    must bucket.
    """
    return ApplianceLibrary(
        [
            Appliance(
                name="heat_pump",
                category=ApplianceCategory.SPACE_HEATING,
                rated_power_kw=3.0,
                daily_energy_kwh=24.0,
                usage_pattern=_evening_morning_pattern(1.4, 0.8, 1.5, 0.9),
                flexibility=0.6,
            ),
            Appliance(
                name="heat_pump_water",
                category=ApplianceCategory.WATER_HEATING,
                rated_power_kw=1.2,
                daily_energy_kwh=6.0,
                usage_pattern=_evening_morning_pattern(1.9, 0.5, 1.5, 0.4),
                flexibility=0.7,
            ),
            Appliance(
                name="induction_hob",
                category=ApplianceCategory.COOKING,
                rated_power_kw=5.5,
                daily_energy_kwh=2.2,
                usage_pattern=_evening_morning_pattern(0.9, 0.4, 2.4, 0.1),
                flexibility=0.15,
                per_person=True,
            ),
            Appliance(
                name="led_lighting",
                category=ApplianceCategory.LIGHTING,
                rated_power_kw=0.15,
                daily_energy_kwh=0.8,
                usage_pattern=_evening_morning_pattern(1.2, 0.3, 2.3, 0.4),
                flexibility=0.3,
                per_person=True,
            ),
        ]
    )


def build_hetero_campaign_planner(
    num_households: int, seed: int = CAMPAIGN_SEED, planning: str = "columnar"
) -> DayAheadPlanner:
    """A deliberately mixed town no single :class:`HouseholdFleet` accepts.

    Three interleaved household kinds: standard-catalogue homes, homes whose
    ownership dict lists appliances in reversed (out-of-library) order, and
    district-heating retrofit homes on a second catalogue.  Pre-PR any one of
    these mixes forced the whole town onto the scalar per-household planning
    loop; the bucketed fleet packs them into three signature buckets.
    """
    random = RandomSource(seed, "campaign_hetero")
    standard = standard_appliance_library()
    retrofit = _retrofit_appliance_library()
    households = []
    for i in range(num_households):
        kind = i % 3
        rng = random.spawn(f"h{i}")
        if kind == 0:
            households.append(Household.generate(f"h{i}", rng, standard))
        elif kind == 1:
            base = Household.generate(f"h{i}", rng, standard).profile
            permuted = HouseholdProfile(
                household_id=base.household_id,
                size=base.size,
                ownership=dict(reversed(list(base.ownership.items()))),
                comfort_weight=base.comfort_weight,
                flexibility_scale=base.flexibility_scale,
            )
            households.append(Household(permuted, standard))
        else:
            households.append(Household.generate(f"h{i}", rng, retrofit))
    demand_model = DemandModel(households, random.spawn("demand"))
    capacity = demand_model.normal_capacity_for_target(quantile=0.8)
    return DayAheadPlanner(
        households, capacity, random=random.spawn("planner"), planning=planning
    )


#: Registered town builders: ``run_campaign_bench(town=...)`` and the
#: ``--check`` replay both resolve through this table.
TOWN_BUILDERS = {
    "standard": build_campaign_planner,
    "mixed": build_hetero_campaign_planner,
}


@dataclass
class CampaignBenchEntry:
    """One measured campaign run."""

    num_households: int
    num_days: int
    planning: str
    backend: str
    result: CampaignResult
    wall_seconds: float
    materialise: str = "eager"
    history_window: Optional[int] = None
    rounds: str = "object"
    #: Which registered town the planner was built from ("standard" or the
    #: heterogeneous "mixed" town).
    town: str = "standard"
    #: tracemalloc'd peak of the campaign run (MB of live Python/numpy
    #: allocations), measured only when the stage asks for it.
    peak_traced_mb: Optional[float] = None

    def as_row(self) -> dict[str, object]:
        result = self.result
        row: dict[str, object] = {
            "num_households": self.num_households,
            "num_days": self.num_days,
            "town": self.town,
            "planning": self.planning,
            "materialise": self.materialise,
            "history_window": self.history_window,
            "rounds": self.rounds,
            "rounds_modes": sorted(
                {
                    str(day.metadata["rounds_mode"])
                    for day in result.days
                    if "rounds_mode" in day.metadata
                }
            ),
            "kernel_cache": {
                counter: sum(
                    int(day.metadata["kernel_cache"][counter])
                    for day in result.days
                    if "kernel_cache" in day.metadata
                )
                for counter in ("hits", "misses")
            },
            "backend": self.backend,
            "wall_seconds": self.wall_seconds,
            "planning_seconds": result.planning_seconds,
            "negotiation_seconds": result.negotiation_seconds,
            "days_negotiated": result.days_negotiated,
            "negotiated_days": [day.day_index for day in result.days if day.negotiated],
            "total_reward_paid": result.total_reward_paid,
            "total_net_benefit": result.total_net_benefit,
            "backends": [backend or "-" for backend in result.backends],
        }
        if self.peak_traced_mb is not None:
            row["peak_traced_mb"] = self.peak_traced_mb
        return row


def run_campaign_bench(
    num_households: int = CAMPAIGN_HOUSEHOLDS,
    num_days: int = CAMPAIGN_DAYS,
    seed: int = CAMPAIGN_SEED,
    backend: str = "auto",
    planning: str = "columnar",
    materialise: str = "eager",
    history_window: Optional[int] = None,
    rounds: str = "object",
    retain_logs: bool = True,
    track_memory: bool = False,
    town: str = "standard",
) -> CampaignBenchEntry:
    """Run one campaign at the benchmark configuration and time it.

    ``track_memory=True`` wraps the campaign (not the one-off planner/town
    construction) in tracemalloc and records the peak of live allocations —
    the number the lazy path is designed to bound.  ``town`` selects the
    planner builder from :data:`TOWN_BUILDERS`.
    """
    planner = TOWN_BUILDERS[town](num_households, seed, planning=planning)
    config = EngineConfig(
        planning=planning,
        materialise=materialise,
        history_window=history_window,
        rounds=rounds,
        retain_message_log=retain_logs,
    )
    peak_traced_mb: Optional[float] = None
    if track_memory:
        tracemalloc.start()
    start = time.perf_counter()
    try:
        result = campaign(
            planner,
            num_days,
            conditions=CONDITION_CYCLE,
            backend=backend,
            config=config,
            warmup_days=CAMPAIGN_WARMUP_DAYS,
            seed=seed,
        )
        wall = time.perf_counter() - start
        if track_memory:
            __, peak = tracemalloc.get_traced_memory()
            peak_traced_mb = peak / 1e6
    finally:
        if track_memory:
            tracemalloc.stop()
    return CampaignBenchEntry(
        num_households=num_households,
        num_days=num_days,
        planning=planning,
        backend=backend,
        result=result,
        wall_seconds=wall,
        materialise=materialise,
        history_window=history_window,
        rounds=rounds,
        town=town,
        peak_traced_mb=peak_traced_mb,
    )


def render_entry(entry: CampaignBenchEntry, timings: bool = True) -> str:
    """The campaign as a text report; ``timings=False`` drops the wall-clock
    and traced-memory lines so the report is a pure function of the seed (a
    tracked artefact then only changes when behaviour does)."""
    row = entry.as_row()
    lines = [
        f"campaign — {row['num_households']} households, {row['num_days']} days "
        f"(town={row['town']}, backend={row['backend']}, planning={row['planning']}, "
        f"materialise={row['materialise']}, history_window={row['history_window']}, "
        f"rounds={row['rounds']})",
    ]
    if timings:
        lines += [
            f"wall_seconds: {row['wall_seconds']:.2f}",
            f"planning_seconds: {row['planning_seconds']:.2f}",
            f"negotiation_seconds: {row['negotiation_seconds']:.2f}",
        ]
    lines += [
        f"days_negotiated: {row['days_negotiated']}",
        f"total_reward_paid: {row['total_reward_paid']:.2f}",
        f"total_net_benefit: {row['total_net_benefit']:.2f}",
    ]
    if timings and entry.peak_traced_mb is not None:
        lines.append(f"peak_traced_mb: {entry.peak_traced_mb:.1f}")
    for day, backend in zip(entry.result.days, row["backends"]):
        lines.append(
            f"  day {day.day_index:>2}: negotiated={day.negotiated} backend={backend}"
        )
    return "\n".join(lines)


def write_campaign_json(
    path: Path,
    columnar: CampaignBenchEntry,
    scalar: Optional[CampaignBenchEntry] = None,
    seed: int = CAMPAIGN_SEED,
    lazy: Optional[CampaignBenchEntry] = None,
    lazy_large: Optional[CampaignBenchEntry] = None,
    array: Optional[CampaignBenchEntry] = None,
    xlarge: Optional[CampaignBenchEntry] = None,
    hetero: Optional[CampaignBenchEntry] = None,
    hetero_scalar: Optional[CampaignBenchEntry] = None,
) -> Path:
    """Write the machine-readable campaign trajectory.

    ``planning_speedup`` — the scalar/columnar planning-phase wall-clock
    ratio — is only present when the scalar reference run was measured;
    ``lazy`` / ``lazy_large`` carry the zero-materialisation sweep (10k and
    the utility-scale point) when those stages ran; ``array`` is the 10k
    array-round run (asserted row-identical to ``columnar`` before emission)
    and ``xlarge`` the million-household array-round point.  ``hetero`` is
    the mixed-town bucketed-fleet run and ``hetero_scalar`` its scalar
    fallback reference (the pre-PR behaviour); ``hetero_planning_speedup``
    records their planning-phase ratio.
    """
    payload: dict[str, object] = {
        "experiment": "campaign_scale",
        "seed": seed,
        "columnar": columnar.as_row(),
    }
    if scalar is not None:
        payload["scalar_planning"] = scalar.as_row()
        if columnar.result.planning_seconds > 0:
            payload["planning_speedup"] = (
                scalar.result.planning_seconds / columnar.result.planning_seconds
            )
    if lazy is not None:
        payload["lazy"] = lazy.as_row()
    if lazy_large is not None:
        payload["lazy_large"] = lazy_large.as_row()
    if array is not None:
        payload["array"] = array.as_row()
    if xlarge is not None:
        payload["xlarge"] = xlarge.as_row()
    if hetero is not None:
        payload["hetero"] = hetero.as_row()
        if hetero_scalar is not None:
            payload["hetero_scalar_planning"] = hetero_scalar.as_row()
            if hetero.result.planning_seconds > 0:
                payload["hetero_planning_speedup"] = (
                    hetero_scalar.result.planning_seconds
                    / hetero.result.planning_seconds
                )
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path
