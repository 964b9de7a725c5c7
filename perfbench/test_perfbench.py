"""Tests of the benchmark's own arithmetic, schedule and correctness checks."""

from __future__ import annotations

import json
import math

import pytest

from perfbench import campaigns, serving, stats
from perfbench.tracing import SpanRecorder, rows_since, summarise


# -- the percentile rule -----------------------------------------------------------------


def test_median_needs_ten_samples_beyond_it():
    assert stats.percentile(range(21), 0.5) == 10
    assert stats.percentile(range(20), 0.5) == 9
    with pytest.raises(ValueError):
        stats.percentile(range(19), 0.5)


def test_p90_needs_a_hundred_samples():
    assert stats.percentile(range(100), 0.9) == 89
    with pytest.raises(ValueError):
        stats.percentile(range(99), 0.9)


def test_failures_count_as_missing_every_limit():
    values = [0.1] * 15 + [math.inf] * 6
    assert stats.percentile(values, 0.5) == 0.1
    assert stats.percentile([0.1] * 10 + [math.inf] * 11, 0.5) == math.inf


# -- the open-loop schedule ---------------------------------------------------------------


def test_poisson_schedule_is_fixed_by_the_seed():
    first = serving.schedule("serve_towns", 3, 20)
    assert first == serving.schedule("serve_towns", 3, 20)
    other = serving.schedule("serve_towns", 4, 20)
    # Same burst pattern for every seed; the seed draws the requests.
    assert [offset for offset, _ in other] == [offset for offset, _ in first]
    assert [body for _, body in other] != [body for _, body in first]
    offsets = [offset for offset, _ in first]
    assert len(first) == 200
    assert offsets == sorted(offsets) and 0 < offsets[0] and offsets[-1] < 20
    # 200 arrivals at 10 req/s fill the 20 s span; the last one comes late in it.
    assert offsets[-1] > 19


def test_schedule_draws_from_64_requests_or_fresh_towns():
    warm_towns = {body["scenario"]["seed"] for body in serving.warmup_bodies()}
    assert len(warm_towns) == serving.TOWNS

    towns = serving.schedule("serve_towns", 1, 20)
    distinct = {json.dumps(body, sort_keys=True) for _, body in towns}
    assert len(distinct) <= serving.TOWNS * len(serving.BETAS)
    assert {body["scenario"]["seed"] for _, body in towns} <= warm_towns

    fresh = serving.schedule("serve_fresh", 1, 20)
    fresh_towns = [body["scenario"]["seed"] for _, body in fresh]
    assert len(fresh) == 60
    assert len(set(fresh_towns)) == len(fresh_towns)
    assert not warm_towns & set(fresh_towns)


def test_fresh_schedule_is_paced_and_serves_every_beta_alike():
    first = serving.schedule("serve_fresh", 1, 20)
    other = serving.schedule("serve_fresh", 2, 20)
    offsets = [offset for offset, _ in first]
    assert offsets == [offset for offset, _ in other]
    gaps = {round(later - earlier, 9) for earlier, later in zip(offsets, offsets[1:])}
    assert gaps == {round(1 / 3, 9)}
    betas = [body["scenario"]["beta"] for _, body in first]
    assert betas != [body["scenario"]["beta"] for _, body in other]
    counts = [betas.count(beta) for beta in serving.BETAS]
    assert max(counts) - min(counts) <= 1


def test_short_runs_still_support_the_p90_and_the_median():
    assert len(serving.schedule("serve_towns", 0, 1)) == serving.MIN_REQUESTS
    assert len(serving.schedule("serve_fresh", 0, 1)) == serving.MIN_PACED_REQUESTS


# -- day latencies ------------------------------------------------------------------------


def test_day_latency_runs_from_plan_entry_to_the_next():
    assert campaigns.day_latencies([10.0, 10.5, 11.5], 13.0) == [0.5, 1.0, 1.5]
    assert campaigns.day_latencies([], 1.0) == []


def test_plan_stamps_are_taken_at_each_plan_entry():
    class Planner:
        calls = 0

        def plan(self, forecast):
            self.calls += 1
            return forecast

    planner, starts = Planner(), []
    campaigns.stamp_plan_calls(planner, starts)
    assert planner.plan("a") == "a" and planner.plan("b") == "b"
    assert len(starts) == 2 and starts[0] <= starts[1] and planner.calls == 2


# -- failed_ratio accounting --------------------------------------------------------------


def _outcome(status=202, state="done", matches=True):
    outcome = serving.RequestOutcome(due=0.0, body={}, status=status, state=state)
    outcome.submitted_at, outcome.started_at, outcome.finished_at = 0.0, 0.1, 0.2
    outcome.matches_solo = matches
    return outcome


def test_serving_failures_are_refusals_unfinished_and_mismatched_requests():
    outcomes = [
        _outcome(),
        _outcome(status=429, state=None),
        _outcome(state="failed"),
        _outcome(state="expired"),
        _outcome(matches=False),
        _outcome(),
    ]
    window = serving.Window(outcomes, {}, {}, 0.0)
    measurement = serving.ServeMeasurement([1.0], window, 100.0)
    assert (measurement.attempted, measurement.failed) == (6, 4)
    assert [outcome.latency for outcome in outcomes].count(math.inf) == 4


def _run(digest, lost_days=0):
    return campaigns.CampaignRun(
        wall_seconds=1.0, day_seconds=[0.1] * (campaigns.CAMPAIGN_DAYS - lost_days),
        digest=digest, lost_days=lost_days,
    )


def test_campaign_failures_are_lost_days_and_digest_mismatches():
    pinned = {"sha256": "a"}
    measurement = campaigns.CampaignMeasurement(
        households=10,
        setup_seconds=[1.0],
        runs=[_run(pinned), _run(pinned, lost_days=3), _run({"sha256": "b"})],
        expected=pinned,
        peak_rss_mb=1.0,
    )
    assert measurement.attempted == 3 * campaigns.CAMPAIGN_DAYS
    assert measurement.failed == 3 + campaigns.CAMPAIGN_DAYS
    unpinned = campaigns.CampaignMeasurement(10, [1.0], [_run(pinned)], None, 1.0)
    assert unpinned.failed == campaigns.CAMPAIGN_DAYS


# -- per-seed digests ---------------------------------------------------------------------


def _small_campaign_digest(town: str, seed: int) -> dict:
    households = campaigns.generate_households(town, 90, seed)
    planner = campaigns.build_planner(households, seed)
    config = campaigns.WORKLOADS["campaign_town"].config()
    return campaigns.run_campaign(planner, config, days=4).digest


@pytest.mark.parametrize("town", ["standard", "mixed"])
def test_campaign_digest_is_stable_per_seed(town):
    first = _small_campaign_digest(town, 2)
    assert first == _small_campaign_digest(town, 2)
    assert first["sha256"] != _small_campaign_digest(town, 3)["sha256"]


def test_every_input_seed_has_a_pinned_digest():
    pinned = json.loads(campaigns.DIGESTS_PATH.read_text(encoding="utf-8"))
    for workload in campaigns.WORKLOADS:
        assert sorted(pinned[workload], key=int) == [
            str(seed) for seed in range(campaigns.SEED_RESIDUES)
        ]
        for digest in pinned[workload].values():
            assert len(digest["sha256"]) == 64 and digest["days"] == campaigns.CAMPAIGN_DAYS
    assert campaigns.input_seed(campaigns.SEED_RESIDUES + 5) == 5


# -- spans and self time ------------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    rows = [
        ["outer", 0.0, 10.0, None],
        ["inner", 1.0, 4.0, 0],
        ["inner", 5.0, 6.0, 0],
        ["leaf", 2.0, 3.0, 1],
    ]
    summary = summarise(rows)
    assert summary["outer"] == {"busy": 10.0, "self": 6.0, "calls": 1}
    assert summary["inner"] == {"busy": 4.0, "self": 3.0, "calls": 2}
    assert summary["leaf"]["self"] == 1.0
    assert rows_since(rows, 1.5) == [["inner", 5.0, 6.0, None], ["leaf", 2.0, 3.0, None]]


class _Target:
    def work(self, depth):
        return self.work(depth - 1) + 1 if depth else 0

    @classmethod
    def build(cls):
        return cls()


def test_recorder_wraps_methods_once_per_outermost_call(monkeypatch):
    import sys
    import types

    module = types.ModuleType("perfbench_span_target")
    module.Target = _Target
    monkeypatch.setitem(sys.modules, module.__name__, module)
    original_work = _Target.__dict__["work"]
    recorder = SpanRecorder()
    recorder.install([
        (module.__name__, "Target.work", "work"),
        (module.__name__, "Target.build", "build"),
    ])
    try:
        assert _Target().work(3) == 3  # inactive: nothing recorded
        recorder.active = True
        assert _Target.build().work(3) == 3
        rows = recorder.export()
    finally:
        recorder.uninstall()
    assert [row[0] for row in rows] == ["build", "work"]
    assert _Target.__dict__["work"] is original_work
    assert isinstance(_Target.__dict__["build"], classmethod)
