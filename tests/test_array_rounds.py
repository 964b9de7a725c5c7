"""Array-native rounds: ``rounds="array"`` against the object-round oracle.

The array round path (PR 9) evaluates every round on the numpy state arrays
the vectorized session already computes — no per-round ``Bid`` objects, no
dict round tables — and materialises per-customer outcomes lazily through
:class:`~repro.core.results.ColumnarOutcomes`.  It is only trustworthy if it
is *indistinguishable* from the object-building fast path at equal seeds:
same announcements, same overuse trajectory, same message counts, same
termination, same per-customer outcomes and the same fault semantics under a
nonzero :class:`~repro.runtime.faults.FaultPlan`.  These tests pin that
contract across the three stock methods, both stock bidding policies, chaos
plans, the sharded runtime and the engine façade, plus the lazy-view ≡
eager-dict property and the "zero ``Bid`` allocations" perf invariant.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EngineConfig, run
from repro.core.fast_session import FastSession
from repro.core.results import ColumnarOutcomes, CustomerOutcome
from repro.core.scenario import paper_prototype_scenario, synthetic_scenario
from repro.core.sharded_session import ShardedSession
from repro.negotiation.methods.offer import OfferMethod
from repro.negotiation.methods.request_for_bids import RequestForBidsMethod
from repro.negotiation.methods.reward_tables import RewardTablesMethod
from repro.negotiation.strategy import (
    ConstantBeta,
    ExpectedGainBidding,
    SelectiveBidAcceptance,
)
from repro.runtime.faults import FaultPlan

# The matrix axes: every stock method × both stock bidding policies (the
# bidding policy is a reward-tables concept; the other methods carry their
# single stock behaviour).
METHOD_FACTORIES = {
    "reward_tables": lambda: RewardTablesMethod(
        max_reward=60.0, beta_controller=ConstantBeta(2.0)
    ),
    "reward_tables_expected_gain": lambda: RewardTablesMethod(
        max_reward=60.0,
        beta_controller=ConstantBeta(2.0),
        bidding_policy=ExpectedGainBidding(),
        reward_epsilon=0.3,
    ),
    "request_for_bids": lambda: RequestForBidsMethod(),
    "offer": lambda: OfferMethod(x_max=0.8),
}

CHAOS_PLAN = FaultPlan(
    seed=11, message_drop_rate=0.08, message_delay_rate=0.1, crash_rate=0.05
)


def assert_array_equivalent(object_result, array_result) -> None:
    """Field-by-field equality, round bid tables included.

    Array rounds retain each round's bids as a lazy view over the round's
    bid-state column; comparing it to the object round's dict builds every
    ``Bid`` and checks it, together with the announcements, the overuse
    trajectory, counters, termination, rewards and the full per-customer
    outcome mapping.
    """
    assert array_result.metadata["rounds_mode"] == "array"
    assert object_result.metadata["rounds_mode"] == "object"
    assert array_result.rounds == object_result.rounds
    assert array_result.messages_sent == object_result.messages_sent
    assert array_result.simulation_rounds == object_result.simulation_rounds
    assert array_result.total_reward_paid == object_result.total_reward_paid
    assert (
        array_result.record.termination_reason
        == object_result.record.termination_reason
    )
    assert array_result.record.outcome == object_result.record.outcome
    assert array_result.record.initial_overuse == object_result.record.initial_overuse
    assert array_result.record.final_overuse == object_result.record.final_overuse
    assert (
        array_result.record.overuse_trajectory
        == object_result.record.overuse_trajectory
    )
    for object_round, array_round in zip(
        object_result.record.rounds, array_result.record.rounds
    ):
        assert array_round.announcement == object_round.announcement
        assert array_round.bids == object_round.bids
        assert (
            array_round.predicted_overuse_before
            == object_round.predicted_overuse_before
        )
        assert (
            array_round.predicted_overuse_after
            == object_round.predicted_overuse_after
        )
    assert array_result.degraded_households == object_result.degraded_households
    # Mapping equality materialises every lazy outcome and compares it to
    # the eager dict — the strongest per-customer check available.
    assert isinstance(array_result.customer_outcomes, ColumnarOutcomes)
    assert array_result.customer_outcomes == object_result.customer_outcomes
    assert (
        array_result.total_customer_surplus
        == object_result.total_customer_surplus
    )
    assert array_result.participation_rate == object_result.participation_rate


def run_both_modes(make_scenario, fault_plan=None, seed=0) -> tuple:
    """Run the fast session in object and array round modes independently."""
    object_session = FastSession(
        make_scenario(), seed=seed, fault_plan=fault_plan, rounds="object"
    )
    object_result = object_session.run()
    array_session = FastSession(
        make_scenario(), seed=seed, fault_plan=fault_plan, rounds="array"
    )
    array_result = array_session.run()
    return object_result, array_result


class TestArrayObjectEquivalence:
    """The matrix: three stock methods × both stock bidding policies."""

    @pytest.mark.parametrize("method_name", sorted(METHOD_FACTORIES))
    @pytest.mark.parametrize("num_households", [6, 25])
    def test_matrix(self, method_name, num_households):
        factory = METHOD_FACTORIES[method_name]

        def make():
            return synthetic_scenario(
                num_households=num_households, seed=3, method=factory()
            )

        object_result, array_result = run_both_modes(make)
        assert_array_equivalent(object_result, array_result)

    def test_paper_prototype(self):
        object_result, array_result = run_both_modes(paper_prototype_scenario)
        assert_array_equivalent(object_result, array_result)
        assert array_result.rounds == 3

    def test_non_stock_policy_falls_back_to_object_rounds(self):
        # A non-stock acceptance policy may redefine per-bid semantics, so
        # the session must refuse the array contract and run object rounds —
        # correctness first, the mode is recorded for observability.
        def make():
            return synthetic_scenario(
                num_households=10,
                seed=3,
                method=RewardTablesMethod(
                    max_reward=60.0,
                    beta_controller=ConstantBeta(2.0),
                    acceptance_policy=SelectiveBidAcceptance(safety_margin=0.05),
                ),
            )

        requested = FastSession(make(), seed=0, rounds="array")
        requested_result = requested.run()
        assert requested_result.metadata["rounds_mode"] == "object"
        baseline_result = FastSession(make(), seed=0, rounds="object").run()
        assert requested_result.customer_outcomes == baseline_result.customer_outcomes
        assert requested_result.total_reward_paid == baseline_result.total_reward_paid

    def test_engine_facade_records_mode_and_kernel_cache(self):
        scenario = synthetic_scenario(num_households=30, seed=5)
        result = run(scenario, config=EngineConfig(rounds="array", seed=0))
        assert result.metadata["rounds_mode"] == "array"
        cache = result.metadata["kernel_cache"]
        assert set(cache) == {"hits", "misses"}
        assert all(isinstance(value, int) for value in cache.values())

    def test_invalid_rounds_mode_rejected(self):
        with pytest.raises(ValueError, match="rounds"):
            FastSession(synthetic_scenario(num_households=4, seed=0), rounds="matrix")


@pytest.mark.chaos
class TestArrayRoundsUnderFaults:
    """Fault masks are keyed by (seed, stream, round), never by round mode."""

    @pytest.mark.parametrize("method_name", sorted(METHOD_FACTORIES))
    def test_chaos_equivalence(self, method_name):
        factory = METHOD_FACTORIES[method_name]

        def make():
            return synthetic_scenario(
                num_households=40, seed=9, method=factory()
            )

        object_result, array_result = run_both_modes(make, fault_plan=CHAOS_PLAN)
        assert_array_equivalent(object_result, array_result)
        assert array_result.metadata["faults"] == object_result.metadata["faults"]

    def test_faults_actually_degrade_someone(self):
        # The chaos matrix is vacuous if the plan never fires: pin that this
        # plan degrades at least one household at this size and seed.
        def make():
            return synthetic_scenario(num_households=40, seed=9)

        _, array_result = run_both_modes(make, fault_plan=CHAOS_PLAN)
        assert array_result.degraded_households > 0


class TestShardedArrayRounds:
    def test_sharded_matches_object_oracle(self):
        def make():
            return synthetic_scenario(num_households=64, seed=6)

        object_result = FastSession(make(), seed=0, rounds="object").run()
        sharded = ShardedSession(make(), seed=0, shards=4, rounds="array")
        array_result = sharded.run()
        assert sharded.num_shards == 4
        assert_array_equivalent(object_result, array_result)
        # The shard reconciliation diagnostics ride the same state arrays in
        # both modes: one reconciled estimate per evaluated round.
        assert len(sharded.reconciled_overuses()) == len(array_result.record.rounds)

    @pytest.mark.chaos
    def test_sharded_chaos_matches_unsharded_array_rounds(self):
        def make():
            return synthetic_scenario(num_households=64, seed=6)

        solo = FastSession(make(), seed=0, fault_plan=CHAOS_PLAN, rounds="array")
        solo_result = solo.run()
        sharded = ShardedSession(
            make(), seed=0, shards=4, fault_plan=CHAOS_PLAN, rounds="array"
        )
        sharded_result = sharded.run()
        assert sharded_result.customer_outcomes == solo_result.customer_outcomes
        assert sharded_result.degraded_households == solo_result.degraded_households


class TestLibraryDefaults:
    """``EngineConfig()`` runs array rounds; fallbacks and dropped bids stay visible."""

    def test_default_config_runs_array_rounds(self):
        assert EngineConfig().rounds == "array"
        result = run(paper_prototype_scenario(), backend="vectorized")
        assert result.metadata["rounds_mode"] == "array"
        assert result.record.bids_retained
        assert result.customer_bid_trajectory("c000") == pytest.approx(
            [0.2, 0.4, 0.4]
        )

    def test_non_stock_policy_falls_back_under_default_config(self):
        def make():
            return synthetic_scenario(
                num_households=10,
                seed=3,
                method=RewardTablesMethod(
                    max_reward=60.0,
                    beta_controller=ConstantBeta(2.0),
                    acceptance_policy=SelectiveBidAcceptance(safety_margin=0.05),
                ),
            )

        result = run(make(), backend="vectorized", config=EngineConfig())
        assert result.metadata["rounds_mode"] == "object"
        reference = run(make(), backend="object")
        for reference_round, fallback_round in zip(
            reference.record.rounds, result.record.rounds
        ):
            assert fallback_round.bids == reference_round.bids
        assert result.customer_outcomes == reference.customer_outcomes

    @pytest.mark.parametrize("rounds", ["array", "object"])
    def test_unretained_bids_are_empty_and_say_so(self, rounds):
        result = run(
            synthetic_scenario(num_households=20, seed=3),
            backend="vectorized",
            config=EngineConfig(retain_message_log=False, rounds=rounds),
        )
        assert result.metadata["rounds_mode"] == rounds
        assert result.rounds >= 1
        assert all(round_record.bids == {} for round_record in result.record.rounds)
        assert result.record.bids_retained is False
        with pytest.raises(ValueError, match="retain_message_log"):
            result.customer_bid_trajectory(next(iter(result.customer_outcomes)))

    @pytest.mark.parametrize("rounds", ["array", "object"])
    def test_unretained_rounds_refuse_participation(self, rounds):
        def make():
            return synthetic_scenario(num_households=20, seed=3)

        unretained = run(
            make(),
            backend="vectorized",
            config=EngineConfig(retain_message_log=False, rounds=rounds),
        )
        assert unretained.rounds >= 1
        for round_record in unretained.record.rounds:
            assert round_record.bids_retained is False
            with pytest.raises(ValueError, match="retain_message_log"):
                round_record.participation
        retained = run(
            make(), backend="vectorized", config=EngineConfig(rounds=rounds)
        )
        reference = run(make(), backend="object")
        assert [r.participation for r in retained.record.rounds] == [
            r.participation for r in reference.record.rounds
        ]

    def test_round_bids_view_keys_follow_delivery(self):
        def make():
            return synthetic_scenario(num_households=40, seed=9)

        object_result, array_result = run_both_modes(make, fault_plan=CHAOS_PLAN)
        for object_round, array_round in zip(
            object_result.record.rounds, array_result.record.rounds
        ):
            bids = array_round.bids
            assert list(bids) == list(object_round.bids)
            assert len(bids) == len(object_round.bids)
            assert bids.get("no-such-customer") is None
            lost = [
                customer
                for customer in array_result.customer_outcomes
                if customer not in object_round.bids
            ]
            for customer in lost:
                with pytest.raises(KeyError):
                    bids[customer]
        assert any(
            len(round_record.bids) < len(array_result.customer_outcomes)
            for round_record in array_result.record.rounds
        ), "the chaos plan must drop at least one bid for this test to bite"


# -- the lazy columnar view ---------------------------------------------------------

outcome_columns = st.integers(min_value=0, max_value=12).flatmap(
    lambda size: st.tuples(
        st.just([f"c{i}" for i in range(size)]),
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=size, max_size=size,
        ),
        st.lists(st.booleans(), min_size=size, max_size=size),
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=size, max_size=size,
        ),
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=size, max_size=size,
        ),
        st.lists(
            st.floats(min_value=-50.0, max_value=100.0, allow_nan=False),
            min_size=size, max_size=size,
        ),
    )
)


class TestColumnarOutcomesView:
    @given(columns=outcome_columns)
    @settings(max_examples=60)
    def test_view_equals_eager_dict(self, columns):
        ids, final_bids, awarded, committed, rewards, surpluses = columns
        view = ColumnarOutcomes(
            customer_ids=ids,
            final_bid_cutdowns=np.asarray(final_bids, dtype=float),
            awarded=np.asarray(awarded, dtype=bool),
            committed_cutdowns=np.asarray(committed, dtype=float),
            rewards=np.asarray(rewards, dtype=float),
            surpluses=np.asarray(surpluses, dtype=float),
        )
        eager = {
            customer: CustomerOutcome(
                customer=customer,
                final_bid_cutdown=final_bids[index],
                awarded=awarded[index],
                committed_cutdown=committed[index],
                reward=rewards[index],
                surplus=surpluses[index],
            )
            for index, customer in enumerate(ids)
        }
        assert len(view) == len(eager)
        assert list(view) == list(eager)
        assert view == eager
        assert eager == view
        assert dict(view.items()) == eager
        assert list(view.values()) == list(eager.values())
        for customer in ids:
            assert customer in view
            assert view[customer] == eager[customer]
            assert view.get(customer) == eager[customer]
        assert "nobody" not in view
        assert view.get("nobody") is None
        with pytest.raises(KeyError):
            view["nobody"]

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="column length"):
            ColumnarOutcomes(
                customer_ids=["a", "b"],
                final_bid_cutdowns=np.zeros(2),
                awarded=np.zeros(2, dtype=bool),
                committed_cutdowns=np.zeros(3),
                rewards=np.zeros(2),
                surpluses=np.zeros(2),
            )


# -- the perf invariant -------------------------------------------------------------


@pytest.mark.perf_smoke
class TestArrayRoundsAllocateNoBids:
    """The point of the mode: zero per-round ``Bid`` objects, same answer."""

    @pytest.mark.parametrize(
        "method_name", ["reward_tables", "request_for_bids", "offer"]
    )
    def test_zero_bid_constructions(self, method_name, monkeypatch):
        from repro.negotiation.messages import CutdownBid, OfferResponse, QuantityBid

        constructions = {"count": 0}

        def counting(original_init):
            def construct(self, *args, **kwargs):
                constructions["count"] += 1
                original_init(self, *args, **kwargs)

            return construct

        for bid_class in (CutdownBid, QuantityBid, OfferResponse):
            # Count constructions on the classes themselves (isinstance
            # checks throughout the session must keep working).
            monkeypatch.setattr(
                bid_class, "__init__", counting(bid_class.__init__)
            )
        factory = METHOD_FACTORIES[method_name]

        def make():
            return synthetic_scenario(num_households=50, seed=4, method=factory())

        object_result = FastSession(make(), seed=0, rounds="object").run()
        object_constructions = constructions["count"]
        assert object_constructions > 0  # the oracle pays per-round objects
        constructions["count"] = 0
        array_result = FastSession(make(), seed=0, rounds="array").run()
        assert constructions["count"] == 0
        # A retained round's bids are built one at a time, on read.
        first_round = array_result.record.rounds[0].bids
        first_round[next(iter(first_round))]
        assert constructions["count"] == 1
        assert_array_equivalent(object_result, array_result)
