"""Result value types for negotiation sessions and the load-balancing system."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.negotiation.messages import Announcement, RewardTableAnnouncement
from repro.negotiation.protocol import NegotiationOutcome, NegotiationRecord
from repro.negotiation.termination import TerminationReason


@dataclass(frozen=True)
class CustomerOutcome:
    """What one customer ended up with."""

    customer: str
    final_bid_cutdown: float
    awarded: bool
    committed_cutdown: float
    reward: float
    surplus: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.final_bid_cutdown <= 1.0:
            raise ValueError("final bid cut-down must be in [0, 1]")
        if not 0.0 <= self.committed_cutdown <= 1.0:
            raise ValueError("committed cut-down must be in [0, 1]")


class ColumnarOutcomes(Mapping):
    """Per-customer outcomes stored as columns, materialised lazily.

    The array-native round path never builds ``CustomerOutcome`` objects up
    front: a million-household result would otherwise spend most of its time
    (and memory) on dataclasses nobody reads.  This view keeps the six
    per-customer columns as the engine's numpy arrays and behaves like the
    eager ``dict[str, CustomerOutcome]`` everywhere: lookups, iteration,
    ``items()``/``values()``/``get()`` and equality against plain dicts all
    work, constructing each :class:`CustomerOutcome` only when it is touched.
    """

    __slots__ = (
        "customer_ids",
        "final_bid_cutdowns",
        "awarded",
        "committed_cutdowns",
        "rewards",
        "surpluses",
        "_index",
    )

    def __init__(
        self,
        customer_ids: Sequence[str],
        final_bid_cutdowns: np.ndarray,
        awarded: np.ndarray,
        committed_cutdowns: np.ndarray,
        rewards: np.ndarray,
        surpluses: np.ndarray,
    ) -> None:
        self.customer_ids = list(customer_ids)
        columns = (final_bid_cutdowns, awarded, committed_cutdowns, rewards, surpluses)
        for column in columns:
            if len(column) != len(self.customer_ids):
                raise ValueError(
                    f"column length {len(column)} does not match "
                    f"{len(self.customer_ids)} customers"
                )
        self.final_bid_cutdowns = final_bid_cutdowns
        self.awarded = awarded
        self.committed_cutdowns = committed_cutdowns
        self.rewards = rewards
        self.surpluses = surpluses
        self._index: Optional[dict[str, int]] = None

    def _customer_index(self) -> dict[str, int]:
        if self._index is None:
            self._index = {
                customer: index for index, customer in enumerate(self.customer_ids)
            }
        return self._index

    def outcome_at(self, index: int) -> CustomerOutcome:
        """Materialise the outcome for the customer at one array position."""
        return CustomerOutcome(
            customer=self.customer_ids[index],
            final_bid_cutdown=float(self.final_bid_cutdowns[index]),
            awarded=bool(self.awarded[index]),
            committed_cutdown=float(self.committed_cutdowns[index]),
            reward=float(self.rewards[index]),
            surplus=float(self.surpluses[index]),
        )

    def __getitem__(self, customer: str) -> CustomerOutcome:
        try:
            index = self._customer_index()[customer]
        except KeyError:
            raise KeyError(customer) from None
        return self.outcome_at(index)

    def __iter__(self) -> Iterator[str]:
        return iter(self.customer_ids)

    def __len__(self) -> int:
        return len(self.customer_ids)

    def __contains__(self, customer: object) -> bool:
        return customer in self._customer_index()

    def __repr__(self) -> str:
        return f"ColumnarOutcomes({len(self.customer_ids)} customers)"


@dataclass
class NegotiationResult:
    """Outcome of one negotiation session."""

    scenario_name: str
    method_name: str
    record: NegotiationRecord
    #: Per-customer outcomes: an eager ``dict`` on the object round path, a
    #: lazy :class:`ColumnarOutcomes` view on the array round path.  Both
    #: honour the same mapping API and compare equal when their contents do.
    customer_outcomes: Mapping[str, CustomerOutcome]
    total_reward_paid: float
    messages_sent: int
    simulation_rounds: int
    #: How many households were degraded by substrate faults: at least one
    #: of their rounds was evaluated without their bid (crash, lost message
    #: or over-deadline delay — the protocol's silent-reject semantics).
    #: Always ``0`` on fault-free runs.
    degraded_households: int = 0
    #: Execution metadata recorded by :func:`repro.api.run` — notably
    #: ``metadata["backend"]``, the name of the engine backend that actually
    #: ran the negotiation, and ``metadata["faults"]``, the fault plan and
    #: injected-fault counters when a chaos run was configured.  Empty when a
    #: session is driven directly without faults.
    metadata: dict[str, object] = field(default_factory=dict)

    # -- headline metrics ------------------------------------------------------

    @property
    def rounds(self) -> int:
        """Number of negotiation rounds (announcement/bid exchanges)."""
        return self.record.num_rounds

    @property
    def initial_overuse(self) -> float:
        return self.record.initial_overuse

    @property
    def final_overuse(self) -> float:
        if self.record.final_overuse is None:
            raise ValueError("negotiation did not finish")
        return self.record.final_overuse

    @property
    def overuse_reduction(self) -> float:
        """Absolute overuse removed by the negotiation."""
        return self.initial_overuse - self.final_overuse

    @property
    def peak_reduction_fraction(self) -> float:
        """Fraction of the initial overuse that was removed."""
        if self.initial_overuse <= 0:
            return 0.0
        return max(0.0, self.overuse_reduction) / self.initial_overuse

    @property
    def peak_removed(self) -> bool:
        return self.record.outcome is NegotiationOutcome.PEAK_REMOVED

    @property
    def termination_reason(self) -> TerminationReason:
        return self.record.termination_reason

    @property
    def participation_rate(self) -> float:
        """Fraction of customers with a positive committed cut-down."""
        outcomes = self.customer_outcomes
        if not outcomes:
            return 0.0
        if isinstance(outcomes, ColumnarOutcomes):
            active = int(np.count_nonzero(outcomes.committed_cutdowns > 0))
            return active / len(outcomes)
        active = sum(1 for outcome in outcomes.values() if outcome.committed_cutdown > 0)
        return active / len(outcomes)

    @property
    def total_customer_surplus(self) -> float:
        outcomes = self.customer_outcomes
        if isinstance(outcomes, ColumnarOutcomes):
            if not len(outcomes):
                return 0.0
            # cumsum is strictly sequential, so this equals the eager path's
            # left-to-right sum() bit for bit.
            return float(np.cumsum(outcomes.surpluses)[-1])
        return sum(outcome.surplus for outcome in outcomes.values())

    @property
    def reward_per_unit_overuse_removed(self) -> float:
        """Reward expenditure per unit of overuse removed (cost effectiveness)."""
        removed = self.overuse_reduction
        if removed <= 0:
            return float("inf") if self.total_reward_paid > 0 else 0.0
        return self.total_reward_paid / removed

    # -- per-round views (for the figure benches) -----------------------------------

    def announced_tables(self) -> list[Announcement]:
        """The announcement of every round, in order."""
        return [round_record.announcement for round_record in self.record.rounds]

    def reward_trajectory(self, cutdown: float) -> list[float]:
        """The announced reward for one cut-down fraction, per round.

        Only meaningful for the reward-tables method; other announcement types
        are skipped.
        """
        trajectory = []
        for round_record in self.record.rounds:
            announcement = round_record.announcement
            if isinstance(announcement, RewardTableAnnouncement):
                trajectory.append(announcement.table.reward_for(cutdown))
        return trajectory

    def overuse_trajectory(self) -> list[float]:
        """Predicted overuse before the first round and after each round."""
        return self.record.overuse_trajectory

    def customer_bid_trajectory(self, customer: str) -> list[float]:
        """The cut-down bid by one customer in every round.

        Raises :class:`ValueError` when the negotiation ran without retaining
        its per-round bids (``retain_message_log=False``) instead of
        reporting a 0.0 bid for every round.
        """
        if not self.record.bids_retained:
            raise ValueError(
                "per-round bids were not retained for this negotiation; run it "
                "with retain_message_log=True to read bid trajectories"
            )
        trajectory = []
        for round_record in self.record.rounds:
            bid = round_record.bids.get(customer)
            trajectory.append(getattr(bid, "cutdown", 0.0) if bid is not None else 0.0)
        return trajectory

    def summary(self) -> dict[str, object]:
        """A flat summary dictionary (used by reports and benchmarks)."""
        return {
            "scenario": self.scenario_name,
            "method": self.method_name,
            "rounds": self.rounds,
            "initial_overuse": self.initial_overuse,
            "final_overuse": self.final_overuse,
            "peak_reduction_fraction": self.peak_reduction_fraction,
            "participation_rate": self.participation_rate,
            "total_reward_paid": self.total_reward_paid,
            "total_customer_surplus": self.total_customer_surplus,
            "messages_sent": self.messages_sent,
            "termination_reason": self.termination_reason.value,
        }


@dataclass
class SystemResult:
    """Outcome of a full load-balancing pipeline run (predict -> negotiate -> apply)."""

    negotiation: Optional[NegotiationResult]
    negotiated: bool
    peak_before_kw: float
    peak_after_kw: float
    production_cost_before: float
    production_cost_after: float
    reward_paid: float

    @property
    def peak_reduction_kw(self) -> float:
        return self.peak_before_kw - self.peak_after_kw

    @property
    def production_savings(self) -> float:
        return self.production_cost_before - self.production_cost_after

    @property
    def net_utility_benefit(self) -> float:
        """Production savings minus the rewards paid out."""
        return self.production_savings - self.reward_paid

    def summary(self) -> dict[str, float | bool]:
        return {
            "negotiated": self.negotiated,
            "peak_before_kw": self.peak_before_kw,
            "peak_after_kw": self.peak_after_kw,
            "peak_reduction_kw": self.peak_reduction_kw,
            "production_cost_before": self.production_cost_before,
            "production_cost_after": self.production_cost_after,
            "production_savings": self.production_savings,
            "reward_paid": self.reward_paid,
            "net_utility_benefit": self.net_utility_benefit,
        }
