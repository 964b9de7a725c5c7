"""The monotonic concession protocol as a checkable state machine.

Rosenschein and Zlotkin's monotonic concession protocol governs the
negotiation (Section 3.1): "during a negotiation process all proposed deals
must be equally or more acceptable to the counter party than all previous
deals proposed.  Agreement is reached when one of the agents proposes a deal
that coincides or exceeds the deal proposed by the other agent."

In the load-management instantiation the Utility Agent's deals are reward
tables (more acceptable to customers = rewards at least as high everywhere)
and a Customer Agent's deals are cut-down commitments (more acceptable to the
utility = a cut-down at least as large).  :class:`MonotonicConcessionProtocol`
enforces both directions and records the full negotiation history, which the
analysis layer and the property-based tests use to verify convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional

from repro.negotiation.messages import Announcement, Bid, CutdownBid, RewardTableAnnouncement
from repro.negotiation.termination import TerminationReason


class ProtocolViolation(RuntimeError):
    """Raised when a proposed deal breaks the monotonic concession rules."""


class NegotiationOutcome(Enum):
    """Overall outcome classification of a finished negotiation."""

    PEAK_REMOVED = "peak_removed"
    PEAK_REDUCED = "peak_reduced"
    NO_IMPROVEMENT = "no_improvement"
    ONGOING = "ongoing"


@dataclass
class RoundRecord:
    """Everything that happened in one negotiation round."""

    round_number: int
    announcement: Announcement
    bids: Mapping[str, Bid] = field(default_factory=dict)
    predicted_overuse_before: float = 0.0
    predicted_overuse_after: float = 0.0
    #: Whether ``bids`` holds the round's bid table.  ``False`` when the
    #: batched backends ran with ``retain_message_log=False``: ``bids`` is
    #: then empty, not a record of silence.
    bids_retained: bool = True

    @property
    def participation(self) -> float:
        """Fraction of bids committing to a positive cut-down/response.

        Raises :class:`ValueError` when the round's bids were not retained
        instead of reporting zero participation.
        """
        if not self.bids_retained:
            raise ValueError(
                "per-round bids were not retained for this negotiation; run it "
                "with retain_message_log=True to read round participation"
            )
        if not self.bids:
            return 0.0
        positive = 0
        for bid in self.bids.values():
            if isinstance(bid, CutdownBid):
                positive += bid.cutdown > 0
            else:
                positive += getattr(bid, "accept", False) or getattr(bid, "needed_use", 0) > 0
        return positive / len(self.bids)


@dataclass
class NegotiationRecord:
    """Full history of one negotiation process."""

    conversation_id: str
    normal_use: float
    initial_overuse: float
    rounds: list[RoundRecord] = field(default_factory=list)
    termination_reason: TerminationReason = TerminationReason.NOT_TERMINATED
    final_overuse: Optional[float] = None
    #: Whether each round's ``bids`` table was kept.  ``False`` when the
    #: batched backends ran with ``retain_message_log=False``: the rounds'
    #: bid tables are then empty, not a record of silence.
    bids_retained: bool = True

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def outcome(self) -> NegotiationOutcome:
        if self.final_overuse is None:
            return NegotiationOutcome.ONGOING
        if self.final_overuse <= 0:
            return NegotiationOutcome.PEAK_REMOVED
        if self.final_overuse < self.initial_overuse:
            return NegotiationOutcome.PEAK_REDUCED
        return NegotiationOutcome.NO_IMPROVEMENT

    @property
    def overuse_trajectory(self) -> list[float]:
        """Predicted overuse after each round (starting from the initial value)."""
        trajectory = [self.initial_overuse]
        trajectory.extend(r.predicted_overuse_after for r in self.rounds)
        return trajectory

    def final_bids(self) -> dict[str, Bid]:
        """The last bid of every customer that ever responded."""
        latest: dict[str, Bid] = {}
        for round_record in self.rounds:
            latest.update(round_record.bids)
        return latest


class MonotonicConcessionProtocol:
    """Validates announcements and bids against the concession rules."""

    def __init__(self, strict: bool = True) -> None:
        #: When True, violations raise :class:`ProtocolViolation`; when False
        #: they are only recorded (useful to *measure* violations in tests of
        #: deliberately broken strategies).
        self.strict = strict
        self.violations: list[str] = []
        self._announcements: list[Announcement] = []
        self._bids_by_customer: dict[str, list[Bid]] = {}

    # -- recording with validation -------------------------------------------

    def record_announcement(self, announcement: Announcement) -> None:
        """Validate and record a new announcement by the Utility Agent."""
        if self._announcements:
            previous = self._announcements[-1]
            self._check_announcement_concession(previous, announcement)
        self._announcements.append(announcement)

    def record_bid(self, bid: Bid) -> None:
        """Validate and record a new bid by one Customer Agent."""
        history = self._bids_by_customer.setdefault(bid.customer, [])
        if history:
            self._check_bid_concession(history[-1], bid)
        history.append(bid)

    # -- queries ----------------------------------------------------------------

    @property
    def announcements(self) -> list[Announcement]:
        return list(self._announcements)

    def bids_of(self, customer: str) -> list[Bid]:
        return list(self._bids_by_customer.get(customer, []))

    def customers_heard_from(self) -> list[str]:
        return list(self._bids_by_customer)

    def agreement_reached(
        self, required_cutdowns: Mapping[str, float]
    ) -> bool:
        """Whether the customers' latest bids meet or exceed the required cut-downs.

        This is the "coincides or exceeds" agreement criterion, evaluated
        against the per-customer cut-down levels the Utility Agent needs.
        """
        for customer, required in required_cutdowns.items():
            history = self._bids_by_customer.get(customer)
            if not history:
                return False
            latest = history[-1]
            if not isinstance(latest, CutdownBid) or latest.cutdown < required:
                return False
        return True

    # -- rule checks ---------------------------------------------------------------

    def _record_violation(self, description: str) -> None:
        self.violations.append(description)
        if self.strict:
            raise ProtocolViolation(description)

    def _check_announcement_concession(
        self, previous: Announcement, current: Announcement
    ) -> None:
        if current.round_number <= previous.round_number:
            self._record_violation(
                f"announcement round number did not advance "
                f"({previous.round_number} -> {current.round_number})"
            )
        if isinstance(previous, RewardTableAnnouncement) and isinstance(
            current, RewardTableAnnouncement
        ):
            if not current.table.at_least_as_generous_as(previous.table):
                self._record_violation(
                    f"reward table announced in round {current.round_number} is less "
                    f"generous than the round {previous.round_number} table"
                )

    def _check_bid_concession(self, previous: Bid, current: Bid) -> None:
        if isinstance(previous, CutdownBid) and isinstance(current, CutdownBid):
            if current.cutdown < previous.cutdown:
                self._record_violation(
                    f"customer {current.customer!r} retreated from cut-down "
                    f"{previous.cutdown} to {current.cutdown}"
                )
