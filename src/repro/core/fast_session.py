"""The negotiation fast path: vectorized sessions for large populations.

:class:`FastSession` runs the same negotiation as
:class:`~repro.core.session.NegotiationSession` — same announcement methods,
same monotonic concession protocol, same termination conditions — but replaces
the per-customer agent objects and per-delivery message objects with one
:class:`~repro.agents.vectorized.VectorizedPopulation` whose bid decisions are
evaluated in batched numpy calls.  The utility side of each round (overuse
prediction, reward escalation, termination, awards) is delegated to the very
same :class:`~repro.negotiation.methods.base.NegotiationMethod` object the
object path uses, so round-by-round behaviour is identical by construction.

**Equivalence contract.**  For a fixed seed, ``FastSession(scenario).run()``
returns the same rounds, bids, message counts, awards and
:class:`~repro.core.results.NegotiationResult` as
``NegotiationSession(scenario).run()``.  Message *counts* are maintained as
streaming per-performative counters (one announcement and one bid per
customer per round, one award/reject per customer at the end) without
materialising message objects — mirroring the counter semantics of
:class:`~repro.runtime.messaging.MessageBus`.

**When to use which path.**  The object path exercises the full multi-agent
machinery (DESIRE models, resource consumers, producer/world information
flows, message-level traces) and should stay the reference for paper-facing
figures; the fast path is for scale — population sweeps, parameter searches
and the 10k-household scalability trajectory.  It supports the negotiation
core only: no producer agent, no external world, no resource consumers.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from typing import Callable, Optional

import numpy as np

from repro.agents.vectorized import VectorizedPopulation
from repro.core.modes import DEFAULT_ROUNDS, validate_rounds_mode
from repro.core.results import ColumnarOutcomes, CustomerOutcome, NegotiationResult
from repro.core.scenario import Scenario
from repro.negotiation.messages import Award, Bid, CutdownBid, OfferResponse, QuantityBid
from repro.negotiation.methods.base import ArrayRoundEvaluation, RoundEvaluation
from repro.negotiation.methods.offer import OfferMethod
from repro.negotiation.methods.request_for_bids import RequestForBidsMethod
from repro.negotiation.methods.reward_tables import RewardTablesMethod
from repro.negotiation.protocol import (
    MonotonicConcessionProtocol,
    NegotiationRecord,
    RoundRecord,
)
from repro.negotiation.strategy import (
    ExpectedGainBidding,
    HighestAcceptableCutdownBidding,
)
from repro.negotiation.termination import TerminationReason
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.messaging import Performative


def _cutdown_bid(customer: str, round_number: int, value) -> Bid:
    return CutdownBid(customer=customer, round_number=round_number, cutdown=float(value))


def _offer_response(customer: str, round_number: int, value) -> Bid:
    return OfferResponse(customer=customer, round_number=round_number, accept=bool(value))


def _quantity_bid(customer: str, round_number: int, value) -> Bid:
    return QuantityBid(
        customer=customer, round_number=round_number, needed_use=float(value)
    )


#: Per array-round bid-state column: the ``Bid`` :meth:`FastSession._respond_all`
#: builds from one of its entries on object rounds.
_BID_BUILDERS: dict[str, Callable[[str, int, object], Bid]] = {
    "cutdowns": _cutdown_bid,
    "accepts": _offer_response,
    "needs": _quantity_bid,
}


class _CustomerRows:
    """A population's ``customer -> row`` index, built on the first lookup.

    Shared by every round of one session, so reading a bid trajectory costs
    one index build, not one per round.  The dict is complete before it is
    published, so concurrent readers never see a partial index.
    """

    __slots__ = ("customer_ids", "_rows")

    def __init__(self, customer_ids: list[str]) -> None:
        self.customer_ids = customer_ids
        self._rows: Optional[dict[str, int]] = None

    def __getitem__(self, customer: str) -> int:
        rows = self._rows
        if rows is None:
            rows = self._rows = {
                known: row for row, known in enumerate(self.customer_ids)
            }
        return rows[customer]


class ArrayRoundBids(Mapping):
    """One array round's bids as a read-only ``customer -> Bid`` mapping.

    Holds a reference to the round's bid-state column — :meth:`FastSession
    ._respond_all` rebinds each state array every round, so a past round's
    column is never written again — and builds a ``Bid`` only when one is
    read.  The keys are the customers whose bid reached the utility side, in
    population order, so the view equals the object rounds' bid table for
    the same round (faults included).
    """

    __slots__ = ("_build", "_round_number", "_column", "_rows", "_undelivered")

    def __init__(
        self,
        build: Callable[[str, int, object], Bid],
        round_number: int,
        column: np.ndarray,
        rows: _CustomerRows,
        undelivered: Optional[np.ndarray],
    ) -> None:
        self._build = build
        self._round_number = round_number
        self._column = column
        self._rows = rows
        self._undelivered = undelivered

    def __len__(self) -> int:
        total = len(self._rows.customer_ids)
        if self._undelivered is None:
            return total
        return total - int(np.count_nonzero(self._undelivered))

    def __iter__(self) -> Iterator[str]:
        customer_ids = self._rows.customer_ids
        if self._undelivered is None:
            return iter(customer_ids)
        return (
            customer
            for customer, lost in zip(customer_ids, self._undelivered)
            if not lost
        )

    def __getitem__(self, customer: str) -> Bid:
        row = self._rows[customer]
        if self._undelivered is not None and self._undelivered[row]:
            raise KeyError(customer)
        return self._build(customer, self._round_number, self._column[row])

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class FastSession:
    """Vectorized drop-in for :class:`~repro.core.session.NegotiationSession`.

    Parameters mirror the object path's core configuration.  ``seed`` is kept
    for signature compatibility: the negotiation itself is deterministic (no
    randomness is drawn during a run), exactly as in the object path.
    """

    def __init__(
        self,
        scenario: Scenario,
        seed: Optional[int] = 0,
        max_simulation_rounds: int = 200,
        check_protocol: bool = True,
        retain_round_bids: bool = True,
        fault_plan: Optional[FaultPlan] = None,
        rounds: str = DEFAULT_ROUNDS,
    ) -> None:
        self.scenario = scenario
        self.seed = seed
        self.max_simulation_rounds = max_simulation_rounds
        self.check_protocol = check_protocol
        self.fault_plan = fault_plan
        #: Round execution mode.  ``"array"`` (the default) keeps a round's
        #: bids as the numpy state arrays the kernels already compute and runs
        #: the utility side through the methods' array contracts —
        #: bit-identical results with zero per-round ``Bid`` construction;
        #: ``"object"`` materialises every round's bid objects (the reference
        #: semantics).  The session falls back to object rounds (recorded in
        #: ``result.metadata["rounds_mode"]``) when the method, its policies
        #: or the population cannot honour the array contract.
        self.rounds = validate_rounds_mode(rounds)
        #: Effective mode for the current run, decided at :meth:`start`.
        self._array_rounds = False
        #: Deterministic chaos: drives the per-round fault masks that mirror
        #: the object path's message/crash faults on the batched exchange.
        self.fault_injector: Optional[FaultInjector] = (
            FaultInjector(fault_plan) if fault_plan is not None else None
        )
        #: Per customer, whether any round was evaluated without their bid.
        self._degraded_ever: Optional[np.ndarray] = None
        #: Whether each RoundRecord keeps its per-customer bids (the bid
        #: objects on object rounds, a lazy view over the round's bid column
        #: on array rounds).  The vectorized counterpart of the bus's log
        #: retention: a multi-week campaign that only reads the accounting
        #: rows never looks at them.  Overuse bookkeeping, awards and
        #: outcomes are unaffected; the record notes the choice.
        self.retain_round_bids = retain_round_bids
        self.population: Optional[VectorizedPopulation] = None
        self.protocol: Optional[MonotonicConcessionProtocol] = None
        self.record: Optional[NegotiationRecord] = None
        #: Streaming per-performative counters (mirrors MessageBus semantics).
        self.message_counts: dict[Performative, int] = {}
        self._messages_sent = 0
        self._context = None
        self._has_run = False
        #: Stepwise execution state — see :meth:`start`.  ``run()`` drives
        #: these same steps to completion; a lockstep coordinator (the serving
        #: layer's request coalescer) drives many sessions' steps interleaved.
        self._phase = "new"
        self._result: Optional[NegotiationResult] = None

    # -- construction ------------------------------------------------------------

    def build(self) -> VectorizedPopulation:
        """Instantiate the vectorized population, protocol and record (idempotent).

        Mirrors :meth:`NegotiationSession.build`: calling it more than once
        returns the already-built population instead of resetting negotiation
        state.
        """
        if self.population is not None:
            return self.population
        return self._install_population(
            VectorizedPopulation.from_population(self.scenario.population)
        )

    def _install_population(
        self, population: VectorizedPopulation
    ) -> VectorizedPopulation:
        """Adopt a pre-built population and reset the negotiation bookkeeping.

        The seam that lets a coordinator hand this session a *view* into a
        larger array arena (a :meth:`VectorizedPopulation.slice` of a batch
        of coalesced requests) instead of a privately packed population.  The
        kernels are per-row, so running on a shared-arena slice is
        bit-identical to running on a standalone packing.
        """
        scenario = self.scenario
        self.population = population
        self._context = scenario.population.utility_context()
        self.protocol = MonotonicConcessionProtocol(strict=self.check_protocol)
        self.record = NegotiationRecord(
            conversation_id=f"negotiation_{scenario.name}",
            normal_use=self._context.normal_use,
            initial_overuse=self._context.initial_overuse,
            bids_retained=self.retain_round_bids,
        )
        self.message_counts = {}
        self._messages_sent = 0
        self._customer_rows = _CustomerRows(population.customer_ids)
        return self.population

    # -- message accounting ------------------------------------------------------

    def _count_messages(self, performative: Performative, count: int) -> None:
        if count <= 0:
            return
        self.message_counts[performative] = (
            self.message_counts.get(performative, 0) + count
        )
        self._messages_sent += count

    def message_count(self) -> int:
        """Total messages the object path would have sent (streaming counter)."""
        return self._messages_sent

    def messages_by_performative(self) -> dict[Performative, int]:
        """Histogram of the messages the object path would have sent."""
        return dict(self.message_counts)

    # -- customer side (batched) ---------------------------------------------------

    def _respond_all(
        self,
        announcement,
        state: dict,
        suppressed: Optional[np.ndarray] = None,
        materialise: bool = True,
    ) -> Optional[list[Bid]]:
        """Every customer's bid for one announcement, in population order.

        Dispatches to the batched kernels for the stock reward-table bidding
        policies, the offer method's yes/no evaluation and the
        request-for-bids method; any other method or policy falls back to
        per-customer scalar ``method.respond`` calls (still message-free, so
        still much faster than the object path).

        ``suppressed`` marks customers that never saw this round's
        announcement (crashed agent or lost message under fault injection):
        their negotiation state does not advance — their entry holds the
        previous round's value, exactly like an object-path agent whose
        mailbox stayed empty.  ``None`` (the fault-free default) leaves every
        code path untouched.

        ``materialise=False`` (array rounds) updates the numpy bid state and
        returns ``None`` without building any ``Bid`` objects — the state
        arrays *are* the round's bids.  The state update itself is identical
        in both modes, so the modes cannot drift.
        """
        population = self.population
        method = self.scenario.method
        key = None
        if isinstance(method, RewardTablesMethod):
            candidates = self._cutdown_candidates(announcement)
            previous = state.get("cutdowns")
            if previous is not None:
                candidates = np.maximum(candidates, previous)
            if suppressed is not None and suppressed.any():
                held = previous if previous is not None else np.zeros(len(candidates))
                candidates = np.where(suppressed, held, candidates)
            key = "cutdowns"
            state[key] = candidates
        elif isinstance(method, OfferMethod):
            key = "accepts"
            state[key] = population.offer_acceptances(announcement, method.peak_hours)
        elif isinstance(method, RequestForBidsMethod):
            current = state.get("needs")
            if current is None:
                current = population.predicted_uses.copy()
            needs = population.step_quantity_bids(
                current,
                method.step_fraction,
                method.peak_hours,
                announcement.tariff.normal_price,
            )
            if suppressed is not None and suppressed.any():
                needs = np.where(suppressed, current, needs)
            key = "needs"
            state[key] = needs
        if key is not None:
            if not materialise:
                return None
            build = _BID_BUILDERS[key]
            round_number = announcement.round_number
            return [
                build(customer, round_number, value)
                for customer, value in zip(population.customer_ids, state[key])
            ]
        if not materialise:
            # Array rounds are gated on supports_array_rounds(), which is
            # False for anything the stock branches above do not cover.
            raise RuntimeError(
                "array rounds reached the generic respond fallback; "
                f"method {method.name!r} does not support them"
            )
        # Generic fallback: scalar respond per customer, still message-free.
        if "contexts" not in state:
            state["contexts"] = self.scenario.population.customer_contexts()
        contexts = state["contexts"]
        previous_bids = state.get("bids", [None] * len(population))
        if suppressed is None or not suppressed.any():
            bids = [
                method.respond(announcement, context, previous)
                for context, previous in zip(contexts, previous_bids)
            ]
        else:
            bids = [
                previous
                if held
                else method.respond(announcement, context, previous)
                for held, context, previous in zip(suppressed, contexts, previous_bids)
            ]
        state["bids"] = bids
        return bids

    def _cutdown_candidates(self, announcement) -> np.ndarray:
        """Every customer's candidate cut-down for one reward-table round.

        The kernel dispatch behind the reward-table branch of
        :meth:`_respond_all`, isolated so a coalescing coordinator can
        substitute a row slice of a *fused* kernel evaluation computed once
        over several requests' combined population (bit-identical, because
        the kernels are per-row).
        """
        population = self.population
        policy = self.scenario.method.bidding_policy
        policy_type = type(policy)
        if policy_type is HighestAcceptableCutdownBidding:
            return population.highest_acceptable_cutdowns(announcement.table)
        if policy_type is ExpectedGainBidding:
            return population.expected_gain_cutdowns(announcement.table)
        return np.array(
            [
                policy.choose_cutdown(announcement.table, requirements, None)
                for requirements in population.requirements
            ]
        )

    def _check_bid_concession(
        self, bids: list[Bid], previous: Optional[list[Bid]]
    ) -> None:
        """Vectorized stand-in for the protocol's per-bid concession check."""
        if previous is None:
            return
        if self.fault_injector is None:
            # Fault-free, both lists cover the full population in order, so
            # the positional pairing is exact (and cheap on the hot path).
            pairs = zip(previous, bids)
        else:
            # Under degradation either round may be missing customers; match
            # by customer so partial rounds never compare strangers.
            earlier_by_customer = {
                bid.customer: bid for bid in previous if isinstance(bid, CutdownBid)
            }
            pairs = (
                (earlier_by_customer.get(bid.customer), bid)
                for bid in bids
                if isinstance(bid, CutdownBid)
            )
        for earlier, current in pairs:
            if (
                isinstance(earlier, CutdownBid)
                and isinstance(current, CutdownBid)
                and current.cutdown < earlier.cutdown
            ):
                self.protocol._record_violation(
                    f"customer {current.customer!r} retreated from cut-down "
                    f"{earlier.cutdown} to {current.cutdown}"
                )

    # -- fault-aware exchange -------------------------------------------------------

    def _exchange(
        self, announcement, state: dict, materialise: bool = True
    ) -> tuple[Optional[list[Bid]], Optional[np.ndarray]]:
        """One announcement → bids exchange: ``(bids, undelivered)``.

        ``bids`` has one entry per customer in population order (``None`` on
        array rounds, whose bids stay in the numpy state arrays — see
        :meth:`_respond_all`); ``undelivered`` marks the customers whose bid
        did not reach the utility side in time and is ``None`` on the
        fault-free path, where every bid arrives.  Fault-free — or with a
        zero-rate plan — the message counters advance exactly as the object
        path's bus counters do.  The fault masks are drawn from ``(seed,
        stream, round)`` streams, so array and object rounds of the same plan
        see identical faults.
        """
        population_size = len(self.population)
        injector = self.fault_injector
        if injector is None or not injector.fast_path_faults:
            bids = self._respond_all(announcement, state, materialise=materialise)
            self._count_messages(Performative.ANNOUNCE, population_size)
            self._count_messages(Performative.BID, population_size)
            return bids, None
        faults = injector.customer_round_masks(
            population_size, announcement.round_number
        )
        suppressed = faults.suppressed
        bids = self._respond_all(
            announcement, state, suppressed=suppressed, materialise=materialise
        )
        undelivered = faults.undelivered
        if self._degraded_ever is None:
            self._degraded_ever = undelivered.copy()
        else:
            self._degraded_ever |= undelivered
        # Mirror the bus's counters: announcements that were permanently lost
        # and bids that were never sent (suppressed customer) or dropped in
        # flight are not traffic; delayed bids were sent and count.
        self._count_messages(
            Performative.ANNOUNCE, population_size - int(faults.announce_lost.sum())
        )
        self._count_messages(
            Performative.BID,
            population_size
            - int(suppressed.sum())
            - int((faults.bid_lost & ~suppressed).sum()),
        )
        return bids, undelivered

    # -- execution -----------------------------------------------------------------
    #
    # The run loop is a three-phase state machine so that a coordinator can
    # interleave many sessions in lockstep (the serving layer's request
    # coalescing) while ``run()`` remains the single-session driver:
    #
    #   start() ── trivial overuse ──────────────────────────────▶ "done"
    #      │
    #      ▼
    #   "exchange"  ──step_exchange()──▶  "advance"  ──step_advance()──▶ ...
    #      ▲                                  │
    #      └──── next announcement ───────────┘        (loop exit → "done")
    #
    # Each step performs exactly the operations of the former monolithic loop
    # in the same order, so the refactor is behaviour-preserving by
    # construction (and pinned by the object-path equivalence suite).

    @property
    def phase(self) -> str:
        """Stepwise execution phase: ``new``, ``exchange``, ``advance`` or ``done``."""
        return self._phase

    @property
    def result(self) -> Optional[NegotiationResult]:
        """The collected result once :attr:`phase` is ``"done"``, else ``None``."""
        return self._result

    @property
    def pending_announcement(self):
        """The announcement awaiting its bid exchange (``phase == "exchange"``)."""
        return self._announcement if self._phase == "exchange" else None

    def rounds_completed(self) -> int:
        """Evaluated negotiation rounds so far (progress observability)."""
        return len(self.record.rounds) if self.record is not None else 0

    def start(self) -> None:
        """Begin stepwise execution: build, guard re-runs, open round 1.

        Ends in phase ``"exchange"`` (the initial announcement awaits its
        bids) or — when the initial overuse is already acceptable — directly
        in ``"done"`` with :attr:`result` populated, mirroring the object
        path's Utility Agent finishing in its first step.
        """
        if self._has_run:
            raise RuntimeError(
                "this FastSession already ran; create a new session to "
                "negotiate again"
            )
        self._has_run = True
        population = self.build()
        context = self._context
        if context is None:
            raise RuntimeError("FastSession.build() did not produce a utility context")
        num_customers = len(population)
        self._state: dict = {}
        self._previous_delivered: Optional[list[Bid]] = None
        self._round_number = 0
        self._simulation_rounds = 1
        self._awards: dict[str, Award] = {}
        self._finished = False
        self._bids: list[Bid] = []
        self._delivered: list[Bid] = []
        # Array-round state: the pending undelivered mask, the previous
        # round's (cut-down state, undelivered) pair for the concession
        # check, and the final (accepted, committed, rewards) award columns.
        self._array_rounds = self.rounds == "array" and self._array_rounds_applicable()
        self._undelivered: Optional[np.ndarray] = None
        self._previous_array_round: Optional[
            tuple[Optional[np.ndarray], Optional[np.ndarray]]
        ] = None
        self._award_arrays: Optional[
            tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = None

        if context.initial_overuse <= context.max_allowed_overuse:
            # The object path's Utility Agent finishes in its first step
            # without sending anything (one simulation round elapses).
            self.record.final_overuse = context.initial_overuse
            self.record.termination_reason = TerminationReason.OVERUSE_ACCEPTABLE
            self._result = self._collect_result(
                awards={}, final_bids=[None] * num_customers, simulation_rounds=1
            )
            self._phase = "done"
            return

        # Simulation round 1: initial announcement broadcast + every bid.
        self._announcement = self.scenario.method.initial_announcement(context)
        self.protocol.record_announcement(self._announcement)
        self._phase = "exchange"

    def _array_rounds_applicable(self) -> bool:
        """Whether this run can honour the array-round contract exactly."""
        method = self.scenario.method
        supports = getattr(method, "supports_array_rounds", None)
        return (
            supports is not None
            and supports()
            and self.population is not None
            and self.population.is_vectorizable
        )

    def step_exchange(self) -> None:
        """Run the pending announcement's bid exchange (phase ``exchange``)."""
        if self._phase != "exchange":
            raise RuntimeError(f"no exchange pending (phase {self._phase!r})")
        if self._array_rounds:
            _, self._undelivered = self._exchange(
                self._announcement, self._state, materialise=False
            )
        else:
            bids, undelivered = self._exchange(self._announcement, self._state)
            self._bids = bids
            self._delivered = (
                bids
                if undelivered is None
                else [
                    bid
                    for bid, lost in zip(bids, undelivered)
                    if not lost and bid is not None
                ]
            )
        self._phase = "advance"

    def step_advance(self) -> None:
        """One utility-side step: evaluate the last exchange, finish or announce.

        Mirrors one iteration of the former ``run()`` loop, including its
        entry condition: when the round budget is exhausted or awards already
        went out, the result is collected and the phase becomes ``"done"``.
        """
        if self._phase != "advance":
            raise RuntimeError(f"nothing to advance (phase {self._phase!r})")
        if not (
            self._simulation_rounds < self.max_simulation_rounds
            and not self._finished
        ):
            self._result = self._collect_result(
                self._awards, list(self._bids), self._simulation_rounds
            )
            self._phase = "done"
            return
        if self._array_rounds:
            self._advance_arrays()
            return
        # Each later simulation round evaluates the previous exchange and
        # either finishes (awards go out) or announces the next round.
        context = self._context
        method = self.scenario.method
        announcement = self._announcement
        round_number = self._round_number
        self._simulation_rounds += 1
        self._check_bid_concession(self._delivered, self._previous_delivered)
        bids_by_customer = {bid.customer: bid for bid in self._delivered}
        evaluation = method.evaluate_round(
            context, announcement, bids_by_customer, round_number
        )
        self.record.rounds.append(
            RoundRecord(
                round_number=round_number,
                announcement=announcement,
                bids=dict(bids_by_customer) if self.retain_round_bids else {},
                bids_retained=self.retain_round_bids,
                predicted_overuse_before=(
                    context.initial_overuse
                    if round_number == 0
                    else self.record.rounds[-1].predicted_overuse_after
                ),
                predicted_overuse_after=evaluation.predicted_overuse,
            )
        )
        if evaluation.termination is not None:
            self._awards = self._finish(
                evaluation, announcement, bids_by_customer, round_number,
                evaluation.termination,
            )
            self._finished = True
            return
        next_announcement = method.next_announcement(
            context, announcement, evaluation, round_number
        )
        if next_announcement is None:
            self._awards = self._finish(
                evaluation, announcement, bids_by_customer, round_number,
                TerminationReason.REWARD_SATURATED,
            )
            self._finished = True
            return
        self.protocol.record_announcement(next_announcement)
        self._announcement = next_announcement
        self._round_number += 1
        self._previous_delivered = self._delivered
        self._phase = "exchange"

    # -- array rounds ---------------------------------------------------------------

    def _array_bid_key(self) -> str:
        """The state key of the numpy column holding a round's bids, by method."""
        method = self.scenario.method
        if isinstance(method, RewardTablesMethod):
            return "cutdowns"
        if isinstance(method, OfferMethod):
            return "accepts"
        return "needs"

    def _check_concession_arrays(self, undelivered: Optional[np.ndarray]) -> None:
        """Array sibling of :meth:`_check_bid_concession`.

        Only reward-table rounds carry cut-down bids the monotonic-concession
        protocol inspects; rows are paired by position (population order), and
        a row undelivered in either round is skipped, exactly like the object
        path's by-customer matching of partial rounds.  The kernels hold each
        customer at ``max(candidate, previous)``, so the violation branch is
        cold by construction — it exists for behaviour parity.
        """
        if not isinstance(self.scenario.method, RewardTablesMethod):
            return
        if self._previous_array_round is None:
            return
        previous_cutdowns, previous_undelivered = self._previous_array_round
        current = self._state.get("cutdowns")
        if current is None or previous_cutdowns is None:
            return
        retreated = current < previous_cutdowns
        if undelivered is not None:
            retreated &= ~undelivered
        if previous_undelivered is not None:
            retreated &= ~previous_undelivered
        if not retreated.any():
            return
        customer_ids = self.population.customer_ids
        for index in np.flatnonzero(retreated):
            self.protocol._record_violation(
                f"customer {customer_ids[index]!r} retreated from cut-down "
                f"{float(previous_cutdowns[index])} to {float(current[index])}"
            )

    def _advance_arrays(self) -> None:
        """Array sibling of the :meth:`step_advance` round evaluation.

        Same order of operations — concession check, round evaluation, round
        record, finish-or-announce — with the round's bids living only as the
        numpy state arrays.  When bids are retained the round record keeps an
        :class:`ArrayRoundBids` view over the round's bid column, otherwise an
        empty table; overuse bookkeeping is unaffected.
        """
        context = self._context
        method = self.scenario.method
        announcement = self._announcement
        round_number = self._round_number
        self._simulation_rounds += 1
        state = self._state
        undelivered = self._undelivered
        self._check_concession_arrays(undelivered)
        bid_key = self._array_bid_key()
        bid_state = state[bid_key]
        evaluation = method.evaluate_round_arrays(
            context, announcement, self.population, bid_state, undelivered, round_number
        )
        bids: Mapping[str, Bid] = {}
        if self.retain_round_bids:
            bids = ArrayRoundBids(
                _BID_BUILDERS[bid_key],
                announcement.round_number,
                bid_state,
                self._customer_rows,
                undelivered,
            )
        self.record.rounds.append(
            RoundRecord(
                round_number=round_number,
                announcement=announcement,
                bids=bids,
                bids_retained=self.retain_round_bids,
                predicted_overuse_before=(
                    context.initial_overuse
                    if round_number == 0
                    else self.record.rounds[-1].predicted_overuse_after
                ),
                predicted_overuse_after=evaluation.predicted_overuse,
            )
        )
        if evaluation.termination is not None:
            self._finish_arrays(
                evaluation, announcement, bid_state, undelivered, round_number,
                evaluation.termination,
            )
            self._finished = True
            return
        next_announcement = method.next_announcement(
            context, announcement, evaluation, round_number
        )
        if next_announcement is None:
            self._finish_arrays(
                evaluation, announcement, bid_state, undelivered, round_number,
                TerminationReason.REWARD_SATURATED,
            )
            self._finished = True
            return
        self.protocol.record_announcement(next_announcement)
        self._announcement = next_announcement
        self._round_number += 1
        self._previous_array_round = (state.get("cutdowns"), undelivered)
        self._phase = "exchange"

    def _finish_arrays(
        self,
        evaluation: ArrayRoundEvaluation,
        announcement,
        bid_state: np.ndarray,
        undelivered: Optional[np.ndarray],
        round_number: int,
        reason: TerminationReason,
    ) -> None:
        """Array sibling of :meth:`_finish`: award columns, no ``Award`` objects."""
        self.record.termination_reason = reason
        self.record.final_overuse = evaluation.predicted_overuse
        method = self.scenario.method
        committed = method.committed_cutdowns_array(
            self._context, self.population, bid_state, undelivered
        )
        rewards = method.rewards_due_array(
            self._context, announcement, self.population, bid_state, undelivered
        )
        accepted = evaluation.accepted_mask
        if accepted is None:
            raise RuntimeError(
                f"method {method.name!r} returned no accepted mask for array rounds"
            )
        self._award_arrays = (
            accepted,
            np.where(accepted, committed, 0.0),
            np.where(accepted, rewards, 0.0),
        )
        accepted_total = int(np.count_nonzero(accepted))
        self._count_messages(Performative.AWARD, accepted_total)
        self._count_messages(
            Performative.REJECT, len(self.population) - accepted_total
        )

    def run(self) -> NegotiationResult:
        """Run the negotiation to completion and return the result.

        One run per session: ``build()`` is idempotent, so a second ``run()``
        would replay rounds into the already-populated record.  Mirrors the
        object path, whose simulation also refuses to run twice.
        """
        self.start()
        while self._phase != "done":
            if self._phase == "exchange":
                self.step_exchange()
            else:
                self.step_advance()
        return self._result

    def _finish(
        self,
        evaluation: RoundEvaluation,
        announcement,
        bids_by_customer: dict[str, Bid],
        round_number: int,
        reason: TerminationReason,
    ) -> dict[str, Award]:
        self.record.termination_reason = reason
        self.record.final_overuse = evaluation.predicted_overuse
        method = self.scenario.method
        context_cutdowns = method.committed_cutdowns(self._context, bids_by_customer)
        rewards = method.rewards_due(self._context, announcement, bids_by_customer)
        awards: dict[str, Award] = {}
        accepted_total = 0
        for customer in self.population.customer_ids:
            accepted = evaluation.accepted_customers.get(customer, False)
            awards[customer] = Award(
                customer=customer,
                accepted=accepted,
                committed_cutdown=context_cutdowns.get(customer, 0.0) if accepted else 0.0,
                reward=rewards.get(customer, 0.0) if accepted else 0.0,
                round_number=round_number,
            )
            accepted_total += 1 if accepted else 0
        self._count_messages(Performative.AWARD, accepted_total)
        self._count_messages(
            Performative.REJECT, len(self.population.customer_ids) - accepted_total
        )
        return awards

    def _collect_result(
        self,
        awards: dict[str, Award],
        final_bids: list[Optional[Bid]],
        simulation_rounds: int,
    ) -> NegotiationResult:
        if self._array_rounds:
            result = self._collect_result_arrays(simulation_rounds)
        else:
            result = self._collect_result_objects(
                awards, final_bids, simulation_rounds
            )
        if self.fault_injector is not None:
            result.metadata["faults"] = self.fault_injector.report()
        # Execution provenance: which round mode actually ran (array requests
        # fall back to object rounds when the contract cannot be honoured)
        # and how the population's kernel cache fared.
        result.metadata["rounds_mode"] = "array" if self._array_rounds else "object"
        result.metadata["kernel_cache"] = dict(self.population.kernel_cache_stats())
        return result

    def _collect_result_arrays(self, simulation_rounds: int) -> NegotiationResult:
        """Columnar result assembly: one outcome view, no per-customer loop.

        Committed cut-downs and rewards are already zeroed outside the
        accepted mask (:meth:`_finish_arrays`), surpluses are masked the same
        way the object path's ``if accepted`` short-cut does, and the total
        reward runs through ``np.cumsum`` — strictly sequential, hence
        bit-identical to the object path's ``total += reward`` loop.
        """
        population = self.population
        num_customers = len(population)
        if self._award_arrays is not None:
            accepted_all, committed_all, rewards_all = self._award_arrays
        else:
            # No awards went out (trivial overuse or exhausted round budget).
            accepted_all = np.zeros(num_customers, dtype=bool)
            committed_all = np.zeros(num_customers, dtype=float)
            rewards_all = np.zeros(num_customers, dtype=float)
        surpluses = population.realised_surpluses(committed_all, rewards_all)
        surpluses = np.where(accepted_all, surpluses, 0.0)
        final_cutdowns = None
        if isinstance(self.scenario.method, RewardTablesMethod):
            final_cutdowns = self._state.get("cutdowns")
        if final_cutdowns is None:
            # Offer responses and quantity bids carry no cut-down attribute;
            # the object path's getattr(last_bid, "cutdown", 0.0) yields 0.0.
            final_cutdowns = np.zeros(num_customers, dtype=float)
        total_reward_paid = (
            float(np.cumsum(rewards_all)[-1]) if num_customers else 0.0
        )
        outcomes = ColumnarOutcomes(
            customer_ids=population.customer_ids,
            final_bid_cutdowns=final_cutdowns,
            awarded=accepted_all,
            committed_cutdowns=committed_all,
            rewards=rewards_all,
            surpluses=surpluses,
        )
        degraded = (
            int(self._degraded_ever.sum()) if self._degraded_ever is not None else 0
        )
        return NegotiationResult(
            scenario_name=self.scenario.name,
            method_name=self.scenario.method.name,
            record=self.record,
            customer_outcomes=outcomes,
            total_reward_paid=total_reward_paid,
            messages_sent=self._messages_sent,
            simulation_rounds=simulation_rounds,
            degraded_households=degraded,
        )

    def _collect_result_objects(
        self,
        awards: dict[str, Award],
        final_bids: list[Optional[Bid]],
        simulation_rounds: int,
    ) -> NegotiationResult:
        population = self.population
        outcomes: dict[str, CustomerOutcome] = {}
        total_reward_paid = 0.0
        num_customers = len(population.customer_ids)
        committed_all = np.zeros(num_customers, dtype=float)
        rewards_all = np.zeros(num_customers, dtype=float)
        accepted_all = np.zeros(num_customers, dtype=bool)
        for index, customer in enumerate(population.customer_ids):
            award = awards.get(customer)
            if award is not None and award.accepted:
                accepted_all[index] = True
                committed_all[index] = award.committed_cutdown
                rewards_all[index] = award.reward
        # One batched surplus evaluation instead of a per-customer scalar
        # interpolation loop; non-accepted rows carry (0, 0) and interpolate
        # to a surplus of exactly 0.0, matching the scalar code's short-cut.
        surpluses = population.realised_surpluses(committed_all, rewards_all)
        for index, customer in enumerate(population.customer_ids):
            last_bid = final_bids[index]
            final_cutdown = getattr(last_bid, "cutdown", 0.0) if last_bid is not None else 0.0
            accepted = bool(accepted_all[index])
            reward = float(rewards_all[index]) if accepted else 0.0
            committed = float(committed_all[index]) if accepted else 0.0
            outcomes[customer] = CustomerOutcome(
                customer=customer,
                final_bid_cutdown=float(final_cutdown),
                awarded=accepted,
                committed_cutdown=float(committed),
                reward=float(reward),
                surplus=float(surpluses[index]) if accepted else 0.0,
            )
            total_reward_paid += reward
        degraded = (
            int(self._degraded_ever.sum()) if self._degraded_ever is not None else 0
        )
        return NegotiationResult(
            scenario_name=self.scenario.name,
            method_name=self.scenario.method.name,
            record=self.record,
            customer_outcomes=outcomes,
            total_reward_paid=total_reward_paid,
            messages_sent=self._messages_sent,
            simulation_rounds=simulation_rounds,
            degraded_households=degraded,
        )
