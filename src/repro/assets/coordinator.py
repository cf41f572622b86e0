"""The two-party atomic exchange: an N=2 cycle with named steps.

An *initiator* offers an asset on its own network and a *responder* one
on theirs. The exchange is the 2-leg ring of
:class:`~repro.assets.cycles.CycleCoordinator` — leg 0 the offer, leg 1
the counter lock — so every ledger command, proof-verified readback,
journal write, recovery decision and refund lives in that one engine.
This module names the ring's steps the way the two-party protocol does:

.. code-block:: text

    CREATED -> OFFER_LOCKED -> OFFER_VERIFIED -> COUNTER_LOCKED
            -> COUNTER_VERIFIED -> COUNTER_CLAIMED -> COMPLETED

    any pre-reveal state --abort()--> ABORTED --refund()--> REFUNDED
    OFFER_LOCKED.. states ----------- refund() (post-timeout) --> REFUNDED

Each party verifies the *other side's lock* through a proof-carrying
``GetLock`` query before its next irreversible step: the responder before
locking its own asset, the initiator before revealing the preimage. The
counter lock expires ``offer_timeout − counter_timeout`` before the offer
lock, so the responder can always claim the offer with the revealed
preimage before the initiator's refund window opens.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

from repro.assets.cycles import (
    NS_EXCHANGES,
    AssetSpec,
    CycleCoordinator,
    CycleState,
)
from repro.assets.metrics import KIND_EXCHANGE, ExchangeMetrics
from repro.errors import ExchangeStateError, ProtocolError
from repro.interop.client import InteropClient
from repro.proto.messages import AssetAckMsg
from repro.store import StateStore
from repro.utils.ids import random_id


class ExchangeState(Enum):
    """Lifecycle of one two-party atomic exchange."""

    CREATED = "created"
    OFFER_LOCKED = "offer_locked"
    OFFER_VERIFIED = "offer_verified"
    COUNTER_LOCKED = "counter_locked"
    COUNTER_VERIFIED = "counter_verified"
    COUNTER_CLAIMED = "counter_claimed"  # preimage is now public
    COMPLETED = "completed"
    ABORTED = "aborted"
    REFUNDED = "refunded"
    FAILED = "failed"


@dataclass
class ExchangeResult:
    """What a finished (or unwound) exchange produced."""

    state: ExchangeState
    hashlock: bytes
    preimage: bytes | None
    offer_lock: AssetAckMsg | None = None
    counter_lock: AssetAckMsg | None = None
    counter_claim: AssetAckMsg | None = None
    offer_claim: AssetAckMsg | None = None
    refunds: list[AssetAckMsg] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        return self.state is ExchangeState.COMPLETED


#: Journal states of the exchange's own pre-engine record shape.
_LEGACY_CYCLE_STATES = {
    "offer_locked": CycleState.LOCKING.value,
    "offer_verified": CycleState.LOCKING.value,
    "counter_locked": CycleState.LOCKED.value,
    "counter_verified": CycleState.LOCKED.value,
    "counter_claimed": CycleState.CLAIMING.value,
}


def upgrade_legacy_record(record: dict) -> dict:
    """Convert an ``assets/exchanges`` journal record written before the
    exchange ran on the cycle engine (recognised by its ``offer`` key)
    into the engine's record."""
    state = record["state"]
    return {
        "state": _LEGACY_CYCLE_STATES.get(state, state),
        "specs": [record["offer"], record["ask"]],
        "cycle_timeout": record["offer_timeout"],
        "hop_gap": record["offer_timeout"] - record["counter_timeout"],
        "verify_margin": record["verify_margin"],
        "preimage": record["preimage"],
        "hashlock": record["hashlock"],
        "leg_hashlocks": [record["hashlock"], record["verified_hashlock"]],
        "final_verified": state
        in ("counter_verified", "counter_claimed", "completed"),
        "deadlines": [record["offer_deadline"], record["counter_deadline"]],
        "locked": [record["offer_locked"], record["counter_locked"]],
        "claimed": [record["offer_claimed"], record["counter_claimed"]],
        "refunded": [record["offer_refunded"], record["counter_refunded"]],
        "preimage_revealed": record["preimage_revealed"],
        "started_at": record["started_at"],
    }


class AssetExchangeCoordinator:
    """Drives one Fabric↔Quorum(↔anything) atomic exchange end to end.

    ``initiator`` and ``responder`` are the two parties' interop clients;
    the offer asset must live on the initiator's network and the ask asset
    on the responder's (each party escrows locally, the counterparty
    claims across networks). ``offer_policy`` / ``ask_policy`` are the
    verification policies for the proof-carrying lock confirmations
    (``None`` = look up the CMDAC-recorded policy, as for queries).

    Crash recovery: pass a :class:`~repro.store.StateStore` and every
    transition is journaled under ``exchange_id``. A restarted process
    rebuilds the coordinator with :meth:`resume`, calls :meth:`recover` to
    resolve whether the command in flight at the crash landed (through
    proof-carrying ``GetLock`` readbacks, never the relay's word), and
    :meth:`run` continues from wherever the machine stopped.
    """

    def __init__(
        self,
        initiator: InteropClient,
        responder: InteropClient,
        offer: AssetSpec,
        ask: AssetSpec,
        offer_timeout: float = 600.0,
        counter_timeout: float = 300.0,
        offer_policy: str | None = None,
        ask_policy: str | None = None,
        verify_margin: float | None = None,
        store: StateStore | None = None,
        exchange_id: str | None = None,
        metrics: ExchangeMetrics | None = None,
    ) -> None:
        if counter_timeout >= offer_timeout:
            raise ProtocolError(
                f"counter timeout ({counter_timeout}s) must be shorter than "
                f"the offer timeout ({offer_timeout}s): the responder needs "
                f"time to claim with the revealed preimage before the "
                f"initiator's refund window opens"
            )
        engine = CycleCoordinator(
            [initiator, responder],
            [offer, ask],
            cycle_timeout=offer_timeout,
            hop_gap=offer_timeout - counter_timeout,
            policies=[offer_policy, ask_policy],
            verify_margin=(
                verify_margin if verify_margin is not None else counter_timeout / 2
            ),
            store=store,
            cycle_id=exchange_id or random_id("exch-"),
            metrics=metrics,
            kind=KIND_EXCHANGE,
        )
        self._attach(engine)

    @classmethod
    def resume(
        cls,
        initiator: InteropClient,
        responder: InteropClient,
        store: StateStore,
        exchange_id: str,
        offer_policy: str | None = None,
        ask_policy: str | None = None,
        metrics: ExchangeMetrics | None = None,
    ) -> "AssetExchangeCoordinator":
        """Rebuild a coordinator from its journal after a crash; call
        :meth:`recover` next, then :meth:`run` (or :meth:`refund`).
        Journals written before the exchange ran on the cycle engine are
        converted on the way in."""
        raw = store.get(NS_EXCHANGES, exchange_id)
        if raw is not None:
            record = json.loads(raw.decode("utf-8"))
            if "offer" in record:
                store.put(
                    NS_EXCHANGES,
                    exchange_id,
                    json.dumps(upgrade_legacy_record(record)).encode("utf-8"),
                )
        engine = CycleCoordinator.resume(
            [initiator, responder],
            store,
            exchange_id,
            policies=[offer_policy, ask_policy],
            metrics=metrics,
            kind=KIND_EXCHANGE,
        )
        view = cls.__new__(cls)
        view._attach(engine)
        return view

    def _attach(self, engine: CycleCoordinator) -> None:
        self._engine = engine
        self.offer, self.ask = engine.specs
        #: The initiator's secret; its hash is the exchange's hashlock.
        self.preimage = engine.preimage
        self.hashlock = engine.hashlock
        self.exchange_id = engine.cycle_id

    # -- the engine, seen as an exchange --------------------------------------------

    @property
    def state(self) -> ExchangeState:
        engine = self._engine
        if engine.state is CycleState.LOCKING:
            if engine.upstream_verified(1):
                return ExchangeState.OFFER_VERIFIED
            return ExchangeState.OFFER_LOCKED
        if engine.state is CycleState.LOCKED:
            if engine.upstream_verified(0):
                return ExchangeState.COUNTER_VERIFIED
            return ExchangeState.COUNTER_LOCKED
        if engine.state is CycleState.CLAIMING:
            return ExchangeState.COUNTER_CLAIMED
        return ExchangeState(engine.state.value)

    @property
    def result(self) -> ExchangeResult:
        cycle = self._engine.result
        return ExchangeResult(
            state=self.state,
            hashlock=cycle.hashlock,
            preimage=cycle.preimage,
            offer_lock=cycle.locks[0],
            counter_lock=cycle.locks[1],
            counter_claim=cycle.claims[1],
            offer_claim=cycle.claims[0],
            refunds=cycle.refunds,
        )

    @property
    def offer_deadline(self) -> float | None:
        return self._engine.deadlines[0]

    @property
    def counter_deadline(self) -> float | None:
        return self._engine.deadlines[1]

    _auth = staticmethod(CycleCoordinator._auth)

    def _command(self, client: InteropClient, spec: AssetSpec, **terms):
        return self._engine._command(client, spec, **terms)

    def _require(self, state: ExchangeState) -> None:
        if self.state is not state:
            raise ExchangeStateError(
                f"step requires state {state.value}; exchange is "
                f"{self.state.value!r}"
            )

    # -- protocol steps -----------------------------------------------------------

    def lock_offer(self) -> AssetAckMsg:
        """Initiator escrows the offer asset for the responder (step 1)."""
        self._require(ExchangeState.CREATED)
        return self._engine.lock_next()

    def verify_offer(self) -> dict:
        """Responder proof-verifies the offer lock before escrowing and
        takes the hashlock *from the verified record* (step 2)."""
        self._require(ExchangeState.OFFER_LOCKED)
        return self._engine.verify_upstream()

    def lock_counter(self) -> AssetAckMsg:
        """Responder escrows the ask asset under that hashlock (step 3)."""
        self._require(ExchangeState.OFFER_VERIFIED)
        return self._engine.lock_next()

    def verify_counter(self) -> dict:
        """Initiator proof-verifies the counter lock before revealing (step 4)."""
        self._require(ExchangeState.COUNTER_LOCKED)
        return self._engine.verify_upstream()

    def claim_counter(self) -> AssetAckMsg:
        """Initiator claims the ask asset, revealing the preimage (step 5)."""
        self._require(ExchangeState.COUNTER_VERIFIED)
        return self._engine.claim_next()

    def claim_offer(self) -> AssetAckMsg:
        """Responder claims the offer with the preimage read from its
        *own* ledger's lock record (step 6)."""
        self._require(ExchangeState.COUNTER_CLAIMED)
        return self._engine.claim_next()

    def run(self) -> ExchangeResult:
        """Drive the exchange to completion from the *current* state, one
        named step at a time (a fresh or a journal-resumed coordinator)."""
        steps = {
            ExchangeState.CREATED: self.lock_offer,
            ExchangeState.OFFER_LOCKED: self.verify_offer,
            ExchangeState.OFFER_VERIFIED: self.lock_counter,
            ExchangeState.COUNTER_LOCKED: self.verify_counter,
            ExchangeState.COUNTER_VERIFIED: self.claim_counter,
            ExchangeState.COUNTER_CLAIMED: self.claim_offer,
        }
        while self.state in steps:
            steps[self.state]()
        if self.state is not ExchangeState.COMPLETED:
            raise ExchangeStateError(
                f"exchange cannot proceed from state {self.state.value!r}"
            )
        return self.result

    # -- unhappy paths and recovery -------------------------------------------------

    def abort(self) -> None:
        """Call the exchange off before the preimage is revealed."""
        self._engine.abort()

    def refund(self) -> list[AssetAckMsg]:
        """Unwind every standing escrow after its timelock expired (counter
        leg first); see :meth:`CycleCoordinator.refund`."""
        return self._engine.refund()

    def recover(self) -> ExchangeState:
        """Resolve the command in flight at the crash after :meth:`resume`;
        see :meth:`CycleCoordinator.recover`."""
        self._engine.recover()
        return self.state
