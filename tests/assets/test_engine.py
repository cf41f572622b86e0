"""One HTLC engine: the two-party exchange is the 2-leg cycle.

- parity: ``gateway.exchange()`` and a 2-leg ``gateway.exchange_cycle()``
  over the same Fabric↔Quorum deployment issue the same asset envelopes
  and the same proof-carrying ``GetLock`` checks, and swap the same owners;
- the pre-lock guard holds on every leg of a ring: party *i* locks only
  while leg *i−1* still has its own window plus the margin left;
- a resumed engine reports into a fresh process's metrics without driving
  ``active`` negative, and still times a lock whose ack died in a crash.
"""

from __future__ import annotations

import json

import pytest

from repro.api import InteropGateway
from repro.assets import AssetExchangeCoordinator, AssetSpec, ExchangeState
from repro.assets.coordinator import NS_EXCHANGES
from repro.assets.cycles import NS_CYCLES, CycleCoordinator, CycleState
from repro.assets.metrics import ExchangeMetrics
from repro.errors import AssetError
from repro.interop import InteropClient, RelayService
from repro.proto.messages import (
    MSG_KIND_ASSET_CLAIM,
    MSG_KIND_ASSET_LOCK,
    MSG_KIND_ASSET_STATUS,
)
from repro.store import MemoryStore

OFFER_ADDRESS = "fabnet/trade/assetscc"
ASK_ADDRESS = "quornet/state/asset-vault"
CORDA_ADDRESS = "cordanet/vault/asset-vault"
OFFER_POLICY = "AND(org:traders-org, org:audit-org)"
ASK_POLICY = "AND(org:op-org-1, org:op-org-2)"
CORDA_POLICY = "AND(org:carol, org:dana)"


def run_exchange(scenario):
    return (
        InteropGateway.from_client(scenario.alice_client)
        .exchange()
        .offer(OFFER_ADDRESS, "GOLD-1")
        .ask(ASK_ADDRESS, "OIL-9")
        .with_counterparty(scenario.bob_client)
        .with_timeouts(offer=600.0, counter=300.0)
        .with_policies(offer=OFFER_POLICY, ask=ASK_POLICY)
        .run()
    )


def run_two_leg_cycle(scenario):
    return (
        InteropGateway.from_client(scenario.alice_client)
        .exchange_cycle()
        .leg(OFFER_ADDRESS, "GOLD-1", policy=OFFER_POLICY)
        .leg(ASK_ADDRESS, "OIL-9", party=scenario.bob_client, policy=ASK_POLICY)
        .with_window(timeout=600.0, hop_gap=300.0)
        .run()
    )


class TestTwoPartyParity:
    @pytest.mark.parametrize("surface", [run_exchange, run_two_leg_cycle])
    def test_exchange_and_two_leg_cycle_issue_the_same_traffic(
        self, exchange_scenario, monkeypatch, surface
    ):
        scenario = exchange_scenario
        commands: list[tuple[int, str]] = []
        queries: list[tuple[str, str]] = []
        remote_asset = RelayService.remote_asset
        remote_query = InteropClient.remote_query

        def record_asset(relay, kind, command):
            commands.append((kind, command.address.network))
            return remote_asset(relay, kind, command)

        def record_query(client, address, *args, **kwargs):
            queries.append((client.network_id, address))
            return remote_query(client, address, *args, **kwargs)

        monkeypatch.setattr(RelayService, "remote_asset", record_asset)
        monkeypatch.setattr(InteropClient, "remote_query", record_query)

        assert surface(scenario).completed
        assert commands == [
            (MSG_KIND_ASSET_LOCK, "fabnet"),  # offer / leg 0
            (MSG_KIND_ASSET_LOCK, "quornet"),  # counter / leg 1
            (MSG_KIND_ASSET_CLAIM, "quornet"),  # reveal
            (MSG_KIND_ASSET_STATUS, "quornet"),  # responder reads the preimage
            (MSG_KIND_ASSET_CLAIM, "fabnet"),
        ]
        assert queries == [
            ("quornet", f"{OFFER_ADDRESS}/GetLock"),  # responder checks leg 0
            ("fabnet", f"{ASK_ADDRESS}/GetLock"),  # initiator checks leg 1
        ]
        assert scenario.gold_owner() == "bob@quornet"
        assert scenario.oil_owner() == "alice@fabnet"


def make_ring(scenario, **kwargs) -> CycleCoordinator:
    return CycleCoordinator(
        parties=[scenario.alice_client, scenario.bob_client, scenario.carol_client],
        specs=[
            AssetSpec.parse(OFFER_ADDRESS, "GOLD-1"),
            AssetSpec.parse(ASK_ADDRESS, "OIL-9"),
            AssetSpec.parse(CORDA_ADDRESS, "ART-7"),
        ],
        cycle_timeout=900.0,
        hop_gap=150.0,
        policies=[OFFER_POLICY, ASK_POLICY, CORDA_POLICY],
        **kwargs,
    )


class TestRingGuard:
    def test_late_upstream_lock_fails_the_ring_and_refunds(self, cycle_scenario):
        """Leg 1's window is 750 s, so bob needs 750 + 75 s left on leg 0;
        once more than hop_gap − margin = 75 s have passed he refuses."""
        scenario = cycle_scenario
        ring = make_ring(scenario)
        ring.lock_next()  # leg 0, expires at t0 + 900
        scenario.clock.advance(76.0)
        with pytest.raises(AssetError, match="expires in"):
            ring.lock_next()
        assert ring.state is CycleState.FAILED
        assert ring.deadlines[1] is None  # bob never escrowed
        with pytest.raises(AssetError, match="leg 0 refund refused"):
            ring.refund()
        scenario.clock.advance(900.0)
        [refund] = ring.refund()
        assert refund.asset_id == "GOLD-1"
        assert ring.state is CycleState.REFUNDED
        assert scenario.gold_owner() == "alice@fabnet"

    def test_verify_steps_are_journaled_apart_from_the_commands(self, cycle_scenario):
        scenario = cycle_scenario
        store = MemoryStore()
        ring = make_ring(scenario, store=store)
        ring.lock_next()
        record = ring.verify_upstream()  # bob checks leg 0 ...
        assert record["recipient"] == "bob@quornet"
        assert ring.upstream_verified(1) and not ring.upstream_verified(2)
        journal = json.loads(store.get(NS_CYCLES, ring.cycle_id).decode("utf-8"))
        assert journal["leg_hashlocks"][1] == ring.hashlock.hex()
        ring.lock_next()  # ... and locks without checking again
        ring.lock_next()
        assert ring.state is CycleState.LOCKED
        ring.verify_upstream()  # alice checks the final leg before revealing
        assert ring.upstream_verified(0)
        journal = json.loads(store.get(NS_CYCLES, ring.cycle_id).decode("utf-8"))
        assert journal["final_verified"] is True

    def test_cycle_journal_without_final_flag_reads_unverified(self, cycle_scenario):
        scenario = cycle_scenario
        store = MemoryStore()
        ring = make_ring(scenario, store=store)
        while ring.state in (CycleState.CREATED, CycleState.LOCKING):
            ring.lock_next()
        ring.verify_upstream()
        journal = json.loads(store.get(NS_CYCLES, ring.cycle_id).decode("utf-8"))
        del journal["final_verified"]  # as written before the flag existed
        store.put(NS_CYCLES, ring.cycle_id, json.dumps(journal).encode("utf-8"))
        resumed = CycleCoordinator.resume(
            [scenario.alice_client, scenario.bob_client, scenario.carol_client],
            store,
            ring.cycle_id,
            policies=[OFFER_POLICY, ASK_POLICY, CORDA_POLICY],
        )
        assert not resumed.upstream_verified(0)
        assert resumed.recover() is CycleState.LOCKED
        assert resumed.run().completed
        assert scenario.art_owner() == "alice@fabnet"


def make_exchange(scenario, **kwargs) -> AssetExchangeCoordinator:
    return AssetExchangeCoordinator(
        scenario.alice_client,
        scenario.bob_client,
        AssetSpec.parse(OFFER_ADDRESS, "GOLD-1"),
        AssetSpec.parse(ASK_ADDRESS, "OIL-9"),
        offer_policy=OFFER_POLICY,
        ask_policy=ASK_POLICY,
        **kwargs,
    )


class TestResumedMetrics:
    def test_crash_after_first_lock_resumes_into_fresh_metrics(self, exchange_scenario):
        """The offer lock lands but its journal write does not; a new
        process resumes with its own metrics, recovers and completes."""
        scenario = exchange_scenario
        store = MemoryStore()
        exchange = make_exchange(
            scenario, store=store, exchange_id="exch-m", metrics=ExchangeMetrics()
        )
        stale = store.get(NS_EXCHANGES, "exch-m")
        scenario.clock.advance(5.0)
        exchange.lock_offer()
        store.put(NS_EXCHANGES, "exch-m", stale)  # the journal write is lost
        scenario.clock.advance(10.0)

        metrics = ExchangeMetrics()
        resumed = AssetExchangeCoordinator.resume(
            scenario.alice_client,
            scenario.bob_client,
            store,
            "exch-m",
            offer_policy=OFFER_POLICY,
            ask_policy=ASK_POLICY,
            metrics=metrics,
        )
        assert resumed.recover() is ExchangeState.OFFER_LOCKED
        assert resumed.run().completed

        snapshot = metrics.snapshot()
        assert snapshot["active"] == {"exchange": 0}
        assert metrics.active("exchange") == 0
        # Timed from the lock's own start (its verified timeout minus the
        # offer window), not from the resume.
        assert snapshot["latencies"]["exchange"] == [pytest.approx(10.0)]

    def test_failed_then_refunded_settles_once(self, exchange_scenario):
        scenario = exchange_scenario
        metrics = ExchangeMetrics()
        exchange = make_exchange(scenario, metrics=metrics)
        exchange.lock_offer()
        scenario.clock.advance(200.0)
        with pytest.raises(AssetError):
            exchange.verify_offer()
        assert metrics.active("exchange") == 0
        scenario.clock.advance(500.0)
        exchange.refund()
        assert exchange.state is ExchangeState.REFUNDED
        snapshot = metrics.snapshot()
        assert snapshot["transitions"]["exchange:failed"] == 1
        assert snapshot["transitions"]["exchange:refunded"] == 1
        assert snapshot["active"] == {"exchange": 0}
