"""Exchange journals written before the exchange ran on the cycle engine.

``fixtures/legacy_exchange_journals.json`` holds one ``assets/exchanges``
record per state the two-party coordinator could journal (``CREATED``
through ``COMPLETED``, plus ``ABORTED``, ``FAILED`` and ``REFUNDED`` with
their per-leg refund flags), captured from that coordinator against the
``exchange_scenario`` deployment. Each converts into the engine's record
and resumes in the state it was journaled in.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.assets import ExchangeState
from repro.assets.coordinator import (
    NS_EXCHANGES,
    AssetExchangeCoordinator,
    upgrade_legacy_record,
)
from repro.store import MemoryStore

OFFER_POLICY = "AND(org:traders-org, org:audit-org)"
ASK_POLICY = "AND(org:op-org-1, org:op-org-2)"
LEGACY = json.loads(
    (Path(__file__).parent / "fixtures" / "legacy_exchange_journals.json").read_text()
)

#: The cycle state each legacy exchange state runs as.
CYCLE_STATES = {
    "created": "created",
    "offer_locked": "locking",
    "offer_verified": "locking",
    "counter_locked": "locked",
    "counter_verified": "locked",
    "counter_claimed": "claiming",
    "completed": "completed",
    "aborted": "aborted",
    "failed": "failed",
    "refunded": "refunded",
}


def resume(scenario, record: dict, exchange_id: str = "exch-legacy"):
    store = MemoryStore()
    store.put(NS_EXCHANGES, exchange_id, json.dumps(record).encode("utf-8"))
    resumed = AssetExchangeCoordinator.resume(
        scenario.alice_client,
        scenario.bob_client,
        store,
        exchange_id,
        offer_policy=OFFER_POLICY,
        ask_policy=ASK_POLICY,
    )
    return resumed, store


def test_fixtures_cover_every_journaled_state():
    assert sorted(LEGACY) == sorted(CYCLE_STATES)
    for name, record in LEGACY.items():
        assert record["state"] == name
        assert "offer" in record  # the legacy shape's marker
    # The unwound states hold a refund flag: counter leg refunded, offer
    # leg still locked.
    for name in ("aborted", "failed"):
        assert LEGACY[name]["counter_refunded"] is True
        assert LEGACY[name]["offer_refunded"] is False


@pytest.mark.parametrize("name", sorted(LEGACY))
def test_conversion_maps_legs_and_windows(name):
    old = LEGACY[name]
    new = upgrade_legacy_record(old)
    assert new["state"] == CYCLE_STATES[name]
    assert new["specs"] == [old["offer"], old["ask"]]
    assert new["cycle_timeout"] == old["offer_timeout"]
    assert new["hop_gap"] == old["offer_timeout"] - old["counter_timeout"]
    assert new["verify_margin"] == old["verify_margin"]
    assert (new["preimage"], new["hashlock"]) == (old["preimage"], old["hashlock"])
    # Leg 0 escrows under the secret's hash; leg 1 under what the
    # responder verified (empty until it did).
    assert new["leg_hashlocks"] == [old["hashlock"], old["verified_hashlock"]]
    assert new["deadlines"] == [old["offer_deadline"], old["counter_deadline"]]
    assert new["locked"] == [old["offer_locked"], old["counter_locked"]]
    assert new["claimed"] == [old["offer_claimed"], old["counter_claimed"]]
    assert new["refunded"] == [old["offer_refunded"], old["counter_refunded"]]
    assert new["final_verified"] is (
        name in ("counter_verified", "counter_claimed", "completed")
    )
    assert new["preimage_revealed"] == old["preimage_revealed"]
    assert new["started_at"] == old["started_at"]
    assert "offer" not in new


@pytest.mark.parametrize("name", sorted(LEGACY))
def test_legacy_journal_resumes_in_its_state(exchange_scenario, name):
    resumed, store = resume(exchange_scenario, LEGACY[name])
    assert resumed.state is ExchangeState(name)
    assert resumed.preimage.hex() == LEGACY[name]["preimage"]
    assert resumed.offer_deadline == LEGACY[name]["offer_deadline"]
    # The journal now holds the engine's shape.
    rewritten = json.loads(store.get(NS_EXCHANGES, "exch-legacy").decode("utf-8"))
    assert "offer" not in rewritten
    assert rewritten["state"] == CYCLE_STATES[name]


def test_legacy_created_journal_runs_to_completion(exchange_scenario):
    scenario = exchange_scenario
    resumed, _ = resume(scenario, LEGACY["created"])
    assert resumed.recover() is ExchangeState.CREATED  # nothing was locked
    result = resumed.run()
    assert result.completed
    assert result.preimage.hex() == LEGACY["created"]["preimage"]
    assert scenario.gold_owner() == "bob@quornet"
    assert scenario.oil_owner() == "alice@fabnet"
