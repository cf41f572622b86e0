"""repro.assets: cross-network atomic asset exchange (HTLC subsystem).

The paper's relay architecture deliberately stops at trusted *data*
transfer and names asset transfer as the next step (§6). This package is
that step: atomic exchange between heterogeneous networks — two-party
swaps and N-party rings — via
hash-time-locked contracts, riding the existing relay envelope protocol —
discovery, failover, interceptors, and the proof plane all unchanged.

- :mod:`repro.assets.htlc` — the platform-neutral vault state machine
  (lock/claim/refund with strictly disjoint claim and refund windows).
- :mod:`repro.assets.contracts` — the vault hosted as Fabric chaincode
  and as a Quorum contract, exposing one function surface.
- :mod:`repro.assets.ports` — :class:`AssetLedgerPort`, the driver
  capability behind ``supports_assets``; commands are ECC-gated and
  submitted under a designated local invoker, like §5 transactions.
- :mod:`repro.assets.cycles` — :class:`CycleCoordinator`, the one HTLC
  state machine: an A→B→C→…→A ring of escrows under one hashlock, with
  per-hop decremented timelocks, proof-verified locks, abort and
  timeout-refund paths, and journaled crash recovery.
- :mod:`repro.assets.coordinator` — :class:`AssetExchangeCoordinator`,
  the two-party exchange as a view over a 2-leg cycle: it names the
  ring's steps lock → proof-verify → counter-lock → proof-verify → claim
  → claim and reads exchange journals written before it ran on the
  engine.
- :mod:`repro.assets.metrics` — :class:`ExchangeMetrics`, the shared
  lock-guarded counters the engine reports into (exported as the
  ``repro_assets_*`` Prometheus families by ``repro.ops``). For
  ``kind="exchange"`` the transition labels are the cycle states
  (``locking``, ``locked``, ``claiming``) plus the terminal states.

Applications reach it through ``gateway.exchange()`` and
``gateway.exchange_cycle()`` (see :class:`repro.api.ExchangeBuilder` /
:class:`repro.api.CycleBuilder`).
"""

from repro.assets.contracts import (
    CORDA_ASSET_CONTRACT,
    FABRIC_ASSET_CHAINCODE,
    QUORUM_ASSET_CONTRACT,
    FabricAssetChaincode,
    QuorumAssetContract,
    issue_corda_asset,
    register_corda_asset_contract,
)
from repro.assets.coordinator import (
    AssetExchangeCoordinator,
    ExchangeResult,
    ExchangeState,
)
from repro.assets.cycles import AssetSpec, CycleCoordinator, CycleResult, CycleState
from repro.assets.htlc import (
    STATE_AVAILABLE,
    STATE_CLAIMED,
    STATE_LOCKED,
    STATE_REFUNDED,
    HtlcVault,
    make_hashlock,
    new_preimage,
)
from repro.assets.metrics import ExchangeMetrics
from repro.assets.ports import (
    AssetLedgerPort,
    CordaAssetLedgerPort,
    FabricAssetLedgerPort,
    PubChainAssetLedgerPort,
    QuorumAssetLedgerPort,
)

__all__ = [
    "AssetExchangeCoordinator",
    "AssetLedgerPort",
    "AssetSpec",
    "CordaAssetLedgerPort",
    "CORDA_ASSET_CONTRACT",
    "CycleCoordinator",
    "CycleResult",
    "CycleState",
    "ExchangeMetrics",
    "ExchangeResult",
    "ExchangeState",
    "FabricAssetChaincode",
    "FabricAssetLedgerPort",
    "FABRIC_ASSET_CHAINCODE",
    "HtlcVault",
    "PubChainAssetLedgerPort",
    "QuorumAssetContract",
    "QuorumAssetLedgerPort",
    "QUORUM_ASSET_CONTRACT",
    "STATE_AVAILABLE",
    "STATE_CLAIMED",
    "STATE_LOCKED",
    "STATE_REFUNDED",
    "issue_corda_asset",
    "make_hashlock",
    "new_preimage",
    "register_corda_asset_contract",
]
