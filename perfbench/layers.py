"""The layers the traced run times, and the entry points that bound them.

Layer names follow the request path of a proof-carrying request:
gateway API → client → relay → discovery → transport → wire codec →
driver → ledger simulator (Fabric, Quorum) → state store → asset
protocol → proofs → crypto primitives. Every ``Target`` is a public
entry point of one ``repro`` module; a span's self time is charged to its
layer, and the op's root span keeps whatever no wrapped call covers
(``trace.unattributed``).
"""

from __future__ import annotations

from perfbench.tracing import Target
from repro.crypto import ec

LAYERS = (
    "api", "client", "assets", "relay", "discovery", "net", "wire", "driver",
    "fabric", "quorum", "store", "proofs", "crypto",
)


def _scalar_mult_base(args, kwargs, result):
    point = args[1] if len(args) > 1 else kwargs.get("point", ec.GENERATOR)
    return {"fixed": 1} if point == ec.GENERATOR else {"var": 1}


def _chacha20_blocks(args, kwargs, result):
    data = args[2] if len(args) > 2 else kwargs["data"]
    return {"blocks": (len(data) + 63) // 64}


def _frame_bytes(args, kwargs, result):
    data = args[1] if len(args) > 1 else kwargs["data"]
    return {"bytes": len(data) + len(result or b"")}


def _methods(module, cls, layer, prefix, names):
    return [Target(module, f"{cls}.{name}", f"{prefix}.{name}", layer) for name in names]


TARGETS = (
    # api — the gateway façade and its builders
    *_methods("repro.api.gateway", "InteropGateway", "api", "api.gateway",
              ("query", "transact", "exchange")),
    *_methods("repro.api.session", "GatewaySession", "api", "api.session",
              ("query", "transact", "exchange")),
    Target("repro.api.builder", "QueryBuilder.execute", "api.query.execute", "api"),
    Target("repro.api.builder", "TransactionBuilder.execute", "api.transact.execute", "api"),
    *_methods("repro.api.builder", "ExchangeBuilder", "api", "api.exchange", ("build", "run")),
    # client — request preparation and response verification
    *_methods("repro.interop.client", "InteropClient", "client", "client",
              ("remote_query", "prepare_query", "finalize_response", "lookup_policy")),
    *_methods("repro.interop.transactions", "RemoteTransactionClient", "client", "client.tx",
              ("remote_transact", "prepare_transaction", "finalize_transaction")),
    # assets — the HTLC coordinator, the ledger ports and the vault contracts
    *_methods("repro.assets.coordinator", "AssetExchangeCoordinator", "assets", "assets",
              ("run", "lock_offer", "verify_offer", "lock_counter", "verify_counter",
               "claim_counter", "claim_offer")),
    *_methods("repro.assets.ports", "AssetLedgerPort", "assets", "assets.port",
              ("lock_asset", "claim_asset", "unlock_asset", "asset_status")),
    *_methods("repro.assets.htlc", "HtlcVault", "assets", "assets.vault",
              ("issue", "lock", "claim", "refund", "get_asset", "get_lock")),
    Target("repro.assets.contracts", "FabricAssetChaincode.invoke", "assets.chaincode", "assets"),
    *_methods("repro.assets.contracts", "QuorumAssetContract", "assets", "assets.contract",
              ("execute", "call")),
    # relay — both the sending and the serving side
    *_methods("repro.interop.relay", "RelayService", "relay", "relay",
              ("handle_request", "remote_query", "remote_query_batch", "remote_transact",
               "remote_asset")),
    # discovery
    Target("repro.interop.discovery", "DiscoveryService.lookup", "discovery.lookup", "discovery"),
    # net — one client round trip; the serving relay span nests inside it
    Target("repro.net.client", "TcpRelayEndpoint.handle_request", "net.round_trip", "net",
           attrs=_frame_bytes, remote=True),
    # wire — every message encode and decode
    Target("repro.wire.message", "Message.encode", "wire.encode", "wire"),
    Target("repro.wire.message", "Message.decode", "wire.decode", "wire"),
    # driver — the network drivers and the remote-invocation governance check
    *_methods("repro.interop.drivers.base", "NetworkDriver", "driver", "driver",
              ("execute_query", "execute_transaction", "execute_batch", "lock_asset",
               "claim_asset", "unlock_asset", "asset_status")),
    Target("repro.interop.drivers.fabric_driver", "build_interop_context",
           "driver.interop_context", "driver"),
    Target("repro.interop.transactions", "check_remote_invocation_exposure",
           "driver.exposure_check", "driver"),
    # fabric — endorse, order, validate/commit, and the system contracts
    *_methods("repro.fabric.gateway", "Gateway", "fabric", "fabric", ("evaluate", "submit")),
    *_methods("repro.fabric.peer", "Peer", "fabric", "fabric", ("endorse", "commit_block")),
    *_methods("repro.fabric.orderer", "OrderingService", "fabric", "fabric.order",
              ("submit", "flush")),
    Target("repro.interop.contracts.ecc", "ExposureControlChaincode.invoke", "fabric.ecc",
           "fabric"),
    Target("repro.interop.contracts.cmdac", "ConfigAndDataAcceptanceChaincode.invoke",
           "fabric.cmdac", "fabric"),
    # quorum
    *_methods("repro.quorum.network", "QuorumNetwork", "quorum", "quorum",
              ("submit_transaction", "view")),
    *_methods("repro.quorum.node", "QuorumPeer", "quorum", "quorum.peer", ("apply_block", "view")),
    # store — durable relay state
    *_methods("repro.store.base", "StateStore", "store", "store", ("apply", "get", "scan")),
    Target("os", "fsync", "store.fsync", "store"),
    # proofs — attestation generation/validation, sealing, policy parsing
    *_methods("repro.interop.proofs", "ProofScheme", "proofs", "proofs",
              ("generate_attestation", "validate_bundle")),
    # The client-side proof check is a private method, but it is the
    # query path's only proof validation.
    Target("repro.interop.client", "InteropClient._verify_locally", "proofs.verify_locally",
           "proofs"),
    Target("repro.interop.proofs", "seal_result", "proofs.seal_result", "proofs"),
    Target("repro.interop.proofs", "unseal_result", "proofs.unseal_result", "proofs"),
    Target("repro.interop.proofs", "decrypt_attestation", "proofs.decrypt_attestation", "proofs"),
    Target("repro.interop.policy", "parse_verification_policy", "proofs.parse_policy", "proofs"),
    # crypto — the primitives, wherever they are bound
    Target("repro.crypto.ec", "scalar_mult", "crypto.scalar_mult", "crypto",
           attrs=_scalar_mult_base),
    Target("repro.crypto.ecdsa", "sign", "crypto.ecdsa_sign", "crypto"),
    Target("repro.crypto.ecdsa", "verify", "crypto.ecdsa_verify", "crypto"),
    Target("repro.crypto.ecies", "ecies_encrypt", "crypto.ecies_encrypt", "crypto"),
    Target("repro.crypto.ecies", "ecies_decrypt", "crypto.ecies_decrypt", "crypto"),
    Target("repro.crypto.keys", "PrivateKey.public_key", "crypto.public_key", "crypto"),
    Target("repro.crypto.certs", "validate_chain", "crypto.validate_chain", "crypto"),
    Target("repro.crypto.chacha20", "chacha20_xor", "crypto.chacha20", "crypto",
           attrs=_chacha20_blocks),
    Target("repro.crypto.aead", "seal", "crypto.aead_seal", "crypto"),
    Target("repro.crypto.aead", "open_", "crypto.aead_open", "crypto"),
)
