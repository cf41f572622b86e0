"""Asset-ledger ports: the driver capability behind ``supports_assets``.

An :class:`AssetLedgerPort` translates the network-neutral asset command
envelopes (:class:`repro.proto.AssetCommandMsg`) into hash-time-locked
operations on one concrete ledger. It is the asset analogue of the §5
transaction extension: commands are submitted under a *designated local
invoker* identity (the foreign party is not a member of the source
network), the acting party travels as an authenticated logical id
(``<requestor>@<network>``), and every verb passes the same governance
gates as queries — certificate authentication plus exposure-control rules
on the asset contract's functions.

Trust note: the ack a port returns is transport truth only. Counterparties
upgrade a remote lock to *trusted* data with a proof-carrying query
against the contract's ``GetLock`` view before acting on it (see
:class:`repro.assets.CycleCoordinator`), so a lying relay or
driver can deny service but cannot fake a lock.
"""

from __future__ import annotations

import json
import threading
from abc import ABC, abstractmethod

from repro.assets.contracts import (
    CORDA_ASSET_CONTRACT,
    FABRIC_ASSET_CHAINCODE,
    QUORUM_ASSET_CONTRACT,
)
from repro.assets.htlc import STATE_AVAILABLE, STATE_CLAIMED, STATE_LOCKED, STATE_REFUNDED
from repro.crypto.certs import Certificate, validate_chain
from repro.errors import AccessDeniedError, AssetError, LedgerError
from repro.fabric.identity import Identity
from repro.fabric.network import FabricNetwork
from repro.interop.contracts.cmdac import org_roots_from_config
from repro.interop.contracts.ports import InteropPort
from repro.proto.messages import (
    PROTOCOL_VERSION,
    STATUS_OK,
    AssetAckMsg,
    AssetCommandMsg,
    AuthInfo,
)
from repro.quorum.contracts import CallContext
from repro.quorum.network import QuorumNetwork


def acting_party(auth: AuthInfo | None) -> str:
    """The logical party id an authenticated command acts as."""
    if auth is None or not auth.requestor or not auth.requesting_network:
        raise AccessDeniedError("asset command carries no requesting identity")
    return f"{auth.requestor}@{auth.requesting_network}"


def authenticated_certificate(auth: AuthInfo | None) -> Certificate:
    """Decode a command's certificate and bind it to the claimed identity.

    The vault authorizes owners/recipients by their logical party id
    (:func:`acting_party`), so the certificate must vouch for *both*
    components of that id: its subject organization must match the claimed
    org and its common name the claimed requestor — otherwise any enrolled
    member of an accepted org could impersonate any other party.
    """
    if auth is None or not auth.certificate:
        raise AccessDeniedError("asset command carries no certificate")
    creator = Certificate.from_bytes(auth.certificate)
    if creator.subject.organization != auth.requesting_org:
        raise AccessDeniedError(
            f"certificate org {creator.subject.organization!r} does not "
            f"match claimed org {auth.requesting_org!r}"
        )
    if creator.subject.common_name != auth.requestor:
        raise AccessDeniedError(
            f"certificate common name {creator.subject.common_name!r} does "
            f"not match claimed requestor {auth.requestor!r}"
        )
    return creator


def validate_local_member(creator: Certificate, config, network_id: str) -> None:
    """Validate a local member's certificate against its own MSP roots.

    A command claiming local provenance bypasses the (foreign-facing) ECC
    gate, so membership must be proven against the network's exported
    configuration instead.
    """
    roots = org_roots_from_config(config)
    root = roots.get(creator.subject.organization)
    if root is None:
        raise AccessDeniedError(
            f"org {creator.subject.organization!r} is not a member of "
            f"network {network_id!r}"
        )
    validate_chain(creator, [root])


def lock_ack(
    command: AssetCommandMsg,
    record: dict,
    tx_id: str = "",
    block_number: int = 0,
) -> AssetAckMsg:
    """The OK ack answering ``command`` with the lock record ``record``."""
    return AssetAckMsg(
        version=PROTOCOL_VERSION,
        nonce=command.nonce,
        status=STATUS_OK,
        asset_id=record.get("asset_id", command.asset_id),
        state=record.get("state", ""),
        owner=record.get("owner", ""),
        recipient=record.get("recipient", ""),
        hashlock=bytes.fromhex(record["hashlock"]) if record.get("hashlock") else b"",
        timeout=float(record.get("timeout", 0.0)),
        preimage=bytes.fromhex(record["preimage"]) if record.get("preimage") else b"",
        tx_id=tx_id,
        block_number=block_number,
    )


class AssetLedgerPort(ABC):
    """Hashlock/timelock asset operations against one ledger.

    The four verbs mirror the :data:`repro.proto.ASSET_COMMAND_KINDS`
    envelope family; each returns an :class:`AssetAckMsg` carrying the
    post-command lock record, and raises :class:`AccessDeniedError` /
    :class:`AssetError` on governance or contract-rule violations.
    """

    #: The on-ledger contract name the port drives (for addressing checks).
    contract: str = ""

    @abstractmethod
    def lock_asset(self, command: AssetCommandMsg) -> AssetAckMsg:
        """Escrow the asset for the command's recipient under its hashlock."""

    @abstractmethod
    def claim_asset(self, command: AssetCommandMsg) -> AssetAckMsg:
        """Transfer a locked asset by revealing the preimage (before timeout)."""

    @abstractmethod
    def unlock_asset(self, command: AssetCommandMsg) -> AssetAckMsg:
        """Refund an expired lock to its owner (at/after timeout)."""

    @abstractmethod
    def asset_status(self, command: AssetCommandMsg) -> AssetAckMsg:
        """The asset's current lock record (read-only, unproven)."""

class FabricAssetLedgerPort(AssetLedgerPort):
    """Drives the :class:`~repro.assets.contracts.FabricAssetChaincode`.

    Side-effecting verbs commit through the network's normal
    endorse-order-commit pipeline under the designated ``invoker``
    identity; commits serialize on an internal lock (concurrent exchanges
    interleave across networks, but each commit pipeline is ordered, just
    like :meth:`NetworkDriver.execute_transaction_batch`).
    """

    def __init__(
        self,
        network: FabricNetwork,
        invoker: Identity,
        contract: str = FABRIC_ASSET_CHAINCODE,
    ) -> None:
        self._network = network
        self._invoker = invoker
        self.contract = contract
        self._commit_lock = threading.Lock()
        # Record the invoker on-ledger (through the contract's endorsement
        # policy — a governance write, like ECC rules) so the vault accepts
        # this identity acting on behalf of port-authenticated parties.
        # Requires the asset chaincode to be deployed first.
        result = network.gateway.submit(
            invoker, contract, "AuthorizeInvoker", [invoker.name]
        )
        if not result.committed:
            raise AssetError(
                f"failed to authorize invoker {invoker.name!r} on "
                f"{network.name!r}: {result.validation_code.value}"
            )

    def _check(self, auth: AuthInfo | None, function: str) -> None:
        creator = authenticated_certificate(auth)
        if auth.requesting_network == self._network.name:
            # A local member acting through its own relay: native MSP
            # membership is the gate, not the (foreign-facing) ECC.
            validate_local_member(
                creator, self._network.export_config(), self._network.name
            )
            return
        from repro.interop.transactions import check_remote_invocation_exposure

        check_remote_invocation_exposure(
            self._network, self._invoker, auth, self.contract, function
        )

    def _commit_and_read(
        self, command: AssetCommandMsg, function: str, args: list[str]
    ) -> AssetAckMsg:
        # Commit and the confirming read happen under one lock so the ack
        # reflects exactly the state this command produced, even with
        # concurrent exchanges sharing the network.
        with self._commit_lock:
            result = self._network.gateway.submit(
                self._invoker, self.contract, function, args
            )
            if not result.committed:
                raise AssetError(
                    f"{function} invalidated on network {self._network.name!r}: "
                    f"{result.validation_code.value}"
                )
            record = self._read_lock(command.asset_id)
        return lock_ack(command, record, result.tx_id, result.block_number)

    def _read_lock(self, asset_id: str) -> dict:
        raw = self._network.gateway.evaluate(
            self._invoker, self.contract, "GetLock", [asset_id]
        )
        return json.loads(raw)

    def lock_asset(self, command: AssetCommandMsg) -> AssetAckMsg:
        self._check(command.auth, "LockAsset")
        return self._commit_and_read(
            command,
            "LockAsset",
            [
                command.asset_id,
                acting_party(command.auth),
                command.recipient,
                command.hashlock.hex(),
                repr(command.timeout),
            ],
        )

    def claim_asset(self, command: AssetCommandMsg) -> AssetAckMsg:
        self._check(command.auth, "ClaimAsset")
        return self._commit_and_read(
            command,
            "ClaimAsset",
            [command.asset_id, acting_party(command.auth), command.preimage.hex()],
        )

    def unlock_asset(self, command: AssetCommandMsg) -> AssetAckMsg:
        self._check(command.auth, "UnlockAsset")
        return self._commit_and_read(
            command, "UnlockAsset", [command.asset_id, acting_party(command.auth)]
        )

    def asset_status(self, command: AssetCommandMsg) -> AssetAckMsg:
        self._check(command.auth, "GetLock")
        return lock_ack(command, self._read_lock(command.asset_id))


class CordaAssetLedgerPort(AssetLedgerPort):
    """Drives the HTLC vault as Corda linear states (notary-backed escrow).

    Each verb is a flow the designated ``invoker`` node proposes: consume
    the asset's current state, produce the successor carrying the updated
    lock record. The contract rules registered by
    :func:`repro.assets.contracts.register_corda_asset_contract` re-impose
    the vault's window semantics at every signer, and the notary's
    uniqueness check consumes the lock state exactly once — double
    claim/refund is rejected as a double spend rather than by a flag.

    The port is the authentication boundary (as on the other platforms):
    it binds the authenticated acting party to the lock's owner/recipient
    before proposing, since the on-ledger verifier sees records, not
    requestors.
    """

    def __init__(
        self,
        network: "CordaNetwork",
        port: InteropPort,
        invoker: "CordaNode",
        contract: str = CORDA_ASSET_CONTRACT,
    ) -> None:
        self._network = network
        self._port = port
        self._invoker = invoker
        self.contract = contract
        self._commit_lock = threading.Lock()

    def _check(self, auth: AuthInfo | None, function: str) -> None:
        creator = authenticated_certificate(auth)
        if auth.requesting_network == self._network.name:
            validate_local_member(
                creator, self._network.export_config(), self._network.name
            )
            return
        self._port.check_access(
            auth.requesting_network,
            auth.requesting_org,
            self.contract,
            function,
            creator,
        )

    def _state(self, asset_id: str):
        try:
            ref, state = self._invoker.lookup(asset_id)
        except LedgerError as exc:
            raise AssetError(f"no asset {asset_id!r} in this vault") from exc
        if state.kind != self.contract:
            raise AssetError(
                f"state {asset_id!r} is a {state.kind!r} state, not an asset of "
                f"{self.contract!r}"
            )
        return ref, state

    def _evolve(self, ref, state, asset: dict, lock: dict, command: str):
        from repro.corda.states import LinearState

        successor = LinearState(
            linear_id=state.linear_id,
            kind=state.kind,
            data={"asset": asset, "lock": lock},
            participants=state.participants,
        )
        return self._invoker.propose([ref], [successor], command)

    def _record_of(self, state) -> dict:
        """The state's lock record, synthesized as *available* if unlocked
        (byte-compatible with :meth:`repro.assets.htlc.HtlcVault.get_lock`)."""
        asset = state.data["asset"]
        lock = state.data.get("lock")
        if lock is None:
            lock = {
                "asset_id": state.linear_id,
                "owner": asset["owner"],
                "recipient": "",
                "hashlock": "",
                "timeout": 0.0,
                "state": STATE_AVAILABLE,
                "preimage": "",
                "created_at": 0.0,
            }
        return lock

    def lock_asset(self, command: AssetCommandMsg) -> AssetAckMsg:
        self._check(command.auth, "LockAsset")
        party = acting_party(command.auth)
        with self._commit_lock:
            ref, state = self._state(command.asset_id)
            asset = dict(state.data["asset"])
            if asset.get("owner") != party:
                raise AssetError(
                    f"asset {command.asset_id!r} is owned by "
                    f"{asset.get('owner')!r}, not {party!r}"
                )
            record = {
                "asset_id": command.asset_id,
                "owner": party,
                "recipient": command.recipient,
                "hashlock": command.hashlock.hex(),
                "timeout": command.timeout,
                "state": STATE_LOCKED,
                "preimage": "",
                "created_at": self._network.clock.now(),
            }
            tx = self._evolve(ref, state, asset, record, "AssetLock")
        return lock_ack(
            command, record, tx.tx_id, self._network.sequence_of(tx.tx_id)
        )

    def claim_asset(self, command: AssetCommandMsg) -> AssetAckMsg:
        self._check(command.auth, "ClaimAsset")
        party = acting_party(command.auth)
        with self._commit_lock:
            ref, state = self._state(command.asset_id)
            lock = state.data.get("lock")
            if lock is None or lock.get("state") != STATE_LOCKED:
                current = lock["state"] if lock else STATE_AVAILABLE
                raise AssetError(
                    f"asset {command.asset_id!r} is not locked (state {current!r})"
                )
            if lock["recipient"] != party:
                raise AssetError(
                    f"asset {command.asset_id!r} is locked for "
                    f"{lock['recipient']!r}, not {party!r}"
                )
            record = dict(lock)
            record["state"] = STATE_CLAIMED
            record["preimage"] = command.preimage.hex()
            asset = dict(state.data["asset"])
            asset["owner"] = lock["recipient"]
            tx = self._evolve(ref, state, asset, record, "AssetClaim")
        return lock_ack(
            command, record, tx.tx_id, self._network.sequence_of(tx.tx_id)
        )

    def unlock_asset(self, command: AssetCommandMsg) -> AssetAckMsg:
        self._check(command.auth, "UnlockAsset")
        party = acting_party(command.auth)
        with self._commit_lock:
            ref, state = self._state(command.asset_id)
            lock = state.data.get("lock")
            if lock is None or lock.get("state") != STATE_LOCKED:
                current = lock["state"] if lock else STATE_AVAILABLE
                raise AssetError(
                    f"asset {command.asset_id!r} is not locked (state {current!r})"
                )
            if lock["owner"] != party:
                raise AssetError(
                    f"lock on asset {command.asset_id!r} was placed by "
                    f"{lock['owner']!r}, not {party!r}"
                )
            record = dict(lock)
            record["state"] = STATE_REFUNDED
            asset = dict(state.data["asset"])
            tx = self._evolve(ref, state, asset, record, "AssetUnlock")
        return lock_ack(
            command, record, tx.tx_id, self._network.sequence_of(tx.tx_id)
        )

    def asset_status(self, command: AssetCommandMsg) -> AssetAckMsg:
        self._check(command.auth, "GetLock")
        _ref, state = self._state(command.asset_id)
        return lock_ack(command, self._record_of(state))

    # -- proof-carrying views (registered as driver query handlers) ----------------

    def get_lock_view(self, node, args: list[str]) -> bytes:
        """``GetLock`` served from the *queried node's own* vault."""
        if len(args) != 1:
            raise AssetError("GetLock expects exactly one argument (asset_id)")
        state = self._node_state(node, args[0])
        return json.dumps(self._record_of(state), sort_keys=True).encode("utf-8")

    def get_asset_view(self, node, args: list[str]) -> bytes:
        if len(args) != 1:
            raise AssetError("GetAsset expects exactly one argument (asset_id)")
        state = self._node_state(node, args[0])
        return json.dumps(state.data["asset"], sort_keys=True).encode("utf-8")

    def _node_state(self, node, asset_id: str):
        try:
            _ref, state = node.lookup(asset_id)
        except LedgerError as exc:
            raise AssetError(f"no asset {asset_id!r} in this vault") from exc
        if state.kind != self.contract:
            raise AssetError(
                f"state {asset_id!r} is a {state.kind!r} state, not an asset of "
                f"{self.contract!r}"
            )
        return state


class PubChainAssetLedgerPort(AssetLedgerPort):
    """Drives the HTLC vault hosted on a :class:`SimulatedPublicChain`.

    The chain reuses Quorum's contract machinery, so the deployed vault is
    the shared :class:`~repro.assets.contracts.QuorumAssetContract`;
    governance gates mirror the Quorum port. What is new is *finality*: a
    claim acts on an observed lock, so before submitting one this port
    re-reads the lock and demands it be settled under the chain's
    :class:`~repro.pubchain.FinalityPolicy` — a lock below confirmation
    depth raises :class:`~repro.errors.FinalityPendingError`, and a lock
    orphaned by a reorg raises :class:`~repro.errors.ReorgDetectedError`
    (both travel back as non-OK acks; the proof-carrying ``GetLock`` query
    path surfaces the same conditions as typed wire statuses).
    """

    def __init__(
        self,
        chain,
        ecc_port: InteropPort,
        invoker: Identity,
        contract: str = QUORUM_ASSET_CONTRACT,
        finality=None,
    ) -> None:
        from repro.pubchain.finality import FinalityPolicy

        self._chain = chain
        self._ecc_port = ecc_port
        self._invoker = invoker
        self.contract = contract
        self._finality = finality or FinalityPolicy()
        self._commit_lock = threading.Lock()
        chain.submit_transaction(
            invoker, contract, "AuthorizeInvoker", [invoker.name]
        )

    def _check(self, auth: AuthInfo | None, function: str) -> None:
        creator = authenticated_certificate(auth)
        if auth.requesting_network == self._chain.name:
            validate_local_member(
                creator, self._chain.export_config(), self._chain.name
            )
            return
        self._ecc_port.check_access(
            auth.requesting_network,
            auth.requesting_org,
            self.contract,
            function,
            creator,
        )

    def _commit_and_read(
        self, command: AssetCommandMsg, function: str, args: list[str]
    ) -> AssetAckMsg:
        with self._commit_lock:
            tx = self._chain.submit_transaction(
                self._invoker, self.contract, function, args
            )
            record = self._read_lock(command.asset_id)
        return lock_ack(command, record, tx.tx_id, self._chain.height_of(tx.tx_id))

    def _read_lock_with_keys(self, asset_id: str) -> tuple[dict, frozenset]:
        raw, read_keys = self._chain.view(
            self._invoker, self.contract, "GetLock", [asset_id]
        )
        return json.loads(raw), read_keys

    def _read_lock(self, asset_id: str) -> dict:
        record, _read_keys = self._read_lock_with_keys(asset_id)
        return record

    def _require_settled_lock(self, asset_id: str) -> None:
        """Refuse to act on a pending or reorged-out lock record."""
        from repro.errors import FinalityPendingError, ReorgDetectedError
        from repro.pubchain.finality import VERB_ASSETS

        _record, read_keys = self._read_lock_with_keys(asset_id)
        reorged = self._chain.reorged_keys(self.contract, read_keys)
        if reorged:
            raise ReorgDetectedError(
                f"lock on asset {asset_id!r} was orphaned by a chain reorg on "
                f"{self._chain.name!r}; re-verify before claiming"
            )
        depth = self._chain.confirmation_depth(self.contract, read_keys)
        required = self._finality.required(VERB_ASSETS)
        if depth is not None and depth < required:
            raise FinalityPendingError(
                f"lock on asset {asset_id!r} has {depth} of {required} required "
                f"confirmation(s) on {self._chain.name!r}; pending, not claimable"
            )

    def lock_asset(self, command: AssetCommandMsg) -> AssetAckMsg:
        self._check(command.auth, "LockAsset")
        return self._commit_and_read(
            command,
            "LockAsset",
            [
                command.asset_id,
                acting_party(command.auth),
                command.recipient,
                command.hashlock.hex(),
                repr(command.timeout),
            ],
        )

    def claim_asset(self, command: AssetCommandMsg) -> AssetAckMsg:
        self._check(command.auth, "ClaimAsset")
        self._require_settled_lock(command.asset_id)
        return self._commit_and_read(
            command,
            "ClaimAsset",
            [command.asset_id, acting_party(command.auth), command.preimage.hex()],
        )

    def unlock_asset(self, command: AssetCommandMsg) -> AssetAckMsg:
        self._check(command.auth, "UnlockAsset")
        return self._commit_and_read(
            command, "UnlockAsset", [command.asset_id, acting_party(command.auth)]
        )

    def asset_status(self, command: AssetCommandMsg) -> AssetAckMsg:
        self._check(command.auth, "GetLock")
        return lock_ack(command, self._read_lock(command.asset_id))


class QuorumAssetLedgerPort(AssetLedgerPort):
    """Drives the :class:`~repro.assets.contracts.QuorumAssetContract`.

    Exposure control and certificate authentication go through the
    network's :class:`~repro.interop.contracts.ports.InteropPort` (the
    platform port of the ECC/CMDAC functions); block production serializes
    on an internal lock like the Fabric port.
    """

    def __init__(
        self,
        network: QuorumNetwork,
        ecc_port: InteropPort,
        invoker: Identity,
        contract: str = QUORUM_ASSET_CONTRACT,
    ) -> None:
        self._network = network
        self._ecc_port = ecc_port
        self._invoker = invoker
        self.contract = contract
        self._commit_lock = threading.Lock()
        # On-ledger invoker authorization, as on the Fabric side: the vault
        # binds acting parties to transaction creators, and this block
        # makes the port's invoker an accepted delegate.
        network.submit_transaction(
            invoker, contract, "AuthorizeInvoker", [invoker.name]
        )

    def _check(self, auth: AuthInfo | None, function: str) -> None:
        creator = authenticated_certificate(auth)
        if auth.requesting_network == self._network.name:
            validate_local_member(
                creator, self._network.export_config(), self._network.name
            )
            return
        self._ecc_port.check_access(
            auth.requesting_network,
            auth.requesting_org,
            self.contract,
            function,
            creator,
        )

    def _commit_and_read(
        self, command: AssetCommandMsg, function: str, args: list[str]
    ) -> AssetAckMsg:
        with self._commit_lock:
            tx = self._network.submit_transaction(
                self._invoker, self.contract, function, args
            )
            block = len(self._network.blocks) - 1
            record = self._read_lock(command.asset_id)
        return lock_ack(command, record, tx.tx_id, block)

    def _read_lock(self, asset_id: str) -> dict:
        peer = self._network.peers[0]
        ctx = CallContext(
            sender=self._invoker.id,
            sender_org=self._invoker.org,
            timestamp=self._network.clock.now(),
        )
        raw = peer.view(self.contract, "GetLock", [asset_id], ctx)
        return json.loads(raw)

    def lock_asset(self, command: AssetCommandMsg) -> AssetAckMsg:
        self._check(command.auth, "LockAsset")
        return self._commit_and_read(
            command,
            "LockAsset",
            [
                command.asset_id,
                acting_party(command.auth),
                command.recipient,
                command.hashlock.hex(),
                repr(command.timeout),
            ],
        )

    def claim_asset(self, command: AssetCommandMsg) -> AssetAckMsg:
        self._check(command.auth, "ClaimAsset")
        return self._commit_and_read(
            command,
            "ClaimAsset",
            [command.asset_id, acting_party(command.auth), command.preimage.hex()],
        )

    def unlock_asset(self, command: AssetCommandMsg) -> AssetAckMsg:
        self._check(command.auth, "UnlockAsset")
        return self._commit_and_read(
            command, "UnlockAsset", [command.asset_id, acting_party(command.auth)]
        )

    def asset_status(self, command: AssetCommandMsg) -> AssetAckMsg:
        self._check(command.auth, "GetLock")
        return lock_ack(command, self._read_lock(command.asset_id))
