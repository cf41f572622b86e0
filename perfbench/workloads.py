"""The three workloads: inputs from a seed, set-up, one op, output checks.

Each workload builds real networks whose source relays sit behind an
in-process :class:`repro.net.RelayServer` on loopback TCP (the deployed
path), so every op crosses a socket, carries real endorsements and
signatures, and is accepted only once its proofs verify.
"""

from __future__ import annotations

import json
import random
import shutil
import string
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.api import InteropGateway
from repro.assets import FabricAssetChaincode, QuorumAssetContract
from repro.fabric import Chaincode, NetworkBuilder
from repro.fabric.chaincode import require_args
from repro.fabric.state import namespaced
from repro.interop import InMemoryRegistry, InteropClient, RelayService
from repro.interop.bootstrap import (
    create_fabric_relay,
    enable_fabric_interop,
    link_networks,
    record_foreign_network,
)
from repro.interop.contracts.ports import InteropPort
from repro.interop.drivers.quorum_driver import QuorumDriver
from repro.interop.transactions import enable_remote_transactions
from repro.net import RelayServer
from repro.quorum import QuorumNetwork
from repro.store import open_store

SOURCE = "src-net"
DEST = "dst-net"
ORG_A, ORG_B = "org-a", "org-b"
CONSUMER = "consumer-org"
SOURCE_POLICY = f"AND(org:{ORG_A}, org:{ORG_B})"
DOC_ADDRESS = f"{SOURCE}/main/docs/Get"
PUT_ADDRESS = f"{SOURCE}/main/docs/Put"

#: Documents in the query workload, and their size range (bytes). A run
#: ends on a whole pass, so a 35 s run (4-5 passes, 180-225 ops) weighs
#: every size alike; its nearest-rank p50 and p90 are each one measured
#: latency, never the average of two documents of different sizes.
N_DOCUMENTS = 45
DOC_MIN, DOC_MAX = 512, 8192
#: Value size of every transact write (bytes).
TX_VALUE_BYTES = 256
#: Asset pairs issued per batch; a swap run issues another batch, off the
#: clock, whenever the issued pairs run out.
PAIR_BATCH = 16

FABNET, QUORNET = "fabnet", "quornet"
OP_ORG_1, OP_ORG_2 = "op-org-1", "op-org-2"
QUORUM_POLICY = f"AND(org:{OP_ORG_1}, org:{OP_ORG_2})"
OFFER_ADDRESS = f"{FABNET}/trade/assetscc"
ASK_ADDRESS = f"{QUORNET}/state/asset-vault"

_TEXT = string.ascii_letters + string.digits


class DocumentChaincode(Chaincode):
    """The source contract: the quickstart's ``docs`` shape (store and
    fetch documents, with the ECC check and response sealing on relay
    queries), plus ``PutMany`` so set-up seeds every document in one
    transaction."""

    name = "docs"

    def invoke(self, stub):
        if stub.function == "init":
            return b"ok"
        if stub.function == "Put":
            key, value = require_args(stub, 2)
            stub.put_state(key, value.encode())
            return b"ok"
        if stub.function == "PutMany":
            (documents,) = require_args(stub, 1)
            for key, value in json.loads(documents).items():
                stub.put_state(key, value.encode())
            return b"ok"
        if stub.function == "Get":
            (key,) = require_args(stub, 1)
            value = stub.get_state(key)
            if value is None:
                raise ValueError(f"no document {key!r}")
            interop_raw = stub.get_transient("interop")
            if interop_raw is None:
                return value
            ctx = json.loads(interop_raw)
            stub.invoke_chaincode(
                "ecc", "CheckAccess",
                [ctx["requesting_network"], ctx["requesting_org"], self.name, "Get"],
            )
            return stub.invoke_chaincode(
                "ecc", "SealResponse",
                [value.hex(), ctx["client_pubkey"], "true" if ctx["confidential"] else "false"],
            )
        raise ValueError(f"unknown function {stub.function}")


# -- seeded inputs ------------------------------------------------------------------


def _text(rng: random.Random, size: int) -> str:
    return "".join(rng.choices(_TEXT, k=size))


def document_sizes(count: int = N_DOCUMENTS) -> list[int]:
    """Log-uniform sizes in [DOC_MIN, DOC_MAX]: the midpoints of ``count``
    equal-width strata of the log range. Every seed gets the same sizes,
    so run-to-run medians do not move with the draw; the seed varies the
    contents and the order."""
    ratio = DOC_MAX / DOC_MIN
    return [round(DOC_MIN * ratio ** ((i + 0.5) / count)) for i in range(count)]


def make_documents(seed: int) -> dict[str, str]:
    rng = random.Random(f"documents-{seed}")
    sizes = document_sizes()
    rng.shuffle(sizes)
    return {f"doc-{index:03d}": _text(rng, size) for index, size in enumerate(sizes)}


def query_order(seed: int, keys: list[str]):
    """Endless document keys: each pass over the set in a fresh seeded order."""
    rng = random.Random(f"query-order-{seed}")
    while True:
        order = sorted(keys)
        rng.shuffle(order)
        yield from order


def transact_inputs(seed: int):
    """Endless (key, value) writes: fresh keys, ``TX_VALUE_BYTES`` values."""
    rng = random.Random(f"transact-{seed}")
    index = 0
    while True:
        yield f"w{seed:08d}-{index:06d}", _text(rng, TX_VALUE_BYTES)
        index += 1


def asset_pair(seed: int, index: int) -> tuple[str, str]:
    return f"GOLD-{seed}-{index:05d}", f"OIL-{seed}-{index:05d}"


# -- scenarios ----------------------------------------------------------------------


@dataclass
class Served:
    """One source relay behind its loopback server."""

    relay: RelayService
    server: RelayServer


class Scenario:
    """Networks, servers and inputs of one set-up; ``op`` is the timed call."""

    #: Whether an input may be used for more than one op (read-only ops).
    repeatable = False
    #: Ops in one pass over inputs of differing cost; the measured loop
    #: stops on a pass boundary so every run weighs each input alike.
    pass_length = 1
    #: Traced ops per traced run: a fixed count keeps the per-op counts
    #: identical across runs of one seed.
    traced_ops = 40

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = Path(tempfile.mkdtemp(prefix="state-", dir=workdir))
        self.served: list[Served] = []
        self.endpoints = []
        self.fabric_networks = []
        self.registry = InMemoryRegistry()

    def serve(self, relay: RelayService, *names: str) -> None:
        server = RelayServer(relay, max_workers=4).start()
        self.served.append(Served(relay, server))
        for name in names:
            endpoint = server.endpoint(timeout=30.0)
            self.endpoints.append(endpoint)
            self.registry.register(name, endpoint)

    def state_dir(self, name: str) -> str:
        return str(self.workdir / name)

    def counters(self) -> dict[str, int]:
        """Program counters read at op boundaries by the traced run."""
        return {
            "fabric.blocks": sum(n.orderer.blocks_delivered for n in self.fabric_networks),
            "relay.errors": sum(
                s.relay.stats.requests_failed + s.relay.stats.requests_rejected
                for s in self.served
            ),
            "net.dials": sum(e.connections_dialed for e in self.endpoints),
        }

    def bound_method_holders(self) -> list[list]:
        """Lists holding bound methods captured at set-up (the orderers'
        committer lists hold ``peer.commit_block``)."""
        return [network.orderer._committers for network in self.fabric_networks]

    def prepare(self) -> None:
        """Input preparation before the next op; the harness keeps it off
        the measured clock."""

    def next_input(self):
        raise NotImplementedError

    def op(self, item):
        raise NotImplementedError

    def check(self, item, result) -> bool:
        """Inline output check, outside the timed call."""
        raise NotImplementedError

    def finish(self) -> int:
        """Checks after the measured phase; returns the count of failed ops."""
        return 0

    def close(self) -> None:
        for endpoint in self.endpoints:
            endpoint.close()
        for served in self.served:
            served.server.stop()
            served.relay.store.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


class DocumentScenario(Scenario):
    """A two-org Fabric source under ``AND(org:A, org:B)`` serving the
    ``docs`` contract to a one-org destination, with a durable source
    relay that also takes remote transactions."""

    def __init__(self, seed: int, workdir: Path, documents: dict[str, str]) -> None:
        super().__init__(seed, workdir)
        self.documents = documents
        source = (
            NetworkBuilder(SOURCE)
            .add_org(ORG_A).add_org(ORG_B)
            .add_peer("peer0", ORG_A).add_peer("peer0", ORG_B)
            .add_client("admin", ORG_A)
            .build()
        )
        destination = (
            NetworkBuilder(DEST)
            .add_org(CONSUMER).add_peer("peer0", CONSUMER)
            .add_client("admin", CONSUMER).add_client("app", CONSUMER)
            .build()
        )
        self.source = source
        self.fabric_networks = [source, destination]
        admin = source.org(ORG_A).member("admin")
        dest_admin = destination.org(CONSUMER).member("admin")
        enable_fabric_interop(source, admin)
        enable_fabric_interop(destination, dest_admin)
        source.deploy_chaincode(
            DocumentChaincode(), f"AND('{ORG_A}.peer', '{ORG_B}.peer')", initializer=admin
        )
        link_networks(destination, dest_admin, source, admin, policy_a_about_b=SOURCE_POLICY)
        for function in ("Get", "Put"):
            source.gateway.submit(admin, "ecc", "AddAccessRule", [DEST, CONSUMER, "docs", function])
        if documents:
            source.gateway.submit(admin, "docs", "PutMany", [json.dumps(documents)])

        relay = create_fabric_relay(
            source, InMemoryRegistry(), register=False, state_dir=self.state_dir("source")
        )
        invoker = source.org(ORG_A).enroll("interop-invoker", role="client")
        enable_remote_transactions(source, relay, invoker)
        self.serve(relay, SOURCE, SOURCE + "#tx")
        app = destination.org(CONSUMER).member("app")
        self.gateway = InteropGateway(
            app, RelayService(DEST, self.registry), DEST, ledger_gateway=destination.gateway
        )

    def stored(self, key: str) -> list[bytes | None]:
        """The value of ``docs/key`` on every source peer's world state."""
        values = []
        for peer in self.source.peers:
            record = peer.state.get(namespaced("docs", key))
            values.append(None if record is None else record.value)
        return values


class QueryScenario(DocumentScenario):
    repeatable = True
    pass_length = traced_ops = N_DOCUMENTS

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir, make_documents(seed))
        self._order = query_order(seed, list(self.documents))
        self.op(next(iter(sorted(self.documents))))  # warm-up: dial + caches

    def next_input(self):
        return next(self._order)

    def op(self, key):
        return self.gateway.query(DOC_ADDRESS).with_args(key).confidential().execute()

    def check(self, key, result) -> bool:
        orgs = {attestation.metadata().org for attestation in result.proof.attestations}
        return result.data == self.documents[key].encode() and {ORG_A, ORG_B} <= orgs


class TransactScenario(DocumentScenario):
    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir, {})
        self._inputs = transact_inputs(seed)
        self.written: list[tuple[str, str, str]] = []
        self.op(("warm-up", "x" * TX_VALUE_BYTES))

    def next_input(self):
        return next(self._inputs)

    def op(self, item):
        key, value = item
        return self.gateway.transact(PUT_ADDRESS).with_args(key, value).execute()

    def check(self, item, result) -> bool:
        if not result.tx_id or not set(result.attesting_orgs) >= {ORG_A, ORG_B}:
            return False
        self.written.append((item[0], item[1], result.tx_id))
        return True

    def finish(self) -> int:
        """Every key reads back from every source peer; tx ids are distinct."""
        failed = sum(
            1 for key, value, _ in self.written
            if any(stored != value.encode() for stored in self.stored(key))
        )
        tx_ids = [tx_id for _, _, tx_id in self.written]
        return failed + len(tx_ids) - len(set(tx_ids))


class SwapScenario(Scenario):
    """A two-party Fabric↔Quorum HTLC exchange per op, over pre-issued
    seeded asset pairs; both serving relays keep durable state."""

    traced_ops = 12

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        fabric = (
            NetworkBuilder(FABNET, channel="trade")
            .add_org(ORG_A).add_org(ORG_B)
            .add_peer("peer0", ORG_A).add_peer("peer0", ORG_B)
            .add_client("admin", ORG_A).add_client("alice", ORG_A)
            .build()
        )
        self.fabric = fabric
        self.fabric_networks = [fabric]
        self.admin = fabric.org(ORG_A).member("admin")
        enable_fabric_interop(fabric, self.admin)
        fabric.deploy_chaincode(
            FabricAssetChaincode(), f"AND('{ORG_A}.peer', '{ORG_B}.peer')",
            initializer=self.admin,
        )
        quorum = QuorumNetwork(QUORNET)
        quorum.deploy_contract(QuorumAssetContract())
        quorum.add_peer("peer1", OP_ORG_1)
        quorum.add_peer("peer2", OP_ORG_2)
        self.quorum = quorum
        bob = quorum.enroll_client("bob", OP_ORG_1)
        self.quorum_invoker = quorum.enroll_client("asset-invoker", OP_ORG_1)
        port = InteropPort(QUORNET)
        port.record_network_config(fabric.export_config())
        for function in ("LockAsset", "ClaimAsset", "UnlockAsset", "GetLock"):
            port.add_access_rule(FABNET, ORG_A, "asset-vault", function)
        for function in ("ClaimAsset", "UnlockAsset", "GetLock"):
            fabric.gateway.submit(
                self.admin, "ecc", "AddAccessRule", [QUORNET, OP_ORG_1, "assetscc", function]
            )
        record_foreign_network(fabric, self.admin, quorum, verification_policy=QUORUM_POLICY)

        fabric_relay = create_fabric_relay(
            fabric, InMemoryRegistry(), register=False, state_dir=self.state_dir("fabnet")
        )
        fabric_relay.driver_for(FABNET).enable_assets(
            fabric.org(ORG_A).enroll("asset-invoker", role="client")
        )
        quorum_relay = RelayService(
            QUORNET, InMemoryRegistry(), store=open_store(self.state_dir("quornet"))
        )
        driver = QuorumDriver(quorum, port)
        driver.enable_assets(self.quorum_invoker)
        quorum_relay.register_driver(driver)
        self.serve(fabric_relay, FABNET)
        self.serve(quorum_relay, QUORNET)

        alice = fabric.org(ORG_A).member("alice")
        self.gateway = InteropGateway.from_client(
            InteropClient(alice, RelayService(FABNET, self.registry), FABNET,
                          gateway=fabric.gateway)
        )
        self.bob = InteropClient(bob, RelayService(QUORNET, self.registry), QUORNET)
        self.issued = 0
        self.used = 0
        self.swapped: list[int] = []
        self.issue_batch()
        self.op(self.next_input())  # warm-up: dials + caches on both sides

    def issue_batch(self) -> None:
        """Issue ``PAIR_BATCH`` more seeded asset pairs."""
        for index in range(self.issued, self.issued + PAIR_BATCH):
            gold, oil = asset_pair(self.seed, index)
            self.fabric.gateway.submit(
                self.admin, "assetscc", "Issue", [gold, f"alice@{FABNET}", "{}"]
            )
            self.quorum.submit_transaction(
                self.quorum_invoker, "asset-vault", "Issue", [oil, f"bob@{QUORNET}", "{}"]
            )
        self.issued += PAIR_BATCH

    def prepare(self) -> None:
        if self.used == self.issued:
            self.issue_batch()

    def next_input(self) -> int:
        self.used += 1
        return self.used - 1

    def op(self, index: int):
        gold, oil = asset_pair(self.seed, index)
        return (
            self.gateway.exchange()
            .offer(OFFER_ADDRESS, gold)
            .ask(ASK_ADDRESS, oil)
            .with_counterparty(self.bob)
            .with_timeouts(offer=600.0, counter=300.0)
            .with_policies(offer=SOURCE_POLICY, ask=QUORUM_POLICY)
            .run()
        )

    def check(self, index: int, result) -> bool:
        if result.completed:
            self.swapped.append(index)
        return result.completed

    def owners(self, index: int) -> tuple[set[str], set[str]]:
        """The owner of each asset of a pair, as every peer of its ledger sees it."""
        gold, oil = asset_pair(self.seed, index)
        gold_owners = {
            json.loads(peer.state.get(namespaced("assetscc", f"asset/{gold}")).value)["owner"]
            for peer in self.fabric.peers
        }
        oil_owners = {
            json.loads(peer.storage_snapshot("asset-vault")[f"asset/{oil}"])["owner"]
            for peer in self.quorum.peers
        }
        return gold_owners, oil_owners

    def finish(self) -> int:
        """Every swap flipped both owners."""
        flipped = ({f"bob@{QUORNET}"}, {f"alice@{FABNET}"})
        return sum(1 for index in self.swapped if self.owners(index) != flipped)


WORKLOADS = {
    "query": QueryScenario,
    "transact": TransactScenario,
    "swap": SwapScenario,
}
