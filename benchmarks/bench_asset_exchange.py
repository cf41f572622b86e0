"""E-assets — atomic exchanges and N-party cycles through real relays.

The HTLC subsystem's throughput experiment, in two parts:

- *exchanges*: N independent asset pairs (one on each network) swapped by
  N concurrent :class:`~repro.assets.AssetExchangeCoordinator` runs, every
  leg riding ``MSG_KIND_ASSET_*`` envelopes plus two proof-carrying
  lock-verification queries per exchange — and, beside that row, the
  same exchange run one at a time on one worker, the way the cycle rows
  run, so the two latencies compare like with like;
- *cycles*: one :class:`~repro.assets.CycleCoordinator` driving an
  N-network ring (each leg on its own Quorum network, ring governance
  wired port-to-port), swept over ring sizes to chart cycles/sec and the
  p95 lock→final-claim window against N.

Both report the lock→claim latency (first escrow to final claim, the
window in which value is at risk) and feed the shared
:class:`BenchReport`; the ``assets`` suite is written to
``BENCH_assets.json`` so the trajectory is tracked in-repo (and uploaded
as a CI artifact).

Each relay is fronted by a :class:`SerializingInterceptor` (the in-process
substrates are not thread-safe), so concurrency buys overlap *across* the
two networks — which is exactly where a real deployment's parallelism
lives too.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.api import InteropGateway, MetricsInterceptor, SerializingInterceptor
from repro.api.middleware import percentile
from repro.assets import FabricAssetChaincode, QuorumAssetContract
from repro.fabric import NetworkBuilder
from repro.interop import InMemoryRegistry, InteropClient, RelayService
from repro.interop.bootstrap import (
    create_fabric_relay,
    enable_fabric_interop,
    record_foreign_network,
)
from repro.interop.contracts.ports import InteropPort
from repro.interop.drivers.quorum_driver import QuorumDriver
from repro.quorum import QuorumNetwork
from repro.sim import format_table
from repro.utils.clock import SimulatedClock

SUITE = "assets"
DEFAULT_JSON = Path(__file__).resolve().parent.parent / "BENCH_assets.json"

N_EXCHANGES = 8
WORKERS = 4
#: Exchanges run back to back on one worker after the concurrent batch.
N_SEQUENTIAL = 8
OFFER_POLICY = "AND(org:traders-org, org:audit-org)"
ASK_POLICY = "AND(org:op-org-1, org:op-org-2)"

#: Ring sizes the cycle sweep charts, and completed cycles per size.
CYCLE_SIZES = (2, 3, 4, 5)
CYCLE_RUNS = 3


@pytest.fixture(scope="module")
def asset_scenario():
    """Two mutually-configured networks with N asset pairs pre-issued."""
    fabric = (
        NetworkBuilder("fabnet", channel="trade")
        .add_org("traders-org")
        .add_org("audit-org")
        .add_peer("peer0", "traders-org")
        .add_peer("peer0", "audit-org")
        .add_client("admin", "traders-org")
        .add_client("alice", "traders-org")
        .build()
    )
    fabric_admin = fabric.org("traders-org").member("admin")
    alice = fabric.org("traders-org").member("alice")
    enable_fabric_interop(fabric, fabric_admin)
    fabric.deploy_chaincode(
        FabricAssetChaincode(),
        "AND('traders-org.peer', 'audit-org.peer')",
        initializer=fabric_admin,
    )

    quorum = QuorumNetwork("quornet")
    quorum.deploy_contract(QuorumAssetContract())
    quorum.add_peer("peer1", "op-org-1")
    quorum.add_peer("peer2", "op-org-2")
    bob = quorum.enroll_client("bob", "op-org-1")
    quorum_invoker = quorum.enroll_client("asset-invoker", "op-org-1")
    quorum_port = InteropPort("quornet")
    quorum_port.record_network_config(fabric.export_config())
    for function in ("LockAsset", "ClaimAsset", "UnlockAsset", "GetLock"):
        quorum_port.add_access_rule("fabnet", "traders-org", "asset-vault", function)

    for index in range(N_EXCHANGES + N_SEQUENTIAL):
        fabric.gateway.submit(
            fabric_admin,
            "assetscc",
            "Issue",
            [f"GOLD-{index}", "alice@fabnet", "{}"],
        )
        quorum.submit_transaction(
            quorum_invoker,
            "asset-vault",
            "Issue",
            [f"OIL-{index}", "bob@quornet", "{}"],
        )

    registry = InMemoryRegistry()
    fabric_metrics = MetricsInterceptor()
    fabric_relay = create_fabric_relay(
        fabric, registry, middleware=[SerializingInterceptor(), fabric_metrics]
    )
    fabric_invoker = fabric.org("traders-org").enroll("asset-invoker", role="client")
    fabric_relay.driver_for("fabnet").enable_assets(fabric_invoker)

    quorum_metrics = MetricsInterceptor()
    quorum_relay = RelayService("quornet", registry)
    quorum_relay.use(SerializingInterceptor(), quorum_metrics)
    quorum_driver = QuorumDriver(quorum, quorum_port)
    quorum_driver.enable_assets(quorum_invoker)
    quorum_relay.register_driver(quorum_driver)
    registry.register("quornet", quorum_relay)

    for function in ("ClaimAsset", "UnlockAsset", "GetLock"):
        fabric.gateway.submit(
            fabric_admin,
            "ecc",
            "AddAccessRule",
            ["quornet", "op-org-1", "assetscc", function],
        )
    record_foreign_network(fabric, fabric_admin, quorum, verification_policy=ASK_POLICY)

    alice_client = InteropClient(alice, fabric_relay, "fabnet", gateway=fabric.gateway)
    bob_client = InteropClient(bob, quorum_relay, "quornet")
    return {
        "gateway": InteropGateway.from_client(alice_client),
        "bob_client": bob_client,
        "fabric_metrics": fabric_metrics,
        "quorum_metrics": quorum_metrics,
        "fabric_relay": fabric_relay,
        "quorum_relay": quorum_relay,
    }


def _run_exchange(scenario, index: int) -> float:
    """One full atomic exchange; returns its lock→claim latency (s)."""
    exchange = (
        scenario["gateway"]
        .exchange()
        .offer("fabnet/trade/assetscc", f"GOLD-{index}")
        .ask("quornet/state/asset-vault", f"OIL-{index}")
        .with_counterparty(scenario["bob_client"])
        .with_timeouts(offer=600.0, counter=300.0)
        .with_policies(offer=OFFER_POLICY, ask=ASK_POLICY)
        .build()
    )
    started = time.perf_counter()
    result = exchange.run()
    elapsed = time.perf_counter() - started
    assert result.completed
    return elapsed


def print_relay_kinds(metrics: MetricsInterceptor, title: str) -> None:
    snapshot = metrics.snapshot()
    rows = [
        (
            name,
            str(detail["requests"]),
            str(detail["errors"]),
            f"{detail['seconds_p50'] * 1e3:8.3f} ms",
            f"{detail['seconds_p95'] * 1e3:8.3f} ms",
            f"{detail['seconds_max'] * 1e3:8.3f} ms",
        )
        for name, detail in snapshot["kinds"].items()
    ]
    print(f"\n{title} ({snapshot['requests_total']} requests)")
    print(format_table(rows, headers=["kind", "requests", "errors", "p50", "p95", "max"]))


def test_concurrent_exchanges_throughput(asset_scenario, bench_report):
    """Acceptance: N concurrent exchanges all complete; report throughput."""
    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=WORKERS) as executor:
        latencies = list(
            executor.map(
                lambda index: _run_exchange(asset_scenario, index),
                range(N_EXCHANGES),
            )
        )
    wall = time.perf_counter() - started
    assert len(latencies) == N_EXCHANGES

    latencies.sort()
    rows = [
        ("exchanges completed", str(N_EXCHANGES), ""),
        ("workers", str(WORKERS), ""),
        ("wall clock", f"{wall * 1e3:9.2f} ms", ""),
        ("throughput", f"{N_EXCHANGES / wall:9.2f}", "exchanges/sec"),
        ("lock→claim p50", f"{percentile(latencies, 0.50) * 1e3:9.2f} ms", ""),
        ("lock→claim p95", f"{percentile(latencies, 0.95) * 1e3:9.2f} ms", ""),
        ("lock→claim max", f"{latencies[-1] * 1e3:9.2f} ms", ""),
    ]
    print(f"\nE-assets — {N_EXCHANGES} concurrent Fabric↔Quorum atomic exchanges")
    print(format_table(rows, headers=["metric", "value", "unit"]))

    # Every exchange crossed both relays (2 fabric + 3 quorum commands each).
    assert asset_scenario["fabric_relay"].stats.asset_commands_served == 2 * N_EXCHANGES
    assert asset_scenario["quorum_relay"].stats.asset_commands_served == 3 * N_EXCHANGES

    print_relay_kinds(
        asset_scenario["fabric_metrics"], "fabnet relay per-kind metrics"
    )
    print_relay_kinds(
        asset_scenario["quorum_metrics"], "quornet relay per-kind metrics"
    )
    bench_report.record(
        SUITE,
        "exchange-2party",
        exchanges=N_EXCHANGES,
        workers=WORKERS,
        exchanges_per_s=N_EXCHANGES / wall,
        lock_to_claim_p50_ms=percentile(latencies, 0.50) * 1e3,
        lock_to_claim_p95_ms=percentile(latencies, 0.95) * 1e3,
        lock_to_claim_max_ms=latencies[-1] * 1e3,
    )


def test_sequential_exchanges_latency(asset_scenario, bench_report):
    """The same exchange, one at a time on one worker: no other exchange
    queues on the serialized relays, as in the cycle rows below."""
    fabric_before = asset_scenario["fabric_relay"].stats.asset_commands_served
    quorum_before = asset_scenario["quorum_relay"].stats.asset_commands_served
    started = time.perf_counter()
    latencies = sorted(
        _run_exchange(asset_scenario, index)
        for index in range(N_EXCHANGES, N_EXCHANGES + N_SEQUENTIAL)
    )
    wall = time.perf_counter() - started
    assert (
        asset_scenario["fabric_relay"].stats.asset_commands_served - fabric_before
        == 2 * N_SEQUENTIAL
    )
    assert (
        asset_scenario["quorum_relay"].stats.asset_commands_served - quorum_before
        == 3 * N_SEQUENTIAL
    )
    rows = [
        ("exchanges completed", str(N_SEQUENTIAL), ""),
        ("workers", "1", ""),
        ("throughput", f"{N_SEQUENTIAL / wall:9.2f}", "exchanges/sec"),
        ("lock→claim p50", f"{percentile(latencies, 0.50) * 1e3:9.2f} ms", ""),
        ("lock→claim p95", f"{percentile(latencies, 0.95) * 1e3:9.2f} ms", ""),
        ("lock→claim max", f"{latencies[-1] * 1e3:9.2f} ms", ""),
    ]
    print(f"\nE-assets — {N_SEQUENTIAL} sequential Fabric↔Quorum atomic exchanges")
    print(format_table(rows, headers=["metric", "value", "unit"]))
    bench_report.record(
        SUITE,
        "exchange-2party-sequential",
        exchanges=N_SEQUENTIAL,
        workers=1,
        exchanges_per_s=N_SEQUENTIAL / wall,
        lock_to_claim_p50_ms=percentile(latencies, 0.50) * 1e3,
        lock_to_claim_p95_ms=percentile(latencies, 0.95) * 1e3,
        lock_to_claim_max_ms=latencies[-1] * 1e3,
    )


# -- N-party cycles --------------------------------------------------------------


def build_quorum_ring(n: int, runs: int):
    """``n`` Quorum networks wired into a swap ring.

    Party ``i`` lives on its own network with its own two-org endorsement
    (so each leg's proof-carrying readbacks attest under a real AND
    policy), and ring governance mirrors the cycle protocol: each vault's
    port admits exactly its downstream neighbour for ``ClaimAsset`` and
    ``GetLock``. ``runs`` asset generations are pre-issued per leg.
    """
    clock = SimulatedClock(1_000.0)
    registry = InMemoryRegistry()
    nodes = []
    for index in range(n):
        name = f"ring{index}"
        network = QuorumNetwork(name, clock=clock)
        network.deploy_contract(QuorumAssetContract())
        network.add_peer("peerA", f"org-a-{index}")
        network.add_peer("peerB", f"org-b-{index}")
        party = network.enroll_client(f"party{index}", f"org-a-{index}")
        invoker = network.enroll_client("asset-invoker", f"org-a-{index}")
        for run in range(runs):
            network.submit_transaction(
                invoker,
                "asset-vault",
                "Issue",
                [f"CY-{index}-{run}", f"party{index}@{name}", "{}"],
            )
        port = InteropPort(name)
        relay = RelayService(name, registry, clock=clock)
        driver = QuorumDriver(network, port)
        driver.enable_assets(invoker)
        relay.register_driver(driver)
        registry.register(name, relay)
        nodes.append(
            SimpleNamespace(
                name=name,
                network=network,
                port=port,
                relay=relay,
                org=f"org-a-{index}",
                policy=f"AND(org:org-a-{index}, org:org-b-{index})",
                client=InteropClient(party, relay, name),
            )
        )
    for index, node in enumerate(nodes):
        downstream = nodes[(index + 1) % n]
        node.port.record_network_config(downstream.network.export_config())
        for function in ("ClaimAsset", "GetLock"):
            node.port.add_access_rule(
                downstream.name, downstream.org, "asset-vault", function
            )
    return nodes


def run_cycle(nodes, run: int) -> float:
    """One full N-party cycle; returns its lock→final-claim latency (s)."""
    builder = InteropGateway.from_client(nodes[0].client).exchange_cycle()
    for index, node in enumerate(nodes):
        builder.leg(
            f"{node.name}/state/asset-vault",
            f"CY-{index}-{run}",
            party=None if index == 0 else node.client,
            policy=node.policy,
        )
    builder.with_window(timeout=7_200.0, hop_gap=120.0)
    started = time.perf_counter()
    result = builder.run()
    elapsed = time.perf_counter() - started
    assert result.completed
    return elapsed


def test_cycle_throughput_vs_ring_size(bench_report):
    """Acceptance: the cycle sweep completes atomically at every ring
    size; cycles/sec and the p95 lock→final-claim window are recorded to
    ``BENCH_assets.json`` (alongside the 2-party exchange entries)."""
    rows = []
    for size in CYCLE_SIZES:
        nodes = build_quorum_ring(size, CYCLE_RUNS)
        started = time.perf_counter()
        latencies = sorted(run_cycle(nodes, run) for run in range(CYCLE_RUNS))
        wall = time.perf_counter() - started
        # Every asset moved one hop around the ring: party i's asset is
        # now owned by party i+1 — the atomicity acceptance, per size.
        for index, node in enumerate(nodes):
            claimer = nodes[(index + 1) % size]
            for run in range(CYCLE_RUNS):
                raw = node.network.peers[0].storage_snapshot("asset-vault")[
                    f"asset/CY-{index}-{run}"
                ]
                assert f'"{claimer.client.identity.name}@' in raw.decode()
        p95 = percentile(latencies, 0.95)
        rows.append(
            (
                str(size),
                f"{CYCLE_RUNS / wall:8.2f}",
                f"{percentile(latencies, 0.50) * 1e3:9.2f} ms",
                f"{p95 * 1e3:9.2f} ms",
                f"{latencies[-1] * 1e3:9.2f} ms",
            )
        )
        bench_report.record(
            SUITE,
            f"cycle-{size}party",
            legs=size,
            cycles=CYCLE_RUNS,
            cycles_per_s=CYCLE_RUNS / wall,
            lock_to_claim_p50_ms=percentile(latencies, 0.50) * 1e3,
            lock_to_claim_p95_ms=p95 * 1e3,
            lock_to_claim_max_ms=latencies[-1] * 1e3,
        )
    print(
        f"\nE-assets — N-party cyclic swaps ({CYCLE_RUNS} cycles per ring size)"
    )
    print(
        format_table(
            rows,
            headers=["legs", "cycles/s", "p50", "p95", "max"],
        )
    )
    target = bench_report.write_suite(SUITE, DEFAULT_JSON)
    print(f"assets trajectory written to {target}")
