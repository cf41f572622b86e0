"""Measurement: set-up, the closed measured loop, and the traced run."""

from __future__ import annotations

import gc
import math
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from perfbench.layers import LAYERS, TARGETS
from perfbench.tracing import Tracer, self_times
from perfbench.workloads import WORKLOADS

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 7
#: Fewest ops per untraced run, so that at least 10 latencies lie beyond
#: the reported p90. The measured loop runs past ``--seconds`` until it
#: has them and until it ends on a whole pass over the inputs.
MIN_OPS = 100


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` of
    the sample at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the nearest-rank
    ``q`` percentile (for distinct values)."""
    return count - max(1, math.ceil(q * count))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def set_up(workload: str, seed: int, workdir: Path, times: int):
    """Build the workload ``times`` times (closing all but the last) and
    return the last scenario with every set-up's duration."""
    factory = WORKLOADS[workload]
    scenario, durations = None, []
    for _ in range(times):
        if scenario is not None:
            scenario.close()
            scenario = None
            gc.collect()
        started = time.perf_counter()
        scenario = factory(seed, workdir)
        durations.append(time.perf_counter() - started)
    return scenario, durations


def _timed_op(scenario, item, tracer: Tracer | None = None, trace_id: str = ""):
    """Run one op and check its output; returns its latency (s), or None
    when it failed. With a ``tracer`` the op is the root span."""
    if tracer is not None:
        tracer.begin_op(trace_id)
    started = time.perf_counter()
    try:
        result = scenario.op(item)
    except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
        if tracer is not None:
            tracer.end_op("error")
        _log(f"op failed: {type(exc).__name__}: {exc}")
        return None
    latency = time.perf_counter() - started
    if tracer is not None:
        tracer.end_op()
    if not scenario.check(item, result):
        _log(f"op returned wrong data for input {item!r:.80}")
        return None
    return latency


def run_untraced(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    """Set up ``SETUPS`` times, then run the closed loop with tracing off."""
    scenario, setups = set_up(workload, seed, workdir, SETUPS)
    latencies: list[float] = []
    attempted = failed = 0
    paused = 0.0
    try:
        started = time.perf_counter()
        while (time.perf_counter() - started - paused < seconds or attempted < MIN_OPS
               or attempted % scenario.pass_length):
            prepared = time.perf_counter()
            scenario.prepare()  # input preparation (asset issuance) is off the clock
            paused += time.perf_counter() - prepared
            item = scenario.next_input()
            attempted += 1
            latency = _timed_op(scenario, item)
            if latency is None:
                failed += 1
            else:
                latencies.append(latency)
        wall = time.perf_counter() - started - paused
        failed += scenario.finish()
    finally:
        scenario.close()
    verified = attempted - failed
    return {
        "attempted": attempted,
        "failed": failed,
        "samples": len(latencies),
        "setups_s": setups,
        "metrics": {
            "setup_s": (statistics.median(setups), "s"),
            "latency_p50_ms": (percentile(latencies, 0.50) * 1e3, "ms"),
            "latency_p90_ms": (percentile(latencies, 0.90) * 1e3, "ms"),
            "ops_per_s": (verified / wall, "1/s"),
            "error_rate": (failed / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        },
    }


def run_traced(workload: str, seed: int, workdir: Path, trace_path: Path | None = None,
               ops: int | None = None) -> dict:
    """Alternate an untraced and a traced op ``traced_ops`` times; the
    per-layer metrics come from the traced ops only. Read-only workloads
    run both ops of a pair on the same input, so the overhead compares
    like with like."""
    scenario, _ = set_up(workload, seed, workdir, 1)
    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    counts: Counter = Counter()
    attempted = failed = 0
    ops = ops or scenario.traced_ops
    try:
        for index in range(ops):
            item = None
            for tracing in (False, True):
                scenario.prepare()
                if item is None or not scenario.repeatable:
                    item = scenario.next_input()
                attempted += 1
                if not tracing:
                    latency = _timed_op(scenario, item)
                else:
                    before = scenario.counters()
                    tracer.install(TARGETS)
                    for holder in scenario.bound_method_holders():
                        tracer.rebind_bound_methods(holder)
                    latency = _timed_op(scenario, item, tracer, f"{workload}-{seed}-{index:04d}")
                    tracer.uninstall()
                    counts.update({k: v - before[k] for k, v in scenario.counters().items()})
                if latency is None:
                    failed += 1
                else:
                    (traced if tracing else untraced).append(latency)
        failed += scenario.finish()
    finally:
        scenario.close()
    if trace_path is not None:
        tracer.write(trace_path)
    metrics = layer_metrics(tracer.spans, ops, counts)
    untraced_p50 = statistics.median(untraced) * 1e3
    traced_p50 = statistics.median(traced) * 1e3
    metrics["trace.untraced_p50_ms"] = (untraced_p50, "ms")
    metrics["trace.traced_p50_ms"] = (traced_p50, "ms")
    metrics["trace.overhead_pct"] = ((traced_p50 - untraced_p50) / untraced_p50 * 100.0, "%")
    return {
        "attempted": attempted,
        "failed": failed,
        "samples": len(traced),
        "binding_sites": tracer.binding_sites,
        "metrics": metrics,
    }


def layer_metrics(spans, ops: int, counts) -> dict:
    """Per-op layer metrics: call counts, boundary counts and self times.

    Every span's self time is charged to its layer; the root ``op``
    spans' own self time is ``trace.unattributed``. Their sum is the root
    time (``trace.root_ms_per_op``) whenever child spans nest inside their
    parents, which a sequential closed-loop op guarantees.
    """
    selfs = self_times(spans)
    calls: Counter = Counter()
    self_ns: dict[str, int] = defaultdict(int)
    layer_ns: dict[str, int] = defaultdict(int)
    attrs: Counter = Counter()
    root_ns = unattributed_ns = 0
    for span in spans:
        if span.layer == "trace":
            root_ns += span.duration_ns
            unattributed_ns += selfs[span.span_id]
            continue
        calls[span.name] += 1
        self_ns[span.name] += selfs[span.span_id]
        layer_ns[span.layer] += selfs[span.span_id]
        for key, value in span.attrs.items():
            attrs[f"{span.name}.{key}"] += value

    def per_op(value):
        return value / ops

    def ms(ns):
        return per_op(ns) / 1e6

    metrics = {
        "crypto.scalar_mult_fixed.calls_per_op": per_op(attrs["crypto.scalar_mult.fixed"]),
        "crypto.scalar_mult_var.calls_per_op": per_op(attrs["crypto.scalar_mult.var"]),
        "crypto.scalar_mult.self_ms_per_op": ms(self_ns["crypto.scalar_mult"]),
        "crypto.ecdsa_sign.calls_per_op": per_op(calls["crypto.ecdsa_sign"]),
        "crypto.ecdsa_verify.calls_per_op": per_op(calls["crypto.ecdsa_verify"]),
        "crypto.ecies.calls_per_op": per_op(
            calls["crypto.ecies_encrypt"] + calls["crypto.ecies_decrypt"]),
        "crypto.public_key.calls_per_op": per_op(calls["crypto.public_key"]),
        "crypto.validate_chain.calls_per_op": per_op(calls["crypto.validate_chain"]),
        "crypto.chacha20.blocks_per_op": per_op(attrs["crypto.chacha20.blocks"]),
        "crypto.chacha20.self_ms_per_op": ms(self_ns["crypto.chacha20"]),
        "proofs.attestations_per_op": per_op(calls["proofs.generate_attestation"]),
        "proofs.generate.self_ms_per_op": ms(self_ns["proofs.generate_attestation"]),
        "proofs.validate.self_ms_per_op": ms(
            self_ns["proofs.validate_bundle"] + self_ns["proofs.verify_locally"]),
        "proofs.decrypt_attestation.calls_per_op": per_op(calls["proofs.decrypt_attestation"]),
        "relay.requests_per_op": per_op(calls["relay.handle_request"]),
        "relay.errors_per_op": per_op(counts["relay.errors"]),
        "discovery.lookups_per_op": per_op(calls["discovery.lookup"]),
        "net.round_trips_per_op": per_op(calls["net.round_trip"]),
        "net.frame_bytes_per_op": per_op(attrs["net.round_trip.bytes"]),
        "net.dials": float(counts["net.dials"]),
        "wire.codec_calls_per_op": per_op(calls["wire.encode"] + calls["wire.decode"]),
        "fabric.endorse.calls_per_op": per_op(calls["fabric.endorse"]),
        "fabric.endorse.self_ms_per_op": ms(self_ns["fabric.endorse"]),
        "fabric.evaluate.calls_per_op": per_op(calls["fabric.evaluate"]),
        "fabric.blocks_per_op": per_op(counts["fabric.blocks"]),
        "fabric.commit.self_ms_per_op": ms(self_ns["fabric.commit_block"]),
        "quorum.tx.calls_per_op": per_op(calls["quorum.submit_transaction"]),
        "store.apply.calls_per_op": per_op(calls["store.apply"]),
        "store.apply.self_ms_per_op": ms(self_ns["store.apply"]),
        "store.fsyncs_per_op": per_op(calls["store.fsync"]),
        "assets.relay_commands_per_op": per_op(calls["relay.remote_asset"]),
        "assets.verify_queries_per_op": per_op(
            calls["assets.verify_offer"] + calls["assets.verify_counter"]),
        "trace.spans_per_op": per_op(sum(calls.values())),
    }
    units = {name: ("count" if "_ms" not in name else "ms") for name in metrics}
    units["net.frame_bytes_per_op"] = "B"
    for layer in LAYERS:
        name = f"{layer}.self_ms_per_op"
        metrics[name] = ms(layer_ns[layer])
        units[name] = "ms"
    metrics["trace.root_ms_per_op"] = ms(root_ns)
    metrics["trace.unattributed_ms_per_op"] = ms(unattributed_ns)
    units["trace.root_ms_per_op"] = units["trace.unattributed_ms_per_op"] = "ms"
    return {name: (value, units[name]) for name, value in metrics.items()}
