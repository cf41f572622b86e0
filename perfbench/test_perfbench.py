"""Tests for the benchmark harness's own arithmetic, inputs and tracer."""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from perfbench import harness, workloads
from perfbench.layers import LAYERS, TARGETS
from perfbench.tracing import Span, Target, Tracer, covered_ns, self_times


def _span(span_id, parent_id, start, end, layer="crypto"):
    return Span(span_id, parent_id, "t", f"s{span_id}", layer, start, end)


# -- self time ----------------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        _span(1, None, 0, 100),
        _span(2, 1, 10, 40),
        _span(3, 2, 15, 25),  # grandchild: charged to span 2, not span 1
        _span(4, 1, 50, 60),
    ]
    assert self_times(spans) == {1: 60, 2: 20, 3: 10, 4: 10}


def test_self_time_counts_overlapping_children_once():
    spans = [_span(1, None, 0, 100), _span(2, 1, 10, 50), _span(3, 1, 30, 70)]
    assert self_times(spans)[1] == 40  # union [10, 70] covers 60


def test_covered_time_clips_children_to_the_parent():
    assert covered_ns(10, 20, [(0, 15), (18, 40)]) == 7
    assert covered_ns(10, 20, [(20, 30), (0, 10)]) == 0
    assert covered_ns(0, 100, [(10, 20), (10, 20), (15, 30)]) == 20


def test_layer_self_times_sum_to_the_root():
    spans = [
        _span(1, None, 0, 100, layer="trace"),
        _span(2, 1, 5, 95, layer="client"),
        _span(3, 2, 10, 60, layer="net"),
        _span(4, 3, 20, 50, layer="relay"),
        _span(5, 4, 25, 45, layer="crypto"),
    ]
    metrics = harness.layer_metrics(spans, ops=2, counts=Counter())
    layer_sum = sum(metrics[f"{layer}.self_ms_per_op"][0] for layer in LAYERS)
    total = layer_sum + metrics["trace.unattributed_ms_per_op"][0]
    assert total == pytest.approx(metrics["trace.root_ms_per_op"][0])
    assert metrics["trace.unattributed_ms_per_op"][0] == pytest.approx(10 / 2 / 1e6)


# -- percentiles --------------------------------------------------------------------


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert harness.percentile(values, 0.90) == 90
    assert harness.percentile(values, 0.50) == 50
    assert harness.percentile([7.0], 0.90) == 7.0
    assert harness.percentile([3, 1, 2], 0.90) == 3
    with pytest.raises(ValueError):
        harness.percentile([], 0.5)


@pytest.mark.parametrize("count", [100, 101, 120, 160, 250])
def test_reported_p90_has_ten_samples_beyond_it(count):
    values = list(range(count))
    p90 = harness.percentile(values, 0.90)
    assert sum(1 for value in values if value > p90) == harness.samples_beyond(count, 0.90)
    assert harness.samples_beyond(count, 0.90) >= 10


def test_minimum_run_leaves_ten_samples_beyond_p90():
    assert harness.samples_beyond(harness.MIN_OPS, 0.90) >= 10
    assert harness.samples_beyond(harness.MIN_OPS - 1, 0.90) < 10


# -- seeded inputs ------------------------------------------------------------------


def test_same_seed_gives_same_inputs():
    assert workloads.make_documents(5) == workloads.make_documents(5)
    assert workloads.make_documents(5) != workloads.make_documents(6)
    keys = list(workloads.make_documents(5))

    def first(generator, count):
        return [next(generator) for _ in range(count)]

    assert first(workloads.query_order(5, keys), 90) == first(workloads.query_order(5, keys), 90)
    assert first(workloads.query_order(5, keys), 40) != first(workloads.query_order(6, keys), 40)
    assert first(workloads.transact_inputs(5), 3) == first(workloads.transact_inputs(5), 3)
    assert first(workloads.transact_inputs(5), 3) != first(workloads.transact_inputs(6), 3)
    assert workloads.asset_pair(5, 3) == workloads.asset_pair(5, 3) != workloads.asset_pair(6, 3)


def test_inputs_have_the_declared_shape():
    sizes = workloads.document_sizes()
    assert len(sizes) == workloads.N_DOCUMENTS
    assert workloads.DOC_MIN <= min(sizes) and max(sizes) <= workloads.DOC_MAX
    assert sizes == sorted(sizes)  # one per log stratum, smallest first
    documents = workloads.make_documents(3)
    assert sorted(len(value) for value in documents.values()) == sizes
    keys = list(documents)
    order = workloads.query_order(3, keys)
    assert sorted(next(order) for _ in keys) == sorted(keys)  # a pass visits each once
    key, value = next(workloads.transact_inputs(3))
    assert len(value) == workloads.TX_VALUE_BYTES


# -- tracer binding sites -----------------------------------------------------------


def _function_targets():
    import importlib

    return [
        getattr(importlib.import_module(t.module), t.qualname)
        for t in TARGETS if "." not in t.qualname
    ]


def test_install_wraps_every_binding_site_and_uninstall_restores_it():
    import repro.crypto.aead as aead
    import repro.crypto.chacha20 as chacha20
    import repro.interop.proofs as proofs
    from repro.fabric.peer import Peer

    originals = _function_targets()
    before = {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name.startswith("repro")
        for attr, value in vars(module).items()
        if any(value is fn for fn in originals)
    }
    verify_sites = {name for name, attr in before if attr == "verify"}
    assert len(verify_sites) >= 5  # ``verify`` is imported by name widely
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        for (name, attr), original in before.items():
            assert getattr(sys.modules[name], attr) is not original, f"{name}.{attr}"
        assert aead.chacha20_xor is chacha20.chacha20_xor is not before[
            ("repro.crypto.chacha20", "chacha20_xor")]
        assert "repro.interop.proofs.verify" in tracer.binding_sites
        committers = [Peer.commit_block.__wrapped_by_perfbench__.__get__(object())]
        tracer.rebind_bound_methods(committers)
        assert committers[0].__func__ is Peer.commit_block
    finally:
        tracer.uninstall()
    for (name, attr), original in before.items():
        assert getattr(sys.modules[name], attr) is original
    assert not hasattr(Peer.commit_block, "__wrapped_by_perfbench__")
    assert proofs.verify is before[("repro.interop.proofs", "verify")]


def test_spans_on_a_serving_thread_attach_to_the_open_round_trip():
    import threading

    tracer = Tracer()

    def serve():
        return inner()

    def inner():
        return 1

    def round_trip():
        worker = threading.Thread(target=wrapped_serve)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    wrapped_serve = tracer._wrap(serve, Target("m", "serve", "relay.handle_request", "relay"))
    inner = tracer._wrap(inner, Target("m", "inner", "driver.x", "driver"))
    wrapped_trip = tracer._wrap(
        round_trip, Target("m", "round_trip", "net.round_trip", "net", remote=True))
    tracer.begin_op("op-1")
    wrapped_trip()
    root = tracer.end_op()
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["net.round_trip"].parent_id == root.span_id
    assert by_name["relay.handle_request"].parent_id == by_name["net.round_trip"].span_id
    assert by_name["driver.x"].parent_id == by_name["relay.handle_request"].span_id
    assert {span.trace_id for span in tracer.spans} == {"op-1"}


# -- traced counts ------------------------------------------------------------------

def _counts(metrics):
    return {
        name: value for name, (value, unit) in metrics.items()
        if unit in ("count", "B") and name.endswith("_per_op")
    }


def test_traced_query_counts_repeat_and_match_the_baseline(tmp_path):
    first = harness.run_traced("query", 7, tmp_path, ops=2)
    second = harness.run_traced("query", 7, tmp_path, ops=2)
    assert first["failed"] == second["failed"] == 0
    assert _counts(first["metrics"]) == _counts(second["metrics"])
    metrics = first["metrics"]
    # ROADMAP baseline for one confidential fetch: 22 scalar multiplications
    # (11 with base G), 3 signatures, 7 ECIES operations. The counts equal
    # it when the benchmark was added; the gate is that they never rise.
    baseline = {
        "crypto.scalar_mult_fixed.calls_per_op": 11,
        "crypto.scalar_mult_var.calls_per_op": 11,
        "crypto.ecdsa_sign.calls_per_op": 3,
        "crypto.ecies.calls_per_op": 7,
    }
    for name, ceiling in baseline.items():
        assert 0 < metrics[name][0] <= ceiling, name
    layer_sum = sum(metrics[f"{layer}.self_ms_per_op"][0] for layer in LAYERS)
    assert layer_sum + metrics["trace.unattributed_ms_per_op"][0] == pytest.approx(
        metrics["trace.root_ms_per_op"][0], rel=1e-9)
