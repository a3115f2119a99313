"""The collector's own row in the metrics: ``runtime.gc.*``."""

import gc

from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import gc_metrics


def test_counts_collections_by_generation_and_times_them():
    registry = MetricsRegistry()
    with gc_metrics(registry):
        gc.collect()
        gc.collect(0)
    assert registry.value("runtime.gc.collections.gen2") >= 1
    assert registry.value("runtime.gc.collections.gen0") >= 1
    pause = registry.histogram("runtime.gc.pause_s")
    total = sum(
        registry.value(f"runtime.gc.collections.gen{g}") for g in range(3)
    )
    assert pause.count == total
    assert 0.0 < pause.min <= pause.max < 5.0


def test_stops_listening_when_the_block_ends():
    registry = MetricsRegistry()
    before = list(gc.callbacks)
    with gc_metrics(registry):
        assert len(gc.callbacks) == len(before) + 1
    assert gc.callbacks == before
    seen = registry.value("runtime.gc.collections.gen2")
    gc.collect()
    assert registry.value("runtime.gc.collections.gen2") == seen


def test_a_disabled_registry_costs_no_callback():
    before = list(gc.callbacks)
    with gc_metrics(MetricsRegistry(enabled=False)):
        assert gc.callbacks == before
