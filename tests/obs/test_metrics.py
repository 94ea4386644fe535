"""Tests for the metrics registry and its exposition formats."""

import json
import threading

import pytest

from repro.errors import InvalidValueError
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


def test_counter_increments(registry):
    c = registry.counter("repro_test_total", "help text")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5


def test_counter_rejects_decrease(registry):
    c = registry.counter("repro_test_total")
    with pytest.raises(InvalidValueError):
        c.inc(-1)


def test_get_or_create_returns_same_instrument(registry):
    a = registry.counter("repro_x_total")
    b = registry.counter("repro_x_total")
    assert a is b


def test_kind_mismatch_rejected(registry):
    registry.counter("repro_x")
    with pytest.raises(InvalidValueError):
        registry.gauge("repro_x")


def test_gauge_set_inc_dec(registry):
    g = registry.gauge("repro_level")
    g.set(10)
    g.inc(5)
    g.dec(2)
    assert g.value == 13


def test_labels_create_children(registry):
    c = registry.counter("repro_api_total", labelnames=("api",))
    c.labels(api="cudaMalloc").inc()
    c.labels(api="cudaMalloc").inc()
    c.labels(api="cudaFree").inc()
    assert c.labels(api="cudaMalloc").value == 2
    assert c.labels(api="cudaFree").value == 1


def test_labels_require_declared_names(registry):
    c = registry.counter("repro_api_total", labelnames=("api",))
    with pytest.raises(InvalidValueError):
        c.labels(wrong="x")
    with pytest.raises(InvalidValueError):
        registry.counter("repro_plain").labels(api="x")


def test_histogram_buckets_cumulative(registry):
    h = registry.histogram("repro_lat_seconds", buckets=(0.1, 1.0))
    for v in (0.05, 0.5, 5.0):
        h.observe(v)
    rows = {
        (suffix, labels): value for suffix, labels, value in h.samples()
    }
    assert rows[("_bucket", '{le="0.1"}')] == 1
    assert rows[("_bucket", '{le="1"}')] == 2
    assert rows[("_bucket", '{le="+Inf"}')] == 3
    assert rows[("_count", "")] == 3
    assert rows[("_sum", "")] == pytest.approx(5.55)


def test_histogram_quantile_uses_exact_observations(registry):
    h = registry.histogram("repro_lat_seconds")
    for v in range(1, 101):
        h.observe(float(v))
    assert h.quantile(50) == pytest.approx(50.5)
    assert h.quantile(95) == pytest.approx(95.05)


def test_histogram_rejects_unsorted_buckets(registry):
    with pytest.raises(InvalidValueError):
        registry.histogram("repro_bad_seconds", buckets=(1.0, 0.1))


def test_prometheus_exposition_format(registry):
    c = registry.counter("repro_apis_total", "API calls.", labelnames=("api",))
    c.labels(api="cudaMalloc").inc(3)
    registry.gauge("repro_objects", "Live objects.").set(7)
    text = registry.to_prometheus()
    assert "# HELP repro_apis_total API calls." in text
    assert "# TYPE repro_apis_total counter" in text
    assert 'repro_apis_total{api="cudaMalloc"} 3' in text
    assert "# TYPE repro_objects gauge" in text
    assert "repro_objects 7" in text


def test_prometheus_label_escaping(registry):
    c = registry.counter("repro_x_total", labelnames=("k",))
    c.labels(k='say "hi"\n').inc()
    text = registry.to_prometheus()
    assert '{k="say \\"hi\\"\\n"}' in text


def test_json_exposition_parses(registry):
    registry.counter("repro_a_total", "a").inc(2)
    registry.histogram("repro_b_seconds", "b", buckets=(1.0,)).observe(0.5)
    payload = json.loads(registry.to_json())
    assert payload["repro_a_total"]["kind"] == "counter"
    assert payload["repro_b_seconds"]["kind"] == "histogram"
    assert any(
        s["suffix"] == "_count" and s["value"] == 1
        for s in payload["repro_b_seconds"]["samples"]
    )


def test_clear_empties_registry(registry):
    registry.counter("repro_a_total")
    registry.clear()
    assert registry.names() == []
    assert registry.to_prometheus() == ""


def test_metric_kinds_exported():
    assert Counter("c").kind == "counter"
    assert Gauge("g").kind == "gauge"
    assert Histogram("h").kind == "histogram"


def test_concurrent_updates_and_scrapes(registry):
    """Writers on N threads + a scraping reader must not lose counts."""
    c = registry.counter("repro_hits_total", labelnames=("t",))
    errors = []

    def writer(tag):
        try:
            for _ in range(500):
                c.labels(t=tag).inc()
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    def scraper():
        try:
            for _ in range(50):
                registry.to_prometheus()
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    threads = [
        threading.Thread(target=writer, args=(str(i),)) for i in range(4)
    ] + [threading.Thread(target=scraper)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert sum(c.labels(t=str(i)).value for i in range(4)) == 2000
