"""Tests for the approximate-values detector (Definition 3.8)."""

import numpy as np
import pytest

from repro.errors import InvalidValueError
from repro.gpu.dtypes import DType
from repro.patterns.base import ObjectAccessView, Pattern, PatternConfig
from repro.patterns.approximate import detect_approximate_values, truncate_mantissa


def _view(values):
    values = np.asarray(values)
    return ObjectAccessView(
        object_label="tIn_d",
        api_ref="api",
        values=values,
        addresses=np.arange(values.size, dtype=np.uint64) * values.dtype.itemsize,
        dtype=DType.from_numpy(values.dtype),
        itemsize=values.dtype.itemsize,
    )


def test_truncation_bounds_relative_error():
    rng = np.random.default_rng(0)
    values = rng.uniform(1.0, 100.0, 1000).astype(np.float32)
    truncated = truncate_mantissa(values, 10)
    relative = np.abs(truncated - values) / np.abs(values)
    assert np.all(relative < 2.0**-10)


def test_truncation_preserves_sign_and_exponent():
    values = np.array([-3.14159, 1024.5, 0.001], dtype=np.float64)
    truncated = truncate_mantissa(values, 8)
    assert np.all(np.sign(truncated) == np.sign(values))
    assert np.all(np.abs(truncated) <= np.abs(values))


def test_truncation_keep_all_bits_is_identity():
    values = np.array([1.1, 2.2], dtype=np.float32)
    assert np.array_equal(truncate_mantissa(values, 23), values)


def test_truncation_rejects_integers():
    with pytest.raises(InvalidValueError):
        truncate_mantissa(np.arange(4), 10)


def test_truncation_idempotent():
    values = np.random.default_rng(1).normal(size=64).astype(np.float32)
    once = truncate_mantissa(values, 6)
    assert np.array_equal(truncate_mantissa(once, 6), once)


def test_near_uniform_field_collapses_to_single_value():
    """The hotspot3D tIn_d case: within a mantissa quantum of a base."""
    base = 293.3
    values = (base * (1 + np.random.default_rng(0).uniform(-1, 1, 256) * 4e-5)
              ).astype(np.float32)
    hits = detect_approximate_values(_view(values))
    patterns = {hit.metrics["underlying"] for hit in hits}
    assert Pattern.APPROXIMATE_VALUES in {hit.pattern for hit in hits}
    assert "single value" in patterns or "frequent values" in patterns


def test_already_exact_pattern_not_reported_again():
    """An exactly-uniform object matches single value exactly; the
    approximate detector must not duplicate it."""
    values = np.full(128, 1.5, np.float32)
    assert detect_approximate_values(_view(values)) == []


def test_widely_spread_values_not_approximate():
    rng = np.random.default_rng(2)
    values = rng.uniform(0, 1000, 256).astype(np.float32)
    assert detect_approximate_values(_view(values)) == []


def test_integer_views_skipped():
    view = ObjectAccessView(
        object_label="o",
        api_ref="a",
        values=np.zeros(64, np.int32),
        addresses=np.arange(64, dtype=np.uint64) * 4,
        dtype=DType.INT32,
        itemsize=4,
    )
    assert detect_approximate_values(view) == []


def test_mantissa_bits_configurable():
    """With more kept bits the relaxation is weaker."""
    base = 100.0
    values = (base * (1 + np.random.default_rng(3).uniform(-1, 1, 256) * 2e-3)
              ).astype(np.float32)
    strict = PatternConfig(approximate_mantissa_bits=20)
    loose = PatternConfig(approximate_mantissa_bits=4)
    assert detect_approximate_values(_view(values), strict) == []
    assert detect_approximate_values(_view(values), loose) != []


def test_float64_supported():
    values = np.full(64, 7.0, np.float64)
    values *= 1 + np.random.default_rng(4).uniform(-1, 1, 64) * 1e-7
    hits = detect_approximate_values(_view(values))
    assert hits != []


def test_min_accesses_respected():
    values = np.full(4, 1.0000001, np.float32)
    assert detect_approximate_values(_view(values)) == []
