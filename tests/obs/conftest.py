"""Shared state management for the observability tests.

Tracing configuration is process-global; every test here runs with
tracing on, sampling 1 (retain every root trace — determinism beats
amortisation in tests), and the default slow threshold, and restores
whatever was set before it ran.
"""

from __future__ import annotations

import pytest

from repro.obs import (
    clear_slow_queries,
    clear_traces,
    set_slowlog_threshold_ms,
    set_trace_sampling,
    set_tracing,
)


@pytest.fixture(autouse=True)
def _trace_state():
    previous_enabled = set_tracing(True)
    previous_sampling = set_trace_sampling(1)
    previous_slow = set_slowlog_threshold_ms(100.0)
    clear_traces()
    clear_slow_queries()
    yield
    set_tracing(previous_enabled)
    set_trace_sampling(previous_sampling)
    set_slowlog_threshold_ms(previous_slow)
    clear_traces()
    clear_slow_queries()
