"""Fixtures for the observability suite.

The span tracer is process-wide (like the formula arena), so every test
that turns tracing on must leave it off and empty for the rest of the
suite — the ``traced`` fixture guarantees that even when the test fails.
"""

from __future__ import annotations

import pytest

from repro.obs.spans import TRACER


@pytest.fixture
def traced():
    """Enable span tracing for one test; restore a clean, disabled tracer."""
    TRACER.reset()
    TRACER.configure(enabled=True, keep_last=256)
    yield TRACER
    TRACER.configure(enabled=False)
    TRACER.reset()
