"""Shared pytest fixtures for the repro test suite."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.isolation import Allocation
from repro.core.workload import Workload, workload


@pytest.fixture
def write_skew() -> Workload:
    """The canonical write-skew pair: not robust below SSI-everywhere."""
    return workload("R1[x] W1[y]", "R2[y] W2[x]")


@pytest.fixture
def disjoint_pair() -> Workload:
    """Two transactions touching disjoint objects: robust against anything."""
    return workload("R1[a] W1[b]", "R2[c] W2[d]")


@pytest.fixture
def lost_update() -> Workload:
    """Two read-modify-write transactions on one object."""
    return workload("R1[x] W1[x]", "R2[x] W2[x]")


@pytest.fixture
def rc_allocation():
    """Factory for the A_RC allocation of a workload."""
    return Allocation.rc


@pytest.fixture
def si_allocation():
    """Factory for the A_SI allocation of a workload."""
    return Allocation.si


@pytest.fixture
def v1_trace_path() -> str:
    """A version-1 trace: ``metrics.timers`` beside ``metrics.histograms``.

    Written by ``repro check --trace --uniform SI`` on
    ``T1: R[x] W[y]`` / ``T2: R[y] W[x]`` / ``T3: R[p] W[p]`` before the
    trace format dropped the timers; it must stay readable.
    """
    return str(Path(__file__).parent / "observability" / "trace_v1.json")
