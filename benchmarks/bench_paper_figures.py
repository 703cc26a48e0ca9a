"""Experiments F2/F3/F4/F5/E25 — the paper's figures as executable artifacts.

The figures are definitional, so the reproduced 'numbers' are the stated
facts: the dependency kinds and cyclicity of Figures 2/3, the allowed/
not-allowed matrix of Example 2.6 (Figure 4) and Example 5.2 (Figure 5).
Each test re-derives the facts from scratch (schedule construction +
checkers).
"""

from __future__ import annotations

from conftest import print_table
from repro.analysis.render import render_schedule, render_serialization_graph
from repro.core.allowed import is_allowed
from repro.core.isolation import Allocation
from repro.core.serialization import is_conflict_serializable, serialization_graph
from repro.workloads.paper_examples import (
    example26_allocations,
    example26_schedule,
    example52_schedule,
    example52_workload,
    figure2_schedule,
)


def test_figure2_pipeline():
    """F2/F3: build schedule s, SeG(s), decide serializability."""
    graph = serialization_graph(figure2_schedule())
    assert not graph.is_acyclic()  # Figure 3: the graph is cyclic


def test_figure2_report(capsys):
    """Render the Figure 2 timeline and Figure 3 edge list."""
    s = figure2_schedule()
    with capsys.disabled():
        print("\n== F2: schedule s of Figure 2 ==")
        print(render_schedule(s))
        print("\n== F3: serialization graph SeG(s) ==")
        print(render_serialization_graph(serialization_graph(s)))


def test_example26_matrix(capsys):
    """F4: the allowed/not-allowed matrix of Example 2.6."""
    s = example26_schedule()
    a1, a2, a3 = example26_allocations()
    rows = [
        ("A1 = A_SI", is_allowed(s, a1)),
        ("A2 (T1:RC, T2:SI)", is_allowed(s, a2)),
        ("A3 (T1:SI, T2:RC)", is_allowed(s, a3)),
    ]
    assert [allowed for _name, allowed in rows] == [False, False, True]
    with capsys.disabled():
        print_table(
            "F4 / Example 2.6: allowed under mixed allocations",
            ["allocation", "allowed (paper: no / no / yes)"],
            rows,
        )


def test_example52_matrix(capsys):
    """F5: Example 5.2 — allowed under A_SI, not under A_RC."""
    s = example52_schedule()
    wl = example52_workload()
    rows = [
        ("A_SI", is_allowed(s, Allocation.si(wl))),
        ("A_RC", is_allowed(s, Allocation.rc(wl))),
    ]
    assert [allowed for _name, allowed in rows] == [True, False]
    with capsys.disabled():
        print_table(
            "F5 / Example 5.2: SI-but-not-RC schedule",
            ["allocation", "allowed (paper: yes / no)"],
            rows,
        )


def test_figure2_serializability():
    """Figure 2's schedule is not conflict serializable (Section 2.2)."""
    s = figure2_schedule()
    assert not is_conflict_serializable(s)
