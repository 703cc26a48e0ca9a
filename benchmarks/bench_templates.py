"""Experiment TMPL — template-level robustness and allocation (Section 6.3.1).

The paper positions its transaction-level results as the stepping stone to
template-level ones; this bench exercises that step: bounded exact checks
on the saturation workloads of TPC-C and SmallBank templates, the
per-program optimal allocation, and scaling in the instantiation bound.
"""

from __future__ import annotations

import pytest

from conftest import print_table
from repro.templates import check_template_robustness, optimal_template_allocation
from repro.workloads.templates_catalog import smallbank_templates, tpcc_templates


@pytest.mark.parametrize("workload_name", ["tpcc", "smallbank"])
def test_template_si_check(workload_name):
    """Bounded exact robustness of the classic template sets at A_SI."""
    templates = tpcc_templates() if workload_name == "tpcc" else smallbank_templates()
    allocation = {t.name: "SI" for t in templates}
    result = check_template_robustness(templates, allocation)
    assert result.robust == (workload_name == "tpcc")


@pytest.mark.parametrize("domain", [2, 3])
def test_template_bound_scaling(domain):
    """Saturation-workload growth in the domain bound."""
    templates = smallbank_templates()
    allocation = {t.name: "SI" for t in templates}
    result = check_template_robustness(templates, allocation, domain_size=domain)
    assert not result.robust  # verdict stable across bounds


@pytest.mark.parametrize("workload_name", ["tpcc", "smallbank"])
def test_template_allocation(workload_name):
    """Per-program Algorithm 2 on the classic template sets."""
    templates = tpcc_templates() if workload_name == "tpcc" else smallbank_templates()
    assert optimal_template_allocation(templates) is not None


def test_template_report(capsys):
    """TMPL table: per-program optimal levels for both catalogs."""
    rows = []
    for name, templates in (
        ("TPC-C", tpcc_templates()),
        ("SmallBank", smallbank_templates()),
    ):
        optimum = optimal_template_allocation(templates)
        for program, level in optimum.items():
            rows.append((name, program, level.name))
    ssi_rows = [r for r in rows if r[2] == "SSI"]
    # Shape: TPC-C needs no SSI; SmallBank does.
    assert all(r[0] == "SmallBank" for r in ssi_rows) and ssi_rows
    with capsys.disabled():
        print_table(
            "TMPL: per-program optimal allocation",
            ["catalog", "program", "level"],
            rows,
        )
