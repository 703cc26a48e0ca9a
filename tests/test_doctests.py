"""Run the doctests embedded in the library's docstrings.

Keeps every ``Examples:`` block in the public API honest.  Modules are
resolved through :mod:`importlib` because some submodule names (e.g.
``repro.core.allocation``) are shadowed by same-named re-exported
functions on their parent package.
"""

import doctest
import importlib

import pytest

MODULE_NAMES = [
    "repro.core.allocation",
    "repro.core.context",
    "repro.core.incremental",
    "repro.core.robustness",
    "repro.core.sharding",
    "repro.core.transactions",
    "repro.core.workload",
    "repro.observability.metrics",
    "repro.service.core",
    "repro.templates.allocation",
    "repro.templates.robustness",
    "repro.templates.template",
    "repro.workloads.generator",
]


@pytest.mark.parametrize("module_name", MODULE_NAMES)
def test_doctests(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module, verbose=False)
    if result.attempted == 0:
        pytest.skip(f"{module_name} has no doctests")
    assert result.failed == 0
