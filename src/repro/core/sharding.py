"""Conflict components: the partition robustness decomposes over.

Robustness under Definition 3.1 decomposes over the connected
components of the *conflict graph* (transactions as nodes, an edge when
two transactions have conflicting operations): every quadruple of a
counterexample chain links two conflicting transactions, so a chain —
and hence a multiversion split schedule — can never cross components.
Consequently

* a workload is robust against an allocation iff every component's
  sub-workload is robust against the allocation restricted to it;
* the first witness of Algorithm 1's scan is the witness with the
  smallest split-transaction id across components;
* the optimal allocation (Algorithm 2) is the per-component optimum,
  composed — lowering a transaction's level only ever creates or
  destroys witnesses inside its own component.

The :class:`~repro.core.context.AnalysisContext` finds and numbers the
components; this module lists a workload's.
"""

from __future__ import annotations

from typing import Tuple

from .context import AnalysisContext
from .workload import Workload

__all__ = ["conflict_components"]


def conflict_components(workload: Workload) -> Tuple[Tuple[int, ...], ...]:
    """Connected components of the conflict graph, without building it.

    The components of an :class:`~repro.core.context.AnalysisContext`,
    ordered by their smallest transaction id, members ascending.

    Examples:
        >>> from repro.core.workload import workload
        >>> wl = workload("R1[x] W1[y]", "R2[y] W2[x]", "R3[p] W3[p]")
        >>> conflict_components(wl)
        ((1, 2), (3,))
    """
    return tuple(component.tids for component in AnalysisContext(workload).components())
