"""Experiment STATIC — precision of the static sufficient conditions.

Section 6.3.2 of the paper discusses program-level sufficient conditions
as the practical deployment route for its characterizations.  This bench
measures the precision of three such conditions against the bounded exact
checker on random template sets:

* recall = of the template sets the exact checker proves robust, how many
  the static condition certifies (static checks are sound, so precision
  is 100% by the property tests; recall is the interesting number);
* the ``static_mixed_check`` derived from Theorem 3.2 should dominate the
  classic per-level conditions at RC/SI because it exploits the forced
  first-committer-wins ww-conflicts.
"""

from __future__ import annotations

import random

import pytest

from conftest import print_table
from repro.static_analysis import (
    static_mixed_check,
    static_rc_check,
    static_si_check,
)
from repro.templates import check_template_robustness
from repro.templates.template import TemplateOperation, TransactionTemplate

RELATIONS = ("rel_a", "rel_b", "rel_c")
VARIABLES = ("X", "Y")


def _random_template(name: str, rng: random.Random) -> TransactionTemplate:
    ops = []
    seen = set()
    for _ in range(rng.randint(1, 3)):
        relation = rng.choice(RELATIONS)
        variable = rng.choice(VARIABLES)
        mode = rng.choice(("r", "w", "rw"))
        for kind in ("R", "W") if mode == "rw" else (mode.upper(),):
            key = (kind, relation, variable)
            if key not in seen:
                seen.add(key)
                ops.append(TemplateOperation(kind, relation, variable))
    return TransactionTemplate(name, ops)


def _random_sets(count: int, size: int, seed: int):
    rng = random.Random(seed)
    return [
        [_random_template(f"P{i}", rng) for i in range(1, size + 1)]
        for _ in range(count)
    ]


def _precision_rows(sample_count: int = 60, seed: int = 9):
    checks = {
        "classic RC": lambda ts, level: level == "RC" and bool(static_rc_check(ts)),
        "classic SI": lambda ts, level: level == "SI" and bool(static_si_check(ts)),
        "mixed (Thm 3.2)": lambda ts, level: bool(
            static_mixed_check(ts, {t.name: level for t in ts})
        ),
    }
    rows = []
    for level in ("RC", "SI"):
        robust_sets = []
        for template_set in _random_sets(sample_count, 2, seed):
            allocation = {t.name: level for t in template_set}
            if check_template_robustness(template_set, allocation).robust:
                robust_sets.append(template_set)
        for name, check in checks.items():
            if name.startswith("classic") and not name.endswith(level):
                continue
            certified = sum(1 for ts in robust_sets if check(ts, level))
            rows.append(
                (
                    level,
                    name,
                    f"{certified}/{len(robust_sets)}",
                    f"{certified / len(robust_sets):.0%}" if robust_sets else "-",
                )
            )
    return rows


@pytest.mark.parametrize("checker", ["classic", "mixed"])
def test_static_check_speed(checker):
    """Static conditions are near-instant compared to saturation checks."""
    for template_set in _random_sets(20, 3, seed=4):
        if checker == "classic":
            static_si_check(template_set)
        else:
            static_mixed_check(template_set, {t.name: "SI" for t in template_set})


def test_exact_check_same_inputs():
    """The bounded exact checker on the same 20 template sets."""
    for template_set in _random_sets(20, 3, seed=4):
        check_template_robustness(template_set, {t.name: "SI" for t in template_set})


def test_precision_report(capsys):
    """STATIC table: recall of the sufficient conditions on robust sets."""
    rows = _precision_rows()
    with capsys.disabled():
        print_table(
            "STATIC: recall of sufficient conditions on exactly-robust sets",
            ["level", "condition", "certified", "recall"],
            rows,
        )
    by_key = {(r[0], r[1]): r for r in rows}
    # Shape: the Theorem 3.2-derived condition dominates the classics.
    for level, classic in (("RC", "classic RC"), ("SI", "classic SI")):
        classic_num = int(by_key[(level, classic)][2].split("/")[0])
        mixed_num = int(by_key[(level, "mixed (Thm 3.2)")][2].split("/")[0])
        assert mixed_num >= classic_num
