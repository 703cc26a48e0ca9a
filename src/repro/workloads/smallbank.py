"""SmallBank transaction programs instantiated to concrete transactions.

SmallBank (Alomari et al., *The Cost of Serializability on Platforms That
Use Snapshot Isolation*, cited as [4] in the paper) is the standard
workload exhibiting snapshot-isolation anomalies: it is **not** robust
against ``A_SI``, which makes it the natural complement to TPC-C in the
benchmark suite — by Proposition 5.4 it is not robustly allocatable over
{RC, SI}, so some transactions must run at SSI.

Each customer has a checking and a savings account; the five programs:

* ``Balance(c)``          — read both accounts;
* ``DepositChecking(c)``  — read+write checking;
* ``TransactSavings(c)``  — read+write savings;
* ``Amalgamate(c1, c2)``  — zero out ``c1``'s accounts into ``c2``'s
  checking (read+write three rows, read one);
* ``WriteCheck(c)``       — read both accounts, write checking.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.operations import read, write
from ..core.transactions import Transaction
from ..core.workload import Workload

#: The five SmallBank program names.
SMALLBANK_PROGRAMS: Tuple[str, ...] = (
    "balance",
    "deposit_checking",
    "transact_savings",
    "amalgamate",
    "write_check",
)

#: A uniform default mix.
SMALLBANK_MIX: Dict[str, float] = {name: 0.2 for name in SMALLBANK_PROGRAMS}


@dataclass
class SmallBankConfig:
    """Domain size for SmallBank instantiation."""

    customers: int = 4

    def __post_init__(self) -> None:
        if self.customers < 2:
            raise ValueError(
                "SmallBank needs at least two customers (Amalgamate),"
                f" got {self.customers}"
            )


def _checking(c: int) -> str:
    return f"checking:{c}"


def _savings(c: int) -> str:
    return f"savings:{c}"


class SmallBankInstantiator:
    """Instantiates SmallBank programs into concrete transactions."""

    def __init__(self, config: Optional[SmallBankConfig] = None, seed: int = 0):
        self.config = config or SmallBankConfig()
        self.rng = random.Random(seed)

    def _customer(self) -> int:
        return self.rng.randint(1, self.config.customers)

    def _two_customers(self) -> Tuple[int, int]:
        first = self._customer()
        second = self._customer()
        while second == first:
            second = self.rng.randint(1, self.config.customers)
        return first, second

    def balance(self, tid: int) -> Transaction:
        """Read-only balance check over both accounts."""
        c = self._customer()
        return Transaction(
            tid, [read(tid, _savings(c)), read(tid, _checking(c))]
        )

    def deposit_checking(self, tid: int) -> Transaction:
        """Increment the checking balance (read-modify-write)."""
        c = self._customer()
        obj = _checking(c)
        return Transaction(tid, [read(tid, obj), write(tid, obj)])

    def transact_savings(self, tid: int) -> Transaction:
        """Adjust the savings balance (read-modify-write)."""
        c = self._customer()
        obj = _savings(c)
        return Transaction(tid, [read(tid, obj), write(tid, obj)])

    def amalgamate(self, tid: int) -> Transaction:
        """Move all of one customer's funds into another's checking account."""
        c1, c2 = self._two_customers()
        return Transaction(
            tid,
            [
                read(tid, _savings(c1)),
                read(tid, _checking(c1)),
                write(tid, _savings(c1)),
                write(tid, _checking(c1)),
                read(tid, _checking(c2)),
                write(tid, _checking(c2)),
            ],
        )

    def write_check(self, tid: int) -> Transaction:
        """Cash a check against the combined balance, debiting checking.

        The classic SI anomaly source: the savings account is only *read*,
        so a concurrent ``TransactSavings`` creates the write-skew pattern.
        """
        c = self._customer()
        return Transaction(
            tid,
            [
                read(tid, _savings(c)),
                read(tid, _checking(c)),
                write(tid, _checking(c)),
            ],
        )

    def instantiate(self, tid: int, program: str) -> Transaction:
        """Instantiate one program by name."""
        try:
            builder = getattr(self, program)
        except AttributeError:
            raise ValueError(f"unknown SmallBank program {program!r}") from None
        return builder(tid)


def smallbank_workload(
    transactions: int = 10,
    config: Optional[SmallBankConfig] = None,
    mix: Optional[Dict[str, float]] = None,
    seed: int = 0,
) -> Workload:
    """A workload of ``transactions`` SmallBank program instantiations."""
    weights = mix or SMALLBANK_MIX
    unknown = set(weights) - set(SMALLBANK_PROGRAMS)
    if unknown:
        raise ValueError(f"unknown SmallBank programs in mix: {sorted(unknown)}")
    inst = SmallBankInstantiator(config, seed=seed)
    names = list(weights)
    probabilities = [weights[name] for name in names]
    txns: List[Transaction] = []
    for tid in range(1, transactions + 1):
        program = inst.rng.choices(names, probabilities)[0]
        txns.append(inst.instantiate(tid, program))
    return Workload(txns)


def smallbank_one_of_each(
    config: Optional[SmallBankConfig] = None, seed: int = 0
) -> Workload:
    """One instantiation of each of the five programs (ids 1..5)."""
    inst = SmallBankInstantiator(config, seed=seed)
    return Workload(
        inst.instantiate(tid, program)
        for tid, program in enumerate(SMALLBANK_PROGRAMS, start=1)
    )


def write_check_pair(customer: int = 1) -> Workload:
    """``WriteCheck`` and ``TransactSavings`` on one customer.

    A classic near-miss: only one rw-conflict direction exists
    (``WriteCheck`` reads the savings row that ``TransactSavings``
    writes), so this pair *is* robust against ``A_SI`` — the SmallBank
    anomaly needs a third transaction, see :func:`si_anomaly_triple`.
    """
    write_check = Transaction(
        1,
        [
            read(1, _savings(customer)),
            read(1, _checking(customer)),
            write(1, _checking(customer)),
        ],
    )
    transact = Transaction(
        2, [read(2, _savings(customer)), write(2, _savings(customer))]
    )
    return Workload([write_check, transact])


def si_anomaly_triple(customer: int = 1) -> Workload:
    """The minimal SmallBank snapshot-isolation anomaly (Alomari et al.).

    ``Balance``, ``WriteCheck`` and ``TransactSavings`` on the same
    customer: the read-only ``Balance`` observes a state in which neither
    concurrent update is visible, closing a cycle with two consecutive
    rw-antidependencies.  Not robust against ``A_SI``, hence (by
    Proposition 5.4) not robustly allocatable over {RC, SI}.
    """
    balance = Transaction(
        1, [read(1, _savings(customer)), read(1, _checking(customer))]
    )
    write_check = Transaction(
        2,
        [
            read(2, _savings(customer)),
            read(2, _checking(customer)),
            write(2, _checking(customer)),
        ],
    )
    transact = Transaction(
        3, [read(3, _savings(customer)), write(3, _savings(customer))]
    )
    return Workload([balance, write_check, transact])
