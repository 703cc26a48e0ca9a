"""TPC-C transaction programs instantiated to concrete transactions.

The paper cites the database-folklore result that the TPC-C benchmark is
robust against snapshot isolation (Section 1, via Fekete et al., *Making
Snapshot Isolation Serializable*).  Robustness only depends on the
read/write footprints of the instantiated transactions, so we model the
five TPC-C programs at exactly the granularity that analysis uses:

* **column granularity for the hot warehouse/district/customer rows** —
  ``NewOrder`` reads ``W_TAX`` while ``Payment`` updates ``W_YTD``; these
  are disjoint columns of the same row, and the SI-robustness of TPC-C
  hinges on that distinction (at whole-row granularity a false
  NewOrder/Payment conflict appears and robustness is lost);
* **row granularity for order / new-order / order-line / stock rows**,
  where programs genuinely touch the same data.

Footprints:

* ``NewOrder``    — read ``w.tax``, ``d.tax``; read+write ``d.next_oid``;
  read ``c.info``; insert order and new-order rows; per item read the
  item and read+write the stock row, insert an order line;
* ``Payment``     — read+write ``w.ytd``, ``d.ytd``, ``c.bal``; read
  ``c.info``; insert a fresh history row;
* ``OrderStatus`` — read ``c.info``, ``c.bal``, an existing order and its
  order lines (read-only);
* ``Delivery``    — per district, read+write the oldest new-order, order
  and order-line rows and the customer balance;
* ``StockLevel``  — read ``d.next_oid``, recent order lines and stock
  rows (read-only).

Keys are strings such as ``d:1.2.next_oid`` (district 2 of warehouse 1)
and ``s:1.17`` (stock of item 17 in warehouse 1).  Duplicate accesses
within one program are collapsed to the paper's one-read/one-write normal
form.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.operations import Operation, read, write
from ..core.transactions import Transaction
from ..core.workload import Workload

#: The five TPC-C program names, in standard mix order.
TPCC_PROGRAMS: Tuple[str, ...] = (
    "new_order",
    "payment",
    "order_status",
    "delivery",
    "stock_level",
)

#: The standard TPC-C transaction mix (approximate weights).
TPCC_MIX: Dict[str, float] = {
    "new_order": 0.45,
    "payment": 0.43,
    "order_status": 0.04,
    "delivery": 0.04,
    "stock_level": 0.04,
}


@dataclass
class TpccConfig:
    """Domain sizes for TPC-C instantiation."""

    warehouses: int = 1
    districts: int = 2
    customers: int = 3
    items: int = 10
    initial_orders: int = 2
    max_order_items: int = 3

    def __post_init__(self) -> None:
        for name in (
            "warehouses", "districts", "customers", "items",
            "initial_orders", "max_order_items",
        ):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")


class _FootprintBuilder:
    """Collects a program's accesses in order, deduplicating per object."""

    def __init__(self, tid: int):
        self.tid = tid
        self.ops: List[Operation] = []
        self._reads: set = set()
        self._writes: set = set()

    def read(self, obj: str) -> None:
        if obj not in self._reads:
            self._reads.add(obj)
            self.ops.append(read(self.tid, obj))

    def write(self, obj: str) -> None:
        if obj not in self._writes:
            self._writes.add(obj)
            self.ops.append(write(self.tid, obj))

    def update(self, obj: str) -> None:
        """A read-modify-write access."""
        self.read(obj)
        self.write(obj)

    def build(self) -> Transaction:
        return Transaction(self.tid, self.ops)


class TpccInstantiator:
    """Instantiates TPC-C programs into concrete transactions.

    Maintains per-district order counters so that ``NewOrder`` creates
    fresh order keys while ``OrderStatus``/``Delivery``/``StockLevel``
    touch existing ones, exactly as the benchmark prescribes.
    """

    def __init__(self, config: Optional[TpccConfig] = None, seed: int = 0):
        self.config = config or TpccConfig()
        self.rng = random.Random(seed)
        self._next_order: Dict[Tuple[int, int], int] = {}
        self._undelivered: Dict[Tuple[int, int], List[int]] = {}
        self._next_history = 0
        cfg = self.config
        for w in range(1, cfg.warehouses + 1):
            for d in range(1, cfg.districts + 1):
                self._next_order[(w, d)] = cfg.initial_orders + 1
                self._undelivered[(w, d)] = list(range(1, cfg.initial_orders + 1))

    # -- key helpers ---------------------------------------------------
    def _warehouse(self) -> int:
        return self.rng.randint(1, self.config.warehouses)

    def _district(self) -> Tuple[int, int]:
        return (self._warehouse(), self.rng.randint(1, self.config.districts))

    def _customer(self, w: int, d: int) -> str:
        return f"c:{w}.{d}.{self.rng.randint(1, self.config.customers)}"

    def _order_items(self) -> List[int]:
        count = self.rng.randint(1, self.config.max_order_items)
        population = range(1, self.config.items + 1)
        return sorted(self.rng.sample(population, min(count, self.config.items)))

    # -- programs -------------------------------------------------------
    def new_order(self, tid: int) -> Transaction:
        """The NewOrder program: the backbone of the benchmark."""
        w, d = self._district()
        fp = _FootprintBuilder(tid)
        fp.read(f"w:{w}.tax")
        fp.read(f"d:{w}.{d}.tax")
        fp.update(f"d:{w}.{d}.next_oid")
        fp.read(f"{self._customer(w, d)}.info")
        order_id = self._next_order[(w, d)]
        self._next_order[(w, d)] = order_id + 1
        self._undelivered[(w, d)].append(order_id)
        fp.write(f"o:{w}.{d}.{order_id}")
        fp.write(f"no:{w}.{d}.{order_id}")
        for line, item in enumerate(self._order_items(), start=1):
            fp.read(f"i:{item}")
            fp.update(f"s:{w}.{item}")
            fp.write(f"ol:{w}.{d}.{order_id}.{line}")
        return fp.build()

    def payment(self, tid: int) -> Transaction:
        """The Payment program: updates warehouse, district, customer YTD."""
        w, d = self._district()
        fp = _FootprintBuilder(tid)
        fp.update(f"w:{w}.ytd")
        fp.update(f"d:{w}.{d}.ytd")
        customer = self._customer(w, d)
        fp.read(f"{customer}.info")
        fp.update(f"{customer}.bal")
        self._next_history += 1
        fp.write(f"h:{self._next_history}")
        return fp.build()

    def order_status(self, tid: int) -> Transaction:
        """The OrderStatus program: read-only lookup of a customer's last order."""
        w, d = self._district()
        fp = _FootprintBuilder(tid)
        customer = self._customer(w, d)
        fp.read(f"{customer}.info")
        fp.read(f"{customer}.bal")
        order_id = self._next_order[(w, d)] - 1
        fp.read(f"o:{w}.{d}.{order_id}")
        for line in range(1, self.config.max_order_items + 1):
            fp.read(f"ol:{w}.{d}.{order_id}.{line}")
        return fp.build()

    def delivery(self, tid: int) -> Transaction:
        """The Delivery program: delivers the oldest new-order of each district."""
        w = self._warehouse()
        fp = _FootprintBuilder(tid)
        for d in range(1, self.config.districts + 1):
            queue = self._undelivered[(w, d)]
            if not queue:
                continue
            order_id = queue.pop(0)
            fp.update(f"no:{w}.{d}.{order_id}")
            fp.update(f"o:{w}.{d}.{order_id}")
            for line in range(1, self.config.max_order_items + 1):
                fp.update(f"ol:{w}.{d}.{order_id}.{line}")
            fp.update(f"{self._customer(w, d)}.bal")
        if not fp.ops:
            fp.read(f"w:{w}.tax")
        return fp.build()

    def stock_level(self, tid: int) -> Transaction:
        """The StockLevel program: read-only scan of recent order lines and stock."""
        w, d = self._district()
        fp = _FootprintBuilder(tid)
        fp.read(f"d:{w}.{d}.next_oid")
        last_order = self._next_order[(w, d)] - 1
        for order_id in range(max(1, last_order - 1), last_order + 1):
            for line in range(1, self.config.max_order_items + 1):
                fp.read(f"ol:{w}.{d}.{order_id}.{line}")
        for item in self._order_items():
            fp.read(f"s:{w}.{item}")
        return fp.build()

    def instantiate(self, tid: int, program: str) -> Transaction:
        """Instantiate one program by name."""
        try:
            builder = getattr(self, program)
        except AttributeError:
            raise ValueError(f"unknown TPC-C program {program!r}") from None
        return builder(tid)


def tpcc_workload(
    transactions: int = 10,
    config: Optional[TpccConfig] = None,
    mix: Optional[Dict[str, float]] = None,
    seed: int = 0,
) -> Workload:
    """A workload of ``transactions`` TPC-C program instantiations.

    Programs are drawn from the standard TPC-C mix (or a custom ``mix``)
    with a seeded RNG, over the key domain of ``config``.
    """
    weights = mix or TPCC_MIX
    unknown = set(weights) - set(TPCC_PROGRAMS)
    if unknown:
        raise ValueError(f"unknown TPC-C programs in mix: {sorted(unknown)}")
    inst = TpccInstantiator(config, seed=seed)
    names = list(weights)
    probabilities = [weights[name] for name in names]
    txns = []
    for tid in range(1, transactions + 1):
        program = inst.rng.choices(names, probabilities)[0]
        txns.append(inst.instantiate(tid, program))
    return Workload(txns)


def tpcc_one_of_each(
    config: Optional[TpccConfig] = None, seed: int = 0
) -> Workload:
    """One instantiation of each of the five programs (ids 1..5)."""
    inst = TpccInstantiator(config, seed=seed)
    return Workload(
        inst.instantiate(tid, program)
        for tid, program in enumerate(TPCC_PROGRAMS, start=1)
    )
