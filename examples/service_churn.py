#!/usr/bin/env python3
"""A churn day in the life of the allocation daemon (``repro serve``).

Run with::

    python examples/service_churn.py

Boots a real daemon on an ephemeral TCP port, then plays an operator's
day against it with :class:`repro.service.ServiceClient`:

1. morning: transaction programs ship one by one (``add``), the daemon
   maintains the optimal allocation incrementally;
2. midday: a suspect program is probed with ``check`` and rejected by
   admission control — the rejection envelope carries the witness chain
   naming the already-admitted programs it would conflict with;
3. afternoon: a ``snapshot`` is taken, a program retires (``remove``),
   and the snapshot is ``restore``d — allocations after the restore are
   identical to the pre-remove state, warm caches included;
4. evening: ``metrics`` and a clean ``shutdown``.

The same envelopes work over ``nc`` or any language's socket library —
the protocol is line-delimited JSON (see docs/service.md).
"""

from repro.service import (
    AdmissionPolicy,
    ServiceClient,
    ServiceConfig,
    ServiceServer,
)

MORNING_ARRIVALS = [
    ("inventory reader", "R[stock] R[prices]"),
    ("price updater", "R[prices] W[prices]"),
    ("stock ingestion", "R[stock] W[stock]"),
    ("audit trail writer", "R[audit] W[audit]"),
]

# Reads what the updaters write, writes what the readers read: the
# classic skew-maker that would force promotions across the board.
TROUBLEMAKER = "R[prices] W[stock]"


def main() -> None:
    config = ServiceConfig(
        port=0,  # ephemeral: the server object reports the bound port
        snapshot_path="/tmp/repro-service-churn.snap.json",
        resume=False,  # a fresh day, even if yesterday's snapshot exists
        admission=AdmissionPolicy(max_promotions=1),
    )
    with ServiceServer(config) as server:
        with ServiceClient(port=server.port) as client:
            hello = client.call("hello")
            print(
                f"connected to {hello['server']}"
                f" (protocol v{hello['protocol']},"
                f" levels {'<'.join(hello['levels'])})"
            )

            print("\n-- morning: programs ship --")
            for tid, (name, text) in enumerate(MORNING_ARRIVALS, start=1):
                response = client.call("add", transaction=text, tid=tid)
                assert response["admitted"]
                print(
                    f"  + T{tid} ({name}) -> {response['level']},"
                    f" {response['checks']} checks,"
                    f" promotions: {response['promotions'] or 'none'}"
                )
            allocation = client.call("allocate")
            print(f"  allocation: {allocation['allocation']}")
            print(f"  histogram:  {allocation['histogram']}")

            print("\n-- midday: the troublemaker arrives --")
            response = client.call("add", transaction=TROUBLEMAKER, tid=9)
            assert not response["admitted"], "admission control must refuse"
            print(f"  rejected: {response['reason']}")
            witness = response["witness"]
            print(
                f"  witness chain (split T{witness['split_tid']},"
                f" involves {witness['tids']}):"
            )
            for tid_i, b, a, tid_j in witness["chain"]:
                print(f"    T{tid_i}:{b} conflicts T{tid_j}:{a}")
            # Rejection rolled back: the morning allocation is untouched.
            assert client.call("allocate")["allocation"] == allocation["allocation"]

            print("\n-- afternoon: snapshot, retire, restore --")
            snapshot = client.call("snapshot")
            print(
                f"  snapshot: {snapshot['bytes']} bytes,"
                f" {snapshot['transactions']} transactions"
            )
            client.call("remove", tid=2)
            print(f"  after retiring T2: {client.call('allocate')['allocation']}")
            restored = client.call("restore", verify=True)
            print(f"  restored (verified): {restored['allocation']}")
            assert restored["allocation"] == allocation["allocation"]

            print("\n-- evening: metrics and shutdown --")
            metrics = client.call("metrics")
            interesting = {
                name: value
                for name, value in metrics["counters"].items()
                if name.startswith("service.")
            }
            print(f"  counters: {interesting}")
            farewell = client.request("shutdown")
            assert farewell["ok"] and farewell["stopping"]
            print(f"  daemon stopping; final snapshot: {farewell['snapshot']}")
    print("\ndone — the same protocol is scriptable over nc or curl-style tools")


if __name__ == "__main__":
    main()
