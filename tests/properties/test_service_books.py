"""The daemon's books: each quantity it counts has one true record.

One ``ServiceCore`` takes a random mix of adds, removes, ``check``s,
batches that hold a bad entry and lines that are no envelope, with an
outer tracer installed (as under ``repro serve --trace``).  After every
step the counters, their rate series, the latency histogram and the
outer tracer must agree:

* ``context.checks`` equals the ``checks`` series total — refused
  admissions' rollbacks and queue retries included;
* ``service.requests`` equals the ``requests`` series total and the
  ``service.request`` histogram's count — a line that is no envelope is
  a request too;
* ``service.errors`` equals the ``errors`` series total and never
  exceeds ``service.requests``;
* the outer tracer's ``robustness.checks`` equals ``context.checks``:
  each request's checks are absorbed once.

It runs under no admission policy, a rejecting one and a queueing one.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.observability import Tracer, use_tracer
from repro.service import AdmissionPolicy, ServiceConfig, ServiceCore
from repro.service.protocol import ProtocolError

TEXTS = ("R[x] W[y]", "R[y] W[x]", "R[x] W[x]", "R[y] W[z]", "R[z] W[x]")
TIDS = st.integers(min_value=1, max_value=5)
LEVELS = ("RC", "SI", "SSI")

ACTIONS = st.one_of(
    st.tuples(st.just("add"), TIDS, st.sampled_from(TEXTS)),
    st.tuples(st.just("remove"), TIDS),
    st.tuples(st.just("check"), st.sampled_from(LEVELS)),
    st.tuples(st.just("check-map"), st.sampled_from(LEVELS)),
    st.tuples(st.just("batch"), TIDS, st.sampled_from(TEXTS)),
    st.tuples(
        st.just("line"),
        st.sampled_from(("not json", '{"op": "nope"}', "[1]", '{"op": "add"}')),
    ),
    st.tuples(st.just("too-large")),
)

POLICIES = {
    "none": AdmissionPolicy(),
    "reject": AdmissionPolicy(max_promotions=0),
    "queue": AdmissionPolicy(max_promotions=0, mode="queue"),
}

#: Refuse T2 (it promotes T1), let a remove retry the queue, send a
#: line that is no envelope, then spend checks in two more requests.
_EVERY_FAULT = [
    ("add", 1, "R[x] W[y]"),
    ("add", 2, "R[y] W[x]"),
    ("remove", 1),
    ("line", "not json"),
    ("line", '{"op": "nope"}'),
    ("check", "SI"),
    ("add", 3, "R[y] W[z]"),
]


def _apply(core, action):
    kind = action[0]
    if kind == "add":
        core.handle({"op": "add", "transaction": action[2], "tid": action[1]})
    elif kind == "remove":
        core.handle({"op": "remove", "tid": action[1]})
    elif kind == "check":
        core.handle({"op": "check", "uniform": action[1]})
    elif kind == "check-map":  # misses a tid whenever the workload is empty
        tids = core.manager.workload.tids or (1,)
        core.handle({"op": "check", "allocation": {f"T{t}": action[1] for t in tids}})
    elif kind == "batch":
        core.handle(
            {
                "op": "batch",
                "commands": [
                    {"op": "add", "transaction": action[2], "tid": action[1]},
                    {"op": "add", "transaction": "R[x]", "tid": 0},
                    {"op": "remove", "tid": action[1]},
                ],
            }
        )
    elif kind == "line":
        core.handle_line(action[1])
    else:
        core.reject(ProtocolError("request line too long", code="too-large"))


def _assert_books(core, tracer):
    counters = core.registry.counters
    checks = counters.get("context.checks", 0)
    assert core.series["checks"].total_value == checks
    requests = counters.get("service.requests", 0)
    assert core.series["requests"].total_count == requests
    latency = core.registry.histograms.get("service.request")
    assert (latency.count if latency else 0) == requests
    errors = counters.get("service.errors", 0)
    assert core.series["errors"].total_count == errors
    assert errors <= requests
    assert tracer.registry.counters.get("robustness.checks", 0) == checks


@pytest.mark.parametrize("policy", list(POLICIES.values()), ids=list(POLICIES))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(actions=_EVERY_FAULT)
@given(actions=st.lists(ACTIONS, max_size=10))
def test_every_count_has_one_true_record(policy, actions):
    tracer = Tracer()
    with use_tracer(tracer):
        core = ServiceCore(ServiceConfig(admission=policy))
        for action in actions:
            _apply(core, action)
            _assert_books(core, tracer)
