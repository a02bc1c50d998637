"""A budget for the Python work of a cold run, counted in function calls.

The time a cold run spends outside the Ed25519 check goes mostly to
Python function calls: building per-commit records, hashing and
comparing them, and walking the layers between the pack and the
signature check. Counting those calls gives a figure that, unlike wall
time, does not depend on the host, so a change that adds Python work
per commit fails here.
"""

import sys

from gitvouch import authgraph
from gitvouch.authgraph import authenticate_repository

import fixtures

# Python-level calls per checked commit of a cold run over
# ``linear_chain(64)`` without the helper, as measured when the budget
# was set (CPython 3.11). The parent of that change made 60.7.
MEASURED_CALLS_PER_COMMIT = 41.2
ALLOWANCE = 1.2


def test_cold_run_stays_within_its_call_budget(monkeypatch):
    monkeypatch.setattr(authgraph, "WORKER_MIN_CHECKS", 10**9)
    chain = fixtures.linear_chain(64)
    # A first run loads what a process loads once, such as libsodium.
    authenticate_repository(chain.store, chain.intro, chain.ids[-1])
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        report = authenticate_repository(chain.store, chain.intro, chain.ids[-1])
    finally:
        sys.setprofile(None)
    assert report.checked == 63
    assert calls / report.checked <= MEASURED_CALLS_PER_COMMIT * ALLOWANCE
