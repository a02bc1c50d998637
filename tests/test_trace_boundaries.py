"""The benchmark's traced run finds gitvouch's layer boundaries by name
(``perfbench/spans.py``). A renamed function would be reported as absent
and silently drop out of the per-layer figures, so every boundary must
resolve."""

import importlib.util
import os

import gitvouch.authgraph
from gitvouch.authgraph import AuthCache, AuthOptions, authenticate_repository

import fixtures

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")

# Removed on purpose; listed in spans.py so older checkouts still trace.
KNOWN_REMOVED = [
    "gitvouch.gitstore.graph.is_ancestor",
    "gitvouch.gitstore.graph.commit_difference_with_stats",
]


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_resolves():
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert tracer.absent == KNOWN_REMOVED
        # Names authgraph imports at module level are wrapped as well.
        for name in ("parse_tree", "signed_payload", "verify_detailed"):
            assert hasattr(getattr(gitvouch.authgraph, name), "__wrapped__"), name
    finally:
        tracer.uninstall()
    assert not hasattr(gitvouch.authgraph.signed_payload, "__wrapped__")


def test_cache_ids_read_counts_the_cached_ids(tmp_path):
    # The tracer takes ``len()`` of what ``AuthCache.read`` returns.
    chain = fixtures.linear_chain(30)
    options = AuthOptions(cache=AuthCache(str(tmp_path / "state")))
    authenticate_repository(chain.store, chain.intro, chain.ids[-1], options)
    with open(options.cache._path(AuthCache.key_for(chain.intro)), "rb") as fh:
        cached_ids = len(fh.read().splitlines()) - 1
    assert cached_ids == 29  # every commit but the introduction
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        report = authenticate_repository(chain.store, chain.intro, chain.ids[-1], options)
    finally:
        tracer.uninstall()
    assert report.walked == 0
    stat = tracer.stats["authgraph.cache.read"]
    assert (stat.calls, stat.extra) == (1, cached_ids)
