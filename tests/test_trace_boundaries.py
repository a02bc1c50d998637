"""The benchmark's traced run finds gitvouch's layer boundaries by name
(``perfbench/spans.py``). A renamed function would be reported as absent
and silently drop out of the per-layer figures, so every boundary must
resolve."""

import importlib.util
import os

import gitvouch.authgraph

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")

# Removed on purpose; listed in spans.py so older checkouts still trace.
KNOWN_REMOVED = ["gitvouch.gitstore.graph.commit_difference_with_stats"]


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
