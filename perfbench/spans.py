"""Spans around gitvouch's layer boundaries, recorded from outside.

A :class:`Tracer` replaces public functions and methods with wrappers
that record one span per call: name, start, end and parent. Function
wrappers are installed in every ``gitvouch`` module that holds the
function under any name, because callers import by name
(``authgraph`` does ``from ...verify import verify_detailed``). A
boundary that no longer exists is reported as absent, not as an error,
so a refactor that removes a function does not break the benchmark.

Self time is a span's duration minus the time its child spans cover.
``.s`` figures count a name's outermost spans only, so a function that
calls itself through another wrapped name is not counted twice.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (span name, module, attribute). Attributes with a dot are methods.
BOUNDARIES = [
    ("gitstore.open", "gitvouch.gitstore.repository", "Repository.__init__"),
    ("gitstore.read_object", "gitvouch.gitstore.repository", "Repository.read_object"),
    ("gitstore.resolve_ref", "gitvouch.gitstore.repository", "Repository.resolve_ref"),
    ("gitstore.parse_commit", "gitvouch.gitstore.objects", "parse_commit"),
    ("gitstore.parse_tree", "gitvouch.gitstore.objects", "parse_tree"),
    ("gitstore.signed_payload", "gitvouch.gitstore.objects", "signed_payload"),
    ("graph.is_ancestor", "gitvouch.gitstore.graph", "is_ancestor"),
    ("graph.commit_difference", "gitvouch.gitstore.graph", "commit_difference"),
    ("graph.commit_difference", "gitvouch.gitstore.graph", "commit_difference_with_stats"),
    ("graph.read_path_at_commit", "gitvouch.gitstore.graph", "read_path_at_commit"),
    ("authz.parse_authorizations", "gitvouch.authz", "parse_authorizations"),
    ("sexp.parse_sexp", "gitvouch.sexp", "parse_sexp"),
    ("sexp.parse_all", "gitvouch.sexp", "parse_all"),
    ("sigverify.dearmor", "gitvouch.sigverify.armor", "dearmor"),
    ("sigverify.parse_packets", "gitvouch.sigverify.packets", "parse_packets"),
    ("sigverify.verify", "gitvouch.sigverify.verify", "verify_detailed"),
    ("sigverify.load_keys", "gitvouch.sigverify.keys", "load_keys"),
    ("authgraph.authenticate_repository", "gitvouch.authgraph", "authenticate_repository"),
    ("authgraph.authenticate_commit", "gitvouch.authgraph", "authenticate_commit"),
    ("authgraph.parent_authorizations", "gitvouch.authgraph", "parent_authorizations"),
    ("authgraph.load_keyring", "gitvouch.authgraph", "load_keyring"),
    ("authgraph.cache.read", "gitvouch.authgraph", "AuthCache.read"),
    ("authgraph.cache.write", "gitvouch.authgraph", "AuthCache.write"),
    ("channel.parse_channel_spec", "gitvouch.channel", "parse_channel_spec"),
    ("channel.read_channel_metadata", "gitvouch.channel", "read_channel_metadata"),
    ("channel.fast_forward_check", "gitvouch.channel", "fast_forward_check"),
    ("channel.staleness_check", "gitvouch.channel", "staleness_check"),
    ("channel.provenance_io", "gitvouch.channel", "provenance_read"),
    ("channel.provenance_io", "gitvouch.channel", "provenance_read_all"),
    ("channel.provenance_io", "gitvouch.channel", "provenance_write"),
    ("cli.main", "gitvouch.cli", "main"),
]


class Stat:
    __slots__ = ("calls", "self_s", "s", "returned", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.s = 0.0          # outermost spans of this name only
        self.returned = 0     # calls that returned rather than raised
        self.extra = 0


class Tracer:
    """Records spans while installed. One thread, one stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int]] = []  # name, start, end, parent
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.absent: list[str] = []
        self.installed: set[str] = set()
        self.covered_s = 0.0          # time under top-level spans
        self.policy_blobs: set[bytes] = set()
        self.signatures: list[tuple] = []  # (sig, payload, keyring, verified)
        self._stack: list[list] = []  # [span index, child time]
        self._active: dict[str, int] = defaultdict(int)
        self._undo: list[tuple] = []
        self._observers = {
            "gitstore.read_object": self._on_read_object,
            "authz.parse_authorizations": self._on_parse_authorizations,
            "sigverify.verify": self._on_verify,
            "authgraph.cache.read": self._on_cache_read,
            "authgraph.authenticate_repository": self._on_report,
        }

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for name, module_name, attr in BOUNDARIES:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(name, original)
            self.installed.add(name)
            if owner_name:
                self._replace(owner, method, original, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "gitvouch" or mod_name.startswith("gitvouch."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, original, wrapper)

    def _replace(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        observe = self._observers.get(name)
        stat = self.stats[name]
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        stack = self._stack
        active = self._active
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                duration = end - start
                spans[frame[0]] = (name_id, start, end, parent)
                stat.calls += 1
                stat.self_s += duration - frame[1]
                if not active[name]:
                    stat.s += duration
                if stack:
                    stack[-1][1] += duration
                else:
                    self.covered_s += duration
            stat.returned += 1
            if observe is not None:
                observe(stat, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- observers: counts measured where the work happens ---------------

    @staticmethod
    def _on_read_object(stat, args, result) -> None:
        stat.extra += len(result.payload)

    def _on_parse_authorizations(self, stat, args, result) -> None:
        data = args[0]
        self.policy_blobs.add(data.encode() if isinstance(data, str) else bytes(data))

    def _on_verify(self, stat, args, result) -> None:
        self.signatures.append((*args[:3], result))

    @staticmethod
    def _on_cache_read(stat, args, result) -> None:
        stat.extra += len(result)

    @staticmethod
    def _on_report(stat, args, result) -> None:
        stat.extra += result.cache_skipped

    # -- results ----------------------------------------------------------

    def self_time(self, prefix: str) -> float:
        return sum(s.self_s for n, s in self.stats.items() if n.split(".")[0] == prefix)

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}


def ed25519_floor(signatures) -> float | None:
    """Seconds that ``cryptography`` alone takes to verify the same
    Ed25519 signatures, with keys and digests prepared beforehand; the
    median of three timings. None when the captured objects no longer
    expose what this needs."""
    import hashlib

    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

    digests = {8: hashlib.sha256, 10: hashlib.sha512}
    keys: dict[bytes, Ed25519PublicKey] = {}
    work = []
    try:
        for sig, payload, keyring, verified in signatures:
            key = keyring.get(verified.key_fingerprint)
            if key.algorithm != "ed25519":
                continue
            if sig.sig_type == 1:
                payload = payload.replace(b"\r\n", b"\n").replace(b"\n", b"\r\n")
            digest = digests[sig.hash_algorithm](payload + sig.trailer()).digest()
            r, s = sig.material
            public = keys.get(key.material)
            if public is None:
                public = keys[key.material] = Ed25519PublicKey.from_public_bytes(key.material)
            work.append((public, r.to_bytes(32, "big") + s.to_bytes(32, "big"), digest))
    except (AttributeError, KeyError, TypeError, ValueError):
        return None
    times = []
    for _ in range(3):
        start = time.perf_counter()
        for public, raw, digest in work:
            public.verify(raw, digest)
        times.append(time.perf_counter() - start)
    return sorted(times)[1]
