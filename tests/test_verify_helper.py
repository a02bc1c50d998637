"""Deferred Ed25519 checks, run on the caller's thread and one worker
thread.

A run must reach the same verdict, name the same offending commit and
record the same signers as a run that makes every check inline, whatever
the worker thread does, and must leave no thread behind.
"""

import random
import sys
import threading
import time

import pytest

from gitvouch import authgraph
from gitvouch.authgraph import AuthOptions, authenticate_repository
from gitvouch.errors import VouchError
from gitvouch.gitstore import MemoryStore
from gitvouch.sigverify import ed25519
from gitvouch.sigverify.fingerprint import Fingerprint
from gitvouch.sigverify.keys import Keyring, load_keys
from gitvouch.sigverify.packets import ALGO_EDDSA
from openpgp_writer import export_public

import fixtures

IDENTITY = (1).to_bytes(32, "little")


def outcome(store, intro, target, options=None):
    """(error class name, offending commit, signers, worker count) of one
    run."""
    try:
        report = authenticate_repository(store, intro, target, options)
    except VouchError as exc:
        return type(exc).__name__, exc.commit_id, None, None
    return None, None, report.signers, report.worker_verified


def inline_outcome(monkeypatch, *args):
    """:func:`outcome` of a run whose deferred checks count as failed, so
    that it makes every check inline, as a run without deferral does."""
    with monkeypatch.context() as m:
        m.setattr(authgraph, "_check_deferred", lambda checks: None)
        return outcome(*args)


def chain_failing_at(n: int, bad: dict[int, str]):
    """A linear chain of ``n`` commits signed by alice, except that each
    commit ``i`` of ``bad`` carries an Ed25519 signature that does not
    verify (``bad[i] == "forged"``) or is signed by mallory, who is in
    the keyring and authorized by nobody (``"unauthorized"``)."""
    alice, mallory = fixtures.key("alice"), fixtures.key("mallory")
    store = MemoryStore()
    fixtures.add_keyring_branch(store, [alice, mallory])
    tree = store.add_tree_from_files({".guix-authorizations": fixtures.authz_bytes(alice)})
    good = fixtures.signer(alice)

    def forged(payload):
        return fixtures.claim_algorithm(good(payload), ALGO_EDDSA, payload)

    sign = {"forged": forged, "unauthorized": fixtures.signer(mallory)}
    ids = []
    for i in range(n):
        ids.append(store.add_commit(tree, ids[-1:], message=f"commit {i}\n",
                                    sign_with=sign.get(bad.get(i), good)))
    return store, authgraph.ChannelIntroduction(ids[0], alice.fingerprint), ids


def engine_by_thread(monkeypatch, *, caller=None, helper=None):
    """Route the engine's checks on the caller's thread through
    ``caller(verify, *check)`` and on any other thread through
    ``helper(verify, *check)``, where ``verify`` is the real check."""
    real = ed25519.engine()

    def verify(*check):
        on_caller = threading.current_thread() is threading.main_thread()
        route = caller if on_caller else helper
        return route(real.verify, *check) if route else real.verify(*check)

    monkeypatch.setattr(ed25519, "engine", lambda: ed25519.Engine(real.name, verify))


@pytest.fixture
def started(monkeypatch):
    """The threads started while a test runs."""
    real = threading.Thread.start
    threads = []

    def start(self):
        threads.append(self)
        real(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return threads


def assert_no_thread_left(started) -> None:
    assert not any(t.is_alive() for t in started)
    assert threading.active_count() == 1


@pytest.fixture
def eager_helper(monkeypatch):
    """Start the helper thread for any run of two or more checks."""
    monkeypatch.setattr(authgraph, "WORKER_MIN_CHECKS", 2)


class TestHelperReport:
    def test_disabled_helper_verifies_nothing(self, monkeypatch, started):
        chain = fixtures.linear_chain(300)
        monkeypatch.setattr(authgraph, "WORKER_MIN_CHECKS", 10**9)
        report = authenticate_repository(chain.store, chain.intro, chain.ids[-1])
        assert report.worker_verified == 0
        assert report.checked == 299
        assert started == []

    def test_default_threshold_starts_helper_for_long_runs_only(self, started):
        n = authgraph.WORKER_MIN_CHECKS
        assert n > 20
        short = fixtures.linear_chain(n)
        assert authenticate_repository(short.store, short.intro, short.ids[-1]).checked == n - 1
        assert started == []
        long = fixtures.linear_chain(n + 1)
        assert authenticate_repository(long.store, long.intro, long.ids[-1]).checked == n
        assert len(started) == 1

    def test_forced_helper_same_verdict_and_signers(self, monkeypatch, started):
        chain = fixtures.linear_chain(300)
        on = outcome(chain.store, chain.intro, chain.ids[-1])
        assert len(started) == 1
        off = inline_outcome(monkeypatch, chain.store, chain.intro, chain.ids[-1])
        assert on[:3] == off[:3]
        assert off[0] is None and len(off[2]) == 299
        assert 0 <= on[3] <= 299

    def test_helper_takes_the_checks_a_stalled_caller_leaves(self, monkeypatch):
        # The caller's first deferred check, after the introduction's,
        # which is made inline, stalls until the helper thread has long
        # made every other one.
        chain = fixtures.linear_chain(200)
        calls = []

        def slow_second(verify, *check):
            calls.append(1)
            if len(calls) == 2:
                time.sleep(1.0)
            return verify(*check)

        engine_by_thread(monkeypatch, caller=slow_second)
        report = authenticate_repository(chain.store, chain.intro, chain.ids[-1])
        assert report.checked == 199
        assert report.worker_verified == 198 and len(calls) == 2


def test_each_deferred_check_runs_once(monkeypatch):
    # Both threads take checks from one iterator while the interpreter
    # switches between them as often as it can.
    ran = []

    def record(*check):
        ran.append((check, threading.current_thread() is threading.main_thread()))
        return True

    monkeypatch.setattr(ed25519, "engine", lambda: ed25519.Engine("record", record))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            ran.clear()
            checks = [(bytes([i % 256]) * 32, i.to_bytes(64, "big"), b"") for i in range(2000)]
            expected = sorted(checks)
            helper = authgraph._check_deferred(checks)
            assert sorted(check for check, _ in ran) == expected
            assert helper == sum(not on_caller for _, on_caller in ran)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.usefixtures("eager_helper")
class TestHelperVerdicts:
    def test_random_repositories_match_without_helper(self, monkeypatch):
        rng = random.Random(20261019)
        failing = 0
        for _ in range(40):
            repo = fixtures.random_repository(rng, max_commits=24)
            args = (repo.store, repo.intro, repo.target,
                    AuthOptions(historical_authorizations=repo.historical))
            on = outcome(*args)
            off = inline_outcome(monkeypatch, *args)
            assert on[:3] == off[:3]
            assert (off[0] is None) == repo.expect_ok
            failing += off[0] is not None
        assert 0 < failing < 40

    @pytest.mark.parametrize("bad,kind", [
        (1, "forged"), (150, "forged"), (299, "forged"), (150, "unauthorized"),
    ])
    def test_chain_failing_at_one_commit(self, monkeypatch, bad, kind):
        store, intro, ids = chain_failing_at(300, {bad: kind})
        on = outcome(store, intro, ids[-1])
        off = inline_outcome(monkeypatch, store, intro, ids[-1])
        expected = "BadSignature" if kind == "forged" else "Unauthorized"
        assert off[:2] == (expected, ids[bad].hex)
        assert on == off

    def test_forgery_before_an_unauthorized_signer_is_reported(self):
        # The first pass stops at the unauthorized commit; the forgery
        # below it still decides the verdict.
        store, intro, ids = chain_failing_at(60, {20: "forged", 40: "unauthorized"})
        assert outcome(store, intro, ids[-1])[:2] == ("BadSignature", ids[20].hex)

    def test_key_id_collision_credits_the_key_that_verifies(self, monkeypatch):
        # Every key shares one key id; the signatures name only the key
        # id, and the first candidate, alice's key, does not verify them.
        monkeypatch.setattr(Fingerprint, "key_id", property(lambda self: b"\x42" * 8))
        alice, bob = fixtures.key("alice"), fixtures.key("bob")
        store = MemoryStore()
        fixtures.add_keyring_branch(store, [alice, bob])
        tree = store.add_tree_from_files(
            {".guix-authorizations": fixtures.authz_bytes(alice, bob)})
        sign = fixtures.signer(bob, issuer_fingerprint=False)
        ids = []
        for i in range(10):
            ids.append(store.add_commit(tree, ids[-1:], message=f"commit {i}\n",
                                        sign_with=sign))
        intro = authgraph.ChannelIntroduction(ids[0], bob.fingerprint)
        report = authenticate_repository(store, intro, ids[-1])
        assert report.checked == 9
        assert set(report.signers.values()) == {bob.fingerprint}

    def test_small_order_key_is_never_deferred(self, monkeypatch):
        # Bob's key is replaced by the small-order identity point; the
        # strict rule refuses it before any check is handed on.
        alice, bob = fixtures.key("alice"), fixtures.key("bob")
        store = MemoryStore()
        fixtures.add_keyring_branch(store, [alice, bob])
        tree = store.add_tree_from_files(
            {".guix-authorizations": fixtures.authz_bytes(alice, bob)})
        ids = []
        for i in range(10):
            signer = bob if i == 5 else alice
            ids.append(store.add_commit(tree, ids[-1:], message=f"commit {i}\n",
                                        sign_with=fixtures.signer(signer)))
        ring = Keyring(load_keys(export_public(alice)) + [
            load_keys(export_public(bob))[0]._replace(material=IDENTITY)])
        monkeypatch.setattr(authgraph, "load_keyring", lambda store, ref: ring)
        real = authgraph._check_deferred
        handed = []

        def check_deferred(checks):
            handed.extend(checks)
            return real(checks)

        monkeypatch.setattr(authgraph, "_check_deferred", check_deferred)
        intro = authgraph.ChannelIntroduction(ids[0], alice.fingerprint)
        with pytest.raises(VouchError, match="small order") as info:
            authenticate_repository(store, intro, ids[-1])
        assert type(info.value).__name__ == "BadSignature"
        assert info.value.commit_id == ids[5].hex
        assert len(handed) == 4 and IDENTITY not in {public for public, _, _ in handed}


def idle(verify, *check):
    time.sleep(0.05)
    return verify(*check)


def dies(verify, *check):
    raise RuntimeError("the helper thread fails")


def garbage(verify, *check):
    return False


@pytest.mark.usefixtures("eager_helper")
class TestHelperSafety:
    @pytest.mark.parametrize("helper", [idle, dies, garbage])
    def test_verdicts_do_not_depend_on_what_helper_sends(self, monkeypatch, helper):
        engine_by_thread(monkeypatch, helper=helper)
        chain = fixtures.linear_chain(120)
        ok = outcome(chain.store, chain.intro, chain.ids[-1])
        assert ok[0] is None and len(ok[2]) == 119
        assert ok[3] == 0 if helper in (dies, garbage) else 0 <= ok[3] <= 119
        store, intro, ids = chain_failing_at(120, {60: "forged"})
        assert outcome(store, intro, ids[-1])[:2] == ("BadSignature", ids[60].hex)

    def test_nothing_left_after_success(self, started):
        chain = fixtures.linear_chain(200)
        authenticate_repository(chain.store, chain.intro, chain.ids[-1])
        assert len(started) == 1
        assert_no_thread_left(started)

    def test_nothing_left_after_early_failure(self, monkeypatch, started):
        store, intro, ids = chain_failing_at(200, {1: "forged"})
        engine_by_thread(monkeypatch, helper=idle)
        with pytest.raises(VouchError):
            authenticate_repository(store, intro, ids[-1])
        assert len(started) == 1
        assert_no_thread_left(started)

    def test_nothing_left_after_keyboard_interrupt(self, monkeypatch, started):
        chain = fixtures.linear_chain(200)
        calls = []

        def interrupted(verify, *check):
            calls.append(1)
            if len(calls) == 10:
                raise KeyboardInterrupt
            return verify(*check)

        engine_by_thread(monkeypatch, caller=interrupted, helper=idle)
        with pytest.raises(KeyboardInterrupt):
            authenticate_repository(chain.store, chain.intro, chain.ids[-1])
        assert len(started) == 1
        assert_no_thread_left(started)

    def test_nothing_left_after_interrupted_start(self, monkeypatch):
        chain = fixtures.linear_chain(200)

        def interrupted(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(threading.Thread, "start", interrupted)
        with pytest.raises(KeyboardInterrupt):
            authenticate_repository(chain.store, chain.intro, chain.ids[-1])
        assert threading.active_count() == 1
