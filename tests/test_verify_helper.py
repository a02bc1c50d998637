"""The helper process that proves Ed25519 checks for a cold run.

A run with a helper must reach the same verdict, name the same
offending commit and record the same signers as a run without one,
whatever the helper sends, and must leave no child process and no file
descriptor behind.
"""

import os
import random
import threading
import time

import pytest

from gitvouch import authgraph
from gitvouch.authgraph import authenticate_repository
from gitvouch.errors import VouchError
from gitvouch.gitstore import MemoryStore
from gitvouch.sigverify.packets import ALGO_EDDSA

import fixtures

NEVER = 10**9


@pytest.fixture
def forks(monkeypatch):
    """Counts the processes forked while a test runs."""
    real = os.fork
    count = []

    def fork():
        pid = real()
        if pid:
            count.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return count


def outcome(store, intro, target, threshold, monkeypatch):
    """(error class name, offending commit, signers, helper count) of one
    run, forking a helper for ``threshold`` or more commits."""
    monkeypatch.setattr(authgraph, "HELPER_MIN_COMMITS", threshold)
    try:
        report = authenticate_repository(store, intro, target)
    except VouchError as exc:
        return type(exc).__name__, exc.commit_id, None, None
    return None, None, report.signers, report.helper_verified


def chain_failing_at(n: int, bad: int, kind: str = "forged"):
    """A linear chain of ``n`` commits signed by alice, except that
    commit ``bad`` carries an Ed25519 signature that does not verify
    (``forged``) or is signed by mallory, who is in the keyring and
    authorized by nobody (``unauthorized``)."""
    alice, mallory = fixtures.key("alice"), fixtures.key("mallory")
    store = MemoryStore()
    fixtures.add_keyring_branch(store, [alice, mallory])
    tree = store.add_tree_from_files({".guix-authorizations": fixtures.authz_bytes(alice)})
    good = fixtures.signer(alice)

    def forged(payload):
        return fixtures.claim_algorithm(good(payload), ALGO_EDDSA, payload)

    ids = []
    for i in range(n):
        sign = good
        if i == bad:
            sign = forged if kind == "forged" else fixtures.signer(mallory)
        ids.append(store.add_commit(tree, ids[-1:], message=f"commit {i}\n", sign_with=sign))
    return store, authgraph.ChannelIntroduction(ids[0], alice.fingerprint), ids


def open_fds() -> set[str]:
    return set(os.listdir("/proc/self/fd"))


def assert_no_child() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestHelperReport:
    def test_disabled_helper_verifies_nothing(self, monkeypatch, forks):
        chain = fixtures.linear_chain(300)
        monkeypatch.setattr(authgraph, "HELPER_MIN_COMMITS", NEVER)
        report = authenticate_repository(chain.store, chain.intro, chain.ids[-1])
        assert report.helper_verified == 0
        assert report.checked == 299
        assert forks == []

    def test_forced_helper_same_verdict_and_signers(self, monkeypatch, forks):
        chain = fixtures.linear_chain(300)
        off = outcome(chain.store, chain.intro, chain.ids[-1], NEVER, monkeypatch)
        on = outcome(chain.store, chain.intro, chain.ids[-1], 1, monkeypatch)
        assert len(forks) == 1
        assert on[:3] == off[:3]
        assert off[0] is None and len(off[2]) == 299
        assert 0 <= on[3] <= 299

    def test_checks_after_helper_finished_use_its_proofs(self, monkeypatch):
        # The first check waits until the helper has long proved the
        # whole chain; each later check finds its proof.
        chain = fixtures.linear_chain(120)
        real = authgraph.authenticate_commit
        calls = []

        def slow_first(*args, **kwargs):
            if not calls:
                time.sleep(1.0)
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(authgraph, "authenticate_commit", slow_first)
        monkeypatch.setattr(authgraph, "HELPER_MIN_COMMITS", 1)
        report = authenticate_repository(chain.store, chain.intro, chain.ids[-1])
        assert report.checked == 119
        assert report.helper_verified == 118

    def test_default_threshold_forks_for_long_runs_only(self, forks):
        assert authgraph.HELPER_MIN_COMMITS > 20
        short = fixtures.linear_chain(20)
        authenticate_repository(short.store, short.intro, short.ids[-1])
        assert forks == []


class TestHelperVerdicts:
    def test_random_repositories_match_without_helper(self, monkeypatch):
        rng = random.Random(20261019)
        failing = 0
        for _ in range(40):
            repo = fixtures.random_repository(rng, max_commits=24)
            off = outcome(repo.store, repo.intro, repo.target, NEVER, monkeypatch)
            on = outcome(repo.store, repo.intro, repo.target, 1, monkeypatch)
            assert on[:3] == off[:3]
            assert (off[0] is None) == repo.expect_ok
            failing += off[0] is not None
        assert 0 < failing < 40

    @pytest.mark.parametrize("bad,kind", [
        (1, "forged"), (150, "forged"), (299, "forged"), (150, "unauthorized"),
    ])
    def test_chain_failing_at_one_commit(self, monkeypatch, bad, kind):
        store, intro, ids = chain_failing_at(300, bad, kind)
        off = outcome(store, intro, ids[-1], NEVER, monkeypatch)
        on = outcome(store, intro, ids[-1], 1, monkeypatch)
        expected = "BadSignature" if kind == "forged" else "Unauthorized"
        assert off[:2] == (expected, ids[bad].hex)
        assert on == off


def idle(commits, keyring, fd):
    try:
        threading.Event().wait(60)
    finally:
        os._exit(0)


def dies(commits, keyring, fd):
    os._exit(0)


def garbage(commits, keyring, fd):
    try:
        rng = random.Random(7)
        os.write(fd, rng.randbytes(authgraph._RECORD.size * 7 // 2))
    finally:
        os._exit(0)


def near_misses(commits, keyring, fd):
    """Every true record with one proof byte flipped."""
    try:
        for index in range(len(commits) - 1, -1, -1):
            try:
                proof = bytearray(authgraph._verify_commit(commits[index], keyring).proof)
            except VouchError:
                continue
            proof[index % len(proof)] ^= 1
            os.write(fd, authgraph._RECORD.pack(index, bytes(proof)))
    finally:
        os._exit(0)


class TestHelperSafety:
    @pytest.mark.parametrize("helper", [idle, dies, garbage, near_misses])
    def test_verdicts_do_not_depend_on_what_helper_sends(self, monkeypatch, helper):
        monkeypatch.setattr(authgraph, "_prove", helper)
        chain = fixtures.linear_chain(120)
        ok = outcome(chain.store, chain.intro, chain.ids[-1], 1, monkeypatch)
        assert ok[0] is None and len(ok[2]) == 119 and ok[3] == 0
        store, intro, ids = chain_failing_at(120, 60)
        assert outcome(store, intro, ids[-1], 1, monkeypatch)[:2] == (
            "BadSignature", ids[60].hex)

    def test_nothing_left_after_success(self, monkeypatch, forks):
        chain = fixtures.linear_chain(200)
        before = open_fds()
        monkeypatch.setattr(authgraph, "HELPER_MIN_COMMITS", 1)
        authenticate_repository(chain.store, chain.intro, chain.ids[-1])
        assert len(forks) == 1
        assert open_fds() == before
        assert_no_child()

    def test_nothing_left_after_early_failure(self, monkeypatch, forks):
        store, intro, ids = chain_failing_at(200, 1)
        monkeypatch.setattr(authgraph, "_prove", idle)
        monkeypatch.setattr(authgraph, "HELPER_MIN_COMMITS", 1)
        before = open_fds()
        with pytest.raises(VouchError):
            authenticate_repository(store, intro, ids[-1])
        assert len(forks) == 1
        assert open_fds() == before
        assert_no_child()

    def test_nothing_left_after_keyboard_interrupt(self, monkeypatch, forks):
        chain = fixtures.linear_chain(200)
        real = authgraph.authenticate_commit
        calls = []

        def interrupted(*args, **kwargs):
            calls.append(1)
            if len(calls) == 10:
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(authgraph, "authenticate_commit", interrupted)
        monkeypatch.setattr(authgraph, "HELPER_MIN_COMMITS", 1)
        before = open_fds()
        with pytest.raises(KeyboardInterrupt):
            authenticate_repository(chain.store, chain.intro, chain.ids[-1])
        assert len(forks) == 1
        assert open_fds() == before
        assert_no_child()

    def test_no_fork_while_another_thread_runs(self, monkeypatch, forks):
        chain = fixtures.linear_chain(200)
        monkeypatch.setattr(authgraph, "HELPER_MIN_COMMITS", 1)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            report = authenticate_repository(chain.store, chain.intro, chain.ids[-1])
        finally:
            release.set()
            other.join()
        assert forks == [] and report.helper_verified == 0

    def test_no_fork_on_one_cpu(self, monkeypatch, forks):
        chain = fixtures.linear_chain(200)
        monkeypatch.setattr(authgraph, "HELPER_MIN_COMMITS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        report = authenticate_repository(chain.store, chain.intro, chain.ids[-1])
        assert forks == [] and report.helper_verified == 0

    def test_no_fork_without_fork(self, monkeypatch):
        chain = fixtures.linear_chain(200)
        monkeypatch.setattr(authgraph, "HELPER_MIN_COMMITS", 1)
        monkeypatch.delattr(os, "fork")
        report = authenticate_repository(chain.store, chain.intro, chain.ids[-1])
        assert report.checked == 199 and report.helper_verified == 0
