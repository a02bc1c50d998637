"""Seeded workload construction for the gitvouch benchmark.

Every history is built with the test suite's fixture helpers
(``key``, ``signer``, ``authz_bytes``, ``add_keyring_branch``,
``export_to_disk``), the public ``gitvouch`` API and the local ``git``;
nothing here reaches into gitvouch internals.

Run as a script, this module performs one set-up in its own process,
so that the memory used to build a workload never counts toward the
measuring process:

    python3 perfbench/workloads.py --workload merge-dag --seed 1 --out DIR

It builds the history, exports it, packs it with ``git gc``, checks the
result with ``git fsck --strict`` and ``git count-objects``, checks
every expected verdict against ``fixtures.brute_force_authentic``, warms
the cache and provenance where the workload needs them, and writes
``DIR/manifest.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")


def require_sources() -> None:
    """The benchmark runs the checkout's own sources; without them there
    is nothing to measure."""
    missing = [p for p in (os.path.join(SRC, "gitvouch", "__init__.py"),
                           os.path.join(TESTS, "fixtures.py")) if not os.path.isfile(p)]
    if missing:
        sys.exit(f"perfbench: missing {', '.join(missing)}: run from a full checkout")
    for path in (TESTS, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)


require_sources()

import fixtures  # noqa: E402  (tests/fixtures.py)
from gitvouch import ChannelIntroduction, MemoryStore, ObjectId, load_keyring  # noqa: E402

# -- sizes and shapes --------------------------------------------------------
#
# Sizes are set so that 4 + 22 x 3 runs, each with three set-ups, fit the
# benchmark's time budget; see perfbench/README.md.

LINEAR_COMMITS = 2000
DAG_COMMITS = 1000
WARM_BASE_COMMITS = 600

MERGE_SHARE = 0.20      # commits that merge two branch heads
FORK_SHARE = 0.20       # commits that start a new branch
POLICY_SHARE = 0.05     # commits that add or remove an authorized signer
MAX_HEADS = 8
N_FILES = 6
FILE_LINES = 60

SIGNERS = ["alice", "bob", "charlie", "dave", "eve", "frank"]
OUTSIDER = "mallory"    # in the keyring, never authorized
STRANGER = "zed"        # never in the keyring

CHANNEL_URL = "https://example.org/bench.git"
CHANNEL_FILE = (
    b'(channel (version 0) (url "' + CHANNEL_URL.encode()
    + b'") (keyring-reference "keyring"))\n'
)

# warm-pull ops come in blocks of 50 with a fixed mix, shuffled by the
# seed: 5 downgrades, 3 empty pulls, 2 pulls of 90-110 commits and 40
# pulls of 1-20 commits (each size twice). A fixed mix keeps the
# percentiles of one run from depending on which sizes the seed drew.
OP_BLOCK = ["downgrade"] * 5 + ["empty"] * 3 + ["large"] * 2 + [
    size for size in range(1, 21) for _ in range(2)]
LARGE_BATCH = (90, 110)

GIT_ENV = dict(
    os.environ,
    GIT_CONFIG_GLOBAL=os.devnull,
    GIT_CONFIG_NOSYSTEM="1",
    GIT_TERMINAL_PROMPT="0",
)


def git(repo: str, *args: str) -> str:
    # One pack thread: the delta search, and so the pack layout the
    # reader sees, is then the same on every run for a seed.
    return subprocess.run(
        ["git", "-c", "pack.threads=1", "--git-dir", repo, *args],
        check=True, capture_output=True, text=True, env=GIT_ENV,
    ).stdout


# -- history model -------------------------------------------------------------


@dataclass
class History:
    """What the builder knows about the history it made: enough to derive
    every verdict without running any verifier."""

    store: MemoryStore
    parents: dict[ObjectId, tuple[ObjectId, ...]] = field(default_factory=dict)
    policy: dict[ObjectId, tuple[str, ...]] = field(default_factory=dict)
    files: dict[ObjectId, dict[str, bytes]] = field(default_factory=dict)
    order: list[ObjectId] = field(default_factory=list)

    def cone(self, tip: ObjectId) -> set[ObjectId]:
        seen = {tip}
        stack = [tip]
        while stack:
            for parent in self.parents[stack.pop()]:
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        return seen

    def commit(self, parents, policy, files, signer_name, message) -> ObjectId:
        sign = fixtures.signer(fixtures.key(signer_name)) if signer_name else None
        cid = self.store.commit_files(files, parents, message=message, sign_with=sign)
        self.parents[cid] = tuple(parents)
        self.policy[cid] = tuple(policy)
        self.files[cid] = files
        self.order.append(cid)
        return cid


def _initial_files(rng: random.Random) -> dict[str, bytes]:
    return {
        f"src/file{j:02d}.txt": "".join(
            f"line {k:03d} of file {j:02d}: {rng.getrandbits(64):016x}\n"
            for k in range(FILE_LINES)
        ).encode()
        for j in range(N_FILES)
    }


def _edit(rng: random.Random, files: dict[str, bytes], tag: str) -> dict[str, bytes]:
    """Rewrite one line of one data file, so consecutive versions delta
    well under ``git gc``."""
    name = rng.choice(sorted(n for n in files if n.startswith("src/")))
    lines = files[name].split(b"\n")
    k = rng.randrange(FILE_LINES)
    lines[k] = f"line {k:03d} edited {tag}: {rng.getrandbits(64):016x}".encode()
    out = dict(files)
    out[name] = b"\n".join(lines)
    return out


def _with_policy(files: dict[str, bytes], policy) -> dict[str, bytes]:
    out = dict(files)
    out[".guix-authorizations"] = fixtures.authz_bytes(*(fixtures.key(n) for n in policy))
    return out


def _evolve_policy(rng: random.Random, policy: tuple[str, ...]) -> tuple[str, ...]:
    """Add or remove one signer; ``alice`` (the anchor) never leaves, so
    every merge has an eligible signer."""
    absent = [n for n in SIGNERS if n not in policy]
    removable = [n for n in policy if n != "alice"]
    if absent and (not removable or rng.random() < 0.5):
        return tuple(sorted(policy + (rng.choice(absent),)))
    dropped = rng.choice(removable)
    return tuple(n for n in policy if n != dropped)


def _eligible(history: History, parents) -> list[str]:
    allowed = set(history.policy[parents[0]])
    for parent in parents[1:]:
        allowed &= set(history.policy[parent])
    return sorted(allowed)


def _child(history: History, rng, parents, tag: str, *, policy_change=False) -> ObjectId:
    """A valid commit: one file edited, signed by a key every parent
    authorizes, sometimes changing the policy it hands to its children."""
    policy = history.policy[parents[0]]
    if policy_change:
        policy = _evolve_policy(rng, policy)
    files = _edit(rng, history.files[parents[0]], tag)
    files = _with_policy(files, policy)
    signer_name = rng.choice(_eligible(history, parents))
    return history.commit(parents, policy, files, signer_name, f"{tag}\n")


def build_dag(rng: random.Random, n: int, tag: str, *, channel: bool) -> History:
    """A branching history of ``n`` commits ending in one tip that merges
    every branch: ~20% merges, ~5% policy changes, one file edit per
    commit."""
    store = MemoryStore()
    fixtures.add_keyring_branch(store, [fixtures.key(k) for k in SIGNERS + [OUTSIDER]])
    history = History(store)

    policy = tuple(sorted(["alice"] + rng.sample(SIGNERS[1:], 3)))
    files = _with_policy(_initial_files(rng), policy)
    if channel:
        files[".guix-channel"] = CHANNEL_FILE
    root = history.commit([], policy, files, "alice", f"{tag} root\n")
    heads = [root]

    while len(history.order) < n - (len(heads) - 1):
        i = len(history.order)
        roll = rng.random()
        if len(heads) >= 2 and roll < MERGE_SHARE:
            a, b = rng.sample(heads, 2)
            cid = _child(history, rng, [a, b], f"{tag} merge {i}",
                         policy_change=rng.random() < POLICY_SHARE)
            heads.remove(b)
            heads[heads.index(a)] = cid
        elif len(heads) < MAX_HEADS and roll < MERGE_SHARE + FORK_SHARE:
            base = rng.choice(history.order[-50:])
            heads.append(_child(history, rng, [base], f"{tag} fork {i}",
                                policy_change=rng.random() < POLICY_SHARE))
        else:
            k = rng.randrange(len(heads))
            heads[k] = _child(history, rng, [heads[k]], f"{tag} commit {i}",
                              policy_change=rng.random() < POLICY_SHARE)
    while len(heads) > 1:
        b = heads.pop()
        heads[0] = _child(history, rng, [heads[0], b], f"{tag} final merge {len(history.order)}")
    store.set_ref("refs/heads/master", heads[0])
    return history


def build_linear(rng: random.Random, n: int, tag: str) -> History:
    """A linear history of ``n`` commits, two signers, one policy blob
    shared by every commit."""
    store = MemoryStore()
    fixtures.add_keyring_branch(store, [fixtures.key("alice"), fixtures.key("bob")])
    history = History(store)
    policy = ("alice", "bob")
    files = _with_policy({}, policy)
    tree = store.add_tree_from_files(files)
    parents: list[ObjectId] = []
    for i in range(n):
        name = "alice" if i == 0 else rng.choice(policy)
        cid = store.add_commit(tree, parents, message=f"{tag} commit {i}\n",
                               sign_with=fixtures.signer(fixtures.key(name)))
        history.parents[cid] = tuple(parents)
        history.policy[cid] = policy
        history.files[cid] = files
        history.order.append(cid)
        parents = [cid]
    store.set_ref("refs/heads/master", parents[0])
    return history


# -- targets with known answers ------------------------------------------------


@dataclass
class Target:
    name: str
    commit: ObjectId
    expect: list            # ["ok"] or [error class, offending commit hex]
    checked: int            # commits the engine authenticates before the verdict
    examined: int           # commits between introduction and target


def _target(history: History, intro: ObjectId, name: str, tip: ObjectId, error=None) -> Target:
    # Every commit of the cone except the introduction is examined; a
    # rejected tip is examined last, after all of its ancestors passed.
    examined = len(history.cone(tip) - history.cone(intro))
    expect = ["ok"] if error is None else [error, tip.hex]
    return Target(name, tip, expect, examined - (error is not None), examined)


def rejecting_tips(history: History, rng: random.Random, tag: str) -> list[tuple[str, ObjectId, str]]:
    """The four ways a tip pushed on top of ``master`` fails. Each sits on
    the accepted tip, so every target's verdict covers the whole history
    and costs about the same on every seed."""
    tip = history.order[-1]
    tips = []

    for what, signer_name, error in (("unsigned", None, "Unsigned"),
                                     ("unauthorized", OUTSIDER, "Unauthorized"),
                                     ("unknown-key", STRANGER, "UnknownKey")):
        files = _edit(rng, history.files[tip], f"{tag} {what}")
        cid = history.commit([tip], history.policy[tip], files, signer_name, f"{tag} {what}\n")
        tips.append((what, cid, error))

    # A merge whose signer one parent still authorizes and the other
    # parent's branch just removed.
    base = tip
    if len(history.policy[base]) == 1:
        base = _child(history, rng, [base], f"{tag} adds a signer", policy_change=True)
    victim = rng.choice([n for n in history.policy[base] if n != "alice"])
    kept = _child(history, rng, [base], f"{tag} keeps {victim}")
    policy = tuple(n for n in history.policy[base] if n != victim)
    files = _with_policy(_edit(rng, history.files[base], f"{tag} drops {victim}"), policy)
    dropped = history.commit([base], policy, files, "alice", f"{tag} drops {victim}\n")
    merge_files = _edit(rng, history.files[kept], f"{tag} bad merge")
    merge = history.commit([kept, dropped], history.policy[kept], merge_files,
                           victim, f"{tag} bad merge\n")
    tips.append(("merge-removed-signer", merge, "Unauthorized"))
    return tips


# -- warm-pull ops ------------------------------------------------------------


@dataclass
class Op:
    kind: str               # "pull", "empty" or "downgrade"
    store: MemoryStore      # new objects, with refs/heads/master set
    tip: ObjectId
    expect_exit: int
    new_commits: int


def warm_ops(seed: int, base: dict):
    """Endless seeded sequence of daily pulls on top of the base tip.

    ``base`` is the manifest's view of the base history: tip, its policy
    and files, and the base commits older than the tip.
    """
    rng = random.Random(f"warm-pull ops {seed}")
    tip = ObjectId.from_hex(base["tip"])
    older = [ObjectId.from_hex(h) for h in base["older"]]
    files0 = {k: v.encode("latin-1") for k, v in base["files"].items()}
    policy0 = tuple(base["policy"])
    slots = []
    i = 0
    while True:
        if not slots:
            slots = rng.sample(OP_BLOCK, len(OP_BLOCK))
        slot = slots.pop()
        i += 1
        store = MemoryStore()
        if slot == "downgrade":
            target = rng.choice(older)
            store.set_ref("refs/heads/master", target)
            yield Op("downgrade", store, target, 2, 0)
            continue
        if slot == "empty":
            store.set_ref("refs/heads/master", tip)
            yield Op("empty", store, tip, 0, 0)
            continue
        size = rng.randint(*LARGE_BATCH) if slot == "large" else slot
        history = History(store)
        history.parents[tip] = ()
        history.policy[tip] = policy0
        history.files[tip] = files0
        tag = f"seed {seed} pull {i}"
        policy_at = rng.randrange(size) if rng.random() < 0.2 else -1
        if size >= 3 and rng.random() < 0.3:
            side = rng.randint(1, size - 2)
            main = size - 1 - side
            a = b = tip
            for k in range(side):
                a = _child(history, rng, [a], f"{tag} side {k}", policy_change=k == policy_at)
            for k in range(main):
                b = _child(history, rng, [b], f"{tag} main {k}")
            head = _child(history, rng, [b, a], f"{tag} merge")
        else:
            head = tip
            for k in range(size):
                head = _child(history, rng, [head], f"{tag} commit {k}",
                              policy_change=k == policy_at)
        store.set_ref("refs/heads/master", head)
        yield Op("pull", store, head, 0, size)


def apply_op(op: Op, repo: str, stage: str, base_objects: set[str]) -> list[str]:
    """Write the op's new objects into ``repo`` as loose objects and move
    ``refs/heads/master``, as a small ``git fetch`` does. Returns the
    files written, for :func:`undo_op`."""
    shutil.rmtree(stage, ignore_errors=True)
    fixtures.export_to_disk(op.store, stage)
    written = []
    for oid, _ in op.store.objects():
        if oid.hex in base_objects:
            continue
        rel = os.path.join("objects", oid.hex[:2], oid.hex[2:])
        os.makedirs(os.path.join(repo, "objects", oid.hex[:2]), exist_ok=True)
        os.replace(os.path.join(stage, rel), os.path.join(repo, rel))
        written.append(os.path.join(repo, rel))
    os.makedirs(os.path.join(repo, "refs", "heads"), exist_ok=True)
    ref = os.path.join(repo, "refs", "heads", "master")
    os.replace(os.path.join(stage, "refs", "heads", "master"), ref)
    written.append(ref)
    return written


def undo_op(written: list[str]) -> None:
    for path in written:
        os.unlink(path)


# -- set-up -------------------------------------------------------------------


def export_packed(history: History, repo: str) -> None:
    """Export, pack with ``git gc``, and check that the result is sound
    and fully packed."""
    git(repo, "init", "--bare", "--quiet", "--template=")
    fixtures.export_to_disk(history.store, repo)
    git(repo, "gc", "--quiet")
    git(repo, "fsck", "--strict", "--no-progress", "--no-dangling")
    counts = dict(line.split(": ") for line in git(repo, "count-objects", "-v").splitlines())
    if counts["count"] != "0" or int(counts["in-pack"]) != len(history.store):
        raise SystemExit(f"perfbench: base not fully packed: {counts}")


def check_oracle(history: History, intro: ChannelIntroduction, targets: list[Target]) -> None:
    keyring = load_keyring(history.store)
    for t in targets:
        oracle = fixtures.brute_force_authentic(history.store, intro, t.commit, keyring)
        if oracle != (t.expect == ["ok"]):
            raise SystemExit(f"perfbench: oracle disagrees with construction on {t.name}")


def setup_cold(workload: str, seed: int, out: str) -> dict:
    rng = random.Random(f"{workload} {seed}")
    tag = f"{workload} seed {seed}"
    if workload == "cold-linear":
        history = build_linear(rng, LINEAR_COMMITS, tag)
        tips = []
    else:
        history = build_dag(rng, DAG_COMMITS, tag, channel=False)
        tips = rejecting_tips(history, rng, tag)
    root = history.order[0]
    intro = ChannelIntroduction(root, fixtures.key("alice").fingerprint)
    targets = [_target(history, root, "tip", history.store.resolve_ref("refs/heads/master"))]
    for name, cid, error in tips:
        history.store.set_ref(f"refs/heads/{name}", cid)
        targets.append(_target(history, root, name, cid, error))

    repo = os.path.join(out, "repo.git")
    export_packed(history, repo)
    check_oracle(history, intro, targets)
    return {
        "repo": repo,
        "intro": [root.hex, intro.signer.hex],
        "targets": [[t.name, t.commit.hex, t.expect, t.checked, t.examined] for t in targets],
    }


def setup_warm(seed: int, out: str) -> dict:
    from gitvouch import cli

    rng = random.Random(f"warm-pull {seed}")
    history = build_dag(rng, WARM_BASE_COMMITS, f"warm-pull seed {seed}", channel=True)
    root = history.order[0]
    tip = history.store.resolve_ref("refs/heads/master")
    intro = ChannelIntroduction(root, fixtures.key("alice").fingerprint)
    tip_target = _target(history, root, "tip", tip)
    repo = os.path.join(out, "repo.git")
    export_packed(history, repo)
    check_oracle(history, intro, [tip_target])

    base = {
        "tip": tip.hex,
        "policy": list(history.policy[tip]),
        "files": {k: v.decode("latin-1") for k, v in history.files[tip].items()},
        "older": [c.hex for c in history.order[len(history.order) // 2:] if c != tip],
    }
    base_objects = {oid.hex for oid, _ in history.store.objects()}

    # The first pull lands as loose objects next to the pack, is sound,
    # and is authentic by the oracle.
    op = next(o for o in warm_ops(seed, base) if o.kind == "pull")
    written = apply_op(op, repo, os.path.join(out, "stage"), base_objects)
    git(repo, "fsck", "--strict", "--no-progress", "--no-dangling")
    loose = dict(line.split(": ") for line in git(repo, "count-objects", "-v").splitlines())
    if int(loose["count"]) != len(written) - 1:
        raise SystemExit(f"perfbench: pull not written as loose objects: {loose}")
    for oid, obj in op.store.objects():
        history.store.add_object(obj.kind, obj.payload)
    if not fixtures.brute_force_authentic(history.store, intro, op.tip,
                                          load_keyring(history.store)):
        raise SystemExit("perfbench: oracle rejects a constructed pull")
    undo_op(written)

    channels = os.path.join(out, "channels.scm")
    with open(channels, "w") as fh:
        fh.write(
            f"(channel (name 'bench) (url \"{CHANNEL_URL}\")\n"
            f"  (introduction (make-channel-introduction \"{root.hex}\"\n"
            f"    (openpgp-fingerprint \"{intro.signer.display()}\"))))\n"
        )
    state = os.path.join(out, "state")
    with contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["update", "--repository", repo, "--channels", channels,
                       "--state-dir", state])
    if rc != 0:
        raise SystemExit(f"perfbench: warming update exited {rc}")
    return {
        "repo": repo,
        "intro": [root.hex, intro.signer.hex],
        "targets": [[tip_target.name, tip.hex, tip_target.expect, tip_target.checked,
                     tip_target.examined]],
        "channels": channels,
        "state": state,
        "base": base,
        "base_objects": sorted(base_objects),
    }


WORKLOADS = ("cold-linear", "merge-dag", "warm-pull")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    if args.workload == "warm-pull":
        manifest = setup_warm(args.seed, args.out)
    else:
        manifest = setup_cold(args.workload, args.seed, args.out)
    with open(os.path.join(args.out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)


if __name__ == "__main__":
    main()
