"""gitvouch benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload cold-linear --seed 1 --seconds 20 --trace 0

Set-up runs in a child process (see workloads.py) several times, and
``setup_s`` is the median. The timed phase then runs in this process,
with one thread, as a closed loop with one client: each verdict starts
when the previous one has ended. Every verdict is compared with the
answer known from the workload's construction; a verdict that differs,
or an exception that is not a ``VouchError``, counts as failed.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run (see
spans.py and README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (exits when the checkout has no sources)
from workloads import ROOT, WORKLOADS, Target  # noqa: E402

import gitvouch  # noqa: E402
import gitvouch.cli  # noqa: E402
from gitvouch import ChannelIntroduction, Fingerprint, ObjectId, VouchError  # noqa: E402

SETUP_REPEATS = 3
MIN_COLD_VERDICTS = 3
MIN_UPDATES = 100           # so that at least ten updates lie beyond p90
COLD_EVERY = 10             # warm-pull: one cold verdict of the base per 10 updates
DEADLINE_S = 150.0          # from process start; the whole run must end within 180 s
SETUP_TIMEOUT_S = 40
TRACE_OPS = 40              # warm-pull ops in one traced pass
START = time.perf_counter()

END_TO_END = [
    ("cold_commits_per_s", "1/s"),
    ("verdict_ms.p50", "ms"),
    ("verdict_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

# (name, unit, better)
PER_LAYER = [
    ("gitstore.read_object.calls", "count", "lower"),
    ("gitstore.read_object.self_s", "s", "lower"),
    ("gitstore.read_object.bytes", "B", "lower"),
    ("gitstore.parse_commit.calls", "count", "lower"),
    ("gitstore.parse_commit.self_s", "s", "lower"),
    ("gitstore.parse_tree.calls", "count", "lower"),
    ("gitstore.parse_tree.self_s", "s", "lower"),
    ("gitstore.objects_per_checked_commit", "ratio", "lower"),
    ("graph.is_ancestor.calls", "count", "lower"),
    ("graph.is_ancestor.s", "s", "lower"),
    ("graph.commit_difference.s", "s", "lower"),
    ("graph.read_path_at_commit.calls", "count", "lower"),
    ("graph.read_path_at_commit.self_s", "s", "lower"),
    ("graph.commits_parsed_per_checked", "ratio", "lower"),
    ("authz.parse_authorizations.calls", "count", "lower"),
    ("authz.parse_authorizations.self_s", "s", "lower"),
    ("sexp.parse_sexp.self_s", "s", "lower"),
    ("authz.distinct_policy_blobs", "count", "lower"),
    ("authz.parse_useful_ratio", "ratio", "higher"),
    ("sigverify.dearmor.self_s", "s", "lower"),
    ("sigverify.parse_packets.self_s", "s", "lower"),
    ("sigverify.verify.calls", "count", "lower"),
    ("sigverify.verify.self_s", "s", "lower"),
    ("sigverify.ed25519_floor_s", "s", "lower"),
    ("authgraph.overhead_x", "x", "lower"),
    ("authgraph.load_keyring.s", "s", "lower"),
    ("authgraph.cache.read.s", "s", "lower"),
    ("authgraph.cache.write.s", "s", "lower"),
    ("authgraph.cache.ids_read", "count", "lower"),
    ("authgraph.cache.file_bytes", "B", "lower"),
    ("authgraph.commits_checked", "count", "lower"),
    ("authgraph.cache_skipped", "count", "higher"),
    ("authgraph.self_s", "s", "lower"),
    ("channel.read_channel_metadata.s", "s", "lower"),
    ("channel.fast_forward_check.s", "s", "lower"),
    ("channel.provenance_io.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_x", "x", "lower"),
    ("trace.checks_failed", "count", "lower"),
    ("trace.absent_boundaries", "count", "lower"),
]


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# -- verdicts -----------------------------------------------------------------


class Verdicts:
    """Expected and actual answers of every verdict attempted."""

    def __init__(self) -> None:
        self.records: list[tuple[list, list]] = []

    def add(self, expected: list, actual: list) -> None:
        self.records.append((expected, actual))
        if expected != actual:
            log(f"wrong verdict: expected {expected}, got {actual}")

    @staticmethod
    def wrong(records) -> int:
        return sum(expected != actual for expected, actual in records)

    def self_test(self) -> bool:
        """Tamper with one expected answer that matched: the wrong count
        must rise by exactly one, or the comparison is not checking."""
        for i, (expected, actual) in enumerate(self.records):
            if expected == actual:
                tampered = list(self.records)
                tampered[i] = (["tampered", *expected], actual)
                before, after = self.wrong(self.records), self.wrong(tampered)
                log(f"self-test: tampered answer moves wrong verdicts {before} -> {after}"
                    f" of {len(self.records)}")
                return after == before + 1
        log("self-test: no verdict matched, nothing to tamper with")
        return False


def _crash(exc: Exception) -> list:
    return ["crash", f"{type(exc).__name__}: {exc}"[:200]]


class Workload:
    """A set-up workload: its repository, introduction and targets."""

    def __init__(self, name: str, seed: int, manifest: dict, work: str) -> None:
        self.name = name
        self.seed = seed
        self.manifest = manifest
        self.repo = manifest["repo"]
        commit, signer = manifest["intro"]
        self.intro = ChannelIntroduction(ObjectId.from_hex(commit), Fingerprint.parse(signer))
        self.targets = [Target(name, ObjectId.from_hex(hexid), *rest)
                        for name, hexid, *rest in manifest["targets"]]
        self.stage = os.path.join(work, "stage")
        if name == "warm-pull":
            self.base_objects = set(manifest["base_objects"])
            self.state = manifest["state"]
            self.argv = ["update", "--repository", self.repo, "--channels",
                         manifest["channels"], "--state-dir", self.state]
            self.pristine = {}
            for directory, _, files in os.walk(self.state):
                for f in files:
                    path = os.path.join(directory, f)
                    with open(path, "rb") as fh:
                        self.pristine[path] = fh.read()
            self.sink = io.StringIO()

    def cold_verdict(self, target: Target) -> tuple[list, float]:
        """One cold ``authenticate_repository`` call: a fresh repository
        handle, no cache, the keyring loaded from the repository."""
        gc.collect()
        start = time.perf_counter()
        try:
            gitvouch.authenticate_repository(
                gitvouch.Repository(self.repo), self.intro, target.commit,
                gitvouch.AuthOptions())
            actual = ["ok"]
        except VouchError as exc:
            actual = [type(exc).__name__, exc.commit_id]
        except Exception as exc:  # recorded as a wrong verdict, not a crash of the run
            actual = _crash(exc)
        return actual, time.perf_counter() - start

    def ops(self):
        return workloads.warm_ops(self.seed, self.manifest["base"])

    def update(self, op, cache_sizes: list | None = None) -> tuple[list, float]:
        """One daily pull: land the op's objects and ref, time one
        in-process ``gitvouch update``, then put repository and state back
        as set-up left them."""
        written = workloads.apply_op(op, self.repo, self.stage, self.base_objects)
        gc.collect()
        self.sink.seek(0)
        self.sink.truncate()
        with contextlib.redirect_stderr(self.sink):
            start = time.perf_counter()
            try:
                actual = [gitvouch.cli.main(self.argv)]
            except Exception as exc:  # recorded as a wrong verdict
                actual = _crash(exc)
            elapsed = time.perf_counter() - start
        if cache_sizes is not None:
            cache_dir = os.path.join(self.state, "authentication")
            cache_sizes.append(sum(os.path.getsize(os.path.join(cache_dir, f))
                                   for f in os.listdir(cache_dir)))
        workloads.undo_op(written)
        for path, data in self.pristine.items():
            with open(path, "wb") as fh:
                fh.write(data)
        return actual, elapsed


# -- untraced run: end-to-end metrics --------------------------------------------


def past_deadline() -> bool:
    return time.perf_counter() - START > DEADLINE_S


def p90(values: list[float]) -> float:
    # Interpolates between order statistics, so that on a cold workload,
    # with only a handful of verdicts, one slow verdict moves it less.
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def timed_run(w: Workload, seconds: float, verdicts: Verdicts) -> dict:
    rates: list[float] = []
    times: list[float] = []
    start = time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - start

    def cold(target: Target) -> float:
        actual, wall = w.cold_verdict(target)
        verdicts.add(target.expect, actual)
        rates.append(target.examined / wall)
        return wall

    if w.name == "warm-pull":
        # Whole blocks only, so every run times the same op mix.
        block = len(workloads.OP_BLOCK)
        for n, op in enumerate(w.ops()):
            done = n >= MIN_UPDATES and n % block == 0 and elapsed() >= seconds
            if done or past_deadline():
                break
            if n % COLD_EVERY == 0:
                cold(w.targets[0])
            actual, wall = w.update(op)
            verdicts.add([op.expect_exit], actual)
            times.append(wall)
    else:
        rng = random.Random(f"order {w.seed}")
        least = max(MIN_COLD_VERDICTS, len(w.targets))
        while not (elapsed() >= seconds and len(times) >= least) and not past_deadline():
            for target in rng.sample(w.targets, len(w.targets)):
                times.append(cold(target))
    ms = [t * 1000 for t in times]
    log(f"{len(rates)} cold verdicts, {len(times)} timed verdicts in {elapsed():.1f} s")
    return {
        "cold_commits_per_s": statistics.median(rates),
        "verdict_ms.p50": statistics.median(ms),
        "verdict_ms.p90": p90(ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# -- traced run: per-layer metrics -------------------------------------------------


def trace_pass(w: Workload, verdicts: Verdicts, tracer=None):
    """One pass over the workload's fixed trace plan; returns per-op walls
    and, for warm-pull, the cache file size after each op."""
    walls: list[float] = []
    cache_sizes: list[int] = []
    if tracer is not None:
        tracer.install()
    try:
        if w.name == "warm-pull":
            for op, _ in zip(w.ops(), range(TRACE_OPS)):
                actual, wall = w.update(op, cache_sizes)
                verdicts.add([op.expect_exit], actual)
                walls.append(wall)
        else:
            for target in w.targets:
                actual, wall = w.cold_verdict(target)
                verdicts.add(target.expect, actual)
                walls.append(wall)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return walls, cache_sizes


def expectations(w: Workload) -> dict:
    """Counts one trace pass must produce, derived from construction."""
    if w.name == "warm-pull":
        ops = [op for op, _ in zip(w.ops(), range(TRACE_OPS))]
        return {"verdicts": len(ops), "checked": sum(op.new_commits for op in ops),
                "verified_rejects": 0}
    return {
        "verdicts": len(w.targets),
        "checked": sum(t.checked for t in w.targets),
        "verified_rejects": sum(t.expect[0] not in ("ok", "Unsigned") for t in w.targets),
    }


def self_checks(w: Workload, tr, expect: dict) -> list[tuple[str, bool | None]]:
    """Counts that must hold whatever the implementation, each as
    (description, passed); passed is None when a span it needs is absent."""
    st = tr.stats
    checked = st["authgraph.authenticate_commit"].returned
    verdicts = expect["verdicts"]
    entry = "cli.main" if w.name == "warm-pull" else "authgraph.authenticate_repository"
    checks = [
        (f"authgraph.commits_checked == {expect['checked']} (from construction)",
         ["authgraph.authenticate_commit"],
         lambda: checked == expect["checked"]),
        (f"sigverify.verify.calls == commits_checked + {verdicts} introductions"
         f" + {expect['verified_rejects']} verified rejections",
         ["sigverify.verify", "authgraph.authenticate_commit"],
         lambda: st["sigverify.verify"].calls == checked + verdicts + expect["verified_rejects"]),
        ("gitstore.parse_commit.calls >= commits_checked",
         ["gitstore.parse_commit", "authgraph.authenticate_commit"],
         lambda: st["gitstore.parse_commit"].calls >= checked),
        (f"{entry}.calls == {verdicts} verdicts", [entry],
         lambda: st[entry].calls == verdicts),
    ]
    return [(text, test() if all(n in tr.installed for n in names) else None)
            for text, names, test in checks]


def layer_metrics(tr, traced_s: float, untraced_s: float, floor, cache_sizes) -> dict:
    st = tr.stats
    checked = st["authgraph.authenticate_commit"].returned

    def per_checked(n):
        return n / checked if checked else 0.0

    parse_calls = st["authz.parse_authorizations"].calls
    return {
        "gitstore.read_object.calls": st["gitstore.read_object"].calls,
        "gitstore.read_object.self_s": st["gitstore.read_object"].self_s,
        "gitstore.read_object.bytes": st["gitstore.read_object"].extra,
        "gitstore.parse_commit.calls": st["gitstore.parse_commit"].calls,
        "gitstore.parse_commit.self_s": st["gitstore.parse_commit"].self_s,
        "gitstore.parse_tree.calls": st["gitstore.parse_tree"].calls,
        "gitstore.parse_tree.self_s": st["gitstore.parse_tree"].self_s,
        "gitstore.objects_per_checked_commit": per_checked(st["gitstore.read_object"].calls),
        "graph.is_ancestor.calls": st["graph.is_ancestor"].calls,
        "graph.is_ancestor.s": st["graph.is_ancestor"].s,
        "graph.commit_difference.s": st["graph.commit_difference"].s,
        "graph.read_path_at_commit.calls": st["graph.read_path_at_commit"].calls,
        "graph.read_path_at_commit.self_s": st["graph.read_path_at_commit"].self_s,
        "graph.commits_parsed_per_checked": per_checked(st["gitstore.parse_commit"].calls),
        "authz.parse_authorizations.calls": parse_calls,
        "authz.parse_authorizations.self_s": st["authz.parse_authorizations"].self_s,
        "sexp.parse_sexp.self_s": st["sexp.parse_sexp"].self_s,
        "authz.distinct_policy_blobs": len(tr.policy_blobs),
        "authz.parse_useful_ratio": len(tr.policy_blobs) / parse_calls if parse_calls else 0.0,
        "sigverify.dearmor.self_s": st["sigverify.dearmor"].self_s,
        "sigverify.parse_packets.self_s": st["sigverify.parse_packets"].self_s,
        "sigverify.verify.calls": st["sigverify.verify"].calls,
        "sigverify.verify.self_s": st["sigverify.verify"].self_s,
        "sigverify.ed25519_floor_s": floor or 0.0,
        "authgraph.overhead_x": untraced_s / floor if floor else 0.0,
        "authgraph.load_keyring.s": st["authgraph.load_keyring"].s,
        "authgraph.cache.read.s": st["authgraph.cache.read"].s,
        "authgraph.cache.write.s": st["authgraph.cache.write"].s,
        "authgraph.cache.ids_read": st["authgraph.cache.read"].extra,
        "authgraph.cache.file_bytes": statistics.mean(cache_sizes) if cache_sizes else 0,
        "authgraph.commits_checked": checked,
        "authgraph.cache_skipped": st["authgraph.authenticate_repository"].extra,
        "authgraph.self_s": tr.self_time("authgraph"),
        "channel.read_channel_metadata.s": st["channel.read_channel_metadata"].s,
        "channel.fast_forward_check.s": st["channel.fast_forward_check"].s,
        "channel.provenance_io.s": st["channel.provenance_io"].s,
        "cli.self_s": tr.self_time("cli"),
        "trace.coverage": tr.covered_s / traced_s,
        "trace.overhead_x": traced_s / untraced_s,
        "trace.absent_boundaries": len(tr.absent),
    }


def traced_run(w: Workload, seconds: float, verdicts: Verdicts, trace_file: str) -> tuple[dict, bool]:
    """Pairs of (untraced, traced) passes over the same fixed plan until
    ``seconds`` have passed. Counts come from one traced pass and must
    repeat exactly in the others; times are medians over passes."""
    import spans

    expect = expectations(w)
    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start < seconds and not past_deadline()):
        untraced, _ = trace_pass(w, verdicts)
        tracer = spans.Tracer()
        traced, cache_sizes = trace_pass(w, verdicts, tracer)
        floor = spans.ed25519_floor(tracer.signatures)
        tracer.signatures.clear()
        passes.append((tracer, layer_metrics(tracer, sum(traced), sum(untraced), floor,
                                             cache_sizes)))
        if len(passes) == 1:
            with open(trace_file, "w") as fh:
                json.dump(tracer.dump(), fh)
    first_tracer, first = passes[0]
    for name in first_tracer.absent:
        log(f"trace: boundary absent: {name}")

    checks = self_checks(w, first_tracer, expect)
    counts = [k for k, v in first.items() if isinstance(v, int)]
    repeat = all(m[k] == first[k] for _, m in passes[1:] for k in counts)
    checks.append((f"counts repeat exactly over {len(passes)} traced passes", repeat))
    failed = 0
    for text, passed in checks:
        log(f"trace check {'absent' if passed is None else 'ok' if passed else 'FAILED'}: {text}")
        failed += passed is False
    first["trace.checks_failed"] = failed
    metrics = {}
    for key, unit, _ in PER_LAYER:
        value = first[key]
        if not isinstance(value, int):
            value = statistics.median(m[key] for _, m in passes)
        metrics[key] = {"value": value, "unit": unit}
    log(f"{len(passes)} untraced/traced pass pairs in {time.perf_counter() - start:.1f} s;"
        f" spans written to {os.path.relpath(trace_file, ROOT)}")
    return metrics, failed == 0


# -- entry point ----------------------------------------------------------------


def set_up(workload: str, seed: int, work: str, repeats: int) -> tuple[dict, list[float]]:
    durations = []
    for i in range(repeats):
        out = os.path.join(work, f"setup{i}")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", workload,
             "--seed", str(seed), "--out", out],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        durations.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: set-up of {workload} failed ({proc.returncode})")
        if i < repeats - 1:
            shutil.rmtree(out)
    with open(os.path.join(out, "manifest.json")) as fh:
        return json.load(fh), durations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    scratch = os.path.join(ROOT, ".perfbench")
    work = os.path.join(scratch, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        manifest, durations = set_up(args.workload, args.seed, work,
                                     1 if args.trace else SETUP_REPEATS)
        log(f"set-up {args.workload} seed {args.seed}: "
            + ", ".join(f"{d:.2f}" for d in durations) + " s")
        w = Workload(args.workload, args.seed, manifest, work)
        verdicts = Verdicts()
        if args.trace:
            os.makedirs(os.path.join(scratch, "traces"), exist_ok=True)
            trace_file = os.path.join(scratch, "traces",
                                      f"{args.workload}-seed{args.seed}.json")
            metrics, checks_ok = traced_run(w, args.seconds, verdicts, trace_file)
        else:
            values = timed_run(w, args.seconds, verdicts)
            values["setup_s"] = statistics.median(durations)
            metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
            checks_ok = True
        self_test_ok = verdicts.self_test()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = Verdicts.wrong(verdicts.records)
    print(json.dumps({
        "correct": failed == 0 and self_test_ok and checks_ok,
        "attempted": len(verdicts.records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
