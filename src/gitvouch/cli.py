"""Command-line front end.

Exit codes: 0 success, 1 authentication failure, 2 refused
downgrade/unrelated update, 3 usage, I/O, or parse errors. Warnings
never change the exit code. Diagnostics go to stderr; ``describe``
output goes to stdout.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from gitvouch import authz, channel
from gitvouch.authgraph import (
    AuthCache,
    AuthOptions,
    AuthReport,
    ChannelIntroduction,
    authenticate_repository,
)
from gitvouch.errors import VouchError
from gitvouch.gitstore import Repository
from gitvouch.gitstore.objects import ObjectId, ObjectNotFound
from gitvouch.sigverify.fingerprint import Fingerprint
from gitvouch.statedir import default_state_dir

EXIT_OK = 0
EXIT_AUTH_FAILURE = 1
EXIT_UPDATE_REFUSED = 2
EXIT_USAGE = 3

log = logging.getLogger("gitvouch")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        raise UsageError(message)


def _normalize_ref(name: str) -> str:
    if name == "HEAD" or name.startswith("refs/"):
        return name
    return f"refs/heads/{name}"


def _resolve_endpoint(repo: Repository, spec: str) -> ObjectId:
    """A commit named by 40-hex id, a full ref, HEAD, or a branch/tag
    shorthand."""
    if len(spec) == 40:
        try:
            return ObjectId.from_hex(spec)
        except ValueError:
            pass
    for candidate in (spec, f"refs/heads/{spec}", f"refs/tags/{spec}"):
        try:
            return repo.resolve_ref(candidate)
        except ObjectNotFound:
            continue
    raise UsageError(f"cannot resolve '{spec}' to a commit")


def _authenticate(
    args: argparse.Namespace, repo, intro, target, **options
) -> AuthReport | None:
    """Authenticate ``target`` with the state directory's cache. On
    failure print the error line and return None; on success print
    ``--stats`` lines and return the report."""
    options = AuthOptions(cache=AuthCache(args.state_dir), **options)
    try:
        report = authenticate_repository(repo, intro, target, options)
    except VouchError as exc:
        kind = type(exc).__name__
        where = f" at commit {exc.commit_id}" if exc.commit_id else ""
        print(f"gitvouch: error: {kind}{where}: {exc}", file=sys.stderr)
        return None
    if args.stats:
        print(f"stats: commits checked: {report.checked}", file=sys.stderr)
        print(f"stats: commits walked: {report.walked}", file=sys.stderr)
        print(f"stats: cache hits: {report.cache_skipped}", file=sys.stderr)
        print(f"stats: policy files parsed: {report.policies_parsed}", file=sys.stderr)
        print(f"stats: signatures verified by helper: {report.helper_verified}",
              file=sys.stderr)
    return report


def cmd_authenticate(args: argparse.Namespace) -> int:
    try:
        intro = ChannelIntroduction(
            commit=ObjectId.from_hex(args.commit),
            signer=Fingerprint.parse(args.signer),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    historical = None
    if args.historical_authorizations:
        try:
            with open(args.historical_authorizations, "rb") as fh:
                historical = authz.parse_authorizations(fh.read())
        except (OSError, VouchError) as exc:
            raise UsageError(f"historical authorizations: {exc}") from exc

    repo = Repository(args.repository)
    target = _resolve_endpoint(repo, args.end)
    if not _authenticate(
        args, repo, intro, target,
        keyring_ref=_normalize_ref(args.keyring),
        historical_authorizations=historical,
        cache_key=args.cache_key,
    ):
        return EXIT_AUTH_FAILURE
    print(f"gitvouch: successfully authenticated commit {target.hex}", file=sys.stderr)
    return EXIT_OK


def cmd_update(args: argparse.Namespace) -> int:
    try:
        with open(args.channels, "rb") as fh:
            specs = channel.parse_channel_spec(fh.read())
    except (OSError, VouchError) as exc:
        raise UsageError(f"channels file: {exc}") from exc
    if not specs:
        raise UsageError(f"{args.channels}: no channel specifications found")
    if args.channel:
        specs = [s for s in specs if s.name == args.channel]
        if not specs:
            raise UsageError(f"no channel named '{args.channel}' in {args.channels}")
    elif len(specs) > 1:
        raise UsageError("multiple channels in file; select one with --channel NAME")
    spec = specs[0]

    repo = Repository(args.repository)
    try:
        tip = repo.resolve_ref(_normalize_ref(args.branch))
    except VouchError as exc:
        raise UsageError(f"branch '{args.branch}': {exc}") from exc

    # The keyring branch may be named by the channel metadata; an
    # explicit --keyring beats it.
    metadata = channel.read_channel_metadata(repo, tip)
    keyring_ref = "refs/heads/keyring"
    if metadata.keyring_ref:
        keyring_ref = _normalize_ref(metadata.keyring_ref)
    if args.keyring:
        keyring_ref = _normalize_ref(args.keyring)

    report = _authenticate(args, repo, spec.introduction, tip, keyring_ref=keyring_ref)
    if report is None:
        return EXIT_AUTH_FAILURE

    # Metadata was re-read from a now-authenticated commit, so the
    # primary URL it names can be trusted.
    warning = channel.staleness_check(spec.url, metadata)
    if warning is not None:
        print(f"gitvouch: warning: channel '{spec.name}': {warning}", file=sys.stderr)

    state_dir = args.state_dir or default_state_dir()
    provenance_path = os.path.join(state_dir, "provenance")
    baseline = channel.provenance_read(provenance_path, spec.name)
    if baseline is not None:
        try:
            verdict = channel.fast_forward_check(
                repo, baseline.commit, tip, report.ancestors
            )
        except ObjectNotFound:
            # Baseline commit missing from this clone: treat like
            # divergent history rather than silently proceeding.
            verdict = channel.FastForwardVerdict.UNRELATED
        if verdict is channel.FastForwardVerdict.DOWNGRADE and not args.allow_downgrades:
            print(
                f"gitvouch: error: refusing downgrade: target {tip.hex} is an "
                f"ancestor of the previously deployed {baseline.commit.hex} "
                "(use --allow-downgrades to override)",
                file=sys.stderr,
            )
            return EXIT_UPDATE_REFUSED
        if verdict is channel.FastForwardVerdict.UNRELATED and not args.allow_downgrades:
            print(
                f"gitvouch: error: target {tip.hex} is unrelated to the "
                f"previously deployed {baseline.commit.hex} "
                "(use --allow-downgrades to override)",
                file=sys.stderr,
            )
            return EXIT_UPDATE_REFUSED

    channel.provenance_write(
        provenance_path, channel.make_record(spec, args.branch, tip)
    )
    print(
        f"gitvouch: channel '{spec.name}' updated to {tip.hex} "
        f"(branch {args.branch})",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_describe(args: argparse.Namespace) -> int:
    state_dir = args.state_dir or default_state_dir()
    provenance_path = os.path.join(state_dir, "provenance")
    try:
        records = channel.provenance_read_all(provenance_path)
    except VouchError as exc:
        raise UsageError(f"provenance: {exc}") from exc
    if not records:
        raise UsageError("no provenance recorded yet; run 'gitvouch update' first")
    for record in records:
        print(f"{record.name} {record.commit.hex[:7]}")
        print(f"  repository URL: {record.url}")
        print(f"  branch: {record.branch}")
        print(f"  commit: {record.commit.hex}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="gitvouch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    auth = sub.add_parser(
        "authenticate", help="authenticate a checkout from its introduction"
    )
    auth.add_argument("commit", help="introductory commit (40 hex digits)")
    auth.add_argument("signer", help="fingerprint of the introduction's signing key")
    auth.add_argument("--repository", default=".", help="repository path (default: .)")
    auth.add_argument("--end", default="HEAD", help="commit or ref to authenticate up to")
    auth.add_argument("--keyring", default="keyring", help="branch holding OpenPGP keys")
    auth.add_argument(
        "--historical-authorizations",
        metavar="FILE",
        help="static authorization file for commits predating in-repo policy",
    )
    auth.add_argument("--cache-key", help="override the authentication cache key")
    auth.add_argument("--state-dir", default=None, help=argparse.SUPPRESS)
    auth.add_argument("--stats", action="store_true", help="print check statistics")
    auth.set_defaults(func=cmd_authenticate)

    update = sub.add_parser(
        "update", help="authenticate a fetched branch tip and advance provenance"
    )
    update.add_argument("--repository", default=".", help="repository path (default: .)")
    update.add_argument("--channels", required=True, metavar="FILE", help="channel spec file")
    update.add_argument("--channel", help="channel name when the file lists several")
    update.add_argument("--branch", default="master", help="branch to update to")
    update.add_argument("--keyring", help="override the keyring branch")
    update.add_argument(
        "--allow-downgrades",
        action="store_true",
        help="permit non-fast-forward updates",
    )
    update.add_argument("--state-dir", default=None, help="state directory")
    update.add_argument("--stats", action="store_true", help="print check statistics")
    update.set_defaults(func=cmd_update)

    describe = sub.add_parser("describe", help="print recorded provenance")
    describe.add_argument("--state-dir", default=None, help="state directory")
    describe.set_defaults(func=cmd_describe)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, format="gitvouch: %(levelname)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"gitvouch: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, VouchError) as exc:
        print(f"gitvouch: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
