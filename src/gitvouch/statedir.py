"""Where persistent state (authentication cache, provenance) lives, and
how a state file is replaced."""

from __future__ import annotations

import os
import tempfile

STATE_DIR_ENV = "GITVOUCH_STATE_DIR"


def default_state_dir() -> str:
    """``$GITVOUCH_STATE_DIR``, else the XDG state directory."""
    env = os.environ.get(STATE_DIR_ENV)
    if env:
        return env
    xdg = os.environ.get("XDG_STATE_HOME")
    base = xdg if xdg else os.path.expanduser(os.path.join("~", ".local", "state"))
    return os.path.join(base, "gitvouch")


def replace_file(path: str, data: bytes, prefix: str) -> None:
    """Atomically make ``data`` the content of ``path``: write it to a
    new file named ``<prefix>...`` in the same directory, then rename
    that over ``path``. On any failure the new file is removed, ``path``
    is left as it was, and the error propagates."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=prefix)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
