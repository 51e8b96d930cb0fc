"""Environment knobs for the artifact cache.

Both knobs are read at *call* time, not import time, so tests (and the
benchmark harness) can flip them per scenario without reimporting:

* ``REPRO_CACHE`` — ``off`` / ``0`` / ``no`` disables the artifact
  cache entirely (every request parses and compiles from source).
* ``REPRO_CACHE_DIR`` — on-disk cache location; defaults to
  ``~/.cache/repro`` (respecting ``XDG_CACHE_HOME``).
"""

from __future__ import annotations

import os

_OFF = ("off", "0", "no", "false")


def cache_enabled() -> bool:
    """Is the artifact cache (memory + disk) on?"""
    return os.environ.get("REPRO_CACHE", "on").lower() not in _OFF


def cache_dir() -> str:
    """The on-disk artifact cache directory (not created here)."""
    explicit = os.environ.get("REPRO_CACHE_DIR")
    if explicit:
        return explicit
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro")
