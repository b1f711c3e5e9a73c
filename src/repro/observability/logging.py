"""Unified logging configuration for the whole package.

Library modules obtain namespaced loggers with :func:`get_logger` and never
touch handlers themselves (``logging.basicConfig`` in a library hijacks the
host application's root logger); entry points — the CLI, experiment runner,
benchmark harness — call :func:`configure` exactly once to decide level,
format, destination, and per-module overrides for everything under the
``repro`` namespace.
"""

from __future__ import annotations

import logging as _logging
import sys

__all__ = [
    "ROOT_LOGGER_NAME",
    "DEFAULT_FORMAT",
    "configure",
    "configure_logging",
    "get_logger",
]

#: Every repro logger lives under this namespace.
ROOT_LOGGER_NAME = "repro"

#: Default record format: time, level, dotted module, message.
DEFAULT_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"

#: The handler installed by :func:`configure` (tracked so reconfiguration
#: replaces it instead of stacking duplicates).
_installed_handler: _logging.Handler | None = None


def _qualify(name: str | None) -> str:
    if not name:
        return ROOT_LOGGER_NAME
    if name == ROOT_LOGGER_NAME or name.startswith(ROOT_LOGGER_NAME + "."):
        return name
    return f"{ROOT_LOGGER_NAME}.{name}"


def get_logger(name: str | None = None) -> _logging.Logger:
    """A logger under the ``repro`` namespace.

    Pass ``__name__`` from package modules (already qualified) or a short
    suffix like ``"core.buckets"``; no argument returns the root logger.
    """
    return _logging.getLogger(_qualify(name))


def configure(
    level: int | str = "INFO",
    *,
    fmt: str = DEFAULT_FORMAT,
    stream=None,
    module_levels: dict | None = None,
) -> _logging.Logger:
    """Configure the ``repro`` logger tree; safe to call repeatedly.

    Parameters
    ----------
    level:
        Threshold for the ``repro`` root logger (name or numeric).
    fmt:
        ``logging.Formatter`` format string for the installed handler.
    stream:
        Destination stream (default ``sys.stderr``, so CSV/label output on
        stdout stays machine-readable).
    module_levels:
        Per-module overrides, e.g. ``{"core.buckets": "DEBUG"}`` (names are
        qualified under ``repro`` automatically).

    Returns the configured root logger. Reconfiguring replaces the handler
    installed by the previous call rather than stacking a duplicate, and
    only ever touches the ``repro`` subtree — never the global root logger.
    """
    global _installed_handler
    root = _logging.getLogger(ROOT_LOGGER_NAME)
    if _installed_handler is not None:
        root.removeHandler(_installed_handler)
    handler = _logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(_logging.Formatter(fmt))
    root.addHandler(handler)
    root.setLevel(level)
    root.propagate = False  # the host application's root logger is not ours
    _installed_handler = handler
    for name, module_level in (module_levels or {}).items():
        _logging.getLogger(_qualify(name)).setLevel(module_level)
    return root


#: Unambiguous alias for importing alongside other configure-ish names.
configure_logging = configure
