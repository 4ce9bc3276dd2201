"""Structured logging for the CLI and library diagnostics.

The library logs under the ``repro`` logger namespace
(``get_logger("cli")`` -> ``repro.cli``); nothing attaches handlers at
import time, so embedding applications keep full control.  The CLI calls
:func:`configure_logging`, which installs the split-stream convention
UNIX tools use:

* records below WARNING (progress, per-run diagnostics) go to *stdout*;
* WARNING and above (failure records, degradations) go to *stderr*;

both with a bare ``%(message)s`` format, so the CLI's human-readable
output is unchanged while every line now carries a level and flows
through one configurable funnel (``--log-level``).
"""

from __future__ import annotations

import logging
import sys

LOGGER_NAME = "repro"

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}


def get_logger(name: str | None = None) -> logging.Logger:
    """The ``repro`` logger, or the ``repro.<name>`` child."""
    if not name:
        return logging.getLogger(LOGGER_NAME)
    return logging.getLogger(f"{LOGGER_NAME}.{name}")


class _BelowWarning(logging.Filter):
    """Pass only records below WARNING (the stdout side of the split)."""

    def filter(self, record: logging.LogRecord) -> bool:
        return record.levelno < logging.WARNING


def configure_logging(level: str = "info") -> logging.Logger:
    """(Re)configure the ``repro`` logger for CLI use.

    Idempotent: existing handlers on the logger are replaced, so a test
    harness calling ``main()`` repeatedly never stacks handlers.  The
    handlers write to the *current* ``sys.stdout``/``sys.stderr``, so
    capture fixtures see the output.
    """
    if level not in _LEVELS:
        raise ValueError(
            f"unknown log level {level!r}; expected one of {sorted(_LEVELS)}"
        )
    logger = logging.getLogger(LOGGER_NAME)
    logger.setLevel(_LEVELS[level])
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    out_handler = logging.StreamHandler(sys.stdout)
    out_handler.addFilter(_BelowWarning())
    out_handler.setFormatter(logging.Formatter("%(message)s"))
    err_handler = logging.StreamHandler(sys.stderr)
    err_handler.setLevel(logging.WARNING)
    err_handler.setFormatter(logging.Formatter("%(message)s"))
    logger.addHandler(out_handler)
    logger.addHandler(err_handler)
    logger.propagate = False
    return logger
