"""Caps on the exponential brute-force checks.

The axiom checkers and oracles are desk-scale by design; every
enumeration over 2^n voter groups or 2^m project sets is guarded by a
configurable limit (default 16 voters / 20 projects, overridable per call,
or globally via the PB_BOBW_LIMIT environment variable).
"""

from __future__ import annotations

import os
from typing import Optional

DEFAULT_GROUP_LIMIT = 16
DEFAULT_PROJECT_LIMIT = 20

_ENV_VAR = "PB_BOBW_LIMIT"


class ScaleError(RuntimeError):
    """An exponential enumeration would exceed the configured limit."""


def _env_limit() -> Optional[int]:
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ScaleError(f"{_ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 0:
        raise ScaleError(f"{_ENV_VAR} must be non-negative, got {value}")
    return value


def exponential_limit(override: Optional[int], default: int = DEFAULT_GROUP_LIMIT) -> int:
    """Resolve a limit: explicit override, then env var, then default."""
    if override is not None:
        return override
    env = _env_limit()
    if env is not None:
        return env
    return default


def project_limit(override: Optional[int]) -> int:
    return exponential_limit(override, DEFAULT_PROJECT_LIMIT)
