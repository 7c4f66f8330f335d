"""Strict JSON output shared by every JSON writer of the package."""

from __future__ import annotations

import json
import math


def _finite(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def dumps(obj) -> str:
    """json.dumps(obj, indent=2), with every non-finite float written as null.

    Python's json writes inf and nan as the bare tokens Infinity and NaN,
    which strict JSON parsers reject; allow_nan=False guards against any that
    slip through.
    """
    return json.dumps(_finite(obj), indent=2, allow_nan=False)
