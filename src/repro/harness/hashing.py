"""Stable content hashing of experiment configurations.

Cache keys must survive everything that does *not* change what a run
computes: dataclass field declaration order, passing a default value
explicitly versus omitting it, int-versus-float spellings of the same
number (``target_rps=24_000`` and ``24_000.0``), and tuple-versus-list
containers.  They must *change* for anything that does: any field of the
config or of a nested ``ProcessorConfig`` / ``NCAPConfig`` /
``PolicyConfig``.

The canonical form is a JSON document with sorted keys; the key is its
SHA-256.  ``HASH_SCHEMA_VERSION`` is mixed in so that a change to the
canonicalization (or to the meaning of a config field) invalidates every
previously cached entry instead of silently aliasing it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from enum import Enum
from typing import Any

#: Bump when canonicalization or config semantics change.
HASH_SCHEMA_VERSION = 1

# Above 2**53 a float cannot represent every integer; keep such values
# (and only such values) as exact ints.
_FLOAT_EXACT_INT_LIMIT = 2 ** 53


def canonical_value(value: Any) -> Any:
    """Reduce ``value`` to a canonical JSON-serializable form."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: canonical_value(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {
            "__dataclass__": type(value).__name__,
            "fields": {name: fields[name] for name in sorted(fields)},
        }
    if isinstance(value, Enum):
        return {"__enum__": type(value).__name__, "value": canonical_value(value.value)}
    if isinstance(value, dict):
        return {str(k): canonical_value(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [canonical_value(v) for v in value]
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": bytes(value).hex()}
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        # 24_000 and 24_000.0 configure the same run (dataclass equality
        # agrees); collapse integral numbers to int so they hash alike.
        if float(value) == value and abs(value) < _FLOAT_EXACT_INT_LIMIT:
            return int(value)
        return value
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} for config hashing"
    )


def canonical_json(value: Any) -> str:
    """The canonical JSON text whose digest is the cache key."""
    return json.dumps(
        canonical_value(value), sort_keys=True, separators=(",", ":"),
        allow_nan=False,
    )


def config_hash(config: Any) -> str:
    """A stable hex digest identifying one expanded experiment config."""
    payload = f"v{HASH_SCHEMA_VERSION}:{canonical_json(config)}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
