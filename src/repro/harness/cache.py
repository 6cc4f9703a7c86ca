"""On-disk result cache keyed by config hash.

One JSON file per expanded config under the cache directory; a re-run of
a sweep only simulates the points whose configs actually changed.  Every
read is validated — wrong schema, corrupt JSON, or a key/hash mismatch is
treated as a miss (and the stale entry is ignored), never as an error.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Optional

from repro.harness.record import RECORD_SCHEMA_VERSION, ResultRecord

#: Default cache location (relative to the working directory); the CLI
#: and ``REPRO_CACHE_DIR`` can point somewhere else.
DEFAULT_CACHE_DIR = ".repro-cache"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> str:
    return os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)


#: (abspath(cache_dir), old_schema_version) pairs already warned about in
#: this process.  Sweeps construct a ResultCache per runner (and every
#: stale entry re-triggers the check), so a per-instance flag still spams
#: one warning per point; the dedupe must be process-wide.
_SCHEMA_WARNED: set = set()


class ResultCache:
    """A directory of ``<config_hash>.json`` result records."""

    def __init__(self, directory: Optional[str] = None):
        self.directory = directory or default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def path_for(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def get(self, key: str) -> Optional[ResultRecord]:
        """The cached record for ``key``, or None on miss/corruption."""
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if isinstance(data, dict) and data.get("schema") != RECORD_SCHEMA_VERSION:
                self._warn_schema_invalidation(data.get("schema"))
            record = ResultRecord.from_json_dict(data)
        except (OSError, ValueError, TypeError):
            self.misses += 1
            return None
        if record.config_hash != key:
            self.misses += 1
            return None
        self.hits += 1
        return record

    def _warn_schema_invalidation(self, old_version: object) -> None:
        """Log once per (cache dir, old version) per process how many
        entries a schema bump invalidated."""
        dedupe_key = (os.path.abspath(self.directory), old_version)
        if dedupe_key in _SCHEMA_WARNED:
            return
        _SCHEMA_WARNED.add(dedupe_key)
        stale = 0
        try:
            for name in os.listdir(self.directory):
                if not name.endswith(".json") or name.startswith("."):
                    continue
                try:
                    with open(
                        os.path.join(self.directory, name), "r", encoding="utf-8"
                    ) as fh:
                        data = json.load(fh)
                except (OSError, ValueError):
                    continue
                if isinstance(data, dict) and data.get("schema") != RECORD_SCHEMA_VERSION:
                    stale += 1
        except OSError:
            pass
        import logging

        logging.getLogger(__name__).warning(
            "result cache %s: %d entr%s from older record schemas "
            "(first seen: v%s, current is v%d); they will be re-simulated",
            self.directory,
            stale,
            "y" if stale == 1 else "ies",
            old_version,
            RECORD_SCHEMA_VERSION,
        )

    def put(self, record: ResultRecord) -> str:
        """Persist ``record`` atomically; returns the written path."""
        os.makedirs(self.directory, exist_ok=True)
        path = self.path_for(record.config_hash)
        payload = json.dumps(record.to_json_dict(), sort_keys=True, indent=1)
        fd, tmp_path = tempfile.mkstemp(
            dir=self.directory, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self.stores += 1
        return path
