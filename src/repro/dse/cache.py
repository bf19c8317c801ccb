"""Content-hash disk cache: canonical-JSON config -> evaluation record.

One file per config under the cache root, named by the config's SHA-256
key (see :func:`repro.dse.spec.config_key`).  Each entry wraps the record
with a schema tag and a checksum over the record's canonical JSON, so a
truncated, corrupted, or hand-edited file is *detected and recomputed*,
never returned as a result:

* unreadable / non-JSON / non-dict payload        -> rejected
* wrong entry schema or wrong embedded key        -> rejected
* checksum mismatch (any byte of the record bent) -> rejected
* record schema drift (format upgraded)           -> rejected

Writes are atomic (tmp file + ``os.replace``) so a crashed sweep can never
leave a half-written entry that passes validation.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import threading
from typing import Dict, Optional, Tuple

from ..core.concurrency import guarded_by
from ..core.effects import reentrant
from .evaluate import RECORD_SCHEMA
from .spec import canonical_json

#: Schema tag of one cache-entry file.
CACHE_SCHEMA = "repro.dse/cache/1"

#: Where ``python -m repro.dse`` caches by default.
DEFAULT_CACHE_DIR = os.path.join("results", "dse_cache")


def record_checksum(record: Dict[str, object]) -> str:
    """SHA-256 over the record's canonical JSON."""
    return hashlib.sha256(canonical_json(record).encode("ascii")).hexdigest()


@guarded_by("_lock", "hits", "misses", "rejected", "stored")
class DiskCache:
    """Keyed record store with hit/miss/rejection accounting.

    One instance is shared by every request-handler thread of the serve
    layer (and its sweep jobs), so the counters are guarded by
    ``_lock`` (declared above, verified by lint rule R11).  File IO
    stays *outside* the lock (rule R12): entry bytes are self-validating
    and writes are atomic ``tmp + os.replace``, so the lock only has to
    make the accounting consistent, never the files.
    """

    def __init__(self, root: os.PathLike = DEFAULT_CACHE_DIR,
                 enabled: bool = True, refresh: bool = False):
        self.root = pathlib.Path(root)
        self.enabled = enabled
        #: ``refresh=True``: ignore existing entries (recompute) but still
        #: store the fresh results — the ``--refresh`` escape hatch.
        self.refresh = refresh
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.rejected = 0
        self.stored = 0

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.json"

    # ------------------------------------------------------------------ read
    @reentrant(reason="cache reads race with concurrent sweeps; validation "
                      "must depend on the entry bytes alone (counters on "
                      "self are caller-owned, not module state)")
    def lookup(self, key: str) -> Optional[Dict[str, object]]:
        """The cached record for ``key``, or None (counted as miss).

        Any validation failure counts as *rejected* (and a miss): the
        caller recomputes, then :meth:`store` overwrites the bad entry.
        """
        if not self.enabled or self.refresh:
            with self._lock:
                self.misses += 1
            return None
        record, rejected = self._validated(key)      # file IO, lock-free
        with self._lock:
            if rejected:
                self.rejected += 1
            if record is None:
                self.misses += 1
            else:
                self.hits += 1
        return record

    def _validated(self, key: str
                   ) -> Tuple[Optional[Dict[str, object]], bool]:
        """``(record, rejected)`` from the entry file, touching no counters.

        ``rejected`` is True when a file existed but failed validation
        (the caller accounts for it under the lock); a missing file is
        ``(None, False)`` — a plain miss.
        """
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except FileNotFoundError:
            return None, False
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None, True
        if not isinstance(entry, dict) or entry.get("schema") != CACHE_SCHEMA:
            return None, True
        record = entry.get("record")
        if (entry.get("key") != key or not isinstance(record, dict)
                or record.get("schema") != RECORD_SCHEMA
                or record.get("key") != key):
            return None, True
        try:
            checksum = record_checksum(record)
        except (TypeError, ValueError):
            return None, True
        if entry.get("checksum") != checksum:
            return None, True
        return record, False

    # ----------------------------------------------------------------- write
    @reentrant(reason="atomic tmp+replace write: safe under concurrent "
                      "stores of the same key from racing threads")
    def store(self, key: str, record: Dict[str, object]) -> None:
        if not self.enabled:
            return
        entry = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "checksum": record_checksum(record),
            "record": record,
        }
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # One temp file per writer thread: racing stores of one key (a
        # sweep job and an evaluate request) never share it.
        tmp = path.with_name(
            f"{path.name}.tmp{os.getpid()}-{threading.get_ident()}")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        with self._lock:
            self.stored += 1

    # ------------------------------------------------------------------ misc
    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {"enabled": self.enabled, "refresh": self.refresh,
                    "root": str(self.root), "hits": self.hits,
                    "misses": self.misses, "rejected": self.rejected,
                    "stored": self.stored}


class NullCache(DiskCache):
    """The ``--no-cache`` cache: never reads, never writes."""

    def __init__(self):
        super().__init__(root=DEFAULT_CACHE_DIR, enabled=False)
