"""Content-hash record cache: canonical-JSON config -> evaluation record.

The server's ``/v1/evaluate`` answers from it; sweeps, from the CLI or
``/v1/sweep``, recompute every config and never touch it.

Two tiers, written through together.  The disk tier is one file per
config under the cache root, named by the config's SHA-256 key (see
:func:`repro.dse.spec.config_key`); it survives restarts.  The memory
tier holds the canonical JSON text of the last :data:`MEMORY_ENTRIES`
records this instance stored or validated from disk, and answers a
repeat lookup without touching a file; a disabled cache never reads it.

An entry carries no model version: after a change to the cost model,
empty the cache root, or its entries answer with the old numbers.

Each entry file wraps the record with a schema tag and a checksum over
the record's canonical JSON, so a truncated, corrupted, or hand-edited
file is *detected and recomputed*, never returned as a result:

* unreadable / non-JSON / non-dict payload        -> rejected
* wrong entry schema or wrong embedded key        -> rejected
* checksum mismatch (any byte of the record bent) -> rejected
* record schema drift (format upgraded)           -> rejected

Entry files are compact canonical JSON (sorted keys, no whitespace);
entries written indented by older versions validate all the same.
Writes are atomic (tmp file + ``os.replace``) so a crashed writer can
never leave a half-written entry that passes validation.
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

#: Where ``python -m repro.serve`` caches by default.
DEFAULT_CACHE_DIR = os.path.join("results", "dse_cache")

#: Records the memory tier of one cache holds; the oldest is evicted
#: first.  At about 0.5 kB of text a record this is a few MB, and it
#: holds every ``FULL_SPEC`` config (4,500).
MEMORY_ENTRIES = 8192

#: One entry file, :func:`canonical_json` of ``{checksum, key, record,
#: schema}`` with the record's canonical text spliced in as it was
#: checksummed.
_ENTRY = ('{"checksum":"%s","key":%s,"record":%s,"schema":"'
          + CACHE_SCHEMA + '"}\n')


def text_checksum(text: str) -> str:
    """SHA-256 over a record's canonical JSON text."""
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@guarded_by("_lock", "hits", "misses", "rejected", "stored", "_memory")
class DiskCache:
    """Keyed record store with hit/miss/rejection accounting.

    One instance is shared by every evaluate-handler thread of the serve
    layer, so the counters and the memory tier (``_memory``: key -> the
    record's canonical JSON text, in insertion order) are guarded by
    ``_lock`` (declared above, verified by lint rule R11).  File IO stays
    *outside* the lock (rule R12): entry bytes are self-validating and
    writes are atomic ``tmp + os.replace``, so the lock only has to make
    the accounting and the map consistent, never the files.  A memory hit and a disk hit count alike in
    ``hits`` and return equal dicts, with the same sorted key order.
    """

    def __init__(self, root: os.PathLike = DEFAULT_CACHE_DIR,
                 enabled: bool = True):
        self.root = pathlib.Path(root)
        self.enabled = enabled
        self._lock = threading.Lock()
        self._memory: Dict[str, str] = {}
        self.hits = 0
        self.misses = 0
        self.rejected = 0
        self.stored = 0

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.json"

    # ------------------------------------------------------------------ read
    @reentrant(reason="cache reads race with concurrent requests; a record "
                      "depends on the entry bytes alone, and each hit "
                      "decodes a fresh dict (counters and the memory tier "
                      "on self are caller-owned, not module state)")
    def lookup(self, key: str) -> Optional[Dict[str, object]]:
        """The cached record for ``key``, or None (counted as miss).

        The memory tier answers first; a disabled cache never reads
        either tier.  Any validation failure of the entry file counts as
        *rejected* (and a miss): the caller recomputes, then
        :meth:`store` overwrites the bad entry.
        """
        if not self.enabled:
            with self._lock:
                self.misses += 1
            return None
        with self._lock:
            text = self._memory.get(key)
            if text is not None:
                self.hits += 1
        if text is not None:
            return json.loads(text)
        record, text, rejected = self._validated(key)  # file IO, lock-free
        with self._lock:
            if rejected:
                self.rejected += 1
            if record is None:
                self.misses += 1
            else:
                self.hits += 1
                self._remember(key, text)
        return record

    def _validated(self, key: str
                   ) -> Tuple[Optional[Dict[str, object]], str, bool]:
        """``(record, canonical text, rejected)`` from the entry file,
        touching no counters.

        ``rejected`` is True when a file existed but failed validation
        (the caller accounts for it under the lock); a missing file is
        ``(None, "", False)`` — a plain miss.
        """
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except FileNotFoundError:
            return None, "", False
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None, "", True
        if not isinstance(entry, dict) or entry.get("schema") != CACHE_SCHEMA:
            return None, "", True
        record = entry.get("record")
        if (entry.get("key") != key or not isinstance(record, dict)
                or record.get("schema") != RECORD_SCHEMA
                or record.get("key") != key):
            return None, "", True
        try:
            text = canonical_json(record)
        except (TypeError, ValueError):
            return None, "", True
        if entry.get("checksum") != text_checksum(text):
            return None, "", True
        return record, text, False

    def _remember(self, key: str, text: str) -> None:
        """Put one record's text in the memory tier, evicting the oldest
        entry past :data:`MEMORY_ENTRIES`; the caller holds ``_lock``."""
        self._memory[key] = text
        if len(self._memory) > MEMORY_ENTRIES:
            del self._memory[next(iter(self._memory))]

    # ----------------------------------------------------------------- write
    @reentrant(reason="atomic tmp+replace write: safe under concurrent "
                      "stores of the same key from racing threads")
    def store(self, key: str, record: Dict[str, object]) -> None:
        """Write ``record`` through both tiers.  Its canonical text is
        encoded once: it is checksummed, kept in memory and spliced into
        the entry file, which goes out in one write."""
        if not self.enabled:
            return
        text = canonical_json(record)
        entry = _ENTRY % (text_checksum(text), json.dumps(key), text)
        path = self.path_for(key)
        # One temp file per writer thread: racing stores of one key (two
        # threads that each missed it) never share it.
        tmp = path.with_name(
            f"{path.name}.tmp{os.getpid()}-{threading.get_ident()}")
        try:
            fh = open(tmp, "wb")
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            fh = open(tmp, "wb")
        with fh:
            fh.write(entry.encode("ascii"))
        os.replace(tmp, path)
        with self._lock:
            self.stored += 1
            self._remember(key, text)

    # ------------------------------------------------------------------ misc
    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {"enabled": self.enabled, "root": str(self.root),
                    "hits": self.hits, "misses": self.misses,
                    "rejected": self.rejected, "stored": self.stored}


class NullCache(DiskCache):
    """The ``--no-cache`` cache: never reads, never writes."""

    def __init__(self):
        super().__init__(root=DEFAULT_CACHE_DIR, enabled=False)
