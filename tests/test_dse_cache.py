"""Cache correctness: cold == warm, corruption detected, escape hatches,
and a memory tier that answers exactly as the disk does.

The cold-compute result is the oracle: whatever the cache does — hit,
miss, reject, refresh — the sweep output must be byte-identical to a
cache-less run over the same spec.
"""

import json
import shutil
import sys
import threading

import pytest

from repro.dse import (SMOKE_SPEC, DiskCache, NullCache, SweepSpec,
                       config_key, dumps_canonical, evaluate_batch,
                       frontier_doc, normalize_config, run_sweep)
from repro.dse import cache as cache_module
from repro.dse.cache import CACHE_SCHEMA, text_checksum
from repro.dse.spec import canonical_json

SPEC = SweepSpec(patterns=("1:8", "1:4"), bus_bits=(64, 128))


@pytest.fixture(scope="module")
def cold_result():
    """The cache-less oracle for SPEC."""
    return run_sweep(spec=SPEC)


@pytest.fixture()
def warm_cache(tmp_path):
    """A cache pre-populated by one cold run over SPEC."""
    cache = DiskCache(tmp_path / "dse_cache")
    run_sweep(spec=SPEC, cache=cache)
    return DiskCache(tmp_path / "dse_cache")


def entry_paths(cache):
    return sorted(cache.root.glob("*.json"))


def record_checksum(record):
    return text_checksum(canonical_json(record))


class TestRoundTrip:
    def test_store_then_lookup_is_identity(self, tmp_path, cold_result):
        cache = DiskCache(tmp_path / "c")
        record = cold_result["records"][0]
        cache.store(record["key"], record)
        assert cache.stored == 1
        assert cache.lookup(record["key"]) == record
        assert cache.hits == 1 and cache.misses == 0

    def test_missing_key_is_a_miss(self, tmp_path):
        cache = DiskCache(tmp_path / "c")
        assert cache.lookup("0" * 64) is None
        assert cache.misses == 1 and cache.rejected == 0

    def test_no_tmp_files_left_behind(self, tmp_path, cold_result):
        cache = DiskCache(tmp_path / "c")
        for record in cold_result["records"]:
            cache.store(record["key"], record)
        leftovers = [p for p in cache.root.iterdir()
                     if not p.name.endswith(".json")]
        assert leftovers == []

    def test_racing_stores_of_one_key_in_one_process(self, tmp_path,
                                                     cold_result):
        """Threads storing the same key never share a temp file, so no
        ``os.replace`` loses its source and the entry stays valid."""
        cache = DiskCache(tmp_path / "c")
        record = cold_result["records"][0]
        threads_n, stores_n = 8, 20
        barrier = threading.Barrier(threads_n)
        errors = []

        def writer():
            barrier.wait()
            try:
                for _ in range(stores_n):
                    cache.store(record["key"], record)
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert errors == []
        assert cache.stored == threads_n * stores_n
        assert cache.lookup(record["key"]) == record
        assert [p.name for p in cache.root.iterdir()] \
            == [f"{record['key']}.json"]


class TestColdWarmIdentity:
    def test_warm_run_hits_every_config_and_matches_cold(
            self, warm_cache, cold_result):
        warm = run_sweep(spec=SPEC, cache=warm_cache)
        assert warm_cache.hits == SPEC.size
        assert warm_cache.misses == 0
        assert warm["records"] == cold_result["records"]
        assert dumps_canonical(frontier_doc(warm)) == \
            dumps_canonical(frontier_doc(cold_result))

    def test_cold_cached_run_matches_cacheless_oracle(
            self, tmp_path, cold_result):
        cache = DiskCache(tmp_path / "c")
        result = run_sweep(spec=SPEC, cache=cache)
        assert cache.hits == 0 and cache.misses == SPEC.size
        assert cache.stored == SPEC.size
        assert result["records"] == cold_result["records"]

    def test_refresh_recomputes_but_refills(self, warm_cache, cold_result):
        refreshing = DiskCache(warm_cache.root, refresh=True)
        result = run_sweep(spec=SPEC, cache=refreshing)
        assert refreshing.hits == 0
        assert refreshing.misses == SPEC.size
        assert refreshing.stored == SPEC.size
        assert result["records"] == cold_result["records"]

    def test_null_cache_neither_reads_nor_writes(self, cold_result,
                                                 tmp_path):
        cache = NullCache()
        cache.root = tmp_path / "never-created"
        result = run_sweep(spec=SPEC, cache=cache)
        assert result["records"] == cold_result["records"]
        assert cache.hits == 0 and cache.stored == 0
        assert not cache.root.exists()


class TestCorruptionRecovery:
    """Damaged entries are detected, skipped, and recomputed — never
    returned, never fatal."""

    def corrupt_one(self, cache, mutate):
        path = entry_paths(cache)[0]
        mutate(path)
        return path

    @pytest.mark.parametrize("mutate", [
        lambda p: p.write_text("{"),                       # truncated JSON
        lambda p: p.write_bytes(b"\x00\xff garbage"),      # binary garbage
        lambda p: p.write_text("[]"),                      # wrong shape
        lambda p: p.write_text(json.dumps({"schema": "other/1"})),
    ], ids=["truncated", "garbage", "non-dict", "wrong-schema"])
    def test_unreadable_entry_is_rejected_and_recomputed(
            self, warm_cache, cold_result, mutate):
        self.corrupt_one(warm_cache, mutate)
        result = run_sweep(spec=SPEC, cache=warm_cache)
        assert warm_cache.rejected == 1
        assert warm_cache.hits == SPEC.size - 1
        assert warm_cache.misses == 1
        assert result["records"] == cold_result["records"]

    def test_tampered_payload_fails_the_checksum(
            self, warm_cache, cold_result):
        path = entry_paths(warm_cache)[0]
        entry = json.loads(path.read_text())
        entry["record"]["metrics"]["area_mm2"] = 0.001   # bent result
        path.write_text(json.dumps(entry))
        result = run_sweep(spec=SPEC, cache=warm_cache)
        assert warm_cache.rejected == 1
        assert result["records"] == cold_result["records"]

    def test_entry_under_the_wrong_key_is_rejected(self, warm_cache):
        paths = entry_paths(warm_cache)
        # Copy entry 0's bytes over entry 1: internally consistent, but
        # filed under a key it does not belong to.
        paths[1].write_text(paths[0].read_text())
        wrong_key = paths[1].stem
        assert warm_cache.lookup(wrong_key) is None
        assert warm_cache.rejected == 1

    def test_recomputation_repairs_the_entry(self, warm_cache, cold_result):
        path = self.corrupt_one(warm_cache, lambda p: p.write_text("{"))
        run_sweep(spec=SPEC, cache=warm_cache)
        # The rewritten entry validates again.
        fresh = DiskCache(warm_cache.root)
        assert fresh.lookup(path.stem) is not None
        assert fresh.hits == 1

    def test_checksum_is_over_canonical_record_json(self, tmp_path,
                                                    cold_result):
        record = cold_result["records"][0]
        reordered = dict(reversed(list(record.items())))
        paths = []
        for name, stored in (("a", record), ("b", reordered)):
            cache = DiskCache(tmp_path / name)
            cache.store(stored["key"], stored)
            paths.append(cache.path_for(stored["key"]))
        assert paths[0].read_bytes() == paths[1].read_bytes()
        entry = json.loads(paths[0].read_text())
        assert entry["checksum"] == text_checksum(canonical_json(record))


class TestEntrySchema:
    def test_entry_file_shape(self, warm_cache):
        path = entry_paths(warm_cache)[0]
        entry = json.loads(path.read_text())
        assert entry["schema"] == CACHE_SCHEMA
        assert entry["key"] == path.stem
        assert entry["checksum"] == record_checksum(entry["record"])

    def test_error_records_are_never_cached(self, tmp_path):
        cache = DiskCache(tmp_path / "c")
        bad = normalize_config({"pattern": "9:4", "bus_bits": 128,
                                "mram_rows": 1024, "weight_bits": 8,
                                "device": "nominal"})
        records, served = evaluate_batch([(config_key(bad), bad)],
                                         cache=cache)
        assert "error" in records[config_key(bad)]
        assert served == {config_key(bad): "miss"}
        assert cache.stored == 0
        assert not entry_paths(cache)

    def test_key_is_the_config_content_hash(self, warm_cache, cold_result):
        record = cold_result["records"][0]
        assert record["key"] == config_key(record["config"])
        assert warm_cache.path_for(record["key"]).exists()


@pytest.fixture(scope="module")
def smoke_records():
    return run_sweep(spec=SMOKE_SPEC)["records"]


def disk_reads(cache, monkeypatch):
    """The keys ``cache`` goes on to read from its entry files."""
    reads = []
    validated = cache._validated

    def spy(key):
        reads.append(key)
        return validated(key)

    monkeypatch.setattr(cache, "_validated", spy)
    return reads


class TestMemoryTier:
    """Repeat lookups are answered from memory, exactly as from disk."""

    def test_memory_hit_equals_a_fresh_disk_hit(self, tmp_path,
                                                smoke_records, monkeypatch):
        cache = DiskCache(tmp_path / "c")
        for record in smoke_records:
            cache.store(record["key"], record)
        fresh = DiskCache(tmp_path / "c")
        from_disk = [fresh.lookup(r["key"]) for r in smoke_records]
        reads = disk_reads(cache, monkeypatch)
        from_memory = [cache.lookup(r["key"]) for r in smoke_records]
        assert reads == []
        assert from_memory == from_disk == smoke_records
        # Same dicts in the same (sorted) key order, at every depth.
        assert [json.dumps(r) for r in from_memory] \
            == [json.dumps(r) for r in from_disk]
        assert cache.hits == fresh.hits == len(smoke_records)
        assert cache.misses == fresh.misses == 0

    def test_disk_hits_fill_the_memory_tier(self, warm_cache, monkeypatch):
        keys = [p.stem for p in entry_paths(warm_cache)]
        first = [warm_cache.lookup(k) for k in keys]
        reads = disk_reads(warm_cache, monkeypatch)
        assert [warm_cache.lookup(k) for k in keys] == first
        assert reads == []
        assert warm_cache.hits == 2 * len(keys)

    def test_mutating_a_returned_record_changes_no_later_lookup(
            self, tmp_path, smoke_records):
        cache = DiskCache(tmp_path / "c")
        record = smoke_records[0]
        cache.store(record["key"], record)
        served = cache.lookup(record["key"])
        served["metrics"]["area_mm2"] = -1.0
        served["bent"] = True
        assert cache.lookup(record["key"]) == record

    def test_eviction_is_oldest_first_and_falls_back_to_disk(
            self, tmp_path, smoke_records, monkeypatch):
        monkeypatch.setattr(cache_module, "MEMORY_ENTRIES", 4)
        cache = DiskCache(tmp_path / "c")
        records = smoke_records[:6]
        keys = [r["key"] for r in records]
        for record in records:
            cache.store(record["key"], record)
        reads = disk_reads(cache, monkeypatch)
        assert [cache.lookup(k) for k in keys[2:]] == records[2:]
        assert reads == []
        assert [cache.lookup(k) for k in keys[:2]] == records[:2]
        assert reads == keys[:2]
        assert (cache.hits, cache.misses, cache.stored) == (6, 0, 6)
        # Those two disk hits pushed out the two oldest entries left.
        assert [cache.lookup(k) for k in keys[2:4]] == records[2:4]
        assert reads == keys[:4]
        assert cache.rejected == 0

    def test_threads_share_the_memory_tier_without_losing_counts(
            self, tmp_path, smoke_records, monkeypatch):
        """More threads than cores store and look up overlapping keys
        through a tier small enough to evict all the time: every lookup
        hits with the stored record, and no count is lost."""
        monkeypatch.setattr(cache_module, "MEMORY_ENTRIES", 3)
        cache = DiskCache(tmp_path / "c")
        threads_n, rounds = 8, 10
        barrier = threading.Barrier(threads_n)
        wrong = []

        def worker(offset):
            barrier.wait()
            for i in range(rounds):
                record = smoke_records[(offset + i) % len(smoke_records)]
                cache.store(record["key"], record)
                if cache.lookup(record["key"]) != record:
                    wrong.append(record["key"])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,))
                       for n in range(threads_n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        total = threads_n * rounds
        assert (cache.hits, cache.misses, cache.stored) == (total, 0, total)
        assert cache.rejected == 0

    def test_null_cache_never_answers_from_memory(self, smoke_records,
                                                 tmp_path):
        cache = NullCache()
        cache.root = tmp_path / "never-created"
        record = smoke_records[0]
        cache.store(record["key"], record)
        assert cache.lookup(record["key"]) is None
        assert (cache.hits, cache.misses, cache.stored) == (0, 1, 0)
        assert not cache.root.exists()

    def test_refresh_never_answers_from_memory(self, tmp_path,
                                               smoke_records):
        refreshing = DiskCache(tmp_path / "c", refresh=True)
        record = smoke_records[0]
        refreshing.store(record["key"], record)
        assert refreshing.lookup(record["key"]) is None
        assert (refreshing.hits, refreshing.misses,
                refreshing.stored) == (0, 1, 1)
        # Still written through to disk for the next reader.
        assert DiskCache(tmp_path / "c").lookup(record["key"]) == record

    def test_tampered_file_is_served_from_the_storing_instances_memory(
            self, tmp_path, smoke_records):
        cache = DiskCache(tmp_path / "c")
        record = smoke_records[0]
        cache.store(record["key"], record)
        path = cache.path_for(record["key"])
        entry = json.loads(path.read_text())
        entry["record"]["metrics"]["area_mm2"] = 0.001
        path.write_text(json.dumps(entry))
        assert cache.lookup(record["key"]) == record
        assert cache.rejected == 0
        fresh = DiskCache(tmp_path / "c")
        assert fresh.lookup(record["key"]) is None
        assert fresh.rejected == 1 and fresh.misses == 1


class TestEntryFormat:
    def test_entry_file_is_compact_canonical_json(self, tmp_path,
                                                  smoke_records):
        cache = DiskCache(tmp_path / "c")
        record = smoke_records[0]
        cache.store(record["key"], record)
        text = cache.path_for(record["key"]).read_text()
        assert text == canonical_json({
            "schema": CACHE_SCHEMA, "key": record["key"],
            "checksum": record_checksum(record), "record": record}) + "\n"

    def test_indented_entries_of_older_versions_still_validate(
            self, tmp_path, smoke_records):
        root = tmp_path / "c"
        root.mkdir()
        record = smoke_records[0]
        entry = {"schema": CACHE_SCHEMA, "key": record["key"],
                 "checksum": record_checksum(record), "record": record}
        path = DiskCache(root).path_for(record["key"])
        path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
        cache = DiskCache(root)
        assert cache.lookup(record["key"]) == record
        assert cache.hits == 1 and cache.rejected == 0

    def test_store_recreates_a_removed_root(self, tmp_path, smoke_records):
        cache = DiskCache(tmp_path / "c")
        first, second = smoke_records[:2]
        cache.store(first["key"], first)
        shutil.rmtree(cache.root)
        cache.store(second["key"], second)
        assert DiskCache(cache.root).lookup(second["key"]) == second
        assert cache.stored == 2
