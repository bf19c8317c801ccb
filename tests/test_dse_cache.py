"""Disk-cache correctness: cold == warm, corruption detected, escape hatches.

The cold-compute result is the oracle: whatever the cache does — hit,
miss, reject, refresh — the sweep output must be byte-identical to a
cache-less run over the same spec.
"""

import json
import threading

import pytest

from repro.dse import (DiskCache, NullCache, SweepSpec, config_key,
                       dumps_canonical, frontier_doc, normalize_config,
                       run_sweep)
from repro.dse.cache import CACHE_SCHEMA, record_checksum

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

    def test_checksum_is_over_canonical_record_json(self, cold_result):
        record = cold_result["records"][0]
        reordered = dict(reversed(list(record.items())))
        assert record_checksum(record) == record_checksum(reordered)


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
        result = run_sweep(configs=[bad], cache=cache)
        assert len(result["errors"]) == 1
        assert cache.stored == 0
        assert not entry_paths(cache)

    def test_key_is_the_config_content_hash(self, warm_cache, cold_result):
        record = cold_result["records"][0]
        assert record["key"] == config_key(record["config"])
        assert warm_cache.path_for(record["key"]).exists()
