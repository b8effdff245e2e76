"""Tests for the content-addressed result cache and the estimator's use of it.

Covers the cache tiers (LRU order, JSON disk round-trip, corrupt/stale/
planted entries degrading to misses), fingerprint semantics, byte-identical
cache hits through the estimator layer, its ``lookup``/``compute`` halves,
and batches as estimator loops.
"""

from __future__ import annotations

import errno
import json
import os
import pickle

import numpy as np
import pytest

from repro.api import ClusterResult, ClusteringConfig, ClusteringEstimator, make_estimator
from repro.cache import (
    CACHE_KNOB_FIELDS,
    FINGERPRINT_VERSION,
    ResultCache,
    clear_result_caches,
    config_fingerprint,
    get_result_cache,
    matrix_fingerprint,
    result_cache_key,
)
from repro.cache.store import _ENTRY_MAGIC, ENTRY_FORMAT_VERSION
from repro.datasets.similarity import similarity_and_dissimilarity
from repro.datasets.synthetic import make_time_series_dataset
from repro.dendrogram.node import Dendrogram


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Every test starts and ends with empty process-wide caches."""
    clear_result_caches()
    yield
    clear_result_caches()


@pytest.fixture(scope="module")
def similarity():
    dataset = make_time_series_dataset(
        num_objects=40, length=64, num_classes=3, noise=1.0, seed=11
    )
    matrix, _ = similarity_and_dissimilarity(dataset.data)
    return matrix


def _config(**overrides):
    base = dict(precomputed=True, num_clusters=3, prefix=4, cache=True)
    base.update(overrides)
    return ClusteringConfig(**base)


def _result(tag=0, num_leaves=6):
    """A small answer of the shape the disk tier stores: labels, timings,
    extras and a dendrogram whose heights differ from its distances."""
    dendrogram = Dendrogram(num_leaves)
    node = 0
    for leaf in range(1, num_leaves):
        node = dendrogram.merge(node, leaf, 0.1 * leaf, 1 / (leaf + 3 + tag), level="intra", group=tag)
    return ClusterResult(
        method="hac",
        config=ClusteringConfig(num_clusters=2),
        labels=np.arange(num_leaves, dtype=np.int32) % 2,
        step_seconds={"total": 0.1 + tag},
        raw=dendrogram,
        extras={"tag": tag},
    )


def _nodes(dendrogram):
    """Every node of a dendrogram, floats as hex: equal means identical."""
    return [
        (node.id, node.left, node.right, node.height.hex(), node.distance.hex(),
         node.size, node.metadata)
        for node in dendrogram.nodes
    ]


def _entry_file(cache_dir):
    (name,) = os.listdir(cache_dir)
    assert name.endswith(".json")
    return os.path.join(cache_dir, name)


class _Planted:
    """A pickle that creates ``marker`` when it is unpickled."""

    def __init__(self, marker):
        self.marker = str(marker)

    def __reduce__(self):
        return (open, (self.marker, "w"))


class TestFingerprints:
    def test_matrix_fingerprint_is_content_addressed(self):
        a = np.arange(16, dtype=float).reshape(4, 4)
        assert matrix_fingerprint(a) == matrix_fingerprint(a.copy())
        # Non-contiguous views of the same data agree with their copies.
        wide = np.arange(32, dtype=float).reshape(4, 8)
        assert matrix_fingerprint(wide[:, ::2]) == matrix_fingerprint(
            wide[:, ::2].copy()
        )

    def test_matrix_fingerprint_sensitive_to_bytes_shape_dtype(self):
        a = np.arange(16, dtype=float).reshape(4, 4)
        bumped = a.copy()
        bumped[2, 3] = np.nextafter(bumped[2, 3], np.inf)
        assert matrix_fingerprint(a) != matrix_fingerprint(bumped)
        assert matrix_fingerprint(a) != matrix_fingerprint(a.reshape(2, 8))
        assert matrix_fingerprint(a) != matrix_fingerprint(a.astype(np.float32))

    def test_config_fingerprint_ignores_cache_knobs(self, tmp_path):
        plain = _config(cache=False, cache_dir=None)
        cached = _config(cache=True, cache_dir=str(tmp_path))
        assert config_fingerprint(plain) == config_fingerprint(cached)
        assert set(CACHE_KNOB_FIELDS) == {"cache", "cache_dir"}

    def test_config_fingerprint_sensitive_to_method_knobs(self):
        assert config_fingerprint(_config()) != config_fingerprint(_config(prefix=5))
        assert config_fingerprint(_config()) != config_fingerprint(
            _config(num_clusters=4)
        )

    def test_apsp_method_fingerprints_never_collide(self):
        """Entries stored under the deleted APSP/kernel/pool fields can
        never be served: every such payload, the exact defaults and the
        approximate landmark mode included, fingerprints apart from today's
        config and from each other."""
        current = _config()
        stale = [
            dict(current.to_dict(), apsp_method=method, landmarks=landmarks,
                 kernel=None, backend=None, workers=None)
            for method, landmarks in (
                ("dijkstra", None), ("scipy", None), ("landmark", 8), ("landmark", 16)
            )
        ]
        fingerprints = [config_fingerprint(current)] + [config_fingerprint(p) for p in stale]
        assert len(set(fingerprints)) == len(fingerprints)

    def test_result_cache_key_covers_explicit_dissimilarity(self, similarity):
        config = _config()
        dis = np.sqrt(np.clip(2.0 * (1.0 - similarity), 0.0, None))
        assert result_cache_key(config, similarity) != result_cache_key(
            config, similarity, dis
        )


    def test_result_cache_key_is_pinned(self):
        """The key of one fixed job, recorded: a digest or key-layout change
        must bump FINGERPRINT_VERSION and re-record this on purpose."""
        matrix = np.arange(12, dtype="<f8").reshape(3, 4) / 4
        config = ClusteringConfig(num_clusters=2, prefix=3)
        assert FINGERPRINT_VERSION == 2
        assert result_cache_key(config, matrix) == (
            "ed64eccc650c3b25b371ead9ae5add39c17443a1ffe10b14f5d167ebdf61cbcf"
        )


class TestResultCacheLRU:
    def test_lru_evicts_least_recently_used_first(self):
        cache = ResultCache(max_entries=3)
        for key in ("a", "b", "c"):
            cache.put(key, key.upper())
        assert cache.get("a") == "A"  # refresh a: b is now the oldest
        cache.put("d", "D")
        assert cache.keys() == ["c", "a", "d"]
        assert cache.get("b") is None
        assert cache.stats.evictions == 1
        assert cache.stats.misses == 1

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)

    def test_stats_track_hits_and_misses(self):
        cache = ResultCache(max_entries=2)
        assert cache.get("nope") is None
        cache.put("k", 1)
        assert cache.get("k") == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert cache.stats.hit_rate == 0.5
        assert cache.stats.as_dict()["hit_rate"] == 0.5


class TestResultCacheDisk:
    def test_disk_round_trip_across_instances(self, tmp_path):
        first = ResultCache(cache_dir=str(tmp_path))
        stored = _result()
        first.put("deadbeef", stored)
        # A fresh instance (fresh memory tier) must hit via disk.
        second = ResultCache(cache_dir=str(tmp_path))
        loaded = second.get("deadbeef")
        assert loaded.to_json() == stored.to_json()
        assert loaded.labels.dtype == np.int32
        assert _nodes(loaded.dendrogram) == _nodes(stored.dendrogram)
        assert second.stats.disk_hits == 1
        # ... and promote the entry into its memory tier.
        assert "deadbeef" in second

    def test_corrupted_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path))
        cache.put("feedface", _result())
        path = _entry_file(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        fresh = ResultCache(cache_dir=str(tmp_path))
        assert fresh.get("feedface") is None
        assert fresh.stats.disk_errors == 1
        assert fresh.stats.misses == 1
        # The bad file is pruned so it is not re-parsed forever.
        assert not os.path.exists(path)

    def test_stale_format_version_degrades_to_miss(self, tmp_path):
        """An entry whose envelope names another format version, magic,
        library version or key is a counted miss, and is pruned."""
        from repro import __version__

        cache = ResultCache(cache_dir=str(tmp_path))
        cache.put("cafebabe", _result())
        path = _entry_file(tmp_path)
        with open(path, "rb") as handle:
            entry = json.load(handle)
        assert (entry["magic"], entry["version"], entry["library"], entry["key"]) == (
            _ENTRY_MAGIC, ENTRY_FORMAT_VERSION, __version__, "cafebabe"
        )
        for field, stale in (("version", ENTRY_FORMAT_VERSION - 1), ("magic", "other"),
                             ("library", "0.0.0"), ("key", "feedface")):
            with open(path, "w") as handle:
                json.dump(dict(entry, **{field: stale}), handle)
            fresh = ResultCache(cache_dir=str(tmp_path))
            assert fresh.get("cafebabe") is None, field
            assert (fresh.stats.misses, fresh.stats.disk_errors) == (1, 1), field
            assert not os.path.exists(path), field

    @pytest.mark.parametrize("suffix", ["pkl", "json"])
    def test_planted_pickle_never_runs(self, similarity, tmp_path, suffix):
        """A pickle under an entry's key, in the old or the current file
        name, is never unpickled: the fit misses, refits and stores."""
        cache_dir, marker = tmp_path / "cache", tmp_path / "marker"
        cache_dir.mkdir()
        config = _config(cache_dir=str(cache_dir))
        key = result_cache_key(config, similarity)
        with open(cache_dir / f"{key}.{suffix}", "wb") as handle:
            pickle.dump(_Planted(marker), handle)
        result = make_estimator(config.method, config).fit(similarity).result_
        assert not marker.exists()
        stats = get_result_cache(str(cache_dir)).stats
        assert (stats.hits, stats.misses, stats.stores) == (0, 1, 1)
        assert stats.disk_errors == (1 if suffix == "json" else 0)
        # The planted .json was pruned and replaced by the real entry.
        with open(cache_dir / f"{key}.json", "rb") as handle:
            assert json.load(handle)["result"] == result.to_dict()

    def test_disk_full_mid_write_leaves_no_partial_entry(self, tmp_path, monkeypatch):
        real_fdopen = os.fdopen

        class FillsUp:
            """A file that takes 64 characters, then reports a full disk."""

            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, text):
                self.handle.write(text[:64])
                self.handle.flush()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        cache = ResultCache(cache_dir=str(tmp_path))
        stored = _result()
        with monkeypatch.context() as patch:
            patch.setattr(os, "fdopen", lambda *args, **kwargs: FillsUp(real_fdopen(*args, **kwargs)))
            cache.put("f00dcafe", stored)  # must not raise
        # The partly written temp file is removed and nothing is published.
        assert os.listdir(tmp_path) == []
        assert cache.stats.disk_errors == 1
        # The memory tier still serves the value.
        assert cache.get("f00dcafe") is stored
        assert cache.stats.hits == 1
        # A fresh instance on the directory reads a miss, never a partial entry.
        fresh = ResultCache(cache_dir=str(tmp_path))
        assert fresh.get("f00dcafe") is None
        assert (fresh.stats.misses, fresh.stats.disk_errors) == (1, 0)

    def test_unwritable_cache_dir_degrades_persistence_not_correctness(self, tmp_path):
        blocked = tmp_path / "not-a-dir"
        blocked.write_text("a file where the cache dir should be")
        cache = ResultCache(cache_dir=str(blocked))
        cache.put("k", "v")  # must not raise
        assert cache.get("k") == "v"  # memory tier still serves it
        assert cache.stats.disk_errors == 1

    def test_registry_shares_instances_per_directory(self, tmp_path):
        assert get_result_cache() is get_result_cache()
        assert get_result_cache(str(tmp_path)) is get_result_cache(str(tmp_path))
        assert get_result_cache() is not get_result_cache(str(tmp_path))


class TestEstimatorCacheIntegration:
    def test_hit_is_byte_identical_to_cold_fit(self, similarity):
        config = _config()
        cold = make_estimator(config.method, config).fit(similarity).result_
        warm = make_estimator(config.method, config).fit(similarity).result_
        assert get_result_cache().stats.hits == 1
        # Labels, linkage artefacts, and the timing structure come back
        # verbatim: the serialized payloads are byte-identical.
        assert warm.to_json() == cold.to_json()
        assert np.array_equal(warm.labels, cold.labels)
        assert warm.step_seconds == cold.step_seconds
        assert warm.dendrogram is not None

    def test_cache_disabled_recomputes(self, similarity):
        config = _config(cache=False)
        make_estimator(config.method, config).fit(similarity)
        make_estimator(config.method, config).fit(similarity)
        assert get_result_cache().stats.lookups == 0

    def test_hit_serves_a_clone_not_the_cached_object(self, similarity):
        config = _config()
        first = make_estimator(config.method, config).fit(similarity).result_
        first.labels[:] = -1  # a hostile caller scribbling on its result
        second = make_estimator(config.method, config).fit(similarity).result_
        assert np.all(second.labels >= 0)

    @pytest.mark.parametrize(
        "method, num_clusters",
        [pytest.param(method, k, id=f"{short}-{k or 'N'}")
         for method, short in (("tmfg-dbht", "tmfg"), ("pmfg-dbht", "pmfg"),
                               ("classic-dbht", "seq"), ("hac-complete", "comp"),
                               ("hac-average", "avg"))
         for k in (3, None)]
        + [pytest.param("kmeans", 3, id="kmeans-3"), pytest.param("spectral", 3, id="spec-3")],
    )
    def test_disk_tier_round_trips_cluster_results(self, tmp_path, method, num_clusters):
        series = make_time_series_dataset(
            num_objects=30, length=48, num_classes=3, noise=1.0, seed=5
        ).data
        config = _config(method=method, num_clusters=num_clusters, precomputed=False,
                         cache_dir=str(tmp_path))
        cold = make_estimator(method, config).fit(series).result_
        clear_result_caches()  # forget the memory tier, keep the files
        warm = make_estimator(method, config).fit(series).result_
        assert get_result_cache(str(tmp_path)).stats.disk_hits == 1
        assert warm.to_json() == cold.to_json()
        assert type(warm.raw) is type(cold.raw)  # a hit and a miss: one shape
        if num_clusters is not None:
            assert warm.labels.dtype == cold.labels.dtype
        if cold.dendrogram is None:
            assert method in ("kmeans", "spectral") and warm.dendrogram is None
            return
        assert _nodes(warm.dendrogram) == _nodes(cold.dendrogram)
        for k in (2, 3, 5):
            assert np.array_equal(warm.cut(k), cold.cut(k))

    def test_different_matrices_do_not_collide(self, similarity):
        config = _config()
        other = similarity.copy()
        other[1, 2] = other[2, 1] = other[1, 2] * 0.5
        a = make_estimator(config.method, config).fit(similarity).result_
        b = make_estimator(config.method, config).fit(other).result_
        assert get_result_cache().stats.hits == 0
        assert len(get_result_cache()) == 2
        assert a.to_json() != b.to_json()


class TestClusterManyDedup:
    """A batch is a loop of ``estimator.fit`` calls; with ``cache=True``
    each distinct job is fitted once and its repeats are cache hits."""

    @staticmethod
    def _loop(config, matrices):
        estimator = make_estimator(config.method, config)
        return [estimator.fit(matrix).result_ for matrix in matrices]

    def test_duplicates_fit_once_and_payloads_match(self, similarity, monkeypatch):
        calls = []
        real_compute = ClusteringEstimator.compute

        def counting_compute(self, *args, **kwargs):
            calls.append(1)
            return real_compute(self, *args, **kwargs)

        monkeypatch.setattr(ClusteringEstimator, "compute", counting_compute)
        results = self._loop(_config(), [similarity] * 8)
        assert len(calls) == 1
        payloads = {r.to_json() for r in results}
        assert len(payloads) == 1
        assert all(r.labels is not results[0].labels for r in results[1:])

    def test_repeated_call_served_from_cache(self, similarity):
        config = _config()
        first = self._loop(config, [similarity] * 5)
        stats = get_result_cache().stats
        stores_after_first, hits_after_first = stats.stores, stats.hits
        second = self._loop(config, [similarity] * 5)
        # No new stores: every fit of the second loop was a cache hit.
        assert stats.stores == stores_after_first
        assert stats.hits == hits_after_first + 5
        assert [r.to_json() for r in second] == [r.to_json() for r in first]

    def test_mixed_batch_preserves_input_order(self, similarity):
        other = similarity.copy()
        other[0, 1] = other[1, 0] = other[0, 1] * 0.5
        config = _config()
        results = self._loop(config, [similarity, other, similarity])
        assert results[0].to_json() == results[2].to_json()
        direct = make_estimator(config.method, config.replace(cache=False)).fit(other).result_
        assert np.array_equal(results[1].labels, direct.labels)

    def test_alias_method_shares_cache_with_direct_fits(self, similarity):
        # The estimator pins an alias to its canonical id (par-tdbht ->
        # tmfg-dbht) before keying, so both ids address one entry.
        make_estimator("tmfg-dbht", _config()).fit(similarity)
        stats = get_result_cache().stats
        assert (stats.misses, stats.stores) == (1, 1)
        results = self._loop(_config(method="par-tdbht"), [similarity] * 3)
        assert stats.misses == 1  # every alias lookup hit the direct fit's entry
        assert stats.stores == 1
        direct = make_estimator("tmfg-dbht", _config()).fit(similarity).result_
        assert results[0].to_json() == direct.to_json()

    def test_misses_are_stored_once(self, similarity):
        self._loop(_config(), [similarity] * 5)
        assert get_result_cache().stats.stores == 1


class TestEstimatorHalves:
    """``fit`` is ``lookup`` then, on a miss, ``compute``: the two halves
    the server calls separately."""

    def test_lookup_returns_the_stored_object_and_its_key(self, similarity):
        config = _config()
        estimator = make_estimator(config.method, config)
        key, cached = estimator.lookup(similarity)
        assert key == result_cache_key(estimator.config, similarity)
        assert cached is None
        estimator.compute(similarity, key)
        again_key, stored = estimator.lookup(similarity)
        assert again_key == key
        assert stored is get_result_cache().get(key)  # not a clone
        assert stored is not estimator.result_  # the cache holds its own clone
        assert stored.to_json() == estimator.result_.to_json()
        # Both hold the answer only: the dendrogram, not the pipeline.
        assert isinstance(stored.raw, Dendrogram) and stored.raw is estimator.result_.raw

    def test_lookup_keys_the_float64_view(self):
        config = _config(precomputed=False)
        estimator = make_estimator(config.method, config)
        ints = np.arange(48, dtype=np.int64).reshape(6, 8) % 7
        assert estimator.lookup(ints)[0] == estimator.lookup(ints.astype(float))[0]

    def test_lookup_with_the_cache_off_keys_but_never_looks_up(self, similarity):
        config = _config(cache=False)
        key, cached = make_estimator(config.method, config).lookup(similarity)
        assert key == result_cache_key(config, similarity) and cached is None
        assert get_result_cache().stats.snapshot().lookups == 0

    def test_compute_without_a_key_stores_nothing(self, similarity):
        make_estimator("tmfg-dbht", _config()).compute(similarity)
        assert get_result_cache().stats.stores == 0

    def test_fit_with_the_cache_off_computes_no_key(self, similarity, monkeypatch):
        import repro.api.estimators as estimators

        def no_keys(*args, **kwargs):
            raise AssertionError("a cache-off fit computed a result-cache key")

        monkeypatch.setattr(estimators, "result_cache_key", no_keys)
        config = _config(cache=False)
        assert make_estimator(config.method, config).fit(similarity).result_ is not None

    def test_fit_hit_is_one_key_and_one_get(self, similarity, monkeypatch):
        import repro.api.estimators as estimators

        config = _config()
        make_estimator(config.method, config).fit(similarity)
        keys = []
        real_key = estimators.result_cache_key

        def counting_key(*args, **kwargs):
            keys.append(1)
            return real_key(*args, **kwargs)

        monkeypatch.setattr(estimators, "result_cache_key", counting_key)
        before = get_result_cache().stats.snapshot()
        make_estimator(config.method, config).fit(similarity)
        after = get_result_cache().stats.snapshot()
        assert len(keys) == 1
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)


class TestCacheConfigValidation:
    def test_cache_dir_requires_cache(self, tmp_path):
        with pytest.raises(ValueError, match="cache_dir"):
            ClusteringConfig(cache=False, cache_dir=str(tmp_path))

    def test_cache_knobs_round_trip_through_json(self, tmp_path):
        config = _config(cache_dir=str(tmp_path))
        assert ClusteringConfig.from_json(config.to_json()) == config


class TestConcurrentAccess:
    """N threads hammering one estimator config + the shared ResultCache."""

    def test_threads_hammering_one_estimator_and_cache(self, similarity):
        import threading

        config = _config()
        num_threads, rounds = 8, 5
        barrier = threading.Barrier(num_threads)
        results, errors = [], []

        def hammer():
            try:
                barrier.wait(timeout=30)
                for _ in range(rounds):
                    estimator = make_estimator(config.method, config)
                    estimator.fit(similarity)
                    results.append(estimator.result_.to_json())
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert len(results) == num_threads * rounds
        # Every fit (computed or served from cache) agrees on everything
        # deterministic; only wall-clock timings may differ between the
        # racing first-round computes.
        deterministic = {
            json.dumps(
                {
                    key: payload[key]
                    for key in ("method", "config", "labels", "num_clusters", "extras")
                }
            )
            for payload in map(json.loads, results)
        }
        assert len(deterministic) == 1
        stats = get_result_cache().stats.snapshot()
        # Counters stay consistent under contention: every lookup was
        # either a hit or a miss, and misses each stored an entry.
        assert stats.hits + stats.misses == num_threads * rounds
        assert stats.stores == stats.misses
        assert stats.hits >= num_threads * (rounds - 1)

    def test_stats_readers_race_with_writers(self):
        import threading

        cache = ResultCache(max_entries=16)
        stop = threading.Event()
        snapshots, errors = [], []

        def reader():
            try:
                while not stop.is_set():
                    payload = cache.stats.as_dict()
                    # Mid-burst invariants: every store was preceded by its
                    # miss, and hit_rate is derived from one consistent
                    # (hits, lookups) pair, never a torn mixture.
                    assert payload["stores"] <= payload["misses"]
                    assert 0.0 <= payload["hit_rate"] <= 1.0
                    expected = (
                        payload["hits"] / (payload["hits"] + payload["misses"])
                        if payload["hits"] + payload["misses"]
                        else 0.0
                    )
                    assert payload["hit_rate"] == expected
                    snapshots.append(payload)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        def writer(seed):
            try:
                for i in range(300):
                    key = f"k{(seed * 7 + i) % 24}"
                    if cache.get(key) is None:
                        cache.put(key, i)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        readers = [threading.Thread(target=reader) for _ in range(2)]
        writers = [threading.Thread(target=writer, args=(s,)) for s in range(4)]
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=60)
        stop.set()
        for thread in readers:
            thread.join(timeout=60)
        assert not errors
        final = cache.stats.as_dict()
        assert final["hits"] + final["misses"] == 4 * 300
        assert final["stores"] == final["misses"]
        assert snapshots  # the readers actually raced the writers


class TestBatchFrontDoorEdges:
    def test_fit_one_rejects_non_2d_input(self):
        """Every estimator refuses 1-D and 3-D input with a ValueError."""
        for config in (ClusteringConfig(), ClusteringConfig(precomputed=True),
                       ClusteringConfig(method="kmeans", num_clusters=2)):
            for bad in (np.arange(8.0), np.zeros((2, 3, 4))):
                with pytest.raises(ValueError):
                    make_estimator(config.method, config).fit(bad)


def _shared_cache_writer(cache_dir: str, worker_index: int, rounds: int, queue) -> None:
    """One fleet-replica stand-in hammering the shared disk cache tier.

    Every worker writes the SAME deterministic value per key (as fleet
    replicas computing the same fingerprinted job would), so whichever
    write-then-rename wins the race, readers must see a complete, correct
    entry — never a torn or partial one.
    """
    try:
        from repro.cache.store import ResultCache

        writer = ResultCache(max_entries=4, cache_dir=cache_dir)
        for i in range(rounds):
            key = f"fingerprint-{i % 3}"
            value = _result(tag=i % 3, num_leaves=50).to_json()
            writer._write_disk(key, _result(tag=i % 3, num_leaves=50))
            # A fresh instance per read bypasses this process's in-memory
            # tier: the read must come from disk, mid-race.
            reader = ResultCache(max_entries=4, cache_dir=cache_dir)
            seen = reader.get(key)
            if seen is not None and seen.to_json() != value:
                queue.put(("corrupt", worker_index, key, seen.to_json()))
                return
        queue.put(("ok", worker_index))
    except Exception as error:  # pragma: no cover - surfaced in the parent
        queue.put(("error", worker_index, repr(error)))


class TestCrossProcessDiskCache:
    def test_racing_writers_to_one_fingerprint_never_tear(self, tmp_path):
        """N processes racing write-then-rename on the same keys in one
        --cache-dir (the `repro serve --workers N --cache-dir` layout):
        every read sees a whole entry and no temp droppings survive."""
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        cache_dir = str(tmp_path / "shared-cache")
        queue = context.Queue()
        workers = [
            context.Process(
                target=_shared_cache_writer, args=(cache_dir, index, 20, queue)
            )
            for index in range(4)
        ]
        for process in workers:
            process.start()
        outcomes = [queue.get(timeout=120) for _ in workers]
        for process in workers:
            process.join(timeout=60)
        assert all(outcome[0] == "ok" for outcome in outcomes), outcomes
        # After the dust settles: each key readable, correct, and whole.
        survivor = ResultCache(max_entries=4, cache_dir=cache_dir)
        for i in range(3):
            seen = survivor.get(f"fingerprint-{i}")
            expected = _result(tag=i, num_leaves=50)
            assert seen.to_json() == expected.to_json()
            assert _nodes(seen.dendrogram) == _nodes(expected.dendrogram)
        # Atomic rename cleaned up after itself: no .tmp files left.
        leftovers = [name for name in os.listdir(cache_dir) if name.endswith(".tmp")]
        assert leftovers == []


class TestFingerprintFieldAccounting:
    """FINGERPRINT_FIELDS + CACHE_KNOB_FIELDS must cover the dataclass
    exactly — the runtime twin of the config-fingerprint lint rule."""

    def test_accounting_partitions_the_config_fields(self):
        import dataclasses

        from repro.cache.fingerprint import CACHE_KNOB_FIELDS, FINGERPRINT_FIELDS

        declared = {f.name for f in dataclasses.fields(ClusteringConfig)}
        consumed = set(FINGERPRINT_FIELDS)
        excluded = set(CACHE_KNOB_FIELDS)
        assert consumed | excluded == declared
        assert not consumed & excluded

    def test_knob_changes_leave_the_fingerprint_alone(self):
        from repro.cache.fingerprint import config_fingerprint

        base = ClusteringConfig(num_clusters=3, prefix=2)
        cached = base.replace(cache=True, cache_dir="/tmp/somewhere")
        assert config_fingerprint(base) == config_fingerprint(cached)

    def test_every_fingerprint_field_changes_the_key(self):
        from repro.cache.fingerprint import config_fingerprint

        base = ClusteringConfig(num_clusters=3, prefix=2)
        variants = {
            "method": "hac-average",
            "num_clusters": 4,
            "prefix": 3,
            "precomputed": True,
            "linkage": "average",
            "seed": 7,
            "num_restarts": 4,
            "spectral_neighbors": 12,
        }
        from repro.cache.fingerprint import FINGERPRINT_FIELDS

        assert set(variants) == set(FINGERPRINT_FIELDS)
        reference = config_fingerprint(base)
        for field_name, value in variants.items():
            changed = config_fingerprint({**base.to_dict(), field_name: value})
            assert changed != reference, field_name
