"""Tests for the job-level execution backends ``cluster_many`` fans out over."""

from __future__ import annotations

import threading

import pytest

from repro.parallel.scheduler import (
    ParallelBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    make_backend,
)


def _square(x):
    """Module-level so the process backend can pickle it."""
    return x * x


class TestSerialBackend:
    def test_map_preserves_order(self):
        backend = SerialBackend()
        assert backend.map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]

    def test_reports_single_worker(self):
        assert SerialBackend().num_workers == 1


class TestThreadBackend:
    def test_map_matches_serial(self):
        backend = ThreadBackend(num_workers=4)
        try:
            assert backend.map(lambda x: x + 1, list(range(50))) == [
                x + 1 for x in range(50)
            ]
        finally:
            backend.close()

    def test_actually_uses_multiple_threads(self):
        backend = ThreadBackend(num_workers=4)
        thread_names = set()
        lock = threading.Lock()

        def record(_):
            with lock:
                thread_names.add(threading.current_thread().name)
            # Give other workers a chance to pick up tasks.
            import time

            time.sleep(0.005)

        try:
            backend.map(record, list(range(32)))
        finally:
            backend.close()
        assert len(thread_names) >= 2

    def test_single_item_runs_inline(self):
        backend = ThreadBackend(num_workers=2)
        try:
            assert backend.map(lambda x: x, [7]) == [7]
        finally:
            backend.close()

    def test_map_accepts_generator_input(self):
        # Regression: len() on a generator raised TypeError despite the
        # Iterable signature; unsized inputs are materialized first.
        backend = ThreadBackend(num_workers=2)
        try:
            assert backend.map(lambda x: x * 2, (x for x in range(10))) == [
                x * 2 for x in range(10)
            ]
            assert backend.map(lambda x: x + 1, (x for x in range(1))) == [1]
            assert backend.map(lambda x: x, (x for x in range(0))) == []
        finally:
            backend.close()

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ThreadBackend(num_workers=0)


class TestProcessBackend:
    def test_map_matches_serial(self):
        backend = ProcessBackend(num_workers=2)
        try:
            assert backend.map(_square, list(range(8))) == [x * x for x in range(8)]
        finally:
            backend.close()

    def test_single_item_runs_inline(self):
        backend = ProcessBackend(num_workers=2)
        try:
            assert backend.map(_square, [3]) == [9]
        finally:
            backend.close()

    def test_map_accepts_generator_input(self):
        backend = ProcessBackend(num_workers=2)
        try:
            assert backend.map(_square, (x for x in range(6))) == [
                x * x for x in range(6)
            ]
        finally:
            backend.close()

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ProcessBackend(num_workers=0)


class TestMakeBackend:
    def test_names_resolve_to_backend_classes(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        thread = make_backend("thread", num_workers=2)
        try:
            assert isinstance(thread, ThreadBackend)
            assert thread.num_workers == 2
        finally:
            thread.close()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_backend("gpu")


class TestParallelBackend:
    def test_base_class_map_is_abstract(self):
        with pytest.raises(NotImplementedError):
            ParallelBackend().map(lambda x: x, [1])
