"""Tests for the priority concurrent write cells the assignment oracle uses."""

from __future__ import annotations

import threading

from tests.oracles import WriteMax, WriteMin


class TestWriteMin:
    def test_keeps_smallest_value(self):
        cell = WriteMin(10)
        assert cell.write(5) is True
        assert cell.write(7) is False
        assert cell.value == 5

    def test_initial_value_is_reported(self):
        cell = WriteMin(3.5)
        assert cell.value == 3.5

    def test_tuple_values_break_ties_lexicographically(self):
        cell = WriteMin((float("inf"), -1))
        cell.write((2.0, 7))
        cell.write((2.0, 3))
        assert cell.value == (2.0, 3)

    def test_concurrent_writes_keep_global_minimum(self):
        cell = WriteMin(float("inf"))
        values = list(range(1000, 0, -1))

        def writer(chunk):
            for value in chunk:
                cell.write(value)

        threads = [
            threading.Thread(target=writer, args=(values[i::4],)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert cell.value == 1


class TestWriteMax:
    def test_keeps_largest_value(self):
        cell = WriteMax(0)
        assert cell.write(4) is True
        assert cell.write(2) is False
        assert cell.value == 4

    def test_equal_value_is_not_an_update(self):
        cell = WriteMax(4)
        assert cell.write(4) is False

    def test_concurrent_writes_keep_global_maximum(self):
        cell = WriteMax(float("-inf"))
        values = list(range(500))

        def writer(chunk):
            for value in chunk:
                cell.write(value)

        threads = [
            threading.Thread(target=writer, args=(values[i::3],)) for i in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert cell.value == 499
