"""The shared counting helpers count what they say (``tests/counting.py``)."""

import gc

import pytest

from tests.counting import collections_run


class TestCollectionsRun:
    def test_counts_each_generation_and_returns_the_value(self):
        def collect():
            gc.collect(0)
            gc.collect(1)
            gc.collect(1)
            gc.collect(2)
            return "done"

        gc.disable()  # automatic collections would add to the counts
        try:
            counts, value = collections_run(collect)
        finally:
            gc.enable()
        assert counts == {0: 1, 1: 2, 2: 1}
        assert value == "done"

    def test_counts_automatic_collections(self):
        def allocate():
            cycles = [[] for _ in range(3 * gc.get_threshold()[0])]
            for cycle in cycles:
                cycle.append(cycle)

        counts, _ = collections_run(allocate)
        assert counts[0] >= 1

    def test_leaves_the_callbacks_as_it_found_them(self):
        before = list(gc.callbacks)

        def fail():
            raise ValueError("inside")

        with pytest.raises(ValueError, match="inside"):
            collections_run(fail)
        assert gc.callbacks == before
