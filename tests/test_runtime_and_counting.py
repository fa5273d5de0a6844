"""Thread-count validation and the MAC instrumentation counter."""

import numpy as np
import pytest

from dilatevit import runtime
from dilatevit.counting import add_macs, mac_counter
from dilatevit.tensor import matmul


class TestRowBlocks:
    def test_invalid_thread_count(self):
        with pytest.raises(ValueError):
            runtime.set_num_threads(0)


class TestMacCounter:
    def test_counts_only_inside_context(self):
        a = np.ones((3, 4))
        b = np.ones((4, 5))
        matmul(a, b)  # outside any context: no crash, nothing recorded
        with mac_counter() as c:
            matmul(a, b)
        assert c.macs == 3 * 4 * 5
        matmul(a, b)
        assert c.macs == 3 * 4 * 5

    def test_nested_contexts_are_independent(self):
        with mac_counter() as outer:
            add_macs(10)
            with mac_counter() as inner:
                add_macs(7)
            add_macs(1)
        assert inner.macs == 7
        assert outer.macs == 11
