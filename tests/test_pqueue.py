"""Priority-queue tests: heaps sort, tolerate duplicates, decrease keys."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.reference import DecreaseKeyHeap
from repro.utils.pqueue import BinaryHeap


class TestBinaryHeap:
    def test_empty(self):
        h = BinaryHeap()
        assert len(h) == 0
        assert not h
        assert h.peek_key() == float("inf")

    def test_orders_by_key(self):
        h = BinaryHeap()
        for key, item in [(3.0, "c"), (1.0, "a"), (2.0, "b")]:
            h.push(key, item)
        assert [h.pop()[1] for _ in range(3)] == ["a", "b", "c"]

    def test_duplicates_allowed(self):
        h = BinaryHeap()
        h.push(2.0, "x")
        h.push(1.0, "x")
        assert h.pop() == (1.0, "x")
        assert h.pop() == (2.0, "x")

    def test_peek_does_not_remove(self):
        h = BinaryHeap()
        h.push(1.0, "a")
        assert h.peek() == (1.0, "a")
        assert len(h) == 1

    def test_clear(self):
        h = BinaryHeap()
        h.push(1.0, "a")
        h.clear()
        assert not h

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=60))
    def test_heapsort_property(self, keys):
        h = BinaryHeap()
        for i, key in enumerate(keys):
            h.push(key, i)
        popped = [h.pop()[0] for _ in range(len(keys))]
        assert popped == sorted(keys)


class TestDecreaseKeyHeap:
    def test_no_duplicates(self):
        h = DecreaseKeyHeap()
        h.push(3.0, "x")
        h.push(1.0, "x")  # decrease
        assert len(h) == 1
        assert h.pop() == (1.0, "x")

    def test_increase_ignored(self):
        h = DecreaseKeyHeap()
        h.push(1.0, "x")
        assert not h.push(5.0, "x")
        assert h.pop() == (1.0, "x")

    def test_contains_and_key_of(self):
        h = DecreaseKeyHeap()
        h.push(2.0, "a")
        assert "a" in h
        assert h.key_of("a") == 2.0
        assert h.key_of("b") is None

    def test_pop_removes_from_index(self):
        h = DecreaseKeyHeap()
        h.push(1.0, "a")
        h.pop()
        assert "a" not in h

    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.floats(0, 1e6, allow_nan=False)),
            max_size=80,
        )
    )
    def test_matches_min_semantics(self, ops):
        """Popping must yield each item once, at its minimum pushed key."""
        h = DecreaseKeyHeap()
        best = {}
        for item, key in ops:
            h.push(key, item)
            if item not in best or key < best[item]:
                best[item] = key
        popped = {}
        prev = float("-inf")
        while h:
            key, item = h.pop()
            assert key >= prev
            prev = key
            assert item not in popped
            popped[item] = key
        assert popped == best

    def test_interleaved_random(self):
        rng = random.Random(0)
        h = DecreaseKeyHeap()
        reference = {}
        for step in range(300):
            if reference and rng.random() < 0.3:
                key, item = h.pop()
                assert key == pytest.approx(reference.pop(item))
                assert key == pytest.approx(
                    min([key] + list(reference.values()))
                    if reference
                    else key
                )
            else:
                item = rng.randrange(50)
                key = rng.random()
                h.push(key, item)
                if item not in reference or key < reference[item]:
                    reference[item] = key
