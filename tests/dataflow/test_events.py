"""Unit tests for events and columnar batches."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dataflow.events import Event, EventBatch
from repro.dataflow.graph import StageSpec
from repro.runtime.topology import Route

#: int64 keys: small ones of both signs, and values beyond 32 bits
_KEYS = st.lists(
    st.one_of(
        st.integers(-100, 100),
        st.integers(2**31, 2**63 - 1),
        st.integers(-(2**63), -(2**31)),
    ),
    max_size=40,
)


class TestEventBatch:
    def test_defaults_fill_values_and_keys(self):
        batch = EventBatch([1.0, 2.0, 3.0])
        assert np.array_equal(batch.values, np.ones(3))
        assert np.array_equal(batch.keys, np.zeros(3, dtype=np.int64))

    def test_length(self):
        assert len(EventBatch([1.0, 2.0])) == 2
        assert len(EventBatch([])) == 0

    def test_max_logical_time(self):
        assert EventBatch([1.0, 5.0, 3.0]).max_logical_time == 5.0

    def test_empty_batch_progress_is_neg_inf(self):
        assert EventBatch([]).max_logical_time == float("-inf")
        assert EventBatch([]).min_logical_time == float("inf")

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            EventBatch([1.0, 2.0], values=[1.0])

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError):
            EventBatch([[1.0, 2.0]])
        with pytest.raises(ValueError):
            EventBatch([1.0, 2.0], values=[[1.0], [2.0]])
        with pytest.raises(ValueError):
            EventBatch([1.0, 2.0], keys=[[0], [1]])

    def test_select_by_mask(self):
        batch = EventBatch([1.0, 2.0, 3.0], values=[10, 20, 30], keys=[0, 1, 0],
                           arrival_time=9.0, source_id=4)
        picked = batch.select(batch.keys == 0)
        assert len(picked) == 2
        assert np.array_equal(picked.values, [10, 30])
        assert picked.arrival_time == 9.0
        assert picked.source_id == 4

    def test_select_empty_mask(self):
        batch = EventBatch([1.0, 2.0])
        assert len(batch.select(np.zeros(2, dtype=bool))) == 0

    @settings(max_examples=200, deadline=None)
    @given(parts=st.integers(1, 5), keys=_KEYS, times_sorted=st.booleans())
    @example(parts=2, keys=[], times_sorted=True)
    @example(parts=3, keys=[], times_sorted=False)
    def test_partition_matches_select(self, parts, keys, times_sorted):
        n = len(keys)
        batch = EventBatch(np.arange(n) * 0.5, values=np.arange(n) + 0.25,
                           keys=keys, arrival_time=9.0, source_id=4,
                           times_sorted=times_sorted)
        pieces = batch.partition(parts)
        assert len(pieces) == parts
        assert sum(len(piece) for piece in pieces) == n
        for j, piece in enumerate(pieces):
            expected = batch.select(batch.keys % parts == j)
            for column in ("logical_times", "values", "keys"):
                got, want = getattr(piece, column), getattr(expected, column)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
            assert piece.arrival_time == 9.0
            assert piece.source_id == 4
            assert piece.times_sorted is times_sorted

    def test_from_events(self):
        events = [Event(1.0, 2.0, 3), Event(4.0, 5.0, 6)]
        batch = EventBatch.from_events(events, arrival_time=1.5)
        assert np.array_equal(batch.logical_times, [1.0, 4.0])
        assert np.array_equal(batch.values, [2.0, 5.0])
        assert np.array_equal(batch.keys, [3, 6])
        assert batch.arrival_time == 1.5

    def test_single(self):
        batch = EventBatch.single(2.0, value=7.0, key=1)
        assert len(batch) == 1
        assert batch.max_logical_time == 2.0

    def test_raw_matches_public_constructor(self):
        times = np.array([1.0, 2.0])
        values = np.array([3.0, 4.0])
        keys = np.array([0, 1], dtype=np.int64)
        raw = EventBatch._raw(times, values, keys, arrival_time=5.0, source_id=2)
        assert np.array_equal(raw.logical_times, times)
        assert raw.arrival_time == 5.0
        assert raw.max_logical_time == 2.0


class TestRouteSplit:
    def test_rescaled_route_repartitions_modulo_active(self):
        stage = StageSpec(name="dst", kind="sink", parallelism=4)
        route = Route(stage, targets=[None] * 4, key_partitioned=True,
                      links=["l0", "l1", "l2", "l3"], active=3)
        batch = EventBatch([1.0, 2.0, 3.0, 4.0, 5.0], keys=[0, 1, 2, 3, -1])
        pairs = route.split(batch)
        assert [link for link, _ in pairs] == ["l0", "l1", "l2"]
        assert [part.keys.tolist() for _, part in pairs] == [[0, 3], [1], [2, -1]]
