"""Unit and property tests for the bucketed pipeline simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.cluster import ClusterSpec, paper_testbed
from repro.simulator.pipeline import (
    BucketCost,
    bucketed_schedule,
    serialized_schedule,
    simulate_schedule,
    split_coordinates,
)

seconds = st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False)
positive_seconds = st.floats(
    min_value=1e-6, max_value=10.0, allow_nan=False, allow_infinity=False
)


def bucket_lists(max_buckets=8):
    """Random monotone-ready bucket schedules."""
    return st.lists(
        st.tuples(seconds, seconds, seconds, seconds),
        min_size=1,
        max_size=max_buckets,
    ).map(
        lambda rows: [
            BucketCost(
                ready_seconds=sum(r[0] for r in rows[: i + 1]),
                compress_seconds=row[1],
                comm_seconds=row[2],
                decompress_seconds=row[3],
            )
            for i, row in enumerate(rows)
        ]
    )


class TestBucketCost:
    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            BucketCost(ready_seconds=-0.1, compress_seconds=0.0, comm_seconds=0.0)
        with pytest.raises(ValueError):
            BucketCost(ready_seconds=0.0, compress_seconds=0.0, comm_seconds=-1.0)


class TestSimulateSchedule:
    def test_rejects_empty_schedule(self):
        with pytest.raises(ValueError):
            simulate_schedule([])

    def test_rejects_negative_optimizer(self):
        with pytest.raises(ValueError):
            simulate_schedule(serialized_schedule(1.0, 0.0, 0.0), optimizer_seconds=-1.0)

    def test_serialized_schedule_equals_sum_of_phases(self):
        schedule = serialized_schedule(0.16, 0.02, 0.14, 0.01)
        result = simulate_schedule(schedule, optimizer_seconds=0.005)
        assert result.makespan_seconds == pytest.approx(0.16 + 0.02 + 0.14 + 0.01 + 0.005)
        assert result.serialized_seconds == pytest.approx(result.makespan_seconds)
        assert result.overlap_efficiency == pytest.approx(0.0)

    def test_comm_windows_are_ordered_and_disjoint(self):
        schedule = bucketed_schedule(0.2, [(0.01, 0.05)] * 4)
        result = simulate_schedule(schedule, paper_testbed())
        for before, after in zip(result.traces, result.traces[1:]):
            assert after.comm_start_seconds >= before.comm_end_seconds

    def test_bucketing_hides_communication_behind_compute(self):
        compute, compression, communication = 0.16, 0.02, 0.14
        serial = simulate_schedule(
            serialized_schedule(compute, compression, communication)
        )
        buckets = 8
        pipelined = simulate_schedule(
            bucketed_schedule(
                compute, [(compression / buckets, communication / buckets)] * buckets
            )
        )
        assert pipelined.makespan_seconds < serial.makespan_seconds
        assert pipelined.overlap_efficiency > 0.2

    def test_straggler_worker_dominates_makespan(self):
        schedule = bucketed_schedule(0.16, [(0.005, 0.02)] * 8)
        base = simulate_schedule(schedule, paper_testbed())
        slowdown = 1.7
        straggler = simulate_schedule(schedule, paper_testbed().with_straggler(2, slowdown))
        assert straggler.makespan_seconds > base.makespan_seconds
        # The straggler's backward pass alone lower-bounds the round.
        assert straggler.makespan_seconds >= 0.16 * slowdown

    def test_rounds_per_second(self):
        result = simulate_schedule(serialized_schedule(0.5, 0.0, 0.0))
        assert result.rounds_per_second() == pytest.approx(2.0)

    @given(bucket_lists())
    @settings(max_examples=80, deadline=None)
    def test_full_overlap_never_beats_max_of_compute_and_comm(self, buckets):
        result = simulate_schedule(buckets)
        backward_end = buckets[-1].ready_seconds
        total_comm = sum(b.comm_seconds for b in buckets)
        assert result.makespan_seconds >= backward_end - 1e-12
        assert result.makespan_seconds >= total_comm - 1e-12
        assert result.makespan_seconds >= max(backward_end, total_comm) - 1e-12

    @given(bucket_lists())
    @settings(max_examples=80, deadline=None)
    def test_pipelining_never_beats_serial_nor_loses_to_it(self, buckets):
        result = simulate_schedule(buckets)
        assert result.makespan_seconds <= result.serialized_seconds + 1e-9
        # Equality up to float summation order when nothing can overlap.
        assert result.overlap_efficiency >= -1e-12
        assert result.overlap_efficiency < 1.0 or result.serialized_seconds == 0.0

    @given(bucket_lists(), st.floats(min_value=1.0, max_value=4.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_makespan_monotone_in_straggler_slowdown(self, buckets, slowdown):
        base = simulate_schedule(buckets, paper_testbed())
        slowed = simulate_schedule(buckets, paper_testbed().with_straggler(0, slowdown))
        assert slowed.makespan_seconds >= base.makespan_seconds - 1e-12


class TestSplitCoordinates:
    def test_splits_evenly(self):
        assert split_coordinates(10, 2) == [5, 5]
        assert split_coordinates(10, 3) == [4, 3, 3]

    def test_caps_buckets_at_coordinates(self):
        assert split_coordinates(2, 8) == [1, 1]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            split_coordinates(0, 2)
        with pytest.raises(ValueError):
            split_coordinates(10, 0)

    @given(st.integers(1, 10**9), st.integers(1, 64))
    @settings(max_examples=80, deadline=None)
    def test_partition_sums_and_balance(self, num_coordinates, num_buckets):
        sizes = split_coordinates(num_coordinates, num_buckets)
        assert sum(sizes) == num_coordinates
        assert all(size >= 1 for size in sizes)
        assert max(sizes) - min(sizes) <= 1


class TestBucketedSchedule:
    def test_ready_times_progress_through_compute(self):
        schedule = bucketed_schedule(0.4, [(0.0, 0.1)] * 4)
        assert [b.ready_seconds for b in schedule] == pytest.approx([0.1, 0.2, 0.3, 0.4])

    def test_rejects_empty_costs(self):
        with pytest.raises(ValueError):
            bucketed_schedule(1.0, [])

    def test_rejects_negative_compute(self):
        with pytest.raises(ValueError):
            bucketed_schedule(-1.0, [(0.0, 0.1)])

    def test_accepts_decompress_triples(self):
        schedule = bucketed_schedule(0.1, [(0.01, 0.02, 0.03)])
        assert schedule[0].decompress_seconds == pytest.approx(0.03)


class TestHeterogeneousCluster:
    def test_nominal_profiles_change_nothing(self):
        schedule = bucketed_schedule(0.16, [(0.005, 0.02)] * 4)
        plain = simulate_schedule(schedule, paper_testbed())
        explicit = simulate_schedule(
            schedule, paper_testbed().with_straggler(0, 1.0).with_nic_tier(1, 1.0)
        )
        assert explicit.makespan_seconds == pytest.approx(plain.makespan_seconds)

    def test_single_worker_cluster_equals_no_cluster(self):
        schedule = bucketed_schedule(0.16, [(0.005, 0.02)] * 4)
        lone = ClusterSpec(num_nodes=1, gpus_per_node=1)
        assert simulate_schedule(schedule, lone).makespan_seconds == pytest.approx(
            simulate_schedule(schedule).makespan_seconds
        )
