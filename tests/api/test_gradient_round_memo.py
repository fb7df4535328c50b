"""The session's vNMSE gradient rounds: drawn once, shared read-only, bounded.

``ExperimentSession`` keeps the gradient rounds of its most recent
``(num_coordinates, gradient_seed, num_workers)``, so every scheme measured
on them reuses one draw.  These tests pin what that memo promises: rounds
are drawn once per session (also under concurrent calls and sweeps), they
cannot be written, ``clear_cache`` frees them, a call that cannot run never
touches them -- and the memory the memo costs is paid back by the THC kernel
and by ``mean_vnmse`` holding one round's result at a time.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.api import ExperimentSession, bert_like_gradients, mean_vnmse, paper_context
from repro.compression.hadamard import padded_size_for
from repro.compression.registry import make_scheme
from repro.core.metrics import squared_norm
from repro.simulator.cluster import ClusterSpec
from repro.training.gradients import SyntheticGradientModel

#: A small vNMSE call on the paper testbed's 4 workers.
CALL = dict(num_coordinates=4099, num_workers=4, num_rounds=3)

SIX_SPECS = [
    "baseline(p=fp16)",
    "thc(q=4, rot=full, agg=sat)",
    "thc(q=4, rot=partial, agg=sat)",
    "topkc(b=2)",
    "powersgd(r=4)",
    "qsgd(q=4, agg=sat)",
]


@pytest.fixture
def drawn_rounds(monkeypatch) -> list[int]:
    """Count ``SyntheticGradientModel.next_round`` calls (one entry per call)."""
    calls: list[int] = []
    original = SyntheticGradientModel.next_round

    def counting(self, num_workers):
        calls.append(num_workers)
        return original(self, num_workers)

    monkeypatch.setattr(SyntheticGradientModel, "next_round", counting)
    return calls


class TestDrawnOnce:
    def test_many_specs_draw_each_round_once(self, drawn_rounds):
        session = ExperimentSession()
        for spec in SIX_SPECS:
            session.vnmse(spec, **CALL)
        assert len(drawn_rounds) == CALL["num_rounds"]

    def test_longer_call_draws_only_the_missing_rounds(self, drawn_rounds):
        session = ExperimentSession()
        session.vnmse("topkc(b=2)", **{**CALL, "num_rounds": 1})
        session.vnmse("topkc(b=2)", **{**CALL, "num_rounds": 3})
        session.vnmse("topkc(b=2)", **{**CALL, "num_rounds": 2})
        assert len(drawn_rounds) == 3

    def test_new_key_replaces_the_rounds(self, drawn_rounds):
        session = ExperimentSession()
        session.vnmse("topkc(b=2)", **CALL)
        session.vnmse("topkc(b=2)", **{**CALL, "gradient_seed": 4})
        session.vnmse("topkc(b=2)", **CALL)
        assert len(drawn_rounds) == 3 * CALL["num_rounds"]

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_vnmse_sweep_draws_each_round_once(self, drawn_rounds, executor):
        session = ExperimentSession()
        grid = session.sweep(SIX_SPECS, metric="vnmse", executor=executor, **CALL)
        assert len(drawn_rounds) == CALL["num_rounds"]
        for spec in SIX_SPECS:
            assert grid.value(spec) == ExperimentSession().vnmse(spec, **CALL)

    def test_concurrent_calls_share_one_draw(self, drawn_rounds):
        session = ExperimentSession()
        barrier = threading.Barrier(4)
        values: list[float] = []

        def measure():
            barrier.wait(timeout=30)
            values.append(session.vnmse("thc(q=4, rot=partial, agg=sat)", **CALL))

        threads = [threading.Thread(target=measure) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(values) == 4 and len(set(values)) == 1
        assert len(drawn_rounds) == CALL["num_rounds"]

    def test_clear_cache_drops_the_rounds(self, drawn_rounds):
        session = ExperimentSession()
        session.vnmse("topkc(b=2)", **CALL)
        session.clear_cache()
        session.vnmse("topkc(b=2)", **CALL)
        assert len(drawn_rounds) == 2 * CALL["num_rounds"]


class TestReadOnly:
    def test_rows_and_means_cannot_be_written(self):
        session = ExperimentSession()
        rounds = session._gradient_rounds(4099, 3, 4, 2)
        assert len(rounds) == 2
        for rows, true_mean, _ in rounds:
            for array in (*rows, true_mean):
                with pytest.raises(ValueError):
                    array[0] = 1.0

    def test_rounds_equal_a_fresh_generator(self):
        session = ExperimentSession()
        generator = bert_like_gradients(4099, seed=3)
        for rows, true_mean, energy in session._gradient_rounds(4099, 3, 4, 2):
            expected = generator.next_round(4)
            for row, expected_row in zip(rows, expected):
                np.testing.assert_array_equal(row, expected_row)
            np.testing.assert_array_equal(true_mean, generator.true_mean(expected))
            assert energy == squared_norm(true_mean)


class TestBoundary:
    def test_worker_count_must_match_the_cluster(self, drawn_rounds):
        session = ExperimentSession()
        with pytest.raises(ValueError, match=r"num_workers=16 .* world size 4"):
            session.vnmse("topkc(b=2)", num_coordinates=4099, num_workers=16)
        assert drawn_rounds == []

    @pytest.mark.parametrize(
        "bad", [dict(num_rounds=0), dict(num_coordinates=0), dict(num_workers=3)]
    )
    def test_rejected_call_keeps_the_rounds(self, drawn_rounds, bad):
        session = ExperimentSession()
        session.vnmse("topkc(b=2)", **CALL)
        with pytest.raises(ValueError):
            session.vnmse("topkc(b=2)", **{**CALL, **bad})
        session.vnmse("qsgd(q=4, agg=sat)", **CALL)
        assert len(drawn_rounds) == CALL["num_rounds"]

    def test_mean_vnmse_rejects_worker_count_before_drawing(self, drawn_rounds):
        with pytest.raises(ValueError, match="world size 4"):
            mean_vnmse(
                make_scheme("topkc(b=2)"),
                bert_like_gradients(4099),
                num_workers=16,
                ctx=paper_context(),
            )
        assert drawn_rounds == []


#: Bytes per coordinate the traced peak of one batched aggregate at 16 x 2^20
#: may reach: the rows are the caller's, so what is counted is the scheme's
#: own buffers and temporaries.
AGGREGATE_PEAK_BYTES_PER_COORDINATE = {
    "thc(q=4, rot=full, agg=sat)": 7.62,
    "thc(q=4, rot=partial, agg=sat)": 7.37,
    "qsgd(q=4, agg=sat)": 6,
    "topkc(b=2)": 6.5,
    "powersgd(r=4)": 2.58,
    "baseline(p=fp16)": 5.53,
}


class TestMemory:
    def test_thc_workspace_at_paper_scale(self):
        """The gather, transform and rounding scratch is tiles and row
        blocks, not more worker matrices: the transform output and the levels
        are the only full-size buffers."""
        num_workers, num_coordinates = 16, 1 << 20
        ctx = paper_context(ClusterSpec(num_nodes=8, gpus_per_node=2))
        rows = np.random.default_rng(0).standard_normal(
            (num_workers, num_coordinates), dtype=np.float32
        )
        make_scheme("thc(q=4, rot=full, agg=sat)").aggregate(list(rows), ctx)
        coordinates = num_workers * padded_size_for(num_coordinates)
        assert ctx.workspace.allocated_bytes() <= 7 * coordinates

    @pytest.mark.parametrize("spec", sorted(AGGREGATE_PEAK_BYTES_PER_COORDINATE))
    def test_aggregate_peak_at_paper_scale(self, spec):
        """No batched kernel streams whole-matrix temporaries it does not need."""
        num_workers, num_coordinates = 16, 1 << 20
        ctx = paper_context(ClusterSpec(num_nodes=8, gpus_per_node=2))
        rows = np.random.default_rng(0).standard_normal(
            (num_workers, num_coordinates), dtype=np.float32
        )
        scheme = make_scheme(spec)
        tracemalloc.start()
        try:
            result = scheme.aggregate(rows, ctx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del result
        bound = AGGREGATE_PEAK_BYTES_PER_COORDINATE[spec]
        assert peak <= bound * num_workers * num_coordinates

    @pytest.mark.parametrize("via", ["mean_vnmse", "session"])
    @pytest.mark.parametrize("spec", ["topkc(b=2)", "ef(thc(q=4, rot=full, agg=sat))"])
    def test_previous_result_is_dropped_before_next_aggregate(self, via, spec):
        scheme = make_scheme(spec)
        results: list[weakref.ref] = []
        aggregate = scheme.aggregate

        def watched(worker_gradients, ctx):
            assert all(result() is None for result in results), "a result outlived its round"
            result = aggregate(worker_gradients, ctx)
            results.append(weakref.ref(result))
            return result

        scheme.aggregate = watched
        if via == "mean_vnmse":
            mean_vnmse(scheme, bert_like_gradients(4099), num_rounds=3, ctx=paper_context())
        else:
            ExperimentSession().vnmse(scheme, **CALL)
        assert len(results) == 3
