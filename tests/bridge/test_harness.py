"""The execution harness: actors, transports, and their failure modes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bridge import (
    BridgeProtocolError,
    BridgeTimeoutError,
    TransportBackend,
    run_harness,
    save_trace,
    simulate_trace,
    synthetic_trace,
)
from repro.bridge.transport import inprocess_channel, multiprocess_channel
from repro.compression.precision import PrecisionBaseline
from repro.compression.registry import register_scheme, unregister_scheme
from repro.core.metrics import vnmse
from repro.simulator.cluster import paper_testbed


@pytest.fixture(scope="module")
def trace():
    return synthetic_trace(num_steps=2, num_workers=4, seed=5)


class TestRunHarness:
    def test_baseline_fp32_matches_simulation_exactly(self, trace):
        """Gradients are float32; an FP32 wire is lossless, so the harness
        must reproduce the monolithic simulation bit for bit."""
        measured = run_harness("baseline(p=fp32)", trace, seed=1)
        simulated = simulate_trace("baseline(p=fp32)", trace, seed=1)
        for sim, meas in zip(simulated.rounds, measured.rounds):
            np.testing.assert_array_equal(meas.mean_estimate, sim.mean_estimate)
            assert meas.per_worker_bits == sim.per_worker_bits

    def test_round_structure(self, trace):
        result = run_harness("topk(b=2)", trace, seed=0)
        assert result.spec == "topk(b=2)"
        assert result.transport == "inprocess"
        assert len(result.rounds) == trace.num_steps
        for round_ in result.rounds:
            assert len(round_.per_worker_bits) == trace.num_workers
            assert len(round_.per_worker_bytes) == trace.num_workers
            assert round_.collective_calls >= 1
            assert round_.wall_seconds > 0
            # Bytes are the bits rounded up to whole bytes, per call, so
            # bits <= 8 * bytes always holds.
            for bits, nbytes in zip(round_.per_worker_bits, round_.per_worker_bytes):
                assert bits <= 8 * nbytes

    def test_vnmse_against_true_mean(self, trace):
        """The lossless baseline must estimate the trace mean near-exactly."""
        result = run_harness("baseline(p=fp32)", trace, seed=0)
        errors = [
            vnmse(round_.mean_estimate, step.true_mean())
            for step, round_ in zip(trace.steps, result.rounds)
        ]
        assert np.mean(errors) < 1e-12

    def test_seed_determinism(self, trace):
        a = run_harness("thc(q=4, rot=partial, agg=sat)", trace, seed=3)
        b = run_harness("thc(q=4, rot=partial, agg=sat)", trace, seed=3)
        for round_a, round_b in zip(a.rounds, b.rounds):
            np.testing.assert_array_equal(round_a.mean_estimate, round_b.mean_estimate)

    def test_loads_trace_from_disk(self, trace, tmp_path):
        save_trace(trace, tmp_path / "t")
        result = run_harness("baseline(p=fp16)", tmp_path / "t", seed=0)
        assert len(result.rounds) == trace.num_steps

    def test_world_size_mismatch_rejected(self):
        small = synthetic_trace(num_steps=1, num_workers=2, seed=0)
        with pytest.raises(ValueError, match="world size"):
            run_harness("baseline(p=fp16)", small, cluster=paper_testbed())

    def test_unknown_transport_rejected(self, trace):
        with pytest.raises(ValueError, match="transport"):
            run_harness("baseline(p=fp16)", trace, transport="carrier-pigeon")


class TestProcessTransport:
    def test_agrees_with_inprocess(self, trace):
        """Same scheme, same seed: OS-process workers over real pipes must
        produce the identical estimate and identical traffic."""
        spec = "thc(q=4, rot=partial, agg=sat)"
        over_pipes = run_harness(spec, trace, seed=2, transport="process")
        in_process = run_harness(spec, trace, seed=2, transport="inprocess")
        assert over_pipes.transport == "process"
        for piped, threaded in zip(over_pipes.rounds, in_process.rounds):
            np.testing.assert_array_equal(piped.mean_estimate, threaded.mean_estimate)
            assert piped.per_worker_bits == threaded.per_worker_bits

    def test_worker_error_is_reported(self, trace):
        with pytest.raises(BridgeProtocolError, match="worker"):
            run_harness("definitely-not-a-scheme", trace, transport="process")


class TestTransportBackend:
    def test_rank_validation(self):
        worker_end, _ = inprocess_channel()
        with pytest.raises(ValueError, match="rank"):
            TransportBackend(paper_testbed(), rank=7, endpoint=worker_end)

    def test_recv_timeout_is_loud(self):
        worker_end, _ = inprocess_channel()
        with pytest.raises(BridgeTimeoutError, match="no message"):
            worker_end.recv(timeout=0.01)

    def test_pipe_timeout_is_loud(self):
        worker_end, server_end = multiprocess_channel()
        try:
            with pytest.raises(BridgeTimeoutError, match="no message"):
                worker_end.recv(timeout=0.01)
        finally:
            worker_end.close()
            server_end.close()


class TestWorkerFailures:
    def test_bad_spec_surfaces_as_worker_failure(self, trace):
        with pytest.raises(BridgeProtocolError, match="worker"):
            run_harness("definitely-not-a-scheme", trace)


class RankOneBlowsUp(PrecisionBaseline):
    """The FP16 baseline, except that rank 1 raises instead of aggregating."""

    def aggregate_rows(self, rows, ctx, d):
        if ctx.local_ranks.start == 1:
            raise RuntimeError("rank one blew up")
        return super().aggregate_rows(rows, ctx, d)


class TestMidRoundWorkerFailure:
    """Rank 1 fails while rank 0 waits inside its first all-reduce."""

    @pytest.fixture
    def scheme(self):
        register_scheme("rank-one-blows-up", RankOneBlowsUp)
        yield "rank-one-blows-up"
        unregister_scheme("rank-one-blows-up")

    @pytest.mark.parametrize("transport", ["inprocess", "process"])
    def test_the_failing_rank_and_its_cause_are_named(self, scheme, trace, transport):
        with pytest.raises(BridgeProtocolError, match=r"worker 1 failed: .*rank one blew up"):
            run_harness(scheme, trace, transport=transport, timeout=10)
