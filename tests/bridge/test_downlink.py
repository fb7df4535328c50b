"""Server downlinks: every reply carries the server's fold at its own width.

The aggregation server folds the decoded rows with the simulator's fold and
sends the aggregate back as its own bytes (``encode_raw``), so a 4-bit THC
round's saturating int8 level sum goes back at 8 bits per value rather than
64, and every worker decodes exactly the array the server folded.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bridge import actors, decode_section, run_harness, synthetic_trace
from repro.bridge.transport import inprocess_channel
from repro.collectives.api import CollectiveBackend
from repro.experiments.validation import REGISTRY_SPECS
from repro.simulator.cluster import ClusterSpec

#: The layer schema of a d = 148,097 gradient, odd sizes kept so padding runs.
LAYERS = (
    ("embed.weight", (512, 128)),
    ("attn.qkv.weight", (384, 128)),
    ("attn.out.bias", (128,)),
    ("mlp.up.weight", (257, 129)),
    ("norm.scale", (128,)),
)


@pytest.fixture(scope="module")
def trace():
    return synthetic_trace(num_steps=2, num_workers=4, seed=5)


def run_recorded(spec, trace, monkeypatch, **kwargs):
    """Run ``spec`` in-process; return the result, the folds and the replies.

    ``replies[rank]`` lists every message the server sent to ``rank``;
    ``folds`` lists every aggregate the server's fold produced, in order.
    """
    folds = []
    fold = CollectiveBackend.allreduce_matrix

    def recording_fold(self, matrix, **fold_kwargs):
        aggregate = fold(self, matrix, **fold_kwargs)
        folds.append(np.array(aggregate, copy=True))
        return aggregate

    replies = []

    def recording_channel():
        worker_end, server_end = inprocess_channel()
        sent = []
        replies.append(sent)
        send = server_end.send

        def record(message):
            sent.append(message)
            send(message)

        server_end.send = record
        return worker_end, server_end

    # Workers run TransportBackend, which overrides the fold: only the
    # server's plain CollectiveBackend folds through the recorder.
    monkeypatch.setattr(CollectiveBackend, "allreduce_matrix", recording_fold)
    monkeypatch.setattr(actors, "inprocess_channel", recording_channel)
    result = run_harness(spec, trace, **kwargs)
    return result, folds, replies


def payload_bytes(reply: dict) -> int:
    if reply["kind"] == "reduced":
        return reply["section"].nbytes
    return sum(s.nbytes for sections in reply["sections"] for s in sections)


@pytest.mark.parametrize("spec", REGISTRY_SPECS)
def test_replies_decode_to_the_servers_fold(spec, trace, monkeypatch):
    result, folds, replies = run_recorded(spec, trace, monkeypatch, seed=0)
    world = trace.num_workers
    assert len(replies) == world
    # Every worker receives the same replies, in the same order.
    for sent in replies[1:]:
        assert [id(message) for message in sent] == [id(m) for m in replies[0]]
    reduced = [reply for reply in replies[0] if reply["kind"] == "reduced"]
    assert len(reduced) == len(folds)
    for reply, fold in zip(reduced, folds):
        section = reply["section"]
        assert section.encoding == "raw"
        assert section.wire_bits == 8 * fold.dtype.itemsize
        decoded = decode_section(section)
        assert decoded.dtype == fold.dtype
        assert np.array_equal(decoded, fold)
    assert result.downlink_bytes == world * sum(map(payload_bytes, replies[0]))


@pytest.mark.parametrize(
    "spec,downlink_bytes",
    [
        # The int8 saturating level sums of the 2^18 rotated coordinates,
        # after the float32 range consensus: one range, or one per chunk.
        ("thc(q=4, rot=full, agg=sat)", 524_296),
        ("thc(q=4, rot=partial, agg=sat)", 524_352),
        # The float32 mean of the FP16 payloads.
        ("baseline(p=fp16)", 1_184_776),
        # The float64 norm consensus and the int8 saturating level sums.
        ("qsgd(q=4, agg=sat)", 296_210),
    ],
)
def test_downlink_bytes_at_the_aggregates_width(spec, downlink_bytes):
    """One step, two workers, d = 148,097.  At 64 bits per value these read
    4,194,320, 4,194,432, 2,369,552 and 2,369,568 bytes."""
    gradient = synthetic_trace(num_steps=1, num_workers=2, layers=LAYERS, seed=0)
    assert gradient.num_coordinates == 148_097
    cluster = ClusterSpec(num_nodes=1, gpus_per_node=2)
    result = run_harness(spec, gradient, cluster=cluster, seed=0)
    assert result.downlink_bytes == downlink_bytes
