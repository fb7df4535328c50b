"""The gradient trace layer: on-disk format, recorders, loud failures."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bridge import (
    GradientTrace,
    LayerSpec,
    TraceFormatError,
    TraceStep,
    TorchUnavailableError,
    load_rank_rows,
    load_trace,
    record_torch_gradients,
    save_trace,
    synthetic_trace,
    torch_available,
)
from repro.bridge.trace import MANIFEST_NAME, read_manifest, read_shards


# --------------------------------------------------------------------- #
# Synthetic recorder
# --------------------------------------------------------------------- #
class TestSyntheticTrace:
    def test_shape_and_schema(self):
        trace = synthetic_trace(num_steps=3, num_workers=4, seed=0)
        assert trace.num_steps == 3
        assert trace.num_workers == 4
        assert trace.num_coordinates == sum(
            int(np.prod(layer.shape)) for layer in trace.layers
        )
        for step in trace.steps:
            assert len(step.gradients) == 4
            for worker in step.gradients:
                assert len(worker) == len(trace.layers)
                for layer, array in zip(trace.layers, worker):
                    assert array.shape == layer.shape
                    assert array.dtype == np.dtype(layer.dtype)

    def test_seed_determinism(self):
        a = synthetic_trace(num_steps=2, num_workers=3, seed=42)
        b = synthetic_trace(num_steps=2, num_workers=3, seed=42)
        for step_a, step_b in zip(a.steps, b.steps):
            for worker_a, worker_b in zip(step_a.gradients, step_b.gradients):
                for x, y in zip(worker_a, worker_b):
                    np.testing.assert_array_equal(x, y)

    def test_different_seeds_differ(self):
        a = synthetic_trace(num_steps=1, num_workers=2, seed=0)
        b = synthetic_trace(num_steps=1, num_workers=2, seed=1)
        assert not np.array_equal(a.steps[0].flat(0), b.steps[0].flat(0))

    def test_layer_structure_heavy_tails(self):
        """Per-layer scales are log-normal: layer magnitudes must spread."""
        trace = synthetic_trace(num_steps=1, num_workers=2, seed=3)
        norms = [
            float(np.linalg.norm(array))
            for array in trace.steps[0].gradients[0]
        ]
        assert max(norms) / max(min(norms), 1e-12) > 2.0

    def test_step_correlation(self):
        """Consecutive steps share an AR(1) signal: correlation beats noise."""
        trace = synthetic_trace(num_steps=2, num_workers=2, seed=0, momentum=0.9)
        s0, s1 = trace.steps[0].true_mean(), trace.steps[1].true_mean()
        corr = float(
            np.dot(s0, s1) / (np.linalg.norm(s0) * np.linalg.norm(s1))
        )
        assert corr > 0.5

    def test_workers_share_signal_but_differ(self):
        trace = synthetic_trace(num_steps=1, num_workers=2, seed=0)
        w0, w1 = trace.steps[0].flat(0), trace.steps[0].flat(1)
        assert not np.array_equal(w0, w1)
        corr = float(np.dot(w0, w1) / (np.linalg.norm(w0) * np.linalg.norm(w1)))
        assert corr > 0.3  # the shared component dominates worker noise


# --------------------------------------------------------------------- #
# Save / load round-trip
# --------------------------------------------------------------------- #
class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        trace = synthetic_trace(num_steps=2, num_workers=3, seed=9)
        save_trace(trace, tmp_path / "trace")
        loaded = load_trace(tmp_path / "trace")
        assert loaded.layers == trace.layers
        assert loaded.metadata == trace.metadata
        for original, restored in zip(trace.steps, loaded.steps):
            assert restored.index == original.index
            for worker_o, worker_r in zip(original.gradients, restored.gradients):
                for x, y in zip(worker_o, worker_r):
                    np.testing.assert_array_equal(x, y)
                    assert x.dtype == y.dtype

    def test_metadata_round_trips(self, tmp_path):
        trace = synthetic_trace(
            num_steps=1, num_workers=2, seed=0, metadata={"model": "toy", "lr": 0.1}
        )
        save_trace(trace, tmp_path / "t")
        metadata = load_trace(tmp_path / "t").metadata
        assert metadata == trace.metadata
        assert metadata["model"] == "toy" and metadata["lr"] == 0.1

    def test_trace_accepts_path_strings(self, tmp_path):
        trace = synthetic_trace(num_steps=1, num_workers=2, seed=0)
        save_trace(trace, str(tmp_path / "t"))
        assert load_trace(str(tmp_path / "t")).num_steps == 1


# --------------------------------------------------------------------- #
# Loud failure modes
# --------------------------------------------------------------------- #
class TestLoadFailures:
    @pytest.fixture
    def saved(self, tmp_path):
        save_trace(synthetic_trace(num_steps=2, num_workers=2, seed=0), tmp_path / "t")
        return tmp_path / "t"

    def _manifest(self, saved):
        return json.loads((saved / MANIFEST_NAME).read_text())

    def _write(self, saved, manifest):
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))

    def test_missing_directory(self, tmp_path):
        with pytest.raises(TraceFormatError, match="manifest"):
            load_trace(tmp_path / "nope")

    def test_manifest_not_json(self, saved):
        (saved / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(TraceFormatError, match="JSON"):
            load_trace(saved)

    def test_wrong_format_tag(self, saved):
        manifest = self._manifest(saved)
        manifest["format"] = "some-other-format"
        self._write(saved, manifest)
        with pytest.raises(TraceFormatError, match="format"):
            load_trace(saved)

    def test_unsupported_version(self, saved):
        manifest = self._manifest(saved)
        manifest["version"] = 999
        self._write(saved, manifest)
        with pytest.raises(TraceFormatError, match="version"):
            load_trace(saved)

    def test_missing_key(self, saved):
        manifest = self._manifest(saved)
        del manifest["layers"]
        self._write(saved, manifest)
        with pytest.raises(TraceFormatError, match="layers"):
            load_trace(saved)

    def test_missing_shard_file(self, saved):
        shard = next(saved.glob("step_*.npz"))
        shard.unlink()
        with pytest.raises(TraceFormatError, match="shard"):
            load_trace(saved)

    def test_corrupt_shard_bytes(self, saved):
        shard = next(saved.glob("step_*.npz"))
        shard.write_bytes(b"\x00" * 16)
        with pytest.raises(TraceFormatError, match="read"):
            load_trace(saved)

    def test_shape_mismatch(self, saved):
        manifest = self._manifest(saved)
        manifest["layers"][0]["shape"] = [1, 1]
        self._write(saved, manifest)
        with pytest.raises(TraceFormatError, match="shape"):
            load_trace(saved)

    def test_dtype_mismatch(self, saved):
        manifest = self._manifest(saved)
        manifest["layers"][0]["dtype"] = "float64"
        self._write(saved, manifest)
        with pytest.raises(TraceFormatError, match="dtype"):
            load_trace(saved)


# --------------------------------------------------------------------- #
# Per-rank reads: a bridge worker process reads only its own arrays
# --------------------------------------------------------------------- #
class TestPerRankRead:
    @pytest.fixture
    def trace(self):
        return synthetic_trace(num_steps=3, num_workers=3, seed=4)

    @pytest.fixture
    def saved(self, trace, tmp_path):
        save_trace(trace, tmp_path / "t")
        return tmp_path / "t"

    def _rewrite_member(self, saved, step, key, array):
        """Replace (or, with ``array=None``, drop) one member of a shard."""
        shard = saved / f"step_{step:05d}.npz"
        with np.load(shard) as loaded:
            members = {name: loaded[name] for name in loaded.files}
        if array is None:
            del members[key]
        else:
            members[key] = array
        np.savez(shard, **members)

    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_rows_equal_the_full_loads(self, trace, saved, rank):
        rows = load_rank_rows(saved, rank)
        assert [index for index, _ in rows] == [step.index for step in trace.steps]
        for (_, row), step in zip(rows, trace.steps):
            assert row.dtype == np.float32
            assert row.tobytes() == step.flat(rank).tobytes()

    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_reads_only_its_own_members(self, saved, rank, monkeypatch):
        read = []
        getitem = np.lib.npyio.NpzFile.__getitem__

        def recording_getitem(self, key):
            read.append(key)
            return getitem(self, key)

        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", recording_getitem)
        load_rank_rows(saved, rank)
        layers = read_manifest(saved).layers
        assert read == [f"w{rank:05d}::{spec.name}" for spec in layers] * 3

    def test_full_load_reads_every_rank(self, saved):
        manifest = read_manifest(saved)
        steps = read_shards(manifest, range(manifest.num_workers))
        assert [len(gradients) for _, gradients in steps] == [3, 3, 3]

    def test_missing_own_array(self, trace, saved):
        key = f"w00001::{trace.layers[0].name}"
        self._rewrite_member(saved, 1, key, None)
        with pytest.raises(TraceFormatError, match="missing array"):
            load_rank_rows(saved, 1)
        # A peer's read never opens the member, so it does not notice.
        assert len(load_rank_rows(saved, 0)) == 3

    def test_wrong_shape_of_own_array(self, trace, saved):
        key = f"w00002::{trace.layers[1].name}"
        self._rewrite_member(saved, 2, key, np.zeros(3, dtype=np.float32))
        with pytest.raises(TraceFormatError, match="shape"):
            load_rank_rows(saved, 2)

    def test_wrong_dtype_of_own_array(self, trace, saved):
        spec = trace.layers[0]
        key = f"w00000::{spec.name}"
        self._rewrite_member(saved, 0, key, np.zeros(spec.shape, dtype=np.float64))
        with pytest.raises(TraceFormatError, match="dtype"):
            load_rank_rows(saved, 0)

    def test_manifest_errors_still_raise(self, saved):
        (saved / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(TraceFormatError, match="JSON"):
            load_rank_rows(saved, 0)

    def test_rank_outside_the_trace(self, saved):
        with pytest.raises(ValueError, match="rank 3"):
            load_rank_rows(saved, 3)


# --------------------------------------------------------------------- #
# Schema validation at construction
# --------------------------------------------------------------------- #
class TestSchema:
    def test_layer_spec_rejects_bad_shape(self):
        with pytest.raises(TraceFormatError):
            LayerSpec(name="x", shape=(0,), dtype="float32")

    def test_layer_spec_rejects_bad_dtype(self):
        with pytest.raises(TraceFormatError):
            LayerSpec(name="x", shape=(2,), dtype="not-a-dtype")

    def test_trace_rejects_ragged_workers(self):
        layers = (LayerSpec(name="x", shape=(2,), dtype="float32"),)
        good = (np.zeros(2, dtype=np.float32),)
        step = TraceStep(index=0, gradients=(good,))
        with pytest.raises(TraceFormatError, match="workers"):
            GradientTrace(
                layers=layers,
                steps=(step, TraceStep(index=1, gradients=(good, good))),
            )

    def test_trace_rejects_wrong_layer_shape(self):
        layers = (LayerSpec(name="x", shape=(2,), dtype="float32"),)
        bad = (np.zeros(3, dtype=np.float32),)
        with pytest.raises(TraceFormatError, match="shape"):
            GradientTrace(layers=layers, steps=(TraceStep(index=0, gradients=(bad,)),))

    def test_flat_and_true_mean(self):
        trace = synthetic_trace(num_steps=1, num_workers=3, seed=0)
        step = trace.steps[0]
        flats = step.flats()
        assert len(flats) == 3
        np.testing.assert_allclose(
            step.true_mean(), np.mean(flats, axis=0), rtol=1e-6
        )


# --------------------------------------------------------------------- #
# Torch recorder degrades gracefully
# --------------------------------------------------------------------- #
class TestTorchRecorder:
    def test_reports_availability(self):
        assert isinstance(torch_available(), bool)

    @pytest.mark.skipif(torch_available(), reason="torch installed; no degradation")
    def test_raises_clear_error_without_torch(self):
        with pytest.raises(TorchUnavailableError, match="torch"):
            record_torch_gradients(object(), lambda model, step: None, num_steps=1)

    @pytest.mark.skipif(not torch_available(), reason="needs torch")
    def test_records_real_gradients(self):
        import torch

        model = torch.nn.Linear(4, 2)

        def step_fn(model, step):
            out = model(torch.ones(3, 4))
            out.sum().backward()

        trace = record_torch_gradients(model, step_fn, num_steps=2)
        assert trace.num_steps == 2
        assert trace.num_workers == 1
        names = [layer.name for layer in trace.layers]
        assert "weight" in names and "bias" in names
