"""Unit tests for the kernel primitives (repro.compression.kernels)."""

import math

import numpy as np
import pytest

from repro.api.measures import paper_context
from repro.compression.hadamard import (
    HadamardRotation,
    _butterfly_passes,
    depth_for_shared_memory,
    full_depth,
    padded_size_for,
)
from repro.compression.kernels import (
    TILE_ELEMENTS,
    LazyTransmitted,
    RoundWorkspace,
    cached_signs,
    factorize_depth,
    fwht_normalization,
    fwht_rows,
    hadamard_matrix,
    round_stochastically,
    smallest_int_dtype,
)
from repro.compression.registry import make_scheme
from repro.simulator.cluster import ClusterSpec


class TestRoundWorkspace:
    def test_reuses_buffers_by_key(self):
        workspace = RoundWorkspace()
        first = workspace.buf("x", (4, 8), np.float32)
        second = workspace.buf("x", (4, 8), np.float32)
        assert first is second
        assert workspace.hits == 1 and workspace.misses == 1

    def test_distinct_keys_get_distinct_buffers(self):
        workspace = RoundWorkspace()
        a = workspace.buf("x", (4, 8), np.float32)
        b = workspace.buf("x", (4, 8), np.float64)
        c = workspace.buf("y", (4, 8), np.float32)
        assert a is not b and a is not c
        assert workspace.num_buffers == 3
        assert workspace.allocated_bytes() == 4 * 8 * (4 + 8 + 4)

    def test_clear(self):
        workspace = RoundWorkspace()
        workspace.buf("x", (2,), np.float32)
        workspace.clear()
        assert workspace.num_buffers == 0

    def test_steady_state_allocates_nothing(self):
        """After the first round, repeated requests never miss."""
        workspace = RoundWorkspace()
        for _ in range(3):
            workspace.buf("wire", (4, 64), np.float32)
            workspace.buf("levels", (4, 64), np.int8)
        assert workspace.misses == 2
        assert workspace.hits == 4


class TestCachedSigns:
    def test_matches_legacy_generation(self):
        rotation = HadamardRotation(seed=7)
        np.testing.assert_array_equal(rotation._signs(256), cached_signs(7, 256))

    def test_cached_instance_is_reused_and_readonly(self):
        first = cached_signs(3, 128, np.float32)
        second = cached_signs(3, 128, np.float32)
        assert first is second
        assert not first.flags.writeable

    def test_values_are_signs(self):
        signs = cached_signs(11, 64)
        assert set(np.unique(signs)) <= {-1.0, 1.0}


class TestFactorizeDepth:
    def test_small_depths_single_factor(self):
        assert factorize_depth(0) == []
        assert factorize_depth(3) == [3]
        assert factorize_depth(5) == [5]

    def test_large_depths_balanced(self):
        assert factorize_depth(15) == [5, 5, 5]
        assert factorize_depth(20) == [5, 5, 5, 5]
        assert sum(factorize_depth(13)) == 13
        assert max(factorize_depth(13)) <= 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            factorize_depth(-1)


class TestFwhtRows:
    @pytest.mark.parametrize("depth", [1, 3, 5, 7, 11])
    def test_matches_butterfly_reference(self, depth):
        """The Kronecker matmul chain equals the butterfly network exactly
        (up to float32 arithmetic and the deferred normalization)."""
        rng = np.random.default_rng(depth)
        size = 1 << depth
        matrix = rng.standard_normal((3, size)).astype(np.float32)
        transformed = fwht_rows(matrix, depth) * fwht_normalization(depth)
        for row_index in range(3):
            reference = _butterfly_passes(
                matrix[row_index].astype(np.float64).copy(), depth
            )
            np.testing.assert_allclose(
                transformed[row_index], reference, rtol=1e-4, atol=1e-4
            )

    def test_partial_transform_is_per_chunk(self):
        """depth < log2(row length) transforms each 2^depth chunk independently."""
        rng = np.random.default_rng(0)
        depth = 4
        matrix = rng.standard_normal((2, 64)).astype(np.float32)
        whole = fwht_rows(matrix, depth) * fwht_normalization(depth)
        chunk = fwht_rows(matrix[:, :16].copy(), depth) * fwht_normalization(depth)
        np.testing.assert_allclose(whole[:, :16], chunk, rtol=1e-5, atol=1e-6)

    def test_self_inverse_up_to_normalization(self):
        rng = np.random.default_rng(1)
        matrix = rng.standard_normal((2, 128)).astype(np.float32)
        once = fwht_rows(matrix, 7)
        twice = fwht_rows(np.array(once, copy=True), 7) * (2.0 ** -7)
        np.testing.assert_allclose(twice, matrix, rtol=1e-4, atol=1e-4)

    def test_does_not_modify_input(self):
        rng = np.random.default_rng(2)
        matrix = rng.standard_normal((2, 32)).astype(np.float32)
        original = matrix.copy()
        fwht_rows(matrix, 5)
        np.testing.assert_array_equal(matrix, original)

    def test_workspace_pingpong_reused(self):
        workspace = RoundWorkspace()
        matrix = np.ones((2, 64), dtype=np.float32)
        first = fwht_rows(matrix, 6, workspace=workspace)
        misses = workspace.misses
        second = fwht_rows(matrix, 6, workspace=workspace)
        assert workspace.misses == misses  # no new buffers on later rounds
        np.testing.assert_array_equal(first, second)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="2-D"):
            fwht_rows(np.ones(8, dtype=np.float32), 2)
        with pytest.raises(ValueError, match="multiple"):
            fwht_rows(np.ones((2, 6), dtype=np.float32), 2)

    def test_depth_zero_is_identity(self):
        matrix = np.ones((2, 8), dtype=np.float32)
        assert fwht_rows(matrix, 0) is matrix


#: The partial-rotation depth of the paper testbed's GPU (THC's ``rot=partial``).
PARTIAL_DEPTH = depth_for_shared_memory(
    paper_context().kernels.gpu.memory.shared_memory_bytes, bytes_per_value=4
)


def _fused_cases():
    """(width, rotation, held rows): every combination but 16 rows of 2^20,
    whose float64 input alone would be 128 MiB."""
    for width in (1, 5773, 70_001, 1 << 20):
        for rotation in ("none", "partial", "full"):
            for num_rows in (1, 3, 16):
                if num_rows * width <= 3 << 20:
                    yield width, rotation, num_rows


def _unfused_fwht(rows, width, padded, signs, depth):
    """The path without the fused gather: a sign-multiplied, zero-padded
    float32 matrix (rows cast first, tail ``0 * signs``), then the transform."""
    wire = np.empty((len(rows), padded), dtype=np.float32)
    for index, row in enumerate(rows):
        if signs is None:
            np.copyto(wire[index, :width], row, casting="unsafe")
        else:
            np.multiply(
                row, signs[:width], out=wire[index, :width], dtype=np.float32, casting="unsafe"
            )
    if signs is None:
        wire[:, width:] = 0.0
    else:
        np.multiply(0.0, signs[width:], out=wire[:, width:])
    return fwht_rows(wire, depth)


class TestFusedFwhtRows:
    """Signs, padding and per-chunk ranges inside ``fwht_rows``' row blocks."""

    @pytest.mark.parametrize("width, rotation, num_rows", list(_fused_cases()))
    @pytest.mark.parametrize("as_list", [False, True], ids=["matrix", "list"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_unfused_path_byte_for_byte(
        self, width, rotation, num_rows, as_list, dtype
    ):
        padded = padded_size_for(width)
        depth = {
            "none": 0,
            "partial": min(PARTIAL_DEPTH, full_depth(padded)),
            "full": full_depth(padded),
        }[rotation]
        signs = None if rotation == "none" else cached_signs(7, padded, np.float32)
        num_chunks = 1 if rotation == "none" else padded >> depth
        matrix = np.random.default_rng(width + num_rows).standard_normal(
            (num_rows, width)
        ).astype(dtype)
        rows = list(matrix) if as_list else matrix
        expected = _unfused_fwht(matrix, width, padded, signs, depth)

        ranges = np.empty((num_rows, num_chunks), dtype=np.float32)
        workspace = RoundWorkspace()
        fused = fwht_rows(
            rows, depth, signs=signs, length=padded, ranges=ranges, workspace=workspace
        )

        assert fused.shape == (num_rows, padded) and fused.dtype == np.float32
        assert fused.tobytes() == expected.tobytes()
        chunked = expected.reshape(num_rows, num_chunks, -1)
        expected_ranges = np.maximum(chunked.max(axis=2), -chunked.min(axis=2))
        assert ranges.tobytes() == expected_ranges.tobytes()
        # No buffer the size of the rows besides the output.
        assert workspace.allocated_bytes() <= 4 * num_rows * padded + 8 * max(
            padded, TILE_ELEMENTS
        )

    def test_matrix_already_padded_is_returned_at_depth_zero(self):
        matrix = np.arange(12, dtype=np.float32).reshape(3, 4) - 5
        ranges = np.empty((3, 2), dtype=np.float32)
        assert fwht_rows(matrix, 0, ranges=ranges) is matrix
        np.testing.assert_array_equal(ranges, [[5, 3], [1, 2], [4, 6]])

    def test_rows_are_only_read(self):
        matrix = np.random.default_rng(3).standard_normal((3, 100))
        before = matrix.tobytes()
        fwht_rows(matrix, 2, signs=cached_signs(1, 128, np.float32), length=128)
        fwht_rows(list(matrix), 0, length=128)
        assert matrix.tobytes() == before

    def test_rejects_rows_longer_than_the_padded_row(self):
        with pytest.raises(ValueError, match="do not fit"):
            fwht_rows(np.ones((2, 9), dtype=np.float32), 2, length=8)


def _whole_matrix_rounding(rows, rng, max_level, scale):
    """The untiled reference: whole-matrix scratch, one uniform draw."""
    values = np.array(rows, dtype=np.float32)
    if scale is not None:
        values *= scale
    np.clip(values, -max_level, max_level, out=values)
    floors = np.floor(values)
    values -= floors
    uniforms = rng.random(values.shape, dtype=np.float32)
    floors += uniforms < values
    np.clip(floors, -max_level, max_level, out=floors)
    return floors.astype(np.int8)


class TestRoundStochastically:
    # (3, 30000): the first 2^16-element tile ends inside the third row;
    # (5, 1001): an odd number of uniforms.
    @pytest.mark.parametrize("shape", [(3, 30000), (2, 1 << 16), (4, 7), (5, 1001)])
    @pytest.mark.parametrize("as_list", [False, True])
    @pytest.mark.parametrize("scale", [None, np.float32(2.5)])
    def test_matches_whole_matrix_rounding(self, shape, as_list, scale):
        rows = np.random.default_rng(0).standard_normal(shape).astype(np.float32) * 4
        rng, reference_rng = np.random.default_rng(1), np.random.default_rng(1)
        levels = np.empty(shape, dtype=np.int8)
        round_stochastically(
            list(rows) if as_list else rows,
            levels,
            rng,
            7.0,
            scale=scale,
            workspace=RoundWorkspace(),
            label="test",
        )
        expected = _whole_matrix_rounding(rows, reference_rng, 7.0, scale)
        np.testing.assert_array_equal(levels, expected)
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("shape", [(3, 30000), (2, 1 << 16), (4, 7), (5, 1001)])
    @pytest.mark.parametrize(
        "bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.PCG64DXSM]
    )
    @pytest.mark.parametrize("half_word_buffered", [False, True])
    def test_matches_whole_matrix_rounding_from_any_entry_state(
        self, shape, bit_generator, half_word_buffered
    ):
        rows = np.random.default_rng(0).standard_normal(shape).astype(np.float32) * 4
        rng = np.random.Generator(bit_generator(5))
        reference_rng = np.random.Generator(bit_generator(5))
        if half_word_buffered:
            # One float32 draw leaves half of a 64-bit word buffered.
            rng.random(1, dtype=np.float32)
            reference_rng.random(1, dtype=np.float32)
        levels = np.empty(shape, dtype=np.int8)
        round_stochastically(
            rows, levels, rng, 7.0, workspace=RoundWorkspace(), label="test"
        )
        expected = _whole_matrix_rounding(rows, reference_rng, 7.0, None)
        np.testing.assert_array_equal(levels, expected)
        # MT19937 and Philox states hold arrays: compare the whole dict.
        np.testing.assert_equal(rng.bit_generator.state, reference_rng.bit_generator.state)

    # 148097 is the bridge benchmark's width: at an odd width, every other
    # rank's first uniform is the high half of a 64-bit word.
    @pytest.mark.parametrize("width", [7, 1024, 1001, 148097])
    @pytest.mark.parametrize("num_rows", [1, 2, 3, 5])
    @pytest.mark.parametrize(
        "bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.PCG64DXSM]
    )
    @pytest.mark.parametrize("half_word_buffered", [False, True])
    def test_one_row_of_the_stream(self, width, num_rows, bit_generator, half_word_buffered):
        """Rounding row ``r`` alone as row ``r`` of an n-row stream gives that
        row of the whole-matrix rounding, and leaves the whole draw's state."""
        rows = np.random.default_rng(0).standard_normal((num_rows, width)).astype(np.float32) * 4
        reference_rng = np.random.Generator(bit_generator(5))
        if half_word_buffered:
            reference_rng.random(1, dtype=np.float32)
        entry_state = reference_rng.bit_generator.state
        expected = _whole_matrix_rounding(rows, reference_rng, 7.0, None)
        for rank in range(num_rows):
            rng = np.random.Generator(bit_generator(5))
            rng.bit_generator.state = entry_state
            levels = np.empty((1, width), dtype=np.int8)
            round_stochastically(
                rows[rank : rank + 1],
                levels,
                rng,
                7.0,
                workspace=RoundWorkspace(),
                label="test",
                first_row=rank,
                stream_rows=num_rows,
            )
            np.testing.assert_array_equal(levels[0], expected[rank])
            # MT19937 and Philox states hold arrays: compare the whole dict.
            np.testing.assert_equal(rng.bit_generator.state, reference_rng.bit_generator.state)

    def test_rejects_rows_outside_the_stream(self):
        with pytest.raises(ValueError, match="outside"):
            round_stochastically(
                np.ones((1, 10), dtype=np.float32),
                np.empty((1, 10), dtype=np.int8),
                np.random.default_rng(0),
                7.0,
                workspace=RoundWorkspace(),
                label="test",
                first_row=2,
                stream_rows=2,
            )

    def test_reads_rows_only(self):
        rows = np.random.default_rng(2).standard_normal((2, 100)).astype(np.float32)
        rows.flags.writeable = False
        levels = np.empty((2, 100), dtype=np.int8)
        round_stochastically(
            rows,
            levels,
            np.random.default_rng(3),
            7.0,
            workspace=RoundWorkspace(),
            label="test",
        )
        assert np.all(np.abs(levels) <= 7)


class TestHadamardMatrix:
    def test_orthogonality(self):
        h = hadamard_matrix(4)
        np.testing.assert_allclose(h @ h.T, 16 * np.eye(16), atol=1e-5)

    def test_entries_are_signs(self):
        assert set(np.unique(hadamard_matrix(3))) <= {-1.0, 1.0}


class TestSmallestIntDtype:
    def test_boundaries(self):
        assert smallest_int_dtype(7) == np.dtype(np.int8)
        assert smallest_int_dtype(127) == np.dtype(np.int8)
        assert smallest_int_dtype(128) == np.dtype(np.int16)
        assert smallest_int_dtype(32767) == np.dtype(np.int16)
        assert smallest_int_dtype(32768) == np.dtype(np.int32)
        assert smallest_int_dtype(1 << 40) == np.dtype(np.int64)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            smallest_int_dtype(-1)


class TestLazyTransmitted:
    def test_defers_until_first_access(self):
        calls = []

        def factory():
            calls.append(1)
            return np.arange(6, dtype=np.float32).reshape(2, 3)

        lazy = LazyTransmitted(2, factory)
        assert len(lazy) == 2
        assert not lazy.materialized
        assert not calls  # len() must not materialize
        np.testing.assert_array_equal(lazy[0], [0.0, 1.0, 2.0])
        assert calls == [1]
        assert lazy.materialized

    def test_factory_runs_once(self):
        counter = {"calls": 0}

        def factory():
            counter["calls"] += 1
            return np.zeros((3, 4), dtype=np.float32)

        lazy = LazyTransmitted(3, factory)
        list(lazy)
        lazy.matrix()
        _ = lazy[1]
        assert counter["calls"] == 1

    def test_iteration_and_stack(self):
        lazy = LazyTransmitted(2, lambda: np.ones((2, 5), dtype=np.float32))
        stacked = np.stack(list(lazy))
        assert stacked.shape == (2, 5)

    def test_rejects_wrong_shape(self):
        lazy = LazyTransmitted(2, lambda: np.ones(5, dtype=np.float32))
        with pytest.raises(ValueError, match="matrix"):
            lazy.matrix()

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            LazyTransmitted(0, lambda: np.zeros((1, 1)))


class TestNormalization:
    def test_matches_closed_form(self):
        for depth in (0, 1, 5, 15):
            assert fwht_normalization(depth) == pytest.approx(
                1.0 / math.sqrt(2.0**depth)
            )


class TestReportOutlivesItsRound:
    """A report read after the next round on the same context still shows
    its own round, though the scheme reuses its buffers."""

    @pytest.mark.parametrize(
        "spec", ["thc(q=4, rot=full, agg=sat)", "qsgd(q=4, agg=sat)", "baseline(p=fp16)"]
    )
    def test_held_report_equals_report_read_at_once(self, spec):
        def rounds():
            ctx = paper_context(ClusterSpec(num_nodes=3, gpus_per_node=1), seed=9)
            scheme = make_scheme(spec)
            for index in range(2):
                rows = np.random.default_rng(index).standard_normal((3, 5773), dtype=np.float32)
                yield scheme.aggregate(list(rows), ctx)

        control = rounds()
        read_at_once = np.stack(list(next(control).per_worker_transmitted))
        held = rounds()
        first = next(held)
        second = next(held)
        np.testing.assert_array_equal(np.stack(list(first.per_worker_transmitted)), read_at_once)
        assert not np.array_equal(np.stack(list(second.per_worker_transmitted)), read_at_once)


class TestRoundStochasticallyChunkScales:
    """A per-chunk scale vector equals scaling each chunk first."""

    @pytest.mark.parametrize(
        "shape,num_chunks",
        [
            ((3, 1 << 15), 8),  # chunks smaller than a tile
            ((2, 1 << 17), 1),  # one chunk per row, larger than a tile
            ((3, 150000), 3),  # chunks that do not divide a tile
            ((5, 1001), 7),  # short rows: a tile spans several rows
        ],
    )
    def test_matches_prescaled_rounding(self, shape, num_chunks):
        rows = np.random.default_rng(0).standard_normal(shape).astype(np.float32)
        scales = np.random.default_rng(1).uniform(0.5, 8, num_chunks).astype(np.float32)
        scales[0] = 0.0
        chunked = rows.reshape(shape[0], num_chunks, -1) * scales[None, :, None]
        rng, reference_rng = np.random.default_rng(2), np.random.default_rng(2)
        levels = np.empty(shape, dtype=np.int8)
        round_stochastically(
            rows, levels, rng, 7.0, scale=scales, workspace=RoundWorkspace(), label="test"
        )
        expected = _whole_matrix_rounding(chunked.reshape(shape), reference_rng, 7.0, None)
        np.testing.assert_array_equal(levels, expected)
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_rejects_uneven_chunks(self):
        with pytest.raises(ValueError, match="chunks"):
            round_stochastically(
                np.ones((2, 10), dtype=np.float32),
                np.empty((2, 10), dtype=np.int8),
                np.random.default_rng(0),
                7.0,
                scale=np.ones(3, dtype=np.float32),
                workspace=RoundWorkspace(),
                label="test",
            )


class TestCopyOnReuse:
    def report(self, workspace, calls):
        levels = workspace.buf("levels", (2, 4), np.int8)
        levels[...] = 3

        def factory(borrowed):
            calls.append(borrowed)
            return borrowed.astype(np.float32)

        return levels, LazyTransmitted(2, factory, borrowed=levels, workspace=workspace)

    def test_unread_report_copies_before_the_buffer_is_reused(self):
        workspace, calls = RoundWorkspace(), []
        levels, report = self.report(workspace, calls)
        assert workspace.buf("levels", (2, 4), np.int8) is levels
        levels[...] = -1
        np.testing.assert_array_equal(report.matrix(), np.full((2, 4), 3.0))
        assert calls[0] is not levels

    def test_read_or_dropped_report_never_copies(self, monkeypatch):
        copies = []
        monkeypatch.setattr(
            LazyTransmitted, "detach", lambda report: copies.append(report)
        )
        workspace, calls = RoundWorkspace(), []
        levels, report = self.report(workspace, calls)
        report.matrix()
        assert calls[0] is levels
        workspace.buf("levels", (2, 4), np.int8)
        _, report = self.report(workspace, calls)
        del report
        workspace.buf("levels", (2, 4), np.int8)
        assert copies == []

    def test_lend_rejects_foreign_buffers(self):
        with pytest.raises(ValueError, match="workspace"):
            LazyTransmitted(
                1, np.array, borrowed=np.zeros((1, 2)), workspace=RoundWorkspace()
            )
