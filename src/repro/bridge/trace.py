"""Versioned on-disk gradient traces: npz shards plus a JSON manifest.

A *gradient trace* is the bridge's unit of workload: for each training step,
the gradient every worker computed, layer by layer.  On disk a trace is a
directory::

    trace/
      manifest.json       # format tag, version, layers, steps, metadata
      step_00000.npz      # one shard per step: key "w{rank}::{layer}"
      step_00001.npz
      ...

The manifest pins the layer schema (names, shapes, dtypes) and the shard
list; loading validates every array against it and fails loudly with
:class:`TraceFormatError` on any mismatch, so a corrupted or hand-edited
trace can never silently feed wrong tensors into a validation run.  Reading
is split in two: :func:`read_manifest` validates the manifest, and
:func:`read_shards` reads and validates the arrays of the ranks it is given
-- :func:`load_trace` asks for every rank, while a bridge worker process
reads only its own (:func:`load_rank_rows`).  Traces
produced by the recorders in :mod:`repro.bridge.recorders` are
seed-deterministic, and the save -> load round-trip is bit-exact (covered by
a hypothesis fuzz suite).
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Format tag every manifest must carry.
TRACE_FORMAT = "repro-gradient-trace"

#: Current (and only) trace format version.
TRACE_VERSION = 1

#: Manifest file name inside a trace directory.
MANIFEST_NAME = "manifest.json"


class TraceFormatError(ValueError):
    """A trace directory does not conform to the on-disk format."""


@dataclass(frozen=True)
class LayerSpec:
    """Schema of one recorded layer: its name, shape, and dtype."""

    name: str
    shape: tuple[int, ...]
    dtype: str

    def __post_init__(self) -> None:
        if not self.name:
            raise TraceFormatError("layer names must be non-empty")
        if any(dim <= 0 for dim in self.shape):
            raise TraceFormatError(f"layer {self.name!r} has a non-positive dimension")
        try:
            np.dtype(self.dtype)
        except TypeError as error:
            raise TraceFormatError(
                f"layer {self.name!r} declares unknown dtype {self.dtype!r}"
            ) from error

    @property
    def size(self) -> int:
        """Number of coordinates in this layer."""
        return int(np.prod(self.shape))

    def to_json(self) -> dict:
        return {"name": self.name, "shape": list(self.shape), "dtype": self.dtype}

    @staticmethod
    def from_json(payload: dict) -> "LayerSpec":
        try:
            return LayerSpec(
                name=str(payload["name"]),
                shape=tuple(int(dim) for dim in payload["shape"]),
                dtype=str(payload["dtype"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise TraceFormatError(f"malformed layer entry {payload!r}") from error


def flatten_layers(layers: Sequence[np.ndarray]) -> np.ndarray:
    """One worker's layer arrays flattened to one float32 vector."""
    return np.concatenate(
        [np.asarray(layer, dtype=np.float32).ravel() for layer in layers]
    )


@dataclass(frozen=True)
class TraceStep:
    """One training step: per worker, one gradient array per layer."""

    index: int
    gradients: tuple[tuple[np.ndarray, ...], ...]

    @property
    def num_workers(self) -> int:
        return len(self.gradients)

    def flat(self, rank: int) -> np.ndarray:
        """Worker ``rank``'s gradient flattened to one float32 vector.

        This is the parameter-flattening step a DDP hook performs before
        handing the gradient to the compression scheme.
        """
        return flatten_layers(self.gradients[rank])

    def flats(self) -> list[np.ndarray]:
        """Every worker's flattened gradient, in rank order."""
        return [self.flat(rank) for rank in range(self.num_workers)]

    def true_mean(self) -> np.ndarray:
        """The exact mean gradient of this step (the harness's ground truth)."""
        return np.mean(np.asarray(self.flats()), axis=0)


@dataclass
class GradientTrace:
    """An in-memory gradient trace: layer schema, steps, free-form metadata.

    ``source`` is the directory :func:`load_trace` read the trace from (None
    for a trace built in memory, and for any copy made with
    ``dataclasses.replace``).  The process transport's workers read their
    rows from it instead of from a fresh save, so a loaded trace must not be
    edited in place.
    """

    layers: tuple[LayerSpec, ...]
    steps: list[TraceStep]
    metadata: dict = field(default_factory=dict)
    source: Path | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.layers = tuple(self.layers)
        if not self.layers:
            raise TraceFormatError("a trace needs at least one layer")
        if not self.steps:
            raise TraceFormatError("a trace needs at least one step")
        workers = self.steps[0].num_workers
        if workers < 1:
            raise TraceFormatError("a trace needs at least one worker")
        for step in self.steps:
            if step.num_workers != workers:
                raise TraceFormatError(
                    f"step {step.index} has {step.num_workers} workers, "
                    f"expected {workers}"
                )
            for rank, layer_arrays in enumerate(step.gradients):
                self._check_layers(step.index, rank, layer_arrays)

    def _check_layers(
        self, step_index: int, rank: int, layer_arrays: tuple[np.ndarray, ...]
    ) -> None:
        if len(layer_arrays) != len(self.layers):
            raise TraceFormatError(
                f"step {step_index} worker {rank}: {len(layer_arrays)} layer "
                f"arrays, manifest declares {len(self.layers)}"
            )
        for spec, array in zip(self.layers, layer_arrays):
            if tuple(array.shape) != spec.shape:
                raise TraceFormatError(
                    f"step {step_index} worker {rank} layer {spec.name!r}: "
                    f"shape {tuple(array.shape)} != declared {spec.shape}"
                )
            if array.dtype != np.dtype(spec.dtype):
                raise TraceFormatError(
                    f"step {step_index} worker {rank} layer {spec.name!r}: "
                    f"dtype {array.dtype} != declared {spec.dtype}"
                )

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def num_workers(self) -> int:
        return self.steps[0].num_workers

    @property
    def num_coordinates(self) -> int:
        """Flattened gradient length: the sum of all layer sizes."""
        return sum(layer.size for layer in self.layers)

    @property
    def layer_shapes(self) -> list[tuple[int, ...]]:
        """Layer shapes in declaration order (PowerSGD consumes these)."""
        return [layer.shape for layer in self.layers]


def _shard_name(step_index: int) -> str:
    return f"step_{step_index:05d}.npz"


def _array_key(rank: int, layer_name: str) -> str:
    return f"w{rank:05d}::{layer_name}"


def save_trace(trace: GradientTrace, directory: str | Path) -> Path:
    """Write ``trace`` to ``directory`` and return the manifest path.

    The directory is created if needed; an existing manifest is overwritten
    (traces are immutable artifacts -- re-saving is re-recording).
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    shards = []
    for step in trace.steps:
        name = _shard_name(step.index)
        arrays = {
            _array_key(rank, spec.name): np.ascontiguousarray(array)
            for rank, layer_arrays in enumerate(step.gradients)
            for spec, array in zip(trace.layers, layer_arrays)
        }
        np.savez(root / name, **arrays)
        shards.append({"step": step.index, "file": name})
    manifest = {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "num_workers": trace.num_workers,
        "num_coordinates": trace.num_coordinates,
        "layers": [layer.to_json() for layer in trace.layers],
        "shards": shards,
        "metadata": trace.metadata,
    }
    manifest_path = root / MANIFEST_NAME
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


@dataclass(frozen=True)
class TraceManifest:
    """A trace directory's validated manifest.

    Attributes:
        root: The trace directory.
        layers: The layer schema every shard array is checked against.
        num_workers: Ranks recorded in every shard.
        shards: ``(step index, file name)`` per listed shard, in order.
        metadata: The free-form metadata object.
    """

    root: Path
    layers: tuple[LayerSpec, ...]
    num_workers: int
    shards: tuple[tuple[int, str], ...]
    metadata: dict


def read_manifest(directory: str | Path) -> TraceManifest:
    """Read and validate the manifest of the trace in ``directory``.

    Raises:
        TraceFormatError: The manifest is missing, unparseable, from an
            unknown format/version, or malformed.
    """
    root = Path(directory)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        raise TraceFormatError(f"no {MANIFEST_NAME} in {root}: not a gradient trace")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise TraceFormatError(f"{manifest_path} is not valid JSON: {error}") from error
    if not isinstance(manifest, dict):
        raise TraceFormatError(f"{manifest_path} must contain a JSON object")
    if manifest.get("format") != TRACE_FORMAT:
        raise TraceFormatError(
            f"{manifest_path} declares format {manifest.get('format')!r}, "
            f"expected {TRACE_FORMAT!r}"
        )
    if manifest.get("version") != TRACE_VERSION:
        raise TraceFormatError(
            f"trace version {manifest.get('version')!r} is not supported "
            f"(this reader understands version {TRACE_VERSION})"
        )
    for key in ("num_workers", "layers", "shards"):
        if key not in manifest:
            raise TraceFormatError(f"{manifest_path} is missing required key {key!r}")
    layers = tuple(LayerSpec.from_json(entry) for entry in manifest["layers"])
    num_workers = int(manifest["num_workers"])
    if num_workers < 1:
        raise TraceFormatError(f"manifest declares num_workers={num_workers}")
    shards = []
    for entry in manifest["shards"]:
        try:
            shards.append((int(entry["step"]), str(entry["file"])))
        except (KeyError, TypeError, ValueError) as error:
            raise TraceFormatError(f"malformed shard entry {entry!r}") from error
    metadata = manifest.get("metadata", {})
    if not isinstance(metadata, dict):
        raise TraceFormatError("manifest metadata must be a JSON object")
    return TraceManifest(
        root=root,
        layers=layers,
        num_workers=num_workers,
        shards=tuple(shards),
        metadata=metadata,
    )


def read_shards(
    manifest: TraceManifest, ranks: Sequence[int]
) -> list[tuple[int, tuple[tuple[np.ndarray, ...], ...]]]:
    """Read the layer arrays of ``ranks`` from every shard the manifest lists.

    Only those ranks' members (``w{rank:05d}::{layer}``) are read, and each
    is checked against the manifest's schema.

    Returns:
        Per shard, ``(step index, gradients)`` where ``gradients`` holds one
        tuple of layer arrays per rank, in the order of ``ranks``.

    Raises:
        TraceFormatError: A shard is missing or unreadable, or one of the
            arrays read is missing or deviates from the declared schema.
        ValueError: A rank is outside the trace's workers.
    """
    for rank in ranks:
        if not 0 <= rank < manifest.num_workers:
            raise ValueError(
                f"rank {rank} outside the trace's {manifest.num_workers} workers"
            )
    steps = []
    for step_index, file_name in manifest.shards:
        shard_path = manifest.root / file_name
        if not shard_path.exists():
            raise TraceFormatError(
                f"shard {file_name} is listed in the manifest but missing on disk"
            )
        try:
            with np.load(shard_path) as shard:
                gradients = tuple(
                    tuple(
                        _load_array(shard, rank, spec, step_index, file_name)
                        for spec in manifest.layers
                    )
                    for rank in ranks
                )
        except (OSError, ValueError) as error:
            raise TraceFormatError(
                f"shard {file_name} is unreadable: {error}"
            ) from error
        steps.append((step_index, gradients))
    return steps


def load_trace(directory: str | Path) -> GradientTrace:
    """Load a trace from ``directory``, validating it against its manifest.

    The trace records ``directory`` as its :attr:`~GradientTrace.source`.

    Raises:
        TraceFormatError: The manifest is missing, unparseable, from an
            unknown format/version, or any shard array deviates from the
            declared schema.
    """
    manifest = read_manifest(directory)
    steps = [
        TraceStep(index=step_index, gradients=gradients)
        for step_index, gradients in read_shards(
            manifest, range(manifest.num_workers)
        )
    ]
    trace = GradientTrace(
        layers=manifest.layers, steps=steps, metadata=manifest.metadata
    )
    trace.source = manifest.root
    return trace


def load_rank_rows(directory: str | Path, rank: int) -> list[tuple[int, np.ndarray]]:
    """Worker ``rank``'s flattened gradient of every step, read from disk.

    Reads only that rank's arrays of each shard, validated like
    :func:`load_trace`'s.

    Returns:
        ``(step index, float32 row)`` per step, in shard order.
    """
    manifest = read_manifest(directory)
    return [
        (step_index, flatten_layers(layers))
        for step_index, (layers,) in read_shards(manifest, (rank,))
    ]


def _load_array(shard, rank: int, spec: LayerSpec, step_index: int, file_name: str):
    key = _array_key(rank, spec.name)
    if key not in shard:
        raise TraceFormatError(
            f"shard {file_name} (step {step_index}) is missing array {key!r}"
        )
    array = shard[key]
    if tuple(array.shape) != spec.shape:
        raise TraceFormatError(
            f"shard {file_name} array {key!r}: shape {tuple(array.shape)} "
            f"!= declared {spec.shape}"
        )
    if array.dtype != np.dtype(spec.dtype):
        raise TraceFormatError(
            f"shard {file_name} array {key!r}: dtype {array.dtype} "
            f"!= declared {spec.dtype}"
        )
    return array
