"""BLAS runs on one thread, in this process and in the workers it starts.

``import repro`` pins numpy's OpenBLAS to one thread (see ``repro.blas``).
These tests check that the pin takes effect where the library does its
work, and that the thread count is a pure cost knob: a run that leaves
OpenBLAS two threads gives bit-identical results.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.bridge.actors as actors
from repro.api.executors import run_tasks
from repro.api.session import ExperimentSession
from repro.blas import THREAD_ENV_VARS, blas_threads
from repro.bridge import BridgeProtocolError, run_harness, synthetic_trace
from repro.simulator.cluster import ClusterSpec
from repro.training.workloads import vgg19_tinyimagenet

pytestmark = [
    pytest.mark.skipif(blas_threads() is None, reason="numpy's BLAS is not OpenBLAS"),
    pytest.mark.skipif(
        any(os.environ.get(variable) for variable in THREAD_ENV_VARS),
        reason="a BLAS thread count is set in the environment, so the pin steps aside",
    ),
]

PAPER_SET = (
    "baseline(p=fp16)",
    "thc(q=4, rot=full, agg=sat)",
    "thc(q=4, rot=partial, agg=sat)",
    "topkc(b=2)",
    "powersgd(r=4)",
    "qsgd(q=4, agg=sat)",
)
#: Above OpenBLAS's threading threshold for dot products and norms.
VNMSE_COORDINATES = 1 << 15
TTA_SPECS = ("baseline(p=fp16)", "powersgd(r=4)")
TTA_ROUNDS = 30


def worker_blas_threads(_task: int) -> int | None:
    return blas_threads()


def fingerprint() -> dict:
    """Paper-set vNMSE and short VGG19 training runs, plus the thread count."""
    session = ExperimentSession(cluster=ClusterSpec(num_nodes=8, gpus_per_node=2), seed=0)
    vnmse = {
        spec: session.vnmse(
            spec,
            num_coordinates=VNMSE_COORDINATES,
            num_rounds=2,
            num_workers=16,
            gradient_seed=0,
        )
        for spec in PAPER_SET
    }
    tta = {}
    for spec in TTA_SPECS:
        result = session.tta(spec, vgg19_tinyimagenet(), num_rounds=TTA_ROUNDS)
        tta[spec] = {
            "train_losses": list(result.history.train_losses),
            "curve": result.curve.values.tolist(),
        }
    return {"blas_threads": blas_threads(), "vnmse": vnmse, "tta": tta}


def test_import_pins_one_thread():
    assert blas_threads() == 1


def test_fork_pool_sweep_workers_inherit_the_pin():
    """The process executor ``session.sweep`` fans out over."""
    results = run_tasks([0, 1], worker_blas_threads, executor="process", max_workers=2)
    assert results == [1, 1]


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the probe reaches bridge workers through fork",
)
def test_process_bridge_workers_inherit_the_pin(monkeypatch):
    def report_blas_threads(_trace_dir, _rank):
        raise RuntimeError(f"blas threads: {blas_threads()}")

    monkeypatch.setattr(actors, "load_rank_rows", report_blas_threads)
    trace = synthetic_trace(num_steps=1, num_workers=2, seed=0)
    cluster = ClusterSpec(num_nodes=1, gpus_per_node=2)
    with pytest.raises(BridgeProtocolError, match="blas threads: 1"):
        run_harness("baseline(p=fp16)", trace, cluster=cluster, transport="process")


def test_thread_count_cannot_change_results():
    env = {key: value for key, value in os.environ.items() if key not in THREAD_ENV_VARS}
    env["OPENBLAS_NUM_THREADS"] = "2"
    code = (
        "import json, sys; sys.path[:0] = sys.argv[1:]; "
        "from test_blas import fingerprint; print(json.dumps(fingerprint()))"
    )
    source_dir = Path(repro.__file__).parents[1]
    completed = subprocess.run(
        [sys.executable, "-c", code, str(source_dir), str(Path(__file__).parent)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    unpinned = json.loads(completed.stdout.splitlines()[-1])
    if unpinned["blas_threads"] < 2:
        pytest.skip("OpenBLAS runs one thread on this host whatever it is told")
    pinned = fingerprint()
    assert pinned["blas_threads"] == 1
    assert unpinned["vnmse"] == pinned["vnmse"]
    assert unpinned["tta"] == pinned["tta"]
