"""Tests for the sweep execution strategies (repro.api.executors)."""

import pytest

from repro.api.executors import (
    EXECUTORS,
    process_chunksize,
    resolve_executor,
    run_tasks,
    validate_executor,
)
from repro.api.session import ExperimentSession


def _double(x):
    return 2 * x


class TestResolveExecutor:
    def test_validates_names(self):
        for name in EXECUTORS:
            assert validate_executor(name) == name
        assert validate_executor("THREAD") == "thread"
        with pytest.raises(ValueError, match="unknown executor"):
            validate_executor("fibers")

    def test_auto_single_task_is_serial(self):
        assert (
            resolve_executor("auto", num_tasks=1, metric_is_callable=False) == "serial"
        )

    def test_auto_callable_metric_uses_threads(self):
        assert (
            resolve_executor("auto", num_tasks=8, metric_is_callable=True, cpus=8)
            == "thread"
        )

    def test_auto_multicore_uses_processes(self):
        assert (
            resolve_executor("auto", num_tasks=8, metric_is_callable=False, cpus=4)
            == "process"
        )

    def test_auto_cpu_heavy_metrics_use_processes(self):
        for metric in ("vnmse", "tta"):
            assert (
                resolve_executor(
                    "auto", num_tasks=8, metric_is_callable=False, metric=metric, cpus=4
                )
                == "process"
            )

    def test_auto_cheap_analytic_metric_stays_on_threads(self):
        """The sub-millisecond throughput metric never pays process startup."""
        assert (
            resolve_executor(
                "auto", num_tasks=8, metric_is_callable=False, metric="throughput", cpus=4
            )
            == "thread"
        )

    def test_auto_single_core_uses_threads(self):
        assert (
            resolve_executor("auto", num_tasks=8, metric_is_callable=False, cpus=1)
            == "thread"
        )

    def test_explicit_process_with_callable_rejected(self):
        with pytest.raises(ValueError, match="process boundaries"):
            resolve_executor("process", num_tasks=4, metric_is_callable=True)

    def test_explicit_choices_pass_through(self):
        for name in ("serial", "thread", "process"):
            assert (
                resolve_executor(name, num_tasks=4, metric_is_callable=False) == name
            )


class TestChunking:
    def test_a_few_chunks_per_worker(self):
        assert process_chunksize(100, 4) == 7
        assert process_chunksize(4, 4) == 1
        assert process_chunksize(0, 4) == 1


class TestRunTasks:
    def test_serial_order(self):
        assert run_tasks([1, 2, 3], _double, executor="serial") == [2, 4, 6]

    def test_thread_order(self):
        assert run_tasks(list(range(10)), _double, executor="thread") == [
            2 * i for i in range(10)
        ]

    def test_process_order(self):
        assert run_tasks(list(range(10)), _double, executor="process") == [
            2 * i for i in range(10)
        ]

    def test_empty(self):
        assert run_tasks([], _double, executor="process") == []

    def test_auto_must_be_resolved_first(self):
        with pytest.raises(ValueError, match="resolve 'auto'"):
            run_tasks([1], _double, executor="auto")


class TestSweepExecutors:
    SPECS = ["thc(q=4, rot=partial, agg=sat)", "topkc(b=2)", "qsgd(q=4, agg=sat)"]
    KWARGS = dict(num_coordinates=1 << 12, num_rounds=1)

    def _values(self, **session_kwargs):
        session = ExperimentSession(**session_kwargs)
        result = session.sweep(self.SPECS, metric="vnmse", **self.KWARGS)
        return [point.value for point in result]

    def test_process_matches_serial_exactly(self):
        """Every point is seeded independently, so the executor cannot change
        the numbers -- process results equal serial results bit for bit."""
        assert self._values(executor="process") == self._values(executor="serial")

    def test_thread_matches_serial_exactly(self):
        assert self._values(executor="thread") == self._values(executor="serial")

    def test_per_call_executor_override(self):
        session = ExperimentSession(executor="serial")
        result = session.sweep(
            self.SPECS, metric="vnmse", executor="process", **self.KWARGS
        )
        assert len(result) == len(self.SPECS)

    def test_parallel_false_forces_serial(self):
        session = ExperimentSession(executor="process")
        result = session.sweep(
            self.SPECS, metric="vnmse", parallel=False, **self.KWARGS
        )
        assert len(result) == len(self.SPECS)

    def test_process_results_are_memoized_in_parent(self):
        session = ExperimentSession(executor="process")
        session.sweep(self.SPECS, metric="vnmse", **self.KWARGS)
        assert session.cached_points == len(self.SPECS)
        # A second sweep is served from the parent-side memo (no processes).
        again = session.sweep(self.SPECS, metric="vnmse", **self.KWARGS)
        assert len(again) == len(self.SPECS)

    def test_alias_and_spec_share_one_computation(self):
        """Grid entries with the same canonical key are computed once."""
        calls = []

        def metric(session, spec, workload, cluster):
            calls.append(spec)
            return float(len(spec))

        session = ExperimentSession(executor="serial")
        session.sweep(["topkc_b2", "topkc(b=2)"], metric=metric)
        # Callable metrics key by spelling, so both run -- but string metrics
        # dedupe by canonical spec:
        session2 = ExperimentSession(executor="serial")
        result = session2.sweep(
            ["topkc_b2", "topkc(b=2)"], metric="vnmse", **self.KWARGS
        )
        assert session2.cached_points == 1
        assert result.value("topkc_b2") == result.value("topkc(b=2)")
