"""Advisor service core: single-flight, batching, backpressure, drain.

The tests drive the real asyncio service against the real simulator (the
throughput metric prices in about a millisecond, so these stay fast); slow
evaluations are simulated by wrapping ``_run_sweep`` where a test needs the
pool to stall deterministically.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.api import ExperimentSession
from repro.service import (
    AdviseRequest,
    AdvisorService,
    DeadlineExceededError,
    InvalidRequestError,
    PricingCache,
    ServiceOverloadedError,
    ServiceStoppedError,
)

THC = "thc(q=4, rot=partial, agg=sat)"
TOPKC = "topkc(b=2)"
POWERSGD = "powersgd(r=4)"

REQUEST = AdviseRequest(specs=(THC, TOPKC, POWERSGD), workload="bert_large")


def run(coroutine):
    return asyncio.run(coroutine)


def make_service(**kwargs) -> AdvisorService:
    kwargs.setdefault("batch_window", 0.01)
    return AdvisorService(**kwargs)


class TestBasics:
    def test_ranks_match_direct_session(self):
        async def scenario():
            async with make_service() as service:
                response = await service.advise(REQUEST)
            session = ExperimentSession()
            from repro.training.workloads import bert_large_wikitext

            workload = bert_large_wikitext()
            direct = {
                spec: session.throughput(spec, workload).rounds_per_second
                for spec in REQUEST.specs
            }
            assert response.best.spec == max(direct, key=direct.get)
            for entry in response.ranked:
                assert entry.value == pytest.approx(direct[entry.spec])
            assert [e.value for e in response.ranked] == sorted(
                (e.value for e in response.ranked), reverse=True
            )

        run(scenario())

    def test_vnmse_request_is_workload_free(self):
        async def scenario():
            async with make_service() as service:
                request = AdviseRequest(
                    specs=(THC, TOPKC),
                    metric="vnmse",
                    metric_kwargs={"num_coordinates": 1 << 10, "num_rounds": 1},
                )
                response = await service.advise(request)
                assert response.direction == "min"
                assert response.workload is None
                assert response.best.value <= response.ranked[-1].value

        run(scenario())

    def test_invalid_request_rejected_and_counted(self):
        async def scenario():
            async with make_service() as service:
                with pytest.raises(InvalidRequestError):
                    await service.advise(
                        AdviseRequest(specs=("thc(q=4",), workload="bert_large")
                    )
                assert service.snapshot()["rejected_invalid"] == 1

        run(scenario())

    def test_advise_before_start_and_after_stop(self):
        async def scenario():
            service = make_service()
            with pytest.raises(ServiceStoppedError):
                await service.advise(REQUEST)
            await service.start()
            await service.advise(REQUEST)
            await service.stop()
            with pytest.raises(ServiceStoppedError):
                await service.advise(REQUEST)
            assert service.snapshot()["rejected_stopped"] == 2

        run(scenario())


class TestSingleFlight:
    def test_identical_concurrent_requests_cost_one_sweep(self):
        """N identical cold requests trigger exactly one sweep evaluation."""
        async def scenario():
            async with make_service() as service:
                responses = await service.advise_many([REQUEST] * 25)
                assert service.metrics.sweep_evaluations == len(REQUEST.specs)
                assert service.metrics.sweeps_dispatched == 1
                best = responses[0].best.spec
                assert all(r.best.spec == best for r in responses)
                assert {r.best.value for r in responses} == {responses[0].best.value}

        run(scenario())

    def test_identical_plus_distinct_mix_counts_exactly(self):
        """N identical + M distinct requests evaluate exactly the distinct points."""
        async def scenario():
            async with make_service() as service:
                identical = [REQUEST] * 10
                distinct = [
                    AdviseRequest(specs=(f"qsgd(q={q}, agg=sat)",), workload="bert_large")
                    for q in (2, 4, 8)
                ]
                await service.advise_many(identical + distinct)
                expected = len(REQUEST.specs) + len(distinct)
                assert service.metrics.sweep_evaluations == expected

        run(scenario())

    def test_spelling_variants_share_one_evaluation(self):
        async def scenario():
            async with make_service() as service:
                spellings = [
                    AdviseRequest(specs=(THC,), workload="bert_large"),
                    AdviseRequest(
                        specs=("thc(rot=partial,  q=4, agg=sat)",),
                        workload="bert_large",
                    ),
                ]
                responses = await service.advise_many(spellings)
                assert service.metrics.sweep_evaluations == 1
                assert responses[0].best.value == responses[1].best.value

        run(scenario())

    def test_late_duplicate_joins_inflight_evaluation(self):
        """A duplicate arriving mid-evaluation waits instead of recomputing."""
        async def scenario():
            service = make_service(batch_window=0.0)
            real_run_sweep = service._run_sweep

            def slow_run_sweep(group):
                time.sleep(0.15)
                return real_run_sweep(group)

            service._run_sweep = slow_run_sweep
            async with service:
                first = asyncio.create_task(service.advise(REQUEST))
                await asyncio.sleep(0.05)  # first batch already dispatched
                second = asyncio.create_task(service.advise(REQUEST))
                responses = await asyncio.gather(first, second)
                assert service.metrics.sweep_evaluations == len(REQUEST.specs)
                assert responses[0].best.spec == responses[1].best.spec

        run(scenario())


class TestCacheIntegration:
    def test_warm_repeat_takes_fast_path(self):
        async def scenario():
            async with make_service() as service:
                cold = await service.advise(REQUEST)
                warm = await service.advise(REQUEST)
                assert cold.best.provenance == "computed"
                assert warm.best.provenance == "memory"
                assert warm.batch_size == 1
                snap = service.snapshot()
                assert snap["fast_path"] == 1
                assert warm.latency_seconds < cold.latency_seconds

        run(scenario())

    @pytest.mark.parametrize("suffix", [".sqlite", ".json"])
    def test_cache_survives_restart(self, tmp_path, suffix):
        """A fresh service on the same spill path answers without simulating."""
        path = tmp_path / f"pricing{suffix}"

        async def first_life():
            async with make_service(spill_path=path) as service:
                await service.advise(REQUEST)
                assert service.metrics.sweep_evaluations == len(REQUEST.specs)

        async def second_life():
            async with make_service(spill_path=path) as service:
                response = await service.advise(REQUEST)
                assert service.metrics.sweep_evaluations == 0
                assert {entry.provenance for entry in response.ranked} == {"persistent"}
                stats = service.cache.stats()
                assert stats["persistent_hits"] == len(REQUEST.specs)

        run(first_life())
        run(second_life())

    def test_shared_cache_object_across_services(self):
        cache = PricingCache(max_entries=64)

        async def scenario():
            async with make_service(cache=cache) as service:
                await service.advise(REQUEST)
            async with make_service(cache=cache) as service:
                response = await service.advise(REQUEST)
                assert service.metrics.sweep_evaluations == 0
                assert response.best.provenance == "memory"

        run(scenario())


class TestBackpressureAndDeadlines:
    def test_queue_full_rejects_429_style(self):
        async def scenario():
            service = make_service(max_queue=2)
            async with service:
                # Admission happens synchronously inside advise() before the
                # batcher runs, so >max_queue concurrent cold requests
                # deterministically overflow the bounded queue.
                distinct = [
                    AdviseRequest(specs=(f"qsgd(q={q}, agg=sat)",), workload="bert_large")
                    for q in (2, 3, 4, 5, 6)
                ]
                outcomes = await asyncio.gather(
                    *(service.advise(request) for request in distinct),
                    return_exceptions=True,
                )
                rejected = [o for o in outcomes if isinstance(o, ServiceOverloadedError)]
                served = [o for o in outcomes if not isinstance(o, Exception)]
                assert len(rejected) == 3
                assert len(served) == 2
                assert service.snapshot()["rejected_queue_full"] == 3

        run(scenario())

    def test_stale_on_overload_serves_cached_ranking(self):
        async def scenario():
            service = make_service(max_queue=2, serve_stale_on_overload=True)
            async with service:
                # Warm two of the three candidates into the cache.
                await service.advise(AdviseRequest(specs=(THC, TOPKC), workload="bert_large"))
                # Fill the bounded queue with distinct cold requests, then
                # overflow it with a request that mixes cached and uncached
                # candidates: instead of a 429 it gets the cached subset.
                cold = [
                    AdviseRequest(specs=(f"qsgd(q={q}, agg=sat)",), workload="bert_large")
                    for q in (2, 3, 4, 5, 6)
                ]
                outcomes = await asyncio.gather(
                    *(service.advise(request) for request in cold),
                    service.advise(REQUEST),
                    return_exceptions=True,
                )
                stale = outcomes[-1]
                assert not isinstance(stale, Exception)
                assert stale.stale is True
                assert stale.stale_age_seconds is not None
                assert stale.stale_age_seconds >= 0.0
                # Only the cached candidates are ranked; the never-priced
                # one cannot appear without doing the work overload forbids.
                assert {entry.spec for entry in stale.ranked} == {THC, TOPKC}
                assert all(
                    entry.provenance in ("memory", "persistent")
                    for entry in stale.ranked
                )
                snapshot = service.snapshot()
                assert snapshot["stale_served"] == 1
                # The queue-filling cold requests behave exactly as before.
                assert snapshot["rejected_queue_full"] == 3

        run(scenario())

    def test_stale_mode_still_429s_with_nothing_cached(self):
        async def scenario():
            service = make_service(max_queue=2, serve_stale_on_overload=True)
            async with service:
                distinct = [
                    AdviseRequest(specs=(f"qsgd(q={q}, agg=sat)",), workload="bert_large")
                    for q in (2, 3, 4, 5, 6)
                ]
                outcomes = await asyncio.gather(
                    *(service.advise(request) for request in distinct),
                    return_exceptions=True,
                )
                rejected = [o for o in outcomes if isinstance(o, ServiceOverloadedError)]
                assert len(rejected) == 3
                assert service.snapshot()["stale_served"] == 0

        run(scenario())

    def test_stale_mode_off_rejects_even_with_cached_candidates(self):
        async def scenario():
            service = make_service(max_queue=2)
            async with service:
                await service.advise(AdviseRequest(specs=(THC, TOPKC), workload="bert_large"))
                cold = [
                    AdviseRequest(specs=(f"qsgd(q={q}, agg=sat)",), workload="bert_large")
                    for q in (2, 3, 4, 5, 6)
                ]
                outcomes = await asyncio.gather(
                    *(service.advise(request) for request in cold),
                    service.advise(REQUEST),
                    return_exceptions=True,
                )
                assert isinstance(outcomes[-1], ServiceOverloadedError)
                assert service.snapshot()["stale_served"] == 0

        run(scenario())

    def test_deadline_rejection_still_warms_cache(self):
        async def scenario():
            service = make_service(batch_window=0.0)
            real_run_sweep = service._run_sweep

            def slow_run_sweep(group):
                time.sleep(0.2)
                return real_run_sweep(group)

            service._run_sweep = slow_run_sweep
            async with service:
                with pytest.raises(DeadlineExceededError):
                    await service.advise(REQUEST, deadline=0.05)
                assert service.snapshot()["rejected_deadline"] == 1
                # The abandoned sweep still completes and populates the
                # cache; a retry is a fast-path hit.
                await asyncio.sleep(0.3)
                response = await service.advise(REQUEST)
                assert response.best.provenance == "memory"
                assert service.metrics.sweep_evaluations == len(REQUEST.specs)

        run(scenario())

    def test_request_level_deadline_field(self):
        async def scenario():
            service = make_service(batch_window=0.0)

            def stalled_sweep(group):
                time.sleep(0.3)
                raise RuntimeError("evaluation aborted by test")

            service._run_sweep = stalled_sweep
            async with service:
                request = AdviseRequest(
                    specs=(THC,), workload="bert_large", deadline_seconds=0.05
                )
                started = time.perf_counter()
                with pytest.raises(DeadlineExceededError):
                    await service.advise(request)
                assert time.perf_counter() - started < 0.25

        run(scenario())


class TestDrain:
    def test_graceful_drain_finishes_accepted_work(self):
        async def scenario():
            service = make_service()
            await service.start()
            pending = [
                asyncio.create_task(
                    service.advise(
                        AdviseRequest(
                            specs=(f"qsgd(q={q}, agg=sat)",), workload="bert_large"
                        )
                    )
                )
                for q in (2, 4, 8)
            ]
            await asyncio.sleep(0)  # let every request enter the queue
            await service.stop(drain=True)
            responses = await asyncio.gather(*pending)
            assert all(response.best.value > 0 for response in responses)
            snap = service.snapshot()
            assert snap["completed"] == 3

        run(scenario())

    def test_abrupt_stop_fails_queued_requests(self):
        async def scenario():
            service = make_service(batch_window=0.2)  # batcher holds the first item
            await service.start()
            tasks = [
                asyncio.create_task(
                    service.advise(
                        AdviseRequest(
                            specs=(f"qsgd(q={q}, agg=sat)",), workload="bert_large"
                        )
                    )
                )
                for q in (2, 4, 8)
            ]
            await asyncio.sleep(0)
            await service.stop(drain=False)
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            assert any(isinstance(o, (ServiceStoppedError, asyncio.CancelledError))
                       for o in outcomes)

        run(scenario())

    def test_drain_flushes_persistent_tier(self, tmp_path):
        path = tmp_path / "pricing.json"

        async def scenario():
            service = make_service(spill_path=path)
            async with service:
                await service.advise(REQUEST)
            assert path.exists()

        run(scenario())

    def test_stop_is_idempotent(self):
        async def scenario():
            service = make_service()
            async with service:
                await service.advise(REQUEST)
            await service.stop()
            await service.stop(drain=False)

        run(scenario())


class TestTelemetry:
    def test_snapshot_shape_after_traffic(self):
        async def scenario():
            async with make_service() as service:
                await service.advise_many([REQUEST] * 5)
                await service.advise(REQUEST)
                snap = service.snapshot()
                assert snap["requests"] == 6
                assert snap["completed"] == 6
                assert snap["latency"]["p99_seconds"] >= snap["latency"]["p50_seconds"]
                assert snap["batch"]["count"] >= 1
                assert snap["cache"]["hit_rate"] > 0
                line = service.metrics.log_line(service.cache.stats())
                assert "advisor:" in line and "evals=" in line

        run(scenario())

    def test_scenario_requests_carry_tail_metrics(self):
        async def scenario():
            async with make_service() as service:
                request = AdviseRequest(
                    specs=(THC, POWERSGD),
                    workload="bert_large",
                    scenario="slowdown(w=1, x=8)@5..15",
                    metric_kwargs={"num_rounds": 20},
                )
                response = await service.advise(request)
                assert response.scenario == "slowdown(w=1, x=8)@5..15"
                for entry in response.ranked:
                    assert entry.tail is not None
                    assert entry.tail["p99_round_seconds"] >= entry.tail["p50_round_seconds"]
                    assert entry.tail["degraded_rounds"] > 0

        run(scenario())


class TestFleetScaleRequests:
    def test_million_worker_cluster_is_priced_without_materialization(self):
        async def scenario():
            from repro.simulator.cluster import fat_tree_cluster

            fleet = fat_tree_cluster(128, gpus_per_node=2)  # 1,048,576 workers
            request = AdviseRequest(
                specs=(THC, TOPKC), workload="bert_large", cluster=fleet
            )
            async with make_service() as service:
                response = await service.advise(request)
            assert response.best.spec in (THC, TOPKC)
            assert all(entry.value > 0 for entry in response.ranked)

        run(scenario())

    def test_twin_cluster_forms_share_one_cache_entry(self):
        async def scenario():
            from repro.simulator.cluster import ClusterSpec, WorkerClass, WorkerProfile

            distributional = ClusterSpec(
                num_nodes=4,
                gpus_per_node=2,
                worker_classes=(
                    WorkerClass(3, WorkerProfile(slowdown=1.5)),
                    WorkerClass(5, WorkerProfile()),
                ),
            )
            expanded = ClusterSpec(
                num_nodes=4,
                gpus_per_node=2,
                worker_classes=(WorkerClass(1, WorkerProfile(slowdown=1.5)),) * 3
                + (WorkerClass(1, WorkerProfile()),) * 5,
            )
            async with make_service() as service:
                cold = await service.advise(
                    AdviseRequest(specs=(THC,), workload="bert_large", cluster=distributional)
                )
                warm = await service.advise(
                    AdviseRequest(specs=(THC,), workload="bert_large", cluster=expanded)
                )
            # Same canonical identity: the one-class-per-rank spelling is a cache hit.
            assert cold.best.provenance == "computed"
            assert warm.best.provenance == "memory"
            assert warm.best.value == cold.best.value

        run(scenario())
