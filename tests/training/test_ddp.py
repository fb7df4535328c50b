"""Unit and integration tests for the DDP trainer and workers."""

import numpy as np
import pytest

from repro.compression.registry import make_scheme
from repro.core.evaluation import build_trainer
from repro.experiments.adaptive import (
    DEFAULT_ADAPTIVE_CANDIDATES,
    DEFAULT_ADAPTIVE_SCENARIO,
    default_adaptive_cluster,
    default_adaptive_controller,
)
from repro.simulator.gpu import Precision
from repro.training.data import SyntheticTeacherDataset
from repro.training.ddp import DDPTrainer, TrainingHistory
from repro.training.models import MLPClassifier
from repro.training.worker import DDPWorker
from repro.training.workloads import bert_large_wikitext, vgg19_tinyimagenet


@pytest.fixture
def workload():
    return vgg19_tinyimagenet()


@pytest.fixture
def dataset(workload):
    return SyntheticTeacherDataset(
        num_examples=1024,
        num_test_examples=256,
        input_dim=workload.sim_input_dim,
        num_classes=workload.sim_num_classes,
        seed=0,
    )


@pytest.fixture
def model(workload):
    return MLPClassifier(
        workload.sim_input_dim, workload.sim_hidden_dims, workload.sim_num_classes, seed=1
    )


def make_trainer(model, dataset, workload, scheme_name="baseline_fp16", **kwargs):
    return DDPTrainer(
        model=model,
        dataset=dataset,
        scheme=make_scheme(scheme_name),
        workload=workload,
        **kwargs,
    )


class TestDDPWorker:
    def test_compute_gradient_shapes(self, dataset, model):
        worker = DDPWorker(0, dataset.worker_shard(0, 4), batch_size=8, seed=0)
        loss, gradient = worker.compute_gradient(model)
        assert gradient.shape == (model.num_parameters,)
        assert np.isfinite(loss)

    def test_different_workers_different_batches(self, dataset, model):
        workers = [
            DDPWorker(rank, dataset.worker_shard(rank, 4), batch_size=8, seed=0)
            for rank in range(2)
        ]
        _, grad_a = workers[0].compute_gradient(model)
        _, grad_b = workers[1].compute_gradient(model)
        assert not np.allclose(grad_a, grad_b)

    def test_invalid_parameters(self, dataset):
        with pytest.raises(ValueError):
            DDPWorker(-1, dataset.worker_shard(0, 2), 8)
        with pytest.raises(ValueError):
            DDPWorker(0, dataset.worker_shard(0, 2), 0)


class TestDDPTrainer:
    def test_training_improves_accuracy(self, model, dataset, workload):
        trainer = make_trainer(model, dataset, workload, eval_every=20)
        history = trainer.run(120)
        assert history.evaluations[-1].metrics["accuracy"] > history.evaluations[0].metrics[
            "accuracy"
        ]

    def test_history_structure(self, model, dataset, workload):
        trainer = make_trainer(model, dataset, workload, eval_every=10)
        history = trainer.run(30)
        assert isinstance(history, TrainingHistory)
        assert history.num_rounds == 30
        assert history.times().size == len(history.evaluations)
        assert history.round_seconds > 0
        assert history.throughput_rounds_per_second() == pytest.approx(
            1.0 / history.round_seconds
        )

    def test_sim_time_is_round_times_round_seconds(self, model, dataset, workload):
        trainer = make_trainer(model, dataset, workload, eval_every=10)
        history = trainer.run(20)
        last = history.evaluations[-1]
        assert last.sim_time_seconds == pytest.approx(20 * trainer.round_seconds)

    def test_round_time_uses_paper_scale_costs(self, model, dataset, workload):
        trainer = make_trainer(model, dataset, workload)
        compute = workload.compute_seconds_for(Precision.TF32)
        assert trainer.round_seconds > compute
        assert trainer.round_cost_estimate.communication_seconds > 0

    def test_fp16_round_faster_than_fp32(self, dataset, workload):
        model_a = MLPClassifier(workload.sim_input_dim, (32,), workload.sim_num_classes)
        model_b = MLPClassifier(workload.sim_input_dim, (32,), workload.sim_num_classes)
        fp16 = make_trainer(model_a, dataset, workload, "baseline_fp16")
        fp32 = make_trainer(model_b, dataset, workload, "baseline_fp32")
        assert fp16.round_seconds < fp32.round_seconds

    def test_compressed_round_faster_than_fp16(self, dataset, workload):
        model_a = MLPClassifier(workload.sim_input_dim, (32,), workload.sim_num_classes)
        model_b = MLPClassifier(workload.sim_input_dim, (32,), workload.sim_num_classes)
        fp16 = make_trainer(model_a, dataset, workload, "baseline_fp16")
        topkc = make_trainer(model_b, dataset, workload, "topkc_b2")
        assert topkc.round_seconds < fp16.round_seconds

    def test_default_round_is_fully_serialized(self, dataset, workload):
        model = MLPClassifier(workload.sim_input_dim, (32,), workload.sim_num_classes)
        trainer = make_trainer(model, dataset, workload)
        compute = workload.compute_seconds_for(Precision.TF32)
        costs = trainer.round_cost_estimate
        assert trainer.round_seconds == pytest.approx(
            compute + costs.compression_seconds + costs.communication_seconds
        )
        assert trainer.round_pipeline.overlap_efficiency == pytest.approx(0.0)

    def test_bucketed_pipeline_shortens_round(self, dataset, workload):
        model_a = MLPClassifier(workload.sim_input_dim, (32,), workload.sim_num_classes)
        model_b = MLPClassifier(workload.sim_input_dim, (32,), workload.sim_num_classes)
        serialized = make_trainer(model_a, dataset, workload)
        pipelined = make_trainer(model_b, dataset, workload, num_buckets=8)
        assert pipelined.round_seconds < serialized.round_seconds
        compute = workload.compute_seconds_for(Precision.TF32)
        assert pipelined.round_seconds >= compute

    def test_straggler_cluster_lengthens_round(self, dataset, workload):
        from repro.simulator.cluster import paper_testbed

        model_a = MLPClassifier(workload.sim_input_dim, (32,), workload.sim_num_classes)
        model_b = MLPClassifier(workload.sim_input_dim, (32,), workload.sim_num_classes)
        base = make_trainer(model_a, dataset, workload, num_buckets=4)
        slowdown = 1.5
        straggler = make_trainer(
            model_b,
            dataset,
            workload,
            num_buckets=4,
            cluster=paper_testbed().with_straggler(1, slowdown),
        )
        assert straggler.round_seconds > base.round_seconds
        compute = workload.compute_seconds_for(Precision.TF32)
        assert straggler.round_seconds >= compute * slowdown

    def test_rejects_zero_buckets(self, model, dataset, workload):
        with pytest.raises(ValueError):
            make_trainer(model, dataset, workload, num_buckets=0)

    def test_stopping_criterion_halts_early(self, model, dataset, workload):
        class StopImmediately:
            def update(self, value: float) -> bool:
                return True

        trainer = make_trainer(model, dataset, workload, eval_every=5)
        history = trainer.run(100, stopping=StopImmediately())
        assert history.num_rounds <= 5

    def test_invalid_parameters(self, model, dataset, workload):
        with pytest.raises(ValueError):
            make_trainer(model, dataset, workload, eval_every=0)
        trainer = make_trainer(model, dataset, workload)
        with pytest.raises(ValueError):
            trainer.run(0)

    def test_history_metrics_helpers(self, model, dataset, workload):
        trainer = make_trainer(model, dataset, workload, eval_every=10)
        history = trainer.run(40)
        assert history.final_metric() == history.evaluations[-1].metrics["accuracy"]
        assert history.best_metric() >= history.evaluations[0].metrics["accuracy"]


#: The trainer's adaptive + recovery-policy run, pinned bit-exactly: the
#: controller switches transports twice, and each switch rebuilds the
#: recovery engine, which adopts the run-level counters of its predecessor.
ADAPTIVE_POLICY_LOSSES = [
    4.786338449477039, 4.3162848354920325, 4.843109824070961,
    4.12996279732701, 4.105955719032448, 4.109989665755455,
    4.253530168289497, 3.693327090566953, 3.266275504993973,
    4.420695409861574, 4.376092192896673, 3.4518956684234867,
    3.422701715403722, 3.5221612492851238, 4.194729426502494,
    4.033906421302925, 3.7040237668404705, 4.36504348148041,
    4.138325099549775, 2.421721886045289, 4.6523509937508125,
    2.650397395533481, 2.7758285768244475, 3.1578827306008206,
    3.1373113945861837, 5.892251986203066, 2.387797637885669,
    3.660873661473832, 5.862487533536547, 3.285107921192714,
    3.045421952145036, 3.9556256726694246, 4.897437235085874,
    2.9433581485634344, 2.3080950684940325, 5.643220207460855,
    6.500430690077444, 4.078218243715317, 7.0213701862440985,
    1.978122590090949, 7.131957095901622, 5.152378681687351,
    6.0962278674105015, 2.2930576602734742, 3.272529426851613,
    2.9353869244504276, 5.967962967146477, 6.341909731110906,
    3.6827466541883074, 6.598641881222134, 6.338609680004667,
    5.68026612188397, 9.749078613404455, 5.751809818231921,
    6.143411399961753, 5.336985194501282, 3.891093693472162,
    5.195357480867225, 7.202083367298488, 4.293132597810959,
    3.611274777278159, 4.798838430812174, 5.166823926585625,
    1.5904872603274316, 3.8625389267518098, 6.415673761011576,
    2.2136409039002887, 5.051717842738332, 5.513760676220532,
    8.950552204799225, 3.4311779676241168, 6.628365101398007,
    6.749244250720555, 6.968859197993972, 4.962574797988554,
    7.943821106703206, 8.920490766049177, 5.427309305021394,
    8.35453200166739, 2.3731604332298235, 4.738705256454976,
    3.6964745948109243, 7.47127565892257, 10.435966822988503,
    7.758613726421759, 9.030242324321131, 6.884329232422701,
    8.76815904383973, 3.9129627646356404, 9.932258833780537,
]
ADAPTIVE_POLICY_EVAL_TIMES = [
    0.0, 1.0397485719434083, 2.0794971438868166,
    3.6748441637702935, 4.793318169980369, 5.911792176190444,
    7.030266182400519, 8.148740188610594, 9.267214194820669,
    10.390440369067912, 11.430188941011316, 12.46993751295472,
    13.509686084898124, 14.549434656841528, 15.589183228784933,
    16.628931800728342, 17.668680372671755, 18.708428944615168,
    19.74817751655858,
]


class TestAdaptivePolicyRun:
    @pytest.fixture(scope="class")
    def history(self):
        return build_trainer(
            "thc(q=4, rot=partial, agg=switch)",
            bert_large_wikitext(),
            cluster=default_adaptive_cluster(),
            scenario=DEFAULT_ADAPTIVE_SCENARIO,
            policy="timeout(k=1.5) + retry(max=1, backoff=0.1) + stale(max=2)",
            controller=default_adaptive_controller(DEFAULT_ADAPTIVE_CANDIDATES),
            eval_every=5,
        ).run(90)

    def test_round_times(self, history):
        switch, sat = 0.20794971438868168, 0.22369480124201502
        # Round 11 hits the pressure window on the switch transport: the
        # first attempt and its retry both abort at the 1.5x deadline.
        aborted = 0.6446441146049131
        assert history.round_times == (
            [switch] * 10 + [aborted] + [sat] * 31 + [switch] * 48
        )

    def test_train_losses(self, history):
        assert history.train_losses == ADAPTIVE_POLICY_LOSSES

    def test_evaluation_times(self, history):
        assert [record.round_index for record in history.evaluations] == list(
            range(0, 91, 5)
        )
        assert [
            record.sim_time_seconds for record in history.evaluations
        ] == ADAPTIVE_POLICY_EVAL_TIMES

    def test_switches(self, history):
        assert [
            (switch.round_index, switch.from_spec, switch.to_spec)
            for switch in history.scheme_switches
        ] == [
            (11, "thc(q=4, rot=partial, agg=switch)", "thc(q=4, rot=partial, agg=sat)"),
            (42, "thc(q=4, rot=partial, agg=sat)", "thc(q=4, rot=partial, agg=switch)"),
        ]

    def test_recovery_counters(self, history):
        assert history.timed_out_rounds == 1
        assert history.retries == 1
        assert history.dropped_worker_rounds == 0
        assert history.stale_rounds == 1
