"""Every injected fault path, demonstrably exercised end-to-end.

Each test runs a real :class:`RuntimeCluster` protocol round over the
``sim`` transport with a surgically-placed :class:`FaultSchedule`
entry, then asserts both that the fault fired (transport stats) and
that the supervision layer absorbed it the intended way (retry /
idempotency / rejection / policy).
"""

import numpy as np
import pytest

from repro import sanitize
from repro.core import SketchMLCompressor, SketchMLConfig
from repro.data import kdd10_like
from repro.data.splits import partition_rows
from repro.models import make_model
from repro.optim import SGD
from repro.runtime import (
    FaultConfig,
    FaultSchedule,
    FaultyTransport,
    RuntimeCluster,
    RuntimeConfig,
    SupervisionConfig,
    WorkerBootstrap,
    WorkerCrashedError,
)

NUM_WORKERS = 2
SEED = 3


def make_bootstraps(dataset, num_workers=NUM_WORKERS):
    model = make_model("lr", dataset.num_features)
    partitions = partition_rows(dataset.num_rows, num_workers, seed=SEED)
    bootstraps = []
    for worker_id, rows in enumerate(partitions):
        part = dataset.subset(rows)
        bootstraps.append(
            WorkerBootstrap(
                worker_id=worker_id,
                dataset=part,
                model=model,
                optimizer=SGD(learning_rate=0.1),
                compressor=SketchMLCompressor(SketchMLConfig.full(seed=SEED)),
                batch_size=max(1, part.num_rows // 4),
                seed=SEED,
            )
        )
    return bootstraps


def make_cluster(dataset, schedule=None, faults=None, **sup_overrides):
    defaults = dict(
        message_timeout=5.0, max_retries=3,
        backoff_base=0.0, backoff_jitter=0.0, seed=SEED,
    )
    defaults.update(sup_overrides)
    config = RuntimeConfig(
        backend="sim",
        supervision=SupervisionConfig(**defaults),
        faults=faults,
        fault_schedule=schedule,
    )
    return RuntimeCluster(make_bootstraps(dataset), config)


@pytest.fixture(scope="module")
def dataset():
    return kdd10_like(seed=SEED, scale=0.02)


@pytest.fixture(scope="module")
def clean_round(dataset):
    """Reference round results with no faults injected."""
    with make_cluster(dataset) as cluster:
        cluster.start_epoch(0)
        results = cluster.step(0, 0.1)
    return results


def assert_matches_clean(results, clean_round):
    assert sorted(results) == sorted(clean_round)
    for worker_id, got in results.items():
        ref = clean_round[worker_id]
        assert got.local_loss == ref.local_loss
        assert got.gradient_nnz == ref.gradient_nnz
        assert got.message_bytes == ref.message_bytes


class TestDrop:
    def test_dropped_send_is_retried_transparently(self, dataset, clean_round):
        # Per-worker send stream: EPOCH is index 0, STEP is index 1.
        schedule = FaultSchedule().add("drop", "send", 0, 1)
        with make_cluster(dataset, schedule=schedule) as cluster:
            cluster.start_epoch(0)
            results = cluster.step(0, 0.1)
            assert cluster.transport.stats["drops"] == 1
            assert cluster.supervisor.stats["retries"] >= 1
            assert cluster.supervisor.stats["timeouts"] >= 1
        # The retried round recomputes nothing: results match a clean run.
        assert_matches_clean(results, clean_round)


class TestDuplicate:
    def test_duplicate_reply_discarded_as_stale(self, dataset, clean_round):
        # Duplicate worker 0's EPOCH ack (recv index 0); the copy
        # arrives while the driver waits for a GRAD and must be
        # discarded as stale, not decoded as a gradient.
        schedule = FaultSchedule().add("duplicate", "recv", 0, 0)
        with make_cluster(dataset, schedule=schedule) as cluster:
            cluster.start_epoch(0)
            results = cluster.step(0, 0.1)
            assert cluster.transport.stats["duplicates"] == 1
            assert cluster.supervisor.stats["stale_frames"] >= 1
        assert_matches_clean(results, clean_round)

    def test_duplicate_update_ack_is_harmless(self, dataset):
        # Duplicate the GRAD reply (recv index 1); the second copy is
        # consumed while waiting for the UPDATE ack and discarded.
        schedule = FaultSchedule().add("duplicate", "recv", 0, 1)
        with make_cluster(dataset, schedule=schedule) as cluster:
            cluster.start_epoch(0)
            results = cluster.step(0, 0.1)
            messages = [
                r.message for r in results.values() if r.message is not None
            ]
            assert messages
            from repro.distributed import Driver

            driver = Driver(
                SketchMLCompressor(SketchMLConfig.full(seed=SEED)),
                make_model("lr", dataset.num_features).num_parameters,
            )
            agg = driver.aggregate(messages)
            acked = cluster.broadcast(
                0, 0.1, cluster.encode_update(agg.broadcast_message)
            )
            assert acked == [0, 1]
            assert cluster.transport.stats["duplicates"] == 1


class TestCorrupt:
    def test_corrupted_grad_rejected_then_retried(self, dataset, clean_round):
        # Corrupt worker 0's GRAD payload (recv index 1).  The frame
        # still parses; the *content* layer (deserialize_message under
        # the sanitizer) must reject it, and the retry must be served
        # from the worker's idempotency cache.
        schedule = FaultSchedule().add("corrupt", "recv", 1, 1)
        with sanitize.sanitized():
            with make_cluster(dataset, schedule=schedule) as cluster:
                cluster.start_epoch(0)
                results = cluster.step(0, 0.1)
                assert cluster.transport.stats["corrupts"] == 1
                assert cluster.supervisor.stats["rejected_replies"] >= 1
                assert cluster.supervisor.stats["retries"] >= 1
        assert_matches_clean(results, clean_round)

    def test_corruption_never_reaches_aggregation(self, dataset, clean_round):
        # Same fault, but decode the recovered message and check its
        # values are the *clean* ones — the corrupted copy left no trace.
        schedule = FaultSchedule().add("corrupt", "recv", 1, 1)
        with sanitize.sanitized():
            with make_cluster(dataset, schedule=schedule) as cluster:
                cluster.start_epoch(0)
                results = cluster.step(0, 0.1)
        compressor = SketchMLCompressor(SketchMLConfig.full(seed=SEED))
        got_k, got_v = compressor.decompress(results[1].message)
        ref_k, ref_v = compressor.decompress(clean_round[1].message)
        np.testing.assert_array_equal(got_k, ref_k)
        np.testing.assert_array_equal(got_v, ref_v)


class TestDelay:
    def test_delayed_reply_times_out_then_recovers(self, dataset, clean_round):
        schedule = FaultSchedule().add("delay", "recv", 0, 1)
        with make_cluster(dataset, schedule=schedule) as cluster:
            cluster.start_epoch(0)
            results = cluster.step(0, 0.1)
            assert cluster.transport.stats["delays"] == 1
            assert cluster.supervisor.stats["retries"] >= 1
        assert_matches_clean(results, clean_round)


class TestDeadWorker:
    def test_fail_fast_raises_structured_error(self, dataset):
        with make_cluster(dataset) as cluster:
            cluster.start_epoch(0)
            cluster.transport.terminate(1)
            with pytest.raises(WorkerCrashedError) as excinfo:
                cluster.step(0, 0.1)
            assert excinfo.value.worker_id == 1
            assert excinfo.value.phase == "step"

    def test_drop_policy_continues_over_survivors(self, dataset):
        with make_cluster(dataset, straggler_policy="drop") as cluster:
            cluster.start_epoch(0)
            cluster.transport.terminate(1)
            results = cluster.step(0, 0.1)
            assert sorted(results) == [0]
            assert cluster.alive_workers == [0]
            assert 1 in cluster.dropped_workers
            assert "worker 1" in cluster.dropped_workers[1]
            # The aggregate over survivors re-weights by the answering
            # count: with one worker left, the mean is its gradient.
            from repro.distributed import aggregate_sparse_gradients

            compressor = SketchMLCompressor(SketchMLConfig.full(seed=SEED))
            keys, values = compressor.decompress(results[0].message)
            agg_k, agg_v = aggregate_sparse_gradients([(keys, values)])
            np.testing.assert_array_equal(agg_k, keys)
            np.testing.assert_allclose(agg_v, values)
            # Training continues without the dead worker.
            more = cluster.step(1, 0.1)
            assert sorted(more) == [0]


class TestSeededReproducibility:
    def run_with_faults(self, dataset, seed):
        faults = FaultConfig(
            seed=seed, drop_rate=0.2, duplicate_rate=0.2, corrupt_rate=0.1
        )
        with sanitize.sanitized():
            with make_cluster(dataset, faults=faults) as cluster:
                cluster.start_epoch(0)
                losses = []
                for rid in range(3):
                    results = cluster.step(rid, 0.1)
                    losses.append(
                        tuple(results[w].local_loss for w in sorted(results))
                    )
                return dict(cluster.transport.stats), losses

    def test_same_seed_same_fault_pattern(self, dataset):
        stats_a, losses_a = self.run_with_faults(dataset, seed=11)
        stats_b, losses_b = self.run_with_faults(dataset, seed=11)
        assert stats_a == stats_b
        assert losses_a == losses_b
        assert sum(stats_a.values()) > 0  # the run was actually faulty


class TestFaultConfigValidation:
    def test_bad_rates_rejected(self):
        with pytest.raises(ValueError):
            FaultConfig(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(delay_recvs=-1)

    def test_bad_schedule_rejected(self):
        with pytest.raises(ValueError):
            FaultSchedule().add("explode", "send", 0, 0)
        with pytest.raises(ValueError):
            FaultSchedule().add("drop", "sideways", 0, 0)

    def test_budget_caps_total_faults(self, dataset):
        faults = FaultConfig(seed=0, drop_rate=1.0, max_faults=2)
        schedule = None
        config = RuntimeConfig(
            backend="sim",
            supervision=SupervisionConfig(
                message_timeout=5.0, max_retries=5,
                backoff_base=0.0, backoff_jitter=0.0,
            ),
            faults=faults,
            fault_schedule=schedule,
        )
        with RuntimeCluster(make_bootstraps(dataset), config) as cluster:
            cluster.start_epoch(0)  # every send dropped until budget spent
            assert cluster.transport.stats["drops"] == 2
