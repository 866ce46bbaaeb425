"""Process-mode chaos: real worker kills, hangs, drift, recovery.

The fault-injection suite (``-m chaos``): a seeded :class:`FaultPlan`
kills, hangs, and drifts *real* pool workers, and the cluster must
recover — respawn the replica, re-dispatch the batch bit-identically,
and never lose an admitted request silently.  Everything here is
deterministic in the plan and the traffic; wall-clock only enters
through deliberately short deadlines.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time

import numpy as np
import pytest

from repro import telemetry
from repro.nn.topology import parse_topology
from repro.params.crossbar import CrossbarParams
from repro.params.memory import MemoryOrganization
from repro.params.prime import PrimeConfig
from repro.params.reram import PT_TIO2_DEVICE
from repro.resilience import ResiliencePolicy
from repro.serve import ServeConfig, ServingRuntime
from repro.serve import dispatcher as dispatcher_mod
from repro.serve.dispatcher import ProcessDispatcher
from repro.serve.health import FaultEvent, FaultPlan, HealthPolicy

pytestmark = [pytest.mark.serve, pytest.mark.chaos]

NOISE_FREE = dataclasses.replace(
    PT_TIO2_DEVICE, programming_sigma=0.0, read_noise_sigma=0.0
)
SMALL_ORG = MemoryOrganization(
    subarrays_per_bank=8,
    mats_per_subarray=16,
    mat_rows=32,
    mat_cols=32,
)
TOPOLOGY = parse_topology("serve-tiny", "24-20-6")

#: Zero backoff keeps recovery instant; the deadline is generous for
#: everything except the hang tests, which shorten it deliberately.
FAST = dict(backoff_base_s=0.0)


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.disable()
    yield
    telemetry.disable()


def _small_config(device=NOISE_FREE) -> PrimeConfig:
    return PrimeConfig(
        crossbar=CrossbarParams(
            rows=32, cols=32, sense_amps=8, device=device
        ),
        organization=SMALL_ORG,
        resilience=ResiliencePolicy(),
    )


@pytest.fixture(scope="module")
def network():
    return TOPOLOGY.build(rng=np.random.default_rng(2))


@pytest.fixture(scope="module")
def samples():
    return np.random.default_rng(11).standard_normal((20, 24))


def _runtime(network, samples, **kw):
    serve_kw = dict(mode="process", max_batch=5)
    serve_kw.update(kw.pop("serve", {}))
    defaults = dict(
        config=_small_config(),
        serve_config=ServeConfig(**serve_kw),
        calibration=samples,
        max_replicas=2,
        health=HealthPolicy(**FAST),
    )
    defaults.update(kw)
    return ServingRuntime(network, TOPOLOGY, **defaults)


class TestKillRecovery:
    def test_worker_kill_recovers_bit_identical(
        self, network, samples
    ):
        """A worker dies mid-run (real ``os._exit``): the replica is
        respawned, the batch re-dispatched, and results
        bit-identical."""
        telemetry.enable()
        plan = FaultPlan.of(FaultEvent(batch_index=1, kind="kill"))
        with _runtime(network, samples, fault_plan=plan) as runtime:
            assert runtime.mode == "process"
            served = runtime.serve(samples)
            reference = runtime.reference(samples)
            assert plan.remaining == 0
            assert len(runtime.restarts) == 1
            event = runtime.restarts[0]
            assert event.reason == "crash"
            assert event.replica == 1  # round-robin: batch 1 -> replica 1
            # Restart cost is real: kill + fork + one-time programming.
            assert event.cost_s > 0.0
            # The respawned worker serves again (replica back in
            # rotation, not retired).
            assert runtime.monitor.routable() == [0, 1]
        np.testing.assert_array_equal(served, reference)
        # The restart was measured as a span and counted.
        names = [r.name for r in telemetry.session().tracer.spans]
        assert "serve.replica.restart" in names
        assert (
            telemetry.counter_value(
                "serve.replica.restarts",
                reason="crash",
                tenant=runtime.tenant,
            )
            == 1
        )
        # Two batches were inflight on the killed pool (pump pipelines
        # batches 1 and 3 onto replica 1 before collecting): both
        # re-dispatch, but the epoch guard allows only ONE restart.
        assert (
            telemetry.counter_value(
                "serve.dispatch.retry",
                reason="crash",
                tenant=runtime.tenant,
            )
            == 2
        )

    def test_pipelined_kill_under_poll(self, network, samples):
        """The open-loop path: poll() with a killed worker mid-stream
        must drain everything without deadlock or silent loss."""
        plan = FaultPlan.of(FaultEvent(batch_index=0, kind="kill"))
        with _runtime(
            network,
            samples,
            fault_plan=plan,
            health=HealthPolicy(batch_timeout_s=60.0, **FAST),
        ) as runtime:
            requests = [runtime.submit(x) for x in samples]
            # poll() never blocks; pace the loop so the workers (and
            # the respawn) get wall-clock to make progress.
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                runtime.poll(flush=True)
                if all(r.done for r in requests):
                    break
                time.sleep(0.01)
            assert all(r.done for r in requests)
            assert len(runtime.restarts) == 1
            served = np.stack([r.result for r in requests])
            reference = runtime.reference(samples)
        np.testing.assert_array_equal(served, reference)


class TestHangTimeout:
    def test_hung_worker_times_out_and_recovers(
        self, network, samples
    ):
        """A worker sleeping through its batch trips the per-batch
        deadline: the hung worker is SIGKILLed and the batch
        re-dispatched, even though the timed-out future never
        resolved."""
        plan = FaultPlan.of(
            FaultEvent(batch_index=0, kind="hang", duration_s=60.0)
        )
        health = HealthPolicy(batch_timeout_s=1.0, **FAST)
        with _runtime(
            network, samples, fault_plan=plan, health=health
        ) as runtime:
            served = runtime.serve(samples)
            reference = runtime.reference(samples)
            assert len(runtime.restarts) == 1
            assert runtime.restarts[0].reason == "timeout"
        np.testing.assert_array_equal(served, reference)


class TestDriftRecovery:
    def test_drifted_worker_reprogrammed_in_background(
        self, network, samples
    ):
        """Drift injected into one pool worker's arrays: the periodic
        probe sees it, background reprogramming restores it, later
        probes read ~zero drift."""
        plan = FaultPlan.of(
            FaultEvent(
                batch_index=0, kind="drift", magnitude=0.5, seed=3
            )
        )
        health = HealthPolicy(
            probe_interval_batches=2, drift_threshold=0.01, **FAST
        )
        with _runtime(
            network, samples, fault_plan=plan, health=health
        ) as runtime:
            assert runtime.spec.probe_reference
            runtime.serve(samples)
            assert len(runtime.reprograms) == 1
            event = runtime.reprograms[0]
            assert event.replica == 0  # batch 0 -> replica 0
            assert event.drift > health.drift_threshold
            assert event.cost_s > 0.0
            # The recovered worker answers a fresh probe with ~zero.
            probe = runtime.dispatcher.probe_replica(0)
            assert probe.result(60.0) == pytest.approx(0.0, abs=1e-12)
            # The undrifted replica was never reprogrammed.
            assert [e.replica for e in runtime.reprograms] == [0]
            # Recovered replica serves bit-identically again.
            tail = runtime.serve(samples)
            reference = runtime.reference(samples)
        np.testing.assert_array_equal(tail, reference)


class TestSpawnFailureRecovery:
    def test_grow_after_failed_grow(
        self, network, samples, monkeypatch
    ):
        """A failed scale-up (no pool can spawn) must leave the
        dispatcher and the bank grant exactly as they were, and a later
        grow must succeed cleanly."""
        original = dispatcher_mod.ProcessPoolExecutor

        def explode(*a, **kw):
            raise OSError("no fork for you")

        with _runtime(
            network, samples, max_replicas=1
        ) as runtime:
            assert runtime.replicas == 1
            free_before = len(runtime.scheduler.free_banks)
            monkeypatch.setattr(
                dispatcher_mod, "ProcessPoolExecutor", explode
            )
            with pytest.raises(OSError):
                runtime.scale_to(2)
            # Nothing half-granted: replica count, pools, pids and the
            # free-bank pool are all untouched.
            assert runtime.replicas == 1
            d = runtime.dispatcher
            assert len(d._pools) == len(d._pids) == 1
            assert len(runtime.scheduler.free_banks) == free_before
            # Retry with the environment healthy again.
            monkeypatch.setattr(
                dispatcher_mod, "ProcessPoolExecutor", original
            )
            cost = runtime.scale_to(2)
            assert cost > 0.0
            assert runtime.replicas == 2
            assert len(d._pools) == len(d._pids) == 2
            served = runtime.serve(samples)
            reference = runtime.reference(samples)
        np.testing.assert_array_equal(served, reference)


class TestCloseSafety:
    def test_dispatcher_double_close(self, network, samples):
        with _runtime(network, samples) as runtime:
            runtime.serve(samples[:5])
        d = runtime.dispatcher
        assert isinstance(d, ProcessDispatcher)
        d.close()  # runtime.close() already closed it; idempotent
        assert d._pools == []

    def test_runtime_close_after_worker_crash_releases_banks(
        self, network, samples
    ):
        """Workers killed out-of-band (no recovery ran): close() must
        still tear the pools down and hand the bank grant back."""
        runtime = _runtime(network, samples)
        scheduler = runtime.scheduler
        free_granted = len(scheduler.free_banks)
        runtime.serve(samples[:5])
        for pid in runtime.dispatcher._pids:
            if pid:
                os.kill(pid, signal.SIGKILL)
        runtime.close()
        assert runtime.name not in scheduler.resident
        assert len(scheduler.free_banks) > free_granted
        runtime.close()  # and closing again is a no-op

