"""Open-loop multi-tenant cluster benchmark (two co-resident MLP-L).

Tracks the pipelined-dispatch tentpole across PRs: two MLP-L
deployments on disjoint bank grants, driven by a saturating open-loop
arrival process in process mode, must reach >= 1.5x the aggregate
goodput of the same grants served through the synchronous per-model
pump, with per-tenant results bit-identical to
``ServingRuntime.reference`` in both modes and replica idle fractions
reported.  The gate takes the median over interleaved sync/pipelined
run pairs, so one slow run cannot decide it.

Replica execution is paced (``pace_batch_s``): each micro-batch
occupies its replica for a fixed emulated device service time, the way
a PRIME bank group would be busy while the host coordinates.  That
makes the sync-vs-pipelined comparison a property of the dispatch
policy rather than of the host's core count — on any machine, the
synchronous pump serialises the two tenants' device time while the
pipelined loop overlaps them — and it leaves every computed value
untouched.

Also hosts the 0.8x-saturation tail benchmark: at 80% of per-replica
capacity the open-loop p99 must stay bounded (no queue blow-up), and
its wall time + tail percentiles land in ``BENCH_summary.json`` for
``compare_bench.py``.
"""

import statistics

import numpy as np
import pytest

from repro import telemetry
from repro.eval.workloads import get_workload
from repro.nn.topology import NetworkTopology
from repro.serve import (
    AutoscalerPolicy,
    ServeConfig,
    ServingCluster,
    TenantSpec,
)

pytestmark = pytest.mark.serve

#: Open-loop requests per tenant per measured run.
REQUESTS = 256
#: Micro-batch size; with REQUESTS this is 8 paced batches per tenant.
MAX_BATCH = 32
#: Emulated device service time per micro-batch (s).
PACE_S = 0.06
#: Batch-formation deadline; generous so saturated queues always ship
#: full batches rather than paced slivers.
MAX_WAIT_S = 0.08
#: Saturating offered load for the goodput gate (everything due
#: immediately; the dispatch policy is the only bottleneck).
SATURATING_RPS = 200_000.0
#: Per-replica service capacity at PACE_S: MAX_BATCH / PACE_S.
CAPACITY_RPS = MAX_BATCH / PACE_S
#: Aggregate goodput ratio the pipelined loop must reach over the
#: synchronous per-model pump (acceptance criterion).
SPEEDUP_FLOOR = 1.5
#: Interleaved sync/pipelined run pairs behind the goodput gate.
PAIRS = 7


def _tenants(rate_rps: float = SATURATING_RPS) -> list[TenantSpec]:
    """Two renamed MLP-L copies with independent weights and traffic."""
    base = get_workload("MLP-L").topology()
    features = int(np.prod(base.input_shape))
    specs = []
    for name, seed in (("mlp-l-a", 7), ("mlp-l-b", 11)):
        topology = NetworkTopology(name, base.specs, base.input_shape)
        network = topology.build(rng=np.random.default_rng(seed))
        samples = np.random.default_rng(seed + 100).random(
            (64, features)
        )
        specs.append(
            TenantSpec(
                topology=topology,
                network=network,
                samples=samples,
                rate_rps=rate_rps,
                seed=seed,
                replicas=1,
                serve_config=ServeConfig(
                    mode="process",
                    max_batch=MAX_BATCH,
                    max_wait_s=MAX_WAIT_S,
                    pace_batch_s=PACE_S,
                ),
                calibration=samples,
            )
        )
    return specs


def _checked_run(cluster: ServingCluster):
    """One measured open-loop run, bit-identity checked per tenant.

    Every recorded goodput number is therefore also a correctness
    witness.
    """
    report = cluster.run(REQUESTS)
    for state in cluster._states:
        done = [r for r in state.requests if r.done]
        got = np.stack([r.result for r in done])
        ref = state.runtime.reference(np.stack([r.x for r in done]))
        assert np.array_equal(got, ref), (
            f"{state.spec.topology.name} diverged from reference "
            f"(pipelined={cluster.pipelined})"
        )
    return report


def _run_cluster(pipelined: bool):
    """One warmed, measured open-loop run on a fresh cluster."""
    cluster = ServingCluster(_tenants(), pipelined=pipelined)
    with cluster:
        cluster.warmup()
        return _checked_run(cluster)

def test_cluster_sync_pump_baseline_mlp_l(once):
    """Synchronous per-model pump on the same grants (the baseline)."""
    report = once(_run_cluster, False)
    assert report.completed == 2 * REQUESTS
    assert report.shed == 0
    assert report.goodput_rps > 0


def test_cluster_pipelined_mlp_l(once):
    """Pipelined multi-model dispatch over the same grants."""
    report = once(_run_cluster, True)
    assert report.completed == 2 * REQUESTS
    assert report.shed == 0
    assert report.goodput_rps > 0


def test_cluster_pipelined_speedup():
    """The acceptance gate: median goodput ratio >= 1.5x, idle reported.

    One warmed cluster serves :data:`PAIRS` sync/pipelined run pairs,
    interleaved so a host speed change hits both policies alike.  Only
    the dispatch policy flips between runs: the grants, the worker
    processes and the arrival schedule stay the same.
    """
    runs: dict[bool, list] = {False: [], True: []}
    cluster = ServingCluster(_tenants())
    with cluster:
        cluster.warmup()
        for _ in range(PAIRS):
            for pipelined in (False, True):
                cluster.pipelined = pipelined
                runs[pipelined].append(_checked_run(cluster))
    ratios = [
        piped.goodput_rps / sync.goodput_rps
        for sync, piped in zip(runs[False], runs[True])
    ]
    print()
    print(
        f"{'pair':>4} {'sync_rps':>10} {'piped_rps':>10} {'ratio':>6} "
        f"{'idle_sync':>9} {'idle_piped':>10}"
    )
    for i, (sync, piped) in enumerate(zip(runs[False], runs[True])):
        assert piped.completed == sync.completed == 2 * REQUESTS
        print(
            f"{i:>4} {sync.goodput_rps:>10,.0f} "
            f"{piped.goodput_rps:>10,.0f} {ratios[i]:>6.2f} "
            f"{_idle(sync, min):>9.2f} {_idle(piped, max):>10.2f}"
        )
    q1, ratio, q3 = statistics.quantiles(ratios, n=4)
    print(
        f"pipelined/sync goodput ratio: median {ratio:.2f}x "
        f"(IQR {q1:.2f}-{q3:.2f}x over {PAIRS} pairs)"
    )
    assert ratio >= SPEEDUP_FLOOR, (
        f"pipelined dispatch reached only {ratio:.2f}x the synchronous "
        f"pump in the median of {PAIRS} pairs "
        f"({[round(r, 2) for r in ratios]}); the gate is "
        f"{SPEEDUP_FLOOR}x"
    )
    # Pipelining exists to keep replicas busy: the synchronous pump
    # must strand at least ~40% of paced device time (one tenant's
    # replicas idle while the other's pump blocks), the pipelined loop
    # must recover most of it.
    assert statistics.median(_idle(r, min) for r in runs[False]) >= 0.3
    assert statistics.median(_idle(r, max) for r in runs[True]) <= 0.25


def _idle(report, pick) -> float:
    """``pick`` (min or max) of the tenants' replica idle fractions."""
    return pick(t.replica_idle_fraction for t in report.tenants)


def test_cluster_autoscaler_spans_and_reprogram_cost():
    """Autoscaler grow shows up as spans with measured reprogram cost.

    A saturating burst against a single replica (policy capacity
    pinned at the paced rate) forces one grow; in process mode that
    spawns and programs a fresh MLP-L replica, so the span's measured
    reprogram cost is real work, not bookkeeping.
    """
    telemetry.enable()
    try:
        tenant = _tenants()[0]
        tenant.autoscaler = AutoscalerPolicy(
            max_replicas=2,
            window_s=0.2,
            cooldown_s=10.0,
            service_rate_rps=CAPACITY_RPS,
        )
        cluster = ServingCluster([tenant], pipelined=True)
        with cluster:
            cluster.warmup()
            report = cluster.run(REQUESTS)
        scaled = report.tenants[0]
        grow = next(
            e for e in scaled.scale_events if e.direction == "grow"
        )
        assert grow.to_replicas == 2
        assert grow.reprogram_s > 0.0
        assert scaled.replicas_final == 2
        session = telemetry.session()
        spans = [
            s
            for s in session.tracer.spans
            if s.name == "serve.scale"
        ]
        assert spans and spans[0].attrs["direction"] == "grow"
        hist = session.metrics.histogram(
            "serve.scale.reprogram_ms",
            tenant=scaled.tenant,
            direction="grow",
        )
        assert hist.count >= 1
        assert hist.maximum == pytest.approx(
            grow.reprogram_s * 1e3, rel=1e-6
        )
        print()
        print(
            f"grow {grow.from_replicas}->{grow.to_replicas} cost "
            f"{grow.reprogram_s * 1e3:,.0f} ms at "
            f"{grow.rate_rps:,.0f} rps observed"
        )
    finally:
        telemetry.disable()


def test_cluster_saturation_p99_mlp_l(once):
    """Open-loop tail at 0.8x per-replica capacity stays bounded.

    At 80% utilisation an M/D-ish queue is stable: p99 must stay under
    a few batch service times rather than growing with the run length
    (queue blow-up shows up as p99 ~ duration).
    """
    rate = 0.8 * CAPACITY_RPS

    def run():
        cluster = ServingCluster(_tenants(rate), pipelined=True)
        with cluster:
            cluster.warmup()
            return cluster.run(REQUESTS).tenant("mlp-l-a")

    tenant = once(run)
    assert tenant.completed == REQUESTS
    assert tenant.shed == 0
    # Stable queue: the tail is a small multiple of the paced batch
    # service time, far below the ~0.6 s run duration.
    assert tenant.p99_ms < 6 * PACE_S * 1e3
    assert tenant.p50_ms < tenant.p99_ms <= tenant.p999_ms
    print()
    print(tenant.summary())
