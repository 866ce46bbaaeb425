"""Thread-dispatch serving gates (MLP-L, small micro-batches).

Not a paper figure — this tracks the in-process shared-state replica
tentpole: ``ThreadDispatcher`` runs N replica threads against **one**
programmed copy, so deploying and scaling cost one programming pass
plus microsecond scratch-buffer leases, while process replicas each
pay fork + ``program_state``.  The gates measure where that economy
lives:

* **Goodput** — cold-start-to-drain requests/s at micro-batch <= 4
  (deploy + serve 256 requests on 2 replicas).  Thread mode must
  sustain >= 1.5x process mode: both drain at the same steady rate
  (the GIL serialises the fused kernels, and pickling a small
  micro-batch costs microseconds), so the ratio is carried by programming once
  instead of once per replica — exactly the tentpole's claim.
* **Scale-up latency** — measured ``scale_to`` cost 1 -> 2 replicas.
  Thread grow allocates scratch buffers; process grow forks and
  reprograms.  Gate: >= 50x lower (measured ~10^4x).
* **Bit-identity oracle** — thread-mode serving equals
  ``ServingRuntime.reference`` in both noise-off (per-sample, any
  batching) and seeded noise-on (per micro-batch index) regimes.
* **Concurrent spawn** (satellite) — process-pool deploy submits every
  replica's fork + program before awaiting any, so a 2-replica deploy
  is bounded by the slowest single replica, not the sum.

Wall times land in ``BENCH_summary.json`` for ``compare_bench.py``.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.eval.workloads import get_workload
from repro.serve import ServeConfig, ServingRuntime, spec_resident_bytes

pytestmark = pytest.mark.serve

#: Requests drained per cold-start goodput run.
REQUESTS = 256
#: Replica count for the goodput comparison.
REPLICAS = 2
#: The tentpole's small-batch regime: micro-batches of 1-4 samples.
MAX_BATCH = 4
#: Thread-over-process cold-start goodput floor.
GOODPUT_FLOOR = 1.5
#: Process-grow over thread-grow scale-up latency floor.
SCALEUP_FLOOR = 50.0


@pytest.fixture(scope="module")
def workload():
    topology = get_workload("MLP-L").topology()
    net = topology.build(rng=np.random.default_rng(7))
    features = int(np.prod(topology.input_shape))
    samples = np.random.default_rng(11).random((REQUESTS, features))
    return topology, net, samples


def _cold_to_drain(workload, mode: str) -> SimpleNamespace:
    """Deploy ``mode`` with ``REPLICAS`` replicas and drain every
    request at micro-batch <= ``MAX_BATCH``; wall includes deploy.

    Cold-start goodput is the number the tentpole's one-programmed-copy
    economy moves: steady-state drain rates are mode-independent here
    (GIL-serialised kernels, cheap pickled IPC), but thread mode programs once
    where process mode programs once per replica.
    """
    topology, net, samples = workload
    start = time.perf_counter()
    runtime = ServingRuntime(
        net,
        topology,
        serve_config=ServeConfig(mode=mode, max_batch=MAX_BATCH),
        calibration=samples[:64],
        max_replicas=REPLICAS,
    )
    try:
        out = runtime.serve(samples)
        wall_s = time.perf_counter() - start
        assert out.shape[0] == REQUESTS
        resident = runtime.dispatcher.resident_bytes()
        copy_bytes = spec_resident_bytes(runtime.spec)
    finally:
        runtime.close()
    return SimpleNamespace(
        mode=mode,
        requests=REQUESTS,
        replicas=REPLICAS,
        max_batch=MAX_BATCH,
        wall_s=wall_s,
        goodput_rps=REQUESTS / wall_s,
        resident_bytes=resident,
        resident_copies=resident / copy_bytes,
    )


def test_serve_thread_cold_goodput_mlp_l(once, workload):
    result = once(_cold_to_drain, workload, "thread")
    assert result.goodput_rps > 0
    # Satellite: N thread replicas share one programmed copy.
    assert result.resident_copies == 1.0


def test_serve_process_cold_goodput_mlp_l(once, workload):
    result = once(_cold_to_drain, workload, "process")
    assert result.goodput_rps > 0
    # Process replicas each hold a full programmed copy.
    assert result.resident_copies == REPLICAS


def test_thread_goodput_gate(workload):
    """The tentpole gate: thread >= 1.5x process cold-start goodput at
    small micro-batches.  Best-of-2 per mode shaves scheduler noise;
    runs interleave so drift hits both modes alike."""
    thread_rps, process_rps = 0.0, 0.0
    for _ in range(2):
        thread_rps = max(
            thread_rps, _cold_to_drain(workload, "thread").goodput_rps
        )
        process_rps = max(
            process_rps, _cold_to_drain(workload, "process").goodput_rps
        )
    ratio = thread_rps / process_rps
    print()
    print(
        f"cold-start goodput (mb<={MAX_BATCH}, {REPLICAS} replicas): "
        f"thread {thread_rps:,.0f} req/s vs process "
        f"{process_rps:,.0f} req/s -> {ratio:.2f}x"
    )
    assert ratio >= GOODPUT_FLOOR, (
        f"thread-mode goodput only {ratio:.2f}x process "
        f"({thread_rps:,.0f} vs {process_rps:,.0f} req/s); "
        f"floor {GOODPUT_FLOOR}x"
    )


def _grow_cost(workload, mode: str) -> float:
    """Measured ``scale_to`` cost (seconds) growing 1 -> 2 replicas."""
    topology, net, samples = workload
    runtime = ServingRuntime(
        net,
        topology,
        serve_config=ServeConfig(mode=mode, max_batch=MAX_BATCH),
        calibration=samples[:64],
        max_replicas=1,
    )
    try:
        runtime.serve(samples[:32])  # warm: calibration + plan compile
        return runtime.scale_to(2)
    finally:
        runtime.close()


def test_thread_scaleup_gate(once, workload):
    """The tentpole gate: thread grow is a scratch-buffer lease, not a
    fork + reprogram — >= 50x lower latency than process grow."""

    def measure() -> SimpleNamespace:
        thread_s = _grow_cost(workload, "thread")
        process_s = _grow_cost(workload, "process")
        return SimpleNamespace(
            thread_grow_ms=thread_s * 1e3,
            process_grow_ms=process_s * 1e3,
            ratio=process_s / thread_s,
        )

    result = once(measure)
    print()
    print(
        f"scale-up 1->2: thread {result.thread_grow_ms:.3f} ms vs "
        f"process {result.process_grow_ms:.1f} ms -> "
        f"{result.ratio:,.0f}x"
    )
    assert result.ratio >= SCALEUP_FLOOR, (
        f"thread grow only {result.ratio:.1f}x faster than process "
        f"({result.thread_grow_ms:.3f} ms vs "
        f"{result.process_grow_ms:.1f} ms); floor {SCALEUP_FLOOR}x"
    )


def test_thread_bit_identity_oracle(workload):
    """Thread-mode serving is bit-identical to the fresh-copy oracle in
    both noise regimes — routing across replica threads and the shared
    program state never leak into results."""
    topology, net, samples = workload
    # Noise off: per-sample equality for any batching.
    with ServingRuntime(
        net,
        topology,
        serve_config=ServeConfig(mode="thread", max_batch=MAX_BATCH),
        calibration=samples[:64],
        max_replicas=REPLICAS,
    ) as runtime:
        served = runtime.serve(samples[:64])
        np.testing.assert_array_equal(
            served, runtime.reference(samples[:64])
        )
    # Seeded noise on: per micro-batch-index equality.
    with ServingRuntime(
        net,
        topology,
        serve_config=ServeConfig(
            mode="thread",
            max_batch=MAX_BATCH,
            with_noise=True,
            seed=7,
        ),
        calibration=samples[:64],
        max_replicas=REPLICAS,
    ) as runtime:
        subset = samples[:32]
        served = runtime.serve(subset)
        for index in range(len(subset) // MAX_BATCH):
            rows = slice(index * MAX_BATCH, (index + 1) * MAX_BATCH)
            np.testing.assert_array_equal(
                served[rows],
                runtime.reference(subset[rows], batch_index=index),
            )


def test_concurrent_spawn_deploy(once, workload):
    """Satellite: process-pool deploy submits every replica's fork +
    program before awaiting any.

    Structure gate (any host): the submit phase — a ``defer_spawn``
    construction — returns in a fraction of one replica's full deploy
    time; ``finish_spawn`` then carries the programming wait for both
    replicas at once.  Overlap gate (multi-core hosts only): the
    2-replica deploy wall is bounded by the slowest single replica,
    not the sum — on a single core two CPU-bound programming passes
    necessarily serialise, so only the structure gate applies there.
    """
    import os

    from repro.serve import ProcessDispatcher

    topology, net, samples = workload

    def deploy(replicas: int) -> float:
        start = time.perf_counter()
        runtime = ServingRuntime(
            net,
            topology,
            serve_config=ServeConfig(mode="process"),
            calibration=samples[:64],
            max_replicas=replicas,
        )
        runtime.close()
        return time.perf_counter() - start

    def measure() -> SimpleNamespace:
        single_s = min(deploy(1) for _ in range(2))
        double_s = min(deploy(2) for _ in range(2))
        # Submit phase in isolation, on the same WorkerSpec a real
        # deployment programs.
        runtime = ServingRuntime(
            net,
            topology,
            serve_config=ServeConfig(mode="serial"),
            calibration=samples[:64],
            max_replicas=1,
        )
        try:
            submit_s = float("inf")
            for _ in range(2):
                start = time.perf_counter()
                dispatcher = ProcessDispatcher(
                    runtime.spec, replicas=2, defer_spawn=True
                )
                submit_s = min(
                    submit_s, time.perf_counter() - start
                )
                dispatcher.finish_spawn()
                dispatcher.close()
        finally:
            runtime.close()
        return SimpleNamespace(
            single_replica_s=single_s,
            two_replica_s=double_s,
            submit_phase_s=submit_s,
            overlap=double_s / single_s,
            cpus=os.cpu_count() or 1,
        )

    result = once(measure)
    print()
    print(
        f"process deploy ({result.cpus} cpus): 1 replica "
        f"{result.single_replica_s:.2f} s, 2 replicas "
        f"{result.two_replica_s:.2f} s ({result.overlap:.2f}x single), "
        f"submit phase {result.submit_phase_s * 1e3:.1f} ms"
    )
    # One replica's programming alone is most of a single deploy, so a
    # submit phase that awaited even one replica would exceed this.
    assert result.submit_phase_s <= 0.5 * result.single_replica_s, (
        f"deferred submit phase took {result.submit_phase_s:.2f} s vs "
        f"{result.single_replica_s:.2f} s for one full deploy — spawn "
        "is awaiting replicas during submission"
    )
    if result.cpus >= 2:
        assert result.overlap <= 1.7, (
            f"2-replica process deploy took {result.overlap:.2f}x a "
            "single replica on a multi-core host — fork + program is "
            "not overlapping"
        )
