"""``serve-open``: ``ServingRuntime`` under saturated and open-loop load.

MLP-L (seeded weights) served with ``mode="thread"``, 2 replicas and
the default batcher (max_batch 256, 2 ms wait).  Three phases:

* saturated: N samples submitted at once, then drained, once per
  measurement round, all before the open-loop phases;
* light: an open-loop Poisson schedule at 250 req/s;
* heavy: the same at 1250 req/s.

The open-loop phases run one block per measurement round.

The schedule comes from this module's own single-thread generator,
which submits each request when it falls due and polls the runtime in
between; each request is timed from its due time, so a stall of the
generator or the coordinator counts against the requests behind it.
A latency percentile is taken per ``WINDOW_S`` window of due times and
the metric is the median over the run's windows.

The open-loop latencies are per-layer metrics, recorded but never
gated: on a 2-core host they amplify the host's own speed drift about
threefold, past the largest bound a gated metric may have (README.md,
"Left out on purpose").
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from repro import telemetry
from repro.eval.workloads import get_workload
from repro.serve import ServeConfig, ServingRuntime

from perfbench.common import (
    ROUNDS,
    SETUP_REPEATS,
    Run,
    clock,
    median,
    percentile,
    wilson_upper,
)
from perfbench.tracing import LayerTracer, SpanIndex

SECTION = "serve-open"
WORKLOAD = "MLP-L"
WEIGHT_SEED = 7
REPLICAS = 2
#: Seeded input pool the phases draw samples from.
POOL = 4096
CALIBRATION = 64
#: Samples per saturated pass.
SATURATED = 2048
#: Open-loop arrival rates (req/s); see README.md for why heavy is
#: 1250 rather than 750.
RATES = {"light": 250.0, "heavy": 1250.0}
#: Share of ``--seconds`` each open-loop rate runs for, over all
#: rounds.  Light gets more: its windows hold fewer requests.
BLOCK_SHARE = {"light": 0.3, "heavy": 0.2}
#: Latency percentiles are taken per window of due times this long.
WINDOW_S = 0.5
#: Generator sleep between polls when nothing is due.
POLL_S = 0.0005
#: Time allowed after the last due time before unfinished requests
#: count as lost.
DRAIN_S = 30.0


def deploy(net, topology, pool, seed: int):
    """Deploy and warm up; returns the runtime and the set-up wall."""
    t0 = clock()
    runtime = ServingRuntime(
        net,
        topology,
        serve_config=ServeConfig(mode="thread", seed=seed),
        calibration=pool[:CALIBRATION],
        max_replicas=REPLICAS,
    )
    runtime.serve(pool[:256])
    runtime.serve(pool[256:257])
    return runtime, clock() - t0


def saturated(runtime, samples) -> dict:
    """Submit every sample at once and drain."""
    busy = runtime.busy_ns
    t0 = clock()
    requests = [runtime.submit(x) for x in samples]
    runtime.pump(flush=True)
    return {
        "requests": requests,
        "offered": len(samples),
        "wall": clock() - t0,
        "busy_ns": runtime.busy_ns - busy,
        "due": [t0] * len(samples),
        "late": [],
        "calls": [],
    }


def open_loop(runtime, pool, rate: float, duration: float, rng) -> dict:
    """Drive a Poisson schedule at ``rate`` for ``duration`` seconds."""
    draws = rng.exponential(1.0 / rate, int(2 * rate * duration) + 16)
    offsets = np.cumsum(draws)
    offsets = offsets[offsets < duration]
    n = len(offsets)
    picks = rng.integers(0, len(pool), n)
    busy = runtime.busy_ns
    start = clock() + 0.005
    due = start + offsets
    deadline = due[-1] + DRAIN_S
    requests, late, calls = [], [], []
    done = 0
    i = 0
    while done < n and clock() < deadline:
        now = clock()
        while i < n and due[i] <= now:
            t0 = clock()
            requests.append(runtime.submit(pool[picks[i]]))
            t1 = clock()
            late.append(t0 - due[i])
            calls.append(t1 - t0)
            i += 1
        t0 = clock()
        done += runtime.poll(flush=i >= n)
        calls.append(clock() - t0)
        wake = due[i] if i < n else clock() + POLL_S
        pause = min(wake - clock(), POLL_S)
        if pause > 0:
            time.sleep(pause)
    return {
        "requests": requests,
        "offered": n,
        "wall": clock() - start,
        "busy_ns": runtime.busy_ns - busy,
        "due": due[: len(requests)],
        "late": late,
        "calls": calls,
    }


def summarize(block: dict) -> dict:
    """Keep a block's numbers and drop its request objects."""
    done = [(q, d) for q, d in zip(block["requests"], block["due"]) if q.done]
    latency = [(q.t_done - d) * 1e3 for q, d in done]
    windows = defaultdict(list)
    for (_, d), ms in zip(done, latency):
        windows[int((d - block["due"][0]) // WINDOW_S)].append(ms)
    return {
        "offered": block["offered"],
        "lost": block["offered"] - len(done),
        "wall": block["wall"],
        "latency_ms": latency,
        "windows": [w for w in windows.values() if len(w) >= 20],
        "late": block["late"],
    }


class Serve:
    """The section's state across the run's measurement rounds."""

    def __init__(self, r: Run) -> None:
        self.r = r
        self.topology = get_workload(WORKLOAD).topology()
        self.net = self.topology.build(rng=np.random.default_rng(WEIGHT_SEED))
        self.pool = r.rng(5).random((POOL, *self.topology.input_shape))
        self.order = r.rng(6).permutation(POOL)
        self.runtime = None
        setups = []
        for _ in range(SETUP_REPEATS if r.focus(SECTION) else 1):
            if self.runtime is not None:
                self.runtime.close()
            self.runtime, wall = deploy(
                self.net, self.topology, self.pool, r.seed
            )
            setups.append(wall)
        if r.focus(SECTION):
            r.e2e["setup_s"] = median(setups)
        mode, replicas = self.runtime.mode, self.runtime.replicas
        r.check(
            "serve.thread_mode_two_replicas",
            mode == "thread" and replicas == REPLICAS,
            f"mode={mode} replicas={replicas}",
        )
        self.blocks = defaultdict(list)
        # Saturated passes all run before any open-loop traffic: a
        # batch of 256 right after small batches reads as a latency
        # outlier to the health monitor, which then restarts replicas.
        for p in range(ROUNDS):
            samples = self.saturated_samples(p)
            block = saturated(self.runtime, samples)
            if p == 0:
                served = np.stack([q.result for q in block["requests"]])
                self.checked = (samples, served)
            self.blocks["saturated"].append(summarize(block))
        self.traced_blocks = {}
        if r.traced:
            telemetry.enable()
            try:
                self.traced_blocks["saturated"] = saturated(
                    self.runtime, self.saturated_samples(ROUNDS)
                )
                r.traces[f"{SECTION}.saturated"] = telemetry.chrome_trace()
            finally:
                telemetry.disable()

    def saturated_samples(self, p: int):
        return self.pool[np.roll(self.order, p * 97)[:SATURATED]]

    def open_loop_blocks(self, rnd: int) -> dict:
        """One block of each open-loop rate."""
        return {
            name: open_loop(
                self.runtime,
                self.pool,
                rate,
                self.r.seconds * BLOCK_SHARE[name] / ROUNDS,
                self.r.rng(7, rnd, k),
            )
            for k, (name, rate) in enumerate(RATES.items())
        }

    def measure(self, rnd: int) -> None:
        for name, block in self.open_loop_blocks(rnd).items():
            self.blocks[name].append(summarize(block))

    def finish(self) -> None:
        r = self.r
        r.e2e["throughput_rps.saturated"] = median(
            b["offered"] / b["wall"] for b in self.blocks["saturated"]
        )
        every = [b for blocks in self.blocks.values() for b in blocks]
        offered = sum(b["offered"] for b in every)
        failed = sum(b["lost"] for b in every)
        r.ops(offered, failed)
        r.check(
            "serve.every_admitted_request_finished",
            failed == 0,
            f"{failed} of {offered} requests lost",
        )
        r.e2e["error_rate"] = wilson_upper(failed, offered)
        tails = {}
        for name in RATES:
            blocks = self.blocks[name]
            windows = [w for b in blocks for w in b["windows"]]
            # Not end-to-end metrics: see the module docstring.
            for q in (50, 90):
                r.layer[f"serve.latency_p{q}_ms.{name}"] = median(
                    percentile(w, q) for w in windows
                )
            pooled = [ms for b in blocks for ms in b["latency_ms"]]
            late = [s for b in blocks for s in b["late"]]
            tails[name] = {
                "samples": len(pooled),
                "windows": len(windows),
                "pooled_p50_ms": percentile(pooled, 50),
                "pooled_p90_ms": percentile(pooled, 90),
                "p99_ms": percentile(pooled, 99),
                "p99.9_ms": percentile(pooled, 99.9),
                "generator_late_p99_ms": percentile(late, 99) * 1e3,
            }
        r.info["serve_tails"] = tails
        r.info["serve_restarts"] = [
            (e.replica, e.reason) for e in self.runtime.restarts
        ]
        # Correctness: saturated outputs equal the reference per sample.
        samples, served = self.checked
        r.ops(1)
        r.check(
            "serve.saturated_bit_identical_to_reference",
            np.array_equal(served, self.runtime.reference(samples)),
            f"{len(served)} samples",
        )

    def close(self) -> None:
        if self.runtime is not None:
            self.runtime.close()

    def trace_setup(self) -> None:
        """Split one more cold deploy into its layers, from its spans."""
        session = telemetry.enable()
        try:
            with LayerTracer():
                runtime, _ = deploy(
                    self.net, self.topology, self.pool, self.r.seed
                )
                runtime.close()
            spans = SpanIndex(session.tracer.spans)
        finally:
            telemetry.disable()

        def total_ms(name):
            return sum(s.duration_ns for s in spans.named(name)) / 1e6

        program = spans.named("executor.program_network")[0]
        calibrate = next(
            s
            for s in spans.named("executor.run_functional")
            if s.start_ns >= program.end_ns
        )
        self.r.setup_split(
            total_ms("compiler.compile"),
            total_ms("executor.program_network"),
            calibrate.duration_ns / 1e6,
            total_ms("bench.plan.compile"),
        )

    def trace(self) -> None:
        """Traced pass: one block of every phase, request tracing on."""
        r = self.r
        if r.focus(SECTION):
            self.trace_setup()
        telemetry.enable()
        try:
            blocks = {**self.traced_blocks, **self.open_loop_blocks(ROUNDS)}
            r.traces[SECTION] = telemetry.chrome_trace()
        finally:
            telemetry.disable()
        sat = blocks["saturated"]
        r.layer["telemetry.overhead_frac.serve-open"] = (
            r.e2e["throughput_rps.saturated"] / (sat["offered"] / sat["wall"])
            - 1.0
        )
        calls = []
        for name, p in blocks.items():
            done = [q for q in p["requests"] if q.done]
            wait = [(q.t_batched - q.t_enqueue) * 1e3 for q in done]
            queue = [(q.t_dispatched - q.t_batched) * 1e3 for q in done]
            replica = [(q.t_done - q.t_dispatched) * 1e3 for q in done]
            batches = len({q.t_batched for q in done})
            r.layer[f"serve.batcher.wait_ms.p50.{name}"] = median(wait)
            r.layer[f"serve.batcher.batch_size.mean.{name}"] = (
                len(done) / batches
            )
            r.layer[f"serve.dispatch.queue_ms.p50.{name}"] = median(queue)
            r.layer[f"serve.replica_ms.p50.{name}"] = median(replica)
            r.layer[f"serve.replica.busy_frac.{name}"] = p["busy_ns"] / (
                1e9 * REPLICAS * p["wall"]
            )
            if p["late"]:
                r.layer[f"serve.generator.late_ms.p99.{name}"] = (
                    percentile(p["late"], 99) * 1e3
                )
            calls += p["calls"]
        r.layer["serve.runtime.poll_us.p50"] = median(calls) * 1e6
        r.layer["serve.health.restarts"] = len(self.runtime.restarts)
