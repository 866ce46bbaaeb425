"""``device-faulty``: program-and-verify writes next to noisy reads.

A trained MLP-S (synthetic MNIST, training seed 7, trained once and
kept under ``.bench_build``; never inside a timed region) is programmed
onto fresh copies of Pt/TiO2 arrays with programming variation, read
noise and 1% stuck-at cells (half HRS, half LRS), under
``yield_study.DEFAULT_ON_POLICY`` (verified writes, column sparing).
One copy is programmed per measurement round; it runs noisy inference
over its own seeded subset of the held-out pool in batches of 256.
One fault-free, noise-free program supplies the ideal accuracy,
averaged over the same subsets.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.eval.workloads import get_workload
from repro.eval.yield_study import DEFAULT_ON_POLICY, NOISE_FREE_DEVICE
from repro.params.crossbar import CrossbarParams
from repro.params.prime import PrimeConfig
from repro.params.reram import PT_TIO2_DEVICE
from repro.perf.cache import ArtifactCache, reference_network

from perfbench.common import OUT_DIR, ROUNDS, Run, clock, median
from perfbench.offline import model_energy, plan_compile_ms, set_up
from perfbench.tracing import LayerTracer, SpanIndex, layer_rel_err

SECTION = "device-faulty"
WORKLOAD = "MLP-S"
#: Reference training recipe (the yield study's, with a larger
#: held-out pool to draw seeded subsets from).
TRAIN = dict(n_train=5000, n_test=2048, epochs=20, seed=7)
#: Stuck-at fault rate, split evenly between HRS and LRS.
FAULT_RATE = 0.01
#: Held-out samples per copy, and the inference batch.
EVAL = 1024
BATCH = 256
CALIBRATION = 64
RESILIENCE_COUNTS = (
    "retried_cells",
    "spared_columns",
    "compensated_cells",
    "failed_cells",
    "remapped_tiles",
)


def faulty_config() -> PrimeConfig:
    xbar = CrossbarParams(
        device=PT_TIO2_DEVICE,
        fault_rate_hrs=FAULT_RATE / 2,
        fault_rate_lrs=FAULT_RATE / 2,
    )
    return PrimeConfig(crossbar=xbar, resilience=DEFAULT_ON_POLICY)


def ideal_config() -> PrimeConfig:
    return PrimeConfig(crossbar=CrossbarParams(device=NOISE_FREE_DEVICE))


def engine_counters(prog) -> tuple[int, int]:
    """(MVM invocations, SA conversions) summed over every engine."""
    engines = [e for p in prog.programmed for row in p.tiles for e in row]
    return (
        sum(e.mvm_invocations for e in engines),
        sum(e.sense.conversions for e in engines),
    )


def resilience_counts(prog) -> dict:
    summary = prog.executor.last_degradation
    return {k: getattr(summary, k) for k in RESILIENCE_COUNTS}


def load_reference():
    """The trained MLP-S and its held-out pool (trained on first use)."""
    return reference_network(
        WORKLOAD, **TRAIN, cache=ArtifactCache(OUT_DIR / "cache")
    )


class Device:
    """The section's state across the run's measurement rounds."""

    def __init__(self, r: Run) -> None:
        self.r = r
        self.net, self.x_pool, self.y_pool = load_reference()
        self.topology = get_workload(WORKLOAD).topology()
        # A fixed calibration set, as a deployment would keep; each copy
        # evaluates its own seeded subset of the rest of the pool.
        self.calib = self.x_pool[:CALIBRATION]
        self.subsets = [
            CALIBRATION
            + r.rng(3, k).permutation(len(self.y_pool) - CALIBRATION)[:EVAL]
            for k in range(ROUNDS)
        ]
        self.x_eval = self.x_pool[self.subsets[0]]
        self.batches = [slice(i, i + BATCH) for i in range(0, EVAL, BATCH)]
        self.ideal = set_up(
            self.net, self.topology, ideal_config(), self.calib
        )
        r.ops(3)
        self.setups, self.walls, self.accuracies = [], [], []
        self.first = None

    def copy(self, k: int):
        """Program fault-map ``k``: same seed, same map, same noise."""
        return set_up(
            self.net, self.topology, faulty_config(), self.calib,
            rng=self.r.rng(4, k), with_noise=True,
        )

    def measure(self, rnd: int) -> None:
        """Program one faulty copy and run noisy inference with it."""
        prog = self.copy(rnd)
        self.setups.append(prog.times)
        x_eval = self.x_pool[self.subsets[rnd]]
        logits = []
        for b, sl in enumerate(self.batches):
            t0 = clock()
            logits.append(prog.run(x_eval[sl], with_noise=True))
            self.walls.append(clock() - t0)
            if rnd == 0 and b == 0:
                self.first = {
                    "prog": prog,
                    "logits": logits[0].copy(),
                    "counters": engine_counters(prog),
                    "resilience": resilience_counts(prog),
                }
        self.r.ops(len(self.batches) + 3)
        pred = np.argmax(np.concatenate(logits), axis=-1)
        labels = self.y_pool[self.subsets[rnd]]
        self.accuracies.append(float(np.mean(pred == labels)))

    def finish(self) -> None:
        r = self.r
        ideal = []
        for subset in self.subsets:
            logits = self.ideal.run(self.x_pool[subset])
            labels = self.y_pool[subset]
            ideal.append(float(np.mean(np.argmax(logits, -1) == labels)))
        r.ops(len(self.subsets))
        r.e2e["samples_per_s.noisy"] = BATCH / median(self.walls)
        r.e2e["program_s"] = median(s["program"] for s in self.setups)
        r.e2e["accuracy.ideal"] = float(np.mean(ideal))
        r.e2e["accuracy.faulty"] = float(np.mean(self.accuracies))
        r.info["device"] = {
            "copies": len(self.accuracies),
            "accuracy_per_copy": self.accuracies,
            "ideal_accuracy_per_subset": ideal,
            "float_accuracy": self.net.accuracy(self.x_pool, self.y_pool),
            "resilience": self.first["resilience"],
        }
        if r.focus(SECTION):
            r.e2e["setup_s"] = median(sum(s.values()) for s in self.setups)
            r.info["setup_parts_s"] = {
                k: median(s[k] for s in self.setups) for k in self.setups[0]
            }
        # Correctness: a second program from the same seed replays
        # the first copy exactly.
        first = self.first
        replay = self.copy(0)
        logits = replay.run(self.x_eval[self.batches[0]], with_noise=True)
        r.ops(4)
        r.check(
            "device.same_seed_same_logits",
            np.array_equal(logits, first["logits"]),
        )
        r.check(
            "device.same_seed_same_resilience_counts",
            resilience_counts(replay) == first["resilience"],
            f"{resilience_counts(replay)} vs {first['resilience']}",
        )
        r.check(
            "device.same_seed_same_engine_counters",
            engine_counters(replay) == first["counters"],
            f"{engine_counters(replay)} vs {first['counters']}",
        )

    def close(self) -> None:
        pass

    def trace(self) -> None:
        """Traced pass: kernel time, layer error, resilience, model."""
        r, first, ideal = self.r, self.first, self.ideal
        faulty = first["prog"]
        if r.focus(SECTION):
            parts = r.info["setup_parts_s"]
            r.setup_split(
                parts["compile"] * 1e3,
                parts["program"] * 1e3,
                parts["calibrate"] * 1e3,
                plan_compile_ms(faulty),
            )
        for key, value in first["resilience"].items():
            r.layer[f"resilience.{key}"] = value
        invocations, conversions = first["counters"]
        r.layer["crossbar.mvm_invocations"] = invocations
        r.layer["crossbar.sense_conversions"] = conversions

        tracer = LayerTracer()
        tracer.label_plan(faulty.compiled_plan)
        tracer.label_plan(ideal.compiled_plan)
        tracer.capture = {"faulty", "ideal"}
        session = telemetry.enable()
        walls = []
        events = {}
        cases = (("faulty", faulty, True), ("ideal", ideal, False))
        try:
            with tracer:
                for case, prog, noise in cases:
                    tracer.case = case
                    for sl in self.batches:
                        t0 = clock()
                        with telemetry.span(
                            "bench.run_functional", case=case
                        ):
                            prog.run(self.x_eval[sl], with_noise=noise)
                        if noise:
                            walls.append(clock() - t0)
            for case, prog, _ in cases:
                before = len(session.tracer.model_events)
                prog.executor.estimate(prog.plan, batch=BATCH)
                events[case] = {
                    e.name: e for e in session.tracer.model_events[before:]
                }
            spans = SpanIndex(session.tracer.spans)
            r.traces[SECTION] = telemetry.chrome_trace()
        finally:
            telemetry.disable()
        r.layer["telemetry.overhead_frac.device-faulty"] = (
            median(walls) / median(self.walls) - 1.0
        )

        mvm = spans.named("bench.kernels.mvm_batch", case="faulty")
        total = sum(
            s.duration_ns
            for s in spans.named("bench.run_functional", case="faulty")
        )
        r.layer["perf.kernels.share"] = (
            sum(spans.self_ns(s) for s in mvm) / total
        )
        names = [m.traffic.name for m in faulty.plan.weight_layers]
        for case, prog, _ in cases:
            errors = layer_rel_err(tracer.captured[case])
            for i, name in enumerate(names):
                steps = spans.named("bench.plan.step", case=case, layer=i)
                event = events[case][name]
                record = {
                    "case": f"mlp_s_{case}",
                    "layer": i,
                    "name": name,
                    "calls": len(steps),
                    "step_ms": median(spans.self_ns(s) for s in steps) / 1e6,
                    "rel_err": errors[i],
                    "model_time_ns": event.dur_ns,
                    "model_energy_nj": model_energy(event),
                }
                r.layer[f"accuracy.layer_rel_err.{case}.{i}"] = errors[i]
                if case == "faulty":
                    kernel = [s for s in mvm if s.attrs["layer"] == i]
                    record["mvm_batch_ms"] = (
                        median(spans.self_ns(s) for s in kernel) / 1e6
                    )
                    r.layer[f"perf.kernels.mvm_batch_ms.{i}"] = (
                        record["mvm_batch_ms"]
                    )
                    r.layer[f"model.time_ns.mlp_s.{i}"] = event.dur_ns
                    r.layer[f"model.energy_nj.mlp_s.{i}"] = (
                        record["model_energy_nj"]
                    )
                r.records.append(record)
