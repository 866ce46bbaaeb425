"""``offline-ideal``: back-to-back ``run_functional`` on ideal arrays.

One caller, closed loop.  MLP-L and CNN-1 are programmed once onto
ideal (noise-free, fault-free) arrays with seeded weights, so after the
calibration call every call runs through the compiled plan.  Cases:
MLP-L at batch 256, CNN-1 at batch 64 (the im2col conv path) and MLP-L
at batch 1 (per-call overhead).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.core.compiler import PrimeCompiler
from repro.core.executor import PrimeExecutor
from repro.eval.workloads import get_workload
from repro.params.prime import DEFAULT_PRIME_CONFIG
from repro.perf.plan import CompiledPlan

from perfbench.common import (
    ROUNDS,
    SETUP_REPEATS,
    Run,
    clock,
    median,
    timed_loop,
)
from perfbench.tracing import LayerTracer, SpanIndex, is_weight

SECTION = "offline-ideal"
#: (case, workload, batch, rows checked against the per-engine walk)
CASES = (
    ("mlp_l_b256", "MLP-L", 256, 4),
    ("cnn_1_b64", "CNN-1", 64, 2),
    ("mlp_l_b1", "MLP-L", 1, 1),
)
#: The metric each case reports.
CASE_METRIC = {
    "mlp_l_b256": "samples_per_s.mlp_l_b256",
    "cnn_1_b64": "samples_per_s.cnn_1_b64",
    "mlp_l_b1": "latency_ms.mlp_l_b1",
}
#: Seed of the (untrained) network weights: fixed, not the run seed.
WEIGHT_SEED = 7
#: Samples that freeze each layer's calibration.
CALIBRATION = 64
#: Distinct input batches each case cycles through.
POOL = 4
#: Share of ``--seconds`` spent in this section's timed calls.
BUDGET_SHARE = 0.15


@dataclass
class Programmed:
    """A network programmed and calibrated; ``times`` splits set-up."""

    net: object
    plan: object
    executor: PrimeExecutor
    programmed: list
    times: dict

    def run(self, x, with_noise: bool = False):
        return self.executor.run_functional(
            self.net, self.plan, x,
            programmed=self.programmed, with_noise=with_noise,
        )

    @property
    def compiled_plan(self) -> CompiledPlan:
        return self.programmed[0].compiled_plan


def set_up(net, topology, config, calibration, rng=None,
           with_noise=False) -> Programmed:
    """Cold start to first steady result, timed piece by piece.

    compile -> program -> calibration call (interpreted) -> first call
    on one sample, which compiles the plan and runs it.
    """
    t0 = clock()
    plan = PrimeCompiler(config).compile(topology)
    t1 = clock()
    executor = PrimeExecutor(config)
    programmed = executor.program_network(net, plan, rng=rng)
    t2 = clock()
    prog = Programmed(net, plan, executor, programmed, {})
    prog.run(calibration, with_noise)
    t3 = clock()
    prog.run(calibration[:1], with_noise)
    t4 = clock()
    prog.times = {
        "compile": t1 - t0,
        "program": t2 - t1,
        "calibrate": t3 - t2,
        "first": t4 - t3,
    }
    return prog


@contextmanager
def per_engine_walk():
    """``PRIME_FUSED=0``: the per-engine tile walk, the library's oracle."""
    saved = os.environ.get("PRIME_FUSED")
    os.environ["PRIME_FUSED"] = "0"
    try:
        yield
    finally:
        if saved is None:
            del os.environ["PRIME_FUSED"]
        else:
            os.environ["PRIME_FUSED"] = saved


def plan_shapes(prog: Programmed, batch: int, sample_shape) -> list[dict]:
    """Per weight step: logical GEMM shape (M, K, N), MACs, dtype."""
    shapes = []
    act = np.zeros((1, *sample_shape))
    for layer in prog.net.layers:
        out = layer.forward(act)
        if is_weight(layer):
            k, n = layer.weight.shape[0] + 1, layer.weight.shape[-1]
            # A conv layer drives one im2col vector per output pixel.
            vectors = out.shape[1] * out.shape[2] if out.ndim == 4 else 1
            shapes.append({"m": batch * vectors, "k": k, "n": n})
        act = out
    dtypes = [p.kernel.weight_stack().dtype for p in prog.programmed]
    for shape, dtype in zip(shapes, dtypes):
        shape["dtype"] = np.dtype(dtype).name
        shape["macs"] = shape["m"] * (shape["k"] - 1) * shape["n"]
    return shapes


class Offline:
    """The section's state across the run's measurement rounds."""

    def __init__(self, r: Run, host_gemm) -> None:
        self.r = r
        self.host_gemm = host_gemm
        self.nets = {}
        for name in ("MLP-L", "CNN-1"):
            topology = get_workload(name).topology()
            net = topology.build(rng=np.random.default_rng(WEIGHT_SEED))
            self.nets[name] = (topology, net)
        setups = []
        for rep in range(SETUP_REPEATS if r.focus(SECTION) else 1):
            total = {}
            self.progs = {}
            for name, (topology, net) in self.nets.items():
                calib = r.rng(1, rep).random(
                    (CALIBRATION, *topology.input_shape)
                )
                prog = set_up(net, topology, DEFAULT_PRIME_CONFIG, calib)
                self.progs[name] = prog
                for k, v in prog.times.items():
                    total[k] = total.get(k, 0.0) + v
            setups.append(total)
        if r.focus(SECTION):
            r.e2e["setup_s"] = median(sum(s.values()) for s in setups)
            r.info["setup_parts_s"] = {
                k: median(s[k] for s in setups) for k in setups[0]
            }
        self.inputs = {}
        self.outputs = {}
        self.walls = {case: [] for case, *_ in CASES}
        for c, (case, name, batch, _) in enumerate(CASES):
            topology, _ = self.nets[name]
            xs = r.rng(2, c).random((POOL, batch, *topology.input_shape))
            self.inputs[case] = xs
            self.outputs[case] = self.progs[name].run(xs[0])
            r.ops(1)

    def measure(self, rnd: int) -> None:
        """One slice of every case: back-to-back calls, one caller."""
        budget = self.r.seconds * BUDGET_SHARE / ROUNDS / len(CASES)
        for case, name, _, _ in CASES:
            prog = self.progs[name]
            xs = self.inputs[case]
            walls = timed_loop(lambda i: prog.run(xs[i % POOL]), budget, 3)
            self.walls[case] += walls
            self.r.ops(len(walls))

    def finish(self) -> None:
        r = self.r
        for case, name, batch, rows in CASES:
            per_call = median(self.walls[case])
            if case == "mlp_l_b1":
                r.e2e[CASE_METRIC[case]] = per_call * 1e3
            else:
                r.e2e[CASE_METRIC[case]] = batch / per_call
            r.info.setdefault("calls", {})[case] = len(self.walls[case])
            # Correctness: the compiled plan against the per-engine walk.
            with per_engine_walk():
                walk = self.progs[name].run(self.inputs[case][0][:rows])
            r.ops(1)
            r.check(
                f"offline.{case}.bit_identical_to_walk",
                np.array_equal(walk, self.outputs[case][:rows]),
                f"{rows} rows against PRIME_FUSED=0",
            )

    def close(self) -> None:
        pass

    def trace(self) -> None:
        """Traced pass: per-step self times, overheads, model cost."""
        r, progs = self.r, self.progs
        if r.focus(SECTION):
            parts = r.info["setup_parts_s"]  # MLP-L + CNN-1
            r.setup_split(
                parts["compile"] * 1e3,
                parts["program"] * 1e3,
                parts["calibrate"] * 1e3,
                sum(plan_compile_ms(p) for p in progs.values()),
            )
        budget = r.seconds * BUDGET_SHARE / ROUNDS / len(CASES)
        tracer = LayerTracer()
        for prog in progs.values():
            tracer.label_plan(prog.compiled_plan)
        session = telemetry.enable()
        events = {}
        traced = {}
        try:
            with tracer:
                for case, name, batch, _ in CASES:
                    prog = progs[name]
                    xs = self.inputs[case]
                    tracer.case = case

                    def call(i):
                        with telemetry.span(
                            "bench.run_functional", case=case
                        ):
                            prog.run(xs[i % POOL])

                    walls = timed_loop(call, budget, 3)
                    traced[case] = median(walls)
            for case, name, batch, _ in CASES:
                before = len(session.tracer.model_events)
                progs[name].executor.estimate(progs[name].plan, batch=batch)
                events[case] = {
                    e.name: e for e in session.tracer.model_events[before:]
                }
            spans = SpanIndex(session.tracer.spans)
            r.traces[SECTION] = telemetry.chrome_trace()
        finally:
            telemetry.disable()
        r.layer["telemetry.overhead_frac.offline-ideal"] = (
            traced["mlp_l_b256"] / median(self.walls["mlp_l_b256"]) - 1.0
        )
        for case, name, batch, _ in CASES:
            self._case_records(spans, case, name, batch, events[case])

    def _case_records(self, spans, case, name, batch, events) -> None:
        r = self.r
        prog = self.progs[name]
        topology, _ = self.nets[name]
        executes = spans.named("bench.plan.execute", case=case)
        overhead = [
            spans.ancestor(ex, "bench.run_functional").duration_ns
            - ex.duration_ns
            for ex in executes
        ]
        r.layer[f"core.executor.overhead_us.{case}"] = median(overhead) / 1e3
        other = [
            sum(
                c.duration_ns
                for c in spans.children[ex.index]
                if c.name == "bench.plan.step"
                and c.attrs.get("kind") != "weight"
            )
            for ex in executes
        ]
        r.layer[f"perf.plan.other_ms.{case}"] = median(other) / 1e6
        shapes = plan_shapes(prog, batch, topology.input_shape)
        names = [m.traffic.name for m in prog.plan.weight_layers]
        for i, shape in enumerate(shapes):
            steps = spans.named("bench.plan.step", case=case, layer=i)
            step_ms = median(spans.self_ns(s) for s in steps) / 1e6
            gmacs = shape["macs"] / (step_ms * 1e6)
            host = self.host_gemm(shape)
            event = events[names[i]]
            r.layer[f"perf.plan.step_ms.{case}.{i}"] = step_ms
            r.layer[f"perf.plan.gmacs_per_s.{case}.{i}"] = gmacs
            r.layer[f"perf.plan.gemm_ratio.{case}.{i}"] = gmacs / host
            r.layer[f"model.time_ns.{case}.{i}"] = event.dur_ns
            r.layer[f"model.energy_nj.{case}.{i}"] = model_energy(event)
            r.records.append(
                {
                    "case": case,
                    "layer": i,
                    "name": names[i],
                    "gemm_shape": gemm_name(shape),
                    "macs": shape["macs"],
                    "calls": len(steps),
                    "step_ms": step_ms,
                    "gmacs_per_s": gmacs,
                    "host_gemm_gmacs_per_s": host,
                    "gemm_ratio": gmacs / host,
                    "model_time_ns": event.dur_ns,
                    "model_energy_nj": model_energy(event),
                }
            )


def plan_compile_ms(prog: Programmed) -> float:
    """One extra lowering of the programmed chain, timed on its own."""
    t0 = clock()
    CompiledPlan.compile(prog.net, prog.programmed, prog.compiled_plan.pin)
    return (clock() - t0) * 1e3


def gemm_name(shape: dict) -> str:
    return f"{shape['m']}x{shape['k']}x{shape['n']}"


def model_energy(event) -> float:
    """Energy of one layer in the paper model (compute + buffer), nJ."""
    return sum(
        v for k, v in event.attrs.items() if k.endswith("_energy_nj")
    )
