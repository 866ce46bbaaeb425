"""Tests for the plan compiler (``repro.perf.plan``).

The contract under test: every ``run_functional`` chunk, a fresh
chain's calibrating first one included, runs the compiled plan; with
noise off it is *bit-identical* to the per-engine tile walk
(``PRIME_FUSED=0``) and charges the same hardware counters; the noisy
path reproduces under a fixed seed and draws the kernels' seeded
stream in layer order; chunked streaming never changes the output;
and the plan cache invalidates itself when the programmed state it was
compiled from changes.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.core.compiler import PrimeCompiler
from repro.core.executor import PrimeExecutor
from repro.crossbar.engine import CrossbarMVMEngine
from repro.eval.workloads import get_workload
from repro.nn.layers import Dense
from repro.params.prime import DEFAULT_PRIME_CONFIG
from repro.perf.plan import CompiledPlan, PlanCompileError


@pytest.fixture
def compiler():
    return PrimeCompiler(DEFAULT_PRIME_CONFIG)


@pytest.fixture
def executor():
    return PrimeExecutor(DEFAULT_PRIME_CONFIG)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("PRIME_FUSED", raising=False)
    monkeypatch.delenv("PRIME_FUNC_CHUNK_BYTES", raising=False)


def _run_modes(executor, compiler, monkeypatch, topology, net, x):
    """run_functional through the compiled plan and the per-engine
    walk, same inputs.

    The first pass over a fresh programmed list calibrates inside the
    plan; a second compiled pass over the now-calibrated list must
    return the same bits.
    """
    plan = compiler.compile(topology)
    programmed = executor.program_network(net, plan)
    first = executor.run_functional(net, plan, x, programmed=programmed)
    compiled = executor.run_functional(
        net, plan, x, programmed=programmed
    )
    assert programmed[0].compiled_plan is not None
    monkeypatch.setenv("PRIME_FUSED", "0")
    walked = executor.run_functional(net, plan, x, programmed=programmed)
    np.testing.assert_array_equal(first, compiled)
    return compiled, walked


class TestPlanKnob:
    def test_fused_off_disables_plan_too(
        self, executor, compiler, monkeypatch, trained_tiny_mlp,
        tiny_digit_data,
    ):
        """PRIME_FUSED=0 must force the per-engine walk: every weight
        step of the plan delegates to one engine call per tile."""
        topology, net = trained_tiny_mlp
        _, _, x_test, _ = tiny_digit_data
        plan = compiler.compile(topology)
        programmed = executor.program_network(net, plan)
        calls = []
        engine_mvm = CrossbarMVMEngine.mvm_batch

        def counted(engine, *args, **kwargs):
            calls.append(engine)
            return engine_mvm(engine, *args, **kwargs)

        monkeypatch.setattr(CrossbarMVMEngine, "mvm_batch", counted)
        engines = [e for p in programmed for row in p.tiles for e in row]
        for _ in range(2):  # calibrating first call, then a lowered plan
            executor.run_functional(
                net, plan, x_test[:4], programmed=programmed
            )
            assert not calls
        monkeypatch.setenv("PRIME_FUSED", "0")
        for _ in range(2):
            executor.run_functional(
                net, plan, x_test[:4], programmed=programmed
            )
        assert programmed[0].compiled_plan is not None
        assert calls == engines * 2


class TestBitIdentity:
    """compiled == per-engine, exact (==, not allclose)."""

    def test_trained_mlp(
        self, executor, compiler, monkeypatch, trained_tiny_mlp,
        tiny_digit_data,
    ):
        topology, net = trained_tiny_mlp
        _, _, x_test, _ = tiny_digit_data
        compiled, walked = _run_modes(
            executor, compiler, monkeypatch, topology, net, x_test[:80]
        )
        np.testing.assert_array_equal(compiled, walked)

    def test_trained_cnn(
        self, executor, compiler, monkeypatch, trained_tiny_cnn
    ):
        topology, net, x_test, _ = trained_tiny_cnn
        compiled, walked = _run_modes(
            executor, compiler, monkeypatch, topology, net, x_test[:20]
        )
        np.testing.assert_array_equal(compiled, walked)

    @pytest.mark.parametrize("workload", ["MLP-S", "CNN-1"])
    def test_paper_workloads(
        self, executor, compiler, monkeypatch, workload
    ):
        """Bit-identity on the paper's topologies (random weights —
        identity does not depend on training)."""
        topology = get_workload(workload).topology()
        net = topology.build(rng=np.random.default_rng(3))
        x = np.random.default_rng(4).random(
            (12, *np.atleast_1d(topology.input_shape))
        )
        compiled, walked = _run_modes(
            executor, compiler, monkeypatch, topology, net, x
        )
        np.testing.assert_array_equal(compiled, walked)

    @pytest.mark.parametrize("batch", [1, 2, 3, 17])
    def test_packed_and_unpacked_batches_agree(
        self, executor, compiler, monkeypatch, trained_tiny_mlp,
        tiny_digit_data, batch,
    ):
        """Tiny batches take the packed-field kernel, wide ones the
        trimmed-stack kernel; both must match the per-engine walk."""
        topology, net = trained_tiny_mlp
        _, _, x_test, _ = tiny_digit_data
        compiled, walked = _run_modes(
            executor, compiler, monkeypatch, topology, net,
            x_test[:batch],
        )
        np.testing.assert_array_equal(compiled, walked)


class TestChunkedStreaming:
    @pytest.mark.parametrize("chunk_bytes", [1, 30_000, 200_000])
    def test_chunked_equals_unchunked(
        self, executor, compiler, trained_tiny_mlp, tiny_digit_data,
        chunk_bytes,
    ):
        topology, net = trained_tiny_mlp
        _, _, x_test, _ = tiny_digit_data
        plan = compiler.compile(topology)
        whole = executor.run_functional(net, plan, x_test[:80])
        chunked = executor.run_functional(
            net, plan, x_test[:80], chunk_bytes=chunk_bytes
        )
        np.testing.assert_array_equal(whole, chunked)

    def test_cnn_chunked(self, executor, compiler, trained_tiny_cnn):
        topology, net, x_test, _ = trained_tiny_cnn
        plan = compiler.compile(topology)
        whole = executor.run_functional(net, plan, x_test[:24])
        chunked = executor.run_functional(
            net, plan, x_test[:24], chunk_bytes=1
        )
        np.testing.assert_array_equal(whole, chunked)


def _layer_by_layer(net, programmed, x, with_noise):
    """Reference for a calibrated Dense chain: each weight layer's
    kernel ``mvm_batch`` (its fused noisy stream included) on the
    bias-augmented input codes, in layer order, outside the plan."""
    weights = iter(programmed)
    act = x
    for layer in net.layers:
        if not isinstance(layer, Dense):
            act = layer.forward(act)
            continue
        p = next(weights)
        vectors = np.hstack([act, np.ones((len(act), 1))])
        codes = p.in_fmt.quantize_int(np.clip(vectors, 0.0, None))
        out = p.kernel.mvm_batch(
            codes, with_noise=with_noise, output_shift=p.output_shift
        )
        act = out * (
            2.0 ** p.output_shift * p.in_fmt.resolution * p.w_fmt.resolution
        )
    return act


class TestSeededNoise:
    def test_noisy_run_reproduces_under_seed(
        self, compiler, trained_tiny_mlp, tiny_digit_data
    ):
        """With noise on the plan delegates to the kernels' seeded
        stream: two same-seed executors agree bit-for-bit, the plan
        equals a layer-by-layer kernel evaluation of the same stream,
        and the per-engine walk (``PRIME_FUSED=0``) reproduces under
        its seed too."""
        topology, net = trained_tiny_mlp
        _, _, x_test, _ = tiny_digit_data
        plan = compiler.compile(topology)
        x = x_test[:16]

        def run(seed, env=None, reference=False):
            import os

            ex = PrimeExecutor(DEFAULT_PRIME_CONFIG)
            programmed = ex.program_network(
                net, plan, rng=np.random.default_rng(seed)
            )
            # Calibration pass (noise off): it never touches the
            # read-noise stream.
            ex.run_functional(net, plan, x, programmed=programmed)
            assert programmed[0].compiled_plan is not None
            if reference:
                return _layer_by_layer(net, programmed, x, True)
            if env:
                os.environ.update(env)
            try:
                return ex.run_functional(
                    net, plan, x, programmed=programmed,
                    with_noise=True,
                )
            finally:
                for k in env or {}:
                    os.environ.pop(k, None)

        a = run(11)
        b = run(11)
        c = run(12)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        np.testing.assert_array_equal(a, run(11, reference=True))
        walked = run(11, env={"PRIME_FUSED": "0"})
        np.testing.assert_array_equal(
            walked, run(11, env={"PRIME_FUSED": "0"})
        )
        assert not np.array_equal(walked, run(12, env={"PRIME_FUSED": "0"}))


class TestTelemetryParity:
    @staticmethod
    def _engine_totals(programmed):
        return (
            sum(
                e.mvm_invocations
                for layer in programmed
                for row in layer.tiles
                for e in row
            ),
            sum(
                e.sense.conversions
                for layer in programmed
                for row in layer.tiles
                for e in row
            ),
        )

    def _counters(self, executor, compiler, trained_tiny_mlp, x, env):
        import os

        topology, net = trained_tiny_mlp
        plan = compiler.compile(topology)
        programmed = executor.program_network(net, plan)
        # Calibrate first, then measure engine counters as a delta
        # across a steady-state run.
        executor.run_functional(net, plan, x, programmed=programmed)
        base = self._engine_totals(programmed)
        session = telemetry.enable(fresh=True)
        try:
            os.environ.update(env)
            try:
                executor.run_functional(
                    net, plan, x, programmed=programmed
                )
            finally:
                for k in env:
                    os.environ.pop(k, None)
            totals = (
                session.metrics.counter_total("mvm.invocations"),
                session.metrics.counter_total("mvm.model_time_ns"),
                session.metrics.counter_total("mvm.energy_nj"),
            )
        finally:
            telemetry.disable()
        assert programmed[0].compiled_plan is not None
        after = self._engine_totals(programmed)
        return (*totals, after[0] - base[0], after[1] - base[1])

    def test_compiled_charges_same_counters(
        self, executor, compiler, trained_tiny_mlp, tiny_digit_data
    ):
        _, _, x_test, _ = tiny_digit_data
        x = x_test[:40]
        compiled = self._counters(
            executor, compiler, trained_tiny_mlp, x, {}
        )
        walked = self._counters(
            executor, compiler, trained_tiny_mlp, x, {"PRIME_FUSED": "0"}
        )
        assert compiled == walked
        assert compiled[0] > 0 and compiled[4] > 0


class TestPlanCache:
    def _programmed_run(self, executor, compiler, trained_tiny_mlp, x):
        topology, net = trained_tiny_mlp
        plan = compiler.compile(topology)
        programmed = executor.program_network(net, plan)
        out = executor.run_functional(net, plan, x, programmed=programmed)
        return net, plan, programmed, out

    def test_plan_cached_across_runs(
        self, executor, compiler, trained_tiny_mlp, tiny_digit_data
    ):
        _, _, x_test, _ = tiny_digit_data
        net, plan, programmed, _ = self._programmed_run(
            executor, compiler, trained_tiny_mlp, x_test[:8]
        )
        host = programmed[0]
        first = host.compiled_plan
        assert isinstance(first, CompiledPlan)
        executor.run_functional(
            net, plan, x_test[:8], programmed=programmed
        )
        assert host.compiled_plan is first

    def test_kernel_invalidation_forces_recompile(
        self, executor, compiler, monkeypatch, trained_tiny_mlp,
        tiny_digit_data,
    ):
        """invalidate() (the resilience remap hook) must stale the
        cached plan; the recompiled plan still matches the walk."""
        _, _, x_test, _ = tiny_digit_data
        net, plan, programmed, before = self._programmed_run(
            executor, compiler, trained_tiny_mlp, x_test[:8]
        )
        host = programmed[0]
        first = host.compiled_plan
        for layer in programmed:
            layer.kernel.invalidate()
        after = executor.run_functional(
            net, plan, x_test[:8], programmed=programmed
        )
        assert host.compiled_plan is not first
        np.testing.assert_array_equal(before, after)
        monkeypatch.setenv("PRIME_FUSED", "0")
        walked = executor.run_functional(
            net, plan, x_test[:8], programmed=programmed
        )
        np.testing.assert_array_equal(after, walked)

    def test_first_call_runs_plan_and_reset_recalibrates(
        self, executor, compiler, monkeypatch, trained_tiny_mlp,
        tiny_digit_data,
    ):
        """A fresh chain's first call returns the plan's output and
        memoises the plan; after reset_calibration() the next call
        recalibrates on its own input, exactly as a fresh chain would."""
        topology, net = trained_tiny_mlp
        _, _, x_test, _ = tiny_digit_data
        plan = compiler.compile(topology)
        returned = []
        execute = CompiledPlan.execute

        def spied(compiled, act, with_noise=False):
            returned.append(execute(compiled, act, with_noise))
            return returned[-1]

        monkeypatch.setattr(CompiledPlan, "execute", spied)
        programmed = executor.program_network(net, plan)
        out = executor.run_functional(
            net, plan, x_test[:8], programmed=programmed
        )
        first = programmed[0].compiled_plan
        assert isinstance(first, CompiledPlan)
        assert len(returned) == 1 and returned[0] is out
        frozen = [p.in_fmt for p in programmed]
        assert None not in frozen

        for layer in programmed:
            layer.reset_calibration()
        x = 4.0 * x_test[8:16]
        again = executor.run_functional(net, plan, x, programmed=programmed)
        assert programmed[0].compiled_plan is not first
        assert all(p.in_fmt is not f for p, f in zip(programmed, frozen))
        fresh = executor.program_network(net, plan)
        expected = executor.run_functional(net, plan, x, programmed=fresh)
        np.testing.assert_array_equal(again, expected)
        assert [(p.in_fmt.exponent, p.output_shift) for p in programmed] == [
            (p.in_fmt.exponent, p.output_shift) for p in fresh
        ]
        assert programmed[0].in_fmt.exponent != frozen[0].exponent

    def test_mismatched_chain_raises(
        self, executor, compiler, trained_tiny_mlp, tiny_digit_data
    ):
        """A programmed list that does not match the network's weight
        layers cannot be lowered: PlanCompileError surfaces."""
        topology, net = trained_tiny_mlp
        _, _, x_test, _ = tiny_digit_data
        plan = compiler.compile(topology)
        programmed = executor.program_network(net, plan)
        with pytest.raises(PlanCompileError):
            executor.run_functional(
                net, plan, x_test[:4], programmed=programmed[:-1]
            )
