"""Differential property test of the compiled plan's count-domain math.

The inline weight step folds the sense amp's pre-shift into its
operands (when every part is aligned), quantises a conv layer's image
before the patch gather, and digitises each row block straight after
its matmul.  Every one of those rewrites must leave the outputs
*bit-identical* to the per-engine tile walk (``PRIME_FUSED=0``) and
charge the same hardware counters.  Hypothesis draws small Dense and
Conv layers (valid and same padding, multi-block fan-ins with short
tail blocks), batch widths on both sides of the packed micro-batch
boundary, SA windows on both sides of the folding boundary, and inputs
one ulp either side of a rounding tie of the input format.

The same harness pins the plan's in-pass calibration: the first call
on a fresh chain, with calibration batches on both sides of
``CALIBRATION_SAMPLES`` and per-sample input scales, must freeze each
layer's input exponent and SA window exactly as the dynamic
fixed-point formula recomputed here from the im2col patches of the
first ``CALIBRATION_SAMPLES`` samples.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.compiler import PrimeCompiler
from repro.core.executor import PrimeExecutor
from repro.nn.layers import Conv2D, Dense
from repro.nn.topology import parse_topology
from repro.params.crossbar import CrossbarParams
from repro.params.memory import MemoryOrganization
from repro.params.prime import PrimeConfig
from repro.params.reram import PT_TIO2_DEVICE
from repro.perf.plan import CALIBRATION_SAMPLES, PACKED_MAX_VECS
from repro.precision.dynamic_fixed_point import DynamicFixedPoint

#: 32-row arrays: fan-ins past 31 span several row blocks, and most
#: leave a short tail block.
CONFIG = PrimeConfig(
    crossbar=CrossbarParams(
        rows=32,
        cols=32,
        sense_amps=8,
        device=dataclasses.replace(
            PT_TIO2_DEVICE, programming_sigma=0.0, read_noise_sigma=0.0
        ),
    ),
    organization=MemoryOrganization(
        subarrays_per_bank=8,
        mats_per_subarray=16,
        mat_rows=32,
        mat_cols=32,
    ),
)
BATCHES = (1, 2, 3, 17, 64)
#: Calibration batches either side of CALIBRATION_SAMPLES.
CAL_BATCHES = (1, 17, 64, 65, 100)


@contextlib.contextmanager
def _env(**values):
    saved = {k: os.environ.get(k) for k in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def _firings(programmed):
    return [
        (e.mvm_invocations, e.sense.conversions)
        for layer in programmed
        for row in layer.tiles
        for e in row
    ]


def _delta(after, before):
    return [(a[0] - b[0], a[1] - b[1]) for a, b in zip(after, before)]


def _build(topology, rng):
    """``topology`` with random (not zero) biases, so the bias drive
    row carries weight through every path."""
    net = topology.build(rng=rng)
    for layer in net.layers:
        if hasattr(layer, "bias"):
            layer.bias[...] = rng.uniform(-0.5, 0.5, layer.bias.shape)
    return net


def _tie_inputs(rng, shape, fmt) -> np.ndarray:
    """Inputs one ulp either side of (or exactly on) ``(k + 0.5) * res``
    ties of ``fmt``, plus some negatives and saturating values."""
    res = fmt.resolution
    codes = rng.integers(-2, fmt.int_max + 3, size=shape)
    ties = (codes + 0.5) * res
    side = rng.integers(-1, 2, size=shape)
    x = np.where(side < 0, np.nextafter(ties, -np.inf), ties)
    return np.where(side > 0, np.nextafter(ties, np.inf), x)


def _scaled_inputs(rng, batch, shape) -> np.ndarray:
    """Uniform inputs, each sample scaled by its own power of two, so
    samples past the calibration prefix can exceed its range."""
    scales = 2.0 ** rng.integers(-3, 4, size=(batch,) + (1,) * len(shape))
    return rng.random((batch, *shape)) * scales


def _expected_calibration(net, programmed, x, pin):
    """Per weight layer, ``(in_fmt.exponent, output_shift)`` by the
    formula: the input format covers the first CALIBRATION_SAMPLES
    samples' im2col vectors and a ones (bias) column; the SA window is
    the smallest shift fitting each tile row's largest exact partial
    of their codes into Po bits.  Activations advance through each
    layer's *frozen* calibration, i.e. what the plan delivered."""
    expected = []
    weights = iter(programmed)
    act = x
    for layer in net.layers:
        if not isinstance(layer, (Dense, Conv2D)):
            act = layer.forward(act)
            continue
        p = next(weights)
        if isinstance(layer, Conv2D):
            patches, _ = layer._columns(act)
            vectors = patches.reshape(-1, patches.shape[-1])
        else:
            vectors = act.reshape(len(act), -1)
        vectors = np.hstack([vectors, np.ones((len(vectors), 1))])
        cal_rows = CALIBRATION_SAMPLES * (len(vectors) // len(act))
        fmt = DynamicFixedPoint.for_data(
            vectors[:cal_rows], bits=pin, signed=False
        )
        codes = fmt.quantize_int(np.clip(vectors[:cal_rows], 0.0, None))
        bound = 1
        for rb, tile_row in enumerate(p.tiles):
            r0 = rb * CONFIG.crossbar.rows
            block = codes[:, r0 : r0 + tile_row[0].rows_used]
            weights_row = np.hstack([e.programmed_weights for e in tile_row])
            bound = max(bound, int(np.max(np.abs(block @ weights_row))))
        po = p.kernel.spec.po
        expected.append((fmt.exponent, max(0, bound.bit_length() - po)))
        out = p.kernel.mvm_batch(
            p.in_fmt.quantize_int(np.clip(vectors, 0.0, None)),
            with_noise=False,
            output_shift=p.output_shift,
        )
        act = out * (
            2.0 ** p.output_shift * p.in_fmt.resolution * p.w_fmt.resolution
        )
        if isinstance(layer, Conv2D):
            act = act.reshape(*patches.shape[:3], -1)
    return expected


@st.composite
def layers(draw):
    """A small network: one Dense, or a Conv2D feeding a Dense."""
    kind = draw(st.sampled_from(["dense", "conv_valid", "conv_same"]))
    if kind == "dense":
        fan_in = draw(st.integers(3, 100))
        out = draw(st.integers(1, 40))
        return parse_topology("prop-dense", f"{fan_in}-{out}")
    kernel = draw(st.integers(1, 3))
    size = draw(st.integers(kernel, 6))
    channels = draw(st.integers(1, 4))
    maps = draw(st.integers(1, 5))
    out = draw(st.integers(1, 6))
    return parse_topology(
        "prop-conv",
        f"conv{kernel}x{maps}-{out}",
        input_shape=(size, size, channels),
        conv_padding=kind[len("conv_") :],
    )


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    topology=layers(),
    batch=st.sampled_from(BATCHES),
    cal_batch=st.sampled_from(CAL_BATCHES),
    shift=st.integers(0, 14),
    seed=st.integers(0, 2**16),
)
def test_compiled_plan_matches_per_engine_walk(
    topology, batch, cal_batch, shift, seed
):
    rng = np.random.default_rng(seed)
    net = _build(topology, rng)
    plan = PrimeCompiler(CONFIG).compile(topology)
    executor = PrimeExecutor(CONFIG)
    programmed = executor.program_network(net, plan)
    shape = tuple(np.atleast_1d(topology.input_shape))
    # The first call calibrates in-pass; then pin the first layer's SA
    # window to the drawn shift, folded or not.
    x_cal = _scaled_inputs(rng, cal_batch, shape)
    executor.run_functional(net, plan, x_cal, programmed=programmed)
    pin = CONFIG.crossbar.effective_input_bits
    assert [(p.in_fmt.exponent, p.output_shift) for p in programmed] == (
        _expected_calibration(net, programmed, x_cal, pin)
    )
    programmed[0].output_shift = shift
    x = _tie_inputs(rng, (batch, *shape), programmed[0].in_fmt)

    before = _firings(programmed)
    compiled = executor.run_functional(net, plan, x, programmed=programmed)
    mid = _firings(programmed)
    step = programmed[0].compiled_plan.steps[0]
    assert step.shift == shift and step.inline_ok
    with _env(PRIME_FUSED="0"):
        walked = executor.run_functional(
            net, plan, x, programmed=programmed
        )
    after = _firings(programmed)

    np.testing.assert_array_equal(compiled, walked)
    assert _delta(mid, before) == _delta(after, mid)


@pytest.mark.parametrize(
    "shift, folded", [(3, False), (7, True), (11, True), (13, False)]
)
@pytest.mark.parametrize("batch", [1, PACKED_MAX_VECS + 1, 33])
def test_folding_boundary(shift, folded, batch):
    """The pre-shift folds exactly when every part is aligned (post ==
    1); both sides, packed and trimmed widths, match the walk."""
    topology = parse_topology("fold", "70-12")
    rng = np.random.default_rng(shift * 100 + batch)
    net = _build(topology, rng)
    plan = PrimeCompiler(CONFIG).compile(topology)
    executor = PrimeExecutor(CONFIG)
    programmed = executor.program_network(net, plan)
    executor.run_functional(
        net, plan, rng.random((8, 70)), programmed=programmed
    )
    programmed[0].output_shift = shift
    x = _tie_inputs(rng, (batch, 70), programmed[0].in_fmt)
    compiled = executor.run_functional(net, plan, x, programmed=programmed)
    step = programmed[0].compiled_plan.steps[0]
    assert step.folded is folded
    with _env(PRIME_FUSED="0"):
        walked = executor.run_functional(
            net, plan, x, programmed=programmed
        )
    np.testing.assert_array_equal(compiled, walked)



@pytest.mark.parametrize("padding", ["valid", "same"])
@pytest.mark.parametrize(
    "panel_macs, panel_min_rows", [(1 << 18, 256), (4096, 8)]
)
def test_conv_row_panels(monkeypatch, padding, panel_macs, panel_min_rows):
    """A conv layer's matmul in one call, or split into row panels
    with a short last panel, matches the walk bit for bit and charges
    the same counters."""
    import repro.perf.plan as plan_mod

    monkeypatch.setattr(plan_mod, "_PANEL_MACS", panel_macs)
    monkeypatch.setattr(plan_mod, "_PANEL_MIN_ROWS", panel_min_rows)
    topology = parse_topology(
        "panels", "conv3x4-6", input_shape=(8, 8, 2), conv_padding=padding
    )
    rng = np.random.default_rng(panel_macs)
    net = _build(topology, rng)
    plan = PrimeCompiler(CONFIG).compile(topology)
    executor = PrimeExecutor(CONFIG)
    programmed = executor.program_network(net, plan)
    executor.run_functional(
        net, plan, rng.random((8, 8, 8, 2)), programmed=programmed
    )
    x = _tie_inputs(rng, (5, 8, 8, 2), programmed[0].in_fmt)
    before = _firings(programmed)
    compiled = executor.run_functional(net, plan, x, programmed=programmed)
    mid = _firings(programmed)
    step = programmed[0].compiled_plan.steps[0]
    panel = panel_macs // step.w_blocks[0].size
    rows = 2 * len(x) * (8 * 8 if padding == "same" else 6 * 6)
    assert (panel_min_rows <= panel < rows) == (panel_macs == 4096)
    assert rows % panel != 0
    with _env(PRIME_FUSED="0"):
        walked = executor.run_functional(
            net, plan, x, programmed=programmed
        )
    after = _firings(programmed)
    np.testing.assert_array_equal(compiled, walked)
    assert _delta(mid, before) == _delta(after, mid)
