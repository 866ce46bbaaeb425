"""Plan-compiled megakernel: whole-network functional execution.

:meth:`PrimeExecutor.run_functional` executes every chunk through a
:class:`CompiledPlan`: a :class:`ProgrammedLayer` chain lowered into a
flat step list once, at deploy time, instead of rebuilding the
bias-augmented vector matrix, quantising through ``DynamicFixedPoint``
object calls and re-deriving the digitisation constants layer by layer
on every chunk:

* each row block gets its own right-sized weight matrix, so short
  tail blocks never pad to the block size;
* the frozen calibration formats are baked into scalar constants
  (``1/resolution``, saturation bounds, the sense amp's pre/post
  tables), so no format objects are touched on the hot path;
* at the default operating point (every partial product aligned in
  the SA window) the SA pre-shift is *folded* into the operands: the
  weight columns carry ``pre[hi phase, half]`` from compile time, and
  the quantiser leaves the lo drive phase scaled by ``2**-(pin//2)``
  (the ratio of the two phases' pre-shifts, which it gets for free),
  so each row block's matmul yields ``count * pre`` directly;
* the quantiser writes one float32 drive matrix (hi halves in rows
  ``[:n]``, lo in ``[n:]``) whose column slices every row block's
  matmul reads in place; each block is digitised straight after its
  matmul into one float32 accumulator, scaled to float64 at the end;
* conv layers quantise the image, then gather float32 codes (bias
  and sentinel columns included) through a precomputed patch map;
  their narrow, memory-bound matmuls run in row panels small enough
  for BLAS to keep on the calling thread;
* micro-batches (``<= PACKED_MAX_VECS`` vectors) evaluate through a
  *packed* weight stack that fuses the hi/lo weight halves into one
  float32 field pair — halving the streamed weight bytes in the
  latency regime where the matmul is bandwidth-bound.

Exactness: with noise off on ideal arrays every count is an integer
inside the float dtype's contiguous-integer range (the same invariant
:class:`FusedLayerKernel` relies on).  Folding scales by powers of
two, and every partial sum of a folded matmul stays a multiple of
that part's ``pre`` below that bound, so it is exact too.  ``rint`` and
``clip`` of the input codes run in float64 before narrowing to
float32 (narrowing first would double-round values near ``k + 0.5``).
Digitised values are integers, and the float32 accumulator holds
their sum exactly while ``limit * sum(post) * row_blocks < 2**24``,
checked at compile time.  So the compiled path is bit-identical to
the fused and per-engine paths.  The packed stack keeps two
12-bit-separated integer fields whose dot products stay below
``2**24`` per 16-row sub-block, so float32 matmul and ``rint`` field
extraction are exact too.  Layers that cannot take the exact inline
path (read noise on, resilience-remapped tiles, non-ideal arrays)
delegate to ``FusedLayerKernel.mvm_batch``, which applies its own
fused-noisy or per-engine fallback — semantics, seeded noise
reproducibility, and telemetry counters are preserved in every case.
``PRIME_FUSED=0`` sends every weight step down that delegate path to
the per-engine tile walk, the oracle the other paths are tested
against.

Calibration is part of the plan: a step whose layer is not yet
calibrated freezes the layer's input format and SA output window on
its first run, from the first :data:`CALIBRATION_SAMPLES` samples of
the input that run receives, then lowers itself.  So every chunk,
a fresh chain's first one included, executes the compiled plan.
"""

from __future__ import annotations

import threading

import numpy as np

from repro import telemetry
from repro.errors import ExecutionError
from repro.nn.layers import Conv2D, Dense
from repro.nn.network import Sequential
from repro.perf.kernels import digitise, fused_enabled, sa_window
from repro.precision.dynamic_fixed_point import DynamicFixedPoint

__all__ = [
    "CALIBRATION_SAMPLES",
    "PlanCompileError",
    "PlanWorkspace",
    "CompiledPlan",
]

#: Samples used to freeze a layer's input format and SA output window.
CALIBRATION_SAMPLES = 64
#: Row width of the packed small-batch weight sub-blocks.  16 rows of
#: (7 * 15)-bounded products keep each field below 2**11, so the two
#: fields separate exactly at a 2**12 spacing inside float32 (see
#: :meth:`_WeightStep._packed_stack`).
PACKED_SUB_ROWS = 16
#: Field separation of the packed weight stack.
PACKED_FIELD_BITS = 12
#: Largest vector count routed through the packed stack.  Beyond a few
#: vectors the matmul turns compute-bound and the un-packed trimmed
#: stacks win; at one or two vectors the packed stack halves the
#: streamed weight bytes (measured crossover on MLP-L: batch 2-4).
PACKED_MAX_VECS = 2
#: Buffer sets cached per weight step (one per distinct batch width).
_MAX_BUFFER_SETS = 8
#: A row block whose panels of ``_PANEL_MACS`` (a GEMM OpenBLAS keeps
#: on the calling thread) hold ``_PANEL_MIN_ROWS`` rows multiplies in
#: such panels (see :meth:`_WeightStep._digitise_blocks`).
_PANEL_MACS, _PANEL_MIN_ROWS = 1 << 18, 256


class PlanCompileError(ExecutionError):
    """The programmed state cannot be lowered into a compiled plan."""


class PlanWorkspace:
    """One lease's worth of scratch stores, one dict per plan step.

    Every mutable hot-path buffer a :class:`CompiledPlan` touches lives
    here (keyed per step by batch width), so two executions holding
    *different* workspaces never write the same array — the shared plan
    keeps only read-only weight/conductance stacks and compile-time
    constants.  Leased/released by :meth:`CompiledPlan.execute`; the
    pool hands a thread its previous workspace back (LIFO), so steady
    per-thread traffic reuses warm buffers exactly like the old
    per-plan cache did.
    """

    __slots__ = ("stores",)

    def __init__(self, n_steps: int) -> None:
        self.stores: list[dict] = [{} for _ in range(n_steps)]


class _ForwardStep:
    """A non-weight layer: plain ``layer.forward``."""

    __slots__ = ("layer",)

    def __init__(self, layer) -> None:
        self.layer = layer

    def valid(self) -> bool:
        return True

    def run(
        self, act: np.ndarray, with_noise: bool, store: dict
    ) -> np.ndarray:
        return self.layer.forward(act)


class _WeightStep:
    """One mapped weight layer, lowered to preallocated array math.

    The layer's geometry is fixed at construction; its calibration
    constants are baked by :meth:`_lower`, at construction when the
    layer is calibrated, else on the first run, which calibrates the
    layer first (:meth:`_calibrate`).  Two execution paths:

    * ``inline`` — the exact noise-free count-domain math, fully in
      place (requires :meth:`FusedLayerKernel.can_fuse` for the
      noise-free regime at lowering time, and ``PRIME_FUSED`` on);
    * ``delegate`` — :meth:`FusedLayerKernel.mvm_batch`, which keeps
      the fused-noisy and per-engine paths (remapped tiles, non-ideal
      arrays, read noise, ``PRIME_FUSED=0``) bit-identical to the
      per-engine tile walk.
    """

    def __init__(self, layer, programmed, pin: int) -> None:
        kernel = programmed.kernel
        spec = kernel.spec
        self.layer = layer
        self.programmed = programmed
        self.kernel = kernel
        self.pin = pin
        self.is_conv = isinstance(layer, Conv2D)
        self.lo_div = float(1 << (spec.pin // 2))
        self.inv_lo_div = 1.0 / self.lo_div
        self.t = kernel.total_cols
        self.rb = kernel.row_blocks
        self.rows_used = list(kernel.rows_used)
        self.total_rows = kernel.total_rows
        self.offs = [0]
        for rows in self.rows_used:
            self.offs.append(self.offs[-1] + rows)
        self.limit = float((1 << spec.po) - 1)
        # Packed micro-batch geometry; the stack is built lazily.
        in_max = (1 << (spec.pin - spec.pin // 2)) - 1
        w_max = (1 << (spec.pw - spec.pw // 2)) - 1
        sub_bound = PACKED_SUB_ROWS * in_max * w_max
        self.pack_scale = float(1 << PACKED_FIELD_BITS)
        self._pack_fits = (
            sub_bound < (1 << (PACKED_FIELD_BITS - 1))
            and sub_bound * (self.pack_scale + 1.0) < float(1 << 24)
        )
        self.sub_counts = [
            -(-r // PACKED_SUB_ROWS) for r in self.rows_used
        ]
        self.S = sum(self.sub_counts)
        # Sub-blocks of row block i span [sub_offs[i], sub_offs[i+1])
        # along the packed axis.
        self.sub_offs = np.cumsum([0] + self.sub_counts)
        # Gather map from packed (sub_block, row) position to a column
        # of the drive matrix; tail padding points at the all-zero
        # sentinel column appended after the bias row.
        gather = np.full(self.S * PACKED_SUB_ROWS, self.total_rows)
        pos = 0
        for i in range(self.rb):
            rows = self.rows_used[i]
            gather[pos : pos + rows] = np.arange(
                self.offs[i], self.offs[i] + rows
            )
            pos += self.sub_counts[i] * PACKED_SUB_ROWS
        self.pack_gather = gather
        self.pack_ones = np.ones(max(self.sub_counts), dtype=np.float32)
        # Shared lazy caches: read-only once built, and a concurrent
        # duplicate build is idempotent (deterministic values), so they
        # stay on the step; mutable scratch lives in the leased
        # :class:`PlanWorkspace` stores instead.
        self._w_pack: np.ndarray | None = None
        self._im2col: dict[tuple, tuple] = {}
        #: The frozen input format this step is lowered for (None
        #: until :meth:`_lower`).
        self.in_fmt = None
        if programmed.in_fmt is not None:
            self._lower()

    # -- compile-time pieces -------------------------------------------

    def _calibrate(self, act: np.ndarray) -> None:
        """Freeze the layer's calibration from this run's input.

        The input format covers the first ``CALIBRATION_SAMPLES``
        samples' activations and the bias input 1; the SA output window
        fits the largest per-tile-row partial of their code rows into
        the Po-bit register.  ``act`` is what this pass delivers (read
        noise included), so chunked and unchunked runs, and noise-on
        runs, freeze what the layer actually sees.  Later inputs outside
        the frozen range saturate in the quantiser, as a fixed hardware
        reference would.  This mutates the shared programmed layer:
        callers that share one chain across threads run its first chunk
        exclusively (the thread dispatcher does).
        """
        head = act[:CALIBRATION_SAMPLES]
        in_fmt = DynamicFixedPoint.for_data(
            np.append(head, 1.0), bits=self.pin, signed=False
        )
        rows = self._code_rows(head, in_fmt)
        self.programmed.in_fmt = in_fmt
        self.programmed.output_shift = self.kernel.calibrate_output_shift(
            rows, calibration_samples=len(rows)
        )

    def _lower(self) -> None:
        """Bake the layer's frozen calibration into scalar constants,
        SA tables and (folded) weight blocks."""
        programmed = self.programmed
        kernel = self.kernel
        self.in_fmt = programmed.in_fmt
        self.shift = int(programmed.output_shift)
        self.scale = (
            (2.0 ** programmed.output_shift)
            * programmed.in_fmt.resolution
            * programmed.w_fmt.resolution
        )
        # Resolution is a power of two, so multiplying by its inverse
        # equals quantize_int's division.
        self.inv_in_res = 1.0 / self.in_fmt.resolution
        self.code_max = float(self.in_fmt.int_max)
        w_cat = kernel.weight_stack()
        self.cdtype = w_cat.dtype
        self.pre, self.post = (
            table.astype(self.cdtype)
            for table in sa_window(kernel.spec, self.shift)
        )
        # Inline exactness: the noise-free fused regime, plus digitised
        # sums (accumulated in the count dtype) that stay integers
        # inside its contiguous-integer range (see digitise).
        sum_ok = (
            self.cdtype != np.float32
            or self.limit * float(self.post.sum()) * self.rb
            < float(1 << 24)
        )
        self.inline_ok = kernel.can_fuse(with_noise=False) and sum_ok
        self.packed_ok = (
            self.inline_ok and self.cdtype == np.float32 and self._pack_fits
        )
        # Folded SA pre-shift (see the module docstring): with every
        # part aligned (post == 1), pre[lo, half] = pre[hi, half] *
        # 2**-(pin//2) (pin and pw are even), so weight columns carry
        # pre[hi, half] and the lo drive phase 2**-(pin//2).
        self.folded = bool(np.all(self.post == 1.0))
        self.pre_rest = None if self.folded else self.pre
        self.post_rest = None if self.folded else self.post
        # Per row block, the (rows, 2*t) matrix its matmul reads;
        # unfolded ones are views of the kernel's stack.
        self.w_blocks = [w_cat[i, :r] for i, r in enumerate(self.rows_used)]
        if self.folded:
            cols = np.repeat(self.pre[0], self.t)
            self.w_blocks = [w * cols for w in self.w_blocks]
        self._w_ref = w_cat

    def valid(self) -> bool:
        """Whether the programmed state still matches this lowering
        (for a step not lowered yet: whether its layer is still
        uncalibrated)."""
        if self.in_fmt is None:
            return self.programmed.in_fmt is None
        return (
            self.programmed.in_fmt is self.in_fmt
            and self.programmed.output_shift == self.shift
            and self.kernel._w_cat is self._w_ref
        )

    def _packed_stack(self) -> np.ndarray:
        """(sub_blocks, PACKED_SUB_ROWS, cols) packed weight fields.

        Each 256-row block splits into 16-row sub-blocks whose hi/lo
        signed weight halves pack as ``hi * 2**12 + lo`` in one float32
        value.  A sub-block dot product against 3-bit input halves is
        bounded by ``16 * 7 * 15 = 1680 < 2**11``, so the packed
        product ``A * 2**12 + B`` stays below ``2**24`` (exact float32
        matmul) and ``rint(v / 2**12)`` recovers the hi field exactly
        (``|B| / 2**12 < 0.5``).
        """
        if self._w_pack is None:
            sub = PACKED_SUB_ROWS
            w_cat = self._w_ref
            w_pack = np.zeros((self.S, sub, self.t), dtype=np.float32)
            s0 = 0
            for i in range(self.rb):
                rows = self.rows_used[i]
                sc = self.sub_counts[i]
                padded = np.zeros((sc * sub, 2 * self.t), dtype=np.float32)
                padded[:rows] = w_cat[i, :rows]
                blocks = padded.reshape(sc, sub, 2 * self.t)
                w_pack[s0 : s0 + sc] = (
                    blocks[:, :, : self.t] * self.pack_scale
                    + blocks[:, :, self.t :]
                )
                s0 += sc
            self._w_pack = w_pack
        return self._w_pack

    def _buffer_set(self, shape: tuple, n: int, store: dict) -> dict:
        """Preallocated working set for inputs of ``shape`` (``n`` drive
        vectors).

        ``store`` is this step's slot in the executing lease's
        :class:`PlanWorkspace` — never shared between concurrent
        executions, so everything below may be written in place.
        Widths up to ``PACKED_MAX_VECS`` take the packed stack (which
        needs unscaled drive halves); wider ones the folded stacks.
        """
        buffers = store.get(shape)
        if buffers is not None:
            return buffers
        if len(store) >= _MAX_BUFFER_SETS:
            store.pop(next(iter(store)))
        packed = self.packed_ok and n <= PACKED_MAX_VECS
        fold = self.folded and not packed
        k = self.total_rows - 1
        # Rows [:n] drive the hi input halves, [n:] the lo halves.  One
        # extra column past the bias row: the all-zero sentinel the
        # packed gather map points tail padding at.
        drive = np.zeros((2 * n, k + 2), dtype=self.cdtype)
        ones = np.ones((n, 1))
        self._quantise(
            ones, ones.copy(), drive[:n, k : k + 1], drive[n:, k : k + 1],
            fold,
        )
        buffers = {
            "packed": packed,
            "fold": fold,
            "drive": drive,
            # Where the quantiser writes the hi/lo halves of an input.
            "halves": (drive[:n, :k], drive[n:, :k]),
            "q": np.empty(shape),
            "block": np.empty((2 * n, 2 * self.t), dtype=self.cdtype),
            "part": np.empty((n, self.t), dtype=self.cdtype),
            "acc": np.empty((n, self.t), dtype=self.cdtype),
            "out": np.empty((n, self.t)),
        }
        if self.is_conv:
            # The image's hi (rows [:b]) and lo ([b:]) halves, padded
            # and flattened, then the bias and zero-sentinel slots that
            # the patch map gathers as the last two drive columns.
            b, h, w, c = shape
            p = self.layer.pad
            img = np.zeros(
                (2 * b, (h + 2 * p) * (w + 2 * p) * c + 2), dtype=self.cdtype
            )
            img[:, -2] = np.repeat(drive[[0, n], k], b)
            inner = img[:, :-2].reshape(2, b, h + 2 * p, w + 2 * p, c)
            inner = inner[:, :, p : p + h, p : p + w]
            buffers["img"] = img
            buffers["halves"] = (inner[0], inner[1])
        if packed:
            buffers["counts"] = np.empty(
                (self.rb, 2 * n, 2 * self.t), dtype=np.float32
            )
            buffers["drive_pack"] = np.empty(
                (self.S, 2 * n, PACKED_SUB_ROWS), dtype=np.float32
            )
            buffers["v_pack"] = np.empty(
                (self.S, 2 * n, self.t), dtype=np.float32
            )
            buffers["a_pack"] = np.empty_like(buffers["v_pack"])
            buffers["red_tmp"] = np.empty(2 * n * self.t, dtype=np.float32)
            # Per drive-phase row: the hi and lo halves' SA pre-shift,
            # the lo one with the pack scale P folded in.
            phase = np.repeat(np.arange(2), n)
            buffers["pack_pre"] = (
                self.pre[phase, :1],
                self.pre[phase, 1:] * self.pack_scale,
            )
        store[shape] = buffers
        return buffers

    def _im2col_map(self, shape: tuple) -> tuple:
        """Precomputed patch-gather index map for one input geometry.

        Indexes a padded sample flattened and extended by two slots
        (bias, zero sentinel) — one drive row of ``total_rows + 1``
        columns per output pixel.
        """
        cached = self._im2col.get(shape)
        if cached is None:
            h, w, c = shape
            p = self.layer.pad
            hp, wp = h + 2 * p, w + 2 * p
            k = self.layer.kernel
            oh, ow = hp - k + 1, wp - k + 1
            # (oh, ow, k, k, c) flat indices into one padded sample.
            i0 = np.arange(oh)[:, None, None, None, None]
            j0 = np.arange(ow)[None, :, None, None, None]
            di = np.arange(k)[None, None, :, None, None]
            dj = np.arange(k)[None, None, None, :, None]
            ch = np.arange(c)[None, None, None, None, :]
            idx = ((i0 + di) * wp + (j0 + dj)) * c + ch
            slots = hp * wp * c + np.arange(2)
            idx = np.concatenate(
                [
                    idx.reshape(oh * ow, -1),
                    np.broadcast_to(slots, (oh * ow, 2)),
                ],
                axis=1,
            )
            cached = (idx.reshape(-1), oh, ow)
            self._im2col[shape] = cached
        return cached

    # -- execution ------------------------------------------------------

    def run(
        self, act: np.ndarray, with_noise: bool, store: dict
    ) -> np.ndarray:
        if telemetry.enabled():
            with telemetry.span(
                "executor.layer", layer=type(self.layer).__name__
            ):
                return self._run(act, with_noise, store)
        return self._run(act, with_noise, store)

    def _run(
        self, act: np.ndarray, with_noise: bool, store: dict
    ) -> np.ndarray:
        if self.is_conv:
            if act.ndim != 4:
                raise ExecutionError(
                    f"conv layer expects image activations, got "
                    f"{act.shape}"
                )
        elif act.ndim != 2:
            act = act.reshape(act.shape[0], -1)
        if self.in_fmt is None:
            self._calibrate(act)
            self._lower()
        inline = (
            self.inline_ok
            and fused_enabled()
            and not (with_noise and self.kernel._noisy(True))
        )
        if inline:
            result = self._inline(act, store)
        else:
            result = self._delegate(act, with_noise)
        if self.is_conv:
            _, oh, ow = self._im2col_map(act.shape[1:])
            result = result.reshape(act.shape[0], oh, ow, -1)
        return result

    def _code_rows(self, act: np.ndarray, in_fmt) -> np.ndarray:
        """``(vectors, total_rows)`` integer drive codes of ``act`` in
        ``in_fmt``: one row per sample (per output pixel for a conv
        layer), bias code last, quantised before the patch gather like
        the inline path."""
        b = act.shape[0]
        codes = in_fmt.quantize_int(np.clip(act, 0.0, None))
        if self.is_conv:
            p = self.layer.pad
            codes = np.pad(codes, ((0, 0), (p, p), (p, p), (0, 0)))
        rows = np.zeros((b, codes[0].size + 2), dtype=np.int64)
        rows[:, :-2] = codes.reshape(b, -1)
        rows[:, -2] = in_fmt.quantize_int(np.ones(1))[0]
        if self.is_conv:
            idx, _, _ = self._im2col_map(act.shape[1:])
            rows = rows[:, idx].reshape(-1, self.total_rows + 1)
        return rows[:, : self.total_rows]

    def _delegate(self, act: np.ndarray, with_noise: bool) -> np.ndarray:
        """Kernel dispatch (fused-noisy, or the per-engine walk) on the
        layer's code rows."""
        outputs = self.kernel.mvm_batch(
            self._code_rows(act, self.in_fmt),
            with_noise=with_noise,
            output_shift=self.shift,
        )
        return outputs * self.scale

    def _quantise(self, x, q, hi, lo, fold: bool) -> None:
        """Quantise ``x`` straight into the hi/lo drive halves.

        Bit-identical to ``in_fmt.quantize_int`` + ``split_unsigned``:
        the resolution is a power of two, clipping after rounding
        equals clipping before, and with ``c = code / 2**(pin//2)``
        (exact) ``floor(c)`` is the hi half and ``c - floor(c)`` the lo
        half times ``2**-(pin//2)`` — the folded lo drive scale, undone
        unless ``fold``.  ``rint`` runs on the float64 scratch ``q``
        before the codes narrow into the drive dtype (see the module
        docstring).
        """
        np.multiply(x, self.inv_in_res, out=q)
        np.rint(q, out=q)
        np.clip(q, 0.0, self.code_max, out=q)
        np.multiply(q, self.inv_lo_div, out=lo)
        np.floor(lo, out=hi)
        lo -= hi
        if not fold:
            lo *= self.lo_div

    def _inline(self, act: np.ndarray, store: dict) -> np.ndarray:
        n = act.shape[0]
        if self.is_conv:
            idx, oh, ow = self._im2col_map(act.shape[1:])
            n *= oh * ow
        buffers = self._buffer_set(act.shape, n, store)
        drive = buffers["drive"]
        self._quantise(
            act, buffers["q"], *buffers["halves"], buffers["fold"]
        )
        if self.is_conv:
            # Quantising the image before the patch gather equals
            # quantising the gathered patches (elementwise, and zero
            # padding quantises to zero), on ~k*k fewer values.
            img = buffers["img"]
            np.take(
                img, idx, axis=1, out=drive.reshape(len(img), -1),
                mode="clip",
            )
        out = buffers["out"]
        if buffers["packed"]:
            self._packed_counts(drive, buffers, n)
            digitise(buffers["counts"], None, self.post_rest, self.limit, out)
            out *= self.scale
        else:
            self._digitise_blocks(drive, buffers)
            np.multiply(buffers["acc"], self.scale, out=out, dtype=np.float64)
        self.kernel.charge(n, self.shift)
        return out

    def _digitise_blocks(self, drive, buffers) -> None:
        """Per row block: matmul against its weight stack (reading a
        column slice of the drive in place), then digitise straight
        away, summing into ``acc``.

        A narrow block (a conv layer's few output channels) is a
        memory-bound GEMM that a second BLAS thread barely speeds up but
        makes wait for a second core.  With that core busy (2-vCPU VM),
        CNN-1 batch 64 took a median 8.9 / 8.1 ms per call in row panels
        against 13.6 / 8.5 ms threaded in two interleaved runs, and the
        same when idle.  Exact counts make any split exact.
        """
        block, acc, part = buffers["block"], buffers["acc"], buffers["part"]
        pre, post = self.pre_rest, self.post_rest
        for i, w in enumerate(self.w_blocks):
            off = self.offs[i]
            rows = drive[:, off : off + self.rows_used[i]]
            panel = _PANEL_MACS // w.size
            if panel < _PANEL_MIN_ROWS:
                panel = len(rows)
            for r in range(0, len(rows), panel):
                np.matmul(rows[r : r + panel], w, out=block[r : r + panel])
            if i == 0:
                digitise(block, pre, post, self.limit, acc)
            else:
                acc += digitise(block, pre, post, self.limit, part)

    def _packed_counts(self, drive, buffers, n: int) -> None:
        """Pre-shifted count planes via the packed micro-batch stack.

        The row-block order of ``counts`` matches the layer layout;
        only the field extraction differs from the trimmed path, and
        every step is exact (see :meth:`_packed_stack`).  The SA
        pre-shift is applied as the sub-block sums are stored, so
        :func:`digitise` gets ``count * pre`` as from folded stacks.
        """
        w_pack = self._packed_stack()
        sub = PACKED_SUB_ROWS
        dp = buffers["drive_pack"]
        dp[...] = (
            drive[:, self.pack_gather]
            .reshape(2 * n, self.S, sub)
            .transpose(1, 0, 2)
        )
        counts = buffers["counts"]
        v = buffers["v_pack"]
        a = buffers["a_pack"]
        tmp = buffers["red_tmp"]
        pre_hi, pre_lo = buffers["pack_pre"]
        t = self.t
        # Per row block, while the segment is cache-hot: packed matmul,
        # three-pass field extraction (a <- v / P, v <- rint(a) = the
        # hi field A, a <- a - v = B / P, exact: B spans 11 bits
        # against P = 2**12, and partial sums of at most 16 sub-block
        # terms stay inside float32's exact dyadic range), then a
        # ones-vector GEMV sums the sub-blocks.  The P restore and the
        # pre-shift fold into storing the reduced array, 16x smaller.
        for i in range(self.rb):
            s0, s1 = self.sub_offs[i], self.sub_offs[i + 1]
            sc = s1 - s0
            vs = v[s0:s1]
            a_s = a[s0:s1]
            np.matmul(dp[s0:s1], w_pack[s0:s1], out=vs)
            np.multiply(vs, 1.0 / self.pack_scale, out=a_s)
            np.rint(a_s, out=vs)
            a_s -= vs
            np.dot(self.pack_ones[:sc], vs.reshape(sc, -1), out=tmp)
            np.multiply(tmp.reshape(2 * n, t), pre_hi, out=counts[i, :, :t])
            np.dot(self.pack_ones[:sc], a_s.reshape(sc, -1), out=tmp)
            np.multiply(tmp.reshape(2 * n, t), pre_lo, out=counts[i, :, t:])


class CompiledPlan:
    """A programmed network lowered into one flat execution schedule.

    Built by :meth:`compile` from a programmed-layer chain, calibrated
    or not (an uncalibrated layer calibrates on its step's first run);
    :meth:`execute` runs every chunk of ``run_functional``.  The plan
    holds *references* to the programmed state (engines, kernels,
    formats) — :meth:`matches` detects reprogramming / recalibration /
    kernel invalidation, and the executor recompiles when it no longer
    holds.
    """

    def __init__(self, network, layers, pin, steps) -> None:
        self.network = network
        self.layers = list(layers)
        self.pin = pin
        self.steps = steps
        # Workspace lease pool: each concurrent execute() holds its own
        # scratch stores, making the plan re-entrant over the shared
        # read-only weight stacks (thread replicas, PR 10).
        self._ws_lock = threading.Lock()
        self._ws_free: list[PlanWorkspace] = []
        self._ws_allocated = 0

    # -- workspace leasing ---------------------------------------------

    def _lease(self) -> PlanWorkspace:
        with self._ws_lock:
            if self._ws_free:
                return self._ws_free.pop()
            self._ws_allocated += 1
        return PlanWorkspace(len(self.steps))

    def _release(self, workspace: PlanWorkspace) -> None:
        with self._ws_lock:
            self._ws_free.append(workspace)

    @property
    def workspaces_allocated(self) -> int:
        """Workspaces ever created (peak concurrency watermark)."""
        with self._ws_lock:
            return self._ws_allocated

    @property
    def leases_outstanding(self) -> int:
        """Workspaces currently held by an in-flight execution."""
        with self._ws_lock:
            return self._ws_allocated - len(self._ws_free)

    def prewarm(self, count: int) -> None:
        """Ensure at least ``count`` workspaces exist in the pool.

        Scale-up cost for a thread replica is exactly this: allocate
        scratch stores (microseconds), never re-program weights.
        """
        with self._ws_lock:
            missing = count - self._ws_allocated
            if missing <= 0:
                return
            self._ws_allocated += missing
            self._ws_free.extend(
                PlanWorkspace(len(self.steps)) for _ in range(missing)
            )

    @classmethod
    def compile(
        cls, network: Sequential, layers: list, pin: int
    ) -> "CompiledPlan":
        """Lower ``network`` over its programmed layers.

        Raises :class:`PlanCompileError` when the programmed layers do
        not line up with the network's weight layers.
        """
        weight_layers = [
            l for l in network.layers if isinstance(l, (Dense, Conv2D))
        ]
        if len(weight_layers) != len(layers):
            raise PlanCompileError(
                f"network has {len(weight_layers)} weight layers but "
                f"{len(layers)} programmed layers were supplied"
            )
        steps = []
        idx = 0
        for layer in network.layers:
            if isinstance(layer, (Dense, Conv2D)):
                steps.append(_WeightStep(layer, layers[idx], pin))
                idx += 1
            else:
                steps.append(_ForwardStep(layer))
        plan = cls(network, layers, pin, steps)
        telemetry.count("perf.plan.compiles")
        return plan

    def matches(self, network: Sequential, layers: list, pin: int) -> bool:
        """Whether this plan still describes ``(network, layers)``.

        Identity of the network, the programmed layers, the frozen
        calibration objects, and the kernels' cached weight stacks —
        any reprogramming or recalibration breaks one of these and
        triggers a recompile.
        """
        return (
            self.network is network
            and self.pin == pin
            and len(self.layers) == len(layers)
            and all(a is b for a, b in zip(self.layers, layers))
            and all(step.valid() for step in self.steps)
        )

    def execute(self, act: np.ndarray, with_noise: bool = False):
        """One chunk's pass through the flat step list.

        Re-entrant: each call leases a private :class:`PlanWorkspace`
        for its scratch buffers (released in ``finally``, so the pool
        returns to full even when a step raises) while the weight
        stacks stay shared and read-only.  The final activation is
        copied out when the last step is a weight layer: its inline
        path returns a workspace buffer that the workspace's next
        execution would otherwise overwrite in place.
        """
        workspace = self._lease()
        try:
            for step, store in zip(self.steps, workspace.stores):
                act = step.run(act, with_noise, store)
            if isinstance(self.steps[-1], _WeightStep):
                act = act.copy()
        finally:
            self._release(workspace)
        return act
