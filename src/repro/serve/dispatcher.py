"""Replica-parallel dispatch of micro-batches onto programmed workers.

A :class:`~repro.core.scheduler.BankScheduler` grant gives a
deployment ``R`` replica bank groups — ``R`` independent copies of the
programmed network.  The dispatcher turns that grant into execution
capacity:

* **process mode** — a persistent ``ProcessPoolExecutor`` with one
  worker per replica.  Each worker programs its copy *exactly once*
  (in the pool initializer) and serves every subsequent micro-batch
  from the cached :class:`~repro.core.executor.ProgrammedLayer` list
  with frozen calibration; batches round-robin across workers.
* **thread mode** — replica threads over one shared programmed copy
  (:class:`ThreadDispatcher`).
* **serial mode** — the in-process fallback (sandboxes without fork,
  ``mode="serial"``): one programmed copy served inline.  Same
  numbers, no overlap.

Process mode pickles batch inputs and result envelopes through the
pool pipe.  A micro-batch is at most a few MB, and pickling it costs
about 1% or less of the time the batch takes to execute.

All replicas program from one :class:`WorkerSpec` (same seed), so they
hold bit-identical state and results never depend on which replica a
batch lands on.  With noise enabled, every micro-batch additionally
reseeds the engines' shared noise stream from a per-batch seed
(:meth:`~repro.perf.kernels.FusedLayerKernel.reseed_noise`), keyed by
batch index via :func:`repro.perf.parallel.task_seed` — noisy serving
is reproducible and routing-independent too.
"""

from __future__ import annotations

import contextlib
import logging
import os
import pickle
import signal
import threading
import time
import warnings
from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.core.executor import PrimeExecutor, ProgrammedLayer
from repro.core.mapping import MappingPlan
from repro.device.faults import env_fault_rates
from repro.errors import ConfigurationError
from repro.nn.network import Sequential
from repro.params.prime import PrimeConfig
from repro.perf.kernels import fused_enabled, scoped_noise_stream
from repro.perf.parallel import ParallelFallbackWarning, task_seed
from repro.resilience.policy import ResiliencePolicy
from repro.serve.health import WorkerCrash, apply_drift
from repro.telemetry.shipping import ResultEnvelope, run_scoped

__all__ = [
    "WorkerSpec",
    "pool_timeout_s",
    "dispatch_mode",
    "batch_noise_seed",
    "program_state",
    "run_programmed",
    "run_programmed_shared",
    "reprogram_state",
    "spec_resident_bytes",
    "SerialDispatcher",
    "ThreadDispatcher",
    "ProcessDispatcher",
    "POOL_SPAWN_FAILURES",
    "serial_fallback",
    "make_dispatcher",
]

logger = logging.getLogger("repro.serve")

#: Default seconds to wait for a pool worker to program its replica
#: before declaring it dead (``PRIME_POOL_TIMEOUT_S`` overrides).
_POOL_TIMEOUT_DEFAULT_S = 300.0


def pool_timeout_s() -> float:
    """Pool worker probe/initialise timeout (``PRIME_POOL_TIMEOUT_S``).

    Bounds how long the coordinator waits for a worker to program its
    replica (spawn, restart) or answer a control call (drift probe,
    reprogram).  Bad values log a warning and keep the default rather
    than raising at deploy time, mirroring the other ``PRIME_*`` knobs.
    """
    env = os.environ.get("PRIME_POOL_TIMEOUT_S", "").strip()
    if not env:
        return _POOL_TIMEOUT_DEFAULT_S
    try:
        value = float(env)
    except ValueError:
        value = 0.0
    if value <= 0.0 or not np.isfinite(value):
        logger.warning(
            "PRIME_POOL_TIMEOUT_S must be a positive number, got %r; "
            "keeping the default (%gs)",
            env,
            _POOL_TIMEOUT_DEFAULT_S,
        )
        telemetry.count("perf.env.invalid", knob="PRIME_POOL_TIMEOUT_S")
        return _POOL_TIMEOUT_DEFAULT_S
    return value


#: Micro-batches each replica thread may have in flight: enough to
#: keep every thread busy without unbounded queue growth.
_THREAD_DEPTH = 4


def dispatch_mode() -> str | None:
    """Dispatch-mode override (``PRIME_DISPATCH``).

    ``serial`` | ``thread`` | ``process`` force that dispatcher
    wherever a deployment asks for ``mode="auto"``; unset (or
    ``auto``) keeps the automatic choice.  Explicit per-deployment
    modes always win — the env knob only steers ``auto``.  Bad values
    log a warning and keep the default rather than raising at deploy
    time, mirroring the other ``PRIME_*`` knobs.
    """
    env = os.environ.get("PRIME_DISPATCH", "").strip().lower()
    if not env or env == "auto":
        return None
    if env in ("serial", "thread", "process"):
        return env
    logger.warning(
        "PRIME_DISPATCH must be serial, thread, process, or auto, got "
        "%r; keeping the default (auto)",
        env,
    )
    telemetry.count("perf.env.invalid", knob="PRIME_DISPATCH")
    return None


#: Programmed state held per crossbar cell: the int16 MLC level plus
#: the float64 conductance (see :class:`~repro.device.cell.CellArray`).
_CELL_STATE_BYTES = 10


def spec_resident_bytes(spec: WorkerSpec) -> int:
    """Programmed-crossbar footprint of ONE copy of ``spec``'s network.

    Every mat pair of every mapped weight layer holds a differential
    array pair whose per-cell state is the stored MLC level plus the
    programmed conductance.  This is the per-replica RAM the dispatch
    modes multiply differently: thread mode shares one copy across all
    replica threads, serial/process mode hold one per replica — the
    ``serve.replica.resident_bytes`` gauge makes that visible.
    """
    xbar = spec.config.crossbar
    per_pair = 2 * xbar.rows * xbar.cols * _CELL_STATE_BYTES
    return sum(m.pairs * per_pair for m in spec.plan.weight_layers)


@dataclass
class WorkerSpec:
    """Everything a worker needs to program and serve one replica.

    Picklable by construction (plain numpy networks, frozen config
    dataclasses, pickled mapping plans) so one spec fans out to every
    pool worker via the initializer.
    """

    network: Sequential
    plan: MappingPlan
    config: PrimeConfig
    seed: int
    with_noise: bool = False
    resilience: ResiliencePolicy | None = None
    calibration: np.ndarray | None = field(default=None, repr=False)
    #: Record telemetry worker-side under a scratch session and ship it
    #: back in every :class:`~repro.telemetry.shipping.ResultEnvelope`.
    #: Set by the runtime when the coordinator has telemetry enabled at
    #: deploy time; costs nothing when off.
    ship_telemetry: bool = False
    #: Emulated device service time per micro-batch (wall seconds), or
    #: ``None`` for no pacing.  On PIM hardware the banks compute while
    #: the host coordinates; the functional simulation conflates both
    #: into host CPU, which makes replica *occupancy* (everything the
    #: cluster loop schedules around: pipelining overlap, autoscaling,
    #: saturation) an artifact of the host's core count and BLAS
    #: threading.  Pacing floors each batch's execution wall time at a
    #: fixed device service time, so scheduling behaviour is
    #: machine-independent and genuinely overlappable.  Results are
    #: unchanged — pacing only ever sleeps after the values are
    #: computed.
    pace_batch_s: float | None = None
    #: Capture the calibration batch's noise-free outputs at program
    #: time as the drift-probe reference.  Set by the runtime when the
    #: health policy enables periodic probing; off by default so the
    #: fault-free path does no extra work.
    probe_reference: bool = False

    @property
    def use_rng(self) -> bool:
        """Whether programming/serving needs a generator at all.

        Ideal noise-free serving programs with ``rng=None`` so the
        arrays stay pristine and the exact fused fast path applies —
        the same regime a direct noise-free ``run_functional`` runs in.
        """
        policy = (
            self.resilience
            if self.resilience is not None
            else self.config.resilience
        )
        xbar = self.config.crossbar
        fault_rates = (xbar.fault_rate_hrs, xbar.fault_rate_lrs)
        if fault_rates == (0.0, 0.0):
            fault_rates = env_fault_rates()
        return (
            self.with_noise
            or policy.verify_writes
            or fault_rates != (0.0, 0.0)
        )


def batch_noise_seed(seed: int, batch_index: int) -> int:
    """The deterministic noise seed of micro-batch ``batch_index``."""
    return task_seed(seed, "serve.batch", batch_index)


def program_state(
    spec: WorkerSpec,
) -> tuple[PrimeExecutor, list[ProgrammedLayer]]:
    """Program one replica from ``spec`` (the once-per-worker step).

    Returns the executor and its cached programmed state.  When the
    spec carries a calibration batch, the per-layer input formats and
    SA output windows freeze here — every later micro-batch reuses
    them, so results do not depend on how traffic happened to be
    batched.  The calibration pass never samples read noise, keeping
    the post-programming RNG state independent of it.
    """
    executor = PrimeExecutor(spec.config)
    rng = (
        np.random.default_rng(spec.seed) if spec.use_rng else None
    )
    programmed = executor.program_network(
        spec.network, spec.plan, rng=rng, resilience=spec.resilience
    )
    if spec.calibration is not None:
        executor.run_functional(
            spec.network,
            spec.plan,
            spec.calibration,
            programmed=programmed,
            with_noise=False,
        )
    if telemetry.enabled():
        telemetry.count("serve.programs")
    return executor, programmed


def capture_reference(
    spec: WorkerSpec,
    executor: PrimeExecutor,
    programmed: list[ProgrammedLayer],
) -> np.ndarray | None:
    """The calibration batch's noise-free outputs (the drift-probe
    reference), or ``None`` when the spec carries no calibration or
    probing is off.  Noise-free evaluation samples nothing, so the
    capture never perturbs the programmed RNG state."""
    if not spec.probe_reference or spec.calibration is None:
        return None
    return executor.run_functional(
        spec.network,
        spec.plan,
        spec.calibration,
        programmed=programmed,
        with_noise=False,
    )


def drift_distance(
    spec: WorkerSpec,
    executor: PrimeExecutor,
    programmed: list[ProgrammedLayer],
    reference: np.ndarray | None,
) -> float:
    """Relative L2 distance of the calibration outputs from the
    program-time reference — the health probe's drift metric."""
    if reference is None or spec.calibration is None:
        return 0.0
    out = executor.run_functional(
        spec.network,
        spec.plan,
        spec.calibration,
        programmed=programmed,
        with_noise=False,
    )
    denom = float(np.linalg.norm(reference)) or 1.0
    return float(np.linalg.norm(out - reference)) / denom


def reprogram_state(
    spec: WorkerSpec, programmed: list[ProgrammedLayer]
) -> None:
    """Re-program every engine array to its stored MLC levels.

    The drift-recovery step: retention drift decays conductances but
    never the programmed *levels*, so rewriting each
    :class:`~repro.device.cell.CellArray` from its own levels (through
    the spec's program-and-verify policy when one is active) restores
    the deploy-time state — exactly, in the noise-free regime.  The
    fused-kernel caches are invalidated afterwards so the recovered
    conductances reach subsequent evaluations.
    """
    policy = (
        spec.resilience
        if spec.resilience is not None
        else spec.config.resilience
    )
    verify = policy if policy.verify_writes else None
    for layer in programmed:
        for row in layer.tiles:
            for engine in row:
                for array in (
                    engine.pair.positive,
                    engine.pair.negative,
                ):
                    array.cells.program_levels(
                        array.cells.levels, verify=verify
                    )
        layer.kernel.invalidate()


def run_programmed(
    spec: WorkerSpec,
    executor: PrimeExecutor,
    programmed: list[ProgrammedLayer],
    batch: np.ndarray,
    noise_seed: int | None = None,
) -> np.ndarray:
    """Serve one micro-batch from already-programmed state."""
    start = time.perf_counter() if spec.pace_batch_s else 0.0
    if spec.with_noise and noise_seed is not None:
        programmed[0].kernel.reseed_noise(noise_seed)
    result = executor.run_functional(
        spec.network,
        spec.plan,
        batch,
        programmed=programmed,
        with_noise=spec.with_noise,
    )
    if spec.pace_batch_s:
        # Hold the batch until the emulated device service time has
        # elapsed; see WorkerSpec.pace_batch_s.
        remaining = spec.pace_batch_s - (time.perf_counter() - start)
        if remaining > 0.0:
            time.sleep(remaining)
    return result


def run_programmed_shared(
    spec: WorkerSpec,
    executor: PrimeExecutor,
    programmed: list[ProgrammedLayer],
    batch: np.ndarray,
    noise_seed: int | None = None,
) -> np.ndarray:
    """Serve one micro-batch from *shared* programmed state, mutation-free.

    The thread-replica twin of :func:`run_programmed`: instead of
    rewinding the engines' shared noise generator in place (a data race
    when several threads serve off one programmed copy), the noisy path
    routes this thread's draws through a private stream seeded
    identically (:meth:`~repro.perf.kernels.FusedLayerKernel.noise_stream`
    under :func:`~repro.perf.kernels.scoped_noise_stream`) — results
    are bit-identical to the reseed path, batch by batch, and nothing
    shared is written.
    """
    start = time.perf_counter() if spec.pace_batch_s else 0.0
    if spec.with_noise and noise_seed is not None:
        stream = programmed[0].kernel.noise_stream(noise_seed)
        ctx = scoped_noise_stream(stream)
    else:
        ctx = contextlib.nullcontext()
    with ctx:
        result = executor.run_functional(
            spec.network,
            spec.plan,
            batch,
            programmed=programmed,
            with_noise=spec.with_noise,
        )
    if spec.pace_batch_s:
        remaining = spec.pace_batch_s - (time.perf_counter() - start)
        if remaining > 0.0:
            time.sleep(remaining)
    return result


# ----------------------------------------------------------------------
# process-pool worker entry points (module-level for pickling)
# ----------------------------------------------------------------------

#: Per-process worker state: (spec, executor, programmed) after init.
_WORKER_STATE: tuple | None = None
#: Telemetry recorded while this worker initialised (programming +
#: calibration), held until the first served batch ships it to the
#: coordinator.  Kept separate from per-batch deltas so execution
#: telemetry stays a pure function of the batches served — the
#: serial-vs-process determinism contract.
_WORKER_INIT_DELTA = None
#: Program-time calibration outputs (the drift-probe reference);
#: ``None`` unless the spec enables ``probe_reference``.
_WORKER_CAL_REF: np.ndarray | None = None


def _apply_fault(
    fault: tuple | None,
    programmed: list[ProgrammedLayer],
    before: bool,
) -> int:
    """Execute a chaos-harness fault payload in a pool worker.

    ``before`` selects the pre-compute phase (kill, hang) vs the
    post-compute phase (slow, drift).  Returns extra nanoseconds to
    fold into the envelope's reported execution time (slow faults).
    """
    if fault is None:
        return 0
    kind = fault[0]
    if before:
        if kind == "kill":
            # Die the way a segfaulted worker would: no unwinding, no
            # result — the coordinator sees BrokenProcessPool.
            os._exit(17)
        if kind == "hang":
            time.sleep(fault[1])
        return 0
    if kind == "slow":
        return int(fault[1] * 1e9)
    if kind == "drift":
        apply_drift(programmed, fault[1], fault[2])
    return 0


def _serve_batch(
    spec: WorkerSpec,
    executor: PrimeExecutor,
    programmed: list[ProgrammedLayer],
    batch: np.ndarray,
    noise_seed: int | None,
    ship: bool,
    init_delta=None,
) -> ResultEnvelope:
    """Run one micro-batch and envelope the result.

    Shared by both dispatchers so serial and process mode produce their
    telemetry deltas through the *same* code path — the arithmetic that
    makes merged counter totals bit-identical across modes.  Execution
    wall time is measured even with shipping off, so the coordinator's
    per-stage latency accounting works in every mode.
    """
    if ship:
        result, delta, execute_ns = run_scoped(
            run_programmed, spec, executor, programmed, batch, noise_seed
        )
        return ResultEnvelope(
            value=result,
            worker=os.getpid(),
            execute_ns=execute_ns,
            telemetry=None if delta.empty else delta,
            init_telemetry=init_delta,
        )
    start = time.perf_counter_ns()
    result = run_programmed(spec, executor, programmed, batch, noise_seed)
    return ResultEnvelope(
        value=result,
        worker=os.getpid(),
        execute_ns=time.perf_counter_ns() - start,
    )


def _pool_init(payload: bytes) -> None:
    global _WORKER_STATE, _WORKER_INIT_DELTA, _WORKER_CAL_REF
    spec = pickle.loads(payload)
    if spec.ship_telemetry:
        state, delta, _ = run_scoped(program_state, spec)
        _WORKER_INIT_DELTA = None if delta.empty else delta
    else:
        state = program_state(spec)
    _WORKER_STATE = (spec,) + state
    _WORKER_CAL_REF = capture_reference(spec, *state)


def _pool_run(args: tuple) -> ResultEnvelope:
    global _WORKER_INIT_DELTA
    batch, noise_seed, ship, fault = args
    spec, executor, programmed = _WORKER_STATE
    _apply_fault(fault, programmed, before=True)
    envelope = _serve_batch(
        spec,
        executor,
        programmed,
        batch,
        noise_seed,
        ship,
        init_delta=_WORKER_INIT_DELTA if ship else None,
    )
    envelope.execute_ns += _apply_fault(fault, programmed, before=False)
    if ship:
        _WORKER_INIT_DELTA = None
    return envelope


def _pool_ping() -> int:
    """Worker pid when programmed, 0 otherwise (truthiness = liveness).

    The coordinator records the pid so a hung worker — one sleeping
    inside a batch, which ``shutdown(wait=False)`` cannot interrupt —
    can be SIGKILLed before its pool is replaced.
    """
    return os.getpid() if _WORKER_STATE is not None else 0


def _pool_drift_probe() -> float:
    """Health probe: relative distance of the calibration outputs from
    the program-time reference (0.0 when probing is not configured)."""
    spec, executor, programmed = _WORKER_STATE
    return drift_distance(spec, executor, programmed, _WORKER_CAL_REF)


def _pool_reprogram() -> float:
    """Re-program this worker's replica in place; returns the measured
    worker-side wall seconds (the background reprogramming cost)."""
    spec, executor, programmed = _WORKER_STATE
    start = time.perf_counter()
    reprogram_state(spec, programmed)
    return time.perf_counter() - start


class SerialDispatcher:
    """In-process fallback: programmed copies served inline.

    ``dispatch`` returns an already-resolved :class:`Future` holding a
    :class:`~repro.telemetry.shipping.ResultEnvelope`, so the runtime
    drives both dispatchers identically — including telemetry shipping:
    serial execution records into the same scratch-session envelope a
    pool worker would, and the runtime merges it back the same way.

    The initial replicas share a single lazily-programmed state (they
    are bit-identical by construction, and serial mode has no real
    parallelism to exploit); :meth:`grow` programs a fresh state per
    added replica so the autoscaler's scale-up cost stays explicit and
    measured even in serial mode.
    """

    mode = "serial"

    #: Serial dispatch resolves each future inline, so there is never
    #: more than one batch in flight and no limit to enforce.
    inflight_limit: int | None = None

    def __init__(self, spec: WorkerSpec, replicas: int = 1) -> None:
        self.spec = spec
        self.replicas = replicas
        #: Programmed states (executor, programmed, cal_ref), indexed
        #: by replica; replicas beyond the list share the first
        #: (initial-deploy) state.
        self._states: list[tuple] = []
        self._init_delta = None

    def _program(self) -> tuple:
        executor, programmed = program_state(self.spec)
        return (
            executor,
            programmed,
            capture_reference(self.spec, executor, programmed),
        )

    def _ensure(self, replica: int = 0):
        if not self._states:
            if self.spec.ship_telemetry:
                state, delta, _ = run_scoped(self._program)
                self._init_delta = None if delta.empty else delta
            else:
                state = self._program()
            self._states.append(state)
        return self._states[min(replica, len(self._states) - 1)]

    def dispatch(
        self,
        batch: np.ndarray,
        noise_seed: int | None = None,
        ship: bool = False,
        replica: int | None = None,
        fault: tuple | None = None,
    ) -> Future:
        executor, programmed, _ = self._ensure(
            0 if replica is None else replica % max(self.replicas, 1)
        )
        future: Future = Future()
        if fault is not None and fault[0] in ("kill", "hang"):
            # Serial mode cannot lose or stall a worker process — it
            # *is* the coordinator — so both present as a crash.
            future.set_exception(
                WorkerCrash(f"injected {fault[0]} fault")
            )
            return future
        envelope = _serve_batch(
            self.spec,
            executor,
            programmed,
            batch,
            noise_seed,
            ship,
            init_delta=self._init_delta if ship else None,
        )
        if fault is not None:
            if fault[0] == "slow":
                envelope.execute_ns += int(fault[1] * 1e9)
            elif fault[0] == "drift":
                apply_drift(programmed, fault[1], fault[2])
        future.set_result(envelope)
        if ship:
            self._init_delta = None
        return future

    def restart_replica(self, replica: int) -> float:
        """Re-program a replica's state in place after an injected
        crash; returns the measured programming wall seconds."""
        self._ensure()
        idx = min(replica % max(self.replicas, 1), len(self._states) - 1)
        start = time.perf_counter()
        self._states[idx] = self._program()
        return time.perf_counter() - start

    def probe_replica(self, replica: int) -> Future:
        """Resolved future holding the replica's drift distance."""
        executor, programmed, cal_ref = self._ensure(
            replica % max(self.replicas, 1)
        )
        future: Future = Future()
        future.set_result(
            drift_distance(self.spec, executor, programmed, cal_ref)
        )
        return future

    def reprogram_replica(self, replica: int) -> float:
        """Re-program a drifted replica's arrays from their stored
        levels; returns the measured wall seconds."""
        _, programmed, _ = self._ensure(replica % max(self.replicas, 1))
        start = time.perf_counter()
        reprogram_state(self.spec, programmed)
        return time.perf_counter() - start

    def grow(self, replicas: int = 1) -> float:
        """Add replicas, programming one fresh state each; returns the
        measured one-time programming wall seconds."""
        self._ensure()
        start = time.perf_counter()
        for _ in range(replicas):
            self._states.append(self._program())
        self.replicas += replicas
        return time.perf_counter() - start

    def shrink(self, replicas: int = 1) -> float:
        """Drop replicas (and their grown states); returns 0.0 — serial
        teardown is free."""
        if replicas >= self.replicas:
            raise ConfigurationError(
                "cannot shrink below one replica"
            )
        for _ in range(replicas):
            if len(self._states) > 1:
                self._states.pop()
        self.replicas -= replicas
        return 0.0

    def resident_bytes(self) -> int:
        """Programmed-state RAM this dispatcher holds: one copy for the
        shared initial replicas plus one per grown state."""
        return spec_resident_bytes(self.spec) * max(1, len(self._states))

    def close(self) -> None:
        self._states = []
        self._init_delta = None


class _StateLock:
    """Reader-writer lock over one shared programmed state.

    Micro-batches are pure reads of the frozen weight/conductance
    stacks and take the read side concurrently; state mutations (drift
    injection, background reprogramming, first-batch calibration, and
    the serialised fallback execution path) take the exclusive write
    side.  Writers are preferred — a pending writer blocks new readers
    — so reprogramming cannot starve behind a steady batch stream.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextlib.contextmanager
    def read(self):
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextlib.contextmanager
    def write(self):
        with self._cond:
            self._writers_waiting += 1
            while self._writer or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


class ThreadDispatcher:
    """N replica threads serving ONE shared programmed copy per tenant.

    PRIME's replicas share *stationary* programmed weights; process
    replicas emulate that with one private copy (and one programming
    pass) per OS process, paying spawn + program on every scale-up and
    IPC on every batch.  Thread replicas instead run against a single
    :func:`program_state` copy: fused/compiled execution is pure
    read-only NumPy matmuls over frozen conductance stacks (and NumPy
    releases the GIL inside them), so per-replica single-thread pools
    evaluate concurrently while

    * batch payloads and results move as plain ndarray references —
      zero-copy by construction, no pickling;
    * scale-up allocates only per-thread scratch workspaces
      (:meth:`~repro.perf.plan.CompiledPlan.prewarm` — microseconds,
      vs fork + program for a process replica);
    * N replicas cost one weight-copy of RAM instead of N
      (:meth:`resident_bytes`).

    Noise-on batches draw from private per-task streams
    (:func:`run_programmed_shared`), so results stay
    routing-independent and bit-identical to
    ``ServingRuntime.reference`` in both regimes.  Workloads whose
    kernels cannot take the re-entrant fused path (remapped tiles,
    non-ideal arrays with noise off, per-engine noise fallbacks)
    serialise every batch under the state write lock — correct, just
    without parallel speedup.

    Fault model: threads cannot be SIGKILLed.  An injected ``kill``
    surfaces as :class:`WorkerCrash`; a ``hang`` really sleeps but
    wakes early when its replica's cancellation event fires —
    :meth:`restart_replica` is cooperative cancellation plus a fresh
    pool (cost: microseconds), and the runtime's existing
    quarantine/retire/degrade-to-serial machinery does the rest.
    ``drift`` mutates the *shared* copy (all replicas see it — one
    copy is the point), and :meth:`reprogram_replica` heals all
    replicas at once for the same reason.
    """

    mode = "thread"

    def __init__(self, spec: WorkerSpec, replicas: int = 1) -> None:
        if replicas < 1:
            raise ConfigurationError("replicas must be >= 1")
        self.spec = spec
        # One programmed copy, made on the coordinator thread — with
        # telemetry on, its programming/calibration records straight
        # into the live session (no scratch-session shipping, which
        # swaps a process-global and is not thread-safe).
        executor, programmed = program_state(spec)
        self._state: tuple | None = (
            executor,
            programmed,
            capture_reference(spec, executor, programmed),
        )
        self._lock = _StateLock()
        self._calibrated = spec.calibration is not None
        self._parallel = self._probe_parallel(programmed)
        if not self._parallel and telemetry.enabled():
            telemetry.count("serve.dispatch.thread_serialized")
        self._pools: list[ThreadPoolExecutor] = []
        self._cancels: list[threading.Event] = []
        self._rr = 0
        for _ in range(replicas):
            self._add_replica()
        self._prewarm_workspaces()

    def _probe_parallel(self, programmed) -> bool:
        """Whether concurrent execution over the shared copy is safe.

        Exactly the regimes whose hot paths are re-entrant: the fused
        noise-free integer path and the fused noisy path (under
        per-task private noise streams).  Anything that would fall to
        the per-engine tile walk — remapped tiles, non-ideal arrays
        with noise off, split RNGs, ``PRIME_FUSED=0`` — serialises
        under the write lock instead.
        """
        if not fused_enabled():
            return False
        kernels = [entry.kernel for entry in programmed]
        return all(
            k.can_fuse(with_noise=self.spec.with_noise) for k in kernels
        )

    def _add_replica(self) -> None:
        index = len(self._pools)
        self._cancels.append(threading.Event())
        self._pools.append(
            ThreadPoolExecutor(
                max_workers=1,
                thread_name_prefix=f"serve-replica-{index}",
            )
        )

    def _prewarm_workspaces(self) -> None:
        """Pre-lease one plan workspace per replica thread.

        The entire scale-up cost of a thread replica: when the shared
        copy already carries a compiled plan (a calibration batch at
        program time compiles it), the new thread's scratch buffers
        are allocated here instead of on its first batch.
        """
        state = self._state
        if state is None:
            return
        plan = getattr(state[1][0], "compiled_plan", None)
        if plan is not None:
            plan.prewarm(len(self._pools))

    @property
    def replicas(self) -> int:
        return len(self._pools)

    @property
    def inflight_limit(self) -> int | None:
        """A few batches in flight per replica thread (see
        :data:`_THREAD_DEPTH`)."""
        return _THREAD_DEPTH * max(1, len(self._pools))

    def resident_bytes(self) -> int:
        """One programmed copy, however many replica threads serve it."""
        return spec_resident_bytes(self.spec)

    def _task(
        self,
        batch: np.ndarray,
        noise_seed: int | None,
        fault: tuple | None,
        cancel: threading.Event,
        replica: int,
    ) -> ResultEnvelope:
        if cancel.is_set():
            raise WorkerCrash("replica thread retired")
        state = self._state
        if state is None:
            raise WorkerCrash("dispatcher closed")
        spec = self.spec
        executor, programmed, _ = state
        if fault is not None:
            if fault[0] == "kill":
                # Threads cannot be SIGKILLed; the injected crash
                # surfaces as an exception the runtime's crash
                # recovery handles like a dead worker.
                raise WorkerCrash("injected kill fault")
            if fault[0] == "hang":
                # A real stall — but cooperative: the replica's
                # cancellation event (set by restart_replica) wakes it
                # early, so a hung thread never outlives its recovery.
                if cancel.wait(fault[1]):
                    raise WorkerCrash("hung task cancelled cooperatively")
        start = time.perf_counter_ns()
        if self._parallel and self._calibrated:
            with self._lock.read():
                result = run_programmed_shared(
                    spec, executor, programmed, batch, noise_seed
                )
        else:
            # Exclusive: either the first batch still has calibration
            # to freeze (a state mutation), or this workload's kernels
            # cannot take the re-entrant path at all.
            with self._lock.write():
                if self._parallel:
                    result = run_programmed_shared(
                        spec, executor, programmed, batch, noise_seed
                    )
                else:
                    result = run_programmed(
                        spec, executor, programmed, batch, noise_seed
                    )
                self._calibrated = True
        execute_ns = time.perf_counter_ns() - start
        if fault is not None:
            if fault[0] == "slow":
                execute_ns += int(fault[1] * 1e9)
            elif fault[0] == "drift":
                with self._lock.write():
                    apply_drift(programmed, fault[1], fault[2])
        return ResultEnvelope(
            value=result, worker=replica, execute_ns=execute_ns
        )

    def dispatch(
        self,
        batch: np.ndarray,
        noise_seed: int | None = None,
        ship: bool = False,
        replica: int | None = None,
        fault: tuple | None = None,
    ) -> Future:
        # ``ship`` is accepted for interface parity but moot: thread
        # workers record telemetry inline into the live session (the
        # registry and tracer are lock-guarded and the span stack is
        # thread-local), so there is no delta to ship back.
        if replica is None:
            replica = self._rr
            self._rr = (self._rr + 1) % len(self._pools)
        else:
            replica %= len(self._pools)
        return self._pools[replica].submit(
            self._task,
            batch,
            noise_seed,
            fault,
            self._cancels[replica],
            replica,
        )

    def restart_replica(self, replica: int) -> float:
        """Cooperatively cancel and replace one replica thread.

        Sets the replica's cancellation event (waking a hung task),
        retires its pool without waiting, and installs a fresh
        single-thread pool with warm workspaces.  The shared
        programmed state needs no re-programming — the thread was the
        problem, not the copy — so the measured cost is buffer
        allocation, microseconds.
        """
        replica %= len(self._pools)
        start = time.perf_counter()
        self._cancels[replica].set()
        try:
            self._pools[replica].shutdown(
                wait=False, cancel_futures=True
            )
        except Exception:  # pragma: no cover - pool already broken
            pass
        self._cancels[replica] = threading.Event()
        self._pools[replica] = ThreadPoolExecutor(
            max_workers=1,
            thread_name_prefix=f"serve-replica-{replica}",
        )
        self._prewarm_workspaces()
        return time.perf_counter() - start

    def _probe_task(self) -> float:
        state = self._state
        if state is None:
            raise WorkerCrash("dispatcher closed")
        executor, programmed, cal_ref = state
        lock = self._lock.read() if self._parallel else self._lock.write()
        with lock:
            return drift_distance(self.spec, executor, programmed, cal_ref)

    def probe_replica(self, replica: int) -> Future:
        """Submit the drift health probe to one replica's thread."""
        return self._pools[replica % len(self._pools)].submit(
            self._probe_task
        )

    def reprogram_replica(self, replica: int) -> float:
        """Re-program the shared copy from its stored levels.

        Taken under the exclusive write lock (in-flight batches finish
        first, queued ones wait), and because every replica serves the
        same copy, one reprogramming heals them all.  Returns the
        measured wall seconds.
        """
        state = self._state
        if state is None:
            raise WorkerCrash("dispatcher closed")
        start = time.perf_counter()
        with self._lock.write():
            reprogram_state(self.spec, state[1])
        return time.perf_counter() - start

    def grow(self, replicas: int = 1) -> float:
        """Add replica threads; returns the measured wall seconds.

        No programming, no fork: a new single-thread pool plus
        prewarmed scratch workspaces — the microsecond-scale scale-up
        the autoscaler's measured-cost EMA then reflects.
        """
        if replicas < 1:
            raise ConfigurationError("grow needs replicas >= 1")
        start = time.perf_counter()
        for _ in range(replicas):
            self._add_replica()
        self._prewarm_workspaces()
        return time.perf_counter() - start

    def shrink(self, replicas: int = 1) -> float:
        """Retire the newest replica threads (drained by the caller)."""
        if replicas >= len(self._pools):
            raise ConfigurationError("cannot shrink below one replica")
        for _ in range(replicas):
            self._cancels.pop().set()
            self._pools.pop().shutdown(wait=False, cancel_futures=True)
        self._rr %= len(self._pools)
        return 0.0

    def close(self) -> None:
        """Cancel every replica thread and drop the shared copy."""
        for cancel in self._cancels:
            cancel.set()
        for pool in self._pools:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - best effort
                pass
        self._pools = []
        self._cancels = []
        self._state = None


class ProcessDispatcher:
    """Per-replica persistent worker pools with programmed state.

    Every replica bank group gets its *own* single-worker
    ``ProcessPoolExecutor`` (the worker programs its copy exactly once,
    in the pool initializer), so batch → replica routing is explicit:
    the coordinator can keep each replica's queue saturated
    independently, and a replica grant can grow or shrink live — grow
    spawns one more pool (its programming cost is measured and
    returned), shrink retires the newest pool after the runtime drains
    it.  Every batch and result pickles through its replica's pool
    pipe.
    """

    mode = "process"

    #: Pickled dispatch has no per-replica buffer to exhaust, so the
    #: inflight depth is left unbounded.
    inflight_limit: int | None = None

    def __init__(
        self,
        spec: WorkerSpec,
        replicas: int,
        defer_spawn: bool = False,
    ) -> None:
        if replicas < 1:
            raise ConfigurationError("replicas must be >= 1")
        self.spec = spec
        self._payload = pickle.dumps(spec)
        self._pools: list[ProcessPoolExecutor] = []
        self._pids: list[int] = []
        self._rr = 0
        #: In-flight deferred spawn: ``(pools, probes)`` whose workers
        #: are forking and programming in the background, not yet
        #: awaited.  With ``defer_spawn`` the constructor returns as
        #: soon as the probes are submitted, so a multi-tenant deploy
        #: starts every tenant's programming concurrently and only then
        #: awaits them (:meth:`finish_spawn`) — cluster startup wall
        #: time stops scaling with tenant x replica count.
        self._pending_spawn: tuple[list, list] | None = None
        try:
            if defer_spawn:
                self._pending_spawn = self._begin_spawn(replicas)
            else:
                self._spawn(replicas)
        except BaseException:
            self.close()
            raise

    @property
    def replicas(self) -> int:
        pending = getattr(self, "_pending_spawn", None)
        return len(self._pools) + (len(pending[0]) if pending else 0)

    def _begin_spawn(self, n: int) -> tuple[list, list]:
        """Start ``n`` replica pools without awaiting their workers.

        Creating the pools and submitting the ping probes is what
        actually kicks off each worker's fork + one-time
        ``program_state`` (the pool initializer runs before the probe
        can answer), so after this returns all ``n`` replicas are
        programming concurrently in the background.  The returned
        ``(pools, probes)`` must be passed to :meth:`_finish_spawn`
        before the pools are used.
        """
        pools = [
            ProcessPoolExecutor(
                max_workers=1,
                initializer=_pool_init,
                initargs=(self._payload,),
            )
            for _ in range(n)
        ]
        try:
            probes = [pool.submit(_pool_ping) for pool in pools]
        except BaseException:
            for pool in pools:
                try:
                    pool.shutdown(wait=False, cancel_futures=True)
                except Exception:  # pragma: no cover - best effort
                    pass
            raise
        return pools, probes

    def _finish_spawn(self, pending: tuple[list, list]) -> None:
        """Await a batch of started pools and adopt them.

        The new pools only join :attr:`_pools` once every probe has
        answered — a partial spawn failure shuts the batch of new pools
        down and leaves the dispatcher exactly as it was, so a later
        ``grow()`` retry starts clean.
        """
        pools, probes = pending
        try:
            timeout = pool_timeout_s()
            pids = []
            for probe in probes:
                pid = probe.result(timeout=timeout)
                if not pid:
                    raise BrokenProcessPool(
                        "pool worker failed to initialise"
                    )
                pids.append(pid)
        except BaseException:
            for pool in pools:
                try:
                    pool.shutdown(wait=False, cancel_futures=True)
                except Exception:  # pragma: no cover - best effort
                    pass
            raise
        self._pools.extend(pools)
        self._pids.extend(pids)

    def _spawn(self, n: int) -> None:
        """Start ``n`` replica pools and wait for their workers.

        Programming happens in the pool initializer, so an environment
        that cannot host a pool (no fork, broken pickling) fails here,
        where ``make_dispatcher`` can still fall back to serial, not on
        the first real request.  The ping probes are submitted to every
        new pool before any is awaited (:meth:`_begin_spawn`), so
        replica programming overlaps.
        """
        self._finish_spawn(self._begin_spawn(n))

    def finish_spawn(self) -> None:
        """Await a construction-time deferred spawn, if one is pending.

        Idempotent; every dispatch/control entry point calls it, so a
        caller that never explicitly finishes a deferred deploy still
        gets a fully-spawned dispatcher on first use.  A spawn failure
        propagates here (once — the pending batch is consumed), where
        the deployer can still fall back to serial.
        """
        pending = self._pending_spawn
        if pending is None:
            return
        self._pending_spawn = None
        self._finish_spawn(pending)

    def dispatch(
        self,
        batch: np.ndarray,
        noise_seed: int | None = None,
        ship: bool = False,
        replica: int | None = None,
        fault: tuple | None = None,
    ) -> Future:
        self.finish_spawn()
        if replica is None:
            replica = self._rr
            self._rr = (self._rr + 1) % len(self._pools)
        else:
            replica %= len(self._pools)
        return self._pools[replica].submit(
            _pool_run, (batch, noise_seed, ship, fault)
        )

    def restart_replica(self, replica: int) -> float:
        """Kill and respawn one replica's worker pool in place.

        The crash/hang recovery path: SIGKILL the worker (a hung worker
        sleeps through ``shutdown(wait=False)``), retire its pool, and
        bring up a fresh pool that re-programs the replica in its
        initializer.  Returns the measured wall seconds
        — kill + fork + one-time ``program_state``.  Raises when the
        respawn itself fails; the caller retires the replica then.
        """
        self.finish_spawn()
        replica %= len(self._pools)
        start = time.perf_counter()
        pid = self._pids[replica]
        if pid:
            try:
                os.kill(pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):
                pass
        try:
            self._pools[replica].shutdown(
                wait=False, cancel_futures=True
            )
        except Exception:  # pragma: no cover - pool already broken
            pass
        self._pids[replica] = 0
        pool = ProcessPoolExecutor(
            max_workers=1,
            initializer=_pool_init,
            initargs=(self._payload,),
        )
        try:
            pid = pool.submit(_pool_ping).result(timeout=pool_timeout_s())
            if not pid:
                raise BrokenProcessPool(
                    "respawned pool worker failed to initialise"
                )
        except BaseException:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - best effort
                pass
            raise
        self._pools[replica] = pool
        self._pids[replica] = pid
        return time.perf_counter() - start

    def probe_replica(self, replica: int) -> Future:
        """Submit the drift health probe to one replica's worker."""
        self.finish_spawn()
        return self._pools[replica % len(self._pools)].submit(
            _pool_drift_probe
        )

    def reprogram_replica(self, replica: int) -> float:
        """Re-program a drifted replica in its worker (blocking);
        returns the measured worker-side wall seconds."""
        self.finish_spawn()
        pool = self._pools[replica % len(self._pools)]
        return pool.submit(_pool_reprogram).result(
            timeout=pool_timeout_s()
        )

    def grow(self, replicas: int = 1) -> float:
        """Spawn ``replicas`` more programmed workers.

        Returns the measured wall seconds the scale-up cost: pool fork
        plus the one-time ``program_state`` in each new worker's
        initializer.
        """
        if replicas < 1:
            raise ConfigurationError("grow needs replicas >= 1")
        self.finish_spawn()
        start = time.perf_counter()
        self._spawn(replicas)
        return time.perf_counter() - start

    def shrink(self, replicas: int = 1) -> float:
        """Retire the newest ``replicas`` worker pools.

        The caller (the runtime's ``scale_to``) must have drained every
        inflight batch first; a retiring pool cancels what it still
        holds.
        """
        self.finish_spawn()
        if replicas >= len(self._pools):
            raise ConfigurationError("cannot shrink below one replica")
        for _ in range(replicas):
            self._pools.pop().shutdown(wait=False, cancel_futures=True)
            self._pids.pop()
        self._rr %= len(self._pools)
        return 0.0

    def resident_bytes(self) -> int:
        """Programmed-state RAM: one private copy per replica worker."""
        return spec_resident_bytes(self.spec) * max(1, self.replicas)

    def close(self) -> None:
        """Shut every pool down.

        Idempotent and exception-safe: closing twice, or closing after
        a worker crash left a pool broken, still shuts down every other
        pool — a broken pool's shutdown can raise.
        """
        pending = getattr(self, "_pending_spawn", None)
        if pending is not None:
            self._pending_spawn = None
            for pool in pending[0]:
                try:
                    pool.shutdown(wait=False, cancel_futures=True)
                except Exception:  # pragma: no cover - best effort
                    pass
        for pool in self._pools:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - pool already broken
                pass
        self._pools = []
        self._pids = []


#: Exceptions a pool spawn can die with in environments that cannot
#: host worker processes (no fork, broken pickling, sandboxed
#: semaphores, slow-start timeouts) — exactly the set ``"auto"`` mode
#: degrades to serial on, exported so deferred-spawn finishers
#: (``ServingRuntime.finish_deploy``) apply the same policy.
POOL_SPAWN_FAILURES = (
    OSError,
    AttributeError,
    TimeoutError,
    _FuturesTimeout,
    BrokenProcessPool,
    pickle.PicklingError,
)


def serial_fallback(
    spec: WorkerSpec, replicas: int, exc: BaseException
) -> SerialDispatcher:
    """Degrade a failed pool deployment to a serial dispatcher.

    The standard announcement trio — log, a
    :class:`~repro.perf.parallel.ParallelFallbackWarning`, and a
    ``serve.dispatch.fallback`` counter — then the in-process
    dispatcher with identical results.
    """
    logger.warning(
        "serve worker pool unavailable (%s: %s); dispatching "
        "serially in-process",
        type(exc).__name__,
        exc,
    )
    warnings.warn(
        f"serve worker pool unavailable ({type(exc).__name__}); "
        "dispatching serially in-process",
        ParallelFallbackWarning,
        stacklevel=3,
    )
    telemetry.count(
        "serve.dispatch.fallback", reason=type(exc).__name__
    )
    return SerialDispatcher(spec, replicas)


def make_dispatcher(
    spec: WorkerSpec,
    replicas: int,
    mode: str = "auto",
    defer_spawn: bool = False,
):
    """Build the replica dispatcher for a deployment.

    ``mode="thread"`` runs replica threads over one shared programmed
    copy; ``mode="process"``/``"auto"`` try the persistent pool first,
    where ``"auto"`` degrades to serial (:func:`serial_fallback`) when
    no pool can be created while ``"process"`` propagates the failure.
    ``mode="serial"`` skips both.  A ``PRIME_DISPATCH`` environment
    override (:func:`dispatch_mode`) steers ``"auto"`` deployments
    only — explicit modes always win.  ``defer_spawn`` makes process-mode
    construction return with its workers still forking/programming in
    the background; the first use (or an explicit
    ``finish_spawn()``/``finish_deploy()``) awaits them.
    """
    if mode not in ("auto", "thread", "process", "serial"):
        raise ConfigurationError(
            "serve mode must be auto|thread|process|serial, got "
            f"{mode!r}"
        )
    if mode == "auto":
        override = dispatch_mode()
        if override is not None:
            mode = override
    if mode == "serial" or (mode == "auto" and replicas <= 1):
        return SerialDispatcher(spec, replicas)
    if mode == "thread":
        return ThreadDispatcher(spec, replicas)
    try:
        return ProcessDispatcher(
            spec,
            replicas,
            defer_spawn=defer_spawn,
        )
    except POOL_SPAWN_FAILURES as exc:
        if mode == "process":
            raise
        return serial_fallback(spec, replicas, exc)
