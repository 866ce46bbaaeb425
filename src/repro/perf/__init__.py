"""Performance layer: artifact cache + parallel experiment runner.

The evaluation pipeline's dominant costs are (a) retraining the same
reference networks on every invocation and (b) walking embarrassingly
parallel sweeps one point at a time.  This package removes both:

* :mod:`repro.perf.cache` — a content-addressed on-disk artifact cache
  for trained reference networks, their evaluation datasets, and
  compiled mapping plans.  Keys hash every input that determines the
  artifact (workload, topology signature, train parameters, seed, and
  a fingerprint of the producing source modules), so stale entries are
  impossible by construction.  Controlled by ``PRIME_CACHE_DIR`` /
  ``PRIME_CACHE=0`` / :func:`~repro.perf.cache.disable`.
* :mod:`repro.perf.parallel` — a deterministic process-pool runner
  (``PRIME_WORKERS``) used to fan out the Figure 6 precision grid, the
  DPE ENOB sweep, and the all-systems comparison.  Tasks are pure
  functions of their arguments (per-task seeds included), so parallel
  results are bit-identical to the serial path.

* :mod:`repro.perf.kernels` — fused layer-level crossbar kernels: one
  batched evaluation per mapped layer instead of a Python walk over
  the ``row_blocks × col_blocks`` tile grid, bit-identical to the
  per-engine path with noise off and seed-reproducible with noise on.
* :mod:`repro.perf.plan` — the compiled plan every ``run_functional``
  chunk executes: the programmed chain lowered into one flat schedule
  whose weight steps calibrate their layer in-pass on the first chunk.
  ``PRIME_FUSED=0`` sends each weight step through the kernels'
  per-engine walk instead, the oracle for differential testing.

Both layers emit ``perf.*`` telemetry counters when
:mod:`repro.telemetry` is enabled, and both degrade gracefully: with
caching disabled everything recomputes, and with no usable process
pool everything runs serially.
"""

from repro.perf.cache import (
    ArtifactCache,
    active,
    cache_root,
    code_fingerprint,
    disable,
    enable,
    mapping_plan,
    reference_network,
    reference_network_key,
    stable_key,
)
from repro.perf.kernels import FusedLayerKernel, fused_enabled
from repro.perf.parallel import (
    chunk_size,
    parallel_map,
    task_seed,
    worker_count,
)

__all__ = [
    "ArtifactCache",
    "FusedLayerKernel",
    "active",
    "cache_root",
    "chunk_size",
    "code_fingerprint",
    "disable",
    "enable",
    "fused_enabled",
    "mapping_plan",
    "parallel_map",
    "reference_network",
    "reference_network_key",
    "stable_key",
    "task_seed",
    "worker_count",
]
