"""The repo benchmark: offline, faulty-device and open-loop serving.

Run from the root of a checkout::

    python3 perfbench/run.py --workload offline-ideal --seed 1 \\
        --seconds 20 --trace 0

``--workload`` is one of ``offline-ideal``, ``device-faulty`` or
``serve-open``.  Every run measures all three sections, interleaved
over four rounds, so every end-to-end metric is reported on every
workload; the workload names the section whose cold start ``setup_s``
times.  ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs the same sections, adds a traced
pass to each, and prints the per-layer metrics instead.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Records, the environment and (traced) the
Chrome trace go to ``.bench_build/perfbench/``.  See
``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("offline-ideal", "device-faulty", "serve-open")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_gemm():
    """``np.matmul`` GMAC/s for one shape and dtype, measured once."""
    import numpy as np

    from perfbench.common import median, timed_loop

    rates: dict = {}

    def rate(shape: dict) -> float:
        key = (shape["m"], shape["k"], shape["n"], shape["dtype"])
        if key not in rates:
            rng = np.random.default_rng(0)
            a = rng.random(key[:2]).astype(key[3])
            b = rng.random(key[1:3]).astype(key[3])
            np.matmul(a, b)
            walls = timed_loop(lambda i: np.matmul(a, b), 0.05, 3)
            rates[key] = key[0] * key[1] * key[2] / median(walls) / 1e9
        return rates[key]

    return rate


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: {ROOT / 'src' / 'repro'} not found; run from the root "
            "of a repository checkout",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.common import (
        OUT_DIR,
        ROUNDS,
        Run,
        environment,
        peak_rss_mb,
    )
    from perfbench.device import Device
    from perfbench.offline import Offline
    from perfbench.serve import Serve

    started = time.perf_counter()
    r = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment()
    sections = []
    try:
        sections.append(Offline(r, host_gemm()))
        sections.append(Device(r))
        sections.append(Serve(r))
        for rnd in range(ROUNDS):
            for section in sections:
                section.measure(rnd)
        for section in sections:
            section.finish()
        if r.traced:
            for section in sections:
                section.trace()
    finally:
        for section in sections:
            section.close()
    r.e2e["rss_peak_mb"] = peak_rss_mb()

    declared = spec["per_layer" if r.traced else "end_to_end"]
    values = r.layer if r.traced else r.e2e
    names = {m["name"] for m in declared}
    if set(values) != names:
        print(
            f"error: metrics missing {sorted(names - set(values))}, "
            f"undeclared {sorted(set(values) - names)}",
            file=sys.stderr,
        )
        return 1
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in declared
    }
    correct = r.failed == 0 and all(c["ok"] for c in r.checks.values())

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": r.traced,
        "wall_s": time.perf_counter() - started,
        "environment": env,
        "checks": r.checks,
        "end_to_end": r.e2e,
        "per_layer": r.layer,
        "layer_records": r.records,
        "info": r.info,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if r.traced:
        trace = [event for events in r.traces.values() for event in events]
        (OUT_DIR / f"{stem}.trace.json").write_text(
            json.dumps({"traceEvents": trace})
        )

    print(f"environment: {json.dumps(env)}")
    for name, tail in r.info.get("serve_tails", {}).items():
        print(f"serve tail {name}: {json.dumps(tail)}")
    for rec in r.records:
        print("layer record: " + json.dumps(rec))
    print(f"record: {OUT_DIR / stem}.json ({record['wall_s']:.1f} s)")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": r.attempted,
                "failed": r.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
