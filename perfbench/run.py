"""Run one benchmark workload once and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ppr-products --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload half untraced and half under the layer tracer and prints every
per-layer metric.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result (metrics,
harvested program counters with their per-step spread, host
fingerprint) is also written to ``perfbench/out/``.

The program under test is imported from ``src/`` next to this
directory; without it the command exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: set-up repetitions per run; ``setup_s`` is their median
SETUP_REPS = 3
#: engine.run pairs (tracing off / on) behind the obs.* metrics
OBS_PAIRS = 3
OBS_PROBE_QUERIES = 8

END_TO_END = {
    "setup_s": "s",
    "qps_wall": "q/s",
    "qps_virtual": "q/s",
    "lat_p50_ms": "ms",
    "vlat_p50_ms": "ms",
    "batch_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: traced layers, in report order; each gives ``<layer>.self_ms``
LAYERS = (
    "ppr.push", "ppr.pop", "ppr.hashmap", "fetch", "fetch.admit", "rpc",
    "rpc.serialize", "shard.read", "shard.write", "stream.mirror",
    "stream.snapshot", "stream.payload", "stream.refresh",
    "stream.rebalance", "serve.submit", "serve.drain", "engine.execute",
    "simt.scheduler", "setup.partition", "setup.build", "loadgen.idle",
)

#: every per-layer metric the traced run prints and records
LAYER_TABLE = {
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "ppr.push.ns_per_key": "ns",
    "ppr.hashmap.ns_per_key": "ns",
    "ppr.pushes": "count",
    "fetch.evictions": "count",
    "fetch.hit_ratio": "ratio",
    "fetch.bytes_saved": "bytes",
    "rpc.calls_remote": "count",
    "rpc.response_bytes": "bytes",
    "rpc.retries": "count",
    "stream.staged_rows": "count",
    "stream.refresh_pushes": "count",
    "serve.batch_size_mean": "queries",
    "serve.queue_wait_p90_ms": "ms",
    "serve.rejected": "count",
    "walk.steps": "count",
    "simt.makespan_s": "s",
    "setup.partition_s": "s",
    "setup.build_s": "s",
    "obs.trace_wall_pct": "%",
    "obs.trace_virtual_pct": "%",
    "loadgen.late_p90_ms": "ms",
    "loadgen.depth_mid": "count",
    "loadgen.depth_end": "count",
    "other.self_ms": "ms",
    "bench.traced_wall_ms": "ms",
    "bench.trace_overhead_pct": "%",
}

#: times of layers only some workloads exercise (stream.*, serve.*,
#: shard.write, load-gen) read 0 on every run of the others, so the
#: result object carries them only in the printed table and the result
#: file; counts of those layers are in the result object everywhere
WORKLOAD_SPECIFIC = {
    "shard.write.self_ms", "stream.mirror.self_ms",
    "stream.snapshot.self_ms", "stream.payload.self_ms",
    "stream.refresh.self_ms", "stream.rebalance.self_ms",
    "serve.submit.self_ms", "serve.drain.self_ms",
    "setup.partition.self_ms", "setup.build.self_ms",
    "loadgen.idle.self_ms", "serve.queue_wait_p90_ms",
    "loadgen.late_p90_ms",
}

PER_LAYER = {name: unit for name, unit in LAYER_TABLE.items()
             if name not in WORKLOAD_SPECIFIC}


def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_rev() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def fingerprint(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_rev": git_rev(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
    }


def timed_setups(w, tracer=None) -> list[float]:
    times = []
    for rep in range(SETUP_REPS):
        if tracer is not None:
            tracer.request_id = -1 - rep
        start = time.perf_counter()
        w.setup()
        times.append(time.perf_counter() - start)
    return times


def end_to_end(ph, setups: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "qps_wall": ph.completed / ph.wall,
        "qps_virtual": (ph.virtual_queries / ph.makespan
                        if ph.makespan > 0 else 0.0),
        "lat_p50_ms": pct(ph.lat_ms, 50),
        "vlat_p50_ms": pct(ph.vlat_ms, 50),
        "batch_p50_ms": pct(ph.step_ms, 50),
        "peak_rss_mb": peak_rss_mb(),
    }


def obs_probe(w) -> dict[str, float]:
    """Program-side tracing cost: ``RunRequest(trace=True)`` vs off.

    Pairs run the same sources with the order alternating; the medians of
    the on/off ratios of wall time and of virtual makespan are reported.
    """
    from repro import RunRequest
    from workloads import queryable, seeded_rng

    rng = seeded_rng(w.seed, 6)
    pool = queryable(w.engine.graph)
    wall_ratio, virt_ratio = [], []
    for i in range(OBS_PAIRS):
        sources = rng.choice(pool, OBS_PROBE_QUERIES, replace=False)
        walls, spans = {}, {}
        for flag in ((False, True) if i % 2 == 0 else (True, False)):
            start = time.perf_counter()
            res = w.engine.run(RunRequest(sources=sources, mode=w.probe_mode,
                                          trace=flag))
            walls[flag] = time.perf_counter() - start
            spans[flag] = res.makespan
        wall_ratio.append(walls[True] / walls[False])
        virt_ratio.append(spans[True] / spans[False])
    return {
        "obs.trace_wall_pct": (statistics.median(wall_ratio) - 1) * 100,
        "obs.trace_virtual_pct": (statistics.median(virt_ratio) - 1) * 100,
    }


def per_layer(tracer, untraced, traced, obs) -> dict[str, float]:
    self_s = tracer.self_seconds()
    out = {f"{layer}.self_ms": self_s.get(layer, 0.0) * 1e3
           for layer in LAYERS}
    wall_ms = traced.wall * 1e3
    out["other.self_ms"] = wall_ms - sum(out.values())
    out["bench.traced_wall_ms"] = wall_ms
    # unit cost = seconds inside program calls per completed query
    cost_on = traced.busy / max(traced.completed, 1)
    cost_off = untraced.busy / max(untraced.completed, 1)
    out["bench.trace_overhead_pct"] = ((cost_on / cost_off - 1) * 100
                                       if cost_off > 0 else 0.0)
    for layer in ("ppr.push", "ppr.hashmap"):
        keys = tracer.keys.get(layer, 0)
        out[f"{layer}.ns_per_key"] = (self_s.get(layer, 0.0) * 1e9 / keys
                                      if keys else 0.0)
    c = traced.counts
    hits, misses = c.get("fetch.cache_hits", 0), c.get("fetch.misses", 0)
    out.update({
        "ppr.pushes": c.get("ppr.pushes", 0),
        "fetch.evictions": c.get("fetch.evictions", 0),
        "fetch.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "fetch.bytes_saved": c.get("fetch.bytes_saved", 0),
        "rpc.calls_remote": c.get("rpc.calls_remote", 0),
        "rpc.response_bytes": c.get("rpc.response_bytes", 0),
        "rpc.retries": c.get("rpc.retries", 0),
        "simt.makespan_s": traced.makespan,
        "serve.batch_size_mean": traced.completed / max(traced.steps, 1),
    })
    for rep_layer in ("setup.partition", "setup.build"):
        reps = tracer.setup_seconds_per_rep(rep_layer)
        out[f"{rep_layer}_s"] = statistics.median(reps) if reps else 0.0
    out.update(obs)
    for name in LAYER_TABLE:
        if name not in out:
            out[name] = traced.extra.get(name, (0, ""))[0]
    return out


def human(title: str, values: dict, units: dict) -> list[str]:
    lines = [f"# {title}"]
    for name, v in values.items():
        lines.append(f"  {name:<28} {v:>16.6f} {units.get(name, '')}")
    return lines


def count_lines(ph) -> list[str]:
    n_runs = len(next(iter(ph.per_step.values()), []))
    lines = ["# program counters: total, per-run median [p25, p75] over "
             f"{n_runs} runs"]
    for name, total in ph.counts.items():
        per = ph.per_step[name]
        lines.append(f"  {name:<28} {total:>14} "
                     f"{pct(per, 50):>12.1f} [{pct(per, 25):.1f}, "
                     f"{pct(per, 75):.1f}]")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny = self-test graph sizes")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to benchmark at {src}/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from tracing import LayerTracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload](args.size, args.seed)
    w.prepare()
    if args.trace == 0:
        setups = timed_setups(w)
        w.warmup()
        phase = w.run(args.seconds)
        phases = [phase]
        metrics = end_to_end(phase, setups)
        units = END_TO_END
    else:
        tracer = LayerTracer()
        tracer.install()
        try:
            timed_setups(w, tracer)
        finally:
            tracer.remove()
        w.warmup()
        obs = obs_probe(w)
        untraced = w.run(args.seconds / 2)
        tracer.request_id = 0
        tracer.install()
        try:
            phase = w.run(args.seconds / 2, tracer)
        finally:
            tracer.remove()
        phases = [untraced, phase]
        table = per_layer(tracer, untraced, phase, obs)
        metrics = {name: table[name] for name in PER_LAYER}
        units = PER_LAYER
    verdict = w.verify()
    attempted = sum(ph.attempted for ph in phases)
    failed = min(attempted,
                 sum(ph.failed for ph in phases) + verdict.failed)
    errors = [e for ph in phases for e in ph.errors] + verdict.errors
    correct = failed == 0 and not errors and attempted > 0

    extra = {name: v for name, (v, _unit) in phase.extra.items()}
    extra["fail_share"] = failed / attempted if attempted else 1.0
    # tails are printed, not gated: see README "End-to-end metrics"
    extra["lat_p90_ms"] = pct(phase.lat_ms, 90)
    extra["vlat_p90_ms"] = pct(phase.vlat_ms, 90)
    extra["vlat_p95_ms"] = pct(phase.vlat_ms, 95)
    if args.workload == "stream-products":
        extra["update_p50_ms"] = pct(phase.step_ms, 50)
    samples = {"lat": len(phase.lat_ms), "vlat": len(phase.vlat_ms),
               "batch": len(phase.step_ms)}

    lines = [f"# perfbench {args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace} size={args.size}"]
    if args.trace == 0:
        lines += human("metrics", metrics, units)
    else:
        lines += human("layer table (all per-layer metrics)", table,
                       LAYER_TABLE)
    lines += human("workload extras (not gated)", extra, {})
    lines.append(f"# samples: {samples}; fail_share base = {attempted} "
                 "attempted (queries + update batches); failed = rejected "
                 "+ raised + failed checks "
                 f"({verdict.failed} of {verdict.checked} checks)")
    lines += count_lines(phase)
    for err in errors:
        lines.append(f"# ERROR {err}")
    print("\n".join(lines))

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": units[name]} for name in units},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({
        **result, "extra": extra, "samples": samples,
        "counts": phase.counts, "counts_per_run": phase.per_step,
        "checks": {"checked": verdict.checked, "failed": verdict.failed},
        "errors": errors, "host": fingerprint(args),
        "layers": table if args.trace == 1 else None,
    }, indent=1, default=float))
    if args.trace == 1:
        tracer.write(OUT / f"{args.workload}.spans.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
