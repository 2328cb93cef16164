"""Benchmark entry point: one seeded workload, one JSON result line.

    python3 perfbench/run.py --workload search_hot --seed 1 --seconds 10 --trace 0

Run from the repository root.  The process starts Ray with one CPU,
builds everything it measures from source in the checkout, and keeps
its index builds under ``.perfbench/`` there; Ray's session directory
is a temporary directory, because Ray's unix socket paths must fit 107
bytes.  Both are removed at exit.  Traced runs leave their spans in
``.perfbench/traces/``.  Human-readable lines come first; the last
line of standard output is the JSON result.  The exit code is nonzero
when any correctness gate failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# end-to-end metrics: name → unit; every workload reports all of them.
# Times are CPU time (see proc.py); wall times are printed for reference.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_cpu_s": "1/s",
    "p50_cpu_ms": "ms",
    "tail_cpu_ms": "ms",
    "peak_rss_mb": "MB",
    "index_bytes_per_input_byte": "B/B",
}


def p50_and_tail_ms(latencies_s: list[float], tail_pct: int | None) -> tuple[float, float]:
    """Median and tail (``tail_pct``, or the mean when None) in ms."""
    import numpy as np

    lat_ms = np.asarray(latencies_s) * 1e3
    tail = np.mean(lat_ms) if tail_pct is None else np.percentile(lat_ms, tail_pct)
    return float(np.percentile(lat_ms, 50)), float(tail)


def end_to_end(r, rss_mb: float) -> dict[str, float]:
    p50, tail = p50_and_tail_ms(r.latencies_s, r.tail_pct)
    return {
        "setup_s": r.setup_s,
        "throughput_per_cpu_s": r.throughput_per_s,
        "p50_cpu_ms": p50,
        "tail_cpu_ms": tail,
        "peak_rss_mb": rss_mb,
        "index_bytes_per_input_byte": r.index_bytes / r.input_bytes,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["build", "search_hot", "topk_longtail", "bulk_mixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    # the program under test is the checkout's own source tree; Ray
    # workers inherit the environment, so they import the same tree
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    os.environ["ARROW_NUM_THREADS"] = "1"
    import docs_indexer_ray.index.build  # noqa: F401  (fails fast without the source)
    import docs_indexer_ray.serve_http  # noqa: F401

    import layers
    import proc
    import workloads
    from spans import Tracer

    base = os.path.join(ROOT, ".perfbench")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    ray_tmp = tempfile.mkdtemp(prefix="pb")
    run = workloads.Run(
        seed=args.seed,
        seconds=args.seconds,
        work=work,
        tracer=Tracer() if args.trace else None,
    )
    import ray
    import ray.data

    t_start = time.perf_counter()
    try:
        ray.init(
            num_cpus=1,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            _temp_dir=ray_tmp,
            object_store_memory=256 << 20,
        )
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        fn = {
            "build": workloads.run_build,
            "search_hot": workloads.run_search_hot,
            "topk_longtail": workloads.run_topk_longtail,
            "bulk_mixed": workloads.run_bulk_mixed,
        }[args.workload]
        result = fn(run)
        rss = proc.tree_hwm_mb()
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
    wall = time.perf_counter() - t_start

    if args.trace:
        values = {name: 0.0 for name, *_ in layers.PER_LAYER}
        values.update(result.layers)
        units = {name: unit for name, unit, *_ in layers.PER_LAYER}
        traces = os.path.join(base, "traces")
        os.makedirs(traces, exist_ok=True)
        path = os.path.join(traces, f"{args.workload}-seed{args.seed}.json")
        run.tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                               "summary": result.summary, "per_layer": values})
        print(f"# spans: {path}")
        print(f"# layer self times ({args.workload}, traced {result.summary['traced_s']:.3f} s,"
              f" untraced {result.summary['untraced_s']:.3f} s)")
        for name, v in sorted(result.summary["layers_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"#   {name:40s} {v:10.4f} s")
    else:
        values = end_to_end(result, rss)
        units = END_TO_END
    n = len(result.latencies_s)
    samples = {"p50_cpu_ms": n, "tail_cpu_ms": n, "throughput_per_cpu_s": n,
               "setup_s": workloads.SETUP_REPS}
    tail_name = "mean" if result.tail_pct is None else f"p{result.tail_pct}"
    for name, v in values.items():
        extra = f" n={samples[name]}" if name in samples else ""
        pct = f" ({tail_name})" if name == "tail_cpu_ms" else ""
        print(f"# {name} = {v:.6g} {units[name]}{pct}{extra}")
    if result.wall_s:
        p50, tail = p50_and_tail_ms(result.wall_s, result.tail_pct)
        print(f"# for reference, wall time: p50 {p50:.6g} ms, {tail_name} {tail:.6g} ms")
    print(f"# attempted={result.attempted} failed={result.failed} wall={wall:.1f}s")
    correct = result.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
