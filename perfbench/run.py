"""Benchmark entry point: one workload, one run, one JSON result line.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload sweep-trace --seed 3 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` runs the same workload with span wrappers at every layer
boundary (:mod:`layers`) and reports the per-layer metrics instead.  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it carries the run's details (host
yardstick before and after, tail percentile and sample count, cache and
memo shares, the optimizer digest).  Each run also leaves a JSON record
(and, traced, its spans) under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: End-to-end metrics and their units (mirrored in BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "evals_per_s": "1/s",
    "sweep_ms_p50": "ms",
    "sweep_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms_p50"):
        return "ms"
    if name.endswith(("hit_rate", "_frac")):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("evals_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def end_to_end_metrics(record: dict) -> tuple[dict, dict]:
    """The end-to-end metrics of one untraced run, plus tail details."""
    from workloads import percentile, tail_percentile

    body = record["body"]
    sweeps_ms = [s * 1e3 for s in body.sweep_s]
    tail_p = tail_percentile(len(sweeps_ms))
    values = {
        "setup_s": record["setup_s"],
        "evals_per_s": body.evaluations / body.body_s,
        "sweep_ms_p50": statistics.median(sweeps_ms),
        "sweep_ms_tail": percentile(sweeps_ms, tail_p),
        "peak_rss_mb": record["peak_rss_mb"],
    }
    detail = {"tail_percentile": tail_p, "sweep_samples": len(sweeps_ms)}
    return values, detail


def stop_helper_processes() -> None:
    """Wait for every process the run started to end.

    Pool workers are joined by the evaluator's ``close()``; the
    shared-memory resource tracker a process pool starts outlives it,
    and closing its pipe (``_stop``) ends it and waits for it.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=30)
    resource_tracker._resource_tracker._stop()


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=OUT)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"error: no repro sources under {ROOT / 'src'}; run from the "
            "root of a full source checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from layers import Tracer, layer_metrics
    from workloads import WORKLOADS, run_workload
    from yardstick import yardstick_ms

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from "
            f"{', '.join(WORKLOADS)}"
        )
    yard_before = yardstick_ms()
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    tracer = Tracer() if args.trace else None
    record = run_workload(workload, tracer)
    stop_helper_processes()
    yard_after = yardstick_ms()

    body = record["body"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "yardstick_ms": {"before": yard_before, "after": yard_after},
        "steps": len(body.steps),
        "evaluations": body.evaluations,
        "body_s": body.body_s,
        "setup_runs_s": record["setup_runs_s"],
        "failures": {s.label: s.error or "degraded" for s in record["failed"]},
        **body.detail,
    }
    if args.trace:
        values = layer_metrics(tracer, body.counters, record["setup_parts"])
        values["trace.evals_per_s"] = body.evaluations / body.body_s
        units = {name: layer_unit(name) for name in values}
        tracer.write(
            args.out / f"spans-{args.workload}-seed{args.seed}.npz"
        )
    else:
        values, tail = end_to_end_metrics(record)
        detail.update(tail)
        units = END_TO_END
    result = {
        "correct": not record["failed"],
        "attempted": len(body.steps),
        "failed": len(record["failed"]),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }
    args.out.mkdir(parents=True, exist_ok=True)
    (
        args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    ).write_text(json.dumps({"detail": detail, **result}, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
