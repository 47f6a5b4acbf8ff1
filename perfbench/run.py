"""The repo benchmark: one command, three workloads, end-to-end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plan-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no probes installed
(set-up is repeated ``SETUP_REPS`` times and its median reported).
``--trace 1`` runs three passes over identical inputs: a warm-up pass for
a quarter of ``--seconds``, an untraced pass over the same number of units,
and a traced pass over them with every layer probe installed. It reports
the per-layer metrics, the tracing overhead (traced minus untraced wall
time), and fails the run if the three passes released different results
or a probed layer recorded no calls on a workload it should dominate.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A result file with sample
counts, check failures, digests and the machine description is written
under ``perfbench/out/results/``; traced runs also write the spans as JSON
and as Chrome trace events under ``perfbench/out/traces/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5

#: Probed layers that must record calls on each workload: a rename or a
#: rerouted call path fails the traced run instead of reporting 0.
EXPECTED_LAYERS = {
    "plan-sweep": (
        "lang.parse", "lang.simplify", "privacy.certify", "planner.lower",
        "planner.search", "planner.search_run", "verify.plan_check",
        "verify.dataflow",
    ),
    "intake-sharded": (
        "lang.parse", "privacy.certify", "planner.lower", "planner.search",
        "verify.plan_check", "verify.dataflow", "runtime.query",
        "runtime.keygen", "crypto.paillier_keygen", "crypto.vsr",
        "crypto.paillier_decrypt", "runtime.program", "mpc.less_than",
        "mpc.mul", "mpc.engine", "crypto.field_inv", "runtime.network",
        "runtime.sortition", "runtime.shard_build", "runtime.upload",
        "runtime.verify", "runtime.fold", "runtime.audit", "crypto.pads",
        "crypto.zkp_prove", "crypto.zkp_verify", "runtime.journal",
    ),
    "svc-mixed": (
        "service.submit", "service.admission", "service.scheduler",
        "service.cache", "planner.search", "verify.plan_check",
        "verify.dataflow", "runtime.query", "runtime.keygen", "crypto.vsr",
        "crypto.paillier_decrypt", "runtime.program", "mpc.mul",
        "mpc.less_than", "mpc.engine", "crypto.field_inv", "crypto.zkp_prove",
        "crypto.zkp_verify", "runtime.intake_flat", "runtime.sortition",
        "runtime.audit",
    ),
}


def percentile(samples, pct: int) -> float:
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def e2e_metrics(res, setups):
    """Every end-to-end metric: ``name -> (value, unit)``; see README.md."""
    plan, ops, objective = res.plan_latencies, res.op_latencies, res.objective
    geomean = math.exp(statistics.fmean(math.log(v) for v in objective)) if objective else 0.0
    return {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "plans_per_s": (_per(len(plan), sum(plan)), "1/s"),
        "plan_p50_ms": (percentile(plan, 50) * 1000.0, "ms"),
        "plan_p95_ms": (percentile(plan, 95) * 1000.0, "ms"),
        "plan_objective": (geomean, "s"),
        "devices_per_s": (_per(res.devices, res.device_seconds), "1/s"),
        "svc_qps": (_per(len(ops), res.wall), "1/s"),
        "svc_p50_ms": (percentile(ops, 50) * 1000.0, "ms"),
        "svc_p95_ms": (percentile(ops, 95) * 1000.0, "ms"),
    }


def make_workload(name: str, seed: int):
    from workloads import WORKLOADS, IntakeSharded

    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    if name == IntakeSharded.name:
        workdir = HERE / "out" / "tmp"
        workdir.mkdir(parents=True, exist_ok=True)
        return IntakeSharded(seed, workdir=str(workdir))
    return WORKLOADS[name](seed)


def _timed_build(workload, setups):
    from layers import clock

    gc.collect()
    started = clock()
    state = workload.build()
    setups.append(clock() - started)
    return state


def run_e2e(workload, seconds: float) -> dict:
    from layers import NullRecorder

    setups = []
    state = None
    for _ in range(SETUP_REPS):
        state = None  # release the previous deployment before building anew
        state = _timed_build(workload, setups)
    res = workload.run(state, NullRecorder(), seconds=seconds)
    return {
        "attempted": res.attempted,
        "failed": res.failed,
        "problems": res.problems,
        "metrics": e2e_metrics(res, setups),
        "samples": {
            "setup": len(setups),
            "plan_latencies": len(res.plan_latencies),
            "op_latencies": len(res.op_latencies),
            "objective_plans": len(res.objective),
        },
        "units": res.units,
        "latencies_ms": {
            "plan": [x * 1000.0 for x in res.plan_latencies],
            "op": [x * 1000.0 for x in res.op_latencies],
        },
        "digest": res.digest,
    }


def run_traced(workload, seconds: float, trace_stem: Path) -> dict:
    import layers

    setups = []
    null = layers.NullRecorder()
    warm = workload.run(_timed_build(workload, setups), null, seconds=seconds / 4.0)
    plain = workload.run(_timed_build(workload, setups), null, units=warm.units)
    recorder = layers.SpanRecorder()
    state = _timed_build(workload, setups)
    with layers.traced(recorder):
        traced = workload.run(state, recorder, units=warm.units)
    passes = (warm, plain, traced)
    problems = [p for res in passes for p in res.problems]
    if len({res.digest for res in passes}) != 1:
        problems.append(
            "passes over the same inputs released different results: "
            + ", ".join(res.digest[:16] for res in passes)
        )
    silent = [n for n in EXPECTED_LAYERS[workload.name] if recorder.calls(n) == 0]
    if silent:
        problems.append(f"probed layers recorded no calls: {silent}")
    metrics = layers.layer_metrics(recorder, traced.counters)
    metrics["trace.overhead_s"] = (traced.wall - plain.wall, "s")
    recorder.write(f"{trace_stem}.spans.json", f"{trace_stem}.trace.json")
    return {
        "attempted": sum(res.attempted for res in passes),
        "failed": sum(res.failed for res in passes),
        "problems": problems,
        "metrics": metrics,
        "samples": {
            "units_per_pass": warm.units,
            "traced_ops": len(traced.op_latencies),
            "spans_kept": len(recorder.spans),
            "spans_dropped": recorder.dropped,
            "queue_wait": len(recorder.samples["service.queue_wait"]),
            "cache_hit_lookup": len(recorder.samples["service.cache_hit_lookup"]),
        },
        "walls_s": {"warm": warm.wall, "untraced": plain.wall, "traced": traced.wall},
        "layer_calls": {name: recorder.calls(name) for name in EXPECTED_LAYERS[workload.name]},
        "span_summary": recorder.summary(),
        "digest": traced.digest,
    }


def machine() -> dict:
    import numpy

    from repro.crypto.backend import active_backend_name

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "crypto_backend": active_backend_name(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    workload = make_workload(args.workload, args.seed)
    results_dir = HERE / "out" / "results"
    traces_dir = HERE / "out" / "traces"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        traces_dir.mkdir(parents=True, exist_ok=True)
        outcome = run_traced(workload, args.seconds, traces_dir / stem)
    else:
        outcome = run_e2e(workload, args.seconds)
    correct = outcome["failed"] == 0 and not outcome["problems"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "machine": machine(),
        **outcome,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome["metrics"].items()},
    }
    result_path = results_dir / f"{stem}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2, default=repr) + "\n")

    for problem in outcome["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(f"samples: {json.dumps(outcome['samples'])}")
    for name, (value, unit) in outcome["metrics"].items():
        print(f"{name:36s} {value:16.6f} {unit}")
    print(f"result file: {result_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
