"""Execution data-plane benchmark: vectorized kernels vs the seed runtime.

Times the hot execution path at three granularities and writes
``BENCH_runtime.json`` so later changes have a perf trajectory:

* **slot kernels** — BGV SIMD addition over full 2^15-slot ciphertexts,
  numpy array kernel vs an inline copy of the seed's per-element tuple
  loop (slot-ops/sec);
* **secret sharing** — batched Vandermonde ``share_vector`` vs the
  retained per-secret Horner reference (shares/sec, identical RNG draws
  and outputs);
* **end-to-end queries** — a full top-1 query (keygen, uploads + ZKPs,
  aggregation, VSR, MPC program) at several device counts under all three
  data planes: ``legacy`` (one Paillier ciphertext per logical slot,
  sequential folds — the seed behaviour), ``vectorized`` (packed slots,
  batched sharing, tree reductions; byte-identical to legacy —
  ``tests/test_runtime_equivalence.py`` asserts that), and ``sharded``
  (the sharded runtime over the multi-level aggregation tree;
  its own RNG schedule, pinned by the golden test in
  ``tests/test_sharded_runtime.py``);
* **sharded scale** — the sharded plane alone from 16k to 10^6 simulated
  devices (the flat planes stop being practical around 4096);
* **tree-depth sweep** — one population, several aggregation-tree
  fanouts, to show depth is a topology knob, not a cost cliff;
* **crypto backends** — the pluggable kernel backends (``pure`` vs
  ``accel``) on the bigint hot paths (batched Paillier pad modexp, batch
  modular inversion) plus one end-to-end run each, with byte-identity
  asserted inline so a backend can never buy speed with different bits
  (``tests/test_backend_equivalence.py`` is the full differential suite).

Protocol: every configuration gets one untimed warmup, then ``--reps``
timed runs, reporting the median (the scale series runs once, unwarmed —
at 10^6 devices the run *is* the warmup). Upload throughput is reported
**per data plane** from each plane's own ``RuntimeStatistics`` — the
seed harness divided one plane's upload count by another plane's wall
time, which is why committed uploads/sec used to *drop* with scale.

Usage::

    python benchmarks/bench_runtime.py --reps 3 --out BENCH_runtime.json
    python benchmarks/bench_runtime.py --smoke   # small counts, regression gate

``--smoke`` (used by ``make check`` / CI) validates the committed JSON
against the expected schema (so the sharded series cannot silently
disappear), runs the two smallest device counts once, and fails if the
vectorized plane got more than 2x slower than the committed baseline or
the sharded plane is slower than the vectorized one at the largest smoke
size.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.crypto import bgv, paillier, shamir  # noqa: E402
from repro.crypto.backend import (  # noqa: E402
    active_backend_name,
    gmpy2_available,
    numba_available,
    use_backend,
)
from repro.crypto.field import MERSENNE_127, PrimeField  # noqa: E402
from repro.analysis.ranges import Interval  # noqa: E402
from repro.analysis.types import QueryEnvironment, ValueType  # noqa: E402
from repro.planner.search import plan_query  # noqa: E402
from repro.runtime.executor import QueryExecutor  # noqa: E402
from repro.runtime.network import FederatedNetwork  # noqa: E402

TOP1 = "aggr = sum(db); r = em(aggr); output(r);"
DEVICE_COUNTS = [64, 256, 1024, 4096]
SMOKE_COUNTS = [64, 256]
SCALE_COUNTS = [16384, 65536, 262144, 1048576]
SCALE_SHARD_SIZE = 4096
TREE_SWEEP_DEVICES = 65536
TREE_SWEEP_FANOUTS = [2, 4, 16, 64]
E2E_SHARD_SIZE = 256
E2E_TREE_FANOUT = 4
CATEGORIES = 8
KEY_PRIME_BITS = 128
SEED = 11
BACKEND_NAMES = ("pure", "accel")
BACKEND_PAD_BATCH = 128
BACKEND_INV_BATCH = 256
BACKEND_E2E_DEVICES = 256
BACKEND_SMOKE_PAD_BATCH = 32
BACKEND_SMOKE_E2E_DEVICES = 64


# --------------------------------------------------------------- microbench


def _legacy_bgv_add(a, b, t):
    """The seed kernel: an interpreted per-slot tuple walk."""
    return tuple((x + y) % t for x, y in zip(a, b))


def bench_bgv_add(reps: int) -> dict:
    params = bgv.BGVParams()
    sk = bgv.keygen(params, random.Random(SEED))
    rng = random.Random(SEED + 1)
    values_a = [rng.randrange(params.plaintext_modulus) for _ in range(params.slots)]
    values_b = [rng.randrange(params.plaintext_modulus) for _ in range(params.slots)]
    ct_a = bgv.encrypt(sk.public, values_a)
    ct_b = bgv.encrypt(sk.public, values_b)
    tup_a, tup_b = tuple(values_a), tuple(values_b)
    t = params.plaintext_modulus
    inner = 10

    legacy_samples, vector_samples = [], []
    for rep in range(reps + 1):
        started = time.perf_counter()
        for _ in range(inner):
            _legacy_bgv_add(tup_a, tup_b, t)
        if rep:
            legacy_samples.append(time.perf_counter() - started)
        started = time.perf_counter()
        for _ in range(inner):
            bgv.add(ct_a, ct_b)
        if rep:
            vector_samples.append(time.perf_counter() - started)
    ops = inner * params.slots
    legacy = ops / statistics.median(legacy_samples)
    vector = ops / statistics.median(vector_samples)
    return {
        "slots": params.slots,
        "legacy_slot_ops_per_second": legacy,
        "vectorized_slot_ops_per_second": vector,
        "speedup": vector / legacy,
    }


def bench_share_vector(reps: int) -> dict:
    field = PrimeField(MERSENNE_127)
    rng = random.Random(SEED)
    values = [rng.randrange(field.modulus) for _ in range(256)]
    party_ids = [1, 2, 3, 4, 5]
    threshold = 2

    legacy_samples, vector_samples = [], []
    for rep in range(reps + 1):
        started = time.perf_counter()
        shamir.share_vector_reference(
            values, threshold, party_ids, field, random.Random(SEED)
        )
        if rep:
            legacy_samples.append(time.perf_counter() - started)
        started = time.perf_counter()
        shamir.share_vector(values, threshold, party_ids, field, random.Random(SEED))
        if rep:
            vector_samples.append(time.perf_counter() - started)
    shares = len(values) * len(party_ids)
    legacy = shares / statistics.median(legacy_samples)
    vector = shares / statistics.median(vector_samples)
    return {
        "secrets": len(values),
        "parties": len(party_ids),
        "legacy_shares_per_second": legacy,
        "vectorized_shares_per_second": vector,
        "speedup": vector / legacy,
    }


def bench_crypto_backends(
    reps: int,
    pad_batch: int = BACKEND_PAD_BATCH,
    e2e_devices: int = BACKEND_E2E_DEVICES,
) -> dict:
    """Per-backend series over the bigint hot kernels plus one e2e run.

    Byte-identity is asserted inline: every backend's pads, inverses, and
    ``QueryResult`` must equal the pure oracle's, so a kernel that drifts
    cannot publish a benchmark number.
    """
    sk = paillier.keygen(KEY_PRIME_BITS, random.Random(SEED))
    pk = sk.public
    draw_rng = random.Random(SEED + 1)
    obfuscators = [
        paillier.draw_obfuscator(pk, draw_rng) for _ in range(pad_batch)
    ]
    field = PrimeField(MERSENNE_127)
    inv_rng = random.Random(SEED + 2)
    inv_values = [
        inv_rng.randrange(1, field.modulus) for _ in range(BACKEND_INV_BATCH)
    ]

    rows = []
    oracle = {}
    for name in BACKEND_NAMES:
        with use_backend(name) as backend:
            pad_samples, inv_samples, e2e_samples = [], [], []
            pads = inverses = result = None
            for rep in range(reps + 1):  # rep 0 is the untimed warmup
                started = time.perf_counter()
                pads = paillier.precompute_pads(pk, obfuscators)
                if rep:
                    pad_samples.append(time.perf_counter() - started)
                started = time.perf_counter()
                inverses = backend.batch_invmod(inv_values, field.modulus)
                if rep:
                    inv_samples.append(time.perf_counter() - started)
                started = time.perf_counter()
                _, result = _run_query(e2e_devices, "sharded")
                if rep:
                    e2e_samples.append(time.perf_counter() - started)
            if name == "pure":
                oracle = {"pads": pads, "inverses": inverses, "result": result}
            elif (
                pads != oracle["pads"]
                or inverses != oracle["inverses"]
                or result != oracle["result"]
            ):
                raise SystemExit(
                    f"backend {name!r} diverged from the pure oracle — run "
                    "tests/test_backend_equivalence.py"
                )
            rows.append(
                {
                    "backend": name,
                    "detail": backend.detail,
                    "pad_batch": pad_batch,
                    "modexp_ops_per_second": (
                        pad_batch / statistics.median(pad_samples)
                    ),
                    "batch_invmod_ops_per_second": (
                        BACKEND_INV_BATCH / statistics.median(inv_samples)
                    ),
                    "e2e_devices": e2e_devices,
                    "e2e_seconds": statistics.median(e2e_samples),
                }
            )
    pure = rows[0]
    for row in rows:
        row["modexp_speedup_vs_pure"] = (
            row["modexp_ops_per_second"] / pure["modexp_ops_per_second"]
        )
        row["e2e_speedup_vs_pure"] = pure["e2e_seconds"] / row["e2e_seconds"]
        print(
            f"backend {row['backend']:5s}  "
            f"modexp {row['modexp_ops_per_second']:9.0f} ops/s "
            f"({row['modexp_speedup_vs_pure']:5.2f}x)  "
            f"batch-inv {row['batch_invmod_ops_per_second']:9.0f} ops/s  "
            f"e2e {row['e2e_seconds']:6.2f} s "
            f"({row['e2e_speedup_vs_pure']:5.2f}x)  [{row['detail']}]"
        )
    return {
        "active": active_backend_name(),
        "gmpy2": gmpy2_available(),
        "numba": numba_available(),
        "key_prime_bits": KEY_PRIME_BITS,
        "series": rows,
    }


# -------------------------------------------------------------- end-to-end


def _run_query(
    devices: int,
    data_plane: str,
    shard_size: int = E2E_SHARD_SIZE,
    tree_fanout: int = E2E_TREE_FANOUT,
):
    env = QueryEnvironment(
        num_participants=devices,
        row_width=CATEGORIES,
        db_element=ValueType("int", Interval(0.0, 1.0)),
        epsilon=4.0,
        sensitivity=1.0,
        row_encoding="one_hot",
    )
    planning = plan_query(TOP1, env, name="bench-top1")
    network = FederatedNetwork(devices, rng=random.Random(SEED))
    network.load_categorical_data(CATEGORIES)
    executor = QueryExecutor(
        network,
        planning,
        committee_size=4,
        key_prime_bits=KEY_PRIME_BITS,
        rng=random.Random(SEED + 1),
        data_plane=data_plane,
        shard_size=shard_size,
        tree_fanout=tree_fanout,
    )
    started = time.perf_counter()
    result = executor.run()
    return time.perf_counter() - started, result


def _uploads_per_second(stats) -> float:
    """One plane's own throughput: its uploads over its own submit time."""
    if not stats.submit_seconds:
        return 0.0
    return stats.uploads_submitted / stats.submit_seconds


def bench_e2e(device_counts, reps: int):
    rows = []
    for devices in device_counts:
        medians = {}
        throughput = {}
        plane_stats = {}
        legacy_result = None
        for plane in ("legacy", "vectorized", "sharded"):
            samples = []
            for rep in range(reps + 1):  # rep 0 is the untimed warmup
                seconds, result = _run_query(devices, plane)
                if rep:
                    samples.append(seconds)
            medians[plane] = statistics.median(samples)
            # Per-plane throughput from the *last* timed run's own stats:
            # dividing one plane's upload count by another plane's wall
            # time is the bug that made committed uploads/sec fall as the
            # device count grew.
            throughput[plane] = _uploads_per_second(result.statistics)
            plane_stats[plane] = result.statistics
            if plane == "legacy":
                legacy_result = result
            elif plane == "vectorized" and result != legacy_result:
                raise SystemExit(
                    f"flat data planes disagree at {devices} devices — run "
                    "the equivalence suite"
                )
        sharded = plane_stats["sharded"]
        rows.append(
            {
                "devices": devices,
                "legacy_seconds": medians["legacy"],
                "vectorized_seconds": medians["vectorized"],
                "sharded_seconds": medians["sharded"],
                "speedup": medians["legacy"] / medians["vectorized"],
                "sharded_speedup_vs_vectorized": (
                    medians["vectorized"] / medians["sharded"]
                ),
                "legacy_uploads_per_second": throughput["legacy"],
                "vectorized_uploads_per_second": throughput["vectorized"],
                "sharded_uploads_per_second": throughput["sharded"],
                "packing_lanes": plane_stats["vectorized"].packing_lanes,
                "shards": sharded.shards,
                "tree_depth": sharded.tree_depth,
            }
        )
        print(
            f"{devices:5d} devices  legacy {medians['legacy']:7.2f} s  "
            f"vectorized {medians['vectorized']:7.2f} s  "
            f"sharded {medians['sharded']:7.2f} s  "
            f"({rows[-1]['speedup']:5.2f}x / "
            f"{rows[-1]['sharded_speedup_vs_vectorized']:5.2f}x)  "
            f"{throughput['sharded']:9.0f} sharded uploads/s"
        )
    return rows


def bench_sharded_scale(device_counts):
    """The sharded plane alone, one unwarmed run per count (reps are not
    affordable at 10^6 devices, and at that scale noise is a rounding
    error on a multi-second run)."""
    rows = []
    for devices in device_counts:
        seconds, result = _run_query(
            devices, "sharded", shard_size=SCALE_SHARD_SIZE, tree_fanout=16
        )
        stats = result.statistics
        rows.append(
            {
                "devices": devices,
                "sharded_seconds": seconds,
                "sharded_uploads_per_second": _uploads_per_second(stats),
                "shard_size": stats.shard_size,
                "shards": stats.shards,
                "tree_depth": stats.tree_depth,
            }
        )
        print(
            f"{devices:8d} devices  sharded {seconds:7.2f} s  "
            f"{rows[-1]['sharded_uploads_per_second']:9.0f} uploads/s  "
            f"{stats.shards:4d} shards, tree depth {stats.tree_depth}"
        )
    return rows


def bench_tree_depth(devices: int, fanouts):
    """Same population, different aggregation-tree shapes."""
    rows = []
    for fanout in fanouts:
        seconds, result = _run_query(
            devices,
            "sharded",
            shard_size=SCALE_SHARD_SIZE // 4,
            tree_fanout=fanout,
        )
        stats = result.statistics
        rows.append(
            {
                "devices": devices,
                "tree_fanout": fanout,
                "tree_depth": stats.tree_depth,
                "shards": stats.shards,
                "sharded_seconds": seconds,
            }
        )
        print(
            f"fanout {fanout:3d} -> depth {stats.tree_depth}  "
            f"{seconds:7.2f} s ({stats.shards} shards)"
        )
    return rows


# ------------------------------------------------------------------ schema

#: Keys every committed end-to-end row must carry. A refactor that drops
#: the sharded series (or quietly reverts to cross-plane throughput)
#: fails the smoke gate instead of shipping a hollowed-out BENCH file.
E2E_ROW_KEYS = frozenset(
    {
        "devices",
        "legacy_seconds",
        "vectorized_seconds",
        "sharded_seconds",
        "speedup",
        "sharded_speedup_vs_vectorized",
        "legacy_uploads_per_second",
        "vectorized_uploads_per_second",
        "sharded_uploads_per_second",
        "packing_lanes",
        "shards",
        "tree_depth",
    }
)
SCALE_ROW_KEYS = frozenset(
    {
        "devices",
        "sharded_seconds",
        "sharded_uploads_per_second",
        "shard_size",
        "shards",
        "tree_depth",
    }
)
SWEEP_ROW_KEYS = frozenset(
    {"devices", "tree_fanout", "tree_depth", "shards", "sharded_seconds"}
)
BACKEND_ROW_KEYS = frozenset(
    {
        "backend",
        "detail",
        "pad_batch",
        "modexp_ops_per_second",
        "batch_invmod_ops_per_second",
        "e2e_devices",
        "e2e_seconds",
        "modexp_speedup_vs_pure",
        "e2e_speedup_vs_pure",
    }
)


def check_schema(payload: dict) -> list:
    """Validate a BENCH_runtime.json payload; returns a list of problems."""
    problems = []
    for section in ("microbenchmarks", "end_to_end", "sharded_scale", "tree_depth_sweep"):
        if section not in payload:
            problems.append(f"missing section {section!r}")
    for section, required in (
        ("end_to_end", E2E_ROW_KEYS),
        ("sharded_scale", SCALE_ROW_KEYS),
        ("tree_depth_sweep", SWEEP_ROW_KEYS),
    ):
        rows = payload.get(section)
        if not isinstance(rows, list) or not rows:
            problems.append(f"section {section!r} is empty")
            continue
        for row in rows:
            missing = required - set(row)
            if missing:
                problems.append(
                    f"{section} row for {row.get('devices')} devices is "
                    f"missing {sorted(missing)}"
                )
    scale = payload.get("sharded_scale") or []
    if scale and max(row.get("devices", 0) for row in scale) < 10**6:
        problems.append("sharded_scale series no longer reaches 10^6 devices")
    backends = payload.get("crypto_backends")
    if not isinstance(backends, dict):
        problems.append("missing section 'crypto_backends'")
    else:
        series = backends.get("series")
        if not isinstance(series, list) or not series:
            problems.append("section 'crypto_backends' has no series")
        else:
            names = set()
            for row in series:
                names.add(row.get("backend"))
                missing = BACKEND_ROW_KEYS - set(row)
                if missing:
                    problems.append(
                        f"crypto_backends row for {row.get('backend')!r} is "
                        f"missing {sorted(missing)}"
                    )
            absent = set(BACKEND_NAMES) - names
            if absent:
                problems.append(
                    f"crypto_backends series lacks backends {sorted(absent)}"
                )
    return problems


def smoke(baseline_path: Path) -> int:
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; run 'make bench-runtime' first")
        return 1
    payload = json.loads(baseline_path.read_text())
    problems = check_schema(payload)
    if problems:
        print(f"committed {baseline_path.name} fails the schema check:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    baseline = {row["devices"]: row for row in payload["end_to_end"]}
    rows = bench_e2e(SMOKE_COUNTS, reps=1)
    failures = []
    for row in rows:
        base = baseline.get(row["devices"])
        if base is None:
            continue
        if row["vectorized_seconds"] > 2.0 * base["vectorized_seconds"]:
            failures.append(
                f"{row['devices']} devices: {row['vectorized_seconds']:.2f} s vs "
                f"baseline {base['vectorized_seconds']:.2f} s (> 2x regression)"
            )
    largest = rows[-1]
    if largest["sharded_seconds"] > largest["vectorized_seconds"]:
        failures.append(
            f"{largest['devices']} devices: sharded plane "
            f"({largest['sharded_seconds']:.2f} s) is slower than the "
            f"vectorized plane ({largest['vectorized_seconds']:.2f} s)"
        )
    backends = bench_crypto_backends(
        reps=1,
        pad_batch=BACKEND_SMOKE_PAD_BATCH,
        e2e_devices=BACKEND_SMOKE_E2E_DEVICES,
    )
    if gmpy2_available():
        accel = next(
            row for row in backends["series"] if row["backend"] == "accel"
        )
        if accel["modexp_speedup_vs_pure"] < 3.0:
            failures.append(
                "gmpy2 is installed but the accel backend's batched Paillier "
                f"modexp is only {accel['modexp_speedup_vs_pure']:.2f}x the "
                "pure oracle (>= 3x required)"
            )
    if failures:
        print("runtime benchmark regression:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(
        "runtime smoke benchmark: schema ok, within 2x of committed "
        "baseline, sharded plane no slower than vectorized, backends "
        "byte-identical"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=3, help="timed repetitions")
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_runtime.json"),
        help="output path for the benchmark JSON",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small device counts, 1 rep; fail if the vectorized plane "
        "regressed >2x vs the --out baseline",
    )
    parser.add_argument(
        "--backends", action="store_true",
        help="run only the per-backend crypto series and merge it into the "
        "existing --out JSON (the other series are kept as committed)",
    )
    args = parser.parse_args()
    if args.smoke:
        return smoke(Path(args.out))
    if args.backends:
        out = Path(args.out)
        if not out.exists():
            print(f"no baseline at {out}; run the full benchmark first")
            return 1
        payload = json.loads(out.read_text())
        payload["crypto_backends"] = bench_crypto_backends(args.reps)
        problems = check_schema(payload)
        if problems:
            print("merged payload fails the schema check:")
            for problem in problems:
                print(f"  {problem}")
            return 1
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"crypto_backends series refreshed -> {out}")
        return 0
    micro = {
        "bgv_add": bench_bgv_add(args.reps),
        "share_vector": bench_share_vector(args.reps),
    }
    print(
        f"bgv.add          {micro['bgv_add']['speedup']:6.1f}x  "
        f"({micro['bgv_add']['vectorized_slot_ops_per_second']:.3g} slot-ops/s)"
    )
    print(
        f"share_vector     {micro['share_vector']['speedup']:6.1f}x  "
        f"({micro['share_vector']['vectorized_shares_per_second']:.3g} shares/s)"
    )
    backend_rows = bench_crypto_backends(args.reps)
    rows = bench_e2e(DEVICE_COUNTS, args.reps)
    scale_rows = bench_sharded_scale(SCALE_COUNTS)
    sweep_rows = bench_tree_depth(TREE_SWEEP_DEVICES, TREE_SWEEP_FANOUTS)
    largest = rows[-1]
    payload = {
        "benchmark": "runtime-data-plane",
        "reps": args.reps,
        "key_prime_bits": KEY_PRIME_BITS,
        "categories": CATEGORIES,
        "query": TOP1,
        "microbenchmarks": micro,
        "crypto_backends": backend_rows,
        "end_to_end": rows,
        "sharded_scale": scale_rows,
        "tree_depth_sweep": sweep_rows,
        "e2e_speedup_at_largest": largest["speedup"],
        "sharded_speedup_at_largest": largest["sharded_speedup_vs_vectorized"],
    }
    problems = check_schema(payload)
    if problems:
        print("generated payload fails its own schema check:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"e2e at {largest['devices']} devices: "
        f"{largest['speedup']:.2f}x (vectorized vs legacy), "
        f"{largest['sharded_speedup_vs_vectorized']:.2f}x (sharded vs "
        f"vectorized) -> {args.out}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
