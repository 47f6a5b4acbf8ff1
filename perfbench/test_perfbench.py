"""Self-tests of the repo benchmark, at small sizes.

Run from the repository root::

    python -m pytest -q perfbench/test_perfbench.py

They check that tracing never changes what the program releases, that
every probed layer records calls on the workload its metrics should move
(so a renamed function fails here instead of reporting 0), that a new
seed changes the inputs but not the check verdicts, and that
``BENCHMARK.json`` names exactly the metrics the benchmark prints.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

#: Units per pass: grid cycles, queries, submissions.
UNITS = {"plan-sweep": 1, "intake-sharded": 2, "svc-mixed": 12}


class SmallPlanSweep(workloads.PlanSweep):
    queries = ("top1", "cms", "bayes")
    exponents = (20, 27)
    limits = (1000.0, None)


class SmallIntakeSharded(workloads.IntakeSharded):
    population = 2048
    jitter = 64
    shard_size = 512
    tree_fanout = 4


def small(name: str, seed: int, tmp: Path):
    if name == "plan-sweep":
        return SmallPlanSweep(seed)
    if name == "intake-sharded":
        return SmallIntakeSharded(seed, workdir=str(tmp))
    return workloads.SvcMixed(seed)


_PAIRS = {}


def traced_pair(name: str, tmp: Path):
    """(untraced pass, traced pass, recorder) over the same units, cached."""
    if name not in _PAIRS:
        workload = small(name, 1, tmp)
        plain = workload.run(workload.build(), layers.NullRecorder(), units=UNITS[name])
        recorder = layers.SpanRecorder()
        state = workload.build()
        with layers.traced(recorder):
            traced = workload.run(state, recorder, units=UNITS[name])
        _PAIRS[name] = (plain, traced, recorder)
    return _PAIRS[name]


@pytest.fixture(scope="module")
def tmp(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("perfbench")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_release_identical_results(name, tmp):
    plain, traced, _ = traced_pair(name, tmp)
    assert plain.correct, plain.problems
    assert traced.correct, traced.problems
    assert plain.attempted == traced.attempted > 0
    assert plain.digest == traced.digest


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_expected_layer_records_calls(name, tmp):
    _, _, recorder = traced_pair(name, tmp)
    silent = [n for n in run.EXPECTED_LAYERS[name] if recorder.calls(n) == 0]
    assert not silent


def test_probes_are_removed_after_tracing(tmp):
    traced_pair("svc-mixed", tmp)
    from repro.crypto import zkp
    from repro.runtime import aggregator, executor, shard

    assert shard.zkp_verify is zkp.verify and aggregator.zkp_verify is zkp.verify
    assert executor.prove is zkp.prove and not hasattr(zkp.prove, "__wrapped__")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_new_seed_changes_inputs_not_verdicts(name, tmp):
    first, second = small(name, 1, tmp), small(name, 2, tmp)
    assert first.inputs_digest() != second.inputs_digest()
    plain, _, _ = traced_pair(name, tmp)
    other = second.run(second.build(), layers.NullRecorder(), units=UNITS[name])
    assert plain.correct and other.correct, other.problems
    assert other.digest != plain.digest


def test_renamed_target_fails_loudly():
    probe = layers.Probe("gone", ("repro.runtime.shard:upload_shard_renamed",))
    with pytest.raises(layers.ProbeError):
        with layers.traced(layers.SpanRecorder(), probes=(probe,)):
            pass


def test_self_time_excludes_children():
    recorder = layers.SpanRecorder()
    with recorder.span("outer"):
        with recorder.span("inner"):
            sum(range(20000))
    outer, inner = recorder.totals["outer"], recorder.totals["inner"]
    assert outer[2] == pytest.approx(outer[1] - inner[1])
    assert recorder.spans[0][4] == recorder.spans[1][0]  # inner's parent is outer


def test_benchmark_json_names_every_printed_metric(tmp):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain, traced, recorder = traced_pair("plan-sweep", tmp)
    e2e = run.e2e_metrics(plain, [1.0])
    per_layer = layers.layer_metrics(recorder, traced.counters)
    per_layer["trace.overhead_s"] = (0.0, "s")
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: unit for k, (_, unit) in e2e.items()
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (_, unit) in per_layer.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(value > 0 for value, _ in e2e.values())


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
