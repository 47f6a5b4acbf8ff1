"""Per-layer tracing for the repo benchmark, installed from outside ``src/``.

The benchmark times calls into each layer's public functions without
changing the program: :func:`traced` replaces each function or method
named in :data:`PROBES` *where its caller looks it up* and restores the
originals on exit.

* A class method is replaced on its class (``Class.__dict__``), so every
  ``self.method(...)`` and ``instance.method(...)`` call sees the probe.
* A module function is replaced in its home module *and* in every loaded
  ``repro`` module that holds it under any name, so a function imported
  by name (``from ..crypto.zkp import prove``) or under an alias
  (``verify as zkp_verify``) is probed too. Functions imported at call
  time (``from .shard import upload_shard`` inside a method) read the
  home module's attribute, which is probed.

A target that no longer exists raises :class:`ProbeError`, so a rename
fails the traced run instead of reporting a silent zero.

:class:`SpanRecorder` keeps spans in memory (name, start, end, parent,
request id) and maintains per-name call counts, inclusive time and *self*
time (duration minus the part covered by child spans) as spans close.
Per-device leaf functions (``mode="aggregate"``) update the totals but keep
no individual span, so a 131k-device query does not hold half a million
span records. The recorder assumes one thread; every workload runs on one.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

clock = time.perf_counter

#: Modules loaded before patching so aliases held by lazily imported
#: modules are found too.
IMPORTERS = (
    "repro.runtime.executor",
    "repro.runtime.shard",
    "repro.runtime.aggregator",
    "repro.runtime.scheduler",
    "repro.runtime.journal",
    "repro.service",
    "repro.session",
    "repro.verify",
    "repro.planner.search",
    "repro.planner.serialize",
)


class ProbeError(RuntimeError):
    """A probed function or method no longer exists under its name."""


class SpanRecorder:
    """In-memory spans plus running per-name totals and counters."""

    #: Spans kept as records; later ones only update the totals.
    keep_limit = 100_000

    def __init__(self):
        #: name -> [calls, inclusive seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: (span id, name, start, end, parent id or 0, request id)
        self.spans: List[Tuple[int, str, float, float, int, object]] = []
        self.counts: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: Request id stamped on every span; set by the workload per op.
        self.request: object = None
        self.dropped = 0
        self.origin = clock()
        self.engine_counters: List[object] = []
        self.submitted_at: Dict[int, float] = {}
        self._stack: List[list] = []
        self._next_id = 0

    def enter(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, clock(), 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, keep: bool = True) -> float:
        end = clock()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if keep:
            if len(self.spans) < self.keep_limit:
                self.spans.append(
                    (span_id, name, start, end, parent[0] if parent else 0, self.request)
                )
            else:
                self.dropped += 1
        return duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame)

    def calls(self, name: str) -> int:
        if name in self.totals:
            return int(self.totals[name][0])
        return int(self.counts[name])

    def self_seconds(self, name: str) -> float:
        return self.totals[name][2] if name in self.totals else 0.0

    # -------------------------------------------------------------- export

    def span_dicts(self) -> List[dict]:
        return [
            {
                "id": span_id,
                "name": name,
                "start_s": start - self.origin,
                "end_s": end - self.origin,
                "parent": parent,
                "request": request,
            }
            for span_id, name, start, end, parent, request in self.spans
        ]

    def summary(self) -> Dict[str, dict]:
        return {
            name: {"calls": int(calls), "inclusive_s": inclusive, "self_s": own}
            for name, (calls, inclusive, own) in sorted(self.totals.items())
        }

    def chrome_events(self) -> List[dict]:
        """Chrome trace-event ("X" complete events), opens in Perfetto."""
        return [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - self.origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent, "request": request},
            }
            for span_id, name, start, end, parent, request in self.spans
        ]

    def write(self, spans_path, chrome_path) -> None:
        payload = {
            "summary": self.summary(),
            "counts": dict(self.counts),
            "dropped_spans": self.dropped,
            "spans": self.span_dicts(),
        }
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with open(chrome_path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": self.chrome_events()}, handle)


class NullRecorder:
    """Stand-in for untraced passes: request ids and root spans are no-ops."""

    request: object = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield


# ----------------------------------------------------------------- hooks


def _search_run(rec: SpanRecorder, args, result, seconds: float) -> None:
    _best, stats = result
    counts = rec.counts
    counts["planner.nodes"] += stats.prefixes_considered
    counts["planner.candidates_scored"] += stats.candidates_scored
    counts["planner.cost_cache_hits"] += stats.cost_cache_hits
    counts["planner.cost_cache_misses"] += stats.cost_cache_misses
    counts["planner.expansion_cache_hits"] += stats.expansion_cache_hits
    counts["planner.expansion_cache_misses"] += stats.expansion_cache_misses


def _plan_failed(rec: SpanRecorder, exc: BaseException) -> None:
    from repro.planner.search import PlanningFailed

    if isinstance(exc, PlanningFailed):
        rec.counts["planner.infeasible"] += 1


def _cache_lookup(rec: SpanRecorder, args, result, seconds: float) -> None:
    rec.counts["service.cache_lookups"] += 1
    if result is not None:
        rec.counts["service.cache_hits"] += 1
        rec.samples["service.cache_hit_lookup"].append(seconds)


def _submitted(rec: SpanRecorder, args, ticket, seconds: float) -> None:
    rec.submitted_at[ticket.submission.seq] = clock() - seconds


def _picked(rec: SpanRecorder, args, result, seconds: float) -> None:
    submission, _expired = result
    if submission is not None:
        rec.request = submission.seq
        started = rec.submitted_at.pop(submission.seq, None)
        if started is not None:
            rec.samples["service.queue_wait"].append(clock() - started)


def _engine_built(rec: SpanRecorder, args, result, seconds: float) -> None:
    rec.engine_counters.append(args[0].counters)


@dataclass(frozen=True)
class Probe:
    """One span name and the functions/methods it is recorded around.

    ``mode``: ``span`` keeps every span; ``aggregate`` times calls into the
    totals without keeping spans (per-device leaves); ``count`` only counts
    calls. ``after(recorder, args, result, seconds)`` and
    ``error(recorder, exc)`` observe returns and raises.
    """

    name: str
    targets: Tuple[str, ...]
    mode: str = "span"
    after: Optional[Callable] = None
    error: Optional[Callable] = None


PROBES: Tuple[Probe, ...] = (
    Probe("lang.parse", ("repro.lang.parser:parse",)),
    Probe("lang.simplify", ("repro.lang.simplify:simplify",)),
    Probe("privacy.certify", ("repro.privacy.certify:certify",)),
    Probe("planner.lower", ("repro.planner.ir:lower",)),
    Probe(
        "planner.search",
        ("repro.planner.search:Planner.plan_logical",),
        error=_plan_failed,
    ),
    Probe(
        "planner.search_run",
        ("repro.planner.search:Planner.search_logical",),
        mode="count",
        after=_search_run,
    ),
    Probe("verify.plan_check", ("repro.verify.plan_checker:verify_planning_result",)),
    Probe("verify.dataflow", ("repro.verify.dataflow:analyze_planning_result",)),
    Probe(
        "service.submit",
        ("repro.service.service:QueryService.submit",),
        after=_submitted,
    ),
    Probe(
        "service.admission",
        (
            "repro.service.admission:AdmissionController.admit",
            "repro.service.admission:AdmissionController.reprice",
            "repro.service.admission:AdmissionController.settle_executed",
            "repro.service.admission:AdmissionController.settle_rejected",
        ),
    ),
    Probe("service.scheduler", ("repro.service.scheduler:BudgetScheduler.enqueue",)),
    Probe(
        "service.scheduler",
        ("repro.service.scheduler:BudgetScheduler.pick",),
        after=_picked,
    ),
    Probe(
        "service.cache",
        (
            "repro.service.cache:PlanCache.fingerprint",
            "repro.service.cache:PlanCache.store",
        ),
    ),
    Probe("service.cache", ("repro.service.cache:PlanCache.lookup",), after=_cache_lookup),
    Probe("runtime.query", ("repro.runtime.executor:QueryExecutor.run",)),
    Probe(
        "runtime.keygen",
        (
            "repro.runtime.committee:CommitteePool.allocate",
            "repro.runtime.committee:Committee.send_via_vsr",
        ),
    ),
    Probe("crypto.paillier_keygen", ("repro.crypto.paillier:keygen",)),
    Probe("crypto.vsr", ("repro.crypto.vsr:redistribute_vector",)),
    Probe("crypto.paillier_decrypt", ("repro.crypto.paillier:decrypt",)),
    Probe("runtime.program", ("repro.runtime.interp:SecureInterpreter.execute",)),
    Probe("mpc.less_than", ("repro.mpc.engine:MPCEngine.less_than",)),
    Probe("mpc.mul", ("repro.mpc.engine:MPCEngine.mul",), mode="count"),
    Probe(
        "mpc.engine",
        ("repro.mpc.engine:MPCEngine.__init__",),
        mode="count",
        after=_engine_built,
    ),
    Probe("crypto.field_inv", ("repro.crypto.field:PrimeField.inv",), mode="count"),
    Probe(
        "runtime.network",
        (
            "repro.runtime.network:FederatedNetwork.__init__",
            "repro.runtime.network:FederatedNetwork.load_categorical_data",
            "repro.runtime.network:FederatedNetwork.soa_view",
        ),
    ),
    Probe(
        "runtime.sortition",
        (
            "repro.runtime.network:FederatedNetwork.select_committees",
            "repro.runtime.network:FederatedNetwork.advance_round",
        ),
    ),
    Probe("runtime.shard_build", ("repro.runtime.shard:build_shards",)),
    Probe("runtime.upload", ("repro.runtime.shard:upload_shard",)),
    Probe("runtime.verify", ("repro.runtime.shard:verify_shard",)),
    Probe(
        "runtime.fold",
        (
            "repro.runtime.aggregator:AggregatorTree.ingest_leaf",
            "repro.runtime.aggregator:AggregatorTree.fold_node",
            "repro.runtime.aggregator:AggregatorTree.totals",
        ),
    ),
    Probe(
        "runtime.audit",
        (
            "repro.runtime.aggregator:AggregatorTree.run_audits",
            "repro.runtime.aggregator:AggregatorNode.run_audits",
        ),
    ),
    Probe(
        "crypto.pads",
        (
            "repro.runtime.shard:ObfuscatorPool.__init__",
            "repro.runtime.shard:ObfuscatorPool.draw",
        ),
        mode="aggregate",
    ),
    Probe("crypto.zkp_prove", ("repro.crypto.zkp:prove",), mode="aggregate"),
    Probe("crypto.zkp_verify", ("repro.crypto.zkp:verify",), mode="aggregate"),
    Probe(
        "runtime.journal",
        (
            "repro.runtime.journal:ExecutionJournal.create",
            "repro.runtime.journal:ExecutionJournal.checkpoint",
            "repro.runtime.journal:ExecutionJournal.charge",
            "repro.runtime.journal:ExecutionJournal.record_result",
        ),
    ),
    Probe(
        "runtime.intake_flat",
        (
            "repro.runtime.aggregator:AggregatorNode.verify_uploads",
            "repro.runtime.aggregator:AggregatorNode.aggregate",
        ),
    ),
)


# -------------------------------------------------------------- patching


def _sites(target: str) -> List[Tuple[object, str, object]]:
    """Every (owner, attribute, current value) a caller resolves ``target`` by."""
    module_name, _, path = target.partition(":")
    try:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attr = path.split(".")
            owner = getattr(module, class_name)
            return [(owner, attr, owner.__dict__[attr])]
        original = getattr(module, path)
    except (ImportError, AttributeError, KeyError) as exc:
        raise ProbeError(f"probe target {target!r} not found: {exc!r}") from None
    sites = []
    for name, loaded in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(loaded).items()):
            if value is original:
                sites.append((loaded, attr, value))
    return sites


def _wrap(raw, wrap_function: Callable[[Callable], Callable]):
    """Apply ``wrap_function`` to a function or a classmethod."""
    if isinstance(raw, classmethod):
        return classmethod(wrap_function(raw.__func__))
    if not callable(raw):
        raise ProbeError(f"cannot probe non-callable {raw!r}")
    return wrap_function(raw)


@contextmanager
def _patched(replacements: List[Tuple[object, str, object]]) -> Iterator[None]:
    saved = []
    try:
        for owner, attr, new in replacements:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def _probe_wrapper(rec: SpanRecorder, probe: Probe) -> Callable[[Callable], Callable]:
    name, after, error = probe.name, probe.after, probe.error
    if probe.mode == "count":
        counts = rec.counts

        def wrap_count(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                result = fn(*args, **kwargs)
                if after is not None:
                    after(rec, args, result, 0.0)
                return result

            return counted

        return wrap_count
    keep = probe.mode == "span"

    def wrap_span(fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = rec.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec.exit(frame, keep)
                if error is not None:
                    error(rec, exc)
                raise
            seconds = rec.exit(frame, keep)
            if after is not None:
                after(rec, args, result, seconds)
            return result

        return timed

    return wrap_span


def _load_importers() -> None:
    for module_name in IMPORTERS:
        importlib.import_module(module_name)


@contextmanager
def traced(rec: SpanRecorder, probes: Tuple[Probe, ...] = PROBES) -> Iterator[SpanRecorder]:
    """Install every probe around ``rec`` for the duration of the block."""
    _load_importers()
    replacements = []
    for probe in probes:
        wrap_function = _probe_wrapper(rec, probe)
        for target in probe.targets:
            for owner, attr, raw in _sites(target):
                replacements.append((owner, attr, _wrap(raw, wrap_function)))
    with _patched(replacements):
        yield rec


# --------------------------------------------------------------- metrics


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def _median_ms(samples: List[float]) -> float:
    return statistics.median(samples) * 1000.0 if samples else 0.0


def _mean_ms(samples: List[float]) -> float:
    return statistics.fmean(samples) * 1000.0 if samples else 0.0


def layer_metrics(rec: SpanRecorder, counters: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric: ``name -> (value, unit)``.

    ``*_s`` metrics are *self* seconds (time in the layer's own code,
    children excluded), so they partition the traced wall time.
    ``counters`` carries counts the workload read from program results.
    """
    own = rec.self_seconds
    counts = rec.counts
    engines = rec.engine_counters
    metrics: Dict[str, Tuple[float, str]] = {}
    for name in (
        "lang.parse",
        "lang.simplify",
        "privacy.certify",
        "planner.lower",
        "planner.search",
        "verify.plan_check",
        "verify.dataflow",
        "service.admission",
        "service.scheduler",
        "service.cache",
        "runtime.keygen",
        "crypto.paillier_keygen",
        "crypto.vsr",
        "crypto.paillier_decrypt",
        "runtime.program",
        "mpc.less_than",
        "runtime.network",
        "runtime.sortition",
        "runtime.shard_build",
        "runtime.upload",
        "runtime.verify",
        "runtime.fold",
        "runtime.audit",
        "crypto.pads",
        "crypto.zkp_prove",
        "crypto.zkp_verify",
        "runtime.journal",
        "runtime.intake_flat",
    ):
        metrics[f"{name}_s"] = (own(name), "s")
    metrics["runtime.unattributed_s"] = (own("runtime.query"), "s")
    metrics["planner.nodes"] = (counts["planner.nodes"], "count")
    metrics["planner.candidates_scored"] = (counts["planner.candidates_scored"], "count")
    metrics["planner.infeasible"] = (counts["planner.infeasible"], "count")
    metrics["planner.cost_cache_hit_ratio"] = (
        _ratio(
            counts["planner.cost_cache_hits"],
            counts["planner.cost_cache_hits"] + counts["planner.cost_cache_misses"],
        ),
        "ratio",
    )
    metrics["planner.expansion_cache_hit_ratio"] = (
        _ratio(
            counts["planner.expansion_cache_hits"],
            counts["planner.expansion_cache_hits"]
            + counts["planner.expansion_cache_misses"],
        ),
        "ratio",
    )
    metrics["service.queue_wait_ms"] = (_mean_ms(rec.samples["service.queue_wait"]), "ms")
    metrics["service.cache_hit_ratio"] = (
        _ratio(counts["service.cache_hits"], counts["service.cache_lookups"]),
        "ratio",
    )
    metrics["service.cache_hit_lookup_ms"] = (
        _median_ms(rec.samples["service.cache_hit_lookup"]),
        "ms",
    )
    metrics["mpc.mul_calls"] = (counts["mpc.mul"], "count")
    metrics["mpc.openings"] = (sum(c.openings for c in engines), "count")
    metrics["mpc.rounds"] = (sum(c.rounds for c in engines), "count")
    metrics["mpc.triples"] = (sum(c.triples_consumed for c in engines), "count")
    metrics["mpc.bytes_sent"] = (sum(c.bytes_sent for c in engines), "bytes")
    metrics["crypto.field_inv_calls"] = (counts["crypto.field_inv"], "count")
    metrics["runtime.uploads_rejected"] = (counters.get("uploads_rejected", 0), "count")
    metrics["runtime.journal_records"] = (counters.get("journal_records", 0), "count")
    metrics["runtime.journal_bytes"] = (counters.get("journal_bytes", 0), "bytes")
    return metrics
