"""The benchmark's three workloads, each generated from a seed.

A workload builds fresh state (:meth:`build`, the timed set-up) and runs
*passes* over it (:meth:`run`). A pass either runs for ``seconds`` of wall
time, always finishing the unit in flight, or runs exactly ``units``
units, which is how a traced pass replays an untraced one. A unit is one
grid cycle (``plan-sweep``), one query (``intake-sharded``) or one
submission (``svc-mixed``).

Every pass checks the program's outputs and returns a :class:`PassResult`:
latencies from the benchmark's own clock, the checks that failed, and a
digest of everything the program released, so two passes over the same
units can be compared bit for bit.

Functions the tracer probes are called through their home modules
(``lang_parser.parse``) so a probe installed by ``layers.traced`` sees them.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import math
import os
import random
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import layers

from repro.analysis.ranges import Interval
from repro.analysis.types import QueryEnvironment, ValueType
from repro.planner.costmodel import Constraints, CostModel, Goal
from repro.privacy.accountant import PrivacyAccountant
from repro.queries.catalog import ALL_QUERIES
from repro.runtime.executor import QueryExecutor
from repro.runtime.journal import ExecutionJournal
from repro.runtime.network import FederatedNetwork
from repro.service import QueryService, TenantPolicy
from repro.session import AnalyticsSession

lang_parser = importlib.import_module("repro.lang.parser")
lang_simplify = importlib.import_module("repro.lang.simplify")
privacy_certify = importlib.import_module("repro.privacy.certify")
planner_ir = importlib.import_module("repro.planner.ir")
planner_search = importlib.import_module("repro.planner.search")
plan_checker = importlib.import_module("repro.verify.plan_checker")
dataflow = importlib.import_module("repro.verify.dataflow")

clock = layers.clock

TOP1 = "aggr = sum(db); output(em(aggr));"
MAX_PROBLEMS = 20


def _laplace_cell(cell: int) -> str:
    return f"aggr = sum(db); output(laplace(aggr[{cell}], sens / epsilon));"


def _stream(seed: int, label: str) -> random.Random:
    """A labelled substream of the workload seed (str seeds hash stably)."""
    return random.Random(f"{seed}/{label}")


@dataclass
class PassResult:
    """What one pass measured and checked."""

    units: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    wall: float = 0.0
    #: Submit → settled answer, one per operation.
    op_latencies: List[float] = field(default_factory=list)
    #: Planning stage, one per plan produced (or served from cache).
    plan_latencies: List[float] = field(default_factory=list)
    #: participant_expected_seconds of a deterministic subset of plans.
    objective: List[float] = field(default_factory=list)
    devices: int = 0
    device_seconds: float = 0.0
    counters: Counter = field(default_factory=Counter)
    _digest: "hashlib._Hash" = field(default_factory=hashlib.sha256, repr=False)

    def fail(self, message: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    def absorb(self, *parts: object) -> None:
        self._digest.update(repr(parts).encode("utf-8"))

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _done(start: float, units_done: int, seconds: Optional[float], units: Optional[int]) -> bool:
    if units is not None:
        return units_done >= units
    return clock() - start >= seconds


# -------------------------------------------------------------- plan-sweep


@dataclass(frozen=True)
class PlanRequest:
    spec: object
    participants: int
    limit_core_hours: Optional[float]
    epsilon: float
    categories: int

    def key(self) -> tuple:
        return (
            self.spec.name,
            self.participants,
            self.limit_core_hours,
            self.epsilon,
            self.categories,
        )


class PlanSweep:
    """Closed-loop planning requests over the Fig 9/10 grid, one client.

    A cycle is the grid: catalog query × N × aggregator limit, shuffled,
    with a fresh seeded ε per cell. Each N carries a ±1% jitter drawn once
    per seed: it makes the plan objective differ between seeds (the
    chosen plans do not depend on ε), and being fixed for the run it lets
    the planner's sizing caches settle after the first cycle.
    """

    name = "plan-sweep"
    #: Catalog query names in the grid; None is the whole catalog.
    queries: Optional[Tuple[str, ...]] = None
    exponents = (20, 24, 27, 30)
    #: Aggregator limits in core-hours (the Fig 10 limits); None is no limit.
    limits = (1000.0, 5000.0, None)

    def __init__(self, seed: int):
        self.seed = seed
        self.specs = [s for s in ALL_QUERIES if self.queries is None or s.name in self.queries]

    def cycle(self, index: int) -> List[PlanRequest]:
        sizes = _stream(self.seed, "plan-sweep/sizes")
        participants_of = {
            exponent: round(2**exponent * sizes.uniform(0.99, 1.01))
            for exponent in self.exponents
        }
        rng = _stream(self.seed, f"plan-sweep/cycle{index}")
        cells = []
        for spec in self.specs:
            for exponent in self.exponents:
                for limit in self.limits:
                    participants = participants_of[exponent]
                    epsilon = math.exp(rng.uniform(math.log(0.05), math.log(1.0)))
                    cells.append(
                        PlanRequest(spec, participants, limit, epsilon, spec.categories)
                    )
        rng.shuffle(cells)
        return cells

    def inputs_digest(self) -> str:
        return hashlib.sha256(repr([c.key() for c in self.cycle(0)]).encode()).hexdigest()

    @staticmethod
    def constraints(limit_core_hours: Optional[float]) -> Constraints:
        # The Fig 10 limits: §7.2 participant limits plus an aggregator cap.
        return Constraints(
            participant_max_bytes=4e9,
            participant_max_seconds=20 * 60.0,
            aggregator_core_seconds=(
                None if limit_core_hours is None else limit_core_hours * 3600.0
            ),
        )

    def plan(self, request: PlanRequest):
        """parse → simplify → certify → lower → plan_logical; None if infeasible."""
        spec = request.spec
        env = spec.environment(
            request.participants, categories=request.categories, epsilon=request.epsilon
        )
        program = lang_simplify.simplify(lang_parser.parse(spec.source))
        certificate = privacy_certify.certify(program, env)
        logical = planner_ir.lower(program, env, certificate, spec.name)
        planner = planner_search.Planner(
            env,
            model=CostModel(),
            constraints=self.constraints(request.limit_core_hours),
            goal=Goal("participant_expected_seconds"),
            verify=False,
        )
        try:
            return planner.plan_logical(logical, certificate)
        except planner_search.PlanningFailed:
            return None

    def build(self) -> dict:
        first = self.cycle(0)
        # Warm lazy imports and the planner's module-level sizing caches.
        for spec in self.specs:
            self.plan(PlanRequest(spec, 2**20, None, 0.1, spec.categories))
        return {"first": first}

    def request(self, request: PlanRequest) -> Optional[tuple]:
        """One planning request and its verification; None if infeasible."""
        result = self.plan(request)
        if result is None:
            return None
        report = plan_checker.verify_planning_result(result)
        df_report, derived = dataflow.analyze_planning_result(result)
        return result, report, df_report, derived

    def check(self, request: PlanRequest, outcome, res: PassResult) -> bool:
        result, report, df_report, derived = outcome
        label = f"{request.spec.name}@{request.participants}"
        attached = result.privacy_certificate
        problems = []
        if not report.ok:
            problems.append("plan verification failed")
        if not df_report.ok or derived is None:
            problems.append("dataflow analysis failed")
        elif attached is None or attached.digest() != derived.digest():
            problems.append("attached privacy certificate does not re-derive")
        constraints = self.constraints(request.limit_core_hours)
        if not constraints.allows(result.plan.cost):
            problems.append(f"violates {constraints.first_violation(result.plan.cost)}")
        for problem in problems:
            res.fail(f"{label}: {problem}")
        return not problems

    def run(self, state: dict, recorder, seconds: Optional[float] = None,
            units: Optional[int] = None) -> PassResult:
        res = PassResult()
        start = clock()
        cycle_index = 0
        while True:
            cells = state["first"] if cycle_index == 0 else self.cycle(cycle_index)
            for position, request in enumerate(cells):
                recorder.request = f"cycle{cycle_index}/{position}"
                res.attempted += 1
                began = clock()
                try:
                    with recorder.span("bench.request"):
                        outcome = self.request(request)
                except Exception as exc:  # a crashed request is a failed one
                    res.failed += 1
                    res.fail(f"{request.spec.name}: {type(exc).__name__}: {exc}")
                    continue
                latency = clock() - began
                res.op_latencies.append(latency)
                res.plan_latencies.append(latency)
                res.devices += request.participants
                res.device_seconds += latency
                if outcome is None:
                    res.absorb(request.key(), "infeasible")
                    continue
                if not self.check(request, outcome, res):
                    res.failed += 1
                plan, derived = outcome[0].plan, outcome[3]
                res.absorb(
                    request.key(), plan.describe(), repr(plan.cost),
                    derived.digest() if derived is not None else None,
                )
                if cycle_index == 0:
                    res.objective.append(plan.cost.participant_expected_seconds)
            cycle_index += 1
            res.units = cycle_index
            if _done(start, cycle_index, seconds, units):
                break
        res.wall = clock() - start
        return res


# ---------------------------------------------------------- intake-sharded


class IntakeSharded:
    """Top-1 EM queries over ~131k devices on the sharded data plane.

    The population is skewed so the true mode is known; the device count
    is ``population`` minus a seeded multiple of 16 (up to ``jitter``) so
    each seed plans a slightly different deployment.
    """

    name = "intake-sharded"
    categories = 8
    population = 131072
    jitter = 4080
    shard_size = 4096
    tree_fanout = 16

    def __init__(self, seed: int, workdir: str):
        rng = _stream(seed, "intake/inputs")
        self.seed = seed
        self.devices = self.population - 16 * rng.randrange(self.jitter // 16 + 1)
        mode = rng.randrange(self.categories)
        self.weights = [
            3.0 if c == mode else rng.uniform(0.8, 1.2)
            for c in range(self.categories)
        ]
        self.workdir = workdir

    def inputs_digest(self) -> str:
        return hashlib.sha256(repr((self.devices, self.weights)).encode()).hexdigest()

    def build(self) -> dict:
        network = FederatedNetwork(self.devices, rng=_stream(self.seed, "intake/network"))
        network.load_categorical_data(self.categories, distribution=self.weights)
        counts = Counter(d.value for d in network.devices)
        ranked = counts.most_common(2)
        if ranked[0][1] == ranked[1][1]:
            raise ValueError("the generated population has no unique mode")
        # Warm the planner's sizing caches for this deployment size.
        planner_search.plan_query(TOP1, self.environment(1.0), verify=False)
        return {"network": network, "mode": ranked[0][0]}

    def environment(self, epsilon: float) -> QueryEnvironment:
        return QueryEnvironment(
            num_participants=self.devices,
            row_width=self.categories,
            db_element=ValueType("int", Interval(0.0, 1.0)),
            epsilon=epsilon,
            sensitivity=1.0,
            row_encoding="one_hot",
        )

    def query(self, state: dict, index: int, res: PassResult) -> None:
        network = state["network"]
        epsilon = round(_stream(self.seed, f"intake/query{index}").uniform(0.5, 2.0), 4)
        env = self.environment(epsilon)
        # Start every query from a collected heap (untimed): without it, a
        # full collection left over from the previous 131k-device query
        # lands at random in the next one's 10 ms planning stage.
        gc.collect()
        began = clock()
        planning = planner_search.plan_query(TOP1, env, name=f"top1-{index}", verify=False)
        planned = clock()
        journal_dir = tempfile.mkdtemp(prefix="journal-", dir=self.workdir)
        try:
            journal_path = os.path.join(journal_dir, "query.wal")
            journal = ExecutionJournal.create(journal_path)
            accountant = PrivacyAccountant(10.0, 1e-6)
            executor = QueryExecutor(
                network,
                planning,
                committee_size=4,
                key_prime_bits=128,
                rng=_stream(self.seed, f"intake/executor{index}"),
                accountant=accountant,
                data_plane="sharded",
                shard_size=self.shard_size,
                tree_fanout=self.tree_fanout,
                journal=journal,
            )
            started = clock()
            result = executor.run()
            finished = clock()
            res.counters["journal_bytes"] += os.path.getsize(journal_path)
        finally:
            shutil.rmtree(journal_dir, ignore_errors=True)
        res.plan_latencies.append(planned - began)
        res.op_latencies.append(finished - began)
        res.devices += len(network)
        res.device_seconds += finished - started
        res.counters["uploads_rejected"] += len(result.rejected_devices)
        res.counters["journal_records"] += journal.record_count
        res.objective.append(planning.plan.cost.participant_expected_seconds)
        res.absorb(
            result.outputs,
            result.rejected_devices,
            result.audits_failed,
            result.committees_used,
            result.epsilon_charged,
            result.events,
            result.authorization,
            journal.tail_digest(),
        )
        online = sum(1 for d in network.devices if d.online)
        certified = planning.certificate.epsilon
        problems = []
        if result.audits_failed:
            problems.append(f"{result.audits_failed} audits failed")
        if result.statistics.uploads_verified != online:
            problems.append(
                f"{result.statistics.uploads_verified} uploads verified, {online} online"
            )
        if result.epsilon_charged != certified or accountant.spent.epsilon != certified:
            problems.append(
                f"charged ε={accountant.spent.epsilon!r}, certificate ε={certified!r}"
            )
        if result.value != state["mode"]:
            problems.append(f"released {result.value!r}, true mode {state['mode']}")
        for problem in problems:
            res.fail(f"query {index}: {problem}")
        if problems:
            res.failed += 1

    def run(self, state: dict, recorder, seconds: Optional[float] = None,
            units: Optional[int] = None) -> PassResult:
        res = PassResult()
        start = clock()
        index = 0
        while True:
            recorder.request = f"query{index}"
            res.attempted += 1
            try:
                with recorder.span("bench.query"):
                    self.query(state, index, res)
            except Exception as exc:
                res.failed += 1
                res.fail(f"query {index}: {type(exc).__name__}: {exc}")
            index += 1
            res.units = index
            if _done(start, index, seconds, units):
                break
        res.wall = clock() - start
        return res


# --------------------------------------------------------------- svc-mixed


class SvcMixed:
    """Closed-loop replay through ``QueryService``: 2 clients, 3 tenants.

    Each client submits its next query only when its previous one has
    settled. 60% of the traffic is four repeated dashboard shapes
    (plan-cache hits), 40% ad-hoc ε (misses); a quarter is EM top-1.
    """

    name = "svc-mixed"
    categories = 8
    devices = 24
    tenants = ("dashboards", "growth", "adhoc")
    clients = 2
    #: Submissions whose plans enter the plan objective (dispatch order).
    objective_submissions = 100
    #: A submission's two stages, timed through public names: planning is
    #: the cache fingerprint, lookup (which re-verifies a hit), the planner
    #: on a miss and the cache store; execution is the executor run.
    stages = (
        layers.Probe(
            "plan",
            (
                "repro.service.cache:PlanCache.fingerprint",
                "repro.service.cache:PlanCache.lookup",
                "repro.planner.search:Planner.plan_source",
                "repro.service.cache:PlanCache.store",
            ),
            mode="aggregate",
        ),
        layers.Probe("execute", ("repro.runtime.executor:QueryExecutor.run",), mode="aggregate"),
    )

    def __init__(self, seed: int):
        rng = _stream(seed, "svc/inputs")
        self.seed = seed
        self.mode = rng.randrange(self.categories)
        # 20 devices hold the mode; 4 hold other categories, so EM's
        # margin is at least 16 counts at ε >= 2 (Gumbel scale <= 1).
        others = [c for c in range(self.categories) if c != self.mode]
        self.values = [self.mode] * 20 + [rng.choice(others) for _ in range(4)]
        rng.shuffle(self.values)
        cells = rng.sample(range(self.categories), 3)
        self.dashboards = [
            (TOP1, 2.0),
            (_laplace_cell(cells[0]), 0.5),
            (_laplace_cell(cells[1]), 1.0),
            (_laplace_cell(cells[2]), 0.25),
        ]

    def inputs_digest(self) -> str:
        first = [next(self.requests(k)) for k in range(self.clients)]
        return hashlib.sha256(repr((self.values, self.dashboards, first)).encode()).hexdigest()

    def requests(self, client: int) -> Iterator[Dict[str, object]]:
        """One client's endless request stream, in shuffled blocks of 20.

        Every block holds the same mix — 12 dashboard submissions (3 EM,
        9 Laplace over three repeated shapes) and 8 ad-hoc ones (2 EM, 6
        Laplace, fresh ε each) — so 25% are EM and ~60% hit the plan cache
        whatever the seed; the seed draws the order, ε, cells and tenants.
        No utility hint is sent, so every submission gets the service
        default and the queue order comes from the scheduler's own cost,
        headroom and aging terms; seeded random hints made some
        submissions wait up to ten dispatches and put p95 in a sparse,
        seed-dependent tail.
        """
        rng = _stream(self.seed, f"svc/client{client}")
        em_dashboard, *laplace_dashboards = self.dashboards
        while True:
            block = [em_dashboard] * 3
            block += [shape for shape in laplace_dashboards for _ in range(3)]
            block += [(TOP1, round(rng.uniform(2.0, 4.0), 4)) for _ in range(2)]
            block += [
                (_laplace_cell(rng.randrange(self.categories)), round(rng.uniform(0.2, 2.0), 4))
                for _ in range(6)
            ]
            rng.shuffle(block)
            for source, epsilon in block:
                yield dict(
                    tenant=self.tenants[rng.randrange(len(self.tenants))],
                    source=source,
                    categories=self.categories,
                    epsilon=epsilon,
                )

    def _service(self, label: str) -> QueryService:
        network = FederatedNetwork(self.devices, rng=_stream(self.seed, f"{label}/network"))
        for device, value in zip(network.devices, self.values):
            device.value = value
        # Budgets far above any run's spend: nothing is refused.
        session = AnalyticsSession(
            network,
            epsilon_budget=30000.0,
            delta_budget=1e-2,
            rng=_stream(self.seed, f"{label}/session"),
        )
        return QueryService(session, [TenantPolicy(t, 10000.0, 1e-3) for t in self.tenants])

    def build(self) -> dict:
        # Warm lazy imports and module caches on a throwaway deployment.
        warm = self._service("svc/warm")
        for source, epsilon in self.dashboards:
            warm.submit(self.tenants[0], source, self.categories, epsilon=epsilon)
        warm.drain()
        return {"service": self._service("svc")}

    def run(self, state: dict, recorder, seconds: Optional[float] = None,
            units: Optional[int] = None) -> PassResult:
        service: QueryService = state["service"]
        streams = [self.requests(k) for k in range(self.clients)]
        res = PassResult()
        owner: Dict[int, int] = {}
        submitted_at: Dict[int, float] = {}
        requested: Dict[int, Dict[str, object]] = {}
        tickets = []
        settled: List[int] = []
        stages = layers.SpanRecorder()
        with layers.traced(stages, probes=self.stages):
            start = clock()

            def submit(client: int) -> None:
                request = next(streams[client])
                recorder.request = len(tickets) + 1  # the service numbers from 1
                began = clock()
                with recorder.span("bench.submit"):
                    ticket = service.submit(**request)
                seq = ticket.submission.seq
                owner[seq], submitted_at[seq], requested[seq] = client, began, request
                tickets.append(ticket)

            for client in range(self.clients):
                if units is None or len(tickets) < units:
                    submit(client)
            while len(service.scheduler):
                planning = stages.self_seconds("plan")
                with recorder.span("bench.dispatch"):
                    record = service.process_next()
                now = clock()
                if record is None:
                    continue
                res.plan_latencies.append(stages.self_seconds("plan") - planning)
                settled.append(record.seq)
                res.op_latencies.append(now - submitted_at[record.seq])
                more = (
                    len(tickets) < units if units is not None else now - start < seconds
                )
                if more:
                    submit(owner[record.seq])
            res.wall = clock() - start
        res.device_seconds = stages.self_seconds("execute")
        res.devices = self.devices * stages.calls("execute")
        res.units = res.attempted = len(tickets)
        self._check(service, tickets, settled, requested, res)
        for entry in service.session.history[: self.objective_submissions]:
            res.objective.append(entry.planning.plan.cost.participant_expected_seconds)
        return res

    def _check(self, service: QueryService, tickets, settled, requested, res: PassResult) -> None:
        records = service.records
        certified = {
            entry.name: entry.planning.certificate.epsilon for entry in service.session.history
        }
        for record in records:
            res.absorb(
                record.seq, record.tenant, record.name, record.outcome,
                record.cache_hit, record.epsilon_charged, repr(record.value),
            )
            request = requested.get(record.seq, {})
            ok = record.outcome == "executed"
            if not ok:
                res.fail(f"{record.name}: {record.outcome}: {record.error}")
            elif record.epsilon_charged != certified.get(record.name) or not math.isclose(
                record.epsilon_charged, request["epsilon"], rel_tol=1e-9
            ):
                ok = False
                res.fail(
                    f"{record.name}: charged ε={record.epsilon_charged!r}, certified "
                    f"ε={certified.get(record.name)!r}, requested ε={request['epsilon']!r}"
                )
            elif request.get("source") == TOP1 and record.value != self.mode:
                ok = False
                res.fail(f"{record.name}: EM released {record.value!r}, mode {self.mode}")
            elif request.get("source") != TOP1 and not math.isfinite(record.value):
                ok = False
                res.fail(f"{record.name}: Laplace released {record.value!r}")
            if not ok:
                res.failed += 1
        seqs = [t.submission.seq for t in tickets]
        if sorted(settled) != sorted(seqs) or len(records) != len(seqs):
            res.fail(f"{len(seqs)} submitted, {len(settled)} settled, {len(records)} records")
        if not all(t.done for t in tickets):
            res.fail("a ticket never settled")
        _, _, history = service.session.accountant.snapshot()
        labels = [label for label, _ in history]
        executed = [r.name for r in records if r.outcome == "executed"]
        total = 0.0
        for record in records:
            total += record.epsilon_charged
        if labels != executed or len(set(labels)) != len(labels):
            res.fail("accountant ledger labels differ from executed submissions")
        if service.session.accountant.spent.epsilon != total:
            res.fail(
                f"accountant spent ε={service.session.accountant.spent.epsilon!r}, "
                f"submissions charged ε={total!r}"
            )
        res.absorb(labels, [cost.epsilon for _, cost in history])


WORKLOADS = {
    PlanSweep.name: PlanSweep,
    IntakeSharded.name: IntakeSharded,
    SvcMixed.name: SvcMixed,
}
