"""Workloads, episodes and correctness checks of the end-to-end benchmark.

Every workload is a single-client closed loop over the paper's 4-domain
linear chain (``build_linear_testbed``).  One *cycle* is the life of one
reservation: a hop-by-hop ``Testbed.reserve``, then
``HopByHopProtocol.claim`` and ``HopByHopProtocol.cancel``.  The client
runs cycles in batches of :data:`BATCH`: it reserves each request of the
batch, then claims each, then cancels each, and every call waits for the
previous one to return.

A run is made of *episodes*.  Each episode builds a fresh testbed from
the workload seed, preloads its live reservations, and then runs a fixed
number of cycles.  Per-cycle cost grows with the cycles already run (the
reservation tables keep every finished reservation and the telemetry
store keeps every frame), so fixing the cycles per episode keeps one
episode's cost independent of how long the run is or how fast the
machine is.
"""

from __future__ import annotations

import contextlib
import gc
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from repro.bb.reservations import ReservationState
from repro.core.hopbyhop import SignallingOutcome
from repro.core.testbed import Testbed, build_linear_testbed
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.obs.audit import ledger as obs_audit
from repro.obs.audit.reconcile import reconcile
from repro.obs.telemetry import AlertEngine, FlightRecorder, default_rules
from repro.obs.telemetry import testbed_probes

DOMAINS = ("A", "B", "C", "D")
RATE_MBPS = 0.1
WINDOW_S = 3600.0
#: Preloaded reservations start anywhere in the next hour; each cycle
#: asks for an hour starting within the next minute.  So every cycled
#: window overlaps every live reservation and holds nearly all of their
#: start boundaries: on ``chain4_full`` each admission sweeps the whole
#: schedule, whatever the seed, instead of a seed-dependent share of it.
PRELOAD_SPAN_S = 3600.0
CYCLE_SPAN_S = 60.0
#: Cycles per batch.  A claim made straight after an RSA reserve ran up
#: to twice as slow as one made after another claim, from what the
#: big-integer arithmetic leaves in the CPU's caches, and by how much
#: changed from run to run.  Batching keeps that to the first claim of a
#: batch, as a claim comes some time after its reserve in real use.
BATCH = 5


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is in ``e2ebench/BENCHMARK.md``."""

    name: str
    #: Signature scheme of every key in the testbed.
    scheme: str
    #: Live reservations booked through the protocol before timing starts.
    preload: int
    #: Metrics registry, tracer, event log, decision ledger, flight
    #: recorder and alert engine all on.
    observed: bool
    #: Cycles per episode.
    cycles: int


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("chain4_sim", "simulated", preload=0, observed=False, cycles=100),
        Workload("chain4_rsa", "rsa", preload=0, observed=False, cycles=50),
        Workload("chain4_full", "simulated", preload=60, observed=False, cycles=50),
        Workload("chain4_obs", "simulated", preload=0, observed=True, cycles=100),
    )
}


@dataclass(frozen=True)
class RequestPlan:
    """The generated inputs of one episode: window starts, in seconds."""

    preload_starts: tuple[float, ...]
    cycle_starts: tuple[float, ...]


def request_plan(workload: Workload, seed: int) -> RequestPlan:
    """The request sequence of *workload* under *seed*.

    It depends on the seed and the counts only, so ``chain4_obs`` replays
    exactly the requests of ``chain4_sim``.
    """
    rng = random.Random(seed)
    preload = tuple(rng.uniform(0.0, PRELOAD_SPAN_S) for _ in range(workload.preload))
    cycles = tuple(rng.uniform(0.0, CYCLE_SPAN_S) for _ in range(workload.cycles))
    return RequestPlan(preload, cycles)


@dataclass
class Fabric:
    """One episode's testbed and the observability planes around it."""

    testbed: Testbed
    user: Any
    #: ``(domain, resource) -> booking ids`` right after the preload.
    bookings_after_setup: dict[tuple[str, str], frozenset[int]]
    planes: contextlib.ExitStack
    registry: obs_metrics.MetricsRegistry | None = None
    ledger: obs_audit.DecisionLedger | None = None
    recorder: FlightRecorder | None = None
    alerts: AlertEngine | None = None

    def close(self) -> None:
        self.planes.close()


def reserve(testbed: Testbed, user: Any, start: float) -> SignallingOutcome:
    return testbed.reserve(
        user, source=DOMAINS[0], destination=DOMAINS[-1],
        bandwidth_mbps=RATE_MBPS, start=start, duration=WINDOW_S,
    )


def booking_snapshot(testbed: Testbed) -> dict[tuple[str, str], frozenset[int]]:
    return {
        (domain, resource): frozenset(
            b.booking_id for b in broker.admission.schedule(resource).bookings
        )
        for domain, broker in testbed.brokers.items()
        for resource in broker.admission.resources()
    }


def build_fabric(workload: Workload, seed: int, plan: RequestPlan) -> Fabric:
    """Set up one episode: testbed, keys, planes and the preload."""
    planes = contextlib.ExitStack()
    registry = ledger = recorder = alerts = None
    if workload.observed:
        registry = planes.enter_context(obs_metrics.use_registry())
        planes.enter_context(obs_spans.use_tracer())
        planes.enter_context(obs_events.use_event_log())
        ledger = planes.enter_context(obs_audit.use_ledger())
    try:
        testbed = build_linear_testbed(list(DOMAINS), scheme=workload.scheme, seed=seed)
        user = testbed.add_user(DOMAINS[0], "Alice")
        if workload.observed:
            recorder = FlightRecorder()
            for probe in testbed_probes(testbed):
                recorder.add_probe(probe)
            alerts = AlertEngine(default_rules())
        for start in plan.preload_starts:
            outcome = reserve(testbed, user, start)
            if not outcome.granted:
                raise RuntimeError(f"preload denied: {outcome.denial_reason}")
    except BaseException:
        planes.close()
        raise
    return Fabric(
        testbed, user, booking_snapshot(testbed), planes,
        registry=registry, ledger=ledger, recorder=recorder, alerts=alerts,
    )


# -- correctness checks ----------------------------------------------------------


def check_outcome(outcome: SignallingOutcome) -> list[str]:
    """A cycle's reservation must be granted end to end."""
    problems = []
    if not outcome.granted:
        problems.append(
            f"denied by {outcome.denial_domain}: {outcome.denial_reason}"
        )
    if set(outcome.handles) != set(DOMAINS):
        problems.append(f"handles for {sorted(outcome.handles)}, not {list(DOMAINS)}")
    if outcome.verified is None:
        problems.append("no verified RAR at the destination")
    if outcome.approval is None:
        problems.append("no approval returned to the user")
    return problems


def check_cancelled(testbed: Testbed, outcomes: list[SignallingOutcome]) -> list[str]:
    """Every cycled reservation is CANCELLED in every domain."""
    problems = []
    for outcome in outcomes:
        for domain in DOMAINS:
            handle = outcome.handles.get(domain)
            if handle is None:
                continue  # already reported by check_outcome
            state = testbed.brokers[domain].reservations.get(handle).state
            if state is not ReservationState.CANCELLED:
                problems.append(f"{handle} is {state.value}, not cancelled")
    return problems


def check_capacity(
    testbed: Testbed, expected: dict[tuple[str, str], frozenset[int]]
) -> list[str]:
    """Every capacity schedule holds exactly the bookings it held after
    setup: the preload's, and nothing a cycle leaked."""
    actual = booking_snapshot(testbed)
    problems = []
    for (domain, resource), ids in sorted(actual.items()):
        wanted = expected.get((domain, resource), frozenset())
        if ids != wanted:
            problems.append(
                f"{domain}/{resource} holds bookings {sorted(ids)}, "
                f"expected {sorted(wanted)}"
            )
    return problems


def check_ledger(fabric: Fabric) -> list[str]:
    """With the decision ledger on, it reconciles with the brokers."""
    if fabric.ledger is None:
        return []
    report = reconcile(fabric.ledger, brokers=fabric.testbed.brokers)
    return [f"ledger: {v.render()}" for v in report.violations]


# -- one episode -------------------------------------------------------------------


class CycleTimes(NamedTuple):
    """Wall times of one cycle, in seconds."""

    reserve: float
    claim: float
    cancel: float
    #: The whole cycle, including the telemetry sample and alert step.
    cycle: float


@dataclass
class Episode:
    setup_s: float
    #: Cycle index -> its times, for the cycles that passed every check.
    times: dict[int, CycleTimes] = field(default_factory=dict)
    #: Signalling messages and bytes of the granted cycles.
    messages: int = 0
    wire_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def best_times(episodes: list[Episode]) -> list[CycleTimes]:
    """Each cycle's fastest replay, field by field, over *episodes*.

    Every episode replays the same requests against the same freshly
    built state, so a cycle's replays do the same work; interference from
    the rest of the machine only ever adds time.  Cycles that failed in
    any episode are left out.
    """
    common = set.intersection(*(set(e.times) for e in episodes))
    return [
        CycleTimes(*map(min, zip(*(e.times[i] for e in episodes))))
        for i in sorted(common)
    ]


def run_episode(
    workload: Workload,
    seed: int,
    plan: RequestPlan,
    *,
    on_setup: Callable[[Fabric], None] | None = None,
    on_end: Callable[[Fabric], None] | None = None,
) -> Episode:
    """Set up a fresh fabric, run the plan's cycles and check the result.

    *on_setup* runs after the timed setup and before the first cycle;
    *on_end* runs after the last cycle, before the end-of-episode checks.

    The garbage collector is off for the episode, as ``timeit`` turns it
    off: with it on, where its collections fall depends on every
    allocation before them, so the same cycle paid for one in some runs
    and not in others.  The episode's garbage is collected before the
    next one.
    """
    gc.collect()
    gc.disable()
    try:
        return _run_episode(workload, seed, plan, on_setup, on_end)
    finally:
        gc.enable()


def _run_episode(
    workload: Workload,
    seed: int,
    plan: RequestPlan,
    on_setup: Callable[[Fabric], None] | None,
    on_end: Callable[[Fabric], None] | None,
) -> Episode:
    clock = time.perf_counter
    t0 = clock()
    fabric = build_fabric(workload, seed, plan)
    episode = Episode(setup_s=clock() - t0)
    try:
        if on_setup is not None:
            on_setup(fabric)
        testbed = fabric.testbed
        granted: list[SignallingOutcome] = []
        cycles = list(enumerate(plan.cycle_starts))
        for first in range(0, len(cycles), BATCH):
            _run_batch(fabric, cycles[first:first + BATCH], episode, granted)
        if on_end is not None:
            on_end(fabric)
        episode.messages = sum(o.messages for o in granted)
        episode.wire_bytes = sum(o.bytes for o in granted)
        end_problems = (
            check_cancelled(testbed, granted)
            + check_capacity(testbed, fabric.bookings_after_setup)
            + check_ledger(fabric)
        )
        if end_problems:
            # The end-of-episode checks cannot say which cycle leaked;
            # they count as one more failed attempt.
            episode.attempted += 1
            episode.failed += 1
            episode.problems.extend(end_problems)
    finally:
        fabric.close()
    return episode


def _run_batch(
    fabric: Fabric,
    batch: list[tuple[int, float]],
    episode: Episode,
    granted: list[SignallingOutcome],
) -> None:
    """Reserve every ``(index, start)`` of *batch*, then claim each, then
    cancel each; record the times of the cycles that passed every check.

    A cycle that is denied, fails a check or raises is a failed cycle and
    goes no further; its granted outcome still joins *granted*, so the
    end-of-episode checks see what it left behind.
    """
    clock = time.perf_counter
    hop = fabric.testbed.hop_by_hop
    recorder, alerts = fabric.recorder, fabric.alerts

    def failed(index: int, problems: list[str]) -> None:
        episode.failed += 1
        episode.problems.extend(f"cycle {index}: {p}" for p in problems)

    def raised(exc: Exception) -> list[str]:
        return [f"raised {type(exc).__name__}: {exc}"]

    reserved = []
    for index, start in batch:
        episode.attempted += 1
        try:
            t0 = clock()
            outcome = reserve(fabric.testbed, fabric.user, start)
            t1 = clock()
        except Exception as exc:  # a raising cycle is a failed cycle
            failed(index, raised(exc))
            continue
        if outcome.granted:
            granted.append(outcome)
        problems = check_outcome(outcome)
        if problems:
            failed(index, problems)
            continue
        reserved.append((index, outcome, t1 - t0))

    claimed = []
    for index, outcome, reserve_s in reserved:
        try:
            t0 = clock()
            hop.claim(outcome)
            t1 = clock()
        except Exception as exc:
            failed(index, raised(exc))
            continue
        claimed.append((index, outcome, reserve_s, t1 - t0))

    for index, outcome, reserve_s, claim_s in claimed:
        try:
            t0 = clock()
            hop.cancel(outcome)
            t1 = clock()
            if recorder is not None:
                now = float(index + 1)
                recorder.sample(now, registry=fabric.registry)
                alerts.step(recorder.store, now)
            t2 = clock()
        except Exception as exc:
            failed(index, raised(exc))
            continue
        episode.times[index] = CycleTimes(
            reserve_s, claim_s, t1 - t0, reserve_s + claim_s + (t2 - t0)
        )
