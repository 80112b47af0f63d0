"""Per-layer attribution for the end-to-end benchmark.

A traced episode wraps the public functions of every layer from outside
the program: each wrapper records a span (layer, operation, start, end,
parent span) in memory and counts its calls.  A layer's self time is the
duration of its spans minus the part of each span its child spans cover.

Functions are patched at every name a caller looks them up by: methods
on their class (callers go through the instance), module functions in
their own module *and* in every ``repro`` module that bound them with
``from ... import``.  :meth:`SpanRecorder.restore` puts every original object
back, so no wrapper leaks into an untraced episode.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from workloads import WORKLOADS

ALL = frozenset(WORKLOADS)
NONE: frozenset[str] = frozenset()
SIMULATED = frozenset(w.name for w in WORKLOADS.values() if w.scheme == "simulated")
RSA = ALL - SIMULATED
OBSERVED = frozenset(w.name for w in WORKLOADS.values() if w.observed)
UNOBSERVED = ALL - OBSERVED


class Span(NamedTuple):
    layer: str
    op: str
    start: float
    end: float
    #: Index of the parent span in the same log, or -1 for a root.
    parent: int


@dataclass(frozen=True)
class Probe:
    """One wrapped function.

    ``target`` is ``"module:name"`` or ``"module:Class.name"``.  The
    traced run fails when a workload in ``expect`` records no call, and
    when a workload in ``forbid`` records one (a plane that should be off
    is on, or a scheme that should be unused is used).
    """

    layer: str
    target: str
    op: str
    expect: frozenset[str] = ALL
    forbid: frozenset[str] = frozenset()
    #: False for hot inner loops: count calls, record no span.
    span: bool = True
    #: ``measure(args, result)`` is summed per probe (bytes, entries).
    measure: Callable[[tuple, Any], float] | None = None


def _encoded_bytes(args: tuple, result: Any) -> float:
    return float(len(result))


def _table_entries(args: tuple, result: Any) -> float:
    return float(len(args[0]))


#: Keyword sets for probes tied to one kind of workload.
_OBS = {"expect": OBSERVED, "forbid": UNOBSERVED}
_RSA = {"expect": RSA, "forbid": SIMULATED}
_SIM = {"expect": SIMULATED, "forbid": RSA}
#: Reached by none of today's workloads (the in-process channel hands
#: envelopes over as objects); measured should a change route through it.
_UNUSED = {"expect": NONE}

PROBES: tuple[Probe, ...] = (
    Probe("core.testbed", "repro.core.testbed:Testbed.reserve", "reserve"),
    Probe("core.hopbyhop", "repro.core.hopbyhop:HopByHopProtocol.reserve", "reserve"),
    Probe("core.hopbyhop", "repro.core.hopbyhop:HopByHopProtocol.claim", "claim"),
    Probe("core.hopbyhop", "repro.core.hopbyhop:HopByHopProtocol.cancel", "cancel"),
    Probe("core.messages", "repro.core.messages:make_user_rar", "make_user_rar"),
    Probe("core.messages", "repro.core.messages:make_bb_rar", "make_bb_rar"),
    Probe("core.messages", "repro.core.messages:make_approval", "make_approval"),
    Probe("core.messages", "repro.core.messages:unwrap_rar_layers", "unwrap_rar_layers"),
    Probe("core.channel", "repro.core.channel:SecureChannel.transmit_timed", "transmit"),
    Probe("core.channel", "repro.core.channel:ChannelRegistry.connect", "connect"),
    Probe("core.trust", "repro.core.trust:verify_rar", "verify_rar"),
    Probe("core.codec", "repro.core.codec:WireView.parse", "parse", **_UNUSED),
    Probe("core.codec", "repro.core.codec:WireView.peek", "peek", **_UNUSED),
    Probe("core.codec", "repro.core.codec:WireView.materialize", "materialize", **_UNUSED),
    Probe("core.codec", "repro.core.codec:to_wire", "to_wire", **_UNUSED),
    Probe("core.codec", "repro.core.codec:from_wire", "from_wire", **_UNUSED),
    Probe("core.envelope", "repro.core.envelope:seal", "seal"),
    Probe("core.envelope", "repro.core.envelope:SignedEnvelope.verify", "verify"),
    Probe("core.envelope", "repro.core.envelope:SignedEnvelope.wire_size", "wire_size"),
    Probe("core.envelope", "repro.core.envelope:SignedEnvelope.body_bytes", "body_bytes"),
    Probe("core.envelope", "repro.core.envelope:SignedEnvelope.cbe_bytes", "cbe_bytes"),
    Probe("crypto.canonical", "repro.crypto.canonical:encode", "encode",
          measure=_encoded_bytes),
    Probe("crypto.canonical", "repro.crypto.canonical:decode", "decode", **_UNUSED),
    Probe("crypto.keys", "repro.crypto.keys:RSAScheme.sign", "rsa.sign", **_RSA),
    Probe("crypto.keys", "repro.crypto.keys:RSAScheme.verify", "rsa.verify", **_RSA),
    Probe("crypto.keys", "repro.crypto.keys:SimulatedScheme.sign", "simulated.sign", **_SIM),
    Probe("crypto.keys", "repro.crypto.keys:SimulatedScheme.verify", "simulated.verify",
          **_SIM),
    Probe("crypto.x509", "repro.crypto.x509:Certificate.verify_signature",
          "verify_signature"),
    Probe("bb.broker", "repro.bb.broker:BandwidthBroker.admit", "admit"),
    Probe("bb.broker", "repro.bb.broker:BandwidthBroker.claim", "claim"),
    Probe("bb.broker", "repro.bb.broker:BandwidthBroker.cancel", "cancel"),
    Probe("bb.policyserver", "repro.bb.policyserver:PolicyServer.decide", "decide"),
    Probe("policy.engine", "repro.policy.engine:PolicyEngine.evaluate", "evaluate"),
    Probe("bb.admission", "repro.bb.admission:AdmissionController.book_all", "book_all"),
    Probe("bb.admission", "repro.bb.admission:AdmissionController.release_all",
          "release_all"),
    Probe("bb.admission", "repro.bb.admission:CapacitySchedule.book", "book"),
    Probe("bb.admission", "repro.bb.admission:CapacitySchedule.peak_load", "peak_load"),
    Probe("bb.admission", "repro.bb.admission:CapacitySchedule.load_at", "load_at",
          span=False),
    Probe("bb.reservations", "repro.bb.reservations:ReservationTable.create", "create"),
    Probe("bb.reservations", "repro.bb.reservations:ReservationTable.transition",
          "transition"),
    Probe("bb.reservations", "repro.bb.reservations:ReservationTable.in_state",
          "in_state", measure=_table_entries),
    Probe("net.topology", "repro.net.topology:Topology.shortest_path", "shortest_path"),
    Probe("net.topology", "repro.net.topology:Topology.border_routers", "border_routers"),
    Probe("net.topology", "repro.net.topology:Topology.hosts_in_domain",
          "hosts_in_domain"),
    Probe("net.diffserv", "repro.net.diffserv:NetworkModel.install_flow_policer",
          "install_flow_policer"),
    Probe("net.diffserv", "repro.net.diffserv:NetworkModel.remove_flow_policer",
          "remove_flow_policer"),
    Probe("net.diffserv", "repro.net.diffserv:NetworkModel.set_aggregate_rate",
          "set_aggregate_rate"),
    Probe("obs.metrics", "repro.obs.metrics:MetricsRegistry.counter", "counter", **_OBS),
    Probe("obs.metrics", "repro.obs.metrics:MetricsRegistry.gauge", "gauge", **_OBS),
    Probe("obs.metrics", "repro.obs.metrics:MetricsRegistry.histogram", "histogram",
          **_OBS),
    Probe("obs.metrics", "repro.obs.metrics:Counter.inc", "counter_inc", **_OBS),
    Probe("obs.metrics", "repro.obs.metrics:Histogram.observe", "observe", **_OBS),
    Probe("obs.spans", "repro.obs.spans:Tracer.begin", "begin", **_OBS),
    Probe("obs.spans", "repro.obs.spans:Tracer.record", "record", **_OBS),
    Probe("obs.spans", "repro.obs.spans:Tracer.end", "end", **_OBS),
    Probe("obs.events", "repro.obs.events:EventLog.emit", "emit", **_OBS),
    Probe("obs.audit", "repro.obs.audit.ledger:DecisionLedger.record", "record", **_OBS),
    Probe("obs.telemetry", "repro.obs.telemetry.recorder:FlightRecorder.sample", "sample",
          **_OBS),
    Probe("obs.telemetry", "repro.obs.telemetry.alerts:AlertEngine.step", "step", **_OBS),
)

#: ``HopByHopProtocol`` keeps the bound ``Topology.domain_path`` it was
#: built with, so that name is patched on each protocol instance.
DOMAIN_PATH = Probe("net.topology", "repro.net.topology:Topology.domain_path",
                    "domain_path")


def _resolve(target: str) -> tuple[Any, str]:
    """``(owner, attribute)`` for a probe target."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


def bindings(target: str) -> list[tuple[Any, str, Any]]:
    """Every ``(owner, name, original)`` a probe must patch.

    A method is looked up on its class.  A module function is also looked
    up under every name a loaded ``repro`` module imported it as.
    """
    owner, name = _resolve(target)
    if isinstance(owner, type):
        return [(owner, name, owner.__dict__[name])]
    original = getattr(owner, name)
    found = [(owner, name, original)]
    for module_name, module in list(sys.modules.items()):
        if module is owner or not module_name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                found.append((module, attr, original))
    return found


class SpanRecorder:
    """Spans and counts of one traced episode, and the patches that
    collect them."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self.calls: Counter[Probe] = Counter()
        self.amounts: Counter[Probe] = Counter()
        self._patched: list[tuple[Any, str, Any]] = []

    # -- wrappers ------------------------------------------------------------------

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        calls, amounts, measure = self.calls, self.amounts, probe.measure
        if not probe.span:
            @functools.wraps(fn)
            def counted(*args: Any, **kwargs: Any) -> Any:
                calls[probe] += 1
                return fn(*args, **kwargs)
            return counted

        spans, stack, clock = self.spans, self._stack, time.perf_counter
        layer, op = probe.layer, probe.op

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(layer, op, start, end, parent)
                calls[probe] += 1
            if measure is not None:
                amounts[probe] += measure(args, result)
            return result
        return traced

    def _patch(self, owner: Any, name: str, original: Any, probe: Probe) -> None:
        if isinstance(original, (classmethod, staticmethod)):
            wrapper: Any = type(original)(self._wrap(probe, original.__func__))
        else:
            wrapper = self._wrap(probe, original)
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original))

    def install(self) -> None:
        """Patch every probe's bindings."""
        for probe in PROBES:
            for owner, name, original in bindings(probe.target):
                self._patch(owner, name, original, probe)

    def instrument_protocol(self, protocol: Any) -> None:
        """Patch the ``domain_path`` a protocol instance was built with."""
        self._patch(protocol, "domain_path", protocol.domain_path, DOMAIN_PATH)

    def restore(self) -> None:
        """Put every original object back, latest patch first."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- results -------------------------------------------------------------------

    def finished_spans(self) -> list[Span]:
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} span(s) still open")
        return list(self.spans)  # type: ignore[arg-type]  # all closed


def self_times(spans: list[Span]) -> Counter[tuple[str, str]]:
    """Self time per ``(layer, op)``: each span's duration minus the part
    of its interval covered by the union of its direct children."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    totals: Counter[tuple[str, str]] = Counter()
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for start, end in sorted(kids):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        totals[(span.layer, span.op)] += (span.end - span.start) - covered
    return totals


def durations(spans: list[Span]) -> Counter[tuple[str, str]]:
    """Total (inclusive) duration per ``(layer, op)``."""
    totals: Counter[tuple[str, str]] = Counter()
    for span in spans:
        totals[(span.layer, span.op)] += span.end - span.start
    return totals
