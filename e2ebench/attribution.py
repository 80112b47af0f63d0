"""The traced run: per-layer metrics of one workload.

Traced episodes run the same plan as untraced ones with every probe of
:mod:`tracing` installed for the cycles only (setup and the correctness
checks stay untraced).  Counts and times are per cycle unless the metric
name ends in ``_end``, which is the state after an episode's last cycle.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter
from pathlib import Path
from typing import Any

from repro.crypto import cache as verification_cache

from tracing import DOMAIN_PATH, PROBES, Span, SpanRecorder, durations, self_times
from workloads import Episode, Fabric, RequestPlan, Workload, best_times, run_episode


def _cache_counts() -> tuple[int, int]:
    """``(hits, lookups)`` over every verification cache, 0 when off."""
    caches = verification_cache.get_caches()
    if caches is None:
        return 0, 0
    stats = [caches.stats(name) for name in ("signature", "rar", "delegation")]
    hits = sum(s.hits for s in stats)
    return hits, hits + sum(s.misses for s in stats)


class Attribution:
    """Runs traced episodes of *workload* and sums what they recorded."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.probes = PROBES + (DOMAIN_PATH,)
        self.episodes: list[Episode] = []
        self.calls: Counter = Counter()
        self.amounts: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.cache_hits = 0
        self.cache_lookups = 0
        self.end_state: dict[str, float] = {}
        self.last_spans: list[Span] = []

    def run_episode(self, seed: int, plan: RequestPlan) -> Episode:
        tracer = SpanRecorder()
        hits0, lookups0 = _cache_counts()

        def on_setup(fabric: Fabric) -> None:
            tracer.install()
            tracer.instrument_protocol(fabric.testbed.hop_by_hop)

        def on_end(fabric: Fabric) -> None:
            tracer.restore()
            brokers = fabric.testbed.brokers.values()
            self.end_state = {
                "table_entries": sum(len(b.reservations) for b in brokers),
                "audit_log_entries": sum(len(b.audit_log) for b in brokers),
                "ledger_records": len(fabric.ledger) if fabric.ledger is not None else 0,
            }

        try:
            episode = run_episode(
                self.workload, seed, plan, on_setup=on_setup, on_end=on_end
            )
        finally:
            tracer.restore()
        hits1, lookups1 = _cache_counts()
        self.cache_hits += hits1 - hits0
        self.cache_lookups += lookups1 - lookups0
        spans = tracer.finished_spans()
        self.calls.update(tracer.calls)
        self.amounts.update(tracer.amounts)
        self.self_s.update(self_times(spans))
        self.total_s.update(durations(spans))
        self.last_spans = spans
        self.episodes.append(episode)
        return episode

    def problems(self) -> list[str]:
        """A probe its workload should exercise recorded no call, or a
        probe it should not reach recorded one."""
        name = self.workload.name
        problems = []
        for probe in self.probes:
            calls = self.calls[probe]
            if name in probe.expect and calls == 0:
                problems.append(f"trace: {probe.target} recorded no call")
            elif name in probe.forbid and calls:
                problems.append(f"trace: {probe.target} recorded {calls} unexpected call(s)")
        return problems

    # -- metrics ---------------------------------------------------------------------

    def metrics(self, untraced: list[Episode]) -> dict[str, tuple[float, str]]:
        cycles = sum(len(e.times) for e in self.episodes)
        per_cycle = 1.0 / cycles

        def calls(layer: str, *ops: str) -> tuple[float, str]:
            return sum(
                n for p, n in self.calls.items()
                if p.layer == layer and (not ops or p.op in ops)
            ) * per_cycle, "count"

        def self_ms(layer: str, *ops: str) -> tuple[float, str]:
            return sum(
                t for (lay, op), t in self.self_s.items()
                if lay == layer and (not ops or op in ops)
            ) * per_cycle * 1e3, "ms"

        def total_ms(layer: str, op: str) -> tuple[float, str]:
            return self.total_s[(layer, op)] * per_cycle * 1e3, "ms"

        def amount(layer: str, op: str, scale: float, unit: str) -> tuple[float, str]:
            return sum(
                v for p, v in self.amounts.items() if (p.layer, p.op) == (layer, op)
            ) * per_cycle * scale, unit

        traced_s = sum(t.cycle for t in best_times(self.episodes))
        untraced_s = sum(t.cycle for t in best_times(untraced))
        end = self.end_state
        metrics: dict[str, tuple[float, str]] = {
            "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
            "trace.cycle_ms": (
                sum(t.cycle for e in self.episodes for t in e.times.values())
                * per_cycle * 1e3, "ms"),
            "crypto.canonical.encode_calls": calls("crypto.canonical", "encode"),
            "crypto.canonical.encode_kb": amount("crypto.canonical", "encode", 1 / 1024, "KB"),
            "crypto.canonical.decode_calls": calls("crypto.canonical", "decode"),
            "crypto.canonical.self_ms": self_ms("crypto.canonical"),
        }
        for scheme in ("rsa", "simulated"):
            for op in ("sign", "verify"):
                key = f"crypto.keys.{scheme}.{op}"
                metrics[f"{key}_calls"] = calls("crypto.keys", f"{scheme}.{op}")
                metrics[f"{key}_ms"] = total_ms("crypto.keys", f"{scheme}.{op}")
        metrics.update({
            "crypto.keys.self_ms": self_ms("crypto.keys"),
            "crypto.cache.hit_ratio": (
                self.cache_hits / self.cache_lookups if self.cache_lookups else 0.0,
                "ratio"),
            "crypto.x509.self_ms": self_ms("crypto.x509"),
            "core.envelope.seal_calls": calls("core.envelope", "seal"),
            "core.envelope.wire_size_calls": calls("core.envelope", "wire_size"),
            "core.envelope.self_ms": self_ms("core.envelope"),
            "core.codec.materialize_calls": calls("core.codec", "materialize"),
            "core.codec.peek_calls": calls("core.codec", "peek"),
            "core.codec.self_ms": self_ms("core.codec"),
            "core.trust.verify_rar_calls": calls("core.trust", "verify_rar"),
            "core.trust.self_ms": self_ms("core.trust"),
            "core.messages.self_ms": self_ms("core.messages"),
            "core.hopbyhop.self_ms": self_ms("core.hopbyhop"),
            "core.testbed.self_ms": self_ms("core.testbed"),
            "core.channel.messages": (
                sum(e.messages for e in self.episodes) * per_cycle, "count"),
            "core.channel.wire_kb": (
                sum(e.wire_bytes for e in self.episodes) * per_cycle / 1024, "KB"),
            "core.channel.self_ms": self_ms("core.channel"),
            "bb.admission.book_calls": calls("bb.admission", "book"),
            "bb.admission.load_at_calls": calls("bb.admission", "load_at"),
            "bb.admission.self_ms": self_ms("bb.admission"),
            "bb.reservations.in_state_calls": calls("bb.reservations", "in_state"),
            "bb.reservations.entries_scanned": amount(
                "bb.reservations", "in_state", 1.0, "count"),
            "bb.reservations.table_entries_end": (end["table_entries"], "count"),
            "bb.reservations.self_ms": self_ms("bb.reservations"),
            "bb.broker.admit_self_ms": self_ms("bb.broker", "admit"),
            "bb.broker.claim_self_ms": self_ms("bb.broker", "claim"),
            "bb.broker.cancel_self_ms": self_ms("bb.broker", "cancel"),
            "bb.broker.audit_log_entries_end": (end["audit_log_entries"], "count"),
            "bb.policyserver.decide_calls": calls("bb.policyserver", "decide"),
            "bb.policyserver.self_ms": self_ms("bb.policyserver"),
            "policy.engine.evaluate_calls": calls("policy.engine", "evaluate"),
            "policy.engine.self_ms": self_ms("policy.engine"),
            "net.topology.self_ms": self_ms("net.topology"),
            "net.diffserv.policer_updates": calls("net.diffserv"),
            "net.diffserv.self_ms": self_ms("net.diffserv"),
            "obs.metrics.lookups": calls("obs.metrics", "counter", "gauge", "histogram"),
            "obs.metrics.self_ms": self_ms("obs.metrics"),
            "obs.spans.spans": calls("obs.spans", "begin", "record"),
            "obs.spans.self_ms": self_ms("obs.spans"),
            "obs.events.emits": calls("obs.events", "emit"),
            "obs.events.self_ms": self_ms("obs.events"),
            "obs.audit.records": calls("obs.audit", "record"),
            "obs.audit.self_ms": self_ms("obs.audit"),
            "obs.audit.ledger_records_end": (end["ledger_records"], "count"),
            "obs.telemetry.sample_ms": total_ms("obs.telemetry", "sample"),
            "obs.telemetry.alert_step_ms": total_ms("obs.telemetry", "step"),
        })
        return metrics

    def write_spans(self, path: Path) -> None:
        """The last traced episode's spans, one JSON array per line:
        ``[layer, op, start_us, end_us, parent]`` with times relative to
        the first span."""
        origin = self.last_spans[0].start if self.last_spans else 0.0
        with gzip.open(path, "wt") as out:
            for s in self.last_spans:
                row: list[Any] = [
                    s.layer, s.op,
                    round((s.start - origin) * 1e6, 3),
                    round((s.end - origin) * 1e6, 3),
                    s.parent,
                ]
                out.write(json.dumps(row) + "\n")
