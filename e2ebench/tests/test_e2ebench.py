"""Tests of the benchmark's own machinery: inputs, self time, patching
and the correctness checks.

Run from the repository root with ``python3 -m pytest e2ebench/tests``.
"""

from __future__ import annotations

import dataclasses

import pytest

from attribution import Attribution
from repro.core.hopbyhop import HopByHopProtocol
from repro.core import testbed as core_testbed
from tracing import PROBES, Span, bindings, self_times
from workloads import (
    BATCH,
    WORKLOADS,
    build_fabric,
    check_cancelled,
    check_capacity,
    check_outcome,
    request_plan,
    reserve,
    run_episode,
)


def small(name: str, cycles: int = 3, **changes) -> object:
    return dataclasses.replace(WORKLOADS[name], cycles=cycles, **changes)


def test_same_seed_gives_same_requests_and_another_seed_different_ones():
    workload = WORKLOADS["chain4_full"]
    assert request_plan(workload, 7) == request_plan(workload, 7)
    assert request_plan(workload, 7) != request_plan(workload, 8)
    plan = request_plan(workload, 7)
    assert len(plan.preload_starts) == workload.preload
    assert len(plan.cycle_starts) == workload.cycles


def test_obs_workload_replays_the_sim_requests():
    assert request_plan(WORKLOADS["chain4_obs"], 3) == request_plan(
        WORKLOADS["chain4_sim"], 3)


def test_cycles_run_as_batches_of_reserves_then_claims_then_cancels(monkeypatch):
    calls = []

    def record(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        core_testbed.Testbed, "reserve", record("reserve", core_testbed.Testbed.reserve))
    for name in ("claim", "cancel"):
        monkeypatch.setattr(
            HopByHopProtocol, name, record(name, getattr(HopByHopProtocol, name)))
    workload = small("chain4_sim", cycles=BATCH + 2)
    episode = run_episode(workload, 1, request_plan(workload, 1))
    assert episode.failed == 0 and len(episode.times) == BATCH + 2
    assert calls == [
        op for size in (BATCH, 2) for op in ("reserve", "claim", "cancel")
        for _ in range(size)
    ]


def test_self_time_subtracts_nested_and_sibling_children():
    spans = [
        Span("a", "root", 0.0, 10.0, -1),
        Span("b", "child", 1.0, 4.0, 0),
        Span("c", "child", 3.0, 6.0, 0),     # overlaps its sibling
        Span("d", "leaf", 2.0, 3.0, 1),      # nested two deep
        Span("b", "child", 7.0, 8.0, 0),     # second call of one op
        Span("a", "root", 20.0, 21.0, -1),   # a sibling root
    ]
    got = self_times(spans)
    # root: 10 - |[1,6] u [7,8]| = 4, plus the childless second root.
    assert got[("a", "root")] == pytest.approx(4.0 + 1.0)
    assert got[("b", "child")] == pytest.approx((3.0 - 1.0) + 1.0)
    assert got[("c", "child")] == pytest.approx(3.0)
    assert got[("d", "leaf")] == pytest.approx(1.0)
    total = sum(s.end - s.start for s in spans if s.parent == -1)
    assert sum(got.values()) == pytest.approx(total + 1.0)  # c overlaps b by 1


def test_traced_episode_restores_every_wrapped_attribute():
    before = [b for probe in PROBES for b in bindings(probe.target)]
    assert len(before) > len(PROBES)  # from-imports are patched too
    attribution = Attribution(small("chain4_sim"))
    workload = attribution.workload
    episode = attribution.run_episode(1, request_plan(workload, 1))
    assert episode.failed == 0
    assert attribution.problems() == []
    assert sum(attribution.calls.values()) > 0
    for owner, name, original in before:
        current = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        assert current is original, f"{owner!r}.{name} still wrapped"


def test_traced_run_fails_when_an_expected_probe_records_nothing():
    attribution = Attribution(small("chain4_sim"))
    attribution.run_episode(1, request_plan(attribution.workload, 1))
    encode = next(p for p in PROBES if p.op == "encode")
    attribution.calls[encode] = 0
    assert any("canonical:encode recorded no call" in p for p in attribution.problems())


def test_capacity_check_catches_a_leaked_booking():
    workload = small("chain4_full", preload=2)
    plan = request_plan(workload, 1)
    fabric = build_fabric(workload, 1, plan)
    try:
        assert check_capacity(fabric.testbed, fabric.bookings_after_setup) == []
        broker = fabric.testbed.brokers["B"]
        resource = broker.admission.resources()[0]
        broker.admission.schedule(resource).book(0.0, 10.0, 0.1, tag="leak")
        problems = check_capacity(fabric.testbed, fabric.bookings_after_setup)
        assert len(problems) == 1 and problems[0].startswith(f"B/{resource}")
    finally:
        fabric.close()


def test_checks_catch_an_uncancelled_reservation():
    workload = small("chain4_sim")
    plan = request_plan(workload, 1)
    fabric = build_fabric(workload, 1, plan)
    try:
        outcome = reserve(fabric.testbed, fabric.user, plan.cycle_starts[0])
        assert check_outcome(outcome) == []
        fabric.testbed.hop_by_hop.claim(outcome)
        problems = check_cancelled(fabric.testbed, [outcome])
        assert len(problems) == 4 and all("active, not cancelled" in p for p in problems)
        assert check_capacity(fabric.testbed, fabric.bookings_after_setup)
        fabric.testbed.hop_by_hop.cancel(outcome)
        assert check_cancelled(fabric.testbed, [outcome]) == []
        assert check_capacity(fabric.testbed, fabric.bookings_after_setup) == []
    finally:
        fabric.close()


def test_an_episode_whose_cancel_leaks_counts_as_failed(monkeypatch):
    monkeypatch.setattr(HopByHopProtocol, "cancel", lambda self, outcome: None)
    workload = small("chain4_sim")
    episode = run_episode(workload, 1, request_plan(workload, 1))
    assert episode.failed == 1
    assert any("not cancelled" in p for p in episode.problems)
    assert any("holds bookings" in p for p in episode.problems)


def test_observed_episode_reconciles_its_ledger():
    workload = small("chain4_obs")
    episode = run_episode(workload, 1, request_plan(workload, 1))
    assert episode.failed == 0 and episode.problems == []
    assert sorted(episode.times) == list(range(workload.cycles))
