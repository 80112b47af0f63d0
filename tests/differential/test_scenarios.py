"""Differential scenarios: every figure/claim workload, production vs oracle.

Each test runs one paper scenario twice on fresh testbeds — once with
the test-side oracles installed, once on production — and asserts
identical decisions, handles, denial reasons, reason codes, audit ledgers and
verification semantics.  See ``tests/differential/__init__`` for what
is (and deliberately is not) compared.
"""

from repro.core.codec import to_wire
from repro.core.concurrent import ReservationJob
from repro.core.messages import make_user_rar
from repro.core.testbed import build_linear_testbed
from repro.faults.chaos import run_chaos
from repro.obs import audit as obs_audit

from tests.differential._harness import (
    decision_rows,
    ingress_facts,
    outcome_facts,
    run_both,
    source_outcome_facts,
)


def _audited(scenario):
    """Run *scenario(ledger)* with a scoped decision ledger enabled."""
    def wrapped():
        ledger = obs_audit.enable()
        try:
            return scenario(ledger)
        finally:
            obs_audit.disable()
    return wrapped


class TestFourDomainReservation:
    """The paper's standard scenario: Alice reserves A -> D end to end."""

    def test_grant_identical(self):
        @_audited
        def scenario(ledger):
            testbed = build_linear_testbed(["A", "B", "C", "D"])
            alice = testbed.add_user("A", "Alice")
            outcome = testbed.reserve(
                alice, source="A", destination="D",
                bandwidth_mbps=50.0, duration=3600.0,
            )
            return outcome_facts(outcome), decision_rows(ledger)

        production, oracle = run_both(scenario)
        assert production == oracle
        facts, rows = production
        assert facts["granted"]
        assert set(facts["handles"]) == {"A", "B", "C", "D"}
        assert facts["verified"]["user"].endswith("CN=Alice")
        assert rows  # the ledger saw the decisions

    def test_denial_at_transit_domain_identical(self):
        @_audited
        def scenario(ledger):
            testbed = build_linear_testbed(["A", "B", "C", "D"])
            testbed.set_policy("C", "Return DENY")
            alice = testbed.add_user("A", "Alice")
            outcome = testbed.reserve(
                alice, source="A", destination="D",
                bandwidth_mbps=50.0, duration=3600.0,
            )
            return outcome_facts(outcome), decision_rows(ledger)

        production, oracle = run_both(scenario)
        assert production == oracle
        facts, _ = production
        assert not facts["granted"]
        assert facts["denial_domain"] == "C"
        assert facts["denial_reason"]

    def test_capacity_exhaustion_reason_identical(self):
        """Admission (not policy) denial: the second oversubscribing
        request is refused with the same reason text in both modes."""
        def scenario():
            testbed = build_linear_testbed(["A", "B", "C"])
            alice = testbed.add_user("A", "Alice")
            first = testbed.reserve(
                alice, source="A", destination="C", bandwidth_mbps=100.0,
            )
            second = testbed.reserve(
                alice, source="A", destination="C", bandwidth_mbps=100.0,
            )
            return outcome_facts(first), outcome_facts(second)

        production, oracle = run_both(scenario)
        assert production == oracle
        first, second = production
        assert first["granted"] and not second["granted"]


class TestTunnelScenario:
    """Aggregate tunnels with end-domain-only flow signalling (§7)."""

    def test_establish_and_allocate_identical(self):
        def scenario():
            testbed = build_linear_testbed(["A", "B", "C", "D"])
            alice = testbed.add_user("A", "Alice")
            request = testbed.make_request(
                source="A", destination="D", bandwidth_mbps=50.0,
                duration=7200.0,
            )
            tunnel, outcome = testbed.tunnels.establish(alice, request)
            facts = outcome_facts(outcome)
            if tunnel is None:
                return facts, None
            allocation, latency, messages = testbed.tunnels.allocate_flow(
                tunnel.tunnel_id, alice, rate_mbps=5.0,
                start=0.0, end=3600.0,
            )
            return facts, (
                allocation.rate_mbps, latency, messages,
                tunnel.allocated_mbps(0.0, 3600.0),
            )

        production, oracle = run_both(scenario)
        assert production == oracle
        facts, flow = production
        assert facts["granted"]
        assert flow is not None


class TestMisreservationAttack:
    """Figure 4: a source-domain agent skips a transit domain."""

    def test_skip_domain_outcome_identical(self):
        @_audited
        def scenario(ledger):
            testbed = build_linear_testbed(["A", "B", "C", "D"])
            mallory = testbed.add_user("A", "Mallory")
            for domain in ("B", "D"):
                testbed.introduce_user_to(mallory, domain)
            request = testbed.make_request(
                source="A", destination="D", bandwidth_mbps=50.0,
            )
            outcome = testbed.end_to_end_agent.reserve(
                mallory, request, skip_domains=["C"],
                rollback_on_failure=False,
            )
            return source_outcome_facts(outcome), decision_rows(ledger)

        production, oracle = run_both(scenario)
        assert production == oracle
        facts, _ = production
        assert facts["skipped"] == ("C",)
        assert not facts["complete"]

    def test_concurrent_source_domain_identical(self):
        """Concurrent Approach 1 uses the batched-verification scope in
        production; per-domain outcomes must not change.  Provenance
        *sources* may differ (cache vs fresh), so the ledger comparison
        here masks them; the verdicts themselves must match."""
        @_audited
        def scenario(ledger):
            testbed = build_linear_testbed(["A", "B", "C"])
            alice = testbed.add_user("A", "Alice")
            for domain in ("B", "C"):
                testbed.introduce_user_to(alice, domain)
            request = testbed.make_request(
                source="A", destination="C", bandwidth_mbps=25.0,
            )
            outcome = testbed.end_to_end_agent.reserve(
                alice, request, concurrent=True,
            )
            return (
                source_outcome_facts(outcome),
                decision_rows(ledger, provenance_sources=False),
            )

        production, oracle = run_both(scenario)
        assert production == oracle
        facts, _ = production
        assert facts["granted"] and facts["complete"]


class TestConcurrentBatch:
    """A ConcurrentSignaller burst (the batched-crypto consumer)."""

    def test_batch_outcomes_identical(self):
        def scenario():
            testbed = build_linear_testbed(["A", "B", "C", "D"])
            users = [
                testbed.add_user("A", name)
                for name in ("U0", "U1", "U2", "U3")
            ]
            jobs = [
                ReservationJob(
                    user=user,
                    request=testbed.make_request(
                        source="A", destination="D",
                        bandwidth_mbps=20.0 + 5.0 * i,
                    ),
                )
                for i, user in enumerate(users)
            ]
            result = testbed.concurrent_signaller(concurrency=4).run(jobs)
            return [
                (item.error,
                 None if item.outcome is None
                 else outcome_facts(item.outcome))
                for item in result.scheduled
            ], result.makespan_s

        production, oracle = run_both(scenario)
        assert production == oracle
        scheduled, _ = production
        assert all(error == "" for error, _ in scheduled)
        assert all(facts["granted"] for _, facts in scheduled)


class TestIngressDifferential:
    """process_ingress reports — gate, decode, verify — production vs oracle."""

    @staticmethod
    def _wire_and_mutations():
        testbed = build_linear_testbed(["A", "B"])
        bob = testbed.add_user("B", "Bob")
        request = testbed.make_request(
            source="B", destination="A", bandwidth_mbps=5.0,
            start=1800.0, duration=1800.0,
        )
        envelope = make_user_rar(
            request=request,
            source_bb=testbed.brokers["B"].dn,
            user=bob.dn,
            user_key=bob.keypair.private,
            deadline=25.0,
            traceparent="00-feed-beef-01",
        )
        wire = to_wire(envelope)
        # A wire whose res_spec violates the reservation invariants:
        # canonical floats are hex strings, so overwriting the start
        # payload (1800.0) with the end payload (3600.0) keeps every
        # frame length intact but decodes to end <= start.  It must come
        # back as a typed denial, not as a ReservationStateError
        # escaping process_ingress.
        start_hex = (1800.0).hex().encode("ascii")
        end_hex = (3600.0).hex().encode("ascii")
        assert len(start_hex) == len(end_hex)
        assert wire.count(start_hex) == 1
        hostile = wire.replace(start_hex, end_hex)
        return testbed, bob, wire, hostile

    def test_reports_identical_for_every_delivery(self):
        def scenario():
            testbed, bob, wire, hostile = self._wire_and_mutations()
            deliveries = {
                "well-formed": wire,
                "truncated": wire[:12],
                "bit-flipped": bytes([wire[0] ^ 0x40]) + wire[1:],
                "garbage": b"\x00" * 48,
                "invalid-res-spec": hostile,
            }
            reports = {}
            for name, payload in deliveries.items():
                reports[name] = ingress_facts(
                    testbed.hop_by_hop.process_ingress(
                        "B", payload, peer=str(bob.dn),
                        peer_certificate=bob.certificate, at_time=0.0,
                    )
                )
            return reports

        production, oracle = run_both(scenario)
        assert production == oracle
        assert production["well-formed"][0] is True
        assert production["well-formed"][5] == "00-feed-beef-01"  # traceparent
        assert production["well-formed"][6] == 25.0  # deadline
        for name in ("truncated", "bit-flipped", "garbage",
                     "invalid-res-spec"):
            accepted, _, verified, reason, reason_code = production[name][:5]
            assert not accepted and not verified
            assert reason and reason_code

    def test_batch_ingress_matches_per_message(self):
        def scenario():
            testbed, bob, wire, hostile = self._wire_and_mutations()
            messages = [wire, wire[:20], hostile, wire]
            batch = testbed.hop_by_hop.process_ingress_batch(
                "B", messages, peer=str(bob.dn),
                peer_certificate=bob.certificate, at_time=0.0,
            )
            return [ingress_facts(r) for r in batch]

        production, oracle = run_both(scenario)
        assert production == oracle
        assert production[0][0] is True


class TestChaosSlice:
    """A deterministic slice of the single-fault chaos matrix."""

    def test_chaos_trials_identical(self):
        def scenario():
            report = run_chaos(seed=3, trials=12, audit=True)
            trials = [
                (t.spec, t.granted, t.denial_reason, t.injected,
                 t.retries, t.violations, t.audit_violations)
                for t in report.trials
            ]
            ledger_rows = (
                decision_rows(report.ledger)
                if report.ledger is not None else None
            )
            return report.schedule_digest, trials, ledger_rows

        production, oracle = run_both(scenario)
        assert production[0] == oracle[0]  # same fault schedule
        assert production[1] == oracle[1]  # same per-trial verdicts
        assert production[2] == oracle[2]  # same audit ledger
        assert all(not t[5] and not t[6] for t in production[1])
