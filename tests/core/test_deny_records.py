"""Every denial site of hop-by-hop signalling writes exactly one DENY
decision record, for the denying domain, with the site's reason code.

One parametrized case per site in the request and reply legs: the
source broker unreachable, a malformed submission, the defense gate, a
trust failure, a dead broker (the upstream hop reports it), a policy
server outage, the cost ceiling, an unreachable or malformed forward,
and an approval that cannot be delivered.
"""

import pytest

from repro.bb.defense import DefensePolicy
from repro.core.messages import F_TYPE, MSG_APPROVAL
from repro.core.testbed import build_linear_testbed
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec, TargetKind
from repro.obs import audit as obs_audit
from repro.obs.audit.ledger import RecordKind
from repro.obs.events import ReasonCode

JUNK = b"\x00" * 48


def _inject(testbed, *specs):
    testbed.attach_injector(FaultInjector(FaultPlan(tuple(specs), seed=1)))


def _channel(testbed, a, b):
    """The channel the protocol will use between *a* and *b* (domain
    names resolve to their brokers), opened early to hook it."""
    ends = [testbed.brokers[x] if isinstance(x, str) else x for x in (a, b)]
    return testbed.channels.connect(*ends)


def _source_unreachable(testbed, alice):
    _inject(testbed, FaultSpec(
        TargetKind.CHANNEL, "A|Alice", FaultKind.DROP, ops=None,
    ))
    return {}


def _malformed_submit(testbed, alice):
    _channel(testbed, alice, "A").tamper_hook = (
        lambda message: JUNK
    )
    return {}


def _defense_gate(testbed, alice):
    testbed.arm_defenses(DefensePolicy(per_user_quota=1))
    first = testbed.reserve(
        alice, source="A", destination="C", bandwidth_mbps=1.0,
    )
    assert first.granted
    return {}


def _trust_failure(testbed, alice):
    _inject(testbed, FaultSpec(
        TargetKind.CHANNEL, "B|C", FaultKind.CORRUPT, ops=None,
    ))
    return {}


def _broker_down(testbed, alice):
    _inject(testbed, FaultSpec(
        TargetKind.BROKER, "B", FaultKind.CRASH, ops=None,
    ))
    return {}


def _policy_down(testbed, alice):
    _inject(testbed, FaultSpec(
        TargetKind.POLICY, "C", FaultKind.UNAVAILABLE, ops=None,
    ))
    return {}


def _cost_ceiling(testbed, alice):
    for sla in testbed.brokers["C"].slas_in.values():
        sla.price_per_mbps_hour = 3.0
    return {"cost_ceiling": 20.0}


def _forward_unreachable(testbed, alice):
    _inject(testbed, FaultSpec(
        TargetKind.CHANNEL, "B|C", FaultKind.DROP, ops=None,
    ))
    return {}


def _malformed_forward(testbed, alice):
    _channel(testbed, "B", "C").tamper_hook = (
        lambda message: JUNK
    )
    return {}


def _approval_undeliverable(testbed, alice):
    _channel(testbed, "A", "B").tamper_hook = (
        lambda message: None if message.get(F_TYPE) == MSG_APPROVAL
        else message
    )
    return {}


SITES = [
    pytest.param(_source_unreachable, "A", ReasonCode.LINK_UNREACHABLE,
                 id="source-unreachable"),
    pytest.param(_malformed_submit, "A", ReasonCode.TRUST_FAILURE,
                 id="malformed-submit"),
    pytest.param(_defense_gate, "A", ReasonCode.QUOTA_EXCEEDED,
                 id="defense-gate"),
    pytest.param(_trust_failure, "C", ReasonCode.TRUST_FAILURE,
                 id="trust-failure"),
    pytest.param(_broker_down, "B", ReasonCode.BROKER_UNREACHABLE,
                 id="broker-down"),
    # The policy query's retry budget runs out, and the exhausted-retries
    # error (not the policy server's own) classifies the denial.
    pytest.param(_policy_down, "C", ReasonCode.LINK_UNREACHABLE,
                 id="policy-server-down"),
    pytest.param(_cost_ceiling, "C", ReasonCode.COST_CEILING,
                 id="cost-ceiling"),
    pytest.param(_forward_unreachable, "C", ReasonCode.LINK_UNREACHABLE,
                 id="forward-unreachable"),
    pytest.param(_malformed_forward, "C", ReasonCode.TRUST_FAILURE,
                 id="malformed-forward"),
    pytest.param(_approval_undeliverable, "B", ReasonCode.LINK_UNREACHABLE,
                 id="approval-undeliverable"),
]


@pytest.mark.parametrize(("arrange", "domain", "code"), SITES)
def test_one_deny_record_per_denial(arrange, domain, code):
    testbed = build_linear_testbed(["A", "B", "C"])
    alice = testbed.add_user("A", "Alice")
    extra = arrange(testbed, alice)
    ledger = obs_audit.enable()
    try:
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0,
            **extra,
        )
    finally:
        obs_audit.disable()
    assert not outcome.granted
    assert outcome.denial_domain == domain
    denies = [
        record for record in ledger.records()
        if record.kind is RecordKind.DENY and record.domain == domain
    ]
    assert len(denies) == 1, denies
    assert denies[0].reason_code == code.value
