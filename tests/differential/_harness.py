"""Plumbing for the differential harness.

``run_both(scenario)`` executes a zero-argument scenario callable twice
on completely fresh state (the scenario builds its own testbed): once
with the test-side oracles of :mod:`tests.differential.oracles`
installed in place of production's nested-chain-free wrap, zero-copy
decoder and batch-verification scope, and once on production as it
ships.  The normalizers below project protocol outcomes and audit
ledgers onto the fields that must be identical across the two runs,
excluding the ones that differ *by design*:

* ``bytes`` / wire sizes — a production RAR layer carries the signed
  inner digest on top of the inner envelope, so its wires are a few
  dozen bytes larger per hop than the nested oracle's;
* ``correlation_id`` — minted fresh per signalling attempt;
* check-record ``source`` (optionally) — a batched run may answer a
  sub-verification from the shared batch cache scope where the
  sequential oracle verified fresh; the *verdict* must still match.
"""

import re

from repro.core.messages import (
    F_DOMAIN,
    F_HANDLE,
    F_INNER,
    unwrap_rar_layers,
)

from tests.differential import oracles


#: Process-global sequence identifiers (reservation handles, trace
#: correlation ids) keep counting across the two runs, so raw values
#: never match; renumbering them per run by order of first appearance
#: makes them comparable while still asserting the *same* identifier is
#: used in the same places.
_SEQ_IDS = re.compile(r"\b(RES-[A-Za-z0-9]+|req)-\d{6}\b")


def canonicalize(value, _memo=None):
    """Renumber process-global sequence ids in *value*, recursively."""
    memo = {} if _memo is None else _memo
    if isinstance(value, str):
        def repl(match):
            token = match.group(0)
            if token not in memo:
                memo[token] = f"{match.group(1)}-#{len(memo)}"
            return memo[token]
        return _SEQ_IDS.sub(repl, value)
    if isinstance(value, dict):
        return {
            canonicalize(k, memo): canonicalize(v, memo)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return type(value)(canonicalize(v, memo) for v in value)
    return value


def run_both(scenario):
    """Run *scenario* against the oracles, then on production.

    Returns ``(production_result, oracle_result)``, each canonicalized.
    Each invocation must build all of its own state so nothing leaks
    across the two runs.
    """
    with oracles.installed():
        oracle = scenario()
    production = scenario()
    return canonicalize(production), canonicalize(oracle)


def outcome_facts(outcome):
    """A :class:`~repro.core.hopbyhop.SignallingOutcome`, minus the
    fields that differ by design between chain shapes."""
    verified = outcome.verified
    return {
        "granted": outcome.granted,
        "handles": dict(outcome.handles),
        "denial_domain": outcome.denial_domain,
        "denial_reason": outcome.denial_reason,
        "latency_s": outcome.latency_s,
        "messages": outcome.messages,
        "retries": outcome.retries,
        "path": outcome.path,
        "cost": outcome.cost,
        "repository_lookups": outcome.repository_lookups,
        "rar_layers": (
            None if outcome.final_rar is None
            else [str(layer.signer)
                  for layer in unwrap_rar_layers(outcome.final_rar)]
        ),
        "verified": None if verified is None else {
            "user": str(verified.user),
            "path": tuple(str(d) for d in verified.path),
            "depth": verified.depth,
            "request": verified.request,
            "assertions": len(verified.assertions),
            "introduced": len(verified.introduced),
        },
        "approval_chain": (
            None if outcome.approval is None
            else approval_chain(outcome.approval)
        ),
    }


def approval_chain(approval):
    """(domain, handle, signer) per approval layer, outermost first."""
    chain = []
    current = approval
    while current is not None:
        chain.append((
            current.get(F_DOMAIN),
            current.get(F_HANDLE),
            str(current.signer),
        ))
        current = current.get(F_INNER)
    return chain


def source_outcome_facts(outcome):
    """A :class:`~repro.core.sourcedomain.SourceDomainOutcome` minus
    wire sizes."""
    return {
        "granted": outcome.granted,
        "complete": outcome.complete,
        "handles": dict(outcome.handles),
        "failures": dict(outcome.failures),
        "skipped": outcome.skipped,
        "latency_s": outcome.latency_s,
        "messages": outcome.messages,
        "path": outcome.path,
    }


def decision_rows(ledger, *, provenance_sources=True):
    """Project a :class:`~repro.obs.audit.ledger.DecisionLedger` onto
    comparable rows (no correlation ids, optionally no cache-vs-fresh
    provenance sources)."""
    rows = []
    for record in ledger.records():
        checks = tuple(
            (
                check.kind,
                check.subject,
                check.verdict,
                check.source if provenance_sources else "",
            )
            for check in record.checks
        )
        rows.append((
            record.kind.value,
            record.at_time,
            record.domain,
            record.handle,
            record.user,
            record.granted,
            record.reason,
            record.reason_code,
            record.rate_mbps,
            record.window,
            record.upstream,
            record.downstream,
            record.matched_rule,
            record.rules_fired,
            record.retries,
            checks,
        ))
    return rows


def ingress_facts(report):
    """An :class:`~repro.core.hopbyhop.IngressReport` as a comparable
    tuple (full reason text included — the decoders are string-exact on
    these shapes; the fuzz suite covers the doubly-corrupted tail where
    only the reason *code* is guaranteed)."""
    return (
        report.accepted,
        report.work_units,
        report.verified,
        report.reason,
        report.reason_code,
        report.traceparent,
        report.deadline,
    )
