"""C1 / §3: "source-domain-based signalling may be faster than hop-by-hop
based signalling, because the reservations for each domain can be made in
parallel."

Sweep the path length from 2 to 10 domains and compare the modelled
end-to-end signalling latency and message counts of the three approaches:

* hop-by-hop (Approach 2) — latency grows with the *sum* of channel RTTs;
* source-domain sequential — also a sum, over direct channels;
* source-domain concurrent — the *maximum* of the per-domain RTTs, flat
  in the path length.

Asserted shape: concurrent < hop-by-hop for every path length >= 3, and
the hop-by-hop latency grows linearly while concurrent stays flat.
"""

import random
import time

import pytest

from repro.bb.reservations import ReservationRequest
from repro.core.codec import WireView, from_wire, to_wire
from repro.core.messages import (
    F_DEADLINE,
    F_TRACEPARENT,
    F_TYPE,
    make_bb_rar,
    make_user_rar,
)
from repro.core.testbed import build_linear_testbed
from repro.crypto.dn import DN
from repro.crypto.x509 import CertificateAuthority

PATH_LENGTHS = [2, 4, 6, 8, 10]


def run_sweep():
    rows = []
    for k in PATH_LENGTHS:
        domains = [f"D{i}" for i in range(k)]
        tb = build_linear_testbed(domains, hosts_per_domain=1)
        alice = tb.add_user(domains[0], "Alice")
        for d in domains[1:]:
            tb.introduce_user_to(alice, d)
        request = tb.make_request(
            source=domains[0], destination=domains[-1], bandwidth_mbps=1.0
        )

        hop = tb.hop_by_hop.reserve(alice, request)
        tb.hop_by_hop.cancel(hop)
        seq = tb.end_to_end_agent.reserve(alice, request)
        tb.end_to_end_agent.release(seq)
        par = tb.end_to_end_agent.reserve(alice, request, concurrent=True)
        tb.end_to_end_agent.release(par)
        assert hop.granted and seq.complete and par.complete
        rows.append(
            {
                "domains": k,
                "hop_latency": hop.latency_s,
                "seq_latency": seq.latency_s,
                "par_latency": par.latency_s,
                "hop_messages": hop.messages,
                "seq_messages": seq.messages,
            }
        )
    return rows


def test_c1_latency_sweep(benchmark, report):
    rows = benchmark.pedantic(run_sweep, rounds=3, iterations=1)
    report.append("C1: signalling latency model vs path length (ms)")
    report.append("  domains  hop-by-hop  seq-agent  conc-agent  "
                  "hop-msgs  seq-msgs")
    for row in rows:
        report.append(
            f"  {row['domains']:>7d}  {row['hop_latency'] * 1e3:>10.1f}"
            f"  {row['seq_latency'] * 1e3:>9.1f}"
            f"  {row['par_latency'] * 1e3:>10.1f}"
            f"  {row['hop_messages']:>8d}  {row['seq_messages']:>8d}"
        )
    # The paper's claim: parallel source-domain contact wins.
    for row in rows:
        if row["domains"] >= 3:
            assert row["par_latency"] < row["hop_latency"]
    # Hop-by-hop grows ~linearly; concurrent stays flat.
    assert rows[-1]["hop_latency"] > 3 * rows[0]["hop_latency"]
    assert rows[-1]["par_latency"] == pytest.approx(
        rows[0]["par_latency"], rel=0.2
    )
    # Message counts are identical in total (2 per domain).
    for row in rows:
        assert row["hop_messages"] == row["seq_messages"] == 2 * row["domains"]


@pytest.mark.no_metrics
def test_c1_hop_by_hop_wallclock(benchmark):
    """Actual wall-clock cost of one hop-by-hop reservation on an
    8-domain chain (crypto + policy + admission, simulated scheme).

    Marked ``no_metrics``: this measures the *disabled-observability*
    hot path, which must stay within noise of the uninstrumented code
    (the ISSUE 1 overhead criterion)."""
    domains = [f"D{i}" for i in range(8)]
    tb = build_linear_testbed(domains, hosts_per_domain=1)
    alice = tb.add_user("D0", "Alice")
    request = tb.make_request(source="D0", destination="D7", bandwidth_mbps=1.0)

    def run():
        outcome = tb.hop_by_hop.reserve(alice, request)
        tb.hop_by_hop.cancel(outcome)
        return outcome

    assert benchmark(run).granted


def _eight_hop_append_wire():
    """A realistic ingress payload: an 8-hop append-chain RAR (~9 kB)
    with trace context on the outer layer and a deadline on the inner
    user request."""
    rng = random.Random(21)
    ca = CertificateAuthority(
        DN.make("Grid", "Root", "CA"), rng=rng, scheme="simulated"
    )
    user_dn = DN.make("Grid", "D0", "Alice")
    user_kp, user_cert = ca.issue_keypair(user_dn, rng=rng)
    bbs = []
    for i in range(8):
        dn = DN.make("Grid", f"D{i}", f"BB-D{i}")
        kp, cert = ca.issue_keypair(dn, rng=rng)
        bbs.append((dn, kp, cert))
    request = ReservationRequest(
        source_host="h0.D0", destination_host="h0.D7",
        source_domain="D0", destination_domain="D7",
        rate_mbps=10.0, start=0.0, end=3600.0,
    )
    rar = make_user_rar(
        request=request, source_bb=bbs[0][0], user=user_dn,
        user_key=user_kp.private, deadline=30.0,
    )
    prev_cert = user_cert
    for i in range(len(bbs) - 1):
        dn, kp, cert = bbs[i]
        last = i == len(bbs) - 2
        rar = make_bb_rar(
            inner=rar, introduced_cert=prev_cert,
            downstream=bbs[i + 1][0], bb=dn, bb_key=kp.private,
            traceparent="00-0123456789abcdef-89abcdef-01" if last else None,
        )
        prev_cert = cert
    return to_wire(rar)


def test_c1_misspath_zero_copy_metadata(benchmark, report):
    """Zero-copy ingress gating (ISSUE 10): before a hop commits any
    crypto work it needs only the message kind, trace context and
    deadline.  Extracting them through :class:`WireView`'s frame-skipping
    ``kind()``/``peek()`` must beat a full eager decode of the 8-hop
    wire by at least 10x — and return exactly the same metadata."""
    wire = _eight_hop_append_wire()
    reps = 20

    def eager_metadata():
        envelope = from_wire(wire)
        return (envelope.get(F_TYPE), envelope.get(F_TRACEPARENT),
                envelope.get(F_DEADLINE))

    def zero_copy_metadata():
        view = WireView.parse(wire)
        return (view.peek(F_TYPE), view.peek(F_TRACEPARENT),
                view.peek(F_DEADLINE))

    def run_pair():
        t0 = time.perf_counter()
        eager = [eager_metadata() for _ in range(reps)]
        t1 = time.perf_counter()
        peeked = [zero_copy_metadata() for _ in range(reps)]
        t2 = time.perf_counter()
        return eager, peeked, (t1 - t0) / reps, (t2 - t1) / reps

    eager, peeked, eager_s, peek_s = benchmark.pedantic(
        run_pair, rounds=1, iterations=1
    )
    assert peeked == eager
    assert peeked[0][0] == "rar"
    assert peeked[0][1] == "00-0123456789abcdef-89abcdef-01"
    ratio = eager_s / peek_s
    report.append(
        f"C1 miss-path zero-copy gate on {len(wire)} B wire: eager "
        f"{eager_s * 1e6:.1f} us vs peek {peek_s * 1e6:.1f} us "
        f"-> {ratio:.1f}x"
    )
    assert ratio >= 10.0, (
        f"zero-copy metadata extraction only {ratio:.1f}x faster than "
        f"an eager decode (need >= 10x)"
    )
