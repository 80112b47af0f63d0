"""Differential harness: the production miss path is behaviour-identical
to its test-side oracles.

Every scenario in this package runs twice on fresh state — once on
production (append-only envelope chains, zero-copy ingress codec,
batched verification) and once with the oracles of
:mod:`tests.differential.oracles` installed at the same seams (fully
nested §6.4 chains, the eager two-pass codec, a batch scope that shares
nothing) — and asserts the two runs produced identical decisions,
ledgers, audit provenance and reason codes.  Wire *bytes* legitimately
differ between the two (a production layer additionally carries the
signed link digest), so the comparisons are over semantics, never over
raw envelope bytes.
"""
