"""Test-side reference implementations of the signalling miss path.

Production has one way to build, decode and verify each message.  The
designs it replaced survive here, in ``tests/``, as *oracles*: plain,
obviously-correct versions of the same step that the differential
harness runs against production to prove the optimised step decides
identically.

* :func:`make_nested_bb_rar` — the §6.4 wrap without the append-only
  digest link: each BB signs the whole re-encoded inner chain;
* :class:`EagerWire` — the eager two-pass decoder
  (:func:`~repro.core.codec.from_wire`) behind the
  :class:`~repro.core.codec.WireView` interface ingress uses;
* :func:`sequential_batch_caches` — a batch-verification scope that
  shares nothing, so every item in a burst verifies on its own.

:func:`installed` puts all three at the seams production looks them up
through, for the duration of a ``with`` block.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Iterator, Sequence
from unittest import mock

from repro.core import hopbyhop
from repro.core.codec import from_wire
from repro.core.envelope import SignedEnvelope, seal
from repro.core.messages import (
    F_ASSERTIONS,
    F_CAPABILITY_CERTS,
    F_DEADLINE,
    F_DOWNSTREAM,
    F_INNER,
    F_INTRODUCED_CERT,
    F_TRACEPARENT,
    F_TYPE,
    MSG_RAR,
)
from repro.crypto import batch
from repro.crypto.dn import DistinguishedName
from repro.crypto.keys import PrivateKey
from repro.crypto.x509 import Certificate
from repro.errors import EncodingError, SignallingError
from repro.policy.attributes import SignedAssertion

__all__ = [
    "EAGER_LEAKS",
    "EagerWire",
    "installed",
    "make_nested_bb_rar",
    "sequential_batch_caches",
]


def make_nested_bb_rar(
    *,
    inner: SignedEnvelope,
    introduced_cert: Certificate | None,
    downstream: DistinguishedName,
    capability_certs: Sequence[Certificate] = (),
    assertions: Sequence[SignedAssertion] = (),
    bb: DistinguishedName,
    bb_key: PrivateKey,
    traceparent: str | None = None,
) -> SignedEnvelope:
    """``RAR_{N+1} = sign_pkeyBB_{N+1}({RAR_N, cert_N, DN_BB_{N+2},
    Capability_Cert'_{N+1}})`` exactly as §6.4 writes it: the same
    payload :func:`~repro.core.messages.make_bb_rar` builds, minus the
    digest link, so this BB's signature covers the whole inner chain."""
    if inner.get(F_TYPE) != MSG_RAR:
        raise SignallingError("inner message is not a RAR")
    if introduced_cert is not None and introduced_cert.subject != inner.signer:
        raise SignallingError(
            f"introduced certificate names {introduced_cert.subject}, but the "
            f"inner RAR was signed by {inner.signer}"
        )
    payload = {
        F_TYPE: MSG_RAR,
        F_INNER: inner,
        F_DOWNSTREAM: downstream,
        F_CAPABILITY_CERTS: tuple(capability_certs),
        F_ASSERTIONS: tuple(assertions),
    }
    deadline = inner.get(F_DEADLINE)
    if deadline is not None:
        payload[F_DEADLINE] = deadline
    if traceparent is not None:
        payload[F_TRACEPARENT] = traceparent
    if introduced_cert is not None:
        payload[F_INTRODUCED_CERT] = introduced_cert
    return seal(payload, signer=bb, key=bb_key)


#: What the eager decoder may leak on crafted input besides typed
#: errors.  :class:`EagerWire` converts them, which keeps the oracle
#: usable behind ingress: production only catches
#: :class:`~repro.errors.ReproError`.
EAGER_LEAKS = (KeyError, ValueError, TypeError, AttributeError, OverflowError)


class EagerWire:
    """:class:`~repro.core.codec.WireView`'s ``parse(...).materialize()``
    interface over the eager decoder: the whole message is decoded up
    front, in two passes."""

    def __init__(self, value: object) -> None:
        self._value = value

    @classmethod
    def parse(cls, data: bytes | bytearray | memoryview) -> "EagerWire":
        try:
            return cls(from_wire(bytes(data)))
        except EAGER_LEAKS as exc:
            raise EncodingError(str(exc)) from exc

    def materialize(self) -> object:
        return self._value


@contextmanager
def sequential_batch_caches() -> Iterator[None]:
    """A batch scope that installs nothing: each verification in the
    burst runs against whatever caches were there before."""
    yield None


@contextmanager
def installed() -> Iterator[None]:
    """Swap every oracle in for its production counterpart."""
    with ExitStack() as stack:
        stack.enter_context(
            mock.patch.object(hopbyhop, "make_bb_rar", make_nested_bb_rar)
        )
        stack.enter_context(mock.patch.object(hopbyhop, "WireView", EagerWire))
        stack.enter_context(
            mock.patch.object(
                batch, "use_batch_caches", sequential_batch_caches
            )
        )
        yield
