"""Fuzz-style negative tests: the zero-copy decoder never crashes.

Deterministic adversarial sweeps over real protocol wires and
hand-crafted hostile frames.  The contract under attack input:

* the decoder raises only *typed* errors — ones the ingress path
  converts into a typed denial (never a segfault-analogue like an
  uncaught IndexError or a hang);
* pure wire-level corruption (truncation, depth bombs, over-long
  lengths, duplicate keys) raises :class:`WireCodecError` specifically;
* the eager decoder agrees on accept/reject for every single mutation,
  byte for byte, bit for bit — and on the accepted value when both
  accept.
"""

import random

import pytest

from repro.core.codec import (
    TruncatedWireError,
    WireCodecError,
    WireDepthError,
    WireView,
    from_wire,
    to_wire,
)
from repro.errors import ReproError

from tests.differential.oracles import EagerWire
from tests.vectors.build_vectors import build_all

#: What HopByHopProtocol._decode_received catches (a decoder error of
#: any other type would escape process_ingress as a crash).  Decoding
#: re-runs protocol-object validators, so a crafted res_spec fails as a
#: typed ReservationStateError — this sweep originally caught one
#: escaping ingress.
INGRESS_CATCHABLE = ReproError


def _frame(tag: bytes, payload: bytes) -> bytes:
    return tag + len(payload).to_bytes(4, "big") + payload


def _classify(decode, wire):
    try:
        return ("ok", to_wire(decode(wire)))
    except INGRESS_CATCHABLE as exc:
        return ("err", exc)


def _zero_copy(wire):
    return WireView.parse(wire).materialize()


def _eager(wire):
    return EagerWire.parse(wire).materialize()


@pytest.fixture(scope="module")
def vectors():
    return build_all()


class TestTruncation:
    def test_every_prefix_rejected_by_both(self, vectors):
        wire = vectors["rar_user"]
        for cut in range(len(wire)):
            prefix = wire[:cut]
            old = _classify(_eager, prefix)
            new = _classify(_zero_copy, prefix)
            assert old[0] == "err" and new[0] == "err", (
                f"prefix of {cut} bytes accepted"
            )

    def test_every_suffix_extension_rejected(self, vectors):
        wire = vectors["denial"]
        for junk in (b"\x00", b"N" + b"\x00" * 4, b"\xff" * 7):
            extended = wire + junk
            assert _classify(_eager, extended)[0] == "err"
            with pytest.raises(WireCodecError):
                _zero_copy(extended)


class TestHostileFrames:
    def test_overlong_length_is_truncation(self):
        for tag in (b"S", b"L", b"M", b"B"):
            case = tag + (0xFFFFFFFF).to_bytes(4, "big") + b"payload"
            with pytest.raises(TruncatedWireError):
                _zero_copy(case)
            assert _classify(_eager, case)[0] == "err"

    def test_depth_bomb_rejected_cheaply(self):
        bomb = _frame(b"N", b"")
        for _ in range(250):
            bomb = _frame(b"L", bomb)
        with pytest.raises(WireDepthError):
            _zero_copy(bomb)
        assert _classify(_eager, bomb)[0] == "err"

    def test_depth_at_bound_still_parses(self):
        nested = _frame(b"N", b"")
        for _ in range(150):
            nested = _frame(b"L", nested)
        assert _zero_copy(nested) == from_wire(nested)

    def test_duplicate_map_keys_rejected(self):
        key = _frame(b"S", b"a")
        value = _frame(b"N", b"")
        wire = _frame(b"M", key + value + key + value)
        with pytest.raises(WireCodecError):
            _zero_copy(wire)
        assert _classify(_eager, wire)[0] == "err"

    def test_unsorted_map_keys_rejected(self):
        pair_b = _frame(b"S", b"b") + _frame(b"N", b"")
        pair_a = _frame(b"S", b"a") + _frame(b"N", b"")
        wire = _frame(b"M", pair_b + pair_a)
        with pytest.raises(WireCodecError):
            _zero_copy(wire)
        assert _classify(_eager, wire)[0] == "err"

    def test_unknown_tag_rejected(self):
        for tag in (b"Z", b"\x00", b"\xff"):
            wire = _frame(tag, b"x")
            with pytest.raises(WireCodecError):
                _zero_copy(wire)
            assert _classify(_eager, wire)[0] == "err"

    def test_noncanonical_integer_rejected(self):
        wire = _frame(b"I", b"\x00\x01")  # leading zero byte
        with pytest.raises(WireCodecError):
            _zero_copy(wire)
        assert _classify(_eager, wire)[0] == "err"


class TestBitFlipSweep:
    """Every bit of every byte of a real signed RAR wire, both modes."""

    @pytest.mark.parametrize("vector", ["rar_user", "denial"])
    def test_full_sweep_parity(self, vectors, vector):
        wire = bytearray(vectors[vector])
        mismatches = []
        for position in range(len(wire)):
            original = wire[position]
            for bit in range(8):
                wire[position] = original ^ (1 << bit)
                mutated = bytes(wire)
                old = _classify(_eager, mutated)
                new = _classify(_zero_copy, mutated)
                if old[0] != new[0] or (
                    old[0] == "ok" and old[1] != new[1]
                ):
                    mismatches.append((position, bit, old[0], new[0]))
            wire[position] = original
        assert not mismatches, (
            f"{len(mismatches)} accept/value divergences, first: "
            f"{mismatches[0]}"
        )

    def test_append_chain_sample_sweep(self, vectors):
        """The 4.7 kB append chain, every byte, one pseudo-random bit
        (a full 8-bit sweep of this wire runs in CI's bench job only)."""
        wire = bytearray(vectors["rar_append_3hop"])
        rng = random.Random(10)
        for position in range(len(wire)):
            original = wire[position]
            wire[position] = original ^ (1 << rng.randrange(8))
            mutated = bytes(wire)
            assert _classify(_eager, mutated)[0] == \
                _classify(_zero_copy, mutated)[0]
            wire[position] = original


class TestGarbage:
    def test_random_garbage_never_crashes(self):
        rng = random.Random(1234)
        for _ in range(500):
            blob = rng.randbytes(rng.randrange(0, 64))
            old = _classify(_eager, blob)
            new = _classify(_zero_copy, blob)
            assert old[0] == new[0]
            assert new[0] == "err" or old[1] == new[1]

    def test_kind_and_peek_total_on_garbage(self):
        rng = random.Random(4321)
        for _ in range(200):
            blob = rng.randbytes(rng.randrange(6, 64))
            try:
                view = WireView.parse(blob)
            except WireCodecError:
                continue
            assert view.kind() is None or isinstance(view.kind(), str)
            assert view.peek("type", default="absent") is not None
