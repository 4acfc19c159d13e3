"""Differential tests: the single-pass decoder against the slicing oracle.

:mod:`tests.messages.codec_oracle` is the codec's previous decoder.  For
every input — well-formed encodings, truncations, byte flips, raw bytes —
both must return the same value (same types, so ``True`` never passes for
``1``) or raise :class:`CodecError` with the same message.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.messages.codec import MAGIC, CodecError, decode, encode
from tests.messages import codec_oracle
from tests.messages.test_codec import codec_values


def _outcome(decoder, data: bytes):
    try:
        return "value", repr(decoder(data))
    except CodecError as exc:
        return "error", str(exc)


def _assert_same(data: bytes) -> None:
    assert _outcome(decode, data) == _outcome(codec_oracle.decode, data)


class TestDifferential:
    @given(codec_values)
    @settings(max_examples=300, deadline=None)
    def test_round_trips_agree(self, value):
        _assert_same(encode(value))

    @given(codec_values, st.data())
    @settings(max_examples=300, deadline=None)
    def test_truncations_agree(self, value, data):
        raw = encode(value)
        cut = data.draw(st.integers(min_value=0, max_value=len(raw)))
        _assert_same(raw[:cut])

    @given(codec_values, st.data())
    @settings(max_examples=500, deadline=None)
    def test_byte_flips_agree(self, value, data):
        raw = bytearray(encode(value))
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            index = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
            raw[index] = data.draw(st.integers(min_value=0, max_value=255))
        _assert_same(bytes(raw))

    @given(st.binary(max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_raw_bytes_agree(self, body):
        _assert_same(MAGIC + body)

    def test_handpicked_malformed_inputs_agree(self):
        length = (1).to_bytes(8, "big")
        cases = [
            b"",
            b"\x02",
            MAGIC,
            MAGIC + b"i",  # truncated before the sign byte
            MAGIC + b"i*",  # bad sign byte *and* no length: sign check first
            MAGIC + b"i+" + length[:5],  # truncated length field
            MAGIC + b"i-" + length,  # truncated body
            MAGIC + b"i-" + length + b"\x05",
            MAGIC + b"b" + (2**63).to_bytes(8, "big") + b"x",  # absurd length
            MAGIC + b"s" + length + b"\xff",  # invalid UTF-8
            MAGIC + b"l" + (3).to_bytes(8, "big") + b"nn",  # list one item short
            MAGIC + b"d" + length + b"i+" + length + b"\x01n",  # non-string key
            MAGIC + b"d" + (2).to_bytes(8, "big") + b"s" + length + b"bn" + b"s" + length + b"an",
            MAGIC + b"z",  # unknown tag
            MAGIC + b"\x80",  # unknown non-ASCII tag
            encode(7) + b"x",  # trailing bytes
        ]
        for data in cases:
            _assert_same(data)
        assert _outcome(decode, MAGIC + b"i*")[1] == "bad integer sign byte"

    def test_protocol_sized_value_agrees(self):
        # The shape of a holder envelope: a dict of big ints, nested bytes
        # and long lists of 1024-bit integers.
        value = {
            "inner": encode({"payload": b"p" * 300, "sig_r": 3**90, "sig_s": 5**60}),
            "gs_challenges": [7**80 + i for i in range(64)],
            "gs_t": [[11**290 + i, 13**270 + i, 17**250 + i] for i in range(64)],
            "roster_version": 0,
        }
        raw = encode(value)
        _assert_same(raw)
        for cut in range(0, len(raw), 997):
            _assert_same(raw[:cut])
