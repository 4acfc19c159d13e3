"""Canonical, deterministic byte encoding for protocol values.

A tiny self-describing binary format (a deliberately boring TLV scheme):

* ``int``   — tag ``i``, signed magnitude
* ``bytes`` — tag ``b``
* ``str``   — tag ``s``, UTF-8
* ``bool``  — tag ``t``/``f``
* ``None``  — tag ``n``
* ``tuple``/``list`` — tag ``l``, length-prefixed items (decoded as tuple)
* ``dict`` (string keys) — tag ``d``, entries sorted by key

Two properties matter for the payment protocols:

1. **Determinism** — equal values encode to equal bytes (dicts are sorted),
   so signatures over encoded values are well-defined.
2. **Injectivity** — every length is explicit, so distinct values never
   share an encoding (no concatenation ambiguity to exploit in a forgery).

The format is versioned by the leading magic byte so stored messages can be
rejected cleanly if the codec ever changes.
"""

from __future__ import annotations

from typing import Any

MAGIC = b"\x01"  # codec version 1


class CodecError(ValueError):
    """Raised on unencodable values or malformed byte strings."""


def encode(value: Any) -> bytes:
    """Canonically encode ``value`` (see module docstring for the domain)."""
    return MAGIC + _encode(value)


def decode(data: bytes) -> Any:
    """Inverse of :func:`encode`; raises :class:`CodecError` on bad input."""
    if not data[:1] == MAGIC:
        raise CodecError("bad magic byte (codec version mismatch?)")
    value, offset = _decode(data, 1)
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after value")
    return value


def _varlen(n: int) -> bytes:
    return n.to_bytes(8, "big")


def _encode(value: Any) -> bytes:
    if value is None:
        return b"n"
    # bool must be tested before int (bool is an int subclass).
    if isinstance(value, bool):
        return b"t" if value else b"f"
    if isinstance(value, int):
        sign = b"-" if value < 0 else b"+"
        magnitude = abs(value)
        body = magnitude.to_bytes(max(1, (magnitude.bit_length() + 7) // 8), "big")
        return b"i" + sign + _varlen(len(body)) + body
    if isinstance(value, bytes):
        return b"b" + _varlen(len(value)) + value
    if isinstance(value, str):
        body = value.encode("utf-8")
        return b"s" + _varlen(len(body)) + body
    if isinstance(value, (list, tuple)):
        body = b"".join(_encode(item) for item in value)
        return b"l" + _varlen(len(value)) + body
    if isinstance(value, dict):
        keys = list(value.keys())
        if not all(isinstance(k, str) for k in keys):
            raise CodecError("dict keys must be strings")
        if len(set(keys)) != len(keys):  # pragma: no cover - dicts dedupe keys
            raise CodecError("duplicate dict keys")
        body = b"".join(_encode(k) + _encode(value[k]) for k in sorted(keys))
        return b"d" + _varlen(len(keys)) + body
    raise CodecError(f"cannot encode values of type {type(value).__name__}")


def _decode(data: bytes, offset: int) -> tuple[Any, int]:
    """Decode one value at ``offset``; returns it and the offset after it.

    A single pass that indexes the buffer: tag and sign bytes are read as
    ints (compared against their ASCII codes, noted alongside) and only
    length fields and value bodies are sliced out.  Every bounds check runs
    before the read it guards, in the order the fields appear, so a
    malformed input fails with the first applicable error.
    """
    end = len(data)
    if offset >= end:
        raise CodecError("truncated message")
    tag = data[offset]
    offset += 1
    if tag == 0x69:  # i
        if offset >= end:
            raise CodecError("truncated message")
        sign = data[offset]
        if sign != 0x2B and sign != 0x2D:  # + -
            raise CodecError("bad integer sign byte")
        offset += 9
        if offset > end:
            raise CodecError("truncated message")
        stop = offset + int.from_bytes(data[offset - 8 : offset], "big")
        if stop > end:
            raise CodecError("truncated message")
        magnitude = int.from_bytes(data[offset:stop], "big")
        return (-magnitude if sign == 0x2D else magnitude), stop
    if tag == 0x62 or tag == 0x73:  # b s
        offset += 8
        if offset > end:
            raise CodecError("truncated message")
        stop = offset + int.from_bytes(data[offset - 8 : offset], "big")
        if stop > end:
            raise CodecError("truncated message")
        if tag == 0x62:
            return data[offset:stop], stop
        try:
            return data[offset:stop].decode("utf-8"), stop
        except UnicodeDecodeError as exc:
            raise CodecError("invalid UTF-8 in string") from exc
    if tag == 0x6C or tag == 0x64:  # l d
        offset += 8
        if offset > end:
            raise CodecError("truncated message")
        count = int.from_bytes(data[offset - 8 : offset], "big")
        if tag == 0x6C:
            items = []
            for _ in range(count):
                item, offset = _decode(data, offset)
                items.append(item)
            return tuple(items), offset
        out: dict[str, Any] = {}
        previous_key: str | None = None
        for _ in range(count):
            key, offset = _decode(data, offset)
            if not isinstance(key, str):
                raise CodecError("dict key is not a string")
            if previous_key is not None and key <= previous_key:
                raise CodecError("dict keys not in canonical order")
            value, offset = _decode(data, offset)
            out[key] = value
            previous_key = key
        return out, offset
    if tag == 0x6E:  # n
        return None, offset
    if tag == 0x74:  # t
        return True, offset
    if tag == 0x66:  # f
        return False, offset
    raise CodecError(f"unknown tag byte {bytes((tag,))!r}")
