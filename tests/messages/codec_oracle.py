"""The codec's previous slicing decoder, kept verbatim as a test oracle.

:mod:`repro.messages.codec` decodes in a single indexing pass; the
differential tests in ``test_codec_differential.py`` check that it accepts
exactly the inputs this decoder accepts, returns the same values, and
raises the same :class:`~repro.messages.codec.CodecError` messages.
"""

from __future__ import annotations

from typing import Any

from repro.messages.codec import MAGIC, CodecError


def decode(data: bytes) -> Any:
    """Inverse of :func:`repro.messages.codec.encode`, slice by slice."""
    if not data[:1] == MAGIC:
        raise CodecError("bad magic byte (codec version mismatch?)")
    value, offset = _decode(data, 1)
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after value")
    return value


def _take(data: bytes, offset: int, n: int) -> tuple[bytes, int]:
    if offset + n > len(data):
        raise CodecError("truncated message")
    return data[offset : offset + n], offset + n


def _decode(data: bytes, offset: int) -> tuple[Any, int]:
    tag, offset = _take(data, offset, 1)
    if tag == b"n":
        return None, offset
    if tag == b"t":
        return True, offset
    if tag == b"f":
        return False, offset
    if tag == b"i":
        sign, offset = _take(data, offset, 1)
        if sign not in (b"+", b"-"):
            raise CodecError("bad integer sign byte")
        raw_len, offset = _take(data, offset, 8)
        body, offset = _take(data, offset, int.from_bytes(raw_len, "big"))
        magnitude = int.from_bytes(body, "big")
        return (-magnitude if sign == b"-" else magnitude), offset
    if tag == b"b":
        raw_len, offset = _take(data, offset, 8)
        body, offset = _take(data, offset, int.from_bytes(raw_len, "big"))
        return body, offset
    if tag == b"s":
        raw_len, offset = _take(data, offset, 8)
        body, offset = _take(data, offset, int.from_bytes(raw_len, "big"))
        try:
            return body.decode("utf-8"), offset
        except UnicodeDecodeError as exc:
            raise CodecError("invalid UTF-8 in string") from exc
    if tag == b"l":
        raw_count, offset = _take(data, offset, 8)
        count = int.from_bytes(raw_count, "big")
        items = []
        for _ in range(count):
            item, offset = _decode(data, offset)
            items.append(item)
        return tuple(items), offset
    if tag == b"d":
        raw_count, offset = _take(data, offset, 8)
        count = int.from_bytes(raw_count, "big")
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
    raise CodecError(f"unknown tag byte {tag!r}")
