"""Length-prefixed JSON frames with a CRC32 trailer.

The wire unit of the placement transport is one *frame*::

    +-------+---------+------------+------------------+-----------+
    | magic | version |  length    |  payload (JSON)  |  crc32    |
    | 2 B   | 1 B     |  4 B (!I)  |  `length` bytes  |  4 B (!I) |
    +-------+---------+------------+------------------+-----------+

* ``magic`` is ``b"MF"`` ("Merchandiser Frame") so a desynchronised or
  foreign byte stream is rejected at the first header, not after a
  multi-megabyte bogus read;
* ``version`` is the *frame* format version (the JSON payload carries its
  own ``{"v": ...}`` protocol version on top);
* ``length`` is the payload byte count, guarded by ``max_frame`` so a
  corrupt or hostile length prefix cannot make a peer buffer gigabytes;
* ``crc32`` covers the payload bytes, so torn writes and bit flips are
  detected before JSON parsing ever sees them.

Every decode failure raises a **typed** :class:`FrameError` subclass --
a mutated frame must never deserialize silently (property-tested in
``tests/test_transport_properties.py``).

Three consumption styles are provided: one-shot (:func:`decode_frame`),
incremental (:class:`FrameAssembler`, for blocking sockets), and asyncio
(:func:`read_frame` / :func:`write_frame`, for the transport server).
"""

from __future__ import annotations

import asyncio
import struct
import zlib

from repro.service.protocol import from_json, to_json

__all__ = [
    "FRAME_VERSION",
    "DEFAULT_MAX_FRAME",
    "HEADER_SIZE",
    "TRAILER_SIZE",
    "FrameError",
    "FrameCorrupt",
    "FrameTruncated",
    "FrameTooLarge",
    "encode_frame",
    "decode_frame",
    "FrameAssembler",
    "read_frame",
    "write_frame",
]

MAGIC = b"MF"
#: bump on any incompatible change to the frame layout itself
FRAME_VERSION = 1
#: default cap on one frame's payload bytes (1 MiB holds thousands of tasks)
DEFAULT_MAX_FRAME = 1 << 20

_HEADER = struct.Struct("!2sBI")
_TRAILER = struct.Struct("!I")
HEADER_SIZE = _HEADER.size
TRAILER_SIZE = _TRAILER.size


class FrameError(ValueError):
    """Base class of every framing failure (always typed, never silent)."""


class FrameCorrupt(FrameError):
    """Bad magic, unknown frame version, or CRC mismatch."""


class FrameTruncated(FrameError):
    """The byte stream ended mid-frame (torn write / dropped peer)."""


class FrameTooLarge(FrameError):
    """Declared payload length exceeds the ``max_frame`` guard."""


def encode_frame(message: dict) -> bytes:
    """One message -> one frame, using the protocol's canonical JSON."""
    payload = to_json(message).encode("utf-8")
    return b"".join(
        (
            _HEADER.pack(MAGIC, FRAME_VERSION, len(payload)),
            payload,
            _TRAILER.pack(zlib.crc32(payload)),
        )
    )


def _check_header(buf: bytes, max_frame: int) -> int:
    """Validate the 7-byte header; returns the declared payload length."""
    if len(buf) < HEADER_SIZE:
        raise FrameTruncated(
            f"incomplete frame header ({len(buf)} of {HEADER_SIZE} bytes)"
        )
    magic, version, length = _HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise FrameCorrupt(f"bad frame magic {magic!r} (stream desynchronised?)")
    if version != FRAME_VERSION:
        raise FrameCorrupt(
            f"unsupported frame version {version} (this peer speaks "
            f"v{FRAME_VERSION})"
        )
    if length > max_frame:
        raise FrameTooLarge(
            f"declared payload of {length} bytes exceeds max_frame={max_frame}"
        )
    return length


def _check_payload(payload: bytes, crc: int) -> dict:
    if zlib.crc32(payload) != crc:
        raise FrameCorrupt(
            f"CRC mismatch (expected {crc:#010x}, "
            f"computed {zlib.crc32(payload):#010x})"
        )
    return from_json(payload.decode("utf-8"))


def decode_frame(buf: bytes, max_frame: int = DEFAULT_MAX_FRAME) -> dict:
    """Decode exactly one whole frame; raises on anything else.

    Truncated input raises :class:`FrameTruncated`, trailing bytes raise
    :class:`FrameError`: one-shot decoding is strict by design (streams
    use :class:`FrameAssembler`, which keeps leftovers for the next
    frame).
    """
    length = _check_header(buf, max_frame)
    total = HEADER_SIZE + length + TRAILER_SIZE
    if len(buf) < total:
        raise FrameTruncated(
            f"frame declares {total} bytes but only {len(buf)} present"
        )
    payload = buf[HEADER_SIZE : HEADER_SIZE + length]
    (crc,) = _TRAILER.unpack_from(buf, HEADER_SIZE + length)
    message = _check_payload(payload, crc)
    if len(buf) > total:
        raise FrameError(f"{len(buf) - total} trailing bytes after the frame")
    return message


class FrameAssembler:
    """Incremental frame decoder for a byte stream.

    Feed arbitrary chunks; complete messages come back in order.  Any
    framing violation raises immediately and poisons the assembler --
    after a corrupt header there is no trustworthy resynchronisation
    point, so the owning connection must be torn down.
    """

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME) -> None:
        self.max_frame = max_frame
        self._buf = bytearray()
        self._poisoned = False

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buf)

    def feed(self, data: bytes) -> list[dict]:
        if self._poisoned:
            raise FrameCorrupt("assembler poisoned by an earlier framing error")
        self._buf.extend(data)
        out: list[dict] = []
        try:
            while len(self._buf) >= HEADER_SIZE:
                length = _check_header(self._buf, self.max_frame)
                total = HEADER_SIZE + length + TRAILER_SIZE
                if len(self._buf) < total:
                    break
                payload = bytes(self._buf[HEADER_SIZE : HEADER_SIZE + length])
                (crc,) = _TRAILER.unpack_from(self._buf, HEADER_SIZE + length)
                out.append(_check_payload(payload, crc))
                del self._buf[:total]
        except FrameError:
            self._poisoned = True
            raise
        return out

    def close(self) -> None:
        """Declare the stream over; raises if bytes were left mid-frame."""
        if self._buf and not self._poisoned:
            self._poisoned = True
            raise FrameTruncated(
                f"stream ended with {len(self._buf)} bytes of an "
                "incomplete frame"
            )


async def read_frame(
    reader: asyncio.StreamReader,
    max_frame: int = DEFAULT_MAX_FRAME,
    timeout: float | None = None,
) -> tuple[dict, int] | None:
    """Read one frame; returns ``(message, frame_bytes)``, or ``None`` on
    clean EOF at a frame boundary.

    EOF mid-frame raises :class:`FrameTruncated`; an expired ``timeout``
    raises :class:`asyncio.TimeoutError` (the caller's idle/read-timeout
    policy decides what that means).
    """

    async def _read() -> tuple[dict, int] | None:
        try:
            header = await reader.readexactly(HEADER_SIZE)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean EOF between frames
            raise FrameTruncated(
                f"peer closed after {len(exc.partial)} header bytes"
            ) from exc
        length = _check_header(header, max_frame)
        try:
            rest = await reader.readexactly(length + TRAILER_SIZE)
        except asyncio.IncompleteReadError as exc:
            raise FrameTruncated(
                f"peer closed {len(exc.partial)} bytes into a "
                f"{length}-byte payload"
            ) from exc
        payload, trailer = rest[:length], rest[length:]
        (crc,) = _TRAILER.unpack(trailer)
        return _check_payload(payload, crc), HEADER_SIZE + length + TRAILER_SIZE

    if timeout is None:
        return await _read()
    return await asyncio.wait_for(_read(), timeout)


async def write_frame(writer: asyncio.StreamWriter, message: dict) -> int:
    """Write one frame and drain (the slow-reader write pause); returns
    the frame's size in bytes."""
    frame = encode_frame(message)
    writer.write(frame)
    await writer.drain()
    return len(frame)
