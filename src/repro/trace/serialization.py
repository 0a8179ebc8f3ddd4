"""Binary trace serialization (columnar blob format).

Traces are expensive to produce (functional emulation) and cheap to
replay (the timing model), so persisting them pays off when sweeping
many machine configurations — the same split SimpleScalar users make
with EIO traces.  Since the in-memory representation is already
columnar (:class:`~repro.trace.columnar.ColumnarTrace`), the file is
just the columns back to back::

    magic   6 bytes   b"SVFT\\x04\\x00"
    crc32   <I        zlib.crc32 of everything after this field
    count   <Q        number of records
    pc      count * 8 bytes, little-endian uint64
    opcode  count bytes (repro.isa.encoding.OPCODE_NUMBERS)
    flags   count bytes (FLAG_* bits from repro.trace.columnar)
    size    count bytes
    base    count bytes, int8 (-1 = none)
    dst     count bytes, int8 (-1 = none)
    nsrc    count bytes
    src0    count bytes
    src1    count bytes
    disp    count * 8 bytes, little-endian int64
    spimm   count * 8 bytes, little-endian int64
    addr    count * 8 bytes, little-endian uint64
    next_pc count * 8 bytes, little-endian uint64
    sp      count * 8 bytes, little-endian uint64

One ``tobytes``/``frombytes`` per column replaces one ``struct`` call
per record, so saving/loading is dominated by raw I/O.  The magic
header guards against version skew: files written by the old formats
(``SVFT\\x02`` records, ``SVFT\\x03`` checksum-less columns) are
rejected, not misread.  The CRC covers the count and every column, so
a bit-flip anywhere in a cached trace is a :class:`TraceFormatError`
on load — never a silently wrong simulation input (the chaos harness
injects exactly that fault to prove it).
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from typing import BinaryIO, Iterable

from repro.isa.encoding import OPCODE_NAMES
from repro.trace.columnar import ColumnarTrace

MAGIC = b"SVFT\x04\x00"

_COUNT = struct.Struct("<Q")
_CRC = struct.Struct("<I")

#: (column name, array typecode or None for bytearray) in file order.
COLUMN_LAYOUT = (
    ("pc", "Q"),
    ("opcode", None),
    ("flags", None),
    ("size", None),
    ("base", "b"),
    ("dst", "b"),
    ("nsrc", None),
    ("src0", None),
    ("src1", None),
    ("disp", "q"),
    ("spimm", "q"),
    ("addr", "Q"),
    ("next_pc", "Q"),
    ("sp", "Q"),
)

_BIG_ENDIAN = sys.byteorder == "big"


class TraceFormatError(ValueError):
    """Raised when a file is not a valid serialized trace."""


def _column_to_bytes(column) -> bytes:
    if isinstance(column, bytearray):
        return bytes(column)
    if _BIG_ENDIAN:  # pragma: no cover - little-endian hosts only in CI
        swapped = array(column.typecode, column)
        swapped.byteswap()
        return swapped.tobytes()
    return column.tobytes()


def _write_columns(stream: BinaryIO, trace: ColumnarTrace) -> int:
    count = len(trace)
    blobs = [_COUNT.pack(count)]
    blobs += [
        _column_to_bytes(getattr(trace, name)) for name, _ in COLUMN_LAYOUT
    ]
    crc = 0
    for blob in blobs:
        crc = zlib.crc32(blob, crc)
    stream.write(MAGIC)
    stream.write(_CRC.pack(crc))
    for blob in blobs:
        stream.write(blob)
    return count


def write_trace(stream: BinaryIO, trace: Iterable) -> int:
    """Write a trace to an open binary stream; returns the record count.

    Accepts a :class:`ColumnarTrace` (written as-is) or any iterable
    of :class:`TraceRecord` (packed first).  Used by callers that
    manage the file themselves (e.g. the trace cache's atomic
    temp-file-then-rename writes).
    """
    return _write_columns(stream, ColumnarTrace.from_records(trace))


def save_trace(trace: Iterable, path: str) -> int:
    """Write a trace to ``path``; returns the record count.

    Accepts a :class:`ColumnarTrace` (written as-is) or any iterable
    of :class:`TraceRecord` (packed first).
    """
    with open(path, "wb") as stream:
        return write_trace(stream, trace)


# ---------------------------------------------------------------------------
# Shared-memory buffer payloads
# ---------------------------------------------------------------------------

#: Commit record of a shared-buffer payload (see :func:`pack_shared`).
SHARED_MAGIC = b"SVFS\x04\x00"

#: Header: magic (6) + pad (2) + count (<Q) = 16 bytes, so the wide
#: columns that follow stay 8-byte aligned for zero-copy casts.
_SHARED_HEADER = 16

#: Buffer column order: wide columns first (alignment), then bytes.
SHARED_ORDER = tuple(
    sorted(COLUMN_LAYOUT, key=lambda item: item[1] is None)
)

_BYTES_PER_RECORD = sum(
    1 if typecode is None else array(typecode).itemsize
    for _, typecode in COLUMN_LAYOUT
)


def shared_payload_size(count: int) -> int:
    """Bytes needed to pack a ``count``-record trace into a buffer."""
    return _SHARED_HEADER + count * _BYTES_PER_RECORD


def pack_shared(buffer, trace: ColumnarTrace) -> int:
    """Pack ``trace`` into a writable buffer; returns bytes written.

    The columns and the record count are written first and the magic
    *last*: the magic is the commit record, so a writer killed mid-pack
    (the chaos harness does exactly that to workers) leaves a buffer
    that :func:`unpack_shared` reports as absent — a torn payload can
    never be attached as a valid trace.
    """
    view = memoryview(buffer)
    count = len(trace)
    size = shared_payload_size(count)
    if len(view) < size:
        raise ValueError(
            f"shared buffer too small: {len(view)} < {size} bytes"
        )
    offset = _SHARED_HEADER
    for name, _ in SHARED_ORDER:
        # Native byte order: a shared buffer never leaves this host,
        # so unlike the file format there is no byteswap on the way
        # in or out.
        blob = memoryview(getattr(trace, name)).cast("B")
        view[offset : offset + len(blob)] = blob
        offset += len(blob)
    view[6:8] = b"\x00\x00"
    _COUNT.pack_into(view, 8, count)
    view[:6] = SHARED_MAGIC
    return size


def unpack_shared(buffer):
    """Read-only column views over a packed buffer, or ``None``.

    Returns ``{column name: memoryview}`` with each view cast to the
    column's element type, or ``None`` when the buffer carries no
    committed payload (bad magic, impossible count) — the caller
    treats that as a cache miss, never an error.
    """
    view = memoryview(buffer).toreadonly()
    if len(view) < _SHARED_HEADER or bytes(view[:6]) != SHARED_MAGIC:
        return None
    (count,) = _COUNT.unpack_from(view, 8)
    if shared_payload_size(count) > len(view):
        return None
    columns = {}
    offset = _SHARED_HEADER
    for name, typecode in SHARED_ORDER:
        if typecode is None:
            width = count
            columns[name] = view[offset : offset + width]
        else:
            width = count * array(typecode).itemsize
            columns[name] = view[offset : offset + width].cast(typecode)
        offset += width
    return columns


def load_trace(path: str) -> ColumnarTrace:
    """Read a trace written by :func:`save_trace` / :func:`write_trace`."""
    with open(path, "rb") as stream:
        blob = stream.read()
    header_size = len(MAGIC) + _CRC.size + _COUNT.size
    if blob[: len(MAGIC)] != MAGIC or len(blob) < header_size:
        raise TraceFormatError(f"bad trace header in {path!r}")
    (crc,) = _CRC.unpack_from(blob, len(MAGIC))
    if zlib.crc32(memoryview(blob)[len(MAGIC) + _CRC.size:]) != crc:
        raise TraceFormatError(f"checksum mismatch in {path!r}")
    (count,) = _COUNT.unpack_from(blob, len(MAGIC) + _CRC.size)
    trace = ColumnarTrace()
    offset = header_size
    for name, typecode in COLUMN_LAYOUT:
        if typecode is None:
            width = count
            column = bytearray(blob[offset : offset + width])
        else:
            column = array(typecode)
            width = count * column.itemsize
            if len(blob) - offset < width:
                raise TraceFormatError(f"truncated trace file {path!r}")
            column.frombytes(blob[offset : offset + width])
            if _BIG_ENDIAN:  # pragma: no cover
                column.byteswap()
        if len(column) != count:
            raise TraceFormatError(f"truncated trace file {path!r}")
        setattr(trace, name, column)
        offset += width
    if offset != len(blob):
        raise TraceFormatError(f"trailing bytes in trace file {path!r}")
    for opcode in trace.opcode:
        if opcode not in OPCODE_NAMES:
            raise TraceFormatError(
                f"bad opcode {opcode} in trace file {path!r}"
            )
    return trace
