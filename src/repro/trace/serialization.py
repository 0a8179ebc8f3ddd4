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

Each column is written from a ``memoryview`` of its buffer and read
back with one ``readinto`` into its new buffer, so saving/loading is
raw I/O plus the CRC, with no intermediate copy.  The magic
header guards against version skew: files written by the old formats
(``SVFT\\x02`` records, ``SVFT\\x03`` checksum-less columns) are
rejected, not misread.  The CRC covers the count and every column, so
a bit-flip anywhere in a cached trace is a :class:`TraceFormatError`
on load — never a silently wrong simulation input (the chaos harness
injects exactly that fault to prove it).
"""

from __future__ import annotations

import os
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
_HEADER_SIZE = len(MAGIC) + _CRC.size + _COUNT.size

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

#: File (and shared-buffer) bytes per record, all columns together.
_BYTES_PER_RECORD = sum(
    1 if typecode is None else array(typecode).itemsize
    for _, typecode in COLUMN_LAYOUT
)

_BIG_ENDIAN = sys.byteorder == "big"

#: Every opcode number a trace may hold (``bytes.translate`` deletes).
_VALID_OPCODES = bytes(sorted(OPCODE_NAMES))


class TraceFormatError(ValueError):
    """Raised when a file is not a valid serialized trace."""


def _column_to_bytes(column) -> memoryview:
    """The column's bytes in file (little-endian) order, uncopied."""
    if _BIG_ENDIAN and not isinstance(column, bytearray):  # pragma: no cover
        swapped = array(column.typecode, column)
        swapped.byteswap()
        column = swapped
    return memoryview(column).cast("B")


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
    """Read a trace written by :func:`save_trace` / :func:`write_trace`.

    A well-formed file is read straight into freshly allocated columns
    (``readinto``; no whole-file blob), with the CRC chained over them.
    A file whose size disagrees with its record count is read whole
    only to pick the message: a checksum mismatch first, as for any
    corrupt file, else truncated or trailing bytes.
    """
    with open(path, "rb") as stream:
        header = stream.read(_HEADER_SIZE)
        if header[: len(MAGIC)] != MAGIC or len(header) < _HEADER_SIZE:
            raise TraceFormatError(f"bad trace header in {path!r}")
        (crc,) = _CRC.unpack_from(header, len(MAGIC))
        (count,) = _COUNT.unpack_from(header, len(MAGIC) + _CRC.size)
        running = zlib.crc32(header[len(MAGIC) + _CRC.size :])
        body = os.fstat(stream.fileno()).st_size - _HEADER_SIZE
        expected = count * _BYTES_PER_RECORD
        if body != expected:
            if zlib.crc32(stream.read(), running) != crc:
                raise TraceFormatError(f"checksum mismatch in {path!r}")
            if body < expected:
                raise TraceFormatError(f"truncated trace file {path!r}")
            raise TraceFormatError(f"trailing bytes in trace file {path!r}")
        trace = ColumnarTrace()
        for name, typecode in COLUMN_LAYOUT:
            if typecode is None:
                column = bytearray(count)
            else:
                column = array(typecode, [0]) * count
            view = memoryview(column).cast("B")
            if stream.readinto(view) != len(view):
                raise TraceFormatError(f"truncated trace file {path!r}")
            running = zlib.crc32(view, running)
            view.release()
            if _BIG_ENDIAN and typecode is not None:  # pragma: no cover
                column.byteswap()
            setattr(trace, name, column)
    if running != crc:
        raise TraceFormatError(f"checksum mismatch in {path!r}")
    # What survives deleting every valid opcode is bad, in trace order.
    bad = trace.opcode.translate(None, _VALID_OPCODES)
    if bad:
        raise TraceFormatError(f"bad opcode {bad[0]} in trace file {path!r}")
    return trace
