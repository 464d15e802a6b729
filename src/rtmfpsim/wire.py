"""Wire format: packets bundle one or more chunks under the MTU.

Fixed layout, big-endian throughout:

  packet header (12 bytes):
      session_id  u32   id chosen by the packet's *receiver*; 0 on the
                        IHello and IIKeying, before the responder has one
      flags       u8    bit0 established (no sender sets it), bit1 time-critical transfer active
      reserved    3B    zero
      timestamp   u16   sender clock, 1 ms ticks mod 2^16 (0xFFFF = none)
      ts_echo     u16   most recently received peer timestamp (0xFFFF = none)

  chunk header (10 bytes):
      type        u8
      length      u16   body length in bytes (excludes this header)
      flags       u8    data: bits0-1 fragment position, bit2 time-critical
      flow_id     u16
      sequence    u32   data: chunk seq; ack: cumulative ack; else 0

  chunk bodies:
      data        the payload itself (>= 1 byte)
      ack         adv_buffer u32, gap_count u16, then gap_count * (from u32, to u32)
      handshake   epd u32, sid u32, cookie (64 bytes; zero but in RHello, IIKeying)

An encoded packet is exactly 12 + sum(10 + body_len) bytes, len(Packet):
engines pass Packet objects, and encode and decode are the reference that
tests hold them to. Unknown chunk types are skipped via the length field.
"""

from __future__ import annotations

import struct
from .netsim import MTU_DEFAULT, Record

PACKET_HEADER = 12
CHUNK_HEADER = 10
COOKIE_LEN = 64
NO_COOKIE = bytes(COOKIE_LEN)
TS_NONE = 0xFFFF

# Chunk type codes.
T_IHELLO = 0x01
T_RHELLO = 0x02
T_IIKEYING = 0x03
T_RIKEYING = 0x04
T_DATA = 0x10
T_ACK = 0x11

HANDSHAKE_TYPES = (T_IHELLO, T_RHELLO, T_IIKEYING, T_RIKEYING)

# Packet flag bits.
FLAG_ESTABLISHED = 0x01
FLAG_TIME_CRITICAL = 0x02

# Data chunk fragment markers (chunk flags bits 0-1).
FRAG_WHOLE = 0
FRAG_FIRST = 1
FRAG_MIDDLE = 2
FRAG_LAST = 3
_DATA_TC_BIT = 0x04


def chunk_capacity(max_segment_size: int) -> int:
    """The largest data payload a packet of `max_segment_size` bytes carries."""
    return max_segment_size - PACKET_HEADER - CHUNK_HEADER


# No packet exceeds the link MTU, so no sender's chunk holds more than this.
MAX_CHUNK_PAYLOAD = chunk_capacity(MTU_DEFAULT)

_PKT_HDR = struct.Struct("!IB3xHH")
_CHK_HDR = struct.Struct("!BHBHI")
_ACK_FIXED = struct.Struct("!IH")
_GAP = struct.Struct("!II")
_HS_FIXED = struct.Struct("!II")


class DecodeError(Exception):
    """The buffer is not a well-formed packet; the caller discards it."""


class EncodeError(Exception):
    """The packet violates its invariants (bundler bug, not a runtime condition)."""


class DataChunk(Record):
    __slots__ = ("flow_id", "seq", "frag", "time_critical", "payload")

    def __init__(self, flow_id: int, seq: int, frag: int, time_critical: bool,
                 payload: bytes):
        self.flow_id = flow_id
        self.seq = seq
        self.frag = frag
        self.time_critical = time_critical
        self.payload = payload

    def body_len(self) -> int:
        return len(self.payload)


class AckChunk(Record):
    __slots__ = ("flow_id", "cum_ack", "gaps", "adv_buffer")

    def __init__(self, flow_id: int, cum_ack: int,
                 gaps: list[tuple[int, int]] | None = None, adv_buffer: int = 0):
        self.flow_id = flow_id
        self.cum_ack = cum_ack
        self.gaps = [] if gaps is None else gaps
        self.adv_buffer = adv_buffer

    def body_len(self) -> int:
        return ack_body_len(len(self.gaps))


class HandshakeChunk(Record):
    __slots__ = ("kind", "epd", "sid", "cookie")

    def __init__(self, kind: int, epd: int = 0, sid: int = 0, cookie: bytes = NO_COOKIE):
        self.kind = kind  # one of HANDSHAKE_TYPES
        self.epd = epd
        self.sid = sid
        self.cookie = cookie

    def body_len(self) -> int:
        return _HS_FIXED.size + len(self.cookie)


Chunk = DataChunk | AckChunk | HandshakeChunk


class Packet(Record):
    __slots__ = ("session_id", "flags", "timestamp", "ts_echo", "chunks")

    def __init__(self, session_id: int, flags: int = 0, timestamp: int = TS_NONE,
                 ts_echo: int = TS_NONE, chunks: list[Chunk] | None = None):
        self.session_id = session_id
        self.flags = flags
        self.timestamp = timestamp
        self.ts_echo = ts_echo
        self.chunks = [] if chunks is None else chunks

    def __len__(self) -> int:
        """The encoded size, 12 + sum(10 + body_len), without encoding."""
        n = PACKET_HEADER
        for c in self.chunks:
            n += CHUNK_HEADER + c.body_len()
        return n


def ack_body_len(n_gaps: int) -> int:
    return _ACK_FIXED.size + _GAP.size * n_gaps


def encode(p: Packet, max_size: int | None = None) -> bytes:
    """Serialize a packet. Raises EncodeError on invariant violations."""
    if not p.chunks:
        raise EncodeError("packet must carry at least one chunk")
    out = [_PKT_HDR.pack(p.session_id & 0xFFFFFFFF, p.flags & 0xFF,
                         p.timestamp & 0xFFFF, p.ts_echo & 0xFFFF)]
    append = out.append
    chunk_header = _CHK_HDR.pack
    for c in p.chunks:
        # Chunk header fields are (type, flags, flow_id, seq); flags, flow_id
        # and seq are 0 unless the kind uses them.
        cflags = flow_id = seq = 0
        if isinstance(c, DataChunk):
            if len(c.payload) < 1:
                raise EncodeError("data chunk payload must be >= 1 byte")
            ctype, flow_id, seq, body = T_DATA, c.flow_id, c.seq, c.payload
            cflags = (c.frag & 0x03) | (_DATA_TC_BIT if c.time_critical else 0)
        elif isinstance(c, AckChunk):
            ctype, flow_id, seq = T_ACK, c.flow_id, c.cum_ack
            body = _ACK_FIXED.pack(c.adv_buffer & 0xFFFFFFFF, len(c.gaps))
            body += b"".join(_GAP.pack(a & 0xFFFFFFFF, b & 0xFFFFFFFF) for a, b in c.gaps)
        elif isinstance(c, HandshakeChunk):
            ctype = c.kind
            body = _HS_FIXED.pack(c.epd & 0xFFFFFFFF, c.sid & 0xFFFFFFFF) + c.cookie
        else:
            raise EncodeError(f"unknown chunk object: {c!r}")
        append(chunk_header(ctype, len(body), cflags, flow_id & 0xFFFF, seq & 0xFFFFFFFF))
        append(body)
    buf = b"".join(out)
    if max_size is not None and len(buf) > max_size:
        raise EncodeError(f"encoded packet {len(buf)}B exceeds limit {max_size}B")
    return buf


def decode(buf: bytes) -> Packet:
    """Parse a packet. Raises DecodeError on any malformed input.

    Chunks with an unknown type code are skipped using their length field;
    the packet only fails when no chunk can be recovered at all.
    """
    if len(buf) < PACKET_HEADER:
        raise DecodeError(f"buffer too short for packet header: {len(buf)}B")
    session_id, flags, timestamp, ts_echo = _PKT_HDR.unpack_from(buf, 0)
    chunks: list[Chunk] = []
    append = chunks.append
    chunk_header = _CHK_HDR.unpack_from
    off = PACKET_HEADER
    end = len(buf)
    while off < end:
        if off + CHUNK_HEADER > end:
            raise DecodeError("truncated chunk header")
        ctype, blen, cflags, flow_id, seq = chunk_header(buf, off)
        off += CHUNK_HEADER
        if off + blen > end:
            raise DecodeError("chunk body overruns buffer")
        body = buf[off:off + blen]
        off += blen
        if ctype == T_DATA:
            if blen < 1:
                raise DecodeError("empty data chunk")
            append(DataChunk(flow_id, seq, cflags & 0x03, bool(cflags & _DATA_TC_BIT), body))
        elif ctype == T_ACK:
            if blen < _ACK_FIXED.size:
                raise DecodeError("ack chunk body too short")
            adv, n_gaps = _ACK_FIXED.unpack_from(body, 0)
            if blen != ack_body_len(n_gaps):
                raise DecodeError("ack gap count disagrees with body length")
            gaps = [_GAP.unpack_from(body, _ACK_FIXED.size + i * _GAP.size)
                    for i in range(n_gaps)]
            append(AckChunk(flow_id, seq, [(a, b) for a, b in gaps], adv))
        elif ctype in HANDSHAKE_TYPES:
            if blen < _HS_FIXED.size:
                raise DecodeError("handshake chunk body too short")
            epd, sid = _HS_FIXED.unpack_from(body, 0)
            append(HandshakeChunk(ctype, epd, sid, body[_HS_FIXED.size:]))
        else:
            continue  # forward-compatibility: skip unknown chunk kinds
    if not chunks:
        raise DecodeError("packet carries no decodable chunk")
    return Packet(session_id, flags, timestamp, ts_echo, chunks)
