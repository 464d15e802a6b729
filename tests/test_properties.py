"""Property tests: the wire codec and the send/receive flow pair, over inputs
generated by hypothesis. Skipped where hypothesis is not installed."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rtmfpsim import wire  # noqa: E402
from rtmfpsim.flows import Message, RecvFlow, SendFlow, fill_packet  # noqa: E402

# Derandomized, so that every run tries the same examples and a failure
# replays; no example database is written.
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
MTU_PAYLOAD = 1472
CHUNK_CAP = MTU_PAYLOAD - wire.PACKET_HEADER - wire.CHUNK_HEADER

u16 = st.integers(0, 0xFFFF)
u32 = st.integers(0, 0xFFFFFFFF)

data_chunks = st.builds(
    wire.DataChunk, flow_id=u16, seq=u32,
    frag=st.sampled_from((wire.FRAG_WHOLE, wire.FRAG_FIRST, wire.FRAG_MIDDLE,
                          wire.FRAG_LAST)),
    time_critical=st.booleans(), payload=st.binary(min_size=1, max_size=CHUNK_CAP))
ack_chunks = st.builds(
    wire.AckChunk, flow_id=u16, cum_ack=u32,
    gaps=st.lists(st.tuples(u32, u32), max_size=12), adv_buffer=u32)
handshake_chunks = st.builds(
    wire.HandshakeChunk, kind=st.sampled_from(wire.HANDSHAKE_TYPES), epd=u32, sid=u32,
    cookie=st.binary(max_size=wire.COOKIE_LEN))
packets = st.builds(
    wire.Packet, session_id=u32, flags=st.integers(0, 0xFF), timestamp=u16, ts_echo=u16,
    chunks=st.lists(st.one_of(data_chunks, ack_chunks, handshake_chunks,
                              st.just(wire.CloseChunk())), min_size=1, max_size=6))


@st.composite
def damaged_encodings(draw):
    """A valid encoding, cut short and with some bytes overwritten."""
    buf = bytearray(wire.encode(draw(packets)))
    del buf[draw(st.integers(0, len(buf))):]
    for _ in range(draw(st.integers(0, 4))):
        if buf:
            buf[draw(st.integers(0, len(buf) - 1))] = draw(st.integers(0, 0xFF))
    return bytes(buf)


@SETTINGS
@given(st.one_of(st.binary(max_size=400), damaged_encodings()))
def test_any_bytes_decode_or_raise_decode_error(buf):
    try:
        pkt = wire.decode(buf)
    except wire.DecodeError:
        return
    assert pkt.chunks


@SETTINGS
@given(packets)
def test_decode_inverts_encode_and_size_is_header_plus_chunks(pkt):
    buf = wire.encode(pkt)
    assert len(buf) == 12 + sum(10 + c.body_len() for c in pkt.chunks)
    assert len(buf) == wire.encoded_size(pkt)
    assert wire.decode(buf) == pkt


class _Session:
    """The session surface fill_packet reads and writes."""

    def __init__(self, flow):
        self.send_flows = {flow.flow_id: flow}
        self.rr_cursor = {}
        self.last_fill_was_full = False


def transfer(payloads, drop, dup, rng, max_steps=20_000):
    """Send `payloads` over one flow through a channel that drops, duplicates
    and reorders packets both ways; -> the messages the receiver read.

    Every data packet and ack goes through the wire codec. When nothing is in
    the channel, the receiver sends its pending ack or, failing that, the
    sender retransmits everything in flight, as the engine's delayed-ack and
    retransmission timers do.
    """
    sf = SendFlow(19, False, CHUNK_CAP)
    rf = RecvFlow(19, rcv_buffer_size=1 << 20)
    session = _Session(sf)
    for p in payloads:
        sf.enqueue_message(Message(p))
    channel: list[tuple[str, bytes]] = []

    def put(direction, chunks):
        if rng.random() < drop:
            return
        item = (direction, wire.encode(wire.Packet(1, chunks=chunks), MTU_PAYLOAD))
        channel.append(item)
        if rng.random() < dup:
            channel.append(item)

    got: list[bytes] = []
    for _ in range(max_steps):
        while (chunks := fill_packet(session, MTU_PAYLOAD)) is not None:
            put("data", chunks)
        if not channel:
            if rf.ack_pending():
                put("ack", [rf.make_ack(0)])
            elif sf.has_pending():
                sf.force_retransmit_all()
            else:
                return got
            continue
        direction, buf = channel.pop(rng.randrange(len(channel)))
        pkt = wire.decode(buf)
        if direction == "ack":
            for ack in pkt.chunks:
                sf.on_ack(ack, 0)
            continue
        for c in pkt.chunks:
            rf.on_data_chunk(c, 0)
        ack = rf.end_of_packet(0)
        if ack is not None:
            put("ack", [ack])
        got.extend(m.payload for m in rf.app_read())
    raise AssertionError(f"no completion in {max_steps} steps")


@settings(SETTINGS, max_examples=100)
@given(sizes=st.lists(st.integers(1, 3 * CHUNK_CAP + 17), min_size=1, max_size=25),
       drop=st.floats(0.0, 0.3), dup=st.floats(0.0, 0.3),
       seed=st.integers(0, 2**32 - 1))
def test_flow_pair_delivers_every_message_once_in_order(sizes, drop, dup, seed):
    rng = random.Random(seed)
    payloads = [i.to_bytes(4, "big") + bytes([i % 251]) * (n - 4) if n >= 4
                else bytes([i % 251]) * n for i, n in enumerate(sizes)]
    assert transfer(payloads, drop, dup, rng) == payloads
