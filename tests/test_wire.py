import copy
import random

import pytest

from rtmfpsim import flows, harness, wire
from conftest import random_packet
from test_preset_digests import POINTS


def data(flow=19, seq=1, payload=b"x" * 140, frag=wire.FRAG_WHOLE, tc=False):
    return wire.DataChunk(flow, seq, frag, tc, payload)


# ------------------------------------------------------------------- sizing


def test_single_140_byte_chunk_packet_is_162_bytes():
    p = wire.Packet(1, chunks=[data()])
    assert len(wire.encode(p)) == 162  # 12 + 10 + 140


def test_nine_140_byte_chunks_packet_is_1362_bytes():
    p = wire.Packet(1, chunks=[data(seq=i) for i in range(1, 10)])
    assert len(wire.encode(p)) == 1362  # 12 + 9 * 150


def test_empty_chunk_list_is_an_encode_error():
    # So are an empty data chunk and an object that is no chunk.
    for chunks in ([], [data(payload=b"")], [data(), b"x" * 140]):
        with pytest.raises(wire.EncodeError):
            wire.encode(wire.Packet(1, chunks=chunks))


def test_oversize_packet_rejected_when_limit_given():
    p = wire.Packet(1, chunks=[data(seq=i) for i in range(1, 11)])
    with pytest.raises(wire.EncodeError):
        wire.encode(p, max_size=1472)


def test_chunk_overhead_is_fixed_ten_bytes():
    # Every chunk kind costs the same 10-byte header on the wire.
    for chunk in (data(seq=1), wire.AckChunk(19, 0), wire.HandshakeChunk(wire.T_IHELLO)):
        p = wire.Packet(1, chunks=[chunk])
        assert len(wire.encode(p)) == wire.PACKET_HEADER + wire.CHUNK_HEADER + chunk.body_len()
    assert wire.CHUNK_HEADER == 10
    assert wire.ack_body_len(0) == 6
    assert wire.ack_body_len(3) == 6 + 24


def test_payload_share_of_max_bundled_140_byte_packet():
    # Nine 140 B chunks bundle into 1362 wire bytes.
    ratio = 9 * 140 / 1362
    assert abs(ratio - 0.925) < 0.001


# --------------------------------------------------------------- round trips


def test_round_trip_mixed_packet():
    p = wire.Packet(0xCAFEBABE, wire.FLAG_ESTABLISHED, 17, 16, chunks=[
        data(seq=5),
        wire.AckChunk(19, 4, [(6, 7), (9, 12)], 65536),
        wire.HandshakeChunk(wire.T_IHELLO, epd=2014, sid=0x12345678),
    ])
    assert wire.decode(wire.encode(p)) == p


def test_round_trip_ack_with_empty_gaps():
    p = wire.Packet(7, chunks=[wire.AckChunk(19, 100, [], 4096)])
    assert wire.decode(wire.encode(p)) == p


def outbound(seq=1, loss_reports=0):
    return flows.OutboundChunk(19, seq, wire.FRAG_WHOLE, False, b"x" * 140,
                               loss_reports=loss_reports)


@pytest.mark.parametrize("a,b", [
    (data(), data(seq=2)), (data(), data(payload=b"y" * 140)), (data(), data(tc=True)),
    (wire.AckChunk(19, 4, [(6, 7)]), wire.AckChunk(19, 4, [(6, 8)])),
    (wire.AckChunk(19, 4), wire.AckChunk(19, 4, adv_buffer=1)),
    (wire.HandshakeChunk(wire.T_IHELLO), wire.HandshakeChunk(wire.T_RHELLO)),
    (wire.Packet(1, chunks=[data()]), wire.Packet(1, chunks=[data(seq=2)])),
    (wire.Packet(1, chunks=[data()]), wire.Packet(1, ts_echo=5, chunks=[data()])),
    (outbound(), outbound(seq=2)), (outbound(), outbound(loss_reports=1)),
    # A send flow's chunk never equals the data chunk decoded from it.
    (outbound(), data()),
])
def test_equality_compares_the_class_and_every_field(a, b):
    """The round-trip tests' decode(encode(p)) == p holds only field by field."""
    assert a == copy.deepcopy(a) and b == copy.deepcopy(b)
    assert a != b and b != a


def test_repr_names_the_class_and_every_field():
    assert repr(wire.AckChunk(19, 4)) == "AckChunk(flow_id=19, cum_ack=4, gaps=[], adv_buffer=0)"


def test_round_trip_randomized_packets():
    rng = random.Random(20240901)
    for _ in range(2000):
        p = random_packet(rng)
        buf = wire.encode(p)
        assert len(buf) == wire.PACKET_HEADER + sum(wire.CHUNK_HEADER + c.body_len()
                                                    for c in p.chunks)
        assert wire.decode(buf) == p


def test_packet_len_is_its_encoded_size():
    rng = random.Random(7016)
    for _ in range(500):
        p = random_packet(rng)
        assert len(p) == len(wire.encode(p))


# ------------------------------------------------------------------ decoding


def test_short_buffer_is_a_decode_error():
    with pytest.raises(wire.DecodeError):
        wire.decode(b"\x00\x01\x02\x03\x04")


def test_truncated_chunk_body_is_a_decode_error():
    buf = wire.encode(wire.Packet(1, chunks=[data()]))
    with pytest.raises(wire.DecodeError):
        wire.decode(buf[:-1])
    # So is a chunk body shorter than its kind's fixed part.
    for ctype, body_len, error in ((wire.T_DATA, 0, "empty data chunk"),
                                   (wire.T_ACK, 5, "ack chunk body too short"),
                                   (wire.T_RIKEYING, 7, "handshake chunk body too short")):
        short = bytes([ctype]) + body_len.to_bytes(2, "big") + bytes(7 + body_len)
        with pytest.raises(wire.DecodeError, match=error):
            wire.decode(buf + short)


def test_unknown_chunk_type_is_skipped():
    good = wire.Packet(1, chunks=[data(payload=b"ok")])
    buf = wire.encode(good)
    # 0x1F is RTMFP's Close chunk, which this model does not have.
    for ctype, body in ((0x7E, b"abc"), (0x1F, b"")):
        alien = bytes([ctype]) + len(body).to_bytes(2, "big") + bytes(7) + body
        assert wire.decode(buf + alien).chunks == good.chunks
        # A packet made only of unknown chunks has nothing to deliver.
        with pytest.raises(wire.DecodeError):
            wire.decode(buf[:wire.PACKET_HEADER] + alien)


def test_fuzzed_inputs_never_crash():
    rng = random.Random(77)
    base = wire.encode(random_packet(rng))
    for _ in range(3000):
        buf = bytearray(base)
        for _ in range(rng.randint(1, 8)):
            buf[rng.randrange(len(buf))] = rng.randrange(256)
        buf = bytes(buf[:rng.randint(0, len(buf))])
        try:
            wire.decode(buf)
        except wire.DecodeError:
            pass
    for _ in range(2000):
        try:
            wire.decode(rng.randbytes(rng.randint(0, 200)))
        except wire.DecodeError:
            pass


# ----------------------------------------------------------- golden vectors


def _golden_packets():
    p1 = wire.Packet(0, flags=0, timestamp=0x0001, ts_echo=0xFFFF, chunks=[
        wire.HandshakeChunk(wire.T_IHELLO, epd=2014, sid=0x12345678)])
    p2 = wire.Packet(0xCAFEBABE, flags=wire.FLAG_ESTABLISHED,
                     timestamp=0x0002, ts_echo=0x0001, chunks=[
                         data(flow=19, seq=1, payload=b"0123456789abcdef")])
    p3 = wire.Packet(0x00000007,
                     flags=wire.FLAG_ESTABLISHED | wire.FLAG_TIME_CRITICAL,
                     timestamp=0x1234, ts_echo=0x0033, chunks=[
                         data(flow=88, seq=2, payload=b"AB",
                              frag=wire.FRAG_FIRST, tc=True),
                         wire.AckChunk(19, 5, [(7, 8)], 65536)])
    return [p1, p2, p3]


def test_golden_hand_derived_layouts():
    p1, p2, p3 = _golden_packets()
    expected1 = ("00000000" "00" "000000" "0001" "ffff"
                 "01" "0048" "00" "0000" "00000000"
                 "000007de" "12345678" + "00" * 64)
    assert wire.encode(p1).hex() == expected1
    expected2 = ("cafebabe" "01" "000000" "0002" "0001"
                 "10" "0010" "00" "0013" "00000001"
                 + b"0123456789abcdef".hex())
    assert wire.encode(p2).hex() == expected2
    expected3 = ("00000007" "03" "000000" "1234" "0033"
                 "10" "0002" "05" "0058" "00000002" "4142"
                 "11" "000e" "00" "0013" "00000005"
                 "00010000" "0001" "00000007" "00000008")
    assert wire.encode(p3).hex() == expected3


def test_golden_vector_file_round_trips(tmp_path):
    import pathlib
    vec_path = pathlib.Path(__file__).parent / "vectors" / "golden_packets.hex"
    lines = [l for l in vec_path.read_text().splitlines()
             if l and not l.startswith("#")]
    assert len(lines) == 3
    for line, pkt in zip(lines, _golden_packets()):
        assert wire.encode(pkt).hex() == line
        assert wire.decode(bytes.fromhex(line)) == pkt


# ----------------------------------------------------------------- run path


def _fields(obj, cls):
    return [getattr(obj, name) for name in cls.__slots__]


@pytest.mark.parametrize("name", list(POINTS))
def test_every_packet_sent_encodes_to_its_size_and_round_trips(name):
    """The codec is the reference for the packets engines send: each one, at
    every preset and extra point over its pinned duration, encodes to exactly
    its datagram's size, within its sender's maxSegmentSize, and decodes back
    to the same fields. Cut to 300 ms, four points would send handshake
    chunks only; each pinned run sends data and acks."""
    checked = set()
    kinds = set()

    def observe(now, dgram, outcome, deliver_at):
        engine = engines.get(dgram.src[0])
        if engine is None or dgram in checked:  # background traffic, or seen
            return
        checked.add(dgram)
        pkt = dgram.payload
        buf = wire.encode(pkt)
        assert len(buf) == dgram.size <= engine.spec.max_segment_size
        back = wire.decode(buf)
        # The header fields: every field but the last, the chunks.
        assert _fields(back, wire.Packet)[:-1] == _fields(pkt, wire.Packet)[:-1]
        assert len(back.chunks) == len(pkt.chunks)
        for got, sent in zip(back.chunks, pkt.chunks):
            assert isinstance(sent, type(got)), (got, sent)
            assert _fields(got, type(got)) == _fields(sent, type(got))
            kinds.add(type(got))

    def tap(bundle):
        engines.update(bundle.engines)
        for link in bundle.links.values():
            link.observer = observe

    engines = {}
    scenario_id, text, overrides = POINTS[name]
    harness.run_config(text, overrides, scenario_id, prepare=tap)
    assert {wire.DataChunk, wire.AckChunk} <= kinds
