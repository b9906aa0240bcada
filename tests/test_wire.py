import socket
import struct
import threading

import pytest
from hypothesis import given, settings, strategies as st

from v6ready import wire
from v6ready.names import DomainName, normalize
from v6ready.records import (
    MxData,
    ResourceRecord,
    RRType,
    SoaData,
    pack_address,
)


def minimal_query(name, rrtype, mid=0x1234):
    return wire.DnsMessage(id=mid, question=wire.Question(normalize(name), rrtype))


def test_golden_minimal_com_ns_query():
    raw = wire.encode(minimal_query("com", RRType.NS))
    assert raw == bytes.fromhex(
        "1234" "0000" "0001" "0000" "0000" "0000"  # header
        "03636f6d00" "0002" "0001"                 # question: com NS IN
    )
    assert len(raw) == 12 + 9


def test_root_question_encodes_single_zero_byte():
    raw = wire.encode(minimal_query(".", RRType.NS))
    assert raw[12:13] == b"\x00"
    assert raw[13:17] == struct.pack("!HH", 2, 1)


# A deliberately separate decoder used as the oracle for encode().
def naive_decode(data):
    def read_name(pos):
        parts = []
        while True:
            n = data[pos]
            if n == 0:
                return ".".join(parts) or ".", pos + 1
            if n & 0xC0 == 0xC0:
                target = ((n & 0x3F) << 8) | data[pos + 1]
                inner, _ = read_name(target)
                return ".".join(parts + [inner]).rstrip(".") or inner, pos + 2
            parts.append(data[pos + 1 : pos + 1 + n].decode("latin-1"))
            pos += 1 + n

    mid, flags, qd, an, ns, ar = struct.unpack_from("!HHHHHH", data, 0)
    pos = 12
    out = {"id": mid, "flags": flags, "questions": [], "records": []}
    for _ in range(qd):
        qname, pos = read_name(pos)
        qtype, qclass = struct.unpack_from("!HH", data, pos)
        pos += 4
        out["questions"].append((qname, qtype, qclass))
    for _ in range(an + ns + ar):
        owner, pos = read_name(pos)
        rtype, rclass, ttl, rdlen = struct.unpack_from("!HHIH", data, pos)
        pos += 10
        out["records"].append((owner, rtype, rclass, ttl, data[pos : pos + rdlen]))
        pos += rdlen
    return out


def test_encode_against_independent_decoder():
    msg = wire.DnsMessage(
        id=7,
        qr=True,
        aa=True,
        rcode=wire.RCODE_NOERROR,
        question=wire.Question(normalize("example.com"), RRType.NS),
        answer=(
            ResourceRecord(normalize("example.com"), RRType.NS, 300,
                           normalize("ns1.example.com")),
        ),
        additional=(
            ResourceRecord(normalize("ns1.example.com"), RRType.A, 300,
                           pack_address("192.0.2.1")),
            ResourceRecord(normalize("ns1.example.com"), RRType.AAAA, 300,
                           pack_address("2001:db8::1")),
        ),
        edns=wire.Edns(1232),
    )
    parsed = naive_decode(wire.encode(msg))
    assert parsed["id"] == 7
    assert parsed["questions"] == [("example.com", 2, 1)]
    owners = [(r[0], r[1]) for r in parsed["records"]]
    assert ("example.com", 2) in owners
    assert ("ns1.example.com", 1) in owners
    assert ("ns1.example.com", 28) in owners
    opt = [r for r in parsed["records"] if r[1] == 41]
    assert len(opt) == 1 and opt[0][2] == 1232  # payload size rides in class
    a_rdata = [r[4] for r in parsed["records"] if r[1] == 1][0]
    assert a_rdata == bytes([192, 0, 2, 1])


def test_decode_accepts_compression_pointers():
    # Hand-built: question example.com A + answer with owner as pointer to it.
    q = b"\x07example\x03com\x00"
    header = struct.pack("!HHHHHH", 1, 0x8000, 1, 1, 0, 0)
    question = q + struct.pack("!HH", 1, 1)
    answer = b"\xc0\x0c" + struct.pack("!HHIH", 1, 1, 60, 4) + bytes([1, 2, 3, 4])
    msg = wire.decode(header + question + answer)
    assert str(msg.question.qname) == "example.com"
    assert msg.answer[0].owner == normalize("example.com")
    assert msg.answer[0].address == "1.2.3.4"


def test_forward_pointer_rejected():
    header = struct.pack("!HHHHHH", 1, 0x8000, 1, 0, 0, 0)
    bad = header + b"\xc0\x20" + struct.pack("!HH", 1, 1)
    with pytest.raises(wire.WireFormatError):
        wire.decode(bad)


def test_tcp_framing_round_trip():
    payload = wire.encode(minimal_query("com", RRType.NS))
    framed = wire.frame_tcp(payload)
    assert framed[:2] == struct.pack("!H", len(payload))
    a, b = socket.socketpair()
    with a, b:
        # two writes: the reader must collect a frame that arrives in pieces
        a.sendall(framed[:5])
        a.sendall(framed[5:] + wire.frame_tcp(b"next"))
        assert wire.read_tcp_frame(b) == payload
        assert wire.read_tcp_frame(b) == b"next"


@pytest.mark.parametrize("cut", [0, 1, 7])
def test_tcp_frame_cut_short_raises_connection_error(cut):
    framed = wire.frame_tcp(wire.encode(minimal_query("com", RRType.NS)))
    a, b = socket.socketpair()
    with b:
        with a:
            a.sendall(framed[:cut])
        with pytest.raises(ConnectionError):
            wire.read_tcp_frame(b)


def test_tcp_peer_closing_mid_frame_is_unreachable():
    from v6ready.query import ServerAddress, TCP, TransportUnreachable, UdpTcpTransport

    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def serve():
        conn, _peer = listener.accept()
        with conn:
            wire.read_tcp_frame(conn)
            conn.sendall(b"\x00\x40" + b"short")

    worker = threading.Thread(target=serve)
    worker.start()
    try:
        with pytest.raises(TransportUnreachable):
            UdpTcpTransport().exchange(
                ServerAddress("127.0.0.1", port), TCP,
                wire.encode(minimal_query("com", RRType.NS)), 2.0)
    finally:
        worker.join(timeout=5)
        listener.close()
    assert not worker.is_alive()


def test_message_too_large():
    big = ResourceRecord(normalize("big.test"), RRType.TXT, 0,
                         tuple(b"x" * 255 for _ in range(300)))
    msg = wire.DnsMessage(question=wire.Question(normalize("big.test"), RRType.TXT),
                          answer=(big,))
    with pytest.raises(wire.MessageTooLarge):
        wire.encode(msg)


names = st.lists(
    st.binary(min_size=1, max_size=8), min_size=0, max_size=4
).map(DomainName)


def rr_strategy():
    a = st.builds(
        lambda o, ttl, raw: ResourceRecord(o, RRType.A, ttl, bytes(raw)),
        names, st.integers(0, 2**31), st.binary(min_size=4, max_size=4),
    )
    aaaa = st.builds(
        lambda o, ttl, raw: ResourceRecord(o, RRType.AAAA, ttl, bytes(raw)),
        names, st.integers(0, 2**31), st.binary(min_size=16, max_size=16),
    )
    ns = st.builds(
        lambda o, ttl, t: ResourceRecord(o, RRType.NS, ttl, t),
        names, st.integers(0, 2**31), names,
    )
    txt = st.builds(
        lambda o, ttl, chunks: ResourceRecord(o, RRType.TXT, ttl, tuple(chunks)),
        names, st.integers(0, 2**31),
        st.lists(st.binary(min_size=1, max_size=40), min_size=1, max_size=3),
    )
    soa = st.builds(
        lambda o, ttl, m, r, serial: ResourceRecord(
            o, RRType.SOA, ttl, SoaData(m, r, serial)),
        names, st.integers(0, 2**31), names, names, st.integers(0, 2**32 - 1),
    )
    mx = st.builds(
        lambda o, ttl, pref, ex: ResourceRecord(o, RRType.MX, ttl, MxData(pref, ex)),
        names, st.integers(0, 2**31), st.integers(0, 65535), names,
    )
    other = st.builds(
        lambda o, ttl, raw: ResourceRecord(o, RRType(0xFF31), ttl, bytes(raw)),
        names, st.integers(0, 2**31), st.binary(max_size=24),
    )
    return st.one_of(a, aaaa, ns, txt, soa, mx, other)


messages = st.builds(
    lambda mid, qr, aa, tc, rd, ra, rcode, qname, qtype, ans, auth, add, edns: wire.DnsMessage(
        id=mid, qr=qr, aa=aa, tc=tc, rd=rd, ra=ra, rcode=rcode,
        question=wire.Question(qname, qtype),
        answer=tuple(ans), authority=tuple(auth), additional=tuple(add),
        edns=wire.Edns(edns) if edns else None,
    ),
    st.integers(0, 0xFFFF),
    st.booleans(), st.booleans(), st.booleans(), st.booleans(), st.booleans(),
    st.integers(0, 15),
    names,
    st.sampled_from([RRType.A, RRType.AAAA, RRType.NS, RRType.SOA, RRType.TXT,
                     RRType.MX, RRType(0xFF31)]),
    st.lists(rr_strategy(), max_size=3),
    st.lists(rr_strategy(), max_size=2),
    st.lists(rr_strategy(), max_size=2),
    st.sampled_from([0, 512, 1232, 4096]),
)


@settings(max_examples=150, deadline=None)
@given(messages)
def test_encode_decode_round_trip(msg):
    assert wire.decode(wire.encode(msg)) == msg
