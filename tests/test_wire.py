import socket
import struct
import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from v6ready import wire
from v6ready.names import DomainName, normalize
from v6ready.records import (
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
    big = ResourceRecord(normalize("big.test"), RRType(0xFF31), 0, b"x" * 0x10000)
    msg = wire.DnsMessage(question=wire.Question(normalize("big.test"), RRType(0xFF31)),
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
    soa = st.builds(
        lambda o, ttl, m, r, serial: ResourceRecord(
            o, RRType.SOA, ttl, SoaData(m, r, serial)),
        names, st.integers(0, 2**31), names, names, st.integers(0, 2**32 - 1),
    )
    # types without a decoder of their own (MX and TXT among them) keep
    # their rdata as opaque bytes
    opaque = st.builds(
        lambda o, t, ttl, raw: ResourceRecord(o, t, ttl, bytes(raw)),
        names, st.sampled_from([RRType.MX, RRType.TXT, RRType(0xFF31)]),
        st.integers(0, 2**31), st.binary(max_size=24),
    )
    return st.one_of(a, aaaa, ns, soa, opaque)


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
    decoded = wire.decode(wire.encode(msg))
    assert decoded == msg
    # the named tuples equal plain tuples, so equality alone would not see
    # a decoded item built as the wrong type
    assert type(decoded) is wire.DnsMessage
    assert type(decoded.question) is wire.Question
    assert type(decoded.edns) is (wire.Edns if msg.edns else type(None))
    for section in (decoded.answer, decoded.authority, decoded.additional):
        assert type(section) is tuple
        assert all(type(rr) is ResourceRecord for rr in section)
    assert decoded._asdict() == msg._asdict()


# -- malformed rdata ---------------------------------------------------------


def one_answer(rr: bytes, trailer: bytes = b"") -> bytes:
    """A reply with no question and the one answer ``rr`` (owner: root)."""
    return struct.pack("!HHHHHH", 1, 0x8000, 0, 1, 0, 0) + b"\x00" + rr + trailer


def rr_bytes(rrtype: int, rdata: bytes, rdlen: int | None = None) -> bytes:
    size = len(rdata) if rdlen is None else rdlen
    return struct.pack("!HHIH", rrtype, 1, 60, size) + rdata


MALFORMED_RDATA = {
    "a-3-bytes": (one_answer(rr_bytes(1, b"\x01\x02\x03")), "A rdata is 3 bytes, not 4"),
    "aaaa-4-bytes": (one_answer(rr_bytes(28, b"\x01\x02\x03\x04")),
                     "AAAA rdata is 4 bytes, not 16"),
    "ns-rdlen-0-then-name": (one_answer(rr_bytes(2, b""), b"\x03net\x00"),
                             "name runs past rdata"),
    "cname-name-over-rdlen": (one_answer(rr_bytes(5, b"\x03n", 2), b"et\x00"),
                              "name runs past rdata"),
    "soa-rname-after-rdata": (one_answer(rr_bytes(6, b"\x00", 1), b"\x00" + bytes(20)),
                              "name runs past rdata"),
}


@pytest.mark.parametrize("raw, message", MALFORMED_RDATA.values(), ids=MALFORMED_RDATA)
def test_malformed_rdata_raises_wire_format_error(raw, message):
    with pytest.raises(wire.WireFormatError, match=message):
        wire.decode(raw)


def test_rdata_name_may_point_outside_its_rdata():
    # NS rdata is a single pointer back to the owner: two bytes, inside rdlen
    owner = b"\x07example\x03com\x00"
    raw = (struct.pack("!HHHHHH", 1, 0x8000, 0, 1, 0, 0) + owner
           + rr_bytes(2, b"\x02ns\xc0\x0c"))
    assert wire.decode(raw).answer[0].target == normalize("ns.example.com")


def mangle(draw, raw: bytes) -> bytes:
    """``raw`` with some bytes overwritten and maybe cut short."""
    raw = bytearray(raw)
    for _ in range(draw(st.integers(0, 4))):
        raw[draw(st.integers(0, len(raw) - 1))] = draw(st.integers(0, 255))
    return bytes(raw[: draw(st.integers(0, len(raw)))])


@st.composite
def mangled_messages(draw):
    """An encoded message with some bytes overwritten and maybe cut short."""
    return mangle(draw, wire.encode(draw(messages)))


@st.composite
def header_and_noise(draw):
    """A header with small section counts over arbitrary bytes."""
    counts = [draw(st.integers(0, 3)) for _ in range(4)]
    header = struct.pack("!HHHHHH", 1, draw(st.integers(0, 0xFFFF)), *counts)
    return header + draw(st.binary(max_size=120))


@st.composite
def one_odd_record(draw):
    """One answer of a known type whose rdlen and rdata are arbitrary."""
    rrtype = draw(st.sampled_from([1, 2, 5, 6, 15, 16, 28, 41, 0xFF31]))
    rdata = draw(st.binary(max_size=24))
    rdlen = draw(st.one_of(st.just(len(rdata)), st.integers(0, 30)))
    return one_answer(rr_bytes(rrtype, rdata, rdlen), draw(st.binary(max_size=8)))


def shape(value):
    """The types of ``value`` and of everything in it, which equality of
    named tuples and plain tuples does not see."""
    if isinstance(value, tuple):
        return (type(value), tuple(shape(item) for item in value))
    return type(value)


def decoded(raw, table=None):
    """The message of ``raw`` with its shape, or "error"."""
    try:
        msg = wire.decode(raw, table)
    except wire.WireFormatError:
        return "error"
    return msg, shape(msg)


# one intern table for every example, as a run's cache keeps one across replies
SHARED: dict = {}
any_bytes = st.one_of(st.binary(max_size=200), mangled_messages(), header_and_noise(),
                     one_odd_record())


@settings(max_examples=600, deadline=None)
@given(any_bytes)
def test_decode_raises_only_wire_format_error(raw):
    # and reads the same through the shared intern table
    assert decoded(raw, SHARED) == decoded(raw)


# -- OPT placement (RFC 6891 §6.1.1) -----------------------------------------


OPT = b"\x00" + struct.pack("!HHIH", 41, 4096, 0, 0)
ROOT_A = b"\x00" + rr_bytes(1, b"\x01\x02\x03\x04")


def reply_with(an: bytes, ns: bytes, ar: bytes, counts) -> bytes:
    return struct.pack("!HHHHHH", 1, 0x8000, 0, *counts) + an + ns + ar


@pytest.mark.parametrize("raw, message", [
    (reply_with(OPT, b"", b"", (1, 0, 0)), "OPT record outside the additional section"),
    (reply_with(b"", OPT, b"", (0, 1, 0)), "OPT record outside the additional section"),
], ids=["in-answer", "in-authority"])
def test_an_opt_outside_the_additional_section_is_malformed(raw, message):
    with pytest.raises(wire.WireFormatError, match=message):
        wire.decode(raw)


def test_a_second_opt_is_malformed():
    raw = reply_with(b"", b"", OPT + ROOT_A + OPT, (0, 0, 3))
    with pytest.raises(wire.WireFormatError, match="second OPT record"):
        wire.decode(raw)
    assert wire.decode(reply_with(b"", b"", OPT + ROOT_A, (0, 0, 2))).edns == (4096,)


def test_an_opt_owned_by_a_name_other_than_the_root_is_malformed():
    raw = reply_with(b"", b"", b"\x03abc" + OPT, (0, 0, 1))
    with pytest.raises(wire.WireFormatError, match="OPT owner is not the root"):
        wire.decode(raw)


# -- the intern table ----------------------------------------------------------


@st.composite
def table_and_raw(draw):
    """Encoded messages to fill a table, and bytes to decode with it: one
    of them as encoded, mangled or cut short, or any bytes at all."""
    fill = [wire.encode(m) for m in draw(st.lists(messages, min_size=1, max_size=3))]
    raw = draw(st.sampled_from(fill))
    kind = draw(st.sampled_from(["as-encoded", "mangled", "any"]))
    if kind == "mangled":
        raw = mangle(draw, raw)
    elif kind == "any":
        raw = draw(any_bytes)
    return fill, raw


@settings(max_examples=300, deadline=None)
@given(table_and_raw())
def test_a_filled_table_decodes_as_no_table(case):
    fill, raw = case
    table: dict = {}
    for other in fill:
        assert decoded(other, table) == decoded(other)
    assert decoded(raw, table) == decoded(raw)
    assert all(type(v) in (DomainName, ResourceRecord) and k is v for k, v in table.items())


def ns_reply(qname: bytes, record: bytes) -> bytes:
    return (struct.pack("!HHHHHH", 1, 0x8000, 1, 1, 0, 0) + qname + struct.pack("!HH", 2, 1)
            + record)


def test_one_record_whose_rdata_points_back_reads_per_message():
    # the same NS record bytes, whose target ends in a pointer to the question
    record = b"\x00" + rr_bytes(2, b"\x02ns\xc0\x0c")
    table: dict = {}
    com = wire.decode(ns_reply(b"\x07example\x03com\x00", record), table)
    org = wire.decode(ns_reply(b"\x07example\x03org\x00", record), table)
    assert com.answer[0].target == normalize("ns.example.com")
    assert org.answer[0].target == normalize("ns.example.org")
    again = wire.decode(ns_reply(b"\x07example\x03com\x00", record), table)
    assert again.answer[0] is com.answer[0] is table[com.answer[0]]
    assert all(key is value for key, value in table.items())


def test_a_mixed_case_owner_reads_lowercased_and_shares_the_lowercase_name():
    raw = ns_reply(b"\x03foo\x00", b"\x03FoO\x00" + rr_bytes(2, b"\x03BAR\x00"))
    table: dict = {}
    msg = wire.decode(raw, table)
    assert msg.answer[0].owner == normalize("foo")
    assert msg.answer[0].owner is msg.question.qname
    assert msg.answer[0].target is table[normalize("bar")]
    assert wire.decode(raw, table) == wire.decode(raw)


def test_rdata_past_the_end_raises_after_the_owner_is_found():
    table: dict = {}
    wire.decode(ns_reply(b"\x03foo\x00", b"\x03foo\x00" + rr_bytes(2, b"\x03bar\x00")),
                table)
    assert normalize("foo") in table
    short = ns_reply(b"\x03foo\x00", b"\x03foo\x00" + rr_bytes(2, b"\x03bar", 5))
    with pytest.raises(wire.WireFormatError, match="rdata runs past message end"):
        wire.decode(short, table)


def test_replies_share_their_names_and_records_in_any_form():
    msg = wire.DnsMessage(
        qr=True, question=wire.Question(normalize("example.com"), RRType.NS),
        answer=(ResourceRecord(normalize("example.com"), RRType.NS, 60,
                               normalize("ns.example.com")),),
        additional=(ResourceRecord(normalize("ns.example.com"), RRType.A, 60,
                                   pack_address("192.0.2.1")),),
        edns=wire.Edns())
    # the same reply as a server that compresses writes it (RFC 1035 §4.1.4):
    # the NS owner points at the question, its target ends in a pointer to
    # it, and the glue owner points at the target, at offset 41
    compressed = (
        struct.pack("!HHHHHH", 3, 0x8000, 1, 1, 0, 2)
        + b"\x07ExAmple\x03com\x00" + struct.pack("!HH", 2, 1)
        + b"\xc0\x0c" + rr_bytes(2, b"\x02ns\xc0\x0c")
        + b"\xc0\x29" + rr_bytes(1, pack_address("192.0.2.1"))
        + b"\x00" + struct.pack("!HHIH", 41, 1232, 0, 0))
    table: dict = {}
    one = wire.decode(wire.encode(msg), table)
    two = wire.decode(wire.encode(msg._replace(id=2)), table)
    three = wire.decode(compressed, table)
    assert one == two._replace(id=0) == three._replace(id=0) == msg
    for other in (two, three):
        assert other.answer[0] is one.answer[0] and other.additional[0] is one.additional[0]
        assert other.question.qname is one.question.qname
    assert one.question.qname is one.answer[0].owner
    assert one.answer[0].target is one.additional[0].owner


# -- the one-pass name decoder against the per-label reference ---------------


def reference_decode_name(data, offset):
    """The per-label walk: labels as read, checked by ``DomainName(labels)``."""
    labels = []
    jumps = 0
    end = None
    pos = offset
    while True:
        if pos >= len(data):
            raise wire.WireFormatError("truncated name")
        length = data[pos]
        if length == 0:
            pos += 1
            if end is None:
                end = pos
            break
        if length & 0xC0 == 0xC0:
            if pos + 1 >= len(data):
                raise wire.WireFormatError("truncated compression pointer")
            target = ((length & 0x3F) << 8) | data[pos + 1]
            if end is None:
                end = pos + 2
            if target >= pos:
                raise wire.WireFormatError("forward compression pointer")
            jumps += 1
            if jumps > 64:
                raise wire.WireFormatError("compression pointer loop")
            pos = target
            continue
        if length & 0xC0:
            raise wire.WireFormatError(f"bad label length byte {length:#x}")
        if pos + 1 + length > len(data):
            raise wire.WireFormatError("label runs past message end")
        labels.append(data[pos + 1 : pos + 1 + length])
        pos += 1 + length
        if len(labels) > 128:
            raise wire.WireFormatError("too many labels")
    try:
        return DomainName(labels), end
    except ValueError as exc:
        raise wire.WireFormatError(str(exc)) from exc


def decode_outcome(fn, data, offset):
    try:
        name, end = fn(data, offset)
    except Exception as exc:  # the class and message are what is compared
        return ("error", type(exc), str(exc))
    assert type(name.labels) is tuple and all(type(l) is bytes for l in name.labels)
    return ("ok", name.labels, end, hash(name))


mixed_case_labels = st.one_of(
    st.text(alphabet="aAbBxXzZ09-_", min_size=1, max_size=63).map(str.encode),
    st.binary(min_size=1, max_size=63),
)


@st.composite
def near_wire_limit_labels(draw):
    """Labels of 1 to 63 octets whose wire length is 250 to 260."""
    count = draw(st.integers(min_value=5, max_value=12))
    total = draw(st.sampled_from([254, 255, 256, 250, 260])) - 1 - count
    sizes = [total // count + (i < total % count) for i in range(count)]
    return [draw(st.text(alphabet="aAzZ-0", min_size=k, max_size=k)).encode() for k in sizes]


@st.composite
def many_short_labels(draw):
    """Around the 128-label bound."""
    count = draw(st.integers(min_value=120, max_value=132))
    return [draw(st.sampled_from([b"a", b"B", b"c9"]))] * count


@st.composite
def wire_names(draw):
    """(message bytes, offset of a name): the labels split into pieces,
    each later piece reached from the one before through a pointer, and
    the bytes perhaps cut short or with one byte overwritten."""
    labels = draw(st.one_of(st.lists(mixed_case_labels, max_size=6),
                            near_wire_limit_labels(), many_short_labels()))
    cuts = sorted(draw(st.lists(st.integers(0, len(labels)), max_size=3)))
    pieces = [labels[a:b] for a, b in zip([0] + cuts, cuts + [len(labels)])]
    data = bytearray(draw(st.binary(min_size=0, max_size=12)))
    target = None
    for piece in reversed(pieces):
        start = len(data)
        for label in piece:
            data += bytes([len(label)]) + label
        data += b"\x00" if target is None else struct.pack("!H", 0xC000 | target)
        target = start
    if draw(st.booleans()):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    if draw(st.integers(0, 4)) == 0:
        data = data[: draw(st.integers(0, len(data)))]
    return bytes(data), target


@settings(max_examples=500, deadline=None)
@given(wire_names())
def test_name_decoder_matches_per_label_reference(case):
    data, offset = case
    want = decode_outcome(reference_decode_name, data, offset)
    assert decode_outcome(wire._decode_name, data, offset) == want
    table: dict = {}
    for _ in range(2):  # with a table, the second call may find the name in it
        assert decode_outcome(lambda d, o: wire._decode_name(d, o, table), data, offset) == want


# -- RRType ------------------------------------------------------------------


def test_decode_gives_the_shared_rrtype_constants():
    msg = wire.DnsMessage(
        qr=True,
        question=wire.Question(normalize("example.com"), RRType.NS),
        answer=(ResourceRecord(normalize("example.com"), RRType.NS, 60,
                               normalize("ns.example.com")),),
        additional=(ResourceRecord(normalize("ns.example.com"), RRType.AAAA, 60,
                                   pack_address("2001:db8::1")),),
    )
    got = wire.decode(wire.encode(msg))
    assert got.question.qtype is RRType.NS
    assert got.answer[0].rrtype is RRType.NS
    assert got.additional[0].rrtype is RRType.AAAA


def test_rrtype_is_a_one_field_value():
    assert RRType(2).value == int(RRType(2)) == 2
    assert RRType(2) == RRType.NS and hash(RRType(2)) == hash(RRType.NS)
    assert RRType(2) is not RRType.NS
    assert RRType(28) != RRType.NS


known_types = {"A": 1, "NS": 2, "CNAME": 5, "SOA": 6, "MX": 15, "TXT": 16,
               "AAAA": 28, "OPT": 41}


@settings(max_examples=200)
@given(st.integers(min_value=-3, max_value=0x10002))
def test_rrtype_is_its_value_and_prints_its_name(value):
    if not 0 <= value <= 0xFFFF:
        with pytest.raises(ValueError, match="16-bit"):
            RRType(value)
        return
    t = RRType(value)
    name = {v: k for k, v in known_types.items()}.get(value, f"TYPE{value}")
    assert t == value and hash(t) == hash(value) and t.value == value
    assert str(t) == f"{t}" == name
    assert repr(t) == f"RRType(value={value})"
    assert RRType.from_text(f"TYPE{value}") == t
    if value in known_types.values():
        assert RRType.from_text(name) is RRType.from_text(f"type{value}") \
            is getattr(RRType, name)


@example((RRType.A, 4), b"\x01" * 3)
@example((RRType.AAAA, 16), b"\x01" * 15)
@given(st.sampled_from([(RRType.A, 4), (RRType.AAAA, 16)]), st.binary(max_size=20))
def test_address_records_check_their_payload_length(kind, payload):
    rrtype, size = kind
    if len(payload) == size:
        rr = ResourceRecord(normalize("ns.test"), rrtype, 60, payload)
        assert rr == (normalize("ns.test"), rrtype, 60, payload)
    else:
        with pytest.raises(ValueError, match="payload must be exactly"):
            ResourceRecord(normalize("ns.test"), rrtype, 60, payload)


def test_messages_are_tuples_of_their_fields():
    q = wire.Question(normalize("example.com"), RRType.NS)
    assert q == (normalize("example.com"), 2, 1)
    assert wire.Edns(1232) == (1232,) and wire.Edns() == wire.Edns(1232)
    msg = wire.DnsMessage(id=9, rd=True, question=q, edns=wire.Edns())
    assert msg[0] == 9 and msg.question is q and len(msg) == 13


def test_reply_skeleton_takes_any_field_as_an_override():
    q = wire.Question(normalize("example.com"), RRType.A)
    msg = wire.DnsMessage(id=7, rd=True, opcode=2, question=q, edns=wire.Edns())
    reply = msg.reply_skeleton(aa=True)
    assert (reply.id, reply.qr, reply.opcode, reply.rd, reply.aa) == (7, True, 2, True, True)
    assert reply.question is q and reply.edns is None and reply.answer == ()
    other = wire.Question(normalize("example.net"), RRType.NS)
    assert msg.reply_skeleton(question=other).question is other
    assert msg.reply_skeleton(question=None, rd=False, rcode=wire.RCODE_FORMERR) \
        == wire.DnsMessage(id=7, qr=True, opcode=2, rcode=wire.RCODE_FORMERR)


def test_unknown_rrtype_round_trips():
    odd = RRType(0xFF31)
    rr = ResourceRecord(normalize("x.test"), odd, 60, b"\x01\x02")
    msg = wire.DnsMessage(question=wire.Question(normalize("x.test"), odd), answer=(rr,))
    got = wire.decode(wire.encode(msg))
    assert got == msg and got.answer[0].rrtype == odd
    assert str(odd) == str(got.answer[0].rrtype) == "TYPE65329"


def test_threads_filling_one_table_share_every_object():
    # four threads decode the same replies into one fresh table at once,
    # switching as often as the interpreter allows: a name or record that
    # two of them file at the same time must still come out as one object
    long = ".a.b.c.d.e.f.g.h.example"  # a longer walk widens the race
    replies = [wire.encode(wire.DnsMessage(
        qr=True, question=wire.Question(normalize(f"z{i}{long}"), RRType.NS),
        authority=tuple(ResourceRecord(normalize(f"z{i}{long}"), RRType.NS, 60,
                                       normalize(f"ns{k}.z{i}{long}")) for k in range(3)),
        additional=tuple(ResourceRecord(normalize(f"ns{k}.z{i}{long}"), RRType.A, 60,
                                        bytes([192, 0, 2, k])) for k in range(3)),
    )) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(60):
            table: dict = {}
            decoded: list = []
            threads = [threading.Thread(target=lambda: decoded.extend(
                wire.decode(raw, table) for raw in replies)) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10)
            assert not any(t.is_alive() for t in threads) and len(decoded) == 16
            seen: dict = {}
            for msg in decoded:
                for item in (msg.question.qname, *msg.authority, *msg.additional,
                             *(rr.owner for rr in msg.additional),
                             *(rr.target for rr in msg.authority)):
                    assert seen.setdefault(item, item) is item
    finally:
        sys.setswitchinterval(interval)
