"""RFC 1035 message encoding/decoding with EDNS(0) and TCP framing.

Encoding never emits name compression; decoding accepts it. The OPT
pseudo-record is lifted out of the additional section into ``edns``; an
OPT in another section, a second OPT or one not owned by the root is
malformed (RFC 6891 §6.1.1).

The decode contract: ``decode`` raises ``WireFormatError`` and nothing else
on any input bytes. Each name is read in one pass, which lowercases its
labels and checks the message bounds, compression pointers, label count
and 255-octet wire length, so the ``DomainName`` is built without being
checked again. A name inside rdata must end within that rdata, and A and
AAAA rdata must be 4 and 16 bytes. Known record types decode to the
shared ``RRType`` constants.

``Edns``, ``Question`` and ``DnsMessage`` are named tuples, and equal plain
tuples with the same items.

``decode`` may be given an intern table, a dict its caller owns. Each
name and record the decoder builds is looked up in it by value and, if
an equal one is there, replaced by that object, so every message decoded
through one table shares one object per distinct name and record,
whatever form its bytes took: compressed or not, in any letter case.
Names and records can share one table, as no name equals a record (a
record's first item is a name, a name's items are bytes). An OPT record
is never filed.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from .names import MAX_LABEL, MAX_WIRE, DomainName, _checked_name
from .records import (
    _BY_VALUE,
    CLASS_IN,
    ResourceRecord,
    RRType,
    SoaData,
)

MAX_MESSAGE = 0xFFFF  # TCP length prefix bound

RCODE_NOERROR = 0
RCODE_FORMERR = 1
RCODE_SERVFAIL = 2
RCODE_NXDOMAIN = 3
RCODE_NOTIMP = 4
RCODE_REFUSED = 5

OPCODE_QUERY = 0


class WireFormatError(ValueError):
    """Message bytes that cannot be decoded."""


class MessageTooLarge(ValueError):
    """Encoded message would exceed the 64 KiB TCP bound."""


class Edns(NamedTuple):
    udp_payload_size: int = 1232


class Question(NamedTuple):
    qname: DomainName
    qtype: RRType
    qclass: int = CLASS_IN


class DnsMessage(NamedTuple):
    id: int = 0
    qr: bool = False
    opcode: int = OPCODE_QUERY
    aa: bool = False
    tc: bool = False
    rd: bool = False
    ra: bool = False
    rcode: int = RCODE_NOERROR
    question: Question | None = None
    answer: tuple[ResourceRecord, ...] = ()
    authority: tuple[ResourceRecord, ...] = ()
    additional: tuple[ResourceRecord, ...] = ()
    edns: Edns | None = None

    def reply_skeleton(self, **overrides) -> "DnsMessage":
        """A response shell echoing id/question; sections start empty."""
        return DnsMessage(**{
            "id": self.id, "qr": True, "opcode": self.opcode, "rd": self.rd,
            "question": self.question, **overrides,
        })


_LENGTH_BYTE = [bytes((n,)) for n in range(MAX_LABEL + 1)]

# Decoding builds its named tuples with this, their items in field order:
# it skips the keyword handling of ``DnsMessage`` and the checks of
# ``ResourceRecord``, which the decoder has already made.
_new = tuple.__new__


def encode_name(name: DomainName) -> bytes:
    out = b"\x00"
    for label in name:  # root side first, so each label goes in front
        out = _LENGTH_BYTE[len(label)] + label + out
    return out


def _encode_rdata(rr: ResourceRecord) -> bytes:
    t = rr.rrtype
    if t in (RRType.NS, RRType.CNAME):
        return encode_name(rr.data)  # type: ignore[arg-type]
    if t in (RRType.A, RRType.AAAA):
        return rr.data  # type: ignore[return-value]
    if t == RRType.SOA:
        soa: SoaData = rr.data  # type: ignore[assignment]
        return (
            encode_name(soa.mname)
            + encode_name(soa.rname)
            + struct.pack("!IIIII", soa.serial, soa.refresh, soa.retry,
                          soa.expire, soa.minimum)
        )
    if isinstance(rr.data, bytes):
        return rr.data
    raise WireFormatError(f"cannot encode rdata for {t}")


def _encode_rr(rr: ResourceRecord) -> bytes:
    rdata = _encode_rdata(rr)
    if len(rdata) > 0xFFFF:
        raise MessageTooLarge(f"rdata of {rr.owner} is {len(rdata)} bytes")
    return (
        encode_name(rr.owner)
        + struct.pack("!HHIH", rr.rrtype, CLASS_IN, rr.ttl, len(rdata))
        + rdata
    )


def encode_records(*sections: tuple[ResourceRecord, ...]) -> bytes:
    """The wire form of the records of ``sections``, in order."""
    return b"".join([_encode_rr(rr) for section in sections for rr in section])


def encode(msg: DnsMessage, records: bytes | None = None) -> bytes:
    """Wire bytes for ``msg``; appends an OPT record iff ``edns`` is set.

    ``records``, if given, must be ``encode_records(msg.answer,
    msg.authority, msg.additional)``, encoded before: a server that sends
    the same sections again lays them out from those bytes.
    """
    flags = (
        (int(msg.qr) << 15)
        | ((msg.opcode & 0xF) << 11)
        | (int(msg.aa) << 10)
        | (int(msg.tc) << 9)
        | (int(msg.rd) << 8)
        | (int(msg.ra) << 7)
        | (msg.rcode & 0xF)
    )
    arcount = len(msg.additional) + (1 if msg.edns else 0)
    out = bytearray(
        struct.pack(
            "!HHHHHH",
            msg.id & 0xFFFF,
            flags,
            1 if msg.question else 0,
            len(msg.answer),
            len(msg.authority),
            arcount,
        )
    )
    if msg.question:
        out += encode_name(msg.question.qname)
        out += struct.pack("!HH", msg.question.qtype, msg.question.qclass)
    if records is None:
        records = encode_records(msg.answer, msg.authority, msg.additional)
    out += records
    if msg.edns:
        out += b"\x00" + struct.pack(
            "!HHIH", RRType.OPT, msg.edns.udp_payload_size, 0, 0
        )
    if len(out) > MAX_MESSAGE:
        raise MessageTooLarge(f"{len(out)} bytes exceeds {MAX_MESSAGE}")
    return bytes(out)


def _decode_name(data: bytes, offset: int, table: dict | None = None
                 ) -> tuple[DomainName, int]:
    """The name at ``offset`` and the offset just past it in ``data``.

    One walk: each label slice is lowercased as it is read and the wire
    length is summed, so the name is built without a second check.
    """
    labels: list[bytes] = []
    wire_len = 1
    jumps = 0
    end = None  # offset after the name in the original stream
    pos = offset
    size = len(data)
    while True:
        if pos >= size:
            raise WireFormatError("truncated name")
        length = data[pos]
        if 0 < length <= MAX_LABEL:
            stop = pos + 1 + length
            if stop > size:
                raise WireFormatError("label runs past message end")
            labels.append(data[pos + 1 : stop].lower())
            wire_len += 1 + length
            pos = stop
            # 129 labels take at least 259 octets, so only a long name
            # needs counting
            if wire_len > MAX_WIRE and len(labels) > 128:
                raise WireFormatError("too many labels")
            continue
        if length == 0:
            if end is None:
                end = pos + 1
            break
        if length & 0xC0 != 0xC0:
            raise WireFormatError(f"bad label length byte {length:#x}")
        if pos + 1 >= size:
            raise WireFormatError("truncated compression pointer")
        target = ((length & 0x3F) << 8) | data[pos + 1]
        if end is None:
            end = pos + 2
        if target >= pos:
            raise WireFormatError("forward compression pointer")
        jumps += 1
        if jumps > 64:
            raise WireFormatError("compression pointer loop")
        pos = target
    if wire_len > MAX_WIRE:
        raise WireFormatError(f"name wire length {wire_len} exceeds {MAX_WIRE}")
    name = _checked_name(labels)
    if table is not None:
        name = table.setdefault(name, name)
    return name, end


def _decode_rdata_name(data: bytes, offset: int, rdend: int,
                       table: dict | None) -> tuple[DomainName, int]:
    """A name inside rdata; its bytes must end within the rdata."""
    name, end = _decode_name(data, offset, table)
    if end > rdend:
        raise WireFormatError("name runs past rdata")
    return name, end


def _decode_rdata(data: bytes, rdstart: int, rdlen: int, rrtype: RRType,
                  table: dict | None) -> object:
    # a known type arrives as its shared constant, so identity tells types apart
    rdend = rdstart + rdlen
    if rrtype is RRType.NS or rrtype is RRType.CNAME:
        return _decode_rdata_name(data, rdstart, rdend, table)[0]
    if rrtype is RRType.A or rrtype is RRType.AAAA:
        size = 4 if rrtype is RRType.A else 16
        if rdlen != size:
            raise WireFormatError(f"{rrtype} rdata is {rdlen} bytes, not {size}")
        return data[rdstart:rdend]
    if rrtype is RRType.SOA:
        mname, off = _decode_rdata_name(data, rdstart, rdend, table)
        rname, off = _decode_rdata_name(data, off, rdend, table)
        if off + 20 > rdend:
            raise WireFormatError("short SOA rdata")
        serial, refresh, retry, expire, minimum = struct.unpack_from("!IIIII", data, off)
        return SoaData(mname, rname, serial, refresh, retry, expire, minimum)
    return data[rdstart:rdend]


def _decode_rr(data: bytes, offset: int, table: dict | None
               ) -> tuple[ResourceRecord | Edns, int]:
    """The record at ``offset``, or the ``Edns`` of an OPT record, and the
    offset just past it."""
    owner, off = _decode_name(data, offset, table)
    if off + 10 > len(data):
        raise WireFormatError("truncated RR header")
    tval, rrclass, ttl, rdlen = struct.unpack_from("!HHIH", data, off)
    off += 10
    end = off + rdlen
    if end > len(data):
        raise WireFormatError("rdata runs past message end")
    rrtype = _BY_VALUE.get(tval) or RRType(tval)
    if rrtype is RRType.OPT:
        if owner:
            raise WireFormatError("OPT owner is not the root")
        # class carries the advertised UDP payload size
        return _new(Edns, (rrclass,)), end
    payload = _decode_rdata(data, off, rdlen, rrtype, table)
    # positional: _decode_rdata has checked the A and AAAA lengths
    rr = _new(ResourceRecord, (owner, rrtype, ttl, payload))
    if table is not None:
        rr = table.setdefault(rr, rr)
    return rr, end


def decode(data: bytes, table: dict | None = None) -> DnsMessage:
    """The message of ``data``; ``table``, if given, is an intern table
    (see the module docstring)."""
    if len(data) < 12:
        raise WireFormatError("message shorter than header")
    mid, flags, qd, an, ns, ar = struct.unpack_from("!HHHHHH", data, 0)
    offset = 12
    question = None
    if qd > 1:
        raise WireFormatError(f"unsupported qdcount {qd}")
    if qd == 1:
        qname, offset = _decode_name(data, offset, table)
        if offset + 4 > len(data):
            raise WireFormatError("truncated question")
        qtype, qclass = struct.unpack_from("!HH", data, offset)
        offset += 4
        question = _new(Question, (qname, _BY_VALUE.get(qtype) or RRType(qtype), qclass))
    sections: list[list[ResourceRecord]] = [[], [], []]
    edns = None
    for sect, count in zip(sections, (an, ns, ar)):
        for _ in range(count):
            rr, offset = _decode_rr(data, offset, table)
            if type(rr) is Edns:
                # RFC 6891 §6.1.1: at most one OPT, in the additional section
                if sect is not sections[2]:
                    raise WireFormatError("OPT record outside the additional section")
                if edns is not None:
                    raise WireFormatError("second OPT record")
                edns = rr
            else:
                sect.append(rr)
    return _new(DnsMessage, (
        mid,
        bool(flags & 0x8000),  # qr
        (flags >> 11) & 0xF,  # opcode
        bool(flags & 0x0400),  # aa
        bool(flags & 0x0200),  # tc
        bool(flags & 0x0100),  # rd
        bool(flags & 0x0080),  # ra
        flags & 0xF,  # rcode
        question,
        tuple(sections[0]),
        tuple(sections[1]),
        tuple(sections[2]),
        edns,
    ))


def decode_after_id(data: bytes, slot: tuple, table: dict | None = None
                    ) -> tuple[DnsMessage, tuple]:
    """``decode(data, table)``, and the one-slot memo to store for the next call,
    in one assignment: ``slot`` is ``(None, None)`` or what the last call
    returned. When ``data`` repeats the bytes after the ID of the slot's
    message, that message, which is immutable, is shared under the ID of
    ``data``."""
    body = data[2:]
    if body == slot[0]:
        return _new(DnsMessage, (int.from_bytes(data[:2], "big"), *slot[1][1:])), slot
    msg = decode(data, table)
    return msg, (body, msg)


def frame_tcp(payload: bytes) -> bytes:
    """Prefix ``payload`` with the 2-byte length used on DNS-over-TCP."""
    if len(payload) > MAX_MESSAGE:
        raise MessageTooLarge(f"{len(payload)} bytes exceeds {MAX_MESSAGE}")
    return struct.pack("!H", len(payload)) + payload


def read_tcp_frame(sock) -> bytes:
    """Read one length-prefixed DNS message from a stream socket.

    Raises ConnectionError when the peer closes before the frame is whole.
    """
    head = _recv_exact(sock, 2)
    return _recv_exact(sock, struct.unpack("!H", head)[0])


def _recv_exact(sock, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        buf += chunk
    return bytes(buf)
