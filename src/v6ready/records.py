"""Typed resource records, and the record sets of zones with the address
table they share."""

from __future__ import annotations

import socket
from collections import namedtuple
from dataclasses import dataclass
from typing import AbstractSet, ClassVar, Iterable, Mapping

from .names import DomainName

V4 = "v4"
V6 = "v6"

CLASS_IN = 1


class RRType(int):
    """A 16-bit RR type: an int, so it equals and hashes as its value
    (``RRType.A == 1``). Unknown types round-trip through their value.

    The known types are shared class-level constants, which ``from_text``
    and ``wire.decode`` hand out. ``str`` gives the type's name.
    """

    __slots__ = ()

    NS: ClassVar[RRType]
    A: ClassVar[RRType]
    AAAA: ClassVar[RRType]
    SOA: ClassVar[RRType]
    TXT: ClassVar[RRType]
    MX: ClassVar[RRType]
    CNAME: ClassVar[RRType]
    OPT: ClassVar[RRType]

    def __new__(cls, value: int):
        if not 0 <= value <= 0xFFFF:
            raise ValueError(f"rrtype out of 16-bit range: {value}")
        return int.__new__(cls, value)

    @property
    def value(self) -> int:
        return int(self)

    def __repr__(self) -> str:
        return f"RRType(value={int(self)})"

    def __str__(self) -> str:
        return _TYPE_NAMES.get(self) or f"TYPE{int(self)}"

    @classmethod
    def from_text(cls, text: str) -> "RRType":
        """The named type, or ``TYPEn`` with ``n`` in ASCII digits and at
        most 65535; a known type is its shared constant."""
        t = text.strip().upper()
        if t in _TYPE_VALUES:
            return _BY_VALUE[_TYPE_VALUES[t]]
        value = ascii_int(t[4:]) if t.startswith("TYPE") else None
        if value is not None and value <= 0xFFFF:
            return _BY_VALUE.get(value) or cls(value)
        raise ValueError(f"unknown rrtype {text!r}")


_TYPE_VALUES = {
    "A": 1, "NS": 2, "CNAME": 5, "SOA": 6, "MX": 15, "TXT": 16,
    "AAAA": 28, "OPT": 41,
}
_TYPE_NAMES = {v: k for k, v in _TYPE_VALUES.items()}

RRType.A = RRType(1)
RRType.NS = RRType(2)
RRType.CNAME = RRType(5)
RRType.SOA = RRType(6)
RRType.MX = RRType(15)
RRType.TXT = RRType(16)
RRType.AAAA = RRType(28)
RRType.OPT = RRType(41)
_BY_VALUE = {int(t): t for t in (RRType.A, RRType.NS, RRType.CNAME, RRType.SOA,
                                  RRType.MX, RRType.TXT, RRType.AAAA, RRType.OPT)}


@dataclass(frozen=True)
class SoaData:
    mname: DomainName
    rname: DomainName
    serial: int
    refresh: int = 3600
    retry: int = 600
    expire: int = 86400
    minimum: int = 300


def ascii_int(text: str) -> int | None:
    """``text`` as a number if it is ASCII digits only, else None: ``int``
    also takes "+1", "1_0", " 2 " and other scripts' digits ("²" passes
    ``isdigit`` and fails ``int``), and refuses more digits than its
    conversion limit (4,300 by default)."""
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    return None


def pack_address(text: str) -> bytes:
    """Presentation address to packed bytes; 4 for IPv4, 16 for IPv6."""
    if ":" in text:
        return socket.inet_pton(socket.AF_INET6, text)
    return socket.inet_pton(socket.AF_INET, text)


def unpack_address(raw: bytes) -> str:
    if len(raw) == 4:
        return socket.inet_ntop(socket.AF_INET, raw)
    if len(raw) == 16:
        return socket.inet_ntop(socket.AF_INET6, raw)
    raise ValueError(f"address payload must be 4 or 16 bytes, got {len(raw)}")


def address_protocol(text: str) -> str:
    return V6 if ":" in text else V4


def canonical_address(text: str) -> str:
    """The presentation form a wire round-trip would produce."""
    return unpack_address(pack_address(text))


class ResourceRecord(namedtuple("ResourceRecord", "owner rrtype ttl data")):
    """One typed RR: a tuple (owner, rrtype, ttl, data), equal to a plain
    tuple with the same items."""

    __slots__ = ()

    def __new__(cls, owner: DomainName, rrtype: RRType, ttl: int, data: object):
        if rrtype == RRType.A:
            if not (isinstance(data, bytes) and len(data) == 4):
                raise ValueError("A payload must be exactly 4 bytes")
        elif rrtype == RRType.AAAA:
            if not (isinstance(data, bytes) and len(data) == 16):
                raise ValueError("AAAA payload must be exactly 16 bytes")
        return tuple.__new__(cls, (owner, rrtype, ttl, data))

    @property
    def address(self) -> str:
        if self.rrtype not in (RRType.A, RRType.AAAA):
            raise ValueError("address only defined for A/AAAA records")
        return unpack_address(self.data)  # type: ignore[arg-type]

    @property
    def target(self) -> DomainName:
        if self.rrtype not in (RRType.NS, RRType.CNAME):
            raise ValueError("target only defined for NS/CNAME records")
        return self.data  # type: ignore[return-value]


def record_text(rr: ResourceRecord) -> str:
    """The presentation text of the data of ``rr``."""
    if rr.rrtype in (RRType.NS, RRType.CNAME):
        return str(rr.target)
    if rr.rrtype in (RRType.A, RRType.AAAA):
        return rr.address
    if rr.rrtype == RRType.SOA:
        soa = rr.data
        return (f"{soa.mname} {soa.rname} {soa.serial} {soa.refresh} "
                f"{soa.retry} {soa.expire} {soa.minimum}")
    return rr.data.hex() if isinstance(rr.data, bytes) else str(rr.data)


# The one empty address family and NS view: ``frozenset()`` of an empty
# set is a new set each time in CPython.
EMPTY: frozenset = frozenset()


class AddrRecords(namedtuple("AddrRecords", "v4 v6")):
    """Addresses seen for one (ns name, bailiwick) pair, split by protocol:
    a tuple (v4, v6) of frozensets, equal to a plain tuple with the same
    items. A family with no address is the shared ``EMPTY``."""

    __slots__ = ()

    def __new__(cls, v4: frozenset[str] = EMPTY, v6: frozenset[str] = EMPTY):
        return tuple.__new__(cls, (v4 or EMPTY, v6 or EMPTY))

    def for_protocol(self, proto: str) -> frozenset[str]:
        return self.v4 if proto == V4 else self.v6

    def merged(self, other: "AddrRecords") -> "AddrRecords":
        return AddrRecords(self.v4 | other.v4, self.v6 | other.v6)

    def with_record(self, rr: ResourceRecord) -> "AddrRecords":
        """These addresses plus the one an A or AAAA record carries."""
        if rr.rrtype == RRType.A:
            return AddrRecords(self.v4 | {rr.address}, self.v6)
        return AddrRecords(self.v4, self.v6 | {rr.address})


NO_ADDRS = AddrRecords()

AddrTable = Mapping[tuple[DomainName, DomainName], AddrRecords]


class ZoneRecordSet(namedtuple("ZoneRecordSet", "zone delegating_zone parent_ns child_ns "
                                                "all_ns addrs ns_with_addrs")):
    """Everything observed about one zone's delegation, built once by
    ``build_record_set``: a tuple, equal to a plain tuple with the same
    items.

    NS sets are observed per bailiwick, so a parent/child disagreement
    survives as two views: ``parent_ns``, the targets served under proper
    ancestors of the zone, the deepest of which is ``delegating_zone``
    (None if none served any), and ``child_ns``, those the zone claims for
    itself (None if never seen). ``all_ns`` holds every target. ``addrs``
    maps (ns name, bailiwick) to the addresses served for the name there,
    and ``ns_with_addrs`` each protocol to the names with any address over
    it; every record set of an aggregate shares both.
    """

    __slots__ = ()

    def addrs_with_bailiwick(self, ns: DomainName, bw: DomainName, proto: str) -> frozenset[str]:
        return self.addrs.get((ns, bw), NO_ADDRS).for_protocol(proto)


def _union(views: Iterable[frozenset]) -> frozenset:
    """The union of ``views``: one of them where it holds all the others."""
    out = EMPTY
    for view in views:
        if out <= view:
            out = view
        elif not view <= out:
            out = out | view
    return out


def build_record_set(zone: DomainName,
                     ns_by_bailiwick: Mapping[DomainName, frozenset[DomainName]],
                     addrs: AddrTable,
                     ns_with_addrs: Mapping[str, AbstractSet[DomainName]]) -> ZoneRecordSet:
    """The record set of ``zone``, given the NS targets each bailiwick
    served for it and its aggregate's shared ``addrs`` and
    ``ns_with_addrs`` (see ``addressed_names``)."""
    parent, parent_views = None, []
    for bw, targets in ns_by_bailiwick.items():
        if len(bw) < len(zone) and zone.is_within(bw):
            parent_views.append(targets)
            if parent is None or len(bw) > len(parent):
                parent = bw
    return ZoneRecordSet(zone, parent, _union(parent_views), ns_by_bailiwick.get(zone),
                         _union(ns_by_bailiwick.values()), addrs, ns_with_addrs)


def addressed_names(addrs: AddrTable) -> dict[str, set[DomainName]]:
    """Per protocol, the names with any address over it in ``addrs``."""
    v4_names, v6_names = set(), set()
    for (ns, _bw), (v4, v6) in addrs.items():
        if v4:
            v4_names.add(ns)
        if v6:
            v6_names.add(ns)
    return {V4: v4_names, V6: v6_names}
