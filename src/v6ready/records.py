"""Typed resource records and per-zone record sets."""

from __future__ import annotations

import socket
from collections import namedtuple
from dataclasses import dataclass, field
from typing import ClassVar, Mapping

from .names import DomainName

V4 = "v4"
V6 = "v6"

CLASS_IN = 1
CLASS_CH = 3


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


@dataclass(frozen=True)
class MxData:
    preference: int
    exchange: DomainName


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


@dataclass(frozen=True)
class AddrRecords:
    """Addresses seen for one (ns name, bailiwick) pair, split by protocol."""

    v4: frozenset[str] = frozenset()
    v6: frozenset[str] = frozenset()

    def for_protocol(self, proto: str) -> frozenset[str]:
        return self.v4 if proto == V4 else self.v6

    def merged(self, other: "AddrRecords") -> "AddrRecords":
        return AddrRecords(self.v4 | other.v4, self.v6 | other.v6)

    def with_record(self, rr: ResourceRecord) -> "AddrRecords":
        """These addresses plus the one an A or AAAA record carries."""
        if rr.rrtype == RRType.A:
            return AddrRecords(self.v4 | {rr.address}, self.v6)
        return AddrRecords(self.v4, self.v6 | {rr.address})


_NO_ADDRS = AddrRecords()


@dataclass(frozen=True)
class ZoneRecordSet:
    """Everything observed about one zone's delegation.

    NS sets are keyed by the bailiwick of the response that carried them,
    so a parent/child disagreement survives as two distinct entries.
    Address records are keyed by (ns name, bailiwick) the same way.
    """

    zone: DomainName
    ns_by_bailiwick: Mapping[DomainName, frozenset[DomainName]] = field(default_factory=dict)
    addr_by_bailiwick: Mapping[tuple[DomainName, DomainName], AddrRecords] = field(default_factory=dict)

    def _is_proper_ancestor(self, bw: DomainName) -> bool:
        return len(bw) < len(self.zone) and self.zone.is_within(bw)

    def delegating_zone(self) -> DomainName | None:
        """Deepest proper-ancestor bailiwick that served NS for this zone."""
        parents = [b for b in self.ns_by_bailiwick if self._is_proper_ancestor(b)]
        if not parents:
            return None
        return max(parents, key=len)

    def ns_parent_view(self) -> frozenset[DomainName]:
        """Union of NS targets observed under proper-ancestor bailiwicks."""
        out: set[DomainName] = set()
        for bw, targets in self.ns_by_bailiwick.items():
            if self._is_proper_ancestor(bw):
                out |= targets
        return frozenset(out)

    def ns_child_view(self) -> frozenset[DomainName] | None:
        """NS targets the zone claims for itself, or None if never seen."""
        return self.ns_by_bailiwick.get(self.zone)

    def all_ns(self) -> frozenset[DomainName]:
        out: set[DomainName] = set()
        for targets in self.ns_by_bailiwick.values():
            out |= targets
        return frozenset(out)

    def addrs_with_bailiwick(self, ns: DomainName, bw: DomainName, proto: str) -> frozenset[str]:
        return self.addr_by_bailiwick.get((ns, bw), _NO_ADDRS).for_protocol(proto)

    def any_addrs(self, ns: DomainName, proto: str) -> frozenset[str]:
        out: set[str] = set()
        for (name, _bw), addrs in self.addr_by_bailiwick.items():
            if name == ns:
                out |= addrs.for_protocol(proto)
        return frozenset(out)

