"""In-process simulated DNS universe with scriptable fault injection.

Fixture zones form a tree rooted at ".". Each NS name owns virtual
addresses; the authoritative records for a name live in the deepest
fixture zone containing it. Servers answer like RFC-conformant
authoritatives unless a defect says otherwise.

Defect meanings (attached to the zone they break):
  drop-aaaa-glue     the parent omits AAAA glue when delegating this zone
  drop-aaaa-apex     this zone's servers serve no AAAA for in-zone names
  truncate-udp       this zone's servers truncate every UDP reply
  formerr-on-edns    this zone's servers return FORMERR to EDNS queries
  blackhole-v6       this zone's servers never answer on IPv6 addresses
  blackhole-all      this zone's servers never answer at all
  wrong-ns-set-child this zone's apex NS set adds a server the parent
                     delegation does not list
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from . import INPUT_ENCODING
from .names import ROOT, DomainName, deepest_known, normalize
from .passive import PassiveTuple
from .query import (
    ServerAddress,
    TransportTimeout,
    TransportUnreachable,
    UDP,
)
from .records import (
    AddrRecords,
    CLASS_IN,
    NO_ADDRS,
    ResourceRecord,
    RRType,
    SoaData,
    V4,
    V6,
    canonical_address,
    pack_address,
    record_text,
)
from .wire import (
    DnsMessage,
    RCODE_FORMERR,
    RCODE_NXDOMAIN,
    RCODE_REFUSED,
    WireFormatError,
    decode_after_id,
    encode,
    encode_records,
)

DROP_AAAA_GLUE = "drop-aaaa-glue"
DROP_AAAA_APEX = "drop-aaaa-apex"
TRUNCATE_UDP = "truncate-udp"
FORMERR_ON_EDNS = "formerr-on-edns"
BLACKHOLE_V6 = "blackhole-v6"
BLACKHOLE_ALL = "blackhole-all"
WRONG_NS_SET_CHILD = "wrong-ns-set-child"

ALL_DEFECTS = frozenset({
    DROP_AAAA_GLUE, DROP_AAAA_APEX, TRUNCATE_UDP, FORMERR_ON_EDNS,
    BLACKHOLE_V6, BLACKHOLE_ALL, WRONG_NS_SET_CHILD,
})


class OrphanZone(ValueError):
    pass


class AddressCollision(ValueError):
    pass


@dataclass(frozen=True)
class FixtureNs:
    """One nameserver host: its name and the addresses it listens on.

    Addresses are stored in canonical presentation form so they compare
    equal to what a wire round-trip produces; one of the other family is a
    ValueError.
    """

    name: DomainName
    v4: tuple[str, ...] = ()
    v6: tuple[str, ...] = ()

    def __post_init__(self):
        for proto in (V4, V6):
            object.__setattr__(self, proto, _canonical(self.name, proto, getattr(self, proto)))

    def addrs(self, proto: str) -> tuple[str, ...]:
        return self.v4 if proto == V4 else self.v6


def _canonical(owner: DomainName, proto: str, addrs: Iterable[str]) -> tuple[str, ...]:
    """``addrs`` in canonical form; text that is no address, or one of the
    other family than ``proto``, is a ValueError naming ``owner``."""
    try:
        out = tuple(canonical_address(a) for a in addrs)
    except OSError:
        raise ValueError(f"{owner}: {proto} holds text that is not an address") from None
    if any((":" in a) != (proto == V6) for a in out):
        raise ValueError(f"{owner}: {proto} holds an address of the other family")
    return out


@dataclass(frozen=True)
class FixtureZone:
    """One zone of the simulated tree, checked as it is built.

    ``ns`` entries carry addresses only when the name is inside this zone;
    out-of-bailiwick NS addresses belong to their host zone (declare them
    there, via ``ns`` or ``hosted``). ``glue_in_parent`` optionally narrows
    which addresses the parent serves as glue, per NS name, in canonical
    form. ``soa_serials`` holds 32-bit serials per NS name.
    """

    zone: DomainName
    ns: tuple[FixtureNs, ...] = ()
    hosted: tuple[FixtureNs, ...] = ()
    glue_in_parent: Mapping[DomainName, AddrRecords] | None = None
    defects: frozenset[str] = frozenset()
    soa_serials: Mapping[DomainName, int] | None = None
    cnames: tuple[tuple[DomainName, DomainName], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "defects", frozenset(self.defects))
        unknown = self.defects - ALL_DEFECTS
        if unknown:
            raise ValueError(f"unknown defects: {sorted(unknown)}")
        for entry in self.hosted:
            if not entry.name.is_within(self.zone):
                raise OrphanZone(f"host {entry.name} declared in {self.zone} but not within it")
        for entry in self.ns:
            if (entry.v4 or entry.v6) and not entry.name.is_within(self.zone):
                raise AddressCollision(f"out-of-bailiwick NS {entry.name} of {self.zone} must not "
                                       f"declare addresses; declare them in its host zone")
        glue, serials = self.glue_in_parent, self.soa_serials or {}
        if not all(isinstance(ns, DomainName) for ns in [*(glue or ()), *serials]):
            raise ValueError(f"{self.zone}: glue_in_parent and soa_serials are keyed by names")
        if glue is not None:
            object.__setattr__(self, "glue_in_parent", {ns: AddrRecords(*(
                frozenset(_canonical(ns, proto, addrs.for_protocol(proto))) for proto in (V4, V6)))
                for ns, addrs in glue.items()})
        for ns, serial in serials.items():
            if type(serial) is not int or not 0 <= serial <= 0xFFFFFFFF:
                raise ValueError(f"{self.zone}: serial {serial!r} of {ns} is not an int "
                                 f"in 0..2**32-1")


def _hosts(entries: Iterable[tuple[str, Iterable[str], Iterable[str]]]) -> tuple[FixtureNs, ...]:
    return tuple(FixtureNs(normalize(name), tuple(v4), tuple(v6)) for name, v4, v6 in entries)


def zone_fixture(zone: str, ns: Iterable[tuple[str, Iterable[str], Iterable[str]]],
                 **kwargs) -> FixtureZone:
    """Terse constructor: ns and hosted entries are (name, v4 addrs, v6 addrs)."""
    if "hosted" in kwargs:
        kwargs["hosted"] = _hosts(kwargs["hosted"])
    return FixtureZone(zone=normalize(zone), ns=_hosts(ns), **kwargs)


DEFAULT_ROOT = zone_fixture(
    ".",
    [("a.root-servers.test", ["10.255.0.1"], ["fd00:ffff::1"]),
     ("b.root-servers.test", ["10.255.0.2"], ["fd00:ffff::2"])],
)
# The default root's NS live under a pseudo-TLD that is never delegated;
# they are reached through hints only, like the real priming set.


class LogEntry(NamedTuple):
    timestamp: int
    direction: str  # "query" | "response"
    address: str
    protocol: str
    transport: str
    message: DnsMessage


class PacketLog:
    def __init__(self):
        self.entries: list[LogEntry] = []

    def append(self, entry: LogEntry) -> None:
        self.entries.append(entry)

    def queries(self, protocol: str | None = None) -> list[LogEntry]:
        return [e for e in self.entries
                if e.direction == "query"
                and (protocol is None or e.protocol == protocol)]

    def exchange_keys(self) -> list[tuple[str, str, str]]:
        """(server address, qname, qtype) per query, in order."""
        out = []
        for e in self.queries():
            q = e.message.question
            if q:
                out.append((e.address, str(q.qname), str(q.qtype)))
        return out


class CompiledAnswer(NamedTuple):
    """The record sections of an answer that never changes, and the wire
    form of their records in order, shared by every reply that sends it."""

    answer: tuple[ResourceRecord, ...]
    authority: tuple[ResourceRecord, ...]
    additional: tuple[ResourceRecord, ...]
    records: bytes


_CHILD_ONLY_LABEL = b"ns-child-only"
_FAMILIES = ((V4, RRType.A), (V6, RRType.AAAA))


class Universe:
    """A deterministic virtual network implementing the Transport protocol.

    ``fixtures`` maps each fixture's ``zone`` to it. A Universe is fixed
    once built: its fixtures, and the indexes made from them, are never
    changed. So each delegation's referral and each zone's apex NS answer
    are compiled on first use, records and wire form, and every later
    reply shares them. To change a fixture, build a new Universe.

    As it answers, only the clock, the packet log, the compiled answers
    and a one-slot memo of the last decoded query
    (``wire.decode_after_id``) change. The clock steps by one per query
    and per reply. A query that does not decode is dropped
    (``TransportTimeout``).
    """

    def __init__(self, fixtures: dict[DomainName, FixtureZone]):
        self.fixtures = fixtures
        self.log = PacketLog()
        self.clock = 0
        self._index()
        # Compiled on first use, each entry written in one assignment of a
        # finished value, so threads sharing the Universe may race to
        # compile an entry but never see half of one.
        self._referrals: dict[DomainName, CompiledAnswer] = {}
        self._apex_ns_answers: dict[DomainName, CompiledAnswer] = {}
        self._sorted_names: list[DomainName] | None = None
        # the slot of ``wire.decode_after_id``
        self._last_query: tuple = (None, None)

    # -- construction -------------------------------------------------------

    def _index(self) -> None:
        if ROOT not in self.fixtures:
            raise OrphanZone("no root fixture")
        self.parent: dict[DomainName, DomainName] = {
            zone: deepest_known(zone.parent(), self.fixtures).zone
            for zone in self.fixtures if zone != ROOT}

        # Synthetic child-only servers use reserved ranges (10.254.0.0/16 and
        # fd00:fffe::/32); fixtures must not allocate addresses there.
        self.extra_child_ns: dict[DomainName, FixtureNs] = {}
        serial = 0
        for zone in sorted(self.fixtures):
            fz = self.fixtures[zone]
            if WRONG_NS_SET_CHILD in fz.defects:
                serial += 1
                name = zone.child(_CHILD_ONLY_LABEL)
                self.extra_child_ns[zone] = FixtureNs(
                    name,
                    (f"10.254.{serial // 256}.{serial % 256}",),
                    (f"fd00:fffe::{serial:x}",),
                )

        # Authoritative home of every host name, plus the address registry.
        self.host_of: dict[DomainName, FixtureNs] = {}
        self.owner_zone: dict[DomainName, DomainName] = {}
        self.address_name: dict[str, DomainName] = {}
        for zone, fz in self.fixtures.items():
            hosts = [e for e in fz.ns if e.name.is_within(zone)] + list(fz.hosted)
            if zone in self.extra_child_ns:
                hosts.append(self.extra_child_ns[zone])
            for entry in hosts:
                known = self.host_of.get(entry.name)
                if known is not None and known != entry:
                    raise AddressCollision(f"conflicting declarations for {entry.name}")
                self.host_of[entry.name] = entry
                self.owner_zone[entry.name] = zone
                for addr in entry.v4 + entry.v6:
                    claimed = self.address_name.get(addr)
                    if claimed is not None and claimed != entry.name:
                        raise AddressCollision(
                            f"{addr} claimed by {claimed} and {entry.name}")
                    self.address_name[addr] = entry.name

        # zones each host name serves (delegation view plus child extras)
        self.serves: dict[DomainName, set[DomainName]] = {}
        for zone in self.fixtures:
            for name in self.apex_ns(zone):
                self.serves.setdefault(name, set()).add(zone)

    # -- views used by both the answer path and the exports ------------------

    def delegation_ns(self, zone: DomainName) -> list[DomainName]:
        return sorted(e.name for e in self.fixtures[zone].ns)

    def apex_ns(self, zone: DomainName) -> list[DomainName]:
        names = self.delegation_ns(zone)
        extra = self.extra_child_ns.get(zone)
        return sorted([*names, extra.name]) if extra else names

    def glue_addrs(self, zone: DomainName, ns: DomainName, proto: str) -> tuple[str, ...]:
        """Glue the parent serves when delegating ``zone``, for one NS name."""
        fz = self.fixtures[zone]
        if not ns.is_within(zone):
            return ()
        if proto == V6 and DROP_AAAA_GLUE in fz.defects:
            return ()
        if fz.glue_in_parent is not None:
            return tuple(sorted(fz.glue_in_parent.get(ns, NO_ADDRS).for_protocol(proto)))
        host = self.host_of.get(ns)
        return tuple(sorted(host.addrs(proto))) if host else ()

    def apex_addrs(self, ns: DomainName, proto: str) -> tuple[str, ...]:
        """Address records the owner zone serves for ``ns`` at its apex."""
        host = self.host_of.get(ns)
        if host is None:
            return ()
        owner = self.owner_zone[ns]
        if proto == V6 and DROP_AAAA_APEX in self.fixtures[owner].defects:
            return ()
        return tuple(sorted(host.addrs(proto)))

    def listen_addrs(self, ns: DomainName, proto: str) -> tuple[str, ...]:
        host = self.host_of.get(ns)
        return tuple(sorted(host.addrs(proto))) if host else ()

    def root_hints(self) -> list[tuple[DomainName, str, str]]:
        return [(entry.name, proto, addr) for entry in self.fixtures[ROOT].ns
                for proto in (V4, V6) for addr in entry.addrs(proto)]

    # -- transport ----------------------------------------------------------

    def exchange(self, server: ServerAddress, transport: str, payload: bytes,
                 timeout: float) -> bytes:
        proto = server.protocol
        self.clock += 1
        try:
            msg, self._last_query = decode_after_id(payload, self._last_query)
        except WireFormatError:  # dropped, as a server drops what it cannot read
            raise TransportTimeout("query does not decode") from None
        self.log.append(LogEntry(self.clock, "query", server.ip, proto, transport, msg))
        name = self.address_name.get(server.ip)
        if name is None:
            raise TransportUnreachable(f"no server at {server.ip}")
        answered = self._answer(name, server.ip, msg, transport)
        if answered is None:
            raise TransportTimeout(f"{server.ip} does not respond")
        reply, records = answered
        self.clock += 1
        self.log.append(LogEntry(self.clock, "response", server.ip, proto, transport, reply))
        return encode(reply, records)

    # -- server behavior ----------------------------------------------------

    def _answer(self, name: DomainName, address: str, msg: DnsMessage,
                transport: str) -> tuple[DnsMessage, bytes | None] | None:
        """The reply of the server ``name`` at ``address``, with the wire
        form of its records if they are compiled (else None); None if the
        server does not respond."""
        defects = self.fixtures[self.owner_zone[name]].defects
        if BLACKHOLE_ALL in defects:
            return None
        if BLACKHOLE_V6 in defects and ":" in address:
            return None
        q = msg.question
        if q is None:
            return msg.reply_skeleton(rcode=RCODE_FORMERR), None
        zone = self._deepest_served(name, q.qname)
        if zone is None or q.qclass != CLASS_IN:  # not a name and class it serves
            return msg.reply_skeleton(rcode=RCODE_REFUSED), None
        zdefects = self.fixtures[zone].defects
        if FORMERR_ON_EDNS in zdefects and msg.edns is not None:
            return msg.reply_skeleton(rcode=RCODE_FORMERR), None
        if TRUNCATE_UDP in zdefects and transport == UDP:
            return msg.reply_skeleton(tc=True), None

        delegated = self._delegation_for(zone, q.qname, name)
        if delegated is not None:
            return self._referral(msg, delegated)
        return self._apex_answer(msg, zone, name)

    def _deepest_served(self, name: DomainName, qname: DomainName) -> DomainName | None:
        best = None
        for zone in self.serves.get(name, ()):
            if qname.is_within(zone) and (best is None or len(zone) > len(best)):
                best = zone
        return best

    def _delegation_for(self, zone: DomainName, qname: DomainName,
                        server: DomainName) -> DomainName | None:
        """The child of ``zone`` that ``qname`` is in, unless ``server`` also
        serves it: the first fixture zone below ``zone`` among the
        ancestors of ``qname``, which are its prefixes."""
        for depth in range(len(zone) + 1, len(qname) + 1):
            fz = self.fixtures.get(qname[:depth])
            if fz is not None:
                if fz.zone in self.serves.get(server, ()):
                    return None  # also authoritative for the child: answer directly
                return fz.zone
        return None

    def _referral(self, msg: DnsMessage, child: DomainName) -> tuple[DnsMessage, bytes]:
        """The parent's referral to ``child``: its NS set, then the glue."""
        compiled = self._referrals.get(child)
        if compiled is None:
            ns = self.delegation_ns(child)
            compiled = self._referrals[child] = _compile(
                (), tuple(ResourceRecord(child, RRType.NS, 3600, t) for t in ns),
                tuple(ResourceRecord(t, rrtype, 3600, pack_address(addr))
                      for t in ns for proto, rrtype in _FAMILIES
                      for addr in self.glue_addrs(child, t, proto)))
        return (msg.reply_skeleton(authority=compiled.authority,
                                   additional=compiled.additional),
                compiled.records)

    def _apex_ns(self, zone: DomainName) -> CompiledAnswer:
        """The apex NS answer of ``zone``: its own NS set, then the
        addresses of its in-zone servers."""
        compiled = self._apex_ns_answers.get(zone)
        if compiled is None:
            ns = self.apex_ns(zone)
            compiled = self._apex_ns_answers[zone] = _compile(
                tuple(ResourceRecord(zone, RRType.NS, 3600, t) for t in ns), (),
                tuple(ResourceRecord(t, rrtype, 3600, pack_address(addr))
                      for t in ns if t.is_within(zone) for proto, rrtype in _FAMILIES
                      for addr in self.apex_addrs(t, proto)))
        return compiled

    def _apex_answer(self, msg: DnsMessage, zone: DomainName,
                     server: DomainName) -> tuple[DnsMessage, bytes | None]:
        q = msg.question
        assert q is not None
        fz = self.fixtures[zone]
        if q.qname == zone:
            if q.qtype == RRType.NS:
                compiled = self._apex_ns(zone)
                return (msg.reply_skeleton(aa=True, answer=compiled.answer,
                                           additional=compiled.additional),
                        compiled.records)
            if q.qtype == RRType.SOA:
                serial = 1
                if fz.soa_serials:
                    serial = fz.soa_serials.get(server, 1)
                primary = self._apex_ns(zone).answer
                soa = SoaData(
                    mname=primary[0].data if primary else zone,
                    rname=zone.child(b"hostmaster"),
                    serial=serial,
                )
                rr = ResourceRecord(zone, RRType.SOA, 3600, soa)
                return msg.reply_skeleton(aa=True, answer=(rr,)), None
        else:
            for owner, target in fz.cnames:
                if q.qname == owner:
                    rr = ResourceRecord(owner, RRType.CNAME, 3600, target)
                    return msg.reply_skeleton(aa=True, answer=(rr,)), None
        if self.owner_zone.get(q.qname) == zone:  # a host of this zone, maybe its apex
            if q.qtype in (RRType.A, RRType.AAAA):
                proto = V4 if q.qtype == RRType.A else V6
                answer = tuple(
                    ResourceRecord(q.qname, q.qtype, 3600, pack_address(a))
                    for a in self.apex_addrs(q.qname, proto)
                )
                return msg.reply_skeleton(aa=True, answer=answer), None
            return msg.reply_skeleton(aa=True), None
        if self._has_names_below(q.qname):
            return msg.reply_skeleton(aa=True), None
        return msg.reply_skeleton(aa=True, rcode=RCODE_NXDOMAIN), None

    def _has_names_below(self, qname: DomainName) -> bool:
        """Whether a fixture zone or host name is ``qname`` or below it.
        Those names have ``qname`` as a prefix, so in sorted order the
        first name from ``qname`` on is one of them if any is."""
        names = self._sorted_names
        if names is None:
            names = self._sorted_names = sorted({*self.fixtures, *self.host_of})
        i = bisect_left(names, qname)
        return i < len(names) and names[i].is_within(qname)

    # -- exports -------------------------------------------------------------

    def export_tuples(self) -> list[PassiveTuple]:
        """Aggregate the response history into passive observations.

        Identical exchanges collapse into one tuple with a higher count,
        mirroring cache-miss aggregation.
        """
        acc: dict[tuple, dict] = {}
        for entry in self.log.entries:
            if entry.direction != "response":
                continue
            name = self.address_name.get(entry.address)
            q = entry.message.question
            if name is None or q is None:
                continue
            bailiwick = self._deepest_served(name, q.qname)
            if bailiwick is None:
                continue
            rrsets: dict[tuple[DomainName, RRType], list[str]] = {}
            for rr in (entry.message.answer + entry.message.authority
                       + entry.message.additional):
                if rr.rrtype in (RRType.NS, RRType.A, RRType.AAAA):
                    rrsets.setdefault((rr.owner, rr.rrtype), []).append(record_text(rr))
            for (owner, rrtype), values in rrsets.items():
                key = (owner, int(rrtype), bailiwick, tuple(sorted(set(values))))
                slot = acc.setdefault(key, {
                    "count": 0, "first": entry.timestamp, "last": entry.timestamp})
                slot["count"] += 1
                slot["first"] = min(slot["first"], entry.timestamp)
                slot["last"] = max(slot["last"], entry.timestamp)
        out = []
        for (owner, tval, bailiwick, values), slot in sorted(
                acc.items(), key=lambda kv: (str(kv[0][0]), kv[0][1], str(kv[0][2]))):
            out.append(PassiveTuple(
                count=slot["count"],
                time_first=slot["first"],
                time_last=slot["last"],
                rrname=owner,
                rrtype=RRType(tval),
                bailiwick=bailiwick,
                rdata=values,
            ))
        return out


def _compile(answer: tuple[ResourceRecord, ...], authority: tuple[ResourceRecord, ...],
             additional: tuple[ResourceRecord, ...]) -> CompiledAnswer:
    return CompiledAnswer(answer, authority, additional,
                          encode_records(answer, authority, additional))


def build_universe(fixtures: Iterable[FixtureZone] | dict[DomainName, FixtureZone]) -> Universe:
    """Index fixtures into a queryable universe.

    An empty fixture list yields a root-only universe; a non-empty list
    must include the root.
    """
    if isinstance(fixtures, dict):
        fmap = dict(fixtures)
    else:
        fmap = {fz.zone: fz for fz in fixtures}
    if not fmap:
        fmap = {ROOT: DEFAULT_ROOT}
    return Universe(fmap)


# -- static record-level export ---------------------------------------------


FIXTURE_TIME = 1_600_000_000  # time_first and time_last of every fixture tuple


def fixture_tuples(universe: Universe) -> list[PassiveTuple]:
    """The complete record-level view of a universe as passive tuples.

    This is what a sensor with full visibility would have collected: both
    NS views per zone, glue under the parent bailiwick, and every host's
    apex addresses under its owner zone, with record defects applied.
    """
    out: list[PassiveTuple] = []

    def emit(rrname, rrtype, bailiwick, values):
        values = tuple(sorted(values))
        if values:
            out.append(PassiveTuple(1, FIXTURE_TIME, FIXTURE_TIME, rrname, rrtype,
                                    bailiwick, values))

    for zone in sorted(universe.fixtures):
        if zone != ROOT:
            parent = universe.parent[zone]
            emit(zone, RRType.NS, parent,
                 [str(n) for n in universe.delegation_ns(zone)])
            for ns in universe.delegation_ns(zone):
                if not ns.is_within(zone):
                    continue
                emit(ns, RRType.A, parent, universe.glue_addrs(zone, ns, V4))
                emit(ns, RRType.AAAA, parent, universe.glue_addrs(zone, ns, V6))
        emit(zone, RRType.NS, zone, [str(n) for n in universe.apex_ns(zone)])
    for name, owner in sorted(universe.owner_zone.items()):
        emit(name, RRType.A, owner, universe.apex_addrs(name, V4))
        emit(name, RRType.AAAA, owner, universe.apex_addrs(name, V6))
    return out


# -- ground truth ---------------------------------------------------------------


def ground_truth(universe: Universe) -> dict[DomainName, dict[str, bool]]:
    """Per-zone resolvability over each protocol, read from the fixtures
    alone (not from tuples), as the least fixed point of the delegations.

    At first only the root resolves, if one of its servers listens and
    responds over the protocol. The zones are then swept until a sweep
    adds none: a zone resolves once its parent does and both NS views name
    a usable server, the delegation view by its glue and the apex view by
    its apex addresses. A server is usable when it responds and, in
    bailiwick, has those addresses; out of bailiwick, when its owner zone
    resolves and serves its apex addresses. So a zone resolves exactly
    when it has a finite derivation, and a dependency cycle with no way
    out resolves nothing.
    """
    def least_model(proto: str) -> set[DomainName]:
        dark = {BLACKHOLE_ALL, BLACKHOLE_V6} if proto == V6 else {BLACKHOLE_ALL}

        def responds(ns: DomainName) -> bool:
            owner = universe.owner_zone.get(ns)
            return owner is not None and not dark & universe.fixtures[owner].defects

        def usable(zone: DomainName, ns: DomainName, in_bailiwick: tuple[str, ...]) -> bool:
            if ns.is_within(zone):
                return bool(in_bailiwick) and responds(ns)
            return (universe.owner_zone.get(ns) in done
                    and bool(universe.apex_addrs(ns, proto)) and responds(ns))

        done = {ROOT} if any(universe.listen_addrs(e.name, proto) and responds(e.name)
                             for e in universe.fixtures[ROOT].ns) else set()
        grown = True
        while grown:
            grown = False
            for zone in zones:
                if (zone not in done and universe.parent[zone] in done
                        and any(usable(zone, ns, universe.glue_addrs(zone, ns, proto))
                                for ns in universe.delegation_ns(zone))
                        and any(usable(zone, ns, universe.apex_addrs(ns, proto))
                                for ns in universe.apex_ns(zone))):
                    done.add(zone)
                    grown = True
        return done

    zones = sorted(z for z in universe.fixtures if z != ROOT)
    resolved = {proto: least_model(proto) for proto in (V4, V6)}
    return {zone: {proto: zone in resolved[proto] for proto in (V4, V6)} for zone in zones}


# -- random universes ----------------------------------------------------------


DEFAULT_DEFECT_RATES = {
    "ns-no-v6": 0.2,
    "ns-no-v4": 0.04,
    "oob-ns": 0.3,
    DROP_AAAA_GLUE: 0.12,
    DROP_AAAA_APEX: 0.12,
    WRONG_NS_SET_CHILD: 0.1,
    TRUNCATE_UDP: 0.05,
    FORMERR_ON_EDNS: 0.05,
}


def dump_fixtures(out, fixtures: Iterable[FixtureZone]) -> None:
    """One JSON document per zone, after a format header line."""
    out.write(json.dumps({"format": "mocknet-fixtures", "version": 1}) + "\n")
    for fz in sorted(fixtures, key=lambda f: f.zone):
        doc = {
            "zone": str(fz.zone),
            "ns": [{"name": str(e.name), "v4": list(e.v4), "v6": list(e.v6)}
                   for e in fz.ns],
            "hosted": [{"name": str(e.name), "v4": list(e.v4), "v6": list(e.v6)}
                       for e in fz.hosted],
            "defects": sorted(fz.defects),
        }
        if fz.glue_in_parent is not None:
            doc["glue_in_parent"] = {
                str(ns): {"v4": sorted(a.v4), "v6": sorted(a.v6)}
                for ns, a in sorted(fz.glue_in_parent.items(),
                                    key=lambda kv: str(kv[0]))
            }
        if fz.soa_serials:
            doc["soa_serials"] = {str(n): s for n, s in sorted(
                fz.soa_serials.items(), key=lambda kv: str(kv[0]))}
        if fz.cnames:
            doc["cnames"] = [[str(a), str(b)] for a, b in fz.cnames]
        out.write(json.dumps(doc, sort_keys=True) + "\n")


# a document's keys are the fields of what it describes
_ZONE_KEYS = frozenset(f.name for f in fields(FixtureZone))
_HOST_KEYS = frozenset(f.name for f in fields(FixtureNs))
_ADDR_KEYS = _HOST_KEYS - {"name"}


def _check_keys(doc: dict, keys: frozenset[str]) -> None:
    """A ValueError naming a key of ``doc`` that is not in ``keys``, if any."""
    if not doc.keys() <= keys:
        raise ValueError(f"unknown key {min(doc.keys() - keys)!r}")


def _list(doc: dict, key: str) -> list:
    """``doc[key]``, which must be a list, or an empty list without the key."""
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise ValueError(f"{key!r} is not a list")
    return value


def _cname(entry) -> tuple[DomainName, DomainName]:
    """A ``cnames`` entry, which must be a list of two names."""
    if not (isinstance(entry, list) and len(entry) == 2
            and all(isinstance(name, str) for name in entry)):
        raise ValueError(f"cnames entry {entry!r} is not a list of two names")
    return normalize(entry[0]), normalize(entry[1])


def _fixture_zone(doc: dict) -> FixtureZone:
    """One zone document of a fixture file."""
    def addrs(entry, keys=_ADDR_KEYS):  # {"v4": [...], "v6": [...]}
        _check_keys(entry, keys)
        return _list(entry, V4), _list(entry, V6)

    def hosts(entries):  # [{"name": ..., "v4": [...], "v6": [...]}, ...]
        return _hosts((e["name"], *addrs(e, _HOST_KEYS)) for e in entries)

    _check_keys(doc, _ZONE_KEYS)
    glue = None
    if "glue_in_parent" in doc:  # {NS name: {"v4": [...], "v6": [...]}}
        glue = {normalize(ns): AddrRecords(*map(frozenset, addrs(a)))
                for ns, a in doc["glue_in_parent"].items()}
    return FixtureZone(
        zone=normalize(doc["zone"]),
        ns=hosts(_list(doc, "ns")),
        hosted=hosts(_list(doc, "hosted")),
        glue_in_parent=glue,
        defects=_list(doc, "defects"),
        soa_serials={normalize(n): s
                     for n, s in doc.get("soa_serials", {}).items()} or None,
        cnames=tuple(map(_cname, _list(doc, "cnames"))),
    )


def load_fixtures(path) -> list[FixtureZone]:
    """Read a fixture file produced by dump_fixtures (or written by hand).
    A header of another format or version, or a line that is not a zone
    document of the shape dump_fixtures writes (a bad address, a list where
    a mapping belongs or the other way round, no zone, ...), is a
    ValueError naming ``path:line``."""
    fixtures = None  # until the header is read
    for number, line in enumerate(Path(path).read_text(encoding=INPUT_ENCODING).splitlines(), 1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            if not isinstance(doc, dict):
                raise ValueError("not a JSON object")
            if fixtures is not None:
                fixtures.append(_fixture_zone(doc))
            elif doc.get("format") != "mocknet-fixtures":
                raise ValueError("not a fixture file")
            elif doc.get("version") != 1:
                raise ValueError(f"fixture file version {doc.get('version')!r}, not 1")
            else:
                fixtures = []
        except KeyError as exc:
            raise ValueError(f"{path}:{number}: no {exc} key") from None
        except (ValueError, TypeError, AttributeError, RecursionError) as exc:
            raise ValueError(f"{path}:{number}: {exc}") from None
    return fixtures or []


def random_universe(
    seed: int,
    size: int,
    defect_rates: Mapping[str, float] | None = None,
    acyclic_oob: bool = False,
) -> tuple[Universe, dict[DomainName, dict[str, bool]]]:
    """A seeded random tree of ``size`` zones plus its ground truth.

    Rates control record-level defects; liveness defects are injected only
    by targeted fixtures since passive data cannot observe them. With
    ``acyclic_oob`` every out-of-bailiwick NS is hosted in an
    earlier-created zone, which rules out dependency cycles; useful when a
    run must be able to observe every zone over some protocol.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    rates = dict(DEFAULT_DEFECT_RATES)
    if defect_rates:
        rates.update(defect_rates)
    rng = random.Random(seed)

    zones: list[DomainName] = [ROOT]
    # each zone's subtree, itself included, as ascending positions in zones
    subtree: dict[DomainName, list[int]] = {}
    for i in range(size):
        parent = rng.choice(zones)
        if len(parent) >= 6:
            parent = ROOT
        zone = parent.child(f"z{i}".encode())
        subtree[zone] = []
        for depth in range(1, len(zone) + 1):
            subtree[zone.ancestor_at_depth(depth)].append(len(zones))
        zones.append(zone)

    counter = [0]

    def fresh_addrs(want_v4: bool, want_v6: bool) -> tuple[tuple[str, ...], tuple[str, ...]]:
        counter[0] += 1
        n = counter[0]
        v4 = (f"10.{(n >> 8) & 0xFF}.{n & 0xFF}.53",) if want_v4 else ()
        v6 = (f"fd00::{n:x}",) if want_v6 else ()
        return v4, v6

    zone_ns: dict[DomainName, list[DomainName]] = {z: [] for z in zones}
    declared: dict[DomainName, FixtureNs] = {}
    host_zone_of: dict[DomainName, DomainName] = {}

    for idx, zone in enumerate(zones):
        count = 2 if zone == ROOT else rng.choice((1, 2))
        for j in range(count):
            host = zone
            if zone != ROOT and rng.random() < rates["oob-ns"]:
                # the n candidates are the zones but the root and zone's
                # subtree (with acyclic_oob, zones[1:idx]), in order; choice
                # of range(n) draws the index that choice of their list would
                skip = () if acyclic_oob else subtree[zone]
                n = (idx if acyclic_oob else len(zones)) - 1 - len(skip)
                if n:
                    pos = 1 + rng.choice(range(n))
                    for s in skip:
                        if s > pos:
                            break
                        pos += 1
                    host = zones[pos]
            name = host.child(f"ns{j}-{idx}".encode())
            want_v4 = zone == ROOT or rng.random() >= rates["ns-no-v4"]
            want_v6 = True if zone == ROOT else rng.random() >= rates["ns-no-v6"]
            v4, v6 = fresh_addrs(want_v4, want_v6)
            declared[name] = FixtureNs(name, v4, v6)
            host_zone_of[name] = host
            zone_ns[zone].append(name)

    hosted_names: dict[DomainName, list[DomainName]] = {}
    for name, host in sorted(host_zone_of.items()):
        hosted_names.setdefault(host, []).append(name)
    fixtures: dict[DomainName, FixtureZone] = {}
    for zone in zones:
        defects: set[str] = set()
        if zone != ROOT:
            for defect in (DROP_AAAA_GLUE, DROP_AAAA_APEX, WRONG_NS_SET_CHILD,
                           TRUNCATE_UDP, FORMERR_ON_EDNS):
                if rng.random() < rates.get(defect, 0.0):
                    defects.add(defect)
        entries = tuple(
            declared[name] if host_zone_of[name] == zone else FixtureNs(name)
            for name in zone_ns[zone]
        )
        own_ns = {name for name in zone_ns[zone] if host_zone_of[name] == zone}
        hosted = tuple(declared[name] for name in hosted_names.get(zone, ())
                       if name not in own_ns)
        fixtures[zone] = FixtureZone(
            zone=zone, ns=entries, hosted=hosted, defects=frozenset(defects),
        )

    universe = Universe(fixtures)
    return universe, ground_truth(universe)
