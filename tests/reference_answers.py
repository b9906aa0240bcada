"""Reference answers and lookups of ``v6ready.mocknet``, built again from
the fixtures on every call: the way ``Universe`` answered before it
compiled each referral and apex NS answer once, and the way it found
zones before it looked names up by their prefixes. Kept as test oracles
for the compiled answers and the prefix lookups.
"""

from __future__ import annotations

from v6ready.mocknet import Universe
from v6ready.names import DomainName
from v6ready.records import V4, V6, ResourceRecord, RRType, pack_address
from v6ready.wire import DnsMessage


def referral(universe: Universe, msg: DnsMessage, child: DomainName) -> DnsMessage:
    """The parent's referral to ``child``: its NS set, then the glue."""
    authority = tuple(
        ResourceRecord(child, RRType.NS, 3600, target)
        for target in universe.delegation_ns(child)
    )
    additional = []
    for target in universe.delegation_ns(child):
        for proto, rrtype in ((V4, RRType.A), (V6, RRType.AAAA)):
            for addr in universe.glue_addrs(child, target, proto):
                additional.append(ResourceRecord(
                    target, rrtype, 3600, pack_address(addr)))
    return msg.reply_skeleton(authority=authority, additional=tuple(additional))


def apex_ns_answer(universe: Universe, msg: DnsMessage, zone: DomainName) -> DnsMessage:
    """The zone's own NS set, then the addresses of its in-zone servers."""
    answer = tuple(
        ResourceRecord(zone, RRType.NS, 3600, t) for t in universe.apex_ns(zone)
    )
    additional = []
    for t in universe.apex_ns(zone):
        if not t.is_within(zone):
            continue
        for proto, rrtype in ((V4, RRType.A), (V6, RRType.AAAA)):
            for addr in universe.apex_addrs(t, proto):
                additional.append(ResourceRecord(t, rrtype, 3600, pack_address(addr)))
    return msg.reply_skeleton(aa=True, answer=answer, additional=tuple(additional))


def delegation_for(universe: Universe, zone: DomainName, qname: DomainName,
                   server: DomainName) -> DomainName | None:
    """The child zone of ``zone`` holding ``qname`` that ``server`` does not
    also serve, by a scan of every fixture zone."""
    for child in sorted(z for z, parent in universe.parent.items() if parent == zone):
        if qname.is_within(child):
            if child in universe.serves.get(server, ()):
                continue
            return child
    return None


def has_names_below(universe: Universe, qname: DomainName) -> bool:
    return any(z.is_within(qname) for z in universe.fixtures) or any(
        n.is_within(qname) for n in universe.host_of
    )
