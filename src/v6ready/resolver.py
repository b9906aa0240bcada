"""Iterative, root-anchored resolution of full delegation chains.

The walk starts at the root and probes one NS query per label boundary
(QNAME-minimized: only the boundary name is ever sent upward), inferring
zone cuts from referrals without relying on NXDOMAIN. Glue is captured
from additional sections, parent and child NS sets are both recorded, and
each out-of-bailiwick NS name is looked up in its own zone, found by a
walk from the root.

The crawl only gathers evidence. The per-protocol verdicts follow from it
by the unit propagation the passive path runs (``classify.zone_clauses``:
the same two-view conjunction; reaching a server through glue is not
enough when validating resolvers would reject the delegation), fed with
which NS answered over each protocol. The root resolves over the
protocols on which some hint answered, and a zone's parent is one of its
clauses, so a verdict covers the whole delegation chain.
"""

from __future__ import annotations

import ipaddress
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from . import INPUT_ENCODING
from .classify import (CAUSE_NS_UNRESPONSIVE, FailureCause, ResolutionStatus, _own_addresses,
                       _Propagation, classify, zone_clauses)
from .names import ROOT, DnsNameError, DomainName, enclosing_zones, normalize
from .query import QueryEngine, ServerAddress, RESPONSE
from .records import (
    EMPTY,
    AddrRecords,
    NO_ADDRS,
    ResourceRecord,
    RRType,
    V4,
    V6,
    ZoneRecordSet,
    addressed_names,
    build_record_set,
    record_text,
)
from .wire import DnsMessage

PROTOCOL_BOTH = "both"
PROTOCOL_V4_ONLY = "v4-only"
PROTOCOL_V6_ONLY = "v6-only"
CHAIN_RESULT_VERSION = 5


class RootUnreachable(Exception):
    pass


class DepthLimitExceeded(Exception):
    pass


class PolicyViolation(AssertionError):
    """Internal invariant broke: a query escaped the protocol filter."""


# Labels a target may have: zone cuts one chain may pass.
DEPTH_LIMIT = 32

# Published root server set; tests point hints at the simulated universe.
DEFAULT_ROOT_HINTS: tuple[tuple[str, str, str], ...] = (
    ("a.root-servers.net", V4, "198.41.0.4"),
    ("a.root-servers.net", V6, "2001:503:ba3e::2:30"),
    ("b.root-servers.net", V4, "170.247.170.2"),
    ("b.root-servers.net", V6, "2801:1b8:10::b"),
    ("c.root-servers.net", V4, "192.33.4.12"),
    ("c.root-servers.net", V6, "2001:500:2::c"),
    ("d.root-servers.net", V4, "199.7.91.13"),
    ("d.root-servers.net", V6, "2001:500:2d::d"),
    ("e.root-servers.net", V4, "192.203.230.10"),
    ("e.root-servers.net", V6, "2001:500:a8::e"),
    ("f.root-servers.net", V4, "192.5.5.241"),
    ("f.root-servers.net", V6, "2001:500:2f::f"),
    ("g.root-servers.net", V4, "192.112.36.4"),
    ("g.root-servers.net", V6, "2001:500:12::d0d"),
    ("h.root-servers.net", V4, "198.97.190.53"),
    ("h.root-servers.net", V6, "2001:500:1::53"),
    ("i.root-servers.net", V4, "192.36.148.17"),
    ("i.root-servers.net", V6, "2001:7fe::53"),
    ("j.root-servers.net", V4, "192.58.128.30"),
    ("j.root-servers.net", V6, "2001:503:c27::2:30"),
    ("k.root-servers.net", V4, "193.0.14.129"),
    ("k.root-servers.net", V6, "2001:7fd::1"),
    ("l.root-servers.net", V4, "199.7.83.42"),
    ("l.root-servers.net", V6, "2001:500:9f::42"),
    ("m.root-servers.net", V4, "202.12.27.33"),
    ("m.root-servers.net", V6, "2001:dc3::35"),
)


def load_root_hints(path: str | Path) -> list[tuple[DomainName, str, str]]:
    """Whitespace-separated (name, protocol, address) lines of UTF-8 text;
    '#' comments. Each address must be one of the family its protocol
    names. Any other line is a ValueError."""
    hints = []
    for raw in Path(path).read_text(encoding=INPUT_ENCODING).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3 or parts[1] not in (V4, V6):
            raise ValueError(f"bad root hints line: {raw!r}")
        name, proto, addr = parts
        family = 4 if proto == V4 else 6
        try:
            if ipaddress.ip_address(addr).version != family:
                raise ValueError(f"not an IPv{family} address")
            hints.append((normalize(name), proto, addr))
        except ValueError as exc:
            raise ValueError(f"bad root hints line {raw!r}: {exc}") from None
    if not hints:
        raise ValueError(f"no usable hints in {path}")
    return hints


def default_root_hints() -> list[tuple[DomainName, str, str]]:
    return [(normalize(n), proto, addr) for n, proto, addr in DEFAULT_ROOT_HINTS]


@dataclass
class DelegationStep:
    zone: DomainName
    parent_ns_set: frozenset[DomainName]
    child_ns_set: frozenset[DomainName] | None
    glue: dict[DomainName, AddrRecords]
    queried_servers: list[tuple[str, str, str]]  # (address, protocol, outcome kind)
    cname_ns: frozenset[DomainName]
    out_of_zone: tuple[ResourceRecord, ...]
    status: ResolutionStatus
    _entry: dict | None = field(default=None, init=False, repr=False, compare=False)

    def json_entry(self) -> dict:
        """The step's entry in chain-result JSON, rendered on first use:
        a step is final once built, so every chain through it shares the
        one entry, which nothing may change."""
        if self._entry is None:
            self._entry = {
                "zone": str(self.zone),
                "parent_ns": sorted(str(n) for n in self.parent_ns_set),
                "child_ns": (sorted(str(n) for n in self.child_ns_set)
                             if self.child_ns_set is not None else None),
                "glue": {
                    str(ns): {"v4": sorted(a.v4), "v6": sorted(a.v6)}
                    for ns, a in sorted(self.glue.items(), key=lambda kv: str(kv[0]))
                },
                "queried": [list(q) for q in self.queried_servers],
                "cname_ns": sorted(str(n) for n in self.cname_ns),
                "out_of_zone_additionals": [
                    f"{rr.owner} {rr.rrtype} {rr.address}" for rr in self.out_of_zone
                ],
                "state": self.status.state,
                "causes": sorted(self.status.causes),
            }
        return self._entry


@dataclass
class ChainResult:
    target: DomainName
    protocol_filter: str
    steps: list[DelegationStep]
    status: ResolutionStatus
    enrichment: dict[str, dict[str, list[str]]] = field(default_factory=dict)
    liveness: list[tuple[str, str, str]] = field(default_factory=list)

    @property
    def v4_resolvable(self) -> bool:
        return self.status.v4

    @property
    def v6_resolvable(self) -> bool:
        return self.status.v6

    @property
    def state(self) -> str:
        return self.status.state

    def to_json_dict(self) -> dict:
        """The chain-result document; its step entries are the steps' own
        (``DelegationStep.json_entry``), shared with every other chain."""
        return {
            "format": "chain-result",
            "version": CHAIN_RESULT_VERSION,
            "target": str(self.target),
            "protocol_filter": self.protocol_filter,
            "state": self.state,
            "v4_resolvable": self.v4_resolvable,
            "v6_resolvable": self.v6_resolvable,
            "intent_v6": self.status.intent_v6,
            "causes": sorted(self.status.causes),
            "cause_witnesses": self.status.cause_witnesses,
            "steps": [s.json_entry() for s in self.steps],
            "enrichment": self.enrichment,
            "liveness": [list(entry) for entry in self.liveness],
        }


@dataclass
class _ZoneInfo:
    zone: DomainName
    parent_zone: DomainName | None
    parent_ns: frozenset[DomainName] = frozenset()
    child_ns: frozenset[DomainName] | None = None
    # (name, bailiwick) -> the addresses served for it there: glue from the
    # parent, apex records from the zone, and the lookup of each
    # out-of-bailiwick NS in its own zone; never an empty entry
    addrs: dict[tuple[DomainName, DomainName], AddrRecords] = field(default_factory=dict)
    # out-of-bailiwick NS -> the deepest zone found enclosing it, where its
    # addresses were looked up
    hosts: dict[DomainName, DomainName] = field(default_factory=dict)
    queried: list[tuple[str, str, str]] = field(default_factory=list)
    answers: dict[tuple[DomainName, str], bool] = field(default_factory=dict)
    servers: list[tuple[DomainName, ServerAddress]] = field(default_factory=list)
    cname_ns: set[DomainName] = field(default_factory=set)
    out_of_zone: list[ResourceRecord] = field(default_factory=list)
    silent: bool = False  # no server of the parent answered the NS query for it
    step: DelegationStep | None = None  # built once its evidence is final

    def record_set(self) -> ZoneRecordSet:
        ns_by_bw = {self.parent_zone: self.parent_ns}
        if self.child_ns is not None:
            ns_by_bw[self.zone] = self.child_ns
        return build_record_set(self.zone, ns_by_bw, self.addrs, addressed_names(self.addrs))

    def ns_zones(self) -> dict[DomainName, DomainName]:
        """Each NS -> its host zone, or else the zone itself (adds nothing)."""
        return {ns: self.hosts.get(ns, self.zone)
                for ns in self.parent_ns | (self.child_ns or frozenset())}


def _run(task):
    """Run a crawl generator to its result. A generator yields another one
    whose result it needs first; this stack of them stands in for
    recursion, so no chain of out-of-bailiwick NS references is too long."""
    stack, result = [task], None
    while stack:
        try:
            needed = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(needed)
            result = None
    return result


class Resolver:
    """Walks delegation chains against a query engine.

    One resolver instance represents one measurement run: each zone cut is
    discovered once and memoized, so bulk scans and the walks for
    out-of-bailiwick NS names share work on top of the engine's response
    cache. One propagation per protocol lasts the whole run: the least
    model only grows as zones are added.

    A walk reads what a zone holds; one in its first gather has no servers
    yet, so a walk stops there. A zone's readers are the children probed at
    it and the zones whose walk for an out-of-bailiwick NS ended at it: when
    a gather changes its servers they are stale, and ``resolve_chain``
    probes and gathers each again until none is.
    """

    def __init__(self, engine: QueryEngine,
                 root_hints: list[tuple[DomainName, str, str]] | None = None,
                 protocol_filter: str = PROTOCOL_BOTH):
        self.engine = engine
        self.hints = root_hints or default_root_hints()
        self.protocol_filter = protocol_filter
        self._zones: dict[DomainName, _ZoneInfo] = {ROOT: self._root_info()}
        self._found: list[_ZoneInfo] = []  # the zones in the order they were discovered
        self._fed = 0  # the first _fed of _found are in the propagations
        # zone -> the zones that read its servers after they last changed
        self._readers: defaultdict[DomainName, set[DomainName]] = defaultdict(set)
        self._stale: set[DomainName] = set()  # zones that read servers which changed later
        # (zone, (name, bailiwick), address) for every address any gather filed
        self._filed: set[tuple[DomainName, tuple[DomainName, DomainName], bytes]] = set()
        self._root_answered: set[str] = set()  # protocols over which a root hint answered
        self._propagations = {V4: _Propagation(), V6: _Propagation()}

    def _allowed(self, proto: str) -> bool:
        if self.protocol_filter == PROTOCOL_V4_ONLY:
            return proto == V4
        if self.protocol_filter == PROTOCOL_V6_ONLY:
            return proto == V6
        return True

    # -- public entry points --------------------------------------------------

    def resolve_chain(self, target: DomainName | str,
                      enrich_result: bool = False,
                      probe_liveness: bool = False) -> ChainResult:
        target = normalize(target)
        if target.is_root:  # no hint is ever probed for it, so no verdict holds
            raise DnsNameError("the root is not a delegation to check")
        if len(target) > DEPTH_LIMIT:
            raise DepthLimitExceeded(str(target))
        chain = _run(self._walk(target))
        while self._stale:
            self._again(min(self._stale))
            if not self._stale:
                chain = _run(self._walk(target))
        self._propagate()
        deepest = chain[-1]
        steps = [self._step(info) for info in chain[1:]]  # the root is not a delegation
        status = steps[-1].status if steps else self._root_status()
        result = ChainResult(target, self.protocol_filter, steps, status)
        if enrich_result and deepest.zone != ROOT:
            result.enrichment = self.enrich(deepest.zone, deepest.servers)
        if probe_liveness:
            for ns in sorted(deepest.parent_ns | (deepest.child_ns or frozenset())):
                addrs = self._known_addrs(deepest, ns)
                result.liveness.extend(
                    self.probe_ns_liveness(ns, addrs, deepest.zone))
        return result

    # -- the crawl: evidence only ---------------------------------------------

    def _walk(self, target: DomainName):
        """Generator: the zones from the root down to the deepest zone enclosing
        ``target``, each found one gathered first; it stops early at a zone
        with no servers, such as one still in its first gather."""
        current = self._zones[ROOT]
        chain = [current]
        for cand in enclosing_zones(target)[1:]:
            info = self._zones.get(cand)
            if info is None:
                info = _ZoneInfo(cand, current.zone)
                if not self._probe(current, info):
                    continue  # no cut at this boundary, keep descending
                self._zones[cand] = info
                self._found.append(info)
                self._readers[current.zone].add(cand)
                if not info.silent:
                    yield self._gather(info)
                    if info.servers:  # it had none while its readers read it
                        self._stale.update(self._readers.pop(cand, ()))
            chain.append(info)
            current = info
            if not info.servers:
                break  # nothing answered for this zone; cannot descend further
        return chain

    def _again(self, zone: DomainName) -> None:
        """Probe a stale zone at its parent and gather it again, or drop it
        where the parent's servers changed and now deny the cut. Its readers
        go stale in turn only if its servers changed and an address was
        filed that no gather filed before: those are finite, so repeats end."""
        self._stale.remove(zone)
        info = self._zones.get(zone)
        if info is None:
            return  # dropped after it went stale
        servers, filed = info.servers, len(self._filed)
        parent = self._zones.get(info.parent_zone)
        if parent is None or not self._probe(parent, info):
            del self._zones[zone]
            self._stale.update(self._readers.pop(zone, ()))
            return
        self._readers[parent.zone].add(zone)
        if not info.silent:
            _run(self._gather(info))
            if info.servers != servers and len(self._filed) > filed:
                self._stale.update(self._readers.pop(zone, ()))

    def _root_info(self) -> _ZoneInfo:
        info = _ZoneInfo(ROOT, None, frozenset(name for name, _, _ in self.hints))
        by_name: dict[DomainName, dict[str, list[str]]] = {}
        for name, proto, addr in self.hints:
            by_name.setdefault(name, {V4: [], V6: []})[proto].append(addr)
        for name in sorted(by_name):
            addrs = by_name[name]
            info.addrs[(name, ROOT)] = AddrRecords(frozenset(addrs[V4]),
                                                   frozenset(addrs[V6]))
            for proto in (V4, V6):
                if not self._allowed(proto):
                    continue
                for addr in sorted(addrs[proto]):
                    info.servers.append((name, ServerAddress(addr)))
        return info

    @staticmethod
    def _note(info: _ZoneInfo, ns: DomainName, addr: ServerAddress, outcome) -> bool:
        """Record one query that gathers ``info``'s evidence; True if answered."""
        info.queried.append((addr.ip, addr.protocol, outcome.kind))
        answered = outcome.kind == RESPONSE
        key = (ns, addr.protocol)
        info.answers[key] = answered or info.answers.get(key, False)
        return answered

    def _query_layer(self, servers, qname, qtype):
        """Query (qname, qtype) at every server of a layer, joining before
        anything descends."""
        for _ns, addr in servers:
            if not self._allowed(addr.protocol):
                raise PolicyViolation(f"{addr} violates {self.protocol_filter}")
        return [((ns, addr), self.engine.query(addr, qname, qtype))
                for ns, addr in servers]

    def _probe(self, parent: _ZoneInfo, info: _ZoneInfo) -> bool:
        """File what the parent's servers serve for the NS query of
        ``info.zone``; False if they answered and there is no cut. If none
        answered, nothing below the parent can be reached through the name:
        it is a silent zone, whose step lists the unanswered probes. Each
        reply is read once (``_read_ns_layer``), but its out-of-zone
        additionals are kept once per answering server."""
        targets: set[DomainName] = set()
        glue: list[ResourceRecord] = []
        strays: list[ResourceRecord] = []
        probes = []
        for (_ns, addr), outcome, found, new_glue, stray in self._read_ns_layer(
                parent.servers, info.zone):
            probes.append((addr.ip, addr.protocol, outcome.kind))
            if outcome.kind != RESPONSE:
                continue
            if parent.zone == ROOT:
                self._root_answered.add(addr.protocol)
            targets |= found
            glue.extend(new_glue)
            strays.extend(stray)
        if parent.zone == ROOT and not self._root_answered:
            raise RootUnreachable("no root server answered")
        silent = all(kind != RESPONSE for _ip, _proto, kind in probes)
        if not (targets or silent):
            return False
        info.parent_ns, info.out_of_zone, info.silent = frozenset(targets), strays, silent
        if silent:
            info.queried = probes
        info.addrs = {}
        for rr in glue:
            self._note_addr(info, parent.zone, rr)
        return True

    def _note_addr(self, info: _ZoneInfo, bailiwick: DomainName, rr: ResourceRecord) -> None:
        """File the address ``rr`` carries for ``info``."""
        key = (rr.owner, bailiwick)
        info.addrs[key] = info.addrs.get(key, NO_ADDRS).with_record(rr)
        self._filed.add((info.zone, key, rr.data))

    @staticmethod
    def _interpret_ns_reply(msg: DnsMessage, cand: DomainName):
        """Extract the NS set and the in-zone glue records for ``cand`` from
        one reply.

        Additionals whose owner lies outside ``cand`` are returned
        separately: kept for reporting, never trusted for resolution.
        """
        targets = {rr.target for rr in msg.answer + msg.authority
                   if rr.rrtype == RRType.NS and rr.owner == cand}
        glue: list[ResourceRecord] = []
        out_of_zone: list[ResourceRecord] = []
        if targets:
            for rr in msg.additional:
                if rr.rrtype in (RRType.A, RRType.AAAA):
                    (glue if rr.owner.is_within(cand) else out_of_zone).append(rr)
        return targets, glue, out_of_zone

    def _read_ns_layer(self, servers, cand: DomainName):
        """Generator: ask every server of a layer for the NS set of ``cand``
        and yield each ((ns, address), outcome, targets, glue, out_of_zone)
        as ``_interpret_ns_reply`` reads its reply; all three are empty for
        an unanswered query.

        Each distinct reply is read once. The servers of a layer mostly
        send the same bytes, whose decoded sections the engine shares: a
        reply whose sections are the previous reply's own objects yields
        that reply's out-of-zone records again, and no targets or glue. Of
        the glue, only records no earlier reply of the layer carried come,
        so each is filed once per layer.
        """
        last = None
        seen: set[ResourceRecord] = set()
        for server, outcome in self._query_layer(servers, cand, RRType.NS):
            if outcome.kind != RESPONSE:
                yield server, outcome, EMPTY, (), ()
                continue
            msg = outcome.message
            if (last is not None and msg.answer is last.answer
                    and msg.authority is last.authority and msg.additional is last.additional):
                yield server, outcome, EMPTY, (), strays
                continue
            last = msg
            targets, glue, strays = self._interpret_ns_reply(msg, cand)
            new_glue = []
            for rr in glue:
                if rr not in seen:
                    seen.add(rr)
                    new_glue.append(rr)
            yield server, outcome, targets, new_glue, strays

    def _gather(self, info: _ZoneInfo):
        """Generator: contact the zone's own servers for its NS set and the
        addresses of its in-bailiwick NS, each out-of-bailiwick NS looked
        up in its own zone first."""
        info.addrs = {key: a for key, a in info.addrs.items()  # the glue the probe filed
                      if key[1] == info.parent_zone and key[0].is_within(info.zone)}
        info.queried, info.answers, info.hosts, info.cname_ns = [], {}, {}, set()
        contact = yield from self._contact_servers(info, info.parent_ns)
        child_ns = self._child_view(info, contact)
        extra = (child_ns or frozenset()) - info.parent_ns
        if extra:
            # Inconsistent NS sets: the layer's queries run against the
            # child-only servers as well.
            extra_contact = yield from self._contact_servers(info, extra)
            more = self._child_view(info, extra_contact)
            if more is not None:
                child_ns = (child_ns or frozenset()) | more
        info.child_ns = child_ns

        all_ns = info.parent_ns | (info.child_ns or frozenset())
        contact = yield from self._contact_servers(info, all_ns)
        info.servers = contact
        in_bailiwick = sorted(ns for ns in all_ns if ns.is_within(info.zone))
        if contact:
            for ns in in_bailiwick:
                for rrtype in (RRType.A, RRType.AAAA):
                    for rr in self._query_first(contact, ns, rrtype, info):
                        if rr.owner != ns:
                            continue
                        if rr.rrtype == RRType.CNAME:
                            # invalid for NS targets: recorded, never chased
                            info.cname_ns.add(ns)
                        elif rr.rrtype in (RRType.A, RRType.AAAA):
                            self._note_addr(info, info.zone, rr)

    def _child_view(self, info: _ZoneInfo, contact) -> frozenset[DomainName] | None:
        """The NS set the zone's ``contact`` servers serve for it (None if
        no reply named one), filing the in-zone glue of each distinct
        reply once (``_read_ns_layer``)."""
        child_ns: set[DomainName] | None = None
        for (ns, addr), outcome, found, glue, _strays in self._read_ns_layer(contact, info.zone):
            if not self._note(info, ns, addr, outcome):
                continue
            if found:
                child_ns = (child_ns or set()) | found
            for rr in glue:
                self._note_addr(info, info.zone, rr)
        return frozenset(child_ns) if child_ns is not None else None

    def _query_first(self, contact, qname, rrtype,
                     info: _ZoneInfo | None = None) -> list[ResourceRecord]:
        """Ask servers in order until one responds; returns its answers.
        The queries gather ``info``'s evidence, if it is given."""
        for ns, addr in contact:
            outcome = self.engine.query(addr, qname, rrtype)
            if info is not None:
                self._note(info, ns, addr, outcome)
            if outcome.kind == RESPONSE:
                return list(outcome.message.answer)
        return []

    def _contact_servers(self, info: _ZoneInfo, ns_names):
        """Generator: one address per (NS, protocol), from glue, apex or
        host-zone evidence, in deterministic order. An out-of-bailiwick name
        is looked up where a walk to it ends, the first time it is met: in its
        own zone, or in none while the walk stops at a zone with no servers."""
        out = []
        seen = set()
        for ns in sorted(ns_names):
            if not ns.is_within(info.zone) and ns not in info.hosts:
                host = (yield self._walk(ns))[-1]
                info.hosts[ns] = host.zone
                self._readers[host.zone].add(info.zone)
                for rrtype in (RRType.A, RRType.AAAA):
                    for rr in self._query_first(host.servers, ns, rrtype):
                        if rr.owner == ns and rr.rrtype in (RRType.A, RRType.AAAA):
                            self._note_addr(info, host.zone, rr)
            addrs = self._known_addrs(info, ns)
            for proto in (V4, V6):
                if not self._allowed(proto):
                    continue
                pool = sorted(addrs.for_protocol(proto))
                if not pool:
                    continue
                addr = ServerAddress(pool[0])
                if addr in seen:
                    continue
                seen.add(addr)
                out.append((ns, addr))
        return out

    def _known_addrs(self, info: _ZoneInfo, ns: DomainName) -> AddrRecords:
        merged = AddrRecords()
        for (name, _bw), addrs in info.addrs.items():
            if name == ns:
                merged = merged.merged(addrs)
        return merged

    # -- verdicts ----------------------------------------------------------------

    def _propagate(self) -> None:
        """Feed the clauses of the zones found after the last call to the
        propagations. A crawl ends with every zone it found, and every zone
        those depend on, gathered, so the verdicts then are final.

        Nothing is stale here, and a fed zone never is again: a zone goes
        stale only when one it read changes, and changes only when found or
        stale, so every change starts at a zone found in the current call,
        which only zones gathered in that call have read."""
        new: dict[str, list] = {V4: [], V6: []}
        for info in self._found[self._fed:]:
            if not info.silent and self._zones.get(info.zone) is info:
                for proto, clauses in zone_clauses(info.record_set(), info.parent_zone,
                                                   info.ns_zones(), info.answers).items():
                    if clauses is not None:
                        new[proto].append((info.zone, clauses))
        self._fed = len(self._found)
        for proto, propagation in self._propagations.items():
            if proto in self._root_answered:  # the root resolves over it
                propagation.resolved.add(ROOT)
            propagation.propagate(new[proto])

    def _resolves(self, zone: DomainName, proto: str) -> bool:
        return zone in self._propagations[proto].resolved

    def _root_status(self) -> ResolutionStatus:
        v4, v6 = (self._resolves(ROOT, proto) for proto in (V4, V6))
        return ResolutionStatus(v4, v6, intent_v6=True)

    def _step(self, info: _ZoneInfo) -> DelegationStep:
        """The step of a zone below the root, built by the first chain that
        reports it, after ``_propagate``: its evidence and verdicts are final
        then, so every later chain shares the step, and its lists, as is."""
        if info.step is None:
            record_set = info.record_set()
            if info.silent:
                names = {str(ns) for ns, _addr in self._zones[info.parent_zone].servers}
                silent = FailureCause(CAUSE_NS_UNRESPONSIVE, tuple(sorted(names)))
                status = ResolutionStatus(False, False, False, frozenset({silent}))
            else:
                status = classify(record_set, info.ns_zones(), self._resolves, info.answers)
            info.step = DelegationStep(
                info.zone, info.parent_ns, info.child_ns, _own_addresses(record_set)[0],
                info.queried, frozenset(info.cname_ns), tuple(info.out_of_zone), status)
        return info.step

    # -- enrichment and liveness ---------------------------------------------

    def enrich(self, zone: DomainName, servers: list[tuple[DomainName, ServerAddress]]):
        """NS and SOA answers per server.

        Disagreements between servers are preserved per server address.
        """
        enrichment: dict[str, dict[str, list[str]]] = {}
        for rrtype in (RRType.NS, RRType.SOA):
            per_server: dict[str, list[str]] = {}
            for _ns, addr in servers:
                outcome = self.engine.query(addr, zone, rrtype)
                if outcome.kind != RESPONSE:
                    per_server[addr.ip] = [f"<{outcome.kind}>"]
                    continue
                per_server[addr.ip] = sorted(
                    record_text(rr) for rr in outcome.message.answer
                    if rr.rrtype == rrtype
                )
            enrichment[str(rrtype)] = per_server
        return enrichment

    def probe_ns_liveness(self, ns: DomainName, addrs: AddrRecords,
                          zone: DomainName) -> list[tuple[str, str, str]]:
        """SOA-probe every address of one NS; unresponsiveness is data.

        Returns (address, protocol, verdict) rows, verdict one of
        responsive/unresponsive/invalid. Unspecified addresses (::,
        0.0.0.0) are rejected before any probe.
        """
        rows = []
        for proto in (V4, V6):
            if not self._allowed(proto):
                continue
            for addr in sorted(addrs.for_protocol(proto)):
                if _invalid_address(addr):
                    rows.append((addr, proto, "invalid"))
                    continue
                outcome = self.engine.query(ServerAddress(addr), zone, RRType.SOA)
                rows.append((addr, proto,
                             "responsive" if outcome.kind == RESPONSE else "unresponsive"))
        return rows


def _invalid_address(addr: str) -> bool:
    try:
        parsed = ipaddress.ip_address(addr)
    except ValueError:
        return True
    return parsed.is_unspecified
