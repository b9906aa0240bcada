"""Iterative, root-anchored resolution of full delegation chains.

The walk starts at the root and probes one NS query per label boundary
(QNAME-minimized: only the boundary name is ever sent upward), inferring
zone cuts from referrals without relying on NXDOMAIN. Glue is captured
from additional sections, parent and child NS sets are both recorded, and
out-of-bailiwick NS names trigger subordinate walks from the root.

Per-protocol verdicts come from the record-model kernel (the same
two-view conjunction the passive path uses; reaching a server through glue
is not enough when validating resolvers would reject the delegation), fed
with which NS answered over each protocol. The root's status comes from the
hints that answered, and every zone's status flows down as its children's
parent status, so a verdict covers the whole delegation chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .classify import (CAUSE_NS_UNRESPONSIVE, STATE_NONE, FailureCause, NsContext,
                       ResolutionStatus, classify, state_of)
from .names import ROOT, DomainName, enclosing_zones, normalize
from .query import QueryEngine, ServerAddress, RESPONSE
from .records import (
    AddrRecords,
    CLASS_CH,
    ResourceRecord,
    RRType,
    V4,
    V6,
    ZoneRecordSet,
)
from .wire import DnsMessage, RCODE_NOERROR

PROTOCOL_BOTH = "both"
PROTOCOL_V4_ONLY = "v4-only"
PROTOCOL_V6_ONLY = "v6-only"


class RootUnreachable(Exception):
    pass


class DepthLimitExceeded(Exception):
    pass


class PolicyViolation(AssertionError):
    """Internal invariant broke: a query escaped the protocol filter."""


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
    """Whitespace-separated (name, protocol, address) lines; '#' comments."""
    hints = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3 or parts[1] not in (V4, V6):
            raise ValueError(f"bad root hints line: {raw!r}")
        hints.append((normalize(parts[0]), parts[1], parts[2]))
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
    cname_ns: frozenset[DomainName] = frozenset()
    out_of_zone: tuple[ResourceRecord, ...] = ()
    status: ResolutionStatus | None = None


@dataclass
class ChainResult:
    target: DomainName
    protocol_filter: str
    steps: list[DelegationStep]
    status: ResolutionStatus
    enrichment: dict[str, dict[str, list[str]]] = field(default_factory=dict)
    server_version: dict[str, str] = field(default_factory=dict)
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
        return {
            "format": "chain-result",
            "version": 3,
            "target": str(self.target),
            "protocol_filter": self.protocol_filter,
            "state": self.state,
            "v4_resolvable": self.v4_resolvable,
            "v6_resolvable": self.v6_resolvable,
            "intent_v6": self.status.intent_v6,
            "causes": sorted(self.status.causes),
            "cause_witnesses": {
                f.cause: list(f.witnesses)
                for f in sorted(self.status.v6_failures, key=lambda f: f.cause)
            },
            "steps": [
                {
                    "zone": str(s.zone),
                    "parent_ns": sorted(str(n) for n in s.parent_ns_set),
                    "child_ns": (sorted(str(n) for n in s.child_ns_set)
                                 if s.child_ns_set is not None else None),
                    "glue": {
                        str(ns): {"v4": sorted(a.v4), "v6": sorted(a.v6)}
                        for ns, a in sorted(s.glue.items(), key=lambda kv: str(kv[0]))
                    },
                    "queried": [list(q) for q in s.queried_servers],
                    "cname_ns": sorted(str(n) for n in s.cname_ns),
                    "out_of_zone_additionals": [
                        f"{rr.owner} {rr.rrtype} {rr.address}"
                        for rr in s.out_of_zone
                    ],
                    "state": s.status.state if s.status else None,
                    "causes": sorted(s.status.causes) if s.status else [],
                }
                for s in self.steps
            ],
            "enrichment": self.enrichment,
            "server_version": self.server_version,
            "liveness": [list(entry) for entry in self.liveness],
        }


@dataclass
class _ZoneInfo:
    zone: DomainName
    parent_zone: DomainName | None
    parent_ns: frozenset[DomainName]
    child_ns: frozenset[DomainName] | None = None
    glue: dict[DomainName, AddrRecords] = field(default_factory=dict)
    apex: dict[DomainName, AddrRecords] = field(default_factory=dict)
    sub_addrs: dict[DomainName, tuple[DomainName, AddrRecords]] = field(default_factory=dict)
    contexts: dict[DomainName, NsContext] = field(default_factory=dict)
    queried: list[tuple[str, str, str]] = field(default_factory=list)
    answers: dict[tuple[DomainName, str], bool] = field(default_factory=dict)
    status: ResolutionStatus | None = None
    servers: list[tuple[DomainName, ServerAddress]] = field(default_factory=list)
    taint: frozenset[DomainName] = frozenset()
    cname_ns: set[DomainName] = field(default_factory=set)
    out_of_zone: list[ResourceRecord] = field(default_factory=list)

    def record_set(self) -> ZoneRecordSet:
        ns_by_bw: dict[DomainName, frozenset[DomainName]] = {}
        if self.parent_zone is not None:
            ns_by_bw[self.parent_zone] = self.parent_ns
        else:
            ns_by_bw[self.zone] = self.parent_ns
        if self.child_ns is not None:
            ns_by_bw[self.zone] = self.child_ns
        addrs: dict[tuple[DomainName, DomainName], AddrRecords] = {}
        if self.parent_zone is not None:
            for ns, a in self.glue.items():
                if not a.empty:
                    addrs[(ns, self.parent_zone)] = a
        for ns, a in self.apex.items():
            if not a.empty:
                key = (ns, self.zone)
                addrs[key] = addrs.get(key, AddrRecords()).merged(a)
        for ns, (host_zone, a) in self.sub_addrs.items():
            if not a.empty:
                key = (ns, host_zone)
                addrs[key] = addrs.get(key, AddrRecords()).merged(a)
        return ZoneRecordSet(self.zone, ns_by_bw, addrs)


class Resolver:
    """Walks delegation chains against a query engine.

    One resolver instance represents one measurement run: discovered zone
    cuts are memoized, so bulk scans and subordinate walks share work on
    top of the engine's response cache. A zone evaluated while one of its
    dependencies was itself mid-resolution is marked tainted and re-walked
    the next time it is needed outside that cycle; the response cache makes
    the second pass nearly free.
    """

    def __init__(
        self,
        engine: QueryEngine,
        root_hints: list[tuple[DomainName, str, str]] | None = None,
        protocol_filter: str = PROTOCOL_BOTH,
        depth_limit: int = 32,
        subresolution_limit: int = 16,
        server_port: int = 53,
    ):
        self.engine = engine
        self.hints = root_hints or default_root_hints()
        self.protocol_filter = protocol_filter
        self.depth_limit = depth_limit
        self.subresolution_limit = subresolution_limit
        self.server_port = server_port
        self._zones: dict[DomainName, _ZoneInfo] = {}
        self._active: set[DomainName] = set()

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
        chain = self._walk(target)
        deepest = chain[-1]
        steps = [
            DelegationStep(
                zone=info.zone,
                parent_ns_set=info.parent_ns,
                child_ns_set=info.child_ns,
                glue=dict(info.glue),
                queried_servers=list(info.queried),
                cname_ns=frozenset(info.cname_ns),
                out_of_zone=tuple(info.out_of_zone),
                status=info.status,
            )
            for info in chain[1:]  # the root is not a delegation
        ]
        result = ChainResult(target, self.protocol_filter, steps, deepest.status)
        if enrich_result and deepest.zone != ROOT:
            result.enrichment, result.server_version = self.enrich(
                deepest.zone, deepest.servers)
        if probe_liveness:
            for ns in sorted(deepest.parent_ns | (deepest.child_ns or frozenset())):
                addrs = self._known_addrs(deepest, ns)
                result.liveness.extend(
                    self.probe_ns_liveness(ns, addrs, deepest.zone))
        return result

    # -- the walk ----------------------------------------------------------------

    def _walk(self, target: DomainName) -> list[_ZoneInfo]:
        root = self._root_info()
        chain = [root]
        current = root
        boundaries = enclosing_zones(target)[1:]
        if len(boundaries) > self.depth_limit:
            raise DepthLimitExceeded(str(target))
        for cand in boundaries:
            info = self._zones.get(cand)
            if info is not None and info.taint and cand not in self._active:
                # Walk a zone again once its blockers have unwound, and also
                # when a cycle cut may have made it fail: a False reached
                # through a cut need not hold on the current path.
                status = info.status
                if not (info.taint & self._active) or not (status.v4 and status.v6):
                    del self._zones[cand]
                    info = None
            if info is None:
                info = self._discover_cut(current, cand)
                if info is None:
                    continue  # no cut at this boundary, keep descending
            chain.append(info)
            current = info
            if not info.servers:
                break  # nothing answered for this zone; cannot descend further
        return chain

    def _root_info(self) -> _ZoneInfo:
        info = self._zones.get(ROOT)
        if info is not None:
            return info
        info = _ZoneInfo(ROOT, None, frozenset(name for name, _, _ in self.hints))
        by_name: dict[DomainName, dict[str, list[str]]] = {}
        for name, proto, addr in self.hints:
            by_name.setdefault(name, {V4: [], V6: []})[proto].append(addr)
        for name in sorted(by_name):
            addrs = by_name[name]
            info.apex[name] = AddrRecords(frozenset(addrs[V4]), frozenset(addrs[V6]))
            for proto in (V4, V6):
                if not self._allowed(proto):
                    continue
                for addr in sorted(addrs[proto]):
                    info.servers.append((name, ServerAddress(addr, self.server_port)))
        info.status = _root_status(info)
        self._zones[ROOT] = info
        return info

    @staticmethod
    def _note(info: _ZoneInfo, ns: DomainName, addr: ServerAddress, outcome,
              own: bool = True) -> bool:
        """Record one query to a server of ``info``; True if it answered.
        Only ``own`` queries, which gather ``info``'s evidence, go into
        ``info.queried``, so that list is final once the zone is found."""
        if own:
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

    def _discover_cut(self, parent: _ZoneInfo, cand: DomainName) -> _ZoneInfo | None:
        """Probe the parent's servers for a delegation at ``cand``."""
        targets: set[DomainName] = set()
        glue: dict[DomainName, AddrRecords] = {}
        strays: list[ResourceRecord] = []
        answered = False
        probes = []
        for (ns, addr), outcome in self._query_layer(parent.servers, cand, RRType.NS):
            probes.append((addr.ip, addr.protocol, outcome.kind))
            if not self._note(parent, ns, addr, outcome, own=False):
                continue
            answered = True
            found, new_glue, stray = self._interpret_ns_reply(outcome.message, cand)
            targets |= found
            strays.extend(stray)
            for g_ns, g_addrs in new_glue.items():
                glue[g_ns] = glue.get(g_ns, AddrRecords()).merged(g_addrs)
        if parent.zone == ROOT:
            if not any(parent.answers.values()):
                raise RootUnreachable("no root server answered")
            parent.status = _root_status(parent)
        if answered and not targets:
            return None  # no cut at this boundary
        info = _ZoneInfo(zone=cand, parent_zone=parent.zone, parent_ns=frozenset(targets),
                         glue=glue, taint=parent.taint, out_of_zone=strays)
        self._zones[cand] = info
        if not answered:
            # No server of the parent answered: whether or not ``cand`` is
            # a zone, nothing below the parent can be reached through it.
            silent = FailureCause(CAUSE_NS_UNRESPONSIVE, tuple(sorted(
                {str(ns) for ns, _addr in parent.servers})))
            info.status = ResolutionStatus(STATE_NONE, False, False, False,
                                           frozenset({silent}))
            info.queried = probes  # the unanswered probes are this step's evidence
            return info
        self._active.add(cand)
        try:
            self._gather_zone_evidence(info)
        except BaseException:
            del self._zones[cand]
            raise
        finally:
            self._active.discard(cand)
        info.status = classify(info.record_set(), parent.status, info.contexts,
                               info.answers)
        return info

    @staticmethod
    def _interpret_ns_reply(msg: DnsMessage, cand: DomainName):
        """Extract the NS set and in-zone glue for ``cand`` from one reply.

        Additionals whose owner lies outside ``cand`` are returned
        separately: kept for reporting, never trusted for resolution.
        """
        targets: set[DomainName] = set()
        for rr in msg.answer + msg.authority:
            if rr.rrtype == RRType.NS and rr.owner == cand:
                targets.add(rr.target)
        glue: dict[DomainName, AddrRecords] = {}
        out_of_zone: list[ResourceRecord] = []
        if targets:
            for rr in msg.additional:
                if rr.rrtype not in (RRType.A, RRType.AAAA):
                    continue
                if not rr.owner.is_within(cand):
                    out_of_zone.append(rr)
                    continue
                glue[rr.owner] = glue.get(rr.owner, AddrRecords()).with_record(rr)
        return targets, glue, out_of_zone

    def _gather_zone_evidence(self, info: _ZoneInfo) -> None:
        """Contact the zone's own servers: child NS view, apex addresses,
        and subordinate walks for out-of-bailiwick NS names."""
        contact = self._contact_servers(info, info.parent_ns)
        child_ns = self._child_view(info, contact)
        extra = (child_ns or frozenset()) - info.parent_ns
        if extra:
            # Inconsistent NS sets: the layer's queries run against the
            # child-only servers as well.
            extra_contact = self._contact_servers(info, extra)
            more = self._child_view(info, extra_contact)
            if more is not None:
                child_ns = (child_ns or frozenset()) | more
        info.child_ns = child_ns

        all_ns = info.parent_ns | (info.child_ns or frozenset())
        contact = self._contact_servers(info, all_ns)
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
                            self._note_apex(info, rr)

    def _child_view(self, info: _ZoneInfo, contact) -> frozenset[DomainName] | None:
        child_ns: set[DomainName] | None = None
        for (ns, addr), outcome in self._query_layer(contact, info.zone, RRType.NS):
            if not self._note(info, ns, addr, outcome):
                continue
            msg = outcome.message
            found = {rr.target for rr in msg.answer + msg.authority
                     if rr.rrtype == RRType.NS and rr.owner == info.zone}
            if found:
                child_ns = (child_ns or set()) | found
            for rr in msg.additional:
                if rr.rrtype in (RRType.A, RRType.AAAA) and rr.owner.is_within(info.zone):
                    self._note_apex(info, rr)
        return frozenset(child_ns) if child_ns is not None else None

    def _query_first(self, contact, qname, rrtype, info: _ZoneInfo,
                     own: bool = True) -> list[ResourceRecord]:
        """Ask servers in order until one responds; returns its answers."""
        for ns, addr in contact:
            outcome = self.engine.query(addr, qname, rrtype)
            if self._note(info, ns, addr, outcome, own):
                return list(outcome.message.answer)
        return []

    def _note_apex(self, info: _ZoneInfo, rr: ResourceRecord) -> None:
        info.apex[rr.owner] = info.apex.get(rr.owner, AddrRecords()).with_record(rr)

    def _contact_servers(self, info: _ZoneInfo, ns_names) -> list[tuple[DomainName, ServerAddress]]:
        """One address per (NS, protocol), from glue, apex or subordinate
        evidence, in deterministic order. An out-of-bailiwick name is
        walked the first time it is met."""
        out = []
        seen = set()
        for ns in sorted(ns_names):
            if not ns.is_within(info.zone) and ns not in info.contexts:
                self._resolve_ns_reference(info, ns)
            addrs = self._known_addrs(info, ns)
            for proto in (V4, V6):
                if not self._allowed(proto):
                    continue
                pool = sorted(addrs.for_protocol(proto))
                if not pool:
                    continue
                addr = ServerAddress(pool[0], self.server_port)
                if addr in seen:
                    continue
                seen.add(addr)
                out.append((ns, addr))
        return out

    def _known_addrs(self, info: _ZoneInfo, ns: DomainName) -> AddrRecords:
        merged = AddrRecords()
        if ns in info.glue:
            merged = merged.merged(info.glue[ns])
        if ns in info.apex:
            merged = merged.merged(info.apex[ns])
        if ns in info.sub_addrs:
            merged = merged.merged(info.sub_addrs[ns][1])
        return merged

    def _resolve_ns_reference(self, info: _ZoneInfo, ns: DomainName) -> None:
        """Subordinate walk, from the root, for an out-of-bailiwick NS name."""
        if len(self._active) > self.subresolution_limit:
            blockers = set(self._active)
        else:
            blockers = {cand for cand in enclosing_zones(ns)[1:] if cand in self._active}
        if blockers:
            info.contexts[ns] = NsContext(zone=None, zone_known=False)
            info.taint = info.taint | frozenset(blockers)
            return
        chain = self._walk(ns)
        host = chain[-1]
        if host.zone == ROOT:
            info.contexts[ns] = NsContext(zone=ROOT, zone_known=False)
            return
        info.taint = info.taint | host.taint
        addrs = AddrRecords()
        if host.servers:
            for rrtype in (RRType.A, RRType.AAAA):
                for rr in self._query_first(host.servers, ns, rrtype, host, own=False):
                    if rr.owner == ns and rr.rrtype in (RRType.A, RRType.AAAA):
                        addrs = addrs.with_record(rr)
        info.sub_addrs[ns] = (host.zone, addrs)
        info.contexts[ns] = NsContext(
            zone=host.zone,
            zone_known=True,
            v4=host.status.v4,
            v6=host.status.v6,
            has_addr_v4=bool(addrs.v4),
            has_addr_v6=bool(addrs.v6),
        )

    # -- enrichment and liveness ---------------------------------------------

    def enrich(self, zone: DomainName, servers: list[tuple[DomainName, ServerAddress]]):
        """NS/TXT/SOA/MX answers per server, plus CHAOS-class version text.

        Disagreements between servers are preserved per server address.
        """
        enrichment: dict[str, dict[str, list[str]]] = {}
        versions: dict[str, str] = {}
        for rrtype in (RRType.NS, RRType.TXT, RRType.SOA, RRType.MX):
            per_server: dict[str, list[str]] = {}
            for _ns, addr in servers:
                outcome = self.engine.query(addr, zone, rrtype)
                if outcome.kind != RESPONSE:
                    per_server[addr.ip] = [f"<{outcome.kind}>"]
                    continue
                per_server[addr.ip] = sorted(
                    _record_text(rr) for rr in outcome.message.answer
                    if rr.rrtype == rrtype
                )
            enrichment[str(rrtype)] = per_server
        version_name = normalize("version.bind")
        for _ns, addr in servers:
            outcome = self.engine.query(addr, version_name, RRType.TXT, CLASS_CH)
            if outcome.kind == RESPONSE and outcome.message.rcode == RCODE_NOERROR:
                chunks = [
                    b"".join(rr.data).decode("utf-8", "replace")
                    for rr in outcome.message.answer
                    if rr.rrtype == RRType.TXT
                ]
                if chunks:
                    versions[addr.ip] = chunks[0]
        return enrichment, versions

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
                outcome = self.engine.query(ServerAddress(addr, self.server_port),
                                            zone, RRType.SOA)
                rows.append((addr, proto,
                             "responsive" if outcome.kind == RESPONSE else "unresponsive"))
        return rows


def _root_status(root: _ZoneInfo) -> ResolutionStatus:
    """The root resolves over a protocol once a hint answered over it."""
    ok = [any(root.answers.get((ns, proto), False) for ns in root.parent_ns)
          for proto in (V4, V6)]
    return ResolutionStatus(state_of(*ok), ok[0], ok[1], intent_v6=True)


def _invalid_address(addr: str) -> bool:
    import ipaddress

    try:
        parsed = ipaddress.ip_address(addr)
    except ValueError:
        return True
    return parsed.is_unspecified


def _record_text(rr: ResourceRecord) -> str:
    if rr.rrtype in (RRType.NS, RRType.CNAME):
        return str(rr.target)
    if rr.rrtype in (RRType.A, RRType.AAAA):
        return rr.address
    if rr.rrtype == RRType.SOA:
        soa = rr.data
        return (f"{soa.mname} {soa.rname} {soa.serial} {soa.refresh} "
                f"{soa.retry} {soa.expire} {soa.minimum}")
    if rr.rrtype == RRType.MX:
        return f"{rr.data.preference} {rr.data.exchange}"
    if rr.rrtype == RRType.TXT:
        return b" ".join(rr.data).decode("utf-8", "replace")
    return rr.data.hex() if isinstance(rr.data, bytes) else str(rr.data)

