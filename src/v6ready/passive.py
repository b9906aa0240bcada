"""Passive-data ingestion and the fixed-point resolvability simulation.

Input tuples follow the seven-field observation shape (count, time_first,
time_last, rrname, rrtype, bailiwick, rdata), one record per line in
either tab-separated or JSON form, optionally gzip-compressed. The root
zone is assumed resolvable over both protocols; every other zone must be
reached through a delegating parent that resolves first, which makes the
computation an iterative fixed point.
"""

from __future__ import annotations

import gzip
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator

from .classify import NsContext, ResolutionStatus, explain, failure_breakdown
from .names import ROOT, DnsNameError, DomainName, normalize
from .records import (
    AddrRecords,
    RRType,
    V4,
    V6,
    ZoneRecordSet,
    address_protocol,
    canonical_address,
)


class MalformedTuple(ValueError):
    pass


@dataclass(frozen=True)
class PassiveTuple:
    count: int
    time_first: int
    time_last: int
    rrname: DomainName
    rrtype: RRType
    bailiwick: DomainName
    rdata: tuple[str, ...]

    def __post_init__(self):
        if self.count < 1:
            raise MalformedTuple("count must be >= 1")
        if self.time_first > self.time_last:
            raise MalformedTuple("time_first after time_last")
        if not self.rdata:
            raise MalformedTuple("empty rdata")


@dataclass
class IngestStats:
    tuples: int = 0
    malformed: int = 0
    cname_skipped: int = 0


def _parse_name(text, names: dict[str, DomainName]) -> DomainName:
    """``normalize(text)``, parsed once per distinct text; a failure is
    raised again on every call, never memoised."""
    name = names.get(text)
    if name is None:
        name = names[text] = normalize(text)
    return name


def tuple_from_fields(count, time_first, time_last, rrname, rrtype, bailiwick,
                      rdata, names: dict[str, DomainName] | None = None) -> PassiveTuple:
    """One validated tuple; ``names`` maps raw name text to names already
    parsed, and is shared across the calls of one stream. Every rdata value
    must be text."""
    names = {} if names is None else names
    try:
        if not all(isinstance(v, str) for v in rdata):
            raise TypeError("rdata values must be strings")
        return PassiveTuple(
            count=int(count),
            time_first=int(time_first),
            time_last=int(time_last),
            rrname=_parse_name(rrname, names),
            rrtype=rrtype if isinstance(rrtype, RRType) else RRType.from_text(str(rrtype)),
            bailiwick=_parse_name(bailiwick, names),
            rdata=tuple(rdata),
        )
    except (ValueError, TypeError, OverflowError) as exc:
        raise MalformedTuple(str(exc)) from exc


def _parse_tsv_line(line: str, names: dict[str, DomainName]) -> PassiveTuple:
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 7:
        raise MalformedTuple(f"expected 7 tab-separated fields, got {len(parts)}")
    rdata = [v for v in parts[6].split(",") if v]
    return tuple_from_fields(parts[0], parts[1], parts[2], parts[3], parts[4],
                             parts[5], rdata, names)


def _parse_json_line(line: str, names: dict[str, DomainName]) -> PassiveTuple:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedTuple(str(exc)) from exc
    if not isinstance(obj, dict):
        raise MalformedTuple("JSON record must be an object")
    try:
        rdata = obj["rdata"]
        if not isinstance(rdata, list):
            # a string would otherwise be read one character per value
            raise MalformedTuple("rdata must be a JSON list")
        return tuple_from_fields(
            obj["count"], obj["time_first"], obj["time_last"], obj["rrname"],
            obj["rrtype"], obj["bailiwick"], rdata, names,
        )
    except KeyError as exc:
        raise MalformedTuple(f"missing field {exc}") from exc


def open_tuple_stream(path: str | Path) -> IO[str]:
    raw = open(path, "rb")
    head = raw.read(2)
    raw.seek(0)
    if head == b"\x1f\x8b":
        return io.TextIOWrapper(gzip.GzipFile(fileobj=raw), encoding="utf-8")
    return io.TextIOWrapper(raw, encoding="utf-8")


def iter_tuples(lines: Iterable[str], stats: IngestStats | None = None) -> Iterator[PassiveTuple]:
    """Parse tuple lines, auto-detecting JSON vs TSV from the first record.

    Malformed lines are counted and skipped; the stream never aborts.
    """
    stats = stats if stats is not None else IngestStats()
    parser = None
    names: dict[str, DomainName] = {}
    for line in lines:
        if not line.strip():
            continue
        if parser is None:
            parser = _parse_json_line if line.lstrip().startswith("{") else _parse_tsv_line
        try:
            t = parser(line, names)
        except MalformedTuple:
            stats.malformed += 1
            continue
        stats.tuples += 1
        yield t


@dataclass
class IngestResult:
    record_sets: dict[DomainName, ZoneRecordSet]
    orphan_addresses: dict[DomainName, AddrRecords]


def ingest(tuples: Iterable[PassiveTuple], stats: IngestStats | None = None) -> IngestResult:
    """Build per-zone record sets from one monthly aggregate.

    NS targets are grouped by the responding bailiwick; A/AAAA records are
    grouped per (name, bailiwick) and attached to every zone that lists the
    name as an NS. CNAME tuples are skipped; names with addresses but no NS
    role are retained as orphans.
    """
    stats = stats if stats is not None else IngestStats()
    names: dict[str, DomainName] = {}
    ns_map: dict[DomainName, dict[DomainName, set[DomainName]]] = {}
    addr_map: dict[DomainName, dict[DomainName, tuple[set[str], set[str]]]] = {}
    for t in tuples:
        if t.rrtype == RRType.CNAME:
            stats.cname_skipped += 1
            continue
        if t.rrtype == RRType.NS:
            targets = set()
            ok = True
            for value in t.rdata:
                try:
                    targets.add(_parse_name(value, names))
                except DnsNameError:
                    ok = False
                    break
            if not ok or not targets:
                stats.malformed += 1
                continue
            ns_map.setdefault(t.rrname, {}).setdefault(t.bailiwick, set()).update(targets)
        elif t.rrtype in (RRType.A, RRType.AAAA):
            want = V4 if t.rrtype == RRType.A else V6
            values = []
            ok = True
            for value in t.rdata:
                try:
                    canon = canonical_address(value)
                except (OSError, ValueError):
                    ok = False
                    break
                if address_protocol(canon) != want:
                    ok = False
                    break
                values.append(canon)
            if not ok:
                stats.malformed += 1
                continue
            slot = addr_map.setdefault(t.rrname, {}).setdefault(t.bailiwick, (set(), set()))
            slot[0 if want == V4 else 1].update(values)
        # other rrtypes carry no delegation evidence

    record_sets: dict[DomainName, ZoneRecordSet] = {}
    referenced: set[DomainName] = set()
    for zone, by_bw in ns_map.items():
        all_targets: set[DomainName] = set()
        for targets in by_bw.values():
            all_targets |= targets
        referenced |= all_targets
        addrs: dict[tuple[DomainName, DomainName], AddrRecords] = {}
        for ns in all_targets:
            for bw, (v4s, v6s) in addr_map.get(ns, {}).items():
                addrs[(ns, bw)] = AddrRecords(frozenset(v4s), frozenset(v6s))
        record_sets[zone] = ZoneRecordSet(
            zone=zone,
            ns_by_bailiwick={bw: frozenset(ts) for bw, ts in by_bw.items()},
            addr_by_bailiwick=addrs,
        )
    orphans = {}
    for name, by_bw in addr_map.items():
        if name in referenced:
            continue
        merged = AddrRecords()
        for v4s, v6s in by_bw.values():
            merged = merged.merged(AddrRecords(frozenset(v4s), frozenset(v6s)))
        orphans[name] = merged
    return IngestResult(record_sets, orphans)


# -- fixed point -----------------------------------------------------------


@dataclass
class ZoneVerdict:
    res: dict[str, bool] = field(default_factory=lambda: {V4: False, V6: False})


@dataclass
class ResolutionTable:
    zones: dict[DomainName, ZoneVerdict]
    unknown_parent: frozenset[DomainName]
    sweeps: dict[str, int]
    first_resolved_sweep: dict[tuple[DomainName, str], int]
    # every NS name of the record sets -> the deepest zone enclosing it
    ns_zone: dict[DomainName, DomainName] = field(default_factory=dict)

    def resolvable(self, zone: DomainName, proto: str) -> bool:
        if zone == ROOT:
            return True
        verdict = self.zones.get(zone)
        return bool(verdict and verdict.res[proto])


def _ns_zone_index(record_sets: dict[DomainName, ZoneRecordSet]) -> dict[DomainName, DomainName]:
    """Each NS name of ``record_sets`` -> the deepest zone among them (or the
    root) that encloses it."""
    known = {zone.labels: zone for zone in record_sets}
    index: dict[DomainName, DomainName] = {}
    for rs in record_sets.values():
        for targets in rs.ns_by_bailiwick.values():
            for ns in targets:
                if ns in index:
                    continue
                labels = ns.labels
                for i in range(len(labels)):
                    zone = known.get(labels[i:])
                    if zone is not None:
                        break
                else:
                    zone = ROOT
                index[ns] = zone
    return index


def _unknown_parent_zones(parents: dict[DomainName, DomainName | None]) -> frozenset[DomainName]:
    """Zones that cannot be evaluated: no parent-view observation, a
    delegating zone that was never observed, or an ancestor in that state.
    ``parents`` maps every zone but the root to its delegating zone."""
    base: set[DomainName] = set()
    children: dict[DomainName, list[DomainName]] = {}
    for zone, parent in parents.items():
        if parent is None or (parent.labels and parent not in parents):
            base.add(zone)
        else:
            children.setdefault(parent, []).append(zone)
    # propagate unknownness down the delegation graph
    stack = list(base)
    while stack:
        for child in children.get(stack.pop(), ()):
            if child not in base:
                base.add(child)
                stack.append(child)
    return frozenset(base)


def _own_addresses(rs: ZoneRecordSet) -> tuple[dict[DomainName, AddrRecords], dict[DomainName, AddrRecords]]:
    """(glue, apex): for the names inside the zone, the addresses served
    under a proper ancestor of the zone, and under the zone itself."""
    zone = rs.zone
    depth = len(zone.labels)
    glue: dict[DomainName, AddrRecords] = {}
    apex: dict[DomainName, AddrRecords] = {}
    for (name, bw), addrs in rs.addr_by_bailiwick.items():
        if name.is_within(zone) and zone.is_within(bw):
            if len(bw.labels) < depth:
                glue[name] = glue[name].merged(addrs) if name in glue else addrs
            else:
                apex[name] = addrs
    return glue, apex


_MET = {V4: None, V6: None}


def _view_deps(rs: ZoneRecordSet, view: Iterable[DomainName], own: dict[DomainName, AddrRecords],
               ns_zone: dict[DomainName, DomainName]) -> dict[str, set[DomainName] | None]:
    """Per protocol, the zones any one of which, once resolved, makes some
    NS of ``view`` usable; None where one already is.

    ``own`` holds what the zone's side of the view serves for the names
    inside the zone (glue for the parent view, apex records for the zone
    view). Any NS is also usable through the addresses its enclosing zone
    serves. That is the rule of ``classify.view_flags``, which also rules
    out the zone itself as that enclosing zone: here such a clause waits
    on the zone it belongs to, which cannot resolve before the clause is
    met, so it comes to the same.
    """
    deps: dict[str, set[DomainName] | None] = {V4: set(), V6: set()}
    for ns in view:
        mine = own.get(ns)
        z = ns_zone[ns]
        served = rs.addr_by_bailiwick.get((ns, z))
        for proto in (V4, V6):
            zones = deps[proto]
            if zones is None:
                continue
            if mine is not None and mine.for_protocol(proto):
                deps[proto] = None
            elif served is not None and served.for_protocol(proto):
                if z.labels:
                    zones.add(z)
                else:
                    deps[proto] = None
    return deps


class _Propagation:
    """Counter-based unit propagation over one protocol's clauses. A clause
    is met once any one of its zones resolves; a zone resolves once all of
    its clauses are met."""

    def __init__(self):
        self.unmet: dict[DomainName, int] = {}
        self.clause_zone: list[DomainName] = []  # clause id -> its zone
        self.watchers: dict[DomainName, list[int]] = {}  # zone -> clauses it meets
        self.ready: list[DomainName] = []

    def add(self, zone: DomainName, clauses: list[set[DomainName]]) -> None:
        self.unmet[zone] = len(clauses)
        if not clauses:
            self.ready.append(zone)
        for deps in clauses:
            cid = len(self.clause_zone)
            self.clause_zone.append(zone)
            for dep in deps:
                self.watchers.setdefault(dep, []).append(cid)

    def rounds(self) -> Iterator[list[DomainName]]:
        """The zones that resolve in each round, the first round first."""
        unmet, clause_zone, watchers = self.unmet, self.clause_zone, self.watchers
        met = [False] * len(clause_zone)
        frontier = self.ready
        while frontier:
            yield frontier
            following = []
            for zone in frontier:
                for cid in watchers.get(zone, ()):
                    if not met[cid]:
                        met[cid] = True
                        waiting = clause_zone[cid]
                        unmet[waiting] -= 1
                        if not unmet[waiting]:
                            following.append(waiting)
            frontier = following


def fixed_point(record_sets: dict[DomainName, ZoneRecordSet]) -> ResolutionTable:
    """The least set of zones resolvable per protocol, by counter-based
    unit propagation in frontier rounds (Dowling & Gallier 1984).

    A zone resolves once its delegating parent resolves AND some parent-view
    NS is usable AND, if the zone's own NS set was observed, some zone-view
    NS is usable: three clauses, each met by evidence alone or by any one of
    the zones it depends on. Round ``k`` is the sweep in which a Jacobi
    iteration over the whole table first resolves the zone, and ``sweeps``
    counts the productive sweeps plus the confirming one. Every record set
    is read once, for both protocols.
    """
    parents = {zone: rs.delegating_zone() for zone, rs in record_sets.items() if zone.labels}
    unknown = _unknown_parent_zones(parents)
    ns_zone = _ns_zone_index(record_sets)
    propagations = {V4: _Propagation(), V6: _Propagation()}
    for zone, parent in parents.items():
        if zone in unknown:
            continue
        rs = record_sets[zone]
        glue, apex = _own_addresses(rs)
        parent_deps = _view_deps(rs, rs.ns_parent_view(), glue, ns_zone)
        child_view = rs.ns_child_view()
        zone_deps = _MET if child_view is None else _view_deps(rs, child_view, apex, ns_zone)
        for proto, propagation in propagations.items():
            clauses = [deps for deps in ({parent} if parent.labels else None,
                                         parent_deps[proto], zone_deps[proto])
                       if deps is not None]
            if all(clauses):  # else a clause nothing can meet
                propagation.add(zone, clauses)

    verdicts = {zone: ZoneVerdict() for zone in parents}
    first_resolved: dict[tuple[DomainName, str], int] = {}
    sweeps: dict[str, int] = {}
    for proto, propagation in propagations.items():
        sweep = 0
        for sweep, resolved in enumerate(propagation.rounds(), 1):
            for zone in resolved:
                verdicts[zone].res[proto] = True
                first_resolved[(zone, proto)] = sweep
        # the sweeps also ran a second one when nothing resolved in the first
        sweeps[proto] = max(sweep + 1, 2)

    return ResolutionTable(
        zones=verdicts,
        unknown_parent=unknown,
        sweeps=sweeps,
        first_resolved_sweep=first_resolved,
        ns_zone=ns_zone,
    )


def classify_zones(
    record_sets: dict[DomainName, ZoneRecordSet],
    table: ResolutionTable,
) -> dict[DomainName, ResolutionStatus]:
    """Per-zone statuses: the fixed point's verdicts, with IPv6 intent and
    failure causes.

    ``table`` must come from ``fixed_point(record_sets)``. Zones with
    unknown parentage are omitted (a gap in passive visibility is not
    evidence of breakage).
    """
    resolvable = table.resolvable
    statuses: dict[DomainName, ResolutionStatus] = {}
    for zone, verdict in table.zones.items():
        if zone in table.unknown_parent:
            continue
        rs = record_sets[zone]
        contexts = {}
        for ns in rs.all_ns():
            z = table.ns_zone[ns]
            contexts[ns] = NsContext(z, resolvable(z, V4), resolvable(z, V6))
        statuses[zone] = explain(rs, verdict.res[V4], verdict.res[V6],
                                 resolvable(rs.delegating_zone(), V6), contexts)
    return statuses


# -- aggregate stats --------------------------------------------------------


@dataclass
class SnapshotStats:
    month: str | None
    total: int
    dual: int
    v4_only: int
    v6_only: int
    none: int
    unknown_parent: int
    intent_v6_total: int
    intent_v6_broken: int
    cause_counts: dict[str, int]

    def state_percentage(self, state: str) -> float:
        if not self.total:
            return 0.0
        value = {"dual": self.dual, "v4-only": self.v4_only,
                 "v6-only": self.v6_only, "none": self.none}[state]
        return 100.0 * value / self.total

    def cause_percentage(self, cause: str) -> float:
        if not self.intent_v6_broken:
            return 0.0
        return 100.0 * self.cause_counts.get(cause, 0) / self.intent_v6_broken

    def broken_share_of_intent(self) -> float:
        """Share of zones with IPv6 intent that still fail over IPv6."""
        if not self.intent_v6_total:
            return 0.0
        return 100.0 * self.intent_v6_broken / self.intent_v6_total

    def to_json(self) -> dict:
        return {
            "format": "snapshot-stats",
            "version": 1,
            "month": self.month,
            "total_zones": self.total,
            "states": {
                "dual": self.dual,
                "v4-only": self.v4_only,
                "v6-only": self.v6_only,
                "none": self.none,
            },
            "state_percentages": {
                s: round(self.state_percentage(s), 4)
                for s in ("dual", "v4-only", "v6-only", "none")
            },
            "unknown_parent": self.unknown_parent,
            "intent_v6_total": self.intent_v6_total,
            "intent_v6_broken": self.intent_v6_broken,
            "cause_counts": dict(sorted(self.cause_counts.items())),
            "cause_percentages": {
                c: round(self.cause_percentage(c), 4)
                for c in sorted(self.cause_counts)
            },
        }


def snapshot_stats(
    table: ResolutionTable,
    statuses: dict[DomainName, ResolutionStatus],
    month: str | None = None,
) -> SnapshotStats:
    counts = {"dual": 0, "v4-only": 0, "v6-only": 0, "none": 0}
    intent_total = 0
    for status in statuses.values():
        counts[status.state] += 1
        intent_total += status.intent_v6
    breakdown = failure_breakdown(statuses.values())
    return SnapshotStats(
        month=month,
        total=sum(counts.values()),
        dual=counts["dual"],
        v4_only=counts["v4-only"],
        v6_only=counts["v6-only"],
        none=counts["none"],
        unknown_parent=len(table.unknown_parent),
        intent_v6_total=intent_total,
        intent_v6_broken=breakdown.population,
        cause_counts=dict(breakdown.counts),
    )


VERDICT_FORMAT = {"format": "zone-verdicts", "version": 1}


def write_verdicts(
    out: IO[str],
    record_sets: dict[DomainName, ZoneRecordSet],
    statuses: dict[DomainName, ResolutionStatus],
) -> None:
    """One JSON document per zone, preceded by a format header line."""
    out.write(json.dumps(VERDICT_FORMAT, sort_keys=True) + "\n")
    for zone in sorted(statuses):
        status = statuses[zone]
        rs = record_sets[zone]
        doc = {
            "zone": str(zone),
            "state": status.state,
            "v4": status.v4,
            "v6": status.v6,
            "intent_v6": status.intent_v6,
            "causes": sorted(status.causes),
            "cause_witnesses": {
                f.cause: list(f.witnesses) for f in sorted(
                    status.v6_failures, key=lambda f: f.cause)
            },
            "views": {
                "parent_ns": sorted(str(n) for n in rs.ns_parent_view()),
                "child_ns": (sorted(str(n) for n in rs.ns_child_view())
                             if rs.ns_child_view() is not None else None),
            },
        }
        out.write(json.dumps(doc, sort_keys=True) + "\n")
