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

from .classify import (
    MissingParentEvidence,
    NsContext,
    ResolutionStatus,
    ROOT_STATUS,
    classify,
    failure_breakdown,
    view_flags,
)
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


class IterationCapExceeded(RuntimeError):
    """The fixed point failed to stabilize within zone_count + 1 sweeps."""


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


def tuple_from_fields(count, time_first, time_last, rrname, rrtype, bailiwick,
                      rdata) -> PassiveTuple:
    try:
        return PassiveTuple(
            count=int(count),
            time_first=int(time_first),
            time_last=int(time_last),
            rrname=normalize(rrname),
            rrtype=rrtype if isinstance(rrtype, RRType) else RRType.from_text(str(rrtype)),
            bailiwick=normalize(bailiwick),
            rdata=tuple(str(v) for v in rdata),
        )
    except (ValueError, DnsNameError, TypeError) as exc:
        raise MalformedTuple(str(exc)) from exc


def _parse_tsv_line(line: str) -> PassiveTuple:
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 7:
        raise MalformedTuple(f"expected 7 tab-separated fields, got {len(parts)}")
    rdata = [v for v in parts[6].split(",") if v]
    return tuple_from_fields(parts[0], parts[1], parts[2], parts[3], parts[4],
                             parts[5], rdata)


def _parse_json_line(line: str) -> PassiveTuple:
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
            obj["rrtype"], obj["bailiwick"], rdata,
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
    for line in lines:
        if not line.strip():
            continue
        if parser is None:
            parser = _parse_json_line if line.lstrip().startswith("{") else _parse_tsv_line
        try:
            t = parser(line)
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
                    targets.add(normalize(value))
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
                except OSError:
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

    def resolvable(self, zone: DomainName, proto: str) -> bool:
        if zone == ROOT:
            return True
        verdict = self.zones.get(zone)
        return bool(verdict and verdict.res[proto])


def _enclosing_known_zone(name: DomainName, known: set[DomainName]) -> DomainName:
    """Deepest zone in ``known`` (always containing the root) covering ``name``."""
    best = ROOT
    for depth in range(len(name.labels), 0, -1):
        candidate = name.ancestor_at_depth(depth)
        if candidate in known:
            return candidate
    return best


def unknown_parent_zones(record_sets: dict[DomainName, ZoneRecordSet]) -> frozenset[DomainName]:
    """Zones that cannot be evaluated: no parent-view observation, a
    delegating zone that was never observed, or an ancestor in that state."""
    base: set[DomainName] = set()
    delegating: dict[DomainName, DomainName] = {}
    for zone, rs in record_sets.items():
        if zone == ROOT:
            continue
        parent = rs.delegating_zone()
        if parent is None or (parent != ROOT and parent not in record_sets):
            base.add(zone)
        else:
            delegating[zone] = parent
    # propagate unknownness down the delegation graph
    changed = True
    while changed:
        changed = False
        for zone, parent in delegating.items():
            if zone not in base and parent in base:
                base.add(zone)
                changed = True
    return frozenset(base)


def fixed_point(record_sets: dict[DomainName, ZoneRecordSet]) -> ResolutionTable:
    """Iterate resolvability over the zone set until it stops growing.

    Jacobi-style: each sweep evaluates every zone against the previous
    sweep's table, so sweep counts are independent of iteration order.
    Raises IterationCapExceeded after zone_count + 1 sweeps, which the
    monotone growth of the resolved set makes unreachable absent a bug.
    """
    zones = sorted(z for z in record_sets if z != ROOT)
    unknown = unknown_parent_zones(record_sets)
    known_zones = set(record_sets) | {ROOT}
    ns_zone: dict[DomainName, DomainName] = {}
    for rs in record_sets.values():
        for ns in rs.all_ns():
            if ns not in ns_zone:
                ns_zone[ns] = _enclosing_known_zone(ns, known_zones)

    verdicts = {z: ZoneVerdict() for z in zones}
    first_resolved: dict[tuple[DomainName, str], int] = {}
    sweeps: dict[str, int] = {}
    cap = len(zones) + 1

    for proto in (V4, V6):
        resolved: set[DomainName] = set()
        prev_count = -1
        sweep = 0
        while True:
            sweep += 1
            if sweep > max(cap, 2):
                raise IterationCapExceeded(f"no fixed point after {sweep} sweeps")
            snapshot = frozenset(resolved)

            def ctx_for(rs: ZoneRecordSet) -> dict[DomainName, NsContext]:
                out = {}
                for ns in rs.all_ns():
                    z = ns_zone.get(ns, ROOT)
                    ok = z == ROOT or z in snapshot
                    out[ns] = NsContext(
                        zone=z, zone_known=True,
                        v4=ok if proto == V4 else False,
                        v6=ok if proto == V6 else False,
                    )
                return out

            for zone in zones:
                if zone in unknown or zone in resolved:
                    continue
                rs = record_sets[zone]
                parent = rs.delegating_zone()
                parent_ok = parent == ROOT or parent in snapshot
                if not parent_ok:
                    continue
                g, z = view_flags(rs, ctx_for(rs), proto)
                if g and z:
                    verdicts[zone].res[proto] = True
                    resolved.add(zone)
                    first_resolved[(zone, proto)] = sweep
            if len(resolved) == prev_count:
                break
            prev_count = len(resolved)
        sweeps[proto] = sweep

    return ResolutionTable(
        zones=verdicts,
        unknown_parent=unknown,
        sweeps=sweeps,
        first_resolved_sweep=first_resolved,
    )


def classify_zones(
    record_sets: dict[DomainName, ZoneRecordSet],
    table: ResolutionTable,
) -> dict[DomainName, ResolutionStatus]:
    """Per-zone statuses with failure causes, derived from the fixed point.

    Zones with unknown parentage are omitted (a gap in passive visibility
    is not evidence of breakage).
    """
    known_zones = set(record_sets) | {ROOT}
    statuses: dict[DomainName, ResolutionStatus] = {}
    for zone in sorted(record_sets, key=lambda z: len(z.labels)):
        if zone == ROOT or zone in table.unknown_parent:
            continue
        rs = record_sets[zone]
        parent = rs.delegating_zone()
        if parent == ROOT:
            parent_status = ROOT_STATUS
        else:
            parent_status = statuses.get(parent)
            if parent_status is None:
                continue
        contexts = {}
        for ns in rs.all_ns():
            z = _enclosing_known_zone(ns, known_zones)
            contexts[ns] = NsContext(
                zone=z, zone_known=True,
                v4=table.resolvable(z, V4), v6=table.resolvable(z, V6),
            )
        try:
            statuses[zone] = classify(rs, parent_status, contexts)
        except MissingParentEvidence:
            continue
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
