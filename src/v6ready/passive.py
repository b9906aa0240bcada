"""Passive-data ingestion and the fixed-point resolvability simulation.

Input tuples follow the seven-field observation shape (count, time_first,
time_last, rrname, rrtype, bailiwick, rdata), one record per line in
either tab-separated or JSON form, optionally gzip-compressed. The root
zone is assumed resolvable over both protocols; every other zone must be
reached through a delegating parent that resolves first, which makes the
computation an iterative fixed point.

``_read_fields`` is the one reader of tuple lines: ``_tsv_fields`` and
``_json_fields`` state what each form requires of its fields, and
``_checked_fields`` the rules every tuple keeps, whatever its form.
``ingest`` files the fields it reads straight into per-zone maps, without
building a ``PassiveTuple``; ``iter_tuples`` wraps them in one.
``_Evidence.file`` states what a tuple contributes, for lines and
``PassiveTuple``s alike.
"""

from __future__ import annotations

import codecs
import gzip
import io
import itertools
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator

from . import INPUT_ENCODING
from .classify import (ResolutionStatus, _Propagation, classify, failure_breakdown,
                       zone_clauses)
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


# Bytes that are not UTF-8 read as a NUL and a tab, which no tuple line
# parses with in either form (a TSV line gains a field, a JSON line a
# control character): their line is malformed, at no cost to the rest.
codecs.register_error("v6ready-not-utf8", lambda exc: ("\x00\t", exc.end))


def open_tuple_stream(path: str | Path) -> IO[str]:
    """The text lines of a tuple file, gunzipped when it starts with the
    gzip magic; closing the stream closes the file."""
    with open(path, "rb") as probe:
        gzipped = probe.read(2) == b"\x1f\x8b"
    raw = gzip.open(path) if gzipped else open(path, "rb")
    return io.TextIOWrapper(raw, encoding=INPUT_ENCODING, errors="v6ready-not-utf8")


def _checked_fields(count: int, time_first: int, time_last: int, rrname: str, rrtype: str,
                    bailiwick: str, rdata: list[str], names: dict[str, DomainName],
                    rrtypes: dict[str, RRType]) -> tuple:
    """The rules of every tuple, whatever its form: ``count >= 1``,
    ``time_first <= time_last``, some rdata, names that parse and an
    rrtype ``RRType.from_text`` takes. ``names`` and ``rrtypes`` hold the
    spellings already parsed, so each is parsed once per stream."""
    if count < 1:
        raise MalformedTuple("count must be >= 1")
    if time_first > time_last:
        raise MalformedTuple("time_first after time_last")
    if not rdata:
        raise MalformedTuple("empty rdata")
    name = names.get(rrname)  # `is None`: the root is a falsy name
    if name is None:
        name = _parse_name(rrname, names)
    bw = names.get(bailiwick)
    if bw is None:
        bw = _parse_name(bailiwick, names)
    kind = rrtypes.get(rrtype)
    if kind is None:
        kind = rrtypes[rrtype] = RRType.from_text(rrtype)
    return count, time_first, time_last, name, kind, bw, rdata


def _tsv_fields(line: str, names: dict[str, DomainName],
                rrtypes: dict[str, RRType]) -> tuple:
    """A TSV line: seven tab-separated fields (unpacking any other number
    is a ``ValueError``), three numbers of ASCII digits, and the rdata
    values separated by commas, empty ones dropped."""
    count, first, last, rrname, rrtype, bailiwick, rdata = line.rstrip("\n").split("\t")
    digits = count + first + last
    if not (digits.isascii() and digits.isdigit()):
        # int() alone also takes "+1", "1_0", " 2 " and other scripts' digits
        raise MalformedTuple("count, time_first and time_last must be ASCII digits")
    values = rdata.split(",")
    if "" in values:
        values = [v for v in values if v]
    # int() raises a ValueError for an empty number, and past its
    # conversion limit (4,300 digits by default)
    return _checked_fields(int(count), int(first), int(last), rrname, rrtype, bailiwick,
                           values, names, rrtypes)


def _json_fields(line: str, names: dict[str, DomainName],
                 rrtypes: dict[str, RRType]) -> tuple:
    """A JSON line: an object with the seven keys, JSON integers (never
    a bool) for the numbers, text names and rrtype, and a list of text
    rdata values."""
    obj = json.loads(line)  # a ValueError if not JSON or past int()'s limit
    if type(obj) is not dict:
        raise MalformedTuple("JSON record must be an object")
    get = obj.get
    count, first, last = get("count"), get("time_first"), get("time_last")
    rrname, rrtype, bailiwick, rdata = get("rrname"), get("rrtype"), get("bailiwick"), get("rdata")
    if not (type(count) is type(first) is type(last) is int
            and type(rrname) is type(rrtype) is type(bailiwick) is str
            # a string would otherwise be read one character per value
            and type(rdata) is list and all(type(v) is str for v in rdata)):
        raise MalformedTuple("a field is missing or of the wrong JSON type")
    return _checked_fields(count, first, last, rrname, rrtype, bailiwick, rdata,
                           names, rrtypes)


def _read_fields(lines: Iterable[str], stats: IngestStats, names: dict[str, DomainName],
                 rrtypes: dict[str, RRType]) -> Iterator[tuple]:
    """The fields (count, time_first, time_last, rrname, rrtype,
    bailiwick, rdata values) of each tuple line of one file, read as JSON
    or TSV by its first non-blank line. Blank lines are skipped, and every
    other line that fails its form's rules is counted as malformed. A
    compressed file that ends early or holds corrupt data keeps the lines
    read before the damage, and the rest counts as one malformed line."""
    lines = iter(lines)
    try:
        for head in lines:
            if head.strip():
                break
        else:
            return
        read = _json_fields if head.lstrip().startswith("{") else _tsv_fields
        for line in itertools.chain((head,), lines):
            try:
                fields = read(line, names, rrtypes)
            # MalformedTuple, a name, rrtype, number or JSON error, or JSON
            # nested deeper than the decoder recurses
            except (ValueError, RecursionError):
                if line.strip():  # no blank line reads as a tuple
                    stats.malformed += 1
                continue
            yield fields
    # gzip: the stream ended before its end marker, its checksum or length
    # is wrong, or the deflate data itself is invalid
    except (EOFError, gzip.BadGzipFile, zlib.error):
        stats.malformed += 1


def iter_tuples(lines: Iterable[str], stats: IngestStats | None = None) -> Iterator[PassiveTuple]:
    """Parse tuple lines, auto-detecting JSON vs TSV from the first record.

    Malformed lines are counted and skipped; the stream never aborts.
    """
    stats = stats if stats is not None else IngestStats()
    for count, first, last, rrname, rrtype, bailiwick, rdata in _read_fields(lines, stats, {}, {}):
        stats.tuples += 1
        yield PassiveTuple(count, first, last, rrname, rrtype, bailiwick, tuple(rdata))


@dataclass
class IngestResult:
    record_sets: dict[DomainName, ZoneRecordSet]
    orphan_addresses: dict[DomainName, AddrRecords]


_NS, _A, _AAAA, _CNAME = (t.value for t in (RRType.NS, RRType.A, RRType.AAAA, RRType.CNAME))


class _Evidence:
    """The NS, A and AAAA evidence of one aggregate, filed per zone.

    ``file`` is the one statement of what a well-formed tuple contributes,
    whether it comes from a line or from a ``PassiveTuple``. ``names`` maps
    raw name text to its parsed name for rrnames, bailiwicks and NS
    targets alike, and never holds a failure (see ``_parse_name``);
    ``addresses`` maps address text to its canonical form and protocol.
    """

    def __init__(self, stats: IngestStats):
        self.stats = stats
        self.names: dict[str, DomainName] = {}
        self.addresses: dict[str, tuple[str, str]] = {}
        self.ns_map: dict[DomainName, dict[DomainName, set[DomainName]]] = {}
        self.addr_map: dict[DomainName, dict[DomainName, tuple[set[str], set[str]]]] = {}

    def file(self, rrname: DomainName, code: int, bailiwick: DomainName,
             rdata: Iterable[str]) -> None:
        """File one tuple of rrtype value ``code``, and count it: as a tuple,
        or as malformed if its NS targets are not all names or its
        addresses are not all of its type's family."""
        if code == _NS:
            names = self.names
            targets = set()
            for value in rdata:
                target = names.get(value)
                if target is None:
                    try:
                        target = _parse_name(value, names)
                    except DnsNameError:
                        self.stats.malformed += 1
                        return
                targets.add(target)
            by_bw = self.ns_map.get(rrname)
            if by_bw is None:
                by_bw = self.ns_map[rrname] = {}
            slot = by_bw.get(bailiwick)
            if slot is None:
                by_bw[bailiwick] = targets
            else:
                slot.update(targets)
        elif code == _A or code == _AAAA:
            want = V4 if code == _A else V6
            addresses = self.addresses
            values = []
            for value in rdata:
                known = addresses.get(value)
                if known is None:
                    try:
                        canon = canonical_address(value)
                    except (OSError, ValueError):
                        self.stats.malformed += 1
                        return
                    known = addresses[value] = (canon, address_protocol(canon))
                if known[1] != want:
                    self.stats.malformed += 1
                    return
                values.append(known[0])
            by_bw = self.addr_map.get(rrname)
            if by_bw is None:
                by_bw = self.addr_map[rrname] = {}
            slot = by_bw.get(bailiwick)
            if slot is None:
                slot = by_bw[bailiwick] = (set(), set())
            slot[0 if want == V4 else 1].update(values)
        elif code == _CNAME:
            self.stats.cname_skipped += 1
        # other rrtypes carry no delegation evidence
        self.stats.tuples += 1

    def result(self) -> IngestResult:
        """The record sets, with the addresses of each (NS, bailiwick) pair
        built once and shared by every zone that lists the NS, and the
        addresses of names no zone lists as an NS."""
        addr_map = self.addr_map
        shared: dict[DomainName, list[tuple[tuple[DomainName, DomainName], AddrRecords]]] = {}
        record_sets: dict[DomainName, ZoneRecordSet] = {}
        referenced: set[DomainName] = set()
        for zone, by_bw in self.ns_map.items():
            all_targets: set[DomainName] = set()
            for targets in by_bw.values():
                all_targets |= targets
            referenced |= all_targets
            addrs: dict[tuple[DomainName, DomainName], AddrRecords] = {}
            for ns in all_targets:
                entries = shared.get(ns)
                if entries is None:
                    entries = shared[ns] = [
                        ((ns, bw), AddrRecords(frozenset(v4s), frozenset(v6s)))
                        for bw, (v4s, v6s) in addr_map.get(ns, {}).items()]
                addrs.update(entries)
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


def ingest(files: Iterable[Iterable[str]], stats: IngestStats | None = None) -> IngestResult:
    """Build per-zone record sets from one monthly aggregate, given as the
    lines of each of its tuple files in turn.

    NS targets are grouped by the responding bailiwick; A/AAAA records are
    grouped per (name, bailiwick) and attached to every zone that lists the
    name as an NS. CNAME tuples are skipped; names with addresses but no NS
    role are retained as orphans. Each non-blank line counts once in
    ``stats``, as a tuple or as malformed; a malformed line is skipped.
    """
    evidence = _Evidence(stats if stats is not None else IngestStats())
    file, rrtypes = evidence.file, {}
    for lines in files:
        for _, _, _, rrname, rrtype, bailiwick, rdata in _read_fields(
                lines, evidence.stats, evidence.names, rrtypes):
            file(rrname, rrtype.value, bailiwick, rdata)
    return evidence.result()


def ingest_tuples(tuples: Iterable[PassiveTuple], stats: IngestStats | None = None) -> IngestResult:
    """``ingest`` over tuples already parsed, each counted once."""
    evidence = _Evidence(stats if stats is not None else IngestStats())
    file = evidence.file
    for t in tuples:
        file(t.rrname, t.rrtype.value, t.bailiwick, t.rdata)
    return evidence.result()


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


def fixed_point(record_sets: dict[DomainName, ZoneRecordSet]) -> ResolutionTable:
    """The least set of zones resolvable per protocol: the least model of
    the zones' clauses (``classify.zone_clauses``), by propagation in
    frontier rounds. Round ``k`` is the sweep in which a Jacobi iteration
    over the whole table first resolves the zone, and ``sweeps`` counts the
    productive sweeps plus the confirming one. Every record set is read
    once, for both protocols.
    """
    parents = {zone: rs.delegating_zone() for zone, rs in record_sets.items() if zone.labels}
    unknown = _unknown_parent_zones(parents)
    ns_zone = _ns_zone_index(record_sets)
    new: dict[str, list] = {V4: [], V6: []}
    for zone, parent in parents.items():
        if zone in unknown:
            continue
        for proto, clauses in zone_clauses(record_sets[zone], parent, ns_zone).items():
            if clauses is not None:  # else a clause nothing can meet
                new[proto].append((zone, clauses))

    verdicts = {zone: ZoneVerdict() for zone in parents}
    first_resolved: dict[tuple[DomainName, str], int] = {}
    sweeps: dict[str, int] = {}
    for proto, pairs in new.items():
        propagation = _Propagation()
        propagation.resolved.add(ROOT)
        rounds = propagation.propagate(pairs)
        for sweep, resolved in enumerate(rounds, 1):
            for zone in resolved:
                verdicts[zone].res[proto] = True
                first_resolved[(zone, proto)] = sweep
        # the sweeps also ran a second one when nothing resolved in the first
        sweeps[proto] = max(len(rounds) + 1, 2)

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
    return {zone: classify(record_sets[zone], table.ns_zone, table.resolvable)
            for zone in table.zones if zone not in table.unknown_parent}


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
