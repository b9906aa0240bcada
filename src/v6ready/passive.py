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
``ingest`` files the fields it reads straight into maps of NS targets per
zone and of addresses per name, without building a ``PassiveTuple``;
``iter_tuples`` wraps them in one.
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
from .classify import (STATES, FailureBreakdown, ResolutionStatus, _Propagation, classify,
                       failure_breakdown, zone_clauses)
from .names import ROOT, DnsNameError, DomainName, deepest_known, normalize
from .records import (
    AddrRecords,
    RRType,
    V4,
    V6,
    ZoneRecordSet,
    address_protocol,
    addressed_names,
    build_record_set,
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
    orphan_addresses: int  # names with addresses that no zone lists as an NS


_NS, _A, _AAAA, _CNAME = RRType.NS, RRType.A, RRType.AAAA, RRType.CNAME


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

    def file(self, rrname: DomainName, code: RRType, bailiwick: DomainName,
             rdata: Iterable[str]) -> None:
        """File one tuple of rrtype ``code``, and count it: as a tuple,
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
        """The record sets, in the order their zones were filed, sharing
        one address table with an entry per (NS, bailiwick) pair of the
        zones' NS names, and the count of names with addresses that no zone
        lists as an NS. Each filed entry is dropped once its frozen form
        exists."""
        ns_map, addr_map = self.ns_map, self.addr_map
        addrs: dict[tuple[DomainName, DomainName], AddrRecords] = {}
        ns_with_addrs: dict[str, set[DomainName]] = {}
        record_sets: dict[DomainName, ZoneRecordSet] = {}
        for zone in list(ns_map):
            by_bw = {bw: frozenset(ts) for bw, ts in ns_map.pop(zone).items()}
            rs = record_sets[zone] = build_record_set(zone, by_bw, addrs, ns_with_addrs)
            for ns in rs.all_ns:
                for bw, (v4s, v6s) in addr_map.pop(ns, {}).items():
                    addrs[ns, bw] = AddrRecords(frozenset(v4s), frozenset(v6s))
        ns_with_addrs.update(addressed_names(addrs))
        return IngestResult(record_sets, len(addr_map))


def ingest(files: Iterable[Iterable[str]], stats: IngestStats | None = None) -> IngestResult:
    """Build per-zone record sets from one monthly aggregate, given as the
    lines of each of its tuple files in turn.

    NS targets are grouped by the responding bailiwick; A/AAAA records are
    grouped per (name, bailiwick) into one table, which every zone that
    lists the name as an NS reads. CNAME tuples are skipped; names with
    addresses but no NS role are counted as orphans. Each non-blank line counts once in
    ``stats``, as a tuple or as malformed; a malformed line is skipped.
    """
    evidence = _Evidence(stats if stats is not None else IngestStats())
    file, rrtypes = evidence.file, {}
    for lines in files:
        for _, _, _, rrname, rrtype, bailiwick, rdata in _read_fields(
                lines, evidence.stats, evidence.names, rrtypes):
            file(rrname, rrtype, bailiwick, rdata)
    return evidence.result()


def ingest_tuples(tuples: Iterable[PassiveTuple], stats: IngestStats | None = None) -> IngestResult:
    """``ingest`` over tuples already parsed, each counted once."""
    evidence = _Evidence(stats if stats is not None else IngestStats())
    file = evidence.file
    for t in tuples:
        file(t.rrname, t.rrtype, t.bailiwick, t.rdata)
    return evidence.result()


# -- fixed point -----------------------------------------------------------


@dataclass
class ResolutionTable:
    # per protocol, the zones that resolve over it, the root included
    resolved: dict[str, set[DomainName]]
    unknown_parent: frozenset[DomainName]
    sweeps: dict[str, int]
    # every NS name of the record sets -> the deepest zone enclosing it
    ns_zone: dict[DomainName, DomainName] = field(default_factory=dict)

    def resolvable(self, zone: DomainName, proto: str) -> bool:
        return zone in self.resolved[proto]


def _ns_zone_index(record_sets: dict[DomainName, ZoneRecordSet]) -> dict[DomainName, DomainName]:
    """Each NS name of ``record_sets`` -> the deepest zone among them (or the
    root) that encloses it."""
    known = {zone: zone for zone in record_sets}
    known.setdefault(ROOT, ROOT)
    return {ns: deepest_known(ns, known) for rs in record_sets.values() for ns in rs.all_ns}


def _unknown_parent_zones(parents: dict[DomainName, DomainName | None]) -> frozenset[DomainName]:
    """Zones that cannot be evaluated: no parent-view observation, a
    delegating zone that was never observed, or an ancestor in that state.
    ``parents`` maps every zone but the root to its delegating zone."""
    base: set[DomainName] = set()
    children: dict[DomainName, list[DomainName]] = {}
    for zone, parent in parents.items():
        if parent is None or (parent and parent not in parents):
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
    parents = {zone: rs.delegating_zone for zone, rs in record_sets.items() if zone}
    unknown = _unknown_parent_zones(parents)
    ns_zone = _ns_zone_index(record_sets)
    new: dict[str, list] = {V4: [], V6: []}
    for zone, parent in parents.items():
        if zone in unknown:
            continue
        for proto, clauses in zone_clauses(record_sets[zone], parent, ns_zone).items():
            if clauses is not None:  # else a clause nothing can meet
                new[proto].append((zone, clauses))

    resolved: dict[str, set[DomainName]] = {}
    sweeps: dict[str, int] = {}
    for proto, pairs in new.items():
        propagation = _Propagation()
        propagation.resolved.add(ROOT)
        rounds = propagation.propagate(pairs)
        resolved[proto] = propagation.resolved
        # the sweeps also ran a second one when nothing resolved in the first
        sweeps[proto] = max(rounds + 1, 2)
    return ResolutionTable(resolved, unknown, sweeps, ns_zone)


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
    unknown = table.unknown_parent
    return {zone: classify(rs, table.ns_zone, table.resolvable)
            for zone, rs in record_sets.items() if zone and zone not in unknown}


# -- aggregate stats --------------------------------------------------------


@dataclass
class SnapshotStats:
    month: str | None
    states: dict[str, int]  # zones per state, over STATES
    unknown_parent: int
    intent_v6_total: int
    breakdown: FailureBreakdown

    @property
    def total(self) -> int:
        return sum(self.states.values())

    def state_percentage(self, state: str) -> float:
        total = self.total
        return 100.0 * self.states[state] / total if total else 0.0

    def to_json(self) -> dict:
        return {
            "format": "snapshot-stats",
            "version": 1,
            "month": self.month,
            "total_zones": self.total,
            "states": dict(self.states),
            "state_percentages": {s: round(self.state_percentage(s), 4) for s in STATES},
            "unknown_parent": self.unknown_parent,
            "intent_v6_total": self.intent_v6_total,
            "intent_v6_broken": self.breakdown.population,
            "cause_counts": dict(sorted(self.breakdown.counts.items())),
            "cause_percentages": {
                c: round(self.breakdown.percentage(c), 4)
                for c in sorted(self.breakdown.counts)
            },
        }


def snapshot_stats(
    table: ResolutionTable,
    statuses: dict[DomainName, ResolutionStatus],
    month: str | None = None,
) -> SnapshotStats:
    """The snapshot's tally: zones per state, and the IPv6 failure causes
    (``failure_breakdown``) that ``stats.json`` and ``causes.csv`` read."""
    counts = dict.fromkeys(STATES, 0)
    intent_total = 0
    for status in statuses.values():
        counts[status.state] += 1
        intent_total += status.intent_v6
    return SnapshotStats(month, counts, len(table.unknown_parent), intent_total,
                         failure_breakdown(statuses.values()))


VERDICT_FORMAT = {"format": "zone-verdicts", "version": 1}
_JSON = json.JSONEncoder(sort_keys=True)  # json.dumps would build one per call


def write_verdicts(
    out: IO[str],
    record_sets: dict[DomainName, ZoneRecordSet],
    statuses: dict[DomainName, ResolutionStatus],
) -> None:
    """One JSON document per zone, preceded by a format header line."""
    texts: dict[DomainName, str] = {}  # each NS name rendered once

    def sorted_texts(view: frozenset[DomainName]) -> list[str]:
        return sorted([texts[ns] if ns in texts else texts.setdefault(ns, str(ns))
                       for ns in view])

    out.write(_JSON.encode(VERDICT_FORMAT) + "\n")
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
            "cause_witnesses": status.cause_witnesses,
            "views": {
                "parent_ns": sorted_texts(rs.parent_ns),
                "child_ns": sorted_texts(rs.child_ns) if rs.child_ns is not None else None,
            },
        }
        out.write(_JSON.encode(doc) + "\n")
