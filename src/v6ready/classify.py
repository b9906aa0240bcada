"""Per-zone resolvability and the misconfiguration taxonomy.

``zone_clauses`` states when a zone resolves as clauses over the zones it
depends on, and ``_Propagation`` computes their least model: the passive
path over every record set, the active path over the zones it crawled.
``classify`` turns a zone's verdicts and evidence into its status: IPv6
intent and, unless it resolves over IPv6, the failure causes, which are
not mutually exclusive. Each reader looks up the zone's own NS names in the
address table that its record set shares with the rest of its aggregate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .names import DomainName
from .records import NO_ADDRS, V4, V6, AddrRecords, ZoneRecordSet

STATE_DUAL = "dual"
STATE_V4_ONLY = "v4-only"
STATE_V6_ONLY = "v6-only"
STATE_NONE = "none"
STATES = (STATE_DUAL, STATE_V4_ONLY, STATE_V6_ONLY, STATE_NONE)  # in output order

CAUSE_NO_AAAA_FOR_NS = "no-aaaa-for-ns"
CAUSE_MISSING_GLUE = "missing-glue"
CAUSE_IN_BAILIWICK_NS_WITHOUT_AAAA = "in-bailiwick-ns-without-aaaa"
CAUSE_OOB_NS_ZONE_UNRESOLVABLE = "oob-ns-zone-unresolvable"
CAUSE_PARENT_UNRESOLVABLE = "parent-unresolvable"
CAUSE_NS_UNRESPONSIVE = "ns-unresponsive"

# Per (NS name, protocol): whether that NS answered any query over the
# protocol. A pair that was never asked is absent.
Answers = Mapping[tuple[DomainName, str], bool]


@dataclass(frozen=True)
class FailureCause:
    cause: str
    witnesses: tuple[str, ...]


@dataclass(frozen=True)
class ResolutionStatus:
    v4: bool
    v6: bool
    intent_v6: bool
    v6_failures: frozenset[FailureCause] = frozenset()

    @property
    def state(self) -> str:
        return state_of(self.v4, self.v6)

    @property
    def causes(self) -> frozenset[str]:
        return frozenset(f.cause for f in self.v6_failures)

    @property
    def cause_witnesses(self) -> dict[str, list[str]]:
        """Each failure cause -> its witnesses, in cause order."""
        return {f.cause: list(f.witnesses)
                for f in sorted(self.v6_failures, key=lambda f: f.cause)}


def state_of(v4: bool, v6: bool) -> str:
    if v4 and v6:
        return STATE_DUAL
    if v4:
        return STATE_V4_ONLY
    if v6:
        return STATE_V6_ONLY
    return STATE_NONE


Resolves = Callable[[DomainName, str], bool]  # (zone, protocol) -> resolves


# -- verdicts ------------------------------------------------------------------


def _own_addresses(rs: ZoneRecordSet) -> tuple[dict[DomainName, AddrRecords],
                                                dict[DomainName, AddrRecords]]:
    """(glue, apex): for the zone's NS names inside the zone, the addresses
    served under a proper ancestor of the zone, and under the zone itself."""
    zone, addrs = rs.zone, rs.addrs
    glue: dict[DomainName, AddrRecords] = {}
    apex: dict[DomainName, AddrRecords] = {}
    for ns in rs.all_ns:
        if ns.is_within(zone):
            for depth in range(len(zone)):  # each proper ancestor
                found = addrs.get((ns, zone[:depth]))
                if found is not None:
                    glue[ns] = glue[ns].merged(found) if ns in glue else found
            found = addrs.get((ns, zone))
            if found is not None:
                apex[ns] = found
    return glue, apex


def _view_deps(rs: ZoneRecordSet, view: Iterable[DomainName], own: dict[DomainName, AddrRecords],
               ns_zone: Mapping[DomainName, DomainName],
               answers: Answers | None) -> dict[str, set[DomainName] | None]:
    """Per protocol, the zones any one of which, once resolved, makes some
    NS of ``view`` usable; None where one already is.

    An NS is usable through what the zone's side of the view serves for
    names inside the zone (``own``: glue for the parent view, apex records
    for the zone view), or through the addresses its enclosing zone
    ``ns_zone[ns]`` serves once that zone resolves. Where that is the zone
    itself, the clause waits on its own zone, so it comes to not usable. An
    NS asked over a protocol that never answered is not usable over it.
    """
    deps: dict[str, set[DomainName] | None] = {V4: set(), V6: set()}
    for ns in view:
        mine = own.get(ns)
        z = ns_zone[ns]
        served = rs.addrs.get((ns, z))
        for proto in (V4, V6):
            zones = deps[proto]
            if zones is None:
                continue
            if answers is not None and answers.get((ns, proto)) is False:
                continue
            if mine is not None and mine.for_protocol(proto):
                deps[proto] = None
            elif served is not None and served.for_protocol(proto):
                zones.add(z)
    return deps


def zone_clauses(
    rs: ZoneRecordSet,
    parent: DomainName,
    ns_zone: Mapping[DomainName, DomainName],
    answers: Answers | None = None,
) -> dict[str, list[set[DomainName]] | None]:
    """Per protocol, the clauses of the zone, each the set of zones any one
    of which meets it; None where one can never be met. A clause evidence
    alone meets is left out.

    The zone resolves once its delegating zone ``parent`` resolves AND some
    parent-view NS is usable AND, if the zone's own NS set was observed,
    some zone-view NS is usable (see ``_view_deps``). ``answers`` is the
    observed liveness of the zone's NS (None: all assumed live).
    """
    glue, apex = _own_addresses(rs)
    parent_deps = _view_deps(rs, rs.parent_ns, glue, ns_zone, answers)
    zone_deps = ({V4: None, V6: None} if rs.child_ns is None
                 else _view_deps(rs, rs.child_ns, apex, ns_zone, answers))
    out: dict[str, list[set[DomainName]] | None] = {}
    for proto in (V4, V6):
        clauses = [deps for deps in ({parent}, parent_deps[proto], zone_deps[proto])
                   if deps is not None]
        out[proto] = clauses if all(clauses) else None
    return out


class _Propagation:
    """Counter-based unit propagation over one protocol's clauses (Dowling &
    Gallier 1984). A clause is met once any one of its zones resolves; a
    zone resolves once all of its clauses are met. The counters persist
    from one ``propagate`` call to the next: the least model only grows as
    zones are added. The root has no clauses: it is entered in ``resolved``
    over the protocols it resolves over (on the passive path both, as an
    axiom), so a clause that names it is met when it is added.
    """

    def __init__(self):
        self.unmet: dict[DomainName, int] = {}
        self.clause_zone: list[DomainName] = []  # clause id -> its zone
        self.met: list[bool] = []  # clause id -> met
        self.watchers: dict[DomainName, list[int]] = {}  # zone -> clauses it meets
        self.resolved: set[DomainName] = set()

    def propagate(self, new: Iterable[tuple[DomainName, list[set[DomainName]]]]) -> int:
        """Add the ``new`` (zone, clauses) pairs; returns the number of
        rounds in which zones resolved."""
        unmet, clause_zone, met, watchers = self.unmet, self.clause_zone, self.met, self.watchers
        resolved = self.resolved
        frontier = []
        for zone, clauses in new:
            count = 0
            for deps in clauses:
                if resolved.isdisjoint(deps):
                    cid = len(clause_zone)
                    clause_zone.append(zone)
                    met.append(False)
                    for dep in deps:
                        watchers.setdefault(dep, []).append(cid)
                    count += 1
            unmet[zone] = count
            if not count:
                frontier.append(zone)
        rounds = 0
        while frontier:
            resolved.update(frontier)
            rounds += 1
            following = []
            for zone in frontier:
                for cid in watchers.pop(zone, ()):
                    if not met[cid]:
                        met[cid] = True
                        waiting = clause_zone[cid]
                        unmet[waiting] -= 1
                        if not unmet[waiting]:
                            following.append(waiting)
            frontier = following
        return rounds


# -- statuses ------------------------------------------------------------------


def _via_own_zone(rs: ZoneRecordSet, ns: DomainName, proto: str,
                  ns_zone: Mapping[DomainName, DomainName], resolves: Resolves) -> bool:
    """``ns`` has an address over ``proto`` from its own zone
    ``ns_zone[ns]``, which resolves over ``proto`` and is not ``rs.zone``."""
    zone = ns_zone.get(ns)
    if zone is None or zone == rs.zone or not resolves(zone, proto):
        return False
    return bool(rs.addrs_with_bailiwick(ns, zone, proto))


def _intent(rs: ZoneRecordSet, proto: str) -> bool:
    return not rs.ns_with_addrs[proto].isdisjoint(rs.all_ns)


def _failure_causes(
    rs: ZoneRecordSet,
    parent_resolvable: bool,
    ns_zone: Mapping[DomainName, DomainName],
    resolves: Resolves,
    proto: str,
    answers: Answers | None = None,
) -> frozenset[FailureCause]:
    """Causes for a zone that does not resolve over ``proto``."""
    parent_view, all_ns = rs.parent_ns, rs.all_ns
    if not _intent(rs, proto):
        # No deeper diagnosis without evidence of intent.
        return frozenset({FailureCause(CAUSE_NO_AAAA_FOR_NS,
                                       _witnesses(parent_view or all_ns))})
    addressed = rs.ns_with_addrs[proto]
    inside = {ns for ns in all_ns if ns.is_within(rs.zone)}
    causes: set[FailureCause] = set()
    glue, apex = _own_addresses(rs)
    if not parent_resolvable:
        parent = rs.delegating_zone
        causes.add(FailureCause(CAUSE_PARENT_UNRESOLVABLE,
                                (str(parent),) if parent is not None else ()))
    if parent_view and addressed.isdisjoint(parent_view):
        causes.add(FailureCause(CAUSE_NO_AAAA_FOR_NS, _witnesses(parent_view)))
    gluless = [
        ns for ns in parent_view
        if ns in inside
        and not glue.get(ns, NO_ADDRS).for_protocol(proto)
        and ns in addressed
    ]
    if gluless:
        causes.add(FailureCause(CAUSE_MISSING_GLUE, _witnesses(gluless)))
    apexless = [ns for ns in inside if not apex.get(ns, NO_ADDRS).for_protocol(proto)]
    if apexless:
        causes.add(FailureCause(CAUSE_IN_BAILIWICK_NS_WITHOUT_AAAA,
                                _witnesses(apexless)))
    broken_refs = [
        ns for ns in all_ns
        if ns not in inside
        and not _via_own_zone(rs, ns, proto, ns_zone, resolves)
        and ns in addressed
    ]
    if broken_refs:
        causes.add(FailureCause(CAUSE_OOB_NS_ZONE_UNRESOLVABLE,
                                _witnesses(broken_refs)))
    silent = [ns for ns in all_ns if (answers or {}).get((ns, proto)) is False]
    if silent:
        causes.add(FailureCause(CAUSE_NS_UNRESPONSIVE, _witnesses(silent)))
    if not causes:
        # Every remaining failure mode is an NS name with no usable
        # address evidence at all; report it as the missing-record case.
        bare = [ns for ns in all_ns if ns not in addressed]
        causes.add(FailureCause(CAUSE_NO_AAAA_FOR_NS, _witnesses(bare or all_ns)))
    return frozenset(causes)


def _witnesses(names: Iterable[DomainName]) -> tuple[str, ...]:
    return tuple(sorted(str(n) for n in names))


def classify(
    rs: ZoneRecordSet,
    ns_zone: Mapping[DomainName, DomainName],
    resolves: Resolves,
    answers: Answers | None = None,
) -> ResolutionStatus:
    """The status of a zone whose verdicts are ``resolves(rs.zone, ·)``:
    its IPv6 intent and, unless it resolves over IPv6, the causes, which
    read whether the delegating zone resolves over IPv6 from ``resolves``
    too; ``ns_zone``, ``resolves`` and ``answers`` are as for
    ``zone_clauses``."""
    v4, v6 = resolves(rs.zone, V4), resolves(rs.zone, V6)
    failures: frozenset[FailureCause] = frozenset()
    if not v6:
        failures = _failure_causes(rs, resolves(rs.delegating_zone, V6), ns_zone, resolves,
                                   V6, answers)
    return ResolutionStatus(v4, v6, _intent(rs, V6), failures)


@dataclass
class FailureBreakdown:
    """Cause counts over zones that intend IPv6 support but do not resolve."""

    population: int
    counts: Counter

    def percentage(self, cause: str) -> float:
        if not self.population:
            return 0.0
        return 100.0 * self.counts.get(cause, 0) / self.population


def failure_breakdown(statuses: Iterable[ResolutionStatus]) -> FailureBreakdown:
    """Per-cause counts restricted to intent_v6 and not v6-resolvable:
    the one cause tally of a snapshot (``snapshot_stats``), which
    ``stats.json`` and ``causes.csv`` both read."""
    counts: Counter = Counter()
    population = 0
    for status in statuses:
        if not status.intent_v6 or status.v6:
            continue
        population += 1
        for cause in status.causes:
            counts[cause] += 1
    return FailureBreakdown(population, counts)
