"""Per-zone resolvability states and the misconfiguration taxonomy.

The resolution kernel applies the same two-view conjunction to evidence
from either measurement path: at least one NS listed in the parent must
resolve (glue view) AND at least one NS listed by the zone itself must
resolve (zone view), each evaluated per protocol. An NS counts only if
it answered over that protocol when the caller saw it asked; the passive
path passes no answers, so its NS are assumed live. Failure causes are then
attributed from the evidence; causes are not mutually exclusive. The
passive path takes its verdicts from the fixed point and asks ``explain``
only for the causes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from .names import DomainName
from .records import V4, V6, ZoneRecordSet

STATE_DUAL = "dual"
STATE_V4_ONLY = "v4-only"
STATE_V6_ONLY = "v6-only"
STATE_NONE = "none"

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
class NsContext:
    """What the caller knows about one NS name's own zone.

    ``zone`` is the deepest observed zone enclosing the name, and ``v4``
    and ``v6`` whether it resolves. A zone of None (never reached) makes
    the NS unusable as an out-of-bailiwick reference.
    """

    zone: DomainName | None = None
    v4: bool = False
    v6: bool = False

    def resolvable(self, proto: str) -> bool:
        return self.v4 if proto == V4 else self.v6


@dataclass(frozen=True)
class ResolutionStatus:
    state: str
    v4: bool
    v6: bool
    intent_v6: bool
    v6_failures: frozenset[FailureCause] = frozenset()

    def resolvable(self, proto: str) -> bool:
        return self.v4 if proto == V4 else self.v6

    @property
    def causes(self) -> frozenset[str]:
        return frozenset(f.cause for f in self.v6_failures)


def state_of(v4: bool, v6: bool) -> str:
    if v4 and v6:
        return STATE_DUAL
    if v4:
        return STATE_V4_ONLY
    if v6:
        return STATE_V6_ONLY
    return STATE_NONE


ROOT_STATUS = ResolutionStatus(STATE_DUAL, True, True, True)

_EMPTY_CONTEXT = NsContext()


def _ns_usable(
    rs: ZoneRecordSet,
    ns: DomainName,
    proto: str,
    contexts: Mapping[DomainName, NsContext],
    parent_side: bool,
    answers: Answers | None = None,
) -> bool:
    """One NS resolves over ``proto``: glue (parent side) or apex addresses
    (zone side) for in-bailiwick names, or via its own resolved zone; and
    it did not stay silent over ``proto`` when asked."""
    if answers is not None and not answers.get((ns, proto), True):
        return False
    if ns.is_within(rs.zone):
        if parent_side:
            if rs.glue_addrs(ns, proto):
                return True
        elif rs.apex_addrs(ns, proto):
            return True
    return _via_own_zone(rs, ns, proto, contexts)


def _via_own_zone(rs: ZoneRecordSet, ns: DomainName, proto: str,
                  contexts: Mapping[DomainName, NsContext]) -> bool:
    """``ns`` has an address over ``proto`` from its own zone, which
    resolves over ``proto`` and is not ``rs.zone`` itself."""
    ctx = contexts.get(ns, _EMPTY_CONTEXT)
    if ctx.zone is None or ctx.zone == rs.zone:
        return False
    if not ctx.resolvable(proto):
        return False
    return bool(rs.addrs_with_bailiwick(ns, ctx.zone, proto))


def view_flags(
    rs: ZoneRecordSet,
    contexts: Mapping[DomainName, NsContext],
    proto: str,
    answers: Answers | None = None,
) -> tuple[bool, bool]:
    """(glue_ok, zone_ok) over ``proto``.

    A zone whose own NS claims were never observed gets zone_ok vacuously;
    absence of an observation is not evidence of breakage.
    """
    parent_view = rs.ns_parent_view()
    glue_ok = any(_ns_usable(rs, ns, proto, contexts, True, answers)
                  for ns in parent_view)
    child_view = rs.ns_child_view()
    if child_view is None:
        zone_ok = True
    else:
        zone_ok = any(_ns_usable(rs, ns, proto, contexts, False, answers)
                      for ns in child_view)
    return glue_ok, zone_ok


def _intent(rs: ZoneRecordSet, proto: str) -> bool:
    return any(rs.any_addrs(ns, proto) for ns in rs.all_ns())


def _failure_causes(
    rs: ZoneRecordSet,
    parent_resolvable: bool,
    contexts: Mapping[DomainName, NsContext],
    proto: str,
    answers: Answers | None = None,
) -> frozenset[FailureCause]:
    """Causes for a zone that does not resolve over ``proto``."""
    parent_view = rs.ns_parent_view()
    if not _intent(rs, proto):
        # No deeper diagnosis without evidence of intent.
        return frozenset({FailureCause(CAUSE_NO_AAAA_FOR_NS,
                                       _witnesses(parent_view or rs.all_ns()))})
    causes: set[FailureCause] = set()
    if not parent_resolvable:
        parent = rs.delegating_zone()
        causes.add(FailureCause(CAUSE_PARENT_UNRESOLVABLE,
                                (str(parent),) if parent is not None else ()))
    if parent_view and not any(rs.any_addrs(ns, proto) for ns in parent_view):
        causes.add(FailureCause(CAUSE_NO_AAAA_FOR_NS, _witnesses(parent_view)))
    gluless = [
        ns for ns in parent_view
        if ns.is_within(rs.zone)
        and not rs.glue_addrs(ns, proto)
        and rs.any_addrs(ns, proto)
    ]
    if gluless:
        causes.add(FailureCause(CAUSE_MISSING_GLUE, _witnesses(gluless)))
    apexless = [
        ns for ns in rs.all_ns()
        if ns.is_within(rs.zone) and not rs.apex_addrs(ns, proto)
    ]
    if apexless:
        causes.add(FailureCause(CAUSE_IN_BAILIWICK_NS_WITHOUT_AAAA,
                                _witnesses(apexless)))
    broken_refs = [
        ns for ns in rs.all_ns()
        if not ns.is_within(rs.zone)
        and not _via_own_zone(rs, ns, proto, contexts)
        and rs.any_addrs(ns, proto)
    ]
    if broken_refs:
        causes.add(FailureCause(CAUSE_OOB_NS_ZONE_UNRESOLVABLE,
                                _witnesses(broken_refs)))
    silent = [ns for ns in rs.all_ns() if (answers or {}).get((ns, proto)) is False]
    if silent:
        causes.add(FailureCause(CAUSE_NS_UNRESPONSIVE, _witnesses(silent)))
    if not causes:
        # Every remaining failure mode is an NS name with no usable
        # address evidence at all; report it as the missing-record case.
        bare = [ns for ns in rs.all_ns() if not rs.any_addrs(ns, proto)]
        causes.add(FailureCause(CAUSE_NO_AAAA_FOR_NS, _witnesses(bare or rs.all_ns())))
    return frozenset(causes)


def _witnesses(names: Iterable[DomainName]) -> tuple[str, ...]:
    return tuple(sorted(str(n) for n in names))


def explain(
    rs: ZoneRecordSet,
    v4: bool,
    v6: bool,
    parent_v6: bool,
    contexts: Mapping[DomainName, NsContext],
    answers: Answers | None = None,
) -> ResolutionStatus:
    """The status of a zone whose verdicts are ``v4`` and ``v6``: its IPv6
    intent and, unless it resolves over IPv6, the causes. ``parent_v6``
    is whether the delegating zone resolves over IPv6."""
    failures: frozenset[FailureCause] = frozenset()
    if not v6:
        failures = _failure_causes(rs, parent_v6, contexts, V6, answers)
    return ResolutionStatus(state_of(v4, v6), v4, v6, _intent(rs, V6), failures)


def classify(
    rs: ZoneRecordSet,
    parent_status: ResolutionStatus,
    contexts: Mapping[DomainName, NsContext] | None = None,
    answers: Answers | None = None,
) -> ResolutionStatus:
    """Resolve a zone's per-protocol state and its IPv6 failure causes.

    ``parent_status`` is the already-computed status of the delegating
    zone (the root axiom is dual); ``contexts`` describes the zones of
    out-of-bailiwick NS names; ``answers`` is the observed liveness of the
    zone's NS (None: all assumed live). Over each protocol the zone
    resolves if its parent does and both views hold.
    """
    contexts = contexts or {}
    v4, v6 = (parent_status.resolvable(proto)
              and all(view_flags(rs, contexts, proto, answers))
              for proto in (V4, V6))
    return explain(rs, v4, v6, parent_status.v6, contexts, answers)


def mirror_causes(
    rs: ZoneRecordSet,
    parent_resolvable_v4: bool,
    contexts: Mapping[DomainName, NsContext] | None = None,
) -> frozenset[FailureCause]:
    """Self-test helper: the same cause logic aimed at IPv4 breakage."""
    return _failure_causes(rs, parent_resolvable_v4, contexts or {}, V4)


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
    """Per-cause counts restricted to intent_v6 and not v6-resolvable.

    ``snapshot_stats`` and ``cause_share_rows`` take their counts from here.
    """
    counts: Counter = Counter()
    population = 0
    for status in statuses:
        if not status.intent_v6 or status.v6:
            continue
        population += 1
        for cause in status.causes:
            counts[cause] += 1
    return FailureBreakdown(population, counts)
