"""Reference verdict kernel: the per-zone usability rule that ``classify``
evaluated before both paths took their verdicts from one propagation
(``classify.zone_clauses``), kept as a test oracle.

``view_flags`` evaluates the two-view conjunction of one zone against given
contexts for the zones of its NS; ``classify`` adds the parent's status and
builds the zone's status with ``v6ready.classify.classify``.
``tests/jacobi.py`` iterates ``view_flags`` to a fixed point.
``scanned_addrs`` is the reference for the lookups in a record set's
shared address table: a scan of every (name, bailiwick) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from v6ready import classify as model
from v6ready.classify import Answers, FailureCause, ResolutionStatus, _failure_causes
from v6ready.names import DomainName
from v6ready.records import V4, V6, ZoneRecordSet

# The root's status on the passive path, where it is an axiom.
ROOT_STATUS = ResolutionStatus(True, True, True)


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


def _model_args(contexts: Mapping[DomainName, NsContext]):
    """``contexts`` as the (ns_zone, resolves) pair ``v6ready.classify``
    takes."""
    ns_zone = {ns: ctx.zone for ns, ctx in contexts.items() if ctx.zone is not None}
    resolved = {(ctx.zone, proto) for ctx in contexts.values()
                for proto in (V4, V6) if ctx.resolvable(proto)}
    return ns_zone, lambda zone, proto: (zone, proto) in resolved


def _via_own_zone(rs: ZoneRecordSet, ns: DomainName, proto: str,
                  contexts: Mapping[DomainName, NsContext]) -> bool:
    """``ns`` has an address over ``proto`` from its own zone, which
    resolves over ``proto`` and is not ``rs.zone`` itself."""
    ctx = contexts.get(ns, NsContext())
    if ctx.zone is None or ctx.zone == rs.zone or not ctx.resolvable(proto):
        return False
    return bool(rs.addrs_with_bailiwick(ns, ctx.zone, proto))


def _glue_addrs(rs: ZoneRecordSet, ns: DomainName, proto: str) -> frozenset[str]:
    """Addresses for ``ns`` observed under any proper ancestor of the zone."""
    out: set[str] = set()
    for depth in range(len(rs.zone.labels)):
        out |= rs.addrs_with_bailiwick(ns, rs.zone.ancestor_at_depth(depth), proto)
    return frozenset(out)


def scanned_addrs(rs: ZoneRecordSet, ns: DomainName, proto: str,
                  bailiwick: Callable[[DomainName], bool] = lambda bw: True) -> frozenset[str]:
    """The addresses over ``proto`` served for ``ns`` under every
    bailiwick that ``bailiwick`` accepts, found by scanning each (name,
    bailiwick) pair of the record set's address table: the reference for
    the lookups ``v6ready.classify`` makes in the table."""
    out: set[str] = set()
    for (name, bw), addrs in rs.addrs.items():
        if name == ns and bailiwick(bw):
            out |= addrs.for_protocol(proto)
    return frozenset(out)


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
            if _glue_addrs(rs, ns, proto):
                return True
        elif rs.addrs_with_bailiwick(ns, rs.zone, proto):
            return True
    return _via_own_zone(rs, ns, proto, contexts)


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
    glue_ok = any(_ns_usable(rs, ns, proto, contexts, True, answers)
                  for ns in rs.parent_ns)
    if rs.child_ns is None:
        zone_ok = True
    else:
        zone_ok = any(_ns_usable(rs, ns, proto, contexts, False, answers)
                      for ns in rs.child_ns)
    return glue_ok, zone_ok


def classify(
    rs: ZoneRecordSet,
    parent_status: ResolutionStatus,
    contexts: Mapping[DomainName, NsContext] | None = None,
    answers: Answers | None = None,
) -> ResolutionStatus:
    """A zone's per-protocol state and its IPv6 failure causes, given the
    already-computed status of its delegating zone: over each protocol the
    zone resolves if its parent does and both views hold."""
    contexts = contexts or {}
    v4, v6 = (getattr(parent_status, proto) and all(view_flags(rs, contexts, proto, answers))
              for proto in (V4, V6))
    ns_zone, ns_resolves = _model_args(contexts)
    own = {(rs.zone, V4): v4, (rs.zone, V6): v6, (rs.delegating_zone, V6): parent_status.v6}

    def resolves(zone: DomainName, proto: str) -> bool:
        return own[zone, proto] if (zone, proto) in own else ns_resolves(zone, proto)

    return model.classify(rs, ns_zone, resolves, answers)


def mirror_causes(
    rs: ZoneRecordSet,
    parent_resolvable_v4: bool,
    contexts: Mapping[DomainName, NsContext] | None = None,
) -> frozenset[FailureCause]:
    """The cause logic aimed at IPv4 breakage."""
    return _failure_causes(rs, parent_resolvable_v4, *_model_args(contexts or {}), V4)
