"""Reference fixed point: the Jacobi sweep loop that ``passive.fixed_point``
replaced, kept as a test oracle.

Each sweep evaluates every zone with ``classify.view_flags`` against the
previous sweep's resolved set, so sweep counts are independent of
iteration order. ``passive.fixed_point`` must give the same zones, sweeps,
first-resolved sweeps and unknown-parent set.
"""

from __future__ import annotations

from v6ready.classify import NsContext, view_flags
from v6ready.names import ROOT, DomainName
from v6ready.passive import ResolutionTable, ZoneVerdict
from v6ready.records import V4, V6, ZoneRecordSet


class IterationCapExceeded(RuntimeError):
    """The fixed point failed to stabilize within zone_count + 1 sweeps."""


def enclosing_known_zone(name: DomainName, known: set[DomainName]) -> DomainName:
    """Deepest zone in ``known`` (always containing the root) covering ``name``."""
    for depth in range(len(name.labels), 0, -1):
        candidate = name.ancestor_at_depth(depth)
        if candidate in known:
            return candidate
    return ROOT


def unknown_parent_zones(record_sets: dict[DomainName, ZoneRecordSet]) -> frozenset[DomainName]:
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
    changed = True
    while changed:
        changed = False
        for zone, parent in delegating.items():
            if zone not in base and parent in base:
                base.add(zone)
                changed = True
    return frozenset(base)


def jacobi_fixed_point(record_sets: dict[DomainName, ZoneRecordSet]) -> ResolutionTable:
    """Iterate resolvability over the zone set until it stops growing.

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
                ns_zone[ns] = enclosing_known_zone(ns, known_zones)

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
                        zone=z,
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
        ns_zone=ns_zone,
    )


def assert_same_table(got: ResolutionTable, want: ResolutionTable, label="") -> None:
    assert got.zones == want.zones, label
    assert got.sweeps == want.sweeps, label
    assert got.first_resolved_sweep == want.first_resolved_sweep, label
    assert got.unknown_parent == want.unknown_parent, label
    assert got.ns_zone == want.ns_zone, label
