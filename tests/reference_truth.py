"""The referee as it was before it became a least fixed point: per-zone
resolvability by recursive path enumeration over the fixtures. Kept,
unchanged, as a test reference for ``v6ready.mocknet.ground_truth``.
"""

from __future__ import annotations

from v6ready.mocknet import BLACKHOLE_ALL, BLACKHOLE_V6, Universe
from v6ready.names import ROOT, DomainName
from v6ready.records import V4, V6


def ground_truth(universe: Universe) -> dict[DomainName, dict[str, bool]]:
    """Per-zone resolvability by exhaustive path enumeration.

    Independent of the fixed-point code: recursive descent over fixture
    data. A dependency loop is cut on the current path (it cannot prove
    resolution by itself); a True found despite a cut is sound and cached,
    while a False reached through a cut is path-dependent and is not.
    """
    memo: dict[tuple[DomainName, str], bool] = {}

    def server_responds(ns: DomainName, proto: str) -> bool:
        owner = universe.owner_zone.get(ns)
        if owner is None:
            return False
        defects = universe.fixtures[owner].defects
        if BLACKHOLE_ALL in defects:
            return False
        if BLACKHOLE_V6 in defects and proto == V6:
            return False
        return True

    def resolvable(zone: DomainName, proto: str,
                   path: frozenset[DomainName]) -> tuple[bool, bool]:
        """(result, cut): cut means a cycle cut may have hidden a path."""
        key = (zone, proto)
        if key in memo:
            return memo[key], False
        if zone in path:
            return False, True
        if zone == ROOT:
            ok = any(
                universe.listen_addrs(e.name, proto) and server_responds(e.name, proto)
                for e in universe.fixtures[ROOT].ns
            )
            memo[key] = ok
            return ok, False
        path = path | {zone}
        cut = False

        def via_own_zone(ns: DomainName) -> bool:
            nonlocal cut
            owner = universe.owner_zone.get(ns)
            if owner is None:
                return False
            ok, t = resolvable(owner, proto, path)
            cut = cut or t
            if not ok:
                return False
            return bool(universe.apex_addrs(ns, proto)) and server_responds(ns, proto)

        parent_ok, t = resolvable(universe.parent[zone], proto, path)
        cut = cut or t
        if not parent_ok:
            result = False
        else:
            glue_ok = False
            for ns in universe.delegation_ns(zone):
                if ns.is_within(zone):
                    if universe.glue_addrs(zone, ns, proto) and server_responds(ns, proto):
                        glue_ok = True
                        break
                elif via_own_zone(ns):
                    glue_ok = True
                    break
            zone_ok = False
            for ns in universe.apex_ns(zone):
                if ns.is_within(zone):
                    if universe.apex_addrs(ns, proto) and server_responds(ns, proto):
                        zone_ok = True
                        break
                elif via_own_zone(ns):
                    zone_ok = True
                    break
            result = glue_ok and zone_ok
        if result or not cut:
            memo[key] = result
        return result, cut and not result

    truth = {}
    for zone in sorted(universe.fixtures):
        if zone == ROOT:
            continue
        truth[zone] = {
            p: resolvable(zone, p, frozenset())[0] for p in (V4, V6)
        }
    return truth
