"""Shared fixture universes: the two broken-delegation scenarios, healthy
trees of various depths, and the single-defect taxonomy set."""

from __future__ import annotations

import random
import struct
from dataclasses import replace

from v6ready.mocknet import (
    BLACKHOLE_ALL,
    BLACKHOLE_V6,
    DROP_AAAA_APEX,
    FixtureNs,
    FixtureZone,
    Universe,
    build_universe,
    zone_fixture,
)
from v6ready.names import normalize
from v6ready.passive import classify_zones, fixed_point, ingest_tuples
from v6ready.query import (
    QueryEngine,
    QueryPolicy,
    ServerAddress,
    TransportTimeout,
    TransportUnreachable,
    UdpTcpTransport,
)
from v6ready.records import V4, V6, AddrRecords
from v6ready.resolver import PROTOCOL_BOTH, Resolver

N = normalize

TEST_POLICY = QueryPolicy(retry_wait=0.0, udp_timeout=0.2, tcp_timeout=0.2)

# defect rates under which out-of-bailiwick NS, and so dependency cycles,
# are common (for random_universe)
CYCLE_DENSE = {"oob-ns": 0.6, "drop-aaaa-glue": 0.3, "drop-aaaa-apex": 0.2, "ns-no-v6": 0.3}


def root_fixture() -> FixtureZone:
    return zone_fixture(".", [
        ("a.rootsrv", ["10.0.0.1"], ["fd00::1"]),
        ("b.rootsrv", ["10.0.0.2"], ["fd00::2"]),
    ])


def org_fixture() -> FixtureZone:
    return zone_fixture("org", [("ns.org", ["10.0.1.1"], ["fd00::11"])])


def net_fixture() -> FixtureZone:
    return zone_fixture("net", [("ns.net", ["10.0.2.1"], ["fd00::21"])])


def example_net_fixture(hosted_v6: bool = False) -> FixtureZone:
    v6a = ["fd00::f1"] if hosted_v6 else []
    v6b = ["fd00::f2"] if hosted_v6 else []
    return zone_fixture(
        "example.net",
        [("ns.example.net", ["10.0.5.1"], ["fd00::51"])],
        hosted=[
            ("ns1.example.net", ["10.0.5.11"], v6a),
            ("ns2.example.net", ["10.0.5.12"], v6b),
        ],
    )


def broken_oob_universe() -> Universe:
    """example.org served by out-of-bailiwick ns1/ns2.example.net that have
    only A records: resolves over IPv4, not over IPv6."""
    return build_universe([
        root_fixture(),
        org_fixture(),
        net_fixture(),
        example_net_fixture(hosted_v6=False),
        FixtureZone(
            zone=N("example.org"),
            ns=(FixtureNs(N("ns1.example.net")), FixtureNs(N("ns2.example.net"))),
        ),
    ])


def missing_glue_universe() -> Universe:
    """sub.example.org has in-bailiwick ns3/ns4 with AAAA at the child apex,
    but its parent serves only A glue."""
    return build_universe([
        root_fixture(),
        org_fixture(),
        zone_fixture("example.org", [("ns.example.org", ["10.0.6.1"], ["fd00::61"])]),
        FixtureZone(
            zone=N("sub.example.org"),
            ns=(
                FixtureNs(N("ns3.sub.example.org"), ("10.0.7.1",), ("fd00::71",)),
                FixtureNs(N("ns4.sub.example.org"), ("10.0.7.2",), ("fd00::72",)),
            ),
            glue_in_parent={
                N("ns3.sub.example.org"): AddrRecords(v4=frozenset({"10.0.7.1"})),
                N("ns4.sub.example.org"): AddrRecords(v4=frozenset({"10.0.7.2"})),
            },
        ),
    ])


def combined_two_scenario_universe() -> Universe:
    """Both scenarios in one six-zone tree. sub.example.org then also
    inherits a broken parent, so cause assertions on it use membership."""
    return build_universe([
        root_fixture(),
        org_fixture(),
        net_fixture(),
        example_net_fixture(hosted_v6=False),
        FixtureZone(
            zone=N("example.org"),
            ns=(FixtureNs(N("ns1.example.net")), FixtureNs(N("ns2.example.net"))),
        ),
        FixtureZone(
            zone=N("sub.example.org"),
            ns=(
                FixtureNs(N("ns3.sub.example.org"), ("10.0.7.1",), ("fd00::71",)),
                FixtureNs(N("ns4.sub.example.org"), ("10.0.7.2",), ("fd00::72",)),
            ),
            glue_in_parent={
                N("ns3.sub.example.org"): AddrRecords(v4=frozenset({"10.0.7.1"})),
                N("ns4.sub.example.org"): AddrRecords(v4=frozenset({"10.0.7.2"})),
            },
        ),
    ])


def healthy_zone(zone: str, n: int, ns_count: int = 2, **kwargs) -> FixtureZone:
    entries = []
    for j in range(ns_count):
        entries.append((
            f"ns{j}.{zone}".replace("..", "."),
            [f"10.{n}.{j}.1"],
            [f"fd00:{n:x}:{j:x}::1"],
        ))
    return zone_fixture(zone, entries, **kwargs)


def healthy_depth3_universe() -> Universe:
    return build_universe([
        root_fixture(),
        healthy_zone("t", 10),
        healthy_zone("d.t", 11),
        healthy_zone("s.d.t", 12),
    ])


def healthy_depth4_universe() -> Universe:
    return build_universe([
        root_fixture(),
        healthy_zone("t", 20),
        healthy_zone("a.t", 21),
        healthy_zone("b.a.t", 22),
        healthy_zone("c.b.a.t", 23),
    ])


def taxonomy_scenarios():
    """(name, universe, defective zone, expected cause, descendants).

    Each scenario injects exactly one failure mode into a healthy tree.
    Auxiliary zones used as the mechanism (for example the host zone of an
    out-of-bailiwick NS) carry their own mechanism cause and are not the
    assertion target.
    """
    from v6ready.classify import (
        CAUSE_IN_BAILIWICK_NS_WITHOUT_AAAA,
        CAUSE_MISSING_GLUE,
        CAUSE_NO_AAAA_FOR_NS,
        CAUSE_OOB_NS_ZONE_UNRESOLVABLE,
        CAUSE_PARENT_UNRESOLVABLE,
    )

    scenarios = []

    # 1. NS names carry no AAAA anywhere.
    u1 = build_universe([
        root_fixture(),
        healthy_zone("t", 10),
        zone_fixture("d.t", [("ns0.d.t", ["10.30.0.1"], [])]),
        healthy_zone("s.d.t", 12),
    ])
    scenarios.append(("no-aaaa", u1, N("d.t"), CAUSE_NO_AAAA_FOR_NS, [N("s.d.t")]))

    # 2. AAAA exists at the child apex but the parent serves only A glue.
    u2 = build_universe([
        root_fixture(),
        healthy_zone("t", 10),
        FixtureZone(
            zone=N("d.t"),
            ns=(FixtureNs(N("ns0.d.t"), ("10.31.0.1",), ("fd00:31::1",)),),
            glue_in_parent={N("ns0.d.t"): AddrRecords(v4=frozenset({"10.31.0.1"}))},
        ),
        healthy_zone("s.d.t", 12),
    ])
    scenarios.append(("missing-glue", u2, N("d.t"), CAUSE_MISSING_GLUE, [N("s.d.t")]))

    # 3. Parent glue has AAAA but the zone's own apex does not.
    u3 = build_universe([
        root_fixture(),
        healthy_zone("t", 10),
        healthy_zone("d.t", 11, ns_count=1, defects={DROP_AAAA_APEX}),
        healthy_zone("s.d.t", 12),
    ])
    scenarios.append(("apex-missing", u3, N("d.t"),
                      CAUSE_IN_BAILIWICK_NS_WITHOUT_AAAA, [N("s.d.t")]))

    # 4. Out-of-bailiwick NS with AAAA whose own zone is not v6-resolvable.
    u4 = build_universe([
        root_fixture(),
        healthy_zone("t", 10),
        zone_fixture(
            "h.t", [("ns0.h.t", ["10.32.0.1"], [])],
            hosted=[("target-ns.h.t", ["10.32.0.2"], ["fd00:32::2"])],
        ),
        FixtureZone(zone=N("d.t"), ns=(FixtureNs(N("target-ns.h.t")),)),
        healthy_zone("s.d.t", 12),
    ])
    scenarios.append(("oob-unresolvable", u4, N("d.t"),
                      CAUSE_OOB_NS_ZONE_UNRESOLVABLE, [N("s.d.t")]))

    # 5. The zone itself is fine; its parent is not v6-resolvable.
    u5 = build_universe([
        root_fixture(),
        healthy_zone("t", 10),
        zone_fixture("d.t", [("ns0.d.t", ["10.33.0.1"], [])]),
        healthy_zone("s.d.t", 12),
        healthy_zone("x.s.d.t", 13),
    ])
    scenarios.append(("parent-broken", u5, N("s.d.t"),
                      CAUSE_PARENT_UNRESOLVABLE, [N("x.s.d.t")]))

    return scenarios


def liveness_gap_universe(total: int = 200, dead: int = 13) -> Universe:
    """``total`` v6-addressed NS, ``dead`` of them unresponsive over IPv6:
    a 93.5% responsive fraction at the defaults."""
    fixtures = [root_fixture(), healthy_zone("t", 10)]
    for i in range(total):
        defects = {BLACKHOLE_V6} if i < dead else set()
        fixtures.append(zone_fixture(
            f"z{i}.t",
            [(f"ns.z{i}.t", [f"10.40.{i // 250}.{i % 250 + 1}"],
              [f"fd00:40::{i + 1:x}"])],
            defects=defects,
        ))
    return build_universe(fixtures)


def with_liveness_faults(universe: Universe, seed: int, rate: float = 0.15) -> Universe:
    """The same tree with about ``rate`` of its zones, the root included,
    given ``blackhole-v6`` or ``blackhole-all`` (seeded, even odds)."""
    rng = random.Random(seed)
    fixtures = {}
    for zone, fz in sorted(universe.fixtures.items()):
        if rng.random() < rate:
            defect = rng.choice((BLACKHOLE_V6, BLACKHOLE_ALL))
            fz = replace(fz, defects=fz.defects | {defect})
        fixtures[zone] = fz
    return Universe(fixtures)


class RecordingTransport:
    """A universe as a transport that keeps every exchange in order:
    (server address, transport, query bytes, reply bytes), where the reply
    is the name of the exception raised if the universe did not answer."""

    def __init__(self, universe: Universe):
        self.universe = universe
        self.exchanges: list[tuple[str, str, bytes, bytes | str]] = []

    def exchange(self, server, transport, payload, timeout):
        try:
            reply = self.universe.exchange(server, transport, payload, timeout)
        except (TransportTimeout, TransportUnreachable) as exc:
            self.exchanges.append((server.ip, transport, payload, type(exc).__name__))
            raise
        self.exchanges.append((server.ip, transport, payload, reply))
        return reply


class ClosedPort(UdpTcpTransport):
    """Real sockets aimed at port 1 of each server, where nothing listens."""

    def exchange(self, server, transport, payload, timeout):
        return super().exchange(ServerAddress(server.ip, 1), transport, payload, timeout)


def with_short_a_record(raw: bytes) -> bytes:
    """``raw`` with one more additional record: an A record of 3 bytes."""
    arcount = int.from_bytes(raw[10:12], "big") + 1
    return (raw[:10] + arcount.to_bytes(2, "big") + raw[12:]
            + b"\x00" + struct.pack("!HHIH", 1, 1, 60, 3) + b"\x01\x02\x03")


# -- run helpers ------------------------------------------------------------


def make_resolver(universe: Universe, protocol_filter: str = PROTOCOL_BOTH,
                  seed: int = 1, policy: QueryPolicy | None = None) -> Resolver:
    engine = QueryEngine(
        universe,
        policy=policy or TEST_POLICY,
        rng=random.Random(seed),
        sleep=lambda s: None,
    )
    return Resolver(engine, root_hints=universe.root_hints(),
                    protocol_filter=protocol_filter)


def crawl(universe: Universe, protocol_filter: str = PROTOCOL_BOTH, seed: int = 1):
    """Resolve every fixture zone; returns (resolver, {zone: ChainResult})."""
    resolver = make_resolver(universe, protocol_filter, seed)
    results = {}
    for zone in sorted(universe.fixtures):
        if zone.is_root:
            continue
        results[zone] = resolver.resolve_chain(zone)
    return resolver, results


def passive_verdicts(tuples):
    """(record_sets, table, statuses) from a tuple list."""
    result = ingest_tuples(tuples)
    table = fixed_point(result.record_sets)
    statuses = classify_zones(result.record_sets, table)
    return result.record_sets, table, statuses


def passive_res(record_sets, table, zone):
    """The fixed point's verdict on ``zone``, one of ``record_sets``, as
    {V4: resolvable, V6: resolvable}."""
    assert zone in record_sets, str(zone)
    return {proto: table.resolvable(zone, proto) for proto in (V4, V6)}
