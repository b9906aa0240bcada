"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with its elapsed time and enforcing its time budget."""

import random
import time
from contextlib import contextmanager

import reference_truth
from universes import (
    CYCLE_DENSE,
    N,
    TEST_POLICY,
    broken_oob_universe,
    crawl,
    healthy_depth4_universe,
    healthy_zone,
    liveness_gap_universe,
    make_resolver,
    missing_glue_universe,
    passive_res,
    passive_verdicts,
    root_fixture,
    taxonomy_scenarios,
    with_liveness_faults,
)
from v6ready.classify import (
    CAUSE_MISSING_GLUE,
    CAUSE_NO_AAAA_FOR_NS,
    CAUSE_PARENT_UNRESOLVABLE,
    FailureCause,
    ResolutionStatus,
    failure_breakdown,
    state_of,
)
from v6ready.mocknet import (
    BLACKHOLE_ALL,
    FORMERR_ON_EDNS,
    TRUNCATE_UDP,
    BLACKHOLE_V6,
    build_universe,
    fixture_tuples,
    ground_truth,
    random_universe,
)
from v6ready.names import normalize
from v6ready.psl import PublicSuffixList
from v6ready.query import RESPONSE, QueryEngine, ServerAddress, TCP, UDP
from v6ready.records import RRType, V4, V6
from v6ready.resolver import PROTOCOL_V4_ONLY, PROTOCOL_V6_ONLY, RootUnreachable


@contextmanager
def criterion(name: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL {name} ({time.monotonic() - start:.2f}s)")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE PASS {name} ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"{name} exceeded {budget_seconds}s budget"


def test_two_scenario_fidelity():
    with criterion("two-scenario-fidelity", 5.0):
        for universe_fn, zone, cause in (
            (broken_oob_universe, "example.org", CAUSE_NO_AAAA_FOR_NS),
            (missing_glue_universe, "sub.example.org", CAUSE_MISSING_GLUE),
        ):
            # active path
            u = universe_fn()
            _resolver, results = crawl(u)
            res = results[N(zone)]
            assert res.state == "v4-only", zone
            assert res.status.causes == {cause}, zone
            # passive path over the tuples exported from the active run
            rs, table, statuses = passive_verdicts(u.export_tuples())
            assert passive_res(rs, table, N(zone)) == {V4: True, V6: False}, zone
            assert statuses[N(zone)].state == "v4-only", zone
            assert statuses[N(zone)].causes == {cause}, zone


def test_taxonomy_soundness():
    with criterion("taxonomy-soundness", 10.0):
        scenarios = taxonomy_scenarios()
        assert len(scenarios) == 5
        for name, universe, target, expected, descendants in scenarios:
            _resolver, results = crawl(universe)
            status = results[target].status
            assert status.causes == {expected}, (name, sorted(status.causes))
            assert not results[target].v6_resolvable, name
            for desc in descendants:
                got = results[desc].status.causes
                assert got == {CAUSE_PARENT_UNRESOLVABLE}, (name, str(desc), got)


def test_oracle_equivalence():
    with criterion("oracle-equivalence", 60.0):
        rate_profiles = [
            None,  # defaults
            {"ns-no-v6": 0.4, "drop-aaaa-glue": 0.2},
            {"oob-ns": 0.5, "drop-aaaa-apex": 0.2, "wrong-ns-set-child": 0.2},
            {"ns-no-v4": 0.15, "ns-no-v6": 0.1},
        ]
        universes = 0
        zones_checked = 0
        for seed in range(200):
            size = 5 + (seed * 13) % 96
            rates = rate_profiles[seed % len(rate_profiles)]
            u, truth = random_universe(seed, size, rates)
            result_sets, table, _ = passive_verdicts(fixture_tuples(u))
            universes += 1
            for zone, expected in truth.items():
                assert zone not in table.unknown_parent, str(zone)
                got = passive_res(result_sets, table, zone)
                assert got == expected, (seed, str(zone), got, expected)
                zones_checked += 1
        assert universes >= 200
        assert zones_checked > 5000


def test_oracle_equivalence_at_scale():
    with criterion("oracle-equivalence-at-scale", 30.0):
        # the referee against its path-enumeration reference, key order
        # included, on every universe test_oracle_equivalence draws and on
        # cycle-dense ones up to 1k zones, each as drawn and with liveness
        # faults
        rate_profiles = [
            None,
            {"ns-no-v6": 0.4, "drop-aaaa-glue": 0.2},
            {"oob-ns": 0.5, "drop-aaaa-apex": 0.2, "wrong-ns-set-child": 0.2},
            {"ns-no-v4": 0.15, "ns-no-v6": 0.1},
        ]
        draws = [(seed, 5 + (seed * 13) % 96, rate_profiles[seed % len(rate_profiles)])
                 for seed in range(200)]
        draws += [(seed, size, CYCLE_DENSE) for seed, size in ((1, 250), (2, 500), (3, 1000))]
        for seed, size, rates in draws:
            u, _truth = random_universe(seed, size, rates)
            for universe in (u, with_liveness_faults(u, seed)):
                expected = reference_truth.ground_truth(universe)
                got = ground_truth(universe)
                assert [(z, list(t.items())) for z, t in got.items()] == [
                    (z, list(t.items())) for z, t in expected.items()], (seed, size)
        # the fixed point against the referee where cycles are dense
        for size in (2000, 4000, 8000):
            u, truth = random_universe(size, size, CYCLE_DENSE)
            result_sets, table, _ = passive_verdicts(fixture_tuples(u))
            assert {zone: passive_res(result_sets, table, zone) for zone in truth} == truth
            assert {t[V6] for t in truth.values()} == {True, False}, size


def test_active_passive_agreement():
    with criterion("active-passive-agreement", 120.0):
        # Complete-visibility fixtures: IPv4 stays healthy and dependency
        # cycles are ruled out, so the crawl can observe every zone's
        # records; IPv6 defects vary freely.
        universes = 0
        for seed in range(50):
            size = 10 + (seed * 7) % 71
            u, _truth = random_universe(
                1000 + seed, size,
                {"ns-no-v4": 0.0, "ns-no-v6": 0.3, "oob-ns": 0.35},
                acyclic_oob=True,
            )
            _resolver, results = crawl(u)
            rs, table, _statuses = passive_verdicts(u.export_tuples())
            universes += 1
            for zone, res in results.items():
                assert zone in rs, (seed, str(zone))
                passive = passive_res(rs, table, zone)
                active = {V4: res.v4_resolvable, V6: res.v6_resolvable}
                assert active == passive, (seed, str(zone), active, passive)
        assert universes >= 50


def test_active_verdicts_match_ground_truth_under_liveness_faults():
    with criterion("liveness-differential", 60.0):
        # About 15% of the zones, the root included, have servers that never
        # answer over IPv6 or at all. One resolver crawls each universe in a
        # shuffled order, as a scan shares one resolver across domains.
        zones = faulted = 0
        for seed in range(200):
            base, _truth = random_universe(seed, 25)
            u = with_liveness_faults(base, seed)
            faulted += sum(1 for fz in u.fixtures.values()
                           if fz.defects & {BLACKHOLE_V6, BLACKHOLE_ALL})
            truth = ground_truth(u)
            order = sorted(truth)
            random.Random(seed).shuffle(order)
            resolver = make_resolver(u)
            for zone in order:
                zones += 1
                try:
                    res = resolver.resolve_chain(zone)
                except RootUnreachable:
                    assert truth[zone] == {V4: False, V6: False}, (seed, str(zone))
                    continue
                got = {V4: res.v4_resolvable, V6: res.v6_resolvable}
                assert got == truth[zone], (seed, str(zone), got, truth[zone])
                for step in res.steps:
                    if step.zone in truth:
                        want = state_of(truth[step.zone][V4], truth[step.zone][V6])
                        assert step.status.state == want, (seed, str(step.zone))
        assert zones == 200 * 25
        assert 0.1 < faulted / (200 * 26) < 0.2


def test_chain_documents_do_not_depend_on_crawl_order_under_liveness_faults():
    with criterion("crawl-order-independence", 120.0):
        # The trees of the liveness differential, each crawled by one
        # resolver in sorted and in shuffled order, give the same whole
        # documents, the queried lists of zones that depend on each other
        # included.
        def documents(u, order):
            resolver = make_resolver(u)
            docs = {}
            for zone in order:
                try:
                    docs[zone] = resolver.resolve_chain(zone).to_json_dict()
                except RootUnreachable:
                    docs[zone] = None
            return docs

        for seed in range(200):
            base, truth = random_universe(seed, 25)
            u = with_liveness_faults(base, seed)
            order = sorted(truth)
            in_order = documents(u, order)
            random.Random(seed).shuffle(order)
            shuffled = documents(u, order)
            for zone in order:
                assert shuffled[zone] == in_order[zone], (seed, str(zone))


def transport_test_universe(defect):
    return build_universe([
        root_fixture(),
        healthy_zone("t", 10),
        healthy_zone("d.t", 11, ns_count=1, defects={defect}),
    ])


def test_transport_behaviors():
    with criterion("transport-behaviors", 5.0):
        # truncation -> TCP fallback
        u = transport_test_universe(TRUNCATE_UDP)
        engine = QueryEngine(u, policy=TEST_POLICY, rng=random.Random(1),
                             sleep=lambda s: None)
        addr = ServerAddress(u.listen_addrs(N("ns0.d.t"), V4)[0])
        outcome = engine.query(addr, N("d.t"), RRType.SOA)
        assert outcome.kind == RESPONSE
        transports = [e.transport for e in u.log.queries() if e.address == addr.ip]
        assert transports == [UDP, TCP]

        # FORMERR -> EDNS disabled on the retry
        u = transport_test_universe(FORMERR_ON_EDNS)
        engine = QueryEngine(u, policy=TEST_POLICY, rng=random.Random(1),
                             sleep=lambda s: None)
        addr = ServerAddress(u.listen_addrs(N("ns0.d.t"), V4)[0])
        outcome = engine.query(addr, N("d.t"), RRType.SOA)
        assert outcome.kind == RESPONSE
        edns_flags = [e.message.edns is not None
                      for e in u.log.queries() if e.address == addr.ip]
        assert edns_flags == [True, False]

        # retry budget of exactly 4 against a black hole
        u = transport_test_universe(BLACKHOLE_ALL)
        engine = QueryEngine(u, policy=TEST_POLICY, rng=random.Random(1),
                             sleep=lambda s: None)
        addr = ServerAddress(u.listen_addrs(N("ns0.d.t"), V4)[0])
        outcome = engine.query(addr, N("d.t"), RRType.SOA)
        assert outcome.kind == "timeout"
        attempts = [e for e in u.log.queries() if e.address == addr.ip]
        assert len(attempts) == 4

        # failure outcomes are cached: the repeat adds no packets
        packets_before = len(u.log.entries)
        again = engine.query(addr, N("d.t"), RRType.SOA)
        assert again == outcome
        assert len(u.log.entries) == packets_before


def test_protocol_isolation():
    with criterion("protocol-isolation", 5.0):
        u = healthy_depth4_universe()
        crawl(u, protocol_filter=PROTOCOL_V6_ONLY)
        assert u.log.queries(V4) == []
        assert len(u.log.queries(V6)) > 0

        u = healthy_depth4_universe()
        crawl(u, protocol_filter=PROTOCOL_V4_ONLY)
        assert u.log.queries(V6) == []
        assert len(u.log.queries(V4)) > 0


def test_query_frugality():
    with criterion("query-frugality", 5.0):
        u = healthy_depth4_universe()
        resolver = make_resolver(u)
        resolver.resolve_chain("c.b.a.t")
        keys = u.log.exchange_keys()
        assert len(keys) == len(set(keys)), "duplicate (server, qname, qtype)"
        ns_qnames = [q for _s, q, t in keys if t == "NS"]
        assert set(ns_qnames) == {"t", "a.t", "b.a.t", "c.b.a.t"}
        # QNAME minimization: nothing deeper than the boundary is ever sent
        # to a server of a shallower zone.
        for entry in u.log.queries():
            q = entry.message.question
            server_zone = u._deepest_served(
                u.address_name[entry.address], q.qname)
            assert server_zone is not None


def test_analytics_arithmetic():
    with criterion("analytics-arithmetic", 10.0):
        from v6ready.analytics import nsset_cdf

        psl = PublicSuffixList.parse("com\nnet\norg\n")
        rng = random.Random(99)
        trials = 0
        for _ in range(100):
            spec = [
                (f"ns.h{i}.com", rng.randint(1, 40))
                for i in range(rng.randint(1, 50))
            ]
            entries = []
            for name, count in spec:
                for _ in range(count):
                    entries.append(([normalize(name)], False))
            rng.shuffle(entries)
            cdf = nsset_cdf(entries, psl)
            counts = sorted((c for _n, c in spec), reverse=True)
            total = sum(counts)
            assert cdf.zone_count == total
            cum = 0
            for i, c in enumerate(counts):
                cum += c
                assert abs(cdf.points[i][1] - cum / total) < 1e-12
            assert abs(cdf.top10_share
                       - sum(counts[:10]) / total) < 1e-12
            trials += 1

            # failure_breakdown against a hand recount
            causes_pool = (CAUSE_MISSING_GLUE, CAUSE_NO_AAAA_FOR_NS)
            statuses = []
            for _ in range(rng.randint(1, 60)):
                v6 = rng.random() < 0.5
                intent = rng.random() < 0.8
                cs = frozenset() if v6 else frozenset(
                    FailureCause(c, ())
                    for c in rng.sample(causes_pool, rng.randint(1, 2)))
                statuses.append(ResolutionStatus(True, v6, intent, cs))
            b = failure_breakdown(statuses)
            pop = sum(1 for s in statuses if s.intent_v6 and not s.v6)
            assert b.population == pop
            for cause in causes_pool:
                manual = sum(
                    1 for s in statuses
                    if s.intent_v6 and not s.v6
                    and cause in {f.cause for f in s.v6_failures})
                assert b.counts.get(cause, 0) == manual
        assert trials >= 100


def test_liveness_gap():
    with criterion("liveness-gap", 10.0):
        from v6ready.records import AddrRecords

        total, dead = 200, 13
        u = liveness_gap_universe(total=total, dead=dead)
        resolver = make_resolver(u)
        responsive = probed = 0
        for zone, fz in sorted(u.fixtures.items()):
            if len(zone.labels) < 2:  # only the leaf zones carry the panel
                continue
            for entry in fz.ns:
                addrs = AddrRecords(frozenset(entry.v4), frozenset(entry.v6))
                for _addr, proto, verdict in resolver.probe_ns_liveness(
                        entry.name, addrs, zone):
                    if proto == V6:
                        probed += 1
                        if verdict == "responsive":
                            responsive += 1
        assert probed == total
        assert responsive == total - dead
        fraction = responsive / probed
        assert abs(fraction - 0.935) < 1e-12
