import random
from dataclasses import replace

import pytest

from universes import (
    N,
    TEST_POLICY,
    broken_oob_universe,
    crawl,
    healthy_depth3_universe,
    healthy_depth4_universe,
    healthy_zone,
    make_resolver,
    missing_glue_universe,
    passive_verdicts,
    root_fixture,
    with_short_a_record,
)
from v6ready.classify import (
    CAUSE_MISSING_GLUE,
    CAUSE_NO_AAAA_FOR_NS,
    CAUSE_NS_UNRESPONSIVE,
    CAUSE_OOB_NS_ZONE_UNRESOLVABLE,
    CAUSE_PARENT_UNRESOLVABLE,
)
from v6ready.mocknet import (
    BLACKHOLE_ALL,
    BLACKHOLE_V6,
    DROP_AAAA_GLUE,
    FixtureNs,
    FixtureZone,
    WRONG_NS_SET_CHILD,
    build_universe,
    fixture_tuples,
    ground_truth,
    zone_fixture,
)
from v6ready.query import QueryEngine
from v6ready.records import AddrRecords, V4, V6
from v6ready.resolver import (
    PROTOCOL_V4_ONLY,
    PROTOCOL_V6_ONLY,
    Resolver,
    RootUnreachable,
)
from v6ready.wire import decode


def test_broken_oob_scenario_is_v4_only():
    u = broken_oob_universe()
    resolver = make_resolver(u)
    res = resolver.resolve_chain("example.org")
    assert res.v4_resolvable and not res.v6_resolvable
    assert res.state == "v4-only"
    assert res.status.causes == {CAUSE_NO_AAAA_FOR_NS}
    assert not res.status.intent_v6
    # the NS host zone itself is fine
    assert resolver.resolve_chain("example.net").state == "dual"


def test_missing_glue_scenario_is_v4_only():
    u = missing_glue_universe()
    resolver = make_resolver(u)
    res = resolver.resolve_chain("sub.example.org")
    assert res.state == "v4-only"
    assert res.status.causes == {CAUSE_MISSING_GLUE}
    assert res.status.intent_v6
    assert resolver.resolve_chain("example.org").state == "dual"


def test_dual_stack_depth3_with_empty_nonterminal_gap():
    # www.s.d.t is not a zone; neither is an intermediate boundary below it.
    u = healthy_depth3_universe()
    resolver = make_resolver(u)
    res = resolver.resolve_chain("www.deep.s.d.t")
    assert res.state == "dual"
    assert [str(s.zone) for s in res.steps] == ["t", "d.t", "s.d.t"]


def test_protocol_isolation_v6_only_emits_no_v4_packets():
    u = healthy_depth3_universe()
    crawl(u, protocol_filter=PROTOCOL_V6_ONLY)
    assert u.log.queries(V4) == []
    assert len(u.log.queries(V6)) > 0


def test_protocol_isolation_v4_only_emits_no_v6_packets():
    u = healthy_depth3_universe()
    crawl(u, protocol_filter=PROTOCOL_V4_ONLY)
    assert u.log.queries(V6) == []
    assert len(u.log.queries(V4)) > 0


def test_query_frugality_and_qname_minimization_depth4():
    u = healthy_depth4_universe()
    resolver = make_resolver(u)
    resolver.resolve_chain("c.b.a.t")
    keys = u.log.exchange_keys()
    assert len(keys) == len(set(keys)), "duplicate (server, qname, qtype) exchange"
    ns_qnames = {q for _, q, t in keys if t == "NS"}
    assert ns_qnames == {"t", "a.t", "b.a.t", "c.b.a.t"}  # one boundary each


def test_child_only_ns_discovered_and_queried():
    u = build_universe([
        root_fixture(),
        healthy_zone("t", 10),
        healthy_zone("d.t", 11, defects={WRONG_NS_SET_CHILD}),
    ])
    resolver = make_resolver(u)
    res = resolver.resolve_chain("d.t")
    step = res.steps[-1]
    extra = step.child_ns_set - step.parent_ns_set
    assert len(extra) == 1
    extra_name = next(iter(extra))
    assert str(extra_name).startswith("ns-child-only")
    queried_addrs = {addr for addr, _, _ in step.queried_servers}
    assert u.listen_addrs(extra_name, V4)[0] in queried_addrs


def test_liveness_probe_v4_only_listener():
    u = build_universe([
        root_fixture(),
        healthy_zone("t", 10),
        healthy_zone("d.t", 11, ns_count=1, defects={BLACKHOLE_V6}),
    ])
    resolver = make_resolver(u)
    res = resolver.resolve_chain("d.t", probe_liveness=True)
    verdicts = {(proto, verdict) for _addr, proto, verdict in res.liveness}
    assert (V4, "responsive") in verdicts
    assert (V6, "unresponsive") in verdicts


def test_liveness_rejects_unspecified_address():
    u = healthy_depth3_universe()
    resolver = make_resolver(u)
    rows = resolver.probe_ns_liveness(
        N("ns.weird.t"), AddrRecords(frozenset({"0.0.0.0"}), frozenset({"::"})),
        N("t"))
    assert {(a, p, v) for a, p, v in rows} == {
        ("0.0.0.0", V4, "invalid"), ("::", V6, "invalid")}


def test_liveness_healthy_both_stacks():
    u = healthy_depth3_universe()
    resolver = make_resolver(u)
    res = resolver.resolve_chain("d.t", probe_liveness=True)
    assert res.liveness
    assert all(v == "responsive" for _, _, v in res.liveness)


def test_enrichment_mx_absent_is_empty_not_error():
    u = healthy_depth3_universe()
    resolver = make_resolver(u)
    res = resolver.resolve_chain("d.t", enrich_result=True)
    assert all(rows == [] for rows in res.enrichment["MX"].values())
    assert all(rows for rows in res.enrichment["NS"].values())


def test_deterministic_chain_result():
    def run():
        u = healthy_depth4_universe()
        resolver = make_resolver(u, seed=5)
        return resolver.resolve_chain("c.b.a.t").to_json_dict()

    assert run() == run()


def test_adding_glue_never_breaks_resolution():
    broken = missing_glue_universe()
    res_broken = crawl(broken)[1][N("sub.example.org")]
    fixed_fixtures = dict(broken.fixtures)
    sub = fixed_fixtures[N("sub.example.org")]
    from dataclasses import replace

    fixed_fixtures[N("sub.example.org")] = replace(sub, glue_in_parent=None)
    fixed = build_universe(list(fixed_fixtures.values()))
    res_fixed = crawl(fixed)[1][N("sub.example.org")]
    assert res_broken.v4_resolvable <= res_fixed.v4_resolvable
    assert res_broken.v6_resolvable <= res_fixed.v6_resolvable
    assert res_fixed.v6_resolvable


def test_cname_at_ns_target_recorded_not_chased():
    u = build_universe([
        root_fixture(),
        healthy_zone("t", 10),
        FixtureZone(
            zone=N("d.t"),
            ns=(
                FixtureNs(N("ns0.d.t"), ("10.50.0.1",), ("fd00:50::1",)),
                FixtureNs(N("alias.d.t")),
            ),
            cnames=((N("alias.d.t"), N("ns0.d.t")),),
        ),
    ])
    resolver = make_resolver(u)
    res = resolver.resolve_chain("d.t")
    step = res.steps[-1]
    assert N("alias.d.t") in step.cname_ns
    # no query was ever sent for the CNAME target chain
    assert res.state == "dual"  # ns0 alone carries the zone


def test_root_unreachable_raises():
    u = build_universe([
        zone_fixture(".", [("a.root", ["10.0.0.1"], [])]),
    ])

    class DeadTransport:
        def exchange(self, server, transport, payload, timeout):
            from v6ready.query import TransportTimeout

            raise TransportTimeout("dead")

    import random

    from v6ready.query import QueryEngine

    engine = QueryEngine(DeadTransport(), policy=TEST_POLICY,
                         rng=random.Random(1), sleep=lambda s: None)
    resolver = Resolver(engine, root_hints=u.root_hints())
    with pytest.raises(RootUnreachable):
        resolver.resolve_chain("example.com")


def test_strict_vs_lenient_reachability():
    u = build_universe([
        root_fixture(),
        healthy_zone("t", 10),
        healthy_zone("d.t", 11, defects={WRONG_NS_SET_CHILD}),
    ])
    resolver = make_resolver(u)
    res = resolver.resolve_chain("d.t")
    assert res.v6_resolvable  # parent-listed servers answer


def test_zone_below_a_v6_dark_parent_is_not_v6_resolvable():
    # t's servers never answer over IPv6, so d.t cannot be reached over
    # IPv6 either, even though d.t's own servers would answer.
    u = build_universe([
        root_fixture(),
        healthy_zone("t", 10, defects={BLACKHOLE_V6}),
        healthy_zone("d.t", 11),
    ])
    truth = ground_truth(u)
    resolver = make_resolver(u)
    for zone in ("t", "d.t"):
        res = resolver.resolve_chain(zone)
        assert truth[N(zone)] == {V4: True, V6: False}, zone
        assert (res.v4_resolvable, res.v6_resolvable) == (True, False), zone
        assert res.state == "v4-only", zone
    assert make_resolver(u).resolve_chain("x.d.t").state == "v4-only"


def cause_witnesses(res):
    return {f.cause: f.witnesses for f in res.status.v6_failures}


def test_v6_dark_parent_is_reported_with_its_silent_servers():
    u = build_universe([
        root_fixture(),
        healthy_zone("t", 10, defects={BLACKHOLE_V6}),
    ])
    res = make_resolver(u).resolve_chain("t")
    assert res.state == "v4-only"
    assert cause_witnesses(res) == {CAUSE_NS_UNRESPONSIVE: ("ns0.t", "ns1.t")}


def test_silent_parent_step_lists_its_unanswered_probes():
    # No server of t answers, so d.t's step ends the chain; the NS queries
    # that timed out at t's servers are the evidence for its cause.
    u = build_universe([
        root_fixture(),
        healthy_zone("t", 10, defects={BLACKHOLE_ALL}),
        healthy_zone("d.t", 11),
    ])
    res = make_resolver(u).resolve_chain("d.t")
    assert [str(s.zone) for s in res.steps] == ["t", "d.t"]
    assert cause_witnesses(res) == {CAUSE_NS_UNRESPONSIVE: ("ns0.t", "ns1.t")}
    assert res.steps[-1].queried_servers == [
        ("10.10.0.1", V4, "timeout"), ("fd00:a::1", V6, "timeout"),
        ("10.10.1.1", V4, "timeout"), ("fd00:a:1::1", V6, "timeout"),
    ]


def test_silent_own_server_and_v6_broken_host_zone_is_not_v6_resolvable():
    # z.t's own server never answers over IPv6. Its other NS, ns.h.t,
    # answers over IPv6, but h.t does not resolve over IPv6 (no AAAA glue).
    u = build_universe([
        root_fixture(),
        healthy_zone("t", 10),
        zone_fixture("h.t", [("ns0.h.t", ["10.11.0.1"], ["fd00:11::1"])],
                     hosted=[("ns.h.t", ["10.11.0.2"], ["fd00:11::2"])],
                     defects={DROP_AAAA_GLUE}),
        zone_fixture("z.t", [("ns.z.t", ["10.12.0.1"], ["fd00:12::1"]),
                             ("ns.h.t", [], [])],
                     defects={BLACKHOLE_V6}),
    ])
    assert ground_truth(u)[N("z.t")] == {V4: True, V6: False}
    res = make_resolver(u).resolve_chain("z.t")
    assert (res.v4_resolvable, res.v6_resolvable) == (True, False)
    assert res.state == "v4-only"
    assert cause_witnesses(res) == {
        CAUSE_NS_UNRESPONSIVE: ("ns.z.t",),
        CAUSE_OOB_NS_ZONE_UNRESOLVABLE: ("ns.h.t",),
    }


def test_root_that_never_answers_over_v6_leaves_no_zone_v6_resolvable():
    root = replace(root_fixture(), defects=frozenset({BLACKHOLE_V6}))
    u = build_universe([root, healthy_zone("t", 10), healthy_zone("d.t", 11)])
    truth = ground_truth(u)
    resolver = make_resolver(u)
    for zone in ("t", "d.t"):
        res = resolver.resolve_chain(zone)
        assert truth[N(zone)] == {V4: True, V6: False}, zone
        assert res.state == "v4-only", zone
    assert cause_witnesses(resolver.resolve_chain("t")) == {
        CAUSE_PARENT_UNRESOLVABLE: (".",)}


def test_every_step_state_is_that_zones_verdict():
    u = build_universe([
        root_fixture(),
        healthy_zone("t", 10, defects={BLACKHOLE_V6}),
        healthy_zone("d.t", 11),
        healthy_zone("s.d.t", 12),
    ])
    res = make_resolver(u).resolve_chain("s.d.t")
    assert [(str(s.zone), s.status.state) for s in res.steps] == [
        ("t", "v4-only"), ("d.t", "v4-only"), ("s.d.t", "v4-only")]
    for step in res.steps:
        assert step.status.state == make_resolver(u).resolve_chain(step.zone).state


def test_false_found_through_a_cycle_cut_is_not_reused():
    # j -> b.a -> i.f -> j is a cycle of out-of-bailiwick NS; i.f also has
    # a server of its own, so every zone resolves. Walking i.f walks j and
    # b.a while i.f is mid-walk: b.a fails at that cut. The later walk of
    # l.j walks j again and must walk b.a again too, not reuse its failure.
    u = build_universe([
        root_fixture(),
        zone_fixture("a", [("ns.f", [], []), ("ns.a", ["10.1.0.1"], ["fd00:1::1"])]),
        zone_fixture("b.a", [("ns.i.f", [], [])],
                     hosted=[("ns.b.a", ["10.2.0.1"], ["fd00:2::1"])]),
        zone_fixture("f", [("ns.k.j", [], []), ("ns1.f", ["10.3.0.1"], ["fd00:3::1"])],
                     hosted=[("ns.f", ["10.3.0.2"], ["fd00:3::2"])]),
        zone_fixture("i.f", [("ns0.i.f", ["10.4.0.1"], ["fd00:4::1"]), ("ns.j", [], [])],
                     hosted=[("ns.i.f", ["10.4.0.2"], ["fd00:4::2"])]),
        zone_fixture("j", [("ns.b.a", [], [])],
                     hosted=[("ns.j", ["10.5.0.1"], ["fd00:5::1"])]),
        healthy_zone("l.j", 6),
    ])
    truth = ground_truth(u)
    assert all(v == {V4: True, V6: True} for v in truth.values())
    resolver = make_resolver(u)
    for zone in ("i.f", "l.j", "j", "b.a"):
        assert resolver.resolve_chain(zone).state == "dual", zone


def test_cut_whose_parent_servers_never_answer_is_unresolvable():
    # t's servers append a 3-byte A record to every reply for names under
    # bad.t, so every NS query for bad.t comes back malformed.
    u = build_universe([root_fixture(), healthy_zone("t", 10),
                        healthy_zone("bad.t", 12)])
    t, bad = N("t"), N("bad.t")

    class ShortAUnderBad:
        def exchange(self, server, transport, payload, timeout):
            reply = u.exchange(server, transport, payload, timeout)
            if (u.owner_zone[u.address_name[server.ip]] == t
                    and decode(payload).question.qname.is_within(bad)):
                return with_short_a_record(reply)
            return reply

    engine = QueryEngine(ShortAUnderBad(), policy=TEST_POLICY,
                         rng=random.Random(1), sleep=lambda s: None)
    resolver = Resolver(engine, root_hints=u.root_hints())
    for target in ("bad.t", "www.bad.t"):
        res = resolver.resolve_chain(target)
        assert res.state == "none", target
        assert [str(s.zone) for s in res.steps] == ["t", "bad.t"], target
        assert cause_witnesses(res) == {CAUSE_NS_UNRESPONSIVE: ("ns0.t", "ns1.t")}
    assert resolver.resolve_chain("t").state == "dual"


def test_ns_named_in_the_root_zone_is_looked_up_at_the_root():
    # t's only NS is a.rootsrv, whose addresses the root zone serves: the
    # walk must ask the root for them, as it asks any other host zone.
    u = build_universe([root_fixture(), zone_fixture("t", [("a.rootsrv", [], [])])])
    t = N("t")
    assert ground_truth(u)[t] == {V4: True, V6: True}
    _rs, _table, statuses = passive_verdicts(fixture_tuples(u))
    res = make_resolver(u).resolve_chain("t")
    assert (res.v4_resolvable, res.v6_resolvable) == (True, True)
    assert res.status == statuses[t]
    assert res.state == "dual" and not res.status.v6_failures
