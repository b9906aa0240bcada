import json
import random
from collections import Counter
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
    with_liveness_faults,
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
    random_universe,
    zone_fixture,
)
from v6ready.query import QueryEngine
from v6ready.records import AddrRecords, ResourceRecord, RRType, V4, V6
from v6ready.resolver import (
    CHAIN_RESULT_VERSION,
    PROTOCOL_V4_ONLY,
    PROTOCOL_V6_ONLY,
    Resolver,
    RootUnreachable,
)
from v6ready.wire import decode, encode


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


def test_enrichment_answers_ns_per_server():
    u = healthy_depth3_universe()
    resolver = make_resolver(u)
    res = resolver.resolve_chain("d.t", enrich_result=True)
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
    # a server of its own, so every zone resolves. Crawling i.f reaches j
    # and b.a while i.f is still in its first gather: b.a's walk stops at
    # i.f, and no verdict may keep a failure from before i.f's servers were
    # known.
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


def test_two_zone_cycle_is_not_gathered_again_to_confirm():
    # x.t has a server of its own, with glue, and one in y.t; y.t's only
    # server lives in x.t. Whichever zone is crawled first, the other one is
    # found during its first gather and reads it before that gather ends, so
    # is gathered again; after that, each is gathered again only if a zone
    # it read has changed.
    u = build_universe([
        root_fixture(),
        healthy_zone("t", 10),
        zone_fixture("x.t", [("ns.y.t", [], []), ("ns0.x.t", ["10.60.0.1"], ["fd00:60::1"])],
                     hosted=[("ns.x.t", ["10.60.0.2"], ["fd00:60::2"])]),
        zone_fixture("y.t", [("ns.x.t", [], [])],
                     hosted=[("ns.y.t", ["10.60.0.3"], ["fd00:60::3"])]),
    ])
    truth = ground_truth(u)
    assert truth[N("x.t")] == truth[N("y.t")] == {V4: True, V6: True}
    for order in (("x.t", "y.t"), ("y.t", "x.t")):
        resolver = make_resolver(u)
        # each gather asks the zone's servers for its NS set in one layer:
        # the parent and child NS sets agree here
        gathers = Counter()
        child_view = resolver._child_view

        def counted(info, contact):
            gathers[str(info.zone)] += 1
            return child_view(info, contact)

        resolver._child_view = counted
        for zone in order:
            assert resolver.resolve_chain(zone).state == "dual", (order, zone)
        assert gathers["x.t"] + gathers["y.t"] <= 5, (order, gathers)


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


def out_of_bailiwick_chain(k):
    """h0.t's only NS lives in h1.t, whose only NS lives in h2.t, and so on
    for ``k`` zones; the last one has its own NS, with glue."""
    fixtures = [root_fixture(), healthy_zone("t", 10)]
    for i in range(k):
        hosted = [(f"ns.h{i}.t", [f"10.1.{i}.1"], [f"fd00:1:{i:x}::1"])] if i else []
        if i < k - 1:
            ns = [(f"ns.h{i + 1}.t", [], [])]
        else:
            ns = [(f"ns0.h{i}.t", ["10.2.0.1"], ["fd00:2::1"])]
        fixtures.append(zone_fixture(f"h{i}.t", ns, hosted=hosted))
    return build_universe(fixtures)


def test_long_chain_of_out_of_bailiwick_hops_resolves():
    # Crawling h0.t walks to each next hop's zone in turn before it can
    # gather the zone before it.
    for k in (20, 40):
        u = out_of_bailiwick_chain(k)
        assert ground_truth(u)[N("h0.t")] == {V4: True, V6: True}
        assert make_resolver(u).resolve_chain("h0.t").state == "dual", k
    # far deeper than Python's recursion limit allows a recursive walk
    u = out_of_bailiwick_chain(200)
    res = make_resolver(u).resolve_chain("h0.t")
    assert res.state == "dual"
    assert [str(s.zone) for s in res.steps] == ["t", "h0.t"]


def test_each_zone_is_discovered_once_per_resolver():
    # The trees of the liveness differential, each crawled in a shuffled
    # order by one resolver: no zone cut is found twice, those in cycles of
    # out-of-bailiwick NS included.
    discovered = zones = 0
    for seed in range(200):
        base, truth = random_universe(seed, 25)
        u = with_liveness_faults(base, seed)
        order = sorted(truth)
        random.Random(seed).shuffle(order)
        resolver = make_resolver(u)
        for zone in order:
            try:
                resolver.resolve_chain(zone)
            except RootUnreachable:
                pass
        discovered += len(resolver._found)
        zones += len({info.zone for info in resolver._found})
    assert discovered == zones > 3900


def test_chains_through_one_zone_share_its_step(monkeypatch):
    # A zone's evidence is final once a chain reports it, so its step (glue
    # and status included) is built once, and so is the record set behind it.
    from v6ready import resolver as resolver_module

    built = Counter()
    build = resolver_module.build_record_set

    def counting(zone, *rest):
        built[zone] += 1
        return build(zone, *rest)

    monkeypatch.setattr(resolver_module, "build_record_set", counting)
    for seed in range(5):
        base, truth = random_universe(seed, 30)
        u = with_liveness_faults(base, seed)
        resolver = make_resolver(u)
        steps, chains = {}, Counter()
        for zone in sorted(truth):
            for step in resolver.resolve_chain(zone).steps:
                assert steps.setdefault(step.zone, step) is step, (seed, step.zone)
                chains[step.zone] += 1
        fed = {info.zone for info in resolver._found[:resolver._fed] if not info.silent}
        assert max(chains.values()) > 2
        assert max(built[zone] for zone in fed) <= 2, seed
        built.clear()


# -- each reply read once, each step rendered once ---------------------------


def reading_layers(monkeypatch):
    """Per NS layer read (``_probe`` or ``_child_view`` call), in order:
    (method, zone, readings of replies, Counter of the glue it filed)."""
    layers, active = [], []
    interpret = Resolver._interpret_ns_reply

    def reading(msg, cand):
        if active:
            active[-1][2].append(msg)
        return interpret(msg, cand)

    def wrap(name):
        read = getattr(Resolver, name)

        def counted(self, *args):
            info = args[1] if name == "_probe" else args[0]
            active.append((name, info.zone, [], Counter()))
            try:
                return read(self, *args)
            finally:
                layers.append(active.pop())

        monkeypatch.setattr(Resolver, name, counted)

    note = Resolver._note_addr

    def filing(self, info, bailiwick, rr):
        if active:
            active[-1][3][(info.zone, bailiwick, rr)] += 1
        return note(self, info, bailiwick, rr)

    monkeypatch.setattr(Resolver, "_interpret_ns_reply", staticmethod(reading))
    monkeypatch.setattr(Resolver, "_note_addr", filing)
    wrap("_probe")
    wrap("_child_view")
    return layers


def test_servers_sending_one_referral_are_read_once_and_file_each_glue_record_once(
        monkeypatch):
    u = healthy_depth3_universe()
    layers = reading_layers(monkeypatch)
    res = make_resolver(u).resolve_chain("s.d.t")
    assert res.state == "dual"
    probe = [layer for layer in layers if layer[:2] == ("_probe", N("d.t"))]
    assert len(probe) == 1
    _name, _zone, readings, filed = probe[0]
    # t's two servers, each over v4 and v6, send the same referral, and so
    # do d.t's own four addresses their NS answer: one reading per layer
    assert sum(e.direction == "response" and e.message.question == (N("d.t"), RRType.NS, 1)
               for e in u.log.entries) == 8
    assert len(readings) == 1
    assert sorted((str(rr.owner), str(rr.rrtype)) for _z, _bw, rr in filed) == [
        ("ns0.d.t", "A"), ("ns0.d.t", "AAAA"), ("ns1.d.t", "A"), ("ns1.d.t", "AAAA")]
    for name, zone, readings, filed in layers:
        assert len(readings) == 1, (name, zone)
        assert set(filed.values()) <= {1}, (name, zone)


class RewrittenReferrals:
    """The universe, with each referral to ``child`` passed through
    ``rewrite(server, message)``."""

    def __init__(self, universe, child: str, rewrite):
        self.universe, self.child, self.rewrite = universe, N(child), rewrite

    def exchange(self, server, transport, payload, timeout):
        raw = self.universe.exchange(server, transport, payload, timeout)
        msg = decode(raw)
        if msg.question.qname == self.child and msg.authority:
            return encode(self.rewrite(server, msg))
        return raw


def resolve_through(transport, universe, target):
    engine = QueryEngine(transport, policy=TEST_POLICY, rng=random.Random(1),
                         sleep=lambda s: None)
    return Resolver(engine, root_hints=universe.root_hints()).resolve_chain(target)


def test_out_of_zone_additionals_keep_one_entry_per_answering_server(monkeypatch):
    u = healthy_depth3_universe()
    stray = ResourceRecord(N("ns.elsewhere"), RRType.A, 3600, bytes([192, 0, 2, 7]))
    layers = reading_layers(monkeypatch)
    res = resolve_through(RewrittenReferrals(
        u, "d.t", lambda _server, msg: msg._replace(additional=msg.additional + (stray,))),
        u, "d.t")
    assert [len(readings) for name, zone, readings, _ in layers
            if (name, zone) == ("_probe", N("d.t"))] == [1]
    step = res.steps[-1]
    assert [str(s.zone) for s in res.steps] == ["t", "d.t"]
    assert step.out_of_zone == (stray,) * 4
    assert res.to_json_dict()["steps"][-1]["out_of_zone_additionals"] == [
        "ns.elsewhere A 192.0.2.7"] * 4
    assert N("ns.elsewhere") not in step.glue


def test_replies_that_differ_file_the_glue_they_share_once(monkeypatch):
    # over IPv6 the referral lists its glue in reverse: t's servers, each
    # asked over v4 then v6, send two different replies in turn
    u = healthy_depth3_universe()
    layers = reading_layers(monkeypatch)
    res = resolve_through(RewrittenReferrals(
        u, "d.t", lambda server, msg: (msg._replace(additional=msg.additional[::-1])
                                       if ":" in server.ip else msg)), u, "d.t")
    probe = [layer for layer in layers if layer[:2] == ("_probe", N("d.t"))]
    assert [len(readings) for _, _, readings, _ in probe] == [4]
    filed = probe[0][3]
    assert len(filed) == 4 and set(filed.values()) == {1}
    assert res.to_json_dict() == make_resolver(u).resolve_chain("d.t").to_json_dict()


def reference_chain_json(result) -> dict:
    """The chain-result document as each chain rendered its steps before
    steps rendered their own entries: the reference for ``to_json_dict``."""
    return {
        "format": "chain-result",
        "version": CHAIN_RESULT_VERSION,
        "target": str(result.target),
        "protocol_filter": result.protocol_filter,
        "state": result.state,
        "v4_resolvable": result.v4_resolvable,
        "v6_resolvable": result.v6_resolvable,
        "intent_v6": result.status.intent_v6,
        "causes": sorted(result.status.causes),
        "cause_witnesses": result.status.cause_witnesses,
        "steps": [
            {
                "zone": str(s.zone),
                "parent_ns": sorted(str(n) for n in s.parent_ns_set),
                "child_ns": (sorted(str(n) for n in s.child_ns_set)
                             if s.child_ns_set is not None else None),
                "glue": {
                    str(ns): {"v4": sorted(a.v4), "v6": sorted(a.v6)}
                    for ns, a in sorted(s.glue.items(), key=lambda kv: str(kv[0]))
                },
                "queried": [list(q) for q in s.queried_servers],
                "cname_ns": sorted(str(n) for n in s.cname_ns),
                "out_of_zone_additionals": [
                    f"{rr.owner} {rr.rrtype} {rr.address}"
                    for rr in s.out_of_zone
                ],
                "state": s.status.state,
                "causes": sorted(s.status.causes),
            }
            for s in result.steps
        ],
        "enrichment": result.enrichment,
        "liveness": [list(entry) for entry in result.liveness],
    }


@pytest.mark.parametrize("seed", range(6))
def test_chain_documents_equal_the_reference_rendering(seed):
    base, truth = random_universe(seed, 30)
    u = with_liveness_faults(base, seed)
    resolver = make_resolver(u)
    for i, zone in enumerate(sorted(truth)):
        try:
            res = resolver.resolve_chain(zone, enrich_result=i % 3 == 0,
                                         probe_liveness=i % 2 == 0)
        except RootUnreachable:
            continue
        doc = res.to_json_dict()
        assert doc == reference_chain_json(res), zone
        assert json.dumps(doc, sort_keys=True) == json.dumps(reference_chain_json(res),
                                                             sort_keys=True)


def test_chains_through_one_zone_share_one_rendered_step_entry():
    u = build_universe([root_fixture(), healthy_zone("t", 10), healthy_zone("d.t", 11),
                        healthy_zone("e.t", 12)])
    resolver = make_resolver(u)
    d, e = resolver.resolve_chain("d.t"), resolver.resolve_chain("e.t")
    assert d.steps[0] is e.steps[0]
    d_doc, e_doc = d.to_json_dict(), e.to_json_dict()
    assert d_doc["steps"][0] is e_doc["steps"][0]
    assert d_doc["steps"][0]["zone"] == "t"
    assert d.to_json_dict()["steps"][1] is d_doc["steps"][1]
    assert d_doc["steps"][1] is not e_doc["steps"][1]
