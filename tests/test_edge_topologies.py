"""Hand-built delegation shapes the random generator does not produce,
checked for three-way agreement (ground truth, fixed point, active walk)."""

import reference_truth
from universes import N, crawl, passive_res, passive_verdicts, root_fixture, healthy_zone
from v6ready.mocknet import (
    FixtureNs,
    FixtureZone,
    build_universe,
    fixture_tuples,
    ground_truth,
    zone_fixture,
)
from v6ready.names import ROOT
from v6ready.records import AddrRecords, V4, V6


def three_way(universe):
    truth = ground_truth(universe)
    assert truth == reference_truth.ground_truth(universe)
    rs, table, _statuses = passive_verdicts(fixture_tuples(universe))
    _resolver, results = crawl(universe)
    for zone, expected in truth.items():
        assert passive_res(rs, table, zone) == expected, f"passive {zone}"
        active = {V4: results[zone].v4_resolvable, V6: results[zone].v6_resolvable}
        assert active == expected, f"active {zone}"
    return truth


def test_mutual_cycle_with_escape_hatch_resolves():
    # x.t and y.t each use a nameserver inside the other, but y.t also has
    # an in-bailiwick server with glue: everything resolves through it.
    u = build_universe([
        root_fixture(),
        healthy_zone("t", 10),
        FixtureZone(
            zone=N("x.t"),
            ns=(FixtureNs(N("ns.y.t")),),
        ),
        FixtureZone(
            zone=N("y.t"),
            ns=(
                FixtureNs(N("ns.x.t")),
                FixtureNs(N("self.y.t"), ("10.70.0.1",), ("fd00:70::1",)),
            ),
            hosted=(FixtureNs(N("ns.y.t"), ("10.70.0.2",), ("fd00:70::2",)),),
        ),
    ])
    # x.t hosts y.t's other server
    u = build_universe(list(u.fixtures.values())[:-2] + [
        FixtureZone(
            zone=N("x.t"),
            ns=(FixtureNs(N("ns.y.t")),),
            hosted=(FixtureNs(N("ns.x.t"), ("10.70.0.3",), ("fd00:70::3",)),),
        ),
        u.fixtures[N("y.t")],
    ])
    truth = three_way(u)
    assert truth[N("y.t")] == {V4: True, V6: True}
    assert truth[N("x.t")] == {V4: True, V6: True}


def test_mutual_cycle_without_escape_is_dead():
    u = build_universe([
        root_fixture(),
        healthy_zone("t", 10),
        FixtureZone(
            zone=N("x.t"),
            ns=(FixtureNs(N("ns.y.t")),),
            hosted=(FixtureNs(N("ns.x.t"), ("10.71.0.1",), ("fd00:71::1",)),),
        ),
        FixtureZone(
            zone=N("y.t"),
            ns=(FixtureNs(N("ns.x.t")),),
            hosted=(FixtureNs(N("ns.y.t"), ("10.71.0.2",), ("fd00:71::2",)),),
        ),
    ])
    truth = three_way(u)
    assert truth[N("x.t")] == {V4: False, V6: False}
    assert truth[N("y.t")] == {V4: False, V6: False}


def test_disjoint_parent_and_child_ns_sets():
    # The parent delegates to one server; the zone claims an entirely
    # different one. Both views must independently hold for resolution:
    # the child-claimed server has no AAAA, so IPv6 fails despite good glue.
    u = build_universe([
        root_fixture(),
        healthy_zone("t", 10),
        FixtureZone(
            zone=N("d.t"),
            ns=(FixtureNs(N("ns-parent.d.t"), ("10.72.0.1",), ("fd00:72::1",)),),
            hosted=(FixtureNs(N("ns-child.d.t"), ("10.72.0.2",), ()),),
        ),
    ])
    # rewire the child view by answering with a different apex NS set:
    # simplest faithful construction is the wrong-ns-set defect plus a
    # v6-less extra, but here we assert the conjunction over views using
    # the passive kernel directly.
    from kernel import ROOT_STATUS, classify
    from v6ready.records import addressed_names, build_record_set

    table = {
        (N("ns-parent.d.t"), N("t")): AddrRecords(
            frozenset({"10.72.0.1"}), frozenset({"fd00:72::1"})),
        (N("ns-parent.d.t"), N("d.t")): AddrRecords(
            frozenset({"10.72.0.1"}), frozenset({"fd00:72::1"})),
        (N("ns-child.d.t"), N("d.t")): AddrRecords(
            frozenset({"10.72.0.2"}), frozenset()),
    }
    rs = build_record_set(
        N("d.t"),
        {
            N("t"): frozenset({N("ns-parent.d.t")}),
            N("d.t"): frozenset({N("ns-child.d.t")}),
        },
        table,
        addressed_names(table),
    )
    status = classify(rs, ROOT_STATUS, {})
    assert status.v4 is True
    assert status.v6 is False  # child view cannot come up over IPv6
    assert "in-bailiwick-ns-without-aaaa" in status.causes


def test_two_consecutive_empty_nonterminal_gaps():
    # deep.t is delegated straight from t; a.b.deep.t straight from deep.t:
    # the boundaries b.deep.t and the like are empty non-terminals.
    u = build_universe([
        root_fixture(),
        healthy_zone("t", 10),
        healthy_zone("deep.t", 11),
        healthy_zone("a.b.deep.t", 12),
    ])
    truth = three_way(u)
    assert truth[N("a.b.deep.t")] == {V4: True, V6: True}
    _resolver, results = crawl(u)
    assert [str(s.zone) for s in results[N("a.b.deep.t")].steps] == [
        "t", "deep.t", "a.b.deep.t"]


def test_ns_name_equal_to_zone_apex():
    # host.t is both a zone and the NS name of d.t; its addresses live at
    # its own apex.
    u = build_universe([
        root_fixture(),
        healthy_zone("t", 10),
        FixtureZone(
            zone=N("host.t"),
            ns=(FixtureNs(N("host.t"), ("10.73.0.1",), ("fd00:73::1",)),),
        ),
        FixtureZone(zone=N("d.t"), ns=(FixtureNs(N("host.t")),)),
    ])
    truth = three_way(u)
    assert truth[N("host.t")] == {V4: True, V6: True}
    assert truth[N("d.t")] == {V4: True, V6: True}


def test_partial_glue_subset_still_resolves():
    # The parent serves only one of the two declared addresses as glue;
    # one reachable address suffices.
    u = build_universe([
        root_fixture(),
        healthy_zone("t", 10),
        FixtureZone(
            zone=N("d.t"),
            ns=(FixtureNs(N("ns.d.t"), ("10.74.0.1", "10.74.0.2"),
                          ("fd00:74::1", "fd00:74::2")),),
            glue_in_parent={
                N("ns.d.t"): AddrRecords(frozenset({"10.74.0.1"}),
                                         frozenset({"fd00:74::1"})),
            },
        ),
    ])
    truth = three_way(u)
    assert truth[N("d.t")] == {V4: True, V6: True}


def test_sibling_cross_hosting_resolves():
    u = build_universe([
        root_fixture(),
        healthy_zone("t", 10),
        FixtureZone(
            zone=N("x.t"),
            ns=(
                FixtureNs(N("self.x.t"), ("10.75.0.1",), ("fd00:75::1",)),
                FixtureNs(N("peer.y.t")),
            ),
            hosted=(FixtureNs(N("peer.x.t"), ("10.75.0.3",), ("fd00:75::3",)),),
        ),
        FixtureZone(
            zone=N("y.t"),
            ns=(
                FixtureNs(N("self.y.t"), ("10.75.0.2",), ("fd00:75::2",)),
                FixtureNs(N("peer.x.t")),
            ),
            hosted=(FixtureNs(N("peer.y.t"), ("10.75.0.4",), ("fd00:75::4",)),),
        ),
    ])
    truth = three_way(u)
    assert truth[N("x.t")] == {V4: True, V6: True}
    assert truth[N("y.t")] == {V4: True, V6: True}


def test_server_hosted_in_the_root_serves_a_tld():
    # com's only server is out of its bailiwick and lives in the root zone
    # itself, which resolves from the hints: com resolves over both.
    u = build_universe([
        zone_fixture(".", [("a.root", ["10.0.0.1"], ["fd00::1"])],
                     hosted=[("ns.hints", ["10.0.0.9"], ["fd00::9"])]),
        FixtureZone(zone=N("com"), ns=(FixtureNs(N("ns.hints")),)),
    ])
    assert u.owner_zone[N("ns.hints")] == ROOT
    assert three_way(u) == {N("com"): {V4: True, V6: True}}
