"""Record sets: the builder's views, and lookups in the address table that
the record sets of one aggregate share."""

from hypothesis import example, given, settings, strategies as st

from kernel import scanned_addrs
from universes import N
from v6ready.classify import _intent, _own_addresses
from v6ready.mocknet import fixture_tuples, random_universe
from v6ready.names import DomainName
from v6ready.passive import fixed_point, ingest_tuples
from v6ready.records import EMPTY, V4, V6, AddrRecords, addressed_names, build_record_set

# names of up to three labels over a small alphabet, so that bailiwicks,
# zones and NS names often enclose one another
names = st.lists(st.sampled_from([b"a", b"b", b"c"]), max_size=3).map(
    lambda labels: DomainName(labels))
ns_sets = st.frozensets(names.map(lambda n: n.child("ns")), max_size=3)


def _old_views(zone, ns_by_bailiwick):
    """(delegating zone, parent view, child view, all NS) as the record set
    derived them from its NS sets per bailiwick on every call."""
    parents = [bw for bw in ns_by_bailiwick if len(bw) < len(zone) and zone.is_within(bw)]
    parent_view = frozenset().union(*(ns_by_bailiwick[bw] for bw in parents))
    return (max(parents, key=len) if parents else None, parent_view,
            ns_by_bailiwick.get(zone), frozenset().union(*ns_by_bailiwick.values()))


@settings(max_examples=500, deadline=None)
@given(names, st.dictionaries(names, ns_sets, max_size=5))
@example(N("x.a"), {N("a"): frozenset({N("ns.a")}), N("x.a"): frozenset({N("ns.a")})})
# parent_ns, the union of the root's and a's views, equals b's view, which
# is no parent view of a.a: it is a new frozenset
@example(N("a.a"), {DomainName(()): frozenset({N("ns.b.a")}), N("a"): frozenset({N("ns")}),
                    N("b"): frozenset({N("ns.b.a"), N("ns")})})
def test_builder_fields_equal_the_views_derived_per_bailiwick(zone, ns_by_bailiwick):
    rs = build_record_set(zone, ns_by_bailiwick, {}, {V4: set(), V6: set()})
    assert rs[:5] == (zone, *_old_views(zone, ns_by_bailiwick))
    # a view that equals one of the views it is the union of is that
    # frozenset, and an empty one may be the shared empty set
    parent_views = [ns for bw, ns in ns_by_bailiwick.items()
                    if len(bw) < len(zone) and zone.is_within(bw)]
    for view, views in ((rs.parent_ns, parent_views), (rs.all_ns, list(ns_by_bailiwick.values()))):
        if view in views or not view:
            assert any(view is v for v in [*views, EMPTY])


def _ingest(seed, size):
    u, _ = random_universe(seed, size, {"oob-ns": 0.4, "drop-aaaa-glue": 0.3,
                                        "drop-aaaa-apex": 0.2, "ns-no-v6": 0.2})
    return ingest_tuples(fixture_tuples(u)).record_sets


def _assert_lookups_equal_scans(rs, bailiwicks):
    """The table lookups that ``classify`` makes for ``rs`` equal scans of
    every pair; ``bailiwicks`` maps each NS to the bailiwicks to try."""
    zone = rs.zone

    def under_ancestor(bw):
        return len(bw) < len(zone) and zone.is_within(bw)

    def at_apex(bw):
        return bw == zone

    glue, apex = _own_addresses(rs)
    inside = {ns for ns in rs.all_ns if ns.is_within(zone)}
    for own, under in ((glue, under_ancestor), (apex, at_apex)):
        assert own.keys() == {ns for ns in inside
                              if any(scanned_addrs(rs, ns, p, under) for p in (V4, V6))}
        for ns, addrs in own.items():
            assert addrs == (scanned_addrs(rs, ns, V4, under), scanned_addrs(rs, ns, V6, under))
    for proto in (V4, V6):
        assert _intent(rs, proto) == any(scanned_addrs(rs, ns, proto) for ns in rs.all_ns)
        for ns in rs.all_ns:
            assert (ns in rs.ns_with_addrs[proto]) == bool(scanned_addrs(rs, ns, proto))
            for bw in bailiwicks(ns):
                assert rs.addrs_with_bailiwick(ns, bw, proto) == scanned_addrs(
                    rs, ns, proto, lambda b: b == bw)


addr_records = st.builds(
    AddrRecords, st.frozensets(st.sampled_from(["10.0.0.1", "10.0.0.2"])),
    st.frozensets(st.sampled_from(["fd00::1", "fd00::2"]))).filter(lambda a: a.v4 or a.v6)


@settings(max_examples=300, deadline=None)
@given(names, st.dictionaries(names, ns_sets, max_size=4),
       st.dictionaries(st.tuples(names.map(lambda n: n.child("ns")), names), addr_records,
                       max_size=8))
# glue for an in-zone NS under the delegating zone and under the root
@example(N("a.b"), {N("b"): frozenset({N("ns.a.b")})},
         {(N("ns.a.b"), N(".")): AddrRecords(frozenset({"10.0.0.1"})),
          (N("ns.a.b"), N("b")): AddrRecords(v6=frozenset({"fd00::1"}))})
def test_table_lookups_equal_scans_of_every_pair(zone, ns_by_bailiwick, table):
    rs = build_record_set(zone, ns_by_bailiwick, table, addressed_names(table))
    _assert_lookups_equal_scans(rs, lambda ns: {bw for _ns, bw in table})


def test_table_lookups_equal_scans_of_every_pair_after_ingest():
    for seed in (5, 6, 7):
        record_sets = _ingest(seed, 30)
        ns_zone = fixed_point(record_sets).ns_zone
        for rs in record_sets.values():
            _assert_lookups_equal_scans(rs, lambda ns: {ns_zone[ns]})


def test_record_sets_of_one_ingest_share_one_address_table():
    record_sets = list(_ingest(8, 20).values())
    first = record_sets[0]
    assert len(record_sets) > 1
    for rs in record_sets[1:]:
        assert rs.addrs is first.addrs
        assert rs.ns_with_addrs is first.ns_with_addrs
    assert first.ns_with_addrs == addressed_names(first.addrs)


def test_an_empty_address_family_is_the_shared_empty_set():
    assert AddrRecords(frozenset(), frozenset({"::1"})).v4 is EMPTY
    assert AddrRecords(v4=frozenset({"10.0.0.1"})).v6 is EMPTY
    assert AddrRecords(frozenset({"10.0.0.1"}), frozenset()) == ({"10.0.0.1"}, frozenset())
    table = next(iter(_ingest(9, 20).values())).addrs
    assert any(not v4 or not v6 for v4, v6 in table.values())
    for v4, v6 in table.values():
        assert v4 or v4 is EMPTY
        assert v6 or v6 is EMPTY
