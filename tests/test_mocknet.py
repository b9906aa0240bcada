import hashlib
import io
import json
import re

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_truth
from universes import (
    CYCLE_DENSE,
    combined_two_scenario_universe,
    crawl,
    healthy_depth3_universe,
    make_resolver,
    passive_res,
    passive_verdicts,
)
from v6ready.mocknet import (
    ALL_DEFECTS,
    AddressCollision,
    BLACKHOLE_V6,
    FixtureNs,
    FixtureZone,
    OrphanZone,
    build_universe,
    fixture_tuples,
    ground_truth,
    dump_fixtures,
    load_fixtures,
    random_universe,
    zone_fixture,
)
from v6ready.names import ROOT, normalize
from v6ready.query import TCP, UDP, ServerAddress, TransportTimeout, TransportUnreachable
from v6ready.records import V4, V6, AddrRecords, RRType
from v6ready.wire import RCODE_REFUSED, DnsMessage, Edns, Question, decode, encode

N = normalize


def test_combined_universe_serves_six_zones():
    u = combined_two_scenario_universe()
    assert len(u.fixtures) == 6
    assert N("sub.example.org") in u.fixtures
    assert u.parent[N("sub.example.org")] == N("example.org")
    assert u.parent[N("example.org")] == N("org")


def test_empty_fixture_list_builds_root_only_universe():
    u = build_universe([])
    assert sorted(map(str, u.fixtures)) == ["."]
    assert len(u.root_hints()) == 4  # two servers, both protocols


def test_missing_root_is_orphan():
    with pytest.raises(OrphanZone):
        build_universe([zone_fixture("com", [("ns.com", ["10.1.1.1"], [])])])


def test_address_collision_detected():
    with pytest.raises(AddressCollision):
        build_universe([
            zone_fixture(".", [
                ("a.root", ["10.0.0.1"], []),
                ("b.root", ["10.0.0.1"], []),
            ]),
        ])


def test_oob_ns_must_not_declare_addresses_inline():
    with pytest.raises(AddressCollision):
        build_universe([
            zone_fixture(".", [("a.root", ["10.0.0.1"], [])]),
            zone_fixture("com", [("ns.elsewhere.org", ["10.1.1.1"], [])]),
        ])


def test_glue_subset_and_defect_rules():
    from universes import missing_glue_universe

    u = missing_glue_universe()
    sub = N("sub.example.org")
    ns3 = N("ns3.sub.example.org")
    assert u.glue_addrs(sub, ns3, V4) == ("10.0.7.1",)
    assert u.glue_addrs(sub, ns3, V6) == ()  # withheld by glue_in_parent
    assert u.apex_addrs(ns3, V6) == ("fd00::71",)


def test_a_fixture_zone_checks_its_values_as_it_is_built():
    ns = [("ns.t", ["10.0.0.1"], ["fd00::1"])]
    glue = zone_fixture("t", ns, glue_in_parent={
        N("ns.t"): AddrRecords(frozenset({"10.0.0.1"}), frozenset({"fd00:0:0::1"}))})
    assert glue.glue_in_parent == {N("ns.t"): AddrRecords(frozenset({"10.0.0.1"}),
                                                          frozenset({"fd00::1"}))}
    for bad in ({"glue_in_parent": {N("ns.t"): AddrRecords(frozenset({"fd00::1"}))}},
                {"glue_in_parent": {"ns.t": AddrRecords(frozenset({"10.0.0.1"}))}},
                {"soa_serials": {"ns.t": 1}},
                {"soa_serials": {N("ns.t"): True}},
                {"soa_serials": {N("ns.t"): 2**32}},
                {"soa_serials": {N("ns.t"): 1.0}}):
        with pytest.raises(ValueError):
            zone_fixture("t", ns, **bad)


def test_deterministic_packet_log_for_same_seed():
    def run():
        u = healthy_depth3_universe()
        resolver = make_resolver(u, seed=42)
        resolver.resolve_chain("s.d.t")
        return [
            (e.direction, e.address, e.protocol, e.transport, e.message.id,
             str(e.message.question.qname) if e.message.question else None)
            for e in u.log.entries
        ]

    assert run() == run()


def test_random_tree_seed7_identical_packet_log_across_runs():
    def run():
        u, _truth = random_universe(7, 50)
        resolver = make_resolver(u, seed=7)
        for zone in sorted(u.fixtures):
            if zone == ROOT:
                continue
            resolver.resolve_chain(zone)
        return [
            (e.direction, e.address, e.protocol, e.transport, e.message.id,
             str(e.message.question.qname) if e.message.question else None)
            for e in u.log.entries
        ]

    first = run()
    assert first == run()
    assert len(first) > 100


def test_random_universe_reproducible():
    u1, t1 = random_universe(7, 50)
    u2, t2 = random_universe(7, 50)
    assert t1 == t2
    assert sorted(u1.fixtures) == sorted(u2.fixtures)
    for z in u1.fixtures:
        assert u1.fixtures[z] == u2.fixtures[z]


def test_random_universe_draws_are_pinned():
    # the sha256 of the file as random_universe drew it when it scanned
    # every zone for each out-of-bailiwick NS's host
    u, _truth = random_universe(7, 300, CYCLE_DENSE)
    out = io.StringIO()
    dump_fixtures(out, u.fixtures.values())
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "c6a6493df4330eba264babdb4a5a16e3bbb8aebc526da163ff8752b741569182")


def test_zero_defect_rates_mean_all_dual():
    rates = {k: 0.0 for k in ("ns-no-v6", "ns-no-v4", "oob-ns", "drop-aaaa-glue",
                              "drop-aaaa-apex", "wrong-ns-set-child",
                              "truncate-udp", "formerr-on-edns")}
    _u, truth = random_universe(3, 40, rates)
    assert all(t == {V4: True, V6: True} for t in truth.values())


def test_blackhole_v6_on_root_kills_all_v6():
    fixtures = [
        FixtureZone(
            zone=ROOT,
            ns=(FixtureNs(N("a.root"), ("10.0.0.1",), ("fd00::1",)),),
            defects=frozenset({BLACKHOLE_V6}),
        ),
        zone_fixture("com", [("ns.com", ["10.1.0.1"], ["fd00:1::1"])]),
    ]
    u = build_universe(fixtures)
    truth = ground_truth(u)
    assert all(not t[V6] for t in truth.values())
    assert all(t[V4] for t in truth.values())


def test_ground_truth_matches_second_enumerator():
    for seed in range(12):
        u, truth = random_universe(seed, 50)
        assert truth == reference_truth.ground_truth(u), f"seed {seed}"


def test_conformance_no_defects_active_and_passive_dual():
    u = healthy_depth3_universe()
    truth = ground_truth(u)
    assert all(t == {V4: True, V6: True} for t in truth.values())
    _resolver, results = crawl(u)
    for zone, res in results.items():
        assert res.v4_resolvable and res.v6_resolvable, str(zone)
    rs, table, _statuses = passive_verdicts(fixture_tuples(u))
    for zone in truth:
        assert passive_res(rs, table, zone) == {V4: True, V6: True}


def test_export_faithfulness_from_crawl_history():
    for seed in (5, 9):
        u, truth = random_universe(seed, 25, {"ns-no-v4": 0.0}, acyclic_oob=True)
        crawl(u)
        rs, table, _statuses = passive_verdicts(u.export_tuples())
        for zone, expected in truth.items():
            assert zone in rs, f"{zone} missing from export"
            assert passive_res(rs, table, zone) == expected, str(zone)


def test_serials_served():
    u = build_universe([
        zone_fixture(".", [("a.root", ["10.0.0.1"], [])]),
        zone_fixture(
            "com",
            [("ns1.com", ["10.1.0.1"], []), ("ns2.com", ["10.1.0.2"], [])],
            soa_serials={N("ns1.com"): 100, N("ns2.com"): 200},
        ),
    ])
    resolver = make_resolver(u)
    result = resolver.resolve_chain("com", enrich_result=True)
    serials = {addr: rows[0].split()[2]
               for addr, rows in result.enrichment["SOA"].items() if rows}
    assert sorted(serials.values()) == ["100", "200"]


def test_fixture_file_round_trip(tmp_path):
    import io

    from universes import combined_two_scenario_universe
    from v6ready.mocknet import dump_fixtures, load_fixtures

    u = combined_two_scenario_universe()
    buf = io.StringIO()
    dump_fixtures(buf, u.fixtures.values())
    path = tmp_path / "fixtures.jsonl"
    path.write_text(buf.getvalue())
    loaded = load_fixtures(path)
    rebuilt = build_universe(loaded)
    assert sorted(rebuilt.fixtures) == sorted(u.fixtures)
    for zone in u.fixtures:
        assert rebuilt.fixtures[zone] == u.fixtures[zone], str(zone)
    assert ground_truth(rebuilt) == ground_truth(u)


def test_fixture_file_of_an_unknown_version_is_refused(tmp_path):
    from v6ready.mocknet import load_fixtures

    zone = json.dumps({"zone": ".", "ns": [{"name": "a.root", "v4": ["10.0.0.1"]}]})
    path = tmp_path / "fixtures.jsonl"
    path.write_text('{"format": "mocknet-fixtures", "version": 1}\n' + zone + "\n")
    assert [str(fz.zone) for fz in load_fixtures(path)] == ["."]
    for header in ('{"format": "mocknet-fixtures", "version": 2}',
                   '{"format": "mocknet-fixtures", "version": "1"}',
                   '{"format": "mocknet-fixtures"}'):
        path.write_text(header + "\n" + zone + "\n")
        with pytest.raises(ValueError, match="version"):
            load_fixtures(path)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), size=st.integers(2, 60), faults=st.booleans())
def test_fixture_file_round_trip_on_random_universes(seed, size, faults):
    import io
    import tempfile
    from pathlib import Path

    from universes import with_liveness_faults
    from v6ready.mocknet import dump_fixtures, load_fixtures

    u, _truth = random_universe(seed=seed, size=size)
    if faults:
        u = with_liveness_faults(u, seed)
    buf = io.StringIO()
    dump_fixtures(buf, u.fixtures.values())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fixtures.jsonl"
        path.write_text(buf.getvalue())
        rebuilt = build_universe(load_fixtures(path))
    assert rebuilt.fixtures == u.fixtures
    assert ground_truth(rebuilt) == ground_truth(u)


def test_restoring_dropped_records_never_breaks_resolution():
    # Removing record-dropping defects only adds records; no zone may flip
    # from resolvable to unresolvable on either protocol, in any path.
    from dataclasses import replace

    from universes import crawl
    from v6ready.mocknet import DROP_AAAA_APEX, DROP_AAAA_GLUE
    from v6ready.passive import fixed_point, ingest_tuples

    for seed in (21, 22, 23):
        u, truth = random_universe(seed, 30, {"drop-aaaa-glue": 0.3,
                                              "drop-aaaa-apex": 0.3})
        improved_fixtures = [
            replace(fz, defects=fz.defects - {DROP_AAAA_GLUE, DROP_AAAA_APEX})
            for fz in u.fixtures.values()
        ]
        improved = build_universe(improved_fixtures)
        truth2 = ground_truth(improved)
        for zone, before in truth.items():
            after = truth2[zone]
            for proto in (V4, V6):
                assert before[proto] <= after[proto], (seed, str(zone), proto)
        sets_before = ingest_tuples(fixture_tuples(u)).record_sets
        sets_after = ingest_tuples(fixture_tuples(improved)).record_sets
        table_before, table_after = fixed_point(sets_before), fixed_point(sets_after)
        for zone in truth:
            before = passive_res(sets_before, table_before, zone)
            after = passive_res(sets_after, table_after, zone)
            for proto in (V4, V6):
                assert before[proto] <= after[proto], (seed, str(zone))
        _r, before_active = crawl(u)
        _r, after_active = crawl(improved)
        for zone in truth:
            assert before_active[zone].v6_resolvable <= after_active[zone].v6_resolvable
            assert before_active[zone].v4_resolvable <= after_active[zone].v4_resolvable


def test_query_that_does_not_decode_is_dropped():
    from v6ready.query import ServerAddress, TransportTimeout

    u = healthy_depth3_universe()
    root_ip = u.root_hints()[0][2]
    for payload in (b"\x00\x01", b"\x00\x01" + bytes(9), b"\x12\x34\x00\x00\x00\x01"):
        before = u.clock
        with pytest.raises(TransportTimeout):
            u.exchange(ServerAddress(root_ip), "udp", payload, 1)
        assert u.clock == before + 1
    assert u.log.entries == []


def test_a_repeated_query_is_logged_under_its_own_id():
    from v6ready.query import ServerAddress
    from v6ready.records import RRType
    from v6ready.wire import DnsMessage, Question, decode, encode

    u = healthy_depth3_universe()
    query = DnsMessage(id=1, question=Question(N("s.d.t"), RRType.NS))
    replies = [u.exchange(ServerAddress(ip), "udp", encode(query._replace(id=i)), 1)
               for i, (_name, _proto, ip) in enumerate(u.root_hints(), 1)]
    assert [e.message.id for e in u.log.entries] == [1, 1, 2, 2, 3, 3, 4, 4]
    assert [e.message for e in u.log.queries()] == [
        query._replace(id=i) for i in (1, 2, 3, 4)]
    assert [decode(r).id for r in replies] == [1, 2, 3, 4]
    assert len({r[2:] for r in replies}) == 1


# -- fixture files of any text -------------------------------------------------

FIXTURE_HEADER = '{"format": "mocknet-fixtures", "version": 1}'
ROOT_DOC = json.dumps({"zone": ".", "ns": [{"name": "a.root", "v4": ["10.0.0.53"]}]})
# what ``check`` asks at a zone
CHECK_QTYPES = (RRType.NS, RRType.SOA, RRType.A, RRType.AAAA)
# a question of another class than IN, which every server refuses
CHAOS_QUESTION = Question(normalize("version.bind"), RRType.TXT, 3)
FIXTURE_KEYS = ["zone", "ns", "hosted", "glue_in_parent", "defects", "version",
                "soa_serials", "txt", "mx", "cnames", "name", "v4", "v6"]
fixture_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 2**40), st.text(max_size=6),
    st.sampled_from([".", "t", "a.t", "ns.a.t", "bad..name", "10.0.0.1", "fd00::1",
                     "10.0.0.256", "x", "drop-aaaa-glue", "wrong-ns-set-child"]))
def test_a_malformed_address_in_code_is_a_value_error_naming_its_owner():
    for v4, v6 in ((["x"], []), ([], ["fd00::g"]), (["10.0.0.256"], [])):
        with pytest.raises(ValueError, match=r"^ns\.t: "):
            zone_fixture("t", [("ns.t", v4, v6)])
    with pytest.raises(ValueError, match=r"^ns\.t: "):
        zone_fixture("t", [("ns.t", ["10.0.0.1"], [])], glue_in_parent={
            N("ns.t"): AddrRecords(frozenset({"x"}), frozenset())})


fixture_values = st.recursive(
    fixture_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(FIXTURE_KEYS) | st.text(max_size=4),
                                            inner, max_size=3)),
    max_leaves=10)
fixture_names = st.sampled_from([".", "t", "a.t", "ns.t", "ns.a.t", "b.a.t", "x.y"])
fixture_addrs = st.lists(st.sampled_from(["10.0.0.1", "10.0.0.2", "fd00::1", "fd00::2",
                                          "10.254.0.1"]), max_size=2)
fixture_hosts = st.lists(st.fixed_dictionaries(
    {"name": fixture_names}, optional={"v4": fixture_addrs, "v6": fixture_addrs}), max_size=2)
# serials of every JSON type, in range and just out of it
fixture_serials = st.one_of(st.integers(-1, 2**32), st.just(2**32 - 1), st.booleans(),
                            st.floats(0, 2), st.text(max_size=2), st.none())


def zone_docs(serials):
    """Documents of the right shape, with names and addresses that may clash."""
    return st.fixed_dictionaries({"zone": fixture_names}, optional={
        "ns": fixture_hosts, "hosted": fixture_hosts,
        "defects": st.lists(st.sampled_from(sorted(ALL_DEFECTS)), max_size=2),
        "glue_in_parent": st.dictionaries(fixture_names, st.fixed_dictionaries(
            {}, optional={"v4": fixture_addrs, "v6": fixture_addrs}), max_size=2),
        "soa_serials": st.dictionaries(fixture_names, serials, max_size=2)}).map(json.dumps)


any_zone_docs = zone_docs(fixture_serials)
# values in range, so more files load and build and their servers get queried
good_zone_docs = zone_docs(st.integers(0, 2**32 - 1))
fixture_lines = st.one_of(
    any_zone_docs,
    st.dictionaries(st.sampled_from(FIXTURE_KEYS), fixture_values, max_size=5).map(json.dumps),
    st.sampled_from([
        json.dumps({"zone": ".", "ns": [{"name": "a.root", "v4": ["10.0.0.1"]}]}),
        json.dumps({"zone": "t", "ns": [{"name": "ns.t", "v4": ["10.0.0.2"],
                                          "v6": ["fd00::2"]}]}),
        json.dumps({"zone": "a.t", "ns": [{"name": "ns.t"}], "defects": ["wrong-ns-set-child"],
                    "glue_in_parent": {"ns.t": {"v4": ["10.0.0.2"]}}}),
        "[1]", "", "{", FIXTURE_HEADER]),
    st.text(max_size=10))
fixture_texts = st.one_of(
    st.text(max_size=60),
    *(st.lists(lines, max_size=5).map(lambda lines: "\n".join([FIXTURE_HEADER, *lines]))
      for lines in (fixture_lines, any_zone_docs)),
    # a root with a server first, so more files build
    st.lists(good_zone_docs, max_size=4).map(
        lambda lines: "\n".join([FIXTURE_HEADER, ROOT_DOC, *lines])))


@settings(max_examples=500, deadline=None)
@given(fixture_texts)
@example("[1]\n")
@example(FIXTURE_HEADER + "\n[1]\n")
@example(FIXTURE_HEADER + '\n{"ns": []}\n')
@example(FIXTURE_HEADER + '\n{"zone": ".", "ns": [{"name": "a.root", "v4": "10.0.0.1"}]}\n')
@example(FIXTURE_HEADER + '\n{"zone": ".", "ns": [{"name": "a.root", "v4": ["x"]}]}\n')
@example(FIXTURE_HEADER + '\n{"zone": ".", "ns": [{"name": "a.root", "v4": ["fd00::1"]}]}\n')
@example(FIXTURE_HEADER + "\n" + ROOT_DOC[:-1] + ', "soa_serials": {"a.root": "x"}}\n')
@example(FIXTURE_HEADER + "\n" + ROOT_DOC[:-1] + ', "soa_serials": {"a.root": 4294967296}}\n')
@example(FIXTURE_HEADER + "\n" + ROOT_DOC[:-1] + ', "soa_serials": {"a.root": true}}\n')
@example(FIXTURE_HEADER + "\n" + ROOT_DOC[:-1] + ', "version": "srv-1.2"}\n')
@example(FIXTURE_HEADER + "\n" + ROOT_DOC[:-1] + ', "cnames": ["ab", "xy"]}\n')
def test_a_fixture_file_of_any_text_loads_or_raises_a_value_error(tmp_path_factory, text):
    """A fixture file loads or is a ValueError naming its line; one that
    loads and builds answers every query ``check`` sends, and a question
    of another class, with bytes or a transport error; it refuses the
    other class."""
    path = tmp_path_factory.getbasetemp() / "any-fixtures.jsonl"
    path.write_bytes(text.encode("utf-8"))
    try:
        fixtures = load_fixtures(path)
    except ValueError as exc:
        assert re.match(rf"{re.escape(str(path))}:\d+: ", str(exc)), exc
        return
    try:
        u = build_universe(fixtures)
    except ValueError:
        return
    questions = [CHAOS_QUESTION] + [
        Question(zone, qtype) for zone in u.fixtures for qtype in CHECK_QTYPES]
    for ip in u.address_name:
        for question in questions:
            for transport, edns in ((UDP, Edns()), (TCP, None)):
                query = encode(DnsMessage(id=7, question=question, edns=edns))
                try:
                    reply = u.exchange(ServerAddress(ip), transport, query, 1)
                except (TransportTimeout, TransportUnreachable):
                    continue
                msg = decode(reply)
                assert msg.question == question
                if question == CHAOS_QUESTION:
                    assert msg.rcode == RCODE_REFUSED


def _root_with(**keys):
    return [FIXTURE_HEADER, json.dumps({**json.loads(ROOT_DOC), **keys})]


@pytest.mark.parametrize("lines, number, named", [
    (["[1]"], 1, ""),
    ([FIXTURE_HEADER, "[1]"], 2, ""),
    ([FIXTURE_HEADER, "", '{"ns": []}'], 3, ""),
    ([FIXTURE_HEADER, '{"zone": ".", "ns": [{"name": "a.root", "v4": "10.0.0.1"}]}'], 2, ""),
    ([FIXTURE_HEADER, '{"zone": ".", "ns": [{"name": "a.root", "v4": ["x"]}]}'], 2, ""),
    (_root_with(glue_in_parnet={}), 2, "'glue_in_parnet'"),
    (_root_with(txt=["hello"]), 2, "'txt'"),
    (_root_with(mx=[["ab", "x.t"]]), 2, "'mx'"),
    ([FIXTURE_HEADER, '{"zone": ".", "ns": [{"name": "a.root", "v5": []}]}'], 2, "'v5'"),
    (_root_with(glue_in_parent={"a.root": {"name": "a.root"}}), 2, "'name'"),
    (_root_with(soa_serials={"a.root": "x"}), 2, "serial"),
    (_root_with(soa_serials={"a.root": 2**32}), 2, "serial"),
    (_root_with(soa_serials={"a.root": True}), 2, "serial"),
    (_root_with(soa_serials={"a.root": -1}), 2, "serial"),
    (_root_with(version="srv-1.2"), 2, "'version'"),
    (_root_with(glue_in_parent={"a.root": {"v4": ["fd00::1"]}}), 2, "other family"),
    ([FIXTURE_HEADER, ROOT_DOC, '{"zone": "t", "hosted": [{"name": "ns.u"}]}'], 3,
     "not within it"),
    ([FIXTURE_HEADER, ROOT_DOC, '{"zone": "t", "ns": [{"name": "ns.u", "v4": ["10.0.0.1"]}]}'],
     3, "must not declare addresses"),
    ([FIXTURE_HEADER, '{"zone": ".", "ns": [{"name": "a.root", "v4": {"10.0.0.53": 1}}]}'], 2,
     "'v4' is not a list"),
    ([FIXTURE_HEADER, '{"zone": ".", "ns": [{"name": "a.root", "v4": ["10.0.0.53"], "v6": ""}]}'],
     2, "'v6' is not a list"),
    (_root_with(defects={"truncate-udp": 0}), 2, "'defects' is not a list"),
    (_root_with(hosted=""), 2, "'hosted' is not a list"),
    (_root_with(cnames={}), 2, "'cnames' is not a list"),
    (_root_with(cnames=["ab", "xy"]), 2, "cnames"),
    (_root_with(cnames=[["a.t", "b.t", "c.t"]]), 2, "cnames"),
    (_root_with(cnames=[["a.t", 5]]), 2, "cnames"),
    ([FIXTURE_HEADER, '{"zone": ".", "ns": {"name": "a.root"}}'], 2, "'ns' is not a list"),
], ids=["header-not-an-object", "zone-not-an-object", "no-zone", "v4-a-string",
        "v4-not-an-address", "zone-key-misspelt", "txt-key", "mx-key", "host-key-unknown",
        "glue-key-unknown", "serial-text", "serial-past-32-bits", "serial-bool",
        "serial-negative", "version-key",
        "glue-of-the-other-family", "host-outside-its-zone", "oob-ns-with-addresses",
        "v4-a-mapping", "v6-a-string", "defects-a-mapping", "hosted-a-string",
        "cnames-a-mapping", "cnames-entry-a-string", "cnames-entry-of-three",
        "cnames-entry-not-a-name", "ns-a-mapping"])
def test_a_malformed_fixture_line_is_a_value_error_naming_its_line(tmp_path, lines, number,
                                                                   named):
    path = tmp_path / "fixtures.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{number}: .*{re.escape(named)}"):
        load_fixtures(path)
