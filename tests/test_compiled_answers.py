"""The compiled answers of ``mocknet.Universe`` against the per-call
reference in ``reference_answers``: the bytes sent, the messages logged,
each compiled referral and apex NS answer, and the prefix lookups."""

from __future__ import annotations

import random
import sys
from concurrent.futures import ThreadPoolExecutor

from hypothesis import given, settings, strategies as st

import reference_answers as ref
from universes import TEST_POLICY, RecordingTransport, with_liveness_faults
from v6ready.mocknet import Universe, random_universe, zone_fixture
from v6ready.names import ROOT
from v6ready.query import QueryEngine, ServerAddress
from v6ready.records import RRType
from v6ready.resolver import Resolver, RootUnreachable
from v6ready.wire import DnsMessage, Question, decode, encode, encode_records


def _universe(seed: int, size: int, faults: bool):
    u, _truth = random_universe(seed, size, {"truncate-udp": 0.15,
                                             "formerr-on-edns": 0.15})
    return with_liveness_faults(u, seed) if faults else u


def _with_gaps(u, seed: int):
    """``u`` with up to three more zones, each two labels below a zone, so
    the name between them holds nothing itself but has names below it."""
    fixtures = dict(u.fixtures)
    for i, zone in enumerate(random.Random(seed).sample(sorted(u.fixtures),
                                                        min(3, len(u.fixtures)))):
        deep = zone.child(b"gap").child(f"deep{i}".encode())
        fixtures[deep] = zone_fixture(str(deep), [(f"ns.{deep}", [f"10.253.0.{i + 1}"], [])])
    return Universe(fixtures)


def _probe_names(u) -> list:
    """Every fixture zone and host name and each of their ancestors, a
    name below each zone, and a name next to each zone that no fixture
    holds."""
    names = {name.ancestor_at_depth(depth) for name in (*u.fixtures, *u.host_of)
             for depth in range(len(name) + 1)}
    for zone in u.fixtures:
        names.add(zone.child(b"www"))
        names.add(zone.child(b"www").child(b"deep"))
        if zone != ROOT:
            names.add(zone.parent().child(zone.labels[0] + b"-x"))
    return sorted(names)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), size=st.integers(1, 25), faults=st.booleans())
def test_every_reply_sent_is_the_logged_reply(seed, size, faults):
    u = _universe(seed, size, faults)
    recorder = RecordingTransport(u)
    engine = QueryEngine(recorder, policy=TEST_POLICY, rng=random.Random(seed),
                         sleep=lambda s: None)
    resolver = Resolver(engine, root_hints=u.root_hints())
    for zone in sorted(u.fixtures):
        if zone != ROOT:
            try:
                resolver.resolve_chain(zone, enrich_result=True, probe_liveness=True)
                resolver.resolve_chain(zone.child(b"www"))
            except RootUnreachable:  # a black-holed root answers nothing
                pass
    queries = [e.message for e in u.log.entries if e.direction == "query"]
    responses = [e.message for e in u.log.entries if e.direction == "response"]
    assert queries == [decode(payload) for _ip, _t, payload, _reply in recorder.exchanges]
    sent = [reply for *_rest, reply in recorder.exchanges if isinstance(reply, bytes)]
    assert len(sent) == len(responses)
    for returned, logged in zip(sent, responses):
        assert decode(returned) == logged
        assert returned == encode(logged)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), size=st.integers(1, 40), faults=st.booleans())
def test_compiled_answers_equal_the_reference(seed, size, faults):
    u = _universe(seed, size, faults)
    for _round in range(2):  # compiled, then read back
        for zone in sorted(u.fixtures):
            msg = DnsMessage(id=seed & 0xFFFF, rd=True,
                             question=Question(zone, RRType.NS))
            if zone != ROOT:
                reply, records = u._referral(msg, zone)
                expected = ref.referral(u, msg, zone)
                assert reply == expected
                assert records == encode_records(expected.answer, expected.authority,
                                                 expected.additional)
                assert encode(reply, records) == encode(expected)
            server = u.apex_ns(zone)[0]
            reply, records = u._apex_answer(msg, zone, server)
            expected = ref.apex_ns_answer(u, msg, zone)
            assert reply == expected
            assert encode(reply, records) == encode(expected)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), size=st.integers(1, 40))
def test_prefix_lookups_equal_the_linear_scans(seed, size):
    u = _with_gaps(random_universe(seed, size)[0], seed)
    names = _probe_names(u)
    for qname in names:
        assert u._has_names_below(qname) == ref.has_names_below(u, qname)
    for server, zones in u.serves.items():
        for zone in zones:
            for qname in names:
                if qname.is_within(zone):
                    assert (u._delegation_for(zone, qname, server)
                            == ref.delegation_for(u, zone, qname, server))


def test_threads_sharing_a_universe_get_the_replies_of_one_thread():
    """``scan --concurrency 2`` shares one Universe between threads: each
    compiled entry and the query memo must never hand one thread's answer
    or question to another."""
    def universe():
        return random_universe(5, 40)[0]

    u = universe()
    root_ips = [ip for _name, _proto, ip in u.root_hints()]
    asks = []
    for i, zone in enumerate(sorted(u.fixtures)):
        servers = root_ips + [ip for ns in u.apex_ns(zone) if ns in u.host_of
                              for ip in u.listen_addrs(ns, "v4")]
        for qname in (zone, zone.child(b"www")):
            for ip in servers:
                asks.append((ip, encode(DnsMessage(id=i, question=Question(
                    qname, RRType.NS)))))
    expected = [universe().exchange(ServerAddress(ip), "tcp", payload, 1)
                for ip, payload in asks]

    def ask_all(start: int) -> list[list[bytes]]:
        rounds = []
        for _round in range(4):
            got = {}
            for k in range(start, start + len(asks)):
                ip, payload = asks[k % len(asks)]
                got[k % len(asks)] = u.exchange(ServerAddress(ip), "tcp", payload, 1)
            rounds.append([got[k] for k in range(len(asks))])
        return rounds

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(6) as pool:
            futures = [pool.submit(ask_all, n * 7) for n in range(6)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for rounds in results:
        assert rounds == [expected] * 4
