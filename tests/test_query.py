import json
import random
import socket
import threading

import pytest

from universes import healthy_zone, root_fixture, with_short_a_record
from v6ready import cli, wire
from v6ready.mocknet import build_universe
from v6ready.names import normalize
from v6ready.query import (
    MALFORMED,
    QueryEngine,
    QueryPolicy,
    RESPONSE,
    ResponseCache,
    ServerAddress,
    TIMEOUT,
    TCP,
    TransportTimeout,
    TransportUnreachable,
    UDP,
    UNREACHABLE,
    UdpTcpTransport,
)
from v6ready.records import RRType

SERVER = ServerAddress("192.0.2.53")
QNAME = normalize("example.com")


class ScriptedTransport:
    """Answers according to a behavior flag; records every exchange."""

    def __init__(self, behavior):
        self.behavior = behavior
        self.exchanges = []

    def exchange(self, server, transport, payload, timeout):
        msg = wire.decode(payload)
        self.exchanges.append((server.ip, transport, msg))
        if self.behavior == "blackhole":
            raise TransportTimeout("dropped")
        if self.behavior == "unreachable":
            raise TransportUnreachable("no route")
        if self.behavior == "garbage":
            return b"\x00\x01"
        reply = msg.reply_skeleton(aa=True)
        if self.behavior == "truncate-udp" and transport == UDP:
            reply = msg.reply_skeleton(tc=True)
        if self.behavior == "formerr-on-edns" and msg.edns is not None:
            reply = msg.reply_skeleton(rcode=wire.RCODE_FORMERR)
        return wire.encode(reply)


def make_engine(behavior, **policy_kwargs):
    policy = QueryPolicy(retry_wait=policy_kwargs.pop("retry_wait", 0.0),
                         **policy_kwargs)
    transport = ScriptedTransport(behavior)
    sleeps = []
    engine = QueryEngine(transport, policy=policy, rng=random.Random(7),
                         sleep=sleeps.append)
    return engine, transport, sleeps


def test_truncation_falls_back_to_tcp():
    engine, transport, _ = make_engine("truncate-udp")
    outcome = engine.query(SERVER, QNAME, RRType.NS)
    assert outcome.kind == RESPONSE
    assert outcome.transport_used == TCP
    assert not outcome.message.tc
    assert [t for _, t, _ in transport.exchanges] == [UDP, TCP]


def test_formerr_disables_edns_once():
    engine, transport, _ = make_engine("formerr-on-edns")
    outcome = engine.query(SERVER, QNAME, RRType.NS)
    assert outcome.kind == RESPONSE
    assert outcome.edns_used is False
    assert outcome.message.rcode == wire.RCODE_NOERROR
    assert transport.exchanges[0][2].edns is not None
    assert transport.exchanges[1][2].edns is None


def test_blackhole_times_out_after_exactly_four_attempts():
    engine, transport, sleeps = make_engine("blackhole", retry_wait=20.0)
    outcome = engine.query(SERVER, QNAME, RRType.NS)
    assert outcome.kind == TIMEOUT
    assert len(transport.exchanges) == 4
    assert sleeps == [20.0, 20.0, 20.0]  # spaced between attempts


def test_fallbacks_never_change_qname_or_qtype():
    engine, transport, _ = make_engine("truncate-udp")
    engine.query(SERVER, QNAME, RRType.NS)
    questions = {(str(m.question.qname), m.question.qtype) for _, _, m in transport.exchanges}
    assert questions == {("example.com", RRType.NS)}


def test_failure_outcomes_are_cached():
    engine, transport, _ = make_engine("blackhole")
    first = engine.query(SERVER, QNAME, RRType.NS)
    count = len(transport.exchanges)
    second = engine.query(SERVER, QNAME, RRType.NS)
    assert first == second
    assert len(transport.exchanges) == count  # cache hit, no network activity
    assert engine.cache.hits == 1


def test_malformed_reply():
    engine, _, _ = make_engine("garbage")
    assert engine.query(SERVER, QNAME, RRType.NS).kind == MALFORMED


def test_reply_with_short_a_record_is_malformed():
    class ShortA(ScriptedTransport):
        def exchange(self, server, transport, payload, timeout):
            return with_short_a_record(super().exchange(server, transport, payload, timeout))

    engine = QueryEngine(ShortA("ok"), policy=QueryPolicy(retry_wait=0.0),
                         rng=random.Random(1), sleep=lambda s: None)
    assert engine.query(SERVER, QNAME, RRType.NS).kind == MALFORMED


def test_scan_writes_a_row_for_a_domain_whose_servers_send_a_short_a_record(tmp_path):
    u = build_universe([root_fixture(), healthy_zone("t", 10),
                        healthy_zone("good.t", 11), healthy_zone("bad.t", 12),
                        healthy_zone("fine.t", 13)])
    bad = normalize("bad.t")

    class ShortAFromBad:
        """bad.t's own servers add a 3-byte A record to every reply."""

        def exchange(self, server, transport, payload, timeout):
            reply = u.exchange(server, transport, payload, timeout)
            if u.address_name[server.ip].is_within(bad):
                return with_short_a_record(reply)
            return reply

    hints = tmp_path / "roots.hints"
    hints.write_text("".join(f"{n} {p} {a}\n" for n, p, a in u.root_hints()))
    domains = tmp_path / "domains.txt"
    domains.write_text("good.t\nbad.t\nfine.t\n")
    out = tmp_path / "rows.jsonl"
    rc = cli.main(["scan", str(domains), "--roots", str(hints), "--output", str(out),
                   "--concurrency", "1", "--timeout", "0.2", "--tcp-timeout", "0.2",
                   "--retry-wait", "0", "--seed", "1"],
                  transport_factory=lambda cfg: ShortAFromBad())
    assert rc == 0
    rows = {r["domain"]: r for r in map(json.loads, out.read_text().splitlines())}
    assert list(rows) == ["good.t", "bad.t", "fine.t"]
    assert rows["good.t"]["state"] == rows["fine.t"]["state"] == "dual"
    assert rows["bad.t"]["state"] == "none"


def test_unreachable_network():
    engine, transport, _ = make_engine("unreachable")
    assert engine.query(SERVER, QNAME, RRType.NS).kind == UNREACHABLE
    assert len(transport.exchanges) == 1


def test_message_ids_are_randomized_per_attempt():
    engine, transport, _ = make_engine("blackhole")
    engine.query(SERVER, QNAME, RRType.NS)
    ids = [m.id for _, _, m in transport.exchanges]
    assert len(set(ids)) > 1


def test_concurrent_identical_queries_coalesce():
    gate = threading.Event()

    class SlowTransport(ScriptedTransport):
        def exchange(self, server, transport, payload, timeout):
            gate.wait(1.0)
            return super().exchange(server, transport, payload, timeout)

    transport = SlowTransport("ok")
    engine = QueryEngine(transport, policy=QueryPolicy(retry_wait=0.0),
                         rng=random.Random(7), sleep=lambda s: None)
    results = []

    def run():
        results.append(engine.query(SERVER, QNAME, RRType.NS))

    threads = [threading.Thread(target=run) for _ in range(4)]
    for t in threads:
        t.start()
    gate.set()
    for t in threads:
        t.join()
    assert len(results) == 4
    assert len(transport.exchanges) == 1  # one in-flight exchange, shared
    assert all(r == results[0] for r in results)


def test_policy_validation():
    with pytest.raises(ValueError):
        QueryPolicy(max_retries=0)
    with pytest.raises(ValueError):
        QueryPolicy(retry_wait=-1)


def test_engines_given_one_empty_cache_share_it():
    transport = ScriptedTransport("ok")
    cache = ResponseCache()
    engines = [QueryEngine(transport, policy=QueryPolicy(retry_wait=0.0),
                           cache=cache, rng=random.Random(seed)) for seed in (1, 2)]
    assert all(engine.cache is cache for engine in engines)
    first = engines[0].query(SERVER, QNAME, RRType.NS)
    assert engines[1].query(SERVER, QNAME, RRType.NS) is first
    assert len(transport.exchanges) == 1


def test_cache_distinct_servers_not_shared():
    engine, transport, _ = make_engine("ok")
    engine.query(ServerAddress("192.0.2.1"), QNAME, RRType.NS)
    engine.query(ServerAddress("192.0.2.2"), QNAME, RRType.NS)
    assert len(transport.exchanges) == 2


def test_cache_abort_on_transport_crash():
    class Crashing(ScriptedTransport):
        def exchange(self, *a, **kw):
            raise RuntimeError("boom")

    engine = QueryEngine(Crashing("x"), policy=QueryPolicy(retry_wait=0.0),
                         rng=random.Random(1), sleep=lambda s: None)
    with pytest.raises(RuntimeError):
        engine.query(SERVER, QNAME, RRType.NS)
    # the in-flight marker must be released so later callers are not stuck
    cache = engine.cache
    assert cache.begin(("192.0.2.53", 53, QNAME, RRType.NS, 1)) is None


# -- UDP reply matching over loopback sockets --------------------------------


def _udp_exchange(replies, timeout=1.0):
    """One UdpTcpTransport UDP exchange against a loopback server that,
    once the query arrives, sends ``replies(query) -> [(from_stray, bytes)]``
    in order, from its own socket or from a second one."""
    server = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    stray = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    server.bind(("127.0.0.1", 0))
    stray.bind(("127.0.0.1", 0))
    server.settimeout(5)

    def serve():
        query, client = server.recvfrom(65535)
        for from_stray, data in replies(query):
            (stray if from_stray else server).sendto(data, client)

    worker = threading.Thread(target=serve)
    worker.start()
    query = wire.DnsMessage(id=0x4242, question=wire.Question(QNAME, RRType.NS))
    try:
        return UdpTcpTransport().exchange(
            ServerAddress("127.0.0.1", server.getsockname()[1]), UDP,
            wire.encode(query), timeout)
    finally:
        worker.join(timeout=5)
        server.close()
        stray.close()


def _reply(query: bytes, **overrides) -> bytes:
    return wire.encode(wire.decode(query).reply_skeleton(**overrides))


def test_udp_drops_stray_datagrams_and_returns_the_reply():
    def replies(query):
        other = wire.Question(normalize("example.net"), RRType.NS)
        return [(False, _reply(query, id=0x4243)),  # wrong ID
                (True, _reply(query)),  # right ID, from another port
                (False, _reply(query, question=other)),  # right ID, other question
                (False, b"\x42"),  # too short to be DNS
                (False, _reply(query, aa=True))]

    reply = wire.decode(_udp_exchange(replies))
    assert reply.id == 0x4242 and reply.aa
    assert reply.question == wire.Question(QNAME, RRType.NS)


def test_udp_with_only_stray_datagrams_times_out():
    def replies(query):
        return [(False, _reply(query, id=0x4243)), (True, _reply(query))]

    with pytest.raises(TransportTimeout):
        _udp_exchange(replies, timeout=0.3)


def test_udp_matches_question_without_case_and_formerr_without_question():
    def upper(query):
        raw = _reply(query)
        name_end = 12 + len(b"\x07example\x03com\x00")
        return [(False, raw[:12] + raw[12:name_end].upper() + raw[name_end:])]

    assert wire.decode(_udp_exchange(upper)).id == 0x4242

    def bare_formerr(query):
        return [(False, _reply(query, question=None, rcode=wire.RCODE_FORMERR))]

    assert wire.decode(_udp_exchange(bare_formerr)).rcode == wire.RCODE_FORMERR
