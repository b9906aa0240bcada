import random
import threading

import pytest

from v6ready import wire
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
