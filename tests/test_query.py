import json
import random
import socket
import sys
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from universes import healthy_zone, root_fixture, with_short_a_record
from v6ready import cli, wire
from v6ready import query as query_module
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
from v6ready.records import ResourceRecord, RRType

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
    assert not outcome.message.tc
    assert [t for _, t, _ in transport.exchanges] == [UDP, TCP]


def test_formerr_disables_edns_once():
    engine, transport, _ = make_engine("formerr-on-edns")
    outcome = engine.query(SERVER, QNAME, RRType.NS)
    assert outcome.kind == RESPONSE
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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 1e10])
@pytest.mark.parametrize("field", ["retry_wait", "udp_timeout", "tcp_timeout"])
def test_policy_refuses_a_wait_that_sockets_and_sleeps_refuse(field, value):
    with pytest.raises(ValueError, match="finite"):
        QueryPolicy(**{field: value})
    assert getattr(QueryPolicy(**{field: threading.TIMEOUT_MAX}), field) == threading.TIMEOUT_MAX


@pytest.mark.parametrize("field", ["udp_timeout", "tcp_timeout"])
def test_policy_refuses_a_zero_timeout_but_not_a_zero_wait(field):
    # a socket timeout of 0 is non-blocking mode, where a silent server
    # would read as unreachable instead of timing out
    with pytest.raises(ValueError, match="timeouts must be > 0"):
        QueryPolicy(**{field: 0})
    assert QueryPolicy(retry_wait=0).retry_wait == 0


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


def _blocked_begins(cache, key, n):
    """Start ``n`` threads calling ``cache.begin(key)``; returns the threads
    and the list their results land in."""
    got = []
    threads = [threading.Thread(target=lambda: got.append(cache.begin(key)), daemon=True)
               for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(0.2)
    return threads, got


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
    threads, got = _blocked_begins(cache, (SERVER.ip, SERVER.port, QNAME, RRType.NS), 1)
    threads[0].join(5.0)
    assert got == [None]


def test_a_caller_on_a_key_in_flight_waits_for_its_one_exchange():
    gate = threading.Event()

    class Gated(ScriptedTransport):
        def exchange(self, server, transport, payload, timeout):
            assert gate.wait(5.0)
            return super().exchange(server, transport, payload, timeout)

    transport, cache = Gated("ok"), ResponseCache()
    engines = [QueryEngine(transport, policy=QueryPolicy(retry_wait=0.0), cache=cache,
                           rng=random.Random(seed), sleep=lambda s: None)
               for seed in (1, 2)]
    results = {}

    def ask(i):
        results[i] = engines[i].query(SERVER, QNAME, RRType.NS)

    a = threading.Thread(target=ask, args=(0,), daemon=True)
    a.start()
    while cache.misses == 0:  # A has claimed the key and is in its exchange
        a.join(0.01)
    b = threading.Thread(target=ask, args=(1,), daemon=True)
    b.start()
    b.join(0.2)
    assert b.is_alive() and 1 not in results  # B blocks while A's key is in flight
    gate.set()
    a.join(5.0)
    b.join(5.0)
    assert results[0].kind == RESPONSE and results[1] is results[0]
    assert len(transport.exchanges) == 1
    assert (cache.hits, cache.misses, len(cache)) == (1, 1, 1)


def test_fulfill_wakes_every_waiter_and_abort_hands_the_key_to_one():
    cache = ResponseCache()
    key = (SERVER.ip, SERVER.port, QNAME, RRType.NS)
    assert cache.begin(key) is None  # A claims the key
    threads, got = _blocked_begins(cache, key, 2)
    assert all(t.is_alive() for t in threads) and got == []
    cache.abort(key)  # one waiter claims the key; the other waits on for it
    for _ in range(500):
        if got:
            break
        threads[0].join(0.01)
    assert got == [None]
    threads[0].join(0.2)
    threads[1].join(0.2)
    assert sum(t.is_alive() for t in threads) == 1
    assert (cache.hits, cache.misses) == (0, 2)
    outcome = query_module.QueryOutcome(TIMEOUT)
    cache.fulfill(key, outcome)
    for t in threads:
        t.join(5.0)
    assert got[0] is None and got[1] is outcome
    later, more = _blocked_begins(cache, key, 2)
    for t in later:
        t.join(5.0)
    assert more[0] is outcome and more[1] is outcome
    assert (cache.hits, cache.misses, len(cache)) == (3, 2, 1)


def test_engines_sharing_a_cache_under_thread_switches_exchange_each_key_once():
    # as in scan --concurrency: one engine per thread, one cache for all
    keys = [(ServerAddress(f"192.0.2.{s}"), normalize(f"n{q}.example"))
            for s in range(3) for q in range(20)]

    class Yielding(ScriptedTransport):
        def exchange(self, server, transport, payload, timeout):
            time.sleep(0)  # another thread may ask for this key while it is in flight
            return super().exchange(server, transport, payload, timeout)

    transport, cache = Yielding("ok"), ResponseCache()
    got: dict[tuple, set[int]] = {key: set() for key in keys}
    start = threading.Barrier(6)

    def run(worker):
        engine = QueryEngine(transport, policy=QueryPolicy(retry_wait=0.0), cache=cache,
                             rng=random.Random(worker), sleep=lambda s: None)
        order = keys * 2
        random.Random(worker).shuffle(order)
        start.wait(10)
        for server, qname in order:
            got[(server, qname)].add(id(engine.query(server, qname, RRType.NS)))

    threads = [threading.Thread(target=run, args=(w,)) for w in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    # a lost claim would exchange a key twice, and hand out two outcomes
    exchanged = Counter((ip, msg.question.qname) for ip, _, msg in transport.exchanges)
    assert sorted(exchanged.values()) == [1] * len(keys)
    assert all(len(ids) == 1 for ids in got.values())
    calls = 6 * 2 * len(keys)
    assert (cache.misses, cache.hits, len(cache)) == (len(keys), calls - len(keys), len(keys))


# -- the packet memo: one query and one reply remembered per engine ----------


class Recorder:
    """Replies with ``reply(payload, transport)`` and records each payload;
    ``drops`` exchanges time out first."""

    def __init__(self, reply, drops=0):
        self.reply = reply
        self.drops = drops
        self.payloads = []

    def exchange(self, server, transport, payload, timeout):
        self.payloads.append(payload)
        if self.drops:
            self.drops -= 1
            raise TransportTimeout("dropped")
        return self.reply(payload, transport)


def _engine(transport, seed=7, **policy_kwargs):
    return QueryEngine(transport, policy=QueryPolicy(retry_wait=0.0, **policy_kwargs),
                       rng=random.Random(seed), sleep=lambda s: None)


_labels = st.text("abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12)
_questions = st.tuples(
    st.lists(_labels, min_size=1, max_size=4).map(lambda ls: normalize(".".join(ls))),
    st.integers(0, 0xFFFF).map(RRType),
)


@settings(max_examples=150, deadline=None)
@given(questions=st.lists(st.tuples(_questions, st.sampled_from(
           ["ok", "tc", "formerr", "tc+formerr"]), st.integers(0, 2)),
           min_size=1, max_size=6),
       edns_payload=st.none() | st.integers(512, 0xFFFF),
       seed=st.integers(0, 2**32))
def test_every_sent_query_equals_a_freshly_encoded_one(questions, edns_payload, seed):
    formerr_at = []  # indexes of the payloads answered with FORMERR

    def reply(payload, transport):
        msg = wire.decode(payload)
        if "formerr" in behavior and msg.edns is not None:
            formerr_at.append(len(recorder.payloads) - 1)
            return wire.encode(msg.reply_skeleton(rcode=wire.RCODE_FORMERR))
        if "tc" in behavior and transport == UDP:
            return wire.encode(msg.reply_skeleton(tc=True))
        return wire.encode(msg.reply_skeleton(aa=True))

    recorder = Recorder(reply)
    engine = _engine(recorder, seed, edns_payload=edns_payload)
    ids = random.Random(seed)  # the engine draws one ID per attempt
    for i, ((qname, qtype), behavior, drops) in enumerate(questions):
        recorder.drops = drops
        start = len(recorder.payloads)
        outcome = engine.query(ServerAddress(f"192.0.2.{i + 1}"), qname, qtype)
        assert outcome.kind == RESPONSE
        for j in range(start, len(recorder.payloads)):
            edns = edns_payload is not None and not any(start <= k < j for k in formerr_at)
            payload = recorder.payloads[j]
            assert payload == wire.encode(wire.DnsMessage(
                id=ids.randrange(0x10000),
                question=wire.Question(qname, qtype),
                edns=wire.Edns(edns_payload) if edns else None))


# bound at import, so the replies' own decodes are never counted
_decode = wire.decode


def _ns_reply(payload, transport):
    """The same answer from every server: only the ID differs."""
    msg = _decode(payload)
    ns = ResourceRecord(msg.question.qname, RRType.NS, 300, normalize("ns1.example.com"))
    return wire.encode(msg.reply_skeleton(aa=True, answer=(ns,)))


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(1) or real(*a))
    return calls


def test_servers_sending_the_same_reply_share_one_decoded_answer(monkeypatch):
    encodes = _count_calls(monkeypatch, query_module, "encode")
    decodes = _count_calls(monkeypatch, wire, "decode")
    recorder = Recorder(_ns_reply)
    engine = _engine(recorder)
    first = engine.query(ServerAddress("192.0.2.1"), QNAME, RRType.NS)
    second = engine.query(ServerAddress("192.0.2.2"), QNAME, RRType.NS)
    assert first.kind == second.kind == RESPONSE
    assert [first.message.id, second.message.id] == [
        int.from_bytes(p[:2], "big") for p in recorder.payloads]
    assert first.message.id != second.message.id
    assert second.message.answer is first.message.answer
    assert second.message.answer[0].data == normalize("ns1.example.com")
    assert (len(encodes), len(decodes)) == (1, 1)


def test_remembered_reply_body_under_a_wrong_id_is_malformed():
    replies = []

    def reply(payload, transport):
        if not replies:
            replies.append(_ns_reply(payload, transport))
            return replies[0]
        wrong = (int.from_bytes(payload[:2], "big") ^ 1).to_bytes(2, "big")
        return wrong + replies[0][2:]

    engine = _engine(Recorder(reply))
    assert engine.query(ServerAddress("192.0.2.1"), QNAME, RRType.NS).kind == RESPONSE
    assert engine.query(ServerAddress("192.0.2.2"), QNAME, RRType.NS).kind == MALFORMED


def test_malformed_reply_after_a_good_one_is_malformed_and_never_remembered():
    def reply(payload, transport):
        raw = _ns_reply(payload, transport)
        return raw if len(recorder.payloads) == 1 else with_short_a_record(raw)

    recorder = Recorder(reply)
    engine = _engine(recorder)
    outcomes = [engine.query(ServerAddress(f"192.0.2.{i}"), QNAME, RRType.NS)
                for i in (1, 2, 3)]
    assert [o.kind for o in outcomes] == [RESPONSE, MALFORMED, MALFORMED]


def test_each_new_engine_starts_with_empty_slots(monkeypatch):
    encodes = _count_calls(monkeypatch, query_module, "encode")
    decodes = _count_calls(monkeypatch, wire, "decode")
    transport = Recorder(_ns_reply)
    for seed in (1, 2):
        outcome = _engine(transport, seed).query(SERVER, QNAME, RRType.NS)
        assert outcome.kind == RESPONSE
    assert (len(encodes), len(decodes)) == (2, 2)


def test_an_engine_shared_by_threads_pairs_each_reply_with_its_own_message():
    names = [normalize(f"n{k}.example") for k in range(3)]
    engine = _engine(Recorder(_ns_reply))
    wrong = []

    def run(worker):
        for i in range(150):
            qname = names[(worker + i) % len(names)]
            server = ServerAddress(f"192.0.2.{worker}", 1000 + i)
            outcome = engine.query(server, qname, RRType.NS)
            if outcome.kind != RESPONSE or outcome.message.answer[0].owner != qname:
                wrong.append((worker, i, outcome))

    threads = [threading.Thread(target=run, args=(w,)) for w in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


# -- a reply must answer the question that was sent ---------------------------

EVIL = normalize("evil.example")


def _evil_reply(payload):
    """The query's ID, with the question and answer of evil.example A."""
    msg = wire.decode(payload)
    a = ResourceRecord(EVIL, RRType.A, 300, bytes([192, 0, 2, 66]))
    return wire.encode(msg.reply_skeleton(
        aa=True, question=wire.Question(EVIL, RRType.A), answer=(a,)))


@pytest.mark.parametrize("over", [UDP, TCP])
def test_reply_to_another_question_is_malformed(over):
    def reply(payload, transport):
        if transport != over:  # reach TCP through a truncated UDP reply
            return wire.encode(wire.decode(payload).reply_skeleton(tc=True))
        return _evil_reply(payload)

    recorder = Recorder(reply)
    outcome = _engine(recorder).query(SERVER, normalize("good.example"), RRType.A)
    assert outcome.kind == MALFORMED
    assert len(recorder.payloads) == (1 if over == UDP else 2)


def test_reply_question_matches_without_case():
    def reply(payload, transport):
        raw = wire.encode(wire.decode(payload).reply_skeleton(aa=True))
        name_end = 12 + len(b"\x07example\x03com\x00")
        return raw[:12] + raw[12:name_end].upper() + raw[name_end:]

    outcome = _engine(Recorder(reply)).query(SERVER, QNAME, RRType.NS)
    assert outcome.kind == RESPONSE
    assert outcome.message.question == wire.Question(QNAME, RRType.NS)


def test_formerr_without_a_question_answers_and_drops_edns():
    def reply(payload, transport):
        msg = wire.decode(payload)
        if msg.edns is not None:
            return wire.encode(msg.reply_skeleton(question=None, rcode=wire.RCODE_FORMERR))
        return wire.encode(msg.reply_skeleton(aa=True))

    recorder = Recorder(reply)
    outcome = _engine(recorder).query(SERVER, QNAME, RRType.NS)
    assert outcome.kind == RESPONSE
    assert [wire.decode(p).edns is None for p in recorder.payloads] == [False, True]
    assert outcome.message.rcode == wire.RCODE_NOERROR


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
