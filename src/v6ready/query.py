"""Policy-driven DNS query engine.

Behavior per scan policy: UDP first with EDNS, retry over TCP on
truncation, drop EDNS after a FORMERR, at most ``max_retries``
timeout-driven attempts per transport path spaced by ``retry_wait``,
and every outcome (including failures) cached per (server, qname, qtype),
with one exchange for callers that ask the same key at once. A reply
counts only if it carries the query's ID and question.

Each engine remembers two packets, one slot each, for its own lifetime:
the last query it encoded, without its ID, and the last reply it decoded,
with the bytes after its ID. A resolver asks each server of a zone the
same question in a row, and the servers send the same bytes apart from
the ID, so an attempt that repeats the last question only prefixes a
fresh ID, and a reply that repeats the last body reuses its decoded
message under its own ID. Such replies share their section tuples, so
the resolver reads them once (``Resolver._read_ns_layer``). A slot holds
one packet and is overwritten by the next, so the memory stays bounded
however long a scan runs; slots are never shared between engines.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Protocol

from .names import DomainName
from .records import RRType, V4, V6
from .wire import (
    DnsMessage,
    Edns,
    Question,
    RCODE_FORMERR,
    WireFormatError,
    decode_after_id,
    encode,
    frame_tcp,
    read_tcp_frame,
)

UDP = "udp"
TCP = "tcp"

EDNS = Edns()  # the OPT record of every query until a FORMERR drops it


class TransportTimeout(Exception):
    pass


class TransportUnreachable(Exception):
    pass


@dataclass(frozen=True, order=True)
class ServerAddress:
    """A server to query: v6ready asks port 53, the one port it names."""

    ip: str
    port: int = 53

    @property
    def protocol(self) -> str:
        return V6 if ":" in self.ip else V4

    def __str__(self) -> str:
        return f"[{self.ip}]:{self.port}" if ":" in self.ip else f"{self.ip}:{self.port}"


class Transport(Protocol):
    def exchange(self, server: ServerAddress, transport: str, payload: bytes,
                 timeout: float) -> bytes:
        """Send one DNS payload, return the raw (unframed) reply bytes.

        Raises TransportTimeout when no reply arrives in time and
        TransportUnreachable when the network refuses delivery.
        """
        ...


@dataclass(frozen=True)
class QueryPolicy:
    max_retries: int = 4
    retry_wait: float = 20.0
    udp_timeout: float = 3.0
    tcp_timeout: float = 10.0

    def __post_init__(self):
        """The one check of these ranges, in the order of the README's
        settings table; the first value out of its range is a ValueError.
        Sockets and sleeps refuse waits over ``threading.TIMEOUT_MAX``. A
        NaN passes the sign checks, as every comparison with it is false,
        and fails the finite ones."""
        longest = threading.TIMEOUT_MAX
        if self.max_retries < 1:
            raise ValueError("retries must be >= 1")
        timeouts = (self.udp_timeout, self.tcp_timeout)
        # a socket timeout of 0 is non-blocking mode, where a silent server reads as unreachable
        if any(timeout <= 0 for timeout in timeouts):
            raise ValueError("timeouts must be positive")
        if not all(timeout <= longest for timeout in timeouts):
            raise ValueError(f"timeouts must be finite and at most {longest:.0f} seconds")
        if self.retry_wait < 0:
            raise ValueError("the retry wait must be >= 0")
        if not self.retry_wait <= longest:
            raise ValueError(f"the retry wait must be finite and at most {longest:.0f} seconds")


RESPONSE = "response"
TIMEOUT = "timeout"
UNREACHABLE = "unreachable"
MALFORMED = "malformed"


class QueryOutcome(NamedTuple):
    """A named tuple, equal to a plain tuple with the same items."""

    kind: str
    message: DnsMessage | None = None


class ResponseCache:
    """Shared outcome cache with in-flight coalescing.

    A key is (server ip, port, qname, qtype). Failure outcomes are
    stored exactly like successes; there is no eviction within a run.
    ``intern`` is the ``wire.decode`` intern table of every engine that
    shares the cache, kept as long as the cache: the cached replies of a
    run hold one object per distinct name and record. It holds every name
    and record the engines decoded, also those of replies that never
    reached the cache (truncated, not a response, malformed partway), so
    it grows at most with the bytes received.
    One plain lock guards the entries, the in-flight keys and the
    counters. A key's first caller claims it; a second caller on a key in
    flight makes the key's event and waits on it outside the lock, and
    ``fulfill`` or ``abort`` sets it, so a key nobody waits on costs no
    event.
    """

    def __init__(self):
        self._entries: dict[tuple, QueryOutcome] = {}
        # a key in flight -> the event its waiters wait on, None while there are none
        self._inflight: dict[tuple, threading.Event | None] = {}
        self._lock = threading.Lock()
        self.intern: dict = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def begin(self, key: tuple) -> QueryOutcome | None:
        """Return the cached outcome, or claim ownership (None) if absent.

        Blocks while another caller is already fetching the same key.
        """
        while True:
            with self._lock:
                outcome = self._entries.get(key)
                if outcome is not None:
                    self.hits += 1
                    return outcome
                if key not in self._inflight:
                    self._inflight[key] = None
                    self.misses += 1
                    return None
                event = self._inflight[key]
                if event is None:
                    event = self._inflight[key] = threading.Event()
            event.wait()

    def fulfill(self, key: tuple, outcome: QueryOutcome) -> None:
        with self._lock:
            self._entries[key] = outcome
            event = self._inflight.pop(key, None)
        if event is not None:
            event.set()

    def abort(self, key: tuple) -> None:
        """Release a claimed key unfilled; a waiter wakes and claims it."""
        with self._lock:
            event = self._inflight.pop(key, None)
        if event is not None:
            event.set()


class QueryEngine:
    """Issues queries through a Transport under a QueryPolicy."""

    def __init__(
        self,
        transport: Transport,
        policy: QueryPolicy | None = None,
        cache: ResponseCache | None = None,
        rng: random.Random | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.transport = transport
        self.policy = policy or QueryPolicy()
        # an empty cache is falsy (it has a length), so test for None
        self.cache = cache if cache is not None else ResponseCache()
        self.rng = rng or random.Random()
        self._sleep = sleep
        # ((qname, qtype, edns), query bytes after the ID)
        self._last_query: tuple = (None, b"")
        # the slot of ``wire.decode_after_id``
        self._last_reply: tuple = (None, None)

    def query(self, server: ServerAddress, qname: DomainName, qtype: RRType) -> QueryOutcome:
        """The outcome of one class-IN question to ``server``."""
        key = (server.ip, server.port, qname, qtype)
        cached = self.cache.begin(key)
        if cached is not None:
            return cached
        try:
            outcome = self._run(server, qname, qtype)
        except BaseException:
            self.cache.abort(key)
            raise
        self.cache.fulfill(key, outcome)
        return outcome

    def _run(self, server, qname, qtype) -> QueryOutcome:
        transport = UDP
        edns = True
        tried: set[tuple[str, bool]] = set()
        while True:
            tried.add((transport, edns))
            outcome = self._attempt_path(server, qname, qtype, transport, edns)
            if outcome.kind != RESPONSE:
                return outcome
            msg = outcome.message
            assert msg is not None
            if msg.tc and transport == UDP and (TCP, edns) not in tried:
                transport = TCP
                continue
            if msg.rcode == RCODE_FORMERR and edns and (transport, False) not in tried:
                edns = False
                continue
            return outcome

    def _attempt_path(self, server, qname, qtype, transport, edns) -> QueryOutcome:
        timeout = self.policy.udp_timeout if transport == UDP else self.policy.tcp_timeout
        body = self._query_body(qname, qtype, edns)
        for attempt in range(self.policy.max_retries):
            if attempt:
                self._sleep(self.policy.retry_wait)
            msg_id = self.rng.randrange(0x10000)
            payload = msg_id.to_bytes(2, "big") + body
            try:
                raw = self.transport.exchange(server, transport, payload, timeout)
            except TransportTimeout:
                continue
            except TransportUnreachable:
                return QueryOutcome(UNREACHABLE)
            if not _answers(payload, raw):
                return QueryOutcome(MALFORMED)
            try:
                msg, self._last_reply = decode_after_id(raw, self._last_reply,
                                                         self.cache.intern)
            except WireFormatError:
                return QueryOutcome(MALFORMED)
            if not msg.qr:
                return QueryOutcome(MALFORMED)
            return QueryOutcome(RESPONSE, msg)
        return QueryOutcome(TIMEOUT)

    def _query_body(self, qname, qtype, edns) -> bytes:
        """The encoded query after its 2-byte ID."""
        question = (qname, qtype, edns)
        last_question, body = self._last_query
        if last_question != question:
            body = encode(DnsMessage(
                question=Question(qname, qtype),
                edns=EDNS if edns else None,
            ))[2:]
            self._last_query = (question, body)
        return body


def _answers(query: bytes, reply: bytes) -> bool:
    """``reply`` has the ID and question section of ``query``, the query
    name compared without case (RFC 5452 §9.1). A FORMERR without a
    question section also answers: a server that does not understand EDNS
    may send one (RFC 6891 §7)."""
    if len(reply) < 12 or reply[:2] != query[:2]:
        return False
    if reply[4:6] == b"\x00\x00" and reply[3] & 0xF == RCODE_FORMERR:
        return True
    if reply[4:6] != query[4:6]:
        return False
    name_end = 12
    while query[name_end]:  # our own question: labels, no compression
        name_end += query[name_end] + 1
    name_end += 1
    return (reply[12:name_end].lower() == query[12:name_end].lower()
            and reply[name_end:name_end + 4] == query[name_end:name_end + 4])


class UdpTcpTransport:
    """Real-socket transport. A fresh UDP socket per attempt gives each
    exchange a new ephemeral source port."""

    def exchange(self, server: ServerAddress, transport: str, payload: bytes,
                 timeout: float) -> bytes:
        family = socket.AF_INET6 if ":" in server.ip else socket.AF_INET
        try:
            if transport == UDP:
                return self._udp(family, server, payload, timeout)
            return self._tcp(family, server, payload, timeout)
        except socket.timeout as exc:
            raise TransportTimeout(str(exc)) from exc
        except OSError as exc:
            raise TransportUnreachable(str(exc)) from exc

    def _udp(self, family, server, payload, timeout) -> bytes:
        """Send once, then read until the deadline for a datagram that
        answers the query; every other datagram is dropped."""
        deadline = time.monotonic() + timeout
        peer = socket.inet_pton(family, server.ip)
        with socket.socket(family, socket.SOCK_DGRAM) as sock:
            sock.settimeout(timeout)
            sock.sendto(payload, (server.ip, server.port))
            while True:
                data, addr = sock.recvfrom(65535)
                if (addr[1] == server.port and socket.inet_pton(family, addr[0]) == peer
                        and _answers(payload, data)):
                    return data
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise socket.timeout("no matching reply")
                sock.settimeout(remaining)

    def _tcp(self, family, server, payload, timeout) -> bytes:
        with socket.create_connection((server.ip, server.port), timeout=timeout) as sock:
            sock.settimeout(timeout)
            sock.sendall(frame_tcp(payload))
            return read_tcp_frame(sock)

