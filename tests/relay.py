"""Real loopback sockets in front of a mocknet universe, as a transport for
``cli.main``'s ``transport_factory``. ``exchange`` records the virtual server
and sends the bytes through ``UdpTcpTransport`` to the relay's listener of that
server's family and of the transport, which replies with what
``universe.exchange`` returns, or with nothing on a timeout or an unreachable
server. One thread serves one exchange at a time; leaving ``with`` ends it."""

import contextlib
import select
import socket
import threading

from v6ready import query
from v6ready.records import V4, V6
from v6ready.wire import frame_tcp, read_tcp_frame

LOOPBACK = {V4: (socket.AF_INET, "127.0.0.1"), V6: (socket.AF_INET6, "::1")}
SILENT = (query.TransportTimeout, query.TransportUnreachable)


class Relay(contextlib.AbstractContextManager):
    def __init__(self, universe):
        self.universe, self._real = universe, query.UdpTcpTransport()
        self._listeners = {}  # (protocol, transport) -> socket
        for proto, (family, ip) in LOOPBACK.items():
            udp = self._listeners[proto, query.UDP] = socket.socket(family, socket.SOCK_DGRAM)
            udp.bind((ip, 0))
            self._listeners[proto, query.TCP] = socket.create_server((ip, 0), family=family)
        self._stop, self._thread = threading.Event(), threading.Thread(target=self._serve)
        self._thread.start()

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)
        for sock in self._listeners.values():
            sock.close()
        assert not self._thread.is_alive()

    def exchange(self, server, transport, payload, timeout):
        self._pending = server, timeout
        ip, port = self._listeners[server.protocol, transport].getsockname()[:2]
        return self._real.exchange(query.ServerAddress(ip, port), transport, payload, timeout)

    def _serve(self):
        while not self._stop.is_set():
            for sock in select.select(list(self._listeners.values()), [], [], 0.05)[0]:
                self._answer(sock, *self._pending)

    def _answer(self, sock, server, timeout):
        if sock.type == socket.SOCK_DGRAM:
            payload, peer = sock.recvfrom(65535)
            with contextlib.suppress(*SILENT):
                sock.sendto(self.universe.exchange(server, query.UDP, payload, timeout), peer)
            return
        with sock.accept()[0] as conn:
            try:
                conn.sendall(frame_tcp(self.universe.exchange(
                    server, query.TCP, read_tcp_frame(conn), timeout)))
            except SILENT:
                conn.recv(1)  # silent until the client gives up and closes
