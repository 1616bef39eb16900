"""A raw-socket HTTP/1.1 load generator, cheaper than the server it drives.

One thread, at most two keep-alive connections, requests encoded before
the timed phase starts.  Each connection carries one request at a time;
a selector waits for whichever response lands first.  That keeps the
generator's own cost per request to tens of microseconds, where
``http.client`` spends enough to saturate the client before the server.

Open loop: request ``i`` is due at ``epoch + i / rate`` whatever happened
before it.  Its latency runs from that due time to the last byte of its
response, so a stall is charged to every request it delays, and the
generator's own lateness (``lag``: send time minus due time) is recorded
next to it.  Closed loop: each connection sends its next request as soon
as the previous response completes; latency runs from the send.
"""

from __future__ import annotations

import select
import socket
import time
from dataclasses import dataclass, field

_HEAD_END = b"\r\n\r\n"
_LENGTH = b"Content-Length: "


def get_request(target: str) -> bytes:
    return f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii")


def post_request(target: str, body: bytes) -> bytes:
    head = (
        f"POST {target} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


class _Connection:
    """One keep-alive socket plus its unparsed receive buffer."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Blocking mode: a socket with a timeout polls before every recv
        # and send.  Reads happen only once select() reports data.
        self.sock.settimeout(None)
        self.buffer = bytearray()
        #: Byte length of the response being received, once its head is in.
        self._total = 0
        self.inflight = -1

    def wait(self, timeout_s: float) -> None:
        if not select.select((self.sock,), (), (), timeout_s)[0]:
            raise TimeoutError(f"no response within {timeout_s}s")

    def receive(self) -> tuple[int, bytes] | None:
        """Read what is available; return ``(status, body)`` once a whole
        response is buffered.  Raises ``ConnectionError`` on EOF."""
        data = self.sock.recv(262144)
        if not data:
            raise ConnectionError("server closed the connection")
        buffer = self.buffer
        buffer += data
        if not self._total:
            end = buffer.find(_HEAD_END)
            if end < 0:
                return None
            at = buffer.find(_LENGTH, 0, end)
            if at < 0:
                raise ConnectionError("response without Content-Length")
            stop = buffer.find(b"\r\n", at)
            self._total = end + 4 + int(buffer[at + len(_LENGTH) : stop])
            self._body_at = end + 4
        total = self._total
        if len(buffer) < total:
            return None
        status = int(buffer[9:12])
        body = bytes(buffer[self._body_at : total])
        del buffer[:total]
        self._total = 0
        return status, body

    def close(self) -> None:
        self.sock.close()


@dataclass
class LoopResult:
    """Per-request timings of one phase (``perf_counter`` seconds)."""

    due: list[float] = field(default_factory=list)
    sent: list[float] = field(default_factory=list)
    done: list[float] = field(default_factory=list)
    status: list[int] = field(default_factory=list)
    #: Generator thread CPU seconds spent in the phase.
    cpu_s: float = 0.0
    wall_s: float = 0.0
    #: Requests never sent because the phase was cut short.
    unsent: int = 0

    @property
    def attempted(self) -> int:
        return len(self.sent)

    @property
    def failed(self) -> int:
        return sum(1 for status in self.status if status != 200)

    def latencies_ms(self, *, from_due: bool) -> list[float]:
        start = self.due if from_due else self.sent
        return [
            (done - begin) * 1000.0
            for begin, done, status in zip(start, self.done, self.status)
            if status == 200
        ]

    def lags_ms(self) -> list[float]:
        return [(sent - due) * 1000.0 for due, sent in zip(self.due, self.sent)]


class LoadClient:
    """Up to two persistent connections to ``127.0.0.1:port``."""

    def __init__(self, port: int, connections: int = 2):
        if not 1 <= connections <= 2:
            raise ValueError("the generator uses one or two connections")
        self._connections = [_Connection(port) for _ in range(connections)]

    def close(self) -> None:
        for connection in self._connections:
            connection.close()

    def __enter__(self) -> "LoadClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def fetch(self, request: bytes, timeout_s: float = 30.0) -> tuple[int, bytes]:
        """One request on the first connection, outside any timed phase."""
        connection = self._connections[0]
        connection.sock.sendall(request)
        while True:
            connection.wait(timeout_s)
            response = connection.receive()
            if response is not None:
                return response

    def _run(
        self,
        requests: list[bytes],
        *,
        rate: float | None,
        duration_s: float | None,
        abort_lag_s: float | None,
        timeout_s: float,
    ) -> LoopResult:
        result = LoopResult()
        due, sent, done, status = result.due, result.sent, result.done, result.status
        # select(2) takes a microsecond timeout; epoll and poll round the
        # wait up to whole milliseconds, which would make every open-loop
        # send up to 1 ms late.
        by_socket = {connection.sock: connection for connection in self._connections}
        sockets = tuple(by_socket)
        idle = list(self._connections)
        perf = time.perf_counter
        count = len(requests)
        interval = 1.0 / rate if rate else 0.0
        cpu0 = time.thread_time()
        epoch = perf() + 0.005
        stop_at = epoch + duration_s if duration_s is not None else None
        next_index = 0
        outstanding = 0
        while True:
            now = perf()
            if rate is None:
                # Closed loop: every idle connection sends at once.
                while idle and now < stop_at:
                    connection = idle.pop()
                    payload = requests[next_index % count]
                    connection.inflight = len(sent)
                    due.append(now)
                    connection.sock.sendall(payload)
                    sent.append(perf())
                    done.append(0.0)
                    status.append(0)
                    next_index += 1
                    outstanding += 1
                if outstanding == 0:
                    break
                wait = timeout_s
            else:
                while idle and next_index < count and epoch + next_index * interval <= now:
                    connection = idle.pop()
                    connection.inflight = next_index
                    due.append(epoch + next_index * interval)
                    connection.sock.sendall(requests[next_index])
                    sent.append(perf())
                    done.append(0.0)
                    status.append(0)
                    next_index += 1
                    outstanding += 1
                if next_index >= count and outstanding == 0:
                    break
                if (
                    abort_lag_s is not None
                    and next_index < count
                    and now - (epoch + next_index * interval) > abort_lag_s
                ):
                    result.unsent = count - next_index
                    break
                if idle and next_index < count:
                    wait = max(0.0, epoch + next_index * interval - perf())
                else:
                    wait = timeout_s
            readable = select.select(sockets, (), (), wait)[0]
            if not readable and wait >= timeout_s:
                raise TimeoutError(f"no response within {timeout_s}s")
            for sock in readable:
                connection = by_socket[sock]
                response = connection.receive()
                if response is None:
                    continue
                index = connection.inflight
                done[index] = perf()
                status[index] = response[0]
                connection.inflight = -1
                idle.append(connection)
                outstanding -= 1
        # A phase cut short leaves requests in flight: finish them, so the
        # connections stay usable and the requests count as answered.
        for connection in self._connections:
            if connection.inflight >= 0:
                response = None
                while response is None:
                    connection.wait(timeout_s)
                    response = connection.receive()
                done[connection.inflight] = perf()
                status[connection.inflight] = response[0]
                connection.inflight = -1
        result.cpu_s = time.thread_time() - cpu0
        result.wall_s = perf() - epoch
        return result

    def open_loop(
        self,
        requests: list[bytes],
        rate: float,
        *,
        abort_lag_s: float | None = None,
        timeout_s: float = 30.0,
    ) -> LoopResult:
        """Send ``requests[i]`` at ``epoch + i / rate``; stop early (the
        rest counted ``unsent``) once the generator runs ``abort_lag_s``
        behind schedule."""
        return self._run(
            requests, rate=rate, duration_s=None,
            abort_lag_s=abort_lag_s, timeout_s=timeout_s,
        )

    def closed_loop(
        self, requests: list[bytes], duration_s: float, *, timeout_s: float = 30.0
    ) -> LoopResult:
        """Keep every connection busy for ``duration_s``, cycling through
        ``requests``."""
        return self._run(
            requests, rate=None, duration_s=duration_s,
            abort_lag_s=None, timeout_s=timeout_s,
        )
