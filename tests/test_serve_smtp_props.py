"""Split-point and hostile-stream properties of the SMTP session protocol.

Each example drives one :class:`SmtpSession` through a fake transport
and a stand-in admission service inside an event loop whose clock jumps
to the next timer instead of sleeping, so deadlines cost no wall time.

* A valid transcript delivered in any chunking gets byte-identical
  replies to the same transcript delivered in one piece.
* Any byte stream, in any chunking, with or without an EOF, never
  raises, closes the session by the session deadline, writes nothing
  after closing, buffers at most one line cap beyond the read in hand,
  and never answers a DATA with 250 before the record is journaled.
"""

from __future__ import annotations

import asyncio
import re
import selectors
from typing import List, Optional

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net.smtp import Reply
from repro.serve.admission import LiveStats
from repro.serve.smtp_server import MAX_COMMAND_LINE, SmtpFrontend, SmtpSession

DOMAIN = "corp.example"
SENDER = "alice@ext-0.livegen.example"
DEADLINES = dict(command_deadline=0.2, data_deadline=0.2, session_deadline=1.0)


class _JumpSelector(selectors.DefaultSelector):
    """Polls without blocking; an idle wait advances the virtual clock."""

    def __init__(self) -> None:
        super().__init__()
        self.now = 0.0

    def select(self, timeout=None):
        events = super().select(0)
        if not events and timeout:
            self.now += timeout
        return events


class VirtualClockLoop(asyncio.SelectorEventLoop):
    def __init__(self) -> None:
        self._jump = _JumpSelector()
        super().__init__(self._jump)

    def time(self) -> float:
        return self._jump.now


class FakeService:
    """Admission stand-in. Every third record is refused (queue full); the
    rest are journaled, then answered after a delay that cycles through
    ``delays`` (a delay past the reply deadline makes a late verdict)."""

    def __init__(self, delays=(0.0,)) -> None:
        self.stats = LiveStats()
        self.wal: List[dict] = []
        self.delays = delays
        self.submitted = 0

    def route(self, address: str) -> Optional[str]:
        return DOMAIN if address.endswith("@" + DOMAIN) else None

    def try_submit(self, record: dict) -> Optional[asyncio.Future]:
        self.submitted += 1
        if self.submitted % 3 == 0:
            return None
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        delay = self.delays[self.submitted % len(self.delays)]
        loop.call_later(delay, self._commit, record, future)
        return future

    def _commit(self, record: dict, future: asyncio.Future) -> None:
        self.wal.append(record)
        future.set_result(Reply.OK)


class FakeTransport(asyncio.Transport):
    """Records each write with the journal length at that moment."""

    def __init__(self, protocol: SmtpSession, service: FakeService) -> None:
        super().__init__()
        self.protocol = protocol
        self.service = service
        self.writes: List[tuple] = []
        self.closed = False
        self.reading = True
        self.lost = asyncio.get_running_loop().create_future()

    def get_extra_info(self, name, default=None):
        return ("127.0.0.1", 2525) if name == "peername" else default

    def write(self, data) -> None:
        assert not self.closed, "write after close"
        self.writes.append((bytes(data), len(self.service.wal)))

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True

    def is_closing(self) -> bool:
        return self.closed

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            asyncio.get_running_loop().call_soon(self._lost)

    def _lost(self) -> None:
        self.protocol.connection_lost(None)
        self.lost.set_result(None)

    @property
    def output(self) -> bytes:
        return b"".join(data for data, _ in self.writes)


def run_session(chunks, *, eof: bool, delays=(0.0,), **deadlines):
    """Feed *chunks* to a fresh session (then an EOF, if asked) and run
    until it closes. Returns ``(transport, service, close_time, errors)``."""
    loop = VirtualClockLoop()
    errors: list = []
    loop.set_exception_handler(lambda _loop, context: errors.append(context))

    async def drive():
        service = FakeService(delays)
        session = SmtpSession(SmtpFrontend(service, **deadlines))
        transport = FakeTransport(session, service)
        session.connection_made(transport)
        for chunk in chunks:
            while not transport.reading:
                await asyncio.sleep(0.001)
            if transport.closed:
                break
            session.data_received(chunk)
            # Reading pauses before the buffer outgrows one line cap.
            assert len(session.buffer) <= MAX_COMMAND_LINE + len(chunk)
            await asyncio.sleep(0)
        if eof and not transport.closed:
            session.eof_received()
        await asyncio.wait_for(transport.lost, 3600.0)
        assert service.stats.sessions_open == 0
        return transport, service, loop.time()

    try:
        transport, service, closed_at = loop.run_until_complete(drive())
    finally:
        loop.close()
    return transport, service, closed_at, errors


def split(data: bytes, sizes) -> List[bytes]:
    """*data* cut into chunks whose sizes cycle through *sizes*."""
    chunks, start, index = [], 0, 0
    while start < len(data):
        chunks.append(data[start:start + sizes[index % len(sizes)]])
        start += len(chunks[-1])
        index += 1
    return chunks


#: Mostly tiny chunks, so every boundary (a terminator's "." and its
#: CRLF, a CR and its LF) is cut somewhere, plus the odd large read.
_SIZES = st.lists(st.integers(1, 16) | st.just(4096), min_size=1, max_size=12)


_MESSAGE = st.tuples(
    st.sampled_from(["hello", "SPAM: offer", "NEWS: digest", ""]),
    st.lists(
        st.sampled_from(
            [b"plain text", b".leading dot", b"..", b"", b"x" * (3 * MAX_COMMAND_LINE)]
        ),
        max_size=4,
    ),
)


def transcript(messages) -> bytes:
    """EHLO, one transaction per message (every fourth names an unknown
    recipient and is reset), then QUIT; bodies are dot-stuffed."""
    out = [b"EHLO props\r\n"]
    for index, (subject, body) in enumerate(messages):
        rcpt = f"user{index % 3}@{DOMAIN}" if index % 4 else "ghost@nowhere.invalid"
        out.append(f"MAIL FROM:<{SENDER}>\r\nRCPT TO:<{rcpt}>\r\n".encode())
        if index % 4 == 0:
            out.append(b"RSET\r\n")
            continue
        out.append(f"DATA\r\nSubject: {subject}\r\n\r\n".encode())
        out.extend(b"." + line + b"\r\n" if line.startswith(b".") else line + b"\r\n" for line in body)
        out.append(b".\r\nNOOP\r\n")
    out.append(b"QUIT\r\n")
    return b"".join(out)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(messages=st.lists(_MESSAGE, min_size=1, max_size=5), sizes=_SIZES)
def test_chunking_never_changes_the_replies(messages, sizes):
    data = transcript(messages)
    whole, whole_service, _, errors = run_session([data], eof=False, delays=(0.0, 0.01))
    assert not errors
    assert whole.output.endswith(b"221 bye\r\n")
    pieces, piece_service, _, errors = run_session(split(data, sizes), eof=False, delays=(0.0, 0.01))
    assert not errors
    assert pieces.output == whole.output
    assert piece_service.wal == whole_service.wal


_REPLY_LINE = re.compile(rb"\d{3} [ -~]*\r\n")

_VOCABULARY = st.sampled_from(
    [
        b"Subject: hi\r\n\r\nbody\r\n.\r\n",
        b"NOOP\r\n" * 200,
        b"EHLO x\r\n",
        b"HELO x\r\n",
        f"MAIL FROM:<{SENDER}>\r\n".encode(),
        b"MAIL FROM:<>\r\n",
        f"RCPT TO:<bob@{DOMAIN}>\r\n".encode(),
        b"RCPT TO:<ghost@nowhere.invalid>\r\n",
        b"DATA\r\n",
        b"Subject: hi\r\n\r\nbody\r\n",
        b".\r\n",
        b"..\r\n",
        b"NOOP\r\n",
        b"RSET\r\n",
        b"QUIT\r\n",
        b"\r\n",
        b"\n",
        b"\r",
        b"y" * (MAX_COMMAND_LINE + 7),
    ]
)
#: Ends any partial line first, so a whole transaction can follow garbage.
_ENVELOPE = f"\r\nEHLO x\r\nMAIL FROM:<{SENDER}>\r\nRCPT TO:<bob@{DOMAIN}>\r\nDATA\r\n".encode()
_STREAM = st.lists(
    st.one_of(st.just(_ENVELOPE), _VOCABULARY, st.binary(max_size=40)), max_size=30
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    parts=_STREAM,
    sizes=_SIZES,
    eof=st.booleans(),
    # 0.2 s makes the 0.5 s and 2 s verdicts late; 5 s leaves a verdict
    # pending when the session budget runs out.
    reply_deadline=st.sampled_from([0.2, 5.0]),
)
def test_hostile_streams_end_cleanly(parts, sizes, eof, reply_deadline):
    transport, service, closed_at, errors = run_session(
        split(b"".join(parts), sizes),
        eof=eof,
        delays=(0.0, 0.05, 0.5, 2.0),
        reply_deadline=reply_deadline,
        **DEADLINES,
    )
    assert not errors
    assert closed_at <= DEADLINES["session_deadline"] + 1e-6
    acked = 0
    after_354 = False
    for line, journaled in transport.writes:
        assert _REPLY_LINE.fullmatch(line), line
        if after_354 and line.startswith(b"250 "):
            acked += 1
            assert journaled >= acked, "250 before the record was journaled"
        after_354 = line.startswith(b"354 ")
