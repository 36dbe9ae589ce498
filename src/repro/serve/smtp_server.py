"""The asyncio SMTP listener: live RFC-5321 sessions into the engine.

Each connection is one :class:`SmtpSession`, an :class:`asyncio.Protocol`
on a ``loop.create_server`` listener. ``data_received`` frames lines out
of the session's own buffer and runs the EHLO/MAIL/RCPT/DATA state
machine synchronously, so a command line costs no Task, no timer and no
future; replies go straight to ``transport.write``. The parser is
CRLF-strict (a bare LF in a command line is a 500, exactly the kind of
input the simulator never generates), and a command line longer than
:data:`MAX_COMMAND_LINE` is discarded through its LF and answered with
one 500. Three defensive budgets hold:

* per-phase deadlines (next command line, next DATA body line, engine
  verdict): a stalled client gets a 421 and the socket closed, so
  slowloris cannot pin worker state; a verdict that misses its deadline
  is a 421 and the session carries on,
* a per-connection session budget (421, then close),
* a maximum message size enforced *while* reading DATA (an oversized
  message is drained and refused with 552, not buffered). Body lines of
  any length count toward it, and none is ever held whole.

All of a session's deadlines share one ``TimerHandle``. Each line or
phase only moves a ``due`` time forward, and the handle fires at the
earliest of ``due``, the session budget and one shortest deadline from
when it was armed, then re-arms itself, so no deadline can come due
before the handle fires and nothing is rescheduled per line.

Envelope addresses are validated with the same
:func:`repro.net.addresses.is_well_formed` the simulated MTA uses — the
live and simulated parsers cannot drift apart because they are the same
function. The DATA acknowledgement comes from
:meth:`~repro.serve.service.LiveCrService.try_submit`: 421 when the
admission queue refuses, otherwise whatever the engine decided *after*
the record hit the fsynced WAL, written from the future's done-callback.
While a verdict is pending, later pipelined lines wait in the buffer,
and reading pauses once they exceed the line cap; reading also pauses
while the transport's write buffer is over its high-water mark.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from repro.net.addresses import is_well_formed
from repro.net.smtp import Reply
from repro.serve.service import LiveCrService

#: RFC 5321 allows 512-byte command lines; we are a little generous.
MAX_COMMAND_LINE = 1024
#: Upper bound on one message's payload.
DEFAULT_MAX_MESSAGE_BYTES = 1 * 1024 * 1024
#: Too many consecutive garbage commands → drop the session.
MAX_SYNTAX_ERRORS = 10
#: SMTP "too many recipients" — session-only, so not part of ``Reply``.
TOO_MANY_RCPTS = 452

_TEXT = {
    Reply.SERVICE_READY: "repro-cr ESMTP service ready",
    Reply.OK: "ok",
    Reply.CLOSING: "bye",
    Reply.START_MAIL_INPUT: "end data with <CRLF>.<CRLF>",
    Reply.SERVICE_UNAVAILABLE: "service unavailable, try again later",
    Reply.SYNTAX_ERROR: "syntax error",
    Reply.PARAM_SYNTAX: "syntax error in parameters",
    Reply.BAD_SEQUENCE: "bad sequence of commands",
    Reply.MAILBOX_UNAVAILABLE: "mailbox unavailable",
    Reply.RELAY_DENIED: "relaying denied",
    Reply.BLACKLISTED: "rejected",
    Reply.CONTENT_REJECTED: "message exceeds maximum size",
    Reply.DNS_TEMPFAIL: "sender domain lookup deferred",
    TOO_MANY_RCPTS: "too many recipients",
}
_REPLIES = {code: f"{code} {text}\r\n".encode("ascii") for code, text in _TEXT.items()}
_EHLO_REPLY = f"{Reply.OK} repro-cr at your service\r\n".encode("ascii")


class SmtpFrontend:
    """Owns the listening socket; each accepted connection is one
    :class:`SmtpSession`."""

    def __init__(
        self,
        service: LiveCrService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_message_bytes: int = DEFAULT_MAX_MESSAGE_BYTES,
        command_deadline: float = 30.0,
        data_deadline: float = 60.0,
        session_deadline: float = 600.0,
        reply_deadline: float = 15.0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.max_message_bytes = max_message_bytes
        self.command_deadline = command_deadline
        self.data_deadline = data_deadline
        self.session_deadline = session_deadline
        #: How long DATA waits for the engine's verdict before tempfailing.
        self.reply_deadline = reply_deadline
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: SmtpSession(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


class SmtpSession(asyncio.Protocol):
    """One SMTP connection. Limits and deadlines are read from the
    frontend when the connection opens."""

    def __init__(self, frontend: SmtpFrontend) -> None:
        self.service = frontend.service
        self.max_message_bytes = frontend.max_message_bytes
        self.command_deadline = frontend.command_deadline
        self.data_deadline = frontend.data_deadline
        self.session_deadline = frontend.session_deadline
        self.reply_deadline = frontend.reply_deadline
        #: No deadline is shorter, so arming at most this far ahead means
        #: a ``due`` moved forward can never fall before the armed timer.
        self.tick = min(self.command_deadline, self.data_deadline, self.reply_deadline)
        self.loop = asyncio.get_running_loop()
        self.transport: Optional[asyncio.Transport] = None
        self.client_ip = ""
        self.buffer = bytearray()
        self.greeted = False
        self.mail_from: Optional[str] = None
        self.rcpt_to: Optional[str] = None
        self.syntax_errors = 0
        #: Inside a command line already longer than MAX_COMMAND_LINE.
        self.discarding = False
        # DATA phase.
        self.in_data = False
        self.line_start = True
        self.in_headers = True
        self.size = 0
        self.subject = ""
        #: The engine verdict this session's next reply waits for.
        self.pending: Optional[asyncio.Future] = None
        self.write_paused = False
        self.read_paused = False
        self.eof = False
        self.closed = False
        self.timer: Optional[asyncio.TimerHandle] = None
        self.due = self.session_due = 0.0

    # -- transport callbacks ------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        stats = self.service.stats
        stats.sessions += 1
        stats.sessions_open += 1
        peer = transport.get_extra_info("peername")
        self.client_ip = peer[0] if peer else ""
        now = self.loop.time()
        self.session_due = now + self.session_deadline
        self.due = now + self.command_deadline
        self._arm(now)
        self._reply(Reply.SERVICE_READY)

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        self._process()

    def eof_received(self) -> bool:
        self.eof = True
        self._process()
        # Keep the write side open for a verdict still owed to the peer.
        return True

    def pause_writing(self) -> None:
        self.write_paused = True

    def resume_writing(self) -> None:
        self.write_paused = False
        self._process()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._stop()
        self.service.stats.sessions_open -= 1

    # -- framing ------------------------------------------------------------

    def _process(self) -> None:
        """Run every complete line the buffer holds, as far as the session
        may go before a verdict or a write-side stall."""
        buffer = self.buffer
        while not (self.closed or self.pending is not None or self.write_paused):
            end = buffer.find(b"\n")
            if end < 0:
                if len(buffer) > MAX_COMMAND_LINE:
                    if self.in_data:
                        self._body(buffer[:], complete=False)
                    else:
                        self.discarding = True
                    buffer.clear()
                break
            line = buffer[: end + 1]
            del buffer[: end + 1]
            if self.in_data:
                self._body(line, complete=True)
            else:
                self._command(line)
        if self.closed:
            return
        blocked = self.pending is not None or self.write_paused
        if blocked:
            if len(buffer) > MAX_COMMAND_LINE and not self.read_paused:
                self.read_paused = True
                self.transport.pause_reading()
        else:
            if self.read_paused:
                self.read_paused = False
                self.transport.resume_reading()
            if self.eof:
                # The peer is gone; a half-read message is never acked.
                if self.in_data:
                    self._reply(Reply.SERVICE_UNAVAILABLE)
                self._close()

    # -- the command state machine -------------------------------------------

    def _command(self, raw: bytearray) -> None:
        now = self.loop.time()
        self.due = now + self.command_deadline
        if self.discarding:
            self.discarding = False
            self._syntax_error()
            return
        if len(raw) > MAX_COMMAND_LINE or not raw.endswith(b"\r\n"):
            self._syntax_error()  # overlong, or a bare LF: CRLF-strict
            return
        try:
            line = raw[:-2].decode("ascii")
        except UnicodeDecodeError:
            self._syntax_error()
            return
        verb, _, argument = line.partition(" ")
        verb = verb.upper()
        argument = argument.strip()

        if verb in ("EHLO", "HELO"):
            self.greeted = True
            self.mail_from = self.rcpt_to = None
            self.transport.write(_EHLO_REPLY)
        elif verb == "NOOP":
            self._reply(Reply.OK)
        elif verb == "RSET":
            self.mail_from = self.rcpt_to = None
            self._reply(Reply.OK)
        elif verb == "QUIT":
            self._reply(Reply.CLOSING)
            self._close()
        elif verb == "MAIL":
            if not self.greeted or self.mail_from is not None:
                self._reply(Reply.BAD_SEQUENCE)
                return
            address = _parse_path(argument, "FROM")
            if address is None or (address != "" and not is_well_formed(address)):
                self.service.stats.malformed += 1
                self._reply(Reply.PARAM_SYNTAX)
            else:
                self.mail_from = address
                self._reply(Reply.OK)
        elif verb == "RCPT":
            if self.mail_from is None:
                self._reply(Reply.BAD_SEQUENCE)
                return
            if self.rcpt_to is not None:
                self._reply(TOO_MANY_RCPTS)
                return
            address = _parse_path(argument, "TO")
            if address is None or not is_well_formed(address):
                self.service.stats.malformed += 1
                self._reply(Reply.PARAM_SYNTAX)
            elif self.service.route(address) is None:
                self.service.stats.unrouted_rcpts += 1
                self._reply(Reply.MAILBOX_UNAVAILABLE)
            else:
                self.rcpt_to = address
                self._reply(Reply.OK)
        elif verb == "DATA":
            if self.mail_from is None or self.rcpt_to is None:
                self._reply(Reply.BAD_SEQUENCE)
                return
            self.in_data = True
            self.line_start = self.in_headers = True
            self.size = 0
            self.subject = ""
            self.due = now + self.data_deadline
            self._reply(Reply.START_MAIL_INPUT)
        else:
            self._syntax_error()

    def _syntax_error(self) -> None:
        self.syntax_errors += 1
        self._reply(Reply.SYNTAX_ERROR)
        if self.syntax_errors > MAX_SYNTAX_ERRORS:
            self._close()

    # -- DATA -----------------------------------------------------------------

    def _body(self, raw: bytearray, complete: bool) -> None:
        """One body line, or (``complete=False``) the head or a middle
        piece of a line longer than the line cap."""
        self.due = self.loop.time() + self.data_deadline
        line_start = self.line_start
        self.line_start = complete
        if line_start:
            if raw == b".\r\n":
                self._end_data()
                return
            if raw.startswith(b".."):
                raw = raw[1:]  # dot-unstuffing
        self.size += len(raw)
        if line_start and self.in_headers and self.size <= self.max_message_bytes:
            stripped = raw.rstrip(b"\r\n")
            if not stripped:
                self.in_headers = False
            elif stripped[:8].lower() == b"subject:":
                self.subject = stripped[8:].strip().decode("utf-8", "replace")[:200]

    def _end_data(self) -> None:
        self.in_data = False
        mail_from, rcpt_to = self.mail_from, self.rcpt_to
        self.mail_from = self.rcpt_to = None
        if self.size > self.max_message_bytes:
            self._reply(Reply.CONTENT_REJECTED)
            return
        future = self.service.try_submit(
            {
                "kind": "mail",
                "mail_from": mail_from,
                "rcpt_to": rcpt_to,
                "size": self.size,
                "client_ip": self.client_ip,
                "subject": self.subject,
            }
        )
        if future is None:
            self._reply(Reply.SERVICE_UNAVAILABLE)
            return
        self.pending = future
        self.due = self.loop.time() + self.reply_deadline
        future.add_done_callback(self._verdict)

    def _verdict(self, future: asyncio.Future) -> None:
        if future is not self.pending:
            return  # already answered 421 at the reply deadline, or closed
        self.pending = None
        self.due = self.loop.time() + self.command_deadline
        self._reply(future.result())
        self._process()

    # -- deadlines ----------------------------------------------------------------

    def _arm(self, now: float) -> None:
        self.timer = self.loop.call_at(
            min(self.due, self.session_due, now + self.tick), self._on_timer
        )

    def _on_timer(self) -> None:
        self.timer = None
        now = self.loop.time()
        if now >= self.session_due or (now >= self.due and self.pending is None):
            # Budget spent or the peer stalled: one 421 and the socket goes.
            self._reply(Reply.SERVICE_UNAVAILABLE)
            self._close()
            return
        if now >= self.due:
            # The record may still land (it is queued); the client retries
            # against the at-least-once contract.
            self.service.stats.refused_deadline += 1
            self.pending = None
            self.due = now + self.command_deadline
            self._reply(Reply.SERVICE_UNAVAILABLE)
            self._process()
            if self.closed:
                return
        self._arm(now)

    # -- output -------------------------------------------------------------------

    def _reply(self, code: int) -> None:
        self.transport.write(_REPLIES.get(code) or f"{code} \r\n".encode("ascii"))

    def _close(self) -> None:
        """Flush what was written, then close; ``connection_lost`` follows."""
        self._stop()
        self.transport.close()

    def _stop(self) -> None:
        """No more replies: a verdict still owed is dropped with the timer."""
        self.closed = True
        self.pending = None
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None


def _parse_path(argument: str, keyword: str) -> Optional[str]:
    """Extract the address from ``FROM:<a@b>`` / ``TO:<a@b>`` syntax.

    Returns the address (``""`` for the null reverse-path ``<>``), or
    ``None`` on syntax we refuse. ESMTP parameters after the path are
    tolerated and ignored."""
    prefix = keyword + ":"
    if not argument.upper().startswith(prefix):
        return None
    rest = argument[len(prefix):].strip()
    if not rest.startswith("<"):
        return None
    end = rest.find(">")
    if end < 0:
        return None
    return rest[1:end]


__all__ = ["SmtpFrontend", "SmtpSession", "DEFAULT_MAX_MESSAGE_BYTES", "MAX_COMMAND_LINE"]
