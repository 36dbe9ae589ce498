"""Protocol-level tests of the asyncio SMTP frontend.

Focus areas: the command state machine, CRLF strictness (the live
parser's injection surface), shared address validation with the
simulated MTA, size limits, and the WAL-then-reply ordering visible as
"every 250 is in the ledger".
"""

from __future__ import annotations

import asyncio

from repro.net.addresses import MAX_LOCAL_LENGTH
from repro.serve.wal import scan_payloads
from tests.serve_harness import SmtpClient, ehlo_client, live_stack, pick_targets


def test_session_state_machine(tmp_path):
    async def scenario():
        async with live_stack(tmp_path) as (service, smtp, _web):
            sender, users = pick_targets(service)
            client = SmtpClient(smtp.port)
            greeting = await client.connect()
            assert greeting.startswith("220 ")

            # Envelope commands before EHLO / out of order: 503.
            assert await client.code(f"MAIL FROM:<{sender}>") == 503
            assert await client.code("EHLO harness") == 250
            assert await client.code(f"RCPT TO:<{users[0]}>") == 503  # no MAIL
            assert await client.code("DATA") == 503

            assert await client.code(f"MAIL FROM:<{sender}>") == 250
            assert await client.code(f"MAIL FROM:<{sender}>") == 503  # twice
            assert await client.code("RSET") == 250
            assert await client.code(f"MAIL FROM:<{sender}>") == 250
            assert await client.code(f"RCPT TO:<{users[0]}>") == 250
            # One recipient per transaction: the second gets 452.
            assert await client.code(f"RCPT TO:<{users[1]}>") == 452
            assert await client.code("NOOP") == 250
            reply = await client.command("QUIT")
            assert reply.startswith("221 ")
            client.close()

    asyncio.run(scenario())


def test_crlf_strict_and_shared_address_hardening(tmp_path):
    """Bare-LF commands are 500; addresses with control bytes, CR/LF
    splices, or overlong locals are 501 — decided by the same
    ``is_well_formed`` the simulated MTA uses."""

    async def scenario():
        async with live_stack(tmp_path) as (service, smtp, _web):
            sender, users = pick_targets(service)
            client = await ehlo_client(smtp.port)

            # Bare LF: rejected at the line reader, never parsed.
            await client.send_raw(b"MAIL FROM:<a@ext-0.livegen.example>\n")
            assert (await client.readline()).startswith("500 ")

            # Control bytes / splices inside the path: 501.
            for evil in (
                "MAIL FROM:<a\x00@ext-0.livegen.example>",
                "MAIL FROM:<a\t@ext-0.livegen.example>",
                f"MAIL FROM:<{'x' * (MAX_LOCAL_LENGTH + 1)}@ext-0.livegen.example>",
            ):
                assert await client.code(evil) == 501
            # A CR smuggled mid-line survives until the parser — and dies.
            await client.send_raw(
                b"MAIL FROM:<a@b.com\rRCPT TO:<evil@x.com>>\r\n"
            )
            assert (await client.readline()).startswith("501 ")

            # Missing angle brackets / keyword: 501.
            assert await client.code("MAIL a@b.com") == 501
            assert await client.code("MAIL FROM:a@b.com") == 501

            assert service.stats.malformed >= 4
            # The session survives all of it and still accepts real mail.
            assert await client.send_message(sender, users[0]) == 250
            await client.quit()

    asyncio.run(scenario())


def test_unknown_recipient_refused_at_rcpt(tmp_path):
    async def scenario():
        async with live_stack(tmp_path) as (service, smtp, _web):
            sender, _users = pick_targets(service)
            client = await ehlo_client(smtp.port)
            assert await client.code(f"MAIL FROM:<{sender}>") == 250
            assert await client.code("RCPT TO:<ghost@nowhere.invalid>") == 550
            assert service.stats.unrouted_rcpts == 1
            await client.quit()
            # Nothing was accepted: nothing to reconcile against.
            assert service.stats.acked == 0
            assert service.reconcile()["reconciled"]

    asyncio.run(scenario())


def test_oversized_message_rejected_not_buffered(tmp_path):
    async def scenario():
        async with live_stack(tmp_path) as (service, smtp, _web):
            smtp.max_message_bytes = 2048
            sender, users = pick_targets(service)
            client = await ehlo_client(smtp.port)
            assert await client.code(f"MAIL FROM:<{sender}>") == 250
            assert await client.code(f"RCPT TO:<{users[0]}>") == 250
            assert await client.code("DATA") == 354
            big = "y" * 100 + "\r\n"
            await client.send_raw(("Subject: big\r\n\r\n" + big * 40).encode())
            await client.send_raw(b".\r\n")
            assert (await client.readline()).startswith("552 ")
            # The refused message never reached the WAL or the ledger.
            assert service.wal.appended_seq == 0
            # Session still works; dot-stuffed bodies are unstuffed.
            for cmd, expect in (
                (f"MAIL FROM:<{sender}>", 250),
                (f"RCPT TO:<{users[0]}>", 250),
                ("DATA", 354),
            ):
                assert await client.code(cmd) == expect
            await client.send_raw(b"Subject: ok\r\n\r\n..dotted line\r\n.\r\n")
            assert (await client.readline()).startswith("250 ")
            await client.quit()
            assert service.stats.acked == 1

    asyncio.run(scenario())


def test_null_sender_envelope_reaches_engine_verdict(tmp_path):
    """``MAIL FROM:<>`` is legal SMTP; the engine's MTA-IN decides its
    fate (malformed envelope → 501 at DATA), and the refusal is WAL'd
    and accounted like any other applied record."""

    async def scenario():
        async with live_stack(tmp_path) as (service, smtp, _web):
            _sender, users = pick_targets(service)
            client = await ehlo_client(smtp.port)
            assert await client.code("MAIL FROM:<>") == 250
            assert await client.code(f"RCPT TO:<{users[0]}>") == 250
            assert await client.code("DATA") == 354
            await client.send_raw(b"Subject: bounce\r\n\r\nhi\r\n.\r\n")
            code = int((await client.readline())[:3])
            assert code in (250, 501)
            await client.quit()
            report = service.reconcile()
            assert report["reconciled"]
            assert report["applied_mail"] == 1
            if code == 501:
                assert service.stats.mta_dropped == 1

    asyncio.run(scenario())


def test_garbage_flood_disconnects(tmp_path):
    async def scenario():
        async with live_stack(tmp_path) as (_service, smtp, _web):
            client = SmtpClient(smtp.port)
            await client.connect()
            for _ in range(10):
                assert await client.code("BOGUS") == 500
            # The 11th pushes past MAX_SYNTAX_ERRORS: reply then hangup.
            await client.send_raw(b"BOGUS\r\n")
            assert (await client.readline()).startswith("500 ")
            assert await client.reader.read() == b""  # connection closed
            client.close()

    asyncio.run(scenario())


def test_every_250_is_durable_before_reply(tmp_path):
    """WAL-then-reply, observed from the client side: at the instant a
    250 arrives, the on-disk WAL already holds at least that many
    records (scanned read-only, like a concurrent observer would)."""

    async def scenario():
        async with live_stack(tmp_path, batch_max=4) as (service, smtp, _web):
            from repro.serve.wal import scan_payloads

            sender, users = pick_targets(service)
            client = await ehlo_client(smtp.port)
            acked = 0
            for i in range(10):
                code = await client.send_message(
                    sender, users[i % len(users)], subject=f"SPAM: {i}"
                )
                if code == 250:
                    acked += 1
                    records, _ = scan_payloads(service.wal.path)
                    assert len(records) >= acked
            await client.quit()
            assert acked == 10

    asyncio.run(scenario())


async def _open_data(client: SmtpClient, sender: str, rcpt: str) -> None:
    for command, expect in ((f"MAIL FROM:<{sender}>", 250), (f"RCPT TO:<{rcpt}>", 250), ("DATA", 354)):
        assert await client.code(command) == expect


def test_long_body_line_counts_toward_size(tmp_path):
    """A body line longer than any read buffer is counted, not a dropped
    session: 250 with its full size journaled under the cap, 552 past it."""

    async def scenario():
        async with live_stack(tmp_path) as (service, smtp, _web):
            smtp.max_message_bytes = 8000
            sender, users = pick_targets(service)
            client = await ehlo_client(smtp.port)
            head = b"Subject: long\r\n\r\n"
            long_line = b"z" * 5000 + b"\r\n"
            for copies, expect in ((1, "250 "), (2, "552 ")):
                await _open_data(client, sender, users[0])
                await client.send_raw(head + long_line * copies + b".\r\n")
                assert (await client.readline()).startswith(expect)
            await client.quit()
            records, _ = scan_payloads(service.wal.path)
            assert [(r["subject"], r["size"]) for r in records] == [
                ("long", len(head) + len(long_line))
            ]

    asyncio.run(scenario())


def test_overlong_command_line_gets_one_500(tmp_path):
    async def scenario():
        async with live_stack(tmp_path) as (_service, smtp, _web):
            client = await ehlo_client(smtp.port)
            await client.send_raw(b"NOOP " + b"x" * 5000 + b"\r\n")
            assert (await client.readline()).startswith("500 ")
            assert await client.code("NOOP") == 250
            await client.quit()

    asyncio.run(scenario())


def test_silent_client_gets_421_then_eof(tmp_path):
    async def scenario():
        async with live_stack(tmp_path) as (_service, smtp, _web):
            smtp.command_deadline = 0.2
            client = SmtpClient(smtp.port)
            await client.connect()
            assert (await client.readline()).startswith("421 ")
            assert await client.reader.read() == b""
            client.close()

    asyncio.run(scenario())


def test_client_stalled_mid_data_gets_421_and_no_record(tmp_path):
    async def scenario():
        async with live_stack(tmp_path) as (service, smtp, _web):
            smtp.data_deadline = 0.2
            sender, users = pick_targets(service)
            client = await ehlo_client(smtp.port)
            await _open_data(client, sender, users[0])
            await client.send_raw(b"Subject: stalled\r\n")
            assert (await client.readline()).startswith("421 ")
            assert await client.reader.read() == b""
            client.close()
            assert service.wal.appended_seq == 0

    asyncio.run(scenario())


def test_late_verdict_is_421_and_session_continues(tmp_path):
    """The worker sleeps ``engine_delay`` after each batch, so the second
    of two back-to-back messages waits past ``reply_deadline``."""

    async def scenario():
        async with live_stack(tmp_path, engine_delay=0.6) as (service, smtp, _web):
            smtp.reply_deadline = 0.25
            sender, users = pick_targets(service)
            client = await ehlo_client(smtp.port)
            assert await client.send_message(sender, users[0]) == 250
            assert await client.send_message(sender, users[1]) == 421
            assert service.stats.refused_deadline == 1
            assert await client.code("NOOP") == 250
            # The late verdict lands without a stray reply on the wire.
            await asyncio.sleep(0.6)
            assert await client.code("DATA") == 503
            await client.quit()

    asyncio.run(scenario())


def test_session_deadline_caps_a_chatty_client(tmp_path):
    async def scenario():
        async with live_stack(tmp_path) as (_service, smtp, _web):
            smtp.session_deadline = 0.4
            client = await ehlo_client(smtp.port)
            loop = asyncio.get_running_loop()
            started = loop.time()
            noops = 0
            while (reply := await client.command("NOOP")).startswith("250 "):
                noops += 1
                await asyncio.sleep(0.05)
            assert reply.startswith("421 ")
            assert noops >= 2
            assert loop.time() - started < 2.0
            assert await client.reader.read() == b""
            client.close()

    asyncio.run(scenario())
