"""Self-tests of the load generator and of the serve request streams."""

import asyncio
import os
import sys
import time
from pathlib import Path

import pytest

import loadgen
import serve_bench as sb
import stats
from loadgen import Stream, Traffic

NULL_RESPONDER = Path(__file__).resolve().parent.parent / "null_responder.py"
REQUEST = (b"request=smtpd_access_policy\nprotocol_state=RCPT\n"
           b"client_address=192.0.2.1\nsender=a@example.org\n"
           b"recipient=b@example.org\n\n")
RATE = 2000.0
COUNT = 4000
STALL_S = 0.2


def _paced(tmp_path, responder_args=(), client_stall=0.0):
    """Pace COUNT requests at RATE against the null responder."""
    async def go():
        daemon = sb.Daemon([sys.executable, str(NULL_RESPONDER),
                            *responder_args], dict(os.environ),
                           str(tmp_path), str(tmp_path / "responder.log"))
        await daemon.start(sb.Placement(1, None, None, 1))
        traffic = Traffic([Stream([REQUEST] * COUNT, [sb.DUNNO] * COUNT)])
        try:
            await traffic.connect(daemon.host, daemon.port)
            if client_stall:
                asyncio.get_running_loop().call_later(
                    0.5, time.sleep, client_stall)
            result = await traffic.paced(COUNT, RATE, timeout=30)
        finally:
            traffic.close()
            code, served = await daemon.stop()
        assert (code, served, traffic.mismatches) == (0, COUNT, 0)
        return result

    result = asyncio.run(go())
    intended = result.intended()
    latencies = stats.latencies_from_intended(intended, result.received)
    lags = stats.lateness(intended, result.sent_at)
    return latencies, lags


def test_a_server_stall_shows_in_the_tail_of_the_queued_requests(tmp_path):
    latencies, lags = _paced(
        tmp_path, ("--stall-after", "1000", "--stall-ms", str(STALL_S * 1e3)))
    # Every request due during the stall waited for it: about
    # STALL_S * RATE of them, each charged from its due time.
    assert sum(x > STALL_S / 2 for x in latencies) >= STALL_S * RATE / 3
    assert stats.tail_percentile(latencies)[1] > STALL_S / 2
    assert stats.median(latencies) < STALL_S / 4
    # The generator itself kept its schedule through the stall.
    assert not stats.fell_behind(lags, sb.LAG_LIMIT_MS / 1e3)


def test_a_stalled_generator_marks_the_run_and_still_counts_the_wait(
        tmp_path):
    latencies, lags = _paced(tmp_path, client_stall=STALL_S)
    assert stats.fell_behind(lags, sb.LAG_LIMIT_MS / 1e3)
    # Timed from the due time, the requests the generator sent late are
    # late in the latency figures too; timed from the actual send they
    # would not be.
    assert stats.tail_percentile(latencies)[1] > STALL_S / 2


def test_an_unloaded_run_is_valid(tmp_path):
    latencies, lags = _paced(tmp_path)
    assert not stats.fell_behind(lags, sb.LAG_LIMIT_MS / 1e3)
    assert stats.tail_percentile(latencies)[1] < STALL_S / 2


def test_a_reconnected_traffic_carries_on_where_it_stopped(tmp_path):
    async def go():
        daemon = sb.Daemon([sys.executable, str(NULL_RESPONDER)],
                           dict(os.environ), str(tmp_path),
                           str(tmp_path / "responder.log"))
        await daemon.start(sb.Placement(1, None, None, 1))
        traffic = Traffic([Stream([REQUEST] * COUNT, [sb.DUNNO] * COUNT)])
        try:
            for phase in range(2):
                await traffic.connect(daemon.host, daemon.port)
                try:
                    if phase:
                        await traffic.saturate(COUNT // 2, timeout=30)
                    else:
                        await traffic.paced(COUNT // 2, RATE * 4, timeout=30)
                finally:
                    traffic.close()
        finally:
            code, served = await daemon.stop()
        return code, served, traffic.sent, traffic.mismatches

    assert asyncio.run(go()) == (0, COUNT, COUNT, 0)


# ----------------------------------------------------------------------
# The request streams against the in-process policy, with one connection
# running ahead of the other
# ----------------------------------------------------------------------
def _replay(streams, lead):
    """Decide every request in process; connection 0 runs ``lead`` ahead.

    Returns the number of verbs that differ from the stream's expectation.
    """
    from repro.greylist.policy import GreylistPolicy
    from repro.serve.plugins import DecisionCache, GreylistingPlugin, PluginChain
    from repro.serve.protocol import StanzaParser
    from repro.serve.server import ReplayClock

    clock = ReplayClock()
    chain = PluginChain([GreylistingPlugin(
        GreylistPolicy(clock=clock, delay=sb.DELAY), cache=DecisionCache())])
    first, second = streams
    order = [(first, i) for i in range(lead)]
    for i in range(len(second)):
        if i + lead < len(first):
            order.append((first, i + lead))
        order.append((second, i))
    mismatches = 0
    for stream, i in order:
        request = StanzaParser().feed(stream.payloads[i])[0]
        clock.observe_stamp(request.stamp)
        verb = chain.decide(request).split(" ", 1)[0].encode()
        mismatches += verb != stream.expected[i]
    return mismatches


def test_fresh_streams_hold_under_the_lockstep_lead():
    streams, warmup = sb.fresh_streams(seed=3, messages=50, connections=2,
                                       measured=3000)
    assert _replay(streams, lead=loadgen.LOCKSTEP) == 0
    tail = streams[0].expected[warmup:]
    assert tail.count(sb.DEFER) == pytest.approx(len(tail) / 2, abs=1)


def test_the_replay_check_catches_a_lead_beyond_the_guarantee():
    streams, _ = sb.fresh_streams(seed=3, messages=50, connections=2,
                                  measured=3000)
    assert _replay(streams, lead=2 * sb.RETRY_LAG) > 0


def test_known_streams_are_all_passed_known_after_warmup():
    streams, warmup = sb.known_streams(seed=3, messages=3000, connections=2,
                                       measured=1000)
    assert warmup == 3000
    assert _replay(streams, lead=loadgen.LOCKSTEP) == 0
    assert set(streams[1].expected[warmup:]) == {sb.DUNNO}
