"""Simulator tests: scheduling, links, loss, duty cycles, energy, determinism."""

import gc
import os
import struct
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from sensefs import simnet
from sensefs.devicefs import SensorState
from sensefs.simnet import (
    DutyCycle, EnergyModel, Event, EventLog, Hop, LinkModel, Network,
)
from sensefs.wire import TYPE_NAMES, Rread, Tread, encode_message, frame_head


def net_with_sinks(*eids, seed=0, **kw):
    net = Network(seed, **kw)
    received = {e: [] for e in eids}
    for eid in eids:
        net.register(eid, lambda src, frame, e=eid: received[e].append(
            (net.now, src, frame)))
    return net, received


def drain(net):
    """Run every queued event; the clock stops at the last one."""
    while net.step():
        pass


FRAME = bytes.fromhex("0B0000006E050001000000")   # any valid 11-byte frame


def test_link_model_validation():
    with pytest.raises(ValueError):
        LinkModel(latency=0)
    with pytest.raises(ValueError):
        LinkModel(loss=1.5)


def test_delivery_at_exact_latency():
    net, received = net_with_sinks("a", "b",
                                   default_link=LinkModel(latency=5))
    net.send("a", "b", FRAME)
    drain(net)
    assert received["b"] == [(5, "a", FRAME)]


def test_unknown_endpoint():
    net, _ = net_with_sinks("a")
    with pytest.raises(ValueError, match="unknown endpoint"):
        net.send("a", "nowhere", FRAME)


def test_loss_one_never_delivers():
    net, received = net_with_sinks("a", "b",
                                   default_link=LinkModel(latency=1, loss=1.0))
    for _ in range(50):
        net.send("a", "b", FRAME)
    drain(net)
    assert received["b"] == []
    assert sum(1 for l in net.log.lines if "\tdrop\t" in l) == 50


def test_loss_zero_delivers_all():
    net, received = net_with_sinks("a", "b",
                                   default_link=LinkModel(latency=1, loss=0.0))
    for _ in range(50):
        net.send("a", "b", FRAME)
    drain(net)
    assert len(received["b"]) == 50


def test_seeded_loss_trace_regression():
    # delivered-count for seed=42, loss=0.3, 1000 frames — pinned from one
    # recorded run; any RNG-consumption change must be deliberate
    net, received = net_with_sinks("a", "b", seed=42,
                                   default_link=LinkModel(latency=1, loss=0.3))
    for _ in range(1000):
        net.send("a", "b", FRAME)
    drain(net)
    delivered = len(received["b"])
    assert abs(delivered - 700) < 60        # sanity: near the expectation
    assert delivered == 705                 # regression pin


def test_jitter_within_bounds_and_seeded():
    def run(seed):
        net, received = net_with_sinks(
            "a", "b", seed=seed, default_link=LinkModel(latency=3, jitter=4))
        for _ in range(100):
            net.send("a", "b", FRAME)
        drain(net)
        return [t for t, _, _ in received["b"]]
    times = run(7)
    assert all(3 <= t <= 7 for t in times)
    assert times == run(7)
    assert times != run(8)


def test_event_ordering_same_tick():
    net = Network(0)
    order = []
    net.schedule(5, lambda: order.append("first"))
    net.schedule(5, lambda: order.append("second"))
    drain(net)
    assert order == ["first", "second"]


def test_event_cancellation():
    net = Network(0)
    fired = []
    ev = net.schedule(5, lambda: fired.append(1))
    ev.cancel()
    drain(net)
    assert fired == []


def test_frame_in_flight_is_not_tracked_by_the_collector():
    # a frame's heap entry holds only ints, strings, None and bytes, so the
    # first young collection stops tracking it and it is never promoted
    net, _ = net_with_sinks("a", "b")
    net.send("a", "b", FRAME)
    (entry,) = net._heap
    gc.collect(0)
    assert not gc.is_tracked(entry)


@pytest.mark.parametrize("frame_first", [True, False])
def test_frame_and_callback_due_at_one_tick_run_in_issue_order(frame_first):
    net = Network(0, default_link=LinkModel(latency=5))
    order = []
    net.register("a", lambda src, frame: None)
    net.register("b", lambda src, frame: order.append(("frame", net.now)))
    issue = [lambda: net.send("a", "b", FRAME),
             lambda: net.schedule(5, lambda: order.append(("callback", net.now)))]
    for fn in issue if frame_first else issue[::-1]:
        fn()
    drain(net)
    expected = [("frame", 5), ("callback", 5)]
    assert order == (expected if frame_first else expected[::-1])


def test_cancelled_event_beside_a_frame_is_skipped_by_peek_time():
    net, received = net_with_sinks("a", "b", default_link=LinkModel(latency=5))
    before = net.schedule(3, lambda: received["b"].append("early"))
    same_tick = net.schedule(5, lambda: received["b"].append("same tick"))
    net.send("a", "b", FRAME)
    after = net.schedule(5, lambda: received["b"].append("after"))
    for ev in (before, same_tick, after):
        ev.cancel()
    assert net.peek_time() == 5
    assert net.step() and received["b"] == [(5, "a", FRAME)]
    assert net.peek_time() is None
    assert not net.step()


def test_run_until_advances_clock_without_events():
    net = Network(0)
    net.run_until(100)
    assert net.now == 100
    with pytest.raises(ValueError):
        net.run_until(50)


def test_causality_no_delivery_before_min_latency():
    net, received = net_with_sinks("a", "b",
                                   default_link=LinkModel(latency=2, jitter=3))
    sends = []
    for i in range(20):
        net.schedule(i * 10, lambda: sends.append(net.now) or
                     net.send("a", "b", FRAME))
    drain(net)
    deliveries = [t for t, _, _ in received["b"]]
    for sent, got in zip(sends, deliveries):
        assert got >= sent + 2


# -- duty cycles ---------------------------------------------------------

def test_duty_cycle_awake_at():
    d = DutyCycle(on_ticks=50, off_ticks=50, phase=0)
    for t in range(0, 50):
        assert d.awake_at(t)
    for t in range(50, 100):
        assert not d.awake_at(t)
    assert d.awake_at(100)
    shifted = DutyCycle(50, 50, phase=10)
    assert shifted.awake_at(10) and not shifted.awake_at(60)


@settings(max_examples=200)
@given(st.integers(1, 20), st.integers(0, 20), st.integers(0, 50),
       st.integers(0, 500), st.integers(0, 500))
def test_awake_ticks_closed_form_matches_brute_force(on, off, phase, t0, dt):
    if on + off == 0:
        return
    d = DutyCycle(on, off, phase)
    t1 = t0 + dt
    brute = sum(1 for t in range(t0, t1) if d.awake_at(t))
    assert d.awake_ticks_between(t0, t1) == brute


def test_sleeping_radio_drops_frames():
    net = Network(0, default_link=LinkModel(latency=1))
    state = SensorState("dev", duty=DutyCycle(50, 50, phase=0))
    got = []
    net.register("dev", lambda src, frame: got.append(net.now), state=state)
    net.register("cli", lambda src, frame: None)
    # delivery at t=51 lands in the off window [50, 100)
    net.schedule(50, lambda: net.send("cli", "dev", FRAME))
    # delivery at t=101 lands in the next on window
    net.schedule(100, lambda: net.send("cli", "dev", FRAME))
    drain(net)
    assert got == [101]
    assert any("\tsleepdrop\t" in l for l in net.log.lines)


# -- energy --------------------------------------------------------------

def test_tx_rx_idle_costs_charged():
    energy = EnergyModel(tx_cost_j=0.25, rx_cost_j=0.5,
                         idle_cost_j_per_tick=0.125)
    net = Network(0, energy=energy, default_link=LinkModel(latency=1))
    a = SensorState("a", energy_j=100.0)
    b = SensorState("b", energy_j=100.0)
    net.register("a", lambda src, frame: None, state=a)
    net.register("b", lambda src, frame: None, state=b)
    net.schedule(10, lambda: net.send("a", "b", FRAME))
    drain(net)
    a.settle(net.now)
    b.settle(net.now)
    # both settle through the delivery tick (now = 11): 11 idle ticks each
    assert a.energy_j == 100.0 - 11 * 0.125 - 0.25
    assert b.energy_j == 100.0 - 11 * 0.125 - 0.5


def test_energy_shortfall_fails_frame_and_pins_zero():
    energy = EnergyModel(tx_cost_j=5.0)
    net = Network(0, energy=energy, default_link=LinkModel(latency=1))
    a = SensorState("a", energy_j=3.0)
    net.register("a", lambda src, frame: None, state=a)
    net.register("b", lambda src, frame: None)
    net.send("a", "b", FRAME)
    drain(net)
    assert a.energy_j == 0.0
    assert a.sent_frames == 0
    assert any("\ttxfail\t" in l for l in net.log.lines)


def test_energy_shortfall_on_receive_fails_frame_and_pins_zero():
    net = Network(0, energy=EnergyModel(rx_cost_j=5.0), default_link=LinkModel(latency=1))
    b = SensorState("b", energy_j=3.0)
    got = []
    net.register("a", lambda src, frame: None)
    net.register("b", lambda src, frame: got.append(frame), state=b)
    net.send("a", "b", FRAME)
    drain(net)
    assert got == []                    # not handed to its handler
    assert b.energy_j == 0.0
    assert b.received_frames == 0
    assert any("\trxfail\t" in l for l in net.log.lines)


def test_energy_conservation_randomized():
    # closed-form accounting matches incremental charging exactly when all
    # costs are binary-representable
    energy = EnergyModel(tx_cost_j=0.25, rx_cost_j=0.25,
                         idle_cost_j_per_tick=1.0 / 128)
    net = Network(3, energy=energy, default_link=LinkModel(latency=1, loss=0.2))
    states = {}
    for eid in ("a", "b"):
        states[eid] = SensorState(eid, energy_j=1024.0,
                                  duty=DutyCycle(30, 70, phase=0))
        net.register(eid, lambda src, frame: None, state=states[eid])
    import random
    rng = random.Random(99)
    for _ in range(500):
        t = rng.randrange(0, 5000)
        src, dst = rng.sample(["a", "b"], 2)
        net.schedule(t, lambda s=src, d=dst: net.send(s, d, FRAME))
    drain(net)
    for eid, state in states.items():
        state.settle(net.now)
        expected = (1024.0
                    - 0.25 * state.sent_frames
                    - 0.25 * state.received_frames
                    - (1.0 / 128) * state.awake_ticks)
        assert state.energy_j == expected
        # and the awake-tick count matches a brute-force scan
        brute = sum(1 for t in range(0, net.now)
                    if DutyCycle(30, 70, 0).awake_at(t))
        assert state.awake_ticks == brute


# -- determinism ----------------------------------------------------------

def run_trace(seed):
    net, _ = net_with_sinks("a", "b", seed=seed,
                            default_link=LinkModel(latency=2, jitter=3,
                                                   loss=0.25))
    for i in range(200):
        net.schedule(i, lambda: net.send("a", "b", FRAME))
    drain(net)
    return net.log.text()


def test_identical_seeds_identical_logs():
    assert run_trace(123) == run_trace(123)


def test_different_seeds_differ():
    assert run_trace(123) != run_trace(124)


# -- the frame path: each event of a frame names it --------------------------

TREAD = encode_message(Tread(7, 1, 0, 100))


def frame_path(frame, link=None, energy=None, a=None, b=None):
    """(event, detail) of each log line of one frame sent from a to b."""
    net = Network(0, energy=energy, default_link=link or LinkModel(latency=1))
    net.register("a", lambda src, frame: None, state=a)
    net.register("b", lambda src, frame: None, state=b)
    net.send("a", "b", frame)
    drain(net)
    return [(line.split("\t")[1], line.split("\t")[4]) for line in net.log.lines]


@pytest.mark.parametrize("frame, detail", [(TREAD, "Tread tag=7"), (b"\x03\x00", "short")])
@pytest.mark.parametrize("events, setup", [
    (["send", "deliver"], lambda: {}),
    (["send", "drop"], lambda: {"link": LinkModel(latency=1, loss=1.0)}),
    # b is awake at tick 0 only of every 6: the delivery at tick 1 finds it asleep
    (["send", "sleepdrop"], lambda: {"b": SensorState("b", duty=DutyCycle(1, 5))}),
    (["txfail"], lambda: {"energy": EnergyModel(tx_cost_j=5.0),
                          "a": SensorState("a", energy_j=3.0)}),
    (["send", "rxfail"], lambda: {"energy": EnergyModel(rx_cost_j=5.0),
                                  "b": SensorState("b", energy_j=3.0)}),
])
def test_each_event_of_a_frame_logs_its_name_and_tag(frame, detail, events, setup):
    assert frame_path(frame, **setup()) == [(event, detail) for event in events]


def test_a_delivered_frame_reads_its_header_once(monkeypatch):
    # the send reads the header, and the frame's heap entry carries it to
    # the delivery's log line
    reads = []

    def counted(frame):
        reads.append(frame)
        return frame_head(frame)
    monkeypatch.setattr(simnet, "frame_head", counted)
    net, received = net_with_sinks("a", "b")
    net.send("a", "b", TREAD)
    drain(net)
    assert received["b"] == [(2, "a", TREAD)]
    assert reads == [TREAD]
    assert list(net.log.lines) == ["0\tsend\ta\tb\tTread tag=7", "2\tdeliver\ta\tb\tTread tag=7"]


# -- the packed event log against the string log it replaced -----------------

def reference_summary(frame):
    """The per-send formatter of the string log: `Name tag=N` from a frame."""
    if len(frame) < 7:
        return "short"
    _, code, tag = struct.unpack_from("<IBH", frame)
    return "%s tag=%d" % (TYPE_NAMES.get(code) or "?%d" % code, tag)


def logged(detail):
    """A detail as Network hands it to the log: a frame as its frame_head."""
    return frame_head(detail) if isinstance(detail, bytes) else detail


class ReferenceLog:
    """The string log: one formatted line kept per event."""

    def __init__(self):
        self.lines = []

    def add(self, tick, event, src, dst, detail=""):
        if isinstance(detail, bytes):
            detail = reference_summary(detail)
        elif isinstance(detail, Hop):
            fmt, tag, fid, path = detail
            detail = fmt % (tag, fid, path)
        self.lines.append("%d\t%s\t%s\t%s\t%s" % (tick, event, src, dst, detail))

    def text(self):
        return "\n".join(self.lines) + ("\n" if self.lines else "")


names = st.sampled_from(["send", "deliver", "drop", "mux-relay", "a", "b", "c.head", ""])
frames = st.builds(
    lambda code, tag, body: struct.pack("<IBH", 7 + len(body), code, tag) + body,
    st.sampled_from(sorted(TYPE_NAMES)) | st.integers(0, 255),
    st.integers(0, 0xFFFF), st.binary(max_size=12))
hops = st.builds(Hop,
                st.sampled_from(["fwd tag=%d fid=%d path=%s", "tag=%d fid=%d path=%s cached=1"]),
                st.integers(0, 0xFFFF), st.integers(0, 2**32 - 1), st.text(max_size=12))
details = (frames | st.binary(max_size=6) | hops
           | st.sampled_from(["", "short", "tag=7 fid=3 path=s1/reading cached=1"])
           | st.text(max_size=20) | st.none())
records = st.lists(st.tuples(st.integers(0, 2**40), names, names, names, details),
                   max_size=60)


@settings(max_examples=200, deadline=None)
@given(records, st.data())
def test_packed_log_reads_back_as_the_string_log(recs, data):
    log, ref = EventLog(), ReferenceLog()
    for tick, event, src, dst, detail in recs:
        if detail is None:                  # the default detail
            log.add(tick, event, src, dst)
            ref.add(tick, event, src, dst)
        else:
            log.add(tick, event, src, dst, logged(detail))
            ref.add(tick, event, src, dst, detail)
    lines, want = log.lines, ref.lines
    n = len(want)
    assert len(lines) == n
    assert list(lines) == want
    for i in range(-n, n):
        assert lines[i] == want[i]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            lines[i]
    start, stop = data.draw(st.integers(-n - 2, n + 2)), data.draw(st.integers(-n - 2, n + 2))
    step = data.draw(st.sampled_from([None, 1, 2, 3, -1, -2]))
    assert lines[start:stop:step] == want[start:stop:step]
    assert lines[start:] == want[start:]
    assert log.text() == ref.text()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "events.log")
        log.write(path)
        with open(path, "rb") as fh:
            assert fh.read() == ref.text().encode()


def test_log_reads_back_across_its_blocks():
    # two full 64 KiB blocks of records and part of a third: every line,
    # slice and the text read back as the string log's
    log, ref = EventLog(), ReferenceLog()
    for i in range(2 * 4096 + 17):
        detail = FRAME if i % 2 else "x%d" % (i % 5)
        log.add(i, "send", "a", "b%d" % (i % 3), logged(detail))
        ref.add(i, "send", "a", "b%d" % (i % 3), detail)
    lines, want = log.lines, ref.lines
    assert len(lines) == len(want) == 8209
    for i in (0, 4095, 4096, 8191, 8192, -1):
        assert lines[i] == want[i]
    assert lines[4000:4200] == want[4000:4200]
    assert lines[::-997] == want[::-997]
    assert log.text() == ref.text()


def test_log_iteration_leaves_adds_open():
    log = EventLog()
    log.add(1, "send", "a", "b", frame_head(FRAME))
    it = iter(log.lines)
    assert next(it) == "1\tsend\ta\tb\tTclunk tag=5"
    log.add(2, "deliver", "a", "b", frame_head(FRAME))
    assert len(log.lines) == 2


def test_log_keeps_a_record_in_a_few_bytes():
    pairs = [("client", "c%d.head" % i) for i in range(10)] + \
            [("c%d.head" % i, "s%d" % j) for i in range(10) for j in range(30)]
    frames = [encode_message(Tread(tag, tag % 100, 0, 8169)) for tag in range(1, 500)] + \
             [encode_message(Rread(tag, b"20.900000\n")) for tag in range(1, 500)]
    heads = [frame_head(frame) for frame in frames]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = EventLog()
        for i in range(50_000):
            src, dst = pairs[i % len(pairs)]
            head = heads[i % len(heads)]
            log.add(i, "send", src, dst, head)
            log.add(i + 2, "deliver", src, dst, head)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(log.lines) == 100_000
    assert used <= 32 * len(log.lines)


def test_hop_details_keep_no_text_per_tag_or_fid():
    # a relay hop names a new tag and fid nearly every time; its record
    # keeps them as numbers, so the log grows by a few bytes per hop
    # however many tags and fids it has seen
    paths = ["s%d/reading" % j for j in range(30)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = EventLog()
        for i in range(50_000):
            log.add(i, "mux-route", "client", "c.head",
                    Hop("fwd tag=%d fid=%d path=%s", i % 0xFFFF, i, paths[i % 30]))
            log.add(i + 2, "mux-relay", "c.head", "client",
                    Hop("tag=%d fid=%d path=%s cached=1", i % 0xFFFF, i, paths[i % 30]))
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(log.lines) == 100_000
    assert used <= 32 * len(log.lines)
    assert log.lines[-1] == \
        "50001\tmux-relay\tc.head\tclient\ttag=49999 fid=49999 path=s19/reading cached=1"
    hop = Hop("tag=%d fid=%d path=%s cached=1", 7, 3, "s1/reading")
    assert str(hop) == "tag=7 fid=3 path=s1/reading cached=1"
    assert hop.endswith("cached=1") and not hop.endswith("cached=0")
