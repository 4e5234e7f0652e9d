"""Cluster-head tests: discovery, relaying, aggregation, groups, cache."""

import gc
import re

import pytest

from sensefs import muxfs, wire
from sensefs.client import ClientError, FileClient, read_all
from sensefs.devicefs import FILE_ORDER, MEM_SIZE, parse_infos
from sensefs.muxfs import MAX_PENDING, AggregateSpec, GroupSpec, MuxConfig, Multiplexer
from sensefs.simnet import DutyCycle, Event, LinkModel, Network
from sensefs.wire import IOUNIT, OREAD, ORDWR, OWRITE, Rerror, Rread, Tclunk, Tread, Twrite

from sensefs.scenario import load_scenario_file

from conftest import (FACTORY, USERS, ZOO, build_cluster, device_fid_files, temp_sensor,
                      make_client, open_fid)


def mux_ref(mux):
    return ("net", mux.eid)


def tread(fid, offset=0, count=IOUNIT):
    return lambda t: Tread(t, fid, offset, count)


def tclunk(fid):
    return lambda t: Tclunk(t, fid)


def sends(net, since):
    """(src, dst, message type) of each frame sent after log line since."""
    return [(src, dst, detail.split()[0]) for _, event, src, dst, detail in
            (line.split("\t") for line in net.log.lines[since:]) if event == "send"]


# -- discovery -------------------------------------------------------------

def test_discovery_finds_all_members():
    net, mux, states = build_cluster([temp_sensor(i, 20.0 + i)
                                      for i in range(1, 8)])
    client = make_client(net)
    names = [s.name for s in client.ls(mux_ref(mux), "sensors")]
    assert names == ["s%d" % i for i in range(1, 8)]


def test_discovery_member_order_is_stable():
    # listing order follows the configured member order, not reply order
    net, mux, states = build_cluster(
        [temp_sensor(1, 1.0), temp_sensor(2, 2.0), temp_sensor(3, 3.0)],
        latency=2)
    net.set_link(mux.eid, "s1", LinkModel(latency=9), both_ways=True)
    client = make_client(net)
    names = [s.name for s in client.ls(mux_ref(mux), "sensors")]
    assert names == ["s1", "s2", "s3"]


def test_discovery_excludes_silent_device_then_reprobe_recovers():
    net, mux, states = build_cluster(
        [temp_sensor(1, 1.0), temp_sensor(2, 2.0)],
        mux_cfg=MuxConfig(reprobe_ticks=100), warmup=0)
    states["s2"].power_override = "asleep"
    net.run_until(60)
    client = make_client(net)
    names = [s.name for s in client.ls(mux_ref(mux), "sensors")]
    assert names == ["s1"]
    net.run_until(360)
    # while s2 sleeps, the head probes it once per period: one Tattach
    assert [int(line.split("\t")[0]) for line in net.log.lines
            if "\tsend\tc.head\ts2\tTattach" in line] == [0, 100, 200, 300]
    states["s2"].power_override = None
    net.run_until(600)        # the next re-probe finds it
    names = [s.name for s in client.ls(mux_ref(mux), "sensors")]
    assert names == ["s1", "s2"]
    net.run_until(net.now + 4)      # the ls's Rclunk, not waited for, lands
    # every member found: the head sends nothing more and schedules nothing
    since = len(net.log.lines)
    net.run_until(net.now + 1000)
    assert not [line for line in net.log.lines[since:]
                if line.split("\t")[1] == "send" and line.split("\t")[2] == mux.eid]
    assert net.peek_time() is None


@pytest.mark.parametrize("scenario", [ZOO, FACTORY], ids=["zoo", "factory"])
def test_shipped_scenario_is_silent_once_every_member_is_found(scenario):
    # as shipped (re-probe period 100): info is read once, at discovery, so
    # an idle network sends no frame and spends no energy
    sim = load_scenario_file(scenario)
    assert all(mux.cfg.reprobe_ticks == 100 for mux in sim.muxes.values())
    sim.start()
    since, t0 = len(sim.net.log.lines), sim.net.now
    energy = [state.energy_j for state in sim.states.values()]
    sim.net.run_until(t0 + 10000)
    assert not [line for line in sim.net.log.lines[since:] if line.split("\t")[1] == "send"]
    assert [state.energy_j for state in sim.states.values()] == energy
    assert sim.net.peek_time() is None


def test_probe_in_flight_is_not_restarted():
    # a probe round trip (400 ticks) spans four reprobe periods; a member
    # whose probe is still pending is skipped, so the root its walk needs
    # stays attached and the member is discovered
    net, mux, _ = build_cluster([temp_sensor(1, 1.0)], latency=200, warmup=0,
                                mux_cfg=MuxConfig(reprobe_ticks=100, discover_timeout=1000))
    attaches = []

    def sample():
        attaches.append(sum(1 for line in net.log.lines
                            if "\tsend\tc.head\ts1\tTattach" in line) -
                        sum(1 for line in net.log.lines
                            if "\tdeliver\ts1\tc.head\tRattach" in line))
        net.schedule(1, sample)

    net.schedule(0, sample)
    net.run_until(6000)
    assert "\tmux-discovered\tc.head\ts1\t" in net.log.text()
    assert max(attaches) == 1


def test_member_slowed_after_the_head_was_built_is_discovered():
    # the head's info read waits discover_timeout, like its walk and open,
    # not a timeout taken from the link latencies when the head was built
    net, mux, _ = build_cluster([temp_sensor(1, 1.0)], latency=1, warmup=0,
                                mux_cfg=MuxConfig(reprobe_ticks=100, discover_timeout=1000))
    net.set_link(mux.eid, "s1", LinkModel(latency=200), both_ways=True)
    net.run_until(4000)                    # discovery: eight 400-tick round trips
    assert "\tmux-discovered\tc.head\ts1\t" in net.log.text()
    assert "\tmux-excluded\t" not in net.log.text()


def test_reprobe_after_a_lost_info_read_clunks_the_kept_fid():
    # s1's first answer to an info read is lost: s1 is excluded, and the
    # probe clunks both its fids as it gives up; the next probe discovers
    # s1 and clunks its own, so s1 ends up holding no fid of the head's
    net, mux, _ = build_cluster([temp_sensor(1, 1.0)], latency=1, warmup=0,
                                mux_cfg=MuxConfig(reprobe_ticks=100))
    send, lost = net.send, []

    def lose_first_rread(src, dst, frame):
        if src == "s1" and not lost and isinstance(wire.decode_message(frame), Rread):
            lost.append(frame)
            return
        send(src, dst, frame)

    net.send = lose_first_rread
    net.run_until(150)
    log = net.log.text()
    assert "\tmux-excluded\tc.head\ts1\tinfo unreadable" in log
    assert "\tmux-discovered\tc.head\ts1\t" in log
    assert device_fid_files(net, "s1") == []


# every reply of a probe but its clunks': one Rattach and one Rwalk, the
# Ropen of info and of the root, the Rread of info and the two of the root
@pytest.mark.parametrize("kind,nth", [
    (wire.Rattach, 1), (wire.Rwalk, 1), (wire.Ropen, 1), (wire.Ropen, 2),
    (Rread, 1), (Rread, 2), (Rread, 3),
], ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
def test_lost_discovery_reply_leaves_the_member_no_fid(kind, nth):
    # the nth reply of that kind from s1 is lost: the probe gives up and
    # clunks every fid s1 may have bound for it, the re-probe discovers s1
    # and clunks its own; a probe that read info keeps it, so only a reply
    # lost on the way to info (its walk, open or read) walks to it again
    net, mux, states = build_cluster([temp_sensor(1, 1.0)], latency=1, warmup=0,
                                mux_cfg=MuxConfig(reprobe_ticks=100))
    send, seen, lost = net.send, [], []

    def lose_nth(src, dst, frame):
        if src == "s1" and isinstance(wire.decode_message(frame), kind):
            seen.append(frame)
            if len(seen) == nth:
                lost.append(frame)
                return
        send(src, dst, frame)

    net.send = lose_nth
    net.run_until(150)
    assert len(lost) == 1
    assert net.log.text().count("\tmux-discovered\tc.head\ts1\t") == 1
    assert device_fid_files(net, "s1") == []
    info_lost = (kind, nth) in ((wire.Rwalk, 1), (wire.Ropen, 1), (Rread, 1))
    assert sends(net, 0).count((mux.eid, "s1", "Twalk")) == 1 + info_lost
    assert mux.links["s1"].info == states["s1"].info_text()


def test_shared_config_is_left_unchanged():
    net = Network(0)
    net.set_link("h1", "s1", LinkModel(latency=1))
    net.set_link("h2", "s2", LinkModel(latency=10))
    cfg = MuxConfig()
    Multiplexer(net, "h1", "c1", ["s1"], USERS, cfg)
    Multiplexer(net, "h2", "c2", ["s2"], USERS, cfg)
    assert cfg == MuxConfig()


def test_empty_cluster_is_valid():
    net, mux, _ = build_cluster([], aggregates=[AggregateSpec("avgT", "avg")])
    client = make_client(net)
    assert client.ls(mux_ref(mux), "sensors") == []
    with pytest.raises(ClientError, match="no members"):
        client.read(mux_ref(mux), "aggrData/avgT")


# -- relaying ---------------------------------------------------------------

def test_relay_transparency():
    net, mux, states = build_cluster([temp_sensor(1, 20.9)])
    client = make_client(net)
    via_mux = client.read(mux_ref(mux), "sensors/s1/reading")
    direct = make_client(net, name="direct").read(("net", "s1"), "reading")
    assert via_mux == direct == b"20.900000\n"


def test_relay_write_reaches_device():
    net, mux, states = build_cluster([temp_sensor(1, 20.9)])
    client = make_client(net)
    client.write(mux_ref(mux), "sensors/s1/control", b"2.5")
    assert states["s1"].cal_offset == 2.5
    assert client.read(mux_ref(mux), "sensors/s1/reading") == b"23.400000\n"


def test_relay_device_error_passes_through():
    net, mux, _ = build_cluster([temp_sensor(1, 1.0)])
    client = make_client(net)
    with pytest.raises(ClientError, match="bad control command"):
        client.write(mux_ref(mux), "sensors/s1/control", b"explode")


def test_relay_read_device_error_passes_through():
    # control is 0644 on the device but has no read handler: the head
    # relays the read and hands back the device's Rerror
    net, mux, _ = build_cluster([temp_sensor(1, 1.0)])
    client = make_client(net)
    with pytest.raises(ClientError, match="not readable"):
        client.read(mux_ref(mux), "sensors/s1/control")
    assert "\tsend\ts1\tc.head\tRerror" in net.log.text()


def test_lost_rattach_retry_takes_fresh_fid():
    net, mux, _ = build_cluster([temp_sensor(1, 20.9)], latency=1,
                                mux_cfg=MuxConfig(reprobe_ticks=10 ** 6))
    client = make_client(net)
    net.set_link(mux.eid, client.eid, LinkModel(latency=1, loss=1.0))
    with pytest.raises(ClientError, match="timeout"):
        client.read(mux_ref(mux), "sensors/s1/reading")
    assert client._conns[mux_ref(mux)].pending == {}   # the timed-out tag is gone
    net.set_link(mux.eid, client.eid, LinkModel(latency=1))
    # fid 0 stays bound on the head; the retried attach must not reuse it
    assert client.read(mux_ref(mux), "sensors/s1/reading") == b"20.900000\n"


def test_mem_bound_error_via_mux():
    net, mux, _ = build_cluster([temp_sensor(1, 1.0)])
    client = make_client(net)
    fid = open_fid(client, mux_ref(mux), "sensors/s1/mem", OWRITE)
    with pytest.raises(ClientError, match="address out of range"):
        client.call(mux_ref(mux), lambda t: Twrite(t, fid, 250, b"x" * 10))
    # a relayed read past the end gets the bytes up to it
    fid = open_fid(client, mux_ref(mux), "sensors/s1/mem")
    assert client.call(mux_ref(mux), tread(fid, 250, 10)).data == bytes(6)
    assert client.read(mux_ref(mux), "sensors/s1/mem") == bytes(MEM_SIZE)


@pytest.mark.parametrize("path, mode, build, error", [
    ("sensors/s1/reading", OREAD, lambda fid: lambda t: Twrite(t, fid, 0, b"x"),
     "fid not open for writing"),
    ("sensors/s1/control", OWRITE, tread, "fid not open for reading"),
])
def test_a_relayed_request_the_open_mode_forbids_sends_no_device_frame(path, mode, build, error):
    # the head refuses it as fscore does, and a refused write leaves the
    # member's cached copies as fresh as they were
    net, mux, _ = build_cluster([temp_sensor(1, 1.0)], latency=1,
                                mux_cfg=MuxConfig(reprobe_ticks=10 ** 6))
    client = make_client(net)
    fid = open_fid(client, mux_ref(mux), path, mode)
    since, written = len(net.log.lines), mux.links["s1"].written
    with pytest.raises(ClientError, match=error):
        client.call(mux_ref(mux), build(fid))
    assert [f for f in sends(net, since) if f[0] == mux.eid and f[1] == "s1"] == []
    assert mux.links["s1"].written == written


def test_mirrored_stat_matches_the_device():
    net, mux, _ = build_cluster([temp_sensor(1, 1.0)])
    client = make_client(net)
    for name in FILE_ORDER:
        at_head = client.stat(mux_ref(mux), "sensors/s1/" + name)
        at_device = client.stat(("net", "s1"), name)
        assert (at_head.name, at_head.mode, at_head.length, at_head.owner, at_head.group) \
            == (at_device.name, at_device.mode, at_device.length, at_device.owner,
                at_device.group)
    assert client.stat(mux_ref(mux), "sensors/s1/mem").length == MEM_SIZE


def test_outstanding_requests_fast_overtakes_slow():
    net, mux, _ = build_cluster([temp_sensor(1, 1.0), temp_sensor(3, 3.0)],
                                latency=1,
                                mux_cfg=MuxConfig(fallback_ticks=2000))
    net.set_link(mux.eid, "s1", LinkModel(latency=200), both_ways=True)
    client = make_client(net)
    f1 = open_fid(client, mux_ref(mux), "sensors/s1/reading")
    f3 = open_fid(client, mux_ref(mux), "sensors/s3/reading")
    finish = {}
    client.submit(mux_ref(mux), tread(f1, 0, 64), lambda r: finish.setdefault("s1", net.now))
    client.submit(mux_ref(mux), tread(f3, 0, 64), lambda r: finish.setdefault("s3", net.now))
    net.run_until(net.now + 3000)
    assert finish["s3"] < finish["s1"]
    assert finish["s1"] - finish["s3"] >= 150


def test_local_requests_unaffected_by_slow_device():
    net, mux, _ = build_cluster([temp_sensor(1, 1.0)], latency=1,
                                mux_cfg=MuxConfig(fallback_ticks=2000))
    net.set_link(mux.eid, "s1", LinkModel(latency=200), both_ways=True)
    client = make_client(net)
    f1 = open_fid(client, mux_ref(mux), "sensors/s1/reading")
    client.submit(mux_ref(mux), tread(f1, 0, 64), lambda r: None)
    t0 = net.now
    st = client.stat(mux_ref(mux), "ctl")      # local node, independent
    assert st.name == "ctl"
    assert net.now - t0 <= 10                  # a few 1-tick round trips


def test_fid_isolation_two_clients_same_file():
    net, mux, _ = build_cluster([temp_sensor(1, 5.0)])
    c1 = make_client(net, name="c1")
    c2 = make_client(net, name="c2")
    f1 = open_fid(c1, mux_ref(mux), "sensors/s1/reading")
    f2 = open_fid(c2, mux_ref(mux), "sensors/s1/reading")
    assert c1.call(mux_ref(mux), tread(f1)).data == b"5.000000\n"
    assert c2.call(mux_ref(mux), tread(f2)).data == b"5.000000\n"
    c1.call(mux_ref(mux), tclunk(f1))                            # clunking one...
    assert c2.call(mux_ref(mux), tread(f2)).data == b"5.000000\n"  # ...never disturbs the other


def test_device_side_fids_distinct():
    net, mux, _ = build_cluster([temp_sensor(1, 5.0)])
    client = make_client(net)
    f1 = open_fid(client, mux_ref(mux), "sensors/s1/reading")
    f2 = open_fid(client, mux_ref(mux), "sensors/s1/reading")
    client.call(mux_ref(mux), tread(f1))
    client.call(mux_ref(mux), tread(f2))
    session = mux.sessions[client.eid]
    dfids = [mux.relayed.get(session.fids[fid]) for fid in (f1, f2)]
    assert None not in dfids and dfids[0] != dfids[1]


def device_fids(net, dev):
    """Fids bound on device dev, over all its sessions."""
    server = net.handlers[dev].__self__.server
    return sum(len(sess.fids) for sess in server.sessions.values())


def test_concurrent_first_reads_share_one_device_fid():
    # five reads race on a fresh relayed fid: one attach, walk and open
    # serve them all, and the clunk leaves only the admin root bound on
    # the device
    net, mux, _ = build_cluster([temp_sensor(1, 20.9)], latency=1,
                                mux_cfg=MuxConfig(reprobe_ticks=10 ** 6))
    net.set_link(mux.eid, "s1", LinkModel(latency=50), both_ways=True)
    client = make_client(net)
    fid = open_fid(client, mux_ref(mux), "sensors/s1/reading")
    replies = []
    for _ in range(5):
        client.submit(mux_ref(mux), tread(fid, 0, 64), replies.append)
    net.run_until(net.now + 1000)
    assert [r.data for r in replies] == [b"20.900000\n"] * 5
    assert net.log.text().count("\tsend\tc.head\ts1\tTwalk") == 2   # info, reading
    client.call(mux_ref(mux), tclunk(fid))
    net.run_until(net.now + 200)
    assert device_fids(net, "s1") == 1
    assert mux.relayed == {}


def test_clunk_while_opening_clunks_the_device_fid():
    net, mux, _ = build_cluster([temp_sensor(1, 20.9)], latency=1,
                                mux_cfg=MuxConfig(reprobe_ticks=10 ** 6))
    net.set_link(mux.eid, "s1", LinkModel(latency=50), both_ways=True)
    client = make_client(net)
    fid = open_fid(client, mux_ref(mux), "sensors/s1/reading")
    client.submit(mux_ref(mux), tread(fid, 0, 64), lambda r: None)
    net.run_until(net.now + 10)            # the device fid is still opening
    client.call(mux_ref(mux), tclunk(fid))
    net.run_until(net.now + 1000)
    assert mux.relayed == {}
    assert device_fids(net, "s1") == 1        # the admin root


def test_lost_ropen_of_a_relayed_open_clunks_the_device_fid():
    # s1's Ropen for a relayed client fid is lost: the head gives the open
    # up after fallback_ticks and clunks the device fid it walked and
    # opened, so s1 is left holding what it held before
    net, mux, _ = build_cluster([temp_sensor(1, 20.9)], latency=1,
                                mux_cfg=MuxConfig(fallback_ticks=50, reprobe_ticks=10 ** 6))
    client = make_client(net)
    assert client.read(mux_ref(mux), "sensors/s1/reading") == b"20.900000\n"
    net.run_until(net.now + 10)            # the head's device clunk lands
    baseline = device_fids(net, "s1")      # the admin root
    send, lost = net.send, []

    def lose_ropen(src, dst, frame):
        if src == "s1" and not lost and isinstance(wire.decode_message(frame), wire.Ropen):
            lost.append(frame)
            return
        send(src, dst, frame)

    net.send = lose_ropen
    since = len(net.log.lines)
    # the read falls back to the copy cached within the ttl; the Timeout,
    # raised out of once and suppressed there, leaves no reference cycle
    # for the collector to find
    gc.collect()
    gc.disable()
    try:
        assert client.read(mux_ref(mux), "sensors/s1/reading") == b"20.900000\n"
        net.run_until(net.now + 10)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert lost
    sent = [line.split("\t")[4].split()[0] for line in net.log.lines[since:]
            if line.split("\t")[1:4] == ["send", mux.eid, "s1"]]
    assert sent == ["Twalk", "Topen", "Tclunk"]
    assert device_fids(net, "s1") == baseline


def test_pending_table_bound():
    net, mux, _ = build_cluster([temp_sensor(1, 1.0)], latency=1,
                                mux_cfg=MuxConfig(fallback_ticks=5000))
    net.set_link(mux.eid, "s1", LinkModel(latency=1000), both_ways=True)
    client = make_client(net)
    fid = open_fid(client, mux_ref(mux), "sensors/s1/reading")
    client.call(mux_ref(mux), tread(fid))   # opens the device fid, so each read below is a Tread
    replies = []
    for _ in range(40):
        client.submit(mux_ref(mux), tread(fid, 0, 16), replies.append)
    net.run_until(net.now + 40)
    busy = [r for r in replies if isinstance(r, Rerror) and r.ename == "busy"]
    assert busy, "overflowing the pending table must surface as busy"


def test_failed_step_with_nobody_waiting_logs_mux_error():
    net, mux, _ = build_cluster([temp_sensor(1, 1.0)], latency=1,
                                mux_cfg=MuxConfig(fallback_ticks=5000))
    net.set_link(mux.eid, "s1", LinkModel(latency=1000), both_ways=True)
    client = make_client(net)
    fid = open_fid(client, mux_ref(mux), "sensors/s1/reading")
    client.call(mux_ref(mux), tread(fid))   # opens the device fid, so each read below is a Tread
    for _ in range(40):
        client.submit(mux_ref(mux), tread(fid, 0, 16), lambda r: None)
    net.run_until(net.now + 5)
    assert len(mux.links["s1"].pending) == MAX_PENDING
    mux.set_report_rate(["s1"], 5)       # the poll step finds the table full
    net.run_until(net.now + 10)
    assert "\tmux-error\tc.head\t\tbusy" in net.log.text()


# -- cache -----------------------------------------------------------------

def sleeping_read(ttl, age):
    """Warm the (s1, reading) cache, force the device asleep, age the entry,
    then read through the mux.  Returns (payload or ClientError, log text)."""
    net, mux, states = build_cluster(
        [temp_sensor(1, 20.9)], latency=1,
        mux_cfg=MuxConfig(ttl=ttl, fallback_ticks=5, reprobe_ticks=10 ** 6))
    client = make_client(net)
    assert client.read(mux_ref(mux), "sensors/s1/reading") == b"20.900000\n"
    stamp = mux.links["s1"].cache["reading"][1]
    states["s1"].set_power(net.now, "asleep")
    net.run_until(stamp + age)
    try:
        return client.read(mux_ref(mux), "sensors/s1/reading"), net.log.text()
    except ClientError as e:
        return e, net.log.text()


def test_cache_serves_sleeping_sensor_within_ttl():
    result, log = sleeping_read(ttl=30, age=10)
    assert result == b"20.900000\n"
    assert "cached=1" in log


def test_cache_expired_yields_unreachable():
    result, log = sleeping_read(ttl=30, age=40)
    assert isinstance(result, ClientError)
    assert result.ename == "device unreachable"


def test_write_to_sleeping_sensor_unreachable():
    net, mux, states = build_cluster(
        [temp_sensor(1, 1.0)], latency=1, mux_cfg=MuxConfig(fallback_ticks=5))
    states["s1"].set_power(net.now, "asleep")
    client = make_client(net)
    with pytest.raises(ClientError, match="device unreachable"):
        client.write(mux_ref(mux), "sensors/s1/control", b"1.0")


def changing_sensor():
    """A one-sensor cluster whose reading is value[0], with a short
    fallback; returns (net, mux, states, client, value)."""
    value = [20.9]
    net, mux, states = build_cluster(
        [temp_sensor(1, None, raw_source=lambda t: value[0])], latency=1,
        mux_cfg=MuxConfig(ttl=30, fallback_ticks=5, reprobe_ticks=10 ** 6))
    return net, mux, states, make_client(net), value


def test_offset_zero_reread_after_a_cache_fallback_asks_the_device():
    net, mux, states, client, value = changing_sensor()
    ref = mux_ref(mux)
    assert client.read(ref, "sensors/s1/reading") == b"20.900000\n"
    fid = open_fid(client, ref, "sensors/s1/reading")
    states["s1"].set_power(net.now, "asleep")      # the device open is lost
    assert client._one(ref, read_all(fid)) == b"20.900000\n"
    assert mux.relayed == {}                        # no device fid behind fid
    states["s1"].set_power(net.now, "awake")
    value[0] = 25.9
    net.run_until(net.now + 500)
    since = len(net.log.lines)
    assert client._one(ref, read_all(fid)) == b"25.900000\n"
    assert "Tread" in member_frames(net, mux, since, ("s1",))


def test_a_relayed_write_ends_the_snapshot_a_cache_fallback_left():
    # as a local write resets its fid's snapshot (fscore's written), a
    # relayed one does: a later offset on the fid then asks the device
    net, mux, states = build_cluster(
        [temp_sensor(1, 1.0)], latency=1,
        mux_cfg=MuxConfig(ttl=1000, fallback_ticks=5, reprobe_ticks=10 ** 6))
    client, ref = make_client(net), mux_ref(mux)
    assert client.read(ref, "sensors/s1/registers").startswith(b"r0 0000\n")
    fid = open_fid(client, ref, "sensors/s1/registers", ORDWR)
    states["s1"].set_power(net.now, "asleep")
    assert client.call(ref, tread(fid)).data.startswith(b"r0 0000\n")     # the cached copy
    states["s1"].set_power(net.now, "awake")
    assert client.call(ref, lambda t: Twrite(t, fid, 0, b"r0 00ff")).count == 7
    assert client.call(ref, tread(fid, 3)).data.startswith(b"00ff\nr1 0000\n")


def test_a_read_answered_from_the_cache_ends_from_that_snapshot():
    # the device fid is open, but the offset-0 reply is lost: the rest of
    # the read comes from the same cached copy, never from the device
    net, mux, states, client, value = changing_sensor()
    ref = mux_ref(mux)
    value[0] = 9.5
    fid = open_fid(client, ref, "sensors/s1/reading")
    assert client._one(ref, read_all(fid)) == b"9.500000\n"
    value[0] = 10.5
    net.set_link("s1", mux.eid, LinkModel(latency=1, loss=1.0))
    out = client.call(ref, tread(fid)).data
    net.set_link("s1", mux.eid, LinkModel(latency=1))
    while True:
        data = client.call(ref, tread(fid, len(out))).data
        if not data:
            break
        out += data
    assert out == b"9.500000\n"


# -- aggregation -------------------------------------------------------------

def test_avg_aggregate_matches_mean():
    values = {1: 20.0, 2: 22.0, 3: 24.0}
    net, mux, _ = build_cluster(
        [temp_sensor(i, v) for i, v in values.items()],
        aggregates=[AggregateSpec("avgTemp", "avg")])
    client = make_client(net)
    data = client.read(mux_ref(mux), "aggrData/avgTemp").decode()
    line, trailer = data.splitlines()
    assert line == "%.6f" % (sum(values.values()) / len(values))
    assert trailer == "# n=3/3"


def test_min_max_aggregates():
    net, mux, _ = build_cluster(
        [temp_sensor(1, 20.0), temp_sensor(2, 26.5)],
        aggregates=[AggregateSpec("minT", "min"), AggregateSpec("maxT", "max")])
    client = make_client(net)
    assert client.read(mux_ref(mux), "aggrData/minT").splitlines()[0] == b"20.000000"
    assert client.read(mux_ref(mux), "aggrData/maxT").splitlines()[0] == b"26.500000"


def test_avg_of_singleton_is_identity():
    net, mux, _ = build_cluster([temp_sensor(1, 19.25)],
                                aggregates=[AggregateSpec("a", "avg")])
    client = make_client(net)
    assert client.read(mux_ref(mux), "aggrData/a").splitlines()[0] == b"19.250000"


def test_registered_median_against_oracle(monkeypatch):
    import random
    rng = random.Random(5)
    for trial in range(10):
        values = {i: round(rng.uniform(-50, 50), 3)
                  for i in range(1, rng.randint(2, 7))}
        net, mux, _ = build_cluster(
            [temp_sensor(i, v) for i, v in values.items()],
            aggregates=[AggregateSpec("medT", "median")])

        def median(vs):
            s = sorted(vs)
            mid = len(s) // 2
            return [s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2]

        monkeypatch.setitem(muxfs.AGGREGATIONS, "median", median)
        client = make_client(net)
        line = client.read(mux_ref(mux), "aggrData/medT").splitlines()[0]
        assert line.decode() == "%.6f" % median(list(values.values()))[0]


def test_aggregate_read_costs_one_device_read_per_member():
    # within the ttl (30) the head answers from the values it read, with no
    # device frame; past it, each member costs one read on its kept fid
    net, mux, states = build_cluster(
        [temp_sensor(i, 20.0 + i) for i in range(1, 6)],
        mux_cfg=MuxConfig(reprobe_ticks=10 ** 6),
        aggregates=[AggregateSpec("avgT", "avg")])
    devices = tuple(states)
    client = make_client(net)
    first = client.read(mux_ref(mux), "aggrData/avgT")     # opens each member's reading
    since = len(net.log.lines)
    assert client.read(mux_ref(mux), "aggrData/avgT") == first
    assert member_frames(net, mux, since, devices) == []
    served = [line for line in net.log.lines[since:] if "\tmux-aggregate\t" in line]
    assert [line.split("\t")[3:] for line in served] == \
        [[dev, "path=reading cached=1"] for dev in devices]
    net.run_until(max(link.cache["reading"][1] for link in mux.links.values()) + 31)
    since = len(net.log.lines)
    assert client.read(mux_ref(mux), "aggrData/avgT") == first
    assert member_frames(net, mux, since, devices) == ["Rread"] * 5 + ["Tread"] * 5
    assert "\tmux-aggregate\t" not in "".join(net.log.lines[since:])


def test_aggregate_read_to_eof_is_one_snapshot():
    # a ramp crosses 10.0 while a read is in flight; the end-of-file read
    # must come from the same fan-out, not splice a second one onto it
    pattern = re.compile(rb"-?\d+\.\d{6}\n# n=1/1\n")
    for start in range(40, 140):
        net, mux, _ = build_cluster(
            [temp_sensor(1, 0.0, raw_source=lambda t: 9.0 + 0.01 * t)],
            warmup=0, aggregates=[AggregateSpec("avgT", "avg")])
        net.run_until(start)
        data = make_client(net).read(mux_ref(mux), "aggrData/avgT")
        assert pattern.fullmatch(data), (start, data)


def test_unregistered_aggregation_errors():
    net, mux, _ = build_cluster([temp_sensor(1, 1.0)],
                                aggregates=[AggregateSpec("x", "nonesuch")])
    client = make_client(net)
    with pytest.raises(ClientError, match="no such aggregation"):
        client.read(mux_ref(mux), "aggrData/x")


def test_position_aggregate_per_component():
    net, mux, _ = build_cluster(
        [dict(id="p1", kind="position", position=(0.0, 0.0)),
         dict(id="p2", kind="position", position=(2.0, 2.0))],
        aggregates=[AggregateSpec("avgPosn", "avg", kind="position")])
    client = make_client(net)
    line = client.read(mux_ref(mux), "aggrData/avgPosn").splitlines()[0]
    assert line == b"1.000000 1.000000"


def test_aggregate_kind_selector():
    net, mux, _ = build_cluster(
        [temp_sensor(1, 10.0),
         dict(id="p1", kind="position", position=(5.0, 5.0))],
        aggregates=[AggregateSpec("avgT", "avg", kind="temperature")])
    client = make_client(net)
    data = client.read(mux_ref(mux), "aggrData/avgT").decode()
    assert data.splitlines() == ["10.000000", "# n=1/1"]


def test_aggregate_partial_trailer_on_timeout():
    net, mux, states = build_cluster(
        [temp_sensor(1, 10.0), temp_sensor(2, 20.0), temp_sensor(3, 30.0)],
        latency=1, mux_cfg=MuxConfig(ttl=0, discover_timeout=10),
        aggregates=[AggregateSpec("avgT", "avg")])
    for link in mux.links.values():
        link.cache.clear()
    states["s2"].set_power(net.now, "asleep")
    client = make_client(net)
    data = client.read(mux_ref(mux), "aggrData/avgT").decode()
    assert data.splitlines() == ["20.000000", "# n=2/3"]


def test_aggregate_after_a_relayed_write_reads_the_device():
    # a write relayed to a member makes its cached values stale: within the
    # ttl an aggregate reads that member again and sees the new calibration,
    # and the old value still stands in if the member does not answer
    net, mux, states = build_cluster(
        [temp_sensor(1, 20.0), temp_sensor(2, 22.0)],
        mux_cfg=MuxConfig(ttl=1000, reprobe_ticks=10 ** 6),
        aggregates=[AggregateSpec("avgT", "avg")])
    client = make_client(net)
    assert client.read(mux_ref(mux), "aggrData/avgT") == b"21.000000\n# n=2/2\n"
    client.write(mux_ref(mux), "sensors/s1/control", b"4")
    states["s1"].set_power(net.now, "asleep")
    since = len(net.log.lines)
    assert client.read(mux_ref(mux), "aggrData/avgT") == b"21.000000\n# n=2/2\n"
    assert member_frames(net, mux, since) == ["Tread"]
    assert [line.split("\t")[3:] for line in net.log.lines[since:]
            if "\tmux-aggregate\t" in line] == [["s2", "path=reading cached=1"],
                                                 ["s1", "path=reading cached=1"]]
    states["s1"].set_power(net.now, "awake")
    since = len(net.log.lines)
    assert client.read(mux_ref(mux), "aggrData/avgT") == b"23.000000\n# n=2/2\n"
    assert member_frames(net, mux, since) == ["Rread", "Tread"]


@pytest.mark.parametrize("count", [3, 0])
def test_a_relayed_read_its_count_cuts_is_not_cached(count):
    # only a reply shorter than its count is the whole file (fscore's rule
    # for a short reply): a cut one must not answer an aggregate in the ttl
    net, mux, _ = build_cluster([temp_sensor(1, 20.9), temp_sensor(2, 30.1)],
                                aggregates=[AggregateSpec("avgTemp", "avg")])
    client = make_client(net)
    fid = open_fid(client, mux_ref(mux), "sensors/s1/reading")
    assert client.call(mux_ref(mux), tread(fid, count=count)).data == b"20.900000\n"[:count]
    assert "reading" not in mux.links["s1"].cache
    assert client.read(mux_ref(mux), "aggrData/avgTemp") == b"25.500000\n# n=2/2\n"


def sleeping_aggregate(age):
    """avgTemp over s1 (10.0) and s2 (20.0) once s2, whose reading the head
    cached age ticks before, is asleep: the head waits its 20-tick
    discover_timeout for s2 and then judges s2's cached reading against
    the 30-tick ttl.  Returns (the aggregate's lines, log text)."""
    net, mux, states = build_cluster(
        [temp_sensor(1, 10.0), temp_sensor(2, 20.0)], latency=1,
        mux_cfg=MuxConfig(ttl=30, discover_timeout=20, reprobe_ticks=10 ** 6),
        aggregates=[AggregateSpec("avgTemp", "avg")])
    client = make_client(net)
    assert client.read(mux_ref(mux), "sensors/s2/reading") == b"20.000000\n"
    stamp = mux.links["s2"].cache["reading"][1]
    states["s2"].set_power(net.now, "asleep")
    net.run_until(stamp + age)
    return client.read(mux_ref(mux), "aggrData/avgTemp").decode().splitlines(), net.log.text()


def test_aggregate_judges_a_silent_members_cache_when_asked():
    # cached 10 ticks before the read, 30 or more once the wait is over:
    # fresh when asked, as a relayed read or a query would judge it
    lines, log = sleeping_aggregate(age=10)
    assert lines == ["15.000000", "# n=2/2"]
    assert "\tmux-aggregate\tc.head\ts2\tpath=reading cached=1" in log


def test_aggregate_excludes_a_silent_members_value_past_the_ttl():
    lines, log = sleeping_aggregate(age=31)
    assert lines == ["10.000000", "# n=1/2"]
    assert "\tmux-aggregate\t" not in log


# -- an aggregate is asked at the open ---------------------------------------

def aggregate_at_open(**cfg):
    """A head (latency 1) over s1, s2 and s3 (21, 22, 23) whose avgT was
    read once, so each member's reading is open on a kept fid, and whose
    copies have all aged past the ttl (30).  Returns (net, mux, states,
    client)."""
    net, mux, states = build_cluster(
        [temp_sensor(i, 20.0 + i) for i in (1, 2, 3)], latency=1,
        mux_cfg=MuxConfig(reprobe_ticks=10 ** 6, **cfg),
        aggregates=[AggregateSpec("avgT", "avg")])
    client = make_client(net)
    assert client.read(mux_ref(mux), "aggrData/avgT") == b"22.000000\n# n=3/3\n"
    net.run_until(net.now + 31)
    return net, mux, states, client


def test_aggregate_cat_overlaps_the_fan_out_with_the_open():
    # walk 2 + open 2 + read 2 + end-of-file read 2 + clunk 2: the members'
    # round trip runs while the Ropen and the Tread are on the wire
    net, mux, _, client = aggregate_at_open()
    t0, since = net.now, len(net.log.lines)
    assert client.read(mux_ref(mux), "aggrData/avgT") == b"22.000000\n# n=3/3\n"
    assert net.now - t0 == 10
    assert len([f for f in sends(net, since) if "client" in f[:2]]) == 10
    assert member_frames(net, mux, since, ("s1", "s2", "s3")) == ["Rread"] * 3 + ["Tread"] * 3
    assert [ent for ent in mux.sessions[client.eid].fids.values() if ent.answer is not None] == []


def test_member_treads_leave_the_head_before_its_ropen():
    net, mux, _, client = aggregate_at_open()
    since = len(net.log.lines)
    client.read(mux_ref(mux), "aggrData/avgT")
    frames = sends(net, since)
    ropen = frames.index((mux.eid, "client", "Ropen"))
    treads = [i for i, f in enumerate(frames) if f[0] == mux.eid and f[2] == "Tread"]
    assert len(treads) == 3 and max(treads) < ropen


def test_a_read_before_a_slow_member_answers_waits_for_it():
    # the open reaches the head at tick 3 and s1 answers at 23; the
    # client's Tread, in at 5, waits for s1 and is answered at 24, then
    # the end-of-file read and the clunk take 4 more
    net, mux, _, client = aggregate_at_open(discover_timeout=50)
    net.set_link(mux.eid, "s1", LinkModel(latency=10), both_ways=True)
    t0, since = net.now, len(net.log.lines)
    assert client.read(mux_ref(mux), "aggrData/avgT") == b"22.000000\n# n=3/3\n"
    assert net.now - t0 == 28
    lines = [line.split("\t")[1:4] for line in net.log.lines[since:]]
    asked = lines.index(["deliver", "client", mux.eid])
    asked = lines.index(["deliver", "client", mux.eid], asked + 2)     # walk, open, then read
    assert lines.index(["deliver", "s1", mux.eid]) > asked
    assert "\tmux-aggregate\t" not in "".join(net.log.lines[since:])


def test_each_later_offset_zero_read_on_the_fid_fans_out_again():
    net, mux, _, client = aggregate_at_open()
    fid = open_fid(client, mux_ref(mux), "aggrData/avgT")
    assert client.call(mux_ref(mux), tread(fid)).data == b"22.000000\n# n=3/3\n"
    net.run_until(net.now + 31)
    since = len(net.log.lines)
    assert client.call(mux_ref(mux), tread(fid)).data == b"22.000000\n# n=3/3\n"
    assert member_frames(net, mux, since, ("s1", "s2", "s3")) == ["Rread"] * 3 + ["Tread"] * 3
    assert client.call(mux_ref(mux), tread(fid, offset=17)).data == b"\n"
    client.call(mux_ref(mux), tclunk(fid))


def test_clunk_before_the_read_drops_the_answer_and_the_fan_out_still_lands():
    # s1 answers the open's fan-out after the clunk, and its copy is kept
    net, mux, _, client = aggregate_at_open(discover_timeout=50)
    net.set_link(mux.eid, "s1", LinkModel(latency=10), both_ways=True)
    fid = open_fid(client, mux_ref(mux), "aggrData/avgT")
    opened, landed = net.now, []
    mux.sessions[client.eid].fids[fid].answer.wait(landed.append)
    assert landed == []                 # the fid's answer is still in flight
    client.call(mux_ref(mux), tclunk(fid))
    assert fid not in mux.sessions[client.eid].fids
    net.run_until(net.now + 30)
    assert landed == [b"22.000000\n# n=3/3\n"]
    assert all(link.cache["reading"][1] >= opened for link in mux.links.values())


@pytest.mark.parametrize("members, fn, error", [
    ([], "avg", "no members"),
    ([temp_sensor(1, 1.0)], "nonesuch", "no such aggregation"),
])
def test_an_aggregate_error_answers_the_read_not_the_open(members, fn, error):
    net, mux, _ = build_cluster(members, aggregates=[AggregateSpec("x", fn)])
    client = make_client(net)
    fid = open_fid(client, mux_ref(mux), "aggrData/x")
    assert mux.sessions[client.eid].fids[fid].answer is None
    with pytest.raises(ClientError, match=error):
        client.call(mux_ref(mux), tread(fid))


def test_a_lost_member_reply_still_gives_the_trailer():
    # s2's Rread to the open's fan-out is lost: the head waits out its
    # discover_timeout and answers from the two members that did answer
    net, mux, _, client = aggregate_at_open()
    send, lost = net.send, []

    def lose_s2_rread(src, dst, frame):
        if src == "s2" and not lost and isinstance(wire.decode_message(frame), Rread):
            lost.append(frame)
            return
        send(src, dst, frame)

    net.send = lose_s2_rread
    assert client.read(mux_ref(mux), "aggrData/avgT") == b"22.000000\n# n=2/3\n"
    assert len(lost) == 1


# -- groups -------------------------------------------------------------------

def test_group_membership_by_tag():
    net, mux, _ = build_cluster(
        [temp_sensor(1, 1.0, tags={"animal": "snake"}),
         temp_sensor(2, 2.0, tags={"animal": "snake"}),
         temp_sensor(3, 3.0, tags={"animal": "zebra"})],
        groups=[GroupSpec("snakes", "animal", "snake")])
    client = make_client(net)
    names = [s.name for s in client.ls(mux_ref(mux), "groups/snakes")]
    assert names == ["s1", "s2"]
    # group entries alias the sensors/ nodes: identical qid paths
    g = client.stat(mux_ref(mux), "groups/snakes/s1")
    s = client.stat(mux_ref(mux), "sensors/s1")
    assert g.qid.path == s.qid.path


def test_empty_group_lists_empty():
    net, mux, _ = build_cluster([temp_sensor(1, 1.0)],
                                groups=[GroupSpec("birds", "animal", "bird")])
    client = make_client(net)
    assert client.ls(mux_ref(mux), "groups/birds") == []


def test_group_added_via_ctl():
    net, mux, _ = build_cluster([temp_sensor(1, 1.0, tags={"animal": "lion"})])
    client = make_client(net)
    client.write(mux_ref(mux), "ctl", b"group lions animal=lion")
    names = [s.name for s in client.ls(mux_ref(mux), "groups/lions")]
    assert names == ["s1"]


def test_aggregate_added_via_ctl():
    net, mux, _ = build_cluster([temp_sensor(1, 4.5)])
    client = make_client(net)
    client.write(mux_ref(mux), "ctl", b"aggregate avgT avg")
    assert client.read(mux_ref(mux), "aggrData/avgT").splitlines()[0] == b"4.500000"


def test_ctl_bad_rate_is_rerror():
    net, mux, _ = build_cluster([temp_sensor(1, 1.0)], latency=1,
                                mux_cfg=MuxConfig(reprobe_ticks=10 ** 6))
    client = make_client(net)
    for command in (b"rate abc", b"rate -5 s1"):
        with pytest.raises(ClientError, match="bad ctl command"):
            client.write(mux_ref(mux), "ctl", command)
    assert mux.links["s1"].poll is None
    t0 = net.now
    net.run_until(t0 + 100)
    assert count_polls(net.log.text(), "s1", t0, t0 + 100) == 0
    # a refused rate leaves a running poll as it was
    client.write(mux_ref(mux), "ctl", b"rate 10 s1")
    with pytest.raises(ClientError, match="bad ctl command"):
        client.write(mux_ref(mux), "ctl", b"rate -5 s1")
    net.run_until(net.now + 50)      # past the first read, which opens the fid
    t1 = net.now
    net.run_until(t1 + 100)
    assert count_polls(net.log.text(), "s1", t1, t1 + 100) == 10


def test_ctl_duplicate_aggregate_is_rerror():
    net, mux, _ = build_cluster([temp_sensor(1, 4.5)])
    client = make_client(net)
    client.write(mux_ref(mux), "ctl", b"aggregate avgT avg")
    with pytest.raises(ClientError, match="exists"):
        client.write(mux_ref(mux), "ctl", b"aggregate avgT max temperature")
    with pytest.raises(ClientError, match="bad ctl command"):
        client.write(mux_ref(mux), "ctl", b"aggregate x avg temperature extra junk")
    assert [s.name for s in client.ls(mux_ref(mux), "aggrData")] == ["avgT"]
    assert client.read(mux_ref(mux), "aggrData/avgT").splitlines()[0] == b"4.500000"


def test_ctl_unknown_aggregation_is_rerror():
    # an fn not in muxfs.AGGREGATIONS is refused, so no file is listed that
    # could only ever answer `no such aggregation`
    net, mux, _ = build_cluster([temp_sensor(1, 4.5)])
    client = make_client(net)
    with pytest.raises(ClientError, match="bad ctl command"):
        client.write(mux_ref(mux), "ctl", b"aggregate foo median")
    assert client.ls(mux_ref(mux), "aggrData") == []
    assert mux.aggr_dir.lookup("foo") is None


def test_ctl_duplicate_group_is_rerror():
    net, mux, _ = build_cluster([temp_sensor(1, 1.0, tags={"animal": "cat"})])
    client = make_client(net)
    client.write(mux_ref(mux), "ctl", b"group g animal=cat")
    with pytest.raises(ClientError, match="exists"):
        client.write(mux_ref(mux), "ctl", b"group g animal=dog")
    assert [s.name for s in client.ls(mux_ref(mux), "groups")] == ["g"]
    assert [s.name for s in client.ls(mux_ref(mux), "groups/g")] == ["s1"]


# -- ctl reads back the member index --------------------------------------------

def test_ctl_reads_back_member_index():
    net, mux, states = build_cluster([
        temp_sensor(1, 1.0, tags={"animal": "snow leopard"}, position=(1.5, 2.0)),
        dict(id="s2", kind="big cat", position=(3.0, -4.0)),
    ])
    client = make_client(net)
    text = client.read(mux_ref(mux), "ctl").decode()
    assert text == states["s1"].info_text() + states["s2"].info_text()
    assert parse_infos(text) == [mux.links["s1"].meta, mux.links["s2"].meta]
    assert parse_infos(text)[1] == {"id": "s2", "kind": "big cat",
                                    "position": (3.0, -4.0), "tags": {}}


def test_a_member_index_longer_than_iounit_is_generated_once():
    # 150 members' info texts pass IOUNIT: the client reads the index in
    # two replies and an empty one, and the head builds it once
    net, mux, states = build_cluster([temp_sensor(i, 20.0, tags={"animal": "lion"})
                                      for i in range(1, 151)])
    calls, read_ctl = [], mux.ctl.read_handler
    mux.ctl.read_handler = lambda: calls.append(1) or read_ctl()
    text = make_client(net).read(mux_ref(mux), "ctl")
    assert len(text) > IOUNIT
    assert text == "".join(state.info_text() for state in states.values()).encode()
    assert len(calls) == 1


def test_undiscovered_member_is_absent_from_index():
    net, mux, _ = build_cluster(
        [temp_sensor(1, 1.0), temp_sensor(2, 2.0), temp_sensor(3, 3.0)], warmup=0)
    net.set_link(mux.eid, "s2", LinkModel(latency=2, loss=1.0), both_ways=True)
    net.run_until(60)
    client = make_client(net)
    ids = [meta["id"] for meta in parse_infos(client.read(mux_ref(mux), "ctl").decode())]
    assert ids == ["s1", "s3"]


def test_readable_ctl_keeps_its_stat_and_commands():
    net, mux, _ = build_cluster([temp_sensor(1, 4.5, tags={"animal": "lion"})],
                                mux_cfg=MuxConfig(reprobe_ticks=10 ** 6))
    client = make_client(net)
    st = client.stat(mux_ref(mux), "ctl")
    assert (st.mode & 0o777, st.length) == (0o644, 0)
    client.write(mux_ref(mux), "ctl", b"rate 10 s1")
    client.write(mux_ref(mux), "ctl", b"aggregate avgT avg")
    client.write(mux_ref(mux), "ctl", b"group lions animal=lion")
    t0 = net.now
    net.run_until(t0 + 100)
    assert count_polls(net.log.text(), "s1", t0, t0 + 100) == 10
    assert client.read(mux_ref(mux), "aggrData/avgT").splitlines()[0] == b"4.500000"
    assert [s.name for s in client.ls(mux_ref(mux), "groups/lions")] == ["s1"]
    assert [m["id"] for m in parse_infos(client.read(mux_ref(mux), "ctl").decode())] == ["s1"]


# -- read queries through ctl --------------------------------------------------

def ask(client, mux, question):
    """The answer to one query written to mux's ctl, as text."""
    out, = client.write_many([(mux_ref(mux), "ctl", question)], answer=True)
    if isinstance(out, ClientError):
        raise out
    return out.decode()


def query_cluster(**cfg):
    cfg.setdefault("reprobe_ticks", 10 ** 6)
    return build_cluster([temp_sensor(1, 20.5), temp_sensor(2, 22.0)], latency=1,
                         mux_cfg=MuxConfig(**cfg))


def member_frames(net, mux, since, devices=("s1", "s2")):
    """The types of the frames sent between mux and any of devices after
    log line since, either way, sorted."""
    return sorted(detail.split()[0] for _, event, src, dst, detail in
                  (line.split("\t") for line in net.log.lines[since:])
                  if event == "send" and {src, dst} & set(devices) and mux.eid in (src, dst))


def test_query_reads_each_member_over_a_kept_fid():
    # the first query of a file opens it on each member over an attach of
    # its own (attach, walk in place, open, read), which the head keeps
    # open, so a repeated query is one read per member
    net, mux, states = query_cluster()
    client = make_client(net)
    held = {dev: device_fids(net, dev) for dev in ("s1", "s2")}
    since = len(net.log.lines)
    assert ask(client, mux, b"read reading") == "s1 20.500000\ns2 22.000000\n"
    assert member_frames(net, mux, since) == sorted(
        ["Tattach", "Rattach", "Twalk", "Rwalk", "Topen", "Ropen", "Tread", "Rread"] * 2)
    # asked again within the ttl (30), the head answers from what it read
    since = len(net.log.lines)
    assert ask(client, mux, b"read reading") == "s1 20.500000\ns2 22.000000\n"
    assert member_frames(net, mux, since) == []
    # past the ttl, each member costs one read on its kept fid
    net.run_until(mux.links["s2"].cache["reading"][1] + 31)
    since = len(net.log.lines)
    assert ask(client, mux, b"read reading") == "s1 20.500000\ns2 22.000000\n"
    assert member_frames(net, mux, since) == ["Rread", "Rread", "Tread", "Tread"]
    sid, joules = ask(client, mux, b"read remaining-energy s2").split()
    assert sid == "s2" and float(joules) == pytest.approx(states["s2"].energy_j, abs=0.1)
    net.run_until(net.now + 10)
    # one fid per member and file read, and no root behind them
    assert {dev: device_fids(net, dev) - held[dev] for dev in held} == {"s1": 1, "s2": 2}
    assert "mux" not in mux.links["s1"].roots


def test_kept_fid_still_checks_each_querying_user():
    # an admin's query leaves s1's reading open at the head; a guest the
    # mirrored stat refuses is still refused, without a device frame
    net, mux, _ = query_cluster()
    admin, guest = make_client(net), make_client(net, uname="guest", name="guest")
    assert ask(admin, mux, b"read reading s1") == "s1 20.500000\n"
    assert isinstance(mux.links["s1"].open_fids["reading"], int)
    mux.links["s1"].node.lookup("reading").mode = 0o440
    since = len(net.log.lines)
    assert ask(guest, mux, b"read reading s1") == "s1 !permission denied\n"
    assert member_frames(net, mux, since) == []
    # a device's refusal of a read on a kept fid is the member's answer
    for _ in range(2):
        since = len(net.log.lines)
        assert ask(admin, mux, b"read control s1") == "s1 !not readable\n"
    assert member_frames(net, mux, since) == ["Rerror", "Tread"]


def test_two_fids_query_at_once_and_keep_their_answers():
    net, mux, _ = query_cluster()
    # s1 answers slowly, so the second query is answered first
    net.set_link(mux.eid, "s1", LinkModel(latency=50), both_ways=True)
    client = make_client(net)
    f1 = open_fid(client, mux_ref(mux), "ctl", ORDWR)
    f2 = open_fid(client, mux_ref(mux), "ctl", ORDWR)
    done = []
    client.submit(mux_ref(mux), lambda t: Twrite(t, f1, 0, b"read reading s1"),
                  lambda r: done.append((1, r.count)))
    client.submit(mux_ref(mux), lambda t: Twrite(t, f2, 0, b"read reading s2"),
                  lambda r: done.append((2, r.count)))
    net.run_until(net.now + 1000)
    assert done == [(2, 15), (1, 15)]
    assert client.call(mux_ref(mux), tread(f2)).data == b"s2 22.000000\n"
    assert client.call(mux_ref(mux), tread(f1)).data == b"s1 20.500000\n"


def test_plain_ctl_read_still_returns_the_member_index():
    net, mux, states = query_cluster()
    client = make_client(net)
    index = (states["s1"].info_text() + states["s2"].info_text()).encode()
    fid = open_fid(client, mux_ref(mux), "ctl", ORDWR)
    client.call(mux_ref(mux), lambda t: Twrite(t, fid, 0, b"read reading"))
    assert client.read(mux_ref(mux), "ctl") == index          # another fid
    assert client.call(mux_ref(mux), tread(fid)).data == b"s1 20.500000\ns2 22.000000\n"
    assert client.call(mux_ref(mux), tread(fid, 26)).data == b""
    # the answer is read once: the fid's next read at offset 0 is the index
    assert client.call(mux_ref(mux), tread(fid)).data == index


def test_asleep_member_is_unreachable_unless_cached_within_ttl():
    net, mux, states = query_cluster(ttl=100, fallback_ticks=200)
    client = make_client(net)
    states["s2"].set_power(net.now, "asleep")
    assert ask(client, mux, b"read reading") == "s1 20.500000\ns2 !device unreachable\n"
    states["s2"].set_power(net.now, "awake")
    assert ask(client, mux, b"read reading s2") == "s2 22.000000\n"
    stamp = mux.links["s2"].cache["reading"][1]
    states["s2"].set_power(net.now, "asleep")
    # within the ttl the asleep member is answered from the cache at once:
    # no device frame, and no fallback wait
    since = len(net.log.lines)
    assert ask(client, mux, b"read reading s2") == "s2 22.000000\n"
    assert member_frames(net, mux, since) == []
    assert [line.split("\t", 1)[1] for line in net.log.lines[since:]
            if "\tmux-query\t" in line] == ["mux-query\tc.head\ts2\tpath=reading cached=1"]
    assert net.now < stamp + 100
    # past the ttl the head asks the device, waits out the fallback, and
    # its copy is too old to serve
    net.run_until(stamp + 101)
    since = len(net.log.lines)
    assert ask(client, mux, b"read reading s2") == "s2 !device unreachable\n"
    assert member_frames(net, mux, since) == ["Tread"]
    assert net.now > stamp + 101 + 200


def test_guest_is_refused_before_a_cached_answer():
    # the per-user check against the mirrored stat comes before the cache:
    # a guest is refused s1's reading although a fresh copy is cached
    net, mux, _ = query_cluster(ttl=1000)
    admin, guest = make_client(net), make_client(net, uname="guest", name="guest")
    assert ask(admin, mux, b"read reading") == "s1 20.500000\ns2 22.000000\n"
    mux.links["s1"].node.lookup("reading").mode = 0o440
    since = len(net.log.lines)
    assert ask(guest, mux, b"read reading") == "s1 !permission denied\ns2 22.000000\n"
    assert member_frames(net, mux, since) == []
    assert [line.split("\t")[3] for line in net.log.lines[since:]
            if "\tmux-query\t" in line] == ["s2"]


def test_guest_may_query_but_not_command():
    net, mux, _ = query_cluster()
    guest = make_client(net, uname="guest", name="guest")
    assert ask(guest, mux, b"read reading") == "s1 20.500000\ns2 22.000000\n"
    for command in (b"rate 10 s1", b"aggregate avgT avg", b"group lions animal=lion"):
        with pytest.raises(ClientError, match="permission denied"):
            guest.write(mux_ref(mux), "ctl", command)
    with pytest.raises(ClientError, match="bad ctl command"):
        ask(guest, mux, b"read")
    assert mux.links["s1"].poll is None
    assert guest.ls(mux_ref(mux), "aggrData") == guest.ls(mux_ref(mux), "groups") == []
    # each member file is checked against the querying user, as its mirrored
    # stat says, before the head reads it as mux
    mux.links["s1"].node.lookup("reading").mode = 0o440
    since = len(net.log.lines)
    assert ask(guest, mux, b"read reading") == "s1 !permission denied\ns2 22.000000\n"
    assert not [line for line in net.log.lines[since:] if "\ts1\t" in line]
    assert ask(make_client(net), mux, b"read reading s1") == "s1 20.500000\n"


def test_malformed_query_is_bad_ctl_command():
    net, mux, _ = query_cluster()
    client = make_client(net)
    for question in (b"read", b" read \n", b"\xff read reading"):
        with pytest.raises(ClientError, match="bad ctl command"):
            ask(client, mux, question)
    with pytest.raises(ClientError, match="unknown device s9"):
        ask(client, mux, b"read reading s1 s9")
    assert ask(client, mux, b"read nosuchfile s2") == "s2 !no such file\n"


# -- report rate ---------------------------------------------------------------

def count_polls(log_text, dev, t0, t1):
    """Tread frames sent to dev in (t0, t1]: a rate-r poller started at t0
    fires at t0+r, t0+2r, ..., t1."""
    n = 0
    for line in log_text.splitlines():
        tick, event, src, dst, detail = line.split("\t")
        if (event == "send" and dst == dev and detail.startswith("Tread")
                and t0 < int(tick) <= t1):
            n += 1
    return n


def test_report_rate_poll_counts():
    net, mux, _ = build_cluster([temp_sensor(1, 1.0)], latency=1,
                                mux_cfg=MuxConfig(reprobe_ticks=10 ** 6))
    t0 = net.now
    mux.set_report_rate(["s1"], 10)
    net.run_until(t0 + 100)
    polls = count_polls(net.log.text(), "s1", t0, t0 + 100)
    assert polls == 10


def test_rate_below_the_ttl_still_polls_the_device():
    # a poll samples the device although its last sample is within the
    # ttl: one device Tread per period, and each refills the cache
    net, mux, _ = build_cluster([temp_sensor(1, 1.0)], latency=1,
                                mux_cfg=MuxConfig(ttl=30, reprobe_ticks=10 ** 6))
    make_client(net).write(mux_ref(mux), "ctl", b"rate 5 s1")
    t0 = net.now
    net.run_until(t0 + 100)
    assert count_polls(net.log.text(), "s1", t0, t0 + 100) == 20
    assert mux.links["s1"].cache["reading"][1] > t0 + 90


def test_report_rate_zero_stops_polling():
    net, mux, _ = build_cluster([temp_sensor(1, 1.0)], latency=1,
                                mux_cfg=MuxConfig(reprobe_ticks=10 ** 6))
    mux.set_report_rate(["s1"], 10)
    net.run_until(net.now + 50)
    mux.set_report_rate(["s1"], 0)
    t0 = net.now
    net.run_until(t0 + 100)
    assert count_polls(net.log.text(), "s1", t0, t0 + 100) == 0


def test_report_rate_adaptation():
    net, mux, _ = build_cluster([temp_sensor(1, 1.0)], latency=1,
                                mux_cfg=MuxConfig(reprobe_ticks=10 ** 6))
    t0 = net.now
    mux.set_report_rate(["s1"], 10)
    net.run_until(t0 + 100)
    mux.set_report_rate(["s1"], 20)
    net.run_until(t0 + 200)
    assert count_polls(net.log.text(), "s1", t0, t0 + 100) == 10
    assert count_polls(net.log.text(), "s1", t0 + 100, t0 + 200) == 5


def test_report_rate_unknown_device():
    net, mux, _ = build_cluster([temp_sensor(1, 1.0)])
    from sensefs.fscore import FsError
    with pytest.raises(FsError, match="unknown device"):
        mux.set_report_rate(["nope"], 10)


def test_rate_via_ctl_refreshes_cache():
    net, mux, _ = build_cluster([temp_sensor(1, 7.5)], latency=1,
                                mux_cfg=MuxConfig(reprobe_ticks=10 ** 6))
    client = make_client(net)
    client.write(mux_ref(mux), "ctl", b"rate 10 s1")
    net.run_until(net.now + 50)
    value, stamp = mux.links["s1"].cache["reading"]
    assert value == b"7.500000\n"
    assert net.now - stamp <= 15


def test_repeated_rate_commands_keep_one_poll_chain():
    # a new rate replaces a member's poll chain, with or without a device
    # list; rate 0 leaves no poll event behind
    net, mux, _ = build_cluster([temp_sensor(1, 1.0), temp_sensor(2, 2.0)], latency=1,
                                mux_cfg=MuxConfig(reprobe_ticks=10 ** 6))
    client = make_client(net)

    def live_events():
        # scheduled callbacks only: a frame in flight has no Event
        return sum(isinstance(entry[2], Event) and not entry[2].cancelled for entry in net._heap)

    def poll_events():
        # with no device read in flight, the live events past the idle
        # ones are the scheduled polls
        while any(link.pending for link in mux.links.values()):
            net.step()
        return live_events() - idle

    idle = live_events()             # the re-probe start() scheduled before discovery
    for command in [b"rate 10 s1"] * 3 + [b"rate 10", b"rate 20 s1"]:
        client.write(mux_ref(mux), "ctl", command)
    assert poll_events() == 2
    net.run_until(net.now + 50)      # past each chain's first read, which opens the fid
    t0 = net.now
    net.run_until(t0 + 100)
    assert count_polls(net.log.text(), "s1", t0, t0 + 100) == 5
    assert count_polls(net.log.text(), "s2", t0, t0 + 100) == 10
    client.write(mux_ref(mux), "ctl", b"rate 0")
    assert poll_events() == 0
    t1 = net.now
    net.run_until(t1 + 100)
    assert count_polls(net.log.text(), "s1", t1, t1 + 100) == 0
    assert count_polls(net.log.text(), "s2", t1, t1 + 100) == 0
