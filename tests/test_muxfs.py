"""Cluster-head tests: discovery, relaying, aggregation, groups, cache."""

import pytest

from sensefs.client import ClientError, FileClient
from sensefs.muxfs import AggregateSpec, GroupSpec, MuxConfig, Multiplexer
from sensefs.simnet import DutyCycle, LinkModel, Network

from conftest import USERS, build_cluster, temp_sensor, make_client


def mux_ref(mux):
    return ("net", mux.eid)


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
    states["s2"].power_override = None
    net.run_until(400)        # next re-probe finds it
    names = [s.name for s in client.ls(mux_ref(mux), "sensors")]
    assert names == ["s1", "s2"]


def test_shared_config_keeps_each_heads_derived_timeout():
    net = Network(0)
    net.set_link("h1", "s1", LinkModel(latency=1))
    net.set_link("h2", "s2", LinkModel(latency=10))
    cfg = MuxConfig()
    h1 = Multiplexer(net, "h1", "c1", ["s1"], USERS, cfg)
    h2 = Multiplexer(net, "h2", "c2", ["s2"], USERS, cfg)
    assert (h1.aggregate_timeout, h2.aggregate_timeout) == (5, 50)
    assert cfg.aggregate_timeout == 0


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
    handle = client.open_path(mux_ref(mux), "sensors/s1/mem")
    with pytest.raises(ClientError, match="address out of range"):
        client.read_at(handle, 250, 10)


def test_outstanding_requests_fast_overtakes_slow():
    net, mux, _ = build_cluster([temp_sensor(1, 1.0), temp_sensor(3, 3.0)],
                                latency=1,
                                mux_cfg=MuxConfig(fallback_ticks=2000))
    net.set_link(mux.eid, "s1", LinkModel(latency=200), both_ways=True)
    client = make_client(net)
    h1 = client.open_path(mux_ref(mux), "sensors/s1/reading")
    h3 = client.open_path(mux_ref(mux), "sensors/s3/reading")
    finish = {}
    client.submit_read(h1, 0, 64, lambda r: finish.setdefault("s1", net.now))
    client.submit_read(h3, 0, 64, lambda r: finish.setdefault("s3", net.now))
    net.run_until(net.now + 3000)
    assert finish["s3"] < finish["s1"]
    assert finish["s1"] - finish["s3"] >= 150


def test_local_requests_unaffected_by_slow_device():
    net, mux, _ = build_cluster([temp_sensor(1, 1.0)], latency=1,
                                mux_cfg=MuxConfig(fallback_ticks=2000))
    net.set_link(mux.eid, "s1", LinkModel(latency=200), both_ways=True)
    client = make_client(net)
    h1 = client.open_path(mux_ref(mux), "sensors/s1/reading")
    client.submit_read(h1, 0, 64, lambda r: None)
    t0 = net.now
    st = client.stat(mux_ref(mux), "ctl")      # local node, independent
    assert st.name == "ctl"
    assert net.now - t0 <= 10                  # a few 1-tick round trips


def test_fid_isolation_two_clients_same_file():
    net, mux, _ = build_cluster([temp_sensor(1, 5.0)])
    c1 = make_client(net, name="c1")
    c2 = make_client(net, name="c2")
    h1 = c1.open_path(mux_ref(mux), "sensors/s1/reading")
    h2 = c2.open_path(mux_ref(mux), "sensors/s1/reading")
    assert c1.read_at(h1, 0) == b"5.000000\n"
    assert c2.read_at(h2, 0) == b"5.000000\n"
    c1.close(h1)                               # clunking one...
    assert c2.read_at(h2, 0) == b"5.000000\n"  # ...never disturbs the other


def test_device_side_fids_distinct():
    net, mux, _ = build_cluster([temp_sensor(1, 5.0)])
    client = make_client(net)
    h1 = client.open_path(mux_ref(mux), "sensors/s1/reading")
    h2 = client.open_path(mux_ref(mux), "sensors/s1/reading")
    client.read_at(h1, 0)
    client.read_at(h2, 0)
    session = mux.sessions[client.eid]
    dfids = [mux.relayed.get(session.fids[h["fid"]]) for h in (h1, h2)]
    assert None not in dfids and dfids[0] != dfids[1]


def test_pending_table_bound():
    net, mux, _ = build_cluster([temp_sensor(1, 1.0)], latency=1,
                                mux_cfg=MuxConfig(fallback_ticks=5000))
    net.set_link(mux.eid, "s1", LinkModel(latency=1000), both_ways=True)
    client = make_client(net)
    h = client.open_path(mux_ref(mux), "sensors/s1/reading")
    replies = []
    for _ in range(40):
        client.submit_read(h, 0, 16, replies.append)
    net.run_until(net.now + 40)
    from sensefs.wire import Rerror
    busy = [r for r in replies if isinstance(r, Rerror) and r.ename == "busy"]
    assert busy, "overflowing the pending table must surface as busy"


# -- cache -----------------------------------------------------------------

def sleeping_read(ttl, age):
    """Warm the (s1, reading) cache, force the device asleep, age the entry,
    then read through the mux.  Returns (payload or ClientError, log text)."""
    net, mux, states = build_cluster(
        [temp_sensor(1, 20.9)], latency=1,
        mux_cfg=MuxConfig(ttl=ttl, fallback_ticks=5, reprobe_ticks=10 ** 6))
    client = make_client(net)
    assert client.read(mux_ref(mux), "sensors/s1/reading") == b"20.900000\n"
    stamp = mux.cache[("s1", "reading")][1]
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


def test_registered_median_against_oracle():
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

        mux.register_aggregation("median", median)
        client = make_client(net)
        line = client.read(mux_ref(mux), "aggrData/medT").splitlines()[0]
        assert line.decode() == "%.6f" % median(list(values.values()))[0]


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
        latency=1, mux_cfg=MuxConfig(ttl=0, aggregate_timeout=10),
        aggregates=[AggregateSpec("avgT", "avg")])
    mux.cache.clear()
    states["s2"].set_power(net.now, "asleep")
    client = make_client(net)
    data = client.read(mux_ref(mux), "aggrData/avgT").decode()
    assert data.splitlines() == ["20.000000", "# n=2/3"]


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


def test_retag_moves_sensor_on_next_enumeration():
    net, mux, states = build_cluster(
        [temp_sensor(1, 1.0, tags={"animal": "snake"}),
         temp_sensor(2, 2.0, tags={"animal": "snake"})],
        mux_cfg=MuxConfig(reprobe_ticks=50),
        groups=[GroupSpec("snakes", "animal", "snake")])
    client = make_client(net)
    assert len(client.ls(mux_ref(mux), "groups/snakes")) == 2
    states["s2"].tags["animal"] = "bird"
    net.run_until(net.now + 120)     # let a re-probe refresh the metadata
    names = [s.name for s in client.ls(mux_ref(mux), "groups/snakes")]
    assert names == ["s1"]


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
    value, stamp = mux.cache[("s1", "reading")]
    assert value == b"7.500000\n"
    assert net.now - stamp <= 15
