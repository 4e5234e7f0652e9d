"""Namespace and view tests: mounts, cells, bands, planning, emergencies."""

import pytest
from hypothesis import given, settings, strategies as st

from sensefs import fscore
from sensefs.client import ClientError
from sensefs.devicefs import parse_info, parse_infos
from sensefs.muxfs import MuxConfig
from sensefs.scenario import Simulation, load_scenario_file, parse_scenario
from sensefs.shell import Shell
from sensefs.simnet import LinkModel
from sensefs.views import (
    EMERGENCY_ROOT, GeoMap, NamespaceTable, PlanError, Region, SensorInfo, TaskPlan,
    build_location_view, build_logical_view, build_resource_view,
    cell_label, dir_entries, energy_band, execute_plan,
    make_responder, norm_path, parse_answer, plan_query, raise_alert, read_members,
    read_paths, scan_sensors,
)

from conftest import ZOO, build_cluster, device_fid_files, make_client, temp_sensor


def device_frames(net, since, devices):
    """Frames sent to or from any of devices after log line since."""
    return sum(1 for line in net.log.lines[since:]
               if line.split("\t")[1] == "send" and devices & set(line.split("\t")[2:4]))


# -- mount table -------------------------------------------------------------

def test_norm_path():
    assert norm_path("/a//b/./c/") == "/a/b/c"
    assert norm_path("") == "/"


def test_norm_path_from_a_working_directory():
    assert norm_path("c/../d", "/a/b") == "/a/b/d"
    assert norm_path("..", "/a/b") == "/a"
    assert norm_path("../../..", "/a") == "/"
    assert norm_path("/x/./y/..", "/a") == "/x"
    assert norm_path("", "/a/b/") == "/a/b"


def test_resolve_basic():
    table = NamespaceTable()
    table.mount("/network/cluster1", "mux1")
    ref, rel = table.resolve("/network/cluster1/sensors/s1/reading")
    assert ref == "mux1" and rel == "sensors/s1/reading"
    ref, rel = table.resolve("/network/cluster1")
    assert rel == ""


def test_resolve_not_found():
    table = NamespaceTable()
    with pytest.raises(ClientError, match="not found"):
        table.resolve("/nowhere")


def test_later_mounts_shadow_earlier():
    table = NamespaceTable()
    table.mount("/n", "old")
    table.mount("/n", "new")
    assert table.resolve("/n/x")[0] == "new"


def test_mount_children_synthesizes_directories():
    table = NamespaceTable()
    table.mount("/federation/a", "ma")
    table.mount("/federation/b", "mb")
    assert table.mount_children("/federation") == ["a", "b"]
    assert table.mount_children("/") == ["federation"]


def test_resolution_is_pure():
    table = NamespaceTable()
    table.mount("/n/a", "ma")
    table.mount("/n/a/b", "mb")
    first = table.resolve("/n/a/b/f")
    assert first == ("mb", "f")
    assert all(table.resolve("/n/a/b/f") == first for _ in range(5))


# -- cells --------------------------------------------------------------------

CELL_CASES = [      # (degrees, cell width, label)
    (-54.2, 1, "54W"), (-54.0, 1, "54W"), (-53.999, 1, "53W"),
    (0.0, 1, "0E"), (0.5, 1, "0E"), (-0.5, 1, "0W"),
    (35.7, 1, "35N"), (35.0, 1, "35N"), (34.999, 1, "34N"),
    # a fractional cell is named by its edge, and float error does not
    # move a value on an edge (0.3 / 0.1 is 2.9999999999999996)
    (0.2, 0.5, "0E"), (0.7, 0.5, "0.5E"), (-0.7, 0.5, "0.5W"), (35.7, 0.25, "35.5N"),
    (0.3, 0.1, "0.3E"), (0.29, 0.1, "0.2E"), (-54.2, 2, "54W"),
]


@pytest.mark.parametrize("deg,cell,expect", CELL_CASES, ids=[
    "%s-%s" % (deg, expect) if cell == 1 else "%s-cell%s-%s" % (deg, cell, expect)
    for deg, cell, expect in CELL_CASES])
def test_cell_label_boundaries(deg, cell, expect):
    pos, neg = ("E", "W") if expect[-1] in "EW" else ("N", "S")
    assert cell_label(deg, pos, neg, cell) == expect


def test_geo_map():
    geo = GeoMap(origin_lon=-54.9, origin_lat=35.1, m_per_deg=111000.0)
    lon, lat = geo.lonlat((111000.0, 0.0))
    assert abs(lon - (-53.9)) < 1e-9 and abs(lat - 35.1) < 1e-9


def test_region_contains():
    r = Region("r", 0, 0, 100, 100)
    assert r.contains((0, 0)) and r.contains((100, 100)) and r.contains((50, 7))
    assert not r.contains((101, 50)) and not r.contains(None)


# -- a small wired namespace for the view tests ------------------------------

def wired(sensors=None, **kw):
    sensors = sensors or [
        temp_sensor(1, 20.0, tags={"animal": "snake"},
                    position=(10.0, 20.0)),
        temp_sensor(2, 22.0, tags={"animal": "zebra"},
                    position=(150.0, 50.0)),
        dict(id="s3", kind="position", position=(70.0, 30.0),
             tags={"animal": "lion"}),
    ]
    net, mux, states = build_cluster(sensors, **kw)
    client = make_client(net)
    table = NamespaceTable()
    table.mount("/network/c", ("net", mux.eid))
    return net, mux, states, client, table


def test_dir_names_merges_mounts_and_listings():
    net, mux, states, client, table = wired()
    assert dir_entries(client, table, "/network") == {"c": None}
    entries = dir_entries(client, table, "/network/c")
    assert list(entries) == ["sensors", "aggrData", "groups", "ctl"]
    assert entries["sensors"].qid.is_dir and not entries["ctl"].qid.is_dir
    with pytest.raises(ClientError, match="not found"):
        dir_entries(client, table, "/bogus")


def test_scan_sensors_reads_info():
    net, mux, states, client, table = wired()
    infos = {i.id: i for i in scan_sensors(client, table)}
    assert set(infos) == {"s1", "s2", "s3"}
    assert infos["s1"].kind == "temperature"
    assert infos["s1"].tags == {"animal": "snake"}
    assert infos["s1"].position == (10.0, 20.0)
    assert infos["s3"].kind == "position"
    assert infos["s1"].cluster == "c"


def test_location_view_cells_and_regions():
    net, mux, states, client, table = wired()
    geo = GeoMap(origin_lon=-54.9, origin_lat=35.1)
    region = Region("region-10", 0, 0, 100, 100)
    view = build_location_view(client, table, geo, regions=[region])
    vref = ("local", view)
    cells = [s.name for s in client.ls(vref, "")]
    # all three sensors fall inside one degree cell of the origin
    assert cells == ["54W", "region-10"]
    assert [s.name for s in client.ls(vref, "54W")] == ["35N"]
    members = [s.name for s in client.ls(vref, "54W/35N")]
    assert members == ["s1", "s2", "s3", "data"]
    # region-10 excludes s2 at x=150
    in_region = [s.name for s in client.ls(vref, "region-10")]
    assert in_region == ["s1", "s3", "data"]
    # member entries resolve back into the structural view
    path = client.read(vref, "region-10/s1").decode().strip()
    assert path == "/network/c/sensors/s1"
    ref, rel = table.resolve(path + "/reading")
    assert client.read(ref, rel) == b"20.000000\n"


def test_walk_into_a_view_cell_sends_no_device_frame():
    # the walk still runs the root's children_fn, which reads one ctl per
    # cluster and no sensor's info, and a head whose members are all found
    # sends nothing of its own
    net, mux, states, client, table = wired()
    view = build_location_view(client, table, GeoMap(origin_lon=-54.9, origin_lat=35.1))
    since = len(net.log.lines)
    assert [s.name for s in client.ls(("local", view), "54W/35N")] == \
        ["s1", "s2", "s3", "data"]
    assert device_frames(net, since, set(states)) == 0


def test_location_data_file_joins_readings():
    net, mux, states, client, table = wired()
    geo = GeoMap(origin_lon=-54.9, origin_lat=35.1)
    view = build_location_view(client, table, geo)
    data = client.read(("local", view), "54W/35N/data").decode()
    assert data.splitlines() == ["20.000000", "22.000000",
                                 "70.000000 30.000000"]


def test_logical_view_pluralizes_tag_values():
    net, mux, states, client, table = wired()
    view = build_logical_view(client, table, tag_key="animal")
    vref = ("local", view)
    kinds = [s.name for s in client.ls(vref, "")]
    assert sorted(kinds) == ["position", "temperature"]
    groups = [s.name for s in client.ls(vref, "temperature")]
    assert sorted(groups) == ["snakes", "zebras"]
    assert [s.name for s in client.ls(vref, "temperature/snakes")] == ["s1"]
    assert [s.name for s in client.ls(vref, "position/lions")] == ["s3"]


def test_energy_band():
    assert energy_band(5, 10, 100) == "low"
    assert energy_band(10, 10, 100) == "medium"
    assert energy_band(99.9, 10, 100) == "medium"
    assert energy_band(100, 10, 100) == "high"
    assert energy_band(None, 10, 100) == "unknown"


def test_resource_view_bands():
    net, mux, states, client, table = wired([
        temp_sensor(1, 1.0, energy_j=5.0),
        temp_sensor(2, 2.0, energy_j=50.0),
        temp_sensor(3, 3.0, energy_j=500.0),
    ])
    view = build_resource_view(client, table, 10.0, 100.0)
    vref = ("local", view)
    assert [s.name for s in client.ls(vref, "energy/low")] == ["s1"]
    assert [s.name for s in client.ls(vref, "energy/medium")] == ["s2"]
    assert [s.name for s in client.ls(vref, "energy/high")] == ["s3"]
    assert client.ls(vref, "energy/unknown") == []
    with pytest.raises(ValueError):
        build_resource_view(client, table, 100.0, 10.0)


def test_resource_view_rebands_as_energy_drains():
    net, mux, states, client, table = wired([
        temp_sensor(1, 1.0, energy_j=50.0),
    ], mux_cfg=MuxConfig(ttl=100, reprobe_ticks=10 ** 6))
    view = build_resource_view(client, table, 10.0, 100.0)
    vref = ("local", view)
    assert [s.name for s in client.ls(vref, "energy/medium")] == ["s1"]
    stamp = mux.links["s1"].cache["remaining-energy"][1]
    states["s1"].energy_j = 4.0
    # within the ttl the head answers with the energy it read: the old
    # band, and no device frame
    since = len(net.log.lines)
    assert client.ls(vref, "energy/low") == []
    assert [s.name for s in client.ls(vref, "energy/medium")] == ["s1"]
    assert device_frames(net, since, {"s1"}) == 0
    # once the ttl has passed, the head reads the device: the new band, for
    # one Tread and its Rread
    net.run_until(stamp + 101)
    since = len(net.log.lines)
    assert [s.name for s in client.ls(vref, "energy/low")] == ["s1"]
    assert device_frames(net, since, {"s1"}) == 2
    assert client.ls(vref, "energy/medium") == []


def test_resource_band_listing_reads_each_info_once(monkeypatch):
    """A band listing reads no member index (ctl) and no info file: it
    sends its head one query, naming no member, and the answer lists
    every member."""
    net, mux, states, client, table = wired([
        temp_sensor(i, 1.0, energy_j=50.0) for i in range(1, 4)])
    view = build_resource_view(client, table, 10.0, 100.0)
    reads, writes = [], []
    real_read, real_read_many, real_write_many = client.read, client.read_many, client.write_many

    def counting_read(ref, path, *args, **kw):
        if ref[0] == "net":
            reads.append(path)
        return real_read(ref, path, *args, **kw)

    def counting_read_many(targets):
        reads.extend(path for _, path in targets)
        return real_read_many(targets)

    def counting_write_many(targets, answer=False):
        writes.extend((ref, path, data, answer) for ref, path, data in targets)
        return real_write_many(targets, answer)

    monkeypatch.setattr(client, "read", counting_read)
    monkeypatch.setattr(client, "read_many", counting_read_many)
    monkeypatch.setattr(client, "write_many", counting_write_many)
    assert [s.name for s in client.ls(("local", view), "energy/medium")] == \
        ["s1", "s2", "s3"]
    assert reads == []
    assert writes == [(("net", mux.eid), "ctl", b"read remaining-energy", True)]
    assert client.ls(("local", view), "energy/low") == []
    assert reads == []
    assert len(writes) == 2 and writes[1] == writes[0]


def test_resource_view_over_a_hundred_members(monkeypatch):
    # a listing asks the head one query for every member's energy, so the
    # client's session on the head holds its root and one ctl fid at most,
    # and each member holds the head's remaining-energy fid alone, and no
    # root
    net, mux, states, client, table = wired(
        [temp_sensor(i, 1.0, energy_j=(5.0, 50.0, 500.0)[i % 3]) for i in range(100)])
    view = build_resource_view(client, table, 10.0, 100.0)
    peak = [0]
    real_bind = fscore.Session.bind

    def bind(session, fid, node, uname):
        ent = real_bind(session, fid, node, uname)
        if mux.sessions.get(client.eid) is session:
            peak[0] = max(peak[0], len(session.fids))
        return ent

    monkeypatch.setattr(fscore.Session, "bind", bind)
    for i, band in enumerate(("low", "medium", "high")):
        assert [s.name for s in client.ls(("local", view), "energy/" + band)] == \
            ["s%d" % j for j in range(100) if j % 3 == i]
    assert client.ls(("local", view), "energy/unknown") == []
    assert peak[0] == 2
    for dev in states:
        assert device_fid_files(net, dev) == [("mux", "remaining-energy")]


def test_unreachable_member_alone_is_unknown():
    net, mux, states, client, table = wired([
        temp_sensor(i, 1.0, energy_j=50.0) for i in range(1, 5)])
    states["s2"].power_override = "asleep"
    view = build_resource_view(client, table, 10.0, 100.0)
    assert [s.name for s in client.ls(("local", view), "energy/medium")] == \
        ["s1", "s3", "s4"]
    assert [s.name for s in client.ls(("local", view), "energy/unknown")] == ["s2"]


def test_asleep_member_keeps_its_band_within_the_ttl():
    net, mux, states, client, table = wired(
        [temp_sensor(i, 1.0, energy_j=50.0) for i in range(1, 3)],
        mux_cfg=MuxConfig(ttl=200, reprobe_ticks=10 ** 6))
    view = build_resource_view(client, table, 10.0, 100.0)
    assert [s.name for s in client.ls(("local", view), "energy/medium")] == ["s1", "s2"]
    states["s2"].set_power(net.now, "asleep")
    since, t0 = len(net.log.lines), net.now
    # the head answers for both members from the energy it read a moment
    # ago: no device frame, and no fallback wait for the asleep s2
    assert [s.name for s in client.ls(("local", view), "energy/medium")] == ["s1", "s2"]
    cached = [line.split("\t")[3:] for line in net.log.lines[since:] if "\tmux-query\t" in line]
    assert cached == [[sid, "path=remaining-energy cached=1"] for sid in ("s1", "s2")]
    assert device_frames(net, since, {"s1", "s2"}) == 0
    assert net.now - t0 < 100
    net.run_until(net.now + 200)
    # past the ttl s2 answers `!device unreachable`: unknown, in no other band
    assert [s.name for s in client.ls(("local", view), "energy/unknown")] == ["s2"]
    assert [s.name for s in client.ls(("local", view), "energy/medium")] == ["s1"]


def test_band_entry_walk_is_answered_within_the_ttl():
    # a walk to a band entry asks the head again; within the ttl the head
    # answers from the energy it read for the listing, so an entry just
    # listed is found with no device frame and no fallback wait (1000 ticks)
    net, mux, states, client, table = wired(
        [temp_sensor(i, 1.0, energy_j=50.0) for i in range(1, 3)],
        mux_cfg=MuxConfig(ttl=200, reprobe_ticks=10 ** 6))
    vref = ("local", build_resource_view(client, table, 10.0, 100.0))
    assert [s.name for s in client.ls(vref, "energy/medium")] == ["s1", "s2"]
    states["s2"].set_power(net.now, "asleep")
    since, t0 = len(net.log.lines), net.now
    assert client.read(vref, "energy/medium/s2") == b"/network/c/sensors/s2\n"
    assert device_frames(net, since, {"s1", "s2"}) == 0
    assert net.now - t0 < 100


def sequential_band_listing(client, table):
    """A band listing as it was before batches: the scan, then one blocking
    read of each sensor's remaining-energy after the other."""
    for info in scan_sensors(client, table):
        ref, rel = table.resolve(info.path + "/remaining-energy")
        client.read(ref, rel)


def test_zoo_band_listing_ticks():
    # the shipped zoo: once its members are found, the heads send nothing
    # of their own, so every tick counted is the listing's
    ticks = []
    for listing in ("ls /resource/energy/low", None):
        sim = load_scenario_file(ZOO)
        sim.start()
        shell = Shell(sim)
        shell.run_line("mount /dev/network /network")
        shell.run_line("view build resource")
        t0 = sim.net.now
        if listing:
            assert shell.run_line(listing) == (0, "s4\ns5")
        else:
            sequential_band_listing(shell.client, shell.table)
        ticks.append(sim.net.now - t0)
    # two heads, 3-tick links: one energy query per head at once, naming
    # no member, with no member-index read before it: attach, walk, open,
    # write, read and end-of-file read of ctl, whose fid is kept open; the
    # query's first read of remaining-energy attaches, walks, opens and reads
    assert ticks == [60, 630]


def test_band_listing_skips_a_device_mounted_under_the_root():
    net, mux, states, client, table = wired([
        temp_sensor(i, 1.0, energy_j=50.0) for i in range(1, 4)])
    table.mount("/network/s1", ("net", "s1"))      # a device, not a head: no ctl
    vref = ("local", build_resource_view(client, table, 10.0, 100.0))
    assert list(dir_entries(client, table, "/network")) == ["c", "s1"]
    assert [i.path for i in scan_sensors(client, table)] == \
        ["/network/c/sensors/s%d" % i for i in range(1, 4)]
    assert [s.name for s in client.ls(vref, "energy/medium")] == ["s1", "s2", "s3"]
    assert client.read(vref, "energy/medium/s1") == b"/network/c/sensors/s1\n"
    assert client.ls(vref, "energy/unknown") == []


# two heads on 2-tick links; each head's members are listed in member
# order (the order of their sections), which is not the order of their ids
TWO_HEADS = """
[scenario]
reprobe = 1000000
[link]
latency = 2
[cluster b]
[cluster a]
""" + "".join("""
[sensor %s]
cluster = %s
kind = temperature
position = %d 10
energy = %s
source = constant 20
""" % spec for spec in [("s5", "b", 10, 500), ("s1", "b", 20, 50), ("s9", "b", 30, 500),
                        ("s4", "a", 40, 500), ("s2", "a", 50, 5), ("s3", "a", 60, 500)]) + """
[region r]
rect = 0 0 100 100
"""


def two_heads():
    sim = Simulation(parse_scenario(TWO_HEADS))
    sim.start()
    shell = Shell(sim)
    assert shell.run_line("mount /dev/network /network") == (0, "")
    return sim, shell


def test_band_listing_member_order_across_two_heads():
    sim, shell = two_heads()
    assert shell.run_line("ls /network") == (0, "b\na")
    assert shell.run_line("view build resource") == (0, "")
    assert shell.run_line("ls /resource/energy/high") == (0, "s5\ns9\ns4\ns3")
    assert shell.run_line("ls /resource/energy/medium") == (0, "s1")
    assert shell.run_line("ls /resource/energy/low") == (0, "s2")
    assert [i.id for i in scan_sensors(shell.client, shell.table)] == \
        ["s5", "s1", "s9", "s4", "s2", "s3"]
    assert shell.run_line("cat /resource/energy/high/s4") == (0, "/network/a/sensors/s4")


def test_zoo_location_data_frame_cost():
    # the shipped zoo: once its members are found, the heads send nothing
    # of their own, so the frames counted are the cat's own
    sim = load_scenario_file(ZOO)
    sim.start()
    shell = Shell(sim)
    shell.run_line("mount /dev/network /network")
    shell.run_line("view build location")
    since = len(sim.net.log.lines)
    assert shell.run_line("cat /location/region-10/data") == (
        0, "20.900000\n22.300000\n24.100000\n70.000000 30.000000\n21.700000\n19.500000")
    # the walk's scan reads each head's ctl (10 frames each: attach, walk,
    # open, read and end-of-file read); one query to the members' head is
    # 10 client frames (walk, open, write, read and end-of-file read), and
    # it reads each of the six members in 8 device frames (attach, walk,
    # open, read)
    assert device_frames(sim.net, since, {shell.client.eid}) == 2 * 10 + 10
    assert device_frames(sim.net, since, set(sim.states)) == 6 * 8
    assert sum(1 for line in sim.net.log.lines[since:]
               if line.split("\t")[1] == "send") == 78


def quiet_zoo():
    """The shipped zoo, its members all found, so its heads send nothing of
    their own, mounted at /network in a shell."""
    sim = load_scenario_file(ZOO)
    sim.start()
    shell = Shell(sim)
    shell.run_line("mount /dev/network /network")
    return sim, shell


def test_zoo_discovery_leaves_no_fid_on_any_device():
    sim, _ = quiet_zoo()
    for dev in sim.states:
        assert device_fid_files(sim.net, dev) == []


def test_zoo_second_band_listing_reads_each_member_once():
    # the first listing opens remaining-energy on every member and keeps
    # it open; the second, within the ttl, is answered from the heads'
    # copies: a Twrite, a Tread and an end-of-file Tread over each head's
    # kept ctl fid; once the ttl has passed, the next reads each member
    # over the head's kept fid: Tread and Rread
    sim, shell = quiet_zoo()
    shell.run_line("view build resource")
    assert shell.run_line("ls /resource/energy/low") == (0, "s4\ns5")
    since, t0 = len(sim.net.log.lines), sim.net.now
    assert shell.run_line("ls /resource/energy/low") == (0, "s4\ns5")
    assert sim.net.now - t0 == 18
    assert device_frames(sim.net, since, {shell.client.eid}) == 2 * 6
    assert device_frames(sim.net, since, set(sim.states)) == 0
    shell.run_line("tick 30")
    since, t0 = len(sim.net.log.lines), sim.net.now
    assert shell.run_line("ls /resource/energy/low") == (0, "s4\ns5")
    assert sim.net.now - t0 == 24
    assert device_frames(sim.net, since, set(sim.states)) == 2 * len(sim.states)


def test_zoo_second_listing_and_plan_walk_open_and_clunk_nothing():
    # each head's ctl fids, kept open per mode by the first band listing and
    # plan (index read, question, rate command), carry the second ones
    sim, shell = quiet_zoo()
    shell.run_line("view build resource")
    heads = set(sim.cfg.clusters.values())
    for line in ("ls /resource/energy/low", "plan region-10 4 avg 50"):
        first = shell.run_line(line)
        assert first[0] == 0
        since = len(sim.net.log.lines)
        assert shell.run_line(line) == first
        sent = [fields[4].split()[0]
                for fields in (rec.split("\t") for rec in sim.net.log.lines[since:])
                if fields[1:3] == ["send", shell.client.eid] and fields[3] in heads]
        assert sent and not {"Tattach", "Twalk", "Topen", "Tclunk"} & set(sent)


def test_zoo_second_location_data_read_reads_each_member_once():
    sim, shell = quiet_zoo()
    shell.run_line("view build location")
    data = (0, "20.900000\n22.300000\n24.100000\n70.000000 30.000000\n21.700000\n19.500000")
    assert shell.run_line("cat /location/region-10/data") == data
    # within the ttl the head answers from its copies; over the kept ctl
    # fids, each head's index is a Tread and an end-of-file Tread, and the
    # query a Twrite and two Treads
    since = len(sim.net.log.lines)
    assert shell.run_line("cat /location/region-10/data") == data
    assert device_frames(sim.net, since, {shell.client.eid}) == 2 * 4 + 6
    assert device_frames(sim.net, since, set(sim.states)) == 0
    shell.run_line("tick 30")
    since = len(sim.net.log.lines)
    assert shell.run_line("cat /location/region-10/data") == data
    assert device_frames(sim.net, since, set(sim.states)) == 6 * 2


def lose_queries(sim, shell, name):
    """Drop every `read name ...` query the shell's client writes to a head."""
    send = sim.net.send

    def lose(src, dst, frame):
        if src != shell.client.eid or b"read %s " % name.encode() not in frame:
            send(src, dst, frame)

    sim.net.send = lose


def test_location_data_fails_when_a_query_is_lost():
    # the member indexes are read, then the query to the members' head is
    # lost: the data file fails with that error, not an empty status 0
    sim, shell = quiet_zoo()
    shell.run_line("view build location")
    lose_queries(sim, shell, "reading")
    assert shell.run_line("cat /location/region-10/data") == (1, "error: timeout")


def test_plan_fails_when_an_energy_query_is_lost():
    sim, shell = quiet_zoo()
    lose_queries(sim, shell, "remaining-energy")
    assert shell.run_line("plan region-10 4 avg 50") == (1, "error: timeout")


def test_member_error_line_does_not_fail_the_data_file():
    # s3 is asleep past the ttl: its head answers `s3 !device unreachable`,
    # and the data file lists the other members' readings
    sim, shell = quiet_zoo()
    shell.run_line("view build location")
    assert shell.run_line("write /network/cluster1/sensors/s3/control sleep") == (0, "")
    shell.run_line("tick 40")
    assert shell.run_line("cat /location/region-10/data") == (
        0, "20.900000\n24.100000\n70.000000 30.000000\n21.700000\n19.500000")


# -- the member index ----------------------------------------------------------

def per_sensor_scan(client, table):
    """scan_sensors as it was before the member index: list each cluster's
    sensors/ and read every sensor's info through its head."""
    infos = []
    for cluster in dir_entries(client, table, "/network"):
        base = "/network/%s/sensors" % cluster
        for sid in dir_entries(client, table, base):
            ref, rel = table.resolve("%s/%s/info" % (base, sid))
            meta = parse_info(client.read(ref, rel).decode())
            infos.append(SensorInfo(sid, cluster, "%s/%s" % (base, sid), meta["kind"],
                                    meta["tags"], meta["position"]))
    return infos


_LINE = st.text(st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)),
                max_size=12)
_WORD = st.text(st.characters(blacklist_characters=" \n", blacklist_categories=("Cs",)),
                max_size=6)
_SPACED = st.lists(_LINE, min_size=2, max_size=3).map(" ".join)
_COORD = st.floats(-1e6, 1e6).map(lambda v: float("%.6f" % v))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(_SPACED, st.dictionaries(_WORD, _SPACED, max_size=3),
                          st.tuples(_COORD, _COORD)),
                min_size=1, max_size=3))
def test_member_index_matches_each_sensors_info(members):
    net, mux, states, client, table = wired([
        dict(id="s%d" % i, kind=kind, tags=tags, position=position)
        for i, (kind, tags, position) in enumerate(members, 1)])
    index = parse_infos(client.read(("net", mux.eid), "ctl").decode())
    assert index == [link.meta for link in mux.links.values()]
    assert scan_sensors(client, table) == per_sensor_scan(client, table)


def test_scan_keeps_a_sleeping_member_from_the_index():
    net, mux, states, client, table = plan_cluster()
    states["s1"].set_power(net.now, "asleep")
    since, t0 = len(net.log.lines), net.now
    infos = {i.id: i for i in scan_sensors(client, table)}
    assert device_frames(net, since, set(states)) == 0
    assert net.now - t0 < mux.cfg.fallback_ticks
    assert (infos["s1"].kind, infos["s1"].position) == ("temperature", (10.0, 20.0))
    plan = plan_query(client, table, [Region("region-10", 0, 0, 100, 100)],
                      "region-10", coverage=3)
    assert plan.selected == ["s3", "s6", "s7"]
    assert "s1 excluded energy-unknown\n" in plan.render()


def test_zoo_scan_frame_cost():
    # the shipped zoo, re-probe period 100: once its members are found, the
    # heads send nothing of their own, so the frames counted are the scan's
    with open(ZOO) as fh:
        text = fh.read()
    assert "\nreprobe = 100\n" in text
    sim = Simulation(parse_scenario(text))
    sim.start()
    client = sim.new_client()
    table = NamespaceTable()
    for cluster, head in sim.cfg.clusters.items():
        table.mount("/network/%s" % cluster, ("net", head))
    since = len(sim.net.log.lines)
    infos = scan_sensors(client, table)
    assert len(infos) == len(sim.states) == 10
    assert device_frames(sim.net, since, set(sim.states)) == 0
    # per cluster head: attach, walk, open, read and end-of-file read of
    # ctl, each a T- and an R-message; the fid stays open, so a rescan is
    # the read and the end-of-file read alone
    assert device_frames(sim.net, since, {client.eid}) == 10 * len(sim.cfg.clusters) == 20
    since = len(sim.net.log.lines)
    assert scan_sensors(client, table) == infos
    assert device_frames(sim.net, since, {client.eid}) == 4 * len(sim.cfg.clusters)


# -- the view builder ------------------------------------------------------------

def _ref_entry(sid, path):
    return fscore.make_file(sid, 0o444,
                            read=lambda: (path + "\n").encode())


def _ref_data_file(client, table, members):
    def read():
        readings = read_members(client, table, members, "reading")
        return b"".join(r + b"\n" for r in readings if r is not None)

    return fscore.make_file("data", 0o444, read=read)


def _ref_server(root_node):
    return fscore.Server(root_node, fscore.UserDb({"admin": {"admin"}}),
                         name=root_node.name, max_sessions=8)


def reference_location_view(client, table, geo, regions=(), cell=1.0):
    """build_location_view as it was before the one view builder: each
    level a hand-nested children_fn."""
    make_dir = fscore.make_dir

    def top_children():
        infos = [i for i in scan_sensors(client, table) if i.position]
        cells = {}
        for info in infos:
            lon, lat = geo.lonlat(info.position)
            lon_label = cell_label(lon, "E", "W", cell)
            lat_label = cell_label(lat, "N", "S", cell)
            cells.setdefault(lon_label, {}).setdefault(lat_label, []).append(info)
        out = []
        for lon_label, lats in cells.items():
            def lon_children(lats=lats):
                dirs = []
                for lat_label, members in lats.items():
                    def cell_children(members=members):
                        nodes = [_ref_entry(i.id, i.path) for i in members]
                        nodes.append(_ref_data_file(client, table, members))
                        return nodes
                    dirs.append(make_dir(lat_label, 0o555, children_fn=cell_children))
                return dirs
            out.append(make_dir(lon_label, 0o555, children_fn=lon_children))
        for region in regions:
            def region_children(region=region, infos=infos):
                members = [i for i in infos if region.contains(i.position)]
                nodes = [_ref_entry(i.id, i.path) for i in members]
                nodes.append(_ref_data_file(client, table, members))
                return nodes
            out.append(make_dir(region.name, 0o555, children_fn=region_children))
        return out

    return _ref_server(make_dir("location", 0o555, children_fn=top_children))


def reference_logical_view(client, table, tag_key="animal"):
    """build_logical_view as it was before the one view builder."""
    make_dir = fscore.make_dir

    def top_children():
        kinds = {}
        for info in scan_sensors(client, table):
            kinds.setdefault(info.kind, []).append(info)
        out = []
        for kind, members in kinds.items():
            def kind_children(members=members):
                values = {}
                for info in members:
                    value = info.tags.get(tag_key)
                    if value is not None:
                        values.setdefault(value, []).append(info)
                return [
                    make_dir(value + "s", 0o555,
                             children_fn=lambda ms=ms: [_ref_entry(i.id, i.path) for i in ms])
                    for value, ms in values.items()
                ]
            out.append(make_dir(kind, 0o555, children_fn=kind_children))
        return out

    return _ref_server(make_dir("data", 0o555, children_fn=top_children))


def reference_resource_view(client, table, low_j, high_j):
    """build_resource_view as it was before the one view builder."""
    make_dir = fscore.make_dir

    def energy(value):
        if value is None:
            return None
        try:
            return float(value.split()[0])
        except (ValueError, IndexError):
            return None

    def band_children(band):
        def children():
            clusters = list(dir_entries(client, table, "/network"))
            answers = read_paths(client, table, ["/network/%s/ctl" % c for c in clusters],
                                 [b"read remaining-energy"] * len(clusters))
            return [_ref_entry(sid, "/network/%s/sensors/%s" % (cluster, sid))
                    for cluster, answer in zip(clusters, answers) if isinstance(answer, bytes)
                    for sid, value in parse_answer(answer)
                    if energy_band(energy(value), low_j, high_j) == band]
        return children

    energy_dir = make_dir("energy", 0o555)
    for band in ("low", "medium", "high", "unknown"):
        energy_dir.add(make_dir(band, 0o555, children_fn=band_children(band)))
    root_node = make_dir("resource", 0o555)
    root_node.add(energy_dir)
    return _ref_server(root_node)


REFERENCE_VIEWS = (reference_location_view, reference_logical_view, reference_resource_view)
SHIPPED_VIEWS = (build_location_view, build_logical_view, build_resource_view)

# cells 1W, 0E and 1E in longitude, 0S, 0N and 1N in latitude, at 111 km a degree
_X = st.sampled_from([-150000.0, 1000.0, 20000.0, 200000.0])
_Y = st.sampled_from([-50000.0, 3000.0, 130000.0])
_DEPLOYED_SENSOR = st.tuples(
    st.sampled_from(["a", "b"]),                                # cluster
    st.sampled_from(["temperature", "humidity", "light"]),      # kind
    st.one_of(st.none(), st.tuples(_X, _Y)),                    # position
    st.sampled_from([None, "lion", "zebra"]),                   # animal tag
    st.sampled_from([5, 50, 500]),                              # energy: low, medium, high
)
# regions over the cells above; the last holds no sensor
_RECTS = [(-200000, -60000, 0, 200000), (0, 0, 30000, 5000), (10 ** 7, 10 ** 7, 10 ** 8, 10 ** 8)]


def deployment_text(sensors, regions):
    text = "[scenario]\nfallback = 40\n[link]\nlatency = 2\n[cluster a]\n[cluster b]\n"
    for i, (cluster, kind, position, tag, energy) in enumerate(sensors, 1):
        text += "[sensor s%d]\ncluster = %s\nkind = %s\nenergy = %d\nsource = constant %d\n" \
            % (i, cluster, kind, energy, 20 + i)
        if position is not None:
            text += "position = %r %r\n" % position
        if tag is not None:
            text += "tag animal = %s\n" % tag
    for name, rect in regions:
        text += "[region %s]\nrect = %d %d %d %d\n" % ((name,) + rect)
    return text


def browse(builders, text, asleep):
    """Mount the three views the builders make on a fresh simulation of
    text, with sensor asleep (if any) gone to sleep, and list every view
    directory with `ls -l` and cat every file in it.  Returns each
    command with its status, output, ticks and frames sent."""
    sim = Simulation(parse_scenario(text))
    sim.start()
    shell = Shell(sim)
    assert shell.run_line("mount /dev/network /network") == (0, "")
    location, logical, resource = builders
    cfg = sim.cfg
    shell.table.mount("/location", ("local", location(
        shell.client, shell.table, cfg.geo, cfg.regions, cfg.view_cell)))
    shell.table.mount("/data", ("local", logical(shell.client, shell.table, cfg.view_tag)))
    shell.table.mount("/resource", ("local", resource(
        shell.client, shell.table, cfg.view_low, cfg.view_high)))
    if asleep is not None:
        sim.states[asleep].set_power(sim.net.now, "asleep")
    steps = []

    def run(command):
        since, t0 = len(sim.net.log.lines), sim.net.now
        status, out = shell.run_line(command)
        sends = sum(1 for line in sim.net.log.lines[since:] if line.split("\t")[1] == "send")
        steps.append((command, status, out, sim.net.now - t0, sends))
        return status, out

    def walk(path):
        status, out = run("ls -l " + path)
        for line in out.splitlines() if status == 0 else ():
            mode, name = line.split()[0], line.split()[-1]
            if mode.startswith("d"):
                walk(path + "/" + name)
            else:
                run("cat %s/%s" % (path, name))

    for root in ("/location", "/data", "/resource"):
        walk(root)
    return steps, sim.net.log.text()


@settings(max_examples=20, deadline=None)
@given(st.lists(_DEPLOYED_SENSOR, min_size=1, max_size=5),
       st.lists(st.sampled_from(range(len(_RECTS))), max_size=3, unique=True),
       st.data())
def test_views_match_the_hand_nested_builders(sensors, rects, data):
    regions = [("r%d" % i, _RECTS[i]) for i in rects]
    asleep = data.draw(st.one_of(st.none(), st.integers(1, len(sensors)).map("s%d".__mod__)))
    text = deployment_text(sensors, regions)
    want, got = browse(REFERENCE_VIEWS, text, asleep), browse(SHIPPED_VIEWS, text, asleep)
    assert got[0] == want[0]
    assert got[1] == want[1]


def test_a_sensor_named_data_shadows_the_cells_data_file():
    # the first entry of a name wins, as it did when a walk looked it up
    text = deployment_text([("a", "temperature", (1000.0, 3000.0), "lion", 50)] * 2, [])
    text = text.replace("[sensor s1]", "[sensor data]")
    steps, log = browse(SHIPPED_VIEWS, text, None)
    assert (steps, log) == browse(REFERENCE_VIEWS, text, None)
    assert ("cat /location/0E/0N/data", 0, "/network/a/sensors/data") in \
        [step[:3] for step in steps]


# -- planning ------------------------------------------------------------------

def plan_cluster():
    sensors = [
        temp_sensor(1, 20.9, position=(10.0, 20.0), energy_j=999.0),
        temp_sensor(3, 22.3, position=(20.0, 40.0), energy_j=800.0),
        temp_sensor(4, 24.1, position=(30.0, 60.0), energy_j=5.0),
        dict(id="s5", kind="position", position=(70.0, 30.0), energy_j=8.0),
        temp_sensor(6, 21.7, position=(40.0, 80.0), energy_j=700.0),
        temp_sensor(7, 19.5, position=(50.0, 90.0), energy_j=600.0),
    ]
    return wired(sensors)


def plan_fixture():
    net, mux, states, client, table = plan_cluster()
    regions = [Region("region-10", 0, 0, 100, 100)]
    return net, client, table, regions


def test_plan_selects_high_energy_in_region():
    net, client, table, regions = plan_fixture()
    plan = plan_query(client, table, regions, "region-10", coverage=4)
    assert plan.selected == ["s1", "s3", "s6", "s7"]
    reasons = {sid: (inc, why) for sid, inc, why in plan.rationale}
    assert reasons["s4"] == (False, "low-energy")
    assert reasons["s5"] == (False, "low-energy")
    assert reasons["s1"][0] is True
    text = plan.render()
    assert text.startswith("selected: s1 s3 s6 s7\n")
    assert "s4 excluded low-energy" in text


def test_plan_coverage_unmet():
    net, client, table, regions = plan_fixture()
    with pytest.raises(PlanError, match=r"coverage unmet \(4<5\)"):
        plan_query(client, table, regions, "region-10", coverage=5)


def test_plan_empty_region():
    net, client, table, regions = plan_fixture()
    regions.append(Region("empty", 1000, 1000, 2000, 2000))
    with pytest.raises(PlanError, match="no sensors in region"):
        plan_query(client, table, regions, "empty", coverage=1)


def test_plan_unknown_region():
    net, client, table, regions = plan_fixture()
    with pytest.raises(PlanError, match="no such region"):
        plan_query(client, table, regions, "elsewhere", coverage=1)


def test_plan_unknown_aggregation_reads_and_writes_nothing():
    sim, shell = quiet_zoo()
    since = len(sim.net.log.lines)
    assert shell.run_line("plan region-10 4 bogus 10") == (
        1, "error: no such aggregation bogus")
    assert len(sim.net.log.lines) == since           # no frame, so no head tasked
    assert all(link.poll is None for mux in sim.muxes.values() for link in mux.links.values())


def test_plan_monotone_in_threshold():
    net, client, table, regions = plan_fixture()
    prev = None
    for low in (1.0, 6.0, 9.0, 650.0, 900.0, 1500.0):
        try:
            plan = plan_query(client, table, regions, "region-10",
                              coverage=0, low_j=low, high_j=low * 10)
            selected = set(plan.selected)
        except PlanError:
            selected = set()
        if prev is not None:
            assert selected <= prev, \
                "raising the low threshold must never add sensors"
        prev = selected


def test_execute_plan_tasks_clusters():
    net, client, table, regions = plan_fixture()
    plan = plan_query(client, table, regions, "region-10", coverage=4,
                      rate=10)
    execute_plan(client, table, plan)
    t0 = net.now
    net.run_until(t0 + 50)
    polled = {line.split("\t")[3] for line in net.log.lines
              if line.split("\t")[1] == "send"
              and line.split("\t")[4].startswith("Tread")
              and int(line.split("\t")[0]) > t0}
    assert {"s1", "s3", "s6", "s7"} <= polled
    assert "s4" not in polled and "s5" not in polled


def test_plan_over_two_clusters_tasks_both_heads_in_one_run():
    sim, shell = two_heads()
    client, table, net = shell.client, shell.table, sim.net
    plan = plan_query(client, table, sim.cfg.regions, "r", coverage=4, rate=50)
    assert plan.clusters == {"b": ["s5", "s1", "s9"], "a": ["s4", "s3"]}
    t0 = net.now
    execute_plan(client, table, plan)
    tasking = net.now - t0
    assert all(sim.muxes[c].links[m].poll is not None
               for c, members in plan.clusters.items() for m in members)
    assert sim.muxes["a"].links["s2"].poll is None
    # on 2-tick links, each head's ctl is walked, opened and written, and
    # its fid kept open; the same tasking again is one Twrite per head
    assert tasking == 12
    t0 = net.now
    execute_plan(client, table, plan)
    retasking = net.now - t0
    # the same command to one head alone takes as long as tasking both
    t0 = net.now
    ref, rel = table.resolve("/network/a/ctl")
    assert client.write_many([(ref, rel, b"rate 50 s4 s3")]) == [13]
    assert net.now - t0 == retasking == 4


def test_plan_refusal_is_the_error_and_other_heads_are_still_tasked():
    sim, shell = two_heads()
    client, table = shell.client, shell.table
    plan = TaskPlan(["s9", "s4"], {"b": ["bogus"], "a": ["s4"]}, "avg", 50, [])
    with pytest.raises(ClientError, match="unknown device bogus"):
        execute_plan(client, table, plan)
    assert sim.muxes["a"].links["s4"].poll is not None
    assert all(link.poll is None for link in sim.muxes["b"].links.values())
    # both refuse: the first head's refusal, in cluster order
    plan = TaskPlan([], {"b": ["x1"], "a": ["x2"]}, "avg", 50, [])
    with pytest.raises(ClientError, match="unknown device x1"):
        execute_plan(client, table, plan)


# -- emergency ------------------------------------------------------------------

def test_alert_fans_out_to_all_responders():
    net, mux, states, client, table = wired()
    for name in ("sms", "pager", "email"):
        server, received = make_responder(name)
        from sensefs.scenario import ServerEndpoint
        ServerEndpoint(net, name, server)
        table.mount("%s/%s" % (EMERGENCY_ROOT, name), ("net", name))
    delivered, failures = raise_alert(client, table, "gas leak detected")
    assert delivered == 3 and failures == []
    assert client.read(table.resolve(EMERGENCY_ROOT + "/sms/log")[0],
                       "log") == b"gas leak detected\n"


def test_alert_with_no_responders():
    net, mux, states, client, table = wired()
    assert raise_alert(client, table, "x") == (0, [])


def test_alert_partial_delivery_on_lossy_link():
    net, mux, states, client, table = wired()
    from sensefs.scenario import ServerEndpoint
    for name in ("sms", "pager", "email"):
        server, _ = make_responder(name)
        ServerEndpoint(net, name, server)
        table.mount("%s/%s" % (EMERGENCY_ROOT, name), ("net", name))
    net.set_link(client.eid, "pager", LinkModel(latency=1, loss=1.0))
    delivered, failures = raise_alert(client, table, "leak")
    assert delivered == 2
    assert [name for name, _ in failures] == ["pager"]
