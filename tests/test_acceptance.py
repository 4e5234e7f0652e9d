"""Acceptance suite: twelve end-to-end checks over the assembled system.

Each check prints one PASS/FAIL line (visible with `pytest -s` and in the
captured output of failing tests) and then asserts, so a red test always
corresponds to a FAIL line and vice versa.
"""

import hashlib
import io
import os
import random
import resource
import statistics
import struct
import time

import pytest

from conftest import (DATA_DIR, FACTORY, SCRIPT_DIR, ZOO, build_cluster,
                      make_client, open_fid, temp_sensor, walk_fid)
from sensefs import muxfs, wire
from sensefs.client import ClientError, FileClient
from sensefs.muxfs import AggregateSpec, MuxConfig
from sensefs.scenario import Simulation, load_scenario_file, parse_scenario
from sensefs.shell import Shell, run_script
from sensefs.devicefs import SensorState
from sensefs.simnet import DutyCycle, EnergyModel, LinkModel, Network
from sensefs.views import NamespaceTable, dir_entries, plan_query
from sensefs.wire import DMDIR, Qid, Stat


def report(num, name, ok, detail=""):
    line = "[%s] acceptance %02d %-24s %s" % ("PASS" if ok else "FAIL",
                                              num, name, detail)
    print(line)
    assert ok, line


def mux_ref(mux):
    return ("net", mux.eid)


def mount_network(sim):
    table = NamespaceTable()
    for cluster, head in sim.cfg.clusters.items():
        table.mount("/network/%s" % cluster, ("net", head))
    return table


def tree_listing(sim, client, table):
    """Recursive enumeration of /network, one absolute path per line."""
    lines = []

    def walk(path):
        lines.append(path)
        for name, st in dir_entries(client, table, path).items():
            child = path.rstrip("/") + "/" + name
            if st is None or st.mode & DMDIR:      # a mount point or a directory
                walk(child)
            else:
                lines.append(child)

    walk("/network")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# 1. codec soundness
# ----------------------------------------------------------------------

def random_message(rng):
    tag = rng.randrange(0, 0xFFFF)          # NOTAG excluded (invalid on T)
    fid = rng.randrange(0, 2 ** 32)
    u64 = lambda: rng.randrange(0, 2 ** 64)
    text = lambda n: "".join(chr(rng.randrange(32, 0x2FFF))
                             for _ in range(rng.randrange(0, n)))
    blob = lambda n: bytes(rng.randrange(256) for _ in range(rng.randrange(0, n)))
    qid = lambda: Qid(rng.choice((wire.QFILE, wire.QDIR)),
                      rng.randrange(0, 2 ** 32), u64())
    stat = lambda: Stat(text(16), qid(), rng.randrange(0, 2 ** 32), u64(),
                        text(8), text(8), u64())
    makers = (
        lambda: wire.Tattach(tag, fid, text(12), text(12)),
        lambda: wire.Rattach(tag, qid()),
        lambda: wire.Twalk(tag, fid, rng.randrange(0, 2 ** 32),
                           tuple(text(10) or "x"
                                 for _ in range(rng.randrange(0, wire.MAX_WALK + 1)))),
        lambda: wire.Rwalk(tag, tuple(qid() for _ in range(rng.randrange(0, 17)))),
        lambda: wire.Topen(tag, fid, rng.choice((wire.OREAD, wire.OWRITE, wire.ORDWR))),
        lambda: wire.Ropen(tag, qid(), rng.randrange(1, wire.IOUNIT + 1)),
        lambda: wire.Tread(tag, fid, u64(), rng.randrange(0, wire.IOUNIT + 1)),
        lambda: wire.Rread(tag, blob(1024)),
        lambda: wire.Twrite(tag, fid, u64(), blob(1024)),
        lambda: wire.Rwrite(tag, rng.randrange(0, 2 ** 32)),
        lambda: wire.Tclunk(tag, fid),
        lambda: wire.Rclunk(tag),
        lambda: wire.Tstat(tag, fid),
        lambda: wire.Rstat(tag, stat()),
        lambda: wire.Rerror(tag, text(64)),
    )
    return rng.choice(makers)()


def test_acceptance_01_codec_soundness():
    rng = random.Random(1)
    start = time.perf_counter()
    for _ in range(10_000):
        msg = random_message(rng)
        frame = wire.encode_message(msg)
        assert wire.decode_message(frame) == msg
    elapsed = time.perf_counter() - start
    report(1, "codec-soundness", elapsed < 10.0,
           "10000 round-trips in %.2fs" % elapsed)


# ----------------------------------------------------------------------
# 2. request/reply pairing invariant
# ----------------------------------------------------------------------

def test_acceptance_02_tag_pairing():
    sim = load_scenario_file(ZOO)
    sim.start()
    shell = Shell(sim)
    with open(os.path.join(SCRIPT_DIR, "example2_datacentric.script")) as fh:
        code, _ = run_script(shell, fh.read())
    assert code == 0

    # every delivered T-message must be answered by exactly one R-message
    # sent back over the same conversation with the same tag, and every
    # R-message sent must answer a previously delivered T-message
    outstanding = {}
    unmatched_replies = 0
    t_delivered = r_sent = 0
    for line in sim.net.log.text().splitlines():
        tick, event, src, dst, detail = line.split("\t")
        if event not in ("send", "deliver"):
            continue
        kind, _, tagpart = detail.partition(" tag=")
        if not tagpart:
            continue
        tag = int(tagpart.split()[0])
        if event == "deliver" and kind.startswith("T"):
            t_delivered += 1
            key = (dst, src, tag)
            outstanding[key] = outstanding.get(key, 0) + 1
        elif event == "send" and kind.startswith("R"):
            r_sent += 1
            key = (src, dst, tag)
            if outstanding.get(key, 0) > 0:
                outstanding[key] -= 1
            else:
                unmatched_replies += 1
    unanswered = sum(outstanding.values())
    report(2, "tag-pairing", unanswered == 0 and unmatched_replies == 0,
           "%d T delivered, %d R sent, %d unanswered, %d unmatched replies"
           % (t_delivered, r_sent, unanswered, unmatched_replies))


# ----------------------------------------------------------------------
# 3. golden namespace tree
# ----------------------------------------------------------------------

def test_acceptance_03_golden_tree():
    sim = load_scenario_file(ZOO)
    sim.start()
    client = sim.new_client()
    table = mount_network(sim)
    got = tree_listing(sim, client, table)
    with open(os.path.join(DATA_DIR, "zoo_tree_golden.txt"), "rb") as fh:
        want = fh.read()
    report(3, "golden-tree", got.encode() == want,
           "%d entries, byte-exact" % len(got.splitlines()))


# ----------------------------------------------------------------------
# 4. aggregation oracle
# ----------------------------------------------------------------------

def render(x):
    """The 6-decimal rendering every reading and aggregate goes through."""
    return float("%.6f" % x)


def aggregate_value(values, fn_name, fn):
    """Independent recomputation: member readings are published at 6
    decimals, combined, and the result is published at 6 decimals again."""
    return render(fn([render(v) for v in values])[0])


def test_acceptance_04_aggregation_oracle(monkeypatch):
    worst = 0.0
    # mean over configured sources plus calibration offsets
    raws = {1: 20.9, 2: 22.3, 3: -3.75}
    offsets = {1: 0.5, 2: -1.25, 3: 0.0}
    net, mux, _ = build_cluster(
        [temp_sensor(i, v) for i, v in raws.items()],
        latency=1, aggregates=[AggregateSpec("avgTemp", "avg")])
    client = make_client(net)
    for i, off in offsets.items():
        if off:
            client.write(mux_ref(mux), "sensors/s%d/control" % i, str(off).encode())
    got = float(client.read(mux_ref(mux), "aggrData/avgTemp").splitlines()[0])
    want = aggregate_value([raws[i] + offsets[i] for i in raws], "avg",
                           lambda vs: [sum(vs) / len(vs)])
    worst = max(worst, abs(got - want))
    assert abs(got - want) <= 1e-9

    # min, max, and a registered median over randomized member sets
    def median(vs):
        s = sorted(vs)
        mid = len(s) // 2
        return [s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2]

    oracles = {"min": lambda vs: [min(vs)],
               "max": lambda vs: [max(vs)],
               "median": median}
    for seed in range(100):
        rng = random.Random(seed)
        values = [rng.uniform(-80, 80) for _ in range(rng.randint(1, 6))]
        fn_name = ("min", "max", "median")[seed % 3]
        net, mux, _ = build_cluster(
            [temp_sensor(i + 1, v) for i, v in enumerate(values)],
            latency=1, aggregates=[AggregateSpec("agg", fn_name)])
        if fn_name == "median":
            monkeypatch.setitem(muxfs.AGGREGATIONS, "median", median)
        client = make_client(net)
        got = float(client.read(mux_ref(mux), "aggrData/agg").splitlines()[0])
        want = aggregate_value(values, fn_name, oracles[fn_name])
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-9, (seed, fn_name, got, want)
    report(4, "aggregation-oracle", True,
           "avg + 100 randomized min/max/median sets, worst |delta|=%g" % worst)


# ----------------------------------------------------------------------
# 5. outstanding requests
# ----------------------------------------------------------------------

def test_acceptance_05_outstanding_requests():
    net, mux, _ = build_cluster([temp_sensor(1, 1.0), temp_sensor(3, 3.0)],
                                latency=1,
                                mux_cfg=MuxConfig(fallback_ticks=2000,
                                                  reprobe_ticks=10 ** 6))
    net.set_link(mux.eid, "s1", LinkModel(latency=200), both_ways=True)
    client = make_client(net)
    f1 = open_fid(client, mux_ref(mux), "sensors/s1/reading")
    f3 = open_fid(client, mux_ref(mux), "sensors/s3/reading")
    ctl_fid = walk_fid(client, mux_ref(mux), "ctl")
    finish = {}
    client.submit(mux_ref(mux), lambda t: wire.Tread(t, f1, 0, 64),
                  lambda r: finish.setdefault("s1", net.now))
    client.submit(mux_ref(mux), lambda t: wire.Tread(t, f3, 0, 64),
                  lambda r: finish.setdefault("s3", net.now))

    # while the slow read is in flight, a stat of a head-local file
    # must complete immediately
    t0 = net.now
    r = client.call(mux_ref(mux), lambda t: wire.Tstat(t, ctl_fid))
    stat_ticks = net.now - t0
    assert r.stat.name == "ctl"

    net.run_until(net.now + 3000)
    lead = finish["s1"] - finish["s3"]
    report(5, "outstanding-requests",
           "s3" in finish and "s1" in finish and lead >= 150 and stat_ticks <= 2,
           "fast reply led the slow one by %d ticks; local stat took %d ticks"
           % (lead, stat_ticks))


# ----------------------------------------------------------------------
# 6. replication planning
# ----------------------------------------------------------------------

def test_acceptance_06_replication_plan():
    sim = load_scenario_file(ZOO)
    sim.start()
    client = sim.new_client()
    table = mount_network(sim)
    plan = plan_query(client, table, sim.cfg.regions, "region-10", 4,
                      low_j=sim.cfg.view_low, high_j=sim.cfg.view_high)
    reasons = {sid: why for sid, included, why in plan.rationale if not included}
    ok = (sorted(plan.selected) == ["s1", "s3", "s6", "s7"]
          and reasons == {"s4": "low-energy", "s5": "low-energy"})
    report(6, "replication-plan", ok,
           "selected %s; excluded %s" % (sorted(plan.selected), reasons))


# ----------------------------------------------------------------------
# 7. duty-cycle caching
# ----------------------------------------------------------------------

def sleeping_read(ttl, age):
    """Warm the (s1, reading) cache, force the device asleep, age the entry
    to exactly `age` ticks, then read through the head again."""
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
        return e.ename, net.log.text()


def test_acceptance_07_duty_cycle_caching():
    fresh = [sleeping_read(ttl=30, age=10) for _ in range(2)]
    stale = [sleeping_read(ttl=30, age=40) for _ in range(2)]
    fresh_ok = (fresh[0][0] == b"20.900000\n" and "cached=1" in fresh[0][1])
    stale_ok = stale[0][0] == "device unreachable"
    deterministic = fresh[0] == fresh[1] and stale[0] == stale[1]
    report(7, "duty-cycle-caching", fresh_ok and stale_ok and deterministic,
           "age 10 < ttl served from cache; age 40 > ttl unreachable; "
           "identical on repeat runs")


# ----------------------------------------------------------------------
# 8. permissions
# ----------------------------------------------------------------------

def test_acceptance_08_permissions():
    sim = load_scenario_file(ZOO)
    sim.start()
    ref = ("net", sim.cfg.clusters["cluster1"])
    guest = sim.new_client("guest")
    admin = sim.new_client("admin")
    read_ok = guest.read(ref, "sensors/s1/reading") == b"20.900000\n"
    try:
        guest.write(ref, "sensors/s1/control", b"2.5")
        ename = None
    except ClientError as e:
        ename = e.ename
    admin.write(ref, "sensors/s1/control", b"2.5")
    admin_ok = admin.read(ref, "sensors/s1/reading") == b"23.400000\n"
    report(8, "permissions",
           read_ok and ename == "permission denied" and admin_ok,
           "guest read ok, guest write -> %r, admin write applied" % ename)


# ----------------------------------------------------------------------
# 9. scale
# ----------------------------------------------------------------------

def big_scenario(n_clusters=10, per_cluster=30):
    out = ["[scenario]", "seed = 1", "ttl = 30", "fallback = 1000",
           "reprobe = 1000000", "discover_timeout = 20", "warmup = 60",
           "", "[link]", "latency = 1", "jitter = 0", "loss = 0.0", ""]
    sid = 0
    for c in range(n_clusters):
        out.append("[cluster c%d]" % c)
    out.append("")
    for c in range(n_clusters):
        for _ in range(per_cluster):
            sid += 1
            out += ["[sensor s%d]" % sid,
                    "cluster = c%d" % c,
                    "kind = temperature",
                    "position = %d %d" % (sid % 100, sid // 100),
                    "energy = 1000",
                    "source = constant %.1f" % (15.0 + sid % 10),
                    ""]
    return "\n".join(out)


def test_acceptance_09_scale():
    start = time.perf_counter()
    sim = Simulation(parse_scenario(big_scenario()))
    sim.start()                           # discovery across all clusters
    client = sim.new_client()
    table = mount_network(sim)
    listing = tree_listing(sim, client, table)
    readings = 0
    for path in listing.splitlines():
        if path.endswith("/reading"):
            ref, rel = table.resolve(path)
            assert client.read(ref, rel).endswith(b"\n")
            readings += 1
    elapsed = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok = readings == 300 and elapsed < 10.0 and peak_mb < 512
    report(9, "scale-300-sensors", ok,
           "%d readings over %d tree entries in %.2fs, peak rss %.0f MB"
           % (readings, len(listing.splitlines()), elapsed, peak_mb))


# ----------------------------------------------------------------------
# 10. calibration semantics
# ----------------------------------------------------------------------

def test_acceptance_10_calibration():
    raw = 20.9
    net, mux, _ = build_cluster([temp_sensor(1, raw)], latency=1,
                                mux_cfg=MuxConfig(reprobe_ticks=10 ** 6))
    client = make_client(net)
    ref = mux_ref(mux)

    def reading():
        return client.read(ref, "sensors/s1/reading").decode()

    ok = True
    client.write(ref, "sensors/s1/control", b"2.5")
    ok &= reading() == "%.6f\n" % (raw + 2.5)
    client.write(ref, "sensors/s1/control", b"reset")
    ok &= reading() == "%.6f\n" % raw

    rng = random.Random(10)
    for _ in range(50):
        offset = float(str(rng.uniform(-100.0, 100.0)))
        client.write(ref, "sensors/s1/control", str(offset).encode())
        ok &= reading() == "%.6f\n" % (raw + offset)
        client.write(ref, "sensors/s1/control", b"reset")
        ok &= reading() == "%.6f\n" % raw
    report(10, "calibration", ok,
           "write 2.5 -> raw+2.5, reset restores, 50 random offsets exact")


# ----------------------------------------------------------------------
# 11. energy conservation
# ----------------------------------------------------------------------

def test_acceptance_11_energy_conservation():
    # binary-representable costs so incremental charging admits an exact
    # closed-form oracle computed from the event log alone
    tx, rx, idle = 0.25, 0.25, 1.0 / 128
    energy = EnergyModel(tx_cost_j=tx, rx_cost_j=rx, idle_cost_j_per_tick=idle)
    net = Network(17, energy=energy,
                  default_link=LinkModel(latency=1, jitter=2, loss=0.2))
    rng = random.Random(17)
    duties = {}
    for i in range(4):
        eid = "n%d" % i
        duties[eid] = DutyCycle(rng.randint(20, 60), rng.randint(20, 60),
                                phase=rng.randint(0, 50))
        net.register(eid, lambda src, frame: None,
                     state=SensorState(eid, energy_j=1024.0, duty=duties[eid]))
    frame = struct.pack("<IBHI", 11, wire.TCLUNK, 5, 1)
    for _ in range(600):
        t = rng.randrange(0, 9000)
        src, dst = rng.sample(sorted(duties), 2)
        net.schedule(t, lambda s=src, d=dst: net.send(s, d, frame))
    net.run_until(10_000)

    sends = {eid: 0 for eid in duties}
    receives = {eid: 0 for eid in duties}
    for line in net.log.text().splitlines():
        _, event, src, dst, _ = line.split("\t")
        if event == "send":
            sends[src] += 1
        elif event == "deliver":
            receives[dst] += 1
    ok = True
    for eid, duty in duties.items():
        state = net.states[eid]
        state.settle(net.now)
        awake = sum(1 for t in range(net.now) if duty.awake_at(t))
        expected = 1024.0 - tx * sends[eid] - rx * receives[eid] - idle * awake
        ok &= state.energy_j == expected
        assert state.energy_j == expected, (eid, state.energy_j, expected)
    report(11, "energy-conservation", ok,
           "4 sensors, 10000 ticks, log-derived accounting exact to the bit")


# ----------------------------------------------------------------------
# 12. determinism
# ----------------------------------------------------------------------

def run_bundled(scenario, script_name, seed):
    sim = load_scenario_file(scenario, seed=seed)
    sim.start()
    shell = Shell(sim)
    with open(os.path.join(SCRIPT_DIR, script_name)) as fh:
        text = fh.read()
    out = io.StringIO()
    code, rep = run_script(shell, text, out=out)
    return code, rep, out.getvalue(), sim.net.log.text()


# sha256 of each bundled script's event log (the --log file) at seed 42
GOLDEN_LOGS = {
    "example1_monitoring.script":
        "2873a062a9b1bb76cc41a14535e8707697e1d8bdb83201b309bd4e60c03e6c05",
    "example2_datacentric.script":
        "41a610a0b8a0e187c98045ed930a3ac302381ab4bd984e7f39cd3141d131d604",
    "example3_emergency.script":
        "76d8cce9102f0ef3c59c9a689966ff6412e0ada54b65810132cc76f34bd71141",
}


def test_acceptance_12_determinism():
    pairs = [(ZOO, "example1_monitoring.script"),
             (ZOO, "example2_datacentric.script"),
             (FACTORY, "example3_emergency.script")]
    ok = True
    digests = {}
    for scenario, script in pairs:
        a = run_bundled(scenario, script, seed=42)
        b = run_bundled(scenario, script, seed=42)
        digests[script] = hashlib.sha256(a[3].encode()).hexdigest()
        ok &= a == b and a[0] == 0
        assert a == b, script
        assert a[0] == 0, script
    # compared together, so one run shows every changed log
    assert digests == GOLDEN_LOGS
    report(12, "determinism", ok,
           "3 bundled scripts: transcripts and event logs byte-identical, logs golden")


# A zoo session over a lossy, jittery radio: timeouts, cache fallback,
# retries and lost clunks, which the loss-free scripts above never reach.
LOSSY_SESSION = """\
mount /dev/network /network
cat /network/cluster1/sensors/s1/reading
cat /network/cluster1/sensors/s1/reading
cat /network/cluster1/sensors/s1/reading
cat /network/cluster1/sensors/s1/reading
write /network/cluster1/sensors/s3/control 1.5
write /network/cluster1/sensors/s3/control 1.5
cat /network/cluster1/sensors/s3/reading
cat /network/cluster1/sensors/s3/reading
cat /network/cluster1/aggrData/avgTemp
cat /network/cluster1/aggrData/avgTemp
cat /network/cluster2/aggrData/avgTemp
cat /network/cluster2/aggrData/avgTemp
ls -l /network/cluster1/sensors
ls -l /network/cluster2/sensors
write /network/cluster2/sensors/s9/control sleep
write /network/cluster2/sensors/s9/control sleep
tick 40
cat /network/cluster2/sensors/s9/reading
cat /network/cluster2/sensors/s9/reading
view build resource
ls /resource/energy/high
ls /resource/energy/low
plan region-10 4 avg 50
plan region-10 4 avg 50
view build location
cat /location/region-10/data
cat /location/region-10/data
cat /network/cluster2/sensors/s8/reading
cat /network/cluster2/sensors/s8/reading"""

# sha256 of LOSSY_SESSION's transcript and of its whole event log
LOSSY_GOLDEN = ("4eada7b4fc8d05d5b9ef3a547161a94a5e50c5dcb3ef5e97e640e15448c956e4",
                "49efe20e1bc518e7c512906b71cabd78848713f8cd6ff03389cdcbb58342a9ed")


def test_lossy_session_is_golden():
    with open(ZOO) as fh:
        text = fh.read().replace("loss = 0.0", "loss = 0.2").replace("jitter = 0", "jitter = 2")
    assert "loss = 0.2" in text and "jitter = 2" in text
    sim = Simulation(parse_scenario(text))
    sim.start()
    shell = Shell(sim)
    transcript = ""
    for line in LOSSY_SESSION.splitlines():
        status, output = shell.run_line(line)
        transcript += "> %s\n%d %s\n" % (line, status, output)
    print(transcript)              # shown when the digests differ
    digests = (hashlib.sha256(transcript.encode()).hexdigest(),
               hashlib.sha256(sim.net.log.text().encode()).hexdigest())
    assert digests == LOSSY_GOLDEN


def lossy_zoo(loss, seed=None):
    """zoo.scn with every link at loss and a jitter of 2 ticks, started."""
    with open(ZOO) as fh:
        text = fh.read().replace("loss = 0.0", "loss = %s" % loss)
    cfg = parse_scenario(text.replace("jitter = 0", "jitter = 2"))
    assert cfg.default_link.loss == loss and cfg.default_link.jitter == 2
    if seed is not None:
        cfg.seed = seed
    sim = Simulation(cfg)
    sim.start()
    return sim


# sha256 of LOSSY_SESSION's transcript and event log at lossy-soak's link
# settings (loss 0.05, jitter 2): 13 of its 26 cat, write, ls and plan
# lines get an answer (2 of the others read s9 after it was put to sleep)
LOSSY_5_GOLDEN = ("6c50e2e5aa774f23692eb13726b6e101ed848cc1aa7db122e12bfd6b09aaa57c",
                  "e8becef5f8708802c86ac1f7e56a7f6ebf6aa042423357ab372a40829465549f")


def test_lossy_session_at_5_percent_is_golden():
    sim = lossy_zoo(0.05)
    shell = Shell(sim)
    transcript = ""
    for line in LOSSY_SESSION.splitlines():
        status, output = shell.run_line(line)
        transcript += "> %s\n%d %s\n" % (line, status, output)
    print(transcript)              # shown when the digests differ
    digests = (hashlib.sha256(transcript.encode()).hexdigest(),
               hashlib.sha256(sim.net.log.text().encode()).hexdigest())
    assert digests == LOSSY_5_GOLDEN
