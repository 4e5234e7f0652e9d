"""Seeded workload generators and their oracles.

Each workload turns a seed into two inputs for the program: the text of a
`.scn` scenario and a sequence of shell command lines.  The program sees
nothing else.  The generator also keeps the facts it drew (sensor
constants, energies, positions, group and region membership), and the
oracle checks every shell output against them.

One operation is one or more shell lines; it succeeds when every line
exits with status 0.  A successful operation whose output differs from
the oracle raises Mismatch, which fails the whole run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

DEVICE_FILES = ("reading", "control", "remaining-energy", "registers", "mem", "info")

# Per-frame radio costs drawn from a sensor, joules.  Idle drain is off so
# that joules per operation measure the radio alone.
TX_J = 0.002
RX_J = 0.001
TTL = 30            # head cache ttl, ticks
LOW_J, HIGH_J = 10.0, 100.0


class Mismatch(Exception):
    """A successful operation returned output the oracle does not allow."""


@dataclass
class Sensor:
    id: str
    cluster: str
    kind: str
    value: str              # text of the constant source, e.g. "23.45"
    x: int
    y: int
    energy: float
    tags: dict = field(default_factory=dict)

    @property
    def dir(self):
        return "/network/%s/sensors/%s" % (self.cluster, self.id)

    @property
    def band(self):
        if self.energy < LOW_J:
            return "low"
        return "medium" if self.energy < HIGH_J else "high"


@dataclass
class Region:
    name: str
    x1: int
    y1: int
    x2: int
    y2: int

    def contains(self, s: Sensor):
        return self.x1 <= s.x <= self.x2 and self.y1 <= s.y <= self.y2


@dataclass
class Deployment:
    seed: int
    clusters: list
    sensors: list                                     # in scenario order
    aggregates: list = field(default_factory=list)    # (cluster, name, kind)
    groups: list = field(default_factory=list)        # (cluster, name, key, value)
    regions: list = field(default_factory=list)

    def members(self, cluster):
        return [s for s in self.sensors if s.cluster == cluster]

    def scan_order(self):
        """Sensors in the order views.scan_sensors visits them."""
        return [s for c in self.clusters for s in self.members(c)]

    def scenario_text(self) -> str:
        out = ["[scenario]", "seed = %d" % self.seed, "ttl = %d" % TTL,
               "fallback = 1000", "reprobe = 1000000", "discover_timeout = 20",
               "warmup = 60", "",
               "[energy]", "tx = %r" % TX_J, "rx = %r" % RX_J, "idle = 0", "",
               "[link]", "latency = 1", "jitter = 0", "loss = 0", ""]
        out += ["[cluster %s]" % c for c in self.clusters]
        for s in self.sensors:
            out += ["", "[sensor %s]" % s.id, "cluster = %s" % s.cluster,
                    "kind = %s" % s.kind, "position = %d %d" % (s.x, s.y),
                    "energy = %r" % s.energy, "source = constant %s" % s.value]
            out += ["tag %s = %s" % kv for kv in sorted(s.tags.items())]
        for cluster, name, kind in self.aggregates:
            out += ["", "[aggregate %s %s]" % (cluster, name), "fn = avg", "kind = %s" % kind]
        for cluster, name, key, value in self.groups:
            out += ["", "[group %s %s]" % (cluster, name), "tag = %s %s" % (key, value)]
        for r in self.regions:
            out += ["", "[region %s]" % r.name, "rect = %d %d %d %d" % (r.x1, r.y1, r.x2, r.y2)]
        out += ["", "[views]", "tag = animal", "low = %r" % LOW_J, "high = %r" % HIGH_J, ""]
        return "\n".join(out)


@dataclass
class Op:
    """One operation: shell lines plus what the oracle needs to judge them.

    kind is "read" or "write" (a sensor file, judged against the
    calibration model), or "fixed" (each line has a known answer in
    expect: a string, or a list of names for `ls` and `ls -l`)."""
    kind: str
    lines: list
    sensor: Sensor = None
    offset: str = ""
    expect: list = None

    @property
    def cluster(self):
        """The head a sensor operation goes through (None: several)."""
        return self.sensor.cluster if self.sensor is not None else None


def _add_sensor(rng, sensors, cluster, kind, energy=1000.0, tags=None):
    """Append sensor s<n> with a seeded constant in [15, 35) and a seeded
    position in a 1 km square."""
    sensors.append(Sensor("s%d" % (len(sensors) + 1), cluster, kind,
                          "%.2f" % rng.uniform(15.0, 35.0),
                          rng.randrange(0, 1000), rng.randrange(0, 1000), energy, tags or {}))


def _path_file(s: Sensor, name):
    return "%s/%s" % (s.dir, name)


# ----------------------------------------------------------------------
# calibration oracle for reading/control operations
# ----------------------------------------------------------------------

class CalibrationOracle:
    """Tracks which calibration offsets each sensor may hold over time.

    A confirmed write fixes the offset; a failed write may or may not have
    reached the device, so its offset joins the possible set for good.
    When the head may answer from its cache (lossy links), a reading may
    also reflect any offset possible within `stale` ticks before the
    request."""

    def __init__(self, stale=0):
        self.stale = stale
        self.history = {}       # sensor id -> [(tick, frozenset of offsets)]

    def _timeline(self, s):
        return self.history.setdefault(s.id, [(0, frozenset([0.0]))])

    def allowed(self, s, t0, t1):
        timeline = self._timeline(s)
        out = set()
        lo = t0 - self.stale
        for i in range(len(timeline) - 1, -1, -1):
            tick, offsets = timeline[i]
            if tick <= t1:
                out |= offsets
            if tick <= lo:
                break
        return {"%.6f" % (float(s.value) + off) for off in out}

    def wrote(self, s, text, t0, t1, ok):
        off = 0.0 if text == "reset" else float(text)
        timeline = self._timeline(s)
        timeline.append((t0, timeline[-1][1] | {off}))
        if ok:
            timeline.append((t1, frozenset([off])))


def check(op: Op, results, t0, t1, cal: CalibrationOracle) -> bool:
    """Judge one operation; returns True if it succeeded."""
    ok = all(status == 0 for status, _ in results)
    if op.kind == "write":
        cal.wrote(op.sensor, op.offset, t0, t1, ok)
        if ok and results[0][1] != "":
            raise Mismatch("%s -> %r" % (op.lines[0], results[0][1]))
        return ok
    if not ok:
        return False
    if op.kind == "read":
        got = results[0][1]
        allowed = cal.allowed(op.sensor, t0, t1)
        if got not in allowed:
            raise Mismatch("%s -> %r, expected one of %s"
                           % (op.lines[0], got, sorted(allowed)))
        return True
    for line, (_, out), want in zip(op.lines, results, op.expect):
        got = out
        if isinstance(want, list):
            got = [row.split()[-1] for row in out.splitlines() if row.strip()]
        if got != want:
            raise Mismatch("%s -> %r, expected %r" % (line, got, want))
    return True


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def _cat_mix(rng, sensors, n, write_share=0.1):
    ops = []
    for _ in range(n):
        s = rng.choice(sensors)
        if rng.random() < write_share:
            text = "reset" if rng.random() < 0.25 else "%.2f" % rng.uniform(-5.0, 5.0)
            ops.append(Op("write", ["write %s %s" % (_path_file(s, "control"), text)],
                          sensor=s, offset=text))
        else:
            ops.append(Op("read", ["cat %s" % _path_file(s, "reading")], sensor=s))
    return ops


def _touch_each(dep):
    return [Op("read", ["cat %s" % _path_file(s, "reading")], sensor=s)
            for s in dep.sensors]


class Workload:
    """A named generator.  A round builds the deployment afresh, runs
    warm(), then ops() in order; the same seed gives the same round."""
    name = ""
    why = ""
    stale = 0             # ticks of cache staleness the oracle allows
    window = 1            # operations per window of the host statistics

    def deployment(self, seed) -> Deployment:
        raise NotImplementedError

    def warm(self, dep) -> list:
        return _touch_each(dep)

    def ops(self, dep) -> list:
        raise NotImplementedError

    def after_setup(self, sim):
        """Hook run after warm-up and before the timed operations."""


class CatSteady(Workload):
    name = "cat-steady"
    why = ("steady-state relayed cat of one reading (90%) beside control writes (10%) "
           "on 300 sensors under 10 heads, no loss: loads wire, simnet, fscore, "
           "muxfs relay and client")
    clusters, per_cluster, n_ops = 10, 30, 2000
    window = 200

    def deployment(self, seed):
        rng = random.Random(seed)
        clusters = ["c%d" % i for i in range(self.clusters)]
        sensors = []
        for c in clusters:
            for _ in range(self.per_cluster):
                _add_sensor(rng, sensors, c, "temperature")
        return Deployment(seed, clusters, sensors)

    def ops(self, dep):
        return _cat_mix(random.Random(dep.seed * 7919 + 1), dep.sensors, self.n_ops)


class LossySoak(CatSteady):
    name = "lossy-soak"
    why = ("the cat-steady mix for 6000 operations on 50 sensors under 5 heads with 5% loss "
           "and 2 ticks of jitter: timeouts, cache fallback, retries, fid leak and new sessions")
    clusters, per_cluster, n_ops = 5, 10, 6000
    window = 500
    stale = TTL + 4       # cache ttl plus worst latency and jitter

    def after_setup(self, sim):
        # applied after discovery and warm-up, so every sensor is mounted
        sim.net.default_link.loss = 0.05
        sim.net.default_link.jitter = 2


class AggrFanout(Workload):
    name = "aggr-fanout"
    why = ("cat of a head's avgTemp over ~100 temperature members (non-temperature "
           "members filtered out): muxfs fan-out and the simnet queue, client leg small")
    clusters, temps, others, n_ops = 3, 100, 20, 150
    window = 15

    def deployment(self, seed):
        rng = random.Random(seed)
        clusters = ["c%d" % i for i in range(self.clusters)]
        sensors = []
        for c in clusters:
            kinds = ["temperature"] * self.temps + ["humidity"] * self.others
            rng.shuffle(kinds)
            for kind in kinds:
                _add_sensor(rng, sensors, c, kind)
        return Deployment(seed, clusters, sensors,
                          aggregates=[(c, "avgTemp", "temperature") for c in clusters])

    def _aggr_op(self, dep, cluster):
        temps = [float(s.value) for s in dep.members(cluster) if s.kind == "temperature"]
        want = "%.6f\n# n=%d/%d" % (sum(temps) / len(temps), len(temps), len(temps))
        return Op("fixed", ["cat /network/%s/aggrData/avgTemp" % cluster], expect=[want])

    def warm(self, dep):
        return [self._aggr_op(dep, c) for c in dep.clusters]

    def ops(self, dep):
        # round-robin over the heads, in a fresh seeded order each cycle
        rng = random.Random(dep.seed * 7919 + 3)
        order = []
        while len(order) < self.n_ops:
            order += rng.sample(dep.clusters, len(dep.clusters))
        return [self._aggr_op(dep, c) for c in order[:self.n_ops]]


ANIMALS = ("lion", "zebra", "giraffe")
KINDS = ("temperature", "humidity", "light")
# Energy bands sit far from the 10 J and 100 J thresholds, so the radio
# drain of a round never moves a sensor across one.
BAND_RANGES = {"low": (3.0, 7.0), "medium": (30.0, 80.0), "high": (300.0, 900.0)}


class BrowsePlan(Workload):
    name = "browse-plan"
    why = ("recursive ls -l of /network, a resource view with its four energy bands, "
           "then plan over a region: fscore directory reads, stat codec, views scans")
    clusters, per_cluster, n_ops = 2, 12, 4
    window = 4

    def deployment(self, seed):
        rng = random.Random(seed)
        clusters = ["c%d" % i for i in range(self.clusters)]
        sensors = []
        for c in clusters:
            for _ in range(self.per_cluster):
                band = rng.choice(("low", "medium", "medium", "high", "high"))
                tags = {"animal": rng.choice(ANIMALS)} if rng.random() < 0.6 else {}
                _add_sensor(rng, sensors, c, rng.choice(KINDS),
                            round(rng.uniform(*BAND_RANGES[band]), 3), tags)
        groups = [(c, a + "s", "animal", a) for c in clusters for a in ANIMALS[:2]]
        regions = []
        while len(regions) < 3:
            x, y = rng.randrange(0, 600), rng.randrange(0, 600)
            r = Region("region-%d" % len(regions), x, y, x + 400, y + 400)
            if sum(1 for s in sensors if r.contains(s) and s.band != "low") >= 2:
                regions.append(r)
        return Deployment(seed, clusters, sensors,
                          aggregates=[(c, "avgTemp", "temperature") for c in clusters],
                          groups=groups, regions=regions)

    def _tree(self, dep):
        """(directory, expected child names) for a recursive walk of /network."""
        out = [("/network", list(dep.clusters))]
        for c in dep.clusters:
            base = "/network/" + c
            members = dep.members(c)
            out.append((base, ["sensors", "aggrData", "groups", "ctl"]))
            out.append((base + "/sensors", [s.id for s in members]))
            out += [(base + "/sensors/" + s.id, list(DEVICE_FILES)) for s in members]
            out.append((base + "/aggrData", [n for cl, n, _ in dep.aggregates if cl == c]))
            groups = [(n, k, v) for cl, n, k, v in dep.groups if cl == c]
            out.append((base + "/groups", [n for n, _, _ in groups]))
            for name, key, value in groups:
                ids = [s.id for s in members if s.tags.get(key) == value]
                out.append(("%s/groups/%s" % (base, name), ids))
                out += [("%s/groups/%s/%s" % (base, name, i), list(DEVICE_FILES)) for i in ids]
        return out

    def _plan_output(self, dep, region):
        """Expected `plan` output for a region, and how many it selects."""
        lines, selected = [], []
        for s in dep.scan_order():
            if not region.contains(s):
                continue
            if s.band == "low":
                lines.append("%s excluded low-energy" % s.id)
            else:
                lines.append("%s included energy=%s" % (s.id, s.band))
                selected.append(s.id)
        return "\n".join(["selected: %s" % " ".join(selected)] + lines), len(selected)

    def warm(self, dep):
        return [Op("fixed", ["cat %s" % _path_file(s, "info")], expect=[_info(s)])
                for s in dep.sensors]

    def ops(self, dep):
        rng = random.Random(dep.seed * 7919 + 2)
        tree = self._tree(dep)
        scan = dep.scan_order()
        ops = []
        for _ in range(self.n_ops):
            lines = ["ls -l %s" % d for d, _ in tree]
            expect = [names for _, names in tree]
            lines.append("view build resource")
            expect.append("")
            for band in ("low", "medium", "high", "unknown"):
                lines.append("ls /resource/energy/%s" % band)
                expect.append([s.id for s in scan if s.band == band])
            region = rng.choice(dep.regions)
            want, n_selected = self._plan_output(dep, region)
            lines.append("plan %s %d avg 1000" % (region.name, rng.randint(1, n_selected)))
            expect.append(want)
            ops.append(Op("fixed", lines, expect=expect))
        return ops


def _info(s: Sensor) -> str:
    lines = ["id %s" % s.id, "kind %s" % s.kind, "position %.6f %.6f" % (s.x, s.y)]
    lines += ["tag %s %s" % kv for kv in sorted(s.tags.items())]
    return "\n".join(lines)


WORKLOADS = {w.name: w for w in (CatSteady(), AggrFanout(), BrowsePlan(), LossySoak())}
