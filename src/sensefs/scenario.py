"""Scenario files (*.scn): parsing and simulation construction.

Flat, line-oriented format chosen for diff-friendly golden files:

    # comment
    [section optional-args...]
    key = value

Sections:

    [scenario]            seed, ttl, fallback, reprobe, discover_timeout, warmup
    [geo]                 origin_lon, origin_lat, m_per_deg
    [energy]              tx, rx, idle
    [link]                latency, jitter, loss          (network default)
    [link SRC DST]        per directed pair override (applied both ways
                          unless oneway = true)
    [cluster NAME]        head = endpoint id (default NAME.head)
    [sensor ID]           cluster, kind, position = x y, energy, source,
                          duty = on off phase, tag KEY = VALUE
    [aggregate CLUSTER NAME]   fn, kind, path
    [group CLUSTER NAME]  tag = KEY VALUE
    [region NAME]         rect = x1 y1 x2 y2   (meters)
    [responder NAME]
    [views]               cell, tag, low, high

Sensor sources: `constant V`, `ramp BASE SLOPE` (value = BASE + SLOPE*t),
or `table T0:V0 T1:V1 ...` (step function over virtual time).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .client import FileClient, receive
from .devicefs import SensorState, make_device_server
from .fscore import DEFAULT_USERS, Server
from .muxfs import AggregateSpec, GroupSpec, MuxConfig, Multiplexer
from .simnet import DutyCycle, EnergyModel, LinkModel, Network
from .views import GeoMap, Region, make_responder


class ScenarioError(Exception):
    pass


def make_source(spec: str, kind="temperature"):
    parts = spec.split()
    if not parts:
        raise ScenarioError("empty source")
    how = parts[0]
    if how == "constant":
        values = [float(v) for v in parts[1:]]
        if kind == "position" and len(values) == 2:
            return lambda t: tuple(values)
        if len(values) != 1:
            raise ScenarioError("constant source takes one value")
        return lambda t: values[0]
    if how == "ramp":
        base, slope = float(parts[1]), float(parts[2])
        return lambda t: base + slope * t
    if how == "table":
        points = []
        for entry in parts[1:]:
            t, _, v = entry.partition(":")
            vals = [float(x) for x in v.split(",")]
            points.append((int(t), tuple(vals) if len(vals) > 1 else vals[0]))
        points.sort()
        def lookup(t):
            current = points[0][1]
            for pt, pv in points:
                if pt <= t:
                    current = pv
                else:
                    break
            return current
        return lookup
    raise ScenarioError("unknown source kind %r" % how)


@dataclass
class _SensorDef:
    id: str
    cluster: str = ""
    kind: str = "temperature"
    position: tuple = (0.0, 0.0)
    energy: float = 1000.0
    source: str = ""
    duty: tuple = None
    tags: dict = field(default_factory=dict)


@dataclass
class ScenarioConfig:
    seed: int = 0
    ttl: int = 30
    fallback: int = 1000
    reprobe: int = 100
    discover_timeout: int = 20
    warmup: int = 60
    geo: GeoMap = field(default_factory=GeoMap)
    energy: EnergyModel = field(default_factory=EnergyModel)
    default_link: LinkModel = field(default_factory=LinkModel)
    link_overrides: list = field(default_factory=list)   # (src, dst, model, oneway)
    clusters: dict = field(default_factory=dict)         # name -> head eid
    sensors: dict = field(default_factory=dict)          # id -> _SensorDef
    aggregates: dict = field(default_factory=dict)       # cluster -> [AggregateSpec]
    groups: dict = field(default_factory=dict)           # cluster -> [GroupSpec]
    regions: list = field(default_factory=list)
    responders: list = field(default_factory=list)
    view_cell: float = 1.0
    view_tag: str = "animal"
    view_low: float = 10.0
    view_high: float = 100.0


def parse_scenario(text: str) -> ScenarioConfig:
    cfg = ScenarioConfig()
    section = None
    args = []

    def err(lineno, why):
        raise ScenarioError("line %d: %s" % (lineno, why))

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                err(lineno, "unterminated section header")
            fields = line[1:-1].split()
            if not fields:
                err(lineno, "empty section header")
            section, args = fields[0], fields[1:]
            if section == "sensor":
                if len(args) != 1:
                    err(lineno, "[sensor] needs exactly one id")
                if args[0] in cfg.sensors:
                    err(lineno, "duplicate sensor %r" % args[0])
                cfg.sensors[args[0]] = _SensorDef(args[0])
            elif section == "cluster":
                if len(args) != 1:
                    err(lineno, "[cluster] needs exactly one name")
                if args[0] in cfg.clusters:
                    err(lineno, "duplicate cluster %r" % args[0])
                cfg.clusters[args[0]] = args[0] + ".head"
            elif section == "link" and len(args) not in (0, 2):
                err(lineno, "[link] takes zero or two endpoints")
            elif section == "aggregate":
                if len(args) != 2:
                    err(lineno, "[aggregate] needs cluster and name")
                specs = cfg.aggregates.setdefault(args[0], [])
                if any(spec.name == args[1] for spec in specs):
                    err(lineno, "duplicate aggregate %r in cluster %r" % (args[1], args[0]))
                specs.append(AggregateSpec(args[1], "avg"))
            elif section == "group":
                if len(args) != 2:
                    err(lineno, "[group] needs cluster and name")
                specs = cfg.groups.setdefault(args[0], [])
                if any(spec.name == args[1] for spec in specs):
                    err(lineno, "duplicate group %r in cluster %r" % (args[1], args[0]))
                specs.append(GroupSpec(args[1], "", ""))
            elif section == "region":
                if len(args) != 1:
                    err(lineno, "[region] needs a name")
                cfg.regions.append(Region(args[0], 0, 0, 0, 0))
            elif section == "responder":
                if len(args) != 1:
                    err(lineno, "[responder] needs a name")
                cfg.responders.append(args[0])
            elif section == "link" and len(args) == 2:
                cfg.link_overrides.append(
                    [args[0], args[1],
                     LinkModel(cfg.default_link.latency, cfg.default_link.jitter,
                               cfg.default_link.loss), False])
            continue

        if "=" not in line:
            err(lineno, "expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            _apply(cfg, section, args, key, value)
        except ScenarioError:
            raise
        except (ValueError, IndexError) as e:
            err(lineno, "bad value for %r: %s" % (key, e))

    _validate(cfg)
    return cfg


def _apply(cfg: ScenarioConfig, section, args, key, value):
    if section == "scenario":
        if key == "seed":
            cfg.seed = int(value)
        elif key == "ttl":
            cfg.ttl = int(value)
        elif key == "fallback":
            cfg.fallback = int(value)
        elif key == "reprobe":
            cfg.reprobe = int(value)
        elif key == "discover_timeout":
            cfg.discover_timeout = int(value)
        elif key == "warmup":
            cfg.warmup = int(value)
        else:
            raise ScenarioError("unknown [scenario] key %r" % key)
    elif section == "geo":
        if key == "origin_lon":
            cfg.geo.origin_lon = float(value)
        elif key == "origin_lat":
            cfg.geo.origin_lat = float(value)
        elif key == "m_per_deg":
            cfg.geo.m_per_deg = float(value)
        else:
            raise ScenarioError("unknown [geo] key %r" % key)
    elif section == "energy":
        if key == "tx":
            cfg.energy.tx_cost_j = float(value)
        elif key == "rx":
            cfg.energy.rx_cost_j = float(value)
        elif key == "idle":
            cfg.energy.idle_cost_j_per_tick = float(value)
        else:
            raise ScenarioError("unknown [energy] key %r" % key)
    elif section == "link":
        model = cfg.default_link if not args else cfg.link_overrides[-1][2]
        if key == "latency":
            model.latency = int(value)
        elif key == "jitter":
            model.jitter = int(value)
        elif key == "loss":
            model.loss = float(value)
        elif key == "oneway" and args:
            cfg.link_overrides[-1][3] = value.lower() in ("1", "true", "yes")
        else:
            raise ScenarioError("unknown [link] key %r" % key)
    elif section == "cluster":
        if key == "head":
            cfg.clusters[args[0]] = value
        else:
            raise ScenarioError("unknown [cluster] key %r" % key)
    elif section == "sensor":
        sensor = cfg.sensors[args[0]]
        if key == "cluster":
            sensor.cluster = value
        elif key == "kind":
            sensor.kind = value
        elif key == "position":
            x, y = value.split()
            sensor.position = (float(x), float(y))
        elif key == "energy":
            sensor.energy = float(value)
        elif key == "source":
            sensor.source = value
        elif key == "duty":
            on, off, phase = (int(v) for v in value.split())
            sensor.duty = (on, off, phase)
        elif key.startswith("tag ") or key.startswith("tag\t"):
            sensor.tags[key.split(None, 1)[1]] = value
        else:
            raise ScenarioError("unknown [sensor] key %r" % key)
    elif section == "aggregate":
        spec = cfg.aggregates[args[0]][-1]
        if key == "fn":
            spec.fn_name = value
        elif key == "kind":
            spec.kind = value
        elif key == "path":
            spec.source_path = value
        else:
            raise ScenarioError("unknown [aggregate] key %r" % key)
    elif section == "group":
        spec = cfg.groups[args[0]][-1]
        if key == "tag":
            k, v = value.split()
            spec.tag_key, spec.tag_value = k, v
        else:
            raise ScenarioError("unknown [group] key %r" % key)
    elif section == "region":
        region = cfg.regions[-1]
        if key == "rect":
            region.x1, region.y1, region.x2, region.y2 = (float(v) for v in value.split())
        else:
            raise ScenarioError("unknown [region] key %r" % key)
    elif section == "views":
        if key == "cell":
            cfg.view_cell = float(value)
        elif key == "tag":
            cfg.view_tag = value
        elif key == "low":
            cfg.view_low = float(value)
        elif key == "high":
            cfg.view_high = float(value)
        else:
            raise ScenarioError("unknown [views] key %r" % key)
    else:
        raise ScenarioError("key %r outside any known section" % key)


def _validate(cfg: ScenarioConfig):
    for sensor in cfg.sensors.values():
        if sensor.cluster and sensor.cluster not in cfg.clusters:
            raise ScenarioError("sensor %s references unknown cluster %r"
                                % (sensor.id, sensor.cluster))
    for cluster in list(cfg.aggregates) + list(cfg.groups):
        if cluster not in cfg.clusters:
            raise ScenarioError("unknown cluster %r in aggregate/group" % cluster)
    ids = set(cfg.sensors) | set(cfg.clusters.values()) | set(cfg.responders)
    if len(ids) != len(cfg.sensors) + len(cfg.clusters) + len(cfg.responders):
        raise ScenarioError("endpoint ids are not unique")


class ServerEndpoint:
    """Adapter putting an fscore server on the simulated network."""

    def __init__(self, net: Network, eid: str, server: Server, state=None):
        self.net = net
        self.eid = eid
        self.server = server
        net.register(eid, self._on_frame, state=state)

    def _on_frame(self, src, frame):
        receive(self.net, self.eid, src, frame, server=self.server)


class Simulation:
    """A fully wired scenario: network, devices, multiplexers, responders."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.users = DEFAULT_USERS
        self.net = Network(cfg.seed, energy=cfg.energy, default_link=cfg.default_link)
        self.states = {}
        self.muxes = {}
        self.responders = {}
        self._clients = 0

        for src, dst, model, oneway in cfg.link_overrides:
            self.net.set_link(src, dst, model, both_ways=not oneway)

        for sdef in cfg.sensors.values():
            duty = DutyCycle(*sdef.duty) if sdef.duty else None
            source = make_source(sdef.source, sdef.kind) if sdef.source else None
            state = SensorState(sdef.id, kind=sdef.kind, raw_source=source,
                                position=sdef.position, energy_j=sdef.energy,
                                tags=sdef.tags, duty=duty)
            server = make_device_server(state, self.users,
                                        clock=lambda: self.net.now)
            ServerEndpoint(self.net, sdef.id, server, state=state)
            self.states[sdef.id] = state

        mux_cfg_args = dict(ttl=cfg.ttl, fallback_ticks=cfg.fallback,
                            reprobe_ticks=cfg.reprobe,
                            discover_timeout=cfg.discover_timeout)
        for name, head in cfg.clusters.items():
            members = [s.id for s in cfg.sensors.values() if s.cluster == name]
            self.muxes[name] = Multiplexer(
                self.net, head, name, members, self.users,
                MuxConfig(**mux_cfg_args),
                aggregates=cfg.aggregates.get(name, ()),
                groups=cfg.groups.get(name, ()))

        for name in cfg.responders:
            server, received = make_responder(name)
            ServerEndpoint(self.net, name, server)
            self.responders[name] = received

    def start(self):
        """Begin discovery at tick 0 and run through the warmup window."""
        for mux in self.muxes.values():
            self.net.schedule(0, mux.start)
        self.net.run_until(self.cfg.warmup)

    def new_client(self, uname="admin") -> FileClient:
        self._clients += 1
        return FileClient(self.net, "client%d" % self._clients, uname=uname)


def load_scenario(text: str) -> Simulation:
    return Simulation(parse_scenario(text))


def load_scenario_file(path: str, seed=None) -> Simulation:
    with open(path) as fh:
        cfg = parse_scenario(fh.read())
    if seed is not None:
        cfg.seed = seed
    return Simulation(cfg)
