"""Scenario files (*.scn): parsing and simulation construction.

Flat, line-oriented format chosen for diff-friendly golden files:

    # comment
    [section names...]
    key = value

SECTIONS is the only place a section is declared: how many names its
header takes, what the header adds to the ScenarioConfig and when that
is a duplicate, and each key with the attribute(s) it sets and the
parser of its value.  A bad header, key or value is reported with its
line number; checks across sections (a sensor's cluster, unique
endpoint ids) run once the whole file is read.

Sensor sources: `constant V`, `ramp BASE SLOPE` (value = BASE + SLOPE*t),
or `table T0:V0 T1:V1 ...` (step function over virtual time).
"""

from __future__ import annotations

import math
import re
from dataclasses import astuple, dataclass, field, replace
from types import SimpleNamespace
from typing import NamedTuple

from .client import FileClient, receive
from .devicefs import SensorState, make_device_server
from .fscore import Server
from .muxfs import AGGREGATIONS, AggregateSpec, GroupSpec, MuxConfig, Multiplexer
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
        base, slope = (float(v) for v in parts[1:])
        return lambda t: base + slope * t
    if how == "table":
        points = []
        for entry in parts[1:]:
            t, _, v = entry.partition(":")
            vals = [float(x) for x in v.split(",")]
            points.append((int(t), tuple(vals) if len(vals) > 1 else vals[0]))
        if not points:
            raise ScenarioError("table source needs a point")
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

    def __post_init__(self):
        if not self.energy >= 0:
            raise ValueError("energy must be >= 0 J")


@dataclass
class ScenarioConfig:
    seed: int = 0
    warmup: int = 60
    mux: MuxConfig = field(default_factory=MuxConfig)      # ttl and timeouts of every head
    geo: GeoMap = field(default_factory=GeoMap)
    energy: EnergyModel = field(default_factory=EnergyModel)
    default_link: LinkModel = field(default_factory=LinkModel)
    link_overrides: list = field(default_factory=list)   # [_LinkRow]
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

    def __post_init__(self):
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0 ticks")


def _words(conv, *counts):
    """Parser of a value made of one of `counts` words, each through conv."""
    def parse(value):
        words = value.split()
        if len(words) not in counts:
            raise ValueError("expected %s words" % " or ".join(map(str, counts)))
        return tuple(map(conv, words))
    return parse


def _positive(value):
    """A number that is finite and above zero (a size or a scale)."""
    number = float(value)
    if not 0 < number < math.inf:
        raise ValueError("%s is not a finite number above 0" % value)
    return number


def _aggregation(name):
    """The name of a function in muxfs.AGGREGATIONS."""
    if name not in AGGREGATIONS:
        raise ValueError("no such aggregation %r" % name)
    return name


def _source(spec):
    make_source(spec, "position")   # the laxest kind; _validate checks the sensor's own
    return spec


@dataclass
class _LinkRow:
    """A [link SRC DST] row of link_overrides; a bare [link] sets the
    default model alone, and has no oneway."""
    model: LinkModel
    src: str
    dst: str
    oneway: bool = False


def _link(cfg, names):
    if not names:
        return SimpleNamespace(model=cfg.default_link)
    cfg.link_overrides.append(_LinkRow(replace(cfg.default_link), *names))
    return cfg.link_overrides[-1]


def _add(items, name, item):
    """Add item to a dict (under name) or to a list of named items; returns
    it, or None if the name is already there."""
    if isinstance(items, dict):
        return None if name in items else items.setdefault(name, item)
    if name in [getattr(each, "name", each) for each in items]:
        return None
    items.append(item)
    return item


def _region(cfg, names):
    """A [region NAME] header; a name of a location cell's form (a decimal
    number, then E, W, N or S) would share that cell's /location directory."""
    if re.fullmatch(r"\d+(\.\d+)?[EWNS]", names[0]):
        raise ScenarioError("region name %r is a location cell's name" % names[0])
    return _add(cfg.regions, names[0], Region(names[0], 0, 0, 0, 0))


class _Section(NamedTuple):
    arity: tuple    # numbers of names the header may take
    open: object    # (cfg, names) -> what the keys set, None for a duplicate
    keys: dict      # key -> (attribute names, value parser); names after `OWNER.`
                    # are the target's OWNER's; an attribute that is a dict
                    # takes the key's NAME, else the header's last name


SECTIONS = {
    "scenario": _Section((0,), lambda cfg, names: cfg, {
        "seed": ("seed", int), "warmup": ("warmup", int), "ttl": ("mux.ttl", int),
        "fallback": ("mux.fallback_ticks", int), "reprobe": ("mux.reprobe_ticks", int),
        "discover_timeout": ("mux.discover_timeout", int)}),
    "geo": _Section((0,), lambda cfg, names: cfg.geo, {
        "origin_lon": ("origin_lon", float), "origin_lat": ("origin_lat", float),
        "m_per_deg": ("m_per_deg", _positive)}),
    "energy": _Section((0,), lambda cfg, names: cfg.energy, {
        "tx": ("tx_cost_j", float), "rx": ("rx_cost_j", float),
        "idle": ("idle_cost_j_per_tick", float)}),
    "link": _Section((0, 2), _link, {
        "latency": ("model.latency", int), "jitter": ("model.jitter", int),
        "loss": ("model.loss", float),
        "oneway": ("oneway", lambda value: value.lower() in ("1", "true", "yes"))}),
    "cluster": _Section(
        (1,), lambda cfg, names: _add(cfg.clusters, names[0], names[0] + ".head") and cfg,
        {"head": ("clusters", str)}),
    "sensor": _Section(
        (1,), lambda cfg, names: _add(cfg.sensors, names[0], _SensorDef(names[0])),
        {"cluster": ("cluster", str), "kind": ("kind", str),
         "position": ("position", _words(float, 2)), "energy": ("energy", float),
         "source": ("source", _source),
         "duty": ("duty", lambda value: astuple(DutyCycle(*_words(int, 2, 3)(value)))),
         "tag NAME": ("tags", str)}),
    "aggregate": _Section(
        (2,), lambda cfg, names: _add(cfg.aggregates.setdefault(names[0], []), names[1],
                                      AggregateSpec(names[1], "avg")),
        {"fn": ("fn_name", _aggregation), "kind": ("kind", str), "path": ("source_path", str)}),
    "group": _Section(
        (2,), lambda cfg, names: _add(cfg.groups.setdefault(names[0], []), names[1],
                                      GroupSpec(names[1], "", "")),
        {"tag": ("tag_key tag_value", _words(str, 2))}),
    "region": _Section((1,), _region, {"rect": ("x1 y1 x2 y2", _words(float, 4))}),
    "responder": _Section(
        (1,), lambda cfg, names: _add(cfg.responders, names[0], names[0]), {}),
    "views": _Section((0,), lambda cfg, names: cfg, {
        "cell": ("view_cell", _positive), "tag": ("view_tag", str),
        "low": ("view_low", float), "high": ("view_high", float)}),
}


def parse_scenario(text: str) -> ScenarioConfig:
    cfg = ScenarioConfig()
    header = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        try:
            if line.startswith("["):
                header = _open(cfg, line)
            elif line:
                _set(header, line)
        except ScenarioError as e:
            raise ScenarioError("line %d: %s" % (lineno, e)) from None
    _validate(cfg)
    return cfg


def _open(cfg, line):
    """Apply a section header; returns its words, section and target."""
    if not line.endswith("]"):
        raise ScenarioError("unterminated section header")
    words = line[1:-1].split()
    if not words:
        raise ScenarioError("empty section header")
    section = SECTIONS.get(words[0])
    if section is None:
        raise ScenarioError("unknown section [%s]" % words[0])
    if len(words) - 1 not in section.arity:
        raise ScenarioError("[%s] takes %s name(s), got %d" % (
            words[0], " or ".join(map(str, section.arity)), len(words) - 1))
    target = section.open(cfg, words[1:])
    if target is None:
        raise ScenarioError("duplicate %s" % " ".join(words))
    return words, section, target


def _set(header, line):
    """Apply a `key = value` line to the target of the open section."""
    key, eq, value = line.partition("=")
    if not eq:
        raise ScenarioError("expected key = value")
    key, value = key.strip(), value.strip()
    if header is None:
        raise ScenarioError("key %r outside any known section" % key)
    words, section, target = header
    word, *name = key.split(None, 1) or [""]
    attrs, parse = section.keys.get(word + " NAME" if name else word, ("", None))
    owner, _, attrs = attrs.rpartition(".")
    target, attrs = getattr(target, owner) if owner else target, attrs.split()
    if not attrs or not all([hasattr(target, attr) for attr in attrs]):
        raise ScenarioError("unknown [%s] key %r" % (words[0], key))
    try:
        values = parse(value)
        for attr, v in zip(attrs, values if len(attrs) > 1 else (values,)):
            slot = getattr(target, attr)
            if isinstance(slot, dict):
                slot[name[0] if name else words[-1]] = v
            else:
                setattr(target, attr, v)
        getattr(target, "__post_init__", lambda: None)()   # the target's own checks
    except (ScenarioError, ValueError) as e:
        raise ScenarioError("bad value for %r: %s" % (key, e)) from None


def _validate(cfg: ScenarioConfig):
    for sensor in cfg.sensors.values():
        if sensor.cluster and sensor.cluster not in cfg.clusters:
            raise ScenarioError("sensor %s references unknown cluster %r"
                                % (sensor.id, sensor.cluster))
        if sensor.source:
            try:
                make_source(sensor.source, sensor.kind)
            except ScenarioError as e:
                raise ScenarioError("sensor %s: %s" % (sensor.id, e)) from None
    for cluster in list(cfg.aggregates) + list(cfg.groups):
        if cluster not in cfg.clusters:
            raise ScenarioError("unknown cluster %r in aggregate/group" % cluster)
    if not cfg.view_low < cfg.view_high:         # checked here: either key may come first
        raise ScenarioError("[views] low %g is not below high %g" % (cfg.view_low, cfg.view_high))
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
        self.net = Network(cfg.seed, energy=cfg.energy, default_link=cfg.default_link)
        self.states = {}
        self.muxes = {}
        self.responders = {}
        self._clients = 0

        for row in cfg.link_overrides:
            self.net.set_link(row.src, row.dst, row.model, both_ways=not row.oneway)

        for sdef in cfg.sensors.values():
            duty = DutyCycle(*sdef.duty) if sdef.duty else None
            source = make_source(sdef.source, sdef.kind) if sdef.source else None
            state = SensorState(sdef.id, kind=sdef.kind, raw_source=source,
                                position=sdef.position, energy_j=sdef.energy,
                                tags=sdef.tags, duty=duty)
            ServerEndpoint(self.net, sdef.id, make_device_server(state), state=state)
            self.states[sdef.id] = state

        for name, head in cfg.clusters.items():
            members = [s.id for s in cfg.sensors.values() if s.cluster == name]
            self.muxes[name] = Multiplexer(
                self.net, head, name, members, config=cfg.mux,
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


def load_scenario_file(path: str, seed=None) -> Simulation:
    with open(path) as fh:
        cfg = parse_scenario(fh.read())
    if seed is not None:
        cfg.seed = seed
    return Simulation(cfg)
