"""Namespace construction: mount tables, logical/location/resource views,
query planning, and emergency-response mounts.

Views are materialized as in-process servers that never invent sensors.
One builder (_view) makes all three: a view directory whose listing, or
a walk from it, builds its whole tree from one fresh scan of the mounted
structural trees.  So the location and logical views scan once per walk
from their root, a resource band asks afresh at each listing or lookup,
and /resource and /resource/energy, being static, ask nothing.  Which
sensors exist and their kind, position and tags come from each cluster
head's member index (its ctl), each member's info as read at discovery.
Energy and readings are no older than the head's ttl, got by asking each
cluster head once: a `read FILE [ID ...]` query written to its ctl,
which the head answers with FILE of every named member, or of every
member if none is named, one `ID VALUE` or `ID !error` line each
(parse_answer).  A band listing is one such query per head, naming no
member (ask_heads, as for the member index): it reads no member index,
since the answer itself names the members in member-index order.  A
plan and a location data file name their members (read_members).

Wherever a view reads from or writes to many clusters (every cluster's
ctl in a scan, one query per cluster for a band listing, a plan or a
data file, one rate command per cluster for a plan's tasking) it sends
all of them in one batch, so the user waits about as long as for the
slowest cluster, not for their sum.  Results keep scan order.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field
from functools import partial

from .client import ClientError, FileClient
from .devicefs import parse_infos
from .fscore import Node, Server, UserDb, make_dir, make_file


def norm_path(path: str) -> str:
    parts = [p for p in path.split("/") if p and p != "."]
    return "/" + "/".join(parts)


class NamespaceTable:
    """Ordered mounts and binds; later entries shadow earlier ones."""

    def __init__(self):
        self.mounts = []   # (path, ref)
        self.binds = []    # (source, target): accessing target resolves to source

    def mount(self, path: str, ref):
        self.mounts.append((norm_path(path), ref))

    def bind(self, source: str, target: str):
        self.binds.append((norm_path(source), norm_path(target)))

    def _apply_binds(self, path: str) -> str:
        for _ in range(len(self.binds) + 1):
            for source, target in reversed(self.binds):
                if path == target or path.startswith(target + "/"):
                    path = source + path[len(target):]
                    break
            else:
                return path
        return path

    def resolve(self, path: str):
        """Return (server ref, server-relative path) for an absolute path."""
        path = self._apply_binds(norm_path(path))
        for mount_path, ref in reversed(self.mounts):
            if path == mount_path or path.startswith(mount_path + "/"):
                return ref, path[len(mount_path):].lstrip("/")
        raise ClientError("not found")

    def mount_children(self, path: str) -> list:
        """Names of mount points sitting directly under path (synthetic dirs)."""
        path = norm_path(path)
        prefix = "" if path == "/" else path
        names = []
        for mount_path, _ in self.mounts:
            if mount_path != prefix and mount_path.startswith(prefix + "/"):
                name = mount_path[len(prefix) + 1:].split("/")[0]
                if name not in names:
                    names.append(name)
        return names

    def covers(self, path: str) -> bool:
        path = norm_path(path)
        try:
            self.resolve(path)
            return True
        except ClientError:
            return bool(self.mount_children(path)) or any(
                m == path or m.startswith(path + "/") for m, _ in self.mounts)


def read_paths(client: FileClient, table: NamespaceTable, paths, questions=None) -> list:
    """For each namespace path, in order, the bytes of that file or the
    ClientError that refused it (or its resolution), read in one batch.
    With questions, each path is asked questions[i] (written and its
    answer read back on one fid) instead of read."""
    targets = []
    for i, path in enumerate(paths):
        try:
            target = table.resolve(path)
        except ClientError as e:
            targets.append(e)
            continue
        targets.append(target if questions is None else target + (questions[i],))
    batch = [t for t in targets if not isinstance(t, ClientError)]
    got = iter(client.read_many(batch) if questions is None
               else client.write_many(batch, answer=True))
    return [t if isinstance(t, ClientError) else next(got) for t in targets]


def dir_entries(client: FileClient, table: NamespaceTable, path: str) -> dict:
    """Children of path, name -> stat: the server listing, then each mount
    point not in it, mapped to None."""
    entries = {}
    try:
        ref, rel = table.resolve(path)
    except ClientError:
        ref = None
    if ref is not None:
        entries = {st.name: st for st in client.ls(ref, rel)}
    for name in table.mount_children(path):
        entries.setdefault(name, None)
    if not entries and ref is None and not table.covers(path):
        raise ClientError("not found")
    return entries


# ----------------------------------------------------------------------
# structural scan
# ----------------------------------------------------------------------

@dataclass
class SensorInfo:
    id: str
    cluster: str
    path: str                # namespace path of the sensor directory
    kind: str = "unknown"
    tags: dict = field(default_factory=dict)
    position: tuple = None


def ask_heads(client, table, root="/network", question=None) -> list:
    """(cluster, bytes) for each entry under root whose ctl answers, in
    listing order: its member index, or with question, its answer to that
    query; every ctl in one batch.  An entry without a ctl that answers (a
    device mounted directly under root) is skipped."""
    clusters = list(dir_entries(client, table, root))
    questions = None if question is None else [question] * len(clusters)
    answers = read_paths(client, table, ["%s/%s/ctl" % (root, c) for c in clusters], questions)
    return [(c, answer) for c, answer in zip(clusters, answers) if isinstance(answer, bytes)]


def scan_sensors(client, table, root="/network") -> list:
    """Read each cluster head's member index, its ctl file: one read per
    cluster under root, all in one batch, none per sensor."""
    return [SensorInfo(meta["id"], cluster, "%s/%s/sensors/%s" % (root, cluster, meta["id"]),
                       meta.get("kind", "unknown"), meta["tags"], meta.get("position"))
            for cluster, index in ask_heads(client, table, root)
            for meta in parse_infos(index.decode(errors="replace"))]


# ----------------------------------------------------------------------
# geography
# ----------------------------------------------------------------------

@dataclass
class GeoMap:
    """Maps simulation coordinates (meters) to longitude/latitude degrees."""
    origin_lon: float = 0.0
    origin_lat: float = 0.0
    m_per_deg: float = 111000.0

    def lonlat(self, position):
        x, y = position
        return (self.origin_lon + x / self.m_per_deg,
                self.origin_lat + y / self.m_per_deg)


def cell_label(value_deg: float, positive: str, negative: str, cell: float = 1.0) -> str:
    """The name of the cell, cell degrees wide, that holds value_deg: its
    edge nearer zero and a hemisphere letter (-54.2: 54W; with cell 0.5,
    0.7: 0.5E).  The quotient is rounded to 9 places before its floor, so
    float error cannot drop 0.3 into the 0.1-wide cell below it."""
    letter = positive if value_deg >= 0 else negative
    edge = math.floor(round(abs(value_deg) / cell, 9)) * cell
    return "%.12g%s" % (edge, letter)


@dataclass
class Region:
    """A named axis-aligned rectangle in simulation meters."""
    name: str
    x1: float
    y1: float
    x2: float
    y2: float

    def contains(self, position) -> bool:
        if position is None:
            return False
        x, y = position
        return self.x1 <= x <= self.x2 and self.y1 <= y <= self.y2


# ----------------------------------------------------------------------
# view servers
# ----------------------------------------------------------------------

_VIEW_USERS = UserDb({"admin": {"admin"}})


def _member_entry(sid, path):
    return make_file(sid, 0o444,
                     read=lambda off, cnt: (path + "\n").encode()[off:off + cnt])


def _view(name, scan, data=None) -> Node:
    """A view directory whose listing, or a walk from it, builds the tree
    of one fresh scan().  The scan yields (label path, sensor) pairs in
    listing order: each makes the directories of its label path, and a
    sensor that is not None gets its entry in the last of them.  With
    data, each directory a label path ends in closes with the file
    data(its sensors).  Of two entries of one name in a directory, the
    first is kept (node.add refuses the second), as a walk finds it."""

    def children():
        top, ends = make_dir(name, 0o555), {}      # ends: directory -> its sensors
        for labels, sensor in scan():
            node = top
            for label in labels:
                node = node.lookup(label) or node.add(make_dir(label, 0o555))
            members = ends.setdefault(node, [])
            if sensor is not None:
                members.append(sensor)
                with suppress(ValueError):
                    node.add(_member_entry(sensor.id, sensor.path))
        if data is not None:
            for node, members in ends.items():
                with suppress(ValueError):
                    node.add(data(members))
        return top.list_children()

    return make_dir(name, 0o555, children_fn=children)


def _view_server(node) -> Server:
    return Server(node, _VIEW_USERS, name=node.name, max_sessions=8)


def build_location_view(client, table, geo: GeoMap, regions=(), cell: float = 1.0,
                        root="/network") -> Server:
    """Tree /location/<lonCell>/<latCell>/{members..., data} plus one
    directory per named region, each with its data file."""

    def scan():
        infos = [i for i in scan_sensors(client, table, root) if i.position]
        for info in infos:
            lon, lat = geo.lonlat(info.position)
            yield (cell_label(lon, "E", "W", cell), cell_label(lat, "N", "S", cell)), info
        for region in regions:              # an empty region is listed too
            yield (region.name,), None
            yield from (((region.name,), i) for i in infos if region.contains(i.position))

    def data(members):
        def read(off, cnt):
            readings = read_members(client, table, members, "reading")
            return b"".join(r + b"\n" for r in readings if r is not None)[off:off + cnt]
        return make_file("data", 0o444, read=read)

    return _view_server(_view("location", scan, data))


def build_logical_view(client, table, tag_key="animal", root="/network") -> Server:
    """Tree /data/<kind>/<tag value + 's'>/ listing matching sensors."""

    def scan():
        for info in scan_sensors(client, table, root):
            value = info.tags.get(tag_key)
            yield ((info.kind,), None) if value is None else ((info.kind, value + "s"), info)

    return _view_server(_view("data", scan))


def parse_answer(answer: bytes) -> list:
    """The (member id, value) of each line of a ctl query's answer, in
    order: value is the first line of the member's file, or None for an
    `ID !error` line."""
    out = []
    for line in answer.split(b"\n"):
        if line:
            sid, _, value = line.partition(b" ")
            out.append((sid.decode(errors="replace"), None if value.startswith(b"!") else value))
    return out


def read_members(client, table, infos, name) -> list:
    """For each sensor, in order, the first line of its file name, or None
    if unreadable: one `read name ID ...` query per cluster, written to the
    cluster head's ctl, all in one batch."""
    ctls = [info.path.rsplit("/sensors/", 1)[0] + "/ctl" for info in infos]
    asked = {}                      # ctl path -> ids its query names
    for ctl, info in zip(ctls, infos):
        asked.setdefault(ctl, []).append(info.id)
    questions = [("read %s %s" % (name, " ".join(ids))).encode() for ids in asked.values()]
    values = {}                     # (ctl path, id) -> first line
    for ctl, answer in zip(asked, read_paths(client, table, list(asked), questions)):
        if isinstance(answer, bytes):
            for sid, value in parse_answer(answer):
                values[ctl, sid] = value
    return [values.get((ctl, info.id)) for ctl, info in zip(ctls, infos)]


def _energy(value):
    """Joules from the first line of a remaining-energy file, or None if
    it was not read or is not a number."""
    if value is None:
        return None
    try:
        return float(value.split()[0])
    except (ValueError, IndexError):
        return None


def energy_band(energy, low_j, high_j) -> str:
    if energy is None:
        return "unknown"
    if energy < low_j:
        return "low"
    if energy < high_j:
        return "medium"
    return "high"


def build_resource_view(client, table, low_j: float, high_j: float,
                        root="/network") -> Server:
    """Tree /resource/energy/{low,medium,high,unknown}/, banded at read
    time: a band's listing or lookup asks every head under root in one
    batch with `read remaining-energy`, naming no member, and its answers
    list every member in member-index order."""
    if not 0 < low_j < high_j:
        raise ValueError("thresholds must satisfy 0 < low < high")

    def scan(band):
        for cluster, answer in ask_heads(client, table, root, b"read remaining-energy"):
            for sid, value in parse_answer(answer):
                if energy_band(_energy(value), low_j, high_j) == band:
                    yield (), SensorInfo(sid, cluster, "%s/%s/sensors/%s" % (root, cluster, sid))

    energy_dir = make_dir("energy", 0o555)
    for band in ("low", "medium", "high", "unknown"):
        energy_dir.add(_view(band, partial(scan, band)))
    root_node = make_dir("resource", 0o555)
    root_node.add(energy_dir)
    return _view_server(root_node)


# ----------------------------------------------------------------------
# query planning
# ----------------------------------------------------------------------

class PlanError(Exception):
    pass


@dataclass
class TaskPlan:
    selected: list
    clusters: dict             # cluster name -> selected member ids
    aggregation: str
    rate: int
    rationale: list            # (sensor id, included?, reason)

    def render(self) -> str:
        lines = ["selected: %s" % " ".join(self.selected)]
        for sid, included, reason in self.rationale:
            lines.append("%s %s %s" % (sid, "included" if included else "excluded", reason))
        return "\n".join(lines) + "\n"


def plan_query(client, table, regions, region_name, coverage, aggregation="avg",
               rate=0, low_j=10.0, high_j=100.0, root="/network") -> TaskPlan:
    """Select in-region sensors, drop the low-energy band, check coverage."""
    region = next((r for r in regions if r.name == region_name), None)
    if region is None:
        raise PlanError("no such region %s" % region_name)
    infos = scan_sensors(client, table, root)
    in_region = [i for i in infos if region.contains(i.position)]
    if not in_region:
        raise PlanError("no sensors in region")

    rationale = []
    selected = []
    clusters = {}
    for info, value in zip(in_region, read_members(client, table, in_region, "remaining-energy")):
        band = energy_band(_energy(value), low_j, high_j)
        if band == "low":
            rationale.append((info.id, False, "low-energy"))
        elif band == "unknown":
            rationale.append((info.id, False, "energy-unknown"))
        else:
            rationale.append((info.id, True, "energy=%s" % band))
            selected.append(info.id)
            clusters.setdefault(info.cluster, []).append(info.id)
    if len(selected) < coverage:
        exclusions = ", ".join("%s: %s" % (sid, why)
                               for sid, inc, why in rationale if not inc)
        raise PlanError("coverage unmet (%d<%d); excluded: %s"
                        % (len(selected), coverage, exclusions or "none"))
    return TaskPlan(selected, clusters, aggregation, rate, rationale)


def execute_plan(client, table, plan: TaskPlan, root="/network"):
    """Task the selected sensors with the plan's reporting rate: one rate
    command per cluster head, all written in one batch.  Every head is
    tried; then the first refusal, in cluster order, is raised."""
    targets = []
    for cluster, members in plan.clusters.items():
        ref, rel = table.resolve("%s/%s/ctl" % (root, cluster))
        targets.append((ref, rel, ("rate %d %s" % (plan.rate, " ".join(members))).encode()))
    refused = [out for out in client.write_many(targets) if isinstance(out, ClientError)]
    if refused:
        raise refused.pop(0)        # not held by this frame: no reference cycle


# ----------------------------------------------------------------------
# emergency response
# ----------------------------------------------------------------------

EMERGENCY_ROOT = "/mnt/Emergency"


def emergency_mount(table: NamespaceTable, name: str, ref):
    table.mount("%s/%s" % (EMERGENCY_ROOT, name), ref)


def raise_alert(client, table, text: str):
    """Write text to every mounted responder's alert file.
    Returns (delivered count, list of failed responder names)."""
    delivered = 0
    failures = []
    for name in table.mount_children(EMERGENCY_ROOT):
        try:
            ref, rel = table.resolve("%s/%s/alert" % (EMERGENCY_ROOT, name))
            client.write(ref, rel, text.encode())
            delivered += 1
        except ClientError as e:
            failures.append((name, e.ename))
    return delivered, failures


def make_responder(name: str) -> tuple:
    """A write-sink server: alert (write) and log (read) files.
    Returns (server, received-messages list)."""
    received = []
    root = make_dir(name, 0o555)

    def write_alert(off, data):
        received.append(data.decode(errors="replace"))
        return len(data)

    root.add(make_file("alert", 0o666, write=write_alert))
    root.add(make_file(
        "log", 0o444,
        read=lambda off, cnt: "".join(m + "\n" for m in received).encode()[off:off + cnt]))
    return Server(root, _VIEW_USERS, name=name, max_sessions=8), received
