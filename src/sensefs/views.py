"""Namespace construction: mount tables, logical/location/resource views,
query planning, and emergency-response mounts.

Views are materialized as in-process servers whose directories are
recomputed at every enumeration by reading the mounted structural trees,
so they never invent sensors and always reflect current device state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .client import ClientError, FileClient
from .devicefs import parse_info
from .fscore import Server, UserDb, make_dir, make_file
from .wire import DMDIR


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


def dir_names(client: FileClient, table: NamespaceTable, path: str) -> list:
    """Children of path: server listing merged with mount-point names."""
    names = []
    try:
        ref, rel = table.resolve(path)
    except ClientError:
        ref = None
    if ref is not None:
        names.extend(st.name for st in client.ls(ref, rel))
    for name in table.mount_children(path):
        if name not in names:
            names.append(name)
    if not names and ref is None and not table.covers(path):
        raise ClientError("not found")
    return names


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


def scan_sensors(client, table, root="/network") -> list:
    """Walk the structural tree and read each sensor's info file."""
    infos = []
    for cluster in dir_names(client, table, root):
        base = "%s/%s/sensors" % (root, cluster)
        try:
            ids = dir_names(client, table, base)
        except ClientError:
            continue
        for sid in ids:
            spath = "%s/%s" % (base, sid)
            meta = {"tags": {}}
            try:
                ref, rel = table.resolve(spath + "/info")
                meta = parse_info(client.read(ref, rel).decode(errors="replace"))
            except ClientError:
                pass
            infos.append(SensorInfo(sid, cluster, spath, meta.get("kind", "unknown"),
                                    meta["tags"], meta.get("position")))
    return infos


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
    letter = positive if value_deg >= 0 else negative
    magnitude = int(math.floor(abs(value_deg) / cell) * cell)
    return "%d%s" % (magnitude, letter)


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


def _member_entry(info: SensorInfo):
    path = info.path
    return make_file(info.id, 0o444,
                     read=lambda off, cnt: (path + "\n").encode()[off:off + cnt])


def _data_file(client, table, members):
    paths = [i.path + "/reading" for i in members]

    def read(off, cnt):
        chunks = []
        for p in paths:
            try:
                ref, rel = table.resolve(p)
                chunks.append(client.read(ref, rel))
            except ClientError:
                pass
        return b"".join(chunks)[off:off + cnt]

    return make_file("data", 0o444, read=read)


def build_location_view(client, table, geo: GeoMap, regions=(), cell: float = 1.0,
                        root="/network") -> Server:
    """Tree /location/<lonCell>/<latCell>/{members..., data} plus one
    directory per named region."""

    def top_children():
        infos = [i for i in scan_sensors(client, table, root) if i.position]
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
                        nodes = [_member_entry(i) for i in members]
                        nodes.append(_data_file(client, table, members))
                        return nodes
                    dirs.append(make_dir(lat_label, 0o555, children_fn=cell_children))
                return dirs
            out.append(make_dir(lon_label, 0o555, children_fn=lon_children))
        for region in regions:
            def region_children(region=region, infos=infos):
                members = [i for i in infos if region.contains(i.position)]
                nodes = [_member_entry(i) for i in members]
                nodes.append(_data_file(client, table, members))
                return nodes
            out.append(make_dir(region.name, 0o555, children_fn=region_children))
        return out

    root_node = make_dir("location", 0o555, children_fn=top_children)
    return Server(root_node, _VIEW_USERS, name="location", max_sessions=8)


def build_logical_view(client, table, tag_key="animal", root="/network") -> Server:
    """Tree /data/<kind>/<tag value + 's'>/ listing matching sensors."""

    def top_children():
        infos = scan_sensors(client, table, root)
        kinds = {}
        for info in infos:
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
                             children_fn=lambda ms=ms: [_member_entry(i) for i in ms])
                    for value, ms in values.items()
                ]
            out.append(make_dir(kind, 0o555, children_fn=kind_children))
        return out

    root_node = make_dir("data", 0o555, children_fn=top_children)
    return Server(root_node, _VIEW_USERS, name="data", max_sessions=8)


def read_energy(client, table, info: SensorInfo):
    try:
        ref, rel = table.resolve(info.path + "/remaining-energy")
        return float(client.read(ref, rel).decode().strip().split()[0])
    except (ClientError, ValueError, IndexError):
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
    """Tree /resource/energy/{low,medium,high,unknown}/, banded at read time."""
    if not 0 < low_j < high_j:
        raise ValueError("thresholds must satisfy 0 < low < high")

    def band_children(band):
        def children():
            out = []
            for info in scan_sensors(client, table, root):
                if energy_band(read_energy(client, table, info), low_j, high_j) == band:
                    out.append(_member_entry(info))
            return out
        return children

    energy_dir = make_dir("energy", 0o555)
    for band in ("low", "medium", "high", "unknown"):
        energy_dir.add(make_dir(band, 0o555, children_fn=band_children(band)))
    root_node = make_dir("resource", 0o555)
    root_node.add(energy_dir)
    return Server(root_node, _VIEW_USERS, name="resource", max_sessions=8)


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
    for info in in_region:
        band = energy_band(read_energy(client, table, info), low_j, high_j)
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
    """Task the selected sensors with the plan's reporting rate."""
    for cluster, members in plan.clusters.items():
        ref, rel = table.resolve("%s/%s/ctl" % (root, cluster))
        command = "rate %d %s" % (plan.rate, " ".join(members))
        client.write(ref, rel, command.encode())


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
