"""Cluster-head multiplexer.

Discovers its member devices over the wire, mirrors their static trees
under sensors/, serves aggrData/ files by fanning reads out to members,
sorts sensors into groups/ at enumeration time, and relays client
requests to devices by fid while keeping any number of them outstanding.
A small value cache answers for sleeping sensors within a ttl.  Writes
to ctl are commands (rate, aggregate, group); a read of ctl returns the
member index, each discovered member's info text as last read at
discovery or re-probe, so views learn every member without a device frame.

Towards its devices the head is a client built on the core in client.py:
one Conn per member (a DeviceLink) and the same attach/walk/read_all
steps a FileClient runs.  Here they run as continuations: _spawn/_resume
issue each yielded T-message and resume the generator from its reply or
per-request timeout, so device I/O never blocks the dispatch loop.  A
head step returns its outcome or raises FsError, and _spawn hands either
to whoever waits on it, such as a relayed read's reply.  The relay state
of mirrored nodes and client fids lives in the head's own tables
(remote, relayed), not in fscore.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import wire
from .client import Conn, ClientError, attach, read_all, receive, walk
from .devicefs import parse_info
from .wire import IOUNIT, OREAD, Topen, Tread, Twrite, Tclunk, Ropen, Rread, Rwrite, Rerror
from .fscore import Defer, FsError, Node, Server, make_dir, make_file

MAX_PENDING = 32


@dataclass
class MuxConfig:
    ttl: int = 30                 # max age of a cache-served value, ticks
    fallback_ticks: int = 1000    # wait before falling back to cache/unreachable
    reprobe_ticks: int = 100      # period of discovery/metadata refresh
    discover_timeout: int = 20    # per-device probe timeout
    aggregate_timeout: int = 0    # 0: derive 5x mean member link latency


@dataclass
class AggregateSpec:
    name: str
    fn_name: str
    kind: str = ""                # "" selects every member
    source_path: str = "reading"


@dataclass
class GroupSpec:
    name: str
    tag_key: str
    tag_value: str


def _mean(values):
    return [sum(values) / len(values)]


BUILTIN_AGGREGATIONS = {
    "avg": _mean,
    "min": lambda vs: [min(vs)],
    "max": lambda vs: [max(vs)],
}


class DeviceLink(Conn):
    """A head's connection to one member device, plus its discovery state."""

    def __init__(self, net, eid, device_id):
        super().__init__(net, eid, device_id)
        self.discovered = False
        self.open_fids = {}        # path -> device fid opened OREAD as "mux"
        self.info = ""             # the device's info text, as last read
        self.meta = {}             # kind, tags, position parsed from info
        self.refreshing = False    # an info refresh is in flight

    def set_info(self, data: bytes):
        self.info = data.decode(errors="replace")
        self.meta = parse_info(self.info)


class Multiplexer(Server):
    """Stateful cluster-head server with a device face and a client face."""

    def __init__(self, net, eid, cluster_name, member_ids, users=None,
                 config: MuxConfig = None, aggregates=(), groups=()):
        self.net = net
        self.eid = eid
        self.cluster_name = cluster_name
        self.member_ids = list(member_ids)
        self.cfg = config or MuxConfig()
        self.links = {m: DeviceLink(net, eid, m) for m in self.member_ids}
        self.registry = dict(BUILTIN_AGGREGATIONS)
        self.cache = {}            # (device_id, path) -> (bytes, stamp)
        self.group_specs = []
        self._sensor_nodes = {}    # device_id -> mirrored sensors/<id> dir
        self._group_nodes = {}
        self._poll = {}            # device_id -> (period, generation)
        self.remote = {}           # mirrored device node -> (device_id, relpath)
        self.relayed = {}          # client fid entry -> device fid it reads through

        root = make_dir(cluster_name, 0o555)
        self.sensors_dir = root.add(make_dir(
            "sensors", 0o555,
            children_fn=lambda: [self._sensor_nodes[m] for m in self.member_ids
                                 if m in self._sensor_nodes]))
        self.aggr_dir = root.add(make_dir("aggrData", 0o555))
        self.groups_dir = root.add(make_dir(
            "groups", 0o555,
            children_fn=lambda: [self._group_nodes[g.name] for g in self.group_specs]))
        root.add(make_file("ctl", 0o644, read=self._read_ctl, write=self._write_ctl))
        super().__init__(root, users, name=eid, max_sessions=16)

        for spec in aggregates:
            self.add_aggregate(spec)
        for spec in groups:
            self.add_group(spec)
        self.aggregate_timeout = self.cfg.aggregate_timeout
        if self.aggregate_timeout <= 0:
            lats = [net.link_for(eid, m).latency for m in self.member_ids] or [2]
            self.aggregate_timeout = max(5, int(5 * sum(lats) / len(lats)))
        net.register(eid, self._on_frame)

    # ------------------------------------------------------------------
    # transport: T-messages come from clients, R-messages from devices
    # ------------------------------------------------------------------

    def _on_frame(self, src, frame):
        receive(self.net, self.eid, src, frame, server=self, conn=self.links.get(src))

    def _call(self, link, build, cb, timeout):
        """Send one T-message to a device; cb(R-message) or cb(None) on timeout."""
        if len(link.pending) >= MAX_PENDING:
            raise FsError("busy")
        link.issue(build, cb, timeout)

    def _spawn(self, link, gen, done=None):
        """Drive a generator of exchanges with one device: it yields
        (build, timeout) and receives the R-message or None.  done gets
        its return value or the FsError it raised; with no done, a
        failure is logged as mux-error."""
        self._resume(link, gen, done or self._log_failure, None)

    def _log_failure(self, outcome):
        if isinstance(outcome, FsError):
            self.net.log.add(self.net.now, "mux-error", self.eid, "", outcome.ename)

    def _resume(self, link, gen, done, value, exc=None):
        try:
            if exc is not None:
                build, timeout = gen.throw(exc)
            else:
                build, timeout = gen.send(value)
        except StopIteration as stop:
            done(stop.value)
            return
        except FsError as e:
            done(e)
            return
        try:
            self._call(link, build, lambda r: self._resume(link, gen, done, r), timeout)
        except FsError as e:
            self._resume(link, gen, done, None, exc=e)

    # ------------------------------------------------------------------
    # discovery
    # ------------------------------------------------------------------

    def start(self):
        """Kick off discovery and the periodic re-probe."""
        self.discover()
        self.net.schedule(self.cfg.reprobe_ticks, self._reprobe)

    def _reprobe(self):
        self.discover()
        for link in self.links.values():
            if link.discovered and not link.refreshing:
                self._spawn(link, self._refresh_info(link))
        self.net.schedule(self.cfg.reprobe_ticks, self._reprobe)

    def discover(self):
        for link in self.links.values():
            if not link.discovered:
                self._spawn(link, self._discover_device(link))

    def _discover_device(self, link):
        dev = link.peer
        link.roots.pop("mux", None)         # the attach is the probe: always send it
        try:
            root = yield from attach(link, "mux", self.cfg.discover_timeout)
        except ClientError:
            root = None
        if root is None:
            self.net.log.add(self.net.now, "mux-probe-miss", self.eid, dev, "")
            return
        info = yield from self._read_path(link, "info")
        if info is None:
            self.net.log.add(self.net.now, "mux-excluded", self.eid, dev, "info unreadable")
            return
        link.set_info(info)
        stats = yield from self._read_root_listing(link)
        if stats is None:
            self.net.log.add(self.net.now, "mux-excluded", self.eid, dev, "listing unreadable")
            return
        link.discovered = True
        self._sensor_nodes[dev] = self._mirror_device(dev, stats)
        self.net.log.add(self.net.now, "mux-discovered", self.eid, dev,
                         "kind=%s" % link.meta.get("kind", "?"))

    def _read_path(self, link, path):
        """Read a device file with the mux's own identity, keeping the fid
        open.  Yields device calls; returns payload bytes or None on failure."""
        fid = link.open_fids.get(path)
        if fid is None:
            fid = yield from self._open_remote(link, "mux", path, OREAD,
                                               self.cfg.discover_timeout)
            if fid is None:
                return None
            link.open_fids[path] = fid
        r = yield (lambda t: Tread(t, fid, 0, IOUNIT), self.aggregate_timeout)
        if isinstance(r, Rread):
            self.cache[(link.peer, path)] = (r.data, self.net.now)
            return r.data
        return None

    def _open_remote(self, link, uname, path, mode, timeout):
        """Walk (attaching once per uname) and open; returns the device fid,
        or None if the device never answered."""
        fid = yield from walk(link, uname, path, timeout)
        if fid is None:
            return None
        r = yield (lambda t: Topen(t, fid, mode), timeout)
        if not isinstance(r, Ropen):
            self._clunk_remote(link, fid)
            if isinstance(r, Rerror):
                raise FsError(r.ename)
            return None
        return fid

    def _clunk_remote(self, link, fid):
        try:
            self._call(link, lambda t: Tclunk(t, fid), lambda r: None,
                       self.cfg.discover_timeout)
        except FsError:
            pass

    def _read_root_listing(self, link):
        fid = yield from self._open_remote(link, "mux", "", OREAD,
                                           self.cfg.discover_timeout)
        if fid is None:
            return None
        data = yield from read_all(fid, self.aggregate_timeout)
        self._clunk_remote(link, fid)
        try:
            return None if data is None else wire.decode_stats(data)
        except wire.WireError:
            return None

    def _refresh_info(self, link):
        link.refreshing = True
        try:
            info = yield from self._read_path(link, "info")
        finally:
            link.refreshing = False
        if info is not None:
            link.set_info(info)

    def _mirror_device(self, dev, stats) -> Node:
        sdir = make_dir(dev, 0o555)
        for st in stats:
            child = sdir.add(Node(st.name, st.mode & 0o777, owner=st.owner, group=st.group))
            self.remote[child] = (dev, st.name)
        return sdir

    # ------------------------------------------------------------------
    # client-face relaying
    # ------------------------------------------------------------------

    def t_open(self, session, msg):
        ent = session.get(msg.fid)
        remote = self.remote.get(ent.node)
        if remote is None:
            return super().t_open(session, msg)
        if ent.open_mode is not None:
            raise FsError("fid already open")
        if not self.links[remote[0]].discovered:
            raise FsError("device unreachable")
        # permission checked here against the mirrored device stat, so an
        # open succeeds even while the device radio is off; the device-side
        # fid is established lazily on first read/write
        self.check_open_perm(ent.node, ent.uname, msg.mode)
        ent.open_mode = msg.mode
        return ent.node.qid

    def _relay(self, link, ent, path, build):
        """Step: build(tag, device fid) sent on the device fid behind a
        relayed client fid, walked and opened on first use; returns the
        R-message, or None if the device never answered.  An Rerror is
        raised as FsError."""
        dfid = self.relayed.get(ent)
        if dfid is None:
            dfid = yield from self._open_remote(link, ent.uname, path, ent.open_mode,
                                                self.cfg.fallback_ticks)
            if dfid is None:
                return None
            self.relayed[ent] = dfid
        r = yield (lambda t: build(t, dfid), self.cfg.fallback_ticks)
        if isinstance(r, Rerror):
            raise FsError(r.ename)
        return r

    def _relay_log(self, session, msg, path, cached):
        self.net.log.add(self.net.now, "mux-relay", self.eid, session.conn_key,
                         "tag=%d fid=%d path=%s cached=%d"
                         % (msg.tag, msg.fid, path, cached))

    def t_read(self, session, msg):
        ent = session.get(msg.fid)
        remote = self.remote.get(ent.node)
        if remote is None or ent.open_mode is None:
            return super().t_read(session, msg)
        dev, path = remote
        count = min(msg.count, IOUNIT)
        # once a fid has been served from cache it keeps serving that same
        # snapshot (ent.data), so a sequential whole-file read stays consistent
        # and the end-of-file probe does not wait out the unreachable timeout
        if ent.data is not None and ent not in self.relayed:
            self._relay_log(session, msg, "%s/%s" % (dev, path), 1)
            return ent.data[msg.offset:msg.offset + count]
        self.net.log.add(self.net.now, "mux-route", session.conn_key, self.eid,
                         "fwd tag=%d fid=%d path=%s/%s" % (msg.tag, msg.fid, dev, path))

        asked = self.net.now
        link = self.links[dev]

        def chain():
            r = yield from self._relay(link, ent, path,
                                       lambda t, dfid: Tread(t, dfid, msg.offset, count))
            if isinstance(r, Rread):
                if msg.offset == 0:
                    self.cache[(dev, path)] = (r.data, self.net.now)
                self._relay_log(session, msg, "%s/%s" % (dev, path), 0)
                return r.data
            # no answer: serve the cache, its freshness judged when the
            # request arrived, not after the unreachable-device timeout
            cached = self._cache_get(dev, path, asof=asked)
            if cached is None:
                raise FsError("device unreachable")
            ent.data = cached
            self._relay_log(session, msg, "%s/%s" % (dev, path), 1)
            return cached[msg.offset:msg.offset + count]

        return Defer(lambda cb: self._spawn(link, chain(), cb))

    def t_write(self, session, msg):
        ent = session.get(msg.fid)
        remote = self.remote.get(ent.node)
        if remote is None or ent.open_mode is None:
            return super().t_write(session, msg)
        dev, path = remote
        self.net.log.add(self.net.now, "mux-route", session.conn_key, self.eid,
                         "fwd tag=%d fid=%d path=%s/%s" % (msg.tag, msg.fid, dev, path))
        link = self.links[dev]

        def chain():
            r = yield from self._relay(link, ent, path,
                                       lambda t, dfid: Twrite(t, dfid, msg.offset, msg.data))
            if not isinstance(r, Rwrite):
                raise FsError("device unreachable")
            return r.count

        return Defer(lambda cb: self._spawn(link, chain(), cb))

    def t_clunk(self, session, msg):
        ent = session.fids.get(msg.fid)
        dfid = self.relayed.pop(ent, None)
        if dfid is not None:
            self._clunk_remote(self.links[self.remote[ent.node][0]], dfid)
        return super().t_clunk(session, msg)

    def _cache_get(self, dev, path, asof=None):
        entry = self.cache.get((dev, path))
        if entry is None:
            return None
        value, stamp = entry
        now = self.net.now if asof is None else asof
        if now - stamp > self.cfg.ttl:
            return None
        return value

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def register_aggregation(self, name, fn):
        if not name:
            raise ValueError("empty aggregation name")
        self.registry[name] = fn

    def add_aggregate(self, spec: AggregateSpec):
        if self.aggr_dir.lookup(spec.name) is not None:
            raise FsError("file already exists")
        node = make_file(spec.name, 0o444)
        node.read_handler = lambda off, cnt, s=spec: self._aggregate_handler(s, off, cnt)
        self.aggr_dir.add(node)

    def add_group(self, spec: GroupSpec):
        if spec.name in self._group_nodes:
            raise FsError("file already exists")
        gdir = make_dir(
            spec.name, 0o555,
            children_fn=lambda s=spec: [
                self._sensor_nodes[m] for m in self.member_ids
                if m in self._sensor_nodes
                and self.links[m].meta.get("tags", {}).get(s.tag_key) == s.tag_value])
        self._group_nodes[spec.name] = gdir
        self.group_specs.append(spec)

    def _selected_members(self, spec):
        return [m for m in self.member_ids
                if self.links[m].discovered
                and (not spec.kind or self.links[m].meta.get("kind") == spec.kind)]

    def _aggregate_handler(self, spec, offset, count):
        fn = self.registry.get(spec.fn_name)
        if fn is None:
            raise FsError("no such aggregation")
        members = self._selected_members(spec)
        if not members:
            raise FsError("no members")

        def start(cb):
            results = {}
            remaining = [len(members)]

            def finish():
                used = {m: v for m, v in results.items() if v is not None}
                if not used:
                    cb(FsError("no members"))
                    return
                ncomp = min(len(v) for v in used.values())
                out = []
                for i in range(ncomp):
                    out.extend(fn([used[m][i] for m in members if m in used]))
                text = " ".join("%.6f" % v for v in out) + "\n"
                text += "# n=%d/%d\n" % (len(used), len(members))
                cb(text.encode()[offset:offset + count])

            def got(member, data):
                if not isinstance(data, bytes):     # None or an FsError
                    data = self._cache_get(member, spec.source_path)
                    if data is not None:
                        self.net.log.add(self.net.now, "mux-aggregate", self.eid, member,
                                         "path=%s cached=1" % spec.source_path)
                results[member] = _parse_floats(data) if data is not None else None
                remaining[0] -= 1
                if remaining[0] == 0:
                    finish()

            for member in members:
                link = self.links[member]
                self._spawn(link, self._read_path(link, spec.source_path),
                            lambda data, m=member: got(m, data))

        return Defer(start)

    # ------------------------------------------------------------------
    # polling / report rate
    # ------------------------------------------------------------------

    def set_report_rate(self, device_ids, period: int):
        for dev in device_ids:
            if dev not in self.links:
                raise FsError("unknown device %s" % dev)
        for dev in device_ids:
            generation = self._poll.get(dev, (0, 0))[1] + 1
            self._poll[dev] = (period, generation)
            if period > 0:
                self.net.schedule(period, lambda d=dev, g=generation: self._poll_tick(d, g))

    def _poll_tick(self, dev, generation):
        current = self._poll.get(dev)
        if current is None or current[1] != generation or current[0] <= 0:
            return
        period = current[0]
        self._spawn(self.links[dev], self._read_path(self.links[dev], "reading"))
        self.net.schedule(period, lambda: self._poll_tick(dev, generation))

    # ------------------------------------------------------------------
    # ctl file
    # ------------------------------------------------------------------

    def _read_ctl(self, offset, count):
        """The member index: each discovered member's info text, in member order."""
        text = "".join(self.links[m].info for m in self.member_ids
                       if self.links[m].discovered)
        return text.encode()[offset:offset + count]

    def _write_ctl(self, offset, data):
        try:
            cmd, *args = data.decode().split()
            if cmd == "rate" and args:
                period = int(args[0])
                devices = args[1:] or [m for m in self.member_ids if self.links[m].discovered]
                self.set_report_rate(devices, period)
            elif cmd == "aggregate" and len(args) >= 2:
                self.add_aggregate(AggregateSpec(*args[:3]))
            elif cmd == "group" and len(args) == 2 and "=" in args[1]:
                key, value = args[1].split("=", 1)
                self.add_group(GroupSpec(args[0], key, value))
            else:
                raise ValueError(cmd)
        except ValueError:      # undecodable, empty, unknown, or a bad number or name
            raise FsError("bad ctl command")
        return len(data)


def _parse_floats(data: bytes):
    line = data.decode(errors="replace").splitlines()
    if not line:
        return None
    try:
        return [float(v) for v in line[0].split()]
    except ValueError:
        return None
