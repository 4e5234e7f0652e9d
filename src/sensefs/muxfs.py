"""Cluster-head multiplexer.

Discovers its member devices over the wire, mirrors their static trees
under sensors/, serves aggrData/ files by fanning reads out to members,
sorts sensors into groups/ at enumeration time, and relays client
requests to devices by fid while keeping any number of them outstanding.
A value cache keeps each member file's last whole offset-0 read; a copy is
fresh for ttl ticks before the tick a question was asked (_cached).  A
question the head answers itself (an aggregate, a ctl query) serves a
fresh copy read after the member's last relayed write, with no device
frame (_recent).  Relayed reads and writes and polls always go to the
device.  Writes to ctl are commands (rate, aggregate with fn avg, min or
max, group) or read queries; a plain read of ctl returns the member
index, each discovered member's info text as read at discovery, so views
learn every member without a device frame.  info is static on a device,
so it is read once: the head probes each member not yet discovered, again
every reprobe_ticks while any is missing, and sends nothing once all are
found; a probe that read info and then failed keeps it, and the next only
lists the root.

A client's read or write of a mirrored file is relayed by one step
(_relay): it forwards the request (mux-route) on the device fid behind
the client fid, walked and opened on first use, and waits fallback_ticks
for the reply.  A read adds its snapshot at later offsets, its cache fill
and the fresh copy that stands in for a silent member; a write, its stamp
of the member's last write.

An aggregate's question is asked at the open, as a Plan 9 server may act
on Topen (the clone files do): opening an aggrData file starts its
fan-out, with that tick as the tick asked, so the members' round trip
overlaps the client's Ropen and Tread.  Its Future is the fid's answer
(fscore): the fid's first read at offset 0 takes it, waiting for it if it
has not landed, and later offsets read that snapshot; every later
offset-0 read asks again.  An error (no members, no such aggregation,
every member silent) answers that read, not the open, and a clunk before
it drops the answer with the fid while the fan-out still lands in the
value cache.

A query is Plan 9's query-file idiom (as /net/cs): a client opens ctl
ORDWR, writes `read FILE [ID ...]` and reads the answer on the same fid.
The head reads FILE from each named member, or every discovered member,
at once, after checking the querying user against the member's mirrored
stat; the answer is one line per member, `ID VALUE` (the file's first
line) or `ID !error`, from a fresh copy where there is one.  So a view
learns one file of every sensor of a cluster in one client exchange.
Opening ctl takes only its read bit: a query needs no more, and its
write handler, which fscore hands the writer's user name as any other,
checks every other command for the write bit.

All the head knows of one member lives in that member's DeviceLink: its
connection, mirrored directory, open fids, value cache, info and pending
poll.  The head's own tables are keyed by what is not a member: client
fids (relayed) and mirrored nodes (remote, each naming its link).

Towards its devices the head is a client built on the core in client.py:
one Conn per member (a DeviceLink) and the same attach/walk/read_all
steps a FileClient runs, driven by the same client.spawn: _call issues
each T-message a step yields, so device I/O never blocks the dispatch
loop, and the step resumes with its reply, or has a refusal or a
client.Timeout raised in it, so the head never tests a reply for failure.
A step says only what to send; the timeout is named where it is
spawned: discover_timeout for discovery, aggregates, polls and
_clunk_remote, and fallback_ticks for relayed reads and writes and ctl
queries.  A head step returns its outcome or raises FsError, and spawn
hands either to whoever waits on it, through a Future (fscore's) such as
a relayed read's reply; a Timeout is where the head falls back to a
cached copy, for a relayed read, an aggregate or a query.  A device fid
the head opens (its own, or one behind a relayed client fid) is opened
once: requests that need it while the open is in flight wait on its
Future, a clunk of the client fid clunks it when it lands, and a walk
or open of it that fails, lost included, clunks it (_open).  A mirrored
file opens against its mirrored stat, even while its device sleeps.

The head reads a member file one way (_read_path: aggregates, polls,
queries), as mux over a fid it keeps open for that file alone: an attach
of its own walked in place (walk(5) lets newfid be fid), so the first
read costs attach, walk, open and read, each later one a read, and no
root is kept.  Discovery keeps no fid: the probe's attach walks a new
fid to info, then lists the root itself; both are clunked, however the
probe ends.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import partial

from . import wire
from .client import (
    Conn, ClientError, Timeout, _attach, gather, once, read_all, receive, spawn, walk,
)
from .devicefs import parse_info
from .wire import IOUNIT, OREAD, OWRITE, ORDWR, Tattach, Twalk, Topen, Tread, Twrite, Tclunk
from .fscore import FsError, Future, Node, Server, make_dir, make_file, then
from .simnet import Hop

MAX_PENDING = 32
ROUTED = "fwd tag=%d fid=%d path=%s"       # mux-route and mux-relay details (simnet.Hop)
RELAYED = ("tag=%d fid=%d path=%s cached=0", "tag=%d fid=%d path=%s cached=1")


@dataclass
class MuxConfig:
    ttl: int = 30                 # max age of a cache-served value, ticks
    fallback_ticks: int = 1000    # wait before falling back to cache/unreachable
    reprobe_ticks: int = 100      # probe period while a member is still undiscovered
    discover_timeout: int = 20    # the head's own requests: probes, opens, member reads

    def __post_init__(self):        # a 0-tick reprobe would reschedule at the same tick
        if self.ttl < 0 or min(self.fallback_ticks, self.reprobe_ticks, self.discover_timeout) < 1:
            raise ValueError("ttl must be >= 0 ticks, every timeout and period >= 1 tick")


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


AGGREGATIONS = {
    "avg": lambda vs: [sum(vs) / len(vs)],
    "min": lambda vs: [min(vs)],
    "max": lambda vs: [max(vs)],
}


class DeviceLink(Conn):
    """A head's connection to one member device, plus all it knows of it."""

    def __init__(self, net, eid, device_id):
        super().__init__(net, eid, device_id)
        self.node = None           # mirrored sensors/<id> dir; None until discovered
        self.cache = {}            # path -> (bytes, stamp) of its last offset-0 read
        self.written = -1          # tick its last relayed write ended: older copies are stale
        self.info = None           # the device's info text, once a probe has read it
        self.meta = {}             # kind, tags, position parsed from info
        self.probing = False       # a discovery probe is in flight
        self.poll = None           # the pending report-rate poll Event
        self.calls = {}            # timeout -> the head's call, shared by its steps in flight


class Multiplexer(Server):
    """Stateful cluster-head server with a device face and a client face."""

    def __init__(self, net, eid, cluster_name, members, users=None,
                 config: MuxConfig = None, aggregates=(), groups=()):
        self.net = net
        self.eid = eid
        self.cfg = config or MuxConfig()
        self.links = {m: DeviceLink(net, eid, m) for m in members}   # in member order
        self.groups = {}           # group name -> its directory
        self.remote = {}           # mirrored device node -> (DeviceLink, relpath)
        self.relayed = {}          # client fid entry -> device fid it reads through

        root = make_dir(cluster_name, 0o555)
        root.add(make_dir("sensors", 0o555,
                          children_fn=lambda: [link.node for link in self._discovered()]))
        self.aggr_dir = root.add(make_dir("aggrData", 0o555))
        root.add(make_dir("groups", 0o555, children_fn=lambda: list(self.groups.values())))
        self.ctl = root.add(make_file("ctl", 0o644, read=self._read_ctl, write=self._write_ctl))
        super().__init__(root, users, name=eid, max_sessions=16)

        for spec in aggregates:
            self.add_aggregate(spec)
        for spec in groups:
            self.add_group(spec)
        net.register(eid, self._on_frame)

    def _discovered(self):
        """The links of discovered members, in member order."""
        return [link for link in self.links.values() if link.node is not None]

    # ------------------------------------------------------------------
    # transport: T-messages come from clients, R-messages from devices
    # ------------------------------------------------------------------

    def _on_frame(self, src, frame):
        receive(self.net, self.eid, src, frame, server=self, conn=self.links.get(src))

    def _call(self, link, timeout, build, cb):
        """Send one T-message to a device; cb(R-message), or cb(a Timeout) after timeout ticks."""
        if len(link.pending) >= MAX_PENDING:
            raise FsError("busy")
        link.issue(build, cb, timeout)

    def _spawn(self, link, step, timeout, done=None):
        """Run a step of exchanges with one device, each request waiting
        timeout ticks for its reply; done gets its return value or the
        FsError it raised; with no done, a failure other than a Timeout is
        logged as mux-error."""
        if timeout not in link.calls:
            link.calls[timeout] = partial(self._call, link, timeout)
        spawn(step, link.calls[timeout], done or self._log_failure)

    def _log_failure(self, outcome):
        if isinstance(outcome, FsError) and not isinstance(outcome, Timeout):
            self.net.log.add(self.net.now, "mux-error", self.eid, "", outcome.ename)

    def _fan_out(self, links, step, timeout):
        """A Future of the values (or FsErrors) of the step step(link) of
        every link, in link order, all run at once (gather) under timeout.
        A step made as it starts, not all beforehand, keeps fewer objects
        alive at once for the collector."""
        def start(link, land):
            self._spawn(link, step(link), timeout, land)
        return Future(partial(gather, [partial(start, link) for link in links]))

    # ------------------------------------------------------------------
    # discovery
    # ------------------------------------------------------------------

    def start(self):
        """Probe every member not yet discovered, again every reprobe_ticks
        while any is missing; once all are found, schedule nothing more."""
        missing = [link for link in self.links.values() if link.node is None]
        for link in missing:
            if not link.probing:
                self._spawn(link, self._discover_device(link), self.cfg.discover_timeout)
        if missing:
            self.net.schedule(self.cfg.reprobe_ticks, self.start)

    def _discover_device(self, link):
        """Step: probe a member and mirror its tree, with link.probing set
        while it runs, so a re-probe starts no second probe of it meanwhile."""
        link.probing = True
        try:
            fid = next(link.fids)
            try:
                yield lambda t: Tattach(t, fid, "mux", "")
            except ClientError as e:
                if isinstance(e, Timeout):                  # the member may have bound it
                    self._clunk_remote(link, fid)
                self.net.log.add(self.net.now, "mux-probe-miss", self.eid, link.peer, "")
                return
            stats = None
            if link.info is None:           # a later probe goes on from the info read before
                ifid = next(link.fids)
                with suppress(FsError):     # refused, busy or a reply lost: excluded
                    if (yield lambda t: Twalk(t, fid, ifid, ("info",))).qids:
                        yield lambda t: Topen(t, ifid, OREAD)
                        link.info = (yield lambda t: Tread(t, ifid, 0, IOUNIT)).data.decode(
                            errors="replace")
                        link.meta = parse_info(link.info)
                self._clunk_remote(link, ifid)
            if link.info is not None:
                with suppress(FsError, wire.WireError):    # refused, a reply lost, or undecodable
                    yield lambda t: Topen(t, fid, OREAD)
                    stats = wire.decode_stats((yield from read_all(fid)))
            self._clunk_remote(link, fid)
            if stats is None:
                self.net.log.add(self.net.now, "mux-excluded", self.eid, link.peer,
                                 "info unreadable" if link.info is None else "listing unreadable")
                return
            link.node = self._mirror_device(link, stats)
            self.net.log.add(self.net.now, "mux-discovered", self.eid, link.peer,
                             "kind=%s" % link.meta.get("kind", "?"))
        finally:
            link.probing = False

    def _read_path(self, link, path):
        """Step: a member file read as mux over the fid kept open for it in
        link.open_fids, opened on first use (_open): its bytes, cached.
        A refusal or a Timeout is raised."""
        fid = yield from once(link.open_fids, path, self._open, link, path, OREAD, _attach, "mux")
        data = (yield lambda t: Tread(t, fid, 0, IOUNIT)).data
        link.cache[path] = (data, self.net.now)
        return data

    def _open(self, link, path, mode, new, *args):
        """Step: the device fid of the step new(link, *args) (a fresh attach,
        or a walk from a root attached once per user), walked in place to
        path (walk(5) lets newfid be fid; "" needs no walk) and opened in
        mode.  A walk in place or open that fails, a Timeout included,
        clunks fid and is raised."""
        fid = yield from new(link, *args)
        names = tuple(p for p in path.split("/") if p)
        try:
            if names and len((yield lambda t: Twalk(t, fid, fid, names)).qids) != len(names):
                raise ClientError("no such file")
            yield lambda t: Topen(t, fid, mode)
        except ClientError:
            self._clunk_remote(link, fid)
            raise
        return fid

    def _clunk_remote(self, link, fid):
        with suppress(FsError):
            self._call(link, self.cfg.discover_timeout, lambda t: Tclunk(t, fid), lambda r: None)

    def _mirror_device(self, link, stats) -> Node:
        sdir = make_dir(link.peer, 0o555)
        for st in stats:
            child = sdir.add(Node(st.name, st.mode & 0o777, owner=st.owner, group=st.group,
                                  length=st.length))
            self.remote[child] = (link, st.name)
        return sdir

    # ------------------------------------------------------------------
    # client-face relaying
    # ------------------------------------------------------------------

    def _relay(self, session, msg, modes, use):
        """For a request on client fid ent of a mirrored file (path on the
        member link) open in one of modes, a Future of the step use(ent,
        link, path, send) run under fallback_ticks, send(kind, *args) being
        this request's _send; for any other, None."""
        ent = session.get(msg.fid)
        link, path = self.remote.get(ent.node, (None, None))
        if link is None or ent.open_mode not in modes:
            return None
        step = use(ent, link, path, partial(self._send, session, msg, ent, link, path))
        return Future(partial(self._spawn, link, step, self.cfg.fallback_ticks))

    def _send(self, session, msg, ent, link, path, kind, *args):
        """Step: log mux-route and return the member's R-message to
        kind(tag, device fid, *args), sent on the device fid behind ent,
        walked and opened on first use (once).  A refusal or a Timeout is
        raised."""
        self.net.log.add(self.net.now, "mux-route", session.conn_key, self.eid,
                         Hop(ROUTED, msg.tag, msg.fid, "%s/%s" % (link.peer, path)))
        dfid = yield from once(self.relayed, ent, self._open,
                               link, "", ent.open_mode, walk, ent.uname, path)
        return (yield lambda t: kind(t, dfid, *args))

    def _relay_log(self, session, msg, link, path, cached):
        self.net.log.add(self.net.now, "mux-relay", self.eid, session.conn_key,
                         Hop(RELAYED[cached], msg.tag, msg.fid, "%s/%s" % (link.peer, path)))

    def t_open(self, session, msg):
        qid = super().t_open(session, msg)
        ent = session.fids[msg.fid]
        if self.aggr_dir.lookup(ent.node.name) is ent.node:     # an aggregate: asked now
            with suppress(FsError):     # no aggregation or no members: the first read says so
                ent.answer = ent.node.read_handler()
        return qid

    def t_read(self, session, msg):
        def use(ent, link, path, send):
            count, asked = min(msg.count, IOUNIT), self.net.now    # it starts as msg arrives
            # an offset-0 read always asks the device; a later offset on a
            # fid whose offset-0 answer came from the cache reads that
            # snapshot (ent.data), so one whole-file read never splices cache
            # and device and its end-of-file read does not wait out the
            # unreachable timeout
            if msg.offset and ent.data is not None:
                self._relay_log(session, msg, link, path, 1)
                return ent.data[msg.offset:msg.offset + count]
            ent.data = None
            with suppress(Timeout):
                data = (yield from send(Tread, msg.offset, count)).data
                if msg.offset == 0 and len(data) < count:    # a short reply is the whole file
                    link.cache[path] = (data, self.net.now)
                self._relay_log(session, msg, link, path, 0)
                return data
            # no answer: serve the cache, its freshness judged when the
            # request arrived, not after the unreachable-device timeout
            cached = self._cached(link, path, asked)
            if cached is None:
                raise FsError("device unreachable")
            ent.data = cached
            self._relay_log(session, msg, link, path, 1)
            return cached[msg.offset:msg.offset + count]

        return self._relay(session, msg, (OREAD, ORDWR), use) or super().t_read(session, msg)

    def t_write(self, session, msg):
        def use(ent, link, path, send):
            ent.data = None         # a write ends the fid's snapshot, as fscore's t_write does
            with suppress(Timeout):
                try:
                    return (yield from send(Twrite, msg.offset, msg.data)).count
                finally:
                    link.written = self.net.now
            raise FsError("device unreachable")

        return self._relay(session, msg, (OWRITE, ORDWR), use) or super().t_write(session, msg)

    def t_clunk(self, session, msg):
        ent = session.fids.get(msg.fid)
        dfid = self.relayed.pop(ent, None)
        if dfid is not None:        # a Future while still opening: clunk what it opens
            then(dfid, partial(self._clunk_remote, self.remote[ent.node][0]))
        return super().t_clunk(session, msg)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def add_aggregate(self, spec: AggregateSpec):
        if self.aggr_dir.lookup(spec.name) is not None:
            raise FsError("file already exists")
        self.aggr_dir.add(make_file(spec.name, 0o444, read=partial(self._aggregate_handler, spec)))

    def add_group(self, spec: GroupSpec):
        if spec.name in self.groups:
            raise FsError("file already exists")
        self.groups[spec.name] = make_dir(
            spec.name, 0o555,
            children_fn=lambda: [
                link.node for link in self._discovered()
                if link.meta.get("tags", {}).get(spec.tag_key) == spec.tag_value])

    def _aggregate_handler(self, spec):
        fn = AGGREGATIONS.get(spec.fn_name)
        if fn is None:
            raise FsError("no such aggregation")
        members = [link for link in self._discovered()
                   if not spec.kind or link.meta.get("kind") == spec.kind]
        if not members:
            raise FsError("no members")

        asked = self.net.now

        def read(link):         # its floats; a fresh copy stands in for a failed read
            try:
                data = yield from self._recent(link, spec.source_path, asked, "mux-aggregate")
            except FsError:                     # a Timeout among them
                data = self._cached(link, spec.source_path, asked, "mux-aggregate")
            return _parse_floats(data) if data is not None else None

        def finish(results):
            used = [v for v in results if v is not None]
            if not used:
                return FsError("no members")
            out = []
            for i in range(min(len(v) for v in used)):
                out.extend(fn([v[i] for v in used]))
            text = " ".join("%.6f" % v for v in out) + "\n"
            text += "# n=%d/%d\n" % (len(used), len(members))
            return text.encode()

        return then(self._fan_out(members, read, self.cfg.discover_timeout), finish)

    # ------------------------------------------------------------------
    # polling / report rate
    # ------------------------------------------------------------------

    def set_report_rate(self, device_ids, period: int):
        """Poll each device's reading every period ticks (0: stop), in
        place of any rate set before."""
        for dev in device_ids:
            if dev not in self.links:
                raise FsError("unknown device %s" % dev)
        for dev in device_ids:
            link = self.links[dev]
            if link.poll is not None:
                link.poll.cancel()
                link.poll = None
            if period > 0:
                link.poll = self.net.schedule(period, lambda link=link: self._sample(link, period))

    def _sample(self, link, period):
        self._spawn(link, self._read_path(link, "reading"), self.cfg.discover_timeout)
        link.poll = self.net.schedule(period, lambda: self._sample(link, period))

    # ------------------------------------------------------------------
    # ctl file
    # ------------------------------------------------------------------

    def check_open_perm(self, node, uname, mode):
        # ctl opens on its read bit alone: _write_ctl checks each command
        super().check_open_perm(node, uname, OREAD if node is self.ctl else mode)

    def _read_ctl(self):
        """The member index: each discovered member's info text, in member order."""
        return "".join(link.info for link in self._discovered()).encode()

    def _write_ctl(self, offset, data, uname):
        """Run one ctl command written by uname (fscore's write handler): a
        read query's Future of its answer, or the count written."""
        try:
            cmd, *args = data.decode().split()
            if cmd == "read" and args:
                return self._query(uname, args[0], args[1:])
            if cmd in ("rate", "aggregate", "group") and not self._permits(self.ctl, uname, 2):
                raise FsError("permission denied")
            if cmd == "rate" and args and int(args[0]) >= 0:
                devices = args[1:] or [link.peer for link in self._discovered()]
                self.set_report_rate(devices, int(args[0]))
            elif cmd == "aggregate" and len(args) in (2, 3) and args[1] in AGGREGATIONS:
                self.add_aggregate(AggregateSpec(*args))
            elif cmd == "group" and len(args) == 2 and "=" in args[1]:
                key, value = args[1].split("=", 1)
                self.add_group(GroupSpec(args[0], key, value))
            else:
                raise ValueError(cmd)
        except ValueError:      # undecodable, empty, unknown, a bad number, name or fn, extra words
            raise FsError("bad ctl command")
        return len(data)

    def _query(self, uname, name, ids):
        """A Future of the answer to `read name ids...`, one line per member
        named (none named: per discovered member), in that order."""
        for dev in ids:
            if dev not in self.links:
                raise FsError("unknown device %s" % dev)
        links = [self.links[dev] for dev in ids] if ids else self._discovered()
        asked = self.net.now

        def read(link):         # as mux, once uname may open the mirrored file to read
            try:
                node = link.node and link.node.lookup(name)
                if node is None:
                    raise FsError("no such file")
                self.check_open_perm(node, uname, OREAD)
                out = yield from self._recent(link, name, asked, "mux-query")
            except Timeout:
                out = self._cached(link, name, asked, "mux-query")
                if out is None:
                    return ("%s !device unreachable\n" % link.peer).encode()
            except FsError as e:
                return ("%s !%s\n" % (link.peer, e.ename)).encode()
            return b"%s %s\n" % (link.peer.encode(), out.split(b"\n", 1)[0])

        return then(self._fan_out(links, read, self.cfg.fallback_ticks), b"".join)

    def _recent(self, link, path, asked, event):
        """Step: path's bytes for a question the head answers itself, asked
        at tick asked: its cached copy if read within the ttl before then
        and after the member's last relayed write, else a device read."""
        fresh = link.cache.get(path, (None, -1))[1] > link.written
        cached = self._cached(link, path, asked, event) if fresh else None
        return cached if cached is not None else (yield from self._read_path(link, path))

    def _cached(self, link, path, asked, event=None):
        """The cached bytes of path if read within the ttl before tick asked,
        the tick a request was asked, else None: the one freshness rule.  A
        value served is logged as event, if one is given."""
        entry = link.cache.get(path)
        if entry is None or entry[1] < asked - self.cfg.ttl:
            return None
        if event:
            self.net.log.add(self.net.now, event, self.eid, link.peer, "path=%s cached=1" % path)
        return entry[0]


def _parse_floats(data: bytes):
    line = data.decode(errors="replace").splitlines()
    if not line:
        return None
    try:
        return [float(v) for v in line[0].split()]
    except ValueError:
        return None
