"""Client side of the protocol: one connection core and the file client.

Every exchange a node starts goes through a Conn, the client end of one
connection: it allocates tags and fids, hands each R-message to the
request waiting on its tag, and remembers the fid attached per user name.
The protocol sequences are generator steps (attach, walk, read_all) that
yield (build, timeout) per T-message, where build(tag) makes the message,
and receive its R-message, or None if it never came.  Two callers drive
them:

    FileClient         one blocking call at a time, running the simulation
                       clock until each reply arrives
    muxfs.Multiplexer  as continuations, so a cluster head keeps any number
                       of device exchanges outstanding

FileClient gives open/read/write/ls/stat on paths against two kinds of
server reference:

    ("net", endpoint_id)  -- a simulated server reached over the wire
    ("local", Server)     -- an in-process fscore server (namespace views)
"""

from __future__ import annotations

import itertools

from . import wire
from .fscore import FsError
from .wire import (
    IOUNIT, OREAD, OWRITE,
    Tattach, Twalk, Topen, Tread, Twrite, Tclunk, Tstat, Rread, Rerror,
)

CLIENT_TIMEOUT = 20000   # ticks a synchronous call will wait for its reply


class ClientError(FsError):
    """A request refused by its server, or never answered."""


class Conn:
    """The client end of one connection: tags in flight, fids, attached roots."""

    def __init__(self, tags=None):
        self.tags = tags or itertools.count(1)   # may be shared between conns
        self.fids = itertools.count()             # attach takes the first
        self.roots = {}                           # uname -> attached fid
        self.pending = {}                         # tag -> (callback, timer Event or None)

    def new_tag(self):
        tag = next(self.tags) % wire.NOTAG
        while tag in self.pending:
            tag = next(self.tags) % wire.NOTAG
        return tag

    def answer(self, tag, msg):
        """Hand msg (None: it never came) to the request waiting on tag;
        a late reply to a request given up on is dropped."""
        entry = self.pending.pop(tag, None)
        if entry is not None:
            cb, timer = entry
            if timer is not None:
                timer.cancel()
            cb(msg)


def _check(r):
    if isinstance(r, Rerror):
        raise ClientError(r.ename)


def attach(conn, uname, timeout):
    """Step: the fid attached as uname, attaching a fresh fid on first use;
    None if the reply never came."""
    fid = conn.roots.get(uname)
    if fid is None:
        fid = next(conn.fids)
        r = yield (lambda t: Tattach(t, fid, uname, ""), timeout)
        if r is None:
            return None
        _check(r)
        conn.roots[uname] = fid
    return fid


def walk(conn, uname, path, timeout):
    """Step: a new fid walked from uname's root to path; None if a reply
    never came.  Raises ClientError if refused or path does not exist."""
    root = yield from attach(conn, uname, timeout)
    if root is None:
        return None
    names = tuple(p for p in path.split("/") if p)
    fid = next(conn.fids)
    r = yield (lambda t: Twalk(t, root, fid, names), timeout)
    if r is None:
        return None
    _check(r)
    if len(r.qids) != len(names):
        raise ClientError("no such file")
    return fid


def read_all(fid, timeout):
    """Step: the bytes of an open fid from offset 0 to end of file; None if
    a read failed or its reply never came."""
    out = bytearray()
    while True:
        r = yield (lambda t, o=len(out): Tread(t, fid, o, IOUNIT), timeout)
        if not isinstance(r, Rread):
            return None
        if not r.data:
            return bytes(out)
        out += r.data


class FileClient:
    """One client identity: an endpoint on the network plus a Conn per
    server it talks to."""

    def __init__(self, net, eid, uname="admin", timeout=CLIENT_TIMEOUT):
        self.net = net
        self.eid = eid
        self.uname = uname
        self.timeout = timeout
        self._tags = itertools.count(1)   # one tag sequence across servers
        self._conns = {}                  # server ref -> Conn
        net.register(eid, self._on_frame)

    # -- transport ---------------------------------------------------------

    def _on_frame(self, src, frame):
        try:
            msg = wire.decode_message(frame)
        except wire.WireError:
            return
        conn = self._conns.get(("net", src))
        if conn is not None:
            conn.answer(msg.tag, msg)

    def _conn(self, ref):
        conn = self._conns.get(ref)
        if conn is None:
            conn = self._conns[ref] = Conn(self._tags)
        return conn

    def submit(self, ref, build, cb):
        """Issue one T-message without waiting; cb(R-message) later.
        Returns the tag."""
        kind, target = ref
        conn = self._conn(ref)
        tag = conn.new_tag()
        msg = build(tag)
        if kind == "local":
            replies = []
            target.dispatch(self.eid, msg, replies.append)
            if not replies:
                raise ClientError("local server deferred unexpectedly")
            cb(replies[0])
        else:
            conn.pending[tag] = (cb, None)
            self.net.send(self.eid, target, wire.encode_message(msg))
        return tag

    def call(self, ref, build):
        """Send one T-message and run the clock until its reply arrives."""
        box = []
        tag = self.submit(ref, build, box.append)
        deadline = self.net.now + self.timeout
        while not box:
            nxt = self.net.peek_time()
            if nxt is None or nxt > deadline:
                del self._conns[ref].pending[tag]
                raise ClientError("timeout")
            self.net.step()
        _check(box[0])
        return box[0]

    def _run(self, ref, step):
        """Drive a step to its end, one call per T-message."""
        try:
            build, _ = next(step)
            while True:
                build, _ = step.send(self.call(ref, build))
        except StopIteration as done:
            return done.value

    def _walk(self, ref, relpath):
        return self._run(ref, walk(self._conn(ref), self.uname, relpath, self.timeout))

    def _clunk(self, ref, fid):
        try:
            self.call(ref, lambda t: Tclunk(t, fid))
        except ClientError:
            pass

    # -- file operations ------------------------------------------------

    def open_path(self, ref, relpath, mode=OREAD):
        """Walk and open; returns a handle for read_at/submit_read/close."""
        fid = self._walk(ref, relpath)
        try:
            r = self.call(ref, lambda t: Topen(t, fid, mode))
        except ClientError:
            self._clunk(ref, fid)
            raise
        return {"ref": ref, "fid": fid, "iounit": r.iounit}

    def read_at(self, handle, offset, count=None):
        count = count if count is not None else min(IOUNIT, handle["iounit"])
        r = self.call(handle["ref"],
                      lambda t: Tread(t, handle["fid"], offset, count))
        return r.data

    def submit_read(self, handle, offset, count, cb):
        """Fire one Tread without waiting; cb(Rread or Rerror)."""
        self.submit(handle["ref"],
                    lambda t: Tread(t, handle["fid"], offset, count), cb)

    def close(self, handle):
        self._clunk(handle["ref"], handle["fid"])

    def read(self, ref, relpath) -> bytes:
        handle = self.open_path(ref, relpath, OREAD)
        try:
            return self._run(ref, read_all(handle["fid"], self.timeout))
        finally:
            self.close(handle)

    def write(self, ref, relpath, data: bytes) -> int:
        handle = self.open_path(ref, relpath, OWRITE)
        try:
            r = self.call(ref, lambda t: Twrite(t, handle["fid"], 0, data))
            return r.count
        finally:
            self.close(handle)

    def ls(self, ref, relpath) -> list:
        """Stat records of a directory's children, in server order."""
        return wire.decode_stats(self.read(ref, relpath))

    def stat(self, ref, relpath) -> wire.Stat:
        fid = self._walk(ref, relpath)
        try:
            return self.call(ref, lambda t: Tstat(t, fid)).stat
        finally:
            self._clunk(ref, fid)
