"""Server-side framework: node trees, fid tables, permissions, dispatch.

Both the leaf device servers and the cluster-head multiplexers are built
on this module.  A server owns a tree of Nodes, tracks per-connection
sessions (fid tables), and turns each incoming T-message into exactly one
R-message with the same tag.  A handler that cannot answer at once
returns a Future and lands it later; the dispatch loop never blocks.

A read handler takes no offset or count: it returns the whole file, as
bytes or a Future landing on bytes or an FsError, and t_read alone slices
it (as Plan 9's readstr), so a file's reply holds min(count, IOUNIT, bytes
left).  Synthetic contents are generated once per open: the read at offset
0 of a fid generates afresh and keeps what it generated (a file's bytes,
or a directory's children, less those each reply has listed), later
offsets are served from that, so reading to end of file runs a handler
once, and a failed read keeps nothing.  A write through the fid drops what
it kept, and a read at an offset on a fid that kept nothing generates the
file, slices it and keeps nothing, so a device's mem stays random access.
A directory reply holds as many whole stat records as fit its count, and a
record larger than wire.MAX_STAT is refused (directory entry too large),
as is a count that not even the next record fits; so a reply that leaves
MAX_STAT bytes of its count unused is the last.

A write handler is called as write(offset, data, uname), uname being the
user its fid was attached as (lib9p's r->fid->uid), and returns the count
written, or bytes, or a Future landing on either.  Bytes answer the write
(counting all its bytes): a write may be a question, as in the query-file
idiom of Plan 9's /net/cs.  A server may also ask a fid's answer at the
open (a Future, which may still be in flight).  The fid's next read at
offset 0 takes the answer in place of generating the file, waiting for it
if it has not landed.  The answer belongs to that fid alone, so no server
needs a table keyed by fid, and a clunk drops it with the fid.

A session's T-messages are handled in the order they arrive, and an
attach, walk, open, stat or clunk is answered at once, never by a Future.
A client may so send requests in the flight of the attach or walk that
binds their fid (client.flight): one that overtook it or the open where
frames reorder is refused (unknown fid, or not open), and is sent again.
"""

from __future__ import annotations

import itertools

from . import wire
from .wire import (
    Qid, Stat, QDIR, QFILE, DMDIR, IOUNIT, MAX_STAT,
    OREAD, OWRITE, ORDWR,
    Rattach, Rwalk, Ropen, Rread, Rwrite, Rclunk, Rstat, Rerror,
    Tattach, Twalk, Topen, Tread, Twrite, Tclunk, Tstat,
)

# qid paths are allocated process-wide so distinct servers never collide
_qid_paths = itertools.count(1)

DEFAULT_MAX_FIDS = 64
DEFAULT_MAX_SESSIONS = 4


class FsError(Exception):
    """A file-system level failure; its message becomes the Rerror ename."""

    def __init__(self, ename: str):
        super().__init__(ename)
        self.ename = ename


class Future:
    """An outcome still in flight: Future(start) calls start(land) at once,
    land(outcome) lands it exactly once, and wait(cb) calls cb(outcome)
    when it lands, or at once if it has.  It keeps its outcome."""

    __slots__ = ("outcome", "waiting")

    def __init__(self, start=None):
        self.waiting = []          # None once landed
        if start is not None:
            start(self.land)

    def land(self, outcome):
        waiting, self.waiting, self.outcome = self.waiting, None, outcome
        for cb in waiting:
            cb(outcome)

    def wait(self, cb):
        if self.waiting is None:
            cb(self.outcome)
        else:
            self.waiting.append(cb)


def then(result, fn):
    """fn applied to a handler's result, or, for a Future, a Future of fn
    applied to its outcome; an FsError outcome passes through unchanged."""
    if isinstance(result, Future):
        return Future(lambda land: result.wait(
            lambda out: land(out if isinstance(out, FsError) else fn(out))))
    return fn(result)


class Node:
    """A named entry in a server tree: directory or file.  Its name, mode,
    owner, group and length are fixed once it is made; bump_version alone
    changes its stat, and drops `packed`, its stat record as listed."""

    def __init__(self, name, mode, owner="admin", group="admin",
                 read=None, write=None, length=0, children_fn=None,
                 is_dir=False):
        if is_dir or mode & DMDIR:
            is_dir = True
            mode |= DMDIR
        if "/" in name or name in (".", ".."):
            raise ValueError("bad node name %r" % name)
        self.name = name
        self.mode = mode
        self.owner = owner
        self.group = group
        self.length = length
        self._version = 0
        self._path = next(_qid_paths)
        self.is_dir = is_dir
        self._children = {} if is_dir else None
        self.children_fn = children_fn
        self.read_handler = read
        self.write_handler = write
        self.packed = None

    @property
    def qid(self) -> Qid:
        return Qid(QDIR if self.is_dir else QFILE, self._version, self._path)

    def bump_version(self):
        self._version += 1
        self.packed = None

    def add(self, child: "Node") -> "Node":
        if not self.is_dir:
            raise ValueError("%s is not a directory" % self.name)
        if child.name in self._children:
            raise ValueError("duplicate child %r" % child.name)
        self._children[child.name] = child
        return child

    def list_children(self):
        if not self.is_dir:
            raise FsError("not a directory")
        if self.children_fn is not None:
            return list(self.children_fn())
        return list(self._children.values())

    def lookup(self, name):
        if self.children_fn is None:
            return self._children.get(name)
        return next((child for child in self.children_fn() if child.name == name), None)

    def stat(self) -> Stat:
        return Stat(self.name, self.qid, self.mode, self.length, self.owner, self.group)


def make_dir(name, mode=0o555, **kw) -> Node:
    return Node(name, mode, is_dir=True, **kw)


def make_file(name, mode=0o444, **kw) -> Node:
    return Node(name, mode, **kw)


class UserDb:
    """uname -> set of group names; everyone belongs to an own-name group."""

    def __init__(self, members=None):
        self._groups = {uname: {uname, *groups} for uname, groups in (members or {}).items()}

    def groups_of(self, uname):
        return self._groups.get(uname, {uname})


DEFAULT_USERS = UserDb({"admin": {"admin"}, "guest": {"users"}, "mux": {"mux"}})


class _Fid:
    __slots__ = ("node", "uname", "open_mode", "dir_offset", "data", "answer")

    def __init__(self, node, uname):
        self.node = node
        self.uname = uname
        self.open_mode = None      # None while closed, else OREAD/OWRITE/ORDWR
        self.dir_offset = 0        # next valid directory read offset
        self.data = None           # what the read at offset 0 generated, less what was listed
        self.answer = None         # the answer asked ahead of the next offset-0 read


class Session:
    """Per-connection state: the fid table."""

    def __init__(self, conn_key, max_fids):
        self.conn_key = conn_key
        self.max_fids = max_fids
        self.fids = {}

    def get(self, fid) -> _Fid:
        ent = self.fids.get(fid)
        if ent is None:
            raise FsError("unknown fid")
        return ent

    def bind(self, fid, node, uname) -> _Fid:
        if len(self.fids) >= self.max_fids and fid not in self.fids:
            raise FsError("too many fids")
        ent = _Fid(node, uname)
        self.fids[fid] = ent
        return ent


class Server:
    """A file server: one tree, many connections, paired T/R dispatch."""

    def __init__(self, root: Node, users: UserDb = None, name: str = "srv",
                 max_sessions: int = DEFAULT_MAX_SESSIONS,
                 max_fids: int = DEFAULT_MAX_FIDS):
        assert root.is_dir
        self.root = root
        self.users = users or DEFAULT_USERS
        self.name = name
        self.max_sessions = max_sessions
        self.max_fids = max_fids
        self.sessions = {}

    # -- permission evaluation: owner bits, else group bits, else other --

    def _permits(self, node: Node, uname: str, want: int) -> bool:
        mode = node.mode
        if uname == node.owner:
            bits = (mode >> 6) & 7
        elif node.group in self.users.groups_of(uname):
            bits = (mode >> 3) & 7
        else:
            bits = mode & 7
        return (bits & want) == want

    def check_open_perm(self, node: Node, uname: str, mode: int):
        if node.is_dir and mode != OREAD:
            raise FsError("is a directory")
        want = {OREAD: 4, OWRITE: 2, ORDWR: 6}[mode]
        if not self._permits(node, uname, want):
            raise FsError("permission denied")

    # -- dispatch -----------------------------------------------------

    def dispatch(self, conn_key, msg, reply):
        """Handle one T-message; reply(r_message) is invoked exactly once,
        immediately or later (deferred handlers)."""
        tag = msg.tag
        name, wrap = _HANDLERS.get(type(msg), (None, None))
        try:
            if name == "t_attach":
                result = self.t_attach(conn_key, msg)
            else:
                session = self.sessions.get(conn_key)
                if session is None:
                    raise FsError("no session")
                if name is None:
                    raise FsError("unknown message")
                result = getattr(self, name)(session, msg)
        except FsError as e:
            result = e.with_traceback(None)     # its traceback holds this frame: no cycle
        if isinstance(result, Future):
            result.wait(lambda out: reply(Rerror(tag, out.ename) if isinstance(out, FsError)
                                          else wrap(tag, out)))
        else:
            reply(Rerror(tag, result.ename) if isinstance(result, FsError) else wrap(tag, result))

    # -- per-message handlers (overridable by subclasses) -------------

    def t_attach(self, conn_key, msg: Tattach):
        node = self.root            # aname is a path from it, as diod serves it ("": the root)
        for name in filter(None, msg.aname.split("/")):
            node = node.lookup(name) if node.is_dir else None
            if node is None:
                raise FsError("no such tree")
        session = self.sessions.get(conn_key)
        if session is None:
            if len(self.sessions) >= self.max_sessions:
                raise FsError("too many sessions")
            session = Session(conn_key, self.max_fids)
            self.sessions[conn_key] = session
        if msg.fid in session.fids:
            raise FsError("fid in use")
        session.bind(msg.fid, node, msg.uname)
        return node.qid

    def t_walk(self, session, msg: Twalk):
        ent = session.get(msg.fid)
        if ent.open_mode is not None:
            raise FsError("fid is open")
        if msg.newfid != msg.fid and msg.newfid in session.fids:
            raise FsError("newfid in use")
        node = ent.node
        qids = []
        for i, name in enumerate(msg.names):
            if not node.is_dir:
                break
            child = node.lookup(name)
            if child is None:
                if i == 0:
                    raise FsError("no such file")
                break
            node = child
            qids.append(node.qid)
        if len(qids) == len(msg.names):
            session.bind(msg.newfid, node, ent.uname)
        return qids

    def t_open(self, session, msg: Topen):
        ent = session.get(msg.fid)
        if ent.open_mode is not None:
            raise FsError("fid already open")
        self.check_open_perm(ent.node, ent.uname, msg.mode)
        ent.open_mode = msg.mode
        return ent.node.qid

    def t_read(self, session, msg: Tread):
        ent = session.get(msg.fid)
        if ent.open_mode not in (OREAD, ORDWR):
            raise FsError("fid not open for reading")
        count = min(msg.count, IOUNIT)
        node = ent.node
        if node.is_dir:
            return self._read_dir(ent, msg.offset, count)
        if node.read_handler is None:
            raise FsError("not readable")
        offset, end = msg.offset, msg.offset + count
        if offset:
            if ent.data is not None:
                return ent.data[offset:end]
            return then(node.read_handler(), lambda data: data[offset:end])
        answer, ent.answer, ent.data = ent.answer, None, None

        def keep(data):
            ent.data = data
            return data[:end]

        return then(node.read_handler() if answer is None else answer, keep)

    def _read_dir(self, ent, offset, count):
        if offset == 0:
            ent.dir_offset = 0
            ent.data = ent.node.list_children()
        elif offset != ent.dir_offset:
            raise FsError("bad directory offset")
        children, out, idx = ent.data, bytearray(), 0
        for child in children:
            rec = child.packed = child.packed or wire.pack_stat(child.stat())
            if len(rec) > MAX_STAT:
                raise FsError("directory entry too large")
            if len(out) + len(rec) > count:
                break
            out.extend(rec)
            idx += 1
        if idx == 0 < len(children):    # not even one entry fits: no end of file
            raise FsError("directory entry too large")
        ent.data = children[idx:]
        ent.dir_offset = offset + len(out)
        return bytes(out)

    def t_write(self, session, msg: Twrite):
        ent = session.get(msg.fid)
        if ent.open_mode not in (OWRITE, ORDWR):
            raise FsError("fid not open for writing")
        node = ent.node
        if node.is_dir or node.write_handler is None:
            raise FsError("not writable")
        result = node.write_handler(msg.offset, msg.data, ent.uname)
        ent.data = ent.answer = None
        if not isinstance(result, Future):
            node.bump_version()

        def answered(out):
            if isinstance(out, bytes):
                ent.answer = out
                return len(msg.data)
            return out

        return then(result, answered)

    def t_clunk(self, session, msg: Tclunk):
        if msg.fid not in session.fids:
            raise FsError("unknown fid")
        del session.fids[msg.fid]
        return None

    def t_stat(self, session, msg: Tstat):
        return session.get(msg.fid).node.stat()


# T-message type -> (handler method name, R-message builder).  Handlers
# are looked up by name so subclasses can override them; only t_attach
# is served without a session.
_HANDLERS = {
    Tattach: ("t_attach", Rattach),
    Twalk: ("t_walk", lambda tag, qids: Rwalk(tag, tuple(qids))),
    Topen: ("t_open", lambda tag, qid: Ropen(tag, qid, IOUNIT)),
    Tread: ("t_read", Rread),
    Twrite: ("t_write", Rwrite),
    Tclunk: ("t_clunk", lambda tag, _: Rclunk(tag)),
    Tstat: ("t_stat", Rstat),
}
