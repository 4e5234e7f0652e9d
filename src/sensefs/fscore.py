"""Server-side framework: node trees, fid tables, permissions, dispatch.

Both the leaf device servers and the cluster-head multiplexers are built
on this module.  A server owns a tree of Nodes, tracks per-connection
sessions (fid tables), and turns each incoming T-message into exactly one
R-message with the same tag.  Handlers that cannot answer synchronously
return a Defer and complete later; the dispatch loop never blocks.

Synthetic contents are generated once per open: the read at offset 0 of
a fid keeps what it generated (a directory's children, or a file's
bytes when the reply came short of the count, i.e. was the whole file),
and later offsets are served from that, so reading to end of file runs
a handler once.  Every read at offset 0 generates afresh, and a write
through the fid drops what it kept.  A directory reply holds as many
whole stat records as fit its count, and a record larger than
wire.MAX_STAT is refused (directory entry too large), as is a count that
not even the next record fits; so a reply that leaves MAX_STAT bytes of
its count unused proves that no entry is left.

A fid's answer may be asked ahead of its read: by a write that is a
question (the query-file idiom of Plan 9's /net/cs: a write handler that
returns bytes, or a Defer landing on bytes, answers the write), or by a
server at the open (a started Defer, which may still be in flight).  The
fid's next read at offset 0 serves the answer in place of the read
handler, waiting for it if it has not landed, and keeps it whole for
later offsets; an FsError answers that read and keeps nothing.  The
answer belongs to that fid alone, so no server needs a table keyed by
fid, and a clunk drops it with the fid.

A session's T-messages are handled in the order they arrive, and a walk,
open, stat or clunk is answered at once, never Deferred.  A client may so
send a request on a fid in one flight with the walk that binds it
(client.on_walked): a request that overtook its walk on a link that
reorders frames is refused (unknown fid), and the client sends it again.
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


class Defer:
    """A handler result that completes later.

    start(done) is called once by the dispatcher; the handler must
    eventually invoke done(result) exactly once, where result is the
    handler's normal return value or an FsError.
    """

    def __init__(self, start):
        self.start = start


def started(defer) -> Defer:
    """defer, started now: a Defer of its outcome that hands it to a
    reader at once if it has already landed, and otherwise when it lands."""
    landed, waiting = [], []

    def land(outcome):
        landed.append(outcome)
        for done in waiting:
            done(outcome)

    defer.start(land)
    return Defer(lambda done: done(landed[0]) if landed else waiting.append(done))


class Node:
    """A named entry in a server tree: directory or file."""

    def __init__(self, name, mode, owner="admin", group="admin",
                 read=None, write=None, length=None, children_fn=None,
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
        self.mtime = 0
        self._version = 0
        self._path = next(_qid_paths)
        self._is_dir = is_dir
        self._children = {} if is_dir else None
        self.children_fn = children_fn
        self.read_handler = read
        self.write_handler = write
        self.length_fn = length

    @property
    def is_dir(self) -> bool:
        return self._is_dir

    @property
    def qid(self) -> Qid:
        return Qid(QDIR if self._is_dir else QFILE, self._version, self._path)

    def bump_version(self):
        self._version += 1

    def add(self, child: "Node") -> "Node":
        if not self._is_dir:
            raise ValueError("%s is not a directory" % self.name)
        if child.name in self._children:
            raise ValueError("duplicate child %r" % child.name)
        self._children[child.name] = child
        return child

    def list_children(self):
        if not self._is_dir:
            raise FsError("not a directory")
        if self.children_fn is not None:
            return list(self.children_fn())
        return list(self._children.values())

    def lookup(self, name):
        for child in self.list_children():
            if child.name == name:
                return child
        return None

    def length(self) -> int:
        if self.length_fn is not None:
            return self.length_fn()
        return 0

    def stat(self) -> Stat:
        return Stat(self.name, self.qid, self.mode, self.length(),
                    self.owner, self.group, self.mtime)


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
    __slots__ = ("node", "uname", "open_mode", "dir_offset", "dir_index", "data", "answer")

    def __init__(self, node, uname):
        self.node = node
        self.uname = uname
        self.open_mode = None      # None while closed, else OREAD/OWRITE/ORDWR
        self.dir_offset = 0        # next valid directory read offset
        self.dir_index = 0
        self.data = None           # what the read at offset 0 generated
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
            reply(Rerror(tag, e.ename))
            return
        if isinstance(result, Defer):
            def done(outcome):
                if isinstance(outcome, FsError):
                    reply(Rerror(tag, outcome.ename))
                else:
                    reply(wrap(tag, outcome))
            result.start(done)
        else:
            reply(wrap(tag, result))

    # -- per-message handlers (overridable by subclasses) -------------

    def t_attach(self, conn_key, msg: Tattach):
        if msg.aname not in ("",):
            raise FsError("no such tree")
        session = self.sessions.get(conn_key)
        if session is None:
            if len(self.sessions) >= self.max_sessions:
                raise FsError("too many sessions")
            session = Session(conn_key, self.max_fids)
            self.sessions[conn_key] = session
        if msg.fid in session.fids:
            raise FsError("fid in use")
        session.bind(msg.fid, self.root, msg.uname)
        return self.root.qid

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
        ent.dir_offset = 0
        ent.dir_index = 0
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
        if msg.offset:
            if ent.data is None:
                return node.read_handler(msg.offset, count)
            return ent.data[msg.offset:msg.offset + count]
        answer, ent.answer, ent.data = ent.answer, None, None
        result = node.read_handler(0, count) if answer is None else answer

        def keep(data):
            # an answer is the whole file, and so is a reply short of the count
            if isinstance(data, bytes) and (answer is not None or len(data) < count):
                ent.data = data
                return data[:count]
            return data

        if isinstance(result, Defer):
            return Defer(lambda done, start=result.start: start(lambda out: done(keep(out))))
        return keep(result)

    def _read_dir(self, ent, offset, count):
        if offset == 0:
            ent.dir_offset = 0
            ent.dir_index = 0
            ent.data = ent.node.list_children()
        elif offset != ent.dir_offset:
            raise FsError("bad directory offset")
        children = ent.data
        out = bytearray()
        idx = ent.dir_index
        while idx < len(children):
            rec = wire.pack_stat(children[idx].stat())
            if len(rec) > MAX_STAT:
                raise FsError("directory entry too large")
            if len(out) + len(rec) > count:
                break
            out.extend(rec)
            idx += 1
        if idx == ent.dir_index < len(children):     # not even one entry fits: no end of file
            raise FsError("directory entry too large")
        ent.dir_index = idx
        ent.dir_offset = offset + len(out)
        return bytes(out)

    def t_write(self, session, msg: Twrite):
        ent = session.get(msg.fid)
        if ent.open_mode not in (OWRITE, ORDWR):
            raise FsError("fid not open for writing")
        node = ent.node
        if node.is_dir or node.write_handler is None:
            raise FsError("not writable")
        return self.written(ent, node.write_handler(msg.offset, msg.data), len(msg.data))

    @staticmethod
    def written(ent, result, count):
        """The reply to a write of count bytes through ent, from what its
        handler returned (or a Defer landed on): the count written, or bytes
        that answer the write, kept as ent's answer; an answered write
        counts all count bytes."""
        ent.data = ent.answer = None
        if isinstance(result, Defer):
            return Defer(lambda done, start=result.start:
                         start(lambda out: done(_answered(ent, out, count))))
        ent.node.bump_version()
        return _answered(ent, result, count)

    def t_clunk(self, session, msg: Tclunk):
        if msg.fid not in session.fids:
            raise FsError("unknown fid")
        del session.fids[msg.fid]
        return None

    def t_stat(self, session, msg: Tstat):
        return session.get(msg.fid).node.stat()


def _answered(ent, out, count):
    """A write handler's outcome as its reply: bytes are kept as ent's
    answer and count all count bytes written; anything else stands."""
    if isinstance(out, bytes):
        ent.answer = out
        return count
    return out


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
