"""Client side of the protocol: one connection core, one continuation
driver and the file client.

Every exchange a node starts goes through a Conn, the client end of one
connection: it knows both ends (network, own endpoint, peer), allocates
tags and fids, hands each R-message to the request waiting on its tag,
and remembers the fid attached per user name.  Conn.issue is the one way
a T-message leaves a node, and receive() the one way a frame enters one.

The protocol sequences are generator steps (attach, walk, read_all,
request, on_fid, write_file, on_walked).  A step says only what to send:
it yields a build per T-message, build(tag) making the message, and gets
back its R-message, a refusal (an Rerror) or a reply that never came (a
Timeout) being raised at that yield as a ClientError, so a step never
tests a reply for failure; or it yields a Future (fscore's) or a flight
(spawn).  spawn is the one continuation driver, so any number of steps
keep requests in flight at once, and gather the one fan-out (a flight, a
head's member reads, a run).  spawn's callers fix how long a request
waits:

    muxfs.Multiplexer  every device exchange of a cluster head, under the
                       timeout named where the step is spawned
    FileClient._run    every file operation: one step (call, read, write,
                       stat) or many (read_many, write_many) at once, the
                       clock run until all end; a request waits CLIENT_TIMEOUT

FileClient gives read/write/ls/stat on paths against two kinds of
server reference:

    ("net", endpoint_id)  -- a simulated server reached over the wire
    ("local", Server)     -- an in-process fscore server (namespace views)

Its batches (read_many, write_many), the views' way to a head's ctl,
keep a fid open per (file, mode), as Plan 9's clients keep /net/cs: every
offset-0 read generates afresh and a write resets the fid's answer, so a
kept fid reads what a fresh one would.  read, write, ls and stat reach
any file, so each walks and clunks its own fid, and the kept stay few:
ls and stat in one flight with the walk and no wait for the clunk
(on_walked), an ls in 1 round trip and 8 frames and a stat in 1 and 6;
read and write in turn (on_fid), since the benchmark pins a cat's ticks.
"""

from __future__ import annotations

import itertools
from collections import deque
from contextlib import suppress
from functools import partial

from . import wire
from .fscore import FsError, Future
from .wire import (
    IOUNIT, MAX_STAT, OREAD, OWRITE, ORDWR,
    Tattach, Twalk, Topen, Tread, Twrite, Tclunk, Tstat, Rerror,
)

CLIENT_TIMEOUT = 20000   # ticks a request will wait for its reply
# bytes read_all gathers before it fails (file too large): far above any
# real file, the longest being a head's member index at about 70 bytes a
# member, so only a server whose replies never end reaches it
MAX_FILE = 1 << 20
# refusals of a request that overtook the walk or the open of its fid (fscore)
OVERTAKEN = ("unknown fid", "fid not open for reading", "fid not open for writing")


class ClientError(FsError):
    """A request refused by its server (its Rerror's ename) or never answered (Timeout)."""


class Timeout(ClientError):
    """A request whose reply never came."""

    def __init__(self):
        super().__init__("timeout")


def receive(net, eid, src, frame, server=None, conn=None):
    """Handle one frame that reached endpoint eid from src: a T-message goes
    to server.dispatch, whose reply goes back to src; an R-message goes to
    conn; anything else is dropped."""
    try:
        msg = wire.decode_message(frame)
    except wire.WireError:
        net.log.add(net.now, "badframe", src, eid, "")
        return
    if isinstance(msg, wire.T_TYPES):
        if server is not None:
            server.dispatch(src, msg, lambda r: net.send(eid, src, wire.encode_message(r)))
    elif conn is not None:
        conn.answer(msg.tag, msg)


class Conn:
    """The client end of one connection from endpoint eid to peer: tags in
    flight, fids, attached roots."""

    def __init__(self, net, eid, peer, tags=None):
        self.net = net
        self.eid = eid
        self.peer = peer
        self.tags = tags or itertools.count(1)   # may be shared between conns
        self.fids = itertools.count()             # attach takes the first
        self.roots = {}                           # uname -> attached fid
        self.open_fids = {}                       # a file's key -> the fid kept open on it
        self.pending = {}                         # tag -> (callback, timer Event or None)

    def new_tag(self):
        tag = next(self.tags) % wire.NOTAG
        while tag in self.pending:
            tag = next(self.tags) % wire.NOTAG
        return tag

    def issue(self, build, cb, timeout=None):
        """Send build(tag) to the peer; cb(R-message) later, or cb(a Timeout)
        if timeout ticks pass first.  Returns the tag.  A request that
        cannot be encoded is refused as a ClientError, and nothing is sent."""
        tag = self.new_tag()
        try:
            frame = wire.encode_message(build(tag))
        except wire.WireError as e:
            raise ClientError(str(e)) from None
        timer = None
        if timeout is not None:
            timer = self.net.schedule(timeout, lambda: self.answer(tag, Timeout()))
        self.pending[tag] = (cb, timer)
        self.net.send(self.eid, self.peer, frame)
        return tag

    def answer(self, tag, msg):
        """Hand msg, its R-message or a Timeout if it never came, to the
        request waiting on tag; a late reply to a request given up on is
        dropped."""
        entry = self.pending.pop(tag, None)
        if entry is not None:
            cb, timer = entry
            if timer is not None:
                timer.cancel()
            cb(msg)


# ----------------------------------------------------------------------
# the continuation driver
# ----------------------------------------------------------------------

def spawn(step, call, done):
    """Drive a step as continuations.  call(build, cb) issues each
    T-message it yields, and cb resumes it with the R-message; a Future it
    yields resumes it when the future lands.  An Rerror handed to cb is
    raised inside the step as a ClientError, and so is an FsError that
    call raises, that cb is handed (a Timeout: the reply never came) or
    that a future lands with.  A tuple of builds it yields is a flight,
    issued at once and in order (gather) but for those after one that call
    refuses, which take its refusal unsent; the step resumes with the list
    of outcomes when the last lands, a refusal or a Timeout in it not
    raised.  done gets the step's return value or the FsError it raised;
    an error handed on as a value drops its traceback (no reference cycle)."""
    _resume(step, call, done, None)


def _resume(step, call, done, value):
    try:
        if isinstance(value, FsError):
            ask = step.throw(value.with_traceback(None))
        elif type(value) is Rerror:
            ask = step.throw(ClientError(value.ename))
        else:
            ask = step.send(value)
    except StopIteration as stop:
        done(stop.value)
        return
    except FsError as e:
        done(e.with_traceback(None))
        return
    resume = partial(_resume, step, call, done)
    if isinstance(ask, Future):
        ask.wait(resume)
        return
    if type(ask) is tuple:
        refused = []
        def issue(build, cb):
            if not refused:
                try:
                    return call(build, cb)
                except FsError as e:
                    refused.append(e)
            raise refused[0]
        gather([partial(spawn, request(build), issue) for build in ask], resume)
        return
    try:
        call(ask, resume)
        return
    except FsError as e:
        refused = e
    resume(refused)              # outside the handler: no exception context to chain


def gather(starts, done):
    """Call every start(land) at once, each handing land its outcome then
    or later; done(the outcomes, in start order) once all have landed."""
    outcomes, left = [None] * len(starts), [len(starts)]

    def land(i, outcome):
        outcomes[i] = outcome
        left[0] -= 1
        if not left[0]:
            done(outcomes)

    if not starts:
        done(outcomes)
    for i, start in enumerate(starts):
        start(partial(land, i))


def once(table, key, start, *args):
    """Step: table[key], else the outcome of the step start(*args), worked
    out once for however many steps ask at a time: while it runs,
    table[key] is a Future that later askers wait on.  An error is raised
    to every asker and not kept, and no outcome is kept if table[key] was
    removed meanwhile."""
    have = table.get(key)
    if isinstance(have, Future):
        return (yield have)
    if have is not None:
        return have
    future = table[key] = Future()
    try:
        outcome = yield from start(*args)
    except FsError as e:
        outcome = e
    if table.get(key) is future:
        if isinstance(outcome, FsError):
            del table[key]
        else:
            table[key] = outcome
    future.land(outcome)
    if isinstance(outcome, FsError):
        try:
            raise outcome
        finally:
            del outcome, future     # its traceback holds this frame: no reference cycle
    return outcome


# ----------------------------------------------------------------------
# protocol steps
# ----------------------------------------------------------------------

def attach(conn, uname):
    """Step: the fid attached as uname, attaching a fresh fid on first use
    (once, for all steps that ask meanwhile)."""
    return (yield from once(conn.roots, uname, _attach, conn, uname))


def _attach(conn, uname):
    fid = next(conn.fids)
    yield lambda t: Tattach(t, fid, uname, "")
    return fid


def walk(conn, uname, path):
    """Step: a new fid walked from uname's root to path.  Raises ClientError
    if refused or path does not exist, or Timeout if a reply never came."""
    root = yield from attach(conn, uname)
    names = tuple(p for p in path.split("/") if p)
    fid = next(conn.fids)
    r = yield lambda t: Twalk(t, root, fid, names)
    if len(r.qids) != len(names):
        raise ClientError("no such file")
    return fid


def read_all(fid, isdir=False, first=None):
    """Step: the bytes of an open fid from offset 0 to end of file: an
    empty reply, or with isdir (a directory) a reply that leaves MAX_STAT
    bytes of its count unused, which fscore's rule for directory reads
    proves complete; first, if given, is the offset-0 read's reply.
    Raises ClientError if a read is refused or the bytes pass MAX_FILE,
    or Timeout if a reply never came."""
    out = bytearray()
    r = first or (yield lambda t: Tread(t, fid, 0, IOUNIT))
    while r.data and not (isdir and len(r.data) <= IOUNIT - MAX_STAT):
        out += r.data
        if len(out) > MAX_FILE:
            raise ClientError("file too large")
        r = yield lambda t, o=len(out): Tread(t, fid, o, IOUNIT)
    return bytes(out + r.data)


def request(build):
    """Step: the R-message to the one T-message build(tag).  Raises
    ClientError if refused, or Timeout if the reply never came."""
    return (yield build)


def on_fid(conn, uname, path, use, mode, keep=False):
    """Step: the value of the step use(fid) on a new fid walked to path and
    opened in mode (a directory is the error 'is a directory'), clunked
    after it whether use ended or raised (a refused or lost clunk is
    ignored).  With keep, the fid is conn's kept one for path and mode
    (conn.open_fids), walked and opened on first use, and kept if use
    ends; a step holds it alone (one asking meanwhile walks its own,
    clunked if the first is back at its end), and a ClientError clunks it,
    so a late reply is never read as a later request's."""
    key = (path, mode) if keep else None
    fid = conn.open_fids.pop(key, None)
    opening = fid is None
    if opening:
        fid = yield from walk(conn, uname, path)
    try:
        if opening and (yield lambda t: Topen(t, fid, mode)).qid.is_dir:
            raise ClientError("is a directory")
        out = yield from use(fid)
    except ClientError as e:
        out = e
    if key is None or isinstance(out, ClientError) or key in conn.open_fids:
        with suppress(ClientError):
            yield lambda t: Tclunk(t, fid)
    else:
        conn.open_fids[key] = fid
    if isinstance(out, ClientError):
        raise out
    return out


def write_file(conn, uname, path, data, answer=False, keep=False):
    """Step: write data to the file at path: walk, open, write and clunk
    (on_fid); the count written.  With answer, the write is a question:
    the file is opened ORDWR and read to end of file after the write, and
    the answer read is returned."""
    def use(fid):
        count = (yield lambda t: Twrite(t, fid, 0, data)).count
        return (yield from read_all(fid)) if answer else count
    return on_fid(conn, uname, path, use, ORDWR if answer else OWRITE, keep=keep)


def on_walked(conn, uname, path, builds, clunk, use=None):
    """Step: the outcomes (R-message or FsError) of each build(tag, fid) of
    builds on a new fid walked to path, or with use the value of the step
    use(fid, *those), which judges them in the order they depend on.  The
    Twalk and builds go out in one flight; a failed walk is raised, and a
    request refused as OVERTAKEN is sent once more, in flight order, up to
    the first other failure.  clunk(fid) sends the fid's Tclunk and waits
    for nothing: it runs however the step ends once the walk succeeded, and
    after a walk whose reply never came, which may have bound the fid."""
    root = yield from attach(conn, uname)
    names = tuple(p for p in path.split("/") if p)
    fid = next(conn.fids)
    builds = [partial(build, fid=fid) for build in builds]
    walked, *replies = yield (lambda t: Twalk(t, root, fid, names), *builds)
    if isinstance(walked, Timeout):
        clunk(fid)
    if isinstance(walked, FsError):
        raise walked
    if len(walked.qids) != len(names):
        raise ClientError("no such file")
    try:
        for i, build in enumerate(builds):
            if isinstance(replies[i], FsError) and replies[i].ename in OVERTAKEN:
                replies[i], = yield (build,)
            if isinstance(replies[i], FsError):
                break
        out = replies if use is None else (yield from use(fid, *replies))
    except FsError:
        clunk(fid)
        raise
    clunk(fid)
    return out


def list_dir(fid, opened, first):
    """Step: the listing of fid from the outcomes of its open (opened) and
    its read at offset 0 (first), judged in that order: a failure is raised,
    and a file is 'not a directory' whatever its read answered; read on
    from first as read_all's isdir does."""
    if isinstance(opened, FsError):
        raise opened
    if not opened.qid.is_dir:
        raise ClientError("not a directory")
    if isinstance(first, FsError):
        raise first
    return (yield from read_all(fid, True, first))


class FileClient:
    """One client identity: an endpoint on the network plus a Conn per
    server it talks to.  Every file operation is a run of steps (_run)."""

    def __init__(self, net, eid, uname="admin"):
        self.net = net
        self.eid = eid
        self.uname = uname
        self._tags = itertools.count(1)   # one tag sequence across servers
        self._conns = {}                  # server ref -> Conn
        self._waiting = deque()           # (deadline, conn, tag, pending entry), oldest first
        net.register(eid, self._on_frame)

    # -- transport ---------------------------------------------------------

    def _on_frame(self, src, frame):
        receive(self.net, self.eid, src, frame, conn=self._conns.get(("net", src)))

    def _conn(self, ref):
        conn = self._conns.get(ref)
        if conn is None:
            conn = self._conns[ref] = Conn(self.net, self.eid, ref[1], self._tags)
        return conn

    def submit(self, ref, build, cb):
        """Issue one T-message without waiting; cb(R-message) when its reply
        arrives, or cb(a Timeout) from a run that finds it unanswered past
        its deadline.  Returns the tag."""
        conn = self._conn(ref)
        if ref[0] == "net":
            tag = conn.issue(build, cb)
        else:
            tag = conn.new_tag()
            conn.pending[tag] = (cb, None)
            ref[1].dispatch(self.eid, build(tag), partial(conn.answer, tag))
        entry = conn.pending.get(tag)
        if entry is not None:           # a local reply that came at once needs no deadline
            self._waiting.append((self.net.now + CLIENT_TIMEOUT, conn, tag, entry))
        return tag

    def _run(self, steps) -> list:
        """Drive every (ref, step) of steps at once (gather), running the
        clock until every one has ended; return, in order, each step's
        value or the FsError it raised.  A request still unanswered when
        the next event is due after its deadline (CLIENT_TIMEOUT ticks
        after it was sent) gets a Timeout, and the clock stays where it
        is; deadlines come due in send order (_waiting)."""
        ended = []
        gather([partial(spawn, step, partial(self.submit, ref)) for ref, step in steps],
               ended.append)
        net, waiting = self.net, self._waiting
        while not ended:
            nxt = net.peek_time()
            if waiting and (nxt is None or nxt > waiting[0][0]):
                _, conn, tag, entry = waiting.popleft()
                if conn.pending.get(tag) is entry:      # not answered, nor its tag reused
                    conn.answer(tag, Timeout())
            elif not net.step():
                raise Timeout()           # a step waits on no request and no event
        while waiting:                  # drop the deadlines of answered requests
            _, conn, tag, entry = waiting[0]
            if conn.pending.get(tag) is entry:
                break
            waiting.popleft()
        return ended[0]

    def _one(self, ref, step):
        """Run one step: its value, or raise the FsError it raised."""
        out = self._run([(ref, step)])
        if isinstance(out[0], FsError):
            raise out.pop()           # not held by this frame: no reference cycle
        return out[0]

    # -- file operations ------------------------------------------------

    def call(self, ref, build):
        """Send one T-message and run the clock until its reply arrives."""
        return self._one(ref, request(build))

    def read(self, ref, relpath) -> bytes:
        """The bytes of a file, else the error 'is a directory'."""
        return self._one(ref, on_fid(self._conn(ref), self.uname, relpath, read_all, OREAD))

    def read_many(self, targets) -> list:
        """For each (ref, relpath) of targets, in order, the bytes of that
        file or the ClientError that refused it, all read at once in one
        run, each over the fid kept open to read it (on_fid's keep).  Each
        holds a fid meanwhile: name fewer files on a server than its fid cap."""
        return self._run([(ref, on_fid(self._conn(ref), self.uname, relpath, read_all, OREAD, True))
                          for ref, relpath in targets])

    def write_many(self, targets, answer=False) -> list:
        """For each (ref, relpath, data) of targets, in order, the count
        written to that file, or with answer the answer read back after
        the write on the same fid (a question), or the ClientError that
        refused it, all run as read_many's reads are."""
        return self._run([(ref, write_file(self._conn(ref), self.uname, relpath, data, answer,
                                           keep=True))
                          for ref, relpath, data in targets])

    def write(self, ref, relpath, data: bytes) -> int:
        return self._one(ref, write_file(self._conn(ref), self.uname, relpath, data))

    def ls(self, ref, relpath) -> list:
        """Stat records of a directory's children, in server order: walk,
        open and a read at offset 0 in one flight, and a clunk not waited
        for (on_walked, list_dir)."""
        return wire.decode_stats(self._one(ref, on_walked(
            self._conn(ref), self.uname, relpath,
            (lambda t, fid: Topen(t, fid, OREAD), lambda t, fid: Tread(t, fid, 0, IOUNIT)),
            partial(self._clunk, ref), list_dir)))

    def stat(self, ref, relpath) -> wire.Stat:
        """The stat record of a file: walk and stat in one flight, and a
        clunk not waited for (on_walked)."""
        out = self._one(ref, on_walked(self._conn(ref), self.uname, relpath,
                                       (Tstat,), partial(self._clunk, ref)))
        if isinstance(out[0], FsError):
            raise out.pop()           # not held by this frame: no reference cycle
        return out[0].stat

    def _clunk(self, ref, fid):
        """Send fid's Tclunk and wait for nothing, as the head's
        _clunk_remote does: on_fid ignores a clunk's outcome too."""
        self.submit(ref, lambda t: Tclunk(t, fid), lambda r: None)
