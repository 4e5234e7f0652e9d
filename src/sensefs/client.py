"""Client side of the protocol: one connection core, one continuation
driver and the file client.

Every exchange a node starts goes through a Conn, the client end of one
connection: it knows both ends (network, own endpoint, peer), allocates
tags and fids, hands each R-message to the request waiting on its tag,
and remembers the fid attached per user name.  Conn.issue is the one way
a T-message leaves a node, and receive() the one way a frame enters one.

The protocol sequences are generator steps (attach, walk, read_all,
request, clunk, flight, on_fid, on_walked).  A step says only what to
send: it yields a build per T-message, build(tag) making the message,
and gets back its R-message, a refusal or a lost reply being raised at
that yield as a ClientError; or it yields a Future (fscore's) or a flight
(spawn).  spawn is the one continuation driver, so any number of steps
keep requests in flight at once, and gather the one fan-out (a flight, a
head's member reads, a run).  A request waits as long as spawn's caller
says: the timeout a head names where it spawns a step (muxfs), or a
FileClient run's CLIENT_TIMEOUT (_run).

FileClient gives read/write/ls/stat on paths against two kinds of
server reference:

    ("net", endpoint_id)  -- a simulated server reached over the wire
    ("local", Server)     -- an in-process fscore server (namespace views)

Its batches (read_many, write_many), the views' way to a head's ctl, keep
a fid and its Ropen per (file, mode), as Plan 9's clients keep /net/cs:
every offset-0 read generates afresh and a write resets the fid's answer,
so a kept fid reads what a fresh one would, to a short reply (read_all).
on_walked sends a walk and the requests on its fid as one flight: a kept
fid's first use, an ls (1 round trip, 8 frames) and a stat (1, 6).  read
and write go in turn (on_fid), a read to an empty reply, as the benchmark
pins a cat's frames; these four reach any file, so each clunks its own fid.
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
# builds of an open to read and its read at offset 0 on a fid (ls, read_many, a head's first read)
OPEN_READ = (lambda t, fid: Topen(t, fid, OREAD), lambda t, fid: Tread(t, fid, 0, IOUNIT))


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
        self.open_fids = {}                       # a file's key -> its kept fid (and Ropen)
        self.reorders = False                     # a request here overtook one sent before it
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


def read_all(fid, opened=None, first=None):
    """Step: the bytes of an open fid from offset 0 to end of file, which
    fscore's rules prove by its Ropen opened: a directory's ends at a reply
    leaving MAX_STAT bytes of its count unused, a file's at one shorter than
    its count, and with no Ropen only an empty reply ends it.  first, if
    given, is the offset-0 read's reply.  Raises ClientError if a read is
    refused or the bytes pass MAX_FILE, or Timeout if a reply never came."""
    out = bytearray()
    r = first or (yield lambda t: Tread(t, fid, 0, IOUNIT))
    short = 0 if opened is None else IOUNIT - MAX_STAT if opened.qid.is_dir else IOUNIT - 1
    while len(r.data) > short:
        out += r.data
        if len(out) > MAX_FILE:
            raise ClientError("file too large")
        r = yield lambda t, o=len(out): Tread(t, fid, o, IOUNIT)
    return bytes(out + r.data)


def request(build):
    """Step: the R-message to the one T-message build(tag).  Raises
    ClientError if refused, or Timeout if the reply never came."""
    return (yield build)


def ok(outcome):
    """outcome, raised if it is a failure (an FsError)."""
    if isinstance(outcome, FsError):
        raise outcome
    return outcome


def clunk(fid):
    """Step: clunk fid and wait for the reply, a refusal or a lost reply ignored."""
    with suppress(ClientError):
        yield lambda t: Tclunk(t, fid)


def on_fid(conn, uname, path, use, mode):
    """Step: the value of the step use(fid) on a new fid walked to path and
    opened in mode (a directory is the error 'is a directory'), clunked
    after it (clunk) whether use ended or raised."""
    fid = yield from walk(conn, uname, path)
    try:
        if (yield lambda t: Topen(t, fid, mode)).qid.is_dir:
            raise ClientError("is a directory")
        out = yield from use(fid)
    except ClientError:
        yield from clunk(fid)
        raise
    yield from clunk(fid)
    return out


def flight(conn, builds, bound=lambda reply: True):
    """Step: the outcomes of builds, a flight whose first binds the fid the
    rest use (the first alone on a conn that reorders); the first's failure
    is raised, and 'no such file' if bound(its reply) is false.  A later one
    not yet sent, or refused as OVERTAKEN (conn then reorders), is sent once
    more, alone and in order, up to the first other failure; any after that is None."""
    out = yield builds[:1] if conn.reorders else builds
    if isinstance(out[0], FsError):
        raise out.pop(0)            # held by no frame: no reference cycle
    if not bound(out[0]):
        raise ClientError("no such file")
    out += [None] * (len(builds) - len(out))
    for i, build in enumerate(builds):
        if out[i] is None or isinstance(out[i], FsError) and out[i].ename in OVERTAKEN:
            conn.reorders |= out[i] is not None
            out[i], = yield (build,)
        if isinstance(out[i], FsError):
            break
    return out


def on_walked(conn, uname, path, builds, clunk, use=None, keep=None):
    """Step: the R-message to each build(tag, fid) of builds on a new fid
    walked to path in their flight, a failure among them raised, or with
    use the value of the step use(fid, *their outcomes), which judges them
    in the order they depend on.  clunk(fid) runs however the step ends once
    the walk succeeded or was lost (it may have bound fid).  With keep, one
    that ends well keeps the fid and its Ropen in conn.open_fids, unless
    another was kept meanwhile, for a later step's second build alone."""
    fid, opened = conn.open_fids.pop(keep, (None, None))
    if fid is None:
        root = yield from attach(conn, uname)
        names = tuple(p for p in path.split("/") if p)
        fid = next(conn.fids)
        try:
            _, *replies = yield from flight(conn, (lambda t: Twalk(t, root, fid, names), *(
                partial(build, fid=fid) for build in builds)), lambda r: len(r.qids) == len(names))
        except Timeout:
            yield from clunk(fid)
            raise
    try:
        if opened is not None:          # a kept fid: its second build alone
            replies = [opened, (yield partial(builds[1], fid=fid))]
        out = [ok(r) for r in replies] if use is None else (yield from use(fid, *replies))
    except FsError:
        yield from clunk(fid)
        raise
    if keep is None or keep in conn.open_fids:
        yield from clunk(fid)
    else:
        conn.open_fids[keep] = fid, replies[0]
    return out


def read_opened(fid, opened, first, isdir=False):
    """Step: the bytes of fid from the outcomes of its open and its read at
    offset 0, judged in that order: a failure is raised, and so is an open
    of the other kind whatever its read answered; read on as read_all does."""
    if ok(opened).qid.is_dir != isdir:
        raise ClientError("not a directory" if isdir else "is a directory")
    return (yield from read_all(fid, opened, ok(first)))


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

    def keep(self, refs):
        """Drop the Conn to each local server not in refs: nothing asks it again."""
        self._conns = {ref: c for ref, c in self._conns.items() if ref[0] == "net" or ref in refs}

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
        run, each over the fid kept open to read it (on_walked's keep).  Each
        holds a fid meanwhile: name fewer files on a server than its fid cap."""
        return self._run([(ref, on_walked(self._conn(ref), self.uname, relpath, OPEN_READ, clunk,
                                          read_opened, (relpath, OREAD))) for ref, relpath in targets])

    def write_many(self, targets, answer=False) -> list:
        """For each (ref, relpath, data) of targets, in order, the count
        written to that file, or with answer the answer read back after
        the write on the same fid (a question), or the ClientError that
        refused it, all run as read_many's reads are."""
        def use(fid, opened, wrote):
            ok(opened), ok(wrote)           # judged in that order
            return (yield from read_all(fid, opened)) if answer else wrote.count
        mode = ORDWR if answer else OWRITE
        return self._run([(ref, on_walked(self._conn(ref), self.uname, relpath, (
            lambda t, fid: Topen(t, fid, mode), lambda t, fid, data=data: Twrite(t, fid, 0, data)),
            clunk, use, (relpath, mode))) for ref, relpath, data in targets])

    def write(self, ref, relpath, data: bytes) -> int:
        return self._one(ref, on_fid(self._conn(ref), self.uname, relpath,
                                     lambda fid: request(lambda t: Twrite(t, fid, 0, data)),
                                     OWRITE)).count

    def ls(self, ref, relpath) -> list:
        """Stat records of a directory's children, in server order: walk,
        open and a read at offset 0 in one flight, and a clunk not waited
        for (on_walked, read_opened)."""
        return wire.decode_stats(self._one(ref, on_walked(
            self._conn(ref), self.uname, relpath, OPEN_READ,
            partial(self._clunk, ref), partial(read_opened, isdir=True))))

    def stat(self, ref, relpath) -> wire.Stat:
        """The stat record of a file: walk and stat in one flight, and a
        clunk not waited for (on_walked)."""
        return self._one(ref, on_walked(self._conn(ref), self.uname, relpath,
                                        (Tstat,), partial(self._clunk, ref)))[0].stat

    def _clunk(self, ref, fid):
        """Step: send fid's Tclunk and wait for nothing, as the head's
        _clunk_remote does; clunk ignores a clunk's outcome too."""
        self.submit(ref, lambda t: Tclunk(t, fid), lambda r: None)
        yield from ()
