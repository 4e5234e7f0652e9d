"""Server framework tests: sessions, walks, permissions, fid discipline."""

import pytest
from hypothesis import given, settings, strategies as st

from sensefs import wire
from sensefs.fscore import (
    FsError, Future, Node, Server, UserDb, make_dir, make_file, then,
)
from sensefs.views import NamespaceTable, build_resource_view
from sensefs.wire import (
    IOUNIT, OREAD, OWRITE, ORDWR, QDIR, DMDIR,
    Tattach, Twalk, Topen, Tread, Twrite, Tclunk, Tstat,
    Rattach, Rwalk, Ropen, Rread, Rwrite, Rclunk, Rstat, Rerror,
)

from conftest import build_cluster, make_client, temp_sensor

USERS = UserDb({"admin": {"admin"}, "guest": {"users"}})


def build_server(max_sessions=4, max_fids=64):
    root = make_dir("root")
    sub = root.add(make_dir("sub"))
    store = {"text": b"hello\n", "writes": []}
    sub.add(make_file("readme", 0o444,
                      read=lambda: store["text"]))

    def sink(off, data, uname):
        store["writes"].append((off, data))
        return len(data)

    sub.add(make_file("ctl", 0o644, write=sink))
    root.add(make_file("open", 0o666, read=lambda: b"",
                       write=lambda off, data, uname: len(data)))
    return Server(root, USERS, max_sessions=max_sessions, max_fids=max_fids), store


class Conn:
    """Synchronous harness around one server connection."""

    def __init__(self, server, key="c0"):
        self.server = server
        self.key = key
        self._tag = 0

    def rpc(self, build):
        self._tag += 1
        box = []
        self.server.dispatch(self.key, build(self._tag), box.append)
        assert len(box) == 1, "dispatch must reply exactly once"
        assert box[0].tag == self._tag, "reply tag must echo the request tag"
        return box[0]

    def ok(self, build, rtype):
        r = self.rpc(build)
        assert isinstance(r, rtype), r
        return r

    def err(self, build, ename):
        r = self.rpc(build)
        assert isinstance(r, Rerror), r
        assert r.ename == ename
        return r


def test_attach_returns_directory_qid():
    server, _ = build_server()
    conn = Conn(server)
    r = conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    assert r.qid.kind == QDIR


def test_attach_fid_in_use():
    server, _ = build_server()
    conn = Conn(server)
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    conn.err(lambda t: Tattach(t, 0, "admin", ""), "fid in use")


def test_attach_unknown_tree():
    server, _ = build_server()
    conn = Conn(server)
    conn.err(lambda t: Tattach(t, 0, "admin", "other"), "no such tree")


def test_attach_at_a_files_aname_opens_and_reads_that_file():
    # aname is a path from the root, as diod serves it: the fid is bound
    # at that file, as the attaching user, with no walk
    server, _ = build_server()
    conn = Conn(server)
    r = conn.ok(lambda t: Tattach(t, 0, "admin", "sub/readme"), Rattach)
    assert r.qid == server.root.lookup("sub").lookup("readme").qid
    conn.ok(lambda t: Topen(t, 0, OREAD), Ropen)
    assert conn.ok(lambda t: Tread(t, 0, 0, IOUNIT), Rread).data == b"hello\n"
    # the open checks the attaching user, as it does after a walk
    conn.ok(lambda t: Tattach(t, 1, "guest", "sub/ctl"), Rattach)
    conn.err(lambda t: Topen(t, 1, OWRITE), "permission denied")


def test_attach_at_a_directory_can_be_walked_on():
    server, _ = build_server()
    conn = Conn(server)
    r = conn.ok(lambda t: Tattach(t, 0, "admin", "/sub/"), Rattach)
    assert r.qid == server.root.lookup("sub").qid and r.qid.kind == QDIR
    r = conn.ok(lambda t: Twalk(t, 0, 1, ("readme",)), Rwalk)
    assert len(r.qids) == 1
    conn.ok(lambda t: Topen(t, 1, OREAD), Ropen)
    assert conn.ok(lambda t: Tread(t, 1, 0, IOUNIT), Rread).data == b"hello\n"


@pytest.mark.parametrize("aname", ["missing", "sub/missing", "sub/readme/deeper", "open/x"])
def test_attach_at_a_missing_name_is_no_such_tree(aname):
    # the refused attach binds nothing: the fid is free for the next one
    server, _ = build_server()
    conn = Conn(server)
    conn.err(lambda t: Tattach(t, 0, "admin", aname), "no such tree")
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)


def test_walk_multi_element():
    server, _ = build_server()
    conn = Conn(server)
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    r = conn.ok(lambda t: Twalk(t, 0, 1, ("sub", "readme")), Rwalk)
    assert len(r.qids) == 2
    assert r.qids[0].kind == QDIR and r.qids[1].kind == 0


def test_walk_identity():
    server, _ = build_server()
    conn = Conn(server)
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    r = conn.ok(lambda t: Twalk(t, 0, 1, ()), Rwalk)
    assert r.qids == ()
    # newfid is bound and usable
    conn.ok(lambda t: Topen(t, 1, OREAD), Ropen)


def test_walk_first_element_missing():
    server, _ = build_server()
    conn = Conn(server)
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    conn.err(lambda t: Twalk(t, 0, 1, ("nope",)), "no such file")
    # newfid stays unbound
    conn.err(lambda t: Topen(t, 1, OREAD), "unknown fid")


def test_walk_partial_leaves_newfid_unbound():
    server, _ = build_server()
    conn = Conn(server)
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    r = conn.ok(lambda t: Twalk(t, 0, 1, ("sub", "missing")), Rwalk)
    assert len(r.qids) == 1
    conn.err(lambda t: Topen(t, 1, OREAD), "unknown fid")


def test_walk_through_file_stops():
    server, _ = build_server()
    conn = Conn(server)
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    r = conn.ok(lambda t: Twalk(t, 0, 1, ("sub", "readme", "deeper")), Rwalk)
    assert len(r.qids) == 2


def test_walk_on_open_fid_rejected():
    server, _ = build_server()
    conn = Conn(server)
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    conn.ok(lambda t: Topen(t, 0, OREAD), Ropen)
    conn.err(lambda t: Twalk(t, 0, 1, ()), "fid is open")


def test_newfid_in_use():
    server, _ = build_server()
    conn = Conn(server)
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    conn.ok(lambda t: Twalk(t, 0, 1, ()), Rwalk)
    conn.err(lambda t: Twalk(t, 0, 1, ("sub",)), "newfid in use")


def walk_open(conn, names, mode=OREAD, fid=9):
    conn.ok(lambda t: Twalk(t, 0, fid, tuple(names)), Rwalk)
    conn.ok(lambda t: Topen(t, fid, mode), Ropen)
    return fid


def test_read_write_round_trip():
    server, store = build_server()
    conn = Conn(server)
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    fid = walk_open(conn, ["sub", "readme"])
    r = conn.ok(lambda t: Tread(t, fid, 0, 100), Rread)
    assert r.data == b"hello\n"
    assert conn.ok(lambda t: Tread(t, fid, 6, 100), Rread).data == b""
    wfid = walk_open(conn, ["sub", "ctl"], OWRITE, fid=10)
    assert conn.ok(lambda t: Twrite(t, wfid, 0, b"go"), Rwrite).count == 2
    assert store["writes"] == [(0, b"go")]


def test_read_requires_open():
    server, _ = build_server()
    conn = Conn(server)
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    conn.ok(lambda t: Twalk(t, 0, 1, ("sub", "readme")), Rwalk)
    conn.err(lambda t: Tread(t, 1, 0, 10), "fid not open for reading")


def test_write_requires_write_mode():
    server, _ = build_server()
    conn = Conn(server)
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    fid = walk_open(conn, ["sub", "ctl"], OREAD)
    conn.err(lambda t: Twrite(t, fid, 0, b"x"), "fid not open for writing")


def test_write_without_handler_is_not_writable():
    root = make_dir("root")
    root.add(make_file("ro", 0o666, read=lambda: b""))
    server = Server(root, USERS)
    conn = Conn(server)
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    fid = walk_open(conn, ["ro"], ORDWR)
    conn.err(lambda t: Twrite(t, fid, 0, b"x"), "not writable")


def test_a_write_handler_is_told_the_user_behind_the_fid():
    # as lib9p's r->fid->uid: the user each session attached its fid as,
    # so a file such as a head's ctl judges every writer itself
    writes = []

    def write(off, data, uname):
        writes.append((uname, off, data))
        return len(data)

    root = make_dir("root")
    root.add(make_file("f", 0o666, write=write))
    server = Server(root, USERS)
    for key, uname in (("c0", "guest"), ("c1", "admin")):
        conn = Conn(server, key)
        conn.ok(lambda t: Tattach(t, 0, uname, ""), Rattach)
        fid = walk_open(conn, ["f"], OWRITE)
        assert conn.ok(lambda t: Twrite(t, fid, 3, b"x"), Rwrite).count == 1
    assert writes == [("guest", 3, b"x"), ("admin", 3, b"x")]


def test_write_answer_is_read_back_on_its_fid_only():
    # a write handler that returns bytes, at once or through a Future,
    # answers the write; the answer is the next read at offset 0 on that
    # fid, read to end of file, and every other read is the read handler's
    later = []

    def ask(off, data, uname):
        if data == b"later":
            return Future(lambda done: later.append(lambda: done(b"late answer\n")))
        return b"answer to " + data + b"\n"

    root = make_dir("root")
    root.add(make_file("q", 0o666, read=lambda: b"index\n",
                       write=ask))
    server = Server(root, USERS)
    conn = Conn(server)
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    f1 = walk_open(conn, ["q"], ORDWR, fid=1)
    f2 = walk_open(conn, ["q"], ORDWR, fid=2)
    assert conn.ok(lambda t: Twrite(t, f1, 0, b"x"), Rwrite).count == 1
    assert conn.ok(lambda t: Tread(t, f2, 0, 100), Rread).data == b"index\n"
    assert conn.ok(lambda t: Tread(t, f1, 0, 4), Rread).data == b"answ"
    assert conn.ok(lambda t: Tread(t, f1, 4, 100), Rread).data == b"er to x\n"
    assert conn.ok(lambda t: Tread(t, f1, 12, 100), Rread).data == b""
    assert conn.ok(lambda t: Tread(t, f1, 0, 100), Rread).data == b"index\n"
    box = []
    server.dispatch(conn.key, Twrite(50, f2, 0, b"later"), box.append)
    assert box == [] and len(later) == 1
    later.pop()()
    assert box == [Rwrite(50, 5)]
    assert conn.ok(lambda t: Tread(t, f2, 0, 100), Rread).data == b"late answer\n"
    assert conn.ok(lambda t: Tread(t, f1, 0, 100), Rread).data == b"index\n"


def test_an_answer_started_at_the_open_is_the_first_reads():
    # a server may ask a fid's answer at its open: the first read
    # at offset 0 takes it, at once if it has landed and when it lands if
    # not; it is kept whole for later offsets, an FsError answers that read
    # and keeps nothing, and the next read at offset 0 is the handler's
    asked = []

    class Asking(Server):
        def t_open(self, session, msg):
            qid = super().t_open(session, msg)
            session.fids[msg.fid].answer = Future(asked.append)
            return qid

    root = make_dir("root")
    calls = []
    root.add(make_file("f", 0o444, read=lambda: calls.append(1) or b"handler\n"))
    server = Asking(root, USERS)
    conn = Conn(server)
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    f1 = walk_open(conn, ["f"], fid=1)
    asked.pop()(b"early answer\n")
    assert conn.ok(lambda t: Tread(t, f1, 0, 5), Rread).data == b"early"
    assert conn.ok(lambda t: Tread(t, f1, 5, 100), Rread).data == b" answer\n"
    assert calls == []
    assert conn.ok(lambda t: Tread(t, f1, 0, 100), Rread).data == b"handler\n"
    assert len(calls) == 1
    f2 = walk_open(conn, ["f"], fid=2)
    box = []
    server.dispatch(conn.key, Tread(50, f2, 0, 100), box.append)
    assert box == []
    asked.pop()(b"late answer\n")
    assert box == [Rread(50, b"late answer\n")]
    assert conn.ok(lambda t: Tread(t, f2, 5, 100), Rread).data == b"answer\n"
    f3 = walk_open(conn, ["f"], fid=3)
    asked.pop()(FsError("no members"))
    conn.err(lambda t: Tread(t, f3, 0, 100), "no members")
    assert server.sessions[conn.key].fids[f3].data is None
    assert conn.ok(lambda t: Tread(t, f3, 0, 100), Rread).data == b"handler\n"
    assert len(calls) == 2


def test_directory_read_lists_children_in_order():
    server, _ = build_server()
    conn = Conn(server)
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    fid = walk_open(conn, [])
    r = conn.ok(lambda t: Tread(t, fid, 0, 8169), Rread)
    names = [s.name for s in wire.decode_stats(r.data)]
    assert names == ["sub", "open"]


def test_directory_read_offset_contract():
    server, _ = build_server()
    conn = Conn(server)
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    fid = walk_open(conn, [])
    full = conn.ok(lambda t: Tread(t, fid, 0, 8169), Rread).data
    recs = []
    # re-read in minimal chunks: each read must start at the previous end
    conn.ok(lambda t: Tclunk(t, fid), Rclunk)
    fid = walk_open(conn, [])
    offset = 0
    while True:
        r = conn.ok(lambda t, o=offset: Tread(t, fid, o, 70), Rread)
        if not r.data:
            break
        recs.append(r.data)
        offset += len(r.data)
    assert b"".join(recs) == full
    conn.err(lambda t: Tread(t, fid, 5, 70), "bad directory offset")


def test_directory_read_too_small_for_the_next_entry_is_an_error():
    # an empty reply would end the listing: a count that no entry fits is
    # refused, and the fid's offset stays where it was
    server, _ = build_server()
    conn = Conn(server)
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    fid = walk_open(conn, [])
    conn.err(lambda t: Tread(t, fid, 0, 10), "directory entry too large")
    first = conn.ok(lambda t: Tread(t, fid, 0, 70), Rread).data
    assert [s.name for s in wire.decode_stats(first)] == ["sub"]
    conn.err(lambda t: Tread(t, fid, len(first), 10), "directory entry too large")
    rest = conn.ok(lambda t: Tread(t, fid, len(first), 70), Rread).data
    assert [s.name for s in wire.decode_stats(rest)] == ["open"]
    assert conn.ok(lambda t: Tread(t, fid, len(first) + len(rest), 10), Rread).data == b""


def counted_server(read):
    """A one-file server whose reads go through read; returns (server,
    calls), a list of one entry per call of read."""
    calls = []

    def handler():
        calls.append(1)
        return read()

    root = make_dir("root")
    root.add(make_file("f", 0o666, read=handler, write=lambda off, data, uname: len(data)))
    return Server(root, USERS), calls


def test_read_to_eof_generates_once_per_open():
    text = iter([b"one\n", b"two!\n", b"three\n"])
    server, calls = counted_server(lambda: next(text))
    conn = Conn(server)
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    fid = walk_open(conn, ["f"])
    assert conn.ok(lambda t: Tread(t, fid, 0, 100), Rread).data == b"one\n"
    assert conn.ok(lambda t: Tread(t, fid, 2, 100), Rread).data == b"e\n"
    assert conn.ok(lambda t: Tread(t, fid, 4, 100), Rread).data == b""
    assert len(calls) == 1
    # offset 0 always generates afresh
    assert conn.ok(lambda t: Tread(t, fid, 0, 100), Rread).data == b"two!\n"
    assert conn.ok(lambda t: Tread(t, fid, 5, 100), Rread).data == b""
    assert len(calls) == 2


def test_file_longer_than_the_count_is_generated_once_per_open():
    blob = bytes(range(16))
    server, calls = counted_server(lambda: blob)
    conn = Conn(server)
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    fid = walk_open(conn, ["f"])
    assert conn.ok(lambda t: Tread(t, fid, 0, 8), Rread).data == blob[:8]
    assert conn.ok(lambda t: Tread(t, fid, 8, 8), Rread).data == blob[8:]
    assert len(calls) == 1


def test_deferred_read_is_kept_unless_it_fails():
    outcomes = [FsError("later"), b"stale\n", b"late\n"]

    def read():
        out = outcomes.pop(0)
        return Future(lambda done: done(out))

    server, calls = counted_server(read)
    conn = Conn(server)
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    fid = walk_open(conn, ["f"])
    conn.err(lambda t: Tread(t, fid, 0, 100), "later")
    assert conn.ok(lambda t: Tread(t, fid, 5, 100), Rread).data == b"\n"
    assert len(calls) == 2              # the failed read kept nothing
    assert conn.ok(lambda t: Tread(t, fid, 0, 100), Rread).data == b"late\n"
    assert conn.ok(lambda t: Tread(t, fid, 1, 100), Rread).data == b"ate\n"
    assert len(calls) == 3


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=3 * IOUNIT),
       st.lists(st.tuples(st.just(0) | st.integers(0, 3 * IOUNIT + 8), st.integers(0, 2 * IOUNIT),
                          st.booleans(), st.booleans()), max_size=12))
def test_each_read_is_a_slice_of_the_file_generated_once_per_open(content, reads):
    # each reply is content[offset:offset + min(count, IOUNIT)], whether the
    # handler answers at once or through a Future; the handler runs at each
    # offset-0 read, which keeps the file unless it fails, and at each
    # later offset on a fid that kept nothing
    mode = {}

    def read():
        out = FsError("failed") if mode["fail"] else content
        if mode["defer"]:
            return Future(lambda done: done(out))
        if mode["fail"]:
            raise out
        return out

    server, calls = counted_server(read)
    conn = Conn(server)
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    fid = walk_open(conn, ["f"])
    kept, want = False, 0
    for offset, count, defer, fail in reads:
        mode.update(defer=defer, fail=fail and offset == 0)
        want += offset == 0 or not kept
        if mode["fail"]:
            conn.err(lambda t: Tread(t, fid, 0, count), "failed")
        else:
            got = conn.ok(lambda t: Tread(t, fid, offset, count), Rread).data
            assert got == content[offset:offset + min(count, IOUNIT)]
        kept = not mode["fail"] if offset == 0 else kept
        assert len(calls) == want


def test_write_drops_what_the_fid_kept():
    store = {"text": b"hello\n"}

    def write(off, data, uname):
        store["text"] = data
        return len(data)

    root = make_dir("root")
    root.add(make_file("f", 0o666, write=write,
                       read=lambda: store["text"]))
    conn = Conn(Server(root, USERS))
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    fid = walk_open(conn, ["f"], ORDWR)
    assert conn.ok(lambda t: Tread(t, fid, 0, 100), Rread).data == b"hello\n"
    conn.ok(lambda t: Twrite(t, fid, 0, b"goodbye world\n"), Rwrite)
    assert conn.ok(lambda t: Tread(t, fid, 6, 100), Rread).data == b"e world\n"


def test_directory_listed_once_per_open():
    calls = []

    def children():
        calls.append(1)
        return [make_file("f%d" % len(calls), 0o444) for _ in range(3)]

    root = make_dir("root")
    root.add(make_dir("d", children_fn=children))
    conn = Conn(Server(root, USERS))
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    fid = walk_open(conn, ["d"])
    offset, recs = 0, []
    while True:
        r = conn.ok(lambda t, o=offset: Tread(t, fid, o, 70), Rread)
        if not r.data:
            break
        recs.append(r.data)
        offset += len(r.data)
    assert len(calls) == 1
    assert [s.name for s in wire.decode_stats(b"".join(recs))] == ["f1"] * 3


def test_open_directory_for_write():
    server, _ = build_server()
    conn = Conn(server)
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    conn.err(lambda t: Topen(t, 0, OWRITE), "is a directory")


def test_double_open():
    server, _ = build_server()
    conn = Conn(server)
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    conn.ok(lambda t: Topen(t, 0, OREAD), Ropen)
    conn.err(lambda t: Topen(t, 0, OREAD), "fid already open")


def test_permissions_owner_group_other():
    root = make_dir("root")
    root.add(make_file("f", 0o640, owner="admin", group="admin",
                       read=lambda: b"x"))
    server = Server(root, USERS)
    admin, guest = Conn(server, "a"), Conn(server, "g")
    admin.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    guest.ok(lambda t: Tattach(t, 0, "guest", ""), Rattach)
    # owner: rw-; group (admin only): r--; other: ---
    admin.ok(lambda t: Twalk(t, 0, 1, ("f",)), Rwalk)
    admin.ok(lambda t: Topen(t, 1, ORDWR), Ropen)
    guest.ok(lambda t: Twalk(t, 0, 1, ("f",)), Rwalk)
    guest.err(lambda t: Topen(t, 1, OREAD), "permission denied")


def test_guest_write_to_admin_control_denied():
    server, _ = build_server()
    conn = Conn(server, "guest-conn")
    conn.ok(lambda t: Tattach(t, 0, "guest", ""), Rattach)
    conn.ok(lambda t: Twalk(t, 0, 1, ("sub", "ctl")), Rwalk)
    conn.err(lambda t: Topen(t, 1, OWRITE), "permission denied")
    # read of a world-readable file succeeds
    conn.ok(lambda t: Twalk(t, 0, 2, ("sub", "readme")), Rwalk)
    conn.ok(lambda t: Topen(t, 2, OREAD), Ropen)


def test_clunk_releases_fid():
    server, _ = build_server()
    conn = Conn(server)
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    conn.ok(lambda t: Twalk(t, 0, 1, ("sub",)), Rwalk)
    conn.ok(lambda t: Tclunk(t, 1), Rclunk)
    conn.err(lambda t: Topen(t, 1, OREAD), "unknown fid")
    conn.err(lambda t: Tclunk(t, 1), "unknown fid")
    # fid number is reusable after clunk
    conn.ok(lambda t: Twalk(t, 0, 1, ()), Rwalk)


def test_too_many_fids():
    server, _ = build_server(max_fids=4)
    conn = Conn(server)
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    for fid in (1, 2, 3):
        conn.ok(lambda t, f=fid: Twalk(t, 0, f, ()), Rwalk)
    conn.err(lambda t: Twalk(t, 0, 4, ()), "too many fids")


def test_too_many_sessions():
    server, _ = build_server(max_sessions=2)
    for key in ("c1", "c2"):
        Conn(server, key).ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    Conn(server, "c3").err(lambda t: Tattach(t, 0, "admin", ""),
                           "too many sessions")


def test_sessions_are_isolated():
    server, _ = build_server()
    c1, c2 = Conn(server, "c1"), Conn(server, "c2")
    c1.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    c2.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    c1.ok(lambda t: Twalk(t, 0, 1, ("sub",)), Rwalk)
    c2.err(lambda t: Topen(t, 1, OREAD), "unknown fid")


def test_stat():
    server, _ = build_server()
    conn = Conn(server)
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    r = conn.ok(lambda t: Tstat(t, 0), Rstat)
    assert r.stat.mode & DMDIR
    assert r.stat.name == "root"
    conn.ok(lambda t: Twalk(t, 0, 1, ("sub", "readme")), Rwalk)
    st_ = conn.ok(lambda t: Tstat(t, 1), Rstat).stat
    assert st_.mode == 0o444 and not st_.qid.is_dir


def test_version_bumps_on_write():
    server, _ = build_server()
    conn = Conn(server)
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    fid = walk_open(conn, ["sub", "ctl"], OWRITE)
    before = conn.ok(lambda t: Tstat(t, fid), Rstat).stat.qid.version
    conn.ok(lambda t: Twrite(t, fid, 0, b"x"), Rwrite)
    after = conn.ok(lambda t: Tstat(t, fid), Rstat).stat.qid.version
    assert after == before + 1


# -- packed stats: a listing packs each node's stat once per version ----------

def listing(server, names):
    """The bytes of one directory read of names from offset 0, by admin on
    a session of its own."""
    conn = Conn(server, key="lister")
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    fid = walk_open(conn, names)
    data = conn.ok(lambda t: Tread(t, fid, 0, IOUNIT), Rread).data
    for each in (fid, 0):
        conn.ok(lambda t: Tclunk(t, each), Rclunk)
    return data


def packed(children):
    return b"".join(wire.pack_stat(c.stat()) for c in children)


def test_a_static_listing_is_its_childrens_fresh_stats():
    server, _ = build_server()
    for names in ([], ["sub"], [], ["sub"]):      # packed at the first, kept for the second
        node = server.root.lookup(names[0]) if names else server.root
        assert listing(server, names) == packed(node.list_children())


def test_a_heads_sensors_listing_is_its_members_fresh_stats():
    # the sensors directory is generated (children_fn) from the mirrored members
    net, mux, _ = build_cluster([temp_sensor(1, 20.0), temp_sensor(2, 22.0)])
    sensors = mux.root.lookup("sensors")
    for names in (["sensors"], ["sensors", "s1"], ["sensors"]):
        node = sensors.lookup(names[1]) if names[1:] else sensors
        data = listing(mux, names)
        assert data and data == packed(node.list_children())


def test_a_view_bands_listing_is_its_scans_fresh_stats():
    net, mux, _ = build_cluster([temp_sensor(1, 1.0, energy_j=5.0),
                                 temp_sensor(2, 2.0, energy_j=500.0),
                                 temp_sensor(3, 3.0, energy_j=600.0)])
    table = NamespaceTable()
    table.mount("/network/c", ("net", mux.eid))
    view = build_resource_view(make_client(net), table, 10.0, 100.0)
    band = view.root.lookup("energy").lookup("high")
    scans, scan = [], band.children_fn      # each listing scans afresh: keep what it listed
    band.children_fn = lambda: scans.append(scan()) or scans[-1]
    for n in (1, 2):
        data = listing(view, ["energy", "high"])
        assert len(scans) == n
        assert data == packed(scans[-1])
    assert [st.name for st in wire.decode_stats(data)] == ["s2", "s3"]


def test_a_listing_after_a_write_shows_the_new_version():
    server, _ = build_server()
    conn = Conn(server)
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)

    def versions():
        return {st.name: st.qid.version for st in wire.decode_stats(listing(server, ["sub"]))}
    before = versions()
    fid = walk_open(conn, ["sub", "ctl"], OWRITE)
    conn.ok(lambda t: Twrite(t, fid, 0, b"x"), Rwrite)
    assert versions() == {**before, "ctl": before["ctl"] + 1}
    assert listing(server, ["sub"]) == packed(server.root.lookup("sub").list_children())


def test_lookup_in_a_static_directory_is_a_scan_of_its_children():
    server, _ = build_server()
    for node in (server.root, server.root.lookup("sub")):
        children = node.list_children()
        for name in [c.name for c in children] + ["absent", ""]:
            assert node.lookup(name) is next((c for c in children if c.name == name), None)
    assert server.root.lookup("sub").lookup("readme").name == "readme"
    assert server.root.lookup("readme") is None


def test_lookup_in_a_generated_directory_regenerates():
    members = [make_file("a", 0o444)]
    node = make_dir("d", children_fn=lambda: list(members))
    assert node.lookup("a") is members[0]
    assert node.lookup("b") is None
    members.append(make_file("b", 0o444))        # discovered after the first lookup
    assert node.lookup("b") is members[1]


def test_distinct_trees_have_disjoint_qid_paths():
    s1, _ = build_server()
    s2, _ = build_server()

    def paths(node, acc):
        acc.add(node.qid.path)
        if node.is_dir:
            for child in node.list_children():
                paths(child, acc)
        return acc

    assert paths(s1.root, set()).isdisjoint(paths(s2.root, set()))


def test_bad_node_names_rejected():
    for name in ("a/b", ".", ".."):
        with pytest.raises(ValueError):
            Node(name, 0o444)
    with pytest.raises(ValueError):
        d = make_dir("d")
        d.add(make_file("x"))
        d.add(make_file("x"))


@settings(max_examples=50)
@given(st.lists(st.sampled_from(["walk", "clunk", "open"]), max_size=30),
       st.data())
def test_fid_table_never_exceeds_bound(ops, data):
    server, _ = build_server(max_fids=8)
    conn = Conn(server)
    conn.rpc(lambda t: Tattach(t, 0, "admin", ""))
    session = server.sessions["c0"]
    live = {0}
    for op in ops:
        if op == "walk":
            fid = data.draw(st.integers(1, 12))
            conn.rpc(lambda t, f=fid: Twalk(t, 0, f, ()))
        elif op == "clunk" and live:
            fid = data.draw(st.sampled_from(sorted(live)))
            conn.rpc(lambda t, f=fid: Tclunk(t, f))
        live = set(session.fids)
        assert len(session.fids) <= 8


# -- Future: one outcome in flight -------------------------------------------

def test_future_starts_at_once_and_lands_to_waiters_before_and_after():
    started = []
    future = Future(started.append)
    assert started == [future.land]             # start(land) is called at once
    got = []
    future.wait(lambda out: got.append(("first", out)))
    future.wait(lambda out: got.append(("second", out)))
    assert got == []
    future.land(b"x")
    assert got == [("first", b"x"), ("second", b"x")]      # in the order they waited
    future.wait(lambda out: got.append(("late", out)))     # landed: called at once
    assert got[-1] == ("late", b"x")


def test_future_may_land_inside_its_start():
    got = []
    Future(lambda land: land(7)).wait(got.append)
    assert got == [7]


def test_then_over_a_value_a_landed_and_an_unlanded_future():
    assert then(b"abc", len) == 3
    landed, got = Future(lambda land: land(b"abc")), []
    then(landed, len).wait(got.append)
    assert got == [3]
    later = Future()
    out = then(later, len)
    out.wait(got.append)
    assert got == [3]
    later.land(b"abcd")
    assert got == [3, 4]


def test_then_passes_an_fs_error_through():
    error, got, calls = FsError("no members"), [], []
    later = Future()
    then(later, calls.append).wait(got.append)
    later.land(error)
    assert got == [error] and calls == []
    then(Future(lambda land: land(error)), calls.append).wait(got.append)
    assert got == [error, error] and calls == []
