"""Frame receive and issue: the one way a frame enters a node and the one
way a T-message leaves it, on devices, heads and file clients alike."""

import itertools
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from sensefs.client import ClientError, Conn, FileClient, Timeout, gather, on_walked
from sensefs.devicefs import parse_infos
from sensefs.fscore import Future, Server, make_dir, make_file
from sensefs.muxfs import MuxConfig
from sensefs.scenario import ServerEndpoint
from sensefs.shell import Shell
from sensefs.simnet import LinkModel, Network
from sensefs.wire import (
    IOUNIT, MAX_STAT, NOTAG, OREAD, ORDWR, OWRITE, Rclunk, Rread, Topen, Tread, Tstat,
    decode_message, encode_message, pack_stat,
)

from conftest import USERS, build_cluster, make_client, open_fid, temp_sensor


def probe(net, name="probe"):
    """An endpoint that records every frame it is sent."""
    got = []
    net.register(name, lambda src, frame: got.append((src, frame)))
    return got


def events(net, event):
    return [line.split("\t")[2:4] for line in net.log.lines
            if line.split("\t")[1] == event]


def test_undecodable_frame_is_logged_and_dropped_at_every_node():
    net, mux, _ = build_cluster([temp_sensor(1, 20.9)])
    client = make_client(net)
    got = probe(net)
    for dst in ("s1", mux.eid, client.eid):
        net.send("probe", dst, b"junk")
    net.run_until(net.now + 10)
    assert events(net, "badframe") == [["probe", "s1"], ["probe", mux.eid],
                                       ["probe", client.eid]]
    assert got == []
    # every node keeps working
    assert client.read(("net", mux.eid), "sensors/s1/reading") == b"20.900000\n"


def test_t_message_at_a_client_is_dropped():
    net, mux, _ = build_cluster([temp_sensor(1, 20.9)], latency=1,
                                mux_cfg=MuxConfig(fallback_ticks=5000,
                                                  reprobe_ticks=10 ** 6))
    net.set_link(mux.eid, "s1", LinkModel(latency=200), both_ways=True)
    client = make_client(net)
    ref = ("net", mux.eid)
    fid = open_fid(client, ref, "sensors/s1/reading")
    replies = []
    tag = client.submit(ref, lambda t: Tread(t, fid, 0, 64), replies.append)
    # a T-message carrying the pending tag, as if from the head
    net.send(mux.eid, client.eid, encode_message(Tread(tag, fid, 0, 64)))
    net.run_until(net.now + 10)
    assert replies == []
    assert tag in client._conns[ref].pending
    net.run_until(net.now + 2000)    # attach, walk, open, read: 400 ticks each
    assert replies == [Rread(tag, b"20.900000\n")]


def test_r_message_at_a_server_is_dropped():
    net, mux, _ = build_cluster([temp_sensor(1, 20.9)])
    got = probe(net)
    for dst in ("s1", mux.eid):
        net.send("probe", dst, encode_message(Rclunk(5)))
    net.run_until(net.now + 10)
    assert got == []
    assert events(net, "badframe") == []


def test_issue_sends_to_the_peer_and_times_out_once():
    net, mux, _ = build_cluster([temp_sensor(1, 20.9)], latency=1)
    link = mux.links["s1"]
    net.set_link(mux.eid, "s1", LinkModel(latency=1, loss=1.0))
    answers = []
    tag = link.issue(lambda t: Tread(t, 99, 0, 8), answers.append, timeout=7)
    assert events(net, "drop")[-1] == [mux.eid, "s1"]
    assert tag in link.pending
    net.run_until(net.now + 20)
    assert [type(a) for a in answers] == [Timeout] and link.pending == {}


def test_new_tag_skips_a_tag_still_pending_when_the_sequence_wraps():
    conn = Conn(Network(0), "cli", "srv", tags=itertools.count(NOTAG - 1))
    assert conn.new_tag() == NOTAG - 1
    conn.pending[0] = (None, None)      # tag 0, where the sequence wraps, awaits its reply
    assert conn.new_tag() == 1


def test_lost_rclunk_does_not_fail_the_read(zoo_sim):
    # the head's Rclunk to the shell's client is lost: the read already has
    # its value, so cat answers it with status 0
    shell = Shell(zoo_sim)
    shell.run_line("mount /dev/network /network")
    net, send, lost = zoo_sim.net, zoo_sim.net.send, []

    def lose_rclunk(src, dst, frame):
        if dst == shell.client.eid and isinstance(decode_message(frame), Rclunk):
            lost.append(src)
            return
        send(src, dst, frame)

    net.send = lose_rclunk
    assert shell.run_line("cat /network/cluster1/sensors/s1/reading") == (0, "20.900000")
    assert len(lost) == 1


# -- gather: the one fan-out -------------------------------------------------

def test_gather_hands_back_outcomes_in_start_order_when_the_last_lands():
    lands, got = [], []
    gather([lands.append, lambda land: land("at once"), lands.append], got.append)
    assert got == []
    lands[1]("third")
    assert got == []
    lands[0]("first")
    assert got == [["first", "at once", "third"]]


def test_gather_of_starts_that_land_at_once_or_of_none_is_done_at_once():
    got = []
    gather([lambda land: land(1), lambda land: land(2)], got.append)
    gather([], got.append)
    assert got == [[1, 2], []]


# -- batches -------------------------------------------------------------------

def test_batch_on_a_fresh_conn_sends_one_tattach():
    net, mux, _ = build_cluster([temp_sensor(i, float(i)) for i in range(1, 6)])
    client = make_client(net)
    ref = ("net", mux.eid)
    got = client.read_many([(ref, "sensors/s%d/reading" % i) for i in range(1, 6)])
    assert got == [b"%f\n" % i for i in range(1, 6)]
    # each file: walk, open, read and end-of-file read, its fid kept open
    assert events(net, "send").count([client.eid, mux.eid]) == 5 * 4 + 1
    assert sum(1 for line in net.log.lines
               if line.split("\t")[1:4] == ["send", client.eid, mux.eid]
               and line.split("\t")[4].startswith("Tattach")) == 1


def test_batch_sends_every_step_at_once():
    net, mux, _ = build_cluster([temp_sensor(i, float(i)) for i in range(1, 21)], latency=1)
    client = make_client(net)
    ref = ("net", mux.eid)
    since, t0 = len(net.log.lines), net.now
    got = client.read_many([(ref, "sensors/s%d/reading" % i) for i in range(1, 21)])
    assert got == [b"%f\n" % i for i in range(1, 21)]
    # the Tattach's reply releases all 20 Twalks in one tick
    assert [tick for tick, kind in client_leg(net, since, t0, client)
            if kind == "Twalk"] == [2] * 20


# -- kept fids: a batch asks a head over a fid it keeps open per file and mode -

ANSWERS = {"reading": b"s1 20.500000\ns2 22.000000\n",           # to `read NAME`
           "remaining-energy": b"s1 50.000000\ns2 50.000000\n"}


def question_cluster():
    net, mux, _ = build_cluster([temp_sensor(1, 20.5, energy_j=50.0),
                                 temp_sensor(2, 22.0, energy_j=50.0)], latency=1,
                                mux_cfg=MuxConfig(reprobe_ticks=10 ** 6))
    return net, mux, make_client(net), ("net", mux.eid)


def ask(client, ref, *names):
    """The answers to `read NAME` questions written to ref's ctl in one batch."""
    return client.write_many([(ref, "ctl", b"read " + name.encode()) for name in names],
                             answer=True)


def client_files(mux, client):
    """The file name of each fid client holds on mux, in the order bound."""
    return [ent.node.name for ent in mux.sessions[client.eid].fids.values()]


def sent_types(net, since, src):
    """The message type of each frame src sent after log line since."""
    return [line.split("\t")[4].split()[0] for line in net.log.lines[since:]
            if line.split("\t")[1:3] == ["send", src]]


def client_leg(net, since, t0, client):
    """(tick after t0, message type) of every frame sent to or by client
    after log line since."""
    return [(int(line.split("\t")[0]) - t0, line.split("\t")[4].split()[0])
            for line in net.log.lines[since:]
            if line.split("\t")[1] == "send" and client.eid in line.split("\t")[2:4]]


def test_index_read_after_a_question_is_the_member_index():
    net, mux, client, ref = question_cluster()
    index = client.read(ref, "ctl")
    assert [m["id"] for m in parse_infos(index.decode())] == ["s1", "s2"]
    assert ask(client, ref, "reading") == [ANSWERS["reading"]]
    assert client.read_many([(ref, "ctl")]) == [index]
    assert ask(client, ref, "remaining-energy") == [ANSWERS["remaining-energy"]]
    assert client.read_many([(ref, "ctl")]) == [index]


def test_lost_answer_clunks_the_kept_fid_and_the_next_question_opens_a_new_one():
    net, mux, client, ref = question_cluster()
    assert ask(client, ref, "reading") == [ANSWERS["reading"]]
    conn = client._conns[ref]
    (key, kept), = conn.open_fids.items()
    send, lost = net.send, []

    def lose_rread(src, dst, frame):
        if dst == client.eid and isinstance(decode_message(frame), Rread) and not lost:
            lost.append(frame)
            return
        send(src, dst, frame)

    net.send = lose_rread
    out, = ask(client, ref, "remaining-energy")
    assert isinstance(out, Timeout) and len(lost) == 1
    assert conn.open_fids == {} and kept not in mux.sessions[client.eid].fids
    since = len(net.log.lines)
    assert ask(client, ref, "reading") == [ANSWERS["reading"]]
    assert sent_types(net, since, client.eid) == ["Twalk", "Topen", "Twrite", "Tread", "Tread"]
    assert conn.open_fids[key] != kept


def test_concurrent_questions_to_one_head_each_get_their_own_answer():
    net, mux, client, ref = question_cluster()
    for _ in range(2):
        assert ask(client, ref, "reading", "remaining-energy", "reading") == [
            ANSWERS[n] for n in ("reading", "remaining-energy", "reading")]
        # one fid is kept; the others were clunked as their steps ended
        assert client_files(mux, client) == ["c", "ctl"]


def test_a_session_keeps_at_most_one_fid_per_mode():
    net, mux, client, ref = question_cluster()
    for _ in range(5):
        ask(client, ref, "reading", "remaining-energy")
        client.read_many([(ref, "ctl")] * 3)
        assert client.write_many([(ref, "ctl", b"rate 0 s1")] * 2) == [9, 9]
    assert client_files(mux, client) == ["c", "ctl", "ctl", "ctl"]
    assert sorted(client._conns[ref].open_fids) == [("ctl", OREAD), ("ctl", OWRITE),
                                                    ("ctl", ORDWR)]


def test_batch_keeps_order_and_gives_each_target_its_error():
    net, mux, _ = build_cluster([temp_sensor(1, 20.9), temp_sensor(2, 22.0)])
    client = make_client(net)
    ref = ("net", mux.eid)
    root = make_dir("r")
    root.add(make_file("f", read=lambda: b"local\n"))
    local = ("local", Server(root, USERS))
    got = client.read_many([(ref, "sensors/s2/reading"), (ref, "sensors/s9/reading"),
                            (local, "f"), (ref, "sensors/s1/reading")])
    assert got[0] == b"22.000000\n" and got[3] == b"20.900000\n"
    assert isinstance(got[1], ClientError) and got[1].ename == "no such file"
    assert got[2] == b"local\n"
    assert client._conns[ref].pending == {}


def test_batch_request_times_out_after_the_client_timeout():
    # a request still unanswered when the next event is due after its
    # deadline fails, and the clock stays where it is
    net, mux, _ = build_cluster([temp_sensor(1, 20.9)],
                                mux_cfg=MuxConfig(reprobe_ticks=10 ** 6))
    client = FileClient(net, "client")
    ref = ("net", mux.eid)
    assert client.read(ref, "sensors/s1/reading") == b"20.900000\n"
    net.run_until(net.now + 10)              # the head's device clunk lands
    net.set_link(client.eid, mux.eid, LinkModel(latency=1, loss=1.0))
    targets = [(ref, "sensors/s1/reading"), (ref, "ctl")]
    t0 = net.now
    assert [e.ename for e in client.read_many(targets)] == ["timeout", "timeout"]
    assert net.now == t0                     # no event due: fails at once
    ran = []
    net.schedule(30, lambda: ran.append(net.now))
    assert [e.ename for e in client.read_many(targets)] == ["timeout", "timeout"]
    assert ran == [t0 + 30] and net.now == t0 + 30   # an event inside the window runs first
    assert client._conns[ref].pending == {}


def test_lost_request_costs_the_same_through_read_and_read_many():
    net, mux, _ = build_cluster([temp_sensor(1, 20.9)], latency=1,
                                mux_cfg=MuxConfig(reprobe_ticks=10 ** 6))
    client = make_client(net)
    ref = ("net", mux.eid)
    net.set_link(client.eid, mux.eid, LinkModel(latency=1, loss=1.0))

    def read_many(ref, path):
        raise client.read_many([(ref, path)])[0]

    costs = []
    for read in (client.read, read_many):
        net.schedule(7, lambda: None)
        t0 = net.now
        with pytest.raises(ClientError, match="timeout"):
            read(ref, "sensors/s1/reading")
        costs.append(net.now - t0)
    assert costs == [7, 7]


def test_local_server_deferred_reply_is_waited_for():
    net = Network(0)
    client = make_client(net)
    root = make_dir("r")
    root.add(make_file("late", read=lambda: Future(
        lambda done: net.schedule(5, lambda: done(b"late\n")))))
    root.add(make_file("never", read=lambda: Future(lambda done: None)))
    local = ("local", Server(root, USERS))
    assert client.read(local, "late") == b"late\n"
    assert net.now == 5
    assert client.read_many([(local, "late")] * 2) == [b"late\n"] * 2
    assert net.now == 10                     # the two reads waited at once
    with pytest.raises(ClientError, match="timeout"):
        client.read(local, "never")
    assert client._conns[local].pending == {}


# -- a directory listing ends at the read that proves it complete ------------

# the longest file name whose stat record a listing may hold
LONGEST = MAX_STAT - len(pack_stat(make_file("x").stat())) + 1


def listing_root(lengths):
    """A tree whose directory d holds a file per name length, in order;
    returns (root, d)."""
    root = make_dir("r")
    d = root.add(make_dir("d"))
    for i, n in enumerate(lengths):
        d.add(make_file(str(i).ljust(n, "x")))
    return root, d


def read_offsets(server):
    """The offset of every Tread server handles from now on, in order."""
    offsets, t_read = [], server.t_read

    def counted(session, msg):
        offsets.append(msg.offset)
        return t_read(session, msg)

    server.t_read = counted
    return offsets


def test_ls_of_a_head_directory_is_walk_open_read_and_clunk():
    # at latency 1, Twalk, Topen and Tread leave in one tick: 2 ticks; the
    # Tclunk is not waited for, and its Rclunk lands one round trip later,
    # for the same 8 frames as before
    net, mux, _ = build_cluster([temp_sensor(i, 20.0) for i in (1, 2, 3)], latency=1)
    client = make_client(net)
    ref = ("net", mux.eid)
    client.ls(ref, "")                      # attaches
    net.run_until(net.now + 2)
    t0, since = net.now, len(net.log.lines)
    assert [st.name for st in client.ls(ref, "sensors")] == ["s1", "s2", "s3"]
    assert net.now - t0 == 2
    net.run_until(net.now + 2)
    assert client_leg(net, since, t0, client) == [
        (0, "Twalk"), (0, "Topen"), (0, "Tread"), (1, "Rwalk"), (1, "Ropen"), (1, "Rread"),
        (2, "Tclunk"), (3, "Rclunk")]
    assert client_files(mux, client) == ["c"]


@pytest.mark.parametrize("entries, reads", [(7, 1), (8, 2)])
def test_a_listing_that_leaves_less_than_max_stat_free_reads_on_to_the_empty_reply(
        entries, reads):
    # each record is 1/8 of IOUNIT - MAX_STAT/2: seven leave more than
    # MAX_STAT of the reply free, eight leave less, so a further entry
    # might not have fit and the client reads on to the empty reply
    size = (IOUNIT - MAX_STAT // 2) // 8
    root, d = listing_root([LONGEST - MAX_STAT + size] * entries)
    server = Server(root, USERS)
    offsets = read_offsets(server)
    listing = make_client(Network(0)).ls(("local", server), "d")
    assert listing == [child.stat() for child in d.list_children()]
    assert offsets == [0, entries * size][:reads]


def test_a_listing_longer_than_one_reply_reads_on_from_the_first_replys_length():
    # over the wire, the first read goes out in the flight and the client
    # reads on from the length of its reply to the one that proves the
    # listing complete: eight records fill a reply, twenty take three
    size = (IOUNIT - MAX_STAT // 2) // 8
    root, d = listing_root([LONGEST - MAX_STAT + size] * 20)
    net = Network(0, default_link=LinkModel(1, 0, 0.0))
    server = Server(root, USERS)
    ServerEndpoint(net, "srv", server)
    offsets = read_offsets(server)
    assert make_client(net).ls(("net", "srv"), "d") == [child.stat() for child in d.list_children()]
    assert offsets == [0, 8 * size, 16 * size]


def test_a_listing_that_never_ends_fails_past_max_file():
    # a server whose directory replies never shrink, listing the children
    # again at every offset: the client fails rather than grow without
    # limit, and leaves no request waiting
    class Endless(Server):
        def _read_dir(self, ent, offset, count):
            return super()._read_dir(ent, 0, count)

    root, _ = listing_root([40] * 200)
    ref = ("local", Endless(root, USERS))
    client = make_client(Network(0))
    with pytest.raises(ClientError, match="^file too large$"):
        client.ls(ref, "d")
    assert client._conns[ref].pending == {}


NAME_LENGTHS = st.one_of(st.integers(2, 40), st.integers(2, LONGEST),
                         st.integers(LONGEST - 2, LONGEST))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40).flatmap(lambda n: st.lists(NAME_LENGTHS, min_size=n, max_size=n)),
       st.none() | st.tuples(st.integers(0, 40), st.integers(LONGEST + 1, LONGEST + 2)))
def test_ls_lists_every_child_in_order_or_refuses_an_entry_too_large(lengths, too_large):
    # entry counts and name lengths on both sides of the bound, and at
    # times one entry past it, anywhere in the directory
    if too_large is not None:
        lengths.insert(too_large[0], too_large[1])
    root, d = listing_root(lengths)
    net = Network(0, default_link=LinkModel(1, 0, 0.0))
    ServerEndpoint(net, "srv", Server(root, USERS))
    client = make_client(net)
    for ref in (("net", "srv"), ("local", Server(root, USERS))):
        if max(lengths, default=0) > LONGEST:
            with pytest.raises(ClientError, match="^directory entry too large$"):
                client.ls(ref, "d")
        else:
            assert client.ls(ref, "d") == [child.stat() for child in d.list_children()]


# -- ls and stat send the walk with the request that needs it ----------------

def test_stat_is_walk_and_stat_in_one_flight():
    # 2 ticks at latency 1 (was 6): the Rclunk lands after the stat has
    # returned, for the same 6 frames
    net, mux, _ = build_cluster([temp_sensor(1, 20.0)], latency=1)
    client = make_client(net)
    ref = ("net", mux.eid)
    client.stat(ref, "")                    # attaches
    net.run_until(net.now + 2)
    t0, since = net.now, len(net.log.lines)
    assert client.stat(ref, "sensors/s1/reading").name == "reading"
    assert net.now - t0 == 2
    net.run_until(net.now + 2)
    assert client_leg(net, since, t0, client) == [
        (0, "Twalk"), (0, "Tstat"), (1, "Rwalk"), (1, "Rstat"), (2, "Tclunk"), (3, "Rclunk")]
    assert client_files(mux, client) == ["c"]


def test_ls_of_a_file_is_refused_after_the_read_of_its_flight(zoo_sim):
    # the Tread leaves with the Topen, before the Ropen shows a file, so
    # the head relays it to the device: 18 frames and 30 ticks (a Tread
    # sent only after a directory's Ropen made it 6 frames and 6 ticks);
    # the answer is still 'not a directory', the read's data dropped
    shell = Shell(zoo_sim)
    shell.run_line("mount /dev/network /network")
    assert shell.run_line("ls /network/cluster1")[0] == 0          # attaches
    net = zoo_sim.net
    net.run_until(net.now + 100)
    t0, since = net.now, len(net.log.lines)
    assert shell.run_line("ls /network/cluster1/sensors/s1/reading") == (
        1, "error: not a directory")
    assert net.now - t0 == 30
    net.run_until(net.now + 100)
    head, me = "cluster1.head", shell.client.eid
    assert [[int(line.split("\t")[0]) - t0] + line.split("\t")[2:4] +
            line.split("\t")[4].split()[:1]
            for line in net.log.lines[since:] if line.split("\t")[1] == "send"] == [
        [0, me, head, "Twalk"], [0, me, head, "Topen"], [0, me, head, "Tread"],
        [3, head, me, "Rwalk"], [3, head, me, "Ropen"],
        [3, head, "s1", "Tattach"], [6, "s1", head, "Rattach"],
        [9, head, "s1", "Twalk"], [12, "s1", head, "Rwalk"],
        [15, head, "s1", "Topen"], [18, "s1", head, "Ropen"],
        [21, head, "s1", "Tread"], [24, "s1", head, "Rread"],
        [27, head, me, "Rread"], [30, me, head, "Tclunk"],
        [33, head, "s1", "Tclunk"], [33, head, me, "Rclunk"], [36, "s1", head, "Rclunk"]]


def test_ls_of_a_sleeping_file_is_not_a_directory_after_one_fallback(zoo_sim):
    # the relayed read of a sleeping member waits out the head's fallback
    # (1000 ticks) and is refused, device unreachable; the Ropen before it
    # showed a file, so that is the answer, and the read is sent once:
    # 1006 ticks and 8 client frames (re-sent, 2012 ticks and 11 frames)
    shell = Shell(zoo_sim)
    for line in ("mount /dev/network /network",
                 "write /network/cluster2/sensors/s9/control sleep", "tick 40"):
        assert shell.run_line(line) == (0, "")
    net = zoo_sim.net
    t0, since = net.now, len(net.log.lines)
    assert shell.run_line("ls /network/cluster2/sensors/s9/reading") == (
        1, "error: not a directory")
    assert net.now - t0 == 1006
    net.run_until(net.now + 100)
    head, me = "cluster2.head", shell.client.eid
    assert [[int(line.split("\t")[0]) - t0] + line.split("\t")[2:4] +
            line.split("\t")[4].split()[:1]
            for line in net.log.lines[since:]
            if line.split("\t")[1] == "send" and me in line.split("\t")[2:4]] == [
        [0, me, head, "Twalk"], [0, me, head, "Topen"], [0, me, head, "Tread"],
        [3, head, me, "Rwalk"], [3, head, me, "Ropen"], [1003, head, me, "Rerror"],
        [1006, me, head, "Tclunk"], [1009, head, me, "Rclunk"]]


@pytest.mark.parametrize("kind", ["Twalk", "Rwalk", "Topen", "Ropen", "Tread", "Rread"])
def test_a_lost_frame_of_an_ls_leaves_no_fid_on_the_head(zoo_sim, kind):
    # the walk's fid is clunked however the listing fails, and after a lost
    # Rwalk too, since the walk may have bound it; the clunk of a fid a
    # lost Twalk never bound is refused, harmlessly
    shell = Shell(zoo_sim)
    shell.run_line("mount /dev/network /network")
    assert shell.run_line("ls /network/cluster1")[0] == 0          # attaches
    net, send, lost = zoo_sim.net, zoo_sim.net.send, []
    net.run_until(net.now + 100)
    mux = zoo_sim.muxes["cluster1"]
    conn = shell.client._conns[("net", mux.eid)]

    def lose_one(src, dst, frame):
        if not lost and shell.client.eid in (src, dst) and \
                type(decode_message(frame)).__name__ == kind:
            lost.append(frame)
            return
        send(src, dst, frame)

    net.send = lose_one
    assert shell.run_line("ls /network/cluster1/sensors") == (1, "error: timeout")
    net.run_until(net.now + 100)
    assert len(lost) == 1
    assert list(mux.sessions[shell.client.eid].fids) == list(conn.roots.values())
    assert conn.pending == {}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 3), st.integers(0, 12))
def test_ls_and_stat_over_a_jittery_link_take_at_most_one_round_trip_more(
        seed, jitter, entries):
    # an open or stat that overtook its walk is refused and sent once
    # more: an ls takes at most three round trips of up to 2 * (1 + jitter)
    # ticks each, a stat two
    root, d = listing_root([8] * entries)
    net = Network(seed, default_link=LinkModel(1, jitter, 0.0))
    server = Server(root, USERS)
    ServerEndpoint(net, "srv", server)
    client = make_client(net)
    ref = ("net", "srv")
    client.ls(ref, "")                      # attaches
    net.run_until(net.now + 20)
    conn, session = client._conns[ref], server.sessions[client.eid]
    baseline = dict(session.fids), dict(conn.roots)
    t0 = net.now
    assert client.ls(ref, "d") == [child.stat() for child in d.list_children()]
    assert net.now - t0 <= 6 * (1 + jitter)
    t0 = net.now
    assert client.stat(ref, "d") == d.stat()
    assert net.now - t0 <= 4 * (1 + jitter)
    net.run_until(net.now + 20)
    assert (dict(session.fids), dict(conn.roots)) == baseline
    assert conn.pending == {} and conn.open_fids == {}


def listing_over_a_link():
    """A client attached to a server of listing_root([8] * 3) over links
    of latency 1: (net, client, ref, server, d)."""
    root, d = listing_root([8] * 3)
    net = Network(0, default_link=LinkModel(1, 0, 0.0))
    server = Server(root, USERS)
    ServerEndpoint(net, "srv", server)
    client = make_client(net)
    ref = ("net", "srv")
    client.ls(ref, "")                      # attaches
    net.run_until(net.now + 2)
    return net, client, ref, server, d


def overtake(net, client, kind):
    """Hold back the next kind frame client sends until it has sent one
    more frame, which so overtakes it."""
    send, held = net.send, []

    def reorder(src, dst, frame):
        if src == client.eid and not held and type(decode_message(frame)).__name__ == kind:
            held.append((src, dst, frame))
            return
        send(src, dst, frame)
        if src == client.eid and held and held[-1] is not None:
            send(*held[-1])
            held.append(None)

    net.send = reorder


@pytest.mark.parametrize("held, frames", [
    # a Topen that overtook its Twalk is refused (unknown fid), and so is
    # the Tread after it (not open): both are sent again, in turn
    ("Twalk", [(0, "Topen"), (0, "Twalk"), (0, "Tread"), (1, "Rerror"), (1, "Rwalk"),
               (1, "Rerror"), (2, "Topen"), (3, "Ropen"), (4, "Tread"), (5, "Rread"),
               (6, "Tclunk"), (7, "Rclunk")]),
    # a Tread that overtook its Topen is refused alone, and sent again alone
    ("Topen", [(0, "Twalk"), (0, "Tread"), (0, "Topen"), (1, "Rwalk"), (1, "Rerror"),
               (1, "Ropen"), (2, "Tread"), (3, "Rread"), (4, "Tclunk"), (5, "Rclunk")])])
def test_a_request_that_overtook_the_walk_or_the_open_is_sent_once_more(held, frames):
    net, client, ref, server, d = listing_over_a_link()
    conn, session = client._conns[ref], server.sessions[client.eid]
    baseline = dict(session.fids), dict(conn.roots)
    overtake(net, client, held)
    t0, since = net.now, len(net.log.lines)
    assert client.ls(ref, "d") == [child.stat() for child in d.list_children()]
    net.run_until(net.now + 2)
    assert client_leg(net, since, t0, client) == frames
    assert (dict(session.fids), dict(conn.roots)) == baseline
    assert conn.pending == {}


def test_only_the_request_that_overtook_is_sent_once_more():
    # a Topen that overtook the walk is sent again; the Tstat after it,
    # answered in its turn, is not
    net, client, ref, server, _ = listing_over_a_link()
    overtake(net, client, "Twalk")
    t0, since = net.now, len(net.log.lines)
    opened, stated = client._one(ref, on_walked(
        client._conn(ref), client.uname, "d", (lambda t, fid: Topen(t, fid, OREAD), Tstat),
        partial(client._clunk, ref)))
    assert opened.qid.is_dir and stated.stat.name == "d"
    net.run_until(net.now + 2)
    assert client_leg(net, since, t0, client) == [
        (0, "Topen"), (0, "Twalk"), (0, "Tstat"), (1, "Rerror"), (1, "Rwalk"), (1, "Rstat"),
        (2, "Topen"), (3, "Ropen"), (4, "Tclunk"), (5, "Rclunk")]
    assert list(server.sessions[client.eid].fids) == list(client._conns[ref].roots.values())


def test_an_ls_whose_open_is_refused_sends_it_once():
    # permission denied is final: the flight's Topen and Tread are not sent
    # again, and the open's refusal is the answer, not the read's
    root, _ = listing_root([8] * 3)
    root.add(make_dir("locked", 0o000))
    net = Network(0, default_link=LinkModel(1, 0, 0.0))
    server = Server(root, USERS)
    ServerEndpoint(net, "srv", server)
    client = make_client(net)
    ref = ("net", "srv")
    client.ls(ref, "")                      # attaches
    net.run_until(net.now + 2)
    t0, since = net.now, len(net.log.lines)
    with pytest.raises(ClientError, match="^permission denied$"):
        client.ls(ref, "locked")
    net.run_until(net.now + 2)
    assert client_leg(net, since, t0, client) == [
        (0, "Twalk"), (0, "Topen"), (0, "Tread"), (1, "Rwalk"), (1, "Rerror"), (1, "Rerror"),
        (2, "Tclunk"), (3, "Rclunk")]
    assert list(server.sessions[client.eid].fids) == list(client._conns[ref].roots.values())


def test_an_ls_of_a_file_whose_read_is_unreachable_sends_it_once():
    # the head opens a sleeping member's file against its mirrored stat and
    # answers the relayed Tread 'device unreachable' after its fallback; the
    # Ropen already showed a file, so the answer is 'not a directory', and
    # the read is not sent again
    net, mux, states = build_cluster([temp_sensor(1, 20.0)], latency=1,
                                     mux_cfg=MuxConfig(fallback_ticks=50))
    states["s1"].set_power(net.now, "asleep")
    client = make_client(net)
    ref = ("net", mux.eid)
    client.ls(ref, "")                      # attaches
    net.run_until(net.now + 2)
    t0, since = net.now, len(net.log.lines)
    with pytest.raises(ClientError, match="^not a directory$"):
        client.ls(ref, "sensors/s1/reading")
    net.run_until(net.now + 2)
    assert client_leg(net, since, t0, client) == [
        (0, "Twalk"), (0, "Topen"), (0, "Tread"), (1, "Rwalk"), (1, "Ropen"),
        (51, "Rerror"), (52, "Tclunk"), (53, "Rclunk")]
    assert client_files(mux, client) == [mux.root.name]