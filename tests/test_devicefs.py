"""Leaf-device server tests: tree layout, control, calibration, debug files."""

import pytest
from hypothesis import example, given, settings, strategies as st

from sensefs.devicefs import (
    FILE_ORDER, MEM_SIZE, NUM_REGISTERS, SensorState,
    handle_control, make_device_server, parse_info,
)
from sensefs.fscore import FsError, UserDb
from sensefs.simnet import DutyCycle

from test_fscore import Conn
from sensefs.wire import (
    OREAD, OWRITE,
    Tattach, Twalk, Topen, Tread, Twrite, Tclunk,
    Rattach, Rwalk, Ropen, Rread, Rwrite, Rerror,
)
from sensefs import wire

USERS = UserDb({"admin": {"admin"}, "guest": {"users"}, "mux": {"mux"}})


def device(value=20.9, kind="temperature", **kw):
    clock = {"now": 0}
    state = SensorState("s1", kind=kind,
                        raw_source=(lambda t, v=value: v), **kw)
    server = make_device_server(state, USERS, clock=lambda: clock["now"])
    conn = Conn(server)
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    return state, conn, clock


def read_file(conn, name, offset=0, count=8169, fid=7):
    conn.ok(lambda t: Twalk(t, 0, fid, (name,)), Rwalk)
    conn.ok(lambda t: Topen(t, fid, OREAD), Ropen)
    data = conn.ok(lambda t: Tread(t, fid, offset, count), Rread).data
    conn.ok(lambda t: Tclunk(t, fid), wire.Rclunk)
    return data


def write_file(conn, name, data, offset=0, fid=8, expect_err=None):
    conn.ok(lambda t: Twalk(t, 0, fid, (name,)), Rwalk)
    conn.ok(lambda t: Topen(t, fid, OWRITE), Ropen)
    if expect_err:
        conn.err(lambda t: Twrite(t, fid, offset, data), expect_err)
    else:
        conn.ok(lambda t: Twrite(t, fid, offset, data), Rwrite)
    conn.ok(lambda t: Tclunk(t, fid), wire.Rclunk)


def test_root_children_exact_order():
    _, conn, _ = device()
    conn.ok(lambda t: Twalk(t, 0, 1, ()), Rwalk)
    conn.ok(lambda t: Topen(t, 1, OREAD), Ropen)
    data = conn.ok(lambda t: Tread(t, 1, 0, 8169), Rread).data
    names = [s.name for s in wire.decode_stats(data)]
    assert names == list(FILE_ORDER)
    modes = {s.name: s.mode for s in wire.decode_stats(data)}
    assert modes["reading"] == 0o444
    assert modes["control"] == 0o644
    assert modes["remaining-energy"] == 0o444
    assert modes["registers"] == 0o644
    assert modes["mem"] == 0o644
    assert modes["info"] == 0o444


def test_reading_format():
    _, conn, _ = device(20.9)
    assert read_file(conn, "reading") == b"20.900000\n"


def test_position_reading_two_components():
    # the default source for a position sensor reports its coordinates
    state = SensorState("s1", kind="position", position=(3.0, 4.0))
    server = make_device_server(state, USERS, clock=lambda: 0)
    conn = Conn(server)
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    assert read_file(conn, "reading") == b"3.000000 4.000000\n"


def test_calibration_offset_and_reset():
    state, conn, _ = device(20.9)
    write_file(conn, "control", b"2.5")
    assert read_file(conn, "reading") == b"23.400000\n"
    write_file(conn, "control", b"reset")
    assert read_file(conn, "reading") == b"20.900000\n"


@settings(max_examples=100)
@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
       st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_calibration_is_exact_addition(raw, offset):
    state = SensorState("p", raw_source=lambda t: raw)
    state.cal_offset = offset
    assert state.reading_text(0) == "%.6f\n" % (raw + offset)


def test_bad_control_command():
    _, conn, _ = device()
    write_file(conn, "control", b"explode", expect_err="bad control command")


def test_sleep_and_wakeup_override():
    state, conn, clock = device()
    write_file(conn, "control", b"sleep")
    assert not state.is_awake(clock["now"])
    write_file(conn, "control", b"wakeup")
    assert state.is_awake(clock["now"])


def test_control_reset_zeroes_registers():
    state, conn, _ = device()
    state.registers[3] = 0xBEEF
    state.cal_offset = 1.0
    handle_control(state, 0, "reset")
    assert state.registers == [0] * NUM_REGISTERS
    assert state.cal_offset == 0.0


def test_registers_render_and_write():
    state, conn, _ = device()
    write_file(conn, "registers", b"r3 beef")
    assert state.registers[3] == 0xBEEF
    text = read_file(conn, "registers").decode()
    lines = text.splitlines()
    assert len(lines) == NUM_REGISTERS
    assert lines[3] == "r3 beef"
    assert lines[0] == "r0 0000"


def test_register_bounds():
    _, conn, _ = device()
    write_file(conn, "registers", b"r16 0001", expect_err="address out of range")
    write_file(conn, "registers", b"r0 10000", expect_err="address out of range")
    write_file(conn, "registers", b"bogus", expect_err="bad register write")


def test_mem_write_read_coherence():
    _, conn, _ = device()
    write_file(conn, "mem", b"\xde\xad", offset=0)
    assert read_file(conn, "mem", offset=0, count=2) == b"\xde\xad"


def test_mem_bounds():
    _, conn, _ = device()
    conn.ok(lambda t: Twalk(t, 0, 5, ("mem",)), Rwalk)
    conn.ok(lambda t: Topen(t, 5, OREAD), Ropen)
    conn.err(lambda t: Tread(t, 5, 0, 300), "address out of range")
    conn.err(lambda t: Tread(t, 5, 250, 7), "address out of range")
    write_file(conn, "mem", b"x" * 10, offset=250,
               expect_err="address out of range")
    assert len(read_file(conn, "mem", 0, MEM_SIZE)) == MEM_SIZE


@settings(max_examples=50)
@given(st.integers(0, MEM_SIZE - 1), st.binary(min_size=1, max_size=64))
def test_mem_round_trip_property(offset, blob):
    state = SensorState("p")
    if offset + len(blob) > MEM_SIZE:
        return
    state.memory[offset:offset + len(blob)] = blob
    assert bytes(state.memory[offset:offset + len(blob)]) == blob


def test_info_contents():
    _, conn, _ = device(tags={"animal": "snake"}, position=(10.0, 20.0))
    text = read_file(conn, "info").decode()
    assert text == ("id s1\n"
                    "kind temperature\n"
                    "position 10.000000 20.000000\n"
                    "tag animal snake\n")


_LINE = st.characters(blacklist_characters="\n", blacklist_categories=("Cs",))
_WORD = st.characters(blacklist_characters=" \n", blacklist_categories=("Cs",))
_COORD = st.floats(-1e6, 1e6).map(lambda v: float("%.6f" % v))


@given(st.text(_LINE), st.text(_LINE), st.tuples(_COORD, _COORD),
       st.dictionaries(st.text(_WORD), st.text(_LINE)))
@example("s1", "big cat", (1.5, -2.0), {"animal": "snow leopard"})
def test_parse_info_inverts_info_text(sid, kind, position, tags):
    state = SensorState(sid, kind=kind, position=position, tags=tags)
    assert parse_info(state.info_text()) == {
        "id": sid, "kind": kind, "position": position, "tags": tags}


def test_remaining_energy_render():
    _, conn, _ = device(energy_j=11.72)
    assert read_file(conn, "remaining-energy") == b"11.720000\n"


def test_guest_cannot_write_control():
    state = SensorState("s1", raw_source=lambda t: 1.0)
    server = make_device_server(state, USERS, clock=lambda: 0)
    guest = Conn(server, "g")
    guest.ok(lambda t: Tattach(t, 0, "guest", ""), Rattach)
    guest.ok(lambda t: Twalk(t, 0, 1, ("control",)), Rwalk)
    guest.err(lambda t: Topen(t, 1, OWRITE), "permission denied")
    # but reading works
    guest.ok(lambda t: Twalk(t, 0, 2, ("reading",)), Rwalk)
    guest.ok(lambda t: Topen(t, 2, OREAD), Ropen)


def test_two_devices_disjoint_qids():
    s1 = make_device_server(SensorState("a"), USERS, clock=lambda: 0)
    s2 = make_device_server(SensorState("b"), USERS, clock=lambda: 0)
    q1 = {c.qid.path for c in s1.root.list_children()} | {s1.root.qid.path}
    q2 = {c.qid.path for c in s2.root.list_children()} | {s2.root.qid.path}
    assert q1.isdisjoint(q2)


def test_no_nodes_allocated_after_construction():
    state = SensorState("s1", raw_source=lambda t: 5.0)
    server = make_device_server(state, USERS, clock=lambda: 0)
    before = [id(c) for c in server.root.list_children()]
    conn = Conn(server)
    conn.ok(lambda t: Tattach(t, 0, "admin", ""), Rattach)
    write_file(conn, "control", b"1.5")
    read_file(conn, "reading")
    write_file(conn, "mem", b"zz")
    after = [id(c) for c in server.root.list_children()]
    assert before == after


def test_duty_cycle_awake_windows():
    duty = DutyCycle(on_ticks=50, off_ticks=50, phase=0)
    state = SensorState("s1", duty=duty)
    assert state.is_awake(0) and state.is_awake(49)
    assert not state.is_awake(50) and not state.is_awake(99)
    assert state.is_awake(100)
    # control override beats the schedule
    state.set_power(60, "awake")
    assert state.is_awake(60)
