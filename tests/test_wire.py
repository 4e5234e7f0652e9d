"""Codec tests: hand-encoded frames, round-trip properties, framing."""

import struct
import traceback

import pytest
from hypothesis import given, settings, strategies as st

from sensefs import wire
from sensefs.wire import (
    Qid, Stat, WireError,
    Tattach, Rattach, Twalk, Rwalk, Topen, Ropen, Tread, Rread,
    Twrite, Rwrite, Tclunk, Rclunk, Tstat, Rstat, Rerror,
    MAX_FRAME, MAX_WALK, NOTAG,
    decode_message, decode_stats, encode_message, pack_stat,
)

# hand-encoded per the wire format: size[4] type[1] tag[2] fid[4],
# little-endian, Tclunk type code 110 = 0x6E
TCLUNK_FRAME = bytes.fromhex("0B0000006E050001000000")


def test_tclunk_golden_frame():
    assert encode_message(Tclunk(tag=5, fid=1)) == TCLUNK_FRAME
    assert decode_message(TCLUNK_FRAME) == Tclunk(tag=5, fid=1)


def test_empty_twalk_frame():
    # size[4] type[1] tag[2] fid[4] newfid[4] nwname[2]
    frame = encode_message(Twalk(tag=1, fid=0, newfid=1, names=()))
    expected = struct.pack("<IBHIIH", 17, 102, 1, 0, 1, 0)
    assert frame == expected
    assert decode_message(frame) == Twalk(1, 0, 1, ())


def test_size_field_counts_whole_frame():
    for msg in (Tclunk(5, 1), Rerror(9, "nope"), Rread(3, b"abc")):
        frame = encode_message(msg)
        assert struct.unpack("<I", frame[:4])[0] == len(frame)


# One hand-encoded frame per message type, written out from the format in
# the wire docstring.  A layout change made the same way in the encoder and
# the decoder still round-trips, so only fixed bytes can catch it.
GOLDEN_FRAMES = [
    (Tattach(tag=1, fid=2, uname="admin", aname="mux"),
     "17000000 64 0100 02000000 0500 61646D696E 0300 6D7578"),
    (Rattach(tag=1, qid=Qid(wire.QDIR, 3, 0x0102030405060708)),
     "14000000 65 0100 80 03000000 0807060504030201"),
    (Twalk(tag=2, fid=0, newfid=1, names=("sensors", "näme")),
     "21000000 66 0200 00000000 01000000 0200"
     " 0700 73656E736F7273 0500 6EC3A46D65"),
    (Rwalk(tag=2, qids=(Qid(wire.QDIR, 0, 5), Qid(wire.QFILE, 1, 6))),
     "23000000 67 0200 0200"
     " 80 00000000 0500000000000000 00 01000000 0600000000000000"),
    (Topen(tag=3, fid=1, mode=wire.ORDWR),
     "0C000000 68 0300 01000000 02"),
    (Ropen(tag=3, qid=Qid(wire.QFILE, 0, 6), iounit=wire.IOUNIT),
     "18000000 69 0300 00 00000000 0600000000000000 E91F0000"),
    (Tread(tag=4, fid=1, offset=1 << 32, count=8169),
     "17000000 6A 0400 01000000 0000000001000000 E91F0000"),
    (Rread(tag=4, data=b"21.5\n"),
     "10000000 6B 0400 05000000 32312E350A"),
    (Twrite(tag=5, fid=1, offset=7, data=b"reset"),
     "1C000000 6C 0500 01000000 0700000000000000 05000000 7265736574"),
    (Rwrite(tag=5, count=5),
     "0B000000 6D 0500 05000000"),
    (Tclunk(tag=6, fid=1),
     "0B000000 6E 0600 01000000"),
    (Rclunk(tag=6),
     "07000000 6F 0600"),
    (Tstat(tag=7, fid=1),
     "0B000000 70 0700 01000000"),
    (Rstat(tag=7, stat=Stat("t1", Qid(wire.QFILE, 2, 6), 0o644, 5,
                            "admin", "users", 42)),
     "3C000000 71 0700 3300 0200 7431 00 02000000 0600000000000000"
     " A4010000 0500000000000000 0500 61646D696E 0500 7573657273"
     " 2A00000000000000"),
    (Rerror(tag=NOTAG, ename="fid in use"),
     "13000000 7F FFFF 0A00 66696420696E20757365"),
]


def test_golden_frames_cover_every_type():
    codes = [bytes.fromhex(hexframe)[4] for _, hexframe in GOLDEN_FRAMES]
    assert sorted(codes) == sorted(wire.TYPE_NAMES)


@pytest.mark.parametrize("msg,hexframe", GOLDEN_FRAMES,
                         ids=[type(m).__name__ for m, _ in GOLDEN_FRAMES])
def test_golden_frame(msg, hexframe):
    frame = bytes.fromhex(hexframe)
    assert encode_message(msg) == frame
    assert decode_message(frame) == msg


# -- generators for every message variant ------------------------------

tags = st.integers(0, 0xFFFE)       # NOTAG excluded: invalid on T-messages
r_tags = st.integers(0, 0xFFFF)
u32 = st.integers(0, 0xFFFFFFFF)
u64 = st.integers(0, 0xFFFFFFFFFFFFFFFF)
names = st.text(
    st.characters(exclude_categories=("Cs",)), min_size=0, max_size=20)
qids = st.builds(Qid, st.integers(0, 255), u32, u64)
stats = st.builds(Stat, names, qids, u32, u64, names, names, u64)
small_bytes = st.binary(max_size=1024)

messages = st.one_of(
    st.builds(Tattach, tags, u32, names, names),
    st.builds(Rattach, r_tags, qids),
    st.builds(Twalk, tags, u32, u32,
              st.lists(names, max_size=MAX_WALK).map(tuple)),
    st.builds(Rwalk, r_tags, st.lists(qids, max_size=MAX_WALK).map(tuple)),
    st.builds(Topen, tags, u32, st.integers(0, 2)),
    st.builds(Ropen, r_tags, qids, u32),
    st.builds(Tread, tags, u32, u64, u32),
    st.builds(Rread, r_tags, small_bytes),
    st.builds(Twrite, tags, u32, u64, small_bytes),
    st.builds(Rwrite, r_tags, u32),
    st.builds(Tclunk, tags, u32),
    st.builds(Rclunk, r_tags),
    st.builds(Tstat, tags, u32),
    st.builds(Rstat, r_tags, stats),
    st.builds(Rerror, r_tags, names),
)


@settings(max_examples=500)
@given(messages)
def test_round_trip(msg):
    try:
        frame = encode_message(msg)
    except WireError:
        # oversize strings/frames are legitimately rejected
        return
    assert decode_message(frame) == msg
    assert encode_message(msg) == frame   # encoding is deterministic


def _mangle(blob, data):
    """Truncate, flip one byte of, or pad a valid encoding."""
    blob = bytearray(blob)
    how = data.draw(st.sampled_from(("truncate", "flip", "pad")))
    if how == "truncate":
        del blob[data.draw(st.integers(0, len(blob) - 1)):]
    elif how == "flip":
        blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
    else:
        blob += data.draw(st.binary(min_size=1, max_size=40))
    return blob


@settings(max_examples=1000)
@given(messages, st.data())
def test_malformed_frames_raise_only_wire_error(msg, data):
    # every endpoint catches WireError alone, so nothing else may escape
    try:
        frame = _mangle(encode_message(msg), data)
    except WireError:
        return
    size = data.draw(st.sampled_from(("keep", "true", "any")))
    if size != "keep" and len(frame) >= 4:
        frame[:4] = struct.pack("<I", len(frame) if size == "true"
                                else data.draw(st.integers(0, 0xFFFFFFFF)))
    try:
        decode_message(bytes(frame))
    except WireError:
        pass


@settings(max_examples=300)
@given(st.lists(stats, min_size=1, max_size=4), st.data())
def test_malformed_stat_records_raise_only_wire_error(sts, data):
    try:
        blob = _mangle(b"".join(pack_stat(s) for s in sts), data)
    except WireError:
        return
    try:
        decode_stats(bytes(blob))
    except WireError:
        pass


def test_decode_unknown_type():
    frame = struct.pack("<IBH", 7, 0xFF, 0)
    with pytest.raises(WireError, match="unknown type"):
        decode_message(frame)


def test_decode_size_overclaim():
    frame = struct.pack("<IBH", 20, 110, 5)   # claims 20, delivers 7
    with pytest.raises(WireError, match="truncated"):
        decode_message(frame)


def test_decode_trailing_bytes():
    frame = TCLUNK_FRAME + b"x"
    padded = struct.pack("<I", len(frame)) + frame[4:]
    with pytest.raises(WireError, match="trailing"):
        decode_message(padded)


def test_notag_rejected_on_t_messages():
    with pytest.raises(WireError, match="NOTAG"):
        encode_message(Tclunk(tag=NOTAG, fid=1))
    frame = struct.pack("<IBHI", 11, 110, NOTAG, 1)
    with pytest.raises(WireError, match="NOTAG"):
        decode_message(frame)
    # but NOTAG is fine on R-messages
    assert decode_message(encode_message(Rclunk(NOTAG))) == Rclunk(NOTAG)


def test_walk_length_limits():
    with pytest.raises(WireError, match="exceeds"):
        encode_message(Twalk(1, 0, 1, tuple("n%d" % i for i in range(17))))
    assert encode_message(Twalk(1, 0, 1, tuple("n%d" % i for i in range(16))))


def test_bad_open_mode():
    with pytest.raises(WireError, match="mode"):
        encode_message(Topen(1, 0, 3))
    frame = struct.pack("<IBHIB", 12, 104, 1, 0, 3)
    with pytest.raises(WireError, match="mode"):
        decode_message(frame)


def test_frame_size_cap():
    with pytest.raises(WireError, match="exceeds"):
        encode_message(Rread(0, b"x" * MAX_FRAME))


@pytest.mark.parametrize("msg", [
    Tread(1, 0, -1, 10),                     # offset below its Q range
    Tread(1, 2 ** 32, 0, 10),                # fid above its I range
    Rwrite(1, 2 ** 32),                      # count above its I range
    Rattach(1, Qid(0x100, 0, 0)),            # qid kind above its B range
    Rstat(1, Stat("a" * 40000, Qid(), 0, owner="b" * 40000)),   # stat record > 65535 bytes
], ids=["offset", "fid", "count", "qid", "stat"])
def test_field_out_of_range_is_wire_error(msg):
    with pytest.raises(WireError, match=type(msg).__name__):
        encode_message(msg)


def test_string_too_long_is_wire_error():
    with pytest.raises(WireError, match="too long"):
        encode_message(Rerror(1, "x" * 65536))
    with pytest.raises(WireError, match="too long"):
        encode_message(Twalk(1, 0, 1, ("x" * 65536,)))


@settings(max_examples=100)
@given(st.lists(stats, max_size=6))
def test_stat_records_round_trip(sts):
    try:
        blob = b"".join(pack_stat(s) for s in sts)
    except WireError:
        return
    assert decode_stats(blob) == sts


def test_truncated_stat():
    blob = pack_stat(Stat("f", Qid(), 0o444))[:-2]
    with pytest.raises(WireError):
        decode_stats(blob)


@pytest.mark.parametrize("msg,hexframe", GOLDEN_FRAMES,
                         ids=[type(m).__name__ for m, _ in GOLDEN_FRAMES])
def test_every_strict_prefix_of_a_golden_frame_is_refused(msg, hexframe):
    # each layout is self-delimiting: a frame cut anywhere, with its size
    # field restated to the cut, is refused and never decoded short
    frame = bytes.fromhex(hexframe)
    for cut in range(len(frame)):
        prefix = bytearray(frame[:cut])
        if cut >= 4:
            prefix[:4] = struct.pack("<I", cut)
        with pytest.raises(WireError):
            decode_message(bytes(prefix))


def test_records_equal_only_records_of_their_own_class():
    assert Tclunk(5, 1) == Tclunk(tag=5, fid=1)
    assert Tclunk(5, 1) != Tstat(5, 1) and not Tclunk(5, 1) == Tstat(5, 1)
    assert Tclunk(5, 1) != (5, 1) and (5, 1) != Tclunk(5, 1)
    assert Qid(1, 2, 3) != (1, 2, 3)
    assert type(Tclunk(5, 1)) is not tuple     # a flight is a plain tuple of builds


def test_records_refuse_assignment():
    msg, st = Tclunk(5, 1), Stat("a", Qid(), 0o644)
    with pytest.raises(AttributeError):
        msg.fid = 2
    with pytest.raises(AttributeError):
        msg.other = 2
    with pytest.raises(AttributeError):
        st.qid.kind = wire.QDIR
    assert msg == Tclunk(5, 1) and st.qid == Qid()


def test_records_hash():
    assert hash(Tclunk(5, 1)) == hash(Tclunk(5, 1))
    assert len({Tclunk(5, 1), Tclunk(5, 1), Tstat(5, 1)}) == 2
    assert {Stat("a", Qid(wire.QDIR, 0, 1), 0): 1}[Stat("a", Qid(wire.QDIR, 0, 1), 0)] == 1


def test_qid_is_dir():
    assert Qid(wire.QDIR).is_dir and Qid(wire.QDIR | 1, 2, 3).is_dir
    assert not Qid().is_dir and not Qid(wire.QFILE, 7, 7).is_dir


def test_a_string_utf8_cannot_encode_is_wire_error():
    # a lone surrogate, as a REPL under a C locale reads an undecodable byte
    with pytest.raises(WireError, match="Twalk: .*surrogates not allowed"):
        encode_message(Twalk(1, 0, 1, ("\udc80",)))
    with pytest.raises(WireError, match="Rerror"):
        encode_message(Rerror(1, "bad \udc80"))
    with pytest.raises(WireError, match="Rstat"):
        encode_message(Rstat(1, Stat("\udc80", Qid(), 0)))


def test_compiled_layouts_are_named_in_tracebacks():
    with pytest.raises(WireError) as info:
        decode_message(TCLUNK_FRAME[:-1].replace(b"\x0B", b"\x0A", 1))
    frames = traceback.extract_tb(info.value.__traceback__)
    assert frames[-1].filename == "<wire Tclunk>"
    assert "truncated at offset" in frames[-1].line
