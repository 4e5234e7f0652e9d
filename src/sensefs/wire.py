"""Styx-subset wire codec: message types and the encoder/decoder.

Message format (all integers little-endian):

    frame   := size[4] type[1] tag[2] body

The size field counts the whole frame, itself included.  Exchanges are
strictly paired: a client sends a T-message with a 16-bit tag and the
server answers with exactly one R-message carrying the same tag (Rerror
on failure).

MESSAGES is the only place a message layout is stated: one row per
message with its name, type code and body fields in wire order.  From it
this module derives, at import, the message classes (frozen dataclasses,
`tag` first, each field annotated with its kind), the TATTACH..RERROR
constants, TYPE_NAMES, T_TYPES, and one encoder and one decoder per
message.  A stat record is laid out the same way by STAT_FIELDS.  Field
kinds:

    B H I Q   unsigned int of 1, 2, 4 or 8 bytes; a run of adjacent ones
              is packed and unpacked by one precompiled struct.Struct
    mode      open mode, one byte in OREAD..ORDWR
    str       len[2] utf8-bytes[len]
    qid       kind[1] version[4] path[8]
    data      count[4] bytes[count]
    stat      statlen[2] then the STAT_FIELDS; statlen counts what follows
    str*      count[2] then count strings, at most MAX_WALK
    qid*      count[2] then count qids, at most MAX_WALK

Every read is bounds-checked: a malformed frame or stat record raises
WireError and nothing else.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, make_dataclass
from itertools import groupby
from operator import attrgetter

NOTAG = 0xFFFF
MAX_FRAME = 8192
MAX_WALK = 16
MAX_STAT = 1024     # largest stat record a directory listing may hold
# Largest Rread/Twrite payload: frame minus size[4] type[1] tag[2] count[4]
# and the Twrite fid[4]+offset[8].
IOUNIT = MAX_FRAME - 23

OREAD = 0
OWRITE = 1
ORDWR = 2

QDIR = 0x80
QFILE = 0x00

DMDIR = 0x80000000

# name, type code, body fields in wire order as (name, kind[, default])
MESSAGES = (
    ("Tattach", 100, (("fid", "I"), ("uname", "str"), ("aname", "str", ""))),
    ("Rattach", 101, (("qid", "qid"),)),
    ("Twalk", 102, (("fid", "I"), ("newfid", "I"), ("names", "str*", ()))),
    ("Rwalk", 103, (("qids", "qid*", ()),)),
    ("Topen", 104, (("fid", "I"), ("mode", "mode"))),
    ("Ropen", 105, (("qid", "qid"), ("iounit", "I", IOUNIT))),
    ("Tread", 106, (("fid", "I"), ("offset", "Q"), ("count", "I"))),
    ("Rread", 107, (("data", "data"),)),
    ("Twrite", 108, (("fid", "I"), ("offset", "Q"), ("data", "data"))),
    ("Rwrite", 109, (("count", "I"),)),
    ("Tclunk", 110, (("fid", "I"),)),
    ("Rclunk", 111, ()),
    ("Tstat", 112, (("fid", "I"),)),
    ("Rstat", 113, (("stat", "stat"),)),
    ("Rerror", 127, (("ename", "str"),)),
)

STAT_FIELDS = (
    ("name", "str"), ("qid", "qid"), ("mode", "I"), ("length", "Q", 0),
    ("owner", "str", ""), ("group", "str", ""), ("mtime", "Q", 0),
)

_FIXED = ("B", "H", "I", "Q")
_HEADER = struct.Struct("<IBH")
_H = struct.Struct("<H")
_I = struct.Struct("<I")
_QID = struct.Struct("<BIQ")


class WireError(Exception):
    """Raised on any encode/decode/framing violation."""


@dataclass(frozen=True)
class Qid:
    kind: int = QFILE
    version: int = 0
    path: int = 0

    @property
    def is_dir(self) -> bool:
        return bool(self.kind & QDIR)


def _record(name, fields):
    """A frozen dataclass whose fields are annotated with their kinds."""
    return make_dataclass(name, fields, frozen=True, namespace={"__module__": __name__})


Stat = _record("Stat", STAT_FIELDS)


# -- bounds-checked pack/take helpers ---------------------------------------
# pack(value) -> bytes; take(buf, pos, out) appends the value at pos to out
# and returns the offset after it.

def _check(buf, pos, n):
    """End of n bytes at pos, which must lie within buf."""
    if pos + n > len(buf):
        raise WireError("truncated at offset %d" % pos)
    return pos + n


def _take_counted(buf, pos, out, count=_I):
    """Take the bytes after a count prefix, count[4] unless `count` says otherwise."""
    start = _check(buf, pos, count.size)
    end = _check(buf, start, count.unpack_from(buf, pos)[0])
    out.append(buf[start:end])
    return end


def _pack_str(s):
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise WireError("string too long (%d bytes)" % len(raw))
    return _H.pack(len(raw)) + raw


def _take_str(buf, pos, out):
    end = _take_counted(buf, pos, out, _H)
    try:
        out[-1] = out[-1].decode("utf-8")
    except UnicodeDecodeError:
        raise WireError("bad utf-8 string at offset %d" % (pos + 2)) from None
    return end


def _pack_qid(q):
    return _QID.pack(q.kind, q.version, q.path)


def _take_qid(buf, pos, out):
    end = _check(buf, pos, _QID.size)
    out.append(Qid(*_QID.unpack_from(buf, pos)))
    return end


def _pack_mode(mode):
    if not 0 <= mode <= ORDWR:
        raise WireError("bad open mode %r" % (mode,))
    return bytes((mode,))


def _take_mode(buf, pos, out):
    end = _check(buf, pos, 1)
    if buf[pos] > ORDWR:
        raise WireError("bad open mode %d" % buf[pos])
    out.append(buf[pos])
    return end


def _list(noun, pack_item, take_item):
    """pack and take for count[2] items, at most MAX_WALK of them."""
    def pack(items):
        if len(items) > MAX_WALK:
            raise WireError("walk of %d %s exceeds %d" % (len(items), noun, MAX_WALK))
        return _H.pack(len(items)) + b"".join(map(pack_item, items))

    def take(buf, pos, out):
        end = _check(buf, pos, 2)
        n = _H.unpack_from(buf, pos)[0]
        if n > MAX_WALK:
            raise WireError("walk of %d %s exceeds %d" % (n, noun, MAX_WALK))
        items = []
        for _ in range(n):
            end = take_item(buf, end, items)
        out.append(tuple(items))
        return end
    return pack, take


def pack_stat(st: Stat) -> bytes:
    body = _pack_stat_body(st)
    return _H.pack(len(body)) + body


def _take_stat(buf, pos, out):
    start = _check(buf, pos, 2)
    end = start + _H.unpack_from(buf, pos)[0]
    if end > len(buf):
        raise WireError("truncated stat at offset %d" % start)
    values = []
    stop = _take_stat_body(buf, start, values)
    if stop != end:
        raise WireError("stat length mismatch at offset %d" % stop)
    out.append(Stat(*values))
    return end


def decode_stats(data: bytes) -> list:
    """Decode a directory-read payload: consecutive stat records."""
    out, pos = [], 0
    while pos < len(data):
        pos = _take_stat(data, pos, out)
    return out


_KINDS = {
    "mode": (_pack_mode, _take_mode),
    "str": (_pack_str, _take_str),
    "qid": (_pack_qid, _take_qid),
    "data": (lambda data: _I.pack(len(data)) + data, _take_counted),
    "stat": (pack_stat, _take_stat),
    "str*": _list("names", _pack_str, _take_str),
    "qid*": _list("qids", _pack_qid, _take_qid),
}


def _codec(fields):
    """pack(obj) -> bytes and take(buf, pos, out) -> end for a field list."""
    packs, takes = [], []
    for fixed, run in groupby(fields, key=lambda f: f[1] in _FIXED):
        if fixed:
            _add_fixed(packs, takes, list(run))
            continue
        for name, kind, *_ in run:
            pack, take = _KINDS[kind]
            packs.append(lambda obj, get=attrgetter(name), pack=pack: pack(get(obj)))
            takes.append(take)

    if len(takes) == 1:
        return packs[0], takes[0]

    def pack(obj):
        return b"".join([p(obj) for p in packs])

    def take(buf, pos, out):
        for step in takes:
            pos = step(buf, pos, out)
        return pos
    return pack, take


def _add_fixed(packs, takes, run):
    """One precompiled Struct for a run of adjacent fixed ints."""
    st = struct.Struct("<" + "".join(kind for _, kind, *_ in run))
    get = attrgetter(*[name for name, *_ in run])
    if len(run) == 1:
        packs.append(lambda obj: st.pack(get(obj)))
    else:
        packs.append(lambda obj: st.pack(*get(obj)))

    def take(buf, pos, out):
        end = _check(buf, pos, st.size)
        out.extend(st.unpack_from(buf, pos))
        return end
    takes.append(take)


_pack_stat_body, _take_stat_body = _codec(STAT_FIELDS)

# -- the messages, derived from MESSAGES -----------------------------------

TYPE_NAMES = {}
_ENCODERS = {}      # class -> (type code, is T-message, pack body)
_DECODERS = {}      # type code -> (class, is T-message, take body)

for _name, _code, _fields in MESSAGES:
    _cls = globals()[_name] = _record(_name, (("tag", "H"),) + _fields)
    globals()[_name.upper()] = _code
    TYPE_NAMES[_code] = _name
    _pack, _take = _codec(_fields)
    _ENCODERS[_cls] = (_code, _name[0] == "T", _pack)
    _DECODERS[_code] = (_cls, _name[0] == "T", _take)
del _name, _code, _fields, _cls, _pack, _take

T_TYPES = tuple(cls for cls, (_, is_t, _) in _ENCODERS.items() if is_t)


def encode_message(msg) -> bytes:
    """Encode one message into a complete frame."""
    try:
        code, is_t, pack = _ENCODERS[type(msg)]
    except KeyError:
        raise WireError("not a protocol message: %r" % (msg,)) from None
    tag = msg.tag
    if not 0 <= tag <= 0xFFFF:
        raise WireError("tag out of range: %r" % (tag,))
    if is_t and tag == NOTAG:
        raise WireError("NOTAG on a T-message")
    try:
        body = pack(msg)
    except struct.error as e:     # an int or a length outside its field's range
        raise WireError("%s: %s" % (type(msg).__name__, e)) from None
    size = _HEADER.size + len(body)
    if size > MAX_FRAME:
        raise WireError("frame of %d bytes exceeds %d" % (size, MAX_FRAME))
    return _HEADER.pack(size, code, tag) + body


def decode_message(frame: bytes):
    """Decode exactly one frame back into its message."""
    if len(frame) < _HEADER.size:
        raise WireError("frame shorter than 7 bytes")
    size, code, tag = _HEADER.unpack_from(frame)
    if size != len(frame):
        raise WireError("truncated: size field %d, got %d bytes" % (size, len(frame)))
    try:
        cls, is_t, take = _DECODERS[code]
    except KeyError:
        raise WireError("unknown type %d at offset 4" % code) from None
    values = []
    end = take(frame, _HEADER.size, values)
    if end != size:
        raise WireError("size mismatch: %d trailing bytes" % (size - end))
    if is_t and tag == NOTAG:
        raise WireError("NOTAG on a T-message")
    return cls(tag, *values)


# frame_head of a frame shorter than its header: above every type and tag
SHORT_HEAD = 1 << 24


def frame_head(frame: bytes) -> int:
    """A frame's type code and tag as one int, code | tag << 8, read from its
    header alone, for the event log; SHORT_HEAD if the header is cut short."""
    if len(frame) < _HEADER.size:
        return SHORT_HEAD
    _, code, tag = _HEADER.unpack_from(frame)
    return code | tag << 8


def head_summary(head: int) -> str:
    """`Name tag=N` for a frame_head value (`?N` names an unknown type code
    N); `short` for SHORT_HEAD."""
    if head == SHORT_HEAD:
        return "short"
    code = head & 0xFF
    return "%s tag=%d" % (TYPE_NAMES.get(code) or "?%d" % code, head >> 8)

