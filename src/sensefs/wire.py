"""Styx-subset wire codec: message types and the encoder/decoder.

Message format (all integers little-endian):

    frame   := size[4] type[1] tag[2] body

The size field counts the whole frame, itself included.  Exchanges are
strictly paired: a client sends a T-message with a 16-bit tag and the
server answers with exactly one R-message carrying the same tag (Rerror
on failure).

MESSAGES is the only place a message layout is stated: one row per
message with its name, type code and body fields in wire order, and
STAT_FIELDS lays out a stat record the same way.  From them this module
derives, at import, the message classes, the TATTACH..RERROR constants,
TYPE_NAMES, T_TYPES, and each layout's encoder and decoder, compiled: one
straight-line function each, generated as Python source (as Plan 9's
convS2M/convM2S spell out each message) and named `<wire NAME>` in
tracebacks and profiles.  A message (`tag` first), a Qid and a Stat are
immutable tuple records, equal only to a record of their own class.
Field kinds:

    B H I Q   unsigned int of 1, 2, 4 or 8 bytes; a run of adjacent ones
              is read by one precompiled struct.Struct, and written by one
              with the qids and data counts beside it
    mode      open mode, one byte in OREAD..ORDWR
    str       len[2] utf8-bytes[len]
    qid       kind[1] version[4] path[8]
    data      count[4] bytes[count]
    stat      statlen[2] then the STAT_FIELDS; statlen counts what follows
    str*      count[2] then count strings, at most MAX_WALK
    qid*      count[2] then count qids, at most MAX_WALK

Every read is bounds-checked: a malformed frame or stat record raises
WireError and nothing else; so does a message that cannot be encoded.
"""

from __future__ import annotations

import linecache
import re
import struct
from collections import namedtuple

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

_HEADER = struct.Struct("<IBH")


class WireError(Exception):
    """Raised on any encode/decode/framing violation."""


class _Record:
    """The equality of a tuple record: only a record of the same class."""
    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = tuple.__hash__


def _record(name, fields, **extra):
    """An immutable tuple record class of fields, each (name, kind[, default])."""
    base = namedtuple(name, [f[0] for f in fields],
                      defaults=[f[2] for f in fields if len(f) > 2])
    return type(name, (_Record, base), {"__slots__": (), **extra})


Qid = _record("Qid", (("kind", "B", QFILE), ("version", "I", 0), ("path", "Q", 0)),
              is_dir=property(lambda qid: bool(qid[0] & QDIR)))
Stat = _record("Stat", STAT_FIELDS)


# -- the compiled layouts ---------------------------------------------------
# Generated source runs in _NS: the helpers below, the record classes, and
# P_<codes>/U_<codes>, the pack/unpack_from of the struct of those codes.

_H = struct.Struct("<H")


def _str(s):
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise WireError("string too long (%d bytes)" % len(raw))
    return _H.pack(len(raw)) + raw


_NS = {"__name__": __name__, "struct": struct, "WireError": WireError, "Qid": Qid,
       "Stat": Stat, "_new": tuple.__new__, "_str": _str, "MAX_WALK": MAX_WALK}
_INTS = ("B", "H", "I", "Q")
_SHORT = "if n < p + %d: raise WireError('truncated at offset %%d' %% p)"

# kind: the lines that read a field of it at p into {v}, leaving p after it
_TAKE = {
    "qid": [_SHORT % 13,
            "{v} = _new(Qid, U_BIQ(b, p))",
            "p += 13"],
    "mode": [_SHORT % 1,
             "{v} = b[p]",
             "if {v} > %d: raise WireError('bad open mode %%d' %% {v})" % ORDWR,
             "p += 1"],
    "str": [_SHORT % 2,
            "e = p + 2 + U_H(b, p)[0]",
            "if e > n: raise WireError('truncated at offset %d' % (p + 2))",
            "try: {v} = b[p + 2:e].decode()",
            "except UnicodeDecodeError: "
            "raise WireError('bad utf-8 string at offset %d' % (p + 2)) from None",
            "p = e"],
    "data": [_SHORT % 4,
             "e = p + 4 + U_I(b, p)[0]",
             "if e > n: raise WireError('truncated at offset %d' % (p + 4))",
             "{v} = b[p + 4:e]",
             "p = e"],
    "stat": ["{v}, p = take_stat(b, p)"],
}
# kind: the lines that pack a field of it in {v} into {x}; an int, qid or
# data field joins a run of fixed-size values instead
_PACK = {
    "mode": ["if not 0 <= {v} <= %d: raise WireError('bad open mode %%r' %% ({v},))" % ORDWR,
             "{x} = bytes(({v},))"],
    "str": ["{x} = _str({v})"],
    "stat": ["{x} = pack_stat({v})"],
}
for _kind, _noun, _item in (("str", "names", "_str(x)"), ("qid", "qids", "P_BIQ(*x)")):
    _walk = "if %s > MAX_WALK: raise WireError('walk of %%d %s exceeds %%d' %% (%s, MAX_WALK))"
    _TAKE[_kind + "*"] = [_SHORT % 2, "c, = U_H(b, p)", _walk % ("c", _noun, "c"), "p += 2",
                          "items = []", "for _ in range(c):"] + [
        "    " + line.format(v="x") for line in _TAKE[_kind] + ["items.append({v})"]] + [
        "{v} = tuple(items)"]
    _PACK[_kind + "*"] = [_walk % ("len({v})", _noun, "len({v})"),
                          "{x} = P_H(len({v})) + b''.join([%s for x in {v}])" % _item]


def _take(fields):
    """Lines that read fields from b at p into the locals f_NAME, each read
    checked against n = len(b), leaving p after them."""
    lines, codes, names = [], "", []
    for name, kind, *_ in fields + (("", ""),):         # the last entry ends a run
        if kind in _INTS:
            codes, names = codes + kind, names + ["f_" + name]
            continue
        if codes:
            size = struct.calcsize("<" + codes)
            lines += [_SHORT % size, "%s, = U_%s(b, p)" % (", ".join(names), codes), "p += %d" % size]
            codes, names = "", []
        lines += [line.format(v="f_" + name) for line in _TAKE.get(kind, ())]
    return lines


def _pack(fields):
    """Lines that pack the locals f_NAME of fields in wire order into x0,
    x1, ...; and the parts of the packed bytes, in order: those xN and each
    data field's bytes."""
    lines, parts, codes, args = [], [], "", []
    for name, kind, *_ in fields + (("", ""),):         # the last entry ends a run
        v, x = "f_" + name, "x%d" % len(parts)
        if kind in _INTS or kind in ("qid", "data"):    # a data field's count joins the run
            codes += {"qid": "BIQ", "data": "I"}.get(kind, kind)
            args.append({"qid": "*%s", "data": "len(%s)"}.get(kind, "%s") % v)
            if kind != "data":
                continue
        if codes:
            lines.append("%s = P_%s(%s)" % (x, codes, ", ".join(args)))
            parts.append(x)
            codes, args, x = "", [], "x%d" % len(parts)
        if kind == "data":
            parts.append(v)
        elif kind:
            lines += [line.format(v=v, x=x) for line in _PACK[kind]]
            parts.append(x)
    return lines, parts


def _locals(fields):
    return "".join("f_%s, " % f[0] for f in fields)


def _codec(name, code, fields):
    """The source of a message's encode(msg) -> frame, and of its
    decode(frame, tag) -> msg, called once the frame's header is checked."""
    lines, parts = _pack(fields)
    t_only = ["    if tag == %d: raise WireError('NOTAG on a T-message')" % NOTAG] * (name[0] == "T")
    return ["def encode(m):", "    tag, %s= m" % _locals(fields),
            "    if not 0 <= tag <= 0xFFFF: raise WireError('tag out of range: %r' % (tag,))"] + t_only + [
        "    try:"] + ["        " + line for line in lines] + [
        "        body = %s" % (" + ".join(parts) or "b''"),
        "    except (struct.error, UnicodeEncodeError) as e:",
        "        raise WireError('%s: %%s' %% e) from None" % name,
        "    size = %d + len(body)" % _HEADER.size,
        "    if size > %d: raise WireError('frame of %%d bytes exceeds %d' %% size)" % (MAX_FRAME, MAX_FRAME),
        "    return P_IBH(size, %d, tag) + body" % code, "",
        "def decode(b, tag):", "    n, p = len(b), %d" % _HEADER.size] + [
        "    " + line for line in _take(fields)] + [
        "    if p != n: raise WireError('size mismatch: %d trailing bytes' % (n - p))"] + t_only + [
        "    return _new(%s, (tag, %s))" % (name, _locals(fields))]


def _compile(name, src):
    """Run the source lines src in _NS as the file <wire NAME>, which
    tracebacks show."""
    filename, text = "<wire %s>" % name, "\n".join(src) + "\n"
    for how, codes in re.findall(r"\b([PU])_([BHIQ]+)\b", text):
        _NS.setdefault(how + "_" + codes, getattr(struct.Struct("<" + codes),
                                                  "pack" if how == "P" else "unpack_from"))
    linecache.cache[filename] = (len(text), None, text.splitlines(True), filename)
    exec(compile(text, filename, "exec"), _NS)


_lines, _parts = _pack(STAT_FIELDS)
_compile("Stat", ["def pack_stat(st):", "    %s= st" % _locals(STAT_FIELDS)] + [
    "    " + line for line in _lines] + [
    "    body = " + " + ".join(_parts), "    return P_H(len(body)) + body", "",
    "def take_stat(b, p):", "    n = len(b)", "    " + _SHORT % 2, "    end = p + 2 + U_H(b, p)[0]",
    "    if end > n: raise WireError('truncated stat at offset %d' % (p + 2))", "    p += 2"] + [
    "    " + line for line in _take(STAT_FIELDS)] + [
    "    if p != end: raise WireError('stat length mismatch at offset %d' % p)",
    "    return _new(Stat, (%s)), end" % _locals(STAT_FIELDS)])
pack_stat, _take_stat = _NS["pack_stat"], _NS["take_stat"]
del _lines, _parts, _kind, _noun, _item, _walk


def decode_stats(data: bytes) -> list:
    """Decode a directory-read payload: consecutive stat records."""
    out, pos, n = [], 0, len(data)
    while pos < n:
        st, pos = _take_stat(data, pos)
        out.append(st)
    return out


# -- the messages, derived from MESSAGES -----------------------------------

TYPE_NAMES = {}
_ENCODERS = {}      # class -> its encode(msg)
_DECODERS = {}      # type code -> its decode(frame, tag)

for _name, _code, _fields in MESSAGES:
    _cls = globals()[_name] = _NS[_name] = _record(_name, (("tag", "H"),) + _fields)
    globals()[_name.upper()] = _code
    TYPE_NAMES[_code] = _name
    _compile(_name, _codec(_name, _code, _fields))
    _ENCODERS[_cls], _DECODERS[_code] = _NS.pop("encode"), _NS.pop("decode")
del _name, _code, _fields, _cls

T_TYPES = tuple(cls for cls in _ENCODERS if cls.__name__[0] == "T")


def encode_message(msg) -> bytes:
    """Encode one message into a complete frame."""
    try:
        encode = _ENCODERS[type(msg)]
    except KeyError:
        raise WireError("not a protocol message: %r" % (msg,)) from None
    return encode(msg)


def decode_message(frame: bytes):
    """Decode exactly one frame back into its message."""
    if len(frame) < _HEADER.size:
        raise WireError("frame shorter than 7 bytes")
    size, code, tag = _HEADER.unpack_from(frame)
    if size != len(frame):
        raise WireError("truncated: size field %d, got %d bytes" % (size, len(frame)))
    try:
        decode = _DECODERS[code]
    except KeyError:
        raise WireError("unknown type %d at offset 4" % code) from None
    return decode(frame, tag)


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
