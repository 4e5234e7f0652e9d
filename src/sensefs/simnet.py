"""Deterministic discrete-event simulation of the wireless links.

One virtual tick = 1 ms.  A single seeded RNG drives loss and jitter, so
(config, seed) fully determines the event log.  Frames are fire-and-forget:
the sender is never told about a drop; reliability belongs to the layers
above.

The event queue is one heap of two kinds of entry, ordered by (tick,
seq) alone, so both kinds run in the order they were issued.  A
scheduled callback is (tick, seq, Event); the Event is what a caller may
cancel.  A frame in flight is (tick, seq, None, src, dst, frame, head),
which step delivers, head being the wire.frame_head its send read for
the log.  It carries no object because a fan-out keeps hundreds of
frames in flight: an entry of only ints, strings and bytes stops being
tracked by the cyclic garbage collector at the first collection it
survives, while an Event with its closure would be promoted to the
oldest generation and make full collections, each a scan of every
tracked object, come about twice as often.

The event log keeps every event as a packed 16-byte record and is the
sequence of its text lines, each made only when it is read, so a long
run keeps its whole log at a small cost; the text read back is the same
as if each line had been formatted as it happened.
"""

from __future__ import annotations

import heapq
import random
import struct
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import astuple, dataclass

from .wire import frame_head, head_summary


@dataclass
class LinkModel:
    latency: int = 2          # base ticks, >= 1
    jitter: int = 0           # uniform extra ticks in [0, jitter]
    loss: float = 0.0         # drop probability in [0, 1]

    def __post_init__(self):
        if self.latency < 1:
            raise ValueError("latency must be >= 1 tick")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0 ticks")
        if not 0.0 <= self.loss <= 1.0:
            raise ValueError("loss probability out of range")


@dataclass
class EnergyModel:
    tx_cost_j: float = 0.0    # per frame sent
    rx_cost_j: float = 0.0    # per frame received
    idle_cost_j_per_tick: float = 0.0

    def __post_init__(self):
        if not all(cost >= 0 for cost in astuple(self)):     # nan too
            raise ValueError("energy costs must be >= 0 J")


@dataclass
class DutyCycle:
    on_ticks: int
    off_ticks: int
    phase: int = 0

    def __post_init__(self):
        if self.on_ticks < 1 or self.off_ticks < 0:       # never awake, or no period
            raise ValueError("a duty cycle is on >= 1 and off >= 0 ticks")

    def awake_at(self, t: int) -> bool:
        period = self.on_ticks + self.off_ticks
        return (t - self.phase) % period < self.on_ticks

    def awake_ticks_between(self, t0: int, t1: int) -> int:
        """Number of awake ticks in [t0, t1)."""
        def upto(t):
            q, r = divmod(t - self.phase, self.on_ticks + self.off_ticks)
            return q * self.on_ticks + min(r, self.on_ticks)
        return upto(t1) - upto(t0)


class Event:
    """A scheduled callback; the heap holds it as (time, seq, event).  A
    frame in flight has no Event: its entry is (time, seq, None, src,
    dst, frame, head), which nothing can cancel."""
    __slots__ = ("fn", "cancelled")

    def __init__(self, fn):
        self.fn = fn
        self.cancelled = False

    def cancel(self):
        self.cancelled = True
        self.fn = None         # freed now: a request timeout may not pop for long


# one record per event: tick, number of its (event, src, dst), detail
_RECORD = struct.Struct("<QII")
_FRAME = 1 << 31            # detail bit: the rest is a frame's wire.frame_head
_HOP = 1 << 30              # detail bit: the rest numbers a hop record
_HOP_RECORD = struct.Struct("<HII")     # a Hop's tag, fid and number of (fmt, path)
_BLOCK = 4096 * _RECORD.size    # bytes per block of records (64 KiB)


class Hop(namedtuple("Hop", "fmt tag fid path")):
    """A log detail `fmt % (tag, fid, path)`, such as a request's hop
    through a cluster head.  The log keeps tag and fid as packed numbers
    and interns only (fmt, path), so a detail that names a new tag or fid
    keeps no new text.  It answers str() and endswith as its text would,
    for a caller that wraps add and reads details as text (the bench
    tracer tests mux-relay details with endswith)."""
    __slots__ = ()

    def __str__(self):
        return self.fmt % self[1:]

    def endswith(self, suffix):
        return str(self).endswith(suffix)


class EventLog(Sequence):
    """Tab-separated trace: tick, event, src, dst, detail; the log is the
    Sequence of its text lines, each formatted when it is read.  Iteration
    goes by index (Sequence's), so adds may go on while a loop is open.

    add() appends one fixed-width record: the tick, the number of the
    interned (event, src, dst) triple, and a detail field.  An int detail
    is a frame's wire.frame_head, its type code and tag, kept as it is; a
    Hop, the number of its own record of tag, fid and interned (fmt,
    path); any other detail is the number of its interned text.

    Records are kept in 64 KiB blocks, not one growing buffer: malloc maps
    a buffer of megabytes on its own, and freeing one raises glibc's mmap
    threshold, after which the next log's buffer regrows by copying inside
    the heap, so a process's peak RSS moved by megabytes with its layout.
    """

    lines = property(lambda self: self)     # log.lines, as the bench reads it, is the log

    def __init__(self):
        self._records = [bytearray()]   # blocks of records, each full but the last
        self._hops = bytearray()
        self._triple_ids = {}
        self._triples = []
        self._text_ids = {}
        self._texts = []        # interned texts, and each Hop's (fmt, path)

    def add(self, tick, event, src, dst, detail=""):
        triple = (event, src, dst)
        n = self._triple_ids.get(triple)
        if n is None:
            n = self._triple_ids[triple] = len(self._triples)
            self._triples.append(triple)
        cls = detail.__class__
        if cls is int:
            d = _FRAME | detail
        elif cls is Hop:
            fmt, tag, fid, path = detail
            d = _HOP | len(self._hops) // _HOP_RECORD.size
            self._hops += _HOP_RECORD.pack(tag, fid, self._number((fmt, path)))
        else:
            d = self._number(detail)
        records = self._records[-1]
        if len(records) == _BLOCK:
            records = bytearray()
            self._records.append(records)
        records += _RECORD.pack(tick, n, d)

    def _number(self, text):
        """The number of text (or a Hop's (fmt, path)), interned on first use."""
        d = self._text_ids.get(text)
        if d is None:
            d = self._text_ids[text] = len(self._texts)
            self._texts.append(text)
        return d

    def text(self) -> str:
        return "\n".join(self) + ("\n" if self else "")

    def write(self, path):
        """Write text() to path one line at a time."""
        with open(path, "w") as fh:
            fh.writelines(line + "\n" for line in self)

    def __len__(self):
        return ((len(self._records) - 1) * _BLOCK + len(self._records[-1])) // _RECORD.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._line(j) for j in range(*i.indices(len(self)))]
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("log line index out of range")
        return self._line(i)

    def _line(self, i):
        block, at = divmod(i * _RECORD.size, _BLOCK)
        tick, n, d = _RECORD.unpack_from(self._records[block], at)
        event, src, dst = self._triples[n]
        if d & _FRAME:
            detail = head_summary(d & ~_FRAME)
        elif d & _HOP:
            tag, fid, t = _HOP_RECORD.unpack_from(self._hops, (d & ~_HOP) * _HOP_RECORD.size)
            fmt, path = self._texts[t]
            detail = fmt % (tag, fid, path)
        else:
            detail = self._texts[d]
        return "%d\t%s\t%s\t%s\t%s" % (tick, event, src, dst, detail)


class Network:
    """Event queue plus endpoint table and per-pair link models."""

    def __init__(self, seed: int = 0, energy: EnergyModel = None,
                 default_link: LinkModel = None):
        self.now = 0
        self.seed = seed
        self.rng = random.Random(seed)
        self.energy = energy or EnergyModel()
        self.default_link = default_link or LinkModel()
        self.links = {}        # (src, dst) -> LinkModel
        self.handlers = {}     # endpoint id -> fn(src, frame)
        self.states = {}       # endpoint id -> SensorState (energy-modeled)
        self.log = EventLog()
        self._heap = []
        self._seq = 0

    # -- endpoints ------------------------------------------------------

    def register(self, eid, handler, state=None):
        if eid in self.handlers:
            raise ValueError("duplicate endpoint %r" % eid)
        self.handlers[eid] = handler
        if state is not None:
            state.attach_network(self, eid)
            self.states[eid] = state

    def link_for(self, src, dst) -> LinkModel:
        return self.links.get((src, dst), self.default_link)

    def set_link(self, src, dst, model: LinkModel, both_ways=False):
        self.links[(src, dst)] = model
        if both_ways:
            self.links[(dst, src)] = model

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay, fn) -> Event:
        ev = Event(fn)
        heapq.heappush(self._heap, (self.now + delay, self._seq, ev))
        self._seq += 1
        return ev

    def step(self) -> bool:
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            ev = entry[2]
            if ev is None:                 # a frame in flight
                self.now = entry[0]
                self._deliver(entry[3], entry[4], entry[5], entry[6])
                return True
            if not ev.cancelled:
                self.now = entry[0]
                ev.fn()
                return True
        return False

    def peek_time(self):
        heap = self._heap
        while heap and heap[0][2] is not None and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def run_until(self, t):
        if t < self.now:
            raise ValueError("time cannot decrease")
        while True:
            nxt = self.peek_time()
            if nxt is None or nxt > t:
                break
            self.step()
        self.now = t

    # -- the wireless channel ---------------------------------------------

    def send(self, src, dst, frame: bytes):
        """Schedule delivery of one frame, or drop it silently."""
        if dst not in self.handlers:
            raise ValueError("unknown endpoint %r" % dst)
        head = frame_head(frame)        # read once, for each log line of this frame
        state = self.states.get(src)
        if state is not None and not state.charge(self.now, self.energy.tx_cost_j, "tx"):
            self.log.add(self.now, "txfail", src, dst, head)
            return
        self.log.add(self.now, "send", src, dst, head)
        link = self.link_for(src, dst)
        if link.loss > 0.0 and self.rng.random() < link.loss:
            self.log.add(self.now, "drop", src, dst, head)
            return
        latency = link.latency
        if link.jitter:
            latency += self.rng.randint(0, link.jitter)
        heapq.heappush(self._heap, (self.now + latency, self._seq, None, src, dst, frame, head))
        self._seq += 1

    def _deliver(self, src, dst, frame, head):
        state = self.states.get(dst)
        if state is not None:
            if not state.is_awake(self.now):
                self.log.add(self.now, "sleepdrop", src, dst, head)
                return
            if not state.charge(self.now, self.energy.rx_cost_j, "rx"):
                self.log.add(self.now, "rxfail", src, dst, head)
                return
        self.log.add(self.now, "deliver", src, dst, head)
        self.handlers[dst](src, frame)
