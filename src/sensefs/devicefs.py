"""Leaf-sensor file server: a static tree over one SensorState.

Every device exposes the same six files:

    reading           0444  calibrated sample, decimal text
    control           0644  command sink: reset / sleep / wakeup / <offset>
    remaining-energy  0444  joules left, decimal text
    registers         0644  16 lines "r<i> <hex4>"
    mem               0644  256 raw bytes
    info              0444  id, kind, position and tags as "key value" lines

Mutable state lives entirely in the SensorState; no tree nodes are
allocated after construction.  Each read handler returns its whole file,
and fscore slices it by offset and count.
"""

from __future__ import annotations

from .fscore import FsError, Node, Server, make_dir, make_file
from .simnet import DutyCycle

NUM_REGISTERS = 16
MEM_SIZE = 256

FILE_ORDER = ("reading", "control", "remaining-energy", "registers", "mem", "info")


class SensorState:
    """The simulated device: reading source, calibration, energy, debug state."""

    def __init__(self, id, kind="temperature", raw_source=None,
                 position=(0.0, 0.0), energy_j=1000.0, tags=None,
                 duty: DutyCycle = None):
        self.id = id
        self.kind = kind
        self.position = position
        self.raw_source = raw_source or (
            (lambda t: position) if kind == "position" else (lambda t: 0.0))
        self.cal_offset = 0.0
        self.energy_j = energy_j
        self.tags = dict(tags or {})
        self.duty = duty
        self.power_override = None      # None | "awake" | "asleep"
        self.registers = [0] * NUM_REGISTERS
        self.memory = bytearray(MEM_SIZE)
        # accounting, settled lazily against the attached network clock
        self.sent_frames = 0
        self.received_frames = 0
        self.awake_ticks = 0
        self._net = None
        self._last_settle = 0

    # -- power / energy ---------------------------------------------------

    def attach_network(self, net, eid):
        self._net = net
        self._last_settle = net.now

    def is_awake(self, t: int) -> bool:
        return self._awake_ticks_between(t, t + 1) == 1

    def _awake_ticks_between(self, t0, t1):
        if self.power_override is not None:
            return (t1 - t0) if self.power_override == "awake" else 0
        if self.duty is not None:
            return self.duty.awake_ticks_between(t0, t1)
        return t1 - t0

    def settle(self, now: int):
        """Charge idle drain for awake ticks since the last settle."""
        if now <= self._last_settle:
            return
        ticks = self._awake_ticks_between(self._last_settle, now)
        self.awake_ticks += ticks
        if self._net is not None:
            cost = ticks * self._net.energy.idle_cost_j_per_tick
            self.energy_j = max(0.0, self.energy_j - cost)
        self._last_settle = now

    def charge(self, now: int, cost: float, kind: str) -> bool:
        """Deduct one frame's cost; a shortfall fails the frame, energy 0."""
        self.settle(now)
        if cost > self.energy_j:
            self.energy_j = 0.0
            return False
        self.energy_j -= cost
        if kind == "tx":
            self.sent_frames += 1
        else:
            self.received_frames += 1
        return True

    def set_power(self, now: int, override: str):
        self.settle(now)
        self.power_override = override

    # -- values -------------------------------------------------------------

    def reading_text(self, t: int) -> str:
        raw = self.raw_source(t)
        if isinstance(raw, (tuple, list)):
            return " ".join("%.6f" % (v + self.cal_offset) for v in raw) + "\n"
        return "%.6f\n" % (raw + self.cal_offset)

    def info_text(self) -> str:
        lines = [
            "id %s" % self.id,
            "kind %s" % self.kind,
            "position %.6f %.6f" % (self.position[0], self.position[1]),
        ]
        for key in sorted(self.tags):
            lines.append("tag %s %s" % (key, self.tags[key]))
        return "\n".join(lines) + "\n"


def parse_info(text: str) -> dict:
    """Invert SensorState.info_text: the first word of a line is the key and
    the rest of the line its value; "tag KEY VALUE" lines fill "tags" and
    "position X Y" becomes a float pair."""
    meta = {"tags": {}}
    for line in text.split("\n"):
        key, _, value = line.partition(" ")
        if key == "tag":
            tag, _, value = value.partition(" ")
            meta["tags"][tag] = value
        elif key == "position":
            try:
                x, y = map(float, value.split())
            except ValueError:
                continue
            meta["position"] = (x, y)
        elif key:
            meta[key] = value
    return meta


def parse_infos(text: str) -> list:
    """Split info texts written one after another (a head's ctl) at each
    "id" line, and parse_info each."""
    chunks = []
    for line in text.split("\n"):
        if line.partition(" ")[0] == "id":
            chunks.append([])
        if chunks:
            chunks[-1].append(line)
    return [parse_info("\n".join(lines)) for lines in chunks]


def handle_control(state: SensorState, now: int, command: str):
    """Apply one control-file command line."""
    cmd = command.strip()
    if cmd == "reset":
        state.cal_offset = 0.0
        state.registers = [0] * NUM_REGISTERS
    elif cmd == "sleep":
        state.set_power(now, "asleep")
    elif cmd == "wakeup":
        state.set_power(now, "awake")
    else:
        try:
            state.cal_offset = float(cmd)
        except ValueError:
            raise FsError("bad control command")


def make_device_server(state: SensorState, users=None, clock=None) -> Server:
    """Build the static device tree bound to one SensorState."""
    now = clock or (lambda: state._net.now if state._net else 0)
    root = make_dir(state.id, 0o555)

    root.add(make_file("reading", 0o444, read=lambda: state.reading_text(now()).encode()))

    def write_control(off, data, uname):
        try:
            text = data.decode()
        except UnicodeDecodeError:
            raise FsError("bad control command")
        handle_control(state, now(), text)
        return len(data)

    root.add(make_file("control", 0o644, write=write_control))

    def read_energy():
        state.settle(now())
        return b"%.6f\n" % state.energy_j

    root.add(make_file("remaining-energy", 0o444, read=read_energy))

    def read_registers():
        return b"".join(b"r%d %04x\n" % (i, v) for i, v in enumerate(state.registers))

    def write_registers(off, data, uname):
        parts = data.decode(errors="replace").strip().split()
        if len(parts) != 2 or not parts[0].startswith("r"):
            raise FsError("bad register write")
        try:
            idx = int(parts[0][1:])
            val = int(parts[1], 16)
        except ValueError:
            raise FsError("bad register write")
        if not (0 <= idx < NUM_REGISTERS and 0 <= val <= 0xFFFF):
            raise FsError("address out of range")
        state.registers[idx] = val
        return len(data)

    root.add(make_file("registers", 0o644, read=read_registers, write=write_registers))

    def write_mem(off, data, uname):
        if off + len(data) > MEM_SIZE:
            raise FsError("address out of range")
        state.memory[off:off + len(data)] = data
        return len(data)

    root.add(make_file("mem", 0o644, read=lambda: bytes(state.memory), write=write_mem,
                       length=MEM_SIZE))
    root.add(make_file("info", 0o444, read=lambda: state.info_text().encode()))

    return Server(root, users, name=state.id, max_sessions=4)
