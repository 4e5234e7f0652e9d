"""Span tracing of the sensefs layers, installed from outside the program.

Tracer.install() wraps the public entry points of each layer (module
functions, class methods, and the per-instance network methods and frame
handlers of one simulation) and uninstall() puts the originals back, so
an untraced round runs the program exactly as shipped.

Every wrapped call is a span.  Spans nest synchronously (client.call ->
simnet.step -> handler -> dispatch -> simnet.send), so a span's self time
is its duration minus the durations of its direct children.  Per-name
call counts, total and self times are kept for every span; the spans
themselves (id, parent, operation, start, end) are kept in memory for the
first `keep_ops` operations, up to MAX_SPANS, and written out when the
run ends.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter_ns

from sensefs import shell as shell_mod
from sensefs import views, wire
from sensefs.client import ClientError, FileClient
from sensefs.fscore import Server
from sensefs.muxfs import Multiplexer
from sensefs.shell import Shell
from sensefs.views import NamespaceTable

ROLES = ("device", "head", "view")
MAX_SPANS = 20_000


class Tracer:
    def __init__(self, keep_ops=10):
        self.stats = {}           # span name -> [calls, total ns, self ns]
        self.counts = Counter()   # event counters taken at span boundaries
        self.keep_ops = keep_ops
        self.spans = []           # (op, id, parent, name, start ns, end ns)
        self.op = -1
        self._stack = []          # open spans: [child ns, span id]
        self._next_id = 0
        self._restore = []

    # -- spans ------------------------------------------------------------

    def wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack

        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [0, self._next_id]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                d = t1 - t0
                stat[0] += 1
                stat[1] += d
                stat[2] += d - frame[0]
                if stack:
                    stack[-1][0] += d
                if self.op < self.keep_ops and len(self.spans) < MAX_SPANS:
                    self.spans.append((self.op, frame[1], stack[-1][1] if stack else 0,
                                       name, t0, t1))
        return traced

    def begin_op(self):
        self.op += 1

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, sim):
        """Wrap every layer entry point; the simulation's network and its
        endpoints are wrapped per instance, the rest per class/module."""
        counts = self.counts
        net = sim.net
        devices = set(sim.states)
        heads = {m.eid for m in sim.muxes.values()}

        def layer_of(eid):
            return "devicefs" if eid in devices else "muxfs" if eid in heads else "client"

        for name, fn in (("wire.decode", wire.decode_message),
                         ("wire.decode_stats", wire.decode_stats),
                         ("wire.pack_stat", wire.pack_stat)):
            self._patch(wire, fn.__name__, self.wrap(name, fn))
        encode = self.wrap("wire.encode", wire.encode_message)

        def encode_message(msg):
            frame = encode(msg)
            counts["wire.bytes"] += len(frame)
            return frame
        self._patch(wire, "encode_message", encode_message)

        scan = self.wrap("views.scan", views.scan_sensors)
        plan = self.wrap("views.plan", views.plan_query)
        self._patch(views, "scan_sensors", scan)
        self._patch(views, "plan_query", plan)
        self._patch(shell_mod, "plan_query", plan)
        self._patch(NamespaceTable, "resolve", self.wrap("views.resolve", NamespaceTable.resolve))
        self._patch(Shell, "run_line", self.wrap("shell", Shell.run_line))
        for method in ("read", "write", "ls", "stat"):
            self._patch(FileClient, method,
                        self.wrap("client.api", FileClient.__dict__[method]))

        call = self.wrap("client.call", FileClient.call)
        depth = [0]

        def client_call(client, ref, build):
            # a call to a local view server can nest calls to the network;
            # only the outermost call's wait is the user's
            t = client.net.now
            counts["client.calls"] += 1
            depth[0] += 1
            try:
                return call(client, ref, build)
            except ClientError as e:
                if e.ename == "timeout":
                    counts["client.timeouts"] += 1
                raise
            finally:
                depth[0] -= 1
                if not depth[0]:
                    counts["client.wait_ticks"] += client.net.now - t
        self._patch(FileClient, "call", client_call)

        dispatchers = {r: self.wrap("fscore.dispatch." + r, Server.dispatch) for r in ROLES}

        def dispatch(server, conn_key, msg, reply):
            if isinstance(server, Multiplexer):
                role = "head"
            else:
                role = "device" if server.name in devices else "view"

            def counted_reply(r):
                if type(r) is wire.Rerror:
                    counts["fscore.rerror"] += 1
                    if role == "head" and r.ename == "device unreachable":
                        counts["muxfs.fallbacks"] += 1
                reply(r)
            return dispatchers[role](server, conn_key, msg, counted_reply)
        self._patch(Server, "dispatch", dispatch)

        # per-instance wrappers die with the simulation
        step = self.wrap("simnet.step", net.step)

        def net_step():
            ran = step()
            if ran:
                counts["simnet.events"] += 1
            return ran
        net.step = net_step

        send = self.wrap("simnet.send", net.send)

        def net_send(src, dst, frame):
            if src in heads or dst in heads:
                other = dst if src in heads else src
                if other in devices:
                    counts["muxfs.device_frames"] += 1
                elif other not in heads:
                    counts["muxfs.client_frames"] += 1
            return send(src, dst, frame)
        net.send = net_send

        add = self.wrap("simnet.log", net.log.add)

        def log_add(tick, event, src, dst, detail=""):
            counts["log." + event] += 1
            if event == "mux-relay" and detail.endswith("cached=1"):
                counts["muxfs.cache_served"] += 1
                counts["muxfs.fallbacks"] += 1
            return add(tick, event, src, dst, detail)
        net.log.add = log_add

        for eid, handler in list(net.handlers.items()):
            net.handlers[eid] = self.wrap(layer_of(eid) + ".handler", handler)
        register = net.register

        def net_register(eid, handler, state=None):
            # an endpoint opened during the round: a new session's client
            register(eid, self.wrap(layer_of(eid) + ".handler", handler), state=state)
        net.register = net_register

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reporting -----------------------------------------------------------

    def self_ns(self, name):
        return self.stats.get(name, (0, 0, 0))[2]

    def total_ns(self, name):
        return self.stats.get(name, (0, 0, 0))[1]

    def calls(self, name):
        return self.stats.get(name, (0, 0, 0))[0]

    def write_spans(self, path, meta):
        with open(path, "w") as fh:
            fh.write(json.dumps(meta) + "\n")
            for op, sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                     "start_ns": t0, "end_ns": t1}) + "\n")
