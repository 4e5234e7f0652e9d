"""sensefs benchmark: host time, ticks, frames and joules per operation.

Usage, from the root of a checkout:

    python3 bench/run.py --workload cat-steady --seed 1 --seconds 15 --trace 0
    python3 -m pytest -q bench          # the benchmark's own checks

One process, one client, a closed loop: each shell line is issued only
after the previous one has returned.  A round parses a scenario generated
from the seed, builds the simulation, runs discovery through warm-up and
the workload's untimed warm-up operations (set-up), then drives the
round's operations through `Shell.run_line`, checking every output against
the oracle.  A failed operation is retried (see MAX_ATTEMPTS), so the cost
of a loss shows as time, ticks and frames of the operation.  Rounds repeat
with the same seed until --seconds have passed (at least MIN_ROUNDS), so
every simulated quantity is exact for a seed and set-up is measured once
per round.

Host times are wall-clock times scaled to a reference speed: a fixed piece
of pure-Python work is timed around every window of operations and around
each set-up, and the times in between are scaled by speed_scale() of its
time.  This keeps the slow phases of a shared machine out of the figures;
design.json records the statistics in full.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced rounds and prints the per-layer metrics from the traced ones,
plus the tracing overhead; spans of the first traced operations are
written to .bench_out/.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import resource
import statistics
import struct
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("wire", "simnet", "fscore", "devicefs", "muxfs", "client", "views",
           "scenario", "shell")
MIN_ROUNDS = 5
# A failed operation is retried, as a user re-runs a command, up to this
# many attempts in all; only an operation that fails every attempt counts
# as failed.  When a head answers that the session's fids are spent or out
# of step with the client's, the retry goes through a new session to it.
MAX_ATTEMPTS = 20
SESSION_ERRORS = ("too many fids", "fid in use")
# Host times are scaled to the speed at which reference_work() takes this
# long (its time on a quiet 2-vCPU x86-64 container, Python 3.11).
REF_NS = 1_800_000
# When other load slows that container, the simulator slows by about three
# quarters of the reference's slowdown on a log scale (least-squares slope
# 0.64 to 0.80 over windows of cat-steady and lossy-soak), so the scale
# factor is raised to this power.
SLOWDOWN_SHARE = 0.75


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value

    def __lt__(self, other):
        return self.key < other.key


def reference_work():
    """Fixed interpreter work shaped like the simulator's (objects, a heap,
    dicts, struct packing, string formatting) and independent of sensefs."""
    heap, table, out = [], {}, []
    for i in range(1000):
        item = _Item((i * 7919) % 1543, "v%d" % i)
        heapq.heappush(heap, item)
        table[item.value] = struct.pack("<IH", i, i & 0xFFFF)
    while heap:
        item = heapq.heappop(heap)
        out.append("%d\t%s\t%d" % (item.key, item.value,
                                     struct.unpack("<IH", table[item.value])[0]))
    return len("\n".join(out))


def reference_ns():
    """Best of three timings of reference_work(), in ns.  The collector is
    paused so that the program's heap does not enter the figure."""
    best = None
    gc.disable()
    try:
        for _ in range(3):
            t = perf_counter_ns()
            reference_work()
            t = perf_counter_ns() - t
            best = t if best is None else min(best, t)
    finally:
        gc.enable()
    return best


def speed_scale(ref_ns):
    """Factor taking a host time measured while reference_work() took
    ref_ns to the reference speed."""
    return (REF_NS / ref_ns) ** SLOWDOWN_SHARE


def percentile(values, p):
    """Nearest-rank percentile: unchanged when a round's samples repeat."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


class Round:
    """Everything measured in one round."""

    def __init__(self):
        self.parse_s = self.build_s = self.discover_s = self.setup_s = 0.0
        self.discover_frames = 0
        self.op_ns = []            # host time of every operation
        self.ok = []               # ... and whether it succeeded in the end
        self.first_ok = 0          # operations that succeeded at their first attempt
        self.retries = 0           # attempts beyond the first
        self.reconnects = 0        # new sessions opened after SESSION_ERRORS
        self.held_fids = 0         # fids bound on heads and devices at the end
        self.ok_ticks = []         # virtual time of the successful ones
        self.refs = []             # reference_ns() at each window boundary
        self.frames = 0
        self.joules = 0.0
        self.log_lines = 0
        self.queue_len = []
        self.errors = Counter()

    @property
    def attempted(self):
        return len(self.op_ns)

    @property
    def failed(self):
        return self.ok.count(False)


def run_round(wl, seed, tracer=None, limit=None) -> Round:
    from sensefs.scenario import Simulation, parse_scenario
    from sensefs.shell import Shell
    from workloads import CalibrationOracle, Mismatch, check

    rnd = Round()
    dep = wl.deployment(seed)
    text = dep.scenario_text()
    frames = [0]

    ref = reference_ns()
    t0 = perf_counter()
    cfg = parse_scenario(text)
    t1 = perf_counter()
    sim = Simulation(cfg)
    t2 = perf_counter()
    net = sim.net
    send = net.send

    def counted_send(src, dst, frame):
        frames[0] += 1
        send(src, dst, frame)
    net.send = counted_send
    sim.start()
    t3 = perf_counter()
    shell = Shell(sim)
    cal = CalibrationOracle(stale=wl.stale)
    status, out = shell.run_line("mount /dev/network /network")
    if status:
        raise Mismatch("mount failed: %s" % out)
    for op in wl.warm(dep):
        if not check(op, [shell.run_line(line) for line in op.lines],
                     net.now, net.now, cal):
            raise Mismatch("warm-up operation failed: %s" % op.lines)
    t4 = perf_counter()
    scale = speed_scale((ref + reference_ns()) / 2)
    rnd.parse_s, rnd.build_s, rnd.discover_s = [
        (b - a) * scale for a, b in ((t0, t1), (t1, t2), (t2, t3))]
    rnd.setup_s = (t4 - t0) * scale
    rnd.discover_frames = frames[0]

    wl.after_setup(sim)
    servers = file_servers(sim)
    shells = {}                    # cluster -> shell of a reopened session

    def reconnect():
        fresh = Shell(sim)
        fresh.run_line("mount /dev/network /network")
        return fresh

    ops = wl.ops(dep)[:limit]
    frames[0] = 0
    energy0 = sum(st.energy_j for st in sim.states.values())
    lines0 = len(net.log.lines)
    if tracer is not None:
        tracer.install(sim)
    try:
        for i, op in enumerate(ops):
            if i % wl.window == 0:
                rnd.refs.append(reference_ns())
            if tracer is not None:
                tracer.begin_op()
                rnd.queue_len.append(len(net._heap))
            tick0 = net.now
            ns = 0
            for attempt in range(MAX_ATTEMPTS):
                t_try = net.now
                start = perf_counter_ns()
                results = [shells.get(op.cluster, shell).run_line(line) for line in op.lines]
                ns += perf_counter_ns() - start
                ok = check(op, results, t_try, net.now, cal)
                if ok:
                    break
                errors = [out for status, out in results if status]
                rnd.errors.update(errors)
                if any(e in out for out in errors for e in SESSION_ERRORS):
                    # the session is unusable: the user opens a new one to
                    # the head, as a new shell would
                    start = perf_counter_ns()
                    shells[op.cluster] = reconnect()
                    ns += perf_counter_ns() - start
                    rnd.reconnects += 1
            rnd.op_ns.append(ns)
            rnd.ok.append(ok)
            rnd.first_ok += ok and attempt == 0
            rnd.retries += attempt
            if ok:
                rnd.ok_ticks.append(net.now - tick0)
        rnd.refs.append(reference_ns())
    finally:
        if tracer is not None:
            tracer.uninstall()
    for st in sim.states.values():
        st.settle(net.now)
    rnd.held_fids = held_fids(servers)
    rnd.frames = frames[0]
    rnd.joules = energy0 - sum(st.energy_j for st in sim.states.values())
    rnd.log_lines = len(net.log.lines) - lines0
    return rnd


def file_servers(sim):
    """The head and device servers of a simulation, found through the
    network's endpoint handlers (before a tracer wraps them)."""
    servers = list(sim.muxes.values())
    servers += [h.__self__.server for h in sim.net.handlers.values()
                if hasattr(getattr(h, "__self__", None), "server")]
    return servers


def held_fids(servers):
    """Fids bound in every session of the servers: the attach and cached
    fids the protocol keeps, plus any a lost frame left behind."""
    return sum(len(sess.fids) for srv in servers for sess in srv.sessions.values())


def scaled(rounds, size):
    """Host time of every operation and whether it succeeded, scaled to
    the reference speed measured at both ends of its window of `size`
    operations (the last window of a round may be shorter)."""
    out = []
    for r in rounds:
        for j, i in enumerate(range(0, len(r.op_ns), size)):
            scale = speed_scale((r.refs[j] + r.refs[j + 1]) / 2)
            out += [(ns * scale, ok) for ns, ok in zip(r.op_ns[i:i + size], r.ok[i:i + size])]
    return out


def end_to_end(rounds, window):
    """Host times are scaled to the reference speed, since other load on a
    shared machine slows the program and the reference work alike, in
    phases that last seconds.  Every round repeats the same operations, so
    each operation's host time is its median over the rounds, which keeps
    short bursts of load out of the tail while an operation that is slow
    every time stays slow; the percentiles are taken over those medians.
    The reference work run before the first operation of a window evicts
    the program's working set and slows that operation by some 100 us, so
    the first operation of each window is left out of the percentiles.
    The simulated quantities are pooled over all rounds and repeat exactly
    for a seed."""
    per_round = [scaled([r], window) for r in rounds]
    op_ns = [statistics.median(ns for ns, _ in column)
             for i, column in enumerate(zip(*per_round))
             if i % window and all(ok for _, ok in column)]
    if not op_ns:
        raise RuntimeError("no operation succeeded")
    ops_per_s = statistics.median(sum(ok for _, ok in ops) / (sum(ns for ns, _ in ops) / 1e9)
                                  for ops in per_round)
    ticks = [t for r in rounds for t in r.ok_ticks]
    attempted = sum(r.attempted for r in rounds)
    return {
        "setup_s": (statistics.median(r.setup_s for r in rounds), "s"),
        "op_us_p50": (percentile(op_ns, 50) / 1e3, "us"),
        "op_us_p99": (percentile(op_ns, 99) / 1e3, "us"),
        "ops_per_s": (ops_per_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ticks_p50": (float(percentile(ticks, 50)), "ticks"),
        "ticks_p99": (float(percentile(ticks, 99)), "ticks"),
        "frames_per_op": (sum(r.frames for r in rounds) / attempted, "frames"),
        "joules_per_op": (sum(r.joules for r in rounds) / attempted, "J"),
        "first_try_rate": (sum(r.first_ok for r in rounds) / attempted, "ratio"),
        "held_fids": (float(statistics.median(r.held_fids for r in rounds)), "count"),
        "log_lines_per_op": (sum(r.log_lines for r in rounds) / attempted, "lines"),
    }


def per_layer(tracer, traced, plain, window):
    """Per-operation figures from the traced rounds; times are scaled to
    the reference speed measured during those rounds."""
    n = sum(r.attempted for r in traced)
    c = tracer.counts
    scale = speed_scale(statistics.median(x for r in traced for x in r.refs))
    us = lambda ns: ns * scale / 1e3 / n
    out = {
        "wire.encode.calls_per_op": (tracer.calls("wire.encode") / n, "calls/op"),
        "wire.encode.us_per_op": (us(tracer.total_ns("wire.encode")), "us/op"),
        "wire.decode.calls_per_op": (tracer.calls("wire.decode") / n, "calls/op"),
        "wire.decode.us_per_op": (us(tracer.total_ns("wire.decode")), "us/op"),
        "wire.decode_stats.us_per_op": (us(tracer.total_ns("wire.decode_stats")), "us/op"),
        "wire.pack_stat.us_per_op": (us(tracer.total_ns("wire.pack_stat")), "us/op"),
        "wire.bytes_per_op": (c["wire.bytes"] / n, "bytes/op"),
        "simnet.events_per_op": (c["simnet.events"] / n, "events/op"),
        "simnet.step.self_us_per_op": (us(tracer.self_ns("simnet.step")), "us/op"),
        "simnet.send.self_us_per_op": (us(tracer.self_ns("simnet.send")), "us/op"),
        "simnet.queue_len_mean": (
            statistics.fmean(q for r in traced for q in r.queue_len), "events"),
        "simnet.drops_per_op": ((c["log.drop"] + c["log.sleepdrop"]) / n, "frames/op"),
        "simnet.log.us_per_op": (us(tracer.total_ns("simnet.log")), "us/op"),
        "simnet.log.lines_per_op": (tracer.calls("simnet.log") / n, "lines/op"),
        "fscore.rerror_per_op": (c["fscore.rerror"] / n, "errors/op"),
        "devicefs.handler.self_us_per_op": (us(tracer.self_ns("devicefs.handler")), "us/op"),
        "muxfs.handler.self_us_per_op": (us(tracer.self_ns("muxfs.handler")), "us/op"),
        "muxfs.device_frames_per_op": (c["muxfs.device_frames"] / n, "frames/op"),
        "muxfs.client_frames_per_op": (c["muxfs.client_frames"] / n, "frames/op"),
        "muxfs.relays_per_op": (c["log.mux-relay"] / n, "relays/op"),
        "muxfs.cache_served_ratio": (
            c["muxfs.cache_served"] / c["log.mux-relay"] if c["log.mux-relay"] else 0.0,
            "ratio"),
        "muxfs.fallbacks_per_op": (c["muxfs.fallbacks"] / n, "events/op"),
        "client.calls_per_op": (c["client.calls"] / n, "calls/op"),
        "client.call.self_us_per_op": (us(tracer.self_ns("client.call")), "us/op"),
        "client.api.self_us_per_op": (us(tracer.self_ns("client.api")), "us/op"),
        "client.handler.self_us_per_op": (us(tracer.self_ns("client.handler")), "us/op"),
        "client.wait_ticks_per_op": (c["client.wait_ticks"] / n, "ticks/op"),
        "client.timeouts_per_op": (c["client.timeouts"] / n, "timeouts/op"),
        "client.retries_per_op": (sum(r.retries for r in traced) / n, "attempts/op"),
        "client.reconnects_per_op": (sum(r.reconnects for r in traced) / n, "sessions/op"),
        "views.scan.calls_per_op": (tracer.calls("views.scan") / n, "calls/op"),
        "views.scan.self_us_per_op": (us(tracer.self_ns("views.scan")), "us/op"),
        "views.resolve.us_per_op": (us(tracer.total_ns("views.resolve")), "us/op"),
        "views.plan.self_us_per_op": (us(tracer.self_ns("views.plan")), "us/op"),
        "shell.self_us_per_op": (us(tracer.self_ns("shell")), "us/op"),
        "scenario.parse_s": (statistics.median(r.parse_s for r in plain), "s"),
        "scenario.build_s": (statistics.median(r.build_s for r in plain), "s"),
        "scenario.discover_s": (statistics.median(r.discover_s for r in plain), "s"),
        "scenario.discover_frames": (float(plain[0].discover_frames), "frames"),
    }
    from tracing import ROLES
    for role in ROLES:
        name = "fscore.dispatch." + role
        out[name + ".calls_per_op"] = (tracer.calls(name) / n, "calls/op")
        out[name + ".self_us_per_op"] = (us(tracer.self_ns(name)), "us/op")
    traced_ns = sum(ns for r in traced for ns in r.op_ns)
    out["trace.coverage"] = (sum(s[2] for s in tracer.stats.values()) / traced_ns, "ratio")
    p50 = lambda rounds: percentile([ns for ns, ok in scaled(rounds, window) if ok], 50)
    out["trace.overhead"] = (p50(traced) / p50(plain), "ratio")
    for mod in MODULES:
        with open(SRC / "sensefs" / (mod + ".py")) as fh:
            out[mod + ".src_lines"] = (float(sum(1 for _ in fh)), "lines")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sensefs" / "__init__.py").is_file():
        print("bench: no sensefs sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Mismatch
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print("bench: unknown workload %r (have %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    plain, traced = [], []
    correct = True
    start = perf_counter()
    try:
        while (perf_counter() - start < args.seconds or len(plain) + len(traced) < MIN_ROUNDS
               or (tracer is not None and not traced)):
            # a trace run alternates: untraced, traced, untraced, ...
            use_tracer = tracer is not None and len(plain) > len(traced)
            rnd = run_round(wl, args.seed, tracer if use_tracer else None)
            (traced if use_tracer else plain).append(rnd)
            gc.collect()
    except Mismatch as e:
        print("bench: oracle mismatch: %s" % e, file=sys.stderr)
        correct = False

    rounds = plain + traced
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    metrics = {}
    if correct and plain:
        if tracer is None:
            metrics = end_to_end(plain, wl.window)
        else:
            metrics = per_layer(tracer, traced, plain, wl.window)
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            path = out_dir / ("spans-%s-seed%d.jsonl" % (wl.name, args.seed))
            tracer.write_spans(path, {"workload": wl.name, "seed": args.seed,
                                      "ops": tracer.keep_ops, "spans": len(tracer.spans)})
            print("%d spans of the first %d traced operations: %s"
                  % (len(tracer.spans), tracer.keep_ops, path.relative_to(ROOT)))

    errors = Counter()
    for r in rounds:
        errors.update(r.errors)
    retries = sum(r.retries for r in rounds)
    print("workload %s seed %d: %d rounds (%d traced), %d operations, %d failed; "
          "%d attempts failed and were retried (error_rate per attempt %.6f = %d/%d), "
          "%d new sessions" % (wl.name, args.seed, len(rounds), len(traced), attempted,
                               failed, retries, retries / (attempted + retries or 1),
                               retries, attempted + retries,
                               sum(r.reconnects for r in rounds)))
    for text, n in errors.most_common():
        print("  %6d  %s" % (n, text))
    if plain and correct:
        refs = [x for r in plain for x in r.refs]
        print("host samples: %d successful untraced operations in windows of %d, "
              "set-up %d times; reference work %.0f to %.0f us (scaled to %.0f us)"
              % (sum(ok for _, ok in scaled(plain, wl.window)), wl.window, len(plain),
                 min(refs) / 1e3, max(refs) / 1e3, REF_NS / 1e3))
    for name, (value, unit) in metrics.items():
        print("  %-36s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
