"""Cost ledger: what each command of a shell session spent, one text row each.

ledger(sim, commands) runs each command through one Shell on a started
Simulation, lets the network go quiet, and returns a tab-separated table:
per command, its status, the ticks it took, the frames sent on the client
leg (between clients, heads and responders) and on the device leg (to or
from a sensor), the frames lost (drop and sleepdrop), and the joules the
sensors paid to send and receive (the energy model's tx and rx costs per
frame; idle drain, 0 in the shipped scenarios, is not counted).

A frame is counted against the request it answers, by tag: a T-message
against the command during which it was sent, an R-message against its
request's command.  So the Rclunk of a clunk that a listing did not wait
for counts towards that listing, not the command during which it lands.
A request sent before the first command (discovery during warmup) or
after the last (a poll while the network goes quiet) counts towards no
row.

Run as a script, it rewrites the pinned ledgers under tests/data/ledger/
from the code as it stands:

    PYTHONPATH=src:tests python tests/ledger.py
"""

import os

from conftest import FACTORY, SCRIPT_DIR, ZOO
from sensefs.scenario import load_scenario_file
from sensefs.shell import Shell
from test_acceptance import LOSSY_SESSION, lossy_zoo

HEADER = "command\tstatus\tticks\tclient_frames\tdevice_frames\tlost\tjoules"
QUIET = 5000      # ticks past a session's end: past every head's fallback
LEDGER_DIR = os.path.join(os.path.dirname(__file__), "data", "ledger")


def script_commands(text):
    """The commands of a shipped script, in order."""
    return [line[1:].strip() for line in text.splitlines() if line.startswith(">")]


def ledger(sim, commands, outputs=None):
    """The ledger text of commands run in turn on sim (see the module);
    each command's (status, output) is appended to outputs, if given."""
    shell, net = Shell(sim), sim.net
    rows, starts = [], []
    for command in commands:
        starts.append(len(net.log.lines))
        t0 = net.now
        status, output = shell.run_line(command)
        if outputs is not None:
            outputs.append((status, output))
        rows.append([command, status, net.now - t0, 0, 0, 0, 0])
    end = len(net.log.lines)
    net.run_until(net.now + QUIET)
    sent_in, window = {}, -1        # (requester, responder, tag) -> row index
    for i, line in enumerate(net.log.lines):
        while window + 1 < len(starts) and starts[window + 1] <= i:
            window += 1
        _, event, src, dst, detail = line.split("\t")
        if detail[:1] not in ("T", "R") or " tag=" not in detail:
            continue                # not a frame: a head's own log line
        tag = detail.rsplit("=", 1)[1]
        if detail[0] == "T":
            key = src, dst, tag
            if event == "send":
                sent_in[key] = window if 0 <= window and i < end else None
        else:
            key = dst, src, tag
        row = sent_in.get(key)
        if row is None:
            continue
        device = src in sim.states or dst in sim.states
        if event == "send":
            rows[row][4 if device else 3] += 1
            if src in sim.states:
                rows[row][6] += net.energy.tx_cost_j
        elif event in ("drop", "sleepdrop"):
            rows[row][5] += 1
        elif event == "deliver" and dst in sim.states:
            rows[row][6] += net.energy.rx_cost_j
    return HEADER + "\n" + "".join("%s\t%d\t%d\t%d\t%d\t%d\t%.6f\n" % tuple(row) for row in rows)


def sessions():
    """name -> a function making that session's ledger text: the three
    shipped scripts at seed 42 and the lossy zoo session at 5% loss."""
    def script(scenario, name):
        sim = load_scenario_file(scenario, seed=42)
        sim.start()
        with open(os.path.join(SCRIPT_DIR, name + ".script")) as fh:
            return ledger(sim, script_commands(fh.read()))

    return {
        "example1_monitoring": lambda: script(ZOO, "example1_monitoring"),
        "example2_datacentric": lambda: script(ZOO, "example2_datacentric"),
        "example3_emergency": lambda: script(FACTORY, "example3_emergency"),
        "lossy_zoo_5": lambda: ledger(lossy_zoo(0.05), LOSSY_SESSION.splitlines()),
    }


def pinned_path(name):
    return os.path.join(LEDGER_DIR, name + ".tsv")


if __name__ == "__main__":
    os.makedirs(LEDGER_DIR, exist_ok=True)
    for name, make in sessions().items():
        with open(pinned_path(name), "w") as fh:
            fh.write(make())
        print("wrote", pinned_path(name))
