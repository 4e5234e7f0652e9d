"""Lossy scorecard: how many commands of the 5%-loss zoo session get an
answer, over a block of seeds, one text row per session line.

scorecard(seeds) runs LOSSY_SESSION on lossy_zoo(0.05, seed) for each
seed and returns a tab-separated table: per session line, in order, how
many runs answered it (status 0), how many failed with each error text
(a `coverage unmet` counted as one text, whatever its exclusions), and
the ticks, client frames, device frames and frames lost it cost, summed
over the runs as the cost ledger counts them (ledger.py).  A last row
sums the answered cat, write, ls and plan lines.

The run is deterministic, so the table is pinned exactly, for the seeds
in SEEDS.  Run as a script, it rewrites the pinned table under
tests/data/scorecard/ from the code as it stands, or with a first and an
end seed prints the table of that block instead:

    PYTHONPATH=src:tests python tests/scorecard.py [FIRST END]
"""

import os
import sys
from collections import Counter

from ledger import ledger
from test_acceptance import LOSSY_SESSION, lossy_zoo

SEEDS = range(1000, 1100)
HEADER = "command\tanswered\terrors\tticks\tclient_frames\tdevice_frames\tlost"
COUNTED = ("cat", "write", "ls", "plan")      # the lines the last row sums
PINNED = os.path.join(os.path.dirname(__file__), "data", "scorecard", "lossy_zoo_5.tsv")


def error_text(output):
    """The error a failed command printed, a coverage shortfall as one text."""
    text = output.split("\n", 1)[0].removeprefix("error: ")
    return "coverage unmet" if text.startswith("coverage unmet") else text


def scorecard(seeds):
    """The scorecard text of LOSSY_SESSION over seeds (see the module)."""
    commands = LOSSY_SESSION.splitlines()
    answered, errors = [0] * len(commands), [Counter() for _ in commands]
    costs = [[0, 0, 0, 0] for _ in commands]
    for seed in seeds:
        outputs = []
        rows = ledger(lossy_zoo(0.05, seed), commands, outputs).splitlines()[1:]
        for i, ((status, output), row) in enumerate(zip(outputs, rows)):
            if status == 0:
                answered[i] += 1
            else:
                errors[i][error_text(output)] += 1
            for j, value in enumerate(row.split("\t")[2:6]):
                costs[i][j] += int(value)
    lines = [HEADER]
    for command, count, errs, cost in zip(commands, answered, errors, costs):
        listed = ", ".join("%s=%d" % kv for kv in sorted(errs.items())) or "-"
        lines.append("\t".join([command, str(count), listed] + [str(c) for c in cost]))
    counted = [i for i, command in enumerate(commands) if command.split()[0] in COUNTED]
    lines.append("answered %s lines\t%d of %d\t-\t-\t-\t-\t-" % (
        ", ".join(COUNTED), sum(answered[i] for i in counted), len(counted) * len(seeds)))
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    if len(sys.argv) == 3:
        sys.stdout.write(scorecard(range(int(sys.argv[1]), int(sys.argv[2]))))
    else:
        os.makedirs(os.path.dirname(PINNED), exist_ok=True)
        with open(PINNED, "w") as fh:
            fh.write(scorecard(SEEDS))
        print("wrote", PINNED)
