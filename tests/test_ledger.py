"""The cost ledger of each shipped script and of the 5%-loss zoo session
is pinned as text (tests/data/ledger/), so a change that moves a frame,
a tick or a joule shows which commands it moved; a deliberate change
re-pins them with `PYTHONPATH=src:tests python tests/ledger.py`."""

import pytest

from conftest import ZOO
from ledger import HEADER, ledger, pinned_path, sessions
from sensefs.scenario import load_scenario_file

SESSIONS = sessions()


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_ledger_is_pinned(name):
    with open(pinned_path(name)) as fh:
        assert SESSIONS[name]() == fh.read()


def test_an_unwaited_clunk_counts_towards_its_listing():
    # an ls does not wait for its Rclunk, which lands during the next
    # command; by tag it is the listing's: attach, then walk, open and read
    # in one flight, then the clunk, 10 frames (9 by tick window, and 11
    # for the cat); the cat's device leg attaches, walks, opens, reads to
    # end of file and clunks on s1
    sim = load_scenario_file(ZOO, seed=42)
    sim.start()
    assert ledger(sim, ["mount /dev/network /network", "ls /network/cluster1/sensors",
                        "cat /network/cluster1/sensors/s1/reading"]).splitlines() == [
        HEADER,
        "mount /dev/network /network\t0\t0\t0\t0\t0\t0.000000",
        "ls /network/cluster1/sensors\t0\t12\t10\t0\t0\t0.000000",
        "cat /network/cluster1/sensors/s1/reading\t0\t60\t10\t12\t0\t0.120000"]
