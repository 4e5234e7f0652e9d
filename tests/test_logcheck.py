"""Every request a server receives is answered exactly once (logcheck),
on hand-made logs, the shipped scripts and the lossy zoo session."""

import io
import os

import pytest

from conftest import FACTORY, SCRIPT_DIR, ZOO
from logcheck import check_log
from sensefs.scenario import load_scenario_file
from sensefs.shell import Shell, run_script
from test_acceptance import LOSSY_SESSION, lossy_zoo

QUIET = 5000      # ticks past a session's end: past every head's fallback


def quiesced_log(sim):
    sim.net.run_until(sim.net.now + QUIET)
    return sim.net.log.lines


def test_checker_passes_a_paired_log():
    assert check_log([
        "0\tsend\tc\th\tTwalk tag=1",
        "2\tdeliver\tc\th\tTwalk tag=1",
        "2\tmux-route\tc\th\tfwd tag=1 fid=0 path=s1/reading",
        "2\tsend\th\tc\tRwalk tag=1",
        "3\tdeliver\tc\th\tTread tag=2",
        "3\tdeliver\tc\th\tTread tag=2",            # a tag sent again while outstanding
        "4\tsend\th\tc\tRread tag=2",
        "5\ttxfail\th\tc\tRerror tag=2",            # a reply the server had no energy for
    ]) == []


def test_checker_finds_an_unasked_reply_and_an_unanswered_request():
    lines = ["1\tdeliver\tc\th\tTread tag=1",
             "1\tsend\th\tc\tRread tag=1",
             "2\tsend\th\tc\tRread tag=1",          # a second reply to tag 1
             "3\tsend\th\tc\tRread tag=7",          # a reply to a request never delivered
             "4\tdrop\tc\th\tTread tag=8",          # lost on its way: owed no reply
             "5\tdeliver\tc\th\tTclunk tag=9"]
    assert check_log(lines, quiesced=False) == [
        "2: 2\tsend\th\tc\tRread tag=1 with no request outstanding",
        "3: 3\tsend\th\tc\tRread tag=7 with no request outstanding"]
    assert check_log(lines)[2:] == ["1 request(s) from c to h tag=9 unanswered"]


@pytest.mark.parametrize("scenario, script", [
    (ZOO, "example1_monitoring.script"),
    (ZOO, "example2_datacentric.script"),
    (FACTORY, "example3_emergency.script"),
])
def test_shipped_script_answers_each_request_once(scenario, script):
    sim = load_scenario_file(scenario, seed=42)
    sim.start()
    with open(os.path.join(SCRIPT_DIR, script)) as fh:
        code, _ = run_script(Shell(sim), fh.read(), out=io.StringIO())
    assert code == 0
    assert check_log(quiesced_log(sim)) == []


@pytest.mark.parametrize("loss", [0.2, 0.05])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_lossy_session_answers_each_request_once(seed, loss):
    sim = lossy_zoo(loss, seed)
    shell = Shell(sim)
    for line in LOSSY_SESSION.splitlines():
        shell.run_line(line)
    assert check_log(quiesced_log(sim)) == []
