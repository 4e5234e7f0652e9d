"""Determinism guard for the benchmark.

Run from the root of the repository:  python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from sensefs import wire  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SIM_METRICS = ("ticks_p50", "ticks_p99", "frames_per_op", "joules_per_op",
               "first_try_rate", "held_fids", "log_lines_per_op")
# operations per test round: enough to reach the lossy workload's fid cap
LIMITS = {"cat-steady": 300, "aggr-fanout": 12, "browse-plan": 2, "lossy-soak": 1500}


def spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def sim_metrics(name, seed, tracer=None):
    rnd = run.run_round(WORKLOADS[name], seed, tracer=tracer, limit=LIMITS[name])
    metrics = run.end_to_end([rnd], WORKLOADS[name].window)
    return {k: metrics[k][0] for k in SIM_METRICS}, rnd


@pytest.mark.parametrize("name", sorted(LIMITS))
def test_same_seed_gives_identical_sim_metrics(name):
    first, rnd = sim_metrics(name, 3)
    again, _ = sim_metrics(name, 3)
    assert first == again
    assert rnd.attempted == LIMITS[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_different_seed_gives_different_commands(name):
    wl = WORKLOADS[name]

    def commands(seed):
        return [op.lines for op in wl.ops(wl.deployment(seed))]
    assert commands(1) == commands(1)
    assert commands(1) != commands(2)


def test_cat_steady_pinned_counts():
    """Exact frames and ticks of the cat-steady round for seed 1.  A change
    to these numbers changes the protocol's cost and must be deliberate."""
    rnd = run.run_round(WORKLOADS["cat-steady"], 1)
    assert (rnd.attempted, rnd.failed) == (2000, 0)
    assert rnd.frames == 39256              # 19.628 frames per operation
    assert sum(rnd.ok_ticks) == 35256       # 17.628 ticks per operation
    assert rnd.discover_frames == 12020


def test_lossy_soak_retries_until_every_operation_succeeds():
    """Lost frames fail attempts, leaked fids fill the head's session and
    force new sessions; every operation still succeeds on a retry."""
    _, rnd = sim_metrics("lossy-soak", 1)
    assert rnd.failed == 0
    assert 0 < rnd.first_ok < rnd.attempted
    assert rnd.retries >= rnd.attempted - rnd.first_ok
    assert rnd.reconnects > 0
    assert "error: timeout" in rnd.errors
    assert "error: too many fids" in rnd.errors
    # each session given up for `too many fids` still holds its 64 fids
    assert rnd.held_fids >= 64 * rnd.errors["error: too many fids"]


def test_tracing_leaves_behaviour_and_program_unchanged():
    encode = wire.encode_message
    tracer = Tracer(keep_ops=2)
    traced, rnd = sim_metrics("cat-steady", 5, tracer=tracer)
    plain, _ = sim_metrics("cat-steady", 5)
    assert traced == plain
    assert wire.encode_message is encode
    assert {s[0] for s in tracer.spans} == {0, 1}
    layers = run.per_layer(tracer, [rnd], [rnd], WORKLOADS["cat-steady"].window)
    assert sorted(layers) == sorted(m["name"] for m in spec()["per_layer"])
    assert 0.9 < layers["trace.coverage"][0] <= 1.0


def test_metric_names_match_spec():
    _, rnd = sim_metrics("aggr-fanout", 1)
    metrics = run.end_to_end([rnd], WORKLOADS["aggr-fanout"].window)
    assert {k: u for k, (_, u) in metrics.items()} == \
        {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert sorted(WORKLOADS) == sorted(w["name"] for w in spec()["workloads"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = spec()["command"] + ["--workload", "cat-steady", "--seed", "1",
                               "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
