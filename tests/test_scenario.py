"""Scenario file tests: parsing, validation, source functions, wiring."""

import re

import pytest

from sensefs.fscore import Server
from sensefs.muxfs import MuxConfig
from sensefs.scenario import (
    ScenarioError, Simulation, load_scenario_file, make_source, parse_scenario,
)

from conftest import ZOO, FACTORY

MINIMAL = """
[scenario]
seed = 7
warmup = 40

[cluster c1]

[sensor s1]
cluster = c1
source = constant 20.5
tag animal = snake

[sensor s2]
cluster = c1
kind = position
position = 3 4
"""


def test_parse_minimal():
    cfg = parse_scenario(MINIMAL)
    assert cfg.seed == 7 and cfg.warmup == 40
    assert cfg.clusters == {"c1": "c1.head"}
    assert set(cfg.sensors) == {"s1", "s2"}
    assert cfg.sensors["s1"].tags == {"animal": "snake"}
    assert cfg.sensors["s2"].position == (3.0, 4.0)


def test_error_carries_line_number():
    with pytest.raises(ScenarioError, match="line 3"):
        parse_scenario("[scenario]\nseed = 1\nnot a pair\n")
    with pytest.raises(ScenarioError, match="line 2: bad value"):
        parse_scenario("[scenario]\nseed = banana\n")


def test_duplicate_ids_rejected():
    with pytest.raises(ScenarioError, match="duplicate sensor"):
        parse_scenario("[sensor a]\n[sensor a]\n")
    with pytest.raises(ScenarioError, match="duplicate cluster"):
        parse_scenario("[cluster a]\n[cluster a]\n")
    with pytest.raises(ScenarioError, match="line 4: duplicate aggregate"):
        parse_scenario("[cluster c]\n[aggregate c avg]\n[aggregate c max]\n[aggregate c avg]\n")
    with pytest.raises(ScenarioError, match="line 4: duplicate group"):
        parse_scenario("[cluster c]\n[group c g]\n[aggregate c g]\n[group c g]\n")
    # names are per cluster
    parse_scenario("[cluster c]\n[cluster d]\n[aggregate c avg]\n[aggregate d avg]\n")


@pytest.mark.parametrize("text, error", [
    ("[bogus]\n", "line 1: unknown section [bogus]"),
    ("[scenario]\n[bogus]\nkey = 1\n", "line 2: unknown section [bogus]"),
    ("[scenario extra]\n", "line 1: [scenario] takes 0 name(s), got 1"),
    ("[views foo]\n", "line 1: [views] takes 0 name(s), got 1"),
    ("[link a]\n", "line 1: [link] takes 0 or 2 name(s), got 1"),
    ("[region r]\nrect = 0 0 1 1\n[region r]\n", "line 3: duplicate region r"),
    ("[responder a]\n[responder a]\n", "line 2: duplicate responder a"),
    ("[region r]\n[region 0E]\n", "line 2: region name '0E' is a location cell's name"),
    ("[region 35N]\n", "line 1: region name '35N' is a location cell's name"),
    ("[region 120S]\n", "line 1: region name '120S' is a location cell's name"),
    ("[region 54W]\n", "line 1: region name '54W' is a location cell's name"),
    ("[region 0.5E]\n", "line 1: region name '0.5E' is a location cell's name"),
], ids=["unknown", "unknown-with-key", "scenario-args", "views-args", "link-args",
        "duplicate-region", "duplicate-responder", "region-lon-cell", "region-lat-cell",
        "region-south-cell", "region-west-cell", "region-fractional-cell"])
def test_header_error_at_its_line(text, error):
    with pytest.raises(ScenarioError, match=re.escape(error)):
        parse_scenario(text)


@pytest.mark.parametrize("text, error", [
    ("[link]\nlatency = 0\n", "line 2: bad value for 'latency'"),
    ("[link]\nloss = 2\n", "line 2: bad value for 'loss'"),
    ("[link]\njitter = -2\n", "line 2: bad value for 'jitter'"),
    ("[link a b]\njitter = 1\nlatency = 0\n", "line 3: bad value for 'latency'"),
    ("[link a b]\nloss = 2\n", "line 2: bad value for 'loss'"),
    ("[sensor s]\nduty = 0 0 0\n", "line 2: bad value for 'duty'"),
    ("[sensor s]\nduty = 1 2 3 4\n", "line 2: bad value for 'duty'"),
    ("[sensor s]\nsource = ramp 3\n", "line 2: bad value for 'source'"),
    ("[sensor s]\nsource = wobble 1\n", "line 2: bad value for 'source'"),
    ("[sensor s]\nsource = table\n", "line 2: bad value for 'source'"),
    ("[views]\ncell = 0\n", "line 2: bad value for 'cell': 0 is not a finite number above 0"),
    ("[views]\ncell = -1\n", "line 2: bad value for 'cell'"),
    ("[views]\ncell = nan\n", "line 2: bad value for 'cell'"),
    ("[views]\ncell = inf\n", "line 2: bad value for 'cell'"),
    ("[geo]\nm_per_deg = 0\n", "line 2: bad value for 'm_per_deg'"),
    ("[geo]\nm_per_deg = -111000\n", "line 2: bad value for 'm_per_deg'"),
    ("[geo]\nm_per_deg = nan\n", "line 2: bad value for 'm_per_deg'"),
    ("[geo]\nm_per_deg = -inf\n", "line 2: bad value for 'm_per_deg'"),
    ("[cluster c]\n[aggregate c a]\nkind = temperature\nfn = median\n",
     "line 4: bad value for 'fn': no such aggregation 'median'"),
    ("[scenario]\nseed = 1\nreprobe = 0\n",
     "line 3: bad value for 'reprobe': ttl must be >= 0 ticks, every timeout and period >= 1"),
    ("[scenario]\nfallback = 0\n", "line 2: bad value for 'fallback'"),
    ("[scenario]\ndiscover_timeout = -3\n", "line 2: bad value for 'discover_timeout'"),
    ("[scenario]\nttl = -1\n", "line 2: bad value for 'ttl'"),
    ("[scenario]\nwarmup = -1\n", "line 2: bad value for 'warmup': warmup must be >= 0 ticks"),
    ("[sensor s]\nduty = -5 10\n", "line 2: bad value for 'duty'"),
    ("[sensor s]\nduty = 0 10\n", "line 2: bad value for 'duty'"),
    ("[sensor s]\nduty = 10 -5\n", "line 2: bad value for 'duty'"),
    ("[energy]\ntx = -0.5\n", "line 2: bad value for 'tx': energy costs must be >= 0 J"),
    ("[energy]\nrx = -1\n", "line 2: bad value for 'rx'"),
    ("[energy]\nidle = nan\n", "line 2: bad value for 'idle'"),
    ("[sensor s]\nenergy = -1\n", "line 2: bad value for 'energy': energy must be >= 0 J"),
], ids=["latency", "loss", "jitter", "pair-latency", "pair-loss", "duty-empty", "duty-words",
        "ramp-args", "source-kind", "table-empty", "cell-zero", "cell-negative", "cell-nan",
        "cell-inf", "m_per_deg-zero", "m_per_deg-negative", "m_per_deg-nan", "m_per_deg-inf",
        "aggregate-fn", "reprobe-zero", "fallback-zero", "discover_timeout-negative",
        "ttl-negative", "warmup-negative", "duty-negative-on", "duty-never-on",
        "duty-negative-off", "tx-negative", "rx-negative", "idle-nan", "energy-negative"])
def test_bad_value_at_its_line(text, error):
    with pytest.raises(ScenarioError, match=re.escape(error)):
        parse_scenario(text)


@pytest.mark.parametrize("bands", ["low = 50\nhigh = 50\n", "high = 5\n", "low = 200\n"])
def test_views_low_band_edge_is_below_high(bands):
    with pytest.raises(ScenarioError, match="low .* is not below high"):
        parse_scenario("[views]\n" + bands)


def test_scenario_timeouts_go_to_every_head():
    sim = Simulation(parse_scenario(
        "[scenario]\nttl = 5\nfallback = 7\nreprobe = 9\ndiscover_timeout = 11\n[cluster c]\n"))
    assert sim.muxes["c"].cfg == MuxConfig(5, 7, 9, 11)


def test_region_names_unlike_a_cell_are_kept():
    names = ["E0", "0e", "0EW", "-1W", "1.E", ".5E", "region-10", "N"]
    text = "".join("[region %s]\n" % n for n in names)
    assert [r.name for r in parse_scenario(text).regions] == names


def test_duty_phase_defaults_to_zero():
    cfg = parse_scenario("[sensor s]\nduty = 10 20\n[sensor t]\nduty = 10 20 5\n")
    assert cfg.sensors["s"].duty == (10, 20, 0)
    assert cfg.sensors["t"].duty == (10, 20, 5)


def test_dangling_cluster_reference():
    with pytest.raises(ScenarioError, match="unknown cluster"):
        parse_scenario("[sensor s1]\ncluster = ghost\n")


def test_unknown_keys_rejected():
    with pytest.raises(ScenarioError, match="unknown"):
        parse_scenario("[scenario]\nbogus = 1\n")
    with pytest.raises(ScenarioError, match="outside any known section"):
        parse_scenario("stray = 1\n")


def test_comments_and_blanks_ignored():
    cfg = parse_scenario("# hello\n\n[scenario]\nseed = 3  # trailing\n")
    assert cfg.seed == 3


def test_source_constant():
    f = make_source("constant 20.5")
    assert f(0) == f(1000) == 20.5


def test_source_constant_position_pair():
    f = make_source("constant 3 4", kind="position")
    assert f(0) == (3.0, 4.0)
    with pytest.raises(ScenarioError):
        make_source("constant 3 4")    # scalar kinds take one value


def test_source_ramp():
    f = make_source("ramp 10 0.5")
    assert f(0) == 10.0 and f(4) == 12.0


def test_source_table_step_function():
    f = make_source("table 0:1 100:2 200:3")
    assert f(0) == 1 and f(99) == 1 and f(100) == 2 and f(250) == 3


def test_source_unknown():
    with pytest.raises(ScenarioError):
        make_source("noise 1")


def test_link_overrides_apply_both_ways():
    cfg = parse_scenario(MINIMAL + "\n[link c1.head s1]\nlatency = 9\n")
    sim = Simulation(cfg)
    assert sim.net.link_for("c1.head", "s1").latency == 9
    assert sim.net.link_for("s1", "c1.head").latency == 9
    assert sim.net.link_for("s1", "s2").latency == cfg.default_link.latency


def test_oneway_link_override():
    cfg = parse_scenario(MINIMAL + "\n[link s1 c1.head]\nlatency = 9\noneway = true\n")
    sim = Simulation(cfg)
    assert sim.net.link_for("s1", "c1.head").latency == 9
    assert sim.net.link_for("c1.head", "s1").latency == cfg.default_link.latency
    with pytest.raises(ScenarioError, match="line 2: unknown \\[link\\] key 'oneway'"):
        parse_scenario("[link]\noneway = true\n")


def test_simulation_wiring():
    sim = Simulation(parse_scenario(MINIMAL))
    sim.start()
    client = sim.new_client()
    names = [s.name for s in client.ls(("net", "c1.head"), "sensors")]
    assert names == ["s1", "s2"]
    assert client.read(("net", "c1.head"), "sensors/s1/reading") == b"20.500000\n"


def test_only_device_and_responder_handlers_front_a_server():
    # bench/run.py:file_servers counts heads through sim.muxes and every
    # other server through its handler's __self__.server; a head or a
    # client fronted the same way would be counted twice or crash
    sim = load_scenario_file(FACTORY)
    sim.start()
    client = sim.new_client()
    fronted = {eid for eid, h in sim.net.handlers.items()
               if hasattr(getattr(h, "__self__", None), "server")}
    assert fronted == set(sim.states) | set(sim.responders)
    heads = {mux.eid for mux in sim.muxes.values()}
    assert heads and not heads & fronted and client.eid not in fronted
    assert all(isinstance(sim.net.handlers[eid].__self__.server, Server) for eid in fronted)


def test_bundled_scenarios_parse():
    for path in (ZOO, FACTORY):
        with open(path) as fh:
            cfg = parse_scenario(fh.read())
        assert cfg.clusters
