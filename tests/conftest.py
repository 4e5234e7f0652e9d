"""Shared builders: in-process networks, devices and clusters for tests."""

import os

import pytest

from sensefs.client import FileClient, walk
from sensefs.devicefs import SensorState, make_device_server
from sensefs.fscore import UserDb
from sensefs.muxfs import AggregateSpec, GroupSpec, MuxConfig, Multiplexer
from sensefs.scenario import ServerEndpoint, load_scenario_file
from sensefs.simnet import EnergyModel, LinkModel, Network
from sensefs.wire import OREAD, Topen

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
PKG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src", "sensefs")
ZOO = os.path.abspath(os.path.join(PKG_DIR, "scenarios", "zoo.scn"))
FACTORY = os.path.abspath(os.path.join(PKG_DIR, "scenarios", "factory.scn"))
SCRIPT_DIR = os.path.abspath(os.path.join(PKG_DIR, "scripts"))

USERS = UserDb({"admin": {"admin"}, "guest": {"users"}, "mux": {"mux"}})


def build_cluster(sensor_specs, seed=0, latency=2, loss=0.0, jitter=0,
                  energy=None, mux_cfg=None, aggregates=(), groups=(),
                  cluster="c", warmup=60):
    """One cluster head plus the given devices on a fresh network.

    sensor_specs: list of dicts passed to SensorState (id required).
    Returns (net, mux, {id: SensorState}).
    """
    net = Network(seed, energy=energy or EnergyModel(),
                  default_link=LinkModel(latency, jitter, loss))
    states = {}
    for spec in sensor_specs:
        state = SensorState(**spec)
        server = make_device_server(state, USERS, clock=lambda: net.now)
        ServerEndpoint(net, state.id, server, state=state)
        states[state.id] = state
    mux = Multiplexer(net, cluster + ".head", cluster, list(states), USERS,
                      mux_cfg or MuxConfig(), aggregates=aggregates,
                      groups=groups)
    net.schedule(0, mux.start)
    if warmup:
        net.run_until(warmup)
    return net, mux, states


def temp_sensor(i, value, **kw):
    spec = dict(id="s%d" % i, kind="temperature",
                raw_source=(lambda t, v=value: v))
    spec.update(kw)
    return spec


def make_client(net, uname="admin", name="client"):
    return FileClient(net, name, uname=uname)


def walk_fid(client, ref, path):
    """A fid of client, walked to path."""
    return client._one(ref, walk(client._conn(ref), client.uname, path))


def device_fid_files(net, dev):
    """(user name, file name) of every fid bound on device dev, over all
    its sessions, in the order they were bound."""
    server = net.handlers[dev].__self__.server
    return [(ent.uname, ent.node.name) for sess in server.sessions.values()
            for ent in sess.fids.values()]


def open_fid(client, ref, path, mode=OREAD):
    """A fid of client, walked to path and opened in mode."""
    fid = walk_fid(client, ref, path)
    client.call(ref, lambda t: Topen(t, fid, mode))
    return fid


@pytest.fixture
def zoo_sim():
    sim = load_scenario_file(ZOO)
    sim.start()
    return sim
