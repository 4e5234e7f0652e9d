"""Shell tests: commands, script replay, CLI, determinism."""

import io
import os

import pytest

from sensefs.scenario import ScenarioError, load_scenario_file, parse_scenario
from sensefs.shell import PROMPT, Shell, main, repl, run_script
from sensefs.simnet import LinkModel

from conftest import FACTORY, SCRIPT_DIR, ZOO

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def zoo_shell(seed=None, user="admin"):
    sim = load_scenario_file(ZOO, seed=seed)
    sim.start()
    return Shell(sim, user=user)


@pytest.fixture(scope="module")
def sh():
    shell = zoo_shell()
    shell.run_line("mount /dev/network /network")
    return shell


def test_mount_and_ls(sh):
    status, out = sh.run_line("ls /network")
    assert status == 0
    assert out.splitlines() == ["cluster1", "cluster2"]
    status, out = sh.run_line("ls /network/cluster1/sensors")
    assert out.splitlines() == ["s%d" % i for i in range(1, 8)]


def test_ls_long_shows_metadata(sh):
    _, out = sh.run_line("ls -l /network/cluster1/sensors/s1")
    lines = out.splitlines()
    assert any(l.startswith("-r--r--r--") and l.endswith("reading")
               for l in lines)
    assert any(l.startswith("-rw-r--r--") and l.endswith("control")
               for l in lines)


def test_views_fail_when_a_head_does_not_answer():
    shell = zoo_shell()
    for line in ["mount /dev/network /network", "mount /dev/s1 /network/s1",
                 "mount /dev/s2 /network/more/s2",
                 "view build resource", "view build location", "view build logical"]:
        assert shell.run_line(line) == (0, "")
    # s1 is a device mounted directly under /network, and more a directory
    # the mounts make: neither has a ctl, and both are skipped
    assert shell.run_line("ls /network") == (0, "cluster1\ncluster2\ns1\nmore")
    assert shell.run_line("ls /resource/energy/high") == (0, "s1\ns2\ns3\ns6\ns7\ns8\ns9\ns10")
    commands = ["ls /resource/energy/high", "ls /resource/energy/low",
                "cat /location/region-10/data", "ls /location", "ls /data",
                "plan region-10 4 avg 50"]
    assert all(shell.run_line(line)[0] == 0 for line in commands)
    # cluster2's head no longer hears the shell's client, nor it the head
    shell.sim.net.set_link(shell.client.eid, "cluster2.head", LinkModel(loss=1.0),
                           both_ways=True)
    for line in commands:
        assert shell.run_line(line) == (1, "error: timeout"), line
    assert shell.run_line("cat /network/cluster1/sensors/s1/reading")[0] == 0


@pytest.mark.parametrize("path", [
    "/network/cluster1/ctl",                        # a head file
    "/network/cluster1/sensors/s1/reading",         # a relayed device file
    "/location/region-10/data",                     # a view file
])
def test_ls_of_a_file_is_not_a_directory(path):
    shell = zoo_shell()
    shell.run_line("mount /dev/network /network")
    shell.run_line("view build location")
    for form in ("ls", "ls -l"):
        assert shell.run_line("%s %s" % (form, path)) == (1, "error: not a directory")
    out = io.StringIO()
    repl(shell, io.StringIO("ls %s\nls /network\n" % path), out)
    assert out.getvalue() == ("sensefs> error: not a directory\n"
                              "sensefs> cluster1\ncluster2\nsensefs> ")


@pytest.mark.parametrize("path", [
    "/network/cluster1",                            # a head directory
    "/network/cluster1/sensors/s1",                 # a mirrored sensor directory
    "/location/region-10",                          # a view directory
])
def test_cat_of_a_directory_is_a_directory(path):
    shell = zoo_shell()
    shell.run_line("mount /dev/network /network")
    shell.run_line("view build location")
    assert shell.run_line("cat " + path) == (1, "error: is a directory")
    assert shell.run_line("cat /network/cluster1/sensors/s1/reading") == (0, "20.900000")


def test_ls_refuses_a_directory_whose_entry_does_not_fit_a_read():
    # an aggregate whose name alone fills a read: the listing fails, and
    # does not end at it as if the directory were complete
    shell = zoo_shell()
    shell.run_line("mount /dev/network /network")
    for line in ("aggregate a%s avg" % ("b" * 8140), "aggregate zz avg"):
        assert shell.run_line("write /network/cluster1/ctl " + line) == (0, "")
    for form in ("ls", "ls -l"):
        assert shell.run_line(form + " /network/cluster1/aggrData") == \
            (1, "error: directory entry too large")
    assert shell.run_line("cat /network/cluster1/aggrData/zz") == (0, "46.928571\n# n=7/7")


DEEP = "/network/cluster1/sensors/s1/" + "/".join(["a"] * 15)     # a walk of 17 names


@pytest.mark.parametrize("line, error", [
    ("cat " + DEEP, "walk of 17 names exceeds 16"),
    ("ls " + DEEP, "walk of 17 names exceeds 16"),
    ("stat " + DEEP, "walk of 17 names exceeds 16"),
    ("write %s x" % DEEP, "walk of 17 names exceeds 16"),
    ("write /network/cluster1/sensors/s1/mem " + "x" * 9000, "frame of 9023 bytes exceeds 8192"),
])
def test_a_request_that_cannot_be_encoded_is_refused(line, error):
    # the request is refused as it is made and never sent; the REPL goes on
    shell = zoo_shell()
    shell.run_line("mount /dev/network /network")
    assert shell.run_line(line) == (1, "error: " + error)
    if line.startswith("cat"):                  # the walk is the first request
        log = shell.sim.net.log
        since = len(log.lines)
        assert shell.run_line(line) == (1, "error: " + error)
        assert [l for l in log.lines[since:] if l.split("\t")[1] == "send"] == []
    out = io.StringIO()
    repl(shell, io.StringIO("%s\ncat /network/cluster1/sensors/s1/reading\n" % line), out)
    assert out.getvalue() == "sensefs> error: %s\nsensefs> 20.900000\nsensefs> " % error


def test_a_mount_at_the_root_resolves():
    shell = zoo_shell()
    files = "reading\ncontrol\nremaining-energy\nregisters\nmem\ninfo"
    assert shell.run_line("mount s1 /") == (0, "")
    assert shell.run_line("cat /reading") == (0, "20.900000")
    assert shell.run_line("ls /") == (0, files)
    # a second mount under /: its directory is one the mounts make, and
    # paths below it are its server's
    assert shell.run_line("mount /dev/network /network") == (0, "")
    assert shell.run_line("ls /") == (0, files + "\nnetwork")
    assert shell.run_line("ls /network") == (0, "cluster1\ncluster2")
    assert shell.run_line("cat /network/cluster1/sensors/s2/reading") == \
        (0, "150.000000 50.000000")
    assert shell.run_line("cat /reading") == (0, "20.900000")
    assert shell.run_line("cat /nowhere") == (1, "error: no such file")
    # a listing of / whose reply is lost fails, mount points or not
    shell.sim.net.set_link(shell.client.eid, "s1", LinkModel(loss=1.0), both_ways=True)
    assert shell.run_line("ls /") == (1, "error: timeout")


@pytest.mark.parametrize("path, status, names", [
    ("/nowhere", 1, "error: not found"),
    ("/network/cluster1/nope", 1, "error: no such file"),
    ("/network/cluster1/sensors/s9", 1, "error: no such file"),
    ("/", 0, ["network"]),
    ("/network", 0, ["cluster1", "cluster2"]),
    ("/network/cluster1", 0, ["sensors", "aggrData", "groups", "ctl"]),
    ("/network/cluster1/sensors/s1", 0,
     ["reading", "control", "remaining-energy", "registers", "mem", "info"]),
])
def test_ls_and_ls_long_agree(sh, path, status, names):
    short = sh.run_line("ls " + path)
    long = sh.run_line("ls -l " + path)
    if status:
        assert short == long == (1, names)
    else:
        assert short == (0, "\n".join(names))
        assert long[0] == 0
        assert [line.split(" ")[-1] for line in long[1].splitlines()] == names


def test_cd_pwd_relative_paths(sh):
    assert sh.run_line("cd /network/cluster1")[0] == 0
    assert sh.run_line("pwd")[1] == "/network/cluster1"
    status, out = sh.run_line("ls sensors")
    assert out.splitlines()[0] == "s1"
    sh.run_line("cd ..")
    assert sh.run_line("pwd")[1] == "/network"
    sh.run_line("cd /")


@pytest.mark.parametrize("path", [
    "/network/cluster1/nosuch", "/network/cluster1/sensors/s1/reading", "/nowhere",
])
def test_cd_refuses_what_is_not_a_directory(sh, path):
    sh.run_line("cd /network/cluster1")
    assert sh.run_line("cd " + path) == (1, "error: no such directory " + path)
    assert sh.run_line("pwd") == (0, "/network/cluster1")
    assert sh.run_line("cd sensors/s1") == (0, "")      # a directory on the server
    assert sh.run_line("cd /network") == (0, "")        # a directory of mounts alone
    sh.run_line("cd /")


def test_cat_and_write(sh):
    _, out = sh.run_line("cat /network/cluster1/sensors/s1/reading")
    assert out == "20.900000"
    assert sh.run_line("write /network/cluster1/sensors/s1/control 2.5")[0] == 0
    assert sh.run_line("cat /network/cluster1/sensors/s1/reading")[1] == "23.400000"
    sh.run_line("write /network/cluster1/sensors/s1/control reset")
    assert sh.run_line("cat /network/cluster1/sensors/s1/reading")[1] == "20.900000"


def test_stat(sh):
    _, out = sh.run_line("stat /network/cluster1/sensors/s1/control")
    assert out.split() == ["control", "-rw-r--r--", "admin", "0", "admin"]


def test_cat_and_stat_of_mem(sh):
    status, out = sh.run_line("cat /network/cluster1/sensors/s1/mem")
    assert (status, out) == (0, "\0" * 256)
    _, out = sh.run_line("stat /network/cluster1/sensors/s1/mem")
    assert out.split() == ["mem", "-rw-r--r--", "admin", "256", "admin"]
    _, out = sh.run_line("ls -l /network/cluster1/sensors/s1")
    assert "-rw-r--r-- admin 256 mem" in out.splitlines()


def test_groups(sh):
    _, out = sh.run_line("groups cluster1")
    entries = dict(l.split(": ", 1) for l in out.splitlines())
    assert entries["snakes"] == "s1 s2"
    assert entries["lions"] == "s5 s6 s7"


def test_errors_render_with_prefix(sh):
    status, out = sh.run_line("cat /nowhere")
    assert status == 1 and out == "error: not found"
    status, out = sh.run_line("write /network/cluster1/sensors/s1/control explode")
    assert status == 1 and out == "error: bad control command"
    status, out = sh.run_line("frobnicate")
    assert status == 1 and out.startswith("error: unknown command")


def test_log_to_an_unwritable_path_is_an_error(sh, tmp_path):
    missing = str(tmp_path / "no-such-dir" / "x.log")
    status, out = sh.run_line("log " + missing)
    assert status == 1
    assert out.startswith("error: [Errno 2] No such file or directory") and missing in out
    # the shell goes on: a later command runs, and a writable path works
    assert sh.run_line("seed")[0] == 0
    assert sh.run_line("log " + str(tmp_path / "x.log")) == (0, "")
    assert (tmp_path / "x.log").read_text() == sh.sim.net.log.text()


def test_guest_permission_error():
    shell = zoo_shell(user="guest")
    shell.run_line("mount /dev/network /network")
    status, out = shell.run_line(
        "write /network/cluster1/sensors/s1/control 2.5")
    assert status == 1 and out == "error: permission denied"
    status, out = shell.run_line("cat /network/cluster1/sensors/s1/reading")
    assert status == 0 and out == "20.900000"


def test_help_names_every_command(sh):
    status, out = sh.run_line("help")
    assert status == 0 and out.startswith("commands: ")
    assert sorted(out.split()[1:]) == sorted(name[4:] for name in dir(Shell)
                                             if name.startswith("cmd_"))


def test_exit_ends_the_repl_before_the_next_line():
    shell = zoo_shell()
    out = io.StringIO()
    repl(shell, io.StringIO("pwd\nexit\npwd\n"), out)
    assert out.getvalue() == PROMPT + "/\n" + PROMPT


def test_tick_advances_time(sh):
    before = sh.sim.net.now
    sh.run_line("tick 25")
    assert sh.sim.net.now == before + 25


def test_views_and_plan_via_shell():
    shell = zoo_shell()
    shell.run_line("mount /dev/network /network")
    assert shell.run_line("view build location")[0] == 0
    assert shell.run_line("view build resource")[0] == 0
    _, out = shell.run_line("ls /resource/energy/low")
    assert out.splitlines() == ["s4", "s5"]
    status, out = shell.run_line("plan region-10 4 avg 50")
    assert status == 0
    assert out.splitlines()[0] == "selected: s1 s3 s6 s7"
    status, out = shell.run_line("plan region-10 5 avg 50")
    assert status == 1 and out.startswith("error: coverage unmet (4<5)")


VIEW_USAGE = ("error: usage: view build <structural | location [CELL] | logical [TAG] | "
              "resource [LOW HIGH]>")


@pytest.mark.parametrize("line", [
    "view", "view build", "view make resource",
    "view build resource /resource",            # a path where a threshold goes
    "view build resource 10 high", "view build location east",
    "view build resource 1 2 3", "view build location 1 2",
    "view build logical animal extra", "view build structural /network",
    "view build location 0", "view build location -1",     # a cell must be finite, above 0
    "view build location nan", "view build location inf",
])
def test_view_build_bad_arguments_get_the_usage(line):
    shell = zoo_shell()
    assert shell.run_line(line) == (1, VIEW_USAGE)
    assert shell.table.mounts == []


PLAN_USAGE = "error: usage: plan <region> <coverage> <aggregation> <rate>"


@pytest.mark.parametrize("line, error", [
    ("plan region-10 four avg 10", PLAN_USAGE),
    ("plan region-10 4 avg soon", PLAN_USAGE),
    ("plan region-10 2.5 avg 10", PLAN_USAGE),
    ("tick soon", "error: usage: tick <n>"),
    ("tick 1.5", "error: usage: tick <n>"),
], ids=["plan-coverage", "plan-rate", "plan-fraction", "tick-word", "tick-fraction"])
def test_plan_and_tick_bad_numbers_get_the_usage(line, error):
    shell = zoo_shell()
    shell.run_line("mount /dev/network /network")
    now = shell.sim.net.now
    assert shell.run_line(line) == (1, error)
    assert shell.sim.net.now == now


@pytest.mark.parametrize("line, usage", [
    ("ls /network/cluster1 /network", "ls [-l] [path]"),
    ("ls -l /network/cluster1 /network", "ls [-l] [path]"),
    ("cd /network/cluster1 /network", "cd [path]"),
    ("cat /network/cluster1/sensors/s1/reading /network/cluster1/sensors/s2/reading",
     "cat <path>"),
    ("stat /network/cluster1/sensors/s1/reading /network", "stat <path>"),
], ids=["ls", "ls-long", "cd", "cat", "stat"])
def test_a_second_path_gets_the_usage(line, usage):
    shell = zoo_shell()
    shell.run_line("mount /dev/network /network")
    logged = len(shell.sim.net.log.lines)
    assert shell.run_line(line) == (1, "error: usage: " + usage)
    assert len(shell.sim.net.log.lines) == logged      # nothing was sent
    assert shell.cwd == "/"


def test_view_build_optional_arguments():
    shell = zoo_shell()
    shell.run_line("mount /dev/network /network")
    assert shell.run_line("view build nowhere") == (1, "error: unknown view kind 'nowhere'")
    assert shell.run_line("view build resource 100 10") == (
        1, "error: thresholds must satisfy 0 < low < high")
    # s4 holds under 5 J, s5 under 8 J, every other zoo sensor about 1000 J
    assert shell.run_line("view build resource 1e-3 2e-3") == (0, "")
    assert shell.run_line("ls /resource/energy/low") == (0, "")
    assert shell.run_line("view build resource 6") == (0, "")       # high from [views]
    assert shell.run_line("ls /resource/energy/low") == (0, "s4")
    assert shell.run_line("ls /resource/energy/medium") == (0, "s5")
    assert shell.run_line("view build location 90") == (0, "")
    assert shell.run_line("ls /location") == (0, "0W\nregion-10")
    assert shell.run_line("view build logical kind") == (0, "")
    assert shell.run_line("ls /data") == (0, "temperature\nposition")
    assert shell.run_line("ls /data/temperature") == (0, "")


def test_readme_session_replays_on_zoo():
    """Every output the README's example session shows is what the shell
    answers on zoo.scn."""
    with open(README) as fh:
        text = fh.read()
    block = text.split("Example session on `zoo.scn`:\n\n```\n", 1)[1].split("```", 1)[0]
    steps = []                  # (command, the lines shown after it)
    for line in block.splitlines():
        if line.startswith(PROMPT):
            steps.append((line[len(PROMPT):], []))
        else:
            steps[-1][1].append(line)
    assert [command.split()[0] for command, _ in steps] == \
        ["mount", "cat", "write", "view", "ls", "plan"]
    shell = zoo_shell()
    for command, shown in steps:
        assert (command, shell.run_line(command)) == (command, (0, "\n".join(shown)))


def run_bundled(scenario, script_name, seed=None):
    sim = load_scenario_file(scenario, seed=seed)
    sim.start()
    shell = Shell(sim)
    with open(os.path.join(SCRIPT_DIR, script_name)) as fh:
        text = fh.read()
    out = io.StringIO()
    code, report = run_script(shell, text, out=out)
    return code, report, out.getvalue(), sim.net.log.text()


def test_script_monitoring_passes():
    code, report, _, _ = run_bundled(ZOO, "example1_monitoring.script")
    assert (code, report) == (0, "PASS")


def test_script_datacentric_passes():
    code, report, _, _ = run_bundled(ZOO, "example2_datacentric.script")
    assert (code, report) == (0, "PASS")


def test_script_emergency_passes():
    code, report, _, _ = run_bundled(FACTORY, "example3_emergency.script")
    assert (code, report) == (0, "PASS")


def test_script_mismatch_reports_line():
    shell = zoo_shell()
    script = "> pwd\n/wrong\n"
    code, report = run_script(shell, script)
    assert code == 2
    assert report.startswith("FAIL")
    assert "line 1" in report


def test_script_determinism():
    a = run_bundled(ZOO, "example2_datacentric.script", seed=7)
    b = run_bundled(ZOO, "example2_datacentric.script", seed=7)
    assert a == b


def test_cli_script_run(tmp_path, capsys):
    log = tmp_path / "events.log"
    code = main(["--scenario", ZOO,
                 "--script", os.path.join(SCRIPT_DIR, "example1_monitoring.script"),
                 "--log", str(log)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    assert log.read_text().splitlines()[0].split("\t")[1] == "send"


def test_cli_bad_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("[sensor]\n")
    code = main(["--scenario", str(bad)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    # a bad value is a scenario error too, not a traceback out of the build
    bad.write_text("[sensor s1]\nduty = 0 0 0\n")
    assert main(["--scenario", str(bad)]) == 1
    assert "error: line 2: bad value for 'duty'" in capsys.readouterr().err
    for section, key in (("views", "cell"), ("geo", "m_per_deg")):
        bad.write_text("[%s]\n%s = 0\n" % (section, key))
        assert main(["--scenario", str(bad)]) == 1
        assert capsys.readouterr().err == (
            "error: line 2: bad value for %r: 0 is not a finite number above 0\n" % key)


def test_cli_missing_script(tmp_path, capsys):
    missing = str(tmp_path / "missing.script")
    assert main(["--scenario", ZOO, "--script", missing]) == 1
    out = capsys.readouterr()
    assert out.err == "error: [Errno 2] No such file or directory: %r\n" % missing
    assert out.out == ""                # nothing ran


def test_cli_unwritable_log(tmp_path, capsys):
    log = str(tmp_path / "no-such-dir" / "events.log")
    code = main(["--scenario", ZOO,
                 "--script", os.path.join(SCRIPT_DIR, "example1_monitoring.script"),
                 "--log", log])
    assert code == 1
    out = capsys.readouterr()
    assert "PASS" in out.out            # the script ran; only the log failed
    assert out.err == "error: [Errno 2] No such file or directory: %r\n" % log


def test_cli_constant_pair_needs_a_position_sensor(tmp_path, capsys):
    text = "[cluster c]\n[sensor s]\ncluster = c\nsource = constant 3 4\n"
    with pytest.raises(ScenarioError, match="^sensor s: constant source takes one value$"):
        parse_scenario(text)            # refused before any Simulation is built
    parse_scenario(text + "kind = position\n")
    bad = tmp_path / "bad.scn"
    bad.write_text(text)
    assert main(["--scenario", str(bad)]) == 1
    assert capsys.readouterr().err == "error: sensor s: constant source takes one value\n"
