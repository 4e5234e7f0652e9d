"""Interactive shell and script runner over a running simulation.

The shell is the human-facing client: mount/ls/cat/write against any
server in the simulation, plus view construction, query planning and
alerting.  It drives the virtual clock explicitly (`tick`), so nothing
progresses between commands.  Scripts replay command sequences with
expected-output blocks for regression runs.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import views
from .client import ClientError
from .fscore import FsError
from .scenario import ScenarioError, load_scenario_file
from .views import (
    NamespaceTable, PlanError, dir_entries, execute_plan, plan_query, raise_alert,
)
from .wire import DMDIR

PROMPT = "sensefs> "


class CommandError(Exception):
    pass


def _mode_text(mode: int) -> str:
    out = ["d" if mode & DMDIR else "-"]
    for shift in (6, 3, 0):
        bits = (mode >> shift) & 7
        out.append("r" if bits & 4 else "-")
        out.append("w" if bits & 2 else "-")
        out.append("x" if bits & 1 else "-")
    return "".join(out)


def _number(text: str, usage: str, conv=float):
    """text as a number through conv, else the CommandError usage."""
    try:
        return conv(text)
    except ValueError:
        raise CommandError(usage) from None


class Shell:
    def __init__(self, sim, user="admin"):
        self.sim = sim
        self.client = sim.new_client(user)
        self.table = NamespaceTable()
        self.cwd = "/"

    # -- command dispatch ------------------------------------------------

    def execute(self, line: str) -> str:
        line = line.strip()
        if not line or line.startswith("#"):
            return ""
        parts = line.split()
        cmd, args = parts[0], parts[1:]
        handler = getattr(self, "cmd_" + cmd.replace("-", "_"), None)
        if handler is None:
            raise CommandError("unknown command %r" % cmd)
        return handler(args) or ""

    def cmd_help(self, args):
        return ("commands: mount ls cd pwd cat write stat groups view plan "
                "alert tick seed log help exit")

    def cmd_mount(self, args):
        if len(args) != 2:
            raise CommandError("usage: mount <server> <path>")
        server, path = args[0], views.norm_path(args[1], self.cwd)
        name = server[5:] if server.startswith("/dev/") else server
        if name == "network":
            for cluster, head in self.sim.cfg.clusters.items():
                self._mount("%s/%s" % (path, cluster), ("net", head))
            return ""
        if name in self.sim.net.handlers:
            self._mount(path, ("net", name))
            return ""
        raise CommandError("no such server %r" % server)

    def _mount(self, path, ref):
        """Mount ref at path.  The client keeps its Conn to a local server while
        a mount names it, and to a net server for good (a head's kept ctl fids)."""
        self.table.mount(path, ref)
        self.client.keep([ref for _, ref in self.table.mounts])

    def cmd_ls(self, args):
        long = "-l" in args
        args = [a for a in args if a != "-l"]
        if len(args) > 1:
            raise CommandError("usage: ls [-l] [path]")
        path = views.norm_path(args[0], self.cwd) if args else self.cwd
        entries = dir_entries(self.client, self.table, path)
        if not long:
            return "\n".join(entries)
        return "\n".join(
            "dr-xr-xr-x - 0 %s" % name if st is None else
            "%s %s %d %s" % (_mode_text(st.mode), st.owner, st.length, name)
            for name, st in entries.items())

    def cmd_cd(self, args):
        if len(args) > 1:
            raise CommandError("usage: cd [path]")
        path = views.norm_path(args[0], self.cwd) if args else "/"
        if path != "/" and not self.table.mount_children(path):
            try:                # a directory only the server knows: ask it
                ref, rel = self.table.resolve(path)
                isdir = self.client.stat(ref, rel).mode & DMDIR
            except ClientError:
                isdir = 0
            if not isdir:
                raise CommandError("no such directory %s" % path)
        self.cwd = path
        return ""

    def cmd_pwd(self, args):
        return self.cwd

    def cmd_cat(self, args):
        if len(args) != 1:
            raise CommandError("usage: cat <path>")
        ref, rel = self.table.resolve(views.norm_path(args[0], self.cwd))
        return self.client.read(ref, rel).decode(errors="replace").rstrip("\n")

    def cmd_write(self, args):
        if len(args) < 2:
            raise CommandError("usage: write <path> <text>")
        ref, rel = self.table.resolve(views.norm_path(args[0], self.cwd))
        self.client.write(ref, rel, " ".join(args[1:]).encode())
        return ""

    def cmd_stat(self, args):
        if len(args) != 1:
            raise CommandError("usage: stat <path>")
        ref, rel = self.table.resolve(views.norm_path(args[0], self.cwd))
        st = self.client.stat(ref, rel)
        return "%s %s %s %d %s" % (st.name, _mode_text(st.mode), st.owner,
                                   st.length, st.group)

    def cmd_groups(self, args):
        if not args:
            raise CommandError("usage: groups <cluster>")
        base = views.norm_path("%s/%s/groups" % (views.NETWORK, args[0]))
        lines = []
        for group in dir_entries(self.client, self.table, base):
            members = dir_entries(self.client, self.table, base + "/" + group)
            lines.append("%s: %s" % (group, " ".join(members)))
        return "\n".join(lines)

    def cmd_view(self, args):
        usage = ("usage: view build <structural | location [CELL] | logical [TAG] | "
                 "resource [LOW HIGH]>")
        if len(args) < 2 or args[0] != "build":
            raise CommandError(usage)
        kind, extra = args[1], args[2:]
        most = {"structural": 0, "location": 1, "logical": 1, "resource": 2}.get(kind)
        if most is None:
            raise CommandError("unknown view kind %r" % kind)
        if len(extra) > most:
            raise CommandError(usage)
        cfg = self.sim.cfg
        if kind == "location":
            cell = _number(extra[0], usage) if extra else cfg.view_cell
            if not 0 < cell < math.inf:
                raise CommandError(usage)
            server = views.build_location_view(
                self.client, self.table, cfg.geo, cfg.regions, cell)
            self._mount("/location", ("local", server))
        elif kind == "logical":
            tag = extra[0] if extra else cfg.view_tag
            server = views.build_logical_view(self.client, self.table, tag)
            self._mount("/data", ("local", server))
        elif kind == "resource":
            low = _number(extra[0], usage) if extra else cfg.view_low
            high = _number(extra[1], usage) if len(extra) > 1 else cfg.view_high
            server = views.build_resource_view(self.client, self.table, low, high)
            self._mount("/resource", ("local", server))
        return ""    # structural: the view is the mount itself

    def cmd_plan(self, args):
        usage = "usage: plan <region> <coverage> <aggregation> <rate>"
        if len(args) != 4:
            raise CommandError(usage)
        region, agg = args[0], args[2]
        coverage, rate = _number(args[1], usage, int), _number(args[3], usage, int)
        cfg = self.sim.cfg
        plan = plan_query(self.client, self.table, cfg.regions, region, coverage,
                          aggregation=agg, rate=rate,
                          low_j=cfg.view_low, high_j=cfg.view_high)
        execute_plan(self.client, self.table, plan)
        return plan.render().rstrip("\n")

    def cmd_alert(self, args):
        if not args:
            raise CommandError("usage: alert <text>")
        delivered, failures = raise_alert(self.client, self.table, " ".join(args))
        out = "delivered %d" % delivered
        for name, why in failures:
            out += "\nfailed %s: %s" % (name, why)
        return out

    def cmd_tick(self, args):
        usage = "usage: tick <n>"
        if not args:
            raise CommandError(usage)
        self.sim.net.run_until(self.sim.net.now + _number(args[0], usage, int))
        return ""

    def cmd_seed(self, args):
        return str(self.sim.cfg.seed)

    def cmd_log(self, args):
        if args:
            self.sim.net.log.write(args[0])
            return ""
        return self.sim.net.log.text().rstrip("\n")

    def cmd_exit(self, args):
        raise EOFError

    def run_line(self, line: str):
        """Execute one line; returns (status, output text)."""
        try:
            return 0, self.execute(line)
        except (ClientError, FsError) as e:
            return 1, "error: %s" % (e.ename,)
        except (CommandError, PlanError, ValueError, OSError) as e:   # OSError: log FILE
            return 1, "error: %s" % (e,)


def run_script(shell: Shell, text: str, out=None):
    """Replay a script; returns (exit code, report text)."""
    lines = text.splitlines()
    failures = []
    i = 0
    while i < len(lines):
        raw = lines[i].rstrip()
        i += 1
        if not raw or raw.startswith("#"):
            continue
        if not raw.startswith(">"):
            failures.append("line %d: expected '> command', got %r" % (i, raw))
            break
        command = raw[1:].strip()
        lineno = i
        expected = []
        # comments end at the first command; inside an expected block a
        # leading '#' is literal output (aggregate trailers look like that)
        while i < len(lines) and lines[i].strip() and not lines[i].startswith(">"):
            expected.append(lines[i].rstrip())
            i += 1
        status, output = shell.run_line(command)
        if out is not None:
            out.write("%s%s\n" % (PROMPT, command))
            if output:
                out.write(output + "\n")
        got = [l.rstrip() for l in output.splitlines()] if output else []
        if expected and got != expected:
            failures.append("line %d: `%s`\n  expected: %r\n  got:      %r"
                            % (lineno, command, expected, got))
        elif not expected and status != 0:
            failures.append("line %d: `%s` failed: %s" % (lineno, command, output))
    if failures:
        return 2, "FAIL\n" + "\n".join(failures)
    return 0, "PASS"


def repl(shell: Shell, stdin=None, stdout=None):
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    while True:
        stdout.write(PROMPT)
        stdout.flush()
        line = stdin.readline()
        if not line:
            break
        try:
            status, output = shell.run_line(line)
        except EOFError:
            break
        if output:
            stdout.write(output + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sensefs",
        description="File-system shell over a simulated sensor network.")
    parser.add_argument("--scenario", required=True, help="scenario file (*.scn)")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed override")
    parser.add_argument("--script", help="script to replay instead of the REPL")
    parser.add_argument("--log", help="write the event log to this file on exit")
    parser.add_argument("--user", default="admin")
    args = parser.parse_args(argv)

    try:
        sim = load_scenario_file(args.scenario, seed=args.seed)
        if args.script:
            with open(args.script) as fh:
                script = fh.read()
    except (ScenarioError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    sim.start()
    shell = Shell(sim, user=args.user)

    code = 0
    if args.script:
        code, report = run_script(shell, script, out=sys.stdout)
        print(report)
    else:
        repl(shell)
    if args.log:
        try:
            sim.net.log.write(args.log)
        except OSError as e:
            print("error: %s" % e, file=sys.stderr)
            return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
