"""The three workloads: set-up, one round of program calls, and the checks.

A round is a fixed list of calls into ``v6ready.cli.main``; every call is
an operation, timed in CPU seconds of this process, and its outputs are
checked before the next call starts (outside the timed region).
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import checks

# The machine's speed drifts by up to a third over seconds, as other
# tenants load the cores; process CPU time drifts with it. A fixed
# pure-Python reference loop, sampled about every PROBE_EVERY CPU seconds
# between and within the program's calls, measures that drift, and each
# round's CPU times are rescaled to REFERENCE_S per reference loop.
PROBE_EVERY = 0.1
REFERENCE_S = 0.004

MODULES = ("names", "records", "wire", "query", "resolver", "classify",
           "passive", "analytics", "psl", "mocknet", "cli")
# Flags that make timeouts cost no wall time; the attempts still happen.
FAST = ["--retry-wait", "0", "--timeout", "0.2", "--tcp-timeout", "0.2",
        "--seed", "1"]


@dataclass
class Op:
    cpu_s: float
    items: int
    attempted: int = 1
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    net: Counter = field(default_factory=Counter)  # from the packet log


_TABLE = {("k%d" % i, i & 7): i for i in range(512)}
_KEYS = list(_TABLE)


def _reference() -> int:
    """Dict lookups, tuple hashing and integer work; allocates almost
    nothing, so no garbage collection of the program's heap lands in it."""
    table, keys, total = _TABLE, _KEYS, 0
    for _ in range(60):
        for key in keys:
            total += table[key] ^ len(key[0])
    return total


class SpeedProbe:
    """Times the reference loop; ``spent`` is the CPU time it used."""

    def __init__(self, every: float = PROBE_EVERY):
        self.every = every
        self.samples: list[float] = []
        self.spent = 0.0
        self.last = time.process_time()
        self.round_scales: list[float] = []
        self._round_start = 0

    def sample(self) -> None:
        start = time.process_time()
        _reference()
        self.last = time.process_time()
        self.samples.append(self.last - start)
        self.spent += self.last - start

    def tick(self) -> None:
        if time.process_time() - self.last >= self.every:
            self.sample()

    def start_round(self) -> None:
        self._round_start = len(self.samples)

    def end_round(self) -> None:
        """Sample once more and keep the round's factor from its CPU
        seconds to reference-speed seconds."""
        self.sample()
        round_samples = self.samples[self._round_start:]
        self.round_scales.append(REFERENCE_S / statistics.mean(round_samples))


class ProbedTransport:
    """The Universe as the program's transport, probing speed as it goes."""

    def __init__(self, universe, probe: SpeedProbe):
        self.universe, self.probe = universe, probe

    def exchange(self, *args):
        self.probe.tick()
        return self.universe.exchange(*args)


def import_v6ready() -> dict:
    """Import every v6ready module afresh; returns short name -> module."""
    for name in [n for n in sys.modules if n == "v6ready" or n.startswith("v6ready.")]:
        del sys.modules[name]
    return {m: importlib.import_module(f"v6ready.{m}") for m in MODULES}


def quiet_main(cli, argv, probe: SpeedProbe, transport_factory=None) -> tuple[int, str, float]:
    """Run the command line with stdout captured; returns (rc, stdout, cpu s)
    where the CPU time leaves out the probe's own."""
    probe.tick()
    buf = io.StringIO()
    spent = probe.spent
    with contextlib.redirect_stdout(buf):
        start = time.process_time()
        rc = cli.main(argv, transport_factory=transport_factory)
        cpu = time.process_time() - start
    return rc, buf.getvalue(), cpu - (probe.spent - spent)


class PassiveMonthly:
    """``simulate`` once per monthly snapshot, with PSL, TLDs and toplist."""

    def __init__(self, inputs: Path, manifest: dict, work: Path, probe: SpeedProbe):
        self.inputs, self.manifest, self.work, self.probe = inputs, manifest, work, probe
        self.items_per_round = sum(m["tuples"] for m in manifest["months"])

    def setup(self, v6: dict) -> None:
        v6["psl"].PublicSuffixList.load(self.inputs / self.manifest["psl"])
        v6["analytics"].load_tld_list(self.inputs / self.manifest["tlds"])
        v6["analytics"].load_toplist(self.inputs / self.manifest["toplist"])

    def argv(self, month: dict) -> list[str]:
        inp = self.inputs
        return ["simulate", str(inp / month["file"]),
                "--psl", str(inp / self.manifest["psl"]),
                "--tlds", str(inp / self.manifest["tlds"]),
                "--toplist", str(inp / self.manifest["toplist"]),
                "--month", month["month"], "--out", str(self.work / "simulate")]

    def round(self, v6: dict) -> list[Op]:
        ops = []
        for month in self.manifest["months"]:
            gc.collect()  # every month starts from the same heap state
            rc, _out, cpu = quiet_main(v6["cli"], self.argv(month), self.probe)
            problems = [f"simulate {month['month']}: exit {rc}"] if rc else []
            problems += checks.check_month(self.work / "simulate", month)
            ops.append(Op(cpu, month["tuples"], problems=problems))
        return ops


class _Active:
    """Shared set-up of the mocknet workloads: fixtures into a Universe."""

    def __init__(self, inputs: Path, manifest: dict, work: Path, probe: SpeedProbe):
        self.inputs, self.manifest, self.work, self.probe = inputs, manifest, work, probe
        self.universe = None

    def setup(self, v6: dict) -> None:
        mocknet = v6["mocknet"]
        fixtures = mocknet.load_fixtures(self.inputs / self.manifest["fixtures"])
        self.universe = mocknet.build_universe(fixtures)

    def fresh_log(self, v6: dict) -> Counter:
        """Give the universe an empty packet log; count what the old one
        holds: exchanges by transport, timeouts and EDNS downgrades."""
        entries = self.universe.log.entries
        self.universe.log = v6["mocknet"].PacketLog()
        known = self.universe.address_name
        net: Counter = Counter()
        downgraded = set()
        for i, e in enumerate(entries):
            if e.direction != "query":
                continue
            net["exchanges"] += 1
            net[e.transport] += 1
            if e.message.edns is None:
                q = e.message.question
                downgraded.add((e.address, q.qname, q.qtype))
            reply = entries[i + 1] if i + 1 < len(entries) else None
            if reply is None or reply.direction != "response":
                net["timeouts" if e.address in known else "unreachable"] += 1
        net["edns_downgrades"] = len(downgraded)
        return net

    def transport(self, _cfg):
        return ProbedTransport(self.universe, self.probe)


class ScanWarm(_Active):
    """One ``scan`` over every zone: one resolver and one shared cache."""

    def __init__(self, inputs: Path, manifest: dict, work: Path, probe: SpeedProbe):
        super().__init__(inputs, manifest, work, probe)
        self.items_per_round = len(manifest["truth"])
        self.output = work / "scan.jsonl"

    def round(self, v6: dict) -> list[Op]:
        self.output.unlink(missing_ok=True)
        self.fresh_log(v6)
        argv = ["scan", str(self.inputs / self.manifest["list"]),
                "--output", str(self.output), "--concurrency", "1",
                "--roots", str(self.inputs / self.manifest["roots"]), *FAST]
        rc, _out, cpu = quiet_main(v6["cli"], argv, self.probe, self.transport)
        with open(self.output, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        problems = [f"scan: exit {rc}"] if rc else []
        problems += checks.check_scan_rows(rows, self.manifest["truth"])
        n = len(self.manifest["truth"])
        return [Op(cpu, n, attempted=n, problems=problems, net=self.fresh_log(v6))]


class CheckCold(_Active):
    """``check --format structured`` per target: a fresh engine and cache
    each, with enrichment and liveness probes."""

    def __init__(self, inputs: Path, manifest: dict, work: Path, probe: SpeedProbe):
        super().__init__(inputs, manifest, work, probe)
        self.items_per_round = len(manifest["targets"])
        self.blackholed = {p: set(a) for p, a in manifest["blackholed"].items()}
        self.fault_targets = set(manifest["fault_targets"])

    def round(self, v6: dict) -> list[Op]:
        ops = []
        roots = str(self.inputs / self.manifest["roots"])
        for target in self.manifest["targets"]:
            self.fresh_log(v6)
            argv = ["check", target, "--format", "structured", "--roots", roots, *FAST]
            rc, out, cpu = quiet_main(v6["cli"], argv, self.probe, self.transport)
            doc = json.loads(out) if rc in (0, 1) else None
            truth = self.manifest["truth"][target]
            # The known fault: below a zone that never answers over IPv6 the
            # resolver checks only the target's own servers and reports IPv6
            # success. Such a call counts as failed; all else must be right.
            fault = (target in self.fault_targets and doc is not None
                     and doc["v6_resolvable"] and not truth[1])
            expect = [truth[0], True] if fault else truth
            problems = checks.check_check(target, rc, doc, expect, self.blackholed)
            ops.append(Op(cpu, 1, failed=int(fault), problems=problems,
                          net=self.fresh_log(v6)))
        return ops


WORKLOADS = {"passive-monthly": PassiveMonthly, "scan-warm": ScanWarm,
             "check-cold": CheckCold}
