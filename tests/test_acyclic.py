"""No command leaves a reference cycle behind.

``cli.main`` runs every command with the cyclic garbage collector paused.
That is safe only while nothing a command builds is ever in a cycle, so
that reference counting frees all of it. Each test here runs one command
body with the collector off, then collects once under ``DEBUG_SAVEALL``
and looks at what the collection found. It may hold only the standard
library's own cycles, a fixed number per run (the pure-Python encoder
behind ``json.dumps(indent=2)`` leaves some), and never an instance of a
class, a function or a frame of ``v6ready``. Each case runs on a small and
a larger input, which must leave the same count: garbage that grows with
the input would pile up unbounded while the collector is paused.
"""

from __future__ import annotations

import contextlib
import gc
import gzip
import io
import json
import types
from pathlib import Path

import pytest

from universes import healthy_zone, root_fixture
from v6ready import cli
from v6ready.mocknet import (
    BLACKHOLE_V6,
    DROP_AAAA_GLUE,
    FORMERR_ON_EDNS,
    TRUNCATE_UDP,
    LoopbackServer,
    build_universe,
    fixture_tuples,
    random_universe,
)
from v6ready.query import TransportTimeout

PACKAGE = Path(cli.__file__).resolve().parent
FAST = ["--timeout", "0.2", "--tcp-timeout", "0.2", "--retry-wait", "0", "--seed", "1"]
TOO_DEEP = "a." * 32 + "t"  # one zone cut more than a chain may pass
SIZES = (1, 4)  # a small and a larger input


def cyclic_garbage(run) -> list:
    """What a full collection finds after ``run()``, run with the
    collector off."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def _from_v6ready(obj) -> bool:
    if isinstance(obj, types.FunctionType):
        module = obj.__module__ or ""
    elif isinstance(obj, types.FrameType):
        return Path(obj.f_code.co_filename).resolve().parent == PACKAGE
    else:
        module = type(obj).__module__
    return module.split(".")[0] == "v6ready"


# the cycles one ``json.dumps(indent=2)`` leaves, on this interpreter
JSON_INDENT_GARBAGE = len(cyclic_garbage(
    lambda: json.dumps({"a": [1, {"b": None}]}, indent=2, sort_keys=True)))


def assert_acyclic(case, tmp_path, indent_dumps: int) -> None:
    """``case(work, size)`` returns a command body to run; it must leave
    the cycles of ``indent_dumps`` indented JSON documents and no more,
    none of them of ``v6ready``."""
    counts = []
    for size in SIZES:
        work = tmp_path / f"size-{size}"
        work.mkdir()
        found = cyclic_garbage(case(work, size))
        assert not [obj for obj in found if _from_v6ready(obj)]
        counts.append(len(found))
    assert counts == [indent_dumps * JSON_INDENT_GARBAGE] * len(SIZES)


def parsed(argv):
    """The parsed command line, its parser's own cycles collected."""
    args = cli.build_parser().parse_args(argv)
    gc.collect()
    return args


def write_hints(work: Path, hints) -> str:
    path = work / "roots.hints"
    path.write_text("".join(f"{name} {proto} {addr}\n" for name, proto, addr in hints))
    return str(path)


# -- check ---------------------------------------------------------------------


def chain(size: int, every=(), leaf=()):
    """A chain of ``size + 1`` zones below the root, ``t`` at the top; the
    deepest is the target. ``every`` defects go on each zone, ``leaf``
    defects on the target."""
    zones = ["t"]
    for _ in range(size):
        zones.append("a." + zones[-1])
    fixtures = [root_fixture()]
    for n, zone in enumerate(zones, 10):
        defects = set(every) | (set(leaf) if zone == zones[-1] else set())
        fixtures.append(healthy_zone(zone, n, defects=defects))
    return build_universe(fixtures), zones[-1]


def check_case(expect_rc: int, *flags, every=(), leaf=(), target=None):
    def case(work, size):
        universe, deepest = chain(size, every, leaf)
        args = parsed(["check", target or deepest,
                       "--roots", write_hints(work, universe.root_hints()), *flags, *FAST])
        return lambda: _expect(expect_rc, cli.cmd_check(args, lambda cfg: universe))
    return case


def _expect(want: int, rc: int) -> None:
    assert rc == want


@pytest.mark.parametrize("case, indent_dumps", [
    (check_case(0), 0),
    (check_case(0, "--format", "structured"), 1),
    (check_case(1, leaf={DROP_AAAA_GLUE}), 0),
    (check_case(1, "--format", "structured", leaf={DROP_AAAA_GLUE}), 1),
    (check_case(0, every={TRUNCATE_UDP}), 0),
    (check_case(0, every={FORMERR_ON_EDNS}), 0),
    (check_case(1, leaf={BLACKHOLE_V6}), 0),
    (check_case(2, target=TOO_DEEP), 0),
], ids=["healthy", "healthy-structured", "broken", "broken-structured",
        "tc-to-tcp", "edns-downgrade", "blackholed-with-liveness", "depth-limit"])
def test_check_leaves_no_cycles(tmp_path, case, indent_dumps):
    assert_acyclic(case, tmp_path, indent_dumps)


def test_a_second_main_call_leaves_only_its_indented_json(tmp_path):
    # The first call builds the parser, which stays for the calls after
    # it; a parser built per call used to leave its own cycles each time.
    universe, target = chain(1)
    argv = ["check", target, "--format", "structured",
            "--roots", write_hints(tmp_path, universe.root_hints()), *FAST]

    def run():
        _expect(0, cli.main(argv, lambda cfg: universe))

    run()
    found = cyclic_garbage(run)
    assert not [obj for obj in found if _from_v6ready(obj)]
    assert len(found) == JSON_INDENT_GARBAGE


class Dead:
    def exchange(self, server, transport, payload, timeout):
        raise TransportTimeout("dead")


def test_check_with_unreachable_roots_leaves_no_cycles(tmp_path):
    def case(work, size):
        hints = [(f"r{i}.root", "v4", f"192.0.2.{i + 1}") for i in range(size)]
        args = parsed(["check", "d.t", "--roots", write_hints(work, hints),
                       "--retries", "1", *FAST])
        return lambda: _expect(2, cli.cmd_check(args, lambda cfg: Dead()))

    assert_acyclic(case, tmp_path, 0)


def test_check_over_loopback_sockets_leaves_no_cycles(tmp_path):
    # the real UdpTcpTransport; the servers truncate UDP, so TCP is used too
    def case(work, size):
        universe, target = chain(size, leaf={TRUNCATE_UDP})
        server = LoopbackServer(universe)
        hints = work / "loop.hints"
        hints.write_text(server.root_hints_text())
        args = parsed(["check", target, "--roots", str(hints), "--port", str(server.port),
                       "--timeout", "1.0", "--tcp-timeout", "1.0", "--retry-wait", "0",
                       "--retries", "2", "--seed", "1"])

        def run():
            with server:
                _expect(0, cli.cmd_check(args))
        return run

    assert_acyclic(case, tmp_path, 0)


def test_check_against_a_closed_port_leaves_no_cycles(tmp_path):
    def case(work, size):
        hints = [(f"r{i}.root", "v4", f"127.0.0.{i + 1}") for i in range(size)]
        args = parsed(["check", "d.t", "--roots", write_hints(work, hints), "--port", "1",
                       "--timeout", "0.2", "--tcp-timeout", "0.2", "--retry-wait", "0",
                       "--retries", "1", "--seed", "1"])
        return lambda: _expect(2, cli.cmd_check(args))

    assert_acyclic(case, tmp_path, 0)


# -- scan ------------------------------------------------------------------------


def scan_case(concurrency: int, extra=(), resume=False):
    def case(work, size):
        universe, truth = random_universe(seed=3, size=20 * size)
        names = [str(zone) for zone in sorted(truth)]
        names[len(names) // 2:len(names) // 2] = extra
        domains = work / "domains.txt"
        domains.write_text("\n".join(names) + "\n", encoding="utf-8")
        out = work / "results.jsonl"
        args = parsed(["scan", str(domains), "--roots", write_hints(work, universe.root_hints()),
                       "--output", str(out), "--concurrency", str(concurrency), *FAST])
        if resume:  # a first run that stopped halfway
            domains.write_text("\n".join(names[:len(names) // 2]) + "\n")
            assert cli.cmd_scan(args, lambda cfg: universe) == 0
            domains.write_text("\n".join(names) + "\n", encoding="utf-8")

        def run():
            _expect(0, cli.cmd_scan(args, lambda cfg: universe))
            assert len(out.read_text().splitlines()) == len(names)
        return run
    return case


@pytest.mark.parametrize("case", [
    scan_case(1),
    scan_case(2),
    scan_case(1, extra=[TOO_DEEP, "bad..name", "例え.jp"]),
    scan_case(2, resume=True),
], ids=["concurrency-1", "concurrency-2", "error-rows", "resume"])
def test_scan_leaves_no_cycles(tmp_path, case):
    assert_acyclic(case, tmp_path, 0)


# -- simulate -----------------------------------------------------------------------

PSL = "z0\nz1.z0\n*.z2\n!z3.z2\n// ===BEGIN PRIVATE DOMAINS===\nz4.z0\n"
MALFORMED = ["1\t2\t3\tx.com\tNS", "0\t1\t2\tx.com\tNS\tcom\tns1.x.com",
             "1\t1\t2\tx.com\tBOGUS\tcom\tns1.x.com", '{"count": 1, "rrname": ']


def tuple_lines(size: int, form: str) -> list[str]:
    universe, _truth = random_universe(seed=5, size=20 * size)
    lines = []
    for t in fixture_tuples(universe):
        if form == "tsv":
            lines.append(f"{t.count}\t{t.time_first}\t{t.time_last}\t{t.rrname}\t"
                         f"{t.rrtype}\t{t.bailiwick}\t{','.join(t.rdata)}")
        else:
            lines.append(json.dumps({
                "count": t.count, "time_first": t.time_first, "time_last": t.time_last,
                "rrname": str(t.rrname), "rrtype": str(t.rrtype),
                "bailiwick": str(t.bailiwick), "rdata": list(t.rdata)}))
    return lines


def simulate_case(form="tsv", malformed=False, damaged=False, side=(), toplist_header=False,
                  runs=1):
    def case(work, size):
        lines = tuple_lines(size, form)
        if malformed:
            for i, bad in enumerate(MALFORMED * size):
                lines.insert(1 + 7 * i, bad)
        data = ("\n".join(lines) + "\n").encode()
        if form == "jsonl":
            data = gzip.compress(data, mtime=0)
            if damaged:
                data = data[:len(data) // 2]
        path = work / ("tuples.jsonl.gz" if form == "jsonl" else "tuples.tsv")
        path.write_bytes(data)
        argv = ["simulate", str(path), "--month", "2023-01", "--out", str(work / "out")]
        if "psl" in side:
            (work / "psl.dat").write_text(PSL)
            (work / "tlds.txt").write_text("z0\nz1\nz2\n")
            rows = [f"{10 * i + 1},z{i}.z0" for i in range(30 * size)]
            if toplist_header:  # not a plain rank,name row: read row by row
                rows.insert(0, "rank,domain")
            (work / "toplist.csv").write_text("\n".join(rows) + "\n")
            argv += ["--psl", str(work / "psl.dat"), "--tlds", str(work / "tlds.txt"),
                     "--toplist", str(work / "toplist.csv")]
        if "rules" in side:
            (work / "rules.txt").write_text("\\.z0$ zero\n^ns0- first\n")
            argv += ["--operator-rules", str(work / "rules.txt")]
        args = parsed(argv)

        def run():
            for _ in range(runs):
                _expect(0, cli.cmd_simulate(args))
        return run
    return case


@pytest.mark.parametrize("case", [
    simulate_case("tsv"),
    simulate_case("jsonl"),
    simulate_case("tsv", malformed=True),
    simulate_case("jsonl", malformed=True, damaged=True),
    simulate_case("tsv", side={"psl"}),
    simulate_case("tsv", side={"psl"}, toplist_header=True),
    simulate_case("jsonl", side={"psl", "rules"}),
], ids=["tsv", "jsonl-gz", "malformed-lines", "damaged-gzip", "toplist-columns",
        "toplist-per-row", "operator-rules"])
def test_simulate_leaves_no_cycles(tmp_path, case):
    assert_acyclic(case, tmp_path, 1)  # stats.json is indented JSON


def test_simulate_twice_with_every_side_file_leaves_no_cycles(tmp_path):
    # the second call takes every side file's parse from the first
    assert_acyclic(simulate_case("tsv", side={"psl", "rules"}, runs=2), tmp_path, 2)
