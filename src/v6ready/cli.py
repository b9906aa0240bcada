"""Operator-facing commands: single-domain check, bulk scan, and passive
simulation over tuple files.

Every flag but ``--help`` and ``simulate --month`` and ``--out`` can also
be supplied through an environment variable with the ``V6READY_`` prefix
(``V6READY_ROOTS``, ``V6READY_TIMEOUT``, ...). ``main`` reads the
environment on every call and hands each set variable to argparse as the
flag it stands for, so one set of checks holds for both; explicit flags
win. Exit codes for ``check``: 0 = resolvable in an IPv6-only
environment, 1 = not, 2 = operational error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import json
import os
import random
import sys
import threading
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import INPUT_ENCODING
from .analytics import (
    cause_share_rows,
    cdf_rows,
    nsset_cdf,
    parse_operator_rules,
    parse_tld_list,
    parse_toplist,
    state_share_rows,
    write_csv,
)
from .classify import STATES
from .names import DnsNameError, DomainName, normalize
from .passive import (
    IngestStats,
    classify_zones,
    fixed_point,
    ingest,
    open_tuple_stream,
    snapshot_stats,
    write_verdicts,
)
from .psl import PublicSuffixList
from .query import QueryEngine, QueryPolicy, ResponseCache, UdpTcpTransport
from .records import ascii_int
from .resolver import (
    CHAIN_RESULT_VERSION,
    DepthLimitExceeded,
    PROTOCOL_BOTH,
    PROTOCOL_V4_ONLY,
    PROTOCOL_V6_ONLY,
    Resolver,
    RootUnreachable,
    load_root_hints,
)

EXIT_OK = 0
EXIT_NOT_V6 = 1
EXIT_ERROR = 2

ENV_PREFIX = "V6READY_"
NO_VARIABLE = ("--help", "--month", "--out")  # the flags with no V6READY_* variable
# what argparse reads as the help flag: no other flag starts with --h
HELP = frozenset(["-h", "--h", "--he", "--hel", "--help"])
FORMATS = ("text", "structured")


def _settings(args) -> tuple[list[tuple[DomainName, str, str]] | None, str, QueryPolicy]:
    """The root hints (None for the default), protocol filter and query policy
    of a ``check`` or ``scan`` command line. The first setting out of its range,
    in the order of the README's settings table, is a ValueError; the query
    settings are checked by ``QueryPolicy``."""
    if args.v4_only and args.v6_only:
        raise ValueError("--v4-only and --v6-only are mutually exclusive")
    try:
        roots = None if args.roots is None else load_root_hints(args.roots)
    except (OSError, ValueError) as exc:
        raise ValueError(f"--roots {args.roots}: {exc}") from None
    policy = QueryPolicy(max_retries=args.retries, retry_wait=args.retry_wait,
                         udp_timeout=args.timeout, tcp_timeout=args.tcp_timeout)
    if getattr(args, "concurrency", 1) < 1:
        raise ValueError("--concurrency must be >= 1")
    protocol_filter = (PROTOCOL_V4_ONLY if args.v4_only else
                       PROTOCOL_V6_ONLY if args.v6_only else PROTOCOL_BOTH)
    return roots, protocol_filter, policy


def _build_resolver(args, settings, transport,
                    cache: ResponseCache | None = None) -> Resolver:
    """A resolver with ``_settings(args)``; a seed of None seeds from the OS."""
    roots, protocol_filter, policy = settings
    engine = QueryEngine(transport, policy=policy, cache=cache,
                         rng=random.Random(args.seed))
    return Resolver(engine, root_hints=roots, protocol_filter=protocol_filter)


# -- check ---------------------------------------------------------------------


def _render_check_text(result) -> str:
    lines = [f"target: {result.target}"]
    lines.append(
        f"state: {result.state} (v4 {'yes' if result.v4_resolvable else 'NO'}, "
        f"v6 {'yes' if result.v6_resolvable else 'NO'})"
    )
    lines.append(f"ipv6 intent: {'yes' if result.status.intent_v6 else 'no'}")
    if result.status.v6_failures:
        lines.append("ipv6 failure causes:")
        for cause, witnesses in result.status.cause_witnesses.items():
            lines.append(f"  {cause}: {', '.join(witnesses) or '-'}")
    if result.steps:
        lines.append("delegation chain:")
        for step in result.steps:
            parent_ns = ", ".join(sorted(str(n) for n in step.parent_ns_set))
            lines.append(f"  {step.zone} [{step.status.state}] parent NS: {parent_ns}")
            if step.child_ns_set is not None and step.child_ns_set != step.parent_ns_set:
                child_ns = ", ".join(sorted(str(n) for n in step.child_ns_set))
                lines.append(f"    child NS: {child_ns}")
    if result.liveness:
        lines.append("nameserver liveness:")
        for addr, proto, verdict in result.liveness:
            lines.append(f"  {addr} {proto} {verdict}")
    return "\n".join(lines)


def cmd_check(args, transport_factory=None) -> int:
    try:
        settings = _settings(args)
        target = normalize(args.domain)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    transport = transport_factory(args) if transport_factory else UdpTcpTransport()
    resolver = _build_resolver(args, settings, transport)
    try:
        result = resolver.resolve_chain(target, enrich_result=True, probe_liveness=True)
    except (RootUnreachable, DepthLimitExceeded, DnsNameError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(json.dumps(result.to_json_dict(), sort_keys=True, indent=2)
          if args.format == "structured" else _render_check_text(result))
    return EXIT_OK if result.v6_resolvable else EXIT_NOT_V6


# -- scan ---------------------------------------------------------------------


def _parse_domain_list(path: str) -> list[tuple[str, int | None]]:
    """One domain per line, or rank,domain CSV rows."""
    out = []
    for raw in Path(path).read_text(encoding=INPUT_ENCODING).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "," in line:
            rank_text, domain = line.split(",", 1)
            out.append((domain.strip(), ascii_int(rank_text.strip())))
        else:
            out.append((line, None))
    return out


def _scanned_domains(out_path: Path) -> set[str]:
    """The ``domain`` of every complete row in ``out_path``, the scan's
    journal, read one line at a time. A last line without its newline is a
    torn write: it is cut off, so its domain is scanned again. Any other
    line that is not a row, or is a row of another chain-result version
    (built under other rules), is a ValueError, raised before the file is
    touched."""
    done: set[str] = set()
    if not out_path.exists():
        return done
    with open(out_path, "r+b") as fh:
        end = 0  # where the last complete line ends
        for number, line in enumerate(fh, 1):
            if not line.endswith(b"\n"):
                fh.truncate(end)
                break
            try:
                row = json.loads(line)
            except ValueError:
                row = None
            if not isinstance(row, dict) or not isinstance(row.get("domain"), str):
                raise ValueError(f"{out_path}:{number}: not a scan row")
            if row.get("version", CHAIN_RESULT_VERSION) != CHAIN_RESULT_VERSION:
                raise ValueError(f"{out_path}:{number}: a row of version {row['version']!r}")
            done.add(row["domain"])
            end += len(line)
    return done


# Domains each worker may run ahead of the oldest unwritten row, at about
# 4 KB each (a future and its serialized row). A domain whose servers are
# all dead holds back every row after it for minutes under the default
# timeouts, where a live one takes under a second.
SCAN_WINDOW = 1024


def _in_order(pool: ThreadPoolExecutor, fn, items, window: int):
    """``fn`` over ``items`` on ``pool`` in input order, with at most
    ``window`` items submitted and not yet yielded."""
    running: deque = deque()
    for item in items:
        if len(running) == window:
            yield running.popleft().result()
        running.append(pool.submit(fn, item))
    while running:
        yield running.popleft().result()


def cmd_scan(args, transport_factory=None) -> int:
    out_path = Path(args.output) if args.output else Path(args.list + ".results.jsonl")
    try:
        settings = _settings(args)
        domains = _parse_domain_list(args.list)
        completed = _scanned_domains(out_path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    transport = transport_factory(args) if transport_factory else UdpTcpTransport()
    shared_cache = ResponseCache()
    local = threading.local()

    def get_resolver() -> Resolver:
        if not hasattr(local, "resolver"):
            local.resolver = _build_resolver(args, settings, transport, shared_cache)
        return local.resolver

    def work(item) -> tuple[str, str]:
        domain, rank = item
        row = {"domain": domain, "rank": rank, "error": None}
        try:
            result = get_resolver().resolve_chain(domain)
            row.update(result.to_json_dict())
        except (RootUnreachable, DepthLimitExceeded, DnsNameError, OSError) as exc:
            row["error"] = str(exc)
        state = "error" if row["error"] is not None else row["state"]
        return state, json.dumps(row, sort_keys=True) + "\n"

    states: Counter = Counter()
    pending = [(d, r) for d, r in domains if d not in completed]
    skipped = len(domains) - len(pending)
    # workers resolve concurrently; rows land here in input order, so the
    # output writes stay single-threaded
    pool = ThreadPoolExecutor(max_workers=args.concurrency)
    try:
        with open(out_path, "a", encoding="utf-8") as out:
            for state, line in _in_order(pool, work, pending, SCAN_WINDOW * args.concurrency):
                out.write(line)
                out.flush()
                states[state] += 1
    finally:
        # on an interrupt or an error, the domains submitted but not yet
        # started are dropped instead of resolved before the scan stops
        pool.shutdown(cancel_futures=True)
    total = sum(states.values())
    print(f"scanned {total} domains ({skipped} already in the output)")
    for state in (*STATES, "error"):
        if total:
            print(f"  {state:8s} {states[state]:6d}  {100.0 * states[state] / total:6.2f}%")
        else:
            print(f"  {state:8s} {states[state]:6d}")
    print(f"results: {out_path}")
    return EXIT_OK


# -- simulate -------------------------------------------------------------------


# The last parse of each side-file parser, (text, value, rejected lines),
# kept from one ``simulate`` to the next: a run of monthly snapshots reads
# the same PSL, TLD list and toplist every month. An entry is replaced
# whole, so threads running ``simulate`` at once each see one whole parse.
_last_parse: dict = {}


def _side_file(flag: str, path: str | None, parse, rejected: list[str] | None = None):
    """``parse(text)`` of the file at ``path`` (``parse(text, rejected)``
    when ``rejected`` is given), or None without a path. A file that
    cannot be read, is not UTF-8 text or does not parse raises a
    ValueError that names the flag and the path, and is not kept.

    The file is read on every call but parsed only when its text differs
    from the last text given to ``parse``; otherwise the last value is
    returned and its skipped lines are added to ``rejected`` again. The
    value is shared by every call that reads the same text, so it is
    read-only: ``cmd_simulate`` and ``analytics`` never change a
    ``PublicSuffixList``, TLD frozenset, toplist dict or rules tuple.
    """
    if not path:
        return None
    try:
        text = Path(path).read_text(encoding=INPUT_ENCODING)
        last = _last_parse.get(parse)
        if last is None or last[0] != text:
            skipped: list[str] = []
            value = parse(text) if rejected is None else parse(text, skipped)
            last = _last_parse[parse] = (text, value, skipped)
    except (OSError, ValueError, csv.Error) as exc:
        raise ValueError(f"{flag} {path}: {exc}") from None
    if rejected is not None:
        rejected.extend(last[2])
    return last[1]


def _load_name_list(flag: str, path: str | None, parse):
    """``_side_file(flag, path, parse)``; the lines it skips for an invalid
    name are counted in one warning."""
    rejected: list[str] = []
    loaded = _side_file(flag, path, parse, rejected)
    if rejected:
        print(f"warning: {flag} {path}: skipped {len(rejected)} line(s) with an "
              f"invalid name, first {rejected[0]!r}", file=sys.stderr)
    return loaded


def _side_inputs(args):
    """(psl, tlds, toplist, operator rules) from their files."""
    psl = _side_file("--psl", args.psl, PublicSuffixList.parse)
    tlds = _load_name_list("--tlds", args.tlds, parse_tld_list)
    toplist = _load_name_list("--toplist", args.toplist, parse_toplist)
    rules = _side_file("--operator-rules", args.operator_rules, parse_operator_rules) or ()
    return psl, tlds, toplist, rules


def _tuple_files(paths, readable: list):
    """Every readable tuple file in turn, as an open stream of its lines;
    ``readable`` gets each path that opened."""
    for path in paths:
        try:
            stream = open_tuple_stream(path)
        except OSError as exc:
            print(f"warning: cannot read {path}: {exc}", file=sys.stderr)
            continue
        readable.append(path)
        with stream:
            yield stream


def cmd_simulate(args) -> int:
    try:
        psl, tlds, toplist, rules = _side_inputs(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: --out {args.out}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    stats = IngestStats()
    readable: list = []
    result = ingest(_tuple_files(args.tuples, readable), stats)
    if not readable:
        print("error: no tuple file was readable", file=sys.stderr)
        return EXIT_ERROR

    table = fixed_point(result.record_sets)
    statuses = classify_zones(result.record_sets, table)
    snapshot = snapshot_stats(table, statuses, month=args.month)

    doc = snapshot.to_json()
    doc["ingest"] = {
        "tuples": stats.tuples,
        "malformed": stats.malformed,
        "cname_skipped": stats.cname_skipped,
        "orphan_addresses": result.orphan_addresses,
    }
    summary_extra = ""
    try:
        with open(outdir / "verdicts.jsonl", "w", encoding="utf-8") as fh:
            write_verdicts(fh, result.record_sets, statuses)
        (outdir / "stats.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        with open(outdir / "states.csv", "w", newline="", encoding="utf-8") as fh:
            write_csv(fh, state_share_rows(statuses, psl, tlds, toplist))
        with open(outdir / "causes.csv", "w", newline="", encoding="utf-8") as fh:
            write_csv(fh, cause_share_rows(snapshot.breakdown))
        if psl is not None:
            entries = [
                (result.record_sets[zone].all_ns, statuses[zone].v6)
                for zone in statuses
            ]
            cdf = nsset_cdf(entries, psl, rules)
            with open(outdir / "nsset-cdf.csv", "w", newline="", encoding="utf-8") as fh:
                write_csv(fh, cdf_rows(cdf))
            if cdf.zone_count:
                summary_extra = (f", top-10 NS sets cover "
                                 f"{100.0 * cdf.top10_share:.1f}% of non-v6 zones")
    except OSError as exc:
        print(f"error: --out {args.out}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    states = ", ".join(f"{state} {snapshot.states[state]}" for state in STATES)
    print(
        f"zones: {snapshot.total} ({states}; unknown-parent {snapshot.unknown_parent}; "
        f"malformed tuples {stats.malformed}){summary_extra}"
    )
    print(f"outputs in {outdir}")
    return EXIT_OK


# -- argument plumbing --------------------------------------------------------


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--roots", help="root hints file (name protocol address per line)")
    # at most one of them: checked by ``_settings``
    p.add_argument("--v4-only", action="store_true")
    p.add_argument("--v6-only", action="store_true")
    p.add_argument("--timeout", type=float, default=QueryPolicy.udp_timeout,
                   help="UDP timeout seconds")
    p.add_argument("--tcp-timeout", type=float, default=QueryPolicy.tcp_timeout)
    p.add_argument("--retries", type=int, default=QueryPolicy.max_retries,
                   help="attempts per transport path")
    p.add_argument("--retry-wait", type=float, default=QueryPolicy.retry_wait,
                   help="seconds between timeout-driven attempts")
    p.add_argument("--seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="v6ready",
        description="Check whether DNS zones resolve in an IPv6-only world.",
        epilog=f"Every flag but {' and '.join(NO_VARIABLE[1:])} may also be set by its "
               f"{ENV_PREFIX}* variable ({ENV_PREFIX}TCP_TIMEOUT: --tcp-timeout); flags win.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="check one zone or FQDN")
    p_check.add_argument("domain")
    _add_common_flags(p_check)
    p_check.add_argument("--format", choices=FORMATS, default="text")

    p_scan = sub.add_parser("scan", help="scan a domain list (resumable)")
    p_scan.add_argument("list", help="domain-per-line file or rank,domain CSV")
    p_scan.add_argument("--output", help="results JSONL path; domains already in it are skipped")
    p_scan.add_argument("--concurrency", type=int, default=8)
    _add_common_flags(p_scan)

    p_sim = sub.add_parser("simulate", help="passive fixed-point simulation")
    p_sim.add_argument("tuples", nargs="+", help="tuple files (TSV or JSONL, .gz ok)")
    p_sim.add_argument("--psl", help="public suffix list file")
    p_sim.add_argument("--tlds", help="TLD list file")
    p_sim.add_argument("--toplist", help="rank,domain CSV")
    p_sim.add_argument("--operator-rules", help="NS operator collapse patterns (regex label)")
    p_sim.add_argument("--month", help="snapshot tag for stats")
    p_sim.add_argument("--out", default="v6ready-out", help="output directory")

    return parser


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, list[tuple[str, str, bool]]]]:
    """``build_parser()``, built by the first call of ``main`` and shared by
    the later ones (``parse_args`` changes nothing in it), and each
    command's (variable, flag, is a switch) for its flags but NO_VARIABLE."""
    parser = build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    return parser, {
        command: [(ENV_PREFIX + flag[2:].upper().replace("-", "_"), flag, action.nargs == 0)
                  for action in sub._actions for flag in action.option_strings
                  if flag.startswith("--") and flag not in NO_VARIABLE]
        for command, sub in commands.items()}


def _with_environment(argv: list[str]) -> list[str]:
    """``argv`` with each set ``V6READY_*`` variable of its command put in as
    its flag after the command word, before the user's flags, which win:
    ``--flag=VALUE`` (even for a switch), or the bare switch for ``1``. A
    call for the help (before any ``--``) gets none."""
    flags = _parser()[1].get(argv[0]) if argv else None
    if not flags or HELP.intersection(argv[:argv.index("--")] if "--" in argv else argv):
        return argv
    given = [flag if switch and value == "1" else f"{flag}={value}"
             for variable, flag, switch in flags if (value := os.environ.get(variable))]
    return [argv[0], *given, *argv[1:]]


# The collector is one per process, so is the count of the commands that
# paused it: overlapping calls of ``main`` share one pause.
_pause_lock = threading.Lock()
_pauses = 0  # commands running with the collector paused
_was_enabled = False  # the collector's state before the first of them


def _pause_collector() -> None:
    global _pauses, _was_enabled
    with _pause_lock:
        if not _pauses:
            _was_enabled = gc.isenabled()
            gc.disable()
        _pauses += 1


def _resume_collector() -> None:
    """Put the collector back as it was before the first of the
    overlapping pauses, once the last of them ends."""
    global _pauses
    with _pause_lock:
        _pauses -= 1
        if not _pauses and _was_enabled:
            gc.enable()


def main(argv=None, transport_factory=None) -> int:
    """Run one command line; returns its exit code.

    The command runs with the cyclic garbage collector paused, ``scan``'s
    worker threads included. Nothing a command builds is ever in a
    reference cycle (``tests/test_acyclic.py``), so reference counting
    frees it all, and the collections would only walk the long-lived
    record sets, caches and memos again and again. The collector is put
    back as the caller had it when the command returns or raises. The
    library API (``Resolver``, ``ingest``, ``fixed_point``, ...) leaves the
    host process's policy alone.

    Each call reads the environment: every set ``V6READY_*`` variable of
    the command is parsed as the flag it stands for (``_with_environment``)
    by the one parser, built by the first call. A command line that fails
    to parse returns 2 after argparse prints the usage and the error on
    stderr, and ``-h`` returns 0 after it prints the help; neither raises
    ``SystemExit``.

    ``check`` and ``scan`` call ``transport_factory``, if given, once with
    their parsed arguments (the ``argparse.Namespace``) after checking
    their settings, and send every query over the transport it returns;
    without it they use a ``UdpTcpTransport``.
    """
    try:
        args = _parser()[0].parse_args(_with_environment(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse's exit after the help or an error
        return EXIT_ERROR if exc.code else EXIT_OK
    _pause_collector()
    try:
        if args.command == "check":
            return cmd_check(args, transport_factory)
        if args.command == "scan":
            return cmd_scan(args, transport_factory)
        return cmd_simulate(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_ERROR
    finally:
        _resume_collector()


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
