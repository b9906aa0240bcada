import argparse
import gc
import gzip
import ipaddress
import json
import os
import subprocess
import sys
import threading
import time
import zlib
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from relay import Relay
from universes import (
    N,
    ClosedPort,
    broken_oob_universe,
    combined_two_scenario_universe,
    healthy_depth3_universe,
    healthy_zone,
    root_fixture,
    with_liveness_faults,
)
from v6ready import cli
from v6ready.analytics import load_tld_list, load_toplist, parse_operator_rules
from v6ready.mocknet import (
    BLACKHOLE_V6,
    DROP_AAAA_GLUE,
    FORMERR_ON_EDNS,
    TRUNCATE_UDP,
    build_universe,
    fixture_tuples,
    ground_truth,
    load_fixtures,
    random_universe,
    zone_fixture,
)
from v6ready.names import DomainName
from v6ready.passive import IngestStats, iter_tuples, open_tuple_stream
from v6ready.psl import PublicSuffixList
from v6ready.query import ResponseCache
from v6ready.records import V4, V6, RRType
from v6ready.resolver import load_root_hints


def write_hints(tmp_path, universe):
    path = tmp_path / "roots.hints"
    lines = [f"{name} {proto} {addr}" for name, proto, addr in universe.root_hints()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run_cli(argv, universe=None):
    factory = (lambda cfg: universe) if universe is not None else None
    return cli.main(argv, transport_factory=factory)


FAST = ["--timeout", "0.2", "--tcp-timeout", "0.2", "--retry-wait", "0", "--seed", "1"]


def test_check_healthy_zone_exits_zero(tmp_path, capsys):
    u = healthy_depth3_universe()
    rc = run_cli(["check", "d.t", "--roots", write_hints(tmp_path, u), *FAST], u)
    out = capsys.readouterr().out
    assert rc == 0
    assert "state: dual" in out


def test_check_renders_step_entries_for_structured_output_only(tmp_path, capsys,
                                                               monkeypatch):
    from v6ready.resolver import DelegationStep

    rendered = []
    entry = DelegationStep.json_entry
    monkeypatch.setattr(DelegationStep, "json_entry",
                        lambda step: rendered.append(step.zone) or entry(step))
    u = healthy_depth3_universe()
    argv = ["check", "s.d.t", "--roots", write_hints(tmp_path, u), *FAST]
    assert run_cli(argv, u) == 0
    assert "delegation chain:" in capsys.readouterr().out and rendered == []
    assert run_cli([*argv, "--format", "structured"], u) == 0
    assert [s["zone"] for s in json.loads(capsys.readouterr().out)["steps"]] == [
        "t", "d.t", "s.d.t"]
    assert [str(zone) for zone in rendered] == ["t", "d.t", "s.d.t"]


def test_check_below_v6_dark_parent_exits_one(tmp_path, capsys):
    u = build_universe([
        root_fixture(),
        healthy_zone("t", 10, defects={BLACKHOLE_V6}),
        healthy_zone("d.t", 11),
    ])
    rc = run_cli(["check", "d.t", "--roots", write_hints(tmp_path, u), *FAST], u)
    out = capsys.readouterr().out
    assert rc == 1
    assert "state: v4-only" in out


def test_check_broken_zone_exits_one_with_cause(tmp_path, capsys):
    u = broken_oob_universe()
    rc = run_cli(["check", "example.org", "--roots", write_hints(tmp_path, u), *FAST], u)
    out = capsys.readouterr().out
    assert rc == 1
    assert "no-aaaa-for-ns" in out


def test_check_structured_output(tmp_path, capsys):
    u = broken_oob_universe()
    rc = run_cli(["check", "example.org", "--roots", write_hints(tmp_path, u),
                  "--format", "structured", *FAST], u)
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["state"] == "v4-only"
    assert doc["causes"] == ["no-aaaa-for-ns"]


def test_check_bad_domain_exits_two(tmp_path, capsys):
    u = healthy_depth3_universe()
    rc = run_cli(["check", "bad..name", "--roots", write_hints(tmp_path, u), *FAST], u)
    assert rc == 2


def test_check_unreachable_roots_exits_two(tmp_path, capsys):
    u = healthy_depth3_universe()
    hints = tmp_path / "roots.hints"
    hints.write_text("a.root v4 192.0.2.254\n")

    class Dead:
        def exchange(self, server, transport, payload, timeout):
            from v6ready.query import TransportTimeout

            raise TransportTimeout("dead")

    rc = cli.main(
        ["check", "d.t", "--roots", str(hints), "--retries", "1", *FAST],
        transport_factory=lambda cfg: Dead(),
    )
    assert rc == 2


@pytest.mark.parametrize("seed", [None, 11, 12, 13, 14, 15])
def test_check_asks_only_ns_soa_a_and_aaaa_of_class_in(tmp_path, capsys, seed):
    """``check`` asks what its verdict and liveness rows need, and its
    enrichment holds NS and SOA answers only: on the combined universe and
    on seeded trees with black-holed servers."""
    if seed is None:
        u = combined_two_scenario_universe()
    else:
        u = with_liveness_faults(random_universe(seed, 20)[0], seed)
    hints = write_hints(tmp_path, u)
    enriched = 0
    for zone in sorted(u.fixtures)[1:]:  # every zone but the root
        rc = run_cli(["check", str(zone), "--format", "structured", "--roots", hints, *FAST], u)
        out = capsys.readouterr().out
        if rc == 2:  # no root server answers: no chain result
            continue
        doc = json.loads(out)
        if doc["steps"]:
            assert sorted(doc["enrichment"]) == ["NS", "SOA"], zone
            enriched += 1
    assert enriched
    questions = [e.message.question for e in u.log.queries()]
    assert questions
    assert {(q.qclass, str(q.qtype)) for q in questions} <= {
        (1, "NS"), (1, "SOA"), (1, "A"), (1, "AAAA")}


def test_check_conflicting_protocol_flags_rejected(tmp_path, capsys):
    u = healthy_depth3_universe()
    rc = run_cli(["check", "d.t", "--v4-only", "--v6-only",
                  "--roots", write_hints(tmp_path, u)], u)
    assert rc == 2
    assert capsys.readouterr().err == "error: --v4-only and --v6-only are mutually exclusive\n"
    assert u.log.entries == []


def four_state_universe():
    return build_universe([
        root_fixture(),
        healthy_zone("t", 10),
        healthy_zone("dualzone.t", 11),
        zone_fixture("v4zone.t", [("ns.v4zone.t", ["10.60.0.1"], [])]),
        zone_fixture("v6zone.t", [("ns.v6zone.t", [], ["fd00:60::2"])]),
        zone_fixture("nozone.t", [("ns.nozone.t", [], [])]),
    ])


def test_scan_four_states_summary(tmp_path, capsys):
    u = four_state_universe()
    domains = tmp_path / "domains.txt"
    domains.write_text("dualzone.t\nv4zone.t\nv6zone.t\nnozone.t\n")
    out = tmp_path / "results.jsonl"
    rc = run_cli([
        "scan", str(domains), "--roots", write_hints(tmp_path, u),
        "--output", str(out), "--concurrency", "1", *FAST,
    ], u)
    assert rc == 0
    text = capsys.readouterr().out
    assert "scanned 4 domains" in text
    for state in ("dual", "v4-only", "v6-only", "none"):
        assert f"{state:8s}      1   25.00%" in text
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert {r["domain"]: r["state"] for r in rows} == {
        "dualzone.t": "dual", "v4zone.t": "v4-only",
        "v6zone.t": "v6-only", "nozone.t": "none",
    }


def scan_args(tmp_path, universe, domains, out, concurrency=1):
    return ["scan", str(domains), "--roots", write_hints(tmp_path, universe),
            "--output", str(out), "--concurrency", str(concurrency), *FAST]


def test_scan_resumes_from_journal_without_new_exchanges(tmp_path, capsys):
    # The output file is the journal: a rerun skips every domain in it.
    u = four_state_universe()
    domains = tmp_path / "domains.txt"
    domains.write_text("dualzone.t\nv4zone.t\n")
    out = tmp_path / "results.jsonl"
    args = scan_args(tmp_path, u, domains, out)
    assert run_cli(args, u) == 0
    first_packets = len(u.log.entries)
    rows = out.read_bytes()
    assert run_cli(args, u) == 0
    assert len(u.log.entries) == first_packets  # rerun touched the network zero times
    assert "scanned 0 domains (2 already in the output)" in capsys.readouterr().out
    assert out.read_bytes() == rows
    assert [json.loads(l)["domain"] for l in out.read_text().splitlines()] == [
        "dualzone.t", "v4zone.t"]


def test_scan_cuts_a_torn_last_row_and_scans_its_domain_again(tmp_path, capsys):
    u = four_state_universe()
    domains = tmp_path / "domains.txt"
    domains.write_text("dualzone.t\nv4zone.t\n")
    out = tmp_path / "results.jsonl"
    args = scan_args(tmp_path, u, domains, out)
    assert run_cli(args, u) == 0
    rows = out.read_bytes()
    out.write_bytes(rows[:-40])  # killed while writing the second row
    assert run_cli(args, u) == 0
    assert "scanned 1 domains (1 already in the output)" in capsys.readouterr().out
    assert out.read_bytes() == rows


def test_scan_refuses_an_output_with_a_corrupt_row(tmp_path, capsys):
    u = four_state_universe()
    domains = tmp_path / "domains.txt"
    domains.write_text("dualzone.t\nv4zone.t\nv6zone.t\n")
    out = tmp_path / "results.jsonl"
    out.write_text('{"domain": "dualzone.t"}\n["v4zone.t"]\n{"domain": "v6zone.t"}\n{"dom')
    before = out.read_bytes()
    assert run_cli(scan_args(tmp_path, u, domains, out), u) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{out}:2:" in err
    assert out.read_bytes() == before
    assert u.log.entries == []


def test_scan_refuses_to_resume_rows_of_another_chain_result_version(tmp_path, capsys):
    # Rows built under other rules must not be mixed with this scan's rows.
    u = four_state_universe()
    domains = tmp_path / "domains.txt"
    domains.write_text("dualzone.t\nv4zone.t\n")
    out = tmp_path / "results.jsonl"
    assert run_cli(scan_args(tmp_path, u, domains, out), u) == 0
    first, second = out.read_text().splitlines()
    old = json.loads(second)
    old["version"] = 3
    out.write_text(first + "\n" + json.dumps(old) + "\n")
    before = out.read_bytes()
    u.log.entries.clear()
    capsys.readouterr()
    assert run_cli(scan_args(tmp_path, u, domains, out), u) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{out}:2:" in err and "version 3" in err
    assert out.read_bytes() == before
    assert u.log.entries == []


def test_scan_submits_a_bounded_window_of_domains(tmp_path, monkeypatch):
    u = four_state_universe()
    names = [f"h{i}.dualzone.t" for i in range(200)]
    domains = tmp_path / "domains.txt"
    domains.write_text("\n".join(names) + "\n")
    out = tmp_path / "results.jsonl"
    submitted, ahead = [], []

    class Recording(cli.ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            submitted.append(1)
            written = len(out.read_text().splitlines()) if out.exists() else 0
            ahead.append(len(submitted) - written)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(cli, "SCAN_WINDOW", 4)
    assert run_cli(scan_args(tmp_path, u, domains, out, concurrency=2), u) == 0
    assert len(submitted) == 200
    assert max(ahead) == 4 * 2
    assert [json.loads(l)["domain"] for l in out.read_text().splitlines()] == names


@pytest.mark.parametrize("concurrency", [1, 2])
def test_an_interrupted_scan_drops_the_domains_not_started(tmp_path, monkeypatch, capsys,
                                                            concurrency):
    # Ctrl-C at the second row: the domains submitted but not started are
    # dropped, not resolved before "interrupted".
    u = four_state_universe()
    names = [f"h{i}.dualzone.t" for i in range(200)]
    domains = tmp_path / "domains.txt"
    domains.write_text("\n".join(names) + "\n")
    out = tmp_path / "results.jsonl"
    calls, released = [], threading.Event()
    real_resolve = cli.Resolver.resolve_chain

    def resolve_chain(self, *args, **kwargs):
        calls.append(1)
        if len(calls) > 2:  # held until the pool has been told to shut down
            released.wait(10)
        return real_resolve(self, *args, **kwargs)

    class Releasing(cli.ThreadPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            released.set()
            super().shutdown(wait=wait)

    real_in_order = cli._in_order

    def interrupted(*args):
        for number, row in enumerate(real_in_order(*args)):
            if number == 1:
                raise KeyboardInterrupt
            yield row

    monkeypatch.setattr(cli.Resolver, "resolve_chain", resolve_chain)
    monkeypatch.setattr(cli, "ThreadPoolExecutor", Releasing)
    monkeypatch.setattr(cli, "_in_order", interrupted)
    assert run_cli(scan_args(tmp_path, u, domains, out, concurrency), u) == 2
    assert "interrupted" in capsys.readouterr().err
    written = len(out.read_text().splitlines())
    assert written == 1
    # the rows written, the row the interrupt dropped, and one running
    # domain per worker
    assert len(calls) <= written + 1 + concurrency


def test_scan_rows_depend_only_on_the_domain(tmp_path):
    # One resolver per worker and none shared: a row must not depend on
    # which domains a worker walked before it.
    u, truth = random_universe(seed=3, size=150)
    names = sorted(str(zone) for zone in truth)

    def rows(order, concurrency, name):
        domains = tmp_path / f"{name}.txt"
        domains.write_text("\n".join(order) + "\n")
        out = tmp_path / f"{name}.jsonl"
        assert run_cli(scan_args(tmp_path, u, domains, out, concurrency), u) == 0
        return out.read_text().splitlines()

    one = rows(names, 1, "one")
    assert rows(names, 2, "two") == one
    by_domain = {json.loads(line)["domain"]: line for line in one}
    for line in rows(names[::-1], 1, "reversed"):
        assert line == by_domain[json.loads(line)["domain"]]


def cached_names_and_records(cache):
    """Every name and every record in the messages of ``cache``."""
    names, records = [], []
    for outcome in cache._entries.values():
        msg = outcome.message
        if msg is None:
            continue
        if msg.question is not None:
            names.append(msg.question.qname)
        for rr in (*msg.answer, *msg.authority, *msg.additional):
            records.append(rr)
            names.append(rr.owner)
            if rr.rrtype == RRType.SOA:
                names += [rr.data.mname, rr.data.rname]
            elif rr.rrtype in (RRType.NS, RRType.CNAME):
                names.append(rr.data)
    return names, records


def assert_one_object_per_value(values):
    by_value = {}
    for value in values:
        assert by_value.setdefault(value, value) is value, value


def scan_sharing(tmp_path, monkeypatch, seed, concurrency):
    """The rows of a scan over ``random_universe(seed, 200)``, after
    checking that its cache holds one object per distinct name and record."""
    caches = []

    class Recorded(ResponseCache):
        def __init__(self):
            super().__init__()
            caches.append(self)

    monkeypatch.setattr(cli, "ResponseCache", Recorded)
    u, truth = random_universe(seed, 200)
    domains = tmp_path / "domains.txt"
    domains.write_text("\n".join(sorted(str(zone) for zone in truth)) + "\n")
    out = tmp_path / f"rows-{concurrency}.jsonl"
    assert run_cli(scan_args(tmp_path, u, domains, out, concurrency), u) == 0
    (cache,) = caches
    names, records = cached_names_and_records(cache)
    assert len(records) > len(set(records)) and len(names) > len(set(names))
    assert_one_object_per_value(names)
    assert_one_object_per_value(records)
    return out.read_text()


@pytest.mark.parametrize("seed", [1, 2])
def test_a_scan_caches_one_object_per_name_and_record(tmp_path, monkeypatch, seed):
    scan_sharing(tmp_path, monkeypatch, seed, 1)


@pytest.mark.parametrize("concurrency", [2, 4])
def test_engines_sharing_the_intern_table_write_the_rows_of_one_engine(
        tmp_path, monkeypatch, concurrency):
    # the workers decode into one table at once, switching threads as
    # often as the interpreter allows
    one = scan_sharing(tmp_path, monkeypatch, 1, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = scan_sharing(tmp_path, monkeypatch, 1, concurrency)
    finally:
        sys.setswitchinterval(interval)
    assert many == one


def test_scan_survives_a_non_ascii_domain(tmp_path, capsys):
    u = four_state_universe()
    domains = tmp_path / "domains.txt"
    domains.write_text("dualzone.t\n例え.jp\nv4zone.t\n", encoding="utf-8")
    out = tmp_path / "results.jsonl"
    rc = run_cli([
        "scan", str(domains), "--roots", write_hints(tmp_path, u),
        "--output", str(out), "--concurrency", "1", *FAST,
    ], u)
    assert rc == 0
    assert "scanned 3 domains" in capsys.readouterr().out
    rows = {r["domain"]: r for r in map(json.loads, out.read_text().splitlines())}
    assert "non-ASCII" in rows["例え.jp"]["error"]
    assert rows["dualzone.t"]["state"] == "dual"
    assert rows["v4zone.t"]["state"] == "v4-only"


# 33 labels: one zone cut more than a chain may pass
TOO_DEEP = "a." * 32 + "t"


def test_check_name_deeper_than_the_depth_limit_exits_two(tmp_path, capsys):
    u = four_state_universe()
    rc = run_cli(["check", TOO_DEEP, "--roots", write_hints(tmp_path, u), *FAST], u)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not u.log.entries


def test_scan_writes_an_error_row_for_a_name_deeper_than_the_depth_limit(tmp_path, capsys):
    u = four_state_universe()
    domains = tmp_path / "domains.txt"
    domains.write_text(f"{TOO_DEEP}\nv4zone.t\n")
    out = tmp_path / "results.jsonl"
    rc = run_cli(scan_args(tmp_path, u, domains, out), u)
    assert rc == 0
    assert "scanned 2 domains" in capsys.readouterr().out
    rows = {r["domain"]: r for r in map(json.loads, out.read_text().splitlines())}
    assert rows[TOO_DEEP]["error"]
    assert rows["v4zone.t"]["state"] == "v4-only"


@pytest.mark.parametrize("target", [".", ""])
def test_check_the_root_exits_two_before_any_query(tmp_path, capsys, target):
    u, _truth = random_universe(3, 10)
    rc = run_cli(["check", target, "--roots", write_hints(tmp_path, u), *FAST], u)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:")
    assert "target:" not in captured.out
    assert not u.log.entries


def test_scan_writes_an_error_row_for_the_root_or_an_empty_domain(tmp_path, capsys):
    u = four_state_universe()
    domains = tmp_path / "domains.txt"
    domains.write_text("z0,\n.\nv4zone.t\n")  # a trailing comma leaves the domain empty
    out = tmp_path / "results.jsonl"
    rc = run_cli(scan_args(tmp_path, u, domains, out), u)
    assert rc == 0
    assert "scanned 3 domains" in capsys.readouterr().out
    rows = {r["domain"]: r for r in map(json.loads, out.read_text().splitlines())}
    assert rows[""]["error"] and "state" not in rows[""]
    assert rows["."]["error"] and "state" not in rows["."]
    assert rows["v4zone.t"]["state"] == "v4-only"


BAD_ROOT_HINTS = {
    "not-three-fields": b"a.root v4\n",
    "not-utf8": b"a.root v4 10.0.0.1 # \xff\n",
    "no-hints": b"# comments only\n\n",
    "bad-name": b"bad..name v4 10.0.0.1\n",
    "v6-address-as-v4": b"a.root v4 2001:db8::1\n",
}


@pytest.mark.parametrize("case", sorted(BAD_ROOT_HINTS))
def test_bad_root_hints_exit_two_before_any_query(tmp_path, capsys, case):
    u = four_state_universe()
    hints = tmp_path / "roots.hints"
    hints.write_bytes(BAD_ROOT_HINTS[case])
    domains = tmp_path / "domains.txt"
    domains.write_text("v4zone.t\n")
    out = tmp_path / "results.jsonl"
    for argv in (["check", "v4zone.t", "--v4-only"],
                 ["scan", str(domains), "--output", str(out), "--v4-only"]):
        rc = run_cli([*argv, "--roots", str(hints), *FAST], u)
        assert rc == 2, argv
        assert capsys.readouterr().err.startswith(f"error: --roots {hints}: "), argv
    assert not out.exists()
    assert not u.log.entries


def test_scan_rank_csv_preserves_ranks(tmp_path):
    u = four_state_universe()
    domains = tmp_path / "ranked.csv"
    domains.write_text("1,dualzone.t\n20000,v4zone.t\n")
    out = tmp_path / "results.jsonl"
    rc = run_cli([
        "scan", str(domains), "--roots", write_hints(tmp_path, u),
        "--output", str(out), "--concurrency", "1", *FAST,
    ], u)
    assert rc == 0
    rows = {r["domain"]: r for r in map(json.loads, out.read_text().splitlines())}
    assert rows["dualzone.t"]["rank"] == 1
    assert rows["v4zone.t"]["rank"] == 20000


def test_scan_reads_a_rank_that_is_not_ascii_digits_as_no_rank(tmp_path, capsys):
    u = four_state_universe()
    domains = tmp_path / "ranked.csv"
    domains.write_text(f"²,dualzone.t\n٣,v4zone.t\n7,v6zone.t\n{'9' * 5000},nozone.t\n",
                       encoding="utf-8")
    out = tmp_path / "results.jsonl"
    rc = run_cli([
        "scan", str(domains), "--roots", write_hints(tmp_path, u),
        "--output", str(out), "--concurrency", "1", *FAST,
    ], u)
    assert rc == 0
    assert "scanned 4 domains" in capsys.readouterr().out
    rows = {r["domain"]: r for r in map(json.loads, out.read_text().splitlines())}
    assert rows["dualzone.t"]["rank"] is None
    assert rows["dualzone.t"]["state"] == "dual"
    assert rows["v4zone.t"]["rank"] is None
    assert rows["v6zone.t"]["rank"] == 7
    assert rows["nozone.t"]["rank"] is None


def write_tuples(path, tuples):
    with open(path, "w") as fh:
        for t in tuples:
            fh.write(json.dumps({
                "count": t.count, "time_first": t.time_first,
                "time_last": t.time_last, "rrname": str(t.rrname),
                "rrtype": str(t.rrtype), "bailiwick": str(t.bailiwick),
                "rdata": list(t.rdata),
            }) + "\n")


def test_simulate_matches_ground_truth(tmp_path, capsys):
    u = combined_two_scenario_universe()
    truth = ground_truth(u)
    tuple_path = tmp_path / "tuples.jsonl"
    write_tuples(tuple_path, fixture_tuples(u))
    outdir = tmp_path / "out"
    rc = cli.main(["simulate", str(tuple_path), "--out", str(outdir)])
    assert rc == 0
    lines = (outdir / "verdicts.jsonl").read_text().splitlines()
    docs = [json.loads(l) for l in lines[1:]]
    verdicts = {d["zone"]: (d["v4"], d["v6"]) for d in docs}
    for zone, expected in truth.items():
        assert verdicts[str(zone)] == (expected[V4], expected[V6]), str(zone)
    left = [d for d in docs if d["zone"] == "example.org"][0]
    right = [d for d in docs if d["zone"] == "sub.example.org"][0]
    assert left["state"] == "v4-only" and "no-aaaa-for-ns" in left["causes"]
    assert right["state"] == "v4-only" and "missing-glue" in right["causes"]
    stats = json.loads((outdir / "stats.json").read_text())
    assert stats["total_zones"] == len(docs)


def test_simulate_empty_input_exits_zero(tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    outdir = tmp_path / "out"
    rc = cli.main(["simulate", str(empty), "--out", str(outdir)])
    assert rc == 0
    stats = json.loads((outdir / "stats.json").read_text())
    assert stats["total_zones"] == 0


def test_simulate_all_inputs_unreadable_exits_two(tmp_path, capsys):
    rc = cli.main(["simulate", str(tmp_path / "missing.tsv"),
                   "--out", str(tmp_path / "out")])
    assert rc == 2


@pytest.mark.parametrize("unusable", ["a-file", "an-output-that-is-a-directory"])
def test_simulate_out_it_cannot_write_exits_two(tmp_path, capsys, unusable):
    tuples = tmp_path / "tuples.tsv"
    write_tuples(tuples, fixture_tuples(healthy_depth3_universe()))
    outdir = tmp_path / "out"
    if unusable == "a-file":
        outdir.write_text("")
    else:
        (outdir / "stats.json").mkdir(parents=True)
    rc = cli.main(["simulate", str(tuples), "--out", str(outdir)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith(f"error: --out {outdir}: ")
    assert "zones:" not in captured.out


def test_simulate_counts_a_line_that_is_not_utf8_as_malformed(tmp_path, capsys):
    # In either form, bytes that are not UTF-8 make their line malformed,
    # wherever they stand; the file's other lines are filed.
    tsv = tmp_path / "bad.tsv"
    tsv.write_bytes(b"\xff\xfe\n"
                    b"1\t1\t2\tcom\tNS\t.\tns1.com\n"
                    b"1\t1\t2\tcom\tTXT\tcom\tv=\xff\n")
    jsonl = tmp_path / "bad.jsonl"
    good = {"count": 1, "time_first": 1, "time_last": 2, "rrname": "ns1.com",
            "rrtype": "A", "bailiwick": "com", "rdata": ["192.0.2.1"]}
    jsonl.write_bytes(json.dumps(good).encode() + b"\n"
                      + json.dumps({**good, "note": "NOTE"}).encode().replace(b"NOTE", b"\xc3") + b"\n")
    outdir = tmp_path / "out"
    assert cli.main(["simulate", str(tsv), str(jsonl), "--out", str(outdir)]) == 0
    ingest = json.loads((outdir / "stats.json").read_text())["ingest"]
    assert (ingest["tuples"], ingest["malformed"]) == (2, 3)


def _ns_lines(n: int) -> bytes:
    return "".join(f"1\t1\t2\tz{i}.com\tNS\tcom\tns1.z{i}.com\n" for i in range(n)).encode()


def test_simulate_keeps_the_lines_before_a_compressed_file_ends_early(tmp_path, capsys):
    data = gzip.compress(_ns_lines(2000))
    torn = data[:len(data) // 2]
    (tmp_path / "half.tsv.gz").write_bytes(torn)
    complete = zlib.decompressobj(wbits=31).decompress(torn).count(b"\n")
    assert 0 < complete < 2000
    outdir = tmp_path / "out"
    assert cli.main(["simulate", str(tmp_path / "half.tsv.gz"), "--out", str(outdir)]) == 0
    ingest = json.loads((outdir / "stats.json").read_text())["ingest"]
    assert (ingest["tuples"], ingest["malformed"]) == (complete, 1)


def _flipped(data: bytes, pos: int) -> bytes:
    return data[:pos] + bytes([data[pos] ^ 0x10]) + data[pos + 1:]


def _simulate_counts(tmp_path, data: bytes) -> tuple[int, int]:
    (tmp_path / "bad.tsv.gz").write_bytes(data)
    outdir = tmp_path / "out"
    assert cli.main(["simulate", str(tmp_path / "bad.tsv.gz"), "--out", str(outdir)]) == 0
    ingest = json.loads((outdir / "stats.json").read_text())["ingest"]
    return ingest["tuples"], ingest["malformed"]


def _corrupt_at_once(data: bytes) -> tuple[bytes, int]:
    """``data`` with a flipped byte in the middle of its deflate data that
    makes it invalid at once, without decoding garbage first (zlib.error),
    and the number of lines decoded before the damage."""
    pos = len(data) // 2
    stream = zlib.decompressobj(wbits=31)
    decoded = stream.decompress(data[:pos])
    while pos < len(data) - 8:  # the trailer holds the CRC-32 and length
        try:
            stream.copy().decompress(_flipped(data, pos)[pos:pos + 4])
        except zlib.error:
            return _flipped(data, pos), decoded.count(b"\n")
        decoded += stream.decompress(data[pos:pos + 1])
        pos += 1
    pytest.fail("no flip makes the deflate data invalid at once")


def test_simulate_keeps_the_lines_before_corrupt_compressed_data(tmp_path, capsys):
    bad, before = _corrupt_at_once(gzip.compress(_ns_lines(20000), mtime=0))
    tuples, malformed = _simulate_counts(tmp_path, bad)
    assert 0 < tuples <= before < 20000
    assert malformed == 1


def test_simulate_counts_a_compressed_file_with_a_bad_checksum_once(tmp_path, capsys):
    # a flipped byte of the CRC-32 in the trailer: gzip.BadGzipFile
    data = gzip.compress(_ns_lines(2000), mtime=0)
    bad = _flipped(data, len(data) - 8)
    with pytest.raises(gzip.BadGzipFile):
        gzip.decompress(bad)
    assert _simulate_counts(tmp_path, bad) == (2000, 1)


def _iter_tuples_counts(path: Path) -> tuple[int, int]:
    stats = IngestStats()
    with open_tuple_stream(path) as stream:
        assert len(list(iter_tuples(stream, stats))) == stats.tuples
    return stats.tuples, stats.malformed


def test_iter_tuples_keeps_the_lines_before_a_compressed_file_ends_early(tmp_path):
    torn = gzip.compress(_ns_lines(2000), mtime=0)[:2000]
    (tmp_path / "torn.tsv.gz").write_bytes(torn)
    complete = zlib.decompressobj(wbits=31).decompress(torn).count(b"\n")
    assert 0 < complete < 2000
    assert _iter_tuples_counts(tmp_path / "torn.tsv.gz") == (complete, 1)


def test_iter_tuples_keeps_the_lines_before_corrupt_compressed_data(tmp_path):
    bad, before = _corrupt_at_once(gzip.compress(_ns_lines(20000), mtime=0))
    (tmp_path / "bad.tsv.gz").write_bytes(bad)
    tuples, malformed = _iter_tuples_counts(tmp_path / "bad.tsv.gz")
    assert 0 < tuples <= before < 20000
    assert malformed == 1


GOLDEN = Path(__file__).resolve().parent / "golden"


def test_simulate_skips_and_counts_invalid_toplist_and_tld_names(tmp_path, capsys):
    toplist = tmp_path / "toplist.csv"
    toplist.write_text("1,例え.jp\n", encoding="utf-8")
    tlds = tmp_path / "tlds.txt"
    tlds.write_text("org\ncafé\nnet\na..b\n", encoding="utf-8")
    outdir = tmp_path / "out"
    rc = cli.main(["simulate", str(GOLDEN / "tuples.tsv"), "--psl", str(GOLDEN / "psl.dat"),
                   "--tlds", str(tlds), "--toplist", str(toplist), "--out", str(outdir)])
    assert rc == 0
    warnings = [l for l in capsys.readouterr().err.splitlines() if l.startswith("warning:")]
    assert len(warnings) == 2
    assert "--tlds" in warnings[0] and "skipped 2 line(s)" in warnings[0]
    assert "--toplist" in warnings[1] and "skipped 1 line(s)" in warnings[1]
    assert (outdir / "states.csv").read_text().startswith("group,")


@pytest.mark.parametrize("flag", ["--psl", "--tlds", "--toplist", "--operator-rules"])
def test_simulate_missing_side_file_exits_two_before_passive_work(tmp_path, capsys, flag):
    outdir = tmp_path / "out"
    rc = cli.main(["simulate", str(GOLDEN / "tuples.tsv"), flag, str(tmp_path / "missing"),
                   "--out", str(outdir)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not outdir.exists()


def test_simulate_bad_operator_rule_pattern_exits_two(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("ns[.example op\n")
    rc = cli.main(["simulate", str(GOLDEN / "tuples.tsv"), "--operator-rules", str(rules),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "bad operator rule pattern" in capsys.readouterr().err


def test_simulate_with_psl_writes_cdf(tmp_path):
    u = combined_two_scenario_universe()
    tuple_path = tmp_path / "tuples.jsonl"
    write_tuples(tuple_path, fixture_tuples(u))
    psl = tmp_path / "psl.dat"
    psl.write_text("org\nnet\ntest\n")
    outdir = tmp_path / "out"
    rc = cli.main(["simulate", str(tuple_path), "--psl", str(psl),
                   "--out", str(outdir)])
    assert rc == 0
    assert (outdir / "nsset-cdf.csv").exists()
    assert (outdir / "states.csv").read_text().startswith("group,")


def test_environment_variables_override_defaults(tmp_path, capsys, monkeypatch):
    u = broken_oob_universe()
    monkeypatch.setenv("V6READY_FORMAT", "structured")
    monkeypatch.setenv("V6READY_ROOTS", write_hints(tmp_path, u))
    monkeypatch.setenv("V6READY_RETRY_WAIT", "0")
    monkeypatch.setenv("V6READY_SEED", "1")
    rc = run_cli(["check", "example.org", "--timeout", "0.2",
                  "--tcp-timeout", "0.2"], u)
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["format"] == "chain-result"
    monkeypatch.setenv("V6READY_SEED", "")  # empty: no seed, as if unset
    rc = run_cli(["check", "example.org", "--timeout", "0.2",
                  "--tcp-timeout", "0.2"], u)
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["format"] == "chain-result"


def test_a_bad_environment_number_breaks_only_its_own_command(tmp_path, capsys,
                                                              monkeypatch):
    monkeypatch.setenv("V6READY_CONCURRENCY", "eight")
    rc = cli.main(["simulate", str(GOLDEN / "tuples.tsv"), "--out", str(tmp_path / "out")])
    assert rc == 0
    u = four_state_universe()  # never the real network, should the scan start
    rc = run_cli(["scan", str(GOLDEN / "domains.txt"), "--roots", write_hints(tmp_path, u),
                  "--output", str(tmp_path / "o"), *FAST], u)
    assert rc == 2
    assert "invalid int value: 'eight'" in capsys.readouterr().err


def test_environment_format_outside_its_choices_exits_two(tmp_path, capsys, monkeypatch):
    u = healthy_depth3_universe()
    monkeypatch.setenv("V6READY_FORMAT", "json")
    rc = run_cli(["check", "d.t", "--roots", write_hints(tmp_path, u), *FAST], u)
    assert rc == 2
    assert "argument --format: invalid choice: 'json'" in capsys.readouterr().err
    assert u.log.entries == []
    # --format is a flag of check alone: its environment value stops no scan
    domains = tmp_path / "domains.txt"
    domains.write_text("d.t\n")
    rc = run_cli(["scan", str(domains), "--roots", write_hints(tmp_path, u),
                  "--output", str(tmp_path / "results.jsonl"), *FAST], u)
    assert rc == 0
    assert "scanned 1 domains" in capsys.readouterr().out


def test_scan_has_no_format_flag(tmp_path, capsys):
    u = healthy_depth3_universe()
    domains = tmp_path / "domains.txt"
    domains.write_text("d.t\n")
    out = tmp_path / "results.jsonl"
    rc = run_cli(["scan", str(domains), "--roots", write_hints(tmp_path, u),
                  "--output", str(out), "--format", "structured", *FAST], u)
    assert rc == 2
    assert "unrecognized arguments: --format structured" in capsys.readouterr().err
    assert not out.exists()
    assert u.log.entries == []


# -- a check or scan setting out of its range ----------------------------------

# (flag, value, error text); None stands for the text of the unreadable
# root hints, which names their path
BAD_SETTINGS = [
    ("--roots", "{missing}", None),
    ("--retries", "0", "retries must be >= 1"),
    ("--timeout", "0", "timeouts must be positive"),
    ("--tcp-timeout", "-1", "timeouts must be positive"),
    ("--retry-wait", "-1", "the retry wait must be >= 0"),
    ("--concurrency", "0", "--concurrency must be >= 1"),
]
# Sockets and sleeps refuse a wait that is not finite or exceeds
# threading.TIMEOUT_MAX; -inf fails the earlier sign check first.
FINITE = f"must be finite and at most {threading.TIMEOUT_MAX:.0f} seconds"
BAD_SETTINGS += [
    (flag, value, f"{subject} {FINITE}")
    for flag, subject in [("--timeout", "timeouts"), ("--tcp-timeout", "timeouts"),
                          ("--retry-wait", "the retry wait")]
    for value in ("nan", "inf", "1e10")
] + [
    ("--timeout", "-inf", "timeouts must be positive"),
    ("--tcp-timeout", "-inf", "timeouts must be positive"),
    ("--retry-wait", "-inf", "the retry wait must be >= 0"),
]
CONFLICT = "--v4-only and --v6-only are mutually exclusive"


def _bad_setting_cases():
    """(command, flags, environment, error text): each bad setting once as
    a flag and once as its ``V6READY_*`` value."""
    for command in ("check", "scan"):
        for flag, value, message in BAD_SETTINGS:
            if flag == "--concurrency" and command == "check":
                continue
            env = "V6READY_" + flag[2:].upper().replace("-", "_")
            yield pytest.param(command, [f"{flag}={value}"], {}, message,
                               id=f"{command} {flag}={value}")
            yield pytest.param(command, [], {env: value}, message,
                               id=f"{command} {env}={value}")
        yield pytest.param(command, ["--v4-only", "--v6-only"], {}, CONFLICT,
                           id=f"{command} --v4-only --v6-only")
        yield pytest.param(command, ["--v4-only"], {"V6READY_V6_ONLY": "1"}, CONFLICT,
                           id=f"{command} --v4-only V6READY_V6_ONLY=1")
        yield pytest.param(command, [], {"V6READY_V4_ONLY": "1", "V6READY_V6_ONLY": "1"},
                           CONFLICT, id=f"{command} V6READY_V4_ONLY=1 V6READY_V6_ONLY=1")


@pytest.mark.parametrize("command, flags, env, message", list(_bad_setting_cases()))
def test_a_setting_out_of_range_prints_one_error_line_before_any_query(
        tmp_path, capsys, monkeypatch, command, flags, env, message):
    u = healthy_depth3_universe()
    missing = str(tmp_path / "missing.hints")
    if message is None:
        with pytest.raises(OSError) as unreadable:
            open(missing)
        message = f"--roots {missing}: {unreadable.value}"
    for name, value in env.items():
        monkeypatch.setenv(name, value.format(missing=missing))
    domains = tmp_path / "domains.txt"
    domains.write_text("d.t\n")
    out = tmp_path / "results.jsonl"
    argv = (["check", "d.t"] if command == "check"
            else ["scan", str(domains), "--output", str(out)])
    if "V6READY_ROOTS" not in env:
        argv += ["--roots", write_hints(tmp_path, u)]
    rc = run_cli([*argv, "--seed", "1", *(f.format(missing=missing) for f in flags)], u)
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    assert u.log.entries == []


def test_scan_with_worker_pool(tmp_path, capsys):
    u = four_state_universe()
    domains = tmp_path / "domains.txt"
    domains.write_text("dualzone.t\nv4zone.t\nv6zone.t\nnozone.t\n")
    out = tmp_path / "results.jsonl"
    rc = run_cli([
        "scan", str(domains), "--roots", write_hints(tmp_path, u),
        "--output", str(out), "--concurrency", "4", *FAST,
    ], u)
    assert rc == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert {r["domain"]: r["state"] for r in rows} == {
        "dualzone.t": "dual", "v4zone.t": "v4-only",
        "v6zone.t": "v6-only", "nozone.t": "none",
    }


# -- end-to-end over real loopback sockets -----------------------------------


LOOPBACK = ["--timeout", "0.5", "--tcp-timeout", "0.5", "--retry-wait", "0", "--retries", "2",
            "--seed", "1"]


def test_loopback_end_to_end_exit_codes(tmp_path, capsys):
    u_ok = healthy_depth3_universe()
    with Relay(u_ok) as relay:
        rc = run_cli(["check", "d.t", "--roots", write_hints(tmp_path, u_ok), *LOOPBACK], relay)
    assert rc == 0

    u_bad = broken_oob_universe()
    with Relay(u_bad) as relay:
        rc = run_cli(["check", "example.org", "--roots", write_hints(tmp_path, u_bad),
                      *LOOPBACK], relay)
        out = capsys.readouterr().out
    assert rc == 1
    assert "no-aaaa-for-ns" in out


def test_loopback_unreachable_port_exits_two(tmp_path):
    hints = tmp_path / "dead.hints"
    hints.write_text("a.root v4 127.0.0.1\n")
    rc = cli.main([
        "check", "d.t", "--roots", str(hints),
        "--timeout", "0.2", "--tcp-timeout", "0.2", "--retry-wait", "0",
        "--retries", "1", "--seed", "1",
    ], transport_factory=lambda cfg: ClosedPort())
    assert rc == 2


def truncating_tree():
    """``t`` truncates every UDP reply, so each of its answers comes over
    TCP; it withholds the AAAA glue of ``d.t``; ``e.t`` refuses EDNS."""
    return build_universe([
        root_fixture(),
        healthy_zone("t", 10, defects={TRUNCATE_UDP}),
        healthy_zone("d.t", 11, defects={DROP_AAAA_GLUE}),
        healthy_zone("e.t", 12, defects={FORMERR_ON_EDNS}),
    ])


def blackholed_tree():
    """``d.t``'s servers drop every IPv6 query, so the relay stays silent
    over UDP and holds TCP connections open until the client gives up."""
    return build_universe([
        root_fixture(),
        healthy_zone("t", 10),
        healthy_zone("d.t", 11, ns_count=1, defects={BLACKHOLE_V6}),
    ])


# The relay answers through Universe.exchange, so withheld glue, which only
# the parent's referral shows, reaches the client too.
RELAYED_UNIVERSES = [
    pytest.param(healthy_depth3_universe, None, id="healthy_depth3"),
    pytest.param(broken_oob_universe, None, id="broken_oob"),
    pytest.param(combined_two_scenario_universe, None, id="combined_two_scenario"),
    *(pytest.param(lambda seed=seed: random_universe(seed, 25)[0], None, id=f"random{seed}")
      for seed in (11, 12, 13)),
    pytest.param(truncating_tree, {"t": 0, "d.t": 1, "e.t": 0}, id="truncating"),
    pytest.param(blackholed_tree, {"t": 0, "d.t": 1}, id="blackholed"),
]


@pytest.mark.parametrize("make, codes", RELAYED_UNIVERSES)
def test_real_sockets_give_the_in_process_documents(tmp_path, capsys, make, codes):
    in_process, relayed, seen = make(), make(), {}
    hints = write_hints(tmp_path, in_process)
    with Relay(relayed) as relay:
        for zone in sorted(in_process.fixtures)[1:]:  # not the root
            argv = ["check", str(zone), "--roots", hints, "--format", "structured", *LOOPBACK]
            rc = run_cli(argv, in_process)
            want = capsys.readouterr()
            assert (run_cli(argv, relay), capsys.readouterr()) == (rc, want), str(zone)
            seen[str(zone)] = rc
    assert relayed.log.entries == in_process.log.entries
    if codes is not None:
        assert seen == codes
    if make is truncating_tree:
        assert [e for e in relayed.log.queries() if e.transport == "tcp"]


class PortsSeen:
    """A universe as a transport that keeps the port of every exchange."""

    def __init__(self, universe):
        self.universe, self.ports = universe, set()

    def exchange(self, server, transport, payload, timeout):
        self.ports.add(server.port)
        return self.universe.exchange(server, transport, payload, timeout)


@pytest.mark.parametrize("command", ["check", "scan"])
def test_the_port_is_neither_a_flag_nor_an_environment_setting(
        tmp_path, capsys, monkeypatch, command):
    u = healthy_depth3_universe()
    domains = tmp_path / "domains.txt"
    domains.write_text("d.t\n")
    out = tmp_path / "results.jsonl"
    argv = (["check", "d.t"] if command == "check"
            else ["scan", str(domains), "--output", str(out)])
    argv += ["--roots", write_hints(tmp_path, u), *FAST]
    assert run_cli([*argv, "--port", "53"], u) == 2
    assert "unrecognized arguments: --port 53" in capsys.readouterr().err
    assert not out.exists()
    assert u.log.entries == []
    monkeypatch.setenv("V6READY_PORT", "5353")
    transport = PortsSeen(u)
    assert run_cli(argv, transport) == 0
    assert transport.ports == {53}


def test_check_structured_output_is_deterministic(tmp_path, capsys):
    def run():
        u = combined_two_scenario_universe()
        rc = run_cli([
            "check", "sub.example.org", "--roots", write_hints(tmp_path, u),
            "--format", "structured", *FAST,
        ], u)
        assert rc == 1
        return capsys.readouterr().out

    assert run() == run()


def test_loopback_tcp_fallback_on_truncation(tmp_path, capsys):
    # Real sockets end to end: the zone truncates UDP, so the client must
    # complete the walk over TCP.
    u = build_universe([
        root_fixture(),
        healthy_zone("t", 10, defects={TRUNCATE_UDP}),
        healthy_zone("d.t", 11, defects={TRUNCATE_UDP}),
    ])
    with Relay(u) as relay:
        rc = run_cli(["check", "d.t", "--roots", write_hints(tmp_path, u), "--format",
                      "structured", *LOOPBACK], relay)
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["state"] == "dual"
    assert [e for e in u.log.queries() if e.transport == "tcp"]


def test_simulate_skips_a_toplist_row_whose_rank_is_not_ascii_digits(tmp_path, capsys):
    toplist = tmp_path / "toplist.csv"
    toplist.write_text(f"1,z1.z0\n²,z3.z0\n{'9' * 5000},z3.z0\n", encoding="utf-8")
    outdir = tmp_path / "out"
    rc = cli.main(["simulate", str(GOLDEN / "tuples.tsv"), "--psl", str(GOLDEN / "psl.dat"),
                   "--tlds", str(GOLDEN / "tlds.txt"), "--toplist", str(toplist),
                   "--out", str(outdir)])
    assert rc == 0
    assert "error:" not in capsys.readouterr().err
    groups = [l.split(",")[0] for l in (outdir / "states.csv").read_text().splitlines()]
    assert "top1k" in groups and "1k-10k" not in groups


@pytest.mark.parametrize("flag", ["--psl", "--tlds", "--toplist", "--operator-rules"])
def test_simulate_side_file_not_utf8_names_the_flag_and_path(tmp_path, capsys, flag):
    side = tmp_path / "side.txt"
    side.write_bytes(b"com\n\xff\xfe\n")
    outdir = tmp_path / "out"
    rc = cli.main(["simulate", str(GOLDEN / "tuples.tsv"), flag, str(side),
                   "--out", str(outdir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} {side}: 'utf-8' codec can't decode byte 0xff")
    assert not outdir.exists()


def test_simulate_toplist_field_over_the_csv_limit_exits_two(tmp_path, capsys):
    toplist = tmp_path / "toplist.csv"
    # a stray quote runs the field on over every later line
    toplist.write_text('1,"a.com\n' + "".join(f"{i},site{i}.com\n" for i in range(2, 9000)))
    outdir = tmp_path / "out"
    rc = cli.main(["simulate", str(GOLDEN / "tuples.tsv"), "--toplist", str(toplist),
                   "--out", str(outdir)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: --toplist {toplist}: field larger")
    assert not outdir.exists()


@pytest.mark.parametrize("pattern", ["a{99999999999}", "(" * 1200 + ")" * 1200, "[[a]"],
                         ids=["repeat-count-too-large", "groups-nested-too-deep",
                              "re-warns-possible-nested-set"])
def test_simulate_operator_rule_the_engine_cannot_compile_exits_two(tmp_path, capsys, pattern):
    rules = tmp_path / "rules.txt"
    rules.write_text(f"{pattern} op\n")
    outdir = tmp_path / "out"
    rc = cli.main(["simulate", str(GOLDEN / "tuples.tsv"), "--operator-rules", str(rules),
                   "--out", str(outdir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --operator-rules {rules}: bad operator rule pattern")
    assert not outdir.exists()


# -- side files parsed once per content, within one process --------------------

SIDE_FLAGS = ["--psl", str(GOLDEN / "psl.dat"), "--tlds", str(GOLDEN / "tlds.txt"),
              "--toplist", str(GOLDEN / "toplist.csv")]


def _simulate_outputs(outdir: Path, *flags) -> dict[str, bytes]:
    """The files ``simulate`` of the golden tuples writes to ``outdir``."""
    assert cli.main(["simulate", str(GOLDEN / "tuples.tsv"), *flags,
                     "--out", str(outdir)]) == 0
    return {path.name: path.read_bytes() for path in sorted(outdir.iterdir())}


# (flag, text, another text of the same size, the other flags)
REWRITES = {
    "toplist": ("--toplist", "0005,z1.z0\n", "5000,z1.z0\n", SIDE_FLAGS[:4]),
    "psl": ("--psl", "z0\nz1.z0\n", "z0\nz3.z0\n", SIDE_FLAGS[2:4]),
    # the TLD list's names reach no output, but a line it skips is warned of
    "tlds": ("--tlds", "z0\nz1\n", "z0\n..\n", SIDE_FLAGS[:2]),
    "operator-rules": ("--operator-rules", "\\.z0$ zero\n", "\\.z8$ zero\n", SIDE_FLAGS),
}


@pytest.mark.parametrize("case", sorted(REWRITES))
def test_a_side_file_rewritten_with_its_size_and_mtime_kept_is_read_again(
        tmp_path, capsys, case):
    flag, before, after, others = REWRITES[case]

    def run(name: str, side: Path) -> tuple[dict, str]:
        outputs = _simulate_outputs(tmp_path / name, *others, flag, str(side))
        return outputs, capsys.readouterr().err.replace(str(side), "SIDE")

    (tmp_path / "after.txt").write_text(after)
    want = run("want", tmp_path / "after.txt")
    side = tmp_path / "side.txt"
    side.write_text(before)
    kept = side.stat()
    first = run("first", side)
    side.write_text(after)
    os.utime(side, ns=(kept.st_atime_ns, kept.st_mtime_ns))
    assert (side.stat().st_size, side.stat().st_mtime_ns) == (kept.st_size, kept.st_mtime_ns)
    assert run("second", side) == want
    assert first != want


def test_a_toplist_rejected_row_warns_on_every_call(tmp_path, capsys):
    toplist = tmp_path / "toplist.csv"
    toplist.write_text("5,z1.z0\n7,例え.jp\n", encoding="utf-8")
    warnings = []
    for run in ("first", "second"):
        _simulate_outputs(tmp_path / run, "--toplist", str(toplist))
        warnings.append([l for l in capsys.readouterr().err.splitlines()
                         if l.startswith("warning:")])
    assert warnings[0] == warnings[1]
    assert len(warnings[0]) == 1 and "--toplist" in warnings[0][0]
    assert "skipped 1 line(s)" in warnings[0][0]


def test_a_psl_that_is_not_utf8_fails_on_every_call_until_it_is_mended(tmp_path, capsys):
    psl = tmp_path / "psl.dat"
    psl.write_bytes(b"z0\n\xff\xfe\n")
    outdir = tmp_path / "out"
    argv = ["simulate", str(GOLDEN / "tuples.tsv"), "--psl", str(psl), "--out", str(outdir)]
    errors = []
    for _ in range(2):
        assert cli.main(argv) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"error: --psl {psl}: 'utf-8' codec can't decode byte 0xff")
    assert not outdir.exists()
    psl.write_text("z0\n")
    assert cli.main(argv) == 0
    assert (outdir / "nsset-cdf.csv").exists()


def test_two_calls_with_the_same_side_files_write_the_same_outputs(tmp_path, capsys,
                                                                   monkeypatch):
    parses = Counter()

    def counted(name, parse):
        def count(*args):
            parses[name] += 1
            return parse(*args)
        return count

    for name in ("parse_tld_list", "parse_toplist", "parse_operator_rules"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    monkeypatch.setattr(cli.PublicSuffixList, "parse",
                        counted("psl", cli.PublicSuffixList.parse))
    rules = tmp_path / "rules.txt"
    rules.write_text("\\.z0$ zero\n^ns0- first\n")
    flags = [*SIDE_FLAGS, "--operator-rules", str(rules), "--month", "2023-02"]
    first = _simulate_outputs(tmp_path / "first", *flags)
    second = _simulate_outputs(tmp_path / "second", *flags)
    assert {"states.csv", "nsset-cdf.csv"} <= first.keys()
    assert second == first
    # each content is parsed once per process, on the first call
    assert parses == dict.fromkeys(
        ["psl", "parse_tld_list", "parse_toplist", "parse_operator_rules"], 1)


# -- a UTF-8 byte-order mark at the start of an input file -------------------


def _with_bom(path: Path, text: str) -> Path:
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    return path


@pytest.mark.parametrize("name", ["tuples.jsonl", "tuples.tsv", "tuples.tsv.gz"])
def test_a_byte_order_mark_opens_a_tuple_file(tmp_path, name):
    if name.endswith(".jsonl"):
        text = "".join(json.dumps({"count": 1, "time_first": 1, "time_last": 2,
                                   "rrname": f"z{i}.com", "rrtype": "NS", "bailiwick": "com",
                                   "rdata": [f"ns1.z{i}.com"]}) + "\n" for i in range(3))
    else:
        text = _ns_lines(3).decode()
    path = _with_bom(tmp_path / name, text)
    if name.endswith(".gz"):
        path.write_bytes(gzip.compress(path.read_bytes()))
    assert _iter_tuples_counts(path) == (3, 0)


def test_a_byte_order_mark_is_not_part_of_the_first_toplist_row(tmp_path):
    rejected = []
    toplist = load_toplist(_with_bom(tmp_path / "toplist.csv", "1,google.com\n2,b.com"),
                           rejected)
    assert (toplist, rejected) == ({"google.com": 1, "b.com": 2}, [])


def test_a_byte_order_mark_is_not_part_of_the_first_tld(tmp_path):
    rejected = []
    tlds = load_tld_list(_with_bom(tmp_path / "tlds.txt", "com\nnet\n"), rejected)
    assert (tlds, rejected) == ({"com", "net"}, [])


def test_a_byte_order_mark_is_not_part_of_the_first_operator_rule(tmp_path):
    path = _with_bom(tmp_path / "rules.txt", r"\.example\.net$ ex" + "\n")
    rules = cli._side_file("--operator-rules", str(path), parse_operator_rules)
    assert [(rule.pattern.pattern, rule.label) for rule in rules] == [(r"\.example\.net$", "ex")]


def test_a_byte_order_mark_is_not_part_of_the_first_psl_line(tmp_path):
    # read with the mark, the first line would be a rule and no exception
    psl = PublicSuffixList.load(_with_bom(tmp_path / "psl.dat", "!foo.com\n*.com\n"))
    assert psl.match(N("a.foo.com")) == N("com")


def test_a_byte_order_mark_is_not_part_of_the_first_scan_domain(tmp_path):
    path = _with_bom(tmp_path / "domains.txt", "a.com\n2,b.com\n")
    assert cli._parse_domain_list(str(path)) == [("a.com", None), ("b.com", 2)]
    path = _with_bom(tmp_path / "ranked.csv", "1,a.com\n")
    assert cli._parse_domain_list(str(path)) == [("a.com", 1)]


def test_a_byte_order_mark_is_not_part_of_the_first_root_hint(tmp_path):
    path = _with_bom(tmp_path / "roots.hints", "a.root-servers.test v4 10.0.0.1\n")
    assert load_root_hints(path) == [(N("a.root-servers.test"), V4,
                                      "10.0.0.1")]


def test_a_byte_order_mark_is_not_part_of_the_fixture_header(tmp_path):
    zone = json.dumps({"zone": ".", "ns": [{"name": "a.root", "v4": ["10.0.0.1"]}]})
    path = _with_bom(tmp_path / "fixtures.jsonl",
                     '{"format": "mocknet-fixtures", "version": 1}\n' + zone + "\n")
    assert [str(fz.zone) for fz in load_fixtures(path)] == ["."]


# -- the root hints and scan list parsers on any text --------------------------

LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r", "\x85", "\u2028"])


def _texts_of(lines):
    """Any text, or lines drawn from ``lines``."""
    return st.one_of(st.text(max_size=40), st.tuples(st.lists(lines, max_size=6), LINE_ENDS)
                     .map(lambda drawn: drawn[1].join(drawn[0])))


hint_texts = _texts_of(st.one_of(
    st.tuples(st.sampled_from(["a.root", "B.ROOT.", "bad..name"]),
              st.sampled_from(["v4", "v6", "v5"]),
              st.sampled_from(["10.0.0.1", "2001:db8::1", "::ffff:10.0.0.1", "fe80::1%eth0",
                               "10.0.0.256", "x"])).map(" ".join),
    st.sampled_from(["", "  ", "# note"]),
    st.text(max_size=12)))


@settings(max_examples=400, deadline=None)
@given(hint_texts)
def test_root_hints_of_any_text_match_their_protocols_or_raise_a_value_error(
        tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "any.hints"
    path.write_bytes(text.encode("utf-8"))
    try:
        hints = load_root_hints(path)
    except ValueError:
        return
    assert hints
    for name, proto, address in hints:
        assert isinstance(name, DomainName)
        assert ipaddress.ip_address(address).version == {V4: 4, V6: 6}[proto]


domain_list_texts = _texts_of(st.lists(st.one_of(
    st.sampled_from(["1", " 2 ", "007", "+3", "1_0", "²", "٣", "a.com", " b.org ", "#", ""]),
    st.text(max_size=8)), max_size=3).map(",".join))


@settings(max_examples=400, deadline=None)
@given(domain_list_texts)
def test_a_domain_list_of_any_text_parses_with_ranks_of_ascii_digits(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "any-domains.txt"
    path.write_bytes(text.encode("utf-8"))
    entries = cli._parse_domain_list(str(path))
    lines = [line for line in (raw.split("#", 1)[0].strip() for raw in
                               path.read_text(encoding="utf-8-sig").splitlines()) if line]
    assert len(entries) == len(lines)
    for (_domain, rank), line in zip(entries, lines):
        field = line.split(",", 1)[0].strip() if "," in line else None
        digits = field is not None and field.isascii() and field.isdigit()
        assert rank is None or (digits and rank == int(field)), line
        assert rank is not None or not digits, line


def test_check_of_any_target_text_exits_zero_one_or_two(tmp_path):
    u, truth = random_universe(3, 10)
    flags = ["--roots", write_hints(tmp_path, u), "--retries", "1", *FAST]
    zones = sorted(str(zone) for zone in truth)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.sampled_from(zones), st.text(max_size=20),
                     st.builds("-{}".format, st.text(max_size=6))))
    @example(".")
    @example("")
    @example("--roots")
    def check(target):
        # a target argparse would read as a flag goes after "--"
        argv = ["check", *flags, *(["--"] if target.startswith("-") else []), target]
        rc = cli.main(argv, transport_factory=lambda cfg: u)
        assert rc in (0, 1, 2), target
        if target in (".", ""):
            assert rc == 2

    check()


# -- the collector pause -------------------------------------------------------


@pytest.fixture
def collector_restored():
    yield
    gc.enable()


@pytest.mark.parametrize("target, want", [("d.t", 0), ("example.org", 1), ("bad..name", 2)])
def test_main_enables_the_collector_again_after_each_exit_code(
        tmp_path, capsys, collector_restored, target, want):
    u = combined_two_scenario_universe() if want == 1 else healthy_depth3_universe()
    assert run_cli(["check", target, "--roots", write_hints(tmp_path, u), *FAST], u) == want
    assert gc.isenabled()


def test_a_command_runs_with_the_collector_paused(monkeypatch, collector_restored):
    seen = []
    monkeypatch.setattr(cli, "cmd_simulate", lambda args: seen.append(gc.isenabled()) or 0)
    assert cli.main(["simulate", "x.tsv"]) == 0
    assert seen == [False] and gc.isenabled()


def test_main_enables_the_collector_again_after_an_interrupt(
        monkeypatch, capsys, collector_restored):
    def interrupt(args, transport_factory=None):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_check", interrupt)
    assert cli.main(["check", "d.t"]) == 2
    assert "interrupted" in capsys.readouterr().err
    assert gc.isenabled()


def test_main_enables_the_collector_again_after_an_escaping_exception(
        monkeypatch, collector_restored):
    def fail(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_simulate", fail)
    with pytest.raises(RuntimeError, match="boom"):
        cli.main(["simulate", "x.tsv"])
    assert gc.isenabled()


def test_main_leaves_the_collector_off_for_a_caller_that_turned_it_off(
        monkeypatch, collector_restored):
    monkeypatch.setattr(cli, "cmd_simulate", lambda args: 0)
    gc.disable()
    assert cli.main(["simulate", "x.tsv"]) == 0
    assert not gc.isenabled()


def test_two_threads_in_main_at_once_leave_the_collector_enabled(
        monkeypatch, collector_restored):
    # The first call returns while the second's command still runs: that
    # command stays paused, and the collector is back on once both are out.
    both_inside = threading.Barrier(2, timeout=10)
    first_left = threading.Event()
    seen, codes = [], []

    def command(args):
        both_inside.wait()
        if args.month == "second":
            assert first_left.wait(10)
            seen.append(gc.isenabled())
        return 0

    def call(month):
        codes.append(cli.main(["simulate", "x.tsv", "--month", month]))
        if month == "first":
            first_left.set()

    monkeypatch.setattr(cli, "cmd_simulate", command)
    threads = [threading.Thread(target=call, args=(month,)) for month in ("first", "second")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
    assert not any(thread.is_alive() for thread in threads)
    assert codes == [0, 0] and seen == [False]
    assert gc.isenabled()


def test_threads_racing_through_main_each_run_paused(monkeypatch, collector_restored):
    seen = []

    def command(args):
        seen.append(gc.isenabled())
        time.sleep(0)  # let the other threads in and out
        seen.append(gc.isenabled())
        return 0

    monkeypatch.setattr(cli, "cmd_simulate", command)

    def calls():
        for _ in range(50):
            cli.main(["simulate", "x.tsv"])

    threads = [threading.Thread(target=calls) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 2 * 8 * 50 and not any(seen)
    assert gc.isenabled()


# -- one parser per process ----------------------------------------------------


@pytest.fixture
def builds(monkeypatch, collector_restored):
    """The number of parsers built so far, counted from an empty memo."""
    count = [0]
    build = cli.build_parser

    def counting():
        count[0] += 1
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    yield count
    cli._parser.cache_clear()


@pytest.fixture
def parsed_checks(monkeypatch):
    """The parsed arguments of each ``check`` that ``main`` runs."""
    seen = []
    monkeypatch.setattr(cli, "cmd_check",
                        lambda args, transport_factory=None: seen.append(args) or 0)
    return seen


def test_main_builds_the_parser_once_per_process(monkeypatch, builds, parsed_checks):
    for _ in range(3):
        assert cli.main(["check", "d.t"]) == 0
    assert builds[0] == 1
    monkeypatch.setenv("V6READY_RETRIES", "2")
    for _ in range(2):
        assert cli.main(["check", "d.t"]) == 0
    monkeypatch.delenv("V6READY_RETRIES")
    assert cli.main(["check", "d.t"]) == 0
    assert builds[0] == 1
    assert [args.retries for args in parsed_checks] == [4, 4, 4, 2, 2, 4]


def test_each_call_sees_the_environment_it_runs_in(monkeypatch, builds, parsed_checks):
    # set, changed, emptied, set again, removed
    values = ["7", "8", "", "7", None]
    for value in values:
        if value is None:
            monkeypatch.delenv("V6READY_SEED")
        else:
            monkeypatch.setenv("V6READY_SEED", value)
        assert cli.main(["check", "d.t"]) == 0
    assert [args.seed for args in parsed_checks] == [7, 8, None, 7, None]
    assert cli.main(["check", "d.t", "--seed", "3"]) == 0  # a flag still wins
    assert parsed_checks[-1].seed == 3


def test_a_fixed_environment_number_works_after_a_bad_one(tmp_path, capsys, monkeypatch,
                                                         collector_restored):
    u = four_state_universe()
    domains = tmp_path / "domains.txt"
    domains.write_text("dualzone.t\nv4zone.t\n")
    argv = ["scan", str(domains), "--roots", write_hints(tmp_path, u),
            "--output", str(tmp_path / "results.jsonl"), *FAST]
    monkeypatch.setenv("V6READY_CONCURRENCY", "eight")
    assert run_cli(argv, u) == 2
    assert "invalid int value: 'eight'" in capsys.readouterr().err
    monkeypatch.setenv("V6READY_CONCURRENCY", "2")
    assert run_cli(argv, u) == 0
    assert "scanned 2 domains" in capsys.readouterr().out


@pytest.mark.parametrize("bad, error", [
    (["--retries", "x"], "invalid int value: 'x'"),
    (["--bogus"], "unrecognized arguments: --bogus"),
    (["--format", "json"], "invalid choice: 'json'"),
], ids=["bad-number", "unknown-flag", "not-a-choice"])
def test_a_command_line_that_fails_to_parse_leaves_the_next_call_alone(
        tmp_path, capsys, collector_restored, bad, error):
    u = healthy_depth3_universe()
    argv = ["check", "d.t", "--format", "structured", "--roots", write_hints(tmp_path, u),
            *FAST]
    assert run_cli(argv, u) == 0
    before = capsys.readouterr().out
    assert run_cli([*argv, *bad], u) == 2
    err = capsys.readouterr().err
    assert "error:" in err and error in err
    assert run_cli(argv, u) == 0
    assert capsys.readouterr().out == before


def test_help_prints_the_usage_and_returns_zero(capsys):
    assert cli.main(["-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: v6ready")
    assert cli.main(["simulate", "--help"]) == 0
    assert "--tlds" in capsys.readouterr().out


def test_threads_racing_through_main_each_get_their_own_arguments(monkeypatch, builds):
    # They start from an empty memo, so the first calls race to build it too.
    local = threading.local()
    matched = []

    def command(args):
        local.got.append((args.tuples, args.month, args.out, args.psl))
        return 0

    monkeypatch.setattr(cli, "cmd_simulate", command)

    def calls(n):
        local.got, wanted = [], []
        for i in range(50):
            psl = f"psl{n}" if i % 2 else None
            argv = ["simulate", f"t{n}-{i}.tsv", "--month", f"{n}-{i}", "--out", f"out{n}"]
            cli.main(argv + (["--psl", psl] if psl else []))
            wanted.append(([f"t{n}-{i}.tsv"], f"{n}-{i}", f"out{n}", psl))
        matched.append(local.got == wanted)

    threads = [threading.Thread(target=calls, args=(n,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert matched == [True] * 8
    assert 1 <= builds[0] <= 8


# -- each V6READY_* value read as the flag it stands for ----------------------

# (command, variable, flag, is a switch), as ``cli`` derives them from its parser
VARIABLES = [(command, *entry) for command, entries in cli._parser()[1].items()
             for entry in entries]
BARE = {"check": ["check", "d.t"], "scan": ["scan", "domains.txt"],
        "simulate": ["simulate", "t.tsv"]}


@pytest.fixture
def parsed_commands(monkeypatch):
    """The parsed arguments of each command that ``main`` runs."""
    seen = []
    for name in ("cmd_check", "cmd_scan"):
        monkeypatch.setattr(cli, name,
                            lambda args, transport_factory=None: seen.append(args) or 0)
    monkeypatch.setattr(cli, "cmd_simulate", lambda args: seen.append(args) or 0)
    return seen


def _action(command: str, flag: str):
    """The action of ``flag`` in the parser of ``command`` that ``main`` uses."""
    commands = next(action for action in cli._parser()[0]._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    return commands[command]._option_string_actions[flag]


@pytest.mark.parametrize("command, variable, flag", [
    pytest.param(command, variable, flag, id=f"{command} {variable}")
    for command, variable, flag, switch in VARIABLES if not switch])
def test_a_variable_alone_sets_its_flag_and_the_flag_wins(
        monkeypatch, parsed_commands, command, variable, flag):
    action = _action(command, flag)
    given, wanted = action.choices or {int: ("3", "5"), float: ("0.5", "1.5")}.get(
        action.type, ("given", "wanted"))
    monkeypatch.setenv(variable, wanted)
    assert cli.main(BARE[command]) == 0
    assert cli.main([*BARE[command], flag, given]) == 0
    convert = action.type or str
    assert [getattr(args, action.dest) for args in parsed_commands] == [
        convert(wanted), convert(given)]
    assert convert(wanted) != action.default


@pytest.mark.parametrize("command, variable, flag", [
    pytest.param(command, variable, flag, id=f"{command} {variable}")
    for command, variable, flag, switch in VARIABLES if switch])
def test_a_switch_variable_is_set_by_one_unset_when_empty_and_refused_otherwise(
        monkeypatch, capsys, parsed_commands, command, variable, flag):
    dest = _action(command, flag).dest
    for value, want in [("1", True), ("", False)]:
        monkeypatch.setenv(variable, value)
        assert cli.main(BARE[command]) == 0
        assert getattr(parsed_commands.pop(), dest) is want
    for value in ("yes", "true", "0", "2"):
        monkeypatch.setenv(variable, value)
        assert cli.main(BARE[command]) == 2
        assert f"argument {flag}: ignored explicit argument '{value}'" in capsys.readouterr().err
    assert parsed_commands == []


def _protocol_run(tmp_path, command, env, monkeypatch):
    """(exit code, the protocols queried, whether an output was written)
    of ``command`` on the healthy depth-3 tree under ``env``."""
    u = healthy_depth3_universe()
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    domains = tmp_path / "domains.txt"
    domains.write_text("d.t\n")
    out = tmp_path / "results.jsonl"
    argv = (["check", "d.t"] if command == "check"
            else ["scan", str(domains), "--output", str(out)])
    rc = run_cli([*argv, "--roots", write_hints(tmp_path, u), *FAST], u)
    return rc, {entry.protocol for entry in u.log.queries()}, out.exists()


@pytest.mark.parametrize("command", ["check", "scan"])
@pytest.mark.parametrize("variable", ["V6READY_V4_ONLY", "V6READY_V6_ONLY"])
@pytest.mark.parametrize("value", ["yes", "true", "0"])
def test_a_protocol_switch_set_to_anything_but_one_stops_before_any_query(
        tmp_path, capsys, monkeypatch, command, variable, value):
    assert _protocol_run(tmp_path, command, {variable: value}, monkeypatch) == (2, set(), False)
    assert "ignored explicit argument" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "scan"])
@pytest.mark.parametrize("env, protocols", [
    ({"V6READY_V6_ONLY": "1"}, {V6}), ({"V6READY_V4_ONLY": "1"}, {V4}),
    ({"V6READY_V4_ONLY": "", "V6READY_V6_ONLY": ""}, {V4, V6}),
], ids=["v6-only", "v4-only", "empty"])
def test_a_protocol_switch_of_one_walks_only_that_protocol(
        tmp_path, monkeypatch, command, env, protocols):
    rc, seen, _ = _protocol_run(tmp_path, command, env, monkeypatch)
    assert seen == protocols
    # every zone of the tree is dual-stack, so only the v4-only walk misses v6
    assert rc == (1 if command == "check" and protocols == {V4} else 0)


def test_an_output_variable_that_starts_with_a_dash_is_the_output_path(
        tmp_path, capsys, monkeypatch):
    u = healthy_depth3_universe()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "domains.txt").write_text("d.t\n")
    monkeypatch.setenv("V6READY_OUTPUT", "-rows.jsonl")
    assert run_cli(["scan", "domains.txt", "--roots", write_hints(tmp_path, u), *FAST], u) == 0
    assert "results: -rows.jsonl" in capsys.readouterr().out
    assert [json.loads(line)["domain"] for line in
            (tmp_path / "-rows.jsonl").read_text().splitlines()] == ["d.t"]


@pytest.mark.parametrize("argv", [[], *([command] for command in BARE)],
                         ids=["v6ready", *BARE])
@pytest.mark.parametrize("ask", ["-h", "--help", "--hel"])
def test_help_returns_zero_whatever_the_variables_hold(monkeypatch, capsys, argv, ask):
    for name in ("V6READY_TIMEOUT", "V6READY_CONCURRENCY", "V6READY_V6_ONLY"):
        monkeypatch.setenv(name, "x")
    assert cli.main([*argv, ask]) == 0
    assert capsys.readouterr().out.startswith(" ".join(["usage: v6ready", *argv]))


def test_a_target_after_the_double_dash_that_reads_like_help_keeps_the_variables(
        tmp_path, capsys, monkeypatch):
    u = healthy_depth3_universe()
    monkeypatch.setenv("V6READY_ROOTS", write_hints(tmp_path, u))
    monkeypatch.setenv("V6READY_FORMAT", "structured")
    assert run_cli(["check", *FAST, "--", "-h"], u) in (0, 1)
    assert json.loads(capsys.readouterr().out)["target"] == "-h"
    assert u.log.entries


# -- the console entry, in a fresh process -------------------------------------


def _console(args, env, cwd) -> subprocess.CompletedProcess:
    """``python -m v6ready.cli ARGS`` in ``cwd`` with the ``V6READY_*``
    environment ``env`` alone."""
    environ = {name: value for name, value in os.environ.items()
               if not name.startswith(cli.ENV_PREFIX)}
    source = str(Path(cli.__file__).resolve().parents[1])
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [source, environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "v6ready.cli", *args], env={**environ, **env},
                          cwd=cwd, capture_output=True, text=True, timeout=120)


def test_the_console_entry_reads_side_files_from_the_environment_as_from_flags(tmp_path):
    outputs = []
    for name, flags, env in [
        ("flags", SIDE_FLAGS, {}),
        ("environment", [], {"V6READY_PSL": SIDE_FLAGS[1], "V6READY_TLDS": SIDE_FLAGS[3],
                             "V6READY_TOPLIST": SIDE_FLAGS[5]}),
    ]:
        done = _console(["simulate", str(GOLDEN / "tuples.tsv"), *flags, "--out", name],
                        env, tmp_path)
        assert (done.returncode, done.stderr) == (0, ""), done.stderr
        outputs.append({path.name: path.read_bytes()
                        for path in sorted((tmp_path / name).iterdir())})
    assert "nsset-cdf.csv" in outputs[0]
    assert outputs[0] == outputs[1]


def test_the_console_entry_prints_the_help_under_a_bad_variable(tmp_path):
    done = _console(["check", "-h"], {"V6READY_TIMEOUT": "x"}, tmp_path)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: v6ready check")
