import json
import sys
from pathlib import Path

import pytest

from universes import (
    broken_oob_universe,
    combined_two_scenario_universe,
    healthy_depth3_universe,
    healthy_zone,
    root_fixture,
)
from v6ready import cli
from v6ready.mocknet import (
    BLACKHOLE_V6,
    LoopbackServer,
    build_universe,
    fixture_tuples,
    ground_truth,
    random_universe,
    zone_fixture,
)
from v6ready.records import V4, V6


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


def test_check_conflicting_protocol_flags_rejected(tmp_path, capsys):
    u = healthy_depth3_universe()
    with pytest.raises(SystemExit):  # argparse mutual exclusion
        run_cli(["check", "d.t", "--v4-only", "--v6-only",
                 "--roots", write_hints(tmp_path, u)], u)


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
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan", str(GOLDEN / "domains.txt"), "--output", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "invalid int value: 'eight'" in capsys.readouterr().err


def test_environment_format_outside_its_choices_exits_two(tmp_path, capsys, monkeypatch):
    u = healthy_depth3_universe()
    monkeypatch.setenv("V6READY_FORMAT", "json")
    rc = run_cli(["check", "d.t", "--roots", write_hints(tmp_path, u), *FAST], u)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --format")
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


def test_loopback_end_to_end_exit_codes(tmp_path, capsys):
    u_ok = healthy_depth3_universe()
    with LoopbackServer(u_ok) as srv:
        hints = tmp_path / "loop.hints"
        hints.write_text(srv.root_hints_text())
        rc = cli.main([
            "check", "d.t", "--roots", str(hints), "--port", str(srv.port),
            "--timeout", "1.0", "--tcp-timeout", "1.0", "--retry-wait", "0",
            "--retries", "2", "--seed", "1",
        ])
    assert rc == 0

    u_bad = broken_oob_universe()
    with LoopbackServer(u_bad) as srv:
        hints = tmp_path / "loop2.hints"
        hints.write_text(srv.root_hints_text())
        rc = cli.main([
            "check", "example.org", "--roots", str(hints), "--port", str(srv.port),
            "--timeout", "1.0", "--tcp-timeout", "1.0", "--retry-wait", "0",
            "--retries", "2", "--seed", "1",
        ])
        out = capsys.readouterr().out
    assert rc == 1
    assert "no-aaaa-for-ns" in out


def test_loopback_unreachable_port_exits_two(tmp_path):
    hints = tmp_path / "dead.hints"
    hints.write_text("a.root v4 127.0.0.1\n")
    rc = cli.main([
        "check", "d.t", "--roots", str(hints), "--port", "1",  # closed port
        "--timeout", "0.2", "--tcp-timeout", "0.2", "--retry-wait", "0",
        "--retries", "1", "--seed", "1",
    ])
    assert rc == 2


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
    from v6ready.mocknet import TRUNCATE_UDP
    from universes import healthy_zone, root_fixture
    from v6ready.mocknet import build_universe

    u = build_universe([
        root_fixture(),
        healthy_zone("t", 10, defects={TRUNCATE_UDP}),
        healthy_zone("d.t", 11, defects={TRUNCATE_UDP}),
    ])
    with LoopbackServer(u) as srv:
        hints = tmp_path / "tcp.hints"
        hints.write_text(srv.root_hints_text())
        rc = cli.main([
            "check", "d.t", "--roots", str(hints), "--port", str(srv.port),
            "--timeout", "1.0", "--tcp-timeout", "1.0", "--retry-wait", "0",
            "--retries", "2", "--seed", "1", "--format", "structured",
        ])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["state"] == "dual"


def test_simulate_skips_a_toplist_row_whose_rank_is_not_ascii_digits(tmp_path, capsys):
    toplist = tmp_path / "toplist.csv"
    toplist.write_text("1,z1.z0\n²,z3.z0\n", encoding="utf-8")
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
