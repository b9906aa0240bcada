"""Tests of the benchmark's oracle and checks: each check must flag a
corrupted output. Run with ``python3 -m pytest bench/test_checks.py``."""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import gen  # noqa: E402
from v6ready import cli, mocknet  # noqa: E402
from v6ready.names import normalize  # noqa: E402


def _model(seed: int):
    m, addrs = gen.build_model(seed, 120, providers=6, cycles=6)
    targets = m.zones[-120::2]
    gen.add_dark_subtree(m)
    gen.add_liveness_defects(m, addrs, random.Random(seed), targets, 8)
    return m, targets


def _universe(m, tmp_path: Path):
    gen.write_fixtures(m, tmp_path / "fixtures.jsonl")
    gen.write_root_hints(m, tmp_path / "roots.hints")
    return mocknet.build_universe(mocknet.load_fixtures(tmp_path / "fixtures.jsonl"))


def _run(argv, universe=None) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv, transport_factory=(lambda cfg: universe) if universe else None)
    return rc, buf.getvalue()


FAST = ["--retry-wait", "0", "--seed", "1"]


def test_oracle_matches_ground_truth(tmp_path):
    for seed in (1, 2, 3):
        m, _ = _model(seed)
        truth = mocknet.ground_truth(_universe(m, tmp_path))
        mine = gen.oracle(m)
        assert {z: mine[z] for z in mine} == {z: truth[normalize(z)] for z in mine}


def test_passive_oracle_matches_ground_truth(tmp_path):
    m, _ = gen.build_model(4, 150)
    truth = mocknet.ground_truth(_universe(m, tmp_path))
    mine = gen.oracle(m, liveness=False)
    assert all(mine[z] == truth[normalize(z)] for z in mine)


def test_month_check_flags_a_corrupted_verdict(tmp_path):
    inputs = tmp_path / "in"
    inputs.mkdir()
    manifest = gen.passive_inputs(5, inputs, month_zones=(60, 120), event_month=1)
    month = manifest["months"][1]
    out = tmp_path / "out"
    rc, _ = _run(["simulate", str(inputs / month["file"]),
                  "--psl", str(inputs / manifest["psl"]),
                  "--tlds", str(inputs / manifest["tlds"]),
                  "--toplist", str(inputs / manifest["toplist"]), "--out", str(out)])
    assert rc == 0
    assert checks.check_month(out, month) == []

    path = out / "verdicts.jsonl"
    lines = path.read_text().splitlines()
    doc = json.loads(lines[1])
    doc["v6"] = not doc["v6"]
    lines[1] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n")
    problems = checks.check_month(out, month)
    assert len(problems) == 1 and doc["zone"] in problems[0]


def test_scan_check_flags_a_corrupted_row(tmp_path):
    m, _ = _model(6)
    universe = _universe(m, tmp_path)
    domains = m.zones[1:40]
    (tmp_path / "list.txt").write_text("\n".join(domains) + "\n")
    out = tmp_path / "rows.jsonl"
    rc, _ = _run(["scan", str(tmp_path / "list.txt"), "--output", str(out),
                  "--concurrency", "1", "--roots", str(tmp_path / "roots.hints"), *FAST],
                 universe)
    assert rc == 0
    truth = {z: [v["v4"], v["v6"]] for z, v in gen.oracle(m).items() if z in domains}
    truth = {z: truth[z] for z in domains}
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert checks.check_scan_rows(rows, truth) == []

    rows[3]["v4_resolvable"] = not rows[3]["v4_resolvable"]
    problems = checks.check_scan_rows(rows, truth)
    assert len(problems) == 1 and rows[3]["domain"] in problems[0]
    assert checks.check_scan_rows(rows[:-1], truth)


def test_check_check_flags_a_wrong_exit_code_and_liveness(tmp_path):
    m, targets = _model(7)
    universe = _universe(m, tmp_path)
    truth = gen.oracle(m)
    blackholed = {p: set(a) for p, a in gen.blackholed_addresses(m).items()}
    dead = next(z for z in targets if gen.BLACKHOLE_V6 in m.defects[z])
    rc, out = _run(["check", dead, "--format", "structured",
                    "--roots", str(tmp_path / "roots.hints"), *FAST], universe)
    doc = json.loads(out)
    want = [truth[dead]["v4"], truth[dead]["v6"]]
    assert rc == 1
    assert checks.check_check(dead, rc, doc, want, blackholed) == []
    assert any("unresponsive" in row for row in doc["liveness"])

    assert len(checks.check_check(dead, 0, doc, want, blackholed)) == 1
    doc["liveness"][0][2] = "responsive" if doc["liveness"][0][2] != "responsive" \
        else "unresponsive"
    assert len(checks.check_check(dead, rc, doc, want, blackholed)) == 1


def test_dark_subtree_does_not_resolve_over_ipv6(tmp_path):
    """The check workload's fault targets: below a TLD that never answers
    over IPv6, the oracle, ground truth and ``check --v6-only`` all say the
    zone does not resolve over IPv6 (plain ``check`` says it does)."""
    m, _ = _model(8)
    universe = _universe(m, tmp_path)
    target = gen.DARK_CHILDREN[0]
    assert gen.oracle(m)[target] == {"v4": True, "v6": False}
    assert mocknet.ground_truth(universe)[normalize(target)]["v6"] is False
    roots = str(tmp_path / "roots.hints")
    rc, _ = _run(["check", target, "--v6-only", "--roots", roots, *FAST], universe)
    assert rc == 1
