"""Golden outputs of ``simulate``, ``check`` and ``scan`` on fixed inputs.

The inputs under ``tests/golden/`` are committed: passive tuples exported
by ``mocknet.fixture_tuples`` from one seeded ``random_universe``, a tiny
PSL, TLD list and toplist, and a scan list over the zones of
``combined_two_scenario_universe``. A second ``simulate`` reads the tuples
of another universe from a TSV file and a gzipped JSONL file at once,
mixed with what a real aggregate holds: repeated lines, split NS sets,
records that carry no delegation evidence, names and types in other
spellings, blank lines, and one line of each malformed kind that
``bench/gen.py`` injects. A second ``scan`` crawls the zones of a seeded
tree with liveness faults, whose zones depend on each other through their
out-of-bailiwick NS, so the crawl has to gather some of them again. Every
run must reproduce the files under ``tests/golden/expected/`` byte for
byte.

Regenerate them only when an output format changes on purpose:
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from universes import (  # noqa: E402
    RecordingTransport,
    combined_two_scenario_universe,
    with_liveness_faults,
)
from v6ready import cli  # noqa: E402
from v6ready.mocknet import fixture_tuples, random_universe  # noqa: E402

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "expected"
SIMULATE_FILES = ("verdicts.jsonl", "stats.json", "states.csv", "causes.csv",
                  "nsset-cdf.csv")
CHECK_TARGETS = ("org", "example.net", "example.org", "sub.example.org",
                 "www.sub.example.org")
FAST = ["--timeout", "0.2", "--tcp-timeout", "0.2", "--retry-wait", "0",
        "--seed", "1"]

PSL = """\
// ===BEGIN ICANN DOMAINS===
z0
z1.z0
*.z28
!z40.z28
// ===END ICANN DOMAINS===
// ===BEGIN PRIVATE DOMAINS===
z4.z0
// ===END PRIVATE DOMAINS===
"""
TLDS = "# golden TLD list\nz0\nz20\nz28\n"
TOPLIST = ("5,z1.z0\n5000,z3.z0\n50000,z4.z0\n500000,z44\n"
           "2000000,z8.z0\n700,z11.z1.z0\n")
DOMAINS = ("org\nnet\n10,example.net\n20,example.org\nsub.example.org\n"
           "bad..name\nwww.sub.example.org\n")


TUPLE_FIELDS = ("count", "time_first", "time_last", "rrname", "rrtype",
                "bailiwick", "rdata")


def _malformed(zone: str) -> list[dict | str]:
    """One record of each malformed kind ``bench/gen.py`` injects; the
    first is cut short (a string, in either form)."""
    base = {"count": 1, "time_first": 100, "time_last": 200, "rrname": zone,
            "rrtype": "NS", "bailiwick": zone, "rdata": [f"ns1.{zone}"]}
    return ["1\t2\t3\tx.com\tNS", {**base, "count": "many"}, {**base, "count": 0},
            {**base, "time_first": 300}, {**base, "rdata": []},
            {**base, "rrtype": "BOGUS"}, {**base, "rrname": "x" * 64 + "." + zone},
            {**base, "rdata": [f"ns1..{zone}"]},
            {**base, "rrname": f"ns1.{zone}", "rrtype": "A", "rdata": ["fd00::1"]},
            {**base, "rrname": f"ns1.{zone}", "rrtype": "AAAA", "rdata": ["10.1.2.3"]}]


def mixed_records() -> tuple[list, list]:
    """(TSV records, JSON records) of one aggregate split over two files."""
    universe, _truth = random_universe(seed=12, size=40)
    rng = random.Random(12)
    rows = []
    for t in fixture_tuples(universe):
        row = [str(t.rrname), str(t.rrtype), str(t.bailiwick), list(t.rdata)]
        rows.append(row)
        r = rng.random()
        if r < 0.2:
            rows.append(row)
        elif r < 0.35 and len(row[3]) > 1:
            rows.append([*row[:3], row[3][:1]])
        elif r < 0.45 and row[0] != ".":
            rows.append([row[0].upper() + ".", row[1].lower(), row[2], row[3]])
    zones = sorted({row[0] for row in rows if row[1] == "NS"})
    for zone in zones[::3]:
        rows += [[zone, "SOA", zone, [f"ns1.{zone} hostmaster.{zone} 1 7200 3600 1209600 300"]],
                 [zone, "MX", zone, [f"10 mail.{zone}"]], [zone, "TXT", zone, ["v=spf1 -all"]],
                 [f"www.{zone}", "CNAME", zone, [zone]], [zone, "TYPE99", zone, ["x"]]]
    rows += [["\\122\\048", "NS", ".", ["ns0-1.z0"]],
             ["a\\.b.z0", "A", "z0", ["10.9.9.9"]]]
    rng.shuffle(rows)
    records = []
    for rrname, rrtype, bailiwick, rdata in rows:
        first = 1_600_000_000 + rng.randrange(86400 * 28)
        records.append(dict(zip(TUPLE_FIELDS, (1 + rng.randrange(500), first,
                                               first + rng.randrange(86400 * 3),
                                               rrname, rrtype, bailiwick, rdata))))
    half = len(records) // 2
    tsv, jsonl = records[:half], records[half:]
    for part in (tsv, jsonl):
        for record in _malformed(zones[1 + rng.randrange(len(zones) - 1)]):
            part.insert(1 + rng.randrange(len(part)), record)
    return tsv, jsonl


def _tsv_line(record: dict | str) -> str:
    if isinstance(record, str):
        return record
    return "\t".join([*(str(record[f]) for f in TUPLE_FIELDS[:6]), ",".join(record["rdata"])])


def _json_line(record: dict | str) -> str:
    return '{"count": 1, "rrname": ' if isinstance(record, str) else json.dumps(record)


def write_mixed_inputs() -> None:
    tsv, jsonl = mixed_records()
    tsv_lines = [_tsv_line(r) for r in tsv]
    json_lines = [_json_line(r) for r in jsonl]
    tsv_lines[len(tsv_lines) // 2:len(tsv_lines) // 2] = ["", "   "]
    json_lines[:0] = ["", " \t"]
    json_lines.insert(len(json_lines) // 2, "")
    (GOLDEN / "mixed.tsv").write_text("\n".join(tsv_lines) + "\n", encoding="utf-8")
    (GOLDEN / "mixed.jsonl.gz").write_bytes(
        gzip.compress(("\n".join(json_lines) + "\n").encode("utf-8"), mtime=0))


def write_inputs() -> None:
    """The committed inputs; seeded, so rewriting them changes nothing."""
    GOLDEN.mkdir(exist_ok=True)
    universe, _truth = random_universe(seed=11, size=60)
    lines = [
        f"{t.count}\t{t.time_first}\t{t.time_last}\t{t.rrname}\t{t.rrtype}\t"
        f"{t.bailiwick}\t{','.join(t.rdata)}\n"
        for t in fixture_tuples(universe)
    ]
    (GOLDEN / "tuples.tsv").write_text("".join(lines), encoding="utf-8")
    (GOLDEN / "psl.dat").write_text(PSL, encoding="utf-8")
    (GOLDEN / "tlds.txt").write_text(TLDS, encoding="utf-8")
    (GOLDEN / "toplist.csv").write_text(TOPLIST, encoding="utf-8")
    (GOLDEN / "domains.txt").write_text(DOMAINS, encoding="utf-8")
    write_mixed_inputs()


def _quiet(argv, universe=None) -> tuple[int, str]:
    factory = (lambda cfg: universe) if universe is not None else None
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv, transport_factory=factory)
    return rc, buf.getvalue()


def cycles_universe():
    """A 25-zone tree with dependency cycles and black-holed servers; the
    tree of seed 69 of the liveness differential."""
    base, truth = random_universe(69, 25)
    return with_liveness_faults(base, 69), sorted(truth)


def _hints(work: Path, universe=None) -> str:
    path = work / "roots.hints"
    universe = universe or combined_two_scenario_universe()
    lines = [f"{name} {proto} {addr}" for name, proto, addr in universe.root_hints()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def produce(work: Path) -> dict[str, bytes]:
    """Every golden output, keyed by its path under ``expected/``."""
    out: dict[str, bytes] = {}
    for key, tuple_files, month in (("simulate", ["tuples.tsv"], "2023-02"),
                                    ("simulate-mixed", ["mixed.tsv", "mixed.jsonl.gz"],
                                     "2023-03")):
        sim = work / key
        rc, _ = _quiet(["simulate", *(str(GOLDEN / f) for f in tuple_files),
                        "--psl", str(GOLDEN / "psl.dat"),
                        "--tlds", str(GOLDEN / "tlds.txt"),
                        "--toplist", str(GOLDEN / "toplist.csv"),
                        "--month", month, "--out", str(sim)])
        assert rc == 0
        for name in SIMULATE_FILES:
            out[f"{key}/{name}"] = (sim / name).read_bytes()
    hints = _hints(work)
    for target in CHECK_TARGETS:
        rc, text = _quiet(["check", target, "--format", "structured",
                           "--roots", hints, *FAST],
                          combined_two_scenario_universe())
        assert rc in (0, 1), target
        out[f"check/{target}.json"] = text.encode("utf-8")
    rows = work / "scan.jsonl"
    rc, _ = _quiet(["scan", str(GOLDEN / "domains.txt"), "--output", str(rows),
                    "--concurrency", "1", "--roots", hints, *FAST],
                   combined_two_scenario_universe())
    assert rc == 0
    out["scan/rows.jsonl"] = rows.read_bytes()
    universe, zones = cycles_universe()
    domains = work / "cycles.txt"
    domains.write_text("".join(f"{zone}\n" for zone in zones), encoding="utf-8")
    rows = work / "cycles.jsonl"
    rc, _ = _quiet(["scan", str(domains), "--output", str(rows), "--concurrency", "1",
                    "--roots", _hints(work, universe), *FAST], universe)
    assert rc == 0
    out["scan-cycles/rows.jsonl"] = rows.read_bytes()
    return out


def _keys() -> list[str]:
    return sorted(str(p.relative_to(EXPECTED)) for p in EXPECTED.rglob("*")
                  if p.is_file())


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("golden"))


def test_golden_file_set(produced):
    assert sorted(produced) == _keys()


@pytest.mark.parametrize("key", _keys())
def test_golden_output_identical(produced, key):
    assert produced[key] == (EXPECTED / key).read_bytes(), key


# sha256 over the 98 queries of one `scan` of domains.txt and one enriched
# `check` on combined_two_scenario_universe, in the order they are sent
TRAFFIC_SHA256 = "b117840aee2ae978b630a82893d2168f095b0459e34400a499f79d07645c949b"


def test_query_traffic_fingerprint(tmp_path):
    """The packets themselves, not only the outputs built from them: which
    server is asked what, over which transport, with or without EDNS."""
    universe = combined_two_scenario_universe()
    hints = _hints(tmp_path)
    rc, _ = _quiet(["scan", str(GOLDEN / "domains.txt"), "--output",
                    str(tmp_path / "scan.jsonl"), "--concurrency", "1",
                    "--roots", hints, *FAST], universe)
    assert rc == 0
    rc, _ = _quiet(["check", "www.sub.example.org", "--format", "structured",
                    "--roots", hints, *FAST], universe)
    assert rc in (0, 1)
    digest = hashlib.sha256()
    queries = universe.log.queries()
    for entry in queries:
        q = entry.message.question
        edns = entry.message.edns
        digest.update(repr((
            entry.address, entry.transport, str(q.qname), str(q.qtype), q.qclass,
            edns.udp_payload_size if edns else None)).encode() + b"\n")
    assert len(queries) == 98
    assert digest.hexdigest() == TRAFFIC_SHA256


# sha256 over the replies to those 98 queries, with the server address and
# transport of each, in the order they are sent
REPLY_SHA256 = "2be20b6907170c8744fb1becc6380a7e5f2357ade706d95ac9fe0b538d91abaa"


def test_reply_traffic_fingerprint(tmp_path):
    """The bytes the servers send back: every reply after its ID (the one
    part the query picks), or the exception raised where none came."""
    recorder = RecordingTransport(combined_two_scenario_universe())
    hints = _hints(tmp_path)
    rc, _ = _quiet(["scan", str(GOLDEN / "domains.txt"), "--output",
                    str(tmp_path / "scan.jsonl"), "--concurrency", "1",
                    "--roots", hints, *FAST], recorder)
    assert rc == 0
    rc, _ = _quiet(["check", "www.sub.example.org", "--format", "structured",
                    "--roots", hints, *FAST], recorder)
    assert rc in (0, 1)
    digest = hashlib.sha256()
    for address, transport, _query, reply in recorder.exchanges:
        body = reply[2:] if isinstance(reply, bytes) else reply
        digest.update(repr((address, transport, body)).encode() + b"\n")
    assert len(recorder.exchanges) == 98
    assert digest.hexdigest() == REPLY_SHA256


if __name__ == "__main__":
    import tempfile

    write_inputs()
    with tempfile.TemporaryDirectory() as tmp:
        for key, data in produce(Path(tmp)).items():
            path = EXPECTED / key
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
            print(f"wrote {path.relative_to(GOLDEN.parent)}")
