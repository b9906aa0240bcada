"""Golden outputs of ``simulate``, ``check`` and ``scan`` on fixed inputs.

The inputs under ``tests/golden/`` are committed: passive tuples exported
by ``mocknet.fixture_tuples`` from one seeded ``random_universe``, a tiny
PSL, TLD list and toplist, and a scan list over the zones of
``combined_two_scenario_universe``. Every run must reproduce the files
under ``tests/golden/expected/`` byte for byte.

Regenerate them only when an output format changes on purpose:
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from universes import combined_two_scenario_universe  # noqa: E402
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


def _quiet(argv, universe=None) -> tuple[int, str]:
    factory = (lambda cfg: universe) if universe is not None else None
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv, transport_factory=factory)
    return rc, buf.getvalue()


def _hints(work: Path) -> str:
    path = work / "roots.hints"
    lines = [f"{name} {proto} {addr}" for name, proto, addr
             in combined_two_scenario_universe().root_hints()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def produce(work: Path) -> dict[str, bytes]:
    """Every golden output, keyed by its path under ``expected/``."""
    out: dict[str, bytes] = {}
    sim = work / "simulate"
    rc, _ = _quiet(["simulate", str(GOLDEN / "tuples.tsv"),
                    "--psl", str(GOLDEN / "psl.dat"),
                    "--tlds", str(GOLDEN / "tlds.txt"),
                    "--toplist", str(GOLDEN / "toplist.csv"),
                    "--month", "2023-02", "--out", str(sim)])
    assert rc == 0
    for name in SIMULATE_FILES:
        out[f"simulate/{name}"] = (sim / name).read_bytes()
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


# sha256 over the 110 queries of one `scan` of domains.txt and one enriched
# `check` on combined_two_scenario_universe, in the order they are sent
TRAFFIC_SHA256 = "2481a7ac2ffbd8900ddc4aa326f2c7cd3500d5f433daef2727a7749222758518"


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
    assert len(queries) == 110
    assert digest.hexdigest() == TRAFFIC_SHA256


if __name__ == "__main__":
    import tempfile

    write_inputs()
    with tempfile.TemporaryDirectory() as tmp:
        for key, data in produce(Path(tmp)).items():
            path = EXPECTED / key
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
            print(f"wrote {path.relative_to(GOLDEN.parent)}")
