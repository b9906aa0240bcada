"""Outputs must not depend on the order of sets and dicts: the same commands
under two hash seeds write the same bytes.

Each run is a fresh interpreter, since ``PYTHONHASHSEED`` is read at start.
It runs ``simulate`` on the golden inputs and ``check --format structured``
on a few targets of a small mocknet universe, and prints every output.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

SCRIPT = r"""
import contextlib, io, sys
from pathlib import Path

from universes import combined_two_scenario_universe
from v6ready import cli

golden, work = Path(sys.argv[1]), Path(sys.argv[2])


def run(argv, universe=None):
    buf = io.StringIO()
    factory = (lambda cfg: universe) if universe is not None else None
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv, transport_factory=factory)
    return rc, buf.getvalue()


out = work / "simulate"
rc, text = run(["simulate", str(golden / "tuples.tsv"), "--psl", str(golden / "psl.dat"),
                "--tlds", str(golden / "tlds.txt"), "--toplist", str(golden / "toplist.csv"),
                "--month", "2023-02", "--out", str(out)])
print("simulate", rc, text.replace(str(out), "OUT"))
for path in sorted(out.iterdir()):
    print("==", path.name)
    print(path.read_text(encoding="utf-8"))
universe = combined_two_scenario_universe()
hints = work / "roots.hints"
hints.write_text("".join(f"{n} {p} {a}\n" for n, p, a in universe.root_hints()))
for target in ("org", "example.org", "sub.example.org", "www.sub.example.org"):
    rc, text = run(["check", target, "--format", "structured", "--roots", str(hints),
                    "--timeout", "0.2", "--tcp-timeout", "0.2", "--retry-wait", "0",
                    "--seed", "1"], universe)
    print("check", target, rc, text)
"""


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    procs = []
    for seed in ("0", "1"):
        work = tmp_path / seed
        work.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)])}
        procs.append(subprocess.Popen(
            [sys.executable, "-c", SCRIPT, str(TESTS / "golden"), str(work)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE))
    results = []
    for proc in procs:
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err.decode()
        results.append(out)
    assert b"== verdicts.jsonl" in results[0] and b"check www.sub.example.org" in results[0]
    assert results[0] == results[1]
