"""Correctness checks of the program's outputs against the generator's oracle.

Each function returns a list of problems; an empty list means the output
is right. Nothing here imports ``v6ready``: outputs are read as the files
and JSON documents the program writes.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

V4, V6 = "v4", "v6"
STATES = ("dual", "v4-only", "v6-only", "none")


def _verdict_problem(where: str, got_v4, got_v6, truth: list[bool]) -> str | None:
    if [got_v4, got_v6] != truth:
        return f"{where}: v4/v6 {got_v4}/{got_v6}, oracle {truth[0]}/{truth[1]}"
    return None


def check_month(outdir: Path, month: dict) -> list[str]:
    """``simulate`` outputs of one month: verdicts, stats and CSVs."""
    problems = []
    truth = month["truth"]
    lines = (outdir / "verdicts.jsonl").read_text(encoding="utf-8").splitlines()
    seen = set()
    for line in lines[1:]:
        doc = json.loads(line)
        zone = doc["zone"]
        seen.add(zone)
        if zone not in truth:
            problems.append(f"verdicts: unexpected zone {zone}")
            continue
        p = _verdict_problem(f"verdicts {zone}", doc["v4"], doc["v6"], truth[zone])
        if p:
            problems.append(p)
    missing = len(truth) - len(seen & truth.keys())
    if missing:
        problems.append(f"verdicts: {missing} zones missing")

    stats = json.loads((outdir / "stats.json").read_text(encoding="utf-8"))
    if sum(stats["states"][s] for s in STATES) != stats["total_zones"]:
        problems.append("stats: state counts do not sum to total_zones")
    if stats["total_zones"] != len(truth):
        problems.append(f"stats: total_zones {stats['total_zones']}, oracle {len(truth)}")
    if stats["ingest"]["malformed"] != month["malformed"]:
        problems.append(f"stats: malformed {stats['ingest']['malformed']}, "
                        f"injected {month['malformed']}")
    if stats["unknown_parent"] != 0:
        problems.append(f"stats: unknown_parent {stats['unknown_parent']}")

    with open(outdir / "causes.csv", newline="", encoding="utf-8") as fh:
        populations = {int(row["population"]) for row in csv.DictReader(fh)}
    if populations - {stats["intent_v6_broken"]}:
        problems.append(f"causes.csv: population {sorted(populations)}, "
                        f"intent_v6_broken {stats['intent_v6_broken']}")

    with open(outdir / "nsset-cdf.csv", newline="", encoding="utf-8") as fh:
        points = [(float(r["set_fraction"]), float(r["zone_fraction"]))
                  for r in csv.DictReader(fh)]
    if not points:
        problems.append("nsset-cdf.csv: empty")
    else:
        if any(b[0] < a[0] or b[1] < a[1] for a, b in zip(points, points[1:])):
            problems.append("nsset-cdf.csv: decreasing")
        if points[-1][1] != 1.0:
            problems.append(f"nsset-cdf.csv: ends at {points[-1][1]}")
        if abs(points[0][1] - month["top_share"]) > 1e-6:
            problems.append(f"nsset-cdf.csv: top NS-set share {points[0][1]}, "
                            f"recount {month['top_share']:.6f}")
    return problems


def check_scan_rows(rows: list[dict], truth: dict[str, list[bool]]) -> list[str]:
    """One row per listed domain, in order, with the oracle's verdicts."""
    problems = []
    if [r["domain"] for r in rows] != list(truth):
        problems.append(f"scan: {len(rows)} rows do not follow the {len(truth)}-domain list")
    for row in rows:
        if row.get("error") is not None:
            problems.append(f"scan {row['domain']}: error {row['error']}")
            continue
        want = truth.get(row["domain"])
        if want is None:
            continue
        p = _verdict_problem(f"scan {row['domain']}", row["v4_resolvable"],
                             row["v6_resolvable"], want)
        if p:
            problems.append(p)
    return problems


def check_check(target: str, rc: int, doc: dict | None, truth: list[bool],
                blackholed: dict[str, set[str]]) -> list[str]:
    """One ``check --format structured`` call: verdicts, exit code and
    liveness rows."""
    if doc is None:
        return [f"check {target}: exit {rc} without a chain result"]
    problems = []
    p = _verdict_problem(f"check {target}", doc["v4_resolvable"],
                         doc["v6_resolvable"], truth)
    if p:
        problems.append(p)
    if rc != (0 if doc["v6_resolvable"] else 1):
        problems.append(f"check {target}: exit {rc} with v6_resolvable "
                        f"{doc['v6_resolvable']}")
    for addr, proto, verdict in doc["liveness"]:
        want = "unresponsive" if addr in blackholed[proto] else "responsive"
        if verdict != want:
            problems.append(f"check {target}: liveness {addr} {verdict}, want {want}")
    return problems
