"""v6ready benchmark: seeded workloads through ``v6ready.cli.main``.

    python3 bench/run.py --workload passive-monthly --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One run builds its inputs from the seed (cached under ``.bench_work/``,
outside every timed region), imports ``v6ready`` from ``src/`` of the
checkout, sets up, then repeats whole rounds of program calls until
``--seconds`` have passed, checking every output against the generator's
oracle. The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced run with
``--trace 1``). See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
HASH_SEED = "0"
SETUP_REPEATS = 5
REFERENCE_S = workloads.REFERENCE_S

ALL = list(workloads.WORKLOADS)


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def inputs_for(workload: str, seed: int) -> tuple[Path, dict]:
    """The seed's inputs, generated once in a child process and cached."""
    dest = WORK / "inputs" / f"{workload}-{seed}"
    if not (dest / "manifest.json").is_file():
        tmp = WORK / "inputs" / f".tmp-{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.parent.mkdir(parents=True, exist_ok=True)
        subprocess.run([sys.executable, str(BENCH / "gen.py"), workload, str(seed),
                        str(tmp)], check=True, timeout=120)
        try:
            tmp.rename(dest)
        except OSError:  # a concurrent run of the same seed made them first
            shutil.rmtree(tmp)
    return dest, json.loads((dest / "manifest.json").read_text(encoding="utf-8"))


def import_checked() -> dict:
    v6 = workloads.import_v6ready()
    where = Path(v6["cli"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        fail(f"v6ready was imported from {where}, not from {SRC}")
    return v6


def setup_times(name: str, inputs: Path) -> list[float]:
    """Set-up CPU seconds at the reference speed, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_once.py"), name, str(inputs), str(SRC)],
            stdout=subprocess.PIPE, text=True, check=True, timeout=120)
        doc = json.loads(proc.stdout.splitlines()[-1])
        times.append(doc["cpu_s"] * REFERENCE_S / doc["reference_s"])
    return times


def traced_setups(wl) -> tuple[list[Tracer], dict]:
    """Set up ``SETUP_REPEATS`` times in this process, each with a fresh
    import of v6ready and a tracer around the loaders."""
    tracers = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        v6 = import_checked()
        tracer = Tracer()
        tracer.install(v6)
        wl.setup(v6)
        tracer.uninstall()
        tracers.append(tracer)
    return tracers, v6


def run_rounds(wl, v6: dict, seconds: float) -> list[list]:
    """Whole rounds until ``seconds`` of wall time have passed; at least one."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        gc.collect()
        wl.probe.start_round()
        rounds.append(wl.round(v6))
        wl.probe.end_round()
    return rounds


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summary(ops: list) -> tuple[bool, int, int, list[str]]:
    problems = [p for op in ops for p in op.problems]
    return (not problems, sum(op.attempted for op in ops),
            sum(op.failed for op in ops), problems)


def end_to_end(wl, name: str, inputs: Path, seconds: float) -> tuple[list, dict]:
    """Medians over rounds of CPU times, each round's rescaled to the
    reference speed measured during it.

    Every round makes the same calls, so call ``i`` of a round has a median
    CPU time over the rounds; ``op_p50_ms`` and ``op_p95_ms`` are
    percentiles over those per-call medians.
    """
    setups = setup_times(name, inputs)
    v6 = import_checked()
    wl.setup(v6)
    rounds = run_rounds(wl, v6, seconds)
    scales = wl.probe.round_scales
    print(f"reference loop: {1000 * statistics.mean(wl.probe.samples):.3f} ms mean over "
          f"{len(wl.probe.samples)} samples; {len(rounds)} rounds", file=sys.stderr)
    per_call = [statistics.median(r[i].cpu_s * k for r, k in zip(rounds, scales))
                for i in range(len(rounds[0]))]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "items_per_s": (statistics.median(
            sum(op.items for op in r) / (sum(op.cpu_s for op in r) * k)
            for r, k in zip(rounds, scales)), "1/s"),
        "op_p50_ms": (1000 * percentile(per_call, 0.5), "ms"),
        "op_p95_ms": (1000 * percentile(per_call, 0.95), "ms"),
    }
    return [op for r in rounds for op in r], metrics


def per_layer(wl, name: str, seconds: float) -> tuple[list, dict]:
    """A separate traced run: a warm-up round, then untraced and traced
    rounds in turn for ``seconds``; the overhead compares their medians.
    Spans are written to ``.bench_work/spans-<workload>.tsv``."""
    setup_tracers, v6 = traced_setups(wl)
    warm_ops = run_rounds(wl, v6, 0)[0]

    peak_alloc_mb = 0.0
    if name == "passive-monthly":
        import tracemalloc

        gc.collect()
        tracemalloc.start()
        workloads.quiet_main(v6["cli"], wl.argv(wl.manifest["months"][-1]), wl.probe)
        peak_alloc_mb = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()

    tracer = Tracer()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced += run_rounds(wl, v6, 0)
        tracer.install(v6)
        traced += run_rounds(wl, v6, 0)
        tracer.uninstall()
    tracer.write(WORK / f"spans-{name}.tsv")
    ops, rounds = [op for r in traced for op in r], len(traced)

    def round_cpu(rs: list) -> float:
        return statistics.median(sum(op.cpu_s for op in r) for r in rs)

    items = sum(op.items for op in ops)
    net = sum((op.net for op in ops), start=type(ops[0].net)())
    t = tracer.totals()

    def per_round(span: str, key: str = "total_s") -> float:
        return t[span][key] / rounds

    def per_setup(span: str) -> float:
        return statistics.median(st.totals()[span]["total_s"] for st in setup_tracers)

    hits = sum(c.hits for c in tracer.caches)
    lookups = hits + sum(c.misses for c in tracer.caches)
    sizes = tracer.fixed_point_sizes
    scan_bytes = wl.output.stat().st_size if name == "scan-warm" else 0
    metrics = {
        "passive.iter_tuples_s": (per_round("passive.iter_tuples"), "s"),
        "passive.ingest_s": (per_round("passive.ingest"), "s"),
        "passive.fixed_point_s": (per_round("passive.fixed_point"), "s"),
        "passive.fixed_point_sweeps": (
            statistics.mean(tracer.sweeps) if tracer.sweeps else 0.0, "count"),
        "passive.fixed_point_slope": (slope(sizes, rounds), "ratio"),
        "passive.classify_zones_s": (per_round("passive.classify_zones"), "s"),
        "passive.write_verdicts_s": (per_round("passive.write_verdicts"), "s"),
        "cli.simulate_peak_alloc_mb": (peak_alloc_mb, "MB"),
        "analytics.state_share_rows_s": (per_round("analytics.state_share_rows"), "s"),
        "analytics.cause_share_rows_s": (per_round("analytics.cause_share_rows"), "s"),
        "analytics.nsset_cdf_s": (per_round("analytics.nsset_cdf"), "s"),
        "analytics.load_toplist_s": (per_setup("analytics.load_toplist"), "s"),
        "psl.load_s": (per_setup("psl.load"), "s"),
        "names.normalize_calls": (tracer.count("names.normalize") / items, "count"),
        "names.compare_calls": (
            (tracer.count("names.lt") + tracer.count("names.eq")) / items, "count"),
        "resolver.resolve_chain_self_s": (
            per_round("resolver.resolve_chain", "self_s"), "s"),
        "resolver.engine_queries_per_domain": (t["query.query"]["calls"] / items, "count"),
        "resolver.enrich_s": (per_round("resolver.enrich"), "s"),
        "resolver.probe_liveness_s": (per_round("resolver.probe_ns_liveness"), "s"),
        "query.cache_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "query.query_self_s": (per_round("query.query", "self_s"), "s"),
        "query.exchanges_per_item": (net["exchanges"] / items, "count"),
        "query.udp_exchanges": (net["udp"] / items, "count"),
        "query.tcp_exchanges": (net["tcp"] / items, "count"),
        "query.edns_downgrades": (net["edns_downgrades"] / items, "count"),
        "query.timeouts": (net["timeouts"] / items, "count"),
        "wire.encode_s": (per_round("wire.encode"), "s"),
        "wire.decode_s": (per_round("wire.decode"), "s"),
        "classify.classify_s": (per_round("classify.classify"), "s"),
        "mocknet.exchange_self_s": (per_round("mocknet.exchange", "self_s"), "s"),
        "mocknet.universe_build_s": (per_setup("mocknet.build_universe"), "s"),
        "cli.scan_row_bytes_per_domain": (scan_bytes / wl.items_per_round, "B"),
        "trace.overhead": (round_cpu(traced) / round_cpu(untraced) - 1, "ratio"),
    }
    return warm_ops + [op for r in untraced for op in r] + ops, metrics


def slope(sizes: list[tuple[int, int]], rounds: int) -> float:
    """Least-squares slope of log(fixed_point time) against log(zones)."""
    if len({n for n, _ in sizes}) < 2:
        return 0.0
    by_size: dict[int, float] = {}
    for n, ns in sizes:
        by_size[n] = by_size.get(n, 0.0) + ns / rounds
    xs = [math.log(n) for n in by_size]
    ys = [math.log(v) for v in by_size.values()]
    mx, my = statistics.mean(xs), statistics.mean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "v6ready" / "__init__.py").is_file():
        fail(f"no v6ready sources under {SRC}")
    sys.path.insert(0, str(SRC))
    inputs, manifest = inputs_for(name, seed)
    work = WORK / "out" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        # the traced run reports raw times: no probing inside its spans
        probe = workloads.SpeedProbe(math.inf if trace else workloads.PROBE_EVERY)
        wl = workloads.WORKLOADS[name](inputs, manifest, work, probe)
        ops, metrics = (per_layer(wl, name, seconds) if trace
                        else end_to_end(wl, name, inputs, seconds))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct, attempted, failed, problems = summary(ops)
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(seed: int, seconds: float, trace: int) -> None:
    """Every workload, each in a fresh interpreter; a table, then JSON."""
    results = {}
    for name in ALL:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            fail(f"{name} exited {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:36s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))


def main() -> None:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=ALL + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
        return
    print(json.dumps(run_one(args.workload, args.seed, args.seconds, bool(args.trace))))


if __name__ == "__main__":
    main()
